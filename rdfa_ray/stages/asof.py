"""As-of (most-recent-prior) join — a custom operator Ray Data lacks.

For each left row, attach the right row with the largest ``on`` value
that is <= the left row's ``on``, within the same ``by`` group
(e.g. "for each purchase, the user's most recent prior click").

Physical plan (documented partitioning assumption): ONE keyed exchange
of BOTH sides on ``by`` (``functions/exchange.co_group``), then a
per-bucket vectorized
``pandas.merge_asof`` over the bucket sorted by ``on``.  Correct
because an as-of match can only pair rows sharing the ``by`` key, and
the bucket holds every row of its ``by`` groups.  Bucket load is
uniform under the key hash; a pathologically hot ``by`` key bounds a
single bucket at that key's row count (raise ``n_buckets`` to shrink
everything else around it).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.exchange import co_group


def asof_join(
    left_ds,
    right_ds,
    on: str,
    by: str,
    n_buckets: int = 32,
    suffix: str = "_r",
):
    """Backward as-of left join; right-side name collisions get ``suffix``."""
    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = list(left_schema.names)
    right_cols = [c + suffix if c in left_cols else c for c in right_schema.names]
    on_r = right_cols[right_schema.names.index(on)]
    by_r = right_cols[right_schema.names.index(by)]
    all_cols = left_cols + right_cols

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pd.DataFrame:
        lt = lt.select(left_cols)
        rt = rt.select(right_schema.names).rename_columns(right_cols)
        if not lt.num_rows:
            return pa.schema([*lt.schema, *rt.schema]).empty_table().to_pandas()
        l = lt.to_pandas().sort_values(on, kind="mergesort")
        r = rt.to_pandas().sort_values(on_r, kind="mergesort")
        if len(r) == 0:
            for c in right_cols:
                l[c] = pd.Series([None] * len(l), index=l.index)
            return l[all_cols]
        return pd.merge_asof(
            l, r, left_on=on, right_on=on_r, left_by=by, right_by=by_r,
            direction="backward",
        )[all_cols]

    return co_group(
        left_ds, right_ds, by, join_bucket, n_buckets,
        left_schema=left_schema, right_schema=right_schema,
    )
