"""Windowed range join (interval join) for two large sides.

``range_join_count`` answers "for each left row, how many right rows
share its key and fall inside ``[left_ts + lo, left_ts + hi]``" — the
time-window join a training-data pipeline uses for e.g. "clicks in the
hour before each purchase" (reference analogue: none; this is one of
the extra large-scale ops, like ``stages/asof.py``).

Scale plan (the ``stages/join.py`` shape): ONE keyed exchange
(``functions/exchange.co_group``) on ``by`` co-locates each key's rows
from both sides;
inside a bucket everything is vectorized — ``pd.factorize`` maps keys
to dense codes, each row becomes a single int64 composite
``code * span + (ts - ts_min)``, and the per-left-row match count is
two ``np.searchsorted`` calls against the sorted right-side composites
(no per-key Python, no pairwise blow-up; the output is left-sized, and
a bucket's cost is O(n log n) in its own rows).  Composite overflow is
impossible by construction: ``code < rows_in_bucket`` and ``span`` is
the bucket's own timestamp range, so ``code * span`` stays far inside
int64 for any block that fits in memory.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.exchange import co_group


def range_join_count(
    left_ds,
    right_ds,
    by: str,
    lo_us: int,
    hi_us: int,
    ts_col: str = "ts",
    keep: list[str] | None = None,
    keep_schema: pa.Schema | None = None,
    count_col: str = "n_matches",
    n_buckets: int = 64,
):
    """Per-left-row count of right rows with the same ``by`` and
    ``right.ts`` in the inclusive window ``[left.ts+lo_us, left.ts+hi_us]``.

    Both sides need ``by`` + ``ts_col`` (+ ``keep`` extras on the
    left).  Timestamps are compared at microsecond precision.
    Returns ``keep`` columns + ``count_col`` as a typed Arrow block;
    ``keep_schema`` (default all-int64) declares the ``keep`` types."""
    keep = keep or []
    if keep_schema is None:
        keep_schema = pa.schema([(c, pa.int64()) for c in keep])
    out_schema = pa.schema(list(keep_schema) + [pa.field(count_col, pa.int64())])
    empty_table = out_schema.empty_table()
    # casting to us normalizes first — a timestamp[ns] input (pandas
    # default) would otherwise silently shrink the window 1000x
    ts_field = pa.field(ts_col, pa.timestamp("us"))
    left_schema = pa.schema([ts_field, *(f for f in keep_schema if f.name != by)])

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if not lt.num_rows:
            return empty_table
        l, r = lt.to_pandas(), rt.to_pandas()
        codes, _ = pd.factorize(
            pd.concat([l[by], r[by]], ignore_index=True), sort=False
        )
        lc, rc = codes[: len(l)], codes[len(l) :]
        lts = lt.column(ts_col).cast(pa.int64()).to_numpy()
        rts = rt.column(ts_col).cast(pa.int64()).to_numpy()
        ts_min = min(lts.min() + lo_us, rts.min() if len(r) else lts.min())
        span = (
            max(lts.max() + hi_us, rts.max() if len(r) else lts.max())
            - ts_min
            + 2
        )
        r_keys = np.sort(rc * span + (rts - ts_min)) if len(r) else rts
        lo_keys = lc * span + np.clip(lts + lo_us - ts_min, 0, span - 1)
        hi_keys = lc * span + np.clip(lts + hi_us - ts_min, 0, span - 1)
        counts = np.searchsorted(r_keys, hi_keys, side="right") - np.searchsorted(
            r_keys, lo_keys, side="left"
        )
        out = l[keep].copy()
        out[count_col] = counts.astype("int64")
        return pa.Table.from_pandas(
            out, schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return co_group(
        left_ds, right_ds, by, join_bucket, n_buckets,
        left_schema=left_schema, right_schema=pa.schema([ts_field]),
    )
