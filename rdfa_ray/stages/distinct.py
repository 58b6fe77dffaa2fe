"""Distributed distinct without per-group Python calls.

Round-1 used ``groupby(cols).map_groups(lambda g: g.head(1))`` — one
pandas call per distinct value, which at 100-TB scale means billions of
tiny Python invocations.  This module replaces that with the two-level
pattern the engine uses everywhere:

  1. map-side partial dedup inside ``map_batches`` (Arrow ``group_by``
     — vectorized, shrinks the shuffle to unique-per-block rows), then
  2. one keyed exchange (``functions/exchange.keyed_exchange``) whose
     per-bucket kernel is the same dedup over the whole bucket (dedup
     is idempotent, so the reducer is the partial).

``extra`` columns ride along with deterministic min-semantics (the
lexicographically smallest extra tuple per key survives — associative,
so partial+final agree regardless of block boundaries).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import keyed_exchange

N_BUCKETS = 64
_FIRST_ROW = "__first_row"


def group_in_order(t: pa.Table, keys, aggs=()) -> pa.Table:
    """``t.group_by(keys).aggregate(aggs)`` on one thread, groups in
    order of first appearance: the key columns, then the aggregates.
    Arrow's hash grouper does not promise that order by itself (a key
    whose hash collides is numbered after the rest of its minibatch)."""
    t = t.append_column(_FIRST_ROW, pa.array(np.arange(t.num_rows)))
    g = t.group_by(list(keys), use_threads=False).aggregate(
        [*aggs, (_FIRST_ROW, "min")]
    )
    return g.sort_by(_FIRST_ROW + "_min").drop_columns([_FIRST_ROW + "_min"])


def _distinct_kernel(cols, extra):
    """The partial dedup, which is also the per-bucket reducer: rows in
    first-appearance order, ``cols`` then ``extra``."""
    out_cols = cols + extra

    def dedup(batch: pa.Table) -> pa.Table:
        t = batch.select(out_cols)
        if not extra:
            return group_in_order(t, cols)
        # ROW-WISE min: sort by cols+extra, take the first extra
        # tuple per key.  Independent per-column mins here would fabricate
        # (extra1_min, extra2_min) combinations that never co-occurred
        # and make the survivor depend on block boundaries.
        t = t.sort_by([(c, "ascending") for c in out_cols])
        # "first" keeps a null: the survivor is one whole row
        keep_null = pc.ScalarAggregateOptions(skip_nulls=False)
        g = group_in_order(t, cols, [(e, "first", keep_null) for e in extra])
        return g.rename_columns(out_cols)

    return dedup


def distinct(ds, cols, n_buckets: int = N_BUCKETS, extra=()):
    """Distinct rows of ``cols`` (+ deterministic ``extra`` carry-along).

    Returns a Dataset with exactly ``list(cols) + list(extra)`` columns.
    """
    dedup = _distinct_kernel(list(cols), list(extra))
    return keyed_exchange(
        ds.map_batches(dedup, batch_format="pyarrow"), list(cols), dedup,
        n_buckets, batch_format="pyarrow",
    )
