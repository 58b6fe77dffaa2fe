"""Distributed distinct without per-group Python calls.

Round-1 used ``groupby(cols).map_groups(lambda g: g.head(1))`` — one
pandas call per distinct value, which at 100-TB scale means billions of
tiny Python invocations.  This module replaces that with the two-level
pattern the engine uses everywhere:

  1. map-side partial dedup inside ``map_batches`` (Arrow ``group_by``
     — vectorized, shrinks the shuffle to unique-per-block rows), then
  2. one keyed exchange (``functions/exchange.keyed_exchange``) whose
     per-bucket kernel is a single vectorized ``drop_duplicates`` over
     the whole bucket.

``extra`` columns ride along with deterministic min-semantics (the
lexicographically smallest extra tuple per key survives — associative,
so partial+final agree regardless of block boundaries).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.exchange import keyed_exchange

N_BUCKETS = 64


def distinct(ds, cols, n_buckets: int = N_BUCKETS, extra=()):
    """Distinct rows of ``cols`` (+ deterministic ``extra`` carry-along).

    Returns a Dataset with exactly ``list(cols) + list(extra)`` columns.
    """
    cols = list(cols)
    extra = list(extra)
    out_cols = cols + extra

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(out_cols)
        if extra:
            # ROW-WISE min: sort by cols+extra, take the first extra
            # tuple per key (single-threaded group_by preserves scan
            # order).  Independent per-column mins here would fabricate
            # (extra1_min, extra2_min) combinations that never
            # co-occurred and make the survivor depend on block
            # boundaries — the reduce side dedups on whole rows, so
            # partial and final must agree on the same row.
            t = t.sort_by([(c, "ascending") for c in out_cols])
            g = t.group_by(cols, use_threads=False).aggregate(
                [(e, "first") for e in extra]
            )
            # aggregate output names are '<col>_first'; rebuild in order
            g = pa.Table.from_pydict(
                {
                    **{c: g.column(c) for c in cols},
                    **{e: g.column(e + "_first") for e in extra},
                }
            )
        else:
            g = t.group_by(cols).aggregate([])
            g = g.select(cols)
        return g

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def bucket_distinct(group: pd.DataFrame) -> pd.DataFrame:
        if extra:
            group = group.sort_values(out_cols, kind="mergesort")
        return group.drop_duplicates(cols)[out_cols]

    return keyed_exchange(partials, cols, bucket_distinct, n_buckets)
