"""Skew-safe aggregation helpers.

A bare ``groupby(key).aggregate(...)`` shuffles every row and a hot key
(the hot entity, ~10% of mentions) lands on one reducer.  The
combiner pattern here pre-aggregates inside ``map_batches`` (one
partial row per key per batch) so the shuffle moves only partials —
the hot key contributes at most ``num_blocks`` rows instead of all its
occurrences.  This is the standard map-side combine; salting is then
unnecessary for algebraic aggregates (counts/sums) and is reserved for
holistic per-group computations (see ``canonicalize``).
"""

from __future__ import annotations

import pyarrow as pa


def salted_count(ds, key: str):
    """count() per key with map-side partial aggregation."""

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        counts = batch.group_by(key).aggregate([(key, "count")])
        return counts.rename_columns([key, "partial_count"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    return partials.groupby(key).aggregate(Sum("partial_count", alias_name="n"))


def diagnostics_rollup(diags_ds):
    """groupby(diagnostic class).count() over the diagnostics output
    (engine analogue of inspecting the reference's processor graph)."""
    return salted_count(diags_ds, "pred")
