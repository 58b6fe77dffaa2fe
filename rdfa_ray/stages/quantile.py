"""Exact distributed per-group quantiles (discrete / order-statistic
semantics, matching SQL ``quantile_disc``).

Scale plan: never ship raw value rows.  Map-side, each block collapses
to a (group, value) -> count histogram partial; one Ray-native grouped
sum merges the partials; the per-group quantile is then a vectorized
cumulative-sum scan over the (small) merged histogram.  The exchange
volume is bounded by the number of DISTINCT (group, value) pairs, not
by row count — the right shape whenever the value domain is bounded
(prices in cents, latencies in ms, scores in milli-units).  For a
genuinely unbounded continuous domain, discretize first or swap in a
mergeable sketch; this module keeps exact semantics so the SQL oracle
(``quantile_disc``) can check it.

``quantile_disc`` picks the smallest value whose cumulative row count
reaches ``ceil(q * n)`` — reproduced exactly below (no interpolation,
so float-eps drift between engines is impossible).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# Default ceiling on merged (group, value) histogram rows.  The exact
# path's exchange volume is distinct-pair bounded — the right shape for
# quantized/integer domains, UNBOUNDED for a continuous column at
# 100 TB.  Above the ceiling the exact path refuses loudly instead of
# silently growing; ``stages/sketch.quantile_sketch`` is the
# bounded-error alternative for such domains.
_MAX_HIST_ROWS = 50_000_000


def guard_hist_rows(hist_ds, label: str, max_hist_rows: int = _MAX_HIST_ROWS):
    """Materialize the merged (group, value) histogram Dataset and
    refuse loudly when its row count (distinct pairs) exceeds
    ``max_hist_rows`` — the signature of a continuous value domain for
    which the exact order-statistic path is the wrong tool.  Returns
    the materialized histogram for reuse."""
    hist_ds = hist_ds.materialize()
    n = hist_ds.count()
    if n > max_hist_rows:
        raise ValueError(
            "%s: merged (group, value) histogram has %d rows > "
            "max_hist_rows=%d — the value domain is too continuous for "
            "the exact order-statistic path; discretize the column or "
            "use stages/sketch.quantile_sketch (bounded-error, "
            "fixed-size partials)" % (label, n, max_hist_rows)
        )
    return hist_ds


def grouped_quantiles(
    ds,
    group: str,
    value: str,
    qs: list[float],
    n_buckets: int = 64,
    max_hist_rows: int = _MAX_HIST_ROWS,
):
    """Exact per-group quantiles of an int64 ``value`` column.

    Returns one row per group: ``group, q50, q90, ...`` (column per
    requested quantile, named ``q<percent>``).
    """
    from ray.data.aggregate import Sum

    from ..functions.exchange import keyed_exchange

    def partial(batch: pa.Table) -> pa.Table:
        # block-local histogram: the only thing that shuffles
        return (
            batch.select([group, value])
            .group_by([group, value])
            .aggregate([([], "count_all")])
            .rename_columns([group, value, "n"])
        )

    hist = guard_hist_rows(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group, value])
        .aggregate(Sum("n", alias_name="n")),
        label="grouped_quantiles",
        max_hist_rows=max_hist_rows,
    )

    qcols = ["q%d" % round(q * 100) for q in qs]

    def bucket_quantiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group, value], kind="mergesort")
        cum = g.groupby(group, sort=False)["n"].cumsum().to_numpy()
        totals = g.groupby(group, sort=False)["n"].transform("sum").to_numpy()
        parts = []
        for q, col in zip(qs, qcols):
            target = np.maximum(np.ceil(q * totals).astype(np.int64), 1)
            hit = g.loc[cum >= target, [group, value]]
            parts.append(
                hit.groupby(group, sort=False, as_index=True)[value]
                .first()
                .rename(col)
            )
        out = pd.concat(parts, axis=1).reset_index()
        out.columns = [group] + qcols
        for c in qcols:
            out[c] = out[c].astype("int64")
        return out

    # second exchange keys only the group (histogram rows are already
    # few); the per-bucket kernel is one vectorized cumsum scan
    return keyed_exchange(hist, group, bucket_quantiles, n_buckets)

def grouped_quantiles_cont(
    ds,
    group: str,
    value: str,
    qs_pct: list[int],
    n_buckets: int = 64,
    max_hist_rows: int = _MAX_HIST_ROWS,
):
    """Exact per-group INTERPOLATED quantiles (SQL ``quantile_cont`` /
    ``percentile_cont`` semantics) of an int64 ``value`` column, in
    integer micro-units.

    ``percentile_cont`` places quantile q at 0-indexed position
    ``p = q * (n - 1)`` and linearly interpolates the two bracketing
    order statistics.  With q a whole percent (``k / 100``) the
    interpolation is RATIONAL: ``lo = (k*(n-1)) // 100``,
    ``rem = (k*(n-1)) % 100``, and

        result_micro = v_lo * 1_000_000 + (v_hi - v_lo) * rem * 10_000

    is an exact int64 — no float ever enters, so results are
    bit-identical at any parallelism AND reproducible by integer SQL
    (a float percentile_cont differs in the last ulp between engines;
    this formulation sidesteps the entire class).  Same exchange shape
    as ``grouped_quantiles``: block-local (group, value) histograms,
    one grouped sum, one group-keyed exchange, vectorized cumsum scan.

    Returns one row per group: ``group, q<k>_micro ...`` (int64).
    """
    from ray.data.aggregate import Sum

    from ..functions.exchange import keyed_exchange

    for k in qs_pct:
        if not (isinstance(k, int) and 0 <= k <= 100):
            raise ValueError("qs_pct must be whole percents in [0, 100], got %r" % (k,))

    def partial(batch: pa.Table) -> pa.Table:
        return (
            batch.select([group, value])
            .group_by([group, value])
            .aggregate([([], "count_all")])
            .rename_columns([group, value, "n"])
        )

    hist = guard_hist_rows(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group, value])
        .aggregate(Sum("n", alias_name="n")),
        label="grouped_quantiles_cont",
        max_hist_rows=max_hist_rows,
    )

    qcols = ["q%d_micro" % k for k in qs_pct]

    def rank_lookup(g: pd.DataFrame, cum: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Value of the rank-th order statistic per group (ranks is
        row-aligned: every row of a group carries its group's target
        rank)."""
        hit = g.loc[cum >= ranks, [group, value]]
        return (
            hit.groupby(group, sort=False, as_index=True)[value]
            .first()
            .to_numpy()
        )

    def bucket_quantiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group, value], kind="mergesort")
        cum = g.groupby(group, sort=False)["n"].cumsum().to_numpy()
        totals = g.groupby(group, sort=False)["n"].transform("sum").to_numpy()
        keys = g.groupby(group, sort=False, as_index=True)[value].first().index
        parts = []
        for k, col in zip(qs_pct, qcols):
            num = k * (totals - 1)            # position numerator (per row)
            lo_rank = num // 100 + 1          # 1-indexed bracketing ranks
            rem = num % 100
            hi_rank = np.minimum(lo_rank + 1, totals)
            v_lo = rank_lookup(g, cum, lo_rank)
            v_hi = rank_lookup(g, cum, hi_rank)
            # one rem per group: take it at the group's first row
            first_rows = np.flatnonzero(
                np.r_[True, (g[group].to_numpy()[1:] != g[group].to_numpy()[:-1])]
            )
            rem_g = rem[first_rows]
            micro = v_lo * 1_000_000 + (v_hi - v_lo) * rem_g * 10_000
            parts.append(pd.Series(micro, index=keys, name=col))
        out = pd.concat(parts, axis=1).reset_index()
        out.columns = [group] + qcols
        for c in qcols:
            out[c] = out[c].astype("int64")
        return out

    return keyed_exchange(hist, group, bucket_quantiles, n_buckets)
