"""KMV (K-minimum-values) distinct-count sketch — the mergeable
approximate counterpart of ``relational.events_distinct_users``.

At 100-TB scale an exact distinct count shuffles every unique key; a
KMV sketch shuffles at most K 8-byte hashes per (block, group):

* map side: per block and group, hash each key (md5 -> uint64 fraction
  of hash space) and keep the K smallest values — a mergeable partial.
* reduce: union the partials per group, re-take the K smallest, and
  estimate ``n_distinct ~= (K - 1) / kth_smallest_fraction`` (the
  classic KMV estimator; exact when fewer than K distinct values were
  seen).  Deterministic: hashing, no RNG.

Relative error ~ 1/sqrt(K); K=256 gives ~6%.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import splitmix64

_MAX64 = float(1 << 64)


def _hash_fractions(values) -> np.ndarray:
    """Uniform [0,1) hash per value, vectorized.

    Integer keys: numpy splitmix64 (zero Python-level work).  Other
    keys: polars' vectorized xxhash when available (stable within a
    run — all a sketch needs), else an md5 loop over the batch's
    UNIQUE values only.  Round 2 ran a per-row Python md5 loop here,
    directly upstream of the sketch's only shuffle."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        with np.errstate(over="ignore"):
            return splitmix64(arr.astype(np.uint64)) / _MAX64
    try:
        import polars as pl

        return (pl.Series(list(values)).cast(pl.Utf8).hash(seed=7).to_numpy()
                .astype(np.float64) / _MAX64)
    except ImportError:
        uniq, inv = np.unique(np.asarray([str(v) for v in values]), return_inverse=True)
        lut = np.empty(len(uniq), dtype=np.float64)
        for i, v in enumerate(uniq):
            h = hashlib.md5(v.encode()).digest()[:8]
            lut[i] = int.from_bytes(h, "little") / _MAX64
        return lut[inv]


def kmv_distinct(ds, group_col: str, key_col: str, k: int = 256):
    """Dataset -> (group_col, n_distinct_est:int64, exactish:bool).

    ``exactish`` is True when the sketch held every distinct value
    (fewer than K seen), in which case the count is exact.
    """

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pylist(),
                "key": batch.column(key_col).to_pylist(),
            }
        ).drop_duplicates()
        df["frac"] = _hash_fractions(df["key"].tolist())
        groups, fracs, seens = [], [], []
        for g, sub in df.groupby("g", sort=False):
            u = np.unique(sub["frac"].to_numpy())
            smallest = np.sort(u)[:k]
            groups.append(g)
            fracs.append(smallest.tolist())
            seens.append(len(u))
        return pa.Table.from_pydict(
            {
                "g": pa.array(groups),
                "fracs": pa.array(fracs, pa.list_(pa.float64())),
                "n_seen": pa.array(seens, pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        allv = np.unique(np.concatenate([np.asarray(f) for f in group["fracs"]]))
        smallest = np.sort(allv)[:k]
        if len(smallest) < k:
            est = len(smallest)  # saw everything: exact
            exact = True
        else:
            est = int(round((k - 1) / smallest[-1]))
            exact = False
        return pd.DataFrame(
            {
                group_col: [group["g"].iloc[0]],
                "n_distinct_est": pd.Series([est], dtype="int64"),
                "exactish": [exact],
            }
        )

    return partials.groupby("g").map_groups(merge, batch_format="pandas")


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters — the approximate top-K frequency sketch
# SURVEY §2.6 earmarks for skew detection (finding the hot subjects
# that need salting before a groupby).


def _mg_compress(counts: "pd.Series", k: int) -> "pd.Series":
    """Keep at most k counters: subtract the (k+1)-th largest count
    from every counter and drop the non-positive ones (the batched
    Misra-Gries eviction).  Each subtraction is accounted against
    EVERY surviving counter, preserving the classic guarantee
    ``true_count - n/(k+1) <= est <= true_count``."""
    if len(counts) <= k:
        return counts
    top = counts.nlargest(k + 1)
    dec = int(top.iloc[k])
    kept = top.iloc[:k] - dec
    return kept[kept > 0]


def heavy_hitters(ds, key_col: str, k: int = 128):
    """Approximate per-key counts of the k most frequent values of
    ``key_col`` (Misra-Gries): per-block C-level value_counts
    compressed to k counters (a mergeable partial), one single-
    partition merge of the <= k-counter summaries, one final compress.

    Guarantee: estimated count is within ``n/(k+1)`` below the true
    count, never above; EXACT whenever the block-level distinct key
    count stays <= k (no eviction ever fires).  The shuffle carries at
    most k rows per block regardless of input size.  Returns (key,
    est_count) for the surviving counters, largest first.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        counts = batch[key_col].value_counts()  # C-level
        kept = _mg_compress(counts, k)
        return pd.DataFrame(
            {"key": kept.index.to_numpy(), "est_count": kept.to_numpy()}
        )

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        summed = batch.groupby("key", sort=False)["est_count"].sum()
        kept = _mg_compress(summed, k).sort_values(ascending=False)
        out = pd.DataFrame(
            {"key": kept.index.to_numpy(), "est_count": kept.to_numpy()}
        )
        out["est_count"] = out["est_count"].astype("int64")
        return out

    return (
        ds.map_batches(partial, batch_format="pandas")
        .repartition(1)
        .map_batches(merge, batch_format="pandas", batch_size=None)
    )


# ---------------------------------------------------------------------------
# Mergeable approximate-quantile summary (equi-weight compression)

_QSUMMARY_SCHEMA = pa.schema([("v", pa.float64()), ("w", pa.float64())])


def _compress_summary(v: np.ndarray, w: np.ndarray, k: int):
    """Compress a weighted value multiset to <= k (value, weight)
    entries: sort by value, cut the cumulative-weight axis into k
    equal-weight bins, keep one REAL data value per bin (the element
    sitting at the bin's weight midpoint) carrying the bin's total
    weight.  Each compression adds <= total/k rank error; summaries
    merge by concatenation + recompression (fully mergeable, like the
    KMV/Misra-Gries partials above)."""
    order = np.argsort(v, kind="mergesort")
    v, w = v[order], w[order]
    if len(v) <= k:
        return v, w
    cw = np.cumsum(w)
    total = cw[-1]
    mid = cw - w / 2.0
    centers = (np.arange(k) + 0.5) * (total / k)
    idx = np.searchsorted(mid, centers, side="left")
    idx = np.minimum(idx, len(v) - 1)
    bin_of = np.minimum((mid * (k / total)).astype(np.int64), k - 1)
    bin_w = np.bincount(bin_of, weights=w, minlength=k)
    keep = bin_w > 0
    return v[idx[keep]], bin_w[keep]


def quantile_sketch(ds, value_col: str, qs, k: int = 512, n_buckets: int = 32):
    """Approximate quantiles of a float column via a mergeable
    equi-weight summary — the unbounded-continuous-domain complement
    to ``quantile.grouped_quantiles`` (whose histogram needs a bounded
    value domain).

    Three compression levels (block partial -> per-bucket merge ->
    final), so rank error <= 3/k (~0.6% at the default k=512) — the
    pytest bounds it against exact numpy quantiles.  At most k rows
    leave any block at any level: a 100-TB column costs one streaming
    pass plus two k-row-per-partition exchanges.

    Returns one row per requested quantile: (q: float64, value:
    float64), q ascending.
    """
    qs = sorted(float(q) for q in qs)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(value_col).to_numpy(zero_copy_only=False)
        col = col[~np.isnan(col)].astype(np.float64)
        if not len(col):
            return _QSUMMARY_SCHEMA.empty_table()
        cv, cw = _compress_summary(col, np.ones(len(col)), k)
        return pa.Table.from_arrays(
            [pa.array(cv, pa.float64()), pa.array(cw, pa.float64())],
            schema=_QSUMMARY_SCHEMA,
        )

    def merge(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return _QSUMMARY_SCHEMA.empty_table()
        cv, cw = _compress_summary(
            batch.column("v").to_numpy(zero_copy_only=False),
            batch.column("w").to_numpy(zero_copy_only=False),
            k,
        )
        return pa.Table.from_arrays(
            [pa.array(cv, pa.float64()), pa.array(cw, pa.float64())],
            schema=_QSUMMARY_SCHEMA,
        )

    out_schema = pa.schema([("q", pa.float64()), ("value", pa.float64())])

    def finalize(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return out_schema.empty_table()
        v = batch.column("v").to_numpy(zero_copy_only=False)
        w = batch.column("w").to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="mergesort")
        v, w = v[order], w[order]
        cw = np.cumsum(w)
        total = cw[-1]
        ranks = np.asarray(qs) * total
        idx = np.minimum(np.searchsorted(cw, ranks, side="left"), len(v) - 1)
        return pa.Table.from_arrays(
            [pa.array(qs, pa.float64()), pa.array(v[idx], pa.float64())],
            schema=out_schema,
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(n_buckets)
        # batch_size=None: one merge per bucket block, keeping the
        # advertised 3-compression-level error bound
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
        .map_batches(finalize, batch_format="pyarrow", batch_size=None)
    )


# ---------------------------------------------------------------------------
# HyperLogLog — the constant-size distinct-count sketch (Flajolet et
# al. 2007).  Complements KMV: a KMV partial is K floats per (block,
# group); an HLL partial is a FIXED 2^p-byte register array per
# (block, group) whose merge is an elementwise max — the shape used
# when billions of groups each need a cardinality at 100-TB scale.


def _hll_registers(values, p: int) -> np.ndarray:
    """uint8[2^p] register array for one value set: register index =
    top p hash bits, value = 1 + leading-zero count of the remaining
    (64-p) bits, maxed per register.  Vectorized end-to-end: the hash
    reuses ``_hash_fractions``'s 64-bit paths, the rank is a log2 on
    the masked remainder, the per-register max is ``np.maximum.at``."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        with np.errstate(over="ignore"):
            h = splitmix64(arr.astype(np.uint64))
    else:
        h = (_hash_fractions(values) * _MAX64).astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h & ((np.uint64(1) << np.uint64(64 - p)) - np.uint64(1))
    # rank = leading zeros within the (64-p)-bit field, + 1
    nbits = np.zeros(len(rest), dtype=np.int64)
    nz = rest > 0
    # float64 mantissa is exact for log2 position of the top set bit
    nbits[nz] = np.floor(np.log2(rest[nz].astype(np.float64))).astype(np.int64) + 1
    rank = ((64 - p) - nbits + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray, p: int) -> int:
    """Classic HLL estimator with the small-range linear-counting
    correction (the regime the bench's group sizes live in)."""
    m = float(1 << p)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    inv = np.ldexp(1.0, -regs.astype(np.int64))  # 2^-reg
    raw = alpha * m * m / inv.sum()
    zeros = int((regs == 0).sum())
    if raw <= 2.5 * m and zeros:
        return int(round(m * np.log(m / zeros)))
    return int(round(raw))


def hll_distinct(ds, group_col: str, key_col: str, p: int = 12):
    """Dataset -> (group_col, n_distinct_est:int64) via HyperLogLog.

    Map side emits one fixed-size register row per (block, group); the
    single exchange moves those rows; the reduce is an elementwise max
    + the closed-form estimate.  Standard error ~ 1.04/sqrt(2^p)
    (~1.6% at p=12).  Deterministic: splitmix64/xxhash, no RNG."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column(group_col).to_pylist(),
                "key": batch.column(key_col).to_pylist(),
            }
        ).drop_duplicates()
        groups, regs_out = [], []
        for g, sub in df.groupby("g", sort=False):
            groups.append(g)
            regs_out.append(
                _hll_registers(sub["key"].to_numpy(), p).tobytes()
            )
        return pa.Table.from_pydict(
            {
                "g": pa.array(groups),
                "regs": pa.array(regs_out, pa.binary()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(1 << p, dtype=np.uint8)
        for blob in group["regs"]:
            np.maximum(acc, np.frombuffer(blob, dtype=np.uint8), out=acc)
        return pd.DataFrame(
            {
                group_col: [group["g"].iloc[0]],
                "n_distinct_est": pd.Series(
                    [_hll_estimate(acc, p)], dtype="int64"
                ),
            }
        )

    return partials.groupby("g").map_groups(merge, batch_format="pandas")
