"""Distributed k-means (Lloyd's algorithm) over an embedding column —
corpus clustering for training-data curation (domain balancing,
near-dup triage, IVF coarse quantizers).

Superstep shape (the broadcast-iteration pattern shared with
``pagerank``/``closure``): centroids (k x d floats — kilobytes) are
``ray.put`` ONCE per iteration; every batch computes its assignment
with one numpy matmul and reduces to k partial (sum-vector, count)
pairs, so the per-iteration traffic is k x d floats per BLOCK and the
combine is a tiny driver-side sum — the embedding table itself never
moves, regardless of scale.  This is exactly the aggregation tree a
100-TB run needs; no shuffle appears anywhere.

Determinism: init is greedy farthest-point (k-center) seeding over a
bounded, hash-selected sample — start from the smallest-id vector,
repeatedly add the vector farthest from the chosen set (ties break
toward the smaller id).  The sample is chosen by a splitmix64 hash of
the id with a fraction-of-keyspace threshold, so membership is a pure
function of the id: identical at every parallelism level and at any
partitioning.  Iteration order is fixed and per-batch partials are
summed after a driver-side sort by cluster — floating-point variation
across parallelism levels stays below any sane tolerance (verified by
the pytest against a single-process numpy twin).  Farthest-point
replaces round-2's smallest-k-ids init, which could drop every seed
into one dense region and never separate well-spread clusters.

Empty-cluster rule: a cluster that captures no points keeps its
previous centroid (the standard Lloyd fallback; sklearn re-seeds
instead, which is RNG-dependent — rejected for determinism).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import splitmix64


def _stack(batch: pa.Table, id_col: str, vec_col: str):
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    vecs = np.asarray(batch.column(vec_col).to_pylist(), dtype=np.float64)
    return ids, vecs


def _mix64(ids: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer without its golden-ratio increment, over
    int64 ids — vectorized deterministic uniform hash for seed-sample
    membership (wraps mod 2^64)."""
    return splitmix64(ids.astype(np.uint64) - np.uint64(0x9E3779B97F4A7C15))


def farthest_point_seeds(ids: np.ndarray, vecs: np.ndarray, k: int) -> np.ndarray:
    """Greedy k-center seeding: start from the smallest-id vector, then
    repeatedly add the vector with the largest distance to the chosen
    set.  Deterministic — ``np.argmax`` returns the first maximum, and
    the rows are id-sorted first, so ties break toward the smaller id."""
    order = np.argsort(ids, kind="stable")
    vecs = np.asarray(vecs, dtype=np.float64)[order]
    chosen = [0]
    mind2 = ((vecs - vecs[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(mind2))
        chosen.append(nxt)
        d2 = ((vecs - vecs[nxt]) ** 2).sum(axis=1)
        np.minimum(mind2, d2, out=mind2)
    return vecs[np.asarray(chosen)].copy()


def _local_lloyd(
    vecs: np.ndarray, k: int, n_iters: int, init: np.ndarray
) -> np.ndarray:
    """Driver-side Lloyd's for vector sets that fit in one heap — the
    identical update rule / empty-cluster handling as the distributed
    supersteps, without the ~0.5 s-per-iteration Ray orchestration
    (adaptive small-input path)."""
    cents = np.asarray(init, dtype=np.float64).copy()
    for _ in range(n_iters):
        d2 = (
            (vecs * vecs).sum(axis=1)[:, None]
            - 2.0 * (vecs @ cents.T)
            + (cents * cents).sum(axis=1)[None, :]
        )
        assign = d2.argmin(axis=1)
        new = cents.copy()
        for c in range(k):
            m = assign == c
            if m.any():
                new[c] = vecs[m].mean(axis=0)
        if np.allclose(new, cents, rtol=0.0, atol=1e-12):
            return new
        cents = new
    return cents


_SEED_SAMPLE_TARGET = 20_000


def _seed_sample(ds, n: int, k: int, id_col: str, vec_col: str) -> np.ndarray:
    """Deterministic bounded seed sample for the distributed path:
    keep rows whose splitmix64(id) falls below a fraction-of-keyspace
    threshold (membership is a pure function of the id — identical at
    any parallelism/partitioning), pull the ~O(target) survivors to
    the driver, run farthest-point on them.  One map pass, no shuffle,
    driver memory bounded by the target regardless of corpus size."""
    target = max(_SEED_SAMPLE_TARGET, 4 * k)
    frac = min(1.0, (1.3 * target) / max(n, 1))
    thresh = np.uint64(min(int(frac * 2.0**64), 2**64 - 1))

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if not len(ids):
            return batch.select([id_col, vec_col])
        keep = _mix64(ids.astype(np.int64)) <= thresh
        return batch.select([id_col, vec_col]).filter(pa.array(keep))

    rows = ds.map_batches(pick, batch_format="pyarrow").take_all()
    if len(rows) < k:
        # pathological hash underflow: fall back to the smallest-k-ids
        # seed (bounded sort-limit) rather than failing
        rows = ds.sort(id_col).limit(k).take_all()
        return np.asarray([r[vec_col] for r in rows], dtype=np.float64)
    ids = np.asarray([r[id_col] for r in rows], dtype=np.int64)
    vecs = np.asarray([r[vec_col] for r in rows], dtype=np.float64)
    return farthest_point_seeds(ids, vecs, k)


def kmeans_fit(
    embeddings_ds,
    k: int,
    n_iters: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    local_limit: int = 200_000,
    return_init: bool = False,
):
    """Fit k-means; returns the (k, d) centroid ndarray (or
    ``(centroids, init_centroids)`` with ``return_init=True`` — the
    seed matrix lets callers assert the Lloyd descent invariant).

    ``embeddings_ds`` is materialized once (each iteration re-reads the
    shared object-store blocks zero-copy).  Vector sets at or below
    ``local_limit`` rows run one driver-side fit instead of distributed
    supersteps."""
    import ray

    ds = embeddings_ds.materialize()
    n = ds.count()
    if n <= local_limit:
        df = ds.to_pandas().sort_values(id_col)
        vecs = np.asarray(df[vec_col].tolist(), dtype=np.float64)
        if len(vecs) < k:
            raise ValueError(
                "k=%d exceeds the %d input vectors" % (k, len(vecs))
            )
        init = farthest_point_seeds(
            df[id_col].to_numpy(dtype=np.int64), vecs, k
        )
        fitted = _local_lloyd(vecs, k, n_iters, init)
        return (fitted, init) if return_init else fitted
    cents = _seed_sample(ds, n, k, id_col, vec_col)
    init = cents.copy()

    for _ in range(n_iters):
        cref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            _ids, vecs = _stack(batch, id_col, vec_col)
            if not len(vecs):
                return pa.Table.from_pydict(
                    {
                        "cluster": pa.array([], pa.int32()),
                        "n": pa.array([], pa.int64()),
                        "vsum": pa.array([], pa.list_(pa.float64())),
                    }
                )
            # squared euclidean via the expanded form: one matmul
            d2 = (
                (vecs * vecs).sum(axis=1)[:, None]
                - 2.0 * (vecs @ c.T)
                + (c * c).sum(axis=1)[None, :]
            )
            assign = d2.argmin(axis=1)
            uniq = np.unique(assign)
            sums = np.zeros((len(uniq), c.shape[1]))
            counts = np.zeros(len(uniq), dtype=np.int64)
            for j, cl in enumerate(uniq):
                m = assign == cl
                sums[j] = vecs[m].sum(axis=0)
                counts[j] = int(m.sum())
            return pa.Table.from_pydict(
                {
                    "cluster": pa.array(uniq.astype("int32")),
                    "n": pa.array(counts),
                    "vsum": pa.array([row.tolist() for row in sums]),
                }
            )

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        new = cents.copy()  # empty clusters keep their centroid
        if len(parts):
            parts = parts.sort_values("cluster", kind="mergesort")
            for cl, grp in parts.groupby("cluster", sort=True):
                n = int(grp["n"].sum())
                if n:
                    vs = np.asarray(grp["vsum"].tolist(), dtype=np.float64)
                    new[int(cl)] = vs.sum(axis=0) / n
        if np.allclose(new, cents, rtol=0.0, atol=1e-12):
            cents = new
            break
        cents = new
    return (cents, init) if return_init else cents


def kmeans_assign(
    embeddings_ds,
    centroids: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Assign every vector to its nearest centroid: (id, cluster)."""
    import ray

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        ids, vecs = _stack(batch, id_col, vec_col)
        if not len(vecs):
            return pa.Table.from_pydict(
                {id_col: pa.array([], pa.int64()),
                 "cluster": pa.array([], pa.int32())}
            )
        d2 = (
            (vecs * vecs).sum(axis=1)[:, None]
            - 2.0 * (vecs @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        return pa.Table.from_pydict(
            {
                id_col: pa.array(ids, pa.int64()),
                "cluster": pa.array(d2.argmin(axis=1).astype("int32")),
            }
        )

    return embeddings_ds.map_batches(assign, batch_format="pyarrow")


def kmeans_cluster_sizes(embeddings_ds, k: int, n_iters: int = 10):
    """Fit + assign + per-cluster count — the bounded summary a driver
    check can hash (assignments themselves are checked by pytest)."""
    from ray.data.aggregate import Count

    cents = kmeans_fit(embeddings_ds, k, n_iters)
    assigns = kmeans_assign(embeddings_ds, cents)
    return assigns.groupby("cluster").aggregate(Count(alias_name="n_vectors"))


def kmeans_inertia(
    embeddings_ds,
    centroids: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> float:
    """Sum of squared distances to the nearest centroid — one
    broadcast map pass, per-block scalar partials, no shuffle."""
    import ray

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def part(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        _ids, vecs = _stack(batch, id_col, vec_col)
        if not len(vecs):
            return pa.Table.from_pydict({"i": pa.array([], pa.float64())})
        d2 = (
            (vecs * vecs).sum(axis=1)[:, None]
            - 2.0 * (vecs @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        return pa.Table.from_pydict(
            {"i": pa.array([float(np.maximum(d2.min(axis=1), 0.0).sum())])}
        )

    total = embeddings_ds.map_batches(part, batch_format="pyarrow").sum("i")
    return float(total or 0.0)


def kmeans_checked(
    embeddings_ds,
    k: int,
    n_iters: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """One driver-checkable invariant row for a k-means fit (the
    sketch-family oracle pattern): ``n_points`` is the exact table
    count (SQL twin), ``sizes_sum_ok`` asserts every vector got
    exactly one cluster (per-cluster counts sum back to n), and
    ``inertia_improved`` asserts Lloyd's descent guarantee — final
    inertia <= seed inertia (deterministic: init and iteration order
    are fixed).  Assignment-level semantics stay pytest-pinned
    against the single-process numpy twin."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = embeddings_ds.materialize()
    n = ds.count()
    cents, init = kmeans_fit(ds, k, n_iters, id_col, vec_col,
                             return_init=True)
    sizes = (
        kmeans_assign(ds, cents, id_col, vec_col)
        .groupby("cluster")
        .aggregate(Count(alias_name="n_vectors"))
        .to_pandas()
    )
    total = int(sizes["n_vectors"].sum()) if len(sizes) else 0
    i_seed = kmeans_inertia(ds, init, id_col, vec_col)
    i_fit = kmeans_inertia(ds, cents, id_col, vec_col)
    out = pd.DataFrame(
        {
            "n_points": np.array([n], dtype=np.int64),
            "k": np.array([k], dtype=np.int64),
            "sizes_sum_ok": [total == n],
            "inertia_improved": [i_fit <= i_seed * (1 + 1e-9) + 1e-9],
        }
    )
    return rd.from_pandas(out)
