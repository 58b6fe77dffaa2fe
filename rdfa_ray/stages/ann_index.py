"""Persisted cell-partitioned IVF index — the 100-TB ANN path.

``ivf_topk`` (stages/ann.py) re-derives centroids and re-scans the
embedding table per query batch; that is the right shape for ad-hoc
queries but wrong for a standing corpus.  This module splits the two
phases the way a production pipeline would:

* ``build_ivf_index``: ONE pass — deterministic sampled k-means
  centroids (driver-side, tiny), then every vector is assigned its
  cell in ``map_batches`` and written as ``cell=NN/``-partitioned
  Parquet.  ``centroids.npy`` is the index's completeness sentinel,
  so it is published (``state/commit.py``, under the index's writer
  lock) only AFTER the vectors dataset write finishes — a crash
  mid-build leaves no sentinel and the next run rebuilds.
* ``ivf_search``: reads ONLY the probed cells' partitions
  (``read_parquet`` partition filter → directory pruning at the
  storage layer; scan fraction ≈ n_probe/n_cells), scores the read
  vectors in place against each query's probe mask (no shuffle of
  embedding payloads — see stages/ann.py), and merges per-query top-k
  in one coalesced vectorized pass.

At cluster scale the index build is the only full-data pass; every
search touches a bounded, partition-pruned subset.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from .ann import _kmeans, _normalize, _stack, merge_topk, score_batch_ivf
from ..sources.io import read_parquet as read_parquet_clean
from ..state import commit

CENTROIDS = "centroids.npy"


def index_is_complete(index_dir: str) -> bool:
    """The centroid file doubles as the build-complete sentinel: it is
    the LAST artifact written (atomically)."""
    return os.path.exists(os.path.join(index_dir, CENTROIDS))


def build_ivf_index(embeddings_ds, index_dir: str, n_cells: int = 16, sample_limit: int = 2048):
    """One-shot index build; returns the centroid matrix.  The sentinel
    is re-checked under the writer lock: two callers that both missed
    it build once, and the second never ``rmtree``s the vectors the
    first is already searching."""
    os.makedirs(index_dir, exist_ok=True)
    with commit.writer_lock(index_dir):
        if index_is_complete(index_dir):
            return np.load(os.path.join(index_dir, CENTROIDS))
        sample_df = embeddings_ds.limit(sample_limit).to_pandas()
        sample = np.array(sample_df["embedding"].tolist(), dtype=np.float64)
        cents = _normalize(_kmeans(sample, n_cells))

        # a previous crashed build (no sentinel) may have left partial
        # vector files; clear them so the rebuild can't mix generations
        vec_dir = os.path.join(index_dir, "vectors")
        if os.path.isdir(vec_dir):
            import shutil

            shutil.rmtree(vec_dir)

        def assign(batch: pa.Table) -> pa.Table:
            ids, embs = _stack(batch)
            if len(ids) == 0:
                return pa.Table.from_pydict(
                    {"vec_id": pa.array([], pa.int64()),
                     "cell": pa.array([], pa.int32()),
                     "embedding": batch.column("embedding")}
                )
            cells = (_normalize(embs) @ cents.T).argmax(axis=1).astype(np.int32)
            return pa.Table.from_pydict(
                {"vec_id": pa.array(ids, pa.int64()),
                 "cell": pa.array(cells, pa.int32()),
                 "embedding": batch.column("embedding")}
            )

        embeddings_ds.map_batches(assign, batch_format="pyarrow").write_parquet(
            os.path.join(index_dir, "vectors"), partition_cols=["cell"]
        )

        # sentinel LAST: callers (e.g. q_ann_ivf_indexed) key "index
        # already built" off this file, so it must not exist before the
        # vectors write completed
        def save(tmp):
            with open(tmp, "wb") as f:  # a path would get ".npy" appended
                np.save(f, cents)

        commit.atomic_write(os.path.join(index_dir, CENTROIDS), save)
        return cents


def ivf_search(index_dir: str, queries_df: pd.DataFrame, k: int = 10, n_probe: int = 4):
    """Search the persisted index.  ``queries_df``: (vec_id, embedding).
    Returns a Dataset of (query_id, vec_id, sim) rows, top-k per query."""
    import ray
    import ray.data as rd

    cents = np.load(os.path.join(index_dir, CENTROIDS))
    qdf = queries_df.sort_values("vec_id")
    qmat = _normalize(np.array(qdf["embedding"].tolist(), dtype=np.float64))
    probe = np.argsort(-(qmat @ cents.T), axis=1)[:, :n_probe]
    probed_union = sorted(int(c) for c in np.unique(probe))

    # partition-pruned read: list ONLY the probed cells' hive
    # directories — never-probed partitions are not even opened.
    import glob as _glob

    paths = [
        f
        for c in probed_union
        for f in sorted(
            _glob.glob(os.path.join(index_dir, "vectors", "cell=%d" % c, "*.parquet"))
        )
    ]
    if not paths:
        return rd.from_items([])
    vectors = read_parquet_clean(paths)

    state_ref = ray.put(
        {
            "ids": qdf["vec_id"].to_numpy(),
            "mat": qmat,
            "probe": probe,
            "n_cells": len(cents),
        }
    )

    # Ray's parquet reader recovers `cell` from the `cell=N` path
    # segment as a string — normalize to int for the probe mask
    def cast_cell(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = batch.schema.get_field_index("cell")
        return batch.set_column(
            idx, "cell", pc.cast(batch.column("cell"), pa.int32())
        )

    partials = vectors.map_batches(cast_cell, batch_format="pyarrow").map_batches(
        score_batch_ivf,
        fn_kwargs={"state_ref": state_ref, "k": k},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
    )
    return merge_topk(partials, k)
