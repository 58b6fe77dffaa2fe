"""Persisted cell-partitioned IVF index — the 100-TB ANN path.

``ivf_topk`` (stages/ann.py) re-derives centroids and re-scans the
embedding table per query batch; that is the right shape for ad-hoc
queries but wrong for a standing corpus.  This module splits the two
phases the way a production pipeline would:

* ``build_ivf_index``: ONE pass — deterministic sampled k-means
  centroids (driver-side, tiny), then every vector is assigned its
  cell in ``map_batches`` and written through
  ``commit.write_partitioned`` keyed on the cell: each cell's vectors,
  in input order, as ``parts/<cell>-g1/`` Parquet files that keep the
  int32 ``cell`` column.  ``centroids.npy`` follows, and the
  ``_meta.json`` manifest listing each cell's files is published LAST
  (``state/commit.py``, under the index's writer lock): it is the
  completeness sentinel, so a crash mid-build — or an index written
  before the manifest existed — leaves none and the next run rebuilds.
* ``ivf_search``: reads ONLY the probed cells' files, as the manifest
  lists them (scan fraction ≈ n_probe/n_cells), scores the read
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
_META = "_meta.json"
# Rows per vector file and per write task: a write task holds this many
# embeddings (~27 MB at 64 float32 dimensions).
_ROWS_PER_FILE = 100_000


def index_is_complete(index_dir: str) -> bool:
    """The manifest doubles as the build-complete sentinel: it is the
    LAST artifact written (atomically)."""
    return commit.read_manifest(index_dir, _META, 1) is not None


def build_ivf_index(embeddings_ds, index_dir: str, n_cells: int = 16, sample_limit: int = 2048):
    """One-shot index build; returns the centroid matrix.  The sentinel
    is re-checked under the writer lock: two callers that both missed
    it build once, and the second never ``rmtree``s the vectors the
    first is already searching."""
    import shutil

    import pyarrow.compute as pc

    os.makedirs(index_dir, exist_ok=True)
    with commit.writer_lock(index_dir):
        if index_is_complete(index_dir):
            return np.load(os.path.join(index_dir, CENTROIDS))
        sample_df = embeddings_ds.limit(sample_limit).to_pandas()
        sample = np.array(sample_df["embedding"].tolist(), dtype=np.float64)
        cents = _normalize(_kmeans(sample, n_cells))

        # a crashed build (or an older layout's ``vectors/``) may have
        # left vector files; clear them so the rebuild can't mix builds
        for d in ("parts", "vectors"):
            shutil.rmtree(os.path.join(index_dir, d), ignore_errors=True)

        def assign(batch: pa.Table) -> pa.Table:
            ids, embs = _stack(batch)
            cells = pa.array(
                (_normalize(embs) @ cents.T).argmax(axis=1) if len(ids) else [], pa.int32()
            )
            return pa.Table.from_pydict(
                {"vec_id": pa.array(ids, pa.int64()),
                 "cell": cells,
                 "embedding": batch.column("embedding"),
                 "cell_key": pc.cast(cells, pa.string())}
            )

        files = commit.write_partitioned(
            embeddings_ds.map_batches(assign, batch_format="pyarrow"),
            "cell_key", index_dir, 1, _ROWS_PER_FILE,
        )

        def save(tmp):
            with open(tmp, "wb") as f:  # a path would get ".npy" appended
                np.save(f, cents)

        commit.atomic_write(os.path.join(index_dir, CENTROIDS), save)
        # sentinel LAST: q_ann_ivf_indexed keys "index built" off it
        commit.publish_manifest(index_dir, _META, {"format": 1, "partitions": files})
        return cents


def ivf_search(index_dir: str, queries_df: pd.DataFrame, k: int = 10, n_probe: int = 4):
    """Search the persisted index.  ``queries_df``: (vec_id, embedding).
    Returns a Dataset of (query_id, vec_id, sim) rows, top-k per query."""
    import ray
    import ray.data as rd

    meta = commit.read_manifest(index_dir, _META, 1)
    if meta is None:
        raise FileNotFoundError("IVF index at %s is absent or incomplete" % index_dir)
    cents = np.load(os.path.join(index_dir, CENTROIDS))
    qdf = queries_df.sort_values("vec_id")
    qmat = _normalize(np.array(qdf["embedding"].tolist(), dtype=np.float64))
    probe = np.argsort(-(qmat @ cents.T), axis=1)[:, :n_probe]
    probed_union = sorted(int(c) for c in np.unique(probe))

    # partition-pruned read: ONLY the probed cells' files are opened
    paths = [
        os.path.join(index_dir, rel)
        for c in probed_union
        for rel in meta["partitions"].get(str(c), [])
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
    partials = vectors.map_batches(
        score_batch_ivf,
        fn_kwargs={"state_ref": state_ref, "k": k},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
    )
    return merge_topk(partials, k)
