"""As-of join stage tests (stages/asof.py)."""

import datetime
import os

import pandas as pd
import pytest


def _ts(minute):
    return datetime.datetime(2026, 1, 1, 0, minute)


@pytest.fixture(scope="module")
def joined(ray_session):
    import ray.data as rd

    from rdfa_ray.stages.asof import asof_join

    left = rd.from_items(
        [
            {"event_id": 1, "ts": _ts(10), "user_id": 1},
            {"event_id": 2, "ts": _ts(30), "user_id": 1},
            {"event_id": 3, "ts": _ts(5), "user_id": 2},
            {"event_id": 4, "ts": _ts(50), "user_id": 3},  # user with no clicks
        ],
        override_num_blocks=2,
    )
    right = rd.from_items(
        [
            {"event_id": 10, "ts": _ts(8), "user_id": 1},
            {"event_id": 11, "ts": _ts(25), "user_id": 1},
            {"event_id": 12, "ts": _ts(40), "user_id": 1},  # after every left row
            {"event_id": 13, "ts": _ts(7), "user_id": 2},   # after left ts(5)
        ],
        override_num_blocks=2,
    )
    return asof_join(left, right, on="ts", by="user_id").to_pandas()


def test_asof_most_recent_prior(joined):
    got = {
        int(r["event_id"]): (None if pd.isna(r["event_id_r"]) else int(r["event_id_r"]))
        for _, r in joined.iterrows()
    }
    assert got == {1: 10, 2: 11, 3: None, 4: None}


def test_asof_keeps_all_left_rows(joined):
    assert sorted(int(e) for e in joined["event_id"]) == [1, 2, 3, 4]


def test_asof_matches_duckdb_oracle(ray_session):
    """Full oracle parity on the real events table at sf0.001."""
    import duckdb

    from rdfa_ray.pipelines.queries import ORACLE_SQL, q_events_asof

    sf = "/root/testdata/sf0.001"
    got = (
        q_events_asof(sf)
        .to_pandas()
        .sort_values(["event_id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW events AS SELECT * FROM read_parquet('%s/events.parquet')" % sf
    )
    exp = (
        con.sql(ORACLE_SQL["events_asof"]).df()
        .sort_values(["event_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns], exp)


# ---------------------------------------------------------------------------
# Persisted cell-partitioned IVF index (stages/ann_index.py)


def test_ivf_index_build_and_search_matches_bruteforce_top1(ray_session, tmp_path_factory):
    import numpy as np
    import ray.data as rd

    from rdfa_ray.stages.ann_index import build_ivf_index, ivf_search

    sf = "/root/testdata/sf0.001"
    embs = rd.read_parquet("%s/embeddings.parquet" % sf)
    index_dir = str(tmp_path_factory.mktemp("ivf_idx"))
    cents = build_ivf_index(embs, index_dir, n_cells=8)
    assert cents.shape[0] == 8

    qdf = embs.filter(expr="vec_id < 4").to_pandas()
    got = ivf_search(index_dir, qdf, k=5, n_probe=8).to_pandas()  # probe ALL cells -> exact
    assert set(got["query_id"]) == {0, 1, 2, 3}

    # with every cell probed the result must equal exact brute force
    all_df = embs.to_pandas()
    mat = np.array(all_df["embedding"].tolist(), dtype=np.float64)
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    ids = all_df["vec_id"].to_numpy()
    for q in range(4):
        qv = mat[ids == q][0]
        sims = mat @ qv
        order = sorted(zip(-sims, ids))[:5]
        want = [int(i) for _, i in order]
        got_q = got[got["query_id"] == q].sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        )["vec_id"].tolist()
        assert got_q == want, (q, got_q, want)


def test_ivf_search_prunes_partitions(ray_session, tmp_path_factory):
    import os

    import ray.data as rd

    from rdfa_ray.stages.ann_index import build_ivf_index, ivf_search
    from rdfa_ray.state import commit

    sf = "/root/testdata/sf0.001"
    embs = rd.read_parquet("%s/embeddings.parquet" % sf)
    index_dir = str(tmp_path_factory.mktemp("ivf_idx2"))
    build_ivf_index(embs, index_dir, n_cells=8)
    # partitioned layout on disk: the manifest lists each cell's files,
    # one directory per cell
    cells = commit.read_manifest(index_dir, "_meta.json")["partitions"]
    assert len(cells) >= 2
    assert {os.path.dirname(rel) for rels in cells.values() for rel in rels} == {
        os.path.join("parts", d) for d in os.listdir(os.path.join(index_dir, "parts"))
    }
    qdf = embs.filter(expr="vec_id < 2").to_pandas()
    got = ivf_search(index_dir, qdf, k=3, n_probe=1).to_pandas()
    assert len(got) > 0  # approximate search over pruned partitions works


def _vector_files(index_dir):
    import os

    root = os.path.join(index_dir, "parts")
    return {
        os.path.join(d, f): os.stat(os.path.join(d, f)).st_ino
        for d, _dirs, files in os.walk(root)
        for f in files
    }


def test_ivf_index_two_threads_build_one_index(ray_session, tmp_path_factory, monkeypatch):
    """Both callers miss the sentinel and call ``build_ivf_index``; the
    one that takes the writer lock second must find the first's index,
    not rebuild it (a rebuild deletes the vector files the first caller
    is searching)."""
    import threading

    import numpy as np
    import ray.data as rd

    from rdfa_ray.stages import ann_index
    from rdfa_ray.state import commit

    rng = np.random.default_rng(0)
    embs = rd.from_items(
        [{"vec_id": i, "embedding": rng.normal(size=8).tolist()} for i in range(64)]
    )
    index_dir = str(tmp_path_factory.mktemp("ivf_two"))
    real_write = commit.atomic_write
    builds, built_files, cents = [], {}, []

    def atomic_write(path, write):
        real_write(path, write)
        if path.endswith(ann_index.CENTROIDS):  # a build publishes
            builds.append(threading.get_ident())
            built_files.update(_vector_files(index_dir))

    monkeypatch.setattr(commit, "atomic_write", atomic_write)
    start = threading.Barrier(2)

    def caller():
        start.wait()
        cents.append(ann_index.build_ivf_index(embs, index_dir))

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(builds) == 1
    assert len(cents) == 2 and np.array_equal(cents[0], cents[1])
    assert built_files and _vector_files(index_dir) == built_files
    # a complete index is loaded, never rebuilt
    assert np.array_equal(ann_index.build_ivf_index(embs, index_dir), cents[0])
    assert len(builds) == 1


def test_ivf_cells_read_back_in_input_order(ray_session, tmp_path):
    """A build from many small multi-chunk blocks, run where the
    workers' Arrow thread pool has 8 threads: every cell's files, in
    manifest order, hold that cell's vectors in input ``vec_id`` order
    (pyarrow's multi-threaded dataset writer reorders rows within a
    partition across the chunks of one block)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from rdfa_ray.state import commit

    rng = np.random.default_rng(7)
    chunks = [
        pa.table({
            "vec_id": pa.array(range(i, i + 25), pa.int64()),
            "embedding": pa.array(rng.normal(size=(25, 8)).tolist(), pa.list_(pa.float32())),
        })
        for i in range(0, 1000, 25)
    ]
    blocks = [pa.concat_tables(chunks[i:i + 5]) for i in range(0, 40, 5)]
    index_dir = str(tmp_path / "ivf_order")

    # a child task inherits the runtime_env, so the write tasks this
    # build launches run with the 8-thread pool too
    @ray.remote(num_cpus=0, runtime_env={"env_vars": {"OMP_NUM_THREADS": "8"}})
    def build():
        from rdfa_ray.stages.ann_index import build_ivf_index

        build_ivf_index(rd.from_arrow(blocks), index_dir, n_cells=8)
        return pa.cpu_count()

    assert ray.get(build.remote()) == 8
    cells = commit.read_manifest(index_dir, "_meta.json")["partitions"]
    assert len(cells) >= 2
    seen = []
    for cell, rels in cells.items():
        t = pa.concat_tables(
            [pq.read_table(os.path.join(index_dir, r), columns=["vec_id", "cell"]) for r in rels]
        )
        ids = t.column("vec_id").to_pylist()
        assert ids == sorted(ids), cell
        assert set(t.column("cell").to_pylist()) == {int(cell)}
        seen += ids
    assert sorted(seen) == list(range(1000))
