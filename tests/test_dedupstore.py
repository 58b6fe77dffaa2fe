"""Incremental exact dedup against the persisted hash store
(stages/dedupstore.py): store build, pruned-prefix rejection,
drop-internal keep-first, generational commit, crash safety,
idempotency."""

import json
import os

import pandas as pd
import pytest
import ray.data as rd

from rdfa_ray.stages.dedupstore import (
    compact_hash_store,
    hash_store_is_complete,
    incremental_exact_dedup,
    persist_hash_store,
    vacuum_hash_store,
)


def _docs(rows):
    return rd.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]))


CORPUS = [(i, "corpus doc %d" % i) for i in range(40)]


def test_incremental_rejects_known_and_keeps_first(ray_session, tmp_path):
    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    assert hash_store_is_complete(store)

    drop = _docs(
        [
            (100, "corpus doc 3"),    # already accepted -> rejected
            (101, "fresh content a"),
            (102, "fresh content a"),  # drop-internal dup -> 101 keeps
            (103, "corpus doc 17"),   # already accepted -> rejected
            (104, "fresh content b"),
        ]
    )
    out = incremental_exact_dedup(drop, store).to_pandas()
    assert sorted(out["doc_id"]) == [101, 104]


def test_commit_appends_generation_and_blocks_replay(ray_session, tmp_path):
    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    g1 = json.load(open(os.path.join(store, "_meta.json")))["generation"]

    drop = _docs([(200, "novel x"), (201, "novel y"), (202, "corpus doc 0")])
    out = incremental_exact_dedup(drop, store, commit=True).to_pandas()
    assert sorted(out["doc_id"]) == [200, 201]
    meta = json.load(open(os.path.join(store, "_meta.json")))
    assert meta["generation"] == g1 + 1

    # the SAME content arriving in a later drop is now rejected
    replay = _docs([(300, "novel x"), (301, "really new")])
    out2 = incremental_exact_dedup(replay, store, commit=True).to_pandas()
    assert sorted(out2["doc_id"]) == [301]

    # append-only: generation files accumulate under touched prefixes
    n_files = sum(len(v) for v in json.load(
        open(os.path.join(store, "_meta.json")))["partitions"].values())
    assert n_files >= sum(len(v) for v in meta["partitions"].values())


def test_crash_before_manifest_leaves_old_snapshot(ray_session, tmp_path):
    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    before = json.load(open(os.path.join(store, "_meta.json")))
    # a crashed commit leaves stray generation files but the OLD manifest
    stray = os.path.join(store, "parts", "ff-g9-deadbeef.parquet")
    with open(stray, "w") as f:
        f.write("not parquet")
    after = json.load(open(os.path.join(store, "_meta.json")))
    assert after == before  # manifest untouched
    # reads follow the manifest only: dedup still works
    out = incremental_exact_dedup(
        _docs([(400, "post-crash fresh")]), store
    ).to_pandas()
    assert list(out["doc_id"]) == [400]


def test_missing_store_refuses_loudly(ray_session, tmp_path):
    with pytest.raises(FileNotFoundError, match="absent or incomplete"):
        incremental_exact_dedup(_docs(CORPUS), str(tmp_path / "nope"))


def _manifest(store):
    return json.load(open(os.path.join(store, "_meta.json")))


def _n_files(store):
    return sum(len(v) for v in _manifest(store)["partitions"].values())


def _parts_on_disk(store):
    """Store-relative paths of every Parquet file under parts/, flat or
    inside a generation directory."""
    return sorted(
        os.path.relpath(os.path.join(d, f), store)
        for d, _dirs, files in os.walk(os.path.join(store, "parts"))
        for f in files if f.endswith(".parquet")
    )


def test_compact_after_many_drops_shrinks_and_preserves_semantics(
    ray_session, tmp_path
):
    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    for i in range(5):  # five committed drops -> fragmented prefixes
        drop = _docs([(1000 + 10 * i + j, "drop%d doc %d" % (i, j))
                      for j in range(8)])
        incremental_exact_dedup(drop, store, commit=True)
    before_files = _n_files(store)
    assert any(len(v) > 1 for v in _manifest(store)["partitions"].values())

    compact_hash_store(store, max_files_per_prefix=1)
    after = _manifest(store)
    assert all(len(v) == 1 for v in after["partitions"].values())
    assert _n_files(store) < before_files
    # superseded inputs vacuumed: disk matches manifest exactly
    assert _parts_on_disk(store) == sorted(
        r for v in after["partitions"].values() for r in v
    )

    # semantics unchanged: everything ever committed is still rejected,
    # fresh content still survives
    replay = _docs(
        [(9000, "corpus doc 7"), (9001, "drop3 doc 2"), (9002, "post-compact new")]
    )
    out = incremental_exact_dedup(replay, store).to_pandas()
    assert sorted(out["doc_id"]) == [9002]
    # a no-op compaction (already under the threshold) is harmless
    compact_hash_store(store, max_files_per_prefix=1)
    assert sorted(incremental_exact_dedup(replay, store).to_pandas()["doc_id"]) \
        == [9002]


def test_rebuild_over_complete_store_vacuums_stale_parts(ray_session, tmp_path):
    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    stale = _parts_on_disk(store)
    assert stale
    # rebuild over the COMPLETE store with different content: the old
    # generation's files must not accumulate (round-4 advice)
    persist_hash_store(_docs([(i, "rebuilt %d" % i) for i in range(10)]), store)
    on_disk = set(_parts_on_disk(store))
    assert not (on_disk & set(stale))
    assert on_disk == {
        r for v in _manifest(store)["partitions"].values() for r in v
    }


def test_vacuum_removes_tmp_orphans_only_outside_manifest(ray_session, tmp_path):
    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    orphan = os.path.join(store, "parts", "aa-g9-feedface.parquet")
    tmp_orphan = os.path.join(store, "parts", "bb-g9-cafe.parquet.tmp")
    for f in (orphan, tmp_orphan):
        with open(f, "w") as fh:
            fh.write("x")
    removed = vacuum_hash_store(store)
    assert removed == 2
    assert not os.path.exists(orphan) and not os.path.exists(tmp_orphan)
    # referenced files untouched
    assert _parts_on_disk(store) == sorted(
        r for v in _manifest(store)["partitions"].values() for r in v
    )


def test_build_chunks_large_prefixes_into_bounded_files(ray_session, tmp_path):
    from rdfa_ray.stages import dedupstore as ds_mod
    from rdfa_ray.state.commit import publish_manifest

    store = str(tmp_path / "hs")
    # force tiny files: every prefix slice must chunk
    hashed = _docs(CORPUS).map_batches(
        ds_mod._hash_prefix_batch, batch_format="pyarrow"
    )
    os.makedirs(store, exist_ok=True)
    parts = ds_mod._write_hashes(hashed, store, gen=1, rows_per_file=2)
    publish_manifest(store, "_meta.json", {"format": 1, "generation": 1, "partitions": parts})
    import pyarrow.parquet as pq

    seen = set()
    for p, rels in parts.items():
        for rel in rels:
            t = pq.read_table(os.path.join(store, rel))
            assert t.num_rows <= 2  # bounded file size honored
            for h in t.column("h").to_pylist():
                assert h[:2] == p  # prefix-pure files
                seen.add(h)
    assert len(seen) == len(CORPUS)  # nothing lost across chunk splits
    # the chunked store dedups exactly like a monolithic one
    out = incremental_exact_dedup(
        _docs([(600, "corpus doc 5"), (601, "unseen text")]), store
    ).to_pandas()
    assert sorted(out["doc_id"]) == [601]


def test_empty_drop_and_unseen_prefixes(ray_session, tmp_path):
    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS[:2]), store)  # tiny store: few prefixes
    out = incremental_exact_dedup(
        _docs([(500, "entirely new prefix material")]), store, commit=True
    ).to_pandas()
    assert list(out["doc_id"]) == [500]
    empty = _docs([]).map_batches(lambda d: d, batch_format="pandas")
    out2 = incremental_exact_dedup(empty, store).to_pandas()
    assert len(out2) == 0


def test_deeper_prefixes_roundtrip(ray_session, tmp_path):
    """prefix_len=3 (4096 partitions) is recorded in the manifest and
    honored by dedup, commit and compaction."""
    store = str(tmp_path / "hs3")
    persist_hash_store(_docs(CORPUS), store, prefix_len=3)
    meta = _manifest(store)
    assert meta["prefix_len"] == 3
    assert all(len(p) == 3 for p in meta["partitions"])
    out = incremental_exact_dedup(
        _docs([(700, "corpus doc 9"), (701, "deep-prefix fresh")]),
        store, commit=True,
    ).to_pandas()
    assert sorted(out["doc_id"]) == [701]
    after = _manifest(store)
    assert after["prefix_len"] == 3
    assert all(len(p) == 3 for p in after["partitions"])
    # replay of the committed content is rejected through 3-char pruning
    replay = incremental_exact_dedup(
        _docs([(800, "deep-prefix fresh")]), store
    ).to_pandas()
    assert len(replay) == 0
    compact_hash_store(store, max_files_per_prefix=1)
    assert _manifest(store)["prefix_len"] == 3
    assert len(incremental_exact_dedup(
        _docs([(900, "deep-prefix fresh")]), store).to_pandas()) == 0


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_incremental_store_matches_set_model(ray_session, tmp_path_factory, data):
    """Property: across arbitrary corpora, drops, commits and a
    compaction, the store behaves exactly like a python set of text
    hashes (membership model), with keep-first inside each drop."""
    import hashlib as hl

    texts = st.text(alphabet="abc ", min_size=0, max_size=6)
    corpus = data.draw(st.lists(texts, min_size=1, max_size=12))
    drops = data.draw(
        st.lists(st.lists(texts, min_size=0, max_size=8),
                 min_size=1, max_size=3)
    )
    compact_after = data.draw(st.integers(0, len(drops)))

    tmp = tmp_path_factory.mktemp("hsprop")
    store = str(tmp / "hs")
    persist_hash_store(
        _docs([(i, t) for i, t in enumerate(corpus)]), store
    )
    model = {hl.md5(t.encode()).hexdigest() for t in corpus}

    next_id = 1000
    for k, drop_texts in enumerate(drops):
        if k == compact_after:
            compact_hash_store(store, max_files_per_prefix=1)
        rows = [(next_id + j, t) for j, t in enumerate(drop_texts)]
        next_id += 100
        out = incremental_exact_dedup(_docs(rows), store, commit=True)
        df = out.to_pandas()
        # zero-row Ray to_pandas drops columns (known gotcha)
        got = sorted(df["doc_id"]) if len(df) else []
        # model: keep-first per new hash within the drop
        seen_in_drop = {}
        for doc_id, t in rows:
            h = hl.md5(t.encode()).hexdigest()
            if h not in model and h not in seen_in_drop:
                seen_in_drop[h] = doc_id
        assert got == sorted(seen_in_drop.values())
        model |= set(seen_in_drop)
    if compact_after == len(drops):
        compact_hash_store(store, max_files_per_prefix=1)
    # final probe: one known member of every historical source + one
    # guaranteed-new text
    probe = [(99990, corpus[0]), (99991, "zz-definitely-new-zz")]
    out = incremental_exact_dedup(_docs(probe), store).to_pandas()
    assert sorted(out["doc_id"]) == [99991]


def test_concurrent_q_dedup_incremental_builds_one_store(
    ray_session, tmp_path, monkeypatch
):
    """Two drivers on fresh testdata: the store is built once, in place,
    under its writer lock; the second waits and reads it.  No complete
    store is ever deleted, and both get the same survivors."""
    import glob
    import hashlib
    import shutil
    import sys
    import threading
    import types

    import pyarrow as pa
    import pyarrow.parquet as pq

    from rdfa_ray.pipelines.queries import q_dedup_incremental

    sf = tmp_path / "sf"
    sf.mkdir()
    texts = ["doc %d" % (i % 150) for i in range(200)]
    pq.write_table(pa.table({"doc_id": pa.array(range(200), pa.int64()),
                             "text": texts}), str(sf / "documents.parquet"))
    corpus = {t for i, t in enumerate(texts) if i % 10 >= 2}
    first = {}
    for i, t in enumerate(texts):
        if i % 10 < 2 and t not in corpus:
            first.setdefault(t, i)
    want = sorted(first.values())

    pattern = "/tmp/graft_hashstore_%s_*" % hashlib.md5(
        str(sf).encode()).hexdigest()[:8]
    real_rmtree = shutil.rmtree
    deleted_complete = []

    def guarded_rmtree(path, *a, **kw):
        if hash_store_is_complete(str(path)):
            deleted_complete.append(str(path))
        return real_rmtree(path, *a, **kw)

    monkeypatch.setattr(shutil, "rmtree", guarded_rmtree)
    # Ray's read_parquet probes for fsspec's HTTP filesystem on every
    # call; without aiohttp that import fails, and two threads racing it
    # see a half-initialized module (ImportError instead of the
    # ModuleNotFoundError Ray catches).  A stand-in module makes the
    # probe deterministic; no HTTP filesystem is involved here.
    monkeypatch.setitem(sys.modules, "fsspec.implementations.http",
                        types.SimpleNamespace(HTTPFileSystem=type("HTTPFileSystem", (), {})))
    results, errors = [], []

    def run():
        try:
            out = q_dedup_incremental(str(sf)).to_pandas()
            results.append(sorted(out["doc_id"]))
        except Exception as e:  # reported below
            errors.append(repr(e))

    try:
        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(300)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert deleted_complete == []
        stores = glob.glob(pattern)
        assert len(stores) == 1 and hash_store_is_complete(stores[0])
        assert results == [want, want]
    finally:
        for d in glob.glob(pattern):
            real_rmtree(d, ignore_errors=True)
