"""The store-commit protocol (state/commit.py): atomic writes, manifest
publish, the single-writer lock and vacuum — concurrent writers, a
reader racing a vacuum, and crash injection at every commit call
between a store's data write and its manifest publish."""

import glob
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rdfa_ray.state import commit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = "http://schema.org/source"
LANG = "http://schema.org/inLanguage"


def _tmps(d):
    return glob.glob(os.path.join(d, "**", "*.tmp"), recursive=True)


def test_atomic_write_replaces_whole_or_not_at_all(tmp_path):
    path = str(tmp_path / "sub" / "f.txt")
    commit.atomic_write(path, lambda tmp: pathlib.Path(tmp).write_text("one"))
    assert pathlib.Path(path).read_text() == "one"

    def torn(tmp):
        with open(tmp, "w") as f:
            f.write("half")
        raise OSError("disk full")

    with pytest.raises(OSError):
        commit.atomic_write(path, torn)
    assert pathlib.Path(path).read_text() == "one"
    assert _tmps(str(tmp_path)) == []


def test_read_manifest_absent_foreign_or_torn_is_none(tmp_path):
    d = str(tmp_path)
    assert commit.read_manifest(d, "m.json") is None
    commit.publish_manifest(d, "m.json", {"format": 1, "x": 2})
    assert commit.read_manifest(d, "m.json") == {"format": 1, "x": 2}
    assert commit.read_manifest(d, "m.json", 1) == {"format": 1, "x": 2}
    assert commit.read_manifest(d, "m.json", 2) is None
    (tmp_path / "m.json").write_text('{"format": 1, "x"')
    assert commit.read_manifest(d, "m.json") is None


def test_vacuum_keeps_referenced_lock_and_manifests(tmp_path):
    d = str(tmp_path)
    for rel in ("parts/a-g1/x.parquet", "parts/a-g2/x.parquet", "parts/b.parquet",
                "parts/c.parquet.tmp", "parts/_stage/y", ".lock"):
        os.makedirs(os.path.dirname(os.path.join(d, rel)) or d, exist_ok=True)
        open(os.path.join(d, rel), "w").close()
    removed = commit.vacuum(d, "parts", ["parts/a-g2", "parts/b.parquet"])
    assert removed == ["parts/a-g1", "parts/c.parquet.tmp"]
    assert sorted(os.listdir(os.path.join(d, "parts"))) == ["_stage", "a-g2", "b.parquet"]
    assert os.path.exists(os.path.join(d, ".lock"))
    assert commit.vacuum(d, "missing", []) == []


def test_vacuum_keeps_entries_holding_referenced_files(tmp_path):
    """A manifest may reference files inside generation directories
    (dedup store, IVF index) or flat files (dedup stores of the older
    layout): a top-level entry holding any referenced path survives."""
    d = str(tmp_path)
    for rel in ("parts/aa-g1/000000-000000.parquet", "parts/aa-g1/000001-000000.parquet",
                "parts/bb-g2/000000-000000.parquet", "parts/aa-g1-3f2e.parquet",
                "parts/cc-g2/000000-000000.parquet", "parts/dd-g1-0bad.parquet"):
        os.makedirs(os.path.dirname(os.path.join(d, rel)), exist_ok=True)
        open(os.path.join(d, rel), "w").close()
    referenced = ["parts/aa-g1/000000-000000.parquet", "./parts/bb-g2/000000-000000.parquet",
                  "parts/aa-g1-3f2e.parquet"]
    assert commit.vacuum(d, "parts", referenced) == ["parts/cc-g2", "parts/dd-g1-0bad.parquet"]
    assert sorted(os.listdir(os.path.join(d, "parts"))) == ["aa-g1", "aa-g1-3f2e.parquet", "bb-g2"]
    # a kept directory is kept whole
    assert sorted(os.listdir(os.path.join(d, "parts", "aa-g1"))) == [
        "000000-000000.parquet", "000001-000000.parquet"]


def test_vacuum_hash_store_keeps_flat_and_generation_files(ray_session, tmp_path):
    """A dedup store whose manifest lists flat files of the older layout
    next to generation-directory files: commits and vacuums keep both,
    and both still reject what they hold."""
    import shutil

    from rdfa_ray.stages.dedupstore import (
        incremental_exact_dedup,
        persist_hash_store,
        vacuum_hash_store,
    )

    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    meta = commit.read_manifest(store, "_meta.json")
    # move one prefix's files to flat names, as the older layout wrote them
    prefix = sorted(meta["partitions"])[0]
    flat = []
    for n, rel in enumerate(meta["partitions"][prefix]):
        flat.append("parts/%s-g1-%04x.parquet" % (prefix, n))
        shutil.copy(os.path.join(store, rel), os.path.join(store, flat[-1]))
    meta["partitions"][prefix] = flat
    commit.publish_manifest(store, "_meta.json", meta)

    incremental_exact_dedup(_docs([(500, "fresh x"), (501, "fresh y")]), store, commit=True)
    vacuum_hash_store(store)
    listed = [r for rels in commit.read_manifest(store, "_meta.json")["partitions"].values()
              for r in rels]
    assert set(flat) <= set(listed)
    assert all(os.path.exists(os.path.join(store, r)) for r in listed)
    replay = incremental_exact_dedup(_docs(CORPUS + [(500, "fresh x")]), store).to_pandas()
    assert len(replay) == 0


def test_lock_is_reentrant_and_sweeps_tmps_on_release(tmp_path):
    d = str(tmp_path)
    stray = tmp_path / "nt" / "part-00003.nq.tmp"
    stray.parent.mkdir()
    with commit.writer_lock(d):
        with commit.writer_lock(d):  # same thread: no deadlock
            stray.write_text("GARBAGE")
        assert stray.exists()  # still held: nothing swept yet
    assert not stray.exists()


def _run_threads(threads, timeout=300):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "writer threads hung"


def _bare_kg_store(d):
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "_meta.json"), "w") as f:
        json.dump({"format": 2, "generation": 1, "partitions": {}, "quads": False}, f)


def test_concurrent_manifest_commits_across_threads(tmp_path):
    """4 threads x 50 read-modify-write manifest commits on one store:
    none fails, and every commit lands (no lost generation)."""
    from rdfa_ray.stages.kgstore import clear_kg

    d = str(tmp_path / "kg")
    _bare_kg_store(d)
    errors = []

    def writer():
        try:
            for _ in range(50):
                clear_kg(d)
        except Exception as e:  # reported below
            errors.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid read-modify-write
    try:
        _run_threads([threading.Thread(target=writer) for _ in range(4)])
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    with open(os.path.join(d, "_meta.json")) as f:
        assert json.load(f)["generation"] == 1 + 4 * 50


def test_concurrent_manifest_commits_across_processes(tmp_path):
    """The same across processes: the lock is an flock, so a second
    writer process waits instead of interleaving its commit."""
    d = str(tmp_path / "kg")
    _bare_kg_store(d)
    go = str(tmp_path / "go")
    script = (
        "import os, sys, time\n"
        "sys.path.insert(0, %r)\n"
        "from rdfa_ray.stages.kgstore import clear_kg\n"
        "open(sys.argv[1] + '.ready', 'w').close()\n"
        "while not os.path.exists(%r): time.sleep(0.005)\n"
        "for _ in range(100): clear_kg(%r)\n" % (ROOT, go, d)
    )
    tags = [str(tmp_path / ("w%d" % i)) for i in range(3)]
    procs = [subprocess.Popen([sys.executable, "-c", script, t],
                              stderr=subprocess.PIPE, text=True) for t in tags]
    deadline = time.time() + 60
    while not all(os.path.exists(t + ".ready") for t in tags):
        assert time.time() < deadline, "writer processes did not start"
        time.sleep(0.01)
    open(go, "w").close()
    errs = [p.communicate(timeout=120)[1] for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0], errs
    with open(os.path.join(d, "_meta.json")) as f:
        assert json.load(f)["generation"] == 1 + 3 * 100


def test_reader_resolving_manifest_during_vacuum_reads_complete_snapshot(tmp_path):
    from rdfa_ray.stages.kgstore import store_meta, vacuum_store

    d = str(tmp_path / "kg")
    live = {}
    for i in range(4):
        rel = "parts/p%d-g1" % i
        os.makedirs(os.path.join(d, rel))
        pq.write_table(pa.table({"subj": ["s%d" % i] * 10}),
                       os.path.join(d, rel, "0.parquet"))
        live["p%d" % i] = rel
    commit.publish_manifest(d, "_meta.json", {
        "format": 2, "generation": 1, "partitions": live, "quads": False})
    stop = threading.Event()
    errors = []

    def vacuumer():
        try:
            for k in range(100):
                stale = os.path.join(d, "parts", "p%d-g0" % (k % 4))
                os.makedirs(stale, exist_ok=True)
                pq.write_table(pa.table({"subj": ["old"]}), os.path.join(stale, "0.parquet"))
                vacuum_store(d)
        except Exception as e:  # reported below
            errors.append(repr(e))
        finally:
            stop.set()

    t = threading.Thread(target=vacuumer)
    t.start()
    reads = 0
    while (not stop.is_set() or reads == 0) and reads < 100_000:
        meta = store_meta(d)  # resolve the manifest per scan
        files = [f for rel in meta["partitions"].values()
                 for f in glob.glob(os.path.join(d, rel, "*.parquet"))]
        rows = sorted(r for f in files for r in pq.read_table(f).column("subj").to_pylist())
        assert rows == sorted("s%d" % i for i in range(4) for _ in range(10))
        reads += 1
    t.join(300)
    assert not t.is_alive() and errors == []
    assert sorted(os.listdir(os.path.join(d, "parts"))) == sorted(
        os.path.basename(r) for r in live.values())


# -- crash injection -------------------------------------------------------


class _Crash(Exception):
    pass


def _crash_on(monkeypatch, name, nth=1):
    """Make the ``nth`` call of ``commit.<name>`` raise; returns undo."""
    real = getattr(commit, name)
    calls = []

    def boom(*a, **kw):
        calls.append(1)
        if len(calls) == nth:
            raise _Crash("injected crash in %s" % name)
        return real(*a, **kw)

    monkeypatch.setattr(commit, name, boom)
    return lambda: monkeypatch.setattr(commit, name, real)


def _kg_ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pylist(
        [{"subj": s, "pred": p, "obj_value": o} for s, p, o in rows]))


def _kg_rows(store):
    from rdfa_ray.stages.kgstore import read_kg

    df = read_kg(store).to_pandas()
    return sorted(zip(df["subj"], df["pred"], df["obj_value"]))


GEN1 = [("s%d" % i, (SRC, LANG)[i % 2], "o%d" % i) for i in range(12)]
GEN2 = [("t%d" % i, SRC, "n%d" % i) for i in range(5)]


@pytest.mark.parametrize("step", ["move", "publish_manifest"])
def test_persist_kg_crash_over_complete_store(ray_session, tmp_path, monkeypatch, step):
    from rdfa_ray.stages.kgstore import persist_kg, store_meta

    store = str(tmp_path / "kg")
    persist_kg(_kg_ds(GEN1), store)
    meta, rows = store_meta(store), _kg_rows(store)

    undo = _crash_on(monkeypatch, step)
    with pytest.raises(_Crash):
        persist_kg(_kg_ds(GEN2), store)
    undo()
    assert store_meta(store) == meta  # previous snapshot, identical
    assert _kg_rows(store) == rows

    persist_kg(_kg_ds(GEN2), store)  # rerun completes
    assert _kg_rows(store) == sorted(GEN2)
    assert _tmps(store) == []


@pytest.mark.parametrize("step", ["move", "publish_manifest"])
def test_update_kg_crash_keeps_previous_snapshot(ray_session, tmp_path, monkeypatch, step):
    from rdfa_ray.stages.kgstore import persist_kg, store_meta, update_kg

    store = str(tmp_path / "kg")
    persist_kg(_kg_ds(GEN1), store)
    meta, rows = store_meta(store), _kg_rows(store)

    undo = _crash_on(monkeypatch, step)
    with pytest.raises(_Crash):
        update_kg(store, insert_ds=_kg_ds(GEN2), delete_ds=_kg_ds(GEN1[:2]))
    undo()
    assert store_meta(store) == meta
    assert _kg_rows(store) == rows

    update_kg(store, insert_ds=_kg_ds(GEN2), delete_ds=_kg_ds(GEN1[:2]))
    assert _kg_rows(store) == sorted(GEN1[2:] + GEN2)
    assert _tmps(store) == []


def _docs(pairs):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in pairs], pa.int64()),
        "text": pa.array([t for _, t in pairs], pa.string()),
    }))


CORPUS = [(i, "corpus doc %d" % i) for i in range(40)]


def test_incremental_dedup_commit_crash(ray_session, tmp_path, monkeypatch):
    from rdfa_ray.stages.dedupstore import incremental_exact_dedup, persist_hash_store

    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    meta = commit.read_manifest(store, "_meta.json")
    drop = [(100, "corpus doc 3"), (101, "fresh a"), (102, "fresh b")]

    undo = _crash_on(monkeypatch, "publish_manifest")
    with pytest.raises(_Crash):
        incremental_exact_dedup(_docs(drop), store, commit=True)
    undo()
    assert commit.read_manifest(store, "_meta.json") == meta
    survivors = incremental_exact_dedup(_docs(drop), store).to_pandas()
    assert sorted(survivors["doc_id"]) == [101, 102]  # nothing half-committed

    incremental_exact_dedup(_docs(drop), store, commit=True)  # rerun completes
    assert len(incremental_exact_dedup(_docs(drop), store).to_pandas()) == 0
    assert _tmps(store) == []


def _crash_in_write_task(monkeypatch):
    """Make every write task of ``commit.write_partitioned`` raise after
    writing its files."""
    real = commit._sink_class()

    class CrashingSink(real):
        # pickled by value: the raise happens inside the write task
        def write(self, blocks, ctx):
            written = super().write(blocks, ctx)
            raise RuntimeError("injected crash after writing %s" % sorted(written))

    monkeypatch.setattr(commit, "_sink_class", lambda: CrashingSink)


def _staged_files(store):
    return glob.glob(os.path.join(store, "_stage_g*", "*", "*.parquet"))


def _entries(store):
    return sorted(os.listdir(os.path.join(store, "parts")))


def test_update_kg_crash_inside_write_task(ray_session, tmp_path, monkeypatch):
    from rdfa_ray.stages.kgstore import persist_kg, store_meta, update_kg, vacuum_store

    store = str(tmp_path / "kg")
    persist_kg(_kg_ds(GEN1), store)
    meta, rows = store_meta(store), _kg_rows(store)

    _crash_in_write_task(monkeypatch)
    with pytest.raises(Exception, match="injected crash"):
        update_kg(store, insert_ds=_kg_ds(GEN2), delete_ds=_kg_ds(GEN1[:2]))
    monkeypatch.undo()
    assert _staged_files(store)  # the task's files landed before it died
    assert store_meta(store) == meta
    assert _kg_rows(store) == rows

    update_kg(store, insert_ds=_kg_ds(GEN2), delete_ds=_kg_ds(GEN1[:2]))
    assert _kg_rows(store) == sorted(GEN1[2:] + GEN2)
    vacuum_store(store)
    assert _entries(store) == sorted(
        os.path.basename(r) for r in store_meta(store)["partitions"].values())
    assert _staged_files(store) == [] and _tmps(store) == []


def test_incremental_dedup_crash_inside_write_task(ray_session, tmp_path, monkeypatch):
    from rdfa_ray.stages.dedupstore import (
        incremental_exact_dedup,
        persist_hash_store,
        vacuum_hash_store,
    )

    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    meta = commit.read_manifest(store, "_meta.json")
    drop = [(100, "corpus doc 3"), (101, "fresh a"), (102, "fresh b")]

    _crash_in_write_task(monkeypatch)
    with pytest.raises(Exception, match="injected crash"):
        incremental_exact_dedup(_docs(drop), store, commit=True)
    monkeypatch.undo()
    assert _staged_files(store)
    assert commit.read_manifest(store, "_meta.json") == meta
    survivors = incremental_exact_dedup(_docs(drop), store).to_pandas()
    assert sorted(survivors["doc_id"]) == [101, 102]

    incremental_exact_dedup(_docs(drop), store, commit=True)  # rerun completes
    assert len(incremental_exact_dedup(_docs(drop), store).to_pandas()) == 0
    vacuum_hash_store(store)
    listed = commit.read_manifest(store, "_meta.json")["partitions"].values()
    assert _entries(store) == sorted({r.split(os.sep)[1] for rels in listed for r in rels})
    on_disk = sorted(os.path.relpath(f, store)
                     for f in glob.glob(os.path.join(store, "parts", "*", "*")))
    assert on_disk == sorted(r for rels in listed for r in rels)
    assert _staged_files(store) == [] and _tmps(store) == []


def test_concurrent_dedup_commits_keep_every_drop(ray_session, tmp_path):
    """Two drivers committing drops at once: the manifest
    read-modify-write is inside the lock, so neither drop's hashes are
    lost and neither commit's files are vacuumed by the other."""
    from rdfa_ray.stages.dedupstore import incremental_exact_dedup, persist_hash_store

    store = str(tmp_path / "hs")
    persist_hash_store(_docs(CORPUS), store)
    drops = [[(1000 * k + j, "drop %d doc %d" % (k, j)) for j in range(20)]
             for k in (1, 2)]
    errors = []

    def run(drop):
        try:
            incremental_exact_dedup(_docs(drop), store, commit=True)
        except Exception as e:  # reported below
            errors.append(repr(e))

    _run_threads([threading.Thread(target=run, args=(d,)) for d in drops])
    assert errors == []
    replay = incremental_exact_dedup(_docs(drops[0] + drops[1]), store).to_pandas()
    assert len(replay) == 0  # every committed hash is in the final manifest


def _nq_sha(out, part):
    with open("%s/nt/part-%05d.nq" % (out, part), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module")
def flagship_ref(ray_session, tmp_path_factory):
    from rdfa_ray.pipelines.flagship import partition_manifests, run_flagship
    from rdfa_ray.sources.transcripts import transcripts_dataset

    out = str(tmp_path_factory.mktemp("flag_ref"))
    run_flagship(transcripts_dataset(600, override_num_blocks=4), out, n_parts=8)
    return {m["part"]: m["sha256_nq"] for m in partition_manifests(out)}


@pytest.mark.parametrize("step,nth", [("atomic_write", 2), ("publish_manifest", 1)])
def test_flagship_partition_crash_then_resume(flagship_ref, tmp_path, monkeypatch, step, nth):
    """One partition's writer task dies after its Parquet write (at the
    N-Quads write or the manifest publish): every published partition
    stays valid, the victim is not published, and a resume completes
    with the same per-partition shas as an uninterrupted run."""
    from rdfa_ray.pipelines import flagship
    from rdfa_ray.sources.transcripts import transcripts_dataset

    victim = sorted(flagship_ref)[0]

    class CrashingWriter(flagship.PartitionWriter):
        # pickled by value: the patch happens inside the worker task
        def __call__(self, group):
            if pa.table(group).column("part")[0].as_py() != victim:
                return super().__call__(group)
            from rdfa_ray.state import commit as worker_commit

            real = getattr(worker_commit, step)
            calls = []

            def boom(*a, **kw):
                calls.append(1)
                if len(calls) == nth:
                    raise RuntimeError("injected crash in %s" % step)
                return real(*a, **kw)

            setattr(worker_commit, step, boom)
            try:
                return super().__call__(group)
            finally:
                setattr(worker_commit, step, real)

    out = str(tmp_path / "flag")
    monkeypatch.setattr(flagship, "PartitionWriter", CrashingWriter)
    with pytest.raises(Exception, match="injected crash"):
        flagship.run_flagship(transcripts_dataset(600, override_num_blocks=4), out, n_parts=8)
    monkeypatch.undo()

    published = flagship.partition_manifests(out)
    assert victim not in {m["part"] for m in published}
    for m in published:
        assert _nq_sha(out, m["part"]) == m["sha256_nq"] == flagship_ref[m["part"]]

    flagship.run_flagship(transcripts_dataset(600, override_num_blocks=4), out, n_parts=8)
    assert {m["part"]: m["sha256_nq"] for m in flagship.partition_manifests(out)} == flagship_ref
    assert _tmps(out) == []
