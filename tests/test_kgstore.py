"""Persisted predicate-partitioned triple store (stages/kgstore.py):
layout, pruned reads, residual filtering, generational updates, and
crash/snapshot semantics."""

import json
import os
import threading
import time

import pyarrow as pa
import pytest

from rdfa_ray.stages.kgstore import (
    ensure_kg,
    persist_kg,
    pred_key,
    read_kg,
    store_is_complete,
    update_kg,
)

SRC = "http://schema.org/source"
LANG = "http://schema.org/inLanguage"
TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def _ds(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.Table.from_pylist(
            [{"subj": s, "pred": p, "obj_value": o} for s, p, o in rows]
        )
    )


def _triples_ds():
    rows = []
    for i in range(40):
        s = "http://example.org/doc/%d" % i
        rows.append((s, SRC, "src%d" % (i % 3)))
        rows.append((s, LANG, ("zh", "en")[i % 2]))
        rows.append((s, TYPE, "http://schema.org/Document"))
    return _ds(rows)


def test_pred_key_deterministic_and_safe():
    k = pred_key(TYPE)
    assert k == pred_key(TYPE)
    assert all(c.isalnum() or c == "_" for c in k)
    assert pred_key(SRC) != pred_key(LANG)


def test_persist_prune_and_residual(ray_session, tmp_path):
    store = str(tmp_path / "kg")
    meta = persist_kg(_triples_ds(), store)
    assert store_is_complete(store)
    assert meta["generation"] == 1
    assert sorted(meta["partitions"]) == sorted(
        {pred_key(p) for p in (SRC, LANG, TYPE)}
    )
    # generation layout on disk: one directory per predicate token
    for token, rel in meta["partitions"].items():
        assert rel == os.path.join("parts", "%s-g1" % token)
        assert os.path.isdir(os.path.join(store, rel))

    # pruned read returns exactly the requested predicates' rows
    df = read_kg(store, preds=[LANG]).to_pandas()
    assert set(df["pred"]) == {LANG} and len(df) == 40

    # column pruning keeps the residual filter working, drops pred after
    df2 = read_kg(store, preds=[SRC], columns=["subj", "obj_value"]).to_pandas()
    assert sorted(df2.columns) == ["obj_value", "subj"] and len(df2) == 40

    # full read (no preds) sees everything
    assert read_kg(store).count() == 120

    # unknown predicate -> typed empty, not an error
    assert read_kg(store, preds=["http://example.org/absent"]).count() == 0


def test_update_rewrites_only_touched_partitions(ray_session, tmp_path):
    store = str(tmp_path / "kg")
    persist_kg(_triples_ds(), store)

    # vocabulary migration: zh -> zh-Hans (deletes + inserts, one pred)
    zh_docs = ["http://example.org/doc/%d" % i for i in range(0, 40, 2)]
    meta = update_kg(
        store,
        insert_ds=_ds([(d, LANG, "zh-Hans") for d in zh_docs]),
        delete_ds=_ds([(d, LANG, "zh") for d in zh_docs]),
    )
    assert meta["generation"] == 2
    # ONLY the language partition moved to g2; the others still point
    # at their g1 directories (carried by reference, not rewritten)
    assert meta["partitions"][pred_key(LANG)].endswith("-g2")
    assert meta["partitions"][pred_key(SRC)].endswith("-g1")
    assert meta["partitions"][pred_key(TYPE)].endswith("-g1")

    langs = read_kg(store, preds=[LANG]).to_pandas()
    assert set(langs["obj_value"]) == {"zh-Hans", "en"}
    assert len(langs) == 40
    assert read_kg(store).count() == 120

    # empty delta is a no-op returning the current manifest
    assert update_kg(store)["generation"] == 2

    # inserting a NEW predicate creates a partition without touching others
    meta3 = update_kg(
        store, insert_ds=_ds([("http://example.org/doc/0", "http://schema.org/about", "e1")])
    )
    assert meta3["partitions"][pred_key("http://schema.org/about")].endswith("-g3")
    assert read_kg(store, preds=["http://schema.org/about"]).count() == 1
    assert read_kg(store).count() == 121


def test_crashed_build_is_invisible_and_rebuilt(ray_session, tmp_path):
    store = str(tmp_path / "kg")
    persist_kg(_triples_ds(), store)

    # simulate a crash mid-rebuild: stale partial data, NO manifest
    os.remove(os.path.join(store, "_meta.json"))
    stray = os.path.join(store, "parts", "zzz_stale-g9")
    os.makedirs(stray)
    with open(os.path.join(stray, "junk.parquet"), "w") as f:
        f.write("not parquet")

    assert not store_is_complete(store)
    with pytest.raises(FileNotFoundError):
        read_kg(store)

    # rebuild clears the stale generation entirely
    meta = persist_kg(_triples_ds(), store)
    assert "zzz_stale" not in meta["partitions"]
    assert not os.path.exists(stray)
    assert read_kg(store).count() == 120


def test_crashed_update_preserves_snapshot(ray_session, tmp_path):
    store = str(tmp_path / "kg")
    persist_kg(_triples_ds(), store)
    before = json.load(open(os.path.join(store, "_meta.json")))

    # a crashed update leaves new generation dirs but the OLD manifest
    stray = os.path.join(store, "parts", "%s-g2" % pred_key(LANG))
    os.makedirs(stray)
    with open(os.path.join(stray, "halfwritten.parquet"), "w") as f:
        f.write("not parquet")

    after = json.load(open(os.path.join(store, "_meta.json")))
    assert after == before  # manifest untouched -> old snapshot intact
    langs = read_kg(store, preds=[LANG]).to_pandas()
    assert set(langs["obj_value"]) == {"zh", "en"} and len(langs) == 40


def test_vacuum_removes_only_unreferenced(ray_session, tmp_path):
    from rdfa_ray.stages.kgstore import vacuum_store

    store = str(tmp_path / "kg")
    persist_kg(_triples_ds(), store)
    zh = ["http://example.org/doc/%d" % i for i in range(0, 40, 2)]
    update_kg(
        store,
        insert_ds=_ds([(d, LANG, "zh-Hans") for d in zh]),
        delete_ds=_ds([(d, LANG, "zh") for d in zh]),
    )
    # superseded g1 language partition exists until vacuumed
    stale = os.path.join("parts", "%s-g1" % pred_key(LANG))
    assert os.path.isdir(os.path.join(store, stale))
    removed = vacuum_store(store)
    assert removed == [stale]
    assert not os.path.isdir(os.path.join(store, stale))
    # current snapshot unaffected
    assert read_kg(store).count() == 120
    assert vacuum_store(store) == []


def test_quad_store_passthrough(ray_session, tmp_path):
    """Extra columns (named graph) persist and read back pruned; the
    update path auto-detects quad stores — a graph-less delta targets
    the DEFAULT graph '' (SPARQL Update's rule for triples outside any
    GRAPH block), so named-graph rows are untouched by it."""
    import ray.data as rd

    rows = [
        {"subj": "s%d" % i, "pred": (SRC, LANG)[i % 2], "obj_value": "o%d" % i,
         "graph": "g%d" % (i % 2)}
        for i in range(10)
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    store = str(tmp_path / "kg")
    persist_kg(ds, store)

    back = read_kg(store, preds=[LANG]).to_pandas()
    assert len(back) == 5 and set(back["graph"]) == {"g1"}
    assert sorted(back.columns) == ["graph", "obj_value", "pred", "subj"]

    # graph-less delete: keys on ('', s1, LANG, o1) — no default-graph
    # rows exist, so the named-graph row survives
    update_kg(store, delete_ds=_ds([("s1", LANG, "o1")]))
    assert len(read_kg(store, preds=[LANG]).to_pandas()) == 5
    # quad delete hits the named row
    qdel = rd.from_arrow(
        pa.Table.from_pylist(
            [{"subj": "s1", "pred": LANG, "obj_value": "o1", "graph": "g1"}]
        )
    )
    update_kg(store, delete_ds=qdel)
    after = read_kg(store, preds=[LANG]).to_pandas()
    assert len(after) == 4 and "s1" not in set(after["subj"])
    # graph-less insert lands in the default graph ''
    update_kg(store, insert_ds=_ds([("sX", LANG, "oX")]))
    df = read_kg(store, preds=[LANG]).to_pandas()
    assert set(df[df["subj"] == "sX"]["graph"]) == {""}


@pytest.mark.parametrize("seed", range(4))
def test_randomized_store_roundtrip_and_update(ray_session, tmp_path, seed):
    """Random triple sets: persist -> read is the identity; a random
    update equals set algebra ((current - deletes) | inserts)."""
    import random

    import ray.data as rd

    rng = random.Random(9000 + seed)
    preds = ["http://ex.org/p%d" % i for i in range(3)]

    def rand_rows(n):
        return sorted(
            {
                ("s%d" % rng.randrange(6), rng.choice(preds), "v%d" % rng.randrange(5))
                for _ in range(n)
            }
        )

    base = rand_rows(rng.randrange(4, 25))
    store = str(tmp_path / ("kg%d" % seed))
    persist_kg(_ds(base), store)
    back = sorted(
        map(tuple, read_kg(store).to_pandas()[["subj", "pred", "obj_value"]]
            .to_records(index=False).tolist())
    )
    assert back == base

    deletes = rand_rows(rng.randrange(1, 8))
    inserts = rand_rows(rng.randrange(1, 8))
    update_kg(store, insert_ds=_ds(inserts), delete_ds=_ds(deletes))
    want = sorted((set(base) - set(deletes)) | set(inserts))
    got = sorted(
        map(tuple, read_kg(store).to_pandas()[["subj", "pred", "obj_value"]]
            .to_records(index=False).tolist())
    )
    assert got == want


def test_vacuum_after_n_updates_store_stays_correct(ray_session, tmp_path):
    # VERDICT r3 item 5 "done" shape: N generational updates, vacuum,
    # re-query — every superseded generation dir is gone, the current
    # snapshot is byte-identical to before the vacuum
    from rdfa_ray.stages.kgstore import vacuum_store

    store = str(tmp_path / "kg")
    persist_kg(_triples_ds(), store)
    for gen in range(2, 6):  # 4 updates touching two partitions each
        docs = ["http://example.org/doc/%d" % i for i in range(gen, 40, 5)]
        update_kg(
            store,
            insert_ds=_ds(
                [(d, LANG, "lang-g%d" % gen) for d in docs]
                + [(d, SRC, "src-g%d" % gen) for d in docs]
            ),
        )
    before = read_kg(store).to_pandas()
    before_key = sorted(map(tuple, before.to_numpy().tolist()))

    parts_dir = os.path.join(store, "parts")
    all_dirs = set(os.listdir(parts_dir))
    live = set(
        os.path.basename(rel)
        for rel in json.load(open(os.path.join(store, "_meta.json")))[
            "partitions"
        ].values()
    )
    stale = all_dirs - live
    assert len(stale) >= 4  # each update superseded at least one dir

    removed = vacuum_store(store)
    assert {os.path.basename(r) for r in removed} == stale
    assert set(os.listdir(parts_dir)) == live  # old generation dirs GONE

    after = read_kg(store).to_pandas()
    after_key = sorted(map(tuple, after.to_numpy().tolist()))
    assert after_key == before_key  # re-query: snapshot unchanged
    # store still updatable after vacuum
    update_kg(store, insert_ds=_ds([("http://example.org/doc/0", SRC, "post")]))
    assert ("http://example.org/doc/0", SRC, "post") in {
        tuple(r) for r in read_kg(store, preds=[SRC]).to_pandas().to_numpy()
    }


def test_rebuild_over_complete_store_is_crash_safe(ray_session, tmp_path):
    """persist_kg over a COMPLETE store must not touch the live
    generation's directories: the rebuild lands in a fresh generation
    and only the final manifest swap makes it visible (round-5 fix —
    the gen-1 rebuild used to rmtree live dirs in place)."""
    import glob

    store = str(tmp_path / "kg")
    from rdfa_ray.stages.kgstore import vacuum_store

    persist_kg(_ds([("s1", "p", "o1"), ("s2", "p", "o2")]), store)
    meta1 = json.load(open(os.path.join(store, "_meta.json")))
    old_dirs = set(glob.glob(os.path.join(store, "parts", "*")))
    assert meta1["generation"] == 1

    persist_kg(_ds([("x", "q", "y")]), store)
    meta2 = json.load(open(os.path.join(store, "_meta.json")))
    assert meta2["generation"] == 2
    # the old generation's directories still exist untouched (crash
    # safety: a die before the manifest swap leaves gen 1 fully valid)
    assert old_dirs <= set(glob.glob(os.path.join(store, "parts", "*")))
    out = read_kg(store).to_pandas()
    assert sorted(out["subj"]) == ["x"]
    # vacuum reclaims the superseded generation
    vacuum_store(store)
    assert not (old_dirs & set(glob.glob(os.path.join(store, "parts", "*"))))


def test_read_kg_projection_exact_and_quad_form_guard(ray_session, tmp_path):
    import pytest

    store = str(tmp_path / "kg")
    persist_kg(_ds([("s", "p", "o")]), store)
    # plain projection returns exactly the requested columns
    assert read_kg(store, columns=["subj"]).to_pandas().columns.tolist() == ["subj"]
    # forcing quad mode against a non-empty triple store refuses even
    # when the delta's predicates are all NEW (round-5 fix)
    import pyarrow as pa
    import ray.data as rd

    quad_delta = rd.from_arrow(
        pa.table({"subj": ["a"], "pred": ["newp"], "obj_value": ["b"],
                  "graph": ["g1"]})
    )
    with pytest.raises(ValueError, match="non-empty"):
        update_kg(store, insert_ds=quad_delta, quads=True)


def test_null_in_non_term_payload_column_reads_back_null(ray_session, tmp_path):
    # only term columns (and a graph column) normalize null -> '';
    # any other string payload keeps its nulls
    import ray.data as rd

    store = str(tmp_path / "kg")
    rows = pa.table({
        "subj": ["s1", "s2"], "pred": [SRC, SRC], "obj_value": ["a", "b"],
        "note": pa.array([None, "kept"], pa.string()),
    })
    persist_kg(rd.from_arrow(rows), store)
    got = read_kg(store).to_pandas().sort_values("subj")
    assert got["note"].tolist() == [None, "kept"]


def test_ensure_kg_two_threads_build_one_generation(ray_session, tmp_path):
    store = str(tmp_path / "kg")
    builds, metas = [], []
    start = threading.Barrier(2)

    def build():
        builds.append(threading.get_ident())
        time.sleep(0.3)  # hold the lock while the other thread arrives
        return _triples_ds()

    def caller():
        start.wait()
        metas.append(ensure_kg(store, build))

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(builds) == 1
    assert [m["generation"] for m in metas] == [1, 1]
    assert all(d.endswith("-g1") for d in os.listdir(os.path.join(store, "parts")))
    # a complete store is read, never rebuilt
    assert ensure_kg(store, build)["generation"] == 1 and len(builds) == 1


# ------------------------------------------------- compacted layout

P = ["http://ex.org/p%d" % i for i in range(4)]


def _rows(n=160):
    """Quads with every predicate and two graphs interleaved; ``urn:g1``
    only under the first two predicates."""
    return [
        {"subj": "s%03d" % i, "pred": P[i % 4], "obj_value": "o%d" % i,
         "graph": "urn:g1" if i % 4 < 2 and i % 3 == 0 else "urn:g0"}
        for i in range(n)
    ]


def _blocks(rows, n_blocks=16, cols=("subj", "pred", "obj_value", "graph")):
    """``rows`` as a Dataset of ``n_blocks`` Arrow blocks, in order."""
    import ray.data as rd

    step = -(-len(rows) // n_blocks)
    return rd.from_arrow([
        pa.Table.from_pylist([{c: r[c] for c in cols} for r in rows[i:i + step]])
        for i in range(0, len(rows), step)
    ])


def _layout(store):
    """(manifest, {token: [row groups of each file, in read order]})."""
    import glob

    import pyarrow.parquet as pq

    meta = json.load(open(os.path.join(store, "_meta.json")))
    return meta, {
        t: [pq.ParquetFile(f).metadata.num_row_groups
            for f in sorted(glob.glob(os.path.join(store, rel, "*.parquet")))]
        for t, rel in meta["partitions"].items()
    }


def _in_order(store, pred):
    """``pred``'s rows as the store reads them, as dicts."""
    import sys

    from rdfa_ray.stages.kgstore import read_kg_table

    return read_kg_table(store, [pred], None, sys.maxsize).to_pylist()


def test_every_writer_writes_one_file_one_row_group(ray_session, tmp_path):
    import pyarrow.compute as pc

    from rdfa_ray.stages.kgstore import transform_graphs

    rows = _rows()
    store = str(tmp_path / "kg")
    persist_kg(_blocks(rows), store)
    meta, layout = _layout(store)
    assert layout == {pred_key(p): [1] for p in P}
    for p in P:  # input order, filtered by predicate
        assert _in_order(store, p) == [r for r in rows if r["pred"] == p]

    update_kg(store, insert_ds=_ds([("s999", P[2], "new")]))
    meta2, layout = _layout(store)
    assert layout == {pred_key(p): [1] for p in P}
    assert meta2["partitions"][pred_key(P[2])].endswith("-g2")
    for p in (P[0], P[1], P[3]):  # carried by reference
        assert meta2["partitions"][pred_key(p)] == meta["partitions"][pred_key(p)]

    meta3 = transform_graphs(
        store,
        lambda g: pc.equal(g, "urn:g1"),
        lambda b: b.filter(pc.not_equal(b.column("graph"), "urn:g1")),
    )
    _, layout = _layout(store)
    assert layout == {pred_key(p): [1] for p in P}
    assert [meta3["partitions"][pred_key(p)][-3:] for p in P] == ["-g3", "-g3", "-g2", "-g1"]
    for p in P[:2]:
        assert _in_order(store, p) == [
            r for r in rows if r["pred"] == p and r["graph"] != "urn:g1"
        ]


def test_partition_above_the_cap_splits_in_order(ray_session, tmp_path, monkeypatch):
    import glob

    import pyarrow.parquet as pq

    from rdfa_ray.stages import kgstore

    monkeypatch.setattr(kgstore, "ROWS_PER_FILE", 25)
    rows = _rows(400)  # 100 rows per partition
    store = str(tmp_path / "kg")
    meta = persist_kg(_blocks(rows), store)
    for p in P:
        files = sorted(glob.glob(os.path.join(store, meta["partitions"][pred_key(p)], "*")))
        assert len(files) >= 4
        for f in files:
            md = pq.ParquetFile(f).metadata
            assert md.num_row_groups == 1 and md.num_rows <= 25
        assert _in_order(store, p) == [r for r in rows if r["pred"] == p]


@pytest.mark.usefixtures("both_executors")
def test_limit_without_order_reads_input_order(tmp_path):
    from rdfa_ray.stages import sparql_text

    rows = _rows()
    store = str(tmp_path / "kg")
    persist_kg(_blocks(rows, cols=("subj", "pred", "obj_value")), store)
    got = sparql_text.execute_on_store(
        store, "SELECT ?s ?o WHERE { ?s <%s> ?o } LIMIT 5" % P[1]
    ).to_pandas()
    want = [(r["subj"], r["obj_value"]) for r in rows if r["pred"] == P[1]][:5]
    assert list(zip(got["s"], got["o"])) == want


def _split_like_block_writes(store, token, n_files=3, group_rows=4):
    """Rewrite one partition the way one-file-per-block writers left
    it: several files of several row groups each."""
    import glob

    import pyarrow.parquet as pq

    rel = json.load(open(os.path.join(store, "_meta.json")))["partitions"][token]
    (path,) = glob.glob(os.path.join(store, rel, "*.parquet"))
    table = pq.read_table(path)
    os.remove(path)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(
            table.slice(i * step, step),
            os.path.join(store, rel, "u_%06d_000000-0.parquet" % i),
            row_group_size=group_rows,
        )
    return rel


@pytest.mark.usefixtures("both_executors")
def test_block_layout_store_reads_and_updates(tmp_path):
    import duckdb

    from rdfa_ray.stages import sparql_text

    rows = [r for r in _rows() if r["graph"] == "urn:g0"]
    store = str(tmp_path / "kg")
    persist_kg(_blocks(rows), store)
    rel = _split_like_block_writes(store, pred_key(P[0]))
    meta, layout = _layout(store)
    assert len(layout[pred_key(P[0])]) == 3 and min(layout[pred_key(P[0])]) > 1

    def files(rel):
        return sorted(
            (e.name, e.stat().st_ino, e.stat().st_mtime_ns)
            for e in os.scandir(os.path.join(store, rel))
        )

    old_files = files(rel)
    con = duckdb.connect()
    queries = [
        ("SELECT ?s ?a ?b WHERE { ?s <%s> ?a . ?s <%s> ?b }" % (P[0], P[2]),
         "SELECT a.subj, a.obj_value, b.obj_value FROM t a JOIN t b ON a.subj = b.subj"
         " WHERE a.pred = '%s' AND b.pred = '%s'" % (P[0], P[2])),
        ("SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <%s> ?o } GROUP BY ?o" % P[0],
         "SELECT obj_value, COUNT(*) FROM t WHERE pred = '%s' GROUP BY obj_value" % P[0]),
    ]

    def check():
        live = json.load(open(os.path.join(store, "_meta.json")))["partitions"].values()
        con.execute("CREATE OR REPLACE TABLE t AS SELECT subj, pred, obj_value, graph"
                    " FROM read_parquet([%s])"
                    % ", ".join(repr(os.path.join(store, r, "*.parquet")) for r in live))
        for sparql, sql in queries:
            got = sparql_text.execute_on_store(store, sparql).to_pandas()
            assert sorted(map(tuple, got.astype(object).values.tolist())) == sorted(
                con.execute(sql).fetchall()
            ), sparql

    check()
    meta2 = update_kg(store, insert_ds=_ds([("s001", P[2], "new")]))
    assert meta2["partitions"][pred_key(P[0])] == rel
    assert files(rel) == old_files  # the block-layout partition is untouched
    assert _layout(store)[1][pred_key(P[2])] == [1]
    check()


# ------------------------------------------------------ store snapshot


def _twin_check(store, queries):
    """Each SPARQL query's answer on the store equals its DuckDB twin
    over the files the current manifest names.  Returns the answers."""
    import glob

    import duckdb

    from rdfa_ray.stages import sparql_text

    live = json.load(open(os.path.join(store, "_meta.json")))["partitions"].values()
    files = [f for rel in live for f in glob.glob(os.path.join(store, rel, "*.parquet"))]
    con = duckdb.connect()
    con.execute("CREATE TABLE t AS SELECT subj, pred, obj_value, graph FROM read_parquet([%s],"
                " union_by_name = true)" % ", ".join(map(repr, files)))
    out = []
    for sparql, sql in queries:
        got = sparql_text.execute_on_store(store, sparql).to_pandas()
        out.append(sorted(map(tuple, got.astype(object).values.tolist())))
        assert out[-1] == sorted(con.execute(sql).fetchall()), sparql
    return out


def _pred_queries(preds):
    """A plain scan and a per-graph count for each predicate."""
    return [q for p in preds for q in (
        ("SELECT ?s ?o WHERE { ?s <%s> ?o }" % p,
         "SELECT subj, obj_value FROM t WHERE pred = '%s'" % p),
        ("SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s <%s> ?o } } GROUP BY ?g" % p,
         # GRAPH ?g binds named graphs only, not the default graph ''
         "SELECT graph, COUNT(*) FROM t WHERE pred = '%s' AND graph <> ''"
         " GROUP BY graph" % p),
    )]


@pytest.mark.usefixtures("both_executors")
def test_snapshot_sees_update_in_the_same_process(tmp_path):
    store = str(tmp_path / "kg")
    rows = _rows()
    persist_kg(_blocks(rows), store)
    queries = _pred_queries(P[:2])
    before = _twin_check(store, queries)
    assert _twin_check(store, queries) == before  # warm
    gone = next(r for r in rows if r["pred"] == P[1])
    update_kg(
        store,
        insert_ds=_ds([("s999", P[0], "new")]),
        delete_ds=_blocks([gone], 1),
    )
    after = _twin_check(store, queries)
    assert after[0] == sorted(before[0] + [("s999", "new")])
    assert len(after[2]) == len(before[2]) - 1


@pytest.mark.usefixtures("both_executors")
def test_snapshot_sees_rebuild_of_the_same_directory(tmp_path):
    import shutil

    store = str(tmp_path / "kg")
    persist_kg(_blocks(_rows()), store)
    queries = _pred_queries(P)
    before = _twin_check(store, queries)
    _twin_check(store, queries)
    shutil.rmtree(store)
    # the same predicates: the new manifest has the same bytes
    persist_kg(_blocks([dict(r, obj_value=r["obj_value"] + "-v2") for r in _rows()]), store)
    after = _twin_check(store, queries)
    assert after != before and all(o.endswith("-v2") for _s, o in after[0])


@pytest.mark.usefixtures("both_executors")
def test_snapshot_sees_update_by_another_process(tmp_path):
    import subprocess
    import sys

    import ray

    store = str(tmp_path / "kg")
    persist_kg(_blocks(_rows()), store)
    queries = _pred_queries(P[2:])
    before = _twin_check(store, queries)
    _twin_check(store, queries)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys, ray, ray.data as rd\n"
        "ray.init(address=sys.argv[1], logging_level='ERROR')\n"
        "from rdfa_ray.stages.kgstore import update_kg\n"
        "update_kg(sys.argv[2], insert_ds=rd.from_items("
        "[{'subj': 'sX', 'pred': %r, 'obj_value': 'oX'}]))\n"
        "ray.shutdown()\n" % P[3]
    )
    subprocess.run(
        [sys.executable, "-c", code, ray.get_runtime_context().gcs_address, store],
        cwd=root, env=dict(os.environ, PYTHONPATH=root), check=True, timeout=300,
    )
    after = _twin_check(store, queries)
    assert after[2] == sorted(before[2] + [("sX", "oX")])


@pytest.mark.usefixtures("both_executors")
def test_crashed_update_keeps_serving_the_snapshot(tmp_path, monkeypatch):
    from rdfa_ray.stages import kgstore
    from rdfa_ray.state import commit

    store = str(tmp_path / "kg")
    persist_kg(_blocks(_rows()), store)
    queries = _pred_queries(P[:2])
    before = _twin_check(store, queries)
    snap = kgstore.store_snapshot(store)

    def crash(*_a, **_k):
        raise OSError("crash before the manifest swap")

    monkeypatch.setattr(commit, "publish_manifest", crash)
    with pytest.raises(OSError, match="crash"):
        update_kg(store, insert_ds=_ds([("s999", P[0], "new")]))
    monkeypatch.undo()
    assert len(os.listdir(os.path.join(store, "parts"))) == len(P) + 1  # new generation left
    assert kgstore.store_snapshot(store) is snap
    assert _twin_check(store, queries) == before


@pytest.mark.usefixtures("both_executors")
def test_shared_pred_key_collision_with_a_warm_cache(tmp_path):
    from rdfa_ray.stages import kgstore

    a, b = "http://a.org/v/name", "http://b.org/v/name"
    assert pred_key(a) == pred_key(b)
    store = str(tmp_path / "kg")
    persist_kg(_blocks(
        [{"subj": s, "pred": p, "obj_value": o, "graph": ""}
         for s, p, o in [("s1", a, "one"), ("s2", b, "two"), ("s3", a, "three")]], 3,
    ), store)
    queries = _pred_queries([a, b]) + [(
        "SELECT ?s ?x ?y WHERE { ?s <%s> ?x . OPTIONAL { ?s <%s> ?y } }" % (a, b),
        "SELECT subj, obj_value, '' FROM t WHERE pred = '%s'" % a,  # unbound ?y reads ''
    )]
    first = _twin_check(store, queries)
    assert _twin_check(store, queries) == first  # warm
    assert first[0] == [("s1", "one"), ("s3", "three")]
    assert kgstore.store_snapshot(store).preds[pred_key(a)] == {a, b}


@pytest.mark.usefixtures("both_executors")
def test_snapshot_table_budget_evicts(tmp_path, monkeypatch):
    from rdfa_ray.stages import kgstore

    store, twin = str(tmp_path / "kg"), str(tmp_path / "twin")
    persist_kg(_blocks(_rows()), store)
    persist_kg(_blocks(_rows()), twin)  # sized on a twin: the store's cache stays cold
    snap = kgstore.store_snapshot(twin)
    one = max(kgstore._table(snap, kgstore.pred_key(p)).get_total_buffer_size() for p in P)
    monkeypatch.setattr(kgstore, "SNAPSHOT_TABLE_BYTES", one)
    queries = _pred_queries(P)
    first = _twin_check(store, queries)
    assert _twin_check(store, queries) == first
    assert 1 <= len(kgstore._tables) and kgstore._table_bytes <= one
    monkeypatch.setattr(kgstore, "SNAPSHOT_TABLE_BYTES", 0)  # nothing fits
    assert _twin_check(store, queries) == first


def test_token_first_seen_on_the_ray_path_is_read_in_process(ray_session, tmp_path, monkeypatch):
    from rdfa_ray.stages import kgstore, sparql_text

    store = str(tmp_path / "kg")
    persist_kg(_blocks(_rows()), store)
    limit = sparql_text.LOCAL_MAX_ROWS
    star = [(
        "SELECT ?s ?a ?b WHERE { ?s <%s> ?a . OPTIONAL { ?s <%s> ?b } }" % (P[0], P[1]),
        "SELECT subj, obj_value, '' FROM t WHERE pred = '%s'" % P[0],  # unbound ?b reads ''
    )]
    _twin_check(store, _pred_queries(P[:1]))  # in-process: P0 decoded
    monkeypatch.setattr(sparql_text, "LOCAL_MAX_ROWS", 0)
    _twin_check(store, star)  # Ray: P1's files listed, its rows not decoded
    snap = kgstore.store_snapshot(store)
    assert kgstore.pred_key(P[1]) in snap.files and kgstore.pred_key(P[1]) not in snap.preds
    monkeypatch.setattr(sparql_text, "LOCAL_MAX_ROWS", limit)
    assert "executor: in-process" in sparql_text.explain(star[0][0], store)
    _twin_check(store, star + _pred_queries(P[1:2]))


def test_warm_query_reads_no_manifest_glob_or_parquet_file(ray_session, tmp_path, monkeypatch):
    import collections
    import glob

    import pyarrow.parquet as pq

    from rdfa_ray.stages import kgstore, sparql_text

    store = str(tmp_path / "kg")
    persist_kg(_blocks(_rows()), store)
    queries = [
        "SELECT ?g ?s ?a ?b WHERE { GRAPH ?g { ?s <%s> ?a . ?s <%s> ?b } }" % (P[0], P[2]),
        "SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <%s> ?o } GROUP BY ?o" % P[1],
    ]
    calls = collections.Counter()

    def counting(name, fn, hit=lambda *a, **k: True):
        def run(*a, **k):
            if hit(*a, **k):
                calls[name] += 1
            return fn(*a, **k)
        return run

    monkeypatch.setattr(pq, "ParquetFile", counting("ParquetFile", pq.ParquetFile))
    monkeypatch.setattr(glob, "glob", counting("glob", glob.glob))
    monkeypatch.setattr(json, "load", counting("json.load", json.load))
    monkeypatch.setattr(json, "loads", counting("json.loads", json.loads))
    monkeypatch.setattr(os, "stat", counting(
        "stat _meta.json", os.stat, lambda p, *a, **k: str(p).endswith("_meta.json")))
    for q in queries:
        calls.clear()
        cold = sparql_text.execute_on_store(store, q).to_pandas()
        assert calls["ParquetFile"] and calls["glob"]  # new partitions: the counters count
        calls.clear()
        warm = sparql_text.execute_on_store(store, q).to_pandas()
        assert dict(calls) == {"stat _meta.json": 1}, q
        assert warm.equals(cold)
        calls.clear()
        sparql_text.explain(q, store)
        assert dict(calls) == {"stat _meta.json": 1}, q
    calls.clear()
    kgstore.store_meta(store)  # a disk read of the manifest counts
    assert calls["json.load"] == 1


def test_snapshot_shared_by_threads(ray_session, tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    from rdfa_ray.stages import kgstore, sparql_text

    store = str(tmp_path / "kg")
    rows = _rows()
    persist_kg(_blocks(rows), store)
    # a budget of about two partitions keeps the threads evicting
    monkeypatch.setattr(kgstore, "SNAPSHOT_TABLE_BYTES", 2 * kgstore._table(
        kgstore.store_snapshot(store), pred_key(P[0])).get_total_buffer_size())

    def count(p):
        q = "SELECT (COUNT(*) AS ?n) WHERE { ?s <%s> ?o }" % p
        return sparql_text.execute_on_store(store, q).to_pandas()["n"].tolist()

    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(count, P * 10))
    assert got == [[sum(r["pred"] == p for r in rows)] for p in P * 10]
