"""In-process execution of small store queries: the ArrowFrame's
Dataset surface against Ray's (stages/localframe.py), the local store
read's edge cases, the executor limit and its ``explain`` line
(stages/sparql_text.execute_on_store)."""

import sys

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from rdfa_ray.stages import kgstore, sparql_text
from rdfa_ray.stages.localframe import ArrowFrame

TABLE = pa.table(
    {
        "k": pa.array(["x", "y", "x", "z", "y", "x"], pa.string()),
        "v": pa.array([1, 2, 3, None, 5, 6], pa.int64()),
    }
)


def _bag(df: pd.DataFrame):
    df = df[sorted(df.columns)]
    return sorted(map(repr, df.astype(object).where(df.notna(), None).values.tolist()))


def _twins(table=TABLE):
    return ArrowFrame(table), rd.from_arrow(table)


# ------------------------------------------------------- frame vs Ray


class AddConst:
    def __init__(self, c):
        self.c = c

    def __call__(self, t: pa.Table, scale, shift=0) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.add(pc.multiply(pc.fill_null(t.column("v"), 0), scale), self.c + shift)
        return t.append_column("w", v)


def _split_udf():
    # nested: Ray pickles it by value (workers cannot import this module)
    def split(t: pa.Table):
        yield t.slice(0, 2)
        yield t.slice(2)

    return split


@pytest.mark.parametrize(
    "call",
    [
        lambda ds: ds.map_batches(_split_udf(), batch_format="pyarrow"),
        lambda ds: ds.map_batches(
            lambda t: t.append_column("n", pc.utf8_length(t.column("k"))),
            batch_format="pyarrow",
        ),
        lambda ds: ds.map_batches(
            lambda t: pa.table({"k": t.column("k"), "two": pc.multiply(t.column("v"), 2)}),
            batch_format="pyarrow",
        ),
        lambda ds: ds.select_columns(["v"]),
        lambda ds: ds.drop_columns(["v"]),
        lambda ds: ds.rename_columns({"v": "value"}),
        lambda ds: ds.union(ds),
        lambda ds: ds.sort(["k", "v"], descending=[True, False]).limit(3),
        lambda ds: ds.repartition(4).materialize(),
        lambda ds: ds.groupby("k").aggregate(
            Count(), Count("v", ignore_nulls=True), Sum("v"), Min("v"),
            Max("v"), Mean("v", alias_name="avg"),
        ),
        lambda ds: ds.groupby("k").map_groups(
            lambda g: pa.table({"k": g.column("k").slice(0, 1), "n": [g.num_rows]}),
            batch_format="pyarrow",
        ),
    ],
)
def test_frame_transforms_match_ray(ray_session, call):
    frame, ds = _twins()
    got, want = call(frame), call(ds)
    assert _bag(got.to_pandas()) == _bag(want.to_pandas())
    assert got.count() == want.count()
    assert list(got.schema().names) == list(want.schema().names)


@pytest.mark.parametrize("fmt", ["pandas", "numpy", "default"])
def test_frame_transforms_take_pyarrow_only(fmt):
    frame = ArrowFrame(TABLE)
    for call in (
        lambda: frame.map_batches(lambda b: b, batch_format=fmt),
        lambda: frame.groupby("k").map_groups(lambda b: b, batch_format=fmt),
        # an empty frame refuses the same way
        lambda: frame.limit(0).map_batches(lambda b: b, batch_format=fmt),
    ):
        with pytest.raises(ValueError, match=r"pyarrow.*from_arrow\(res.to_arrow\(\)\)"):
            call()
    with pytest.raises(TypeError, match="pa.Table"):
        frame.map_batches(lambda t: t.to_pandas(), batch_format="pyarrow")
    with pytest.raises(TypeError, match="pa.Table"):
        ArrowFrame(TABLE.to_pandas())


def test_class_udf_with_args():
    out = ArrowFrame(TABLE).map_batches(
        AddConst, fn_constructor_args=(10,), fn_args=(2,),
        fn_kwargs={"shift": 1}, batch_format="pyarrow", concurrency=1,
    )
    assert out.to_arrow().column("w").to_pylist() == [13, 15, 17, 11, 21, 23]


def test_frame_consumers_match_ray(ray_session):
    frame, ds = _twins()
    assert frame.columns() == ds.columns()
    assert sorted(map(repr, frame.take_all())) == sorted(map(repr, ds.take_all()))
    got = pa.concat_tables(frame.iter_batches(batch_size=4, batch_format="pyarrow"))
    assert got.equals(TABLE)
    assert [len(b["k"]) for b in frame.iter_batches(batch_size=4)] == [4, 2]


def test_map_groups_calls_once_per_key_in_order():
    seen = []

    def per_group(g: pa.Table) -> pa.Table:
        seen.append((g.column("k")[0].as_py(), g.num_rows))
        return g

    out = ArrowFrame(TABLE).groupby("k").map_groups(per_group, batch_format="pyarrow")
    assert seen == [("x", 3), ("y", 2), ("z", 1)]
    assert out.count() == TABLE.num_rows


def test_empty_frames_behave_like_ray(ray_session):
    calls = []

    def udf(t):
        calls.append(1)
        return t

    typed = TABLE.slice(0, 0)
    for frame, ds in [_twins(typed), (ArrowFrame(TABLE).limit(0), rd.from_arrow(TABLE).limit(0))]:
        for f, d in [
            (frame.map_batches(udf, batch_format="pyarrow"),
             ds.map_batches(udf, batch_format="pyarrow")),
            (frame.groupby("k").map_groups(udf, batch_format="pyarrow"),
             ds.groupby("k").map_groups(udf, batch_format="pyarrow")),
            (frame.sort("k"), ds.sort("k")),
            # selecting a column an empty input lacks is not an error
            (frame.select_columns(["missing"]), ds.select_columns(["missing"])),
        ]:
            assert f.count() == d.count() == 0
            assert list(f.to_pandas().columns) == list(d.to_pandas().columns) == []
            assert f.take_all() == d.take_all() == []
            assert list(f.iter_batches()) == []
        # no UDF ran, so no output schema exists
        assert frame.map_batches(udf, batch_format="pyarrow").schema() is None
        assert ds.map_batches(udf, batch_format="pyarrow").schema() is None
        assert list(frame.to_pandas().columns) == list(ds.to_pandas().columns)
    assert calls == []
    # a zero-column, zero-row UDF output groups to nothing, as Ray's
    # shuffle of no rows does
    none = ArrowFrame(TABLE).map_batches(lambda t: pa.table({}), batch_format="pyarrow")
    assert none.schema() is None
    assert none.groupby("__bucket").map_groups(udf, batch_format="pyarrow").count() == 0
    assert calls == []


# ------------------------------------------------------ store queries


def _store(tmp_path, rows, graph=False):
    cols = ["subj", "pred", "obj_value"] + (["graph"] if graph else [])
    values = list(zip(*rows)) or [()] * len(cols)
    table = pa.table({c: pa.array(list(v), pa.string()) for c, v in zip(cols, values)})
    store = str(tmp_path / "kg")
    kgstore.persist_kg(rd.from_arrow(table), store)
    return store


def _run(store, query, limit, monkeypatch):
    monkeypatch.setattr(sparql_text, "LOCAL_MAX_ROWS", limit)
    df = sparql_text.execute_on_store(store, query, n_buckets=4).to_pandas()
    return _bag(df)


def _both(store, query, monkeypatch):
    """The answer in-process and on Ray (a negative limit sends even an
    empty read to Ray), required equal."""
    local = _run(store, query, sys.maxsize, monkeypatch)
    assert local == _run(store, query, -1, monkeypatch)
    return local


def _executor(store, query) -> str:
    return [
        ln for ln in sparql_text.explain(query, store).splitlines()
        if ln.startswith("executor:")
    ][0]


def test_shared_pred_key_keeps_residual_filter(ray_session, tmp_path, monkeypatch):
    a, b = "http://a.org/v/name", "http://b.org/v/name"
    assert kgstore.pred_key(a) == kgstore.pred_key(b)
    store = _store(tmp_path, [("s1", a, "one"), ("s2", b, "two"), ("s3", a, "three")])
    q = "SELECT ?s ?o WHERE { ?s <%s> ?o }" % a
    assert "store scan: 1 of 1 partitions" in sparql_text.explain(q, store)
    assert _both(store, q, monkeypatch) == sorted(
        [repr(["three", "s3"]), repr(["one", "s1"])]
    )


def test_variable_predicate_reads_all_partitions_in_process(
    ray_session, tmp_path, monkeypatch
):
    rows = [("s%d" % i, "http://ex.org/p%d" % (i % 3), "o%d" % i) for i in range(12)]
    store = _store(tmp_path, rows)
    q = "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"
    text = sparql_text.explain(q, store)
    assert "store scan: ALL 3 partitions" in text
    assert "executor: in-process (12 rows <= %d)" % sparql_text.LOCAL_MAX_ROWS in text
    assert _both(store, q, monkeypatch) == sorted(
        repr([4, "http://ex.org/p%d" % i]) for i in range(3)
    )


def test_empty_store(ray_session, tmp_path, monkeypatch):
    store = _store(tmp_path, [])
    assert _executor(store, "SELECT ?s WHERE { ?s ?p ?o }").startswith(
        "executor: in-process (0 rows"
    )
    assert _both(store, "SELECT ?s ?o WHERE { ?s <http://ex.org/p> ?o }", monkeypatch) == []
    assert _both(
        store, "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex.org/p> ?o }", monkeypatch
    ) == [repr([0])]
    assert _both(store, "ASK { ?s ?p ?o }", monkeypatch) == [repr([False])]


def test_graph_patterns_on_quad_store(ray_session, tmp_path, monkeypatch):
    p, q_ = "http://ex.org/lang", "http://ex.org/size"
    store = _store(
        tmp_path,
        [
            ("a", p, "zh", "urn:g1"), ("a", q_, "10", "urn:g1"),
            ("b", p, "zh", "urn:g2"), ("b", q_, "20", ""),
            ("c", p, "en", "urn:g3"), ("c", q_, "30", "urn:g3"),
        ],
        graph=True,
    )
    star = "SELECT ?g ?n WHERE { GRAPH ?g { ?d <%s> \"zh\" ; <%s> ?n } }" % (p, q_)
    assert _both(store, star, monkeypatch) == [repr(["urn:g1", "10"])]
    named = "SELECT ?d WHERE { GRAPH <urn:g3> { ?d <%s> ?l } }" % p
    assert _both(store, named, monkeypatch) == [repr(["c"])]
    per_graph = "SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } } GROUP BY ?g"
    assert _both(store, per_graph, monkeypatch) == sorted(
        [repr(["urn:g1", 2]), repr(["urn:g2", 1]), repr(["urn:g3", 2])]
    )


def test_explain_counts_store_files(ray_session, tmp_path):
    p, q_ = "http://ex.org/lang", "http://ex.org/size"
    rows = [("d%d" % i, (p, q_, "http://ex.org/x")[i % 3], "v%d" % i, "urn:g%d" % (i % 2))
            for i in range(30)]
    store = _store(tmp_path, rows, graph=True)
    star = "SELECT ?g ?n WHERE { GRAPH ?g { ?d <%s> \"zh\" ; <%s> ?n } }" % (p, q_)
    lines = sparql_text.explain(star, store).splitlines()
    i = lines.index("store files: 2 (2 row groups)")
    assert lines[i - 1].startswith("store scan: 2 of 3 partitions")
    assert lines[i + 1] == "executor: in-process (20 rows <= %d)" % sparql_text.LOCAL_MAX_ROWS


def test_limit_boundary(ray_session, tmp_path, monkeypatch):
    rows = [("s%d" % i, "http://ex.org/p", "o%d" % (i % 4)) for i in range(9)]
    rows.append(("s0", "http://ex.org/other", "x"))
    store = _store(tmp_path, rows)
    q = "SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <http://ex.org/p> ?o } GROUP BY ?o"
    assert kgstore.scan_rows(store, ["http://ex.org/p"]) == 9

    kinds = []
    real = sparql_text._execute_plan

    def spy(triples_ds, plan, n_buckets=64):
        kinds.append((type(triples_ds).__name__, n_buckets))
        return real(triples_ds, plan, n_buckets)

    monkeypatch.setattr(sparql_text, "_execute_plan", spy)
    answers = []
    for limit in (9, 8):
        answers.append(_run(store, q, limit, monkeypatch))
        want = "in-process (9 rows <= 9)" if limit == 9 else "ray (> 8 rows)"
        assert _executor(store, q) == "executor: " + want
    assert kinds == [("ArrowFrame", 1), ("Dataset", 4)]
    assert answers[0] == answers[1] == sorted(
        repr([n, "o%d" % i]) for i, n in enumerate([3, 2, 2, 2])
    )


# ------------------------------------------- the in-process path is Ray-free

_S, _EX = "http://schema.org/", "http://example.org/terms#"
_SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"


def _template_rows():
    """A small quad store with the predicates the kgbench templates use;
    every third document's rows sit in the default graph ''."""
    rows = []
    for d in range(9):
        g = "" if d % 3 == 2 else "urn:doc%d" % d
        s = "urn:e%d" % (d % 4)
        rows += [
            (s, _S + "name", "name%d" % (d % 5), g),
            (s, _S + "description", "desc%d" % (d % 2), g),
            ("urn:ev%d" % d, _S + "performer", s, g),
            ("urn:ev%d" % d, _S + "startDate", "2026-01-%02d" % (d + 1), g),
            (s, _EX + "subject", "topic%d" % (d % 3), g),
            (s, _EX + "mentions", "urn:e%d" % ((d + 1) % 4), g),
            (s, _SAME_AS, "urn:alias%d" % d, g),
        ]
    return rows


def _template_queries():
    stars = [(_S + "name", _S + "description"), (_S + "performer", _S + "startDate"),
             (_EX + "subject", _EX + "mentions")]
    qs = ["SELECT ?g ?s ?a ?b WHERE { GRAPH ?g { ?s <%s> ?a . ?s <%s> ?b } }" % pq
          for pq in stars]
    qs += ["SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <%s> ?o } GROUP BY ?o" % p
           for p in (_S + "name", _EX + "mentions")]
    qs.append("SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <%s> ?o } GROUP BY ?s" % _SAME_AS)
    return qs


def test_small_store_queries_never_touch_ray(ray_session, tmp_path, monkeypatch):
    """Under the default limit the six template shapes read, plan and
    hand back their answer without one ``ray.put`` or one Dataset, and
    each answer equals the Ray path's (limit 0) as a bag."""
    import ray

    default = sparql_text.LOCAL_MAX_ROWS
    store = _store(tmp_path, _template_rows(), graph=True)
    queries = _template_queries()
    on_ray = [_run(store, q, 0, monkeypatch) for q in queries]
    assert all(on_ray)
    monkeypatch.setattr(sparql_text, "LOCAL_MAX_ROWS", default)

    puts, datasets = [], []
    real_put, real_init = ray.put, rd.Dataset.__init__

    def put(*args, **kwargs):
        puts.append(1)
        return real_put(*args, **kwargs)

    def init(self, *args, **kwargs):
        datasets.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ray, "put", put)
    monkeypatch.setattr(rd.Dataset, "__init__", init)
    local = []
    for q in queries:
        res = sparql_text.execute_on_store(store, q, n_buckets=4)
        tables = list(res.iter_batches(batch_format="pyarrow", batch_size=None))
        local.append(_bag(pa.concat_tables(tables).to_pandas()))
    assert puts == [] and datasets == []
    assert local == on_ray


def test_public_query_shared_calls_both_sides_of_limit(ray_session, tmp_path, monkeypatch):
    """``rdfa_ray.query(store)`` returns a frame under the limit and a
    Dataset above it; the calls its docstring lists answer alike on
    both, and a Dataset-only call on a frame names the promotion."""
    import rdfa_ray
    from rdfa_ray.stages.localframe import CONSUMER_CALLS

    store = _store(tmp_path, _template_rows(), graph=True)
    q = "SELECT ?s ?o WHERE { ?s <%s> ?o }" % (_S + "name")

    def shared(res):
        assert all(callable(getattr(res, c)) for c in CONSUMER_CALLS)
        res = res.materialize()
        schema = res.schema()
        batches = [
            b for b in res.iter_batches(batch_size=4, batch_format="pandas")
        ]
        return (
            res.count(), sorted(res.columns()), sorted(schema.names),
            sorted(map(str, schema.types)),
            _bag(res.to_pandas()), _bag(pd.concat(batches)),
            sorted(map(repr, (sorted(r.items()) for r in res.iter_rows()))),
            sorted(map(repr, (sorted(r.items()) for r in res.take_all()))),
        )

    monkeypatch.setattr(sparql_text, "LOCAL_MAX_ROWS", 0)
    on_ray = rdfa_ray.query(store, q, n_buckets=4)
    assert isinstance(on_ray, rd.Dataset)
    monkeypatch.setattr(sparql_text, "LOCAL_MAX_ROWS", sys.maxsize)
    local = rdfa_ray.query(store, q, n_buckets=4)
    assert isinstance(local, ArrowFrame)
    assert shared(local) == shared(on_ray)
    assert shared(local)[0] == 9

    with pytest.raises(AttributeError, match=r"from_arrow\(res\.to_arrow\(\)\)"):
        local.write_parquet(str(tmp_path / "out"))
    with pytest.raises(TypeError, match=r"from_arrow\(res\.to_arrow\(\)\)"):
        local.union(on_ray)
    assert not hasattr(local, "take")
    promoted = rd.from_arrow(local.to_arrow())
    assert promoted.union(on_ray).count() == 18
    assert len(promoted.take(3)) == 3
