"""Tests for the SPARQL algebra layer (OPTIONAL / UNION / FILTER /
property paths) — semantics mirror rdflib's evalLeftJoin / evalUnion /
evalFilter / evalPath (rdflib/plugins/sparql/evaluate.py)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from rdfa_ray.stages.sparql import (
    UNBOUND,
    filter_bindings,
    optional_match,
    path_edges,
    union_match,
)

pytestmark = pytest.mark.usefixtures("both_executors")


def _triples(rows):
    subj, pred, obj = zip(*rows)
    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(pred, pa.string()),
                "obj_value": pa.array(obj, pa.string()),
            }
        )
    )


GRAPH = _triples(
    [
        ("a", "type", "Doc"),
        ("b", "type", "Doc"),
        ("c", "type", "Doc"),
        ("a", "lang", "zh"),
        ("b", "lang", "en"),
        # c has no lang
        ("a", "next", "b"),
        ("b", "next", "c"),
        ("x", "alias", "a"),
    ]
)


def _rows(ds, cols):
    df = ds.to_pandas()
    return sorted(map(tuple, df[cols].to_records(index=False).tolist()))


def test_optional_basic(ray_session):
    out = optional_match(
        GRAPH,
        [("?d", "type", "Doc")],
        [("?d", "lang", "?l")],
        n_buckets=4,
    )
    assert _rows(out, ["d", "l"]) == [("a", "zh"), ("b", "en"), ("c", UNBOUND)]


def test_optional_with_inner_filter(ray_session):
    # OPTIONAL { ?d lang ?l FILTER(?l = 'zh') }: b keeps its row with
    # l unbound (the filter lives INSIDE the optional group)
    out = optional_match(
        GRAPH,
        [("?d", "type", "Doc")],
        [("?d", "lang", "?l")],
        opt_filter=lambda t: pc.equal(t.column("l"), "zh"),
        n_buckets=4,
    )
    assert _rows(out, ["d", "l"]) == [
        ("a", "zh"),
        ("b", UNBOUND),
        ("c", UNBOUND),
    ]


def test_optional_requires_shared_var(ray_session):
    with pytest.raises(ValueError):
        optional_match(GRAPH, [("?d", "type", "Doc")], [("?x", "alias", "?y")])


def test_union_aligns_columns(ray_session):
    out = union_match(
        GRAPH,
        [
            [("?d", "lang", "zh")],
            [("?x", "alias", "?d")],
        ],
    )
    assert _rows(out, ["d", "x"]) == [("a", UNBOUND), ("a", "x")]


def test_filter_bindings(ray_session):
    from rdfa_ray.stages.bgp import bgp_match

    b = bgp_match(GRAPH, [("?d", "lang", "?l")], n_buckets=4)
    out = filter_bindings(b, lambda t: pc.not_equal(t.column("l"), "en"))
    assert _rows(out, ["d", "l"]) == [("a", "zh")]


def test_path_iri_inv_alt(ray_session):
    assert _rows(path_edges(GRAPH, "next", 4), ["src", "dst"]) == [
        ("a", "b"),
        ("b", "c"),
    ]
    assert _rows(path_edges(GRAPH, ("inv", "next"), 4), ["src", "dst"]) == [
        ("b", "a"),
        ("c", "b"),
    ]
    got = _rows(path_edges(GRAPH, ("alt", "next", "alias"), 4), ["src", "dst"])
    assert got == [("a", "b"), ("b", "c"), ("x", "a")]


def test_path_seq(ray_session):
    # alias/next: x -> a -> b
    got = _rows(path_edges(GRAPH, ("seq", "alias", "next"), 4), ["src", "dst"])
    assert got == [("x", "b")]
    # next/next: a -> c
    got = _rows(path_edges(GRAPH, ("seq", "next", "next"), 4), ["src", "dst"])
    assert got == [("a", "c")]


def test_path_plus_string_keys(ray_session):
    got = _rows(path_edges(GRAPH, ("plus", "next"), 4), ["src", "dst"])
    assert got == [("a", "b"), ("a", "c"), ("b", "c")]


@pytest.mark.parametrize(
    "mode",
    [{"local_limit": 0}, {"local_limit": 0, "broadcast_limit": 0}],
)
def test_string_closure_distributed_modes(ray_session, mode):
    # the p+ building block with string IRIs through BOTH distributed
    # execution modes (the default path above is driver-local)
    import pyarrow as pa

    from rdfa_ray.stages.closure import transitive_closure

    edges = path_edges(GRAPH, "next", 4)
    out = transitive_closure(edges, n_buckets=4, key_type=pa.string(), **mode)
    assert _rows(out, ["src", "dst"]) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_path_star_includes_zero_length(ray_session):
    got = set(_rows(path_edges(GRAPH, ("star", "next"), 4), ["src", "dst"]))
    # every graph term matches the zero-length path
    terms = {"a", "b", "c", "x", "Doc", "zh", "en", "next", "type"} - {
        "next",
        "type",
    }
    terms = {"a", "b", "c", "x", "Doc", "zh", "en"}
    assert {(t, t) for t in terms} <= got
    assert {("a", "b"), ("a", "c"), ("b", "c")} <= got
    assert len(got) == len(terms) + 3


def test_construct_dedups_to_graph(ray_session):
    from rdfa_ray.stages.sparql import construct

    out = construct(
        GRAPH,
        [("?d", "type", "Doc"), ("?d", "lang", "?l")],
        [("?d", "hasLang", "?l"), ("?d", "type", "Tagged")],
        n_buckets=4,
    )
    got = _rows(out, ["subj", "pred", "obj_value"])
    assert got == sorted(
        [
            ("a", "hasLang", "zh"),
            ("a", "type", "Tagged"),
            ("b", "hasLang", "en"),
            ("b", "type", "Tagged"),
        ]
    )


def test_ask(ray_session):
    from rdfa_ray.stages.sparql import ask

    assert ask(GRAPH, [("?d", "lang", "zh")], n_buckets=4) is True
    assert ask(GRAPH, [("?d", "lang", "xx")], n_buckets=4) is False


def test_aggregate_bindings(ray_session):
    from rdfa_ray.stages.sparql import aggregate_bindings

    out = aggregate_bindings(
        GRAPH, [("?d", "type", "Doc"), ("?d", "lang", "?l")], ["l"], n_buckets=4
    ).to_pandas()
    assert sorted(map(tuple, out.to_records(index=False).tolist())) == [
        ("en", 1),
        ("zh", 1),
    ]


def test_describe(ray_session):
    from rdfa_ray.stages.sparql import describe

    out = describe(GRAPH, [("?d", "lang", "zh")], "d", n_buckets=4)
    assert _rows(out, ["subj", "pred", "obj_value"]) == sorted(
        [("a", "type", "Doc"), ("a", "lang", "zh"), ("a", "next", "b")]
    )


def test_order_limit(ray_session):
    from rdfa_ray.stages.bgp import bgp_match
    from rdfa_ray.stages.sparql import order_limit

    b = bgp_match(GRAPH, [("?d", "type", "Doc")], n_buckets=4).repartition(3)
    top = order_limit(b, ["d"], descending=True, limit=2).to_pandas()
    assert top["d"].tolist() == ["c", "b"]
    mid = order_limit(b, ["d"], descending=True, limit=1, offset=1).to_pandas()
    assert mid["d"].tolist() == ["b"]
    with pytest.raises(ValueError):
        order_limit(b, ["d"], offset=1)


def test_minus_drops_compatible(ray_session):
    from rdfa_ray.stages.sparql import minus_match

    out = minus_match(
        GRAPH,
        [("?d", "type", "Doc")],
        [("?d", "lang", "zh")],
        n_buckets=4,
    )
    # a is Chinese -> removed; b and c stay
    assert _rows(out, ["d"]) == [("b",), ("c",)]


def test_minus_disjoint_domains_removes_nothing(ray_session):
    from rdfa_ray.stages.sparql import minus_match

    # SPARQL 1.1 §8.3: arms sharing no variable remove nothing
    out = minus_match(
        GRAPH,
        [("?d", "type", "Doc")],
        [("?x", "lang", "zh")],
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",), ("b",), ("c",)]


def test_exists_and_not_exists(ray_session):
    from rdfa_ray.stages.sparql import exists_filter

    base = [("?d", "type", "Doc")]
    probe = [("?d", "lang", "?l")]
    has = exists_filter(GRAPH, base, probe, n_buckets=4)
    assert _rows(has, ["d"]) == [("a",), ("b",)]
    hasnt = exists_filter(GRAPH, base, probe, negate=True, n_buckets=4)
    assert _rows(hasnt, ["d"]) == [("c",)]
    with pytest.raises(ValueError):
        exists_filter(GRAPH, base, [("?x", "lang", "?l")], n_buckets=4)


def test_values_and_bind(ray_session):
    from rdfa_ray.stages.bgp import bgp_match
    from rdfa_ray.stages.sparql import bind_var, values_filter

    b = bgp_match(GRAPH, [("?d", "lang", "?l")], n_buckets=4)
    only_zh = values_filter(b, "l", ["zh"])
    assert _rows(only_zh, ["d", "l"]) == [("a", "zh")]
    bound = bind_var(only_zh, "lu", lambda t: pc.utf8_upper(t.column("l")))
    assert _rows(bound, ["d", "l", "lu"]) == [("a", "zh", "ZH")]


def test_distinct_bindings(ray_session):
    from rdfa_ray.stages.sparql import distinct_bindings

    dup = _triples(
        [("a", "src", "s1"), ("b", "src", "s1"), ("c", "src", "s2")]
    )
    from rdfa_ray.stages.bgp import bgp_match

    b = bgp_match(dup, [("?d", "src", "?s")], n_buckets=4)
    out = distinct_bindings(b, ["s"], n_buckets=4)
    assert _rows(out, ["s"]) == [("s1",), ("s2",)]


def test_grouped_aggregate_full_set(ray_session):
    """All SPARQL 1.1 aggregates in one GROUP BY, with partials forced
    to merge across blocks (override_num_blocks splits the input)."""
    from rdfa_ray.stages.bgp import bgp_match
    from rdfa_ray.stages.sparql import grouped_aggregate

    rows = []
    for i, (src, n) in enumerate(
        [("s1", 10), ("s1", 30), ("s1", 2), ("s2", 5), ("s2", 7), ("s3", 100)]
    ):
        d = "d%d" % i
        rows += [(d, "src", src), (d, "chars", str(n))]
    ds = rd.from_arrow(
        pa.table(
            {
                "subj": pa.array([r[0] for r in rows], pa.string()),
                "pred": pa.array([r[1] for r in rows], pa.string()),
                "obj_value": pa.array([r[2] for r in rows], pa.string()),
            }
        )
    ).repartition(5)

    b = bgp_match(ds, [("?d", "src", "?s"), ("?d", "chars", "?n")], n_buckets=4)
    out = grouped_aggregate(
        b,
        ["s"],
        [
            ("count", None, "n_docs"),
            ("sum", "n", "sum_chars"),
            ("avg", "n", "avg_chars"),
            ("min", "n", "min_chars", "num"),
            ("max", "n", "max_chars", "num"),
            ("group_concat", "n", "all_chars"),
            ("sample", "s", "witness"),
        ],
        n_buckets=4,
    ).to_pandas().sort_values("s").reset_index(drop=True)

    assert list(out["s"]) == ["s1", "s2", "s3"]
    assert list(out["n_docs"]) == [3, 2, 1]
    assert list(out["sum_chars"]) == [42, 12, 100]
    assert list(out["avg_chars"]) == [14.0, 6.0, 100.0]
    assert list(out["min_chars"]) == [2, 5, 100]
    assert list(out["max_chars"]) == [30, 7, 100]
    # group_concat merges partials then re-sorts tokens (string sort)
    assert list(out["all_chars"]) == ["10\x1f2\x1f30", "5\x1f7", "100"]
    assert list(out["witness"]) == ["s1", "s2", "s3"]


def test_grouped_aggregate_having_and_lex_minmax(ray_session):
    from rdfa_ray.stages.bgp import bgp_match
    from rdfa_ray.stages.sparql import grouped_aggregate

    b = bgp_match(GRAPH, [("?d", "lang", "?l")], n_buckets=4)
    # lexicographic (default, no "num" flag) min over strings
    out = grouped_aggregate(
        b, ["l"], [("count", None, "n"), ("min", "d", "first_doc")], n_buckets=4
    )
    assert _rows(out, ["l", "n", "first_doc"]) == [("en", 1, "b"), ("zh", 1, "a")]
    # HAVING prunes groups after the reduce
    pruned = filter_bindings(
        grouped_aggregate(b, ["l"], [("count", None, "n")], n_buckets=4),
        lambda t: pc.greater(t.column("n"), 1),
    )
    assert pruned.count() == 0


def test_path_opt_zero_or_one(ray_session):
    from rdfa_ray.stages.sparql import path_edges

    out = _rows(path_edges(GRAPH, ("opt", "next"), n_buckets=4), ["src", "dst"])
    # one-step next edges ...
    assert ("a", "b") in out and ("b", "c") in out
    # ... plus the zero-length identity over EVERY graph term
    for t in ("a", "b", "c", "x", "Doc", "zh"):
        assert (t, t) in out
    # but no two-step pair (that would be plus/star)
    assert ("a", "c") not in out


def test_path_negated_property_set(ray_session):
    from rdfa_ray.stages.sparql import path_edges

    out = _rows(path_edges(GRAPH, ("neg", "type", "lang"), n_buckets=4), ["src", "dst"])
    assert out == sorted([("a", "b"), ("b", "c"), ("x", "a")])
