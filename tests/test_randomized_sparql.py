"""Randomized dual-oracle testing for the distributed SPARQL engine:
seeded random graphs + random queries from the supported fragment,
executed BOTH through the engine (text front-end -> distributed
algebra) and through DuckDB SQL over the same triple table.  The same
strategy tests/test_randomized.py applies to the RDFa kernel, applied
to the query layer."""

import random

import duckdb
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from rdfa_ray.stages.sparql_text import execute

pytestmark = pytest.mark.usefixtures("both_executors")

PREDS = ["http://ex.org/p%d" % i for i in range(4)]
VALS = ["v%d" % i for i in range(6)]
SUBJ = ["s%d" % i for i in range(8)]


def _random_graph(rng):
    rows = [
        (rng.choice(SUBJ), rng.choice(PREDS), rng.choice(VALS))
        for _ in range(rng.randrange(5, 40))
    ]
    return rows


def _con(rows):
    con = duckdb.connect()
    df = pd.DataFrame(rows, columns=["subj", "pred", "obj_value"])
    con.register("t", df)
    return con


def _ds(rows):
    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array([r[0] for r in rows], pa.string()),
                "pred": pa.array([r[1] for r in rows], pa.string()),
                "obj_value": pa.array([r[2] for r in rows], pa.string()),
            }
        )
    ).repartition(3)


def _norm(df):
    df = df[sorted(df.columns)].astype(str)
    return sorted(map(tuple, df.to_records(index=False).tolist()))


def _same(got, want):
    """Row-set equality; an all-empty engine result loses its column
    schema at to_pandas (Ray behavior), so empties compare by length."""
    if len(got) == 0 or len(want) == 0:
        return len(got) == len(want)
    return _norm(got) == _norm(want)


@pytest.mark.parametrize("seed", range(8))
def test_random_two_pattern_bgp(ray_session, seed):
    rng = random.Random(1000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.choice(PREDS), rng.choice(PREDS)
    v = rng.choice(VALS)

    q = (
        'SELECT ?d ?x WHERE { ?d <%s> "%s" . ?d <%s> ?x . }' % (p1, v, p2)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, b.obj_value AS x FROM t a JOIN t b"
        " ON b.subj = a.subj WHERE a.pred = ? AND a.obj_value = ?"
        " AND b.pred = ?",
        [p1, v, p2],
    ).fetchdf()
    assert _same(got, want), q


@pytest.mark.parametrize("seed", range(8))
def test_random_filter_and_group(ray_session, seed):
    rng = random.Random(2000 + seed)
    rows = _random_graph(rng)
    p = rng.choice(PREDS)
    cut = rng.choice(VALS)

    q = (
        "SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <%s> ?o . "
        'FILTER (?o >= "%s") } GROUP BY ?o' % (p, cut)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT obj_value AS o, COUNT(*) AS n FROM t"
        " WHERE pred = ? AND obj_value >= ? GROUP BY obj_value",
        [p, cut],
    ).fetchdf()
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_optional(ray_session, seed):
    rng = random.Random(3000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.sample(PREDS, 2)

    q = "SELECT * WHERE { ?d <%s> ?a . OPTIONAL { ?d <%s> ?b } }" % (p1, p2)
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, a.obj_value AS a, COALESCE(b.obj_value, '') AS b"
        " FROM t a LEFT JOIN (SELECT subj, obj_value FROM t WHERE pred = ?) b"
        " ON b.subj = a.subj WHERE a.pred = ?",
        [p2, p1],
    ).fetchdf()
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_minus(ray_session, seed):
    rng = random.Random(4000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.sample(PREDS, 2)
    v = rng.choice(VALS)

    q = 'SELECT ?d WHERE { ?d <%s> ?a . MINUS { ?d <%s> "%s" } }' % (p1, p2, v)
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d FROM t WHERE pred = ? AND subj NOT IN"
        " (SELECT subj FROM t WHERE pred = ? AND obj_value = ?)",
        [p1, p2, v],
    ).fetchdf()
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_path_plus(ray_session, seed):
    """p+ against DuckDB WITH RECURSIVE over the same random edges
    (UNION distinct-dedups the recursion, matching path semantics)."""
    rng = random.Random(5000 + seed)
    p = "http://ex.org/next"
    edges = sorted(
        {(rng.choice(SUBJ), rng.choice(SUBJ)) for _ in range(rng.randrange(3, 10))}
    )
    rows = [(a, p, b) for a, b in edges]

    q = "SELECT ?s ?o WHERE { ?s <%s>+ ?o }" % p
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "WITH RECURSIVE r(s, o) AS ("
        " SELECT subj, obj_value FROM t"
        " UNION"
        " SELECT r.s, t.obj_value FROM r JOIN t ON t.subj = r.o) "
        "SELECT DISTINCT s, o FROM r"
    ).fetchdf()
    assert _same(got, want)


@pytest.mark.parametrize("seed", range(8))
def test_random_mixed_groups(ray_session, seed):
    """OPTIONAL + MINUS + FILTER NOT EXISTS mixed in one query (clause
    order), dual-checked against the SQL left-join/anti-join algebra."""
    rng = random.Random(5000 + seed)
    rows = _random_graph(rng)
    p1, p2, p3, p4 = (rng.choice(PREDS) for _ in range(4))
    v3, v4 = rng.choice(VALS), rng.choice(VALS)

    q = (
        "SELECT ?d ?b WHERE { ?d <%s> ?a ."
        " OPTIONAL { ?d <%s> ?b }"
        ' MINUS { ?d <%s> "%s" }'
        ' FILTER NOT EXISTS { ?d <%s> "%s" } }' % (p1, p2, p3, v3, p4, v4)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    # engine's unbound sentinel is '' — mirror with COALESCE
    want = _con(rows).execute(
        "SELECT a.subj AS d, COALESCE(b.obj_value, '') AS b FROM t a"
        " LEFT JOIN t b ON b.subj = a.subj AND b.pred = ?"
        " WHERE a.pred = ?"
        " AND a.subj NOT IN (SELECT subj FROM t WHERE pred = ? AND obj_value = ?)"
        " AND a.subj NOT IN (SELECT subj FROM t WHERE pred = ? AND obj_value = ?)",
        [p2, p1, p3, v3, p4, v4],
    ).fetchdf()
    assert _same(got, want), q


@pytest.mark.parametrize("seed", range(8))
def test_random_subquery(ray_session, seed):
    """Nested { SELECT ... GROUP BY } joined into the outer BGP,
    dual-checked against the SQL derived-table join."""
    rng = random.Random(6000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.choice(PREDS), rng.choice(PREDS)

    q = (
        "SELECT ?d ?a ?n WHERE { ?d <%s> ?a ."
        " { SELECT ?a (COUNT(*) AS ?n) WHERE { ?x <%s> ?a } GROUP BY ?a } }"
        % (p1, p2)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, a.obj_value AS a,"
        " CAST(c.n AS VARCHAR) AS n FROM t a JOIN"
        " (SELECT obj_value, COUNT(*) AS n FROM t WHERE pred = ?"
        "  GROUP BY obj_value) c ON c.obj_value = a.obj_value"
        " WHERE a.pred = ?",
        [p2, p1],
    ).fetchdf()
    assert _same(got, want), q


@pytest.mark.parametrize("seed", range(8))
def test_random_subquery_with_groups(ray_session, seed):
    """Subquery joined at its clause position while OPTIONAL and MINUS
    groups apply — dual-checked against the SQL derived-table join +
    left join + anti join."""
    rng = random.Random(8000 + seed)
    rows = _random_graph(rng)
    p1, p2, p3, p4 = (rng.choice(PREDS) for _ in range(4))
    v3 = rng.choice(VALS)

    q = (
        "SELECT ?d ?a ?n ?b WHERE { ?d <%s> ?a ."
        " { SELECT ?a (COUNT(*) AS ?n) WHERE { ?x <%s> ?a } GROUP BY ?a }"
        " OPTIONAL { ?d <%s> ?b }"
        ' MINUS { ?d <%s> "%s" } }' % (p1, p2, p4, p3, v3)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, a.obj_value AS a, CAST(c.n AS VARCHAR) AS n,"
        " COALESCE(b.obj_value, '') AS b"
        " FROM t a JOIN (SELECT obj_value, COUNT(*) AS n FROM t"
        "  WHERE pred = ? GROUP BY obj_value) c"
        " ON c.obj_value = a.obj_value"
        " LEFT JOIN t b ON b.subj = a.subj AND b.pred = ?"
        " WHERE a.pred = ?"
        " AND a.subj NOT IN"
        "  (SELECT subj FROM t WHERE pred = ? AND obj_value = ?)",
        [p2, p4, p1, p3, v3],
    ).fetchdf()
    assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_values_multi(ray_session, seed):
    rng = random.Random(7000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.choice(PREDS), rng.choice(PREDS)
    va, vb, vc = (rng.choice(VALS) for _ in range(3))

    q = (
        "SELECT ?a ?b WHERE { ?d <%s> ?a . ?d <%s> ?b ."
        ' VALUES (?a ?b) { ("%s" "%s") ("%s" UNDEF) } }'
        % (p1, p2, va, vb, vc)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT x.obj_value AS a, y.obj_value AS b FROM t x JOIN t y"
        " ON y.subj = x.subj WHERE x.pred = ? AND y.pred = ?"
        " AND ((x.obj_value = ? AND y.obj_value = ?) OR x.obj_value = ?)",
        [p1, p2, va, vb, vc],
    ).fetchdf()
    assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_union_arm_filter_bind(ray_session, seed):
    """FILTER and BIND inside UNION arms: each arm restricts/extends
    its own bindings before the aligned bag union."""
    rng = random.Random(8000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.choice(PREDS), rng.choice(PREDS)
    cut1, cut2 = rng.choice(VALS), rng.choice(VALS)

    q = (
        "SELECT ?d ?tag WHERE {"
        '  { ?d <%s> ?x . FILTER (?x >= "%s") . BIND(CONCAT("A:", ?x) AS ?tag) }'
        "  UNION"
        '  { ?d <%s> ?y . FILTER (?y < "%s") . BIND(CONCAT("B:", ?y) AS ?tag) }'
        " }" % (p1, cut1, p2, cut2)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d, 'A:' || obj_value AS tag FROM t"
        " WHERE pred = ? AND obj_value >= ?"
        " UNION ALL "
        "SELECT subj AS d, 'B:' || obj_value AS tag FROM t"
        " WHERE pred = ? AND obj_value < ?",
        [p1, cut1, p2, cut2],
    ).fetchdf()
    assert _same(got[["d", "tag"]], want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_optional_with_filter(ray_session, seed):
    """FILTER nested inside OPTIONAL restricts the optional side
    BEFORE the left join (rows failing it come back unbound, not
    dropped) — the SQL mirror is a filtered derived table."""
    rng = random.Random(9000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.sample(PREDS, 2)
    cut = rng.choice(VALS)

    q = (
        "SELECT * WHERE { ?d <%s> ?a ."
        ' OPTIONAL { ?d <%s> ?b . FILTER (?b >= "%s") } }' % (p1, p2, cut)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, a.obj_value AS a, COALESCE(b.obj_value, '') AS b"
        " FROM t a LEFT JOIN"
        " (SELECT subj, obj_value FROM t WHERE pred = ? AND obj_value >= ?) b"
        " ON b.subj = a.subj WHERE a.pred = ?",
        [p2, cut, p1],
    ).fetchdf()
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_minus_and_exists_with_filter(ray_session, seed):
    """Group-local FILTERs inside MINUS and FILTER NOT EXISTS restrict
    the probe side before the anti join."""
    rng = random.Random(10000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.sample(PREDS, 2)
    cut = rng.choice(VALS)

    q = (
        "SELECT ?d ?a WHERE { ?d <%s> ?a ."
        ' MINUS { ?d <%s> ?b . FILTER (?b >= "%s") } }' % (p1, p2, cut)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d, obj_value AS a FROM t WHERE pred = ?"
        " AND subj NOT IN"
        " (SELECT subj FROM t WHERE pred = ? AND obj_value >= ?)",
        [p1, p2, cut],
    ).fetchdf()
    assert _same(got, want), q

    q2 = (
        "SELECT ?d ?a WHERE { ?d <%s> ?a ."
        ' FILTER NOT EXISTS { ?d <%s> ?b . FILTER (?b < "%s") } }'
        % (p1, p2, cut)
    )
    got2 = execute(_ds(rows), q2, n_buckets=4).to_pandas()
    want2 = _con(rows).execute(
        "SELECT subj AS d, obj_value AS a FROM t WHERE pred = ?"
        " AND subj NOT IN"
        " (SELECT subj FROM t WHERE pred = ? AND obj_value < ?)",
        [p1, p2, cut],
    ).fetchdf()
    assert _same(got2, want2), q2


@pytest.mark.parametrize("seed", range(6))
def test_random_nested_optional(ray_session, seed):
    """OPTIONAL nested inside OPTIONAL — the SQL mirror nests the left
    joins the same way (inner join key = the inner block's shared
    variable with its enclosing group)."""
    rng = random.Random(11000 + seed)
    rows = _random_graph(rng)
    p1, p2, p3 = (rng.choice(PREDS) for _ in range(3))

    q = (
        "SELECT * WHERE { ?d <%s> ?a ."
        " OPTIONAL { ?d <%s> ?b . OPTIONAL { ?b <%s> ?c } } }"
        % (p1, p2, p3)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, a.obj_value AS a,"
        " COALESCE(x.vb, '') AS b, COALESCE(x.vc, '') AS c"
        " FROM t a LEFT JOIN ("
        "  SELECT b.subj, b.obj_value AS vb,"
        "   COALESCE(c.obj_value, '') AS vc"
        "  FROM t b LEFT JOIN t c"
        "   ON c.subj = b.obj_value AND c.pred = ?"
        "  WHERE b.pred = ?) x"
        " ON x.subj = a.subj WHERE a.pred = ?",
        [p3, p2, p1],
    ).fetchdf()
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_union_arm_nested_groups(ray_session, seed):
    """UNION arms as full group bodies: one arm nests OPTIONAL, the
    other FILTER NOT EXISTS."""
    rng = random.Random(12000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.sample(PREDS, 2)
    p3 = rng.choice(PREDS)

    q = (
        "SELECT ?d ?a ?b WHERE {"
        " { ?d <%s> ?a . OPTIONAL { ?d <%s> ?b } }"
        " UNION"
        ' { ?d <%s> ?a . FILTER NOT EXISTS { ?d <%s> ?x } . BIND("-" AS ?b) }'
        " }" % (p1, p2, p2, p3)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, a.obj_value AS a, COALESCE(b.obj_value, '') AS b"
        " FROM t a LEFT JOIN (SELECT subj, obj_value FROM t WHERE pred = ?) b"
        " ON b.subj = a.subj WHERE a.pred = ?"
        " UNION ALL "
        "SELECT subj AS d, obj_value AS a, '-' AS b FROM t"
        " WHERE pred = ? AND subj NOT IN (SELECT subj FROM t WHERE pred = ?)",
        [p2, p1, p2, p3],
    ).fetchdf()
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_group_values(ray_session, seed):
    """VALUES inside an OPTIONAL block masks the group side only."""
    rng = random.Random(13000 + seed)
    rows = _random_graph(rng)
    p1, p2 = rng.sample(PREDS, 2)
    v1, v2 = rng.choice(VALS), rng.choice(VALS)

    q = (
        "SELECT ?d ?a ?b WHERE { ?d <%s> ?a ."
        ' OPTIONAL { ?d <%s> ?b . VALUES ?b { "%s" "%s" } } }'
        % (p1, p2, v1, v2)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, a.obj_value AS a, COALESCE(b.obj_value, '') AS b"
        " FROM t a LEFT JOIN (SELECT subj, obj_value FROM t"
        "  WHERE pred = ? AND obj_value IN (?, ?)) b"
        " ON b.subj = a.subj WHERE a.pred = ?",
        [p2, v1, v2, p1],
    ).fetchdf()
    if len(want) == 0:
        assert len(got) == 0
    else:
        assert _same(got, want), q


@pytest.mark.parametrize("seed", range(6))
def test_random_expr_exists(ray_session, seed):
    """[NOT] EXISTS inside FILTER expressions composed with && / || and
    an ordinary predicate — the hidden-flag-column path vs DuckDB."""
    rng = random.Random(20000 + seed)
    rows = _random_graph(rng)
    p1, p2, p3 = rng.sample(PREDS, 3)
    cut = rng.choice(VALS)

    q = (
        "SELECT ?d ?a WHERE { ?d <%s> ?a . "
        'FILTER (EXISTS { ?d <%s> ?b } || ?a >= "%s") }' % (p1, p2, cut)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d, obj_value AS a FROM t WHERE pred = ?"
        " AND (subj IN (SELECT subj FROM t WHERE pred = ?)"
        " OR obj_value >= ?)",
        [p1, p2, cut],
    ).fetchdf()
    assert _same(got, want), q

    q2 = (
        "SELECT ?d WHERE { ?d <%s> ?a . "
        'FILTER (NOT EXISTS { ?d <%s> ?b . FILTER (?b < "%s") } '
        "&& EXISTS { ?d <%s> ?c }) }" % (p1, p2, cut, p3)
    )
    got2 = execute(_ds(rows), q2, n_buckets=4).to_pandas()
    want2 = _con(rows).execute(
        "SELECT subj AS d FROM t WHERE pred = ?"
        " AND subj NOT IN (SELECT subj FROM t WHERE pred = ?"
        "  AND obj_value < ?)"
        " AND subj IN (SELECT subj FROM t WHERE pred = ?)",
        [p1, p2, cut, p3],
    ).fetchdf()
    assert _same(got2, want2), q2


@pytest.mark.parametrize("seed", range(6))
def test_random_order_by_agg_expr(ray_session, seed):
    """Post-aggregation ORDER BY expressions (alias arithmetic and
    inline DISTINCT aggregates) vs DuckDB, including LIMIT truncation."""
    rng = random.Random(21000 + seed)
    rows = _random_graph(rng)
    p1 = rng.choice(PREDS)
    k = rng.randrange(1, 4)

    q = (
        "SELECT ?d (COUNT(*) AS ?n) WHERE { ?d <%s> ?a } GROUP BY ?d "
        "ORDER BY DESC(?n * 10 + STRLEN(STR(?d))) ?d LIMIT %d" % (p1, k)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d, COUNT(*) AS n FROM t WHERE pred = ?"
        " GROUP BY subj"
        " ORDER BY (COUNT(*) * 10 + length(subj)) DESC, subj LIMIT %d" % k,
        [p1],
    ).fetchdf()
    # ordered comparison: LIMIT makes the row SET depend on the sort
    assert got["d"].tolist() == want["d"].tolist(), q
    if len(got):
        assert got["n"].astype(int).tolist() == want["n"].astype(int).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_random_having_distinct(ray_session, seed):
    rng = random.Random(22000 + seed)
    rows = _random_graph(rng)
    p1 = rng.choice(PREDS)
    k = rng.randrange(1, 4)

    q = (
        "SELECT ?d (COUNT(*) AS ?n) WHERE { ?d <%s> ?a } GROUP BY ?d "
        "HAVING (COUNT(DISTINCT ?a) >= %d)" % (p1, k)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d, COUNT(*) AS n FROM t WHERE pred = ?"
        " GROUP BY subj HAVING COUNT(DISTINCT obj_value) >= %d" % k,
        [p1],
    ).fetchdf()
    assert _same(got, want), q


@pytest.mark.parametrize("seed", range(8))
def test_random_union_block_join(ray_session, seed):
    """A `{A} UNION {B}` block composing with a base pattern at a
    random clause position, vs DuckDB JOIN-over-UNION-ALL."""
    rng = random.Random(23000 + seed)
    rows = _random_graph(rng)
    p0, p1, p2 = (rng.choice(PREDS) for _ in range(3))
    v = rng.choice(VALS)

    q = (
        "SELECT ?d ?x WHERE { ?d <%s> ?l . "
        '{ ?d <%s> ?x } UNION { ?d <%s> ?x . FILTER (?x != "%s") } }'
        % (p0, p1, p2, v)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT a.subj AS d, u.x FROM t a JOIN ("
        "SELECT subj, obj_value AS x FROM t WHERE pred = ?"
        " UNION ALL "
        "SELECT subj, obj_value AS x FROM t WHERE pred = ?"
        " AND obj_value != ?"
        ") u ON u.subj = a.subj WHERE a.pred = ?",
        [p1, p2, v, p0],
    ).fetchdf()
    assert _same(got, want), q


@pytest.mark.parametrize("seed", range(8))
def test_random_select_expr(ray_session, seed):
    """Projection expressions: plain (pre-aggregation BIND) and
    aggregate arithmetic (hidden aggregate + post-aggregation bind)."""
    rng = random.Random(24000 + seed)
    rows = _random_graph(rng)
    p1 = rng.choice(PREDS)

    q = (
        "SELECT ?d (CONCAT(?x, \"!\") AS ?m) WHERE { ?d <%s> ?x }" % p1
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d, obj_value || '!' AS m FROM t WHERE pred = ?",
        [p1],
    ).fetchdf()
    assert _same(got, want), q

    q2 = (
        "SELECT ?d (COUNT(*) AS ?n) (COUNT(*) * 3 AS ?n3)"
        " WHERE { ?d <%s> ?x } GROUP BY ?d" % p1
    )
    got2 = execute(_ds(rows), q2, n_buckets=4).to_pandas()
    want2 = _con(rows).execute(
        "SELECT subj AS d, COUNT(*) AS n,"
        " CAST(COUNT(*) * 3 AS DOUBLE) AS n3"
        " FROM t WHERE pred = ? GROUP BY subj",
        [p1],
    ).fetchdf()
    assert _same(got2, want2), q2


@pytest.mark.parametrize("seed", range(8))
def test_random_trailing_values_and_groupby_expr(ray_session, seed):
    rng = random.Random(25000 + seed)
    rows = _random_graph(rng)
    p1 = rng.choice(PREDS)
    keep = rng.sample(SUBJ, 3)

    q = (
        "SELECT ?d ?x WHERE { ?d <%s> ?x } VALUES ?d { %s }"
        % (p1, " ".join('"%s"' % s for s in keep))
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS d, obj_value AS x FROM t WHERE pred = ?"
        " AND subj IN (%s)" % ",".join("?" * len(keep)),
        [p1, *keep],
    ).fetchdf()
    assert _same(got, want), q

    q2 = (
        "SELECT ?g (COUNT(*) AS ?n) WHERE { ?d <%s> ?x }"
        " GROUP BY (CONCAT(?x, \"-k\") AS ?g)" % p1
    )
    got2 = execute(_ds(rows), q2, n_buckets=4).to_pandas()
    want2 = _con(rows).execute(
        "SELECT obj_value || '-k' AS g, COUNT(*) AS n FROM t"
        " WHERE pred = ? GROUP BY obj_value || '-k'",
        [p1],
    ).fetchdf()
    assert _same(got2, want2), q2


NUMS = ["3", "10", "-7", "0", "0.5", "2.25", "-1.5", "12"]


@pytest.mark.parametrize("seed", range(8))
def test_random_numeric_aggregates(ray_session, seed):
    """SUM / AVG / MIN / MAX / SAMPLE / GROUP_CONCAT over numeric
    lexical objects, with HAVING and ORDER BY / LIMIT / OFFSET on the
    (tie-free) group key, vs DuckDB.  MIN / MAX / SAMPLE compare the
    lexical forms, as the engine does for untyped bindings."""
    rng = random.Random(23000 + seed)
    rows = [
        (rng.choice(SUBJ), rng.choice(PREDS[:2]), rng.choice(NUMS))
        for _ in range(rng.randrange(10, 50))
    ]
    p = rng.choice(PREDS[:2])
    cut = rng.choice([-5, 0, 4, 10])
    desc = rng.random() < 0.5
    limit, offset = rng.randrange(1, 6), rng.randrange(0, 3)

    q = (
        "SELECT ?s (SUM(?o) AS ?sum) (AVG(?o) AS ?avg) (MIN(?o) AS ?mn) "
        "(MAX(?o) AS ?mx) (SAMPLE(?o) AS ?w) "
        '(GROUP_CONCAT(?o; SEPARATOR=",") AS ?gc) (COUNT(*) AS ?n) '
        "WHERE { ?s <%s> ?o } GROUP BY ?s HAVING (SUM(?o) > %d) "
        "ORDER BY %s LIMIT %d OFFSET %d"
        % (p, cut, "DESC(?s)" if desc else "?s", limit, offset)
    )
    got = execute(_ds(rows), q, n_buckets=4).to_pandas()
    want = _con(rows).execute(
        "SELECT subj AS s, SUM(CAST(obj_value AS DOUBLE)) AS sum,"
        " AVG(CAST(obj_value AS DOUBLE)) AS avg, MIN(obj_value) AS mn,"
        " MAX(obj_value) AS mx, MIN(obj_value) AS w,"
        " string_agg(obj_value, ',' ORDER BY obj_value) AS gc, COUNT(*) AS n"
        " FROM t WHERE pred = ? GROUP BY subj"
        " HAVING SUM(CAST(obj_value AS DOUBLE)) > ?"
        " ORDER BY subj %s LIMIT %d OFFSET %d"
        % ("DESC" if desc else "", limit, offset),
        [p, cut],
    ).fetchdf()
    assert len(got) == len(want), q
    if not len(want):
        return
    # ordered: the key is tie-free, so LIMIT / OFFSET pick one row set
    for col in ("s", "mn", "mx", "w", "gc"):
        assert got[col].tolist() == want[col].tolist(), (q, col)
    assert got["n"].astype(int).tolist() == want["n"].astype(int).tolist(), q
    for col in ("sum", "avg"):
        assert got[col].astype(float).tolist() == pytest.approx(
            want[col].astype(float).tolist(), rel=1e-12
        ), (q, col)
