"""Textual SPARQL front-end (stages/sparql_text.py): parsing, the
compiled filters, and end-to-end execution over a triples Dataset."""

import pyarrow as pa
import pytest
import ray.data as rd

from rdfa_ray.stages.sparql_text import SparqlSyntaxError, execute, parse_query

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


GRAPH_ROWS = [
    ("a", "http://ex.org/lang", "zh"),
    ("b", "http://ex.org/lang", "en"),
    ("c", "http://ex.org/lang", "zh"),
    ("a", "http://ex.org/size", "10"),
    ("b", "http://ex.org/size", "200"),
    ("c", "http://ex.org/size", "30"),
    ("a", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://ex.org/Doc"),
    ("b", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://ex.org/Doc"),
]


def _rows(ds, cols):
    df = ds.to_pandas()
    return sorted(map(tuple, df[cols].to_records(index=False).tolist()))


def test_parse_plan_shape():
    plan = parse_query(
        """
        PREFIX ex: <http://ex.org/>
        SELECT DISTINCT ?d ?l WHERE {
          ?d a ex:Doc ; ex:lang ?l .
          FILTER (?l = "zh" || ?l = "en")
        } ORDER BY DESC(?d) LIMIT 5 OFFSET 1
        """
    )
    assert plan["distinct"] and plan["proj"] == ["d", "l"]
    assert ("?d", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "http://ex.org/Doc") in plan["patterns"]
    assert ("?d", "http://ex.org/lang", "?l") in plan["patterns"]
    assert len(plan["filters"]) == 1
    assert plan["order_by"] == [("d", True)]
    assert plan["limit"] == 5 and plan["offset"] == 1


@pytest.mark.parametrize(
    "bad",
    [
        "SELECT WHERE { ?s ?p ?o }",                      # empty projection
        "SELECT ?s WHERE { }",                            # no patterns
        "SELECT ?s WHERE { ?s ?p ?o } FROB 3",            # trailing junk
        "SELECT ?s WHERE { ?s undeclared:x ?o }",         # unknown prefix
        "SELECT (MEDIAN(?x) AS ?m) WHERE { ?s ?p ?x }",   # unknown aggregate
    ],
)
def test_rejects_unsupported(bad):
    with pytest.raises(SparqlSyntaxError):
        parse_query(bad)


def test_basic_select_and_filter(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE {
          ?d ex:lang "zh" . ?d ex:size ?n .
          FILTER (?n < 20)
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "n"]) == [("a", "10")]


def test_regex_and_predicate_list(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE { ?d a ex:Doc ; ex:lang ?l . FILTER (REGEX(?l, "^z")) }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",)]


def test_aggregate_group_having(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l (COUNT(*) AS ?n) (MIN(?d) AS ?first) WHERE {
          ?d ex:lang ?l .
        } GROUP BY ?l HAVING (?n > 1)
        """,
        n_buckets=4,
    )
    assert _rows(out, ["l", "n", "first"]) == [("zh", 2, "a")]


def test_having_inline_aggregate(ray_session):
    # HAVING with a non-projected aggregate call: COUNT hoists to a
    # hidden aggregate column that never reaches the projection
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l WHERE { ?d ex:lang ?l . }
        GROUP BY ?l HAVING (COUNT(*) > 1)
        """,
        n_buckets=4,
    )
    df = out.to_pandas()
    assert list(df.columns) == ["l"]
    assert sorted(df["l"]) == ["zh"]


def test_having_aggregate_expression_and_alias_mix(ray_session):
    # inline SUM over an expression AND a projected alias in one HAVING
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l (COUNT(*) AS ?n) WHERE { ?d ex:lang ?l ; ex:size ?z . }
        GROUP BY ?l HAVING (SUM(?z * 2) > 60 && ?n >= 1)
        """,
        n_buckets=4,
    )
    assert _rows(out, ["l", "n"]) == [("en", 1), ("zh", 2)]


def test_order_by_aggregate_key(ray_session):
    # ORDER BY DESC(COUNT(?d)): sort key is a hidden aggregate; ?l
    # tiebreak keeps it deterministic
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l WHERE { ?d ex:lang ?l . }
        GROUP BY ?l ORDER BY DESC(COUNT(?d)) ?l LIMIT 1
        """,
        n_buckets=4,
    )
    df = out.to_pandas()
    assert list(df.columns) == ["l"] and df["l"].tolist() == ["zh"]


@pytest.mark.parametrize(
    "bad",
    [
        # (AGG(DISTINCT) in HAVING/ORDER BY is now supported — see
        # test_having_with_distinct_aggregate)
        # ORDER BY AGG composes with grouped results, not DISTINCT
        "SELECT DISTINCT ?l WHERE { ?s <http://e/p> ?l } GROUP BY ?l"
        " ORDER BY DESC(COUNT(?s))",
        # (aggregates inside larger ORDER BY expressions are now
        # supported — see test_order_by_inline_agg_in_expression)
        # __ aliases are reserved for hidden engine columns
        "SELECT ?l (COUNT(*) AS ?__n) WHERE { ?s <http://e/p> ?l } GROUP BY ?l",
    ],
)
def test_inline_aggregate_rejections(bad):
    with pytest.raises(SparqlSyntaxError):
        parse_query(bad)


def test_optional_with_inner_filter_and_bind(ray_session):
    # FILTER/BIND nested inside OPTIONAL apply to the optional side
    # BEFORE the left join: rows failing the filter come back unbound
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?l ?tag WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?n . FILTER (?n > 20) .
                     BIND(CONCAT("big:", ?n) AS ?tag) }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "l", "tag"]) == [
        ("a", "zh", ""),
        ("b", "en", "big:200"),
        ("c", "zh", "big:30"),
    ]


def test_optional_filter_outer_var_rejected():
    # a filter referencing a variable not bound inside the group is an
    # explicit fragment error, never a silent unbound read
    with pytest.raises(SparqlSyntaxError):
        parse_query(
            "SELECT ?d WHERE { ?d <http://e/l> ?l ."
            " OPTIONAL { ?d <http://e/s> ?n . FILTER (?n > ?l) } }"
        )


KNOWS_ROWS = [
    ("a", "http://ex.org/knows", "b"),
    ("b", "http://ex.org/knows", "c"),
    ("c", "http://ex.org/knows", "d"),
    ("a", "http://ex.org/name", "Alice"),
    ("b", "http://ex.org/name", "Bob"),
    ("d", "http://ex.org/name", "Dave"),
]


def test_path_inside_optional(ray_session):
    # knows+ nested in OPTIONAL: transitive reach, unbound when none
    out = execute(
        _triples(KNOWS_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?p ?q WHERE { ?p ex:name ?n . OPTIONAL { ?p ex:knows+ ?q } }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["p", "q"]) == [
        ("a", "b"), ("a", "c"), ("a", "d"),
        ("b", "c"), ("b", "d"), ("d", ""),
    ]


def test_path_inside_minus_and_exists(ray_session):
    # MINUS with a seq path drops 2-hop sources; NOT EXISTS with plus
    # keeps only unreachable subjects
    out = execute(
        _triples(KNOWS_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?p WHERE { ?p ex:name ?n . MINUS { ?p ex:knows/ex:knows ?y } }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["p"]) == [("d",)]
    out = execute(
        _triples(KNOWS_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?p WHERE { ?p ex:name ?n .
          FILTER NOT EXISTS { ?x ex:knows+ ?p } }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["p"]) == [("a",)]


def test_path_base_composes_with_optional(ray_session):
    # base-BGP path + OPTIONAL group in one query (both exchanges)
    out = execute(
        _triples(KNOWS_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?p ?q ?qn WHERE {
          ?p ex:knows+ ?q . OPTIONAL { ?q ex:name ?qn }
        }
        """,
        n_buckets=4,
    )
    got = dict(((p, q), qn) for p, q, qn in
               _rows(out, ["p", "q", "qn"]))
    assert got[("a", "d")] == "Dave" and got[("a", "c")] == ""


def test_path_in_union_arm(ray_session):
    # a path arm and a plain arm union into one aligned bag
    out = execute(
        _triples(KNOWS_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?a ?b WHERE {
          { ?a ex:knows+ ?b } UNION { ?a ex:name ?b }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["a", "b"]) == [
        ("a", "Alice"), ("a", "b"), ("a", "c"), ("a", "d"),
        ("b", "Bob"), ("b", "c"), ("b", "d"),
        ("c", "d"), ("d", "Dave"),
    ]


def test_minus_and_exists_with_inner_filter(ray_session):
    # group-local FILTERs restrict the probe side before the anti/semi
    # join: MINUS subtracts only big-size docs; EXISTS keeps only docs
    # with a size >= 20
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:lang ?l . MINUS { ?d ex:size ?n . FILTER (?n > 100) }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",), ("c",)]
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:lang ?l . FILTER EXISTS { ?d ex:size ?n . FILTER (?n >= 20) }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("b",), ("c",)]


def test_bind_inside_minus_rejected():
    with pytest.raises(SparqlSyntaxError):
        parse_query(
            "SELECT ?d WHERE { ?d <http://e/l> ?l ."
            " MINUS { ?d <http://e/s> ?n . BIND(?n AS ?m) } }"
        )


def test_union_arm_filter_and_bind(ray_session):
    # FILTER restricts and BIND tags each arm independently before the
    # aligned union; the star projection sees the arm-bind variable
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?tag WHERE {
          { ?d ex:lang ?l . FILTER (?l = "zh") . BIND(CONCAT("L:", ?l) AS ?tag) }
          UNION
          { ?d ex:size ?n . FILTER (?n > 100) . BIND(STR(?n) AS ?tag) }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "tag"]) == [("a", "L:zh"), ("b", "200"), ("c", "L:zh")]


def test_union_arm_nested_groups(ray_session):
    # arms parse with the full group grammar: FILTER EXISTS and
    # OPTIONAL nest inside an arm
    rows = [
        ("a", "http://ex.org/p", "1"),
        ("a", "http://ex.org/q", "y"),
        ("b", "http://ex.org/p", "2"),
        ("c", "http://ex.org/r", "3"),
    ]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          { ?d ex:p ?x . FILTER EXISTS { ?d ex:q ?y } }
          UNION
          { ?d ex:r ?z }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",), ("c",)]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?q WHERE {
          { ?d ex:p ?x . OPTIONAL { ?d ex:q ?q } }
          UNION
          { ?d ex:r ?q }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "q"]) == [("a", "y"), ("b", ""), ("c", "3")]


def test_optional_and_star(ray_session):
    rows = GRAPH_ROWS + [("d", "http://ex.org/lang", "fr")]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT * WHERE { ?d ex:lang ?l . OPTIONAL { ?d ex:size ?n } }
        """,
        n_buckets=4,
    ).to_pandas()
    got = dict(zip(out["d"], out["n"]))
    assert got == {"a": "10", "b": "200", "c": "30", "d": ""}


def test_order_limit_offset(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE { ?d ex:size ?n } ORDER BY DESC(?n) LIMIT 2 OFFSET 1
        """,
        n_buckets=4,
    ).to_pandas()
    # lexical DESC over '10','200','30': '30','200','10' -> offset 1
    assert list(out["d"]) == ["b", "a"]


def test_distinct(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?l WHERE { ?d ex:lang ?l }",
        n_buckets=4,
    )
    assert _rows(out, ["l"]) == [("en",), ("zh",)]


def test_union_form(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT * WHERE {
          { ?d ex:lang "zh" } UNION { ?d ex:size "200" }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",), ("b",), ("c",)]


def test_minus_and_not_exists(ray_session):
    q_minus = """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE { ?d ex:lang ?l . MINUS { ?d ex:size "200" } }
        """
    out = execute(_triples(GRAPH_ROWS), q_minus, n_buckets=4)
    assert _rows(out, ["d"]) == [("a",), ("c",)]

    q_ne = """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE { ?d ex:lang ?l . FILTER NOT EXISTS { ?d a ex:Doc } }
        """
    out = execute(_triples(GRAPH_ROWS), q_ne, n_buckets=4)
    assert _rows(out, ["d"]) == [("c",)]


def test_values_and_bind_text(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?lu WHERE {
          ?d ex:lang ?l . VALUES ?l { "zh" } BIND(UCASE(?l) AS ?lu) .
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "lu"]) == [("a", "ZH"), ("c", "ZH")]


def test_ask_and_construct_forms(ray_session):
    yes = execute(
        _triples(GRAPH_ROWS),
        'PREFIX ex: <http://ex.org/> ASK { ?d ex:lang "zh" }',
        n_buckets=4,
    ).to_pandas()
    assert list(yes["answer"]) == [True]
    no = execute(
        _triples(GRAPH_ROWS),
        'PREFIX ex: <http://ex.org/> ASK WHERE { ?d ex:lang "tlh" }',
        n_buckets=4,
    ).to_pandas()
    assert list(no["answer"]) == [False]

    built = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        CONSTRUCT { ?d ex:tag "zh-doc" } WHERE { ?d ex:lang "zh" }
        """,
        n_buckets=4,
    )
    assert _rows(built, ["subj", "pred", "obj_value"]) == [
        ("a", "http://ex.org/tag", "zh-doc"),
        ("c", "http://ex.org/tag", "zh-doc"),
    ]


def test_union_mixes_with_other_patterns(ray_session):
    """UNION blocks compose with other top-level patterns: the block
    parses into plan["union_joins"] (a positioned prebuilt binding
    table), leaving plan["union"] for the lone-block pure path."""
    plan = parse_query(
        "PREFIX ex: <http://ex.org/> SELECT * WHERE {"
        ' { ?d ex:lang "zh" } UNION { ?d ex:size "10" } ?d ex:lang ?x }'
    )
    assert len(plan["union_joins"]) == 1 and not plan["union"]
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?v ?l WHERE {
          ?d ex:lang ?l .
          { ?d ex:size ?v . FILTER(?v < 100) } UNION { ?d ex:tagless ?v }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "v", "l"]) == [("a", "10", "zh"), ("c", "30", "zh")]
    # a bare nested group is a one-arm block joined the same way
    out2 = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?v WHERE {
          ?d ex:lang "zh" .
          { ?d ex:size ?v . FILTER(?v > 20) }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out2, ["d", "v"]) == [("c", "30")]
    # soundness guard: an arm that does not bind the join variable
    # would contribute unbound-compatible rows an equality join drops
    with pytest.raises(SparqlSyntaxError):
        execute(
            _triples(GRAPH_ROWS),
            """
            PREFIX ex: <http://ex.org/>
            SELECT * WHERE {
              ?d ex:lang ?l .
              { ?d ex:size ?v } UNION { ?x ex:size ?v }
            }
            """,
            n_buckets=4,
        ).to_pandas()


def test_execute_on_store_prunes(ray_session, tmp_path):
    """Predicate pushdown: the pruned read touches only the partitions
    the query names; a variable predicate disables pruning."""
    from rdfa_ray.stages import kgstore
    from rdfa_ray.stages.sparql_text import execute_on_store

    store = str(tmp_path / "kg")
    kgstore.persist_kg(_triples(GRAPH_ROWS), store)

    out = execute_on_store(
        store,
        'PREFIX ex: <http://ex.org/> SELECT ?d WHERE { ?d ex:lang "zh" }',
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",), ("c",)]

    # variable predicate -> full scan, still correct
    out2 = execute_on_store(
        store, "SELECT ?p ?o WHERE { ?s ?p ?o }", n_buckets=4
    )
    assert out2.count() == len(GRAPH_ROWS)


def test_execute_on_store_unknown_predicate(ray_session, tmp_path):
    """A predicate the store lacks prunes the read to no file: even at
    limit 0 that empty read answers in-process, and the differential
    compares that frame with the in-process run as a bag."""
    from rdfa_ray.stages import kgstore
    from rdfa_ray.stages.sparql_text import execute_on_store

    store = str(tmp_path / "kg")
    kgstore.persist_kg(_triples(GRAPH_ROWS), store)
    out = execute_on_store(
        store, "SELECT ?s ?o WHERE { ?s <http://ex.org/unknown> ?o }", n_buckets=4
    )
    assert out.count() == 0


PATH_ROWS = [
    ("n1", "http://ex.org/next", "n2"),
    ("n2", "http://ex.org/next", "n3"),
    ("n3", "http://ex.org/next", "n4"),
    ("n1", "http://ex.org/alias", "m1"),
    ("n1", "http://ex.org/lang", "zh"),
]


def test_path_plus_in_text(ray_session):
    out = execute(
        _triples(PATH_ROWS),
        'PREFIX ex: <http://ex.org/> SELECT ?a WHERE { "n1" ex:next+ ?a }',
        n_buckets=4,
    )
    assert _rows(out, ["a"]) == [("n2",), ("n3",), ("n4",)]


def test_path_alt_inv_seq_in_text(ray_session):
    # ^next from n3 is n2; next/next from n1 is n3
    out = execute(
        _triples(PATH_ROWS),
        'PREFIX ex: <http://ex.org/> SELECT ?x WHERE { "n3" ^ex:next ?x }',
        n_buckets=4,
    )
    assert _rows(out, ["x"]) == [("n2",)]
    out2 = execute(
        _triples(PATH_ROWS),
        "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { \"n1\" ex:next/ex:next ?x }",
        n_buckets=4,
    )
    assert _rows(out2, ["x"]) == [("n3",)]
    out3 = execute(
        _triples(PATH_ROWS),
        'PREFIX ex: <http://ex.org/> SELECT ?x WHERE { "n1" (ex:next|ex:alias) ?x }',
        n_buckets=4,
    )
    assert _rows(out3, ["x"]) == [("m1",), ("n2",)]


def test_path_joined_with_bgp(ray_session):
    # path bindings join the plain BGP on ?d
    out = execute(
        _triples(PATH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?a WHERE { ?d ex:lang "zh" . ?d ex:next+ ?a }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "a"]) == [("n1", "n2"), ("n1", "n3"), ("n1", "n4")]


def test_path_negated_set_in_text(ray_session):
    out = execute(
        _triples(PATH_ROWS),
        'PREFIX ex: <http://ex.org/> SELECT ?s ?o WHERE { ?s !(ex:next|ex:lang) ?o }',
        n_buckets=4,
    )
    assert _rows(out, ["s", "o"]) == [("n1", "m1")]


def test_store_pruning_disabled_for_star(ray_session, tmp_path):
    from rdfa_ray.stages import kgstore
    from rdfa_ray.stages.sparql_text import execute_on_store

    store = str(tmp_path / "kg")
    kgstore.persist_kg(_triples(PATH_ROWS), store)
    # ex:next* includes zero-length pairs over terms of OTHER
    # partitions (e.g. 'zh', 'm1') -> pruning must be disabled
    out = execute_on_store(
        store,
        "PREFIX ex: <http://ex.org/> SELECT ?a WHERE { ?a ex:next* ?a }",
        n_buckets=4,
    ).to_pandas()
    assert set(out["a"]) == {"n1", "n2", "n3", "n4", "m1", "zh"}


def test_describe_form(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        'PREFIX ex: <http://ex.org/> DESCRIBE ?d WHERE { ?d ex:lang "en" }',
        n_buckets=4,
    )
    assert _rows(out, ["subj", "pred", "obj_value"]) == sorted(
        [r for r in GRAPH_ROWS if r[0] == "b"]
    )


def test_describe_constant_iris(ray_session):
    # bare DESCRIBE <iri> — map-side filter, no WHERE group
    out = execute(_triples(GRAPH_ROWS), "DESCRIBE <a> <c>", n_buckets=4)
    assert _rows(out, ["subj", "pred", "obj_value"]) == sorted(
        [r for r in GRAPH_ROWS if r[0] in ("a", "c")]
    )
    # prefixed-name form
    out2 = execute(
        _triples([("http://ex.org/x", "p", "1"), ("y", "p", "2")]),
        "PREFIX ex: <http://ex.org/> DESCRIBE ex:x",
        n_buckets=4,
    )
    assert _rows(out2, ["subj", "pred", "obj_value"]) == [
        ("http://ex.org/x", "p", "1")
    ]
    # constant DESCRIBE takes no WHERE group in this fragment
    with pytest.raises(SparqlSyntaxError):
        execute(_triples(GRAPH_ROWS), "DESCRIBE <a> WHERE { ?s ?p ?o }")


def test_top_level_query_api(ray_session, tmp_path):
    """rdfa_ray.query dispatches Datasets to execute() and store paths
    to execute_on_store()."""
    import rdfa_ray
    from rdfa_ray.stages import kgstore

    ds = _triples(GRAPH_ROWS)
    q = 'PREFIX ex: <http://ex.org/> SELECT ?d WHERE { ?d ex:lang "zh" }'
    assert _rows(rdfa_ray.query(ds, q, n_buckets=4), ["d"]) == [("a",), ("c",)]

    store = str(tmp_path / "kg")
    kgstore.persist_kg(ds, store)
    assert _rows(rdfa_ray.query(store, q, n_buckets=4), ["d"]) == [("a",), ("c",)]


def test_two_optional_groups(ray_session):
    rows = GRAPH_ROWS + [("a", "http://ex.org/note", "N")]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT * WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?n }
          OPTIONAL { ?d ex:note ?m }
        }
        """,
        n_buckets=4,
    ).to_pandas()
    got = {r.d: (r.n, r.m) for r in out.itertuples()}
    assert got == {"a": ("10", "N"), "b": ("200", ""), "c": ("30", "")}


def test_explain_plain_and_store(ray_session, tmp_path):
    from rdfa_ray.stages import kgstore
    from rdfa_ray.stages.sparql_text import explain

    q = (
        'PREFIX ex: <http://ex.org/> SELECT ?src (COUNT(*) AS ?n) WHERE'
        ' { ?d ex:lang "zh" ; ex:size ?src } GROUP BY ?src LIMIT 3'
    )
    text = explain(q)
    assert "form: SELECT" in text and "(COUNT(*) AS ?n)" in text
    assert "pushdown predicates: 2" in text
    assert "slice: limit=3" in text

    store = str(tmp_path / "kg")
    kgstore.persist_kg(_triples(GRAPH_ROWS), store)
    stext = explain(q, store_dir=store)
    assert "store scan: 2 of 3 partitions" in stext

    # star path disables pruning in the explanation too
    wild = explain(
        "PREFIX ex: <http://ex.org/> SELECT ?a WHERE { ?a ex:next* ?a }",
        store_dir=store,
    )
    assert "ALL 3 partitions" in wild


def test_filter_string_functions(ray_session):
    q = """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE { ?d ex:lang ?l . FILTER (STRSTARTS(?l, "z")) }
        """
    assert _rows(execute(_triples(GRAPH_ROWS), q, n_buckets=4), ["d"]) == [
        ("a",), ("c",)]

    q2 = """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE { ?d ex:size ?n . FILTER (STRLEN(?n) >= 3) }
        """
    assert _rows(execute(_triples(GRAPH_ROWS), q2, n_buckets=4), ["d"]) == [("b",)]

    q3 = """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE { ?d ex:lang ?l . FILTER (CONTAINS(?l, "n") && !STRENDS(?l, "h")) }
        """
    assert _rows(execute(_triples(GRAPH_ROWS), q3, n_buckets=4), ["d"]) == [("b",)]


def test_count_distinct(ray_session):
    rows = GRAPH_ROWS + [("a", "http://ex.org/lang", "zh")]  # dup binding
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l (COUNT(DISTINCT ?d) AS ?n) WHERE { ?d ex:lang ?l }
        GROUP BY ?l
        """,
        n_buckets=4,
    )
    assert _rows(out, ["l", "n"]) == [("en", 1), ("zh", 2)]

    with pytest.raises(SparqlSyntaxError):  # no-op DISTINCT rejected
        parse_query("SELECT (MIN(DISTINCT ?x) AS ?s) WHERE { ?a ?b ?x }")


def test_order_by_expression(ray_session):
    # numeric expression sort: 200 > 30 > 10 (a lexical sort would put
    # "30" above "200")
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE { ?d ex:size ?s } ORDER BY DESC(?s * 1) LIMIT 2
        """,
        n_buckets=4,
    ).to_pandas()
    assert list(out["d"]) == ["b", "c"]
    # hidden sort column stays out of SELECT *
    star = execute(
        _triples(GRAPH_ROWS),
        "PREFIX ex: <http://ex.org/> "
        "SELECT * WHERE { ?d ex:size ?s } ORDER BY (?s * 1) LIMIT 1",
        n_buckets=4,
    ).to_pandas()
    assert sorted(star.columns) == ["d", "s"]
    # ORDER BY expressions over aggregate aliases run POST-aggregation
    # (upgraded from a hard error; see test_order_by_expr_over_aggregates)
    plan = parse_query(
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?d (COUNT(*) AS ?n) WHERE { ?d ex:size ?s } "
        "GROUP BY ?d ORDER BY DESC(?n + 1)"
    )
    assert plan["order_binds_post"]


def test_distinct_set_aggregates(ray_session):
    # two docs share size "30": SUM/AVG/GROUP_CONCAT over the DISTINCT
    # value set, not the multiset
    rows = [
        ("a", "http://ex.org/size", "10"),
        ("b", "http://ex.org/size", "30"),
        ("c", "http://ex.org/size", "30"),
    ]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT (SUM(DISTINCT ?s) AS ?total) WHERE { ?d ex:size ?s }
        """,
        n_buckets=4,
    ).to_pandas()
    assert out["total"].iloc[0] == 40.0
    out2 = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT (AVG(DISTINCT ?s) AS ?m)
               WHERE { ?d ex:size ?s }
        """,
        n_buckets=4,
    ).to_pandas()
    assert out2["m"].iloc[0] == 20.0
    out3 = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT (GROUP_CONCAT(DISTINCT ?s; SEPARATOR=",") AS ?vals)
               WHERE { ?d ex:size ?s }
        """,
        n_buckets=4,
    ).to_pandas()
    assert out3["vals"].iloc[0] == "10,30"


def test_group_concat_and_order_by_alias(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l (COUNT(*) AS ?n) (GROUP_CONCAT(?d) AS ?docs) WHERE {
          ?d ex:lang ?l .
        } GROUP BY ?l ORDER BY DESC(?n) LIMIT 1
        """,
        n_buckets=4,
    ).to_pandas()
    assert len(out) == 1
    assert out["l"].iloc[0] == "zh" and out["n"].iloc[0] == 2
    assert out["docs"].iloc[0] == "a c"  # sorted, space-joined (SPARQL default)


def test_group_concat_separator(ray_session):
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l (GROUP_CONCAT(?d; SEPARATOR="||") AS ?docs) WHERE {
          ?d ex:lang ?l .
        } GROUP BY ?l ORDER BY DESC(?l) LIMIT 1
        """,
        n_buckets=4,
    ).to_pandas()
    assert len(out) == 1
    assert out["l"].iloc[0] == "zh" and out["docs"].iloc[0] == "a||c"
    # SEPARATOR outside GROUP_CONCAT is rejected
    with pytest.raises(SparqlSyntaxError):
        execute(
            _triples(GRAPH_ROWS),
            'SELECT (MAX(?d; SEPARATOR=",") AS ?m) WHERE { ?d ?p ?o . }',
        )


def test_query_over_distilled_markup(ray_session):
    """Kernel -> query integration: distill real RDFa markup, then ask
    the triples a question through the text engine."""
    import pyarrow as pa
    import ray.data as rd

    import rdfa_ray
    from rdfa_ray.pipelines.flagship import build_triples
    from rdfa_ray.stages.distill import split_triples

    html = (
        '<div about="http://ex.org/book" typeof="http://schema.org/Book">'
        '<span property="http://schema.org/name">Moby Dick</span>'
        '<span property="http://schema.org/isbn">12345</span></div>'
    )
    turns = rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["c1"], pa.string()),
                "turn_idx": pa.array([0], pa.int32()),
                "role": pa.array(["user"], pa.string()),
                "text": pa.array([html], pa.string()),
                "tool": pa.array([""], pa.string()),
                "ts": pa.array([0], pa.int64()),
            }
        )
    )
    triples = (
        build_triples(turns)
        .map_batches(split_triples, batch_format="pyarrow")
        .select_columns(["subj", "pred", "obj_value"])
    )
    out = rdfa_ray.query(
        triples,
        """
        PREFIX schema: <http://schema.org/>
        SELECT ?name ?isbn WHERE {
          ?b a schema:Book ; schema:name ?name ; schema:isbn ?isbn .
        }
        """,
        n_buckets=2,
    ).to_pandas()
    assert len(out) == 1
    assert out["name"].iloc[0] == "Moby Dick" and out["isbn"].iloc[0] == "12345"


# ---------------------------------------------------------------- GRAPH

def _quads(rows):
    subj, pred, obj, graph = zip(*rows)
    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(pred, pa.string()),
                "obj_value": pa.array(obj, pa.string()),
                "graph": pa.array(graph, pa.string()),
            }
        )
    )


QUAD_ROWS = [
    ("a", "http://ex.org/lang", "zh", "urn:g1"),
    ("a", "http://ex.org/size", "10", "urn:g1"),
    ("b", "http://ex.org/lang", "en", "urn:g2"),
    ("b", "http://ex.org/size", "200", "urn:g2"),
    # same subject re-described in a second graph with a DIFFERENT size:
    # co-graph semantics must pair lang/size within one graph only
    ("a", "http://ex.org/lang", "zh", "urn:g3"),
    ("a", "http://ex.org/size", "999", "urn:g3"),
    ("c", "http://ex.org/lang", "zh", "urn:g4"),
]


def test_graph_constant(ray_session):
    out = execute(
        _quads(QUAD_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE { GRAPH <urn:g1> { ?d ex:size ?n } }
        """,
    )
    assert _rows(out, ["d", "n"]) == [("a", "10")]


def test_graph_constant_property_path(ray_session):
    # path edges restricted to ONE named graph: a->b->c only in g1;
    # the g2 edge b->x must not extend the g1 closure
    rows = [
        ("a", "http://ex.org/next", "b", "urn:g1"),
        ("b", "http://ex.org/next", "c", "urn:g1"),
        ("b", "http://ex.org/next", "x", "urn:g2"),
    ]
    out = execute(
        _quads(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?o WHERE { GRAPH <urn:g1> { <a> ex:next+ ?o } }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["o"]) == [("b",), ("c",)]
    # variable graph term with a path: per-graph closure, ?g binds
    var = execute(
        _quads(rows),
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?g ?o WHERE { GRAPH ?g { <a> ex:next+ ?o } }",
        n_buckets=4,
    )
    assert _rows(var, ["g", "o"]) == [("urn:g1", "b"), ("urn:g1", "c")]


def test_graph_variable_binds_and_projects(ray_session):
    out = execute(
        _quads(QUAD_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?g ?n WHERE { GRAPH ?g { ?d ex:lang "zh" ; ex:size ?n } }
        """,
    )
    # co-graph: g1 pairs with 10, g3 with 999 — never cross-graph
    assert _rows(out, ["g", "n"]) == [("urn:g1", "10"), ("urn:g3", "999")]


def test_graph_group_with_base_bgp(ray_session):
    # base (union-of-graphs) pattern joined with a GRAPH-scoped one.
    # (a, lang, zh) is asserted in TWO graphs, so the union match is a
    # bag of 2 solutions; DISTINCT gives the deduplicated default graph
    q = """
        PREFIX ex: <http://ex.org/>
        SELECT %s ?d ?g WHERE {
          ?d ex:lang "zh" .
          GRAPH ?g { ?d ex:size "999" }
        }
        """
    bag = execute(_quads(QUAD_ROWS), q % "")
    assert _rows(bag, ["d", "g"]) == [("a", "urn:g3")] * 2
    dedup = execute(_quads(QUAD_ROWS), q % "DISTINCT")
    assert _rows(dedup, ["d", "g"]) == [("a", "urn:g3")]


def test_graph_aggregate_per_graph(ray_session):
    out = execute(
        _quads(QUAD_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?d ex:lang ?l } }
        GROUP BY ?g
        """,
    )
    assert _rows(out, ["g", "n"]) == [
        ("urn:g1", 1), ("urn:g2", 1), ("urn:g3", 1), ("urn:g4", 1),
    ]


def test_graph_errors(ray_session):
    with pytest.raises(SparqlSyntaxError):
        parse_query("SELECT ?s WHERE { GRAPH ?g { } }")  # empty group
    # (paths inside GRAPH ?var and GRAPH ?var nested in OPTIONAL are
    # now supported — see test_paths_under_variable_graph and
    # test_graph_var_inside_groups; both parse to 4-term patterns)
    plan = parse_query(
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?s WHERE { GRAPH ?g { ?s ex:p+ ?o } }"
    )
    assert plan["patterns"][0][3] == "?g"
    # quad pattern against a plain triples dataset: loud error
    import re as _re
    with pytest.raises(Exception, match=_re.compile("graph", _re.I)):
        execute(
            _triples(GRAPH_ROWS),
            "PREFIX ex: <http://ex.org/> "
            "SELECT ?g WHERE { GRAPH ?g { ?d ex:lang ?l } }",
        ).to_pandas()


def test_graph_on_quad_store(ray_session, tmp_path):
    from rdfa_ray.stages.kgstore import persist_kg
    from rdfa_ray.stages.sparql_text import execute_on_store, explain

    store = str(tmp_path / "quadstore")
    persist_kg(_quads(QUAD_ROWS), store)
    out = execute_on_store(
        store,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?g ?n WHERE { GRAPH ?g { ?d ex:lang "zh" ; ex:size ?n } }
        """,
    )
    assert _rows(out, ["g", "n"]) == [("urn:g1", "10"), ("urn:g3", "999")]
    # pushdown still applies: both predicates constant -> pruned scan
    txt = explain(
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?g WHERE { GRAPH ?g { ?d ex:lang ?l } }",
        store_dir=store,
    )
    assert "store scan: 1 of" in txt


def test_graph_inside_store_subquery(ray_session, tmp_path):
    """A GRAPH pattern that only a top-level subquery holds still makes
    the store read carry the graph column."""
    from rdfa_ray.stages.kgstore import persist_kg
    from rdfa_ray.stages.sparql_text import execute_on_store

    store = str(tmp_path / "quadstore")
    persist_kg(_quads(QUAD_ROWS), store)
    out = execute_on_store(
        store,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?g ?n WHERE {
          ?d ex:lang "zh" .
          { SELECT ?d ?g ?n WHERE { GRAPH ?g { ?d ex:size ?n } } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "g", "n"]) == [
        ("a", "urn:g1", "10"), ("a", "urn:g1", "10"),
        ("a", "urn:g3", "999"), ("a", "urn:g3", "999"),
    ]


# ----------------------------------------------------- FROM / FROM NAMED

def test_from_restricts_default_graph(ray_session):
    out = execute(
        _quads(QUAD_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n FROM <urn:g1> FROM <urn:g2> WHERE { ?d ex:size ?n }
        """,
    )
    # g3's size=999 excluded by the dataset clause
    assert _rows(out, ["d", "n"]) == [("a", "10"), ("b", "200")]


def test_from_named_restricts_graph_patterns(ray_session):
    out = execute(
        _quads(QUAD_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?g ?n FROM NAMED <urn:g1> FROM NAMED <urn:g2>
        WHERE { GRAPH ?g { ?d ex:size ?n } }
        """,
    )
    assert _rows(out, ["g", "n"]) == [("urn:g1", "10"), ("urn:g2", "200")]


def test_from_only_empties_named_and_vice_versa(ray_session):
    # FROM only: GRAPH patterns range over an EMPTY named set
    out = execute(
        _quads(QUAD_ROWS),
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?g FROM <urn:g1> WHERE { GRAPH ?g { ?d ex:size ?n } }",
    )
    assert len(out.to_pandas()) == 0
    # FROM NAMED only: the default graph is EMPTY
    out = execute(
        _quads(QUAD_ROWS),
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?d FROM NAMED <urn:g1> WHERE { ?d ex:size ?n }",
    )
    assert len(out.to_pandas()) == 0


def test_from_named_does_not_leak_into_groups(ray_session):
    # regression: OPTIONAL/MINUS/NOT EXISTS groups under dataset
    # clauses must match ONLY the FROM default-graph view — the
    # executor's ordered group list used to keep the un-rewritten
    # blocks, so a FROM NAMED row leaked into default-graph matching
    rows = [
        ("a", "http://ex.org/p", "1", "urn:g1"),
        ("b", "http://ex.org/p", "2", "urn:g1"),
        ("a", "http://ex.org/q", "x", "urn:g2"),  # FROM NAMED only
    ]
    opt = execute(
        _quads(rows),
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?s ?o ?x FROM <urn:g1> FROM NAMED <urn:g2> WHERE {"
        " ?s ex:p ?o . OPTIONAL { ?s ex:q ?x } }",
        n_buckets=4,
    )
    assert _rows(opt, ["s", "o", "x"]) == [("a", "1", ""), ("b", "2", "")]
    minus = execute(
        _quads(rows),
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?s ?o FROM <urn:g1> FROM NAMED <urn:g2> WHERE {"
        " ?s ex:p ?o . MINUS { ?s ex:q ?x } }",
        n_buckets=4,
    )
    assert _rows(minus, ["s", "o"]) == [("a", "1"), ("b", "2")]
    nexists = execute(
        _quads(rows),
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?s ?o FROM <urn:g1> FROM NAMED <urn:g2> WHERE {"
        " ?s ex:p ?o . FILTER NOT EXISTS { ?s ex:q ?x } }",
        n_buckets=4,
    )
    assert _rows(nexists, ["s", "o"]) == [("a", "1"), ("b", "2")]
    # the named row stays reachable through GRAPH
    g = execute(
        _quads(rows),
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?s ?x FROM <urn:g1> FROM NAMED <urn:g2> WHERE {"
        " ?s ex:p ?o . GRAPH <urn:g2> { ?s ex:q ?x } }",
        n_buckets=4,
    )
    assert _rows(g, ["s", "x"]) == [("a", "x")]


def test_from_mixed_default_and_named(ray_session):
    # default pattern over FROM g1; named pattern over FROM NAMED g3,
    # joined on ?d — exercises tag rewriting + prefix stripping together
    out = execute(
        _quads(QUAD_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?g ?big FROM <urn:g1> FROM NAMED <urn:g3> WHERE {
          ?d ex:lang "zh" .
          GRAPH ?g { ?d ex:size ?big }
        }
        """,
    )
    assert _rows(out, ["d", "g", "big"]) == [("a", "urn:g3", "999")]


def test_from_constant_graph_and_aggregate(ray_session):
    out = execute(
        _quads(QUAD_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?g (COUNT(*) AS ?n)
        FROM NAMED <urn:g1> FROM NAMED <urn:g3> FROM NAMED <urn:g4>
        WHERE { GRAPH ?g { ?d ex:lang "zh" } } GROUP BY ?g
        """,
    )
    assert _rows(out, ["g", "n"]) == [
        ("urn:g1", 1), ("urn:g3", 1), ("urn:g4", 1),
    ]


def test_from_errors(ray_session):
    with pytest.raises(SparqlSyntaxError):
        parse_query("SELECT ?s FROM ?g WHERE { ?s ?p ?o }")  # var in FROM
    with pytest.raises(SparqlSyntaxError):
        # graph var also in subject position
        execute(
            _quads(QUAD_ROWS),
            "PREFIX ex: <http://ex.org/> SELECT ?g FROM NAMED <urn:g1> "
            "WHERE { GRAPH ?g { ?g ex:size ?n } }",
        )
    with pytest.raises(SparqlSyntaxError):
        # non-SELECT with a VARIABLE graph term under a dataset clause
        execute(
            _quads(QUAD_ROWS),
            "PREFIX ex: <http://ex.org/> ASK FROM NAMED <urn:g1> "
            "{ GRAPH ?g { ?d ex:size ?n } }",
        )


def test_ask_with_from(ray_session):
    df = execute(
        _quads(QUAD_ROWS),
        "PREFIX ex: <http://ex.org/> "
        "ASK FROM <urn:g1> { ?d ex:size \"999\" }",
    ).to_pandas()
    assert df["answer"].iloc[0] == False  # noqa: E712  (999 lives in g3)
    df = execute(
        _quads(QUAD_ROWS),
        "PREFIX ex: <http://ex.org/> "
        "ASK FROM <urn:g3> { ?d ex:size \"999\" }",
    ).to_pandas()
    assert df["answer"].iloc[0] == True  # noqa: E712


# ---------------------------------------------------------------- subqueries


def test_subquery_joins_outer_bgp(ray_session):
    """{ SELECT ... GROUP BY } evaluated bottom-up and joined into the
    enclosing BGP on the shared variable (SPARQL 1.1 §12)."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?l ?n WHERE {
          ?d ex:lang ?l .
          { SELECT ?l (COUNT(*) AS ?n) WHERE { ?x ex:lang ?l } GROUP BY ?l }
        }
        """,
    )
    assert _rows(out, ["d", "l", "n"]) == [
        ("a", "zh", "2"),
        ("b", "en", "1"),
        ("c", "zh", "2"),
    ]


def test_subquery_only_with_outer_filter(ray_session):
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l ?n WHERE {
          { SELECT ?l (COUNT(*) AS ?n) WHERE { ?x ex:lang ?l } GROUP BY ?l }
          FILTER (?n >= 2)
        }
        """,
    )
    assert _rows(out, ["l", "n"]) == [("zh", "2")]


def test_subquery_with_inner_modifiers(ray_session):
    """DISTINCT / ORDER BY / LIMIT inside the subquery stay inside it —
    the trailing-modifier parse stops at the group's closing brace."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?l WHERE {
          ?d ex:lang ?l .
          { SELECT DISTINCT ?l WHERE { ?x ex:lang ?l } ORDER BY ?l LIMIT 1 }
        }
        """,
    )
    # LIMIT 1 after ORDER BY keeps only "en"
    assert _rows(out, ["d", "l"]) == [("b", "en")]


def test_subquery_nested_two_deep(ray_session):
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?l WHERE {
          ?d ex:lang ?l .
          { SELECT ?l WHERE {
              ?y ex:size ?s .
              { SELECT ?y ?l WHERE { ?y ex:lang ?l } }
              FILTER (?s >= 100)
          } }
        }
        """,
    )
    # only b has size >= 100 -> lang "en" -> outer keeps b
    assert _rows(out, ["d", "l"]) == [("b", "en")]


def test_mixed_distinct_and_plain_aggregates(ray_session):
    rows = GRAPH_ROWS + [("a", "http://ex.org/lang", "zh")]  # dup binding
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?l (COUNT(*) AS ?rows) (COUNT(DISTINCT ?d) AS ?docs)
               (GROUP_CONCAT(DISTINCT ?d; SEPARATOR="|") AS ?ids)
        WHERE { ?d ex:lang ?l } GROUP BY ?l
        """,
        n_buckets=4,
    ).to_pandas()
    out = out.sort_values("l").reset_index(drop=True)
    assert list(out["l"]) == ["en", "zh"]
    assert [int(x) for x in out["rows"]] == [1, 3]
    assert [int(x) for x in out["docs"]] == [1, 2]
    assert list(out["ids"]) == ["b", "a|c"]
    # global (no GROUP BY) mixing: one global group, single result row
    g = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT ?d) AS ?m)
        WHERE { ?d ex:lang ?l }
        """,
        n_buckets=4,
    ).to_pandas()
    assert len(g) == 1
    assert int(g["n"][0]) == 4 and int(g["m"][0]) == 3


def test_constant_pattern_gates(ray_session):
    """Fully-constant patterns are existence gates: ASK answers them
    directly (triple membership + path reachability); mixed into a
    SELECT they keep or empty the solution multiset, and a false gate
    empties solutions BEFORE grouping so aggregates still produce the
    SPARQL §18.5 empty-group row."""
    rows = [
        ("a", "http://p", "b"),
        ("b", "http://p", "c"),
        ("x", "http://q", "y"),
    ]
    ds = _triples(rows)

    def _ask(q):
        return bool(execute(ds, q, n_buckets=2).to_pandas()["answer"][0])

    assert _ask("ASK { <a> <http://p> <b> }") is True
    assert _ask("ASK { <a> <http://p> <c> }") is False
    assert _ask("ASK { <a> <http://p>+ <c> }") is True  # 2-hop closure
    assert _ask("ASK { <c> <http://p>+ <a> }") is False
    kept = execute(
        ds,
        "SELECT ?s WHERE { ?s <http://q> ?o . <a> <http://p> <b> }",
        n_buckets=2,
    )
    assert _rows(kept, ["s"]) == [("x",)]
    gone = execute(
        ds,
        "SELECT ?s WHERE { ?s <http://q> ?o . <a> <http://p> <zz> }",
        n_buckets=2,
    )
    assert gone.count() == 0
    agg = execute(
        ds,
        "SELECT (COUNT(*) AS ?n) WHERE"
        " { ?s <http://q> ?o . <a> <http://p> <zz> }",
        n_buckets=2,
    ).to_pandas()
    assert len(agg) == 1 and int(agg["n"][0]) == 0
    with pytest.raises(SparqlSyntaxError):
        execute(ds, "SELECT ?s WHERE { <a> <http://p> <b> }")


def test_pattern_syntax_sugars(ray_session):
    """Blank-node property lists (recursive, fresh hidden vars), comma
    object lists, boolean literals; _:labels and template blank nodes
    raise loudly."""
    rows = [
        ("a", "http://ex.org/p", "n1"),
        ("n1", "http://ex.org/q", "42"),
        ("n1", "http://ex.org/r", "7"),
        ("b", "http://ex.org/num", "10"),
        ("b", "http://ex.org/num", "20"),
        ("c", "http://ex.org/flag", "true"),
    ]
    ds = _triples(rows)
    out = execute(
        ds,
        "SELECT ?s ?v ?w WHERE { ?s <http://ex.org/p>"
        " [ <http://ex.org/q> ?v ; <http://ex.org/r> ?w ] }",
        n_buckets=4,
    )
    assert _rows(out, ["s", "v", "w"]) == [("a", "42", "7")]
    # bare anon subject; SELECT * hides the hidden node var
    star = execute(
        ds, "SELECT * WHERE { [ <http://ex.org/q> ?v ] . }", n_buckets=4
    ).to_pandas()
    assert list(star.columns) == ["v"] and list(star["v"]) == ["42"]
    comma = execute(
        ds, "SELECT ?s WHERE { ?s <http://ex.org/num> 10, 20 }", n_buckets=4
    )
    assert _rows(comma, ["s"]) == [("b",)]
    boolean = execute(
        ds, "SELECT ?s WHERE { ?s <http://ex.org/flag> true }", n_buckets=4
    )
    assert _rows(boolean, ["s"]) == [("c",)]
    # _:label = one hidden variable per label, joining within its BGP
    lbl = execute(
        ds,
        "SELECT ?v ?w WHERE { _:n <http://ex.org/q> ?v ."
        " _:n <http://ex.org/r> ?w }",
        n_buckets=4,
    )
    assert _rows(lbl, ["v", "w"]) == [("42", "7")]
    star2 = execute(
        ds, "SELECT * WHERE { _:n <http://ex.org/q> ?v }", n_buckets=4
    ).to_pandas()
    assert list(star2.columns) == ["v"] and list(star2["v"]) == ["42"]
    # a label spanning two pattern blocks raises (SPARQL §19.6)
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            "SELECT ?v WHERE { _:n <http://ex.org/q> ?v ."
            " OPTIONAL { _:n <http://ex.org/r> ?w } }",
        )
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            "CONSTRUCT { ?s <http://t> [ ] } WHERE { ?s <http://ex.org/p> ?o }",
        )
    # _:label in a CONSTRUCT template is a minting bnode — rejected too
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            "CONSTRUCT { ?s <http://t> _:m } WHERE { ?s <http://ex.org/p> ?o }",
        )


def test_reduced_and_iri(ray_session):
    """SELECT REDUCED dedups like rdflib (permitted by §18.2.5.2 —
    deterministic output); IRI()/URI() are the lexical identity."""
    rows = [
        ("a", "http://ex.org/l", "zh"),
        ("a2", "http://ex.org/l", "zh"),
        ("b", "http://ex.org/l", "en"),
    ]
    ds = _triples(rows)
    out = execute(
        ds, "SELECT REDUCED ?l WHERE { ?s <http://ex.org/l> ?l }",
        n_buckets=4,
    )
    assert _rows(out, ["l"]) == [("en",), ("zh",)]
    out2 = execute(
        ds,
        'SELECT ?u WHERE { ?s <http://ex.org/l> "en" .'
        ' BIND(IRI(CONCAT("urn:x:", ?s)) AS ?u) }',
        n_buckets=4,
    )
    assert _rows(out2, ["u"]) == [("urn:x:b",)]


def test_tagged_literal_constants(ray_session):
    """"lex"@lang and "lex"^^<dt> constants in object position:
    rewritten to a hidden variable + a metadata-equality mask over the
    same obj_lang/obj_datatype columns LANG()/DATATYPE() read."""
    import pyarrow as pa
    import ray.data as rd

    rows = [
        ("a", "http://ex.org/name", "hi", "en", "", "literal"),
        ("b", "http://ex.org/name", "hi", "zh", "", "literal"),
        ("c", "http://ex.org/name", "hi", "", "", "literal"),
        ("d", "http://ex.org/num", "10", "",
         "http://www.w3.org/2001/XMLSchema#integer", "literal"),
        ("e", "http://ex.org/num", "10", "", "", "literal"),
    ]
    subj, pred, obj, lang, dt, kind = zip(*rows)
    ds = rd.from_arrow(pa.table({
        "subj": pa.array(subj), "pred": pa.array(pred),
        "obj_value": pa.array(obj), "obj_lang": pa.array(lang),
        "obj_datatype": pa.array(dt), "obj_kind": pa.array(kind),
    }))
    out = execute(
        ds, 'SELECT ?s WHERE { ?s <http://ex.org/name> "hi"@en }',
        n_buckets=4,
    )
    assert _rows(out, ["s"]) == [("a",)]
    out2 = execute(
        ds,
        'SELECT ?s WHERE { ?s <http://ex.org/num>'
        ' "10"^^<http://www.w3.org/2001/XMLSchema#integer> }',
        n_buckets=4,
    )
    assert _rows(out2, ["s"]) == [("d",)]
    # untagged constants keep matching every lexical form
    out3 = execute(
        ds, 'SELECT ?s WHERE { ?s <http://ex.org/name> "hi" }', n_buckets=4
    )
    assert _rows(out3, ["s"]) == [("a",), ("b",), ("c",)]


def test_select_expressions(ray_session):
    """(expr AS ?alias) in the projection: plain expressions ride the
    user BINDs; inline aggregate calls hoist to hidden aggregates and
    the expression runs post-aggregation (SUM(?v)/COUNT(?v) works)."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?d (?v * 2 AS ?m) WHERE { ?d ex:size ?v }",
        n_buckets=4,
    ).to_pandas()
    assert sorted(zip(out["d"], (int(x) for x in out["m"]))) == [
        ("a", 20), ("b", 400), ("c", 60)
    ]
    avg = execute(
        ds,
        "PREFIX ex: <http://ex.org/> "
        "SELECT (SUM(?v) / COUNT(?v) AS ?r) WHERE { ?d ex:size ?v }",
        n_buckets=4,
    ).to_pandas()
    assert len(avg) == 1 and float(avg["r"][0]) == 80.0
    grp = execute(
        ds,
        "PREFIX ex: <http://ex.org/> "
        "SELECT ?l (SUM(?v) AS ?t) (SUM(?v) * 10 AS ?t10) "
        "WHERE { ?d ex:lang ?l ; ex:size ?v } GROUP BY ?l",
        n_buckets=4,
    ).to_pandas()
    got = sorted(zip(grp["l"], (int(x) for x in grp["t"]),
                     (int(x) for x in grp["t10"])))
    assert got == [("en", 200, 2000), ("zh", 40, 400)]
    # expression over out-of-scope var raises on an aggregate query
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            "PREFIX ex: <http://ex.org/> "
            "SELECT (?v + 1 AS ?bad) (COUNT(*) AS ?n) "
            "WHERE { ?d ex:size ?v } GROUP BY ?d",
        ).to_pandas()


def test_trailing_values_clause(ray_session):
    """Trailing VALUES (after the WHERE group / modifiers): joined with
    the query solutions — post-aggregation for aggregate queries."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        "PREFIX ex: <http://ex.org/> SELECT ?d ?v "
        'WHERE { ?d ex:size ?v } VALUES ?d { "a" "c" }',
        n_buckets=4,
    )
    assert _rows(out, ["d", "v"]) == [("a", "10"), ("c", "30")]
    multi = execute(
        ds,
        "PREFIX ex: <http://ex.org/> SELECT ?d ?v WHERE { ?d ex:size ?v }"
        ' VALUES (?d ?v) { ("a" UNDEF) (UNDEF "200") }',
        n_buckets=4,
    )
    assert _rows(multi, ["d", "v"]) == [("a", "10"), ("b", "200")]
    agg = execute(
        ds,
        "PREFIX ex: <http://ex.org/> SELECT ?l (COUNT(*) AS ?n) "
        'WHERE { ?d ex:lang ?l } GROUP BY ?l VALUES ?l { "zh" }',
        n_buckets=4,
    ).to_pandas()
    assert len(agg) == 1 and agg["l"][0] == "zh" and int(agg["n"][0]) == 2
    # over an aggregate query only group keys / aliases are in scope
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            "PREFIX ex: <http://ex.org/> SELECT ?l (COUNT(*) AS ?n) "
            'WHERE { ?d ex:lang ?l } GROUP BY ?l VALUES ?d { "a" }',
        ).to_pandas()


def test_group_by_expressions(ray_session):
    """GROUP BY (expr AS ?v) keys compile to hidden pre-aggregation
    BINDs; without AS the key stays unprojected; boolean keys work."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        "PREFIX ex: <http://ex.org/> SELECT ?big (COUNT(*) AS ?n) "
        "WHERE { ?d ex:size ?v } GROUP BY (?v > 50 AS ?big)",
        n_buckets=4,
    ).to_pandas()
    got = sorted(zip((bool(x) for x in out["big"]),
                     (int(x) for x in out["n"])))
    assert got == [(False, 2), (True, 1)]
    hidden = execute(
        ds,
        "PREFIX ex: <http://ex.org/> SELECT (COUNT(*) AS ?n) "
        "WHERE { ?d ex:size ?v } GROUP BY (?v > 50)",
        n_buckets=4,
    ).to_pandas()
    assert list(hidden.columns) == ["n"]
    assert sorted(int(x) for x in hidden["n"]) == [1, 2]


def test_construct_where_shorthand(ray_session):
    """CONSTRUCT WHERE { bgp } emits the matched pattern itself; any
    non-BGP clause in the WHERE raises (SPARQL §10.2.3)."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        "CONSTRUCT WHERE { ?s <http://ex.org/lang> ?o }",
        n_buckets=4,
    )
    assert _rows(out, ["subj", "obj_value"]) == [
        ("a", "zh"), ("b", "en"), ("c", "zh")
    ]
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            'CONSTRUCT WHERE { ?s <http://ex.org/lang> ?o . '
            'FILTER(?o = "zh") }',
        ).to_pandas()


def test_bare_negated_path_iri(ray_session):
    """`!iri` (a one-member negated property set) without parens."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        "SELECT ?s ?o WHERE { ?s !<http://ex.org/lang> ?o }",
        n_buckets=4,
    )
    got = _rows(out, ["s", "o"])
    assert ("a", "10") in got and all(o != "zh" and o != "en" for _s, o in got)


def test_union_nested_in_group_bodies(ray_session):
    """`{…} UNION {…}` blocks inside OPTIONAL / MINUS / FILTER EXISTS
    bodies: the block joins into the group side at its clause position
    before the group joins its base."""
    rows = GRAPH_ROWS + [
        ("a", "http://ex.org/tag", "hot"),
        ("b", "http://ex.org/tag", "cold"),
    ]
    ds = _triples(rows)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?v WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?v .
                     { ?d ex:tag "hot" } UNION { ?d ex:tag "cold" } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "v"]) == [("a", "10"), ("b", "200"), ("c", "")]
    out2 = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:lang ?l .
          MINUS { { ?d ex:tag "hot" } UNION { ?d ex:tag "cold" } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out2, ["d"]) == [("c",)]
    out3 = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:lang ?l .
          FILTER EXISTS { { ?d ex:tag "hot" }
                          UNION { ?d ex:size ?v . FILTER (?v > 100) } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out3, ["d"]) == [("a",), ("b",)]


def test_ungrouped_aggregates_over_zero_solutions(ray_session):
    """SPARQL §18.5: with no GROUP BY, zero solutions still form ONE
    group — COUNT=0, SUM/AVG=0, GROUP_CONCAT='', MIN/MAX/SAMPLE
    unbound; HAVING then filters that single row."""
    none = "WHERE { ?s <http://ex.org/nope> ?v }"
    ds = _triples(GRAPH_ROWS)
    plain = execute(
        ds,
        "SELECT (COUNT(?s) AS ?n) (SUM(?v) AS ?t) (MIN(?v) AS ?lo) " + none,
        n_buckets=4,
    ).to_pandas()
    assert len(plain) == 1
    assert int(plain["n"][0]) == 0
    assert float(plain["t"][0]) == 0.0
    assert plain["lo"][0] == ""  # unbound sentinel
    single = execute(
        ds, "SELECT (COUNT(DISTINCT ?v) AS ?d) " + none, n_buckets=4
    ).to_pandas()
    assert len(single) == 1 and int(single["d"][0]) == 0
    mixed = execute(
        ds,
        "SELECT (COUNT(?s) AS ?n) (COUNT(DISTINCT ?v) AS ?d) " + none,
        n_buckets=4,
    ).to_pandas()
    assert len(mixed) == 1
    assert int(mixed["n"][0]) == 0 and int(mixed["d"][0]) == 0
    gated = execute(
        ds,
        "SELECT (COUNT(?s) AS ?n) " + none + " HAVING (COUNT(?s) > 0)",
        n_buckets=4,
    ).to_pandas()
    assert len(gated) == 0


def test_subquery_composes_with_groups(ray_session):
    """Subqueries now mix with OPTIONAL/MINUS/EXISTS groups, joined at
    their textual clause position."""
    out = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?l ?n ?s WHERE {
          ?d ex:lang ?l .
          { SELECT ?l (COUNT(*) AS ?n) WHERE { ?x ex:lang ?l } GROUP BY ?l }
          OPTIONAL { ?d ex:size ?s }
          MINUS { ?d ex:lang "en" }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "l", "n", "s"]) == [
        ("a", "zh", "2", "10"),
        ("c", "zh", "2", "30"),
    ]
    # subquery AFTER a group clause: joins after the MINUS runs
    out2 = execute(
        _triples(GRAPH_ROWS),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?l ?n WHERE {
          ?d ex:lang ?l .
          MINUS { ?d ex:lang "en" }
          { SELECT ?l (COUNT(*) AS ?n) WHERE { ?x ex:lang ?l } GROUP BY ?l }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out2, ["d", "l", "n"]) == [("a", "zh", "2"), ("c", "zh", "2")]


def test_subquery_errors(ray_session):
    ds = _triples(GRAPH_ROWS)
    cases = [
        # no shared variable with the rest of the group (cross product)
        """SELECT ?d ?n WHERE { ?d <http://ex.org/lang> ?l .
           { SELECT ?x (COUNT(*) AS ?n) WHERE { ?x ?p ?o } GROUP BY ?x }
           FILTER (?n > 1) }""",
        # OPTIONAL needs a base BGP (a subquery alone is not one)
        """SELECT ?d WHERE { OPTIONAL { ?d <http://ex.org/size> ?s }
           { SELECT ?d WHERE { ?d ?p ?o } } }""",
        # non-SELECT outer form
        "ASK { { SELECT ?s WHERE { ?s ?p ?o } } }",
    ]
    for q in cases:
        with pytest.raises(SparqlSyntaxError):
            execute(ds, q).to_pandas()
    # two bare nested groups (not subqueries) now join on shared vars
    out = execute(
        ds,
        "SELECT ?s WHERE { { ?s <http://ex.org/lang> \"zh\" }"
        " { ?s <http://ex.org/size> ?v } }",
        n_buckets=4,
    )
    assert _rows(out, ["s"]) == [("a",), ("c",)]


def test_values_multi_variable(ray_session):
    """VALUES (?a ?b) { ... } with UNDEF: per inline row AND over the
    non-UNDEF positions, OR across rows."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?l ?s WHERE {
          ?d ex:lang ?l ; ex:size ?s .
          VALUES (?l ?s) { ("zh" "10") ("en" UNDEF) }
        }
        """,
    )
    assert _rows(out, ["d", "l", "s"]) == [("a", "zh", "10"), ("b", "en", "200")]


def test_values_multi_arity_error(ray_session):
    ds = _triples(GRAPH_ROWS)
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            """SELECT ?d WHERE { ?d <http://ex.org/lang> ?l .
               VALUES (?l) { ("zh" "extra") } }""",
        )


# ------------------------------------------- mixed/chained group composition


def test_optional_then_minus(ray_session):
    """OPTIONAL and MINUS in one query, applied in clause order."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?s WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?s }
          MINUS { ?d ex:lang "en" }
        }
        """,
    )
    assert _rows(out, ["d", "s"]) == [("a", "10"), ("c", "30")]


def test_two_minus_groups(ray_session):
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:size ?s .
          MINUS { ?d ex:lang "en" }
          MINUS { ?d ex:lang "zh" . ?d ex:size "30" }
        }
        """,
    )
    assert _rows(out, ["d"]) == [("a",)]


def test_minus_then_not_exists(ray_session):
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:lang ?l .
          MINUS { ?d ex:lang "en" }
          FILTER NOT EXISTS { ?d ex:size "10" }
        }
        """,
    )
    assert _rows(out, ["d"]) == [("c",)]


def test_exists_after_optional(ray_session):
    """EXISTS applies to the solution including the OPTIONAL column."""
    ds = _triples(GRAPH_ROWS)
    out = execute(
        ds,
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?s WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?s }
          FILTER EXISTS { ?d a ex:Doc }
        }
        """,
    )
    assert _rows(out, ["d", "s"]) == [("a", "10"), ("b", "200")]


def test_store_subquery_pushdown(ray_session, tmp_path):
    """A subquery's predicates must be part of the store's pushdown set
    — a pruned scan that misses them silently drops solutions."""
    from rdfa_ray import query as kg_query
    from rdfa_ray.stages.kgstore import persist_kg
    from rdfa_ray.stages.sparql_text import _plan_pred_pushdown, parse_query

    plan = parse_query(
        """SELECT ?d ?n WHERE { ?d <http://ex.org/lang> ?l .
           { SELECT ?d (COUNT(*) AS ?n) WHERE { ?d <http://ex.org/size> ?s }
             GROUP BY ?d } }"""
    )
    preds, prunable = _plan_pred_pushdown(plan)
    assert prunable and preds == {"http://ex.org/lang", "http://ex.org/size"}

    store = str(tmp_path / "kg")
    persist_kg(_triples(GRAPH_ROWS), store)
    out = kg_query(
        store,
        """SELECT ?d ?n WHERE { ?d <http://ex.org/lang> ?l .
           { SELECT ?d (COUNT(*) AS ?n) WHERE { ?d <http://ex.org/size> ?s }
             GROUP BY ?d } }""",
    )
    assert _rows(out, ["d", "n"]) == [("a", "1"), ("b", "1"), ("c", "1")]


def test_construct_ask_describe_honor_full_where(ray_session):
    """Round-3 regression: non-SELECT forms used to match the base BGP
    only, silently ignoring FILTER/VALUES/BIND/groups."""
    rows = [
        ("a", "http://ex.org/lang", "zh"),
        ("b", "http://ex.org/lang", "en"),
        ("b", "http://ex.org/size", "200"),
    ]
    pre = "PREFIX ex: <http://ex.org/> "
    out = execute(
        _triples(rows),
        pre + 'CONSTRUCT { ?d ex:tag "small" } WHERE {'
        " ?d ex:lang ?l . MINUS { ?d ex:size ?n } }",
        n_buckets=4,
    )
    assert _rows(out, ["subj", "pred", "obj_value"]) == [
        ("a", "http://ex.org/tag", "small")
    ]
    ask_false = execute(
        _triples(rows),
        pre + 'ASK { ?d ex:lang ?l . FILTER (?l = "fr") }',
        n_buckets=4,
    ).to_pandas()
    assert ask_false["answer"].tolist() == [False]
    desc = execute(
        _triples(rows),
        pre + "DESCRIBE ?d WHERE { ?d ex:lang ?l . MINUS { ?d ex:size ?n } }",
        n_buckets=4,
    )
    assert _rows(desc, ["subj"]) == [("a",)]


def test_construct_skips_unbound_template_rows(ray_session):
    # SPARQL §16.2: a template triple referencing an unbound variable
    # is not generated for that solution
    rows = [
        ("a", "http://ex.org/lang", "zh"),
        ("b", "http://ex.org/lang", "en"),
        ("b", "http://ex.org/size", "200"),
    ]
    out = execute(
        _triples(rows),
        "PREFIX ex: <http://ex.org/> "
        "CONSTRUCT { ?d ex:sz ?n } WHERE {"
        " ?d ex:lang ?l . OPTIONAL { ?d ex:size ?n } }",
        n_buckets=4,
    )
    assert _rows(out, ["subj", "obj_value"]) == [("b", "200")]


def test_non_select_modifier_rejected():
    with pytest.raises(SparqlSyntaxError):
        parse_query(
            'CONSTRUCT { ?d <http://e/t> "x" } WHERE'
            " { ?d <http://e/l> ?l } ORDER BY ?l"
        )


def test_paths_in_non_select_forms(ray_session):
    # CONSTRUCT/ASK consume path bindings like any other solution set
    rows = [
        ("a", "http://ex.org/next", "b"),
        ("b", "http://ex.org/next", "c"),
    ]
    out = execute(
        _triples(rows),
        "PREFIX ex: <http://ex.org/> "
        "CONSTRUCT { ?a ex:reach ?b } WHERE { ?a ex:next+ ?b }",
        n_buckets=4,
    )
    assert _rows(out, ["subj", "obj_value"]) == [
        ("a", "b"), ("a", "c"), ("b", "c"),
    ]
    ask = execute(
        _triples(rows),
        "PREFIX ex: <http://ex.org/> ASK { ?a ex:next/ex:next ?c }",
        n_buckets=4,
    ).to_pandas()
    assert ask["answer"].tolist() == [True]


def test_nested_optional_inside_optional(ray_session):
    # OPTIONAL { ... OPTIONAL { ... } }: the inner left join composes
    # inside the group side before the outer left join
    rows = [
        ("a", "http://ex.org/lang", "zh"),
        ("b", "http://ex.org/lang", "en"),
        ("a", "http://ex.org/size", "10"),
        ("b", "http://ex.org/size", "200"),
        ("200", "http://ex.org/cls", "big"),
    ]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n ?c WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?n . OPTIONAL { ?n ex:cls ?c } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "n", "c"]) == [
        ("a", "10", ""), ("b", "200", "big"),
    ]


def test_nested_minus_inside_optional(ray_session):
    # MINUS nested in OPTIONAL subtracts inside the group side only:
    # the optional row disappears (-> unbound), the base row survives
    rows = [
        ("a", "http://ex.org/lang", "zh"),
        ("b", "http://ex.org/lang", "en"),
        ("a", "http://ex.org/size", "10"),
        ("b", "http://ex.org/size", "200"),
        ("b", "http://ex.org/flag", "x"),
    ]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?n . MINUS { ?d ex:flag ?f } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "n"]) == [("a", "10"), ("b", "")]


def test_nested_exists_inside_minus(ray_session):
    # FILTER EXISTS nested inside MINUS restricts which rows the minus
    # probe contributes
    rows = [
        ("a", "http://ex.org/lang", "zh"),
        ("b", "http://ex.org/lang", "en"),
        ("a", "http://ex.org/size", "10"),
        ("b", "http://ex.org/size", "200"),
        ("b", "http://ex.org/flag", "x"),
    ]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:lang ?l .
          MINUS { ?d ex:size ?n . FILTER EXISTS { ?d ex:flag ?f } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",)]


def test_outer_filter_reads_nested_optional_var(ray_session):
    # a group-wide filter may reference its nested-OPTIONAL variables
    # (they surface before the filter runs); BOUND() distinguishes
    rows = [
        ("a", "http://ex.org/lang", "zh"),
        ("b", "http://ex.org/lang", "en"),
        ("a", "http://ex.org/size", "10"),
        ("b", "http://ex.org/size", "200"),
        ("200", "http://ex.org/cls", "big"),
    ]
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?c WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?n . OPTIONAL { ?n ex:cls ?c }
                     FILTER (BOUND(?c)) }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "c"]) == [("a", ""), ("b", "big")]


def test_store_nested_group_pushdown(ray_session, tmp_path):
    """Nested sub-group predicates must join the store's pushdown set —
    a pruned scan missing the inner OPTIONAL's partition would
    silently return unbound instead of the value."""
    from rdfa_ray import query as kg_query
    from rdfa_ray.stages.kgstore import persist_kg
    from rdfa_ray.stages.sparql_text import _plan_pred_pushdown, parse_query

    q = (
        "SELECT ?d ?n ?c WHERE { ?d <http://ex.org/lang> ?l ."
        " OPTIONAL { ?d <http://ex.org/size> ?n ."
        "   OPTIONAL { ?n <http://ex.org/cls> ?c } } }"
    )
    preds, prunable = _plan_pred_pushdown(parse_query(q))
    assert prunable and preds == {
        "http://ex.org/lang", "http://ex.org/size", "http://ex.org/cls",
    }
    rows = GRAPH_ROWS + [("200", "http://ex.org/cls", "big")]
    store = str(tmp_path / "kg")
    persist_kg(_triples(rows), store)
    out = kg_query(store, q)
    got = {(d, n): c for d, n, c in _rows(out, ["d", "n", "c"])}
    assert got[("b", "200")] == "big" and got[("a", "10")] == ""


def test_values_and_graph_inside_groups(ray_session):
    # group-local VALUES masks the group side; constant GRAPH inside a
    # group restricts its patterns to that named graph
    rows = [
        ("a", "http://ex.org/lang", "zh", "urn:g1"),
        ("b", "http://ex.org/lang", "en", "urn:g1"),
        ("a", "http://ex.org/size", "10", "urn:g2"),
        ("b", "http://ex.org/size", "200", "urn:g3"),
    ]
    out = execute(
        _quads(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE {
          ?d ex:lang ?l .
          OPTIONAL { ?d ex:size ?n . VALUES ?n { "10" "999" } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "n"]) == [("a", "10"), ("b", "")]
    out = execute(
        _quads(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE {
          ?d ex:lang ?l .
          OPTIONAL { GRAPH <urn:g2> { ?d ex:size ?n } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "n"]) == [("a", "10"), ("b", "")]
    out = execute(
        _quads(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d WHERE {
          ?d ex:lang ?l .
          MINUS { ?d ex:size ?n . VALUES (?n) { ("200") } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d"]) == [("a",)]


def test_graph_var_inside_group_parses():
    # upgraded from a hard rejection — see test_graph_var_inside_groups
    plan = parse_query(
        "SELECT ?d WHERE { ?d <http://e/l> ?l ."
        " OPTIONAL { GRAPH ?g { ?d <http://e/s> ?n } } }"
    )
    (kind, block), = [(k, b) for k, b in plan["groups"]]
    assert kind == "optional" and block == [("?d", "http://e/s", "?n", "?g")]


def test_subquery_inside_group_bodies(ray_session):
    rows = [
        ("a", "http://ex.org/lang", "zh"),
        ("b", "http://ex.org/lang", "en"),
        ("c", "http://ex.org/lang", "zh"),
        ("a", "http://ex.org/size", "10"),
        ("a", "http://ex.org/size", "30"),
        ("b", "http://ex.org/size", "200"),
    ]
    # subquery nested in OPTIONAL: per-doc count, unbound when none
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE {
          ?d ex:lang ?l .
          OPTIONAL { { SELECT ?d (COUNT(*) AS ?n)
                       WHERE { ?d ex:size ?s } GROUP BY ?d } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "n"]) == [("a", "2"), ("b", "1"), ("c", "")]
    # group-wide filter reads the subquery's projected variable
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?n WHERE {
          ?d ex:lang ?l .
          OPTIONAL { { SELECT ?d (COUNT(*) AS ?n)
                       WHERE { ?d ex:size ?s } GROUP BY ?d }
                     FILTER (?n > 1) }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "n"]) == [("a", "2"), ("b", ""), ("c", "")]
    # subquery nested in a UNION arm
    out = execute(
        _triples(rows),
        """
        PREFIX ex: <http://ex.org/>
        SELECT ?d ?v WHERE {
          { ?d ex:lang ?v }
          UNION
          { ?d ex:lang "zh" .
            { SELECT ?d (MAX(?s) AS ?v) WHERE { ?d ex:size ?s }
              GROUP BY ?d } }
        }
        """,
        n_buckets=4,
    )
    assert _rows(out, ["d", "v"]) == [
        ("a", "30"), ("a", "zh"), ("b", "en"), ("c", "zh"),
    ]


# ---------------------------------------------------------------------------
# parser robustness: mutated/garbage query text must either parse or raise
# SparqlSyntaxError — never hang, and never leak IndexError/TypeError/etc.
# (regression: a stray UNION at a non-arm position spun parse_triples_block
# forever; truncated LIMIT/OFFSET crashed int()).  A 20 000-seed offline
# sweep of this generator is clean; CI runs a bounded slice.

_FUZZ_SEED_QUERIES = [
    'SELECT ?s WHERE { ?s <http://p> ?o }',
    'PREFIX ex: <http://e/> SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ex:p ?o . '
    'OPTIONAL { ?s ex:q ?x . FILTER (?x > 1) } } GROUP BY ?s HAVING (?n > 1) '
    'ORDER BY DESC(?n) LIMIT 5',
    'SELECT * WHERE { { ?a <http://p>+ ?b } UNION { ?a <http://q> ?b . '
    'VALUES ?b { "x" } } }',
    'ASK { GRAPH <urn:g> { ?s <http://p> ?o } }',
    'CONSTRUCT { ?s <http://t> "x" } WHERE { ?s <http://p> ?o . '
    'MINUS { ?s <http://q> ?z } }',
    'SELECT ?s FROM <urn:g> WHERE { ?s <http://p> ?o . '
    'BIND(CONCAT(STR(?o), "x") AS ?y) }',
    # round-3 syntax: paths in groups, subqueries, GROUP_CONCAT
    # modifiers, multi-var VALUES/UNDEF, nested OPTIONAL, DISTINCT
    # aggregates, inline HAVING/ORDER BY aggregates
    'SELECT ?s (GROUP_CONCAT(?o; SEPARATOR=",") AS ?os) '
    'WHERE { ?s <http://p> ?o } GROUP BY ?s',
    'SELECT ?s WHERE { ?s (<http://p>|^<http://q>)/<http://r>* ?o . '
    'OPTIONAL { ?o <http://t>+ ?z . FILTER (STRLEN(STR(?z)) > 2) } }',
    'SELECT * WHERE { { SELECT ?a (SUM(?v) AS ?t) WHERE '
    '{ ?a <http://v> ?v } GROUP BY ?a } ?a <http://n> ?n . FILTER (?t > 10) }',
    'SELECT ?x WHERE { VALUES (?x ?y) { (<urn:a> 1) (UNDEF "z") } '
    '?x <http://p> ?y . MINUS { ?x <http://bad> ?w . FILTER (?w != 0) } }',
    'SELECT ?s WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?x . '
    'OPTIONAL { ?x <http://r> ?y } BIND(COALESCE(?y, "d") AS ?z) } } '
    'ORDER BY DESC(COUNT(?o)) LIMIT 3',
    'SELECT ?s WHERE { ?s <http://p> ?o . FILTER NOT EXISTS '
    '{ ?s <http://q> ?o . VALUES ?o { "a" "b" } } } OFFSET 2',
    # union/nested blocks composing with other top-level patterns
    'SELECT ?d ?v WHERE { ?d <http://l> ?l . '
    '{ ?d <http://p> ?v } UNION { ?d <http://q> ?v . FILTER (?v > 1) } '
    'OPTIONAL { ?d <http://t> ?t } }',
    'SELECT ?s WHERE { { ?s <http://p> ?o } { ?s <http://q> ?v } . '
    '{ SELECT ?s WHERE { ?s <http://r> ?z } } }',
    'SELECT ?s ?v WHERE { ?s <http://p> [ <http://q> ?v ; <http://r> 1, true ] . '
    '[] ?p 10 . }',
    'SELECT ?s WHERE { ?s <http://n> "hi"@en ; '
    '<http://m> "10"^^<http://www.w3.org/2001/XMLSchema#integer> }',
    'SELECT ?v WHERE { _:n <http://q> ?v . _:n <http://r> ?w }',
    # XSD constructor casts (§17.5)
    'PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> SELECT ?s ?n WHERE '
    '{ ?s <http://p> ?o . BIND(xsd:integer(?o) AS ?n) '
    'FILTER (xsd:boolean(xsd:string(?n)) || xsd:decimal(?o) > 1) }',
]
_FUZZ_CHARS = list(
    "{}()<>?$.;,\"'@^|+*/!&=#_: \tabPREFIXSELECTWHEREOPTIONALFILTER"
)


def _mutate_query(seed):
    import random

    rng = random.Random(seed)
    ql = list(rng.choice(_FUZZ_SEED_QUERIES))
    for _ in range(rng.randrange(1, 6)):
        op = rng.random()
        pos = rng.randrange(len(ql)) if ql else 0
        if op < 0.4 and ql:
            del ql[pos]
        elif op < 0.8:
            ql.insert(pos, rng.choice(_FUZZ_CHARS))
        else:
            ql[pos:pos] = list(
                rng.choice(["UNION", "} {", "FILTER (", "??", "<>"])
            )
    return "".join(ql)


def test_parser_garbage_fuzz_slice():
    for seed in range(400):
        mutated = _mutate_query(seed)
        try:
            parse_query(mutated)
        except (SparqlSyntaxError, RecursionError):
            pass  # the only acceptable failures


def test_stray_union_raises_not_hangs():
    # seed-331-shaped input: UNION with no preceding arm used to loop forever
    with pytest.raises(SparqlSyntaxError):
        parse_query('SELECT ?s WHERE { UNION ?s <http://p> ?o }')
    with pytest.raises(SparqlSyntaxError):
        parse_query('ASK { GRAPH <urn:g> { ?s <http://p> ?o } UNION }')


def test_truncated_limit_offset_raise_syntax_error():
    with pytest.raises(SparqlSyntaxError):
        parse_query('SELECT ?s WHERE { ?s <http://p> ?o } LIMIT')
    with pytest.raises(SparqlSyntaxError):
        parse_query('SELECT ?s WHERE { ?s <http://p> ?o } OFFSET ?')
    with pytest.raises(SparqlSyntaxError):
        parse_query('DESCRIBE <urn:x> LIMIT x')


# ---------------------------------------------------------------------------
# [NOT] EXISTS inside FILTER expressions (hidden boolean flag columns)

def _exists_fixture_ds():
    rows = []
    for i in range(20):
        rows.append({"subj": "urn:s%d" % i, "pred": "http://p",
                     "obj_value": str(i)})
        if i % 3 == 0:
            rows.append({"subj": "urn:s%d" % i, "pred": "http://flag",
                         "obj_value": "y"})
        if i % 4 == 0:
            rows.append({"subj": "urn:s%d" % i, "pred": "http://alt",
                         "obj_value": "z"})
    return rd.from_items(rows)


def test_exists_in_filter_expression(ray_session):
    ds = _exists_fixture_ds()
    out = execute(ds, 'SELECT ?s ?o WHERE { ?s <http://p> ?o . '
                      'FILTER (EXISTS { ?s <http://flag> ?f } && ?o != "0") }')
    got = sorted(out.to_pandas()["s"])
    assert got == sorted("urn:s%d" % i for i in range(20)
                         if i % 3 == 0 and i != 0)


def test_not_exists_or_exists_compose(ray_session):
    ds = _exists_fixture_ds()
    out = execute(ds, 'SELECT ?s WHERE { ?s <http://p> ?o . '
                      'FILTER (NOT EXISTS { ?s <http://flag> ?f } '
                      '|| EXISTS { ?s <http://alt> ?a }) }')
    got = sorted(out.to_pandas()["s"])
    assert got == sorted("urn:s%d" % i for i in range(20)
                         if i % 3 != 0 or i % 4 == 0)


def test_exists_expression_join_path(ray_session):
    """broadcast_limit=0 forces the bucketed left-join scale path; it
    must agree exactly with the broadcast path."""
    from rdfa_ray.stages.sparql_text import _exists_flag_column, parse_query
    import pyarrow.compute as pc_

    ds = _exists_fixture_ds()
    plan = parse_query('SELECT ?s WHERE { ?s <http://p> ?o . '
                       'FILTER (EXISTS { ?s <http://flag> ?f }) }')
    (alias, block, extra, negate), = plan["expr_exists"]
    from rdfa_ray.stages.bgp import bgp_match

    b = bgp_match(ds.materialize(), plan["patterns"])
    flagged = _exists_flag_column(
        b, {"s", "o"}, ds.materialize(), block, extra, alias, negate,
        n_buckets=8, broadcast_limit=0,
    ).to_pandas()
    assert sorted(flagged[flagged[alias]]["s"].unique()) == sorted(
        "urn:s%d" % i for i in range(20) if i % 3 == 0
    )
    assert len(flagged) == 20  # left join: no row duplicated or lost


def test_exists_expression_error_cases(ray_session):
    ds = _exists_fixture_ds()
    # uncorrelated EXISTS raises (same stance as the standalone form)
    with pytest.raises(SparqlSyntaxError):
        execute(ds, 'SELECT ?s WHERE { ?s <http://p> ?o . '
                    'FILTER (EXISTS { ?x <http://flag> ?f } || ?o = "1") }'
                ).to_pandas()
    # EXISTS inside BIND / group-local filters: loud not-supported
    with pytest.raises(SparqlSyntaxError):
        parse_query('SELECT ?s WHERE { ?s <http://p> ?o . '
                    'BIND(EXISTS { ?s <http://flag> ?f } AS ?b) }')
    with pytest.raises(SparqlSyntaxError):
        parse_query('SELECT ?s WHERE { ?s <http://p> ?o . OPTIONAL { '
                    '?s <http://alt> ?a . FILTER (EXISTS { ?s <http://flag> ?f }) } }')


def test_exists_expression_explain(ray_session):
    from rdfa_ray.stages.sparql_text import explain

    txt = explain('SELECT ?s WHERE { ?s <http://p> ?o . '
                  'FILTER (NOT EXISTS { ?s <http://flag> ?f }) }')
    # the standalone clause form keeps its dedicated semi/anti join —
    # only parenthesized expression use builds a flag
    assert "EXISTS" in txt


# ---------------------------------------------------------------------------
# ORDER BY expressions over aggregate queries (post-aggregation hidden
# bind columns; scope = group keys + aggregate aliases)

def test_order_by_expr_over_aggregates(ray_session):
    rows = []
    counts = {"a": 1, "bb": 3, "ccc": 2}
    for s, n in counts.items():
        rows += [{"subj": "urn:%s" % s, "pred": "http://v",
                  "obj_value": str(i)} for i in range(n)]
    ds = rd.from_items(rows)
    out = execute(ds, 'SELECT ?s (COUNT(*) AS ?n) WHERE '
                      '{ ?s <http://v> ?o } GROUP BY ?s '
                      'ORDER BY DESC(?n * 10 + STRLEN(STR(?s)))')
    got = list(out.to_pandas()["s"])
    # keys: a -> 1*10+5=15, bb -> 3*10+6=36, ccc -> 2*10+7=27
    assert got == ["urn:bb", "urn:ccc", "urn:a"]


def test_order_by_inline_agg_in_expression(ray_session):
    rows = [{"subj": "urn:s%d" % (i % 3), "pred": "http://v",
             "obj_value": str(i)} for i in range(9)]
    ds = rd.from_items(rows)
    out = execute(ds, 'SELECT ?s WHERE { ?s <http://v> ?o } GROUP BY ?s '
                      'ORDER BY (SUM(?o) * -1) LIMIT 1')
    # sums: s0=0+3+6=9, s1=1+4+7=12, s2=2+5+8=15 -> -15 smallest -> s2
    assert list(out.to_pandas()["s"]) == ["urn:s2"]


def test_order_by_agg_scope_violations_raise():
    base = ('SELECT ?s (COUNT(*) AS ?n) WHERE { ?s <http://v> ?o } '
            'GROUP BY ?s ORDER BY ')
    for tail in ['DESC(?o)', 'DESC(?o + 1)', '?o']:
        with pytest.raises(SparqlSyntaxError):
            parse_query(base + tail)


# ---------------------------------------------------------------------------
# AGG(DISTINCT ...) in HAVING and ORDER BY (hidden distinct aggregates
# ride the mixed per-family exchange; HAVING applies as a post-filter)

def _distinct_agg_ds():
    return rd.from_items(
        [{"subj": "urn:s%d" % (i % 4), "pred": "http://v",
          "obj_value": str(i % (3 + (i % 4)))} for i in range(30)]
    )


def test_having_with_distinct_aggregate(ray_session):
    ds = _distinct_agg_ds()
    import duckdb
    import pandas as pd

    df = ds.to_pandas()
    exp = duckdb.sql(
        "SELECT subj AS s, COUNT(DISTINCT obj_value) AS d FROM df "
        "GROUP BY subj HAVING COUNT(DISTINCT obj_value) > 3 ORDER BY subj"
    ).df()
    got = execute(
        ds,
        'SELECT ?s (COUNT(DISTINCT ?o) AS ?d) WHERE { ?s <http://v> ?o } '
        'GROUP BY ?s HAVING (COUNT(DISTINCT ?o) > 3) ORDER BY ?s',
    ).to_pandas()
    assert got["s"].tolist() == exp["s"].tolist()
    assert got["d"].astype(int).tolist() == exp["d"].astype(int).tolist()


def test_having_distinct_with_plain_projection(ray_session):
    # projected plain aggregate + hidden DISTINCT aggregate in HAVING:
    # two exchanges over the same materialized bindings, group-key join
    ds = _distinct_agg_ds()
    import duckdb

    df = ds.to_pandas()
    exp = duckdb.sql(
        "SELECT subj AS s, COUNT(*) AS n FROM df GROUP BY subj "
        "HAVING COUNT(DISTINCT obj_value) >= 4 ORDER BY subj"
    ).df()
    got = execute(
        ds,
        'SELECT ?s (COUNT(*) AS ?n) WHERE { ?s <http://v> ?o } GROUP BY ?s '
        'HAVING (COUNT(DISTINCT ?o) >= 4) ORDER BY ?s',
    ).to_pandas()
    assert got["s"].tolist() == exp["s"].tolist()
    assert got["n"].astype(int).tolist() == exp["n"].astype(int).tolist()


def test_order_by_distinct_aggregate_key(ray_session):
    ds = _distinct_agg_ds()
    import duckdb

    df = ds.to_pandas()
    exp = duckdb.sql(
        "SELECT subj AS s FROM df GROUP BY subj "
        "ORDER BY COUNT(DISTINCT obj_value) DESC, subj LIMIT 2"
    ).df()
    got = execute(
        ds,
        'SELECT ?s WHERE { ?s <http://v> ?o } GROUP BY ?s '
        'ORDER BY DESC(COUNT(DISTINCT ?o)) ?s LIMIT 2',
    ).to_pandas()
    assert got["s"].tolist() == exp["s"].tolist()


def test_graph_var_excludes_default_graph(ray_session):
    """SPARQL 1.1 §13.3: GRAPH ?g ranges over NAMED graphs only — the
    default graph ('' in the quad layout) must never bind it, while a
    plain triple pattern keeps the engine's rdflib-ConjunctiveGraph
    union-default semantics (matches every graph)."""
    ds = rd.from_items([
        {"subj": "urn:a", "pred": "http://p", "obj_value": "x", "graph": ""},
        {"subj": "urn:b", "pred": "http://p", "obj_value": "y",
         "graph": "urn:g1"},
    ])
    named = execute(
        ds, 'SELECT ?s ?g WHERE { GRAPH ?g { ?s <http://p> ?o } }'
    ).to_pandas()
    assert sorted(zip(named["s"], named["g"])) == [("urn:b", "urn:g1")]
    union = execute(ds, 'SELECT ?s WHERE { ?s <http://p> ?o }').to_pandas()
    assert sorted(union["s"]) == ["urn:a", "urn:b"]


def test_graph_var_inside_groups(ray_session):
    """GRAPH ?g inside OPTIONAL/MINUS/EXISTS bodies: quad patterns with
    a variable 4th term, named-graphs-only scope, graph correlation
    through the group joins."""
    ds = rd.from_items([
        {"subj": "urn:a", "pred": "http://p", "obj_value": "x", "graph": ""},
        {"subj": "urn:b", "pred": "http://p", "obj_value": "y",
         "graph": "urn:g1"},
        {"subj": "urn:c", "pred": "http://p", "obj_value": "z",
         "graph": "urn:g2"},
        {"subj": "urn:b", "pred": "http://q", "obj_value": "m",
         "graph": "urn:g1"},
        {"subj": "urn:c", "pred": "http://q", "obj_value": "n",
         "graph": ""},
    ])
    # OPTIONAL: ?g surfaces; c's default-graph q-row must NOT bind it
    opt = execute(ds, 'SELECT ?s ?g WHERE { ?s <http://p> ?o . '
                      'OPTIONAL { GRAPH ?g { ?s <http://q> ?m } } }'
                  ).to_pandas()
    assert sorted(zip(opt["s"], opt["g"])) == [
        ("urn:a", ""), ("urn:b", "urn:g1"), ("urn:c", "")]
    # MINUS with a probe-local graph var
    mns = execute(ds, 'SELECT ?s WHERE { ?s <http://p> ?o . '
                      'MINUS { GRAPH ?g { ?s <http://q> ?m } } }'
                  ).to_pandas()
    assert sorted(mns["s"]) == ["urn:a", "urn:c"]
    # EXISTS correlated on the graph variable itself
    exi = execute(ds, 'SELECT ?s ?g WHERE { GRAPH ?g { ?s <http://p> ?o } . '
                      'FILTER EXISTS { GRAPH ?g { ?s <http://q> ?m } } }'
                  ).to_pandas()
    assert sorted(zip(exi["s"], exi["g"])) == [("urn:b", "urn:g1")]
    # UNION arms take GRAPH ?g too (bag semantics)
    arm = execute(ds, 'SELECT ?s ?g WHERE { '
                      '{ GRAPH ?g { ?s <http://q> ?m } } UNION '
                      '{ GRAPH ?g { ?s <http://p> ?o } } }').to_pandas()
    assert sorted(zip(arm["s"], arm["g"])) == [
        ("urn:b", "urn:g1"), ("urn:b", "urn:g1"), ("urn:c", "urn:g2")]


def test_graph_var_in_group_rejects_from_and_paths(ray_session):
    ds = rd.from_items([{"subj": "urn:b", "pred": "http://p",
                         "obj_value": "y", "graph": "urn:g1"}])
    # FROM guard fires when the dataset clause is applied (execute time)
    with pytest.raises(SparqlSyntaxError):
        execute(ds, 'SELECT ?s FROM <urn:g1> WHERE { ?s <http://p> ?o . '
                    'OPTIONAL { GRAPH ?g { ?s <http://q> ?m } } }')
    # paths under GRAPH ?var inside groups are supported (per-graph
    # packed keys) — they parse and surface the graph variable
    plan = parse_query('SELECT ?s WHERE { ?s <http://p> ?o . '
                       'OPTIONAL { GRAPH ?g { ?s <http://q>+ ?m } } }')
    (kind, block), = [(k, b) for k, b in plan["groups"]]
    assert kind == "optional" and block[0][3] == "?g"


def test_top_level_graph_group_trailing_dot(ray_session):
    # grammar: '.' after a GraphGraphPattern is optional — was rejected
    ds = rd.from_items([{"subj": "urn:b", "pred": "http://p",
                         "obj_value": "y", "graph": "urn:g1"}])
    out = execute(ds, 'SELECT ?s ?g WHERE { GRAPH ?g { ?s <http://p> ?o } . '
                      '?s <http://p> ?o2 }').to_pandas()
    assert sorted(zip(out["s"], out["g"])) == [("urn:b", "urn:g1")]


# ---------------------------------------------------------------------------
# subqueries composing with GRAPH patterns and dataset clauses

def _sub_graph_ds():
    return rd.from_items([
        {"subj": "urn:s%d" % (i % 4), "pred": "http://v",
         "obj_value": str(i % 5), "graph": "urn:g%d" % (i % 2)}
        for i in range(24)
    ])


def test_subquery_with_quad_base(ray_session):
    import duckdb

    ds = _sub_graph_ds()
    df = ds.to_pandas()
    got = execute(
        ds,
        'SELECT ?s ?t WHERE { GRAPH <urn:g1> { ?s <http://v> ?o } . '
        '{ SELECT ?s (COUNT(*) AS ?t) WHERE { ?s <http://v> ?x } '
        'GROUP BY ?s } }',
    ).to_pandas().drop_duplicates().sort_values("s")
    exp = duckdb.sql(
        "SELECT DISTINCT a.subj AS s, b.t FROM df a JOIN "
        "(SELECT subj, COUNT(*) AS t FROM df GROUP BY subj) b "
        "ON b.subj = a.subj WHERE a.graph = 'urn:g1' ORDER BY s"
    ).df()
    assert got["s"].tolist() == exp["s"].tolist()
    assert got["t"].astype(int).tolist() == exp["t"].astype(int).tolist()


def test_subquery_under_from_clause(ray_session):
    """SPARQL subqueries evaluate against the OUTER dataset: a FROM
    clause restricts the subquery's aggregate too."""
    import duckdb

    ds = _sub_graph_ds()
    df = ds.to_pandas()
    got = execute(
        ds,
        'SELECT ?s ?t FROM <urn:g0> WHERE { ?s <http://v> ?o . '
        '{ SELECT ?s (COUNT(*) AS ?t) WHERE { ?s <http://v> ?x } '
        'GROUP BY ?s } }',
    ).to_pandas().drop_duplicates().sort_values("s")
    exp = duckdb.sql(
        "SELECT DISTINCT a.subj AS s, b.t FROM df a JOIN "
        "(SELECT subj, COUNT(*) AS t FROM df WHERE graph = 'urn:g0' "
        "GROUP BY subj) b ON b.subj = a.subj WHERE a.graph = 'urn:g0' "
        "ORDER BY s"
    ).df()
    assert got["s"].tolist() == exp["s"].tolist()
    assert got["t"].astype(int).tolist() == exp["t"].astype(int).tolist()


def test_subquery_graph_var_under_from_raises(ray_session):
    ds = _sub_graph_ds()
    with pytest.raises(SparqlSyntaxError):
        execute(ds, 'SELECT ?s FROM <urn:g0> WHERE { ?s <http://v> ?o . '
                    '{ SELECT ?s WHERE { GRAPH ?g { ?s <http://v> ?x } } } }')


def test_paths_under_variable_graph(ray_session):
    """Property paths under GRAPH ?g run per-graph via graph-packed
    node keys: closures never cross graphs, default-graph rows are out
    of scope, and ?g binds per path solution."""
    ds = rd.from_items([
        {"subj": "urn:a", "pred": "http://p", "obj_value": "urn:b",
         "graph": "urn:g1"},
        {"subj": "urn:b", "pred": "http://p", "obj_value": "urn:c",
         "graph": "urn:g1"},
        {"subj": "urn:c", "pred": "http://p", "obj_value": "urn:d",
         "graph": "urn:g2"},
        {"subj": "urn:d", "pred": "http://p", "obj_value": "urn:e",
         "graph": ""},
        {"subj": "urn:b", "pred": "http://q", "obj_value": "urn:z",
         "graph": "urn:g1"},
    ])
    plus = execute(ds, 'SELECT ?g ?s ?o WHERE '
                       '{ GRAPH ?g { ?s <http://p>+ ?o } }').to_pandas()
    assert sorted(zip(plus["g"], plus["s"], plus["o"])) == [
        ("urn:g1", "urn:a", "urn:b"),
        ("urn:g1", "urn:a", "urn:c"),   # closes within g1
        ("urn:g1", "urn:b", "urn:c"),
        ("urn:g2", "urn:c", "urn:d"),   # NOT c->e: no cross-graph hop
    ]
    seq = execute(ds, 'SELECT ?g ?s ?o WHERE '
                      '{ GRAPH ?g { ?s <http://p>/<http://q> ?o } }'
                  ).to_pandas()
    assert sorted(zip(seq["g"], seq["s"], seq["o"])) == [
        ("urn:g1", "urn:a", "urn:z")]
    const = execute(ds, 'SELECT ?g ?o WHERE '
                        '{ GRAPH ?g { <urn:a> <http://p>+ ?o } }'
                    ).to_pandas()
    assert sorted(zip(const["g"], const["o"])) == [
        ("urn:g1", "urn:b"), ("urn:g1", "urn:c")]
    # path + plain pattern sharing ?g and ?s compose in one block
    both = execute(ds, 'SELECT ?g ?s WHERE { GRAPH ?g { '
                       '?s <http://p>+ <urn:c> . ?s <http://p> ?x } }'
                   ).to_pandas().drop_duplicates()
    assert sorted(zip(both["g"], both["s"])) == [
        ("urn:g1", "urn:a"), ("urn:g1", "urn:b")]


def test_strlang_strdt_tagged_binds(ray_session):
    """STRLANG/STRDT construct tagged literals in BIND: the lexical
    value is a normal bind column and the tag rides as bind-attached
    ?v__lang/?v__datatype metadata — LANG()/DATATYPE()/ISLITERAL()
    read it like scan-carried metadata, on ANY input (no metadata
    view needed), and lang tags normalize lowercase."""
    rows = [("a", "http://p", "hello"), ("b", "http://p", "welt")]
    ds = _triples(rows)  # plain (subj, pred, obj_value) — no meta cols
    out = execute(
        ds,
        'SELECT ?s (LANG(?y) AS ?tag) WHERE { ?s <http://p> ?o .'
        ' BIND(STRLANG(?o, "EN") AS ?y)'
        ' FILTER(LANGMATCHES(LANG(?y), "en")) }',
        n_buckets=2,
    )
    assert _rows(out, ["s", "tag"]) == [("a", "en"), ("b", "en")]
    out2 = execute(
        ds,
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
        "SELECT ?s (DATATYPE(?y) AS ?dt) WHERE { ?s <http://p> ?o ."
        " BIND(STRDT(STRLEN(?o), xsd:integer) AS ?y)"
        " FILTER(ISLITERAL(?y) && ISNUMERIC(?y)) }",
        n_buckets=2,
    )
    xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
    assert _rows(out2, ["s", "dt"]) == [("a", xsd_int), ("b", xsd_int)]
    # the tag argument may be an expression over bound variables
    out3 = execute(
        ds,
        "SELECT ?s WHERE { ?s <http://p> ?o ."
        ' BIND(STRLANG(?o, ?s) AS ?y) FILTER(LANG(?y) = "b") }',
        n_buckets=2,
    )
    assert _rows(out3, ["s"]) == [("b",)]
    # constructors stay BIND-only in this fragment
    with pytest.raises(SparqlSyntaxError):
        execute(ds, 'SELECT ?s WHERE { ?s <http://p> ?o .'
                    ' FILTER(STRLANG(?o, "en") = "x") }')
    with pytest.raises(SparqlSyntaxError):
        execute(ds, "SELECT ?s WHERE { ?s <http://p> ?o ."
                    " BIND(STRDT(?o, ?s) AS ?y) }")  # non-constant dt
    from rdfa_ray.stages.sparql_text import explain

    plan = explain(
        'SELECT ?s WHERE { ?s <http://p> ?o . BIND(STRLANG(?o, "en") AS ?y) }'
    )
    assert "tagged binds" in plan


def test_describe_multiple_vars_and_empty_construct(ray_session):
    ds = rd.from_arrow(pa.table({
        "subj": pa.array(["a", "b", "c"]),
        "pred": pa.array(["http://p", "http://q", "http://r"]),
        "obj_value": pa.array(["b", "c", "d"]),
    }))
    # DESCRIBE ?s ?o: union of both variables' solution values
    d = execute(ds, "DESCRIBE ?s ?o WHERE { ?s <http://p> ?o }",
                n_buckets=2).to_pandas()
    assert sorted(d["subj"]) == ["a", "b"]  # 'b' described via ?o
    # empty CONSTRUCT template (§16.2) -> empty graph, not a crash
    c = execute(ds, "CONSTRUCT {} WHERE { ?s ?p ?o }",
                n_buckets=2).to_pandas()
    # (schema of an all-empty Dataset collapses in to_pandas; the
    # contract here is "empty graph, no crash")
    assert len(c) == 0


def test_datetime_accessors_on_multichunk_block(ray_session):
    """pyarrow 16.1 regression (caught by the sf0.1 all-queries sweep):
    string kernel chains over a MULTI-CHUNK large_string column emitted
    later chunks carrying the first chunk's offsets — TIMEZONE() on a
    batch assembled from two blocks crashed combine_chunks.  _as_str
    now combines chunks first."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rdfa_ray.stages.sparql_text import _as_str

    vals = ["2020-01-01T00:00:00Z"] * 4096 + ["2023-03-20T16:52:28+05:30"] * 280
    arr = pa.chunked_array(
        [pa.array(vals[:4096], pa.large_string()),
         pa.array(vals[4096:], pa.large_string())]
    )
    s = _as_str(arr)
    ex = pc.extract_regex(s, r"(?:(?P<z>Z)|(?P<sign>[+-])(?P<h>\d\d):(?P<m>\d\d))$")
    hs = pc.fill_null(pc.struct_field(ex, "h"), "")
    hn = pc.cast(pc.if_else(pc.equal(hs, ""), pa.scalar("0"), hs), pa.int32())
    hpart = pc.if_else(
        pc.greater(hn, 0),
        pc.binary_join_element_wise(pc.cast(hn, pa.string()), "H", ""),
        "",
    )
    out = hpart.combine_chunks() if isinstance(hpart, pa.ChunkedArray) else hpart
    out.validate(full=True)  # used to raise "offset out of bounds"
    assert out.to_pylist()[-1] == "5H"  # tz offset +05:30 -> h=05


def test_truncated_prefix_raises_syntax_error():
    """Bare 'PREFIX' at end of input is a syntax error, not an
    AttributeError (found by the round-5 garbage fuzz)."""
    import pytest

    from rdfa_ray.stages.sparql_text import SparqlSyntaxError, parse_query

    for q in ("PREFIX", "PREFIX ", "PREFIX PREFIX SELECT * WHERE { ?s ?p ?o }"):
        with pytest.raises((SparqlSyntaxError, ValueError)):
            parse_query(q)
    with pytest.raises((SparqlSyntaxError, ValueError)):
        parse_query("PREFIX ex:")  # pname but no <iri>
