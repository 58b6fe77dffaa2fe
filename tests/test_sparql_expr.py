"""SPARQL 1.1 expression / function library (sparql_text's
_FilterCompiler value layer): arithmetic, string and numeric
functions, BOUND/COALESCE/IF — in BIND and in FILTER comparisons."""

import pyarrow as pa
import pytest
import ray.data as rd

from rdfa_ray.stages.sparql_text import SparqlSyntaxError, execute

pytestmark = pytest.mark.usefixtures("both_executors")

PREFIX = "PREFIX ex: <http://ex.org/>\n"


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


ROWS = [
    ("a", "http://ex.org/size", "10"),
    ("b", "http://ex.org/size", "200"),
    ("c", "http://ex.org/size", "30"),
    ("a", "http://ex.org/name", "alpha:one"),
    ("b", "http://ex.org/name", "beta:two"),
    ("a", "http://ex.org/nick", "Al"),
]


def _run(q, rows=ROWS):
    return execute(_triples(rows), PREFIX + q, n_buckets=4).to_pandas()


def _col(df, var):
    return dict(zip(df["d"], df[var]))


def test_bind_arithmetic(ray_session):
    df = _run(
        "SELECT ?d ?x WHERE { ?d ex:size ?s . BIND(?s * 2 + 1 AS ?x) }"
    )
    assert _col(df, "x") == {"a": 21.0, "b": 401.0, "c": 61.0}


def test_bind_precedence_and_parens(ray_session):
    df = _run(
        "SELECT ?d ?x WHERE { ?d ex:size ?s . BIND((?s + 2) * 10 AS ?x) }"
    )
    assert _col(df, "x") == {"a": 120.0, "b": 2020.0, "c": 320.0}


def test_unary_minus_and_division(ray_session):
    df = _run(
        "SELECT ?d ?x WHERE { ?d ex:size ?s . BIND(- ?s / 4 AS ?x) }"
    )
    assert _col(df, "x") == {"a": -2.5, "b": -50.0, "c": -7.5}


def test_filter_arithmetic_comparison(ray_session):
    df = _run(
        "SELECT ?d WHERE { ?d ex:size ?s . FILTER ((?s + 1) * 2 > 60) }"
    )
    assert sorted(df["d"]) == ["b", "c"]


def test_numeric_functions(ray_session):
    df = _run(
        "SELECT ?d ?f ?c ?r ?ab WHERE { ?d ex:size ?s ."
        " BIND(FLOOR(?s / 7) AS ?f) BIND(CEIL(?s / 7) AS ?c)"
        " BIND(ROUND(?s / 7) AS ?r) BIND(ABS(10 - ?s) AS ?ab) }"
    )
    got = df.set_index("d")
    # a: 10/7=1.428.. -> floor 1 ceil 2 round 1 ; abs(0)=0
    assert got.loc["a", ["f", "c", "r", "ab"]].tolist() == [1.0, 2.0, 1.0, 0.0]
    # b: 200/7=28.57 -> 28, 29, 29 ; abs(-190)=190
    assert got.loc["b", ["f", "c", "r", "ab"]].tolist() == [28.0, 29.0, 29.0, 190.0]


def test_round_half_up(ray_session):
    # XPath fn:round: halves go toward +inf (2.5 -> 3, not banker's 2)
    df = _run(
        "SELECT ?d ?r WHERE { ?d ex:size ?s . FILTER (?s = 10)"
        " BIND(ROUND(?s / 4) AS ?r) }"
    )
    assert df["r"].iloc[0] == 3.0


def test_string_functions(ray_session):
    df = _run(
        'SELECT ?d ?u ?sub ?pre ?post ?rep ?n WHERE { ?d ex:name ?nm .'
        " BIND(UCASE(?nm) AS ?u) BIND(SUBSTR(?nm, 1, 4) AS ?sub)"
        ' BIND(STRBEFORE(?nm, ":") AS ?pre) BIND(STRAFTER(?nm, ":") AS ?post)'
        ' BIND(REPLACE(?nm, "[aeiou]", "_") AS ?rep) BIND(STRLEN(?nm) AS ?n) }'
    )
    got = df.set_index("d")
    assert got.loc["a", "u"] == "ALPHA:ONE"
    assert got.loc["a", "sub"] == "alph"
    assert got.loc["a", "pre"] == "alpha" and got.loc["a", "post"] == "one"
    assert got.loc["b", "rep"] == "b_t_:tw_"
    assert got.loc["a", "n"] == 9.0


def test_strbefore_strafter_absent_separator(ray_session):
    # SPARQL: no match -> ""
    df = _run(
        'SELECT ?d ?pre ?post WHERE { ?d ex:nick ?k .'
        ' BIND(STRBEFORE(?k, ":") AS ?pre) BIND(STRAFTER(?k, ":") AS ?post) }'
    )
    assert df["pre"].iloc[0] == "" and df["post"].iloc[0] == ""


def test_strbefore_strafter_null_empty_separator_and_non_ascii(ray_session):
    rows = ROWS + [
        ("a", "http://ex.org/tag", "süß–straße–x"),
        ("b", "http://ex.org/tag", "日本:語"),
    ]
    df = _run(
        "SELECT ?d ?pre ?post ?e0 ?e1 ?k WHERE { ?d ex:size ?s ."
        " OPTIONAL { ?d ex:tag ?t }"
        ' BIND(STRBEFORE(?t, "–") AS ?pre) BIND(STRAFTER(?t, "–") AS ?post)'
        ' BIND(STRBEFORE(?t, "") AS ?e0) BIND(STRAFTER(?t, "") AS ?e1)'
        ' BIND(STRAFTER("日本:語", ":") AS ?k) }',
        rows=rows,
    )
    # c has no tag: an unbound operand reads "" (never null)
    assert _col(df, "pre") == {"a": "süß", "b": "", "c": ""}
    assert _col(df, "post") == {"a": "straße–x", "b": "", "c": ""}
    assert _col(df, "e0") == {"a": "", "b": "", "c": ""}
    assert _col(df, "e1") == {"a": "süß–straße–x", "b": "日本:語", "c": ""}
    assert _col(df, "k") == {"a": "語", "b": "語", "c": "語"}


def test_concat_mixed_expressions(ray_session):
    df = _run(
        'SELECT ?d ?tag WHERE { ?d ex:name ?nm .'
        ' BIND(CONCAT(UCASE(STRBEFORE(?nm, ":")), "-", STRAFTER(?nm, ":")) AS ?tag) }'
    )
    assert _col(df, "tag") == {"a": "ALPHA-one", "b": "BETA-two"}


def test_bound_and_coalesce_over_optional(ray_session):
    q = (
        "SELECT ?d ?has ?k2 WHERE { ?d ex:size ?s ."
        " OPTIONAL { ?d ex:nick ?k }"
        ' BIND(IF(BOUND(?k), "y", "n") AS ?has)'
        ' BIND(COALESCE(?k, "anon") AS ?k2) }'
    )
    df = _run(q)
    assert _col(df, "has") == {"a": "y", "b": "n", "c": "n"}
    assert _col(df, "k2") == {"a": "Al", "b": "anon", "c": "anon"}


def test_filter_bound_negation(ray_session):
    q = (
        "SELECT ?d WHERE { ?d ex:size ?s ."
        " OPTIONAL { ?d ex:nick ?k } FILTER (!BOUND(?k)) }"
    )
    assert sorted(_run(q)["d"]) == ["b", "c"]


def test_if_numeric_branches(ray_session):
    df = _run(
        "SELECT ?d ?band WHERE { ?d ex:size ?s ."
        " BIND(IF(?s >= 100, ?s / 100, 0) AS ?band) }"
    )
    assert _col(df, "band") == {"a": 0.0, "b": 2.0, "c": 0.0}


def test_bind_then_filter_on_bound_var(ray_session):
    df = _run(
        "SELECT ?d WHERE { ?d ex:size ?s . BIND(?s * 3 AS ?t)"
        " FILTER (?t >= 90) }"
    )
    assert sorted(df["d"]) == ["b", "c"]


def test_numeric_type_error_drops_row(ray_session):
    # name is non-numeric: ?nm * 2 is a SPARQL type error -> row drops
    df = _run(
        "SELECT ?d WHERE { ?d ex:name ?nm . FILTER (?nm * 2 > 0) }"
    )
    assert len(df) == 0


def test_contains_on_expression(ray_session):
    df = _run(
        'SELECT ?d WHERE { ?d ex:name ?nm . FILTER (CONTAINS(UCASE(?nm), "ALPHA")) }'
    )
    assert sorted(df["d"]) == ["a"]


def test_unsupported_function_is_loud(ray_session):
    with pytest.raises(SparqlSyntaxError):
        _run("SELECT ?d WHERE { ?d ex:size ?s . BIND(STRUUID(?s) AS ?x) }")


def test_expr_vs_duckdb_oracle(ray_session):
    """Dual-oracle: the same expression pipeline in DuckDB SQL."""
    import duckdb

    q = (
        "SELECT ?d ?score WHERE { ?d ex:size ?s ."
        " BIND(FLOOR((?s + 5) / 3) AS ?score) FILTER (?score > 4) }"
    )
    got = _run(q).sort_values("d").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE t(subj VARCHAR, pred VARCHAR, obj_value VARCHAR)"
    )
    con.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    want = con.execute(
        "SELECT subj AS d, FLOOR((CAST(obj_value AS DOUBLE) + 5) / 3) AS score"
        " FROM t WHERE pred = 'http://ex.org/size'"
        " AND FLOOR((CAST(obj_value AS DOUBLE) + 5) / 3) > 4 ORDER BY d"
    ).fetchdf()
    assert got["d"].tolist() == want["d"].tolist()
    assert got["score"].tolist() == want["score"].tolist()


def test_filter_in_and_not_in(ray_session):
    df = _run('SELECT ?d WHERE { ?d ex:size ?s . FILTER (?s IN ("10", "30")) }')
    assert sorted(df["d"]) == ["a", "c"]
    df = _run(
        'SELECT ?d WHERE { ?d ex:size ?s . FILTER (?s NOT IN ("10", "30")) }'
    )
    assert sorted(df["d"]) == ["b"]


def test_aggregate_over_expression(ray_session):
    df = _run(
        "SELECT (SUM(?s * 2) AS ?tot) (MAX(STRLEN(?nm)) AS ?mx) WHERE {"
        " ?d ex:size ?s . ?d ex:name ?nm }"
    )
    # only a and b have names: sum = (10+200)*2 = 420; max len = 9
    assert df["tot"].iloc[0] == 420.0
    assert df["mx"].iloc[0] == 9.0


def test_aggregate_expr_with_group_by(ray_session):
    rows = ROWS + [("c", "http://ex.org/name", "gamma:three")]
    df = _run(
        "SELECT ?nm (SUM(?s + 1) AS ?t) WHERE {"
        " ?d ex:size ?s . ?d ex:name ?nm } GROUP BY ?nm",
        rows=rows,
    ).sort_values("nm")
    assert df["t"].tolist() == [11.0, 201.0, 31.0]


def test_aggregate_expr_over_user_bind(ray_session):
    df = _run(
        "SELECT (SUM(?half) AS ?t) WHERE { ?d ex:size ?s ."
        " BIND(?s / 2 AS ?half) }"
    )
    assert df["t"].iloc[0] == 120.0


def _meta_triples_ds(rows):
    """rows: (subj, pred, obj_value, obj_lang, obj_datatype[, obj_kind])
    — kind defaults to "literal"."""
    rows = [r if len(r) == 6 else (*r, "literal") for r in rows]
    subj, pred, obj, lang, dt, kind = zip(*rows)
    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(pred, pa.string()),
                "obj_value": pa.array(obj, pa.string()),
                "obj_lang": pa.array(lang, pa.string()),
                "obj_datatype": pa.array(dt, pa.string()),
                "obj_kind": pa.array(kind, pa.string()),
            }
        )
    )


META_ROWS = [
    ("a", "http://ex.org/name", "chat", "fr", ""),
    ("b", "http://ex.org/name", "chat", "en", ""),
    ("c", "http://ex.org/name", "42", "", "http://www.w3.org/2001/XMLSchema#int"),
    ("a", "http://ex.org/size", "10", "", ""),
    ("b", "http://ex.org/size", "20", "", ""),
    ("c", "http://ex.org/size", "30", "", ""),
]


def test_lang_filter_and_bind(ray_session):
    ds = _meta_triples_ds(META_ROWS)
    df = execute(
        ds,
        PREFIX + 'SELECT ?d WHERE { ?d ex:name ?v . FILTER (LANG(?v) = "fr") }',
        n_buckets=4,
    ).to_pandas()
    assert sorted(df["d"]) == ["a"]
    df = execute(
        ds,
        PREFIX + "SELECT ?d ?l WHERE { ?d ex:name ?v . BIND(LANG(?v) AS ?l) }",
        n_buckets=4,
    ).to_pandas()
    assert dict(zip(df["d"], df["l"])) == {"a": "fr", "b": "en", "c": ""}


def test_datatype_survives_join(ray_session):
    # meta must ride through the multi-pattern BGP join
    ds = _meta_triples_ds(META_ROWS)
    df = execute(
        ds,
        PREFIX
        + "SELECT ?d ?dt WHERE { ?d ex:size ?s . ?d ex:name ?v ."
        " BIND(DATATYPE(?v) AS ?dt) FILTER (?s > 15) }",
        n_buckets=4,
    ).to_pandas()
    got = dict(zip(df["d"], df["dt"]))
    assert got == {
        "b": "",
        "c": "http://www.w3.org/2001/XMLSchema#int",
    }


def test_lang_needs_meta_view_is_loud(ray_session):
    ds = _triples([(s, p, o) for s, p, o, _l, _d in META_ROWS])
    with pytest.raises(Exception):
        execute(
            ds,
            PREFIX + 'SELECT ?d WHERE { ?d ex:name ?v . FILTER (LANG(?v) = "fr") }',
            n_buckets=4,
        ).to_pandas()


def test_lang_outside_supported_shapes_is_loud(ray_session):
    # base-var LANG with OPTIONAL now composes (see
    # test_lang_composes_with_optional_and_minus); UNION stays a loud
    # rejection — arms build separate scans that drop the meta columns
    ds = _meta_triples_ds(META_ROWS)
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            PREFIX
            + "SELECT ?d WHERE { { ?d ex:name ?v } UNION { ?d ex:size ?v }"
            ' FILTER (LANG(?v) = "fr") }',
            n_buckets=4,
        )


def test_langmatches_and_sameterm(ray_session):
    ds = _meta_triples_ds(
        META_ROWS
        + [("d", "http://ex.org/name", "hello", "en-US", "")]
    )
    # '*' matches any tagged literal; prefix matching is on '-' bounds
    df = execute(
        ds,
        PREFIX
        + 'SELECT ?d WHERE { ?d ex:name ?v . FILTER (LANGMATCHES(LANG(?v), "*")) }',
        n_buckets=4,
    ).to_pandas()
    assert sorted(df["d"]) == ["a", "b", "d"]
    df = execute(
        ds,
        PREFIX
        + 'SELECT ?d WHERE { ?d ex:name ?v . FILTER (LANGMATCHES(LANG(?v), "EN")) }',
        n_buckets=4,
    ).to_pandas()
    assert sorted(df["d"]) == ["b", "d"]
    df = execute(
        ds,
        PREFIX
        + 'SELECT ?d WHERE { ?d ex:size ?s . ?d ex:name ?v .'
        " FILTER (SAMETERM(?s, \"10\")) }",
        n_buckets=4,
    ).to_pandas()
    assert sorted(df["d"]) == ["a"]


def test_hash_and_encode_functions(ray_session):
    import hashlib
    import urllib.parse

    df = _run(
        'SELECT ?d ?m ?s1 ?s2 ?s3 ?s4 ?e WHERE { ?d ex:name ?nm .'
        " BIND(MD5(?nm) AS ?m) BIND(SHA1(?nm) AS ?s1)"
        " BIND(SHA256(?nm) AS ?s2) BIND(SHA384(?nm) AS ?s3)"
        " BIND(SHA512(?nm) AS ?s4) BIND(ENCODE_FOR_URI(?nm) AS ?e) }"
    ).set_index("d")
    for d, nm in (("a", "alpha:one"), ("b", "beta:two")):
        assert df.loc[d, "m"] == hashlib.md5(nm.encode()).hexdigest()
        assert df.loc[d, "s1"] == hashlib.sha1(nm.encode()).hexdigest()
        assert df.loc[d, "s2"] == hashlib.sha256(nm.encode()).hexdigest()
        assert df.loc[d, "s3"] == hashlib.sha384(nm.encode()).hexdigest()
        assert df.loc[d, "s4"] == hashlib.sha512(nm.encode()).hexdigest()
        assert df.loc[d, "e"] == urllib.parse.quote(nm, safe="")


TERM_ROWS = [
    ("a", "http://ex.org/rel", "http://other.org/x", "", "", "iri"),
    ("b", "http://ex.org/rel", "_:n1", "", "", "bnode"),
    ("c", "http://ex.org/rel", "plain", "", "", "literal"),
    (
        "d", "http://ex.org/rel", "7", "",
        "http://www.w3.org/2001/XMLSchema#integer", "literal",
    ),
]


def test_term_tests(ray_session):
    ds = _meta_triples_ds(TERM_ROWS)
    for fn, want in (
        ("ISIRI", ["a"]),
        ("ISURI", ["a"]),
        ("ISBLANK", ["b"]),
        ("ISLITERAL", ["c", "d"]),
        ("ISNUMERIC", ["d"]),
    ):
        df = execute(
            ds,
            PREFIX
            + "SELECT ?s WHERE { ?s ex:rel ?o . FILTER (%s(?o)) }" % fn,
            n_buckets=4,
        ).to_pandas()
        assert sorted(df["s"]) == want, (fn, df)


def test_term_test_in_if_bind(ray_session):
    ds = _meta_triples_ds(TERM_ROWS)
    df = execute(
        ds,
        PREFIX
        + 'SELECT ?s ?k WHERE { ?s ex:rel ?o .'
        ' BIND(IF(ISIRI(?o), "i", IF(ISNUMERIC(?o), "n", "x")) AS ?k) }',
        n_buckets=4,
    ).to_pandas().set_index("s")
    assert df.loc["a", "k"] == "i"
    assert df.loc["d", "k"] == "n"
    assert df.loc["b", "k"] == "x"
    assert df.loc["c", "k"] == "x"


DT_ROWS = [
    ("a", "http://ex.org/at", "2021-03-05", "",
     "http://www.w3.org/2001/XMLSchema#date"),
    ("b", "http://ex.org/at", "2022-11-30T07:45:12Z", "",
     "http://www.w3.org/2001/XMLSchema#dateTime"),
    ("c", "http://ex.org/at", "1999-01-02T23:59:07.25+05:30", "",
     "http://www.w3.org/2001/XMLSchema#dateTime"),
    ("d", "http://ex.org/at", "not a date", "", ""),
]


def test_datetime_accessors(ray_session):
    ds = _meta_triples_ds(DT_ROWS)
    df = execute(
        ds,
        PREFIX
        + "SELECT ?s ?y ?mo ?dd ?hh ?mi ?ss ?tz WHERE { ?s ex:at ?v ."
        " BIND(YEAR(?v) AS ?y) BIND(MONTH(?v) AS ?mo)"
        " BIND(DAY(?v) AS ?dd) BIND(HOURS(?v) AS ?hh)"
        " BIND(MINUTES(?v) AS ?mi) BIND(SECONDS(?v) AS ?ss)"
        " BIND(TZ(?v) AS ?tz) }",
        n_buckets=4,
    ).to_pandas().set_index("s")
    assert (df.loc["a", ["y", "mo", "dd"]].astype(float) == [2021, 3, 5]).all()
    assert df.loc["a", "tz"] == ""
    assert (
        df.loc["b", ["y", "mo", "dd", "hh", "mi", "ss"]].astype(float)
        == [2022, 11, 30, 7, 45, 12]
    ).all()
    assert df.loc["b", "tz"] == "Z"
    assert float(df.loc["c", "ss"]) == 59.07 or float(df.loc["c", "ss"]) == 7.25
    assert df.loc["c", "tz"] == "+05:30"


def test_timezone_function(ray_session):
    # TIMEZONE() = the tz designator as an xsd:dayTimeDuration lexical
    # form; a tz-less value is the spec's type error -> unbound (null)
    rows = DT_ROWS + [
        ("e", "http://ex.org/at", "2020-06-01T10:00:00-08:00", "",
         "http://www.w3.org/2001/XMLSchema#dateTime"),
        ("f", "http://ex.org/at", "2020-06-01T10:00:00+00:00", "",
         "http://www.w3.org/2001/XMLSchema#dateTime"),
        ("g", "http://ex.org/at", "2020-06-01T10:00:00-00:30", "",
         "http://www.w3.org/2001/XMLSchema#dateTime"),
    ]
    ds = _meta_triples_ds(rows)
    df = execute(
        ds,
        PREFIX
        + "SELECT ?s ?d WHERE { ?s ex:at ?v ."
        " BIND(TIMEZONE(?v) AS ?d) }",
        n_buckets=4,
    ).to_pandas().set_index("s")
    assert df.loc["b", "d"] == "PT0S"        # trailing Z
    assert df.loc["c", "d"] == "PT5H30M"     # +05:30
    assert df.loc["e", "d"] == "-PT8H"       # -08:00
    assert df.loc["f", "d"] == "PT0S"        # +00:00 is the zero duration
    assert df.loc["g", "d"] == "-PT30M"      # -00:30
    # 'a' (plain date, no tz) and 'd' (not a date): type error -> null
    assert df.loc["a", "d"] is None or df.loc["a", "d"] != df.loc["a", "d"]
    # filters drop the error rows (engine-wide SPARQL error stance)
    df2 = execute(
        ds,
        PREFIX
        + 'SELECT ?s WHERE { ?s ex:at ?v .'
        ' FILTER (TIMEZONE(?v) = "PT0S") }',
        n_buckets=4,
    ).to_pandas()
    assert sorted(df2["s"]) == ["b", "f"]


def test_datetime_filter_on_year(ray_session):
    ds = _meta_triples_ds(DT_ROWS)
    df = execute(
        ds,
        PREFIX
        + "SELECT ?s WHERE { ?s ex:at ?v . FILTER (YEAR(?v) >= 2021) }",
        n_buckets=4,
    ).to_pandas()
    # 'not a date' parses to null -> fails the comparison (unbound stance)
    assert sorted(df["s"]) == ["a", "b"]


def test_lang_composes_with_optional_and_minus(ray_session):
    # metadata pseudo-columns ride the base scan and survive the group
    # joins — LANG() no longer forces a plain-BGP query
    ds = _meta_triples_ds(META_ROWS)
    df = execute(
        ds,
        PREFIX + 'SELECT ?d ?n WHERE { ?d ex:name ?v .'
        ' FILTER (LANG(?v) = "fr") OPTIONAL { ?d ex:size ?n } }',
        n_buckets=4,
    ).to_pandas()
    assert sorted(map(tuple, df[["d", "n"]].values.tolist())) == [("a", "10")]
    df = execute(
        ds,
        PREFIX + 'SELECT ?d WHERE { ?d ex:name ?v .'
        ' FILTER (LANG(?v) != "") MINUS { ?d ex:size "20" } }',
        n_buckets=4,
    ).to_pandas()
    assert sorted(df["d"]) == ["a"]


def test_lang_composes_with_union_blocks_and_subqueries(ray_session):
    """Meta pseudo-columns ride the base bindings through union-block
    and subquery joins, so LANG() composes with both."""
    ds = _meta_triples_ds(META_ROWS)
    df = execute(
        ds,
        PREFIX + 'SELECT ?d ?v WHERE { ?d ex:name ?n .'
        ' FILTER (LANG(?n) != "")'
        ' { ?d ex:size ?v } UNION { ?d ex:name ?v } }',
        n_buckets=4,
    ).to_pandas()
    assert len(df) > 0
    df2 = execute(
        ds,
        PREFIX + 'SELECT ?d ?c WHERE { ?d ex:name ?n .'
        ' FILTER (LANG(?n) != "")'
        ' { SELECT ?d (COUNT(*) AS ?c) WHERE { ?d ?p ?o } GROUP BY ?d } }',
        n_buckets=4,
    ).to_pandas()
    assert len(df2) > 0 and all(int(c) >= 1 for c in df2["c"])


def test_meta_of_group_var_rejected(ray_session):
    # metadata functions reference base-BGP object variables only —
    # an optional-side variable raises, never a silent unbound read
    ds = _meta_triples_ds(META_ROWS)
    with pytest.raises(SparqlSyntaxError):
        execute(
            ds,
            PREFIX + "SELECT ?d WHERE { ?d ex:name ?v ."
            ' OPTIONAL { ?d ex:size ?n } FILTER (LANG(?n) = "") }',
            n_buckets=4,
        ).to_pandas()


# --------------------------------------------------------------------------
# XPath constructor casts (SPARQL 1.1 §17.5): xsd:TYPE(expr)

XSD_PREFIX = "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

CAST_ROWS = [
    ("a", "http://ex.org/size", "10"),
    ("b", "http://ex.org/size", "3.7"),
    ("c", "http://ex.org/size", "-3.7"),
    ("d", "http://ex.org/size", "oops"),
    ("a", "http://ex.org/flag", "1"),
    ("b", "http://ex.org/flag", "false"),
    ("c", "http://ex.org/flag", "maybe"),
    ("a", "http://ex.org/when", "2020-01-02T03:04:05Z"),
    ("b", "http://ex.org/when", "not a date"),
]


def test_xsd_integer_truncates_and_nulls(ray_session):
    # xs:integer truncates toward zero; an unparseable lexical is a
    # type error -> unbound (null), never a crash
    df = _run(
        XSD_PREFIX + "SELECT ?d ?n WHERE { ?d ex:size ?s ."
        " BIND(xsd:integer(?s) AS ?n) }",
        rows=CAST_ROWS,
    )
    got = _col(df, "n")
    assert got["a"] == 10.0 and got["b"] == 3.0 and got["c"] == -3.0
    assert got["d"] != got["d"]  # NaN == unbound


@pytest.mark.parametrize("lex", ["1_000", "١", "nan"])
def test_numeric_constant_reads_like_a_column(ray_session, lex):
    # a folded constant and the same lexical in a column take one
    # numeric rule: pandas' grammar, under which these are not numbers
    rows = [("a", "http://ex.org/v", lex), ("b", "http://ex.org/v", "5")]
    kept = {}
    for operand in ("?v", '"%s"' % lex):
        df = _run(
            XSD_PREFIX + "SELECT ?d WHERE { ?d ex:v ?v ."
            ' FILTER (?v = "%s" && xsd:double(%s) != 12345) }' % (lex, operand),
            rows=rows,
        )
        kept[operand] = sorted(df["d"]) if len(df) else []
    assert kept["?v"] == kept['"%s"' % lex] == []


def test_xsd_cast_type_error_drops_in_filter(ray_session):
    df = _run(
        XSD_PREFIX + "SELECT ?d WHERE { ?d ex:size ?s ."
        " FILTER (xsd:integer(?s) <= 3) }",
        rows=CAST_ROWS,
    )
    assert set(df["d"]) == {"b", "c"}  # 'oops' row dropped, not kept


def test_xsd_boolean_lexical_space(ray_session):
    df = _run(
        XSD_PREFIX + "SELECT ?d ?b WHERE { ?d ex:flag ?f ."
        " BIND(xsd:boolean(?f) AS ?b) }",
        rows=CAST_ROWS,
    )
    got = _col(df, "b")
    assert got["a"] == "true" and got["b"] == "false"
    assert got["c"] is None or got["c"] != got["c"]


def test_xsd_boolean_of_numeric_operand(ray_session):
    df = _run(
        XSD_PREFIX + "SELECT ?d ?b WHERE { ?d ex:size ?s ."
        " BIND(xsd:boolean(xsd:integer(?s) - 10) AS ?b) }",
        rows=CAST_ROWS[:3],
    )
    got = _col(df, "b")
    assert got["a"] == "false" and got["b"] == "true" and got["c"] == "true"


def test_xsd_datetime_validates_lexical_form(ray_session):
    df = _run(
        XSD_PREFIX + "SELECT ?d ?t WHERE { ?d ex:when ?w ."
        " BIND(xsd:dateTime(?w) AS ?t) }",
        rows=CAST_ROWS,
    )
    got = _col(df, "t")
    assert got["a"] == "2020-01-02T03:04:05Z"
    assert got["b"] is None or got["b"] != got["b"]


def test_xsd_string_and_double_roundtrip(ray_session):
    df = _run(
        XSD_PREFIX + "SELECT ?d ?lex WHERE { ?d ex:size ?s ."
        " BIND(xsd:string(xsd:integer(?s)) AS ?lex)"
        " FILTER (BOUND(?lex)) }",
        rows=CAST_ROWS,
    )
    assert _col(df, "lex") == {"a": "10", "b": "3", "c": "-3"}


def test_non_xsd_iri_call_raises(ray_session):
    with pytest.raises(SparqlSyntaxError):
        _run(
            "SELECT ?d WHERE { ?d ex:size ?s ."
            " FILTER (ex:myfunc(?s) > 1) }",
            rows=CAST_ROWS,
        )
    with pytest.raises(SparqlSyntaxError):
        _run(
            XSD_PREFIX + "SELECT ?d WHERE { ?d ex:size ?s ."
            " FILTER (xsd:hexBinary(?s) > 1) }",
            rows=CAST_ROWS,
        )


# --------------------------------------------------------------------------
# NOW / RAND / UUID / STRUUID / BNODE (deterministic variants) and
# bare (unbracketted) FILTER constraints


def test_now_constant_per_execution(ray_session):
    df = _run(
        "SELECT ?d ?a ?b WHERE { ?d ex:size ?s ."
        " BIND(NOW() AS ?a) BIND(NOW() AS ?b) FILTER (?a = ?b) }"
    )
    assert len(df) == 3
    vals = set(df["a"]) | set(df["b"])
    assert len(vals) == 1
    import re

    assert re.match(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$", vals.pop())


def test_constant_folded_filter_keeps_or_empties(ray_session):
    assert len(_run(
        "SELECT ?d WHERE { ?d ex:size ?s . FILTER (YEAR(NOW()) >= 2020) }"
    )) == 3
    assert len(_run(
        "SELECT ?d WHERE { ?d ex:size ?s . FILTER (YEAR(NOW()) < 2000) }"
    )) == 0


def test_rand_uuid_bnode_deterministic_per_row(ray_session):
    q = (
        "SELECT ?d ?r ?u ?su ?n0 ?n1 WHERE { ?d ex:size ?s ."
        " BIND(RAND() AS ?r) BIND(UUID() AS ?u) BIND(STRUUID() AS ?su)"
        " BIND(BNODE() AS ?n0) BIND(BNODE(?s) AS ?n1) }"
    )
    a = _run(q).sort_values("d").reset_index(drop=True)
    b = _run(q).sort_values("d").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)  # rerun-identical
    assert a["r"].between(0, 1).all()
    assert a["r"].nunique() == 3  # distinct rows -> distinct values
    assert all(u.startswith("urn:uuid:") for u in a["u"])
    assert all(not su.startswith("urn:") for su in a["su"])
    assert all(n.startswith("_:b") for n in a["n0"])
    assert a["n1"].nunique() == 3


# values taken from the pandas-backed hash this replaced: the row hash
# must not move with the string width or with \x1f, non-ASCII or empty
# values in the row
PINNED_ROWS = [
    ("a", "http://ex.org/size", "10"),
    ("b", "http://ex.org/size", "\u00fcn\u00ef\x1fcode"),
    ("c", "http://ex.org/size", ""),
    ("d", "http://ex.org/size", "\u65e5\u672c\u8a9e"),
]
PINNED = {
    "a": (0.5338440331485078, "bd92fc82-6fdc-487e-831d-ace464182294",
          "0028e577-5c5f-4237-81e4-9049374f9324", "490897ac275d88f2", "179aae4044a7dd8e"),
    "b": (0.5383460329870156, "9445ee2a-a4a9-463d-859c-64155bc95ef2",
          "48369d89-c849-4c8d-8cea-63844b0a3257", "8e91954453de8422", "87351f5122baf57a"),
    "c": (0.5609420853887986, "49bc899f-664d-465e-82be-02abbf5d5a0b",
          "360b3361-a8ee-43cd-8fad-78c1fe0b3f42", "283d582b75e8b8a6", "1716c22c75644ed7"),
    "d": (0.6020739514032484, "e54c9f24-f2e1-44d0-8c77-0235d93b79fd",
          "1bdfdda9-c6b7-49dc-80ac-ead0d03a8c5f", "156155cac97d4809", "e420d9b116871b9b"),
}


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_rand_uuid_bnode_values_pinned(ray_session, typ):
    q = (
        "SELECT ?d ?r ?u ?su ?n0 ?n1 WHERE { ?d ex:size ?s ."
        " BIND(RAND() AS ?r) BIND(UUID() AS ?u) BIND(STRUUID() AS ?su)"
        " BIND(BNODE() AS ?n0) BIND(BNODE(?s) AS ?n1) }"
    )
    subj, pred, obj = zip(*PINNED_ROWS)
    ds = rd.from_arrow(pa.table({
        "subj": pa.array(subj, typ), "pred": pa.array(pred, typ),
        "obj_value": pa.array(obj, typ),
    }))
    got = {
        r["d"]: (r["r"], r["u"], r["su"], r["n0"], r["n1"])
        for r in execute(ds, PREFIX + q, n_buckets=4).to_pandas().to_dict("records")
    }
    assert got == {
        d: (r, "urn:uuid:" + u, su, "_:b" + n0, "_:b" + n1)
        for d, (r, u, su, n0, n1) in PINNED.items()
    }


def test_bare_filter_constraints(ray_session):
    # SPARQL Constraint ::= BrackettedExpression | BuiltInCall — the
    # unbracketted builtin-call form
    assert set(_run(
        'SELECT ?d WHERE { ?d ex:size ?s . FILTER REGEX(?s, "^[12]") }'
    )["d"]) == {"a", "b"}
    assert len(_run(
        "SELECT ?d WHERE { ?d ex:size ?s . FILTER BOUND(?s) }"
    )) == 3
    with pytest.raises(SparqlSyntaxError):
        _run("SELECT ?d WHERE { ?d ex:size ?s . FILTER ?s }")
