"""SPARQL 1.1 Update text front-end (stages/sparql_update.py) against
the persisted KG store: every supported operation kind, sequences,
evaluate-then-mutate semantics, and loud rejection of the documented
non-goals."""

import pyarrow as pa
import pytest

import rdfa_ray
from rdfa_ray.stages.kgstore import persist_kg, read_kg
from rdfa_ray.stages.sparql_update import SparqlSyntaxError, parse_update

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


def _store(tmp_path, n=12):
    rows = []
    for i in range(n):
        s = "http://example.org/doc/%d" % i
        rows.append((s, SRC, "src%d" % (i % 3)))
        rows.append((s, LANG, ("zh", "en")[i % 2]))
        rows.append((s, TYPE, "http://schema.org/Document"))
    d = str(tmp_path / "store")
    persist_kg(_ds(rows), d)
    return d


def _all(store_dir):
    df = read_kg(store_dir).to_pandas()
    if df.empty:  # Ray's to_pandas drops columns at zero rows
        return set()
    return set(zip(df["subj"], df["pred"], df["obj_value"]))


def test_insert_and_delete_data(ray_session, tmp_path):
    d = _store(tmp_path)
    before = _all(d)
    rdfa_ray.update(
        d,
        """
        PREFIX ex: <http://example.org/>
        INSERT DATA {
          ex:doc99 <http://schema.org/source> "srcX" ;
                   <http://schema.org/inLanguage> "fr" .
        }
        """,
    )
    after = _all(d)
    assert after - before == {
        ("http://example.org/doc99", SRC, "srcX"),
        ("http://example.org/doc99", LANG, "fr"),
    }
    rdfa_ray.update(
        d,
        'DELETE DATA { <http://example.org/doc99>'
        ' <http://schema.org/source> "srcX" }',
    )
    assert _all(d) == before | {("http://example.org/doc99", LANG, "fr")}


def test_delete_where_variable_pattern(ray_session, tmp_path):
    d = _store(tmp_path)
    rdfa_ray.update(
        d, "DELETE WHERE { ?d <http://schema.org/inLanguage> ?l }"
    )
    preds = {p for (_s, p, _o) in _all(d)}
    assert LANG not in preds and SRC in preds and TYPE in preds


def test_modify_retag_language(ray_session, tmp_path):
    d = _store(tmp_path)
    rdfa_ray.update(
        d,
        """
        PREFIX schema: <http://schema.org/>
        DELETE { ?d schema:inLanguage "zh" }
        INSERT { ?d schema:inLanguage "zh-Hans" }
        WHERE { ?d schema:inLanguage "zh" }
        """,
    )
    langs = sorted(
        o for (_s, p, o) in _all(d) if p == LANG
    )
    assert set(langs) == {"en", "zh-Hans"}
    assert langs.count("zh-Hans") == 6


def test_modify_insert_only_with_join(ray_session, tmp_path):
    # INSERT { } WHERE { } with a two-pattern WHERE: tag every zh doc
    # from src0 — exercises the full SELECT engine under the hood
    d = _store(tmp_path)
    rdfa_ray.update(
        d,
        """
        PREFIX schema: <http://schema.org/>
        INSERT { ?d schema:keywords "zh-src0" }
        WHERE { ?d schema:inLanguage "zh" ; schema:source "src0" }
        """,
    )
    tagged = {
        s for (s, p, o) in _all(d)
        if p == "http://schema.org/keywords" and o == "zh-src0"
    }
    assert tagged == {
        "http://example.org/doc/%d" % i for i in range(12) if i % 2 == 0 and i % 3 == 0
    }


def test_sequence_and_clear(ray_session, tmp_path):
    d = _store(tmp_path)
    rdfa_ray.update(
        d,
        """
        PREFIX ex: <http://example.org/>
        INSERT DATA { ex:a ex:p "1" } ;
        DELETE WHERE { ?s <http://schema.org/source> ?o } ;
        INSERT DATA { ex:b ex:q "2" }
        """,
    )
    trips = _all(d)
    assert ("http://example.org/a", "http://example.org/p", "1") in trips
    assert ("http://example.org/b", "http://example.org/q", "2") in trips
    assert not any(p == SRC for (_s, p, _o) in trips)
    rdfa_ray.update(d, "CLEAR DEFAULT")
    assert _all(d) == set()


def test_evaluate_then_mutate_snapshot(ray_session, tmp_path):
    # the classic swap: with evaluate-then-mutate, a rename chain must
    # NOT cascade (zh->en must not then match the en->de rule's
    # pre-evaluated WHERE and double-rewrite within one op)
    d = _store(tmp_path)
    rdfa_ray.update(
        d,
        """
        PREFIX schema: <http://schema.org/>
        DELETE { ?d schema:inLanguage "zh" }
        INSERT { ?d schema:inLanguage "en" }
        WHERE { ?d schema:inLanguage "zh" } ;
        DELETE { ?d schema:inLanguage "en" }
        INSERT { ?d schema:inLanguage "de" }
        WHERE { ?d schema:inLanguage "en" }
        """,
    )
    langs = [o for (_s, p, o) in _all(d) if p == LANG]
    # op 1: zh->en (all 12 now en); op 2 evaluates AFTER op 1: all -> de
    assert set(langs) == {"de"} and len(langs) == 12


def test_idempotent_rerun(ray_session, tmp_path):
    d = _store(tmp_path)
    text = """
        PREFIX schema: <http://schema.org/>
        DELETE { ?d schema:inLanguage "zh" }
        INSERT { ?d schema:inLanguage "zh-Hans" }
        WHERE { ?d schema:inLanguage "zh" }
    """
    rdfa_ray.update(d, text)
    snap = _all(d)
    rdfa_ray.update(d, text)  # no zh left: no-op
    assert _all(d) == snap


def test_parse_errors(ray_session):
    with pytest.raises(SparqlSyntaxError):
        parse_update('INSERT DATA { ?v <http://p> "x" }')  # var in DATA
    with pytest.raises(SparqlSyntaxError):
        parse_update("LOAD <http://remote/graph>")
    with pytest.raises(SparqlSyntaxError):
        parse_update("")
    # CLEAR GRAPH is now in the fragment (graph management §3.2)
    assert parse_update("CLEAR GRAPH <http://g>") == [
        {"op": "clear", "target": ("graph", "http://g")}
    ]
    with pytest.raises(SparqlSyntaxError):
        parse_update("CLEAR")  # missing target
    with pytest.raises(SparqlSyntaxError):
        parse_update("COPY <http://a> <http://b>")  # missing TO
    with pytest.raises(SparqlSyntaxError):
        parse_update("WITH <http://g> INSERT DATA { <s> <p> <o> }")
    with pytest.raises(SparqlSyntaxError):
        parse_update("CREATE <http://g>")  # CREATE needs GRAPH kw


def test_unbound_template_var_rejected(ray_session, tmp_path):
    d = _store(tmp_path, n=2)
    with pytest.raises(SparqlSyntaxError):
        rdfa_ray.update(
            d,
            'INSERT { ?d <http://p> ?nope }'
            ' WHERE { ?d <http://schema.org/source> "src0" }',
        )


def test_optional_unbound_skips_template_row(ray_session, tmp_path):
    """A template triple referencing an OPTIONAL-unbound variable is
    skipped for that solution (SPARQL §16.2 via the Update templates) —
    it must not insert ''-term triples."""
    d = _store(tmp_path, n=4)
    # give doc0 an extra triple so its ?x binds; docs 1-3 stay unbound
    rdfa_ray.update(
        d,
        'INSERT DATA { <http://example.org/doc/0> <http://p/extra> "E" }',
    )
    rdfa_ray.update(
        d,
        "INSERT { ?d <http://p/tag> ?x } WHERE {"
        " ?d <%s> ?src . OPTIONAL { ?d <http://p/extra> ?x } }" % SRC,
    )
    tagged = {t for t in _all(d) if t[1] == "http://p/tag"}
    assert tagged == {("http://example.org/doc/0", "http://p/tag", "E")}
    assert not any(t[2] == "" for t in _all(d))


# ---------------------------------------------------------------------------
# parser robustness (15 000-seed offline sweep clean; CI runs a slice):
# mutated update strings must parse or raise SparqlSyntaxError — never
# hang or leak untyped exceptions.

_UPD_FUZZ_SEEDS = [
    'INSERT DATA { <urn:a> <urn:p> "x" . GRAPH <urn:g> '
    '{ <urn:b> <urn:q> <urn:c> } }',
    'DELETE DATA { <urn:a> <urn:p> "x"@en }',
    'DELETE { ?s <urn:p> ?o } INSERT { ?s <urn:p2> ?o } '
    'WHERE { ?s <urn:p> ?o . FILTER (?o != "bad") }',
    'DELETE WHERE { ?s <urn:dead> ?o }',
    'CLEAR GRAPH <urn:g> ; DROP SILENT GRAPH <urn:h> ; '
    'INSERT DATA { <urn:a> <urn:p> "y" }',
    'WITH <urn:g> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o . '
    'OPTIONAL { ?s <urn:k> ?k } }',
    'COPY <urn:g> TO <urn:h> ; MOVE DEFAULT TO GRAPH <urn:g>',
    'LOAD <urn:src> INTO GRAPH <urn:g>',
]
_UPD_FUZZ_CHARS = list('{}()<>?$.;,"\'@^|+*/!&=# \tabINSERTDELETEWHEREDATAGRAPHCLEAR')


def test_update_parser_garbage_fuzz_slice():
    import random

    from rdfa_ray.stages.sparql_text import SparqlSyntaxError
    from rdfa_ray.stages.sparql_update import parse_update

    for seed in range(400):
        rng = random.Random(seed)
        ql = list(rng.choice(_UPD_FUZZ_SEEDS))
        for _ in range(rng.randrange(1, 6)):
            op = rng.random()
            pos = rng.randrange(len(ql)) if ql else 0
            if op < 0.4 and ql:
                del ql[pos]
            elif op < 0.8:
                ql.insert(pos, rng.choice(_UPD_FUZZ_CHARS))
            else:
                ql[pos:pos] = list(
                    rng.choice(["UNION", "} {", "WHERE", ";;", "<>",
                                "GRAPH", "DATA"])
                )
        try:
            parse_update("".join(ql))
        except (SparqlSyntaxError, RecursionError):
            pass  # the only acceptable failures


# ---------------------------------------------------------------------------
# graph management (SPARQL 1.1 Update §3.2) over quad stores

G1 = "http://graphs.local/g1"
G2 = "http://graphs.local/g2"
G3 = "http://graphs.local/g3"


def _qds(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.Table.from_pylist(
            [
                {"subj": s, "pred": p, "obj_value": o, "graph": g}
                for s, p, o, g in rows
            ]
        )
    )


def _qstore(tmp_path, name="qstore"):
    rows = [
        ("http://x/a", SRC, "s1", G1),
        ("http://x/a", LANG, "en", G1),
        ("http://x/b", SRC, "s2", G2),
        ("http://x/b", LANG, "zh", G2),
        ("http://x/c", SRC, "s3", ""),  # default-graph row
        ("http://x/shared", SRC, "s2", G1),  # also inserted into G2 by ADD
    ]
    d = str(tmp_path / name)
    persist_kg(_qds(rows), d)
    return d


def _quads(store_dir):
    df = read_kg(store_dir).to_pandas()
    if df.empty:
        return set()
    return set(zip(df["subj"], df["pred"], df["obj_value"], df["graph"]))


def test_quad_store_records_form(ray_session, tmp_path):
    from rdfa_ray.stages.kgstore import store_has_graph

    qd = _qstore(tmp_path)
    td = _store(tmp_path)
    assert store_has_graph(qd) is True
    assert store_has_graph(td) is False


def test_copy_graph(ray_session, tmp_path):
    d = _qstore(tmp_path)
    before = _quads(d)
    rdfa_ray.update(d, "COPY <%s> TO <%s>" % (G1, G2))
    after = _quads(d)
    g1 = {q for q in before if q[3] == G1}
    assert {q for q in after if q[3] == G1} == g1  # source intact
    assert {q for q in after if q[3] == G2} == {
        (s, p, o, G2) for (s, p, o, _g) in g1
    }  # dst replaced wholesale
    assert {q for q in after if q[3] == ""} == {
        q for q in before if q[3] == ""
    }  # untouched


def test_move_graph_and_to_default(ray_session, tmp_path):
    d = _qstore(tmp_path)
    before = _quads(d)
    rdfa_ray.update(d, "MOVE <%s> TO <%s>" % (G1, G3))
    after = _quads(d)
    assert not {q for q in after if q[3] == G1}
    assert {q for q in after if q[3] == G3} == {
        (s, p, o, G3) for (s, p, o, g) in before if g == G1
    }
    # MOVE GRAPH TO DEFAULT: named rows land on the '' marker,
    # replacing the previous default graph
    rdfa_ray.update(d, "MOVE GRAPH <%s> TO DEFAULT" % G2)
    after2 = _quads(d)
    assert {q for q in after2 if q[3] == ""} == {
        (s, p, o, "") for (s, p, o, g) in before if g == G2
    }


def test_add_graph_merges_with_dedup(ray_session, tmp_path):
    d = _qstore(tmp_path)
    before = _quads(d)
    # plant an overlap: shared row already present in G2
    rdfa_ray.update(
        d,
        'INSERT DATA { GRAPH <%s> { <http://x/shared>'
        " <http://schema.org/source> \"s2\" } }" % G2,
    )
    rdfa_ray.update(d, "ADD <%s> TO <%s>" % (G1, G2))
    after = _quads(d)
    g1 = {q for q in before if q[3] == G1}
    assert {q for q in after if q[3] == G1} == g1  # source intact
    expected_g2 = (
        {q for q in before if q[3] == G2}
        | {("http://x/shared", SRC, "s2", G2)}
        | {(s, p, o, G2) for (s, p, o, _g) in g1}
    )
    assert {q for q in after if q[3] == G2} == expected_g2  # set-merged


def test_clear_targets(ray_session, tmp_path):
    d = _qstore(tmp_path)
    before = _quads(d)
    rdfa_ray.update(d, "CLEAR GRAPH <%s>" % G1)
    assert _quads(d) == {q for q in before if q[3] != G1}
    rdfa_ray.update(d, "CLEAR DEFAULT")
    assert _quads(d) == {q for q in before if q[3] not in ("", G1)}
    rdfa_ray.update(d, "DROP SILENT GRAPH <http://graphs.local/absent>")
    assert _quads(d) == {q for q in before if q[3] not in ("", G1)}  # no-op
    rdfa_ray.update(d, "CLEAR NAMED")
    assert _quads(d) == set()
    # form survives emptying: a graph-qualified insert still works
    rdfa_ray.update(
        d, 'INSERT DATA { GRAPH <%s> { <http://x/n> <%s> "s9" } }' % (G3, SRC)
    )
    assert _quads(d) == {("http://x/n", SRC, "s9", G3)}


def test_quad_data_and_graph_template_modify(ray_session, tmp_path):
    d = _qstore(tmp_path)
    # DELETE DATA with a GRAPH block removes only that graph's row
    rdfa_ray.update(
        d,
        'DELETE DATA { GRAPH <%s> { <http://x/a>'
        ' <http://schema.org/source> "s1" } }' % G1,
    )
    assert ("http://x/a", SRC, "s1", G1) not in _quads(d)
    # modify with GRAPH ?g template: retag every source triple into
    # an audit graph derived per-solution from its home graph
    rdfa_ray.update(
        d,
        "INSERT { GRAPH ?g { ?s <http://schema.org/seen> \"y\" } }"
        " WHERE { GRAPH ?g { ?s <http://schema.org/source> ?o } }",
    )
    q = _quads(d)
    assert ("http://x/b", "http://schema.org/seen", "y", G2) in q
    assert ("http://x/shared", "http://schema.org/seen", "y", G1) in q
    # default-graph row matched no GRAPH ?g (named-only scope)
    assert ("http://x/c", "http://schema.org/seen", "y", "") not in q


def test_with_and_using_scopes(ray_session, tmp_path):
    d = _qstore(tmp_path)
    # WITH scopes both the match and the template to G1
    rdfa_ray.update(
        d,
        "WITH <%s> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }" % G1,
    )
    after = _quads(d)
    assert not {q for q in after if q[3] == G1}
    assert {q for q in after if q[3] == G2}  # untouched
    # USING restricts the match; plain template writes to default ''
    rdfa_ray.update(
        d,
        "INSERT { ?s <http://schema.org/flag> \"1\" }"
        " USING <%s> WHERE { ?s <http://schema.org/source> ?o }" % G2,
    )
    assert ("http://x/b", "http://schema.org/flag", "1", "") in _quads(d)
    assert ("http://x/c", "http://schema.org/flag", "1", "") not in _quads(d)
    # WITH + GRAPH in WHERE is out of fragment
    with pytest.raises(SparqlSyntaxError):
        rdfa_ray.update(
            d,
            "WITH <%s> DELETE { ?s ?p ?o }"
            " WHERE { GRAPH <%s> { ?s ?p ?o } }" % (G1, G2),
        )


def test_triple_store_rejects_graph_ops(ray_session, tmp_path):
    d = _store(tmp_path)
    with pytest.raises(SparqlSyntaxError):
        rdfa_ray.update(d, "ADD <%s> TO <%s>" % (G1, G2))
    with pytest.raises(SparqlSyntaxError):
        rdfa_ray.update(
            d, 'INSERT DATA { GRAPH <%s> { <s> <p> "o" } }' % G1
        )
    before = _all(d)
    # CLEAR of a named graph on a triple store: no named graphs exist,
    # so the spec's absent-graph no-op applies
    rdfa_ray.update(d, "CLEAR GRAPH <%s>" % G1)
    rdfa_ray.update(d, "CREATE GRAPH <%s>" % G1)  # tracked nowhere: no-op
    assert _all(d) == before
    rdfa_ray.update(d, "CLEAR DEFAULT")  # the whole store IS the default
    assert _all(d) == set()


def test_graph_mgmt_prunes_untouched_partitions(ray_session, tmp_path):
    """COPY rewrites only partitions containing src/dst rows; the
    manifest must carry every other partition by reference (same
    relative path object, no rewrite)."""
    from rdfa_ray.stages.kgstore import pred_key
    from rdfa_ray.state.commit import read_manifest

    rows = [
        ("http://x/a", SRC, "s1", G1),
        ("http://x/b", LANG, "en", G2),  # no G1/G3 rows in this partition
    ]
    d = str(tmp_path / "prune")
    persist_kg(_qds(rows), d)
    before = read_manifest(d, "_meta.json")["partitions"]
    rdfa_ray.update(d, "COPY <%s> TO <%s>" % (G1, G3))
    after = read_manifest(d, "_meta.json")["partitions"]
    assert after[pred_key(LANG)] == before[pred_key(LANG)]  # by reference
    assert after[pred_key(SRC)] != before[pred_key(SRC)]  # rewritten


# SPARQL 1.1 Update §3.1.2 LOAD — local files only


def _write_nt(path, lines):
    path.write_text("".join(l + " .\n" for l in lines))
    return str(path)


def test_load_nt_into_triple_store(ray_session, tmp_path):
    d = _store(tmp_path, n=2)
    f = _write_nt(
        tmp_path / "extra.nt",
        ['<http://x/new> <%s> "fr"' % LANG,
         '<http://x/new2> <%s> "de"' % LANG],
    )
    before = _all(d)
    rdfa_ray.update(d, "LOAD <file://%s>" % f)
    after = _all(d)
    assert after - before == {
        ("http://x/new", LANG, "fr"), ("http://x/new2", LANG, "de")
    }
    # set semantics: a second LOAD is a no-op
    rdfa_ray.update(d, "LOAD <%s>" % f)  # plain-path form
    assert _all(d) == after


def test_load_nq_keeps_graphs_and_into_overrides(ray_session, tmp_path):
    d = _qstore(tmp_path)
    f = _write_nt(
        tmp_path / "extra.nq",
        ['<http://x/q1> <%s> "v1" <%s>' % (SRC, G3),
         '<http://x/q2> <%s> "v2"' % SRC],
    )
    rdfa_ray.update(d, "LOAD <file://%s>" % f)
    q = _quads(d)
    assert ("http://x/q1", SRC, "v1", G3) in q
    assert ("http://x/q2", SRC, "v2", "") in q  # triple line -> default graph
    rdfa_ray.update(d, "LOAD <file://%s> INTO GRAPH <%s>" % (f, G2))
    q = _quads(d)
    assert ("http://x/q1", SRC, "v1", G2) in q
    assert ("http://x/q2", SRC, "v2", G2) in q


def test_load_failures_and_silent(ray_session, tmp_path):
    import pytest

    d = _store(tmp_path, n=2)
    before = _all(d)
    with pytest.raises(FileNotFoundError):
        rdfa_ray.update(d, "LOAD <file://%s/missing.nt>" % tmp_path)
    rdfa_ray.update(d, "LOAD SILENT <file://%s/missing.nt>" % tmp_path)
    # unsupported format: failure, SILENT swallows
    bad = tmp_path / "doc.ttl"
    bad.write_text("@prefix x: <http://x/> .")
    with pytest.raises(ValueError):
        rdfa_ray.update(d, "LOAD <file://%s>" % bad)
    rdfa_ray.update(d, "LOAD SILENT <file://%s>" % bad)
    # SILENT does NOT unlock network schemes (parse-time capability error)
    with pytest.raises(SparqlSyntaxError):
        rdfa_ray.update(d, "LOAD SILENT <http://remote/g.nt>")
    assert _all(d) == before


def test_load_named_graph_rows_refuse_triple_store(ray_session, tmp_path):
    import pytest

    d = _store(tmp_path, n=2)
    f = _write_nt(
        tmp_path / "quads.nq",
        ['<http://x/q1> <%s> "v1" <%s>' % (SRC, G1)],
    )
    with pytest.raises(Exception):
        rdfa_ray.update(d, "LOAD <file://%s>" % f)
    with pytest.raises(Exception):
        rdfa_ray.update(d, "LOAD <file://%s> INTO GRAPH <%s>" % (f, G1))
    # SILENT downgrades both to no-ops
    before = _all(d)
    rdfa_ray.update(d, "LOAD SILENT <file://%s>" % f)
    assert _all(d) == before
