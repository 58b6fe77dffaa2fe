"""The lean walk's shortcuts against the slow path.

The kernel skips work a document cannot use: the text-gated pre-walk
passes (``walk._document_gates``: the fused built-in scan, the ``<base>``
scan, embedded RDF) and an evaluation context for an element that
changes nothing (``walk.changes_context``).  Each test distills a
document that must take the slow path and compares its triples and its
diagnostics, in order, with the same document distilled with every
shortcut forced off.  Each also checks the output the shortcut is about,
so that a test cannot pass on an empty graph.
"""

import pytest

from rdfa_ray.kernel import KernelOptions, distill
from rdfa_ray.kernel import walk
from rdfa_ray.rdf.terms import RDF_TYPE, iri, literal

BASE = "http://www.example.org/doc"
DC_TITLE = iri("http://purl.org/dc/terms/title")
XHV = "http://www.w3.org/1999/xhtml/vocab#"


def run(text):
    triples, diags = distill(text, base=BASE, options=KernelOptions())
    return triples, [(d.severity, d.dclass, d.message, d.node) for d in diags]


def run_slow(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(walk, "_document_gates", lambda text, low, options: (True, True, True))
        m.setattr(walk, "changes_context", lambda attrs: True)
        return run(text)


def same_as_slow(text, monkeypatch):
    lean = run(text)
    assert lean == run_slow(text, monkeypatch)
    return lean


def test_empty_safe_curie_behind_a_character_reference(monkeypatch):
    # "&#91;]" decodes to "[]": the text holds neither "[]" nor "role"
    triples, diags = same_as_slow(
        '<div about="&#91;]" property="dc:title">T</div>', monkeypatch)
    assert any("empty safe CURIE" in d[2] for d in diags)
    assert (iri(BASE), DC_TITLE, literal("T")) in triples


def test_uppercase_role_attribute(monkeypatch):
    triples, _ = same_as_slow('<p ROLE="note" id="n1">x</p>', monkeypatch)
    assert (iri(BASE + "#n1"), iri(XHV + "role"), iri(XHV + "note")) in triples


def test_uppercase_base_element(monkeypatch):
    triples, _ = same_as_slow(
        '<HTML><HEAD><BASE HREF="http://other.example/dir/"></HEAD>'
        '<BODY><p about="x" property="dc:title">T</p></BODY></HTML>', monkeypatch)
    assert (iri("http://other.example/dir/x"), DC_TITLE, literal("T")) in triples


def test_uppercase_time_without_datetime(monkeypatch):
    triples, _ = same_as_slow(
        '<div about="#e"><TIME property="dc:date">2012-03-18</TIME></div>', monkeypatch)
    date = literal("2012-03-18", datatype="http://www.w3.org/2001/XMLSchema#date")
    assert (iri(BASE + "#e"), iri("http://purl.org/dc/terms/date"), date) in triples


def test_xml_base_on_an_svg_root(monkeypatch):
    triples, _ = same_as_slow(
        '<svg xmlns="http://www.w3.org/2000/svg" xml:base="http://svg.example/base">'
        '<g about="#a" property="dc:title">T</g></svg>', monkeypatch)
    assert (iri("http://svg.example/base#a"), DC_TITLE, literal("T")) in triples


def test_embedded_turtle_script(monkeypatch):
    triples, _ = same_as_slow(
        '<p>intro</p><script type="text/turtle">'
        '<http://e.example/s> <http://e.example/p> "o" .</script>', monkeypatch)
    assert (iri("http://e.example/s"), iri("http://e.example/p"), literal("o")) in triples


def test_rdf_xml_inside_svg(monkeypatch):
    # a typed node element: the text holds no "script" (as in "Description")
    triples, diags = same_as_slow(
        '<svg xmlns="http://www.w3.org/2000/svg"><metadata>'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:dc="http://purl.org/dc/terms/">'
        '<dc:Agent rdf:about="http://e.example/d"><dc:title>T</dc:title>'
        '</dc:Agent></rdf:RDF></metadata></svg>', monkeypatch)
    assert (iri("http://e.example/d"), DC_TITLE, literal("T")) in triples
    assert (iri("http://e.example/d"), RDF_TYPE, iri("http://purl.org/dc/terms/Agent")) in triples


def test_unprefixed_rdf_xml_inside_svg(monkeypatch):
    triples, _ = same_as_slow(
        '<svg xmlns="http://www.w3.org/2000/svg"><metadata>'
        '<RDF xmlns="http://www.w3.org/1999/02/22-rdf-syntax-ns#">'
        '<dc:Agent xmlns:dc="http://purl.org/dc/terms/"><dc:title>T</dc:title></dc:Agent>'
        '</RDF></metadata></svg>', monkeypatch)
    assert [(p, o) for (_, p, o) in triples if p == DC_TITLE] == [(DC_TITLE, literal("T"))]


def test_copy_and_pattern_pair(monkeypatch):
    triples, _ = same_as_slow(
        '<div prefix="ex: http://example.org/">'
        '<div about="#p" typeof="rdfa:Pattern"><span property="ex:name">N</span></div>'
        '<div about="#x" property="rdfa:copy" resource="#p"></div></div>', monkeypatch)
    assert (iri(BASE + "#x"), iri("http://example.org/name"), literal("N")) in triples
    assert not any(o == iri("http://www.w3.org/ns/rdfa#Pattern") for (_, _, o) in triples)


@pytest.mark.parametrize("lang", ["lang", "xml:lang"])
def test_class_and_id_only_element_under_a_lang_parent(monkeypatch, lang):
    triples, _ = same_as_slow(
        '<div %s="fr" about="#d"><span class="c" id="i">'
        '<span property="dc:title">Titre</span></span></div>' % lang, monkeypatch)
    assert (iri(BASE + "#d"), DC_TITLE, literal("Titre", lang="fr")) in triples


def test_xml_lang_inside_svg(monkeypatch):
    triples, _ = same_as_slow(
        '<svg xmlns="http://www.w3.org/2000/svg"><g xml:lang="de"><g class="c">'
        '<text about="#a" property="dc:title">T</text></g></g></svg>', monkeypatch)
    assert (iri(BASE + "#a"), DC_TITLE, literal("T", lang="de")) in triples


def test_xml_base_on_an_svg_child(monkeypatch):
    triples, _ = same_as_slow(
        '<svg xmlns="http://www.w3.org/2000/svg"><g xml:base="http://svg.example/g/">'
        '<text about="a" property="dc:title">T</text></g></svg>', monkeypatch)
    assert (iri("http://svg.example/g/a"), DC_TITLE, literal("T")) in triples


def test_parent_namespaces_reach_an_xml_literal(monkeypatch):
    # the default namespace and an xmlns: prefix, each declared on a
    # parent, decorate the serialized content of a child's XML literal
    for decl in ('xmlns="http://www.w3.org/1999/xhtml"', 'xmlns:ex="http://example.org/"'):
        triples, _ = same_as_slow(
            '<div %s><span class="c"><span about="#a" property="dc:title" '
            'datatype="rdf:XMLLiteral"><b>x</b></span></span></div>' % decl, monkeypatch)
        (value,) = [o[1] for (_, p, o) in triples if p == DC_TITLE]
        assert value == "<b %s>x</b>" % decl


def test_root_prefix_warning_is_emitted_twice(monkeypatch):
    # the root context and the root element's own context both read the
    # declaration, as the reference's do
    triples, diags = same_as_slow(
        '<html prefix="_: http://blank.example/ dc: http://purl.org/dc/terms/">'
        '<body><p about="#t" property="dc:title">T</p></body></html>', monkeypatch)
    assert sum("blank-node CURIE prefix" in d[2] for d in diags) == 2
    assert (iri(BASE + "#t"), DC_TITLE, literal("T")) in triples


def test_root_without_declarations_builds_one_context(monkeypatch):
    built = []
    real = walk.EvalState

    def counting(*args, **kwargs):
        built.append(args[0].tag)
        return real(*args, **kwargs)

    monkeypatch.setattr(walk, "EvalState", counting)
    distill('<p about="#a" property="dc:title">T</p>', base=BASE)
    assert built == ["html"]  # the root context only; <p> changes nothing


@pytest.mark.parametrize("prefix", ["rdf", "r"])
def test_rdf_xml_under_any_prefix(prefix):
    doc = (
        '<svg xmlns="http://www.w3.org/2000/svg"><metadata>'
        '<{p}:RDF xmlns:{p}="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:dc="http://purl.org/dc/terms/">'
        '<{p}:Description {p}:nodeID="x"><dc:title>T</dc:title>'
        '<dc:creator {p}:resource="http://e.example/c"/></{p}:Description>'
        '<{p}:Description {p}:about="http://e.example/d" dc:subject="S">'
        '<dc:relation {p}:nodeID="x"/></{p}:Description>'
        '</{p}:RDF></metadata></svg>'
    ).format(p=prefix)
    triples, _ = distill(doc, base=BASE)
    b = next(s for (s, p, o) in triples if p == DC_TITLE)
    assert triples == {
        (b, DC_TITLE, literal("T")),
        (b, iri("http://purl.org/dc/terms/creator"), iri("http://e.example/c")),
        (iri("http://e.example/d"), iri("http://purl.org/dc/terms/subject"), literal("S")),
        (iri("http://e.example/d"), iri("http://purl.org/dc/terms/relation"), b),
    }
    assert not any(p == RDF_TYPE for (_, p, _) in triples)


def test_rdf_xml_under_another_prefix_passes_the_text_fast_path():
    # no RDFa attribute and no "rdf:rdf": only the namespace marks it
    doc = ('<svg xmlns="http://www.w3.org/2000/svg">'
           '<r:RDF xmlns:r="http://www.w3.org/1999/02/22-rdf-syntax-ns#">'
           '<r:Description r:nodeID="x"><dc:title xmlns:dc="http://purl.org/dc/terms/">T'
           '</dc:title></r:Description></r:RDF></svg>')
    triples, _ = distill(doc, base=BASE)
    assert [(p, o) for (_, p, o) in triples] == [(DC_TITLE, literal("T"))]
