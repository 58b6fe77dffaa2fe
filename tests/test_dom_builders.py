"""The expat DOM builders against the trees they replace.

* XML: ``parse_xml`` against a frozen copy of the minidom parse plus the
  recursive ``_convert`` it replaced (same tree, same doctype ids, same
  error outcome).
* HTML: whenever the expat path of ``parse_html`` accepts a fragment,
  its nodes equal ``_TreeBuilder``'s, text chunks included; every input
  it refuses is parsed by ``_TreeBuilder``.
* Deep XML no longer overflows the stack, and the shared initial
  context is never mutated by a document.

The property tests are derandomized with a fixed example count, so the
suite is reproducible.
"""

import random
import xml.dom.minidom as minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfa_ray.dom.html_builder import (
    VOID_ELEMENTS, _TreeBuilder, _expat_top, _shape, parse_html,
)
from rdfa_ray.dom.node import Element
from rdfa_ray.dom.xml_builder import XMLParseError, parse_xml
from rdfa_ray.kernel.options import KernelOptions
from rdfa_ray.kernel.walk import distill
from rdfa_ray.rdf.terms import iri

XML_EXAMPLES = 600
HTML_EXAMPLES = 1000


# ---------------------------------------------------------------------------
# frozen oracle: minidom + the converter parse_xml used before


def _convert(node, ns_scope: dict) -> Element:
    local_scope = None
    for i in range(node.attributes.length if node.attributes else 0):
        attr = node.attributes.item(i)
        if attr.name == "xmlns":
            local_scope = dict(ns_scope) if local_scope is None else local_scope
            local_scope[""] = attr.value
        elif attr.name.startswith("xmlns:"):
            local_scope = dict(ns_scope) if local_scope is None else local_scope
            local_scope[attr.name[6:]] = attr.value
    scope = local_scope if local_scope is not None else ns_scope

    tag = node.nodeName
    if ":" in tag:
        prefix, local = tag.split(":", 1)
        ns_uri = scope.get(prefix)
    else:
        local = tag
        ns_uri = scope.get("")
    el = Element(tag, ns_uri=ns_uri, local=local)
    el.ns_scope = scope
    if node.attributes:
        for i in range(node.attributes.length):
            attr = node.attributes.item(i)
            el.attrs[attr.name] = attr.value

    for child in node.childNodes:
        if child.nodeType == child.ELEMENT_NODE:
            el.append(_convert(child, scope))
        elif child.nodeType in (child.TEXT_NODE, child.CDATA_SECTION_NODE):
            el.append(child.data)
    return el


def _oracle_xml(text: str):
    """(public id, system id, root) or ("error", message)."""
    try:
        dom = minidom.parseString(text)
    except Exception as e:
        return ("error", str(e))
    root = _convert(dom.documentElement, {})
    if dom.doctype is None:
        return (None, None, _tree(root))
    return (dom.doctype.publicId, dom.doctype.systemId, _tree(root))


def _new_xml(text: str):
    try:
        doc = parse_xml(text)
    except XMLParseError as e:
        return ("error", str(e))
    return (doc.public_id, doc.system_id, _tree(doc.root))


def _tree(node):
    """Flat pre-order record of a tree: every element's names, namespace
    data and attributes in order, every text child as its own entry."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if not isinstance(n, Element):
            out.append(("text", n))
            continue
        scope = None if n.ns_scope is None else sorted(n.ns_scope.items(), key=repr)
        out.append((n.tag, n.local, n.ns_uri, scope, list(n.attrs.items()), len(n.children)))
        stack.extend(reversed(n.children))
    return out


# ---------------------------------------------------------------------------
# XML documents

_XML_DECLS = ["", '<?xml version="1.0"?>\n', '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>']
_SUBSET = (
    '<!ENTITY e "ent">'
    '<!ENTITY m "a<b>in</b>c">'
    '<!ENTITY ext SYSTEM "ext.xml">'
    '<!ATTLIST r d CDATA "dflt" xmlns:p CDATA "http://p.example/dflt">'
    '<!ELEMENT r ANY>'
    "<!-- c --><?pi in subset?>"
)
_DOCTYPES = [
    "",
    "<!DOCTYPE r>",
    '<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML+RDFa 1.0//EN" '
    '"http://www.w3.org/MarkUp/DTD/xhtml-rdfa-1.dtd">',
    '<!DOCTYPE r SYSTEM "r.dtd">',
    "<!DOCTYPE r [%s]>" % _SUBSET,
    '<!DOCTYPE r PUBLIC "pub" "sys" [%s]>' % _SUBSET,
]


def _mostly(common, rare):
    """Draw a ``rare`` value about one time in twelve: most documents stay
    well-formed, and every error shape still shows up."""
    repeat = max(1, round(11 * len(rare) / len(common)))
    return st.sampled_from(common * repeat + rare)


_xml_tags = _mostly(["r", "a", "svg", "p:x", "q:y", "rdf:RDF", "RDF"], ["z:w"])
_xml_attr_names = st.sampled_from(["a", "b", "about", "p:a", "q:b", "xml:lang", "xmlns",
                                   "xmlns:p", "xmlns:q", "xmlns:rdf"])
_xml_values = _mostly(
    ["", "u", "en", "http://p.example/", "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
     "&#65;&#x42;", "&amp;&lt;", "x\ty\nz"],
    ["a b", "&e;", "&m;"],
)
_xml_text = _mostly(
    ["t", " ", "\n", "&#x41;", "&lt;&gt;", "<![CDATA[]]>", "<![CDATA[c<d&]]>", "<!--c-->",
     "<?pi d?>", "é"],
    ["&e;", "&m;", "&ext;", "&undeclared;", "]]>"],
)
_namespaces = _mostly(
    [' xmlns:p="http://p.example/" xmlns:q="http://q.example/" '
     'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"',
     ' xmlns="http://www.w3.org/2000/svg" xmlns:p="http://p.example/" xmlns:q="u" '
     'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'],
    ["", ' xmlns:p=""'],
)


def _xml_element(children, namespaces=st.just("")):
    return st.builds(
        _render_xml,
        _xml_tags,
        namespaces,
        st.lists(st.tuples(_xml_attr_names, _xml_values), max_size=3, unique_by=lambda a: a[0]),
        st.lists(children, max_size=4),
        st.booleans(),
    )


def _render_xml(tag, namespaces, attrs, children, self_close):
    attrs = [a for a in attrs if " %s=" % a[0] not in namespaces]
    head = "<%s%s%s" % (tag, namespaces, "".join(' %s="%s"' % a for a in attrs))
    if not children and self_close:
        return head + "/>"
    return "%s>%s</%s>" % (head, "".join(children), tag)


# ``max_leaves`` bounds the depth far below the recursion limit the
# oracle's converter needs.
_xml_content = st.recursive(_xml_text, _xml_element, max_leaves=16)
xml_documents = st.builds(
    lambda decl, doctype, pre, root, post: decl + doctype + pre + root + post,
    st.sampled_from(_XML_DECLS),
    st.sampled_from(_DOCTYPES),
    st.sampled_from(["", "\n", "<!--lead-->", "<?pi lead?>"]),
    _xml_element(_xml_content, _namespaces),
    _mostly(["", "\n", "<!--tail-->"], ["x"]),
)


def check_xml(text: str) -> None:
    assert _new_xml(text) == _oracle_xml(text), text


@settings(max_examples=XML_EXAMPLES, derandomize=True, deadline=None)
@given(xml_documents)
def test_parse_xml_matches_minidom_convert(text):
    check_xml(text)


@pytest.mark.parametrize("text", [
    '<r xmlns="a b"><c/></r>',                       # space in the default namespace URI
    '<r xmlns:p="a b"><p:c/></r>',                   # space in a prefixed namespace URI
    '<r xmlns=""><c xmlns="u"/></r>',                # undeclared default namespace
    "<r>a<!--c-->b<?pi?>c<![CDATA[]]>d<![CDATA[e]]><![CDATA[f]]>g</r>",
    '<!DOCTYPE r [<!ENTITY e "x<!--c-->y">]><r>a&e;b</r>',
    "<r>\ud800</r>",                                # not encodable as UTF-8
    "",
    "<r/><r/>",
])
def test_parse_xml_edge_cases_match_minidom_convert(text):
    check_xml(text)


def test_parse_xml_keeps_long_text_in_one_child():
    text = "<r>%s<b/>%s</r>" % ("x" * 50000, "y\n" * 20000)
    assert parse_xml(text).root.children[0] == "x" * 50000
    check_xml(text)


# ---------------------------------------------------------------------------
# deep XML: no recursion in the builder


@pytest.mark.parametrize("doc", [
    '<svg xmlns="http://www.w3.org/2000/svg">%s<text about="#x" property="%s">T</text>%s</svg>',
    '<?xml version="1.0"?>\n<html xmlns="http://www.w3.org/1999/xhtml"><head><title>t</title>'
    '</head><body>%s<span about="#x" property="%s">T</span>%s</body></html>',
], ids=["svg", "xhtml"])
def test_deep_xml_documents_distill(doc):
    depth = 2000
    tag = "g" if doc.startswith("<svg") else "div"
    text = doc % ("<%s>" % tag * depth, "http://purl.org/dc/terms/title", "</%s>" % tag * depth)
    triples, diags = distill(text, base="http://example.org/")
    assert triples == {(iri("http://example.org/#x"), iri("http://purl.org/dc/terms/title"),
                        ("lit", "T", None, None))}
    assert not [d for d in diags if d.severity == "error"]


# ---------------------------------------------------------------------------
# HTML: the expat path builds _TreeBuilder's nodes or refuses


def _tree_builder_top(text: str) -> list:
    tb = _TreeBuilder()
    tb.feed(text)
    tb.close()
    return tb.top


def _nodes(top: list) -> list:
    return [_tree(n) for n in top]


_HTML_TAGS = ["div", "p", "span", "a", "b", "i", "em", "strong", "li", "ul", "ol", "br", "img",
              "hr", "meta", "base", "title", "section", "h1", "table", "html", "head", "body",
              "DIV", "Span", "LI", "P", "x-y", "svg:rect", "time"]
_html_tags = _mostly(_HTML_TAGS, ["_x", "ét"])
_HTML_ATTRS = ["about", "ABOUT", "property", "Property", "rel", "href", "id", "lang", "xml:lang",
               "inlist", "data-x", "xmlns:dc"]
_html_values = _mostly(["", "x", "a b", "#1", "dc:title"], ["x>y", "a\tb", "a\nb", "&amp;"])
_html_space = _mostly([" "], ["  ", "\n", "\t", "\f"])


def _html_attrs_text(attrs):
    return "".join("%s%s=%s%s%s" % (space, name, quote, value, quote)
                   for name, value, quote, space in attrs)


_html_attrs = st.lists(
    st.tuples(st.sampled_from(_HTML_ATTRS), _html_values, st.sampled_from(['"', "'"]), _html_space),
    max_size=3,
    unique_by=lambda a: a[0],
).map(_html_attrs_text)

_html_tokens = st.one_of(
    st.builds("<{}{}>".format, _html_tags, _html_attrs),
    st.builds("<{}{}/>".format, _html_tags, _html_attrs),
    st.builds("</{}>".format, _html_tags),
    st.builds("</{}\n>".format, _html_tags),
    st.sampled_from(["t", " ", "\n", "a b", "x>y", "&amp;", "&", "\r\n", "<", "é",
                     "<!-- c -->", "<![CDATA[x]]>", "<script>a<b</script>",
                     "<SCRIPT>x</SCRIPT>", "<style>p{}</style>", "<!DOCTYPE html>", "<?pi?>"]),
)


def _balanced(elements):
    """A soup that closes what it opens, so expat accepts a good share."""
    opened = "".join(("<%s%s/>" if tag.lower() in VOID_ELEMENTS else "<%s%s>t") % (tag, attrs)
                     for tag, attrs in elements)
    return opened + "".join("</%s>" % tag for tag, _ in reversed(elements)
                            if tag.lower() not in VOID_ELEMENTS)


html_soups = st.one_of(
    st.lists(_html_tokens, max_size=24).map("".join),
    st.lists(st.tuples(_html_tags, _html_attrs), max_size=6).map(_balanced),
)


def check_html(text: str) -> bool:
    """True when the expat path accepted ``text``."""
    fast = _expat_top(text)
    if fast is not None:
        assert _nodes(fast) == _nodes(_tree_builder_top(text)), text
    return fast is not None


@settings(max_examples=HTML_EXAMPLES, derandomize=True, deadline=None)
@given(html_soups)
def test_html_expat_path_matches_tree_builder(text):
    check_html(text)


@pytest.mark.parametrize("text", [
    "a &amp; b<br/>",                                   # entity
    "<!-- c --><p>x</p>",                               # comment
    "<!DOCTYPE html><p>x</p>",                          # declaration
    "<p><![CDATA[x]]></p>",                             # CDATA
    "<?pi x?><p>x</p>",                                 # processing instruction
    "<p>a\r\nb</p>",                                    # carriage return
    "<SCRIPT>a<b</SCRIPT>",                             # raw-text element, any case
    "<style>p{}</style>",
    '<p title="a\nb">x</p>',                            # newline inside a tag
    '<p\ttitle="ab">x</p>',                             # tab inside a tag
    "<p>unclosed",                                      # expat rejects
    "<_x>t</_x>",                                       # tag name without an ASCII letter
    "<é>t</é>",
    '<p title="a>b">x</p>',                             # '>' in an attribute value
    "<br>x</br>",                                       # content inside a void element
    "<img><span/></img>",
    "<p>a<div>b</div></p>",                             # implied </p>
    "<p><a>a<h1>b</h1></a></p>",
    "<ul><li>a<li>b</li></li></ul>",                    # implied </li>
], ids=lambda t: repr(t)[:24])
def test_refused_html_goes_through_tree_builder(text):
    assert _expat_top(text) is None
    tb = _TreeBuilder()
    tb.feed(text)
    tb.close()
    got = parse_html(text)
    assert _tree(got.root) == _tree(_shape(tb.top))
    assert (got.public_id, got.system_id) == (tb.public_id, tb.system_id)


# the markup vocabulary of the FIXTURES mix (sources/transcripts.py), with
# the spellings a parser must survive: uppercase names, entities, void
# elements and unclosed tags
_FX_TAGS = ["div", "span", "p", "a", "time", "ul", "li", "DIV", "Span", "TIME", "LI"]
_FX_VOID = ['<br/>', '<img src="x.png"/>', '<hr/>', '<meta name="m" content="c"/>', '<BR/>',
            '<br>', '<IMG SRC="y">']
_FX_ATTRS = ['vocab="http://schema.org/"', 'about="#item%d"', 'typeof="Organization"',
             'property="name"', 'property="http://purl.org/dc/terms/title"',
             'prefix="ex: http://example.org/terms#"', 'rel="ex:mentions"',
             'href="http://topics.local/t%d"', 'inlist=""', 'lang="en"',
             'datetime="2026-0%d-11"', 'ABOUT="#x%d"', 'Property="description"', "id='i%d'"]
_FX_TEXT = ["Alice Smith %d", "Notes on ", "Discussed in turn %d", "alpha%d", " ", "2026-01-1%d"]
_FX_ENTITY_ATTRS = ['about="&#91;]"', 'title="a &amp; b"']
_FX_ENTITY_TEXT = ["&amp;", "&#91;]", "&lt;b&gt;", "caf&eacute;"]


def _fixture_fragment(rng: random.Random, entities: bool, depth: int = 0) -> str:
    attr_pool = _FX_ATTRS + _FX_ENTITY_ATTRS if entities else _FX_ATTRS
    text_pool = _FX_TEXT + _FX_ENTITY_TEXT if entities else _FX_TEXT
    out = []
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        if r < 0.25:
            out.append(rng.choice(text_pool).replace("%d", str(rng.randrange(10))))
        elif r < 0.35:
            out.append(rng.choice(_FX_VOID))
        else:
            tag = rng.choice(_FX_TAGS)
            attrs = "".join(" " + a.replace("%d", str(rng.randrange(10)))
                            for a in rng.sample(attr_pool, rng.randint(0, 3)))
            inner = _fixture_fragment(rng, entities, depth + 1) if depth < 3 else "x"
            r = rng.random()
            close = "</%s>" % (tag if r < 0.9 else tag.lower()) if r < 0.95 else ""
            out.append("<%s%s>%s%s" % (tag, attrs, inner, close))
    return "".join(out)


def test_fixture_fragments_match_tree_builder():
    rng = random.Random(2026)
    accepted = 0
    for _ in range(2500):
        text = _fixture_fragment(rng, entities=rng.random() < 0.5)
        if check_html(text):
            accepted += 1
            assert _tree(parse_html(text).root) == _tree(_shape(_tree_builder_top(text))), text
    # both paths are exercised
    assert 500 < accepted < 2000, accepted


def test_html_expat_path_coalesces_text_runs():
    text = '<div about="#a">%s<span>y</span>%s</div>' % ("x" * 20000, "z\n" * 9000)
    assert check_html(text)


# ---------------------------------------------------------------------------
# the initial context is shared between documents and never mutated


def test_redeclared_prefix_does_not_leak_into_the_next_document():
    options = KernelOptions()
    first, _ = distill('<p prefix="dc: http://example.org/mydc#" about="#a" '
                       'property="dc:title">A</p>', base="http://example.org/", options=options)
    assert (iri("http://example.org/#a"), iri("http://example.org/mydc#title"),
            ("lit", "A", None, None)) in first
    second, _ = distill('<p about="#b" property="dc:title">B</p>',
                        base="http://example.org/", options=options)
    assert second == {(iri("http://example.org/#b"), iri("http://purl.org/dc/terms/title"),
                       ("lit", "B", None, None))}
