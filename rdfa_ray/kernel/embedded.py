"""Embedded RDF extraction: ``<script type="text/turtle">`` and SVG
``rdf:RDF`` subtrees (reference ``embeddedRDF.py:23-87``).

The reference delegates to rdflib's N3 and RDF/XML parsers, which are
unavailable here; these are minimal from-scratch parsers covering the
Turtle / RDF-XML subsets that appear in RDFa-test-style documents.
Supported Turtle subset: @prefix/@base (and SPARQL-style PREFIX/BASE),
IRIs, prefixed names, ``a``, blank node labels and ``[...]`` property
lists, object/predicate lists (``,`` / ``;``), plain/lang/typed
literals incl. long strings, numeric and boolean shorthand, comments.
RDF/XML subset: rdf:Description / typed nodes, rdf:about / rdf:ID /
rdf:nodeID, property elements with rdf:resource / rdf:nodeID /
rdf:datatype / text content / nested nodes / rdf:parseType="Resource"
and "Literal", property attributes, xml:lang.  Anything outside the
subset raises, which the caller converts into a processor diagnostic
exactly like the reference does (embeddedRDF.py:71-73,80-82).
"""

from __future__ import annotations

import re
from urllib.parse import urljoin

from urllib.parse import urlsplit

from ..dom.node import Element
from ..rdf.terms import RDF_NS, XSD_NS, iri, literal
from .context import ACCEPT_EMBEDDED_RDF_XML, ACCEPT_EMBEDDED_TURTLE


def _resolve_iri(base: str, ref: str) -> str:
    """urljoin that keeps absolute IRIs untouched and preserves a
    trailing '#'/'?' (Python's urljoin swallows empty fragments — the
    same bug the reference works around at state.py:301-313)."""
    if not base or urlsplit(ref)[0] != "":
        return ref
    joined = urljoin(base, ref)
    if ref and ref[-1] in "#?" and (not joined or joined[-1] != ref[-1]):
        joined += ref[-1]
    return joined


class EmbeddedParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Turtle subset parser

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<longstr>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*''')
  | (?P<string>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<iri><[^<>"{}|^`\\\s]*>)
  | (?P<langtag>@[A-Za-z][A-Za-z0-9-]*)
  | (?P<dtmark>\^\^)
  | (?P<punct>[;,.\[\]()])
  | (?P<number>[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.?\d+(?:[eE][+-]?\d+)?))
  | (?P<pname>[A-Za-z_][\w.-]*?:[\w.%\-/#]*|:[\w.%\-/#]*|[A-Za-z_][\w.-]*:)
  | (?P<keyword>@?[A-Za-z_][\w-]*)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_STR_ESC = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            if nxt == "u":
                out.append(chr(int(s[i + 2 : i + 6], 16)))
                i += 6
                continue
            if nxt == "U":
                out.append(chr(int(s[i + 2 : i + 10], 16)))
                i += 10
                continue
            out.append(_STR_ESC.get(nxt, nxt))
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class _TurtleParser:
    def __init__(self, text: str, base: str, bnodes):
        self.tokens = []
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != pos:
                raise EmbeddedParseError("bad token at %r" % text[pos : pos + 30])
            pos = m.end()
            kind = m.lastgroup
            if kind in ("ws", "comment"):
                continue
            self.tokens.append((kind, m.group()))
        if pos != len(text):
            raise EmbeddedParseError("bad token at %r" % text[pos : pos + 30])
        self.i = 0
        self.base = base
        self.prefixes: dict[str, str] = {}
        self.bnodes = bnodes
        self.local_bnodes: dict[str, tuple] = {}
        self.triples: set = set()

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_punct(self, ch):
        kind, val = self._next()
        if kind != "punct" or val != ch:
            raise EmbeddedParseError("expected %r, got %r" % (ch, val))

    def _resolve(self, ref: str):
        return iri(_resolve_iri(self.base, ref))

    def _pname_to_term(self, val: str):
        prefix, _, local = val.partition(":")
        if prefix == "_":
            b = self.local_bnodes.get(local)
            if b is None:
                b = self.bnodes.new()
                self.local_bnodes[local] = b
            return b
        if prefix not in self.prefixes:
            raise EmbeddedParseError("undefined prefix %r" % prefix)
        return iri(self.prefixes[prefix] + local)

    def parse(self):
        while self.i < len(self.tokens):
            kind, val = self._peek()
            # "@prefix"/"@base" tokenize as langtag (pattern order); accept both
            if val in ("@prefix", "PREFIX") or (kind == "keyword" and val == "prefix"):
                self._next()
                k2, v2 = self._next()
                if k2 != "pname" or not v2.endswith(":"):
                    raise EmbeddedParseError("bad @prefix %r" % v2)
                k3, v3 = self._next()
                if k3 != "iri":
                    raise EmbeddedParseError("bad @prefix IRI")
                self.prefixes[v2[:-1]] = _resolve_iri(self.base, v3[1:-1])
                if val == "@prefix":
                    self._expect_punct(".")
                continue
            if val in ("@base", "BASE") or (kind == "keyword" and val == "base"):
                self._next()
                k2, v2 = self._next()
                if k2 != "iri":
                    raise EmbeddedParseError("bad @base IRI")
                self.base = _resolve_iri(self.base, v2[1:-1])
                if val == "@base":
                    self._expect_punct(".")
                continue
            self._statement()
        return self.triples

    def _statement(self):
        subj = self._subject()
        self._predicate_object_list(subj)
        self._expect_punct(".")

    def _subject(self):
        kind, val = self._peek()
        if kind == "iri":
            self._next()
            return self._resolve(val[1:-1])
        if kind == "pname":
            self._next()
            return self._pname_to_term(val)
        if kind == "punct" and val == "[":
            return self._bnode_property_list()
        raise EmbeddedParseError("bad subject %r" % val)

    def _bnode_property_list(self):
        self._expect_punct("[")
        b = self.bnodes.new()
        kind, val = self._peek()
        if not (kind == "punct" and val == "]"):
            self._predicate_object_list(b)
        self._expect_punct("]")
        return b

    def _predicate_object_list(self, subj):
        while True:
            kind, val = self._peek()
            if kind == "keyword" and val == "a":
                self._next()
                pred = iri(RDF_NS + "type")
            elif kind == "iri":
                self._next()
                pred = self._resolve(val[1:-1])
            elif kind == "pname":
                self._next()
                pred = self._pname_to_term(val)
            else:
                raise EmbeddedParseError("bad predicate %r" % val)
            while True:
                obj = self._object()
                self.triples.add((subj, pred, obj))
                kind, val = self._peek()
                if kind == "punct" and val == ",":
                    self._next()
                    continue
                break
            kind, val = self._peek()
            if kind == "punct" and val == ";":
                self._next()
                kind, val = self._peek()
                # allow trailing ';' before '.' or ']'
                if kind == "punct" and val in (".", "]"):
                    return
                continue
            return

    def _object(self):
        kind, val = self._peek()
        if kind == "iri":
            self._next()
            return self._resolve(val[1:-1])
        if kind == "pname":
            self._next()
            return self._pname_to_term(val)
        if kind == "punct" and val == "[":
            return self._bnode_property_list()
        if kind in ("string", "longstr"):
            self._next()
            raw = val[3:-3] if kind == "longstr" else val[1:-1]
            value = _unescape(raw)
            k2, v2 = self._peek()
            if k2 == "langtag":
                self._next()
                return literal(value, lang=v2[1:].lower())
            if k2 == "dtmark":
                self._next()
                k3, v3 = self._next()
                if k3 == "iri":
                    return literal(value, datatype=_resolve_iri(self.base, v3[1:-1]))
                if k3 == "pname":
                    dt = self._pname_to_term(v3)
                    return literal(value, datatype=dt[1])
                raise EmbeddedParseError("bad datatype")
            return literal(value)
        if kind == "number":
            self._next()
            if "e" in val.lower():
                return literal(val, datatype=XSD_NS + "double")
            if "." in val:
                return literal(val, datatype=XSD_NS + "decimal")
            return literal(val, datatype=XSD_NS + "integer")
        if kind == "keyword" and val in ("true", "false"):
            self._next()
            return literal(val, datatype=XSD_NS + "boolean")
        raise EmbeddedParseError("bad object %r" % val)


def parse_turtle(text: str, base: str, bnodes) -> set:
    return _TurtleParser(text, base, bnodes).parse()


# ---------------------------------------------------------------------------
# RDF/XML subset parser (operates on the engine's Element tree)

_RDF_PT = RDF_NS


def _attr_ns(el: Element, prefix: str):
    """The namespace of an attribute prefix on ``el``.  The xml_builder
    resolves element namespaces, and attributes keep their prefixes: the
    conventional ``rdf`` prefix, the element's own prefix, then the
    element's in-scope declarations."""
    if prefix == "rdf":
        return RDF_NS
    if ":" in el.tag and el.tag.split(":", 1)[0] == prefix and el.ns_uri:
        return el.ns_uri
    if el.ns_scope and prefix in el.ns_scope:
        return el.ns_scope[prefix]
    return None


def _rdf_attr(el: Element, local: str):
    """The value of ``el``'s RDF-namespace attribute ``local``, under any
    prefix bound to the RDF namespace, or None."""
    for name, value in el.attrs.items():
        prefix, sep, name_local = name.partition(":")
        if sep and name_local == local and _attr_ns(el, prefix) == RDF_NS:
            return value
    return None


class _RdfXmlParser:
    def __init__(self, base: str, bnodes, lang: str | None = None):
        self.base = base
        self.bnodes = bnodes
        self.node_ids: dict[str, tuple] = {}
        self.triples: set = set()

    def _term_ns(self, el: Element):
        if el.ns_uri:
            return el.ns_uri + el.local
        if ":" in el.tag:
            raise EmbeddedParseError("unresolved namespace in %r" % el.tag)
        return el.tag

    def _resolve(self, ref: str):
        return iri(_resolve_iri(self.base, ref))

    def _nodeid(self, label: str):
        b = self.node_ids.get(label)
        if b is None:
            b = self.bnodes.new()
            self.node_ids[label] = b
        return b

    def parse_rdf_element(self, rdf_el: Element, lang=None):
        if "xml:base" in rdf_el.attrs:
            self.base = rdf_el.attrs["xml:base"]
        if "xml:lang" in rdf_el.attrs:
            lang = rdf_el.attrs["xml:lang"].lower() or None
        for child in rdf_el.element_children():
            self.parse_node_element(child, lang)
        return self.triples

    def parse_node_element(self, el: Element, lang=None):
        if "xml:lang" in el.attrs:
            lang = el.attrs["xml:lang"].lower() or None
        about = _rdf_attr(el, "about")
        node_id = _rdf_attr(el, "nodeID")
        rid = _rdf_attr(el, "ID")
        if about is not None:
            subj = self._resolve(about)
        elif rid is not None:
            subj = self._resolve("#" + rid)
        elif node_id is not None:
            subj = self._nodeid(node_id)
        else:
            subj = self.bnodes.new()

        qname = self._term_ns(el)
        if qname != RDF_NS + "Description":
            self.triples.add((subj, iri(RDF_NS + "type"), iri(qname)))

        # property attributes: the prefixed ones outside the xml and RDF
        # namespaces
        for name, value in el.attrs.items():
            if name.startswith("xml") or ":" not in name:
                continue
            prefix, local = name.split(":", 1)
            ns = _attr_ns(el, prefix)
            if ns is None or ns == RDF_NS:
                continue
            self.triples.add((subj, iri(ns + local), literal(value, lang=lang)))

        for prop_el in el.element_children():
            self.parse_property_element(subj, prop_el, lang)
        return subj

    def parse_property_element(self, subj, el: Element, lang=None):
        if "xml:lang" in el.attrs:
            lang = el.attrs["xml:lang"].lower() or None
        pred = iri(self._term_ns(el))
        resource = _rdf_attr(el, "resource")
        node_id = _rdf_attr(el, "nodeID")
        datatype = _rdf_attr(el, "datatype")
        parse_type = _rdf_attr(el, "parseType")

        if resource is not None:
            self.triples.add((subj, pred, self._resolve(resource)))
            return
        if node_id is not None:
            self.triples.add((subj, pred, self._nodeid(node_id)))
            return
        if parse_type == "Resource":
            b = self.bnodes.new()
            self.triples.add((subj, pred, b))
            for sub in el.element_children():
                self.parse_property_element(b, sub, lang)
            return
        if parse_type == "Collection":
            # each child node element is an item; build the rdf:List
            # chain (fresh bnodes, rdf:first/rdf:rest/rdf:nil)
            items = [self.parse_node_element(c, lang) for c in el.element_children()]
            node = iri(RDF_NS + "nil")
            for item in reversed(items):
                b = self.bnodes.new()
                self.triples.add((b, iri(RDF_NS + "first"), item))
                self.triples.add((b, iri(RDF_NS + "rest"), node))
                node = b
            self.triples.add((subj, pred, node))
            return
        if parse_type == "Literal":
            xml = "".join(
                c.toxml() if isinstance(c, Element) else c.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                for c in el.children
            )
            self.triples.add((subj, pred, literal(xml, datatype=RDF_NS + "XMLLiteral")))
            return
        children = el.element_children()
        if children:
            obj = self.parse_node_element(children[0], lang)
            self.triples.add((subj, pred, obj))
            return
        text = el.text_content()
        if datatype is not None:
            self.triples.add((subj, pred, literal(text, datatype=datatype)))
        else:
            self.triples.add((subj, pred, literal(text, lang=lang)))


def parse_rdfxml(rdf_el: Element, base: str, bnodes) -> set:
    return _RdfXmlParser(base, bnodes).parse_rdf_element(rdf_el)


# ---------------------------------------------------------------------------
# The dispatch (reference embeddedRDF.py:23-87)


def handle_embedded_rdf(node: Element, graph: set, state) -> bool:
    options = state.options
    if not options.embedded_rdf:
        return False
    if options.host_language in ACCEPT_EMBEDDED_TURTLE and node.tag.lower() == "script":
        if node.attrs.get("type") == "text/turtle":
            content = "".join(c for c in node.children if not isinstance(c, Element))
            content = content.replace("<![CDATA[", "").replace("]]>", "")
            try:
                for t in parse_turtle(content, state.base, state.bnodes):
                    graph.add(t)
                options.add_info(
                    "The output graph includes triples coming from an embedded Turtle script"
                )
            except Exception as e:
                options.add_error(
                    "Embedded Turtle content could not be parsed (problems with %s?); ignored" % e
                )
        return True
    elif (
        options.host_language in ACCEPT_EMBEDDED_RDF_XML
        and node.local == "RDF"
        and node.ns_uri == RDF_NS
    ):
        try:
            for t in parse_rdfxml(node, state.base, state.bnodes):
                graph.add(t)
            options.add_info(
                "The output graph includes triples coming from an embedded RDF/XML subtree"
            )
        except Exception as e:
            options.add_error(
                "Embedded RDF/XML content could not parsed (problems with %s?); ignored" % e
            )
        return True
    else:
        return False
