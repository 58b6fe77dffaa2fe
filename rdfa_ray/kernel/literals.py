"""``@property`` value generation (literal and IRI objects).

Semantics from ``/root/reference/pyRdfa/property.py`` (class
``ProcessProperty``, here two functions) and the XML-literal serialization helper
``return_XML`` (``utils.py:211-239``).
"""

from __future__ import annotations

import re

from ..dom.node import Element
from ..rdf.terms import BNODE, LIT, RDF_HTML, RDF_XMLLITERAL, literal
from .options import IncorrectBlankNodeUsage, IncorrectLiteral
from .state import add_to_list_mapping, err_no_blank_node
from .transform import HANDLED_TIME_TYPES

_WS_RE = re.compile(r"(\r| |\n|\t)+")
_XSD = "http://www.w3.org/2001/XMLSchema#"


def _put_back_entities(s: str) -> str:
    """property.py:222-229."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def return_xml(state, inode: Element, base: bool = True, xmlns: bool = True) -> str:
    """Serialize a node for XML literals / embedded RDF (utils.py:211-239):
    clone, decorate with inherited xmlns declarations (+ optional xml:base),
    then serialize."""
    node = inode.clone()
    attrs = node.attrs
    if base:
        attrs["xml:base"] = state.base
    if xmlns:
        for prefix, uri in state.term_or_curie.xmlns.items():
            attrs.setdefault("xmlns:%s" % prefix, uri)
        if not attrs.get("xmlns") and state.defaultNS is not None:
            attrs["xmlns"] = state.defaultNS
    return node.toxml()


# Cheap lexical-form validation for the IncorrectLiteral warning
# (reference defers to rdflib's XSDToPython conversion, property.py:286-311;
# only the warning is at stake — the triple is emitted either way).
_VALIDATORS = {
    _XSD + "integer": re.compile(r"^[+-]?[0-9]+$"),
    _XSD + "int": re.compile(r"^[+-]?[0-9]+$"),
    _XSD + "long": re.compile(r"^[+-]?[0-9]+$"),
    _XSD + "nonNegativeInteger": re.compile(r"^\+?[0-9]+$"),
    _XSD + "positiveInteger": re.compile(r"^\+?0*[1-9][0-9]*$"),
    _XSD + "decimal": re.compile(r"^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)$"),
    _XSD + "float": re.compile(r"^([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|NaN|INF|-INF)$"),
    _XSD + "double": re.compile(r"^([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|NaN|INF|-INF)$"),
    _XSD + "boolean": re.compile(r"^(true|false|0|1)$"),
}


_IRI_REFS = ("resource", "href", "src")
_IRI_REF_SET = frozenset(_IRI_REFS)
_NO_IRI = frozenset(("content", "datatype", "rel", "rev"))
_NO_TYPED_IRI = frozenset(("content", "datatype", "rel", "rev", "about", "about_pruned"))


def property_1_1(node, graph, subject, state, typed_resource, list_mapping) -> None:
    """``@property`` in RDFa 1.1 (property.py:76-150).  ``list_mapping`` is
    the element's list mapping, which ``@inlist`` values join."""
    attrs = node.attrs
    if not _IRI_REF_SET.isdisjoint(attrs) and _NO_IRI.isdisjoint(attrs):
        obj = state.getResource(node, *_IRI_REFS)
    elif "typeof" in attrs and _NO_TYPED_IRI.isdisjoint(attrs) and typed_resource is not None:
        obj = typed_resource
    else:
        obj = _literal_object(node, state, state.lang or "", False)

    if obj is not None:
        inlist = "inlist" in attrs
        for prop in state.getURI(node, "property"):
            if prop[0] != BNODE:
                if inlist:
                    add_to_list_mapping(list_mapping, prop, obj)
                else:
                    graph.add((subject, prop, obj))
            else:
                state.options.add_warning(
                    err_no_blank_node % "property", warning_type=IncorrectBlankNodeUsage, node=node.tag
                )


def property_1_0(node, graph, subject, state) -> None:
    """``@property`` in RDFa 1.0 (property.py:152-217): literals only."""
    obj = _literal_object(node, state, state.lang or "", True)
    for prop in state.getURI(node, "property"):
        if prop[0] != BNODE:
            graph.add((subject, prop, obj))
        else:
            state.options.add_warning(
                err_no_blank_node % "property", warning_type=IncorrectBlankNodeUsage, node=node.tag
            )


def _literal_object(node, state, lang: str, auto_xml: bool):
    """The literal an element's ``@property`` takes (property.py:100-130,
    176-205); ``auto_xml`` is RDFa 1.0's XMLLiteral for element content."""
    attrs = node.attrs
    datatype = ""
    dtset = "datatype" in attrs
    if dtset and attrs["datatype"] != "":
        datatype = state.getURI(node, "datatype")

    if "content" in attrs:
        val = attrs["content"]
        if not dtset:
            return literal(val, lang=lang)
        return _create_literal(node, state, val, datatype, lang)
    if dtset:
        if datatype and datatype[1] == RDF_XMLLITERAL:
            return literal(_get_xml_literal(node, state, True), datatype=RDF_XMLLITERAL)
        if datatype and datatype[1] == RDF_HTML:
            return literal(_get_xml_literal(node, state, False), datatype=RDF_HTML)
    elif auto_xml and any(isinstance(c, Element) for c in node.children):
        # auto-XMLLiteral when element children exist (property.py:203)
        return literal(_get_xml_literal(node, state, True), datatype=RDF_XMLLITERAL)
    # property.py:231-251
    val = node.text_content()
    if not state.options.space_preserve:
        val = _WS_RE.sub(" ", val).strip()
    if datatype:
        return _create_literal(node, state, val, datatype, lang)
    return (LIT, val, lang or None, None)


def _get_xml_literal(node: Element, state, xmlns: bool) -> str:
    """property.py:254-284: XMLLiteral (``xmlns``) or HTML literal content."""
    rc = []
    for c in node.children:
        if isinstance(c, Element):
            rc.append(return_xml(state, c, base=False, xmlns=xmlns))
        else:
            rc.append(_put_back_entities(c))
    return "".join(rc)


def _create_literal(node, state, val: str, datatype="", lang=""):
    """property.py:286-311 (warning-only lexical validation)."""
    if datatype is None or datatype == "":
        return literal(val, lang=lang)
    dt_uri = datatype[1]
    if dt_uri not in HANDLED_TIME_TYPES:
        check = _VALIDATORS.get(dt_uri)
        if check is not None and not check.match(val.strip()):
            state.options.add_warning(
                "Incompatible value (%s) and datatype (%s) in Literal definition."
                % (val, dt_uri),
                warning_type=IncorrectLiteral,
                node=node.tag,
            )
    return literal(val, datatype=dt_uri)
