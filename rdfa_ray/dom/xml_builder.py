"""XML / XHTML / SVG parse path: one pyexpat pass straight into ``Element``.

Mirrors the reference's minidom usage (pyRdfa ``__init__.py:651-660``)
without building a minidom tree first: the expat parser is configured
exactly as ``xml.dom.minidom.parseString`` configures it, and the
handlers build the tree minidom would hold once its comments and PIs
are dropped.
Namespace URIs are resolved here (tracking in-scope ``xmlns``/``xmlns:*``
declarations) because the embedded-RDF/XML detection needs
``localName == "RDF" and namespaceURI == rdf-ns`` (pyRdfa
``embeddedRDF.py:75``).

The builder keeps no recursion, so nesting depth is bounded by memory
only.
"""

from __future__ import annotations

from xml.parsers import expat

from .node import Document, Element


class XMLParseError(ValueError):
    pass


def _qname(name: str) -> str:
    """The qualified name minidom builds from an expat namespace triplet
    (``xml.dom.expatbuilder._parse_ns_name``): ``"uri local prefix"``,
    ``"uri local"`` or a bare ``"local"``."""
    if " " not in name:
        return name
    parts = name.split(" ")
    if len(parts) == 3:
        return "%s:%s" % (parts[2], parts[1])
    if len(parts) == 2:
        return parts[1]
    raise ValueError("Unsupported syntax: spaces in URIs not supported: %r" % name)


def _skip_external_entity(context, base, system_id, public_id) -> int:
    return 1


def parse_xml(text: str) -> Document:
    parser = expat.ParserCreate(namespace_separator=" ")
    parser.namespace_prefixes = True
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.specified_attributes = True

    document = Element("#document")
    document.ns_scope = {}
    stack = [document]
    decls: list = []           # (prefix, uri) declared on the next start tag
    public_id = system_id = None
    # text_open: the current element's last child is a text run that the
    # next character data extends.  cdata / cdata_open: inside a CDATA
    # section / its first chunk is already a child.
    text_open = cdata = cdata_open = False

    def start(name, attributes):
        nonlocal text_open
        scope = stack[-1].ns_scope
        tag = name if " " not in name else _qname(name)
        attrs = {}
        if decls:
            scope = dict(scope)
            for prefix, uri in decls:
                if prefix:
                    attrs["xmlns:" + prefix] = uri
                    scope[prefix] = uri
                else:
                    attrs["xmlns"] = uri
                    scope[""] = uri
            decls.clear()
        for i in range(0, len(attributes), 2):
            aname = attributes[i]
            attrs[aname if " " not in aname else _qname(aname)] = attributes[i + 1]
        if ":" in tag:
            prefix, local = tag.split(":", 1)
            ns_uri = scope.get(prefix)
        else:
            local = tag
            ns_uri = scope.get("")
        el = Element(tag, ns_uri=ns_uri, local=local)
        el.ns_scope = scope
        el.attrs = attrs
        stack[-1].children.append(el)
        stack.append(el)
        text_open = False

    def end(name):
        nonlocal text_open
        stack.pop()
        text_open = False

    def characters(data):
        nonlocal text_open, cdata_open
        kids = stack[-1].children
        if cdata:
            if cdata_open:
                kids[-1] += data
                return
            cdata_open = True
            text_open = False
        elif text_open:
            kids[-1] += data
            return
        else:
            text_open = True
        kids.append(data)

    def split_text(*_args):
        # minidom keeps comments and PIs as nodes, so text on either
        # side of one stays two text children.
        nonlocal text_open
        text_open = False

    def start_cdata():
        nonlocal cdata, cdata_open
        cdata, cdata_open = True, False

    def end_cdata():
        nonlocal cdata
        cdata = False

    def start_doctype(name, sys_id, pub_id, has_internal_subset):
        nonlocal public_id, system_id
        public_id, system_id = pub_id, sys_id

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = characters
    parser.StartNamespaceDeclHandler = lambda prefix, uri: decls.append((prefix, uri))
    parser.CommentHandler = split_text
    parser.ProcessingInstructionHandler = split_text
    parser.StartCdataSectionHandler = start_cdata
    parser.EndCdataSectionHandler = end_cdata
    parser.StartDoctypeDeclHandler = start_doctype
    parser.ExternalEntityRefHandler = _skip_external_entity
    try:
        parser.Parse(text, True)
    except (expat.ExpatError, ValueError) as e:
        raise XMLParseError(str(e)) from e
    return Document(document.children[0], public_id, system_id)
