"""Lenient HTML5-ish tree builder: pyexpat where it gives the same
tree, stdlib ``html.parser`` everywhere else.

Replaces the reference's html5lib parse
(``/root/reference/pyRdfa/__init__.py:619-649``).  We only need
html5lib's *observable effects on RDFa processing*: lowercased
tag/attribute names, void elements, implied <html>/<head>/<body>
structure (so the <head>/<body> subject-inheritance special case at
``/root/reference/pyRdfa/parse.py:89-96`` and the <base> discovery at
``state.py:186-190`` behave identically), recovery from unclosed tags.
Full spec-grade error recovery (adoption agency etc.) is documented as
out of scope (SURVEY.md §7.4.2).

Most markup fragments are well-formed XML.  ``parse_html`` first runs
them through expat, wrapped in one root element and without namespace
processing, and builds the nodes ``_TreeBuilder`` would build.  The
input itself decides: whenever ``html.parser`` could see a different
tree (entities, comments, declarations, raw-text elements, whitespace
inside tags, implied end tags, content inside a void element, input
expat refuses, ...), the fragment goes through ``_TreeBuilder``.
"""

from __future__ import annotations

import re
import string
from html.parser import HTMLParser
from xml.parsers import expat

from .node import Document, Element

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# Elements whose start tag implicitly closes an open <p> (common subset).
_P_CLOSERS = frozenset(
    "address article aside blockquote div dl fieldset figure footer form h1 h2 h3 h4 h5 h6 "
    "header hr main nav ol p pre section table ul".split()
)

_HEAD_ONLY = frozenset("title base meta link style".split())

# Inline elements an implied </p> looks through (``handle_starttag``).
_P_INLINE = frozenset(("a", "span", "b", "i", "em", "strong"))


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.top: list = []       # top-level nodes (before html wrapping)
        self.stack: list[Element] = []
        self.public_id: str | None = None
        self.system_id: str | None = None
        self.saw_doctype = False

    # -- helpers ---------------------------------------------------------
    def _append(self, node) -> None:
        if self.stack:
            self.stack[-1].append(node)
        else:
            self.top.append(node)

    # -- handler overrides ------------------------------------------------
    def handle_starttag(self, tag, attrs):
        if tag == "p" or tag in _P_CLOSERS:
            # close an open <p> first (implied end tag)
            for i in range(len(self.stack) - 1, -1, -1):
                if self.stack[i].tag == "p":
                    del self.stack[i:]
                    break
                if self.stack[i].tag not in _P_INLINE:
                    break
        # li implicitly closes li
        if tag == "li":
            for i in range(len(self.stack) - 1, -1, -1):
                if self.stack[i].tag == "li":
                    del self.stack[i:]
                    break
                if self.stack[i].tag in ("ul", "ol"):
                    break
        el = Element(tag)
        for name, value in attrs:
            if name not in el.attrs:  # first occurrence wins (html5 semantics)
                el.attrs[name] = value if value is not None else ""
        self._append(el)
        if tag not in VOID_ELEMENTS:
            self.stack.append(el)

    def handle_startendtag(self, tag, attrs):
        el = Element(tag)
        for name, value in attrs:
            if name not in el.attrs:
                el.attrs[name] = value if value is not None else ""
        self._append(el)

    def handle_endtag(self, tag):
        if tag in VOID_ELEMENTS:
            return
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray end tag: ignore (lenient recovery)

    def handle_data(self, data):
        if data:
            self._append(data)

    def handle_decl(self, decl):
        # e.g.  DOCTYPE html PUBLIC "-//W3C//DTD XHTML+RDFa 1.0//EN" "http://..."
        self.saw_doctype = True
        low = decl.strip()
        if low.lower().startswith("doctype"):
            m = re.search(r'PUBLIC\s+"([^"]*)"\s+"([^"]*)"', low, re.IGNORECASE)
            if m:
                self.public_id, self.system_id = m.group(1), m.group(2)

    # comments, PIs, unknown decls: dropped
    def handle_comment(self, data):
        pass

    def handle_pi(self, data):
        pass

    def unknown_decl(self, data):
        # <![CDATA[ ... ]]> reaches here in html mode; keep the raw text so
        # embedded turtle extraction can strip the markers like the
        # reference does (embeddedRDF.py:56-57).
        if data.startswith("CDATA["):
            self._append(data[6:])


def _is_ws(node) -> bool:
    return not isinstance(node, Element) and node.strip() == ""


# XML turns tab/newline inside an attribute value into a space.  Tags
# carry no ``>`` in attribute values (refused below), so a tag is the
# span from ``<`` to the next ``>``.
_WS_IN_TAG = re.compile(r"<[^>]*[\t\n\f]")
# html.parser reads these elements' content as raw text.
_RAW_TEXT = frozenset(("script", "style"))
_ASCII_LETTERS = frozenset(string.ascii_letters)


class _Refuse(Exception):
    pass


def _expat_top(text: str) -> list | None:
    """The top-level nodes ``_TreeBuilder`` builds for ``text``, built with
    expat, or None when the two could differ."""
    # entities, comments/declarations/CDATA, PIs, CR (XML folds CRLF)
    if "&" in text or "<!" in text or "<?" in text or "\r" in text:
        return None
    if ("\n" in text or "\t" in text or "\f" in text) and _WS_IN_TAG.search(text):
        return None
    wrapper = Element("_")
    stack = [wrapper]

    def start_wrapper(name, attributes):
        # the wrapper builds no node; every later tag is the fragment's
        parser.StartElementHandler = start

    def start(name, attributes):
        if name[0] not in _ASCII_LETTERS:
            raise _Refuse  # html.parser reads ``<_x`` / ``<é`` as text
        tag = name.lower()
        parent = stack[-1]
        if parent.tag in VOID_ELEMENTS or tag in _RAW_TEXT:
            raise _Refuse
        if tag == "p" or tag in _P_CLOSERS:
            for el in reversed(stack):
                if el.tag == "p":
                    raise _Refuse  # implied </p>
                if el.tag not in _P_INLINE:
                    break
        elif tag == "li":
            for el in reversed(stack):
                if el.tag == "li":
                    raise _Refuse  # implied </li>
                if el.tag in ("ul", "ol"):
                    break
        el = Element(tag)
        attrs = el.attrs
        for i in range(0, len(attributes), 2):
            value = attributes[i + 1]
            if ">" in value:
                raise _Refuse
            aname = attributes[i].lower()
            if aname not in attrs:  # first occurrence wins
                attrs[aname] = value
        parent.children.append(el)
        stack.append(el)

    def end(name):
        stack.pop()

    def characters(data):
        # Any tag leaves an element as the current element's last child,
        # so a trailing str is the text run this data continues.
        parent = stack[-1]
        if parent.tag in VOID_ELEMENTS:
            raise _Refuse
        kids = parent.children
        if kids and type(kids[-1]) is str:
            kids[-1] += data
        else:
            kids.append(data)

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.ordered_attributes = True
    parser.StartElementHandler = start_wrapper
    parser.EndElementHandler = end
    parser.CharacterDataHandler = characters
    try:
        parser.Parse("<_>%s</_>" % text, True)
    except (_Refuse, expat.ExpatError, ValueError):
        return None
    return wrapper.children


def parse_html(text: str) -> Document:
    """Parse an HTML5 document or fragment into a normalized Document whose
    root is always an <html> element containing <head> and <body>."""
    top = _expat_top(text)
    if top is not None:
        return Document(_shape(top))
    tb = _TreeBuilder()
    tb.feed(text)
    tb.close()
    return Document(_shape(tb.top), tb.public_id, tb.system_id)


def _shape(top: list) -> Element:
    """Wrap the top-level nodes in <html> with one <head> and one <body>."""
    top_elements = [n for n in top if isinstance(n, Element)]
    html_el = None
    for el in top_elements:
        if el.tag == "html":
            html_el = el
            break

    if html_el is None:
        html_el = Element("html")
        head = Element("head")
        body = Element("body")
        html_el.children = [head, body]
        target = head
        for node in top:
            if target is head:
                if _is_ws(node):
                    continue
                if isinstance(node, Element) and node.tag in _HEAD_ONLY:
                    head.append(node)
                    continue
                target = body
            target.append(node)
    else:
        kids = html_el.element_children()
        head = next((k for k in kids if k.tag == "head"), None)
        body = next((k for k in kids if k.tag == "body"), None)
        if head is None or body is None:
            new_head = head or Element("head")
            new_body = body or Element("body")
            if head is None or body is None:
                rebuilt = []
                for node in html_el.children:
                    if isinstance(node, Element) and node.tag in ("head", "body"):
                        rebuilt.append(node)
                    elif head is None and isinstance(node, Element) and node.tag in _HEAD_ONLY and not new_body.children:
                        new_head.append(node)
                    elif not _is_ws(node):
                        new_body.append(node)
                if head is None:
                    rebuilt.insert(0, new_head)
                if body is None:
                    rebuilt.append(new_body)
                html_el.children = rebuilt

    return html_el
