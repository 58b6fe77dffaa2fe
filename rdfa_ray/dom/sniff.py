"""Host-language / RDFa-version sniffing for transcript text fragments.

The reference selects the host language from the HTTP media type or
file suffix (``/root/reference/pyRdfa/__init__.py:396-449``,
``host/__init__.py:117-142``) and then adjusts XHTML host/version from
the DTD (``host/__init__.py:160-203``).  Transcript turns carry no
media type, so the engine sniffs from the content itself: XML
declaration / DOCTYPE / root element name.  The DTD adjustment tables
are reproduced verbatim below.
"""

from __future__ import annotations

import re

from .html_builder import parse_html
from .node import Document
from .xml_builder import XMLParseError, parse_xml


class HostLanguage:
    """Mirror of reference host/__init__.py:38-45."""

    rdfa_core = "RDFa Core"
    xhtml = "XHTML+RDFa"
    xhtml5 = "XHTML5+RDFa"
    html5 = "HTML5+RDFa"
    atom = "Atom+RDFa"
    svg = "SVG+RDFa"


# DTD tables: reference host/__init__.py:144-158
_XHTML_1_0 = {("-//W3C//DTD XHTML+RDFa 1.0//EN", "http://www.w3.org/MarkUp/DTD/xhtml-rdfa-1.dtd")}
_XHTML_1_1 = {
    ("-//W3C//DTD XHTML+RDFa 1.1//EN", "http://www.w3.org/MarkUp/DTD/xhtml-rdfa-2.dtd"),
    ("-//W3C//DTD HTML 4.01+RDFa 1.1//EN", "http://www.w3.org/MarkUp/DTD/html401-rdfa11-1.dtd"),
}
_XHTML = {
    ("-//W3C//DTD XHTML 1.0 Strict//EN", "http://www.w3.org/TR/xhtml1/DTD/xhtml1-strict.dtd"),
    ("-//W3C//DTD XHTML 1.0 Transitional//EN", "http://www.w3.org/TR/xhtml1/DTD/xhtml1-transitional.dtd"),
    ("-//W3C//DTD XHTML 1.1//EN", "http://www.w3.org/TR/xhtml11/DTD/xhtml11.dtd"),
}

_FIRST_TAG_RE = re.compile(r"<\s*([A-Za-z][A-Za-z0-9:_.-]*)")
_DOCTYPE_RE = re.compile(r"<!DOCTYPE[^>]*>", re.IGNORECASE | re.DOTALL)


def _first_tag(text: str) -> str | None:
    pos = 0
    n = len(text)
    while pos < n:
        lt = text.find("<", pos)
        if lt < 0:
            return None
        rest = text[lt : lt + 10]
        if rest.startswith("<?") or rest.startswith("<!"):
            end = text.find(">", lt)
            pos = (end + 1) if end >= 0 else n
            continue
        m = _FIRST_TAG_RE.match(text, lt)
        if m:
            return m.group(1)
        pos = lt + 1
    return None


def sniff_profile(text: str) -> tuple[str, str]:
    """Return (parse_mode, host_language) where parse_mode in {"xml","html"}.

    Decision (engine analogue of reference S1 media-type dispatch):
      * root <svg>                          -> xml, svg
      * XML declaration + root <html>      -> xml, xhtml (DTD-adjusted later)
      * XHTML DOCTYPE + root <html>        -> xml, xhtml
      * XML declaration, any other root    -> xml, rdfa_core
      * root <feed> (atom)                 -> xml, atom
      * everything else                    -> html, html5
    """
    head = text.lstrip("﻿ \t\r\n")[:512]
    tag = _first_tag(head)
    tag_l = tag.lower() if tag else None
    has_xml_decl = head.startswith("<?xml")
    doctype = _DOCTYPE_RE.search(head) if "<!" in head else None
    doctype_s = doctype.group(0) if doctype else ""

    if tag_l == "svg":
        return "xml", HostLanguage.svg
    if tag_l == "feed":
        return "xml", HostLanguage.atom
    if tag_l == "html" and (has_xml_decl or "xhtml" in doctype_s.lower()):
        return "xml", HostLanguage.xhtml
    if has_xml_decl and tag_l not in ("html", None):
        return "xml", HostLanguage.rdfa_core
    return "html", HostLanguage.html5


def adjust_xhtml_and_version(doc: Document, host: str, rdfa_version: str) -> tuple[str, str]:
    """Reference host/__init__.py:174-203, verbatim semantics."""
    if host != HostLanguage.xhtml:
        return host, rdfa_version
    key = (doc.public_id, doc.system_id)
    if doc.public_id is None and doc.system_id is None:
        return HostLanguage.xhtml5, rdfa_version
    if key in _XHTML_1_0:
        return HostLanguage.xhtml, "1.0"
    if key in _XHTML_1_1:
        return HostLanguage.xhtml, "1.1"
    if key in _XHTML:
        return HostLanguage.xhtml, rdfa_version
    return HostLanguage.xhtml5, rdfa_version


def adjust_html_version(doc: Document, rdfa_version: str) -> str:
    """Reference host/__init__.py:160-172: DTD check on an HTML5 parse
    (e.g. XHTML+RDFa 1.0 served as text/html downgrades to RDFa 1.0)."""
    key = (doc.public_id, doc.system_id)
    if key in _XHTML_1_0:
        return "1.0"
    if key in _XHTML_1_1:
        return "1.1"
    return rdfa_version


def parse_document(text: str, rdfa_version: str = "1.1"):
    """Parse ``text`` into (Document, host_language, rdfa_version).

    Falls back to the lenient HTML parser when the XML path fails
    (raising is reserved for the caller's diagnostics policy).
    """
    mode, host = sniff_profile(text)
    if mode == "xml":
        try:
            doc = parse_xml(text)
        except XMLParseError:
            doc = parse_html(text)
            return doc, HostLanguage.html5, adjust_html_version(doc, rdfa_version)
        host, rdfa_version = adjust_xhtml_and_version(doc, host, rdfa_version)
        return doc, host, rdfa_version
    doc = parse_html(text)
    return doc, host, adjust_html_version(doc, rdfa_version)
