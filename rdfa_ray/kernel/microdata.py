"""HTML microdata extraction (itemscope / itemtype / itemprop / itemid
/ itemref) to RDF triples.

Completes the engine analogue of the reference's
``StructuredDataParser`` chain (``/root/reference/pyRdfa/
rdflibparsers.py:213-269``), which parses a document as RDFa +
microdata + embedded turtle into one graph; the microdata leg there
delegates to an external rdflib plugin, so this is a from-scratch
implementation of the W3C microdata-to-RDF mapping's deterministic
core:

* ``itemscope`` establishes an item: subject = resolved ``@itemid`` if
  present, else a fresh (per-document deterministic) blank node.
* each ``itemtype`` token that is an absolute IRI adds
  ``(item, rdf:type, type)``.
* ``itemprop`` names resolve to predicates: absolute IRIs stand as-is;
  bare names concatenate onto the item's vocabulary — the first
  ``itemtype`` IRI truncated after its last ``#`` or ``/`` — or, for
  untyped items, onto ``base#`` (document-scoped properties).
* property values follow the element kind: nested ``itemscope`` ->
  that item's subject; a/area/link -> resolved @href; audio/embed/
  iframe/img/source/track/video -> resolved @src; object -> @data;
  meta -> @content; time -> @datetime else text; data/meter ->
  @value; anything else -> its text content as a plain literal.
* ``itemref`` pulls properties from elements referenced by id anywhere
  in the document (cycle-guarded).

Deviations (documented): no @lang carry-over onto literals and no
rdf:HTML literals — the mapping's optional extensions; values are
plain literals, matching the "lite" mapping most consumers use.
"""

from __future__ import annotations

from ..dom.node import Element
from ..rdf.terms import RDF_TYPE, iri, literal
from .embedded import _resolve_iri

_URL_PROP_TAGS = {
    "a": "href", "area": "href", "link": "href",
    "audio": "src", "embed": "src", "iframe": "src", "img": "src",
    "source": "src", "track": "src", "video": "src",
    "object": "data",
}


def _is_absolute(ref: str) -> bool:
    from urllib.parse import urlsplit

    return urlsplit(ref)[0] != ""


def _vocab_of(itemtype: str) -> str:
    for mark in ("#", "/"):
        idx = itemtype.rfind(mark)
        if idx != -1:
            return itemtype[: idx + 1]
    return itemtype


def _index_ids(root: Element) -> dict[str, Element]:
    out = {}
    for el in root.iter_elements():
        if "id" in el.attrs:
            out.setdefault(el.attrs["id"], el)
    return out


def extract_microdata(root: Element, base: str, bnodes) -> set:
    """Walk the document; returns the set of term-tuple triples."""
    triples: set = set()
    ids = None  # built lazily: only documents using itemref pay for it

    def item_subject(el: Element):
        if "itemid" in el.attrs:
            return iri(_resolve_iri(base, el.attrs["itemid"].strip()))
        return bnodes.new()

    def process_item(el: Element, subject, seen: frozenset):
        nonlocal ids
        types = [t for t in el.attrs.get("itemtype", "").split() if _is_absolute(t)]
        for t in types:
            triples.add((subject, RDF_TYPE, iri(t)))
        vocab = _vocab_of(types[0]) if types else (base + "#" if base else "#")

        scopes = [el]
        if "itemref" in el.attrs:
            if ids is None:
                ids = _index_ids(_root)
            for ref in el.attrs["itemref"].split():
                target = ids.get(ref)
                if target is not None:
                    scopes.append(target)

        for scope in scopes:
            stack = list(reversed(scope.element_children()))
            # for itemref targets the target element ITSELF may carry
            # the itemprop (spec: "the element itself or descendants")
            if scope is not el and "itemprop" in scope.attrs:
                stack = [scope]
            while stack:
                node = stack.pop()
                if "itemprop" in node.attrs:
                    value = prop_value(node, seen)
                    if value is not None:
                        for name in node.attrs["itemprop"].split():
                            pred = name if _is_absolute(name) else vocab + name
                            triples.add((subject, iri(pred), value))
                if "itemscope" not in node.attrs:
                    stack.extend(reversed(node.element_children()))

    def prop_value(node: Element, seen: frozenset):
        attrs = node.attrs
        if "itemscope" in attrs:
            if id(node) in seen:  # itemref cycle guard
                return None
            sub = item_subject(node)
            process_item(node, sub, seen | {id(node)})
            return sub
        tag = node.tag.lower()
        url_attr = _URL_PROP_TAGS.get(tag)
        if url_attr is not None and url_attr in attrs:
            return iri(_resolve_iri(base, attrs[url_attr].strip()))
        if tag == "meta":
            return literal(attrs.get("content", ""))
        if tag == "time" and "datetime" in attrs:
            return literal(attrs["datetime"])
        if tag in ("data", "meter") and "value" in attrs:
            return literal(attrs["value"])
        return literal(node.text_content())

    _root = root
    for el in root.iter_elements():
        if "itemscope" in el.attrs and "itemprop" not in el.attrs:
            # top-level item (property'd itemscopes are reached as values)
            process_item(el, item_subject(el), frozenset({id(el)}))
    return triples
