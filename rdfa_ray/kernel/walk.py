"""The RDFa walk and the per-document ``distill`` entry point.

Reimplements the recursive procedure of ``/root/reference/pyRdfa/parse.py``
(``_parse_1_1`` / ``_parse_1_0``) and the orchestration of
``__init__.py:471-544`` (``graph_from_DOM``) as an *iterative* walk over an
explicit stack, so adversarially deep documents cannot hit Python's
recursion limit (SURVEY.md §4.3).

A document pays only for the markup it has:

* **Contexts on change.**  The reference builds an evaluation context per
  element.  Here an element gets its own :class:`~.state.EvalState` only
  when :func:`~.state.changes_context` (it declares a prefix, vocabulary,
  namespace, language or ``xml:base``); any other element evaluates on
  its parent's, which is exactly what its own would hold.  That includes
  the document root: the root context is built once, and the root
  element gets a second one only when it declares something, as the
  reference does (so a prefix warning on ``<html>`` is still emitted
  twice).
* **The list mapping travels with the walk**: a dict that an element
  replaces when it sets a new subject.  An element gets an exit step only
  when it has a list to close or its parent's incomplete triples to
  complete.
* **Gates.**  The whole-tree pre-walk passes and the embedded-RDF handler
  run only on documents whose text can trigger them
  (:func:`_document_gates`, which answers True whenever in doubt).  The
  per-element handlers (``@role``, the host transforms, the RDFa step)
  run on the elements whose attribute keys or tag can trigger them.

Stack frames are tuples: ``(element, parent_object, context,
parent_incomplete, list_mapping)`` to enter an element, and
``(None, subject, parent_incomplete, parent_list_mapping, own_list_mapping,
list_origin)`` to leave one.
"""

from __future__ import annotations

from ..dom.node import Element
from ..dom.sniff import HostLanguage, parse_document
from ..rdf.terms import BNODE, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, RDFA_COPY, RDFA_PATTERN, iri
from .context import HTML_HOSTS, REQUIRE_EMBEDDED_RDF
from .embedded import handle_embedded_rdf
from .literals import property_1_0, property_1_1
from .options import IncorrectBlankNodeUsage, KernelOptions, NonConformantMarkup
from .state import BnodeGen, EvalState, add_to_list_mapping, changes_context, err_no_blank_node, html_base
from .transform import fused_builtin_scan, host_transform_for, lite_prune, top_about

_RDFA_ATTRS_1_1 = frozenset(
    ("href", "resource", "about", "property", "rel", "rev", "typeof", "src", "vocab", "prefix")
)
_RDFA_ATTRS_1_0 = frozenset(("href", "resource", "about", "property", "rel", "rev", "typeof", "src"))
_LITERAL_ATTRS = frozenset(("content", "datatype"))
_SUBJECT_ATTRS = frozenset(("about", "resource", "src", "href"))
_HEADER_HOSTS = frozenset((HostLanguage.xhtml, HostLanguage.html5, HostLanguage.xhtml5))
_XHV_ROLE = iri("http://www.w3.org/1999/xhtml/vocab#role")

# Tags that need per-node processing even with zero attributes:
# <script> (embedded turtle skip), <time> (T4 content synthesis),
# <entry> (atom typeof) — plus any rdf:RDF subtree (embedded RDF/XML).
_ATTRLESS_SPECIAL = frozenset(["script", "time", "entry"])

# substring fast-path: if none of these appear in the LOWERCASED raw
# text, the document cannot yield triples (engine analogue of the
# per-node attribute skip, parse.py:133-137, lifted to the whole
# document).  Scanned against text.lower() with bare attribute names
# (no '=' suffix): legal HTML allows uppercase attribute names and
# whitespace around '=' — a false positive only costs one parse, a
# false negative silently drops data.  Embedded RDF/XML is found by its
# namespace, whatever prefix the document binds it to.
FASTPATH_MARKERS = (
    "about", "resource", "typeof", "property", "rel", "rev", "vocab", "prefix",
    "href", "src", "role", "text/turtle", "rdf:rdf", "datetime", "<time",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
)


def _document_gates(text: str, low: str, options) -> tuple[bool, bool, bool]:
    """Whether each text-gated step can act on a document: the fused
    built-in scan (an ``about``/``resource`` of exactly ``[]``, also
    through a character reference, or a ``role``), the ``<base>`` scan,
    and embedded RDF (a ``<script>`` or an ``RDF`` element, prefixed or
    not; a tag name has no whitespace after ``<``).  ``low`` is
    ``text.lower()``.  A custom transformer may add any markup, so with
    one every step runs."""
    if options.transformers:
        return True, True, True
    return (
        "[]" in text or "&" in text or "role" in low,
        "base" in low,
        "<script" in low or "<rdf" in low or ":rdf" in low,
    )


def handle_role_attribute(node, graph, state):
    """parse.py:491-508."""
    attrs = node.attrs
    if "id" in attrs:
        subject = iri(state.base + "#" + attrs["id"].strip())
    else:
        subject = state.bnodes.new()
    for obj in state.getURI(node, "role"):
        graph.add((subject, _XHV_ROLE, obj))


def _walk(root: Element, graph: set, top_state: EvalState, embedded: bool) -> None:
    """Iterative equivalent of ``parse_one_node(root, graph, None,
    top_state, [])`` (parse.py:47-69, 72-289 and 325-470).  ``embedded``
    says whether embedded RDF can occur in the document."""
    options = top_state.options
    v11 = top_state.rdfa_version >= "1.1"
    rdfa_attrs = _RDFA_ATTRS_1_1 if v11 else _RDFA_ATTRS_1_0
    host_transform, host_tags, host_keys = host_transform_for(options.host_language)
    header_hosts = options.host_language in _HEADER_HOSTS
    check_lite = v11 and options.check_lite and header_hosts
    new_bnode = top_state.bnodes.new
    add = graph.add
    stack = [(root, None, top_state, (), {})]
    push = stack.append

    while stack:
        frame = stack.pop()
        node = frame[0]
        if node is None:
            if frame[2] or frame[4]:
                _leave(frame, graph, new_bnode)
            continue
        _, parent_object, state, parent_incomplete, list_mapping = frame
        attrs = node.attrs

        if attrs or node.tag in _ATTRLESS_SPECIAL or node.local == "RDF":
            if changes_context(attrs):
                state = EvalState(node, graph, state)

            # RDFa Lite check (parse.py:98-101,110)
            if check_lite and node.tag == "link" and "rel" in attrs and \
                    state.term_or_curie.CURIE_to_URI(attrs["rel"], state, node.tag) is not None:
                options.add_warning(
                    "In RDFa Lite, attribute @rel in <link> is only used in non-RDFa way "
                    "(consider using @property)", node=node.tag)
            if "role" in attrs:
                handle_role_attribute(node, graph, state)
            if embedded and handle_embedded_rdf(node, graph, state):
                continue
            if host_transform is not None and (
                    node.tag in host_tags or not host_keys.isdisjoint(attrs)):
                host_transform(node, state)
        if rdfa_attrs.isdisjoint(attrs):
            # parse.py:133-137: children take this element's context with the
            # parent's object and incomplete triples; no exit step
            for child in reversed(node.children):
                if type(child) is Element:
                    push((child, parent_object, state, parent_incomplete, list_mapping))
            continue

        # ---- subject/object establishment (parse.py:143-223, 373-420) ----
        own_mapping = list_mapping
        origin = None
        current_object = None
        typed_resource = None
        typeof = "typeof" in attrs
        if not v11:
            if "rel" in attrs or "rev" in attrs:
                current_subject = state.getResource(node, "about", "src")
                if current_subject is None:
                    current_subject = new_bnode() if typeof else parent_object
                else:
                    own_mapping, origin = {}, current_subject
                current_object = state.getResource(node, "resource", "href")
            else:
                current_subject = state.getResource(node, "about", "src", "resource", "href")
                if current_subject is None:
                    # NB: the reference unconditionally overwrites the typeof-bnode
                    # with parent_object here (parse.py:408-413) — reproduced as-is.
                    current_subject = parent_object
                else:
                    own_mapping, origin = {}, current_subject
                current_object = current_subject
            typed_resource = current_subject
        else:
            # a <head>/<body> without a subject of its own takes its
            # parent's object (parse.py:89-96)
            header_subject = None
            if header_hosts and (node.tag == "head" or node.tag == "body") and \
                    _SUBJECT_ATTRS.isdisjoint(attrs):
                header_subject = parent_object
            if "rel" in attrs or "rev" in attrs:
                current_subject = header_subject
                if "about" in attrs:
                    current_subject = state.getURI(node, "about")
                    if typeof:
                        typed_resource = current_subject
                if current_subject is None:
                    current_subject = parent_object
                else:
                    own_mapping, origin = {}, current_subject
                current_object = state.getResource(node, "resource", "href", "src")
                if typeof and "about" not in attrs:
                    if current_object is None:
                        current_object = new_bnode()
                    typed_resource = current_object
                if "inlist" not in attrs and current_object is not None:
                    own_mapping, origin = {}, current_object
            elif "property" in attrs and _LITERAL_ATTRS.isdisjoint(attrs):
                current_subject = header_subject
                if "about" in attrs:
                    current_subject = state.getURI(node, "about")
                    if typeof:
                        typed_resource = current_subject
                if current_subject is None:
                    current_subject = parent_object
                else:
                    own_mapping, origin = {}, current_subject
                if typed_resource is None and typeof:
                    typed_resource = state.getResource(node, "resource", "href", "src")
                    if typed_resource is None:
                        typed_resource = new_bnode()
                    current_object = typed_resource
                else:
                    current_object = current_subject
            else:
                current_subject = header_subject
                if current_subject is None:
                    current_subject = state.getResource(node, "about", "resource", "href", "src")
                if current_subject is None:
                    if typeof:
                        current_subject = new_bnode()
                        own_mapping, origin = {}, current_subject
                    else:
                        current_subject = parent_object
                else:
                    own_mapping, origin = {}, current_subject
                current_object = current_subject
                if typeof:
                    typed_resource = current_subject

        # ---- @typeof (parse.py:227-229; 1.0 types the subject, 424-425) ----
        if typeof:
            for defined_type in state.getURI(node, "typeof"):
                if typed_resource or not v11:
                    add((typed_resource, RDF_TYPE, defined_type))

        # ---- @rel/@rev triples + incomplete triples (parse.py:234-268) ----
        incomplete = []
        if "rel" in attrs:
            inlist = v11 and "inlist" in attrs
            for prop in state.getURI(node, "rel"):
                if prop[0] == BNODE:
                    options.add_warning(err_no_blank_node % "rel",
                                        warning_type=IncorrectBlankNodeUsage, node=node.tag)
                elif inlist:
                    if current_object is not None:
                        add_to_list_mapping(own_mapping, prop, current_object)
                    else:
                        add_to_list_mapping(own_mapping, prop, None)
                        incomplete.append((None, prop, None))
                elif current_object is not None:
                    add((current_subject, prop, current_object))
                else:
                    incomplete.append((current_subject, prop, None))
        if "rev" in attrs:
            for prop in state.getURI(node, "rev"):
                if prop[0] == BNODE:
                    options.add_warning(err_no_blank_node % "rev",
                                        warning_type=IncorrectBlankNodeUsage, node=node.tag)
                elif current_object is not None:
                    add((current_object, prop, current_subject))
                else:
                    incomplete.append((None, prop, current_subject))

        # ---- @property (parse.py:274-275) ----
        if "property" in attrs:
            if v11:
                property_1_1(node, graph, current_subject, state, typed_resource, own_mapping)
            else:
                property_1_0(node, graph, current_subject, state)

        # ---- recursion setup (parse.py:280-289) ----
        if current_object is None:
            current_object = new_bnode()
        if parent_incomplete or origin is not None:
            push((None, current_subject, parent_incomplete, list_mapping,
                  own_mapping if origin is not None else None, origin))
        for child in reversed(node.children):
            if type(child) is Element:
                push((child, current_object, state, incomplete, own_mapping))


def _leave(frame, graph: set, new_bnode) -> None:
    """Post-order step: complete the parent's incomplete triples
    (parse.py:293-300) and close this element's lists (parse.py:302-316)."""
    _, current_subject, parent_incomplete, parent_mapping, own_mapping, origin = frame
    for (s, p, o) in parent_incomplete:
        if s is None and o is None:
            add_to_list_mapping(parent_mapping, p, current_subject)
        else:
            graph.add((current_subject if s is None else s, p,
                       current_subject if o is None else o))
    if own_mapping:
        for prop, vals in list(own_mapping.items()):
            if vals is None:
                graph.add((origin, prop, RDF_NIL))
            else:
                heads = [new_bnode() for _ in vals] + [RDF_NIL]
                for i in range(len(vals)):
                    graph.add((heads[i], RDF_FIRST, vals[i]))
                    graph.add((heads[i], RDF_REST, heads[i + 1]))
                graph.add((origin, prop, heads[0]))


# ---------------------------------------------------------------------------
# rdfa:Pattern / rdfa:copy (reference transform/prototype.py:26-37)


def handle_prototypes(graph: set) -> None:
    copies = [(x, p, pr) for (x, p, pr) in graph if p == RDFA_COPY]
    if not copies:
        return
    to_remove = set()
    patterns = {s for (s, p, o) in graph if p == RDF_TYPE and o == RDFA_PATTERN}
    by_subject: dict = {}
    for t in graph:
        by_subject.setdefault(t[0], []).append(t)
    additions = set()
    for (x, ref, pr) in copies:
        if pr in patterns:
            to_remove.add((pr, RDF_TYPE, RDFA_PATTERN))
            to_remove.add((x, ref, pr))
            for (s, p, y) in by_subject.get(pr, ()):
                if not (p == RDF_TYPE and y == RDFA_PATTERN):
                    additions.add((x, p, y))
                    to_remove.add((s, p, y))
    graph |= additions
    graph -= to_remove


# ---------------------------------------------------------------------------
# Top-level orchestration (reference graph_from_DOM, __init__.py:471-544)


def distill(
    text: str,
    base: str = "",
    options: KernelOptions | None = None,
    rdfa_version: str | None = None,
    host_language: str | None = None,
):
    """Distill one document into ``(triples, diagnostics)``.

    ``triples`` is a set of term-tuple triples; ``diagnostics`` a list of
    :class:`~rdfa_ray.kernel.options.Diagnostic`.  Deterministic: bnode
    labels depend only on the input text and config.
    """
    options = options if options is not None else KernelOptions()
    options.diagnostics = []
    graph: set = set()

    # whole-document fast path: no RDFa-ish markers -> no triples.
    # Two-phase scan: raw text first (normal lowercase markup hits on
    # the first marker, no allocation); the lowercased copy is built
    # only when the raw scan misses (prose / uppercase markup).
    low = None
    for marker in FASTPATH_MARKERS:
        if marker in text:
            break
    else:
        low = text.lower()
        for marker in FASTPATH_MARKERS:
            if marker in low:
                break
        else:
            return graph, options.diagnostics

    try:
        doc, sniffed_host, version = parse_document(
            text, rdfa_version if rdfa_version is not None else "1.1"
        )
    except Exception as e:
        options.add_error("Parse failure: %s" % e, NonConformantMarkup)
        return graph, options.diagnostics

    host = options.host_language = host_language if host_language is not None else sniffed_host
    # options objects are reused across rows (hoisted to actor
    # __init__); restore the host-driven embedded_rdf flip on exit
    _embedded0 = options.embedded_rdf
    if host in REQUIRE_EMBEDDED_RDF:
        options.embedded_rdf = True

    top = doc.root
    scan, base_scan, embedded = _document_gates(text, text.lower() if low is None else low, options)
    try:
        if base_scan and host in HTML_HOSTS:
            base = html_base(top) or base
        state = EvalState(top, graph, base=base, options=options, rdfa_version=version,
                          bnodes=BnodeGen())
        for trans in options.transformers:
            trans(top, options, state)
        if scan:
            fused_builtin_scan(top, options, state)
        top_about(top, options, state)
        if options.check_lite:
            lite_prune(top, options, state)

        _walk(top, graph, state, embedded and options.embedded_rdf)
        handle_prototypes(graph)

        if options.vocab_expansion:
            from .vocab import process_rdfa_sem

            process_rdfa_sem(graph, options)
    except Exception as e:  # never crash a batch; record and move on
        options.add_error("RDFa processing failure: %s" % e, NonConformantMarkup)

    options.embedded_rdf = _embedded0
    return graph, options.diagnostics


def distill_rdfa10(text: str, base: str = "", options: KernelOptions | None = None):
    """Pin RDFa 1.0 semantics regardless of in-content version markers —
    the ``RDFa10Parser`` plugin variant (reference
    rdflibparsers.py:183-208)."""
    return distill(text, base=base, options=options, rdfa_version="1.0")


class _MicrodataBnodes:
    """Bnode factory with an 'md'-prefixed label space so microdata
    items never collide with the RDFa walk's b*/n* skolem labels when
    the two graphs are unioned."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def new(self):
        from ..rdf.terms import BNODE

        label = "md%d" % self.n
        self.n += 1
        return (BNODE, label)


def distill_structured(text: str, base: str = "", options: KernelOptions | None = None):
    """``StructuredDataParser`` analogue (reference
    rdflibparsers.py:213-269): RDFa + microdata + embedded turtle,
    unioned into one graph.  The RDFa leg (incl. embedded turtle /
    RDF-XML) is ``distill``; the microdata leg is
    :mod:`rdfa_ray.kernel.microdata`."""
    triples, diags = distill(text, base=base, options=options)
    if "itemscope" in text.lower():
        from .microdata import extract_microdata

        try:
            doc, _host, _version = parse_document(text)
            triples |= extract_microdata(doc.root, base, _MicrodataBnodes())
        except Exception:
            pass  # parse failures already diagnosed by distill()
    return triples, diags


def extract_hturtle(text: str, base: str = "", options: KernelOptions | None = None):
    """Extract ONLY embedded ``<script type="text/turtle">`` content,
    skipping all RDFa attribute processing — the ``HTurtleParser``
    variant (reference rdflibparsers.py:273-351, which reuses the
    walker skeleton but only runs the embedded-turtle branch)."""
    from .embedded import parse_turtle
    from .options import KernelOptions as KO
    from .state import BnodeGen

    options = options if options is not None else KO()
    options.diagnostics = []
    graph: set = set()
    if "text/turtle" not in text.lower():
        return graph, options.diagnostics
    try:
        doc, host, version = parse_document(text)
    except Exception as e:
        options.add_error("Parse failure: %s" % e, NonConformantMarkup)
        return graph, options.diagnostics
    bnodes = BnodeGen()
    for el in doc.root.iter_elements():
        if el.tag.lower() == "script" and el.attrs.get("type") == "text/turtle":
            content = "".join(c for c in el.children if not isinstance(c, Element))
            content = content.replace("<![CDATA[", "").replace("]]>", "")
            try:
                graph |= parse_turtle(content, base, bnodes)
            except Exception as e:
                options.add_error(
                    "Embedded Turtle content could not be parsed (problems with %s?); ignored"
                    % e
                )
    return graph, options.diagnostics
