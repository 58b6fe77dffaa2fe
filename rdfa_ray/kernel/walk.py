"""The RDFa evaluation-context walk and the per-document ``distill``
entry point.

Faithful reimplementation of the recursive procedure in
``/root/reference/pyRdfa/parse.py`` (``_parse_1_1`` /
``_parse_1_0``) and the orchestration in
``__init__.py:471-544`` (``graph_from_DOM``), rewritten as an
*iterative* walk with an explicit frame stack so adversarially deep
documents cannot hit Python's recursion limit (SURVEY.md §4.3).
"""

from __future__ import annotations

from ..dom.node import Element
from ..dom.sniff import HostLanguage, parse_document
from ..rdf.terms import BNODE, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, RDFA_COPY, RDFA_PATTERN, iri
from .embedded import handle_embedded_rdf
from .literals import ProcessProperty
from .options import IncorrectBlankNodeUsage, KernelOptions, NonConformantMarkup
from .state import BnodeGen, EvalState, err_no_blank_node
from .transform import BUILTIN_TRANSFORMERS, host_transforms_for

_RDFA_ATTRS_1_1 = (
    "href", "resource", "about", "property", "rel", "rev", "typeof", "src", "vocab", "prefix",
)
_RDFA_ATTRS_1_0 = ("href", "resource", "about", "property", "rel", "rev", "typeof", "src")

# substring fast-path: if none of these appear in the LOWERCASED raw
# text, the document cannot yield triples (engine analogue of the
# per-node attribute skip, parse.py:133-137, lifted to the whole
# document).  Scanned against text.lower() with bare attribute names
# (no '=' suffix): legal HTML allows uppercase attribute names and
# whitespace around '=' — a false positive only costs one parse, a
# false negative silently drops data.
FASTPATH_MARKERS = (
    "about", "resource", "typeof", "property", "rel", "rev", "vocab", "prefix",
    "href", "src", "role", "text/turtle", "rdf:rdf", "datetime", "<time",
)


def _has_one_of(node: Element, names) -> bool:
    return not node.attrs.keys().isdisjoint(names)


def _header_check(node, state, parent_object):
    """parse.py:89-96."""
    if state.options.host_language in (
        HostLanguage.xhtml, HostLanguage.html5, HostLanguage.xhtml5,
    ):
        if node.tag in ("head", "body"):
            if not _has_one_of(node, ("about", "resource", "src", "href")):
                return parent_object
    return None


def handle_role_attribute(node, graph, state):
    """parse.py:491-508."""
    attrs = node.attrs
    if "role" in attrs:
        if "id" in attrs:
            id_ = attrs["id"].strip()
            subject = iri(state.base + "#" + id_)
        else:
            subject = state.bnodes.new()
        predicate = iri("http://www.w3.org/1999/xhtml/vocab#role")
        for obj in state.getURI("role"):
            graph.add((subject, predicate, obj))


class _Frame:
    __slots__ = ("node", "parent_object", "incoming_state", "parent_incomplete",
                 "state", "current_subject", "exit")

    def __init__(self, node, parent_object, incoming_state, parent_incomplete):
        self.node = node
        self.parent_object = parent_object
        self.incoming_state = incoming_state
        self.parent_incomplete = parent_incomplete
        self.state = None
        self.current_subject = None
        self.exit = False


def parse_tree(root: Element, graph: set, top_state: EvalState) -> None:
    """Iterative equivalent of ``parse_one_node(root, graph, None,
    top_state, [])`` (parse.py:47-69)."""
    host_transforms = host_transforms_for(top_state.options.host_language)
    stack = [_Frame(root, None, top_state, [])]

    while stack:
        f = stack.pop()
        if f.exit:
            _exit_node(f, graph)
            continue
        if f.incoming_state.rdfa_version >= "1.1":
            _enter_1_1(f, graph, stack, host_transforms)
        else:
            _enter_1_0(f, graph, stack, host_transforms)


def _push_children(stack, frame, object_to_children, state, incomplete, versioned: bool):
    """Push exit frame then children (reversed) so children run first."""
    stack.append(frame)
    frame.exit = True
    for child in reversed(frame.node.element_children()):
        stack.append(_Frame(child, object_to_children, state, incomplete))


def _push_children_fastpath(stack, frame, state):
    """Fast path (parse.py:133-137): recurse with the parent's object and
    incomplete triples; this node gets NO exit processing."""
    for child in reversed(frame.node.element_children()):
        stack.append(_Frame(child, frame.parent_object, state, frame.parent_incomplete))


# Tags that need per-node processing even with zero attributes:
# <script> (embedded turtle skip), <time> (T4 content synthesis),
# <entry> (atom typeof) — plus any rdf:RDF subtree (embedded RDF/XML).
_ATTRLESS_SPECIAL = frozenset(["script", "time", "entry"])


def _attrless_skip(f: _Frame, stack: list) -> bool:
    """Attribute-less elements inherit the parent environment verbatim
    (no prefix/lang/base/vocab changes possible), so the per-node
    EvalState/TermContext construction can be skipped entirely — a
    measured ~15% kernel saving on wrapper-heavy markup.  Semantics are
    unchanged: such nodes always take the reference's fast path
    (parse.py:133-137) with an identical inherited state."""
    node = f.node
    if node.attrs or node.tag in _ATTRLESS_SPECIAL or node.local == "RDF":
        return False
    _push_children_fastpath(stack, f, f.incoming_state)
    return True


def _enter_1_1(f: _Frame, graph: set, stack: list, host_transforms) -> None:
    """parse.py:72-289 up to (and excluding) the child recursion."""
    if _attrless_skip(f, stack):
        return
    node = f.node
    attrs = node.attrs
    state = EvalState(node, graph, inherited_state=f.incoming_state)
    f.state = state
    options = state.options

    # RDFa Lite check (parse.py:98-101,110)
    if options.check_lite and options.host_language in (
        HostLanguage.html5, HostLanguage.xhtml5, HostLanguage.xhtml,
    ):
        if node.tag == "link" and "rel" in attrs and \
                state.term_or_curie.CURIE_to_URI(attrs["rel"]) is not None:
            options.add_warning(
                "In RDFa Lite, attribute @rel in <link> is only used in non-RDFa way "
                "(consider using @property)", node=node.tag)

    handle_role_attribute(node, graph, state)

    if options.embedded_rdf and handle_embedded_rdf(node, graph, state):
        return

    for func in host_transforms:
        func(node, state)

    if not _has_one_of(node, _RDFA_ATTRS_1_1):
        _push_children_fastpath(stack, f, state)
        return

    # ---- subject/object establishment (parse.py:143-223) ----
    current_subject = None
    current_object = None
    typed_resource = None

    if _has_one_of(node, ("rel", "rev")):
        current_subject = _header_check(node, state, f.parent_object)
        if "about" in attrs:
            current_subject = state.getURI("about")
            if "typeof" in attrs:
                typed_resource = current_subject
        if current_subject is None:
            current_subject = f.parent_object
        else:
            state.reset_list_mapping(origin=current_subject)

        current_object = state.getResource("resource", "href", "src")

        if "typeof" in attrs and "about" not in attrs:
            if current_object is None:
                current_object = state.bnodes.new()
            typed_resource = current_object

        if "inlist" not in attrs and current_object is not None:
            state.reset_list_mapping(origin=current_object)

    elif "property" in attrs and not _has_one_of(node, ("content", "datatype")):
        current_subject = _header_check(node, state, f.parent_object)
        if "about" in attrs:
            current_subject = state.getURI("about")
            if "typeof" in attrs:
                typed_resource = current_subject
        if current_subject is None:
            current_subject = f.parent_object
        else:
            state.reset_list_mapping(origin=current_subject)

        if typed_resource is None and "typeof" in attrs:
            typed_resource = state.getResource("resource", "href", "src")
            if typed_resource is None:
                typed_resource = state.bnodes.new()
            current_object = typed_resource
        else:
            current_object = current_subject

    else:
        current_subject = _header_check(node, state, f.parent_object)
        if current_subject is None:
            current_subject = state.getResource("about", "resource", "href", "src")
        if current_subject is None:
            if "typeof" in attrs:
                current_subject = state.bnodes.new()
                state.reset_list_mapping(origin=current_subject)
            else:
                current_subject = f.parent_object
        else:
            state.reset_list_mapping(origin=current_subject)

        current_object = current_subject
        if "typeof" in attrs:
            typed_resource = current_subject

    f.current_subject = current_subject

    # ---- @typeof (parse.py:227-229) ----
    for defined_type in state.getURI("typeof"):
        if typed_resource:
            graph.add((typed_resource, RDF_TYPE, defined_type))

    # ---- @rel/@rev triples + incomplete triples (parse.py:234-268) ----
    incomplete_triples = []
    for prop in state.getURI("rel"):
        if prop[0] != BNODE:
            if "inlist" in attrs:
                if current_object is not None:
                    state.add_to_list_mapping(prop, current_object)
                else:
                    state.add_to_list_mapping(prop, None)
                    incomplete_triples.append((None, prop, None))
            else:
                if current_object is not None:
                    graph.add((current_subject, prop, current_object))
                else:
                    incomplete_triples.append((current_subject, prop, current_object))
        else:
            options.add_warning(err_no_blank_node % "rel",
                                warning_type=IncorrectBlankNodeUsage, node=node.tag)

    for prop in state.getURI("rev"):
        if prop[0] != BNODE:
            if current_object is not None:
                graph.add((current_object, prop, current_subject))
            else:
                incomplete_triples.append((current_object, prop, current_subject))
        else:
            options.add_warning(err_no_blank_node % "rev",
                                warning_type=IncorrectBlankNodeUsage, node=node.tag)

    # ---- @property (parse.py:274-275) ----
    if "property" in attrs:
        ProcessProperty(node, graph, current_subject, state, typed_resource).generate_1_1()

    # ---- recursion setup (parse.py:280-289) ----
    if current_object is None:
        object_to_children = state.bnodes.new()
    else:
        object_to_children = current_object

    _push_children(stack, f, object_to_children, state, incomplete_triples, True)


def _enter_1_0(f: _Frame, graph: set, stack: list, host_transforms) -> None:
    """parse.py:325-470."""
    if _attrless_skip(f, stack):
        return
    node = f.node
    attrs = node.attrs
    state = EvalState(node, graph, inherited_state=f.incoming_state)
    f.state = state
    options = state.options

    handle_role_attribute(node, graph, state)

    if options.embedded_rdf and handle_embedded_rdf(node, graph, state):
        return

    for func in host_transforms:
        func(node, state)

    if not _has_one_of(node, _RDFA_ATTRS_1_0):
        _push_children_fastpath(stack, f, state)
        return

    current_subject = None
    current_object = None

    if _has_one_of(node, ("rel", "rev")):
        current_subject = state.getResource("about", "src")
        if current_subject is None:
            if "typeof" in attrs:
                current_subject = state.bnodes.new()
            else:
                current_subject = f.parent_object
        else:
            state.reset_list_mapping(origin=current_subject)
        current_object = state.getResource("resource", "href")
    else:
        current_subject = state.getResource("about", "src", "resource", "href")
        if current_subject is None:
            # NB: the reference unconditionally overwrites the typeof-bnode
            # with parent_object here (parse.py:408-413) — reproduced as-is.
            current_subject = f.parent_object
        else:
            state.reset_list_mapping(origin=current_subject)
        current_object = current_subject

    f.current_subject = current_subject

    # @typeof types the subject unconditionally in 1.0 (parse.py:424-425)
    for defined_type in state.getURI("typeof"):
        graph.add((current_subject, RDF_TYPE, defined_type))

    incomplete_triples = []
    for prop in state.getURI("rel"):
        if prop[0] != BNODE:
            if current_object is not None:
                graph.add((current_subject, prop, current_object))
            else:
                incomplete_triples.append((current_subject, prop, current_object))
        else:
            options.add_warning(err_no_blank_node % "rel",
                                warning_type=IncorrectBlankNodeUsage, node=node.tag)
    for prop in state.getURI("rev"):
        if prop[0] != BNODE:
            if current_object is not None:
                graph.add((current_object, prop, current_subject))
            else:
                incomplete_triples.append((current_object, prop, current_subject))
        else:
            options.add_warning(err_no_blank_node % "rev",
                                warning_type=IncorrectBlankNodeUsage, node=node.tag)

    if "property" in attrs:
        ProcessProperty(node, graph, current_subject, state).generate_1_0()

    if current_object is None:
        object_to_children = state.bnodes.new()
    else:
        object_to_children = current_object

    _push_children(stack, f, object_to_children, state, incomplete_triples, False)


def _exit_node(f: _Frame, graph: set) -> None:
    """Post-order step: complete the parent's incomplete triples
    (parse.py:293-300) and materialize lists (parse.py:302-316)."""
    state = f.state
    current_subject = f.current_subject

    for (s, p, o) in f.parent_incomplete:
        if s is None and o is None:
            f.incoming_state.add_to_list_mapping(p, current_subject)
        else:
            if s is None:
                s = current_subject
            if o is None:
                o = current_subject
            graph.add((s, p, o))

    if state.new_list and not state.list_empty():
        for prop in state.get_list_props():
            vals = state.get_list_value(prop)
            if vals is None:
                graph.add((state.get_list_origin(), prop, RDF_NIL))
            else:
                heads = [state.bnodes.new() for _ in vals] + [RDF_NIL]
                for i in range(len(vals)):
                    graph.add((heads[i], RDF_FIRST, vals[i]))
                    graph.add((heads[i], RDF_REST, heads[i + 1]))
                graph.add((state.get_list_origin(), prop, heads[0]))


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
    bnodes = BnodeGen()

    # whole-document fast path: no RDFa-ish markers -> no triples.
    # Two-phase scan: raw text first (normal lowercase markup hits on
    # the first marker, no allocation); the lowercased copy is built
    # only when the raw scan misses (prose / uppercase markup).
    if not any(marker in text for marker in FASTPATH_MARKERS):
        low = text.lower()
        if not any(marker in low for marker in FASTPATH_MARKERS):
            return graph, options.diagnostics

    try:
        doc, sniffed_host, version = parse_document(
            text, rdfa_version if rdfa_version is not None else "1.1"
        )
    except Exception as e:
        options.add_error("Parse failure: %s" % e, NonConformantMarkup)
        return graph, options.diagnostics

    options.host_language = host_language if host_language is not None else sniffed_host
    from .context import REQUIRE_EMBEDDED_RDF

    # options objects are reused across rows (hoisted to actor
    # __init__); restore the host-driven embedded_rdf flip on exit
    _embedded0 = options.embedded_rdf
    if options.host_language in REQUIRE_EMBEDDED_RDF:
        options.embedded_rdf = True

    top = doc.root
    try:
        state = EvalState(
            top, graph, inherited_state=None, base=base, options=options,
            rdfa_version=version, bnodes=bnodes,
        )
        for trans in tuple(options.transformers) + BUILTIN_TRANSFORMERS:
            trans(top, options, state)
        if options.check_lite:
            from .transform import lite_prune

            lite_prune(top, options, state)

        parse_tree(top, graph, state)
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
        if el.tag.lower() == "script" and el.getAttribute("type") == "text/turtle":
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
