"""Per-node evaluation context: base/lang inheritance, prefix & term
environments, URI/CURIE/term resolution.

Semantics reproduced from ``/root/reference/pyRdfa/state.py`` (the
``ExecutionContext`` class) and ``termorcurie.py`` (``TermOrCurie``,
``InitialContext``).  Key engineering deviations (documented in
SURVEY.md §2.3): blank nodes come from a deterministic per-document
:class:`BnodeGen` instead of the process-global ``_bnodes`` dict
(``termorcurie.py:83-85``), and ``graph.bind`` namespace bookkeeping is
dropped (the engine's sinks do not do prefix-based serialization).
"""

from __future__ import annotations

import re
from urllib.parse import quote, urlparse, urlsplit as _urlsplit, urlunparse
from urllib.parse import urljoin as _urljoin

# Pure-function memos for the two hottest calls of the walk (profiled:
# ~139k getURI calls / 8k turns, ~0.7s of 4.6s in urljoin+urlsplit).
# Attribute values and bases repeat heavily in any real corpus, so a
# bounded per-process dict turns the RFC-3986 join into a lookup.
# Both functions are pure; the caches never change results.
_JOIN_CACHE: dict = {}
_SPLIT_CACHE: dict = {}
_URI_CACHE_CAP = 1 << 16


def urljoin(base: str, v: str) -> str:
    key = (base, v)
    hit = _JOIN_CACHE.get(key)
    if hit is None:
        if len(_JOIN_CACHE) >= _URI_CACHE_CAP:
            _JOIN_CACHE.clear()
        hit = _JOIN_CACHE[key] = _urljoin(base, v)
    return hit


def urlsplit(v: str):
    hit = _SPLIT_CACHE.get(v)
    if hit is None:
        if len(_SPLIT_CACHE) >= _URI_CACHE_CAP:
            _SPLIT_CACHE.clear()
        hit = _SPLIT_CACHE[v] = _urlsplit(v)
    return hit

from ..rdf.terms import BNODE, IRI, RDFA_NS, iri
from .context import (
    ACCEPT_XML_BASE,
    ACCEPT_XML_LANG,
    CONTEXT_DATA,
    DEFAULT_VOCABULARY,
    HTML_HOSTS,
    INITIAL_CONTEXTS,
    PREDEFINED_1_0_REL,
    URI_SCHEMES,
    WARN_XMLNS_USAGE,
    XHTML_URI,
)
from .options import (
    IncorrectPrefixDefinition,
    PrefixRedefinitionWarning,
    UnresolvablePrefix,
    UnresolvableReference,
    UnresolvableTerm,
)

# regexes: reference termorcurie.py:72-75
NCNAME = re.compile(r"^[A-Za-z][A-Za-z0-9._-]*$")
TERMNAME = re.compile(r"^[A-Za-z]([A-Za-z0-9._-]|/)*$")

RDFA_VOCAB_PRED = (IRI, RDFA_NS + "usesVocabulary")

# warning message texts — same diagnostic CONDITIONS as the reference
# (__init__.py:268-292) but independently worded; consumers key on the
# warning-type URI, never on these strings
err_no_blank_node = "A blank node cannot appear in the %s position; dropped"
err_redefining_URI_as_prefix = "'%s' looks like a known URI scheme yet is being declared as a prefix here — possibly unintentional (compare against the IANA URI-scheme registry)"
err_xmlns_deprecated = "Declaring prefixes via 'xmlns' is deprecated in RDFa 1.1; prefer the 'prefix' attribute (declaration of '%s')"
err_bnode_local_prefix = "'_' is reserved as the blank-node CURIE prefix and cannot be declared"
err_col_local_prefix = "A CURIE prefix may not contain ':'; declaration of '%s' dropped"
err_missing_URI_prefix = "Prefix declaration for '%s' has no URI part (in '%s')"
err_invalid_prefix = "Malformed prefix declaration '%s' (in '%s')"
err_no_default_prefix = "The default prefix is fixed and cannot be redeclared (in '%s')"
err_prefix_and_xmlns = "@prefix for '%s' takes precedence over 'xmlns:%s'; RDFa 1.0 processors would resolve this file differently"
err_non_ncname_prefix = "Prefix '%s' is not an NCNAME (in '%s'); dropped"
err_absolute_reference = "Reference part of CURIE carries an authority component: %s (in '%s'); dropped"
err_query_reference = "Query component of CURIE reference holds a disallowed character: %s (in '%s'); dropped"
err_fragment_reference = "Fragment component of CURIE reference holds a disallowed character: %s (in '%s'); dropped"
err_URI_scheme = "Uncommon URI scheme in <%s> — could this be an undeclared or mistyped CURIE prefix?"
err_illegal_safe_CURIE = "Malformed safe CURIE: %s; dropped"
err_no_CURIE_in_safe_CURIE = "Safe-CURIE brackets around a value that is not a declared CURIE: [%s]; dropped"
err_undefined_terms = "'%s' used as a term without a definition; dropped"
err_non_legal_CURIE_ref = "'%s' is a relative URI (or not a valid CURIE reference), which this position disallows; dropped"
err_undefined_CURIE = "CURIE '%s' has no declared prefix; dropped"
err_prefix_redefinition = "Prefix '%s' from the initial context or an ancestor element is being redefined"
err_unusual_char_in_URI = "URI contains an unexpected character: %s — possibly an error"

_UNQUOTED_CHARS = ":/\\?=#~"  # reference utils.py:147
_WARN_CHARS = (" ", "\n", "\r", "\t")


def quote_uri(uri: str, options=None) -> str:
    """Reference utils.py:150-166."""
    suri = uri.strip()
    for c in _WARN_CHARS:
        if c in suri:
            if options is not None:
                options.add_warning(err_unusual_char_in_URI % suri)
            break
    return quote(suri, _UNQUOTED_CHARS)


class BnodeGen:
    """Deterministic per-document blank-node factory.

    Anonymous bnodes (``BNode()`` in the reference) get labels
    ``b0, b1, ...`` in creation (document) order; ``_:x`` CURIE
    references map to stable ``nK`` labels (reference keeps a global
    dict, ``termorcurie.py:427-439``; here per-document, which matches
    RDFa-spec bnode scope and makes retries idempotent).
    """

    __slots__ = ("n", "curie_map")

    def __init__(self):
        self.n = 0
        self.curie_map: dict[str, str] = {}

    def new(self):
        label = "b%d" % self.n
        self.n += 1
        return (BNODE, label)

    def for_curie_ref(self, ref: str):
        if ref == "":
            return (BNODE, "e")  # the shared "empty" bnode (_empty_bnode)
        label = self.curie_map.get(ref)
        if label is None:
            label = "n%d" % len(self.curie_map)
            self.curie_map[ref] = label
        return (BNODE, label)


def _initial_context(host: str):
    """(terms, prefixes, vocabulary) of the host's RDFa 1.1 initial
    context (``InitialContext``, termorcurie.py:89-139)."""
    terms: dict[str, str] = {}
    ns: dict[str, str] = {}
    vocabulary = None
    for ctx_id in INITIAL_CONTEXTS[host]:
        data = CONTEXT_DATA[ctx_id]
        if host in DEFAULT_VOCABULARY:
            vocabulary = DEFAULT_VOCABULARY[host]
        elif data["vocabulary"] != "":
            vocabulary = data["vocabulary"]
        terms.update(data["terms"])
        ns.update(data["ns"])
    return terms, ns, vocabulary


# Built once; every root context shares ``terms`` and takes ``ns`` as its
# ``default_prefixes`` (neither is ever mutated).
_INITIAL_CONTEXTS = {host: _initial_context(host) for host in INITIAL_CONTEXTS}
_NO_INITIAL_CONTEXT = ({}, {}, None)
_TERMS_1_0 = {key: XHTML_URI + key for key in PREDEFINED_1_0_REL}


# Attributes that give an element an evaluation context of its own.
_CONTEXT_ATTRS = frozenset(("prefix", "vocab", "xmlns", "lang", "xml:lang", "xml:base"))


def _declares_terms(attrs: dict) -> bool:
    """True when an element's attributes can change its term context:
    ``prefix``, ``vocab`` or an ``xmlns:*`` declaration."""
    if "prefix" in attrs or "vocab" in attrs:
        return True
    for name in attrs:
        if name.startswith("xmlns:"):
            return True
    return False


def changes_context(attrs: dict) -> bool:
    """True when an element needs its own :class:`EvalState`: it declares
    a prefix, a vocabulary, a namespace, a language or ``xml:base``.  For
    any other element the reference's per-element context equals its
    parent's, so the element evaluates on the parent's."""
    if not _CONTEXT_ATTRS.isdisjoint(attrs):
        return True
    for name in attrs:
        if name.startswith("xmlns:"):
            return True
    return False


def html_base(root) -> str:
    """The document base an HTML host takes from ``<base href>``: the last
    such element's href without its fragment, or "" (state.py:186-190)."""
    found = ""
    for el in root.getElementsByTagName("base"):
        if "href" in el.attrs:
            found = _remove_frag_id(el.attrs["href"])
    return found


def _remove_frag_id(uri):
    try:
        t = urlparse(uri)
        return urlunparse((t[0], t[1], t[2], t[3], t[4], ""))
    except Exception:
        return uri


def add_to_list_mapping(mapping: dict, prop, resource) -> None:
    """Reference state.py:527-549, over the walk's list-mapping dict."""
    if prop in mapping:
        if resource is not None:
            if mapping[prop] is None:
                mapping[prop] = [resource]
            else:
                mapping[prop].append(resource)
    else:
        mapping[prop] = [resource] if resource is not None else None


class TermContext:
    """Prefix/term/vocab environment (``TermOrCurie``,
    termorcurie.py:144-499).  Built for each element that declares
    ``prefix``, ``vocab`` or ``xmlns:*``; every other context shares its
    parent's, and a root that declares none of them shares one per host
    language and RDFa version (:func:`root_terms`).  So a term context
    holds nothing of its document: the resolution methods take the
    evaluation context (for its options and bnodes) and the tag of the
    element being resolved."""

    __slots__ = (
        "v11",
        "default_curie_uri",
        "default_term_uri",
        "terms",
        "ns",
        "default_prefixes",
        "xmlns",
    )

    def __init__(self, state: "EvalState", node, graph: set, inherited: "TermContext | None"):
        options = state.options
        v11 = self.v11 = state.rdfa_version >= "1.1"
        attrs = node.attrs
        tag = node.tag

        def check_prefix(pr):
            if pr in URI_SCHEMES:
                options.add_warning(err_redefining_URI_as_prefix % pr, node=tag)

        # ---- initial context (InitialContext, termorcurie.py:89-139) ----
        if v11 and inherited is None:
            init_terms, init_ns, init_vocabulary = _INITIAL_CONTEXTS[options.host_language]
        else:
            init_terms, init_ns, init_vocabulary = _NO_INITIAL_CONTEXT

        # ---- default CURIE URI (termorcurie.py:188-194) ----
        self.default_curie_uri = XHTML_URI if inherited is None else inherited.default_curie_uri

        # ---- default term URI / @vocab (termorcurie.py:196-221) ----
        if v11:
            self.default_term_uri = None if inherited is None else inherited.default_term_uri
            if init_vocabulary:
                self.default_term_uri = init_vocabulary
            if attrs.get("vocab") == "":
                self.default_term_uri = init_vocabulary
            else:
                def_term = state.getURI(node, "vocab")  # IRI tuple or None
                if def_term is not None and def_term[1] != "":
                    self.default_term_uri = def_term[1]
                    graph.add((iri(state.base), RDFA_VOCAB_PRED, iri(def_term[1])))
        else:
            self.default_term_uri = None

        # ---- terms (termorcurie.py:224-238) ----
        # (never mutated, so every context shares one dict)
        if inherited is None:
            self.terms = init_terms if v11 else _TERMS_1_0
        else:
            self.terms = inherited.terms

        # ---- local prefix declarations (termorcurie.py:241-321) ----
        local: dict[str, str] = {}
        xmlns_local: dict[str, str] = {}
        for attr_name, attr_value in list(attrs.items()):
            if attr_name.startswith("xmlns:"):
                prefix = attr_name[6:]
                if prefix == "":
                    continue
                if v11 and options.host_language in WARN_XMLNS_USAGE:
                    options.add_warning(
                        err_xmlns_deprecated % prefix, IncorrectPrefixDefinition, node=tag
                    )
                if prefix == "_":
                    options.add_warning(err_bnode_local_prefix, IncorrectPrefixDefinition, node=tag)
                elif ":" in prefix:
                    options.add_warning(
                        err_col_local_prefix % prefix, IncorrectPrefixDefinition, node=tag
                    )
                else:
                    uri = quote_uri(attr_value, options)
                    pr = prefix.lower() if v11 else prefix
                    local[pr] = uri
                    xmlns_local[pr] = uri
                    check_prefix(pr)

        if v11 and "prefix" in attrs:
            pr = attrs["prefix"]
            if pr is not None:
                pr_list = pr.strip().split()
                # parsed right-to-left (termorcurie.py:283)
                for i in range(len(pr_list) - 2, -1, -2):
                    prefix = pr_list[i]
                    if i == len(pr_list) - 1:
                        options.add_warning(err_missing_URI_prefix % (prefix, pr), node=tag)
                        break
                    value = pr_list[i + 1]
                    if prefix[-1] != ":":
                        options.add_warning(
                            err_invalid_prefix % (prefix, pr), IncorrectPrefixDefinition, node=tag
                        )
                        continue
                    elif prefix == ":":
                        options.add_warning(
                            err_no_default_prefix % pr, IncorrectPrefixDefinition, node=tag
                        )
                        continue
                    prefix = prefix[:-1]
                    uri = quote_uri(value, options)
                    if prefix == "":
                        self.default_curie_uri = uri
                    elif prefix == "_":
                        options.add_warning(
                            err_bnode_local_prefix, IncorrectPrefixDefinition, node=tag
                        )
                    else:
                        if NCNAME.match(prefix):
                            real_prefix = prefix.lower()
                            local[real_prefix] = uri
                            if (prefix in xmlns_local and xmlns_local[prefix] != uri) or (
                                real_prefix in xmlns_local and xmlns_local[real_prefix] != uri
                            ):
                                options.add_warning(
                                    err_prefix_and_xmlns % (real_prefix, real_prefix), node=tag
                                )
                            check_prefix(real_prefix)
                        else:
                            options.add_warning(
                                err_non_ncname_prefix % (prefix, pr),
                                IncorrectPrefixDefinition,
                                node=tag,
                            )

        # ---- merge with inherited (termorcurie.py:322-341) ----
        if inherited is None:
            self.default_prefixes = init_ns  # prefix -> uri (1.0: empty)
            inherited_prefixes: dict[str, str] = {}
        else:
            self.default_prefixes = inherited.default_prefixes
            inherited_prefixes = inherited.ns

        if not local:
            self.ns = inherited_prefixes
        else:
            self.ns = dict(inherited_prefixes)
            for key, uri in local.items():
                if (key in inherited_prefixes and uri != inherited_prefixes[key]) or (
                    key in self.default_prefixes and uri != self.default_prefixes[key]
                ):
                    options.add_warning(
                        err_prefix_redefinition % key, PrefixRedefinitionWarning, node=tag
                    )
                self.ns[key] = uri

        # ---- xmlns map for XML literal generation (termorcurie.py:344-353)
        if inherited is None:
            self.xmlns = xmlns_local
        elif not xmlns_local:
            self.xmlns = inherited.xmlns
        else:
            self.xmlns = dict(inherited.xmlns)
            self.xmlns.update(xmlns_local)

    # ---- CURIE reference validity (termorcurie.py:356-376) ----
    def _check_reference(self, val: str, state, tag: str) -> bool:
        def char_check(s, not_allowed=("#", "[", "]")):
            return not any(c in s for c in not_allowed)

        scheme, netloc, url, query, fragment = urlsplit("http:" + val)
        if netloc != "" and self.v11:
            state.options.add_warning(
                err_absolute_reference % (netloc, val), UnresolvableReference, node=tag
            )
            return False
        elif not char_check(query):
            state.options.add_warning(
                err_query_reference % (query, val), UnresolvableReference, node=tag
            )
            return False
        elif not char_check(fragment):
            state.options.add_warning(
                err_fragment_reference % (fragment, val), UnresolvableReference, node=tag
            )
            return False
        return True

    # ---- CURIE -> term (termorcurie.py:378-465) ----
    def CURIE_to_URI(self, val: str, state, tag: str):
        if val == "":
            return None
        elif val == ":":
            if self.default_curie_uri:
                return iri(self.default_curie_uri)
            return None

        curie_split = val.split(":", 1)
        if len(curie_split) == 1:
            return None
        prefix = curie_split[0].lower() if self.v11 else curie_split[0]
        reference = curie_split[1]

        if len(prefix) == 0:
            if self.default_curie_uri and self._check_reference(reference, state, tag):
                return iri(self.default_curie_uri + reference)
            return None
        if prefix == "_":
            return state.bnodes.for_curie_ref(reference)
        if NCNAME.match(prefix):
            if prefix in self.ns and self._check_reference(reference, state, tag):
                if len(reference) == 0:
                    return iri(self.ns[prefix])
                return iri(self.ns[prefix] + reference)
            elif prefix in self.default_prefixes and self._check_reference(reference, state, tag):
                if len(reference) == 0:
                    return iri(self.default_prefixes[prefix])
                return iri(self.default_prefixes[prefix] + reference)
            else:
                return None
        return None

    # ---- term -> IRI (termorcurie.py:467-499) ----
    def term_to_URI(self, term: str):
        if len(term) == 0:
            return None
        if TERMNAME.match(term):
            if self.default_term_uri is not None:
                return iri(self.default_term_uri + term)
            if term in self.terms:
                return iri(self.terms[term])
            low = term.lower()
            for defined_term in self.terms:
                if low == defined_term.lower():
                    return iri(self.terms[defined_term])
        return None


_ROOT_TERMS: dict = {}


def root_terms(state: "EvalState", node) -> TermContext:
    """The term context of a root that declares no ``prefix``, ``vocab``
    or ``xmlns:*``: the host's initial context, the same for every such
    document of one host language and RDFa version."""
    key = (state.options.host_language, state.rdfa_version >= "1.1")
    ctx = _ROOT_TERMS.get(key)
    if ctx is None:
        ctx = _ROOT_TERMS[key] = TermContext(state, node, set(), None)
    return ctx


class EvalState:
    """An evaluation context (``ExecutionContext``, state.py:67-267).

    The walk builds one for the document root and one for each element
    that :func:`changes_context`; every other element evaluates on its
    parent's.  So a context holds no element: :meth:`getURI` and
    :meth:`getResource` take the element whose attribute values they
    resolve and whose tag their diagnostics name.  The list mapping is not
    part of a context either; the walk carries it per element."""

    _list_attrs = frozenset(["rel", "rev", "property", "typeof", "role"])

    __slots__ = (
        "options",
        "bnodes",
        "rdfa_version",
        "base",
        "parsed_base",
        "term_or_curie",
        "lang",
        "defaultNS",
    )

    def __init__(
        self,
        node,
        graph: set,
        inherited_state: "EvalState | None" = None,
        base: str = "",
        options=None,
        rdfa_version: str | None = None,
        bnodes: BnodeGen | None = None,
    ):
        """A child context of ``inherited_state`` for ``node``, or, without
        one, the root context.  For an HTML host the root's ``base`` is the
        document base with ``<base href>`` already applied (:func:`html_base`)."""
        attrs = node.attrs

        if inherited_state is not None:
            self.rdfa_version = inherited_state.rdfa_version
            self.options = options = inherited_state.options
            self.bnodes = inherited_state.bnodes
            self.base = inherited_state.base
            if "xml:base" in attrs and options.host_language in ACCEPT_XML_BASE:
                self.base = _remove_frag_id(attrs["xml:base"])
        else:
            self.options = options
            self.bnodes = bnodes if bnodes is not None else BnodeGen()
            self.rdfa_version = rdfa_version if rdfa_version is not None else "1.1"

            # @version gate at the root (state.py:169-175)
            if "version" in attrs:
                top_version = attrs["version"]
                if "RDFa 1.0" in top_version or "RDFa1.0" in top_version:
                    self.rdfa_version = "1.0"
                elif "RDFa 1.1" in top_version or "RDFa1.1" in top_version:
                    self.rdfa_version = "1.1"

            self.base = ""
            host = options.host_language
            if host not in HTML_HOSTS and host in ACCEPT_XML_BASE and "xml:base" in attrs:
                self.base = _remove_frag_id(attrs["xml:base"])
            if self.base == "":
                self.base = base

        if inherited_state is not None and self.base is inherited_state.base:
            self.parsed_base = inherited_state.parsed_base
        else:
            self.parsed_base = urlsplit(self.base)
        if _declares_terms(attrs):
            self.term_or_curie = TermContext(
                self, node, graph,
                inherited_state.term_or_curie if inherited_state is not None else None,
            )
        elif inherited_state is not None:
            self.term_or_curie = inherited_state.term_or_curie
        else:
            self.term_or_curie = root_terms(self, node)

        # ---- language (state.py:218-257) ----
        self.lang = inherited_state.lang if inherited_state is not None else None
        if options.host_language in HTML_HOSTS:
            if "xml:lang" in attrs:
                xmllang = attrs["xml:lang"].lower()
                self.lang = xmllang if len(xmllang) != 0 else None
            elif "lang" in attrs:
                lang = attrs["lang"].lower()
                self.lang = lang if len(lang) != 0 else None
        elif options.host_language in ACCEPT_XML_LANG and "xml:lang" in attrs:
            self.lang = attrs["xml:lang"].lower() or None

        # ---- default namespace for XML literals (state.py:260-266) ----
        if "xmlns" in attrs:
            self.defaultNS = attrs["xmlns"]
        elif inherited_state is not None:
            self.defaultNS = inherited_state.defaultNS
        else:
            self.defaultNS = None

    # ---- URI resolution (state.py:269-339) ----
    def _URI(self, val: str, tag: str):
        if val == "":
            return (IRI, self.base)
        check = True
        if self.parsed_base[0] == "" and urlsplit(val)[0] != "":
            # base is a local identifier / empty-scheme; see state.py:321-332
            v = val
        else:
            check = self.parsed_base[0] != ""
            v = urljoin(self.base, val)
            # urljoin drops an empty fragment or query; keep it (state.py:301-313)
            last = val[-1]
            if (last == "#" or last == "?") and v and v[-1] != last:
                v += last
        v = v.strip()
        if check and urlsplit(v)[0] not in URI_SCHEMES:
            self.options.add_warning(err_URI_scheme % v, node=tag)
        return (IRI, v)

    # ---- CURIE-or-URI (state.py:341-387) ----
    def _CURIEorURI(self, val: str, tag: str):
        if val == "":
            return (IRI, self.base)
        if ":" not in val and val[0] != "[":
            return self._URI(val, tag)  # no CURIE without a colon

        safe_curie = False
        if val[0] == "[":
            if val[-1] != "]":
                self.options.add_warning(err_illegal_safe_CURIE % val, UnresolvablePrefix, node=tag)
                return None
            val = val[1:-1]
            safe_curie = True

        if self.rdfa_version >= "1.1":
            retval = self.term_or_curie.CURIE_to_URI(val, self, tag)
            if retval is None:
                if safe_curie:
                    self.options.add_warning(
                        err_no_CURIE_in_safe_CURIE % val, UnresolvablePrefix, node=tag
                    )
                    return None
                return self._URI(val, tag)
            # relative-URI filter (state.py:376-378)
            if retval[0] != BNODE and urlsplit(retval[1])[0] == "":
                return iri(self.base + retval[1])
            return retval
        else:
            if safe_curie:
                return self.term_or_curie.CURIE_to_URI(val, self, tag)
            return self._URI(val, tag)

    # ---- TERM-or-CURIE-or-AbsURI (state.py:389-430) ----
    def _TERMorCURIEorAbsURI(self, val: str, tag: str):
        if val == "":
            return None
        if TERMNAME.match(val):
            retval = self.term_or_curie.term_to_URI(val)
            if not retval:
                self.options.add_warning(
                    err_undefined_terms % val, UnresolvableTerm, node=tag, buggy_value=val
                )
                return None
            return retval
        retval = self.term_or_curie.CURIE_to_URI(val, self, tag)
        if retval:
            return retval
        elif self.rdfa_version >= "1.1":
            scheme = urlsplit(val)[0]
            if scheme == "":
                self.options.add_warning(err_non_legal_CURIE_ref % val, UnresolvablePrefix, node=tag)
                return None
            if scheme not in URI_SCHEMES:
                self.options.add_warning(err_URI_scheme % val.strip(), node=tag)
            return iri(val)
        else:
            self.options.add_warning(err_undefined_CURIE % val.strip(), UnresolvablePrefix, node=tag)
            return None

    _resource_type = {
        "href": _URI,
        "src": _URI,
        "vocab": _URI,
        "about": _CURIEorURI,
        "resource": _CURIEorURI,
        "rel": _TERMorCURIEorAbsURI,
        "rev": _TERMorCURIEorAbsURI,
        "datatype": _TERMorCURIEorAbsURI,
        "typeof": _TERMorCURIEorAbsURI,
        "property": _TERMorCURIEorAbsURI,
        "role": _TERMorCURIEorAbsURI,
    }

    # ---- getURI / getResource (state.py:434-482) ----
    def getURI(self, node, attr: str):
        """``node``'s ``attr`` resolved in this context: a list of terms for
        the list-valued attributes, else one term or None."""
        val = node.attrs.get(attr)
        if attr in EvalState._list_attrs:
            resources = []
            if val is not None:
                func = EvalState._resource_type[attr]
                tag = node.tag
                for v in val.split():
                    r = func(self, v, tag)
                    if r is not None:
                        resources.append(r)
            return resources
        if val is None:
            return None
        return EvalState._resource_type.get(attr, EvalState._URI)(self, val.strip(), node.tag)

    def getResource(self, node, *names):
        attrs = node.attrs
        for name in names:
            if name in attrs:
                uri = self.getURI(node, name)
                if uri is not None:
                    return uri
        return None
