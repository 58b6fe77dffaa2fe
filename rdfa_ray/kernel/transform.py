"""DOM pre-transforms applied before the walk.

Built-ins (reference ``transform/__init__.py`` +
``__init__.py:350-352``): ``empty_safe_curie`` and ``vocab_for_role``,
fused into one pass that runs on the documents that can trigger it,
and ``top_about``.  Host transforms (html5/xhtml5:
``host/html5.py:157-224``; atom: ``host/atom.py:19-29``) run per-node
during the walk.  Opt-ins: ``meta_transform``
(``transform/metaname.py``), OpenID and DublinCore rewrites, RDFa Lite
checking (``transform/lite.py``).
"""

from __future__ import annotations

import re
from datetime import datetime

from ..dom.sniff import HostLanguage
from .context import XHTML_URI
from .state import TERMNAME

# ---------------------------------------------------------------------------
# Built-in transformers (run on the whole tree before the walk)

_SUBJECT_ATTRS = frozenset(("href", "resource", "about", "src"))
_OBJECT_ATTRS = frozenset(("resource", "href", "src"))
_PREDICATE_ATTRS = frozenset(("rel", "rev", "property"))


def top_about(root, options, state) -> None:
    """Reference transform/__init__.py:22-59."""
    attrs = root.attrs
    if "about" not in attrs:
        if _OBJECT_ATTRS.isdisjoint(attrs) or not _PREDICATE_ATTRS.isdisjoint(attrs):
            attrs["about"] = ""

    if options.host_language in (HostLanguage.xhtml, HostLanguage.html5, HostLanguage.xhtml5):
        if state.rdfa_version < "1.1":
            # RDFa 1.0: a <head>/<body> without a subject or object of its
            # own gets about="" (set_about, transform/__init__.py:26-35)
            for tag in ("head", "body"):
                for top in root.getElementsByTagName(tag):
                    if _SUBJECT_ATTRS.isdisjoint(top.attrs):
                        top.attrs["about"] = ""


def fused_builtin_scan(root, options, state) -> None:
    """One tree pass applying the reference's ``empty_safe_curie``
    (transform/__init__.py:62-87) and ``vocab_for_role`` (:89-117); their
    per-element effects are independent and order-free.  ``top_about``
    stays separate: it touches only the root (and, in RDFa 1.0, the html
    head and body)."""
    for el in root.iter_elements():
        attrs = el.attrs
        for name in ("about", "resource"):
            if attrs.get(name) == "[]":
                del attrs[name]
                attrs[name + "_pruned"] = ""
                options.add_warning(
                    "Attribute @%s uses an empty safe CURIE; the attribute is ignored" % name,
                    node=el.tag,
                )
        role = attrs.get("role")
        if role:
            new_values = ""
            for val in role.strip().split():
                if TERMNAME.match(val):
                    new_values += XHTML_URI + val + " "
                else:
                    new_values += val + " "
            attrs["role"] = new_values.strip()


# ---------------------------------------------------------------------------
# HTML5 host transforms (per-node, host/html5.py)

_XSD = "http://www.w3.org/2001/XMLSchema#"
DATETIME_TYPE = _XSD + "dateTime"
TIME_TYPE = _XSD + "time"
DATE_TYPE = _XSD + "date"
G_YEAR = _XSD + "gYear"
G_YEAR_MONTH = _XSD + "gYearMonth"
G_MONTH_DAY = _XSD + "gMonthDay"
DURATION_TYPE = _XSD + "duration"
PLAIN = "plain"

HANDLED_TIME_TYPES = (
    DATETIME_TYPE, TIME_TYPE, DATE_TYPE, G_YEAR, G_YEAR_MONTH, G_MONTH_DAY, DURATION_TYPE,
)

# strptime tables: reference host/html5.py:39-64
_FORMATS = {
    G_MONTH_DAY: ["%m-%d"],
    G_YEAR_MONTH: ["%Y-%m"],
    G_YEAR: ["%Y"],
    DATE_TYPE: ["%Y-%m-%d", "%Y-%m-%dZ"],
    TIME_TYPE: ["%H:%M", "%H:%M:%S", "%H:%M:%SZ", "%H:%M:%S.%f"],
    DATETIME_TYPE: [
        "%Y-%m-%dT%H:%M",
        "%Y-%m-%dT%H:%M:%S",
        "%Y-%m-%dT%H:%M:%S.%f",
        "%Y-%m-%dT%H:%MZ",
        "%Y-%m-%dT%H:%M:%SZ",
        "%Y-%m-%dT%H:%M:%S.%fZ",
    ],
    DURATION_TYPE: ["P%dD", "P%YY%mM%dD", "P%YY%mM", "P%YY%dD", "P%YY", "P%mM", "P%mM%dD"],
}
_DUR_TIMES = ["%HH%MM%SS", "%HH", "%MM", "%SS", "%HH%MM", "%HH%SS", "%MM%SS"]


def _try_formats(string, formats):
    for fmt in formats:
        try:
            datetime.strptime(string, fmt)
            return True
        except ValueError:
            pass
    return False


_FORMAT_MEMO: dict = {}
_FORMAT_MEMO_CAP = 4096


def format_test(string: str) -> str:
    """Sniff the xsd datatype of a time-ish string (host/html5.py:66-155).
    Pure, and the same date and time strings recur across documents, so
    results are memoized in a bounded per-process dict."""
    hit = _FORMAT_MEMO.get(string)
    if hit is None:
        if len(_FORMAT_MEMO) >= _FORMAT_MEMO_CAP:
            _FORMAT_MEMO.clear()
        hit = _FORMAT_MEMO[string] = _format_test(string)
    return hit


def _format_test(string: str) -> str:
    for key, formats in _FORMATS.items():
        if _try_formats(string, formats):
            return key

    if len(string) > 2 and (string[0] == "P" or (string[0] == "-" and string[1] == "P")):
        if string[0] == "-" and _try_formats(string, _FORMATS[DURATION_TYPE]):
            return DURATION_TYPE
        durs = string.split("T")
        if len(durs) == 2:
            dur, tm = durs
            if _try_formats(dur, _FORMATS[DURATION_TYPE]) and _try_formats(tm, _DUR_TIMES):
                return DURATION_TYPE
            return PLAIN
        return PLAIN

    # explicit-timezone datetime check (html5.py:131-154)
    try:
        head = string[0:-6]
        tz = string[-5:]
        try:
            datetime.strptime(tz, "%H:%M")
        except ValueError:
            return PLAIN
        if _try_formats(head, _FORMATS[DATETIME_TYPE]):
            return DATETIME_TYPE
    except Exception:
        pass
    return PLAIN


_WS_RE = re.compile(r"(\r| |\n|\t)+")


def html5_extra_attributes(node, state) -> None:
    """Reference host/html5.py:157-201: a ``datetime`` or a ``<time>``'s
    text becomes ``@content``, with the sniffed ``@datatype``."""
    attrs = node.attrs
    if "content" in attrs:
        return
    if "datetime" in attrs:
        value = attrs["datetime"]
    elif "dateTime" in attrs:
        value = attrs["dateTime"]
    elif node.tag == "time":
        value = node.text_content()
        if not state.options.space_preserve:
            value = _WS_RE.sub(" ", value).strip()
    else:
        return
    if "datatype" not in attrs:
        dt = format_test(value)
        if dt != PLAIN:
            attrs["datatype"] = dt
    attrs["content"] = value


def remove_rel(node, state) -> None:
    """Reference host/html5.py:203-224: next to ``@property``, a term in
    ``@rel``/``@rev`` is dropped (and an attribute left empty with it)."""
    attrs = node.attrs
    if "property" not in attrs:
        return
    for attr in ("rev", "rel"):
        if attr in attrs:
            vals = attrs[attr].split()
            if vals:
                final_vals = [v for v in vals if not TERMNAME.match(v)]
                if not final_vals:
                    del attrs[attr]
                else:
                    attrs[attr] = " ".join(final_vals)


def html5_host_transform(node, state) -> None:
    """Both HTML5 host transforms, in the reference's order, each on the
    elements it can act on."""
    attrs = node.attrs
    if "content" not in attrs and (
            "datetime" in attrs or "dateTime" in attrs or node.tag == "time"):
        html5_extra_attributes(node, state)
    if "property" in attrs and ("rel" in attrs or "rev" in attrs):
        remove_rel(node, state)


def atom_add_entry_type(node, state) -> None:
    """Reference host/atom.py:19-29."""
    if node.tag == "entry" and _SUBJECT_ATTRS.isdisjoint(node.attrs) \
            and "typeof" not in node.attrs:
        node.attrs["typeof"] = ""


_HTML5_TRIGGERS = (html5_host_transform, frozenset(("time",)),
                   frozenset(("datetime", "dateTime", "rel", "rev")))
_ATOM_TRIGGERS = (atom_add_entry_type, frozenset(("entry",)), frozenset())
_NO_TRIGGERS = (None, frozenset(), frozenset())


def host_transform_for(host_language):
    """``(transform, tags, attribute names)``: the per-element host
    transform of a host language (or None) and the tags and attribute
    names without which it cannot act on an element."""
    if host_language in (HostLanguage.html5, HostLanguage.xhtml5):
        return _HTML5_TRIGGERS
    if host_language == HostLanguage.atom:
        return _ATOM_TRIGGERS
    return _NO_TRIGGERS


# ---------------------------------------------------------------------------
# Opt-in transformers (reference transform/metaname.py, OpenID.py,
# DublinCore.py, lite.py)


def meta_transform(root, options, state) -> None:
    """<meta name=...> -> @property (transform/metaname.py:14-28)."""
    for meta in root.getElementsByTagName("meta"):
        attrs = meta.attrs
        if "name" in attrs and "property" not in attrs:
            attrs["property"] = attrs["name"]


def openid_transform(root, options, state) -> None:
    """rel="openid.X" -> openid:X + ns decl (transform/OpenID.py:24-63)."""
    found = False
    for link in root.getElementsByTagName("link"):
        rel = link.attrs.get("rel")
        if rel is not None and "openid." in rel:
            link.attrs["rel"] = rel.replace("openid.", "openid:")
            found = True
    if found:
        root.attrs["xmlns:openid"] = "http://xmlns.openid.net/auth#"


def dublincore_transform(root, options, state) -> None:
    """Dublin Core link/meta rewrite (transform/DublinCore.py:25-96)."""
    dc_prefixes = {}
    for link in root.getElementsByTagName("link"):
        rel = link.attrs.get("rel", "")
        if rel.startswith("schema.") and "href" in link.attrs:
            prefix = rel[len("schema."):]
            if prefix:
                dc_prefixes[prefix] = link.attrs["href"]
                root.attrs["xmlns:%s" % prefix] = link.attrs["href"]
    if not dc_prefixes:
        return
    for tagname in ("link", "meta"):
        for el in root.getElementsByTagName(tagname):
            for attr in ("rel", "rev", "name"):
                if attr in el.attrs:
                    parts = el.attrs[attr].split(".", 1)
                    if len(parts) == 2 and parts[0] in dc_prefixes:
                        curie = "%s:%s" % (parts[0], parts[1])
                        el.attrs["property" if attr == "name" else attr] = curie


_LITE_ATTRS = frozenset(["rel", "rev", "about", "content", "datatype", "inlist"])


def lite_prune(root, options, state) -> None:
    """Warn on non-RDFa-Lite attributes (transform/lite.py:17-71); no pruning."""
    for el in root.iter_elements():
        for attr in list(el.attrs):
            if attr in _LITE_ATTRS:
                if attr == "rel":
                    if el.tag != "link":
                        options.add_warning(
                            "Attribute @%s is not used in RDFa Lite" % attr, node=el.tag
                        )
                else:
                    options.add_warning(
                        "Attribute @%s is not used in RDFa Lite" % attr, node=el.tag
                    )
