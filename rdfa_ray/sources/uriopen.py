"""Resource opening + vocabulary dereferencing — the engine's analogue
of the reference's ``URIOpener`` (``pyRdfa/utils.py:46-141``), the
vocab fetch ``return_graph`` (``pyRdfa/rdfs/process.py:53-129``) and
its Expires-based persisted cache (``pyRdfa/rdfs/cache.py:89-334``),
restructured for an offline-first, transport-injectable world:

* ``file://`` URIs and bare filesystem paths work out of the box
  (suffix-based media type via the reference's ``preferred_suffixes``
  table, ``host/__init__.py:129-142``; ``Last-Modified`` analogue from
  the file mtime);
* ``data:`` URIs (RFC 2397, base64 or percent-encoded) carry their own
  media type — handy for tests and config-inlined vocabularies;
* ``http(s)://`` goes through an INJECTABLE ``fetcher`` callable
  (``fetcher(url, headers) -> (bytes, header_dict, final_url)``) so a
  deployment with network access plugs its client in.  This sandbox
  has no network, so without a fetcher the opener raises loudly
  instead of pretending.

The vocabulary side (`return_vocab_graph`) dispatches on the resolved
media type exactly like the reference — Turtle, RDF/XML, N-Triples, or
a full RDFa distillation for (X)HTML/SVG/XML — but into the engine's
term-tuple graphs, and `VocabCache` persists fetched graphs as
N-Triples next to a JSON index with the reference's expiration
semantics (refresh only after the recorded Expires date, bypassable
with ``refresh=True``, matching ``vocab_cache_refresh``).

Cluster shape: dereferencing is a DRIVER-SIDE configuration step (the
reference does it once per run too); the resulting graphs are small
schema graphs that ride to workers via ``options.vocab_graphs`` and
``ray.put`` exactly like config-injected vocabularies.
"""

from __future__ import annotations

import base64
import datetime
import email.utils
import os
import pathlib
import urllib.parse

from ..state import commit

# media types: reference host/__init__.py:102-114
MT_RDFXML = "application/rdf+xml"
MT_TURTLE = "text/turtle"
MT_HTML = "text/html"
MT_XHTML = "application/xhtml+xml"
MT_SVG = "application/svg+xml"
MT_SVGI = "image/svg+xml"
MT_SMIL = "application/smil+xml"
MT_ATOM = "application/atom+xml"
MT_XML = "application/xml"
MT_XMLT = "text/xml"
MT_NT = "text/plain"

# suffix -> media type registry data (same REGISTRATIONS as reference
# host/__init__.py:129-142; alphabetical here)
PREFERRED_SUFFIXES = {
    ".atom": MT_ATOM,
    ".html": MT_HTML,
    ".n3": MT_TURTLE,
    ".nt": MT_NT,
    ".owl": MT_RDFXML,
    ".rdf": MT_RDFXML,
    ".shtml": MT_HTML,
    ".smil": MT_SMIL,
    ".svg": MT_SVG,
    ".ttl": MT_TURTLE,
    ".xhtml": MT_XHTML,
    ".xml": MT_XML,
}

_MARKUP_TYPES = {MT_HTML, MT_XHTML, MT_SVG, MT_SVGI, MT_XML, MT_XMLT,
                 MT_SMIL, MT_ATOM}


class ResourceOpenError(ValueError):
    """Raised when a resource cannot be opened (the reference's
    RDFaError/HTTPError split collapses into one offline-side type)."""


def _parse_http_date(value: str):
    try:
        dt = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if dt is None:
        return None
    if dt.tzinfo is not None:
        dt = dt.astimezone(datetime.timezone.utc).replace(tzinfo=None)
    return dt


def _split_content_type(value: str):
    """'text/html; charset=utf-8' -> ('text/html', 'utf-8'|None) — the
    engine's stand-in for the reference's vendored httpheader module."""
    parts = [p.strip() for p in value.split(";")]
    media = parts[0].lower()
    charset = None
    for p in parts[1:]:
        if p.lower().startswith("charset="):
            charset = p.split("=", 1)[1].strip().strip('"') or None
    return media, charset


class ResourceOpener:
    """Open a URI and expose the reference ``URIOpener`` surface:
    ``data`` (bytes), ``content_type``, ``charset``, ``location``,
    ``expiration_date``, ``last_modified_date``, ``headers``.

    ``fetcher``: optional transport for http(s) —
    ``fetcher(url, headers) -> (bytes, headers_dict, final_url)``.
    """

    def __init__(self, name: str, additional_headers: dict | None = None,
                 fetcher=None):
        headers = dict(additional_headers or {})
        headers.setdefault("Accept", "text/html, application/xhtml+xml")
        scheme = urllib.parse.urlsplit(name).scheme.lower()
        # fragment removal per HTTP spec (reference utils.py:75) — only
        # URLs carry fragments; a bare path keeps its '#'
        url = name.split("#")[0] if scheme else name
        self.headers: dict = {}
        self.charset = None
        self.last_modified_date = None
        # reference default: now + 1 day (utils.py:115)
        self.expiration_date = (
            datetime.datetime.utcnow() + datetime.timedelta(days=1)
        )

        if scheme in ("http", "https"):
            if fetcher is None:
                raise ResourceOpenError(
                    "no network transport available for %r — pass a "
                    "fetcher(url, headers) -> (bytes, headers, final_url) "
                    "callable (this environment is offline)" % url
                )
            try:
                data, resp_headers, final_url = fetcher(url, headers)
            except Exception as e:
                raise ResourceOpenError("%s" % e) from e
            self.data = data
            self.headers = dict(resp_headers or {})
            hl = {k.lower(): v for k, v in self.headers.items()}
            if "content-type" in hl:
                self.content_type, self.charset = _split_content_type(
                    hl["content-type"]
                )
            else:
                self.content_type = self._suffix_type(url)
            if "content-location" in hl:
                self.location = urllib.parse.urljoin(
                    final_url or url, hl["content-location"]
                )
            else:
                self.location = name
            if "expires" in hl:
                dt = _parse_http_date(hl["expires"])
                if dt is not None:
                    self.expiration_date = dt
            if "last-modified" in hl:
                self.last_modified_date = _parse_http_date(hl["last-modified"])
        elif scheme == "data":
            self.data, self.content_type, self.charset = _parse_data_uri(url)
            self.location = name
        elif scheme == "file" or scheme == "":
            path = (
                urllib.parse.unquote(urllib.parse.urlsplit(url).path)
                if scheme == "file"
                else url
            )
            try:
                with open(path, "rb") as f:
                    self.data = f.read()
                mtime = os.path.getmtime(path)
            except OSError as e:
                raise ResourceOpenError("%s" % e) from e
            self.content_type = self._suffix_type(path)
            self.location = name
            self.last_modified_date = datetime.datetime.utcfromtimestamp(mtime)
        else:
            raise ResourceOpenError("unsupported URI scheme in %r" % name)

    @staticmethod
    def _suffix_type(name: str) -> str:
        for suffix, mt in PREFERRED_SUFFIXES.items():
            if name.endswith(suffix):
                return mt
        return ""

    def text(self) -> str:
        return self.data.decode(self.charset or "utf-8", errors="replace")


def _parse_data_uri(uri: str):
    """RFC 2397: data:[<mediatype>][;base64],<data>."""
    body = uri[len("data:"):]
    if "," not in body:
        raise ResourceOpenError("malformed data: URI (no comma)")
    meta, payload = body.split(",", 1)
    is_b64 = meta.endswith(";base64")
    if is_b64:
        meta = meta[: -len(";base64")]
    media, charset = (_split_content_type(meta) if meta
                      else ("text/plain", "US-ASCII"))
    if is_b64:
        try:
            data = base64.b64decode(payload, validate=False)
        except Exception as e:
            raise ResourceOpenError("bad base64 data: URI: %s" % e) from e
    else:
        data = urllib.parse.unquote_to_bytes(payload)
    return data, media, charset


# ---------------------------------------------------------------------------
# Vocabulary dereferencing (reference rdfs/process.py:53-129)

_VOCAB_ACCEPT = (
    "text/html;q=0.8, application/xhtml+xml;q=0.8, "
    "text/turtle;q=1.0, application/rdf+xml;q=0.9"
)
VOCAB_REF_ERROR = "http://www.w3.org/ns/rdfa#VocabReferenceError"


def return_vocab_graph(uri: str, options=None, fetcher=None):
    """Dereference ``uri`` and parse it into an engine triple set by
    media type (Turtle / RDF/XML / N-Triples / RDFa markup).  Returns
    ``(triples | None, expiration_date | None)``; parse problems warn
    through ``options`` and return None, mirroring the reference."""
    from ..kernel.embedded import parse_rdfxml, parse_turtle
    from ..kernel.options import KernelOptions
    from ..kernel.state import BnodeGen
    from ..kernel.walk import distill
    from ..rdf.ntriples import parse_ntriples

    options = options if options is not None else KernelOptions()

    def warn(msg):
        options.add_warning(msg, warning_type=VOCAB_REF_ERROR)

    try:
        content = ResourceOpener(uri, {"Accept": _VOCAB_ACCEPT},
                                 fetcher=fetcher)
    except ResourceOpenError as e:
        warn("Vocabulary at <%s> could not be dereferenced: %s" % (uri, e))
        return None, None

    ct = content.content_type
    text = content.text()
    try:
        if ct == MT_TURTLE:
            triples = parse_turtle(text, uri, BnodeGen())
        elif ct == MT_RDFXML:
            from ..dom.xml_builder import parse_xml

            doc = parse_xml(text)
            triples = parse_rdfxml(doc.root, uri, BnodeGen())
        elif ct == MT_NT:
            triples = parse_ntriples(text)
        elif ct in _MARKUP_TYPES:
            triples, _diags = distill(text, base=uri)
        else:
            warn(
                "Vocabulary at <%s> has unrecognized media type %r" % (uri, ct)
            )
            return None, None
    except Exception as e:
        warn("Vocabulary at <%s> could not be parsed: %s" % (uri, e))
        return None, None
    return set(triples), content.expiration_date


def load_vocab_graphs(uris, options=None, fetcher=None, cache=None) -> dict:
    """Dereference several vocabulary URIs into the
    ``options.vocab_graphs`` config shape ({uri: triple set};
    unreachable/unparsable ones are skipped with a warning).  Pass a
    :class:`VocabCache` to persist across runs."""
    graphs = {}
    for uri in uris:
        if cache is not None:
            g = cache.get(uri, options=options, fetcher=fetcher)
        else:
            g, _exp = return_vocab_graph(uri, options=options, fetcher=fetcher)
        if g is not None:
            graphs[uri] = g
    return graphs


# ---------------------------------------------------------------------------
# Persisted Expires-based vocab cache (reference rdfs/cache.py:89-334,
# without the platform-pickle machinery: JSON index + N-Triples files,
# atomic writes, single-writer like the engine's other /-stores)


class VocabCache:
    """Persisted vocabulary cache.  ``get(uri)`` returns the cached
    triple set while the recorded expiration date is in the future;
    otherwise (or with ``refresh=True``, the reference's
    ``vocab_cache_refresh``) it re-dereferences and re-persists.  On a
    failed refresh the stale graph is served with a warning — the
    reference's ``err_outdated_cache`` behavior."""

    INDEX = "index.json"

    def __init__(self, cache_dir: str):
        self.dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self._index = commit.read_manifest(cache_dir, self.INDEX) or {}

    def _write_index(self) -> None:
        # concurrent caches sharing a dir: last writer wins, atomically
        commit.publish_manifest(self.dir, self.INDEX, self._index)

    @staticmethod
    def _key(uri: str) -> str:
        import hashlib

        return hashlib.sha256(uri.encode()).hexdigest()[:24]

    def _load_triples(self, key: str):
        from ..rdf.ntriples import parse_ntriples

        try:
            with open(os.path.join(self.dir, key + ".nt")) as f:
                return set(parse_ntriples(f.read()))
        except (OSError, ValueError):
            return None

    def _store(self, uri: str, triples, expiration) -> None:
        from ..rdf.ntriples import graph_to_ntriples

        key = self._key(uri)
        text = graph_to_ntriples(triples)  # writer sorts lines itself
        commit.atomic_write(
            os.path.join(self.dir, key + ".nt"),
            lambda tmp: pathlib.Path(tmp).write_text(text),
        )
        self._index[uri] = {
            "key": key,
            "expires": expiration.isoformat() if expiration else None,
        }
        self._write_index()

    def get(self, uri: str, options=None, fetcher=None, refresh: bool = False):
        entry = self._index.get(uri)
        if entry is not None and not refresh:
            exp = entry.get("expires")
            if exp is not None:
                try:
                    fresh = (datetime.datetime.fromisoformat(exp)
                             > datetime.datetime.utcnow())
                except ValueError:
                    fresh = False
            else:
                fresh = False
            if fresh:
                cached = self._load_triples(entry["key"])
                if cached is not None:
                    return cached
        triples, expiration = return_vocab_graph(uri, options=options,
                                                 fetcher=fetcher)
        if triples is None:
            # reference err_outdated_cache: serve the stale copy
            if entry is not None:
                stale = self._load_triples(entry["key"])
                if stale is not None and options is not None:
                    options.add_warning(
                        "Vocabulary at <%s> could not be refreshed; the "
                        "cached (possibly outdated) copy is used" % uri,
                        warning_type=VOCAB_REF_ERROR,
                    )
                return stale
            return None
        self._store(uri, triples, expiration)
        return triples
