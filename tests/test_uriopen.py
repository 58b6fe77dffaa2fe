"""sources/uriopen.py — the URIOpener / vocab-fetch / vocab-cache
analogue (reference utils.py:46-141, rdfs/process.py:53-129,
rdfs/cache.py:89-334): offline schemes, media-type dispatch,
injectable transport, and Expires-based cache semantics."""

import datetime
import os

import pytest

from rdfa_ray.kernel.options import KernelOptions
from rdfa_ray.sources.uriopen import (
    MT_HTML,
    MT_TURTLE,
    ResourceOpenError,
    ResourceOpener,
    VocabCache,
    load_vocab_graphs,
    return_vocab_graph,
)

RDFS_SUB = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"
TTL = ("<http://v/name> <%s> <http://v/label> .\n" % RDFS_SUB)


def _triple_count(g):
    return len(g)


def test_file_uri_and_bare_path_suffix_typing(tmp_path):
    p = tmp_path / "vocab.ttl"
    p.write_text(TTL)
    for name in ("file://" + str(p), str(p)):
        r = ResourceOpener(name)
        assert r.content_type == MT_TURTLE
        assert r.data.decode() == TTL
        assert r.last_modified_date is not None
        assert r.expiration_date > datetime.datetime.utcnow()
    html = tmp_path / "doc.html"
    html.write_text("<html></html>")
    assert ResourceOpener(str(html)).content_type == MT_HTML
    with pytest.raises(ResourceOpenError):
        ResourceOpener(str(tmp_path / "missing.ttl"))


def test_data_uri_base64_and_urlencoded():
    import base64

    b64 = base64.b64encode(TTL.encode()).decode()
    r = ResourceOpener("data:text/turtle;base64," + b64)
    assert r.content_type == MT_TURTLE and r.data.decode() == TTL
    r2 = ResourceOpener("data:text/turtle,%3Chttp%3A%2F%2Fa%3E <http://p> <http://o> .")
    assert r2.data.startswith(b"<http://a>")
    with pytest.raises(ResourceOpenError):
        ResourceOpener("data:no-comma-here")


def test_http_requires_injected_fetcher():
    with pytest.raises(ResourceOpenError, match="offline"):
        ResourceOpener("http://example.org/vocab")
    with pytest.raises(ResourceOpenError):
        ResourceOpener("ftp://example.org/x")


def test_http_fetcher_headers_and_expires():
    seen = {}

    def fetcher(url, headers):
        seen["url"], seen["headers"] = url, headers
        return (
            TTL.encode(),
            {
                "Content-Type": "text/turtle; charset=utf-8",
                "Expires": "Wed, 01 Jan 2031 00:00:00 GMT",
                "Last-Modified": "Tue, 01 Jan 2030 00:00:00 GMT",
                "Content-Location": "/real/vocab.ttl",
            },
            url,
        )

    r = ResourceOpener("http://example.org/vocab#frag", fetcher=fetcher)
    assert seen["url"] == "http://example.org/vocab"  # fragment stripped
    assert "Accept" in seen["headers"]
    assert r.content_type == MT_TURTLE and r.charset == "utf-8"
    assert r.location == "http://example.org/real/vocab.ttl"
    assert r.expiration_date.year == 2031
    assert r.last_modified_date.year == 2030


def test_vocab_graph_dispatch_turtle_rdfxml_nt_markup(tmp_path):
    opts = KernelOptions()
    # turtle
    t = tmp_path / "v.ttl"
    t.write_text(TTL)
    g, exp = return_vocab_graph(str(t), opts)
    assert _triple_count(g) == 1 and exp is not None
    # n-triples
    n = tmp_path / "v.nt"
    n.write_text(TTL)
    g2, _ = return_vocab_graph(str(n), opts)
    assert g == g2
    # rdf/xml
    x = tmp_path / "v.rdf"
    x.write_text(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#">'
        '<rdf:Description rdf:about="http://v/name">'
        '<rdfs:subPropertyOf rdf:resource="http://v/label"/>'
        "</rdf:Description></rdf:RDF>"
    )
    g3, _ = return_vocab_graph(str(x), opts)
    assert g == g3
    # RDFa markup
    h = tmp_path / "v.html"
    h.write_text(
        '<html><body><div about="http://v/name">'
        '<span rel="rdfs:subPropertyOf" resource="http://v/label"></span>'
        "</div></body></html>"
    )
    g4, _ = return_vocab_graph(str(h), opts)
    assert g == g4
    # unreachable -> warning + None
    g5, exp5 = return_vocab_graph(str(tmp_path / "nope.ttl"), opts)
    assert g5 is None and exp5 is None
    assert any("dereferenced" in d.message for d in opts.diagnostics)


def test_vocab_cache_fresh_expired_and_stale_serve(tmp_path):
    src = tmp_path / "v.ttl"
    src.write_text(TTL)
    cache = VocabCache(str(tmp_path / "cache"))
    g1 = cache.get(str(src))
    assert _triple_count(g1) == 1
    # mutate the source: a FRESH cache entry keeps serving the old copy
    src.write_text(TTL + "<http://v/x> <%s> <http://v/y> .\n" % RDFS_SUB)
    assert cache.get(str(src)) == g1
    # force expiry: the refresh picks up the new content
    uri = str(src)
    cache._index[uri]["expires"] = "2000-01-01T00:00:00"
    cache._write_index()
    cache2 = VocabCache(str(tmp_path / "cache"))
    g2 = cache2.get(uri)
    assert _triple_count(g2) == 2
    # refresh=True bypasses freshness outright
    assert cache2.get(uri, refresh=True) == g2
    # source vanishes after expiry: the stale copy is served, warned
    cache2._index[uri]["expires"] = "2000-01-01T00:00:00"
    cache2._write_index()
    os.unlink(uri)
    opts = KernelOptions()
    g3 = VocabCache(str(tmp_path / "cache")).get(uri, options=opts)
    assert g3 == g2
    assert any("cached" in d.message for d in opts.diagnostics)
    # unknown uri with no cache entry: None
    assert VocabCache(str(tmp_path / "cache")).get(
        str(tmp_path / "ghost.ttl")
    ) is None


def test_load_vocab_graphs_skips_failures(tmp_path):
    good = tmp_path / "a.ttl"
    good.write_text(TTL)
    opts = KernelOptions()
    graphs = load_vocab_graphs(
        [str(good), str(tmp_path / "missing.ttl")], options=opts
    )
    assert list(graphs) == [str(good)]
    assert any("dereferenced" in d.message for d in opts.diagnostics)


def test_bare_path_keeps_hash_in_file_name(tmp_path):
    # only URLs carry '#' fragments; a bare local path is a file name
    p = tmp_path / "vocab#v1.ttl"
    p.write_text(TTL)
    r = ResourceOpener(str(p))
    assert r.data.decode() == TTL
    assert r.content_type == MT_TURTLE
    # a file:// URL still drops its fragment
    plain = tmp_path / "plain.ttl"
    plain.write_text(TTL)
    assert ResourceOpener("file://%s#frag" % plain).data.decode() == TTL
