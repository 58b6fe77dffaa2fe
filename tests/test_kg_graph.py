"""Tests for the KG query/analytics stages added in round 3: SPARQL-style
BGP matching, transitive closure (property path p+), PageRank, TF-IDF.

Reference parity targets: rdflib SPARQL evalBGP
(rdflib/plugins/sparql/evaluate.py) for BGP bag semantics,
rdflib.Graph.transitive_objects (rdflib/graph.py) for closure.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from rdfa_ray.stages.bgp import bgp_match
from rdfa_ray.stages.closure import transitive_closure
from rdfa_ray.stages.pagerank import pagerank
from rdfa_ray.stages.tfidf import tfidf_topk


def _triples(rows):
    subj, pred, obj = zip(*rows)
    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(pred, pa.string()),
                "obj_value": pa.array(obj, pa.string()),
            }
        )
    )


def _edges(pairs):
    src, dst = zip(*pairs)
    return rd.from_arrow(
        pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )
    )


def test_bgp_star(ray_session):
    ds = _triples(
        [
            ("d1", "lang", "zh"),
            ("d1", "type", "Doc"),
            ("d1", "src", "web"),
            ("d2", "lang", "en"),
            ("d2", "type", "Doc"),
            ("d2", "src", "web"),
            ("d3", "lang", "zh"),
            ("d3", "src", "book"),  # no type triple -> excluded
        ]
    )
    out = bgp_match(
        ds,
        [("?d", "lang", "zh"), ("?d", "type", "Doc"), ("?d", "src", "?s")],
        select=["d", "s"],
        n_buckets=4,
    ).to_pandas()
    assert out.to_records(index=False).tolist() == [("d1", "web")]


def test_bgp_chain_object_join_and_bag_semantics(ray_session):
    # join key in OBJECT position on both sides; duplicate base triples
    # must yield duplicate bindings (bag semantics, like SPARQL on a
    # multiset)
    ds = _triples(
        [
            ("a", "src", "w"),
            ("a", "src", "w"),  # duplicate
            ("b", "src", "w"),
            ("c", "src", "x"),
        ]
    )
    out = bgp_match(
        ds,
        [("?d1", "src", "?s"), ("?d2", "src", "?s")],
        select=["d1", "d2"],
        n_buckets=4,
    ).to_pandas()
    pairs = sorted(map(tuple, out.to_records(index=False).tolist()))
    # 3 'w' rows (a,a,b) x 3 = 9, plus c-x self 1x1 = 1
    assert len(pairs) == 10
    assert pairs.count(("a", "b")) == 2 and pairs.count(("b", "a")) == 2
    assert pairs.count(("a", "a")) == 4 and ("c", "c") in pairs


def test_bgp_repeated_var_and_cross_product_rejected(ray_session):
    ds = _triples([("a", "p", "a"), ("a", "p", "b")])
    out = bgp_match(ds, [("?x", "p", "?x")], n_buckets=2).to_pandas()
    assert out["x"].tolist() == ["a"]
    with pytest.raises(ValueError):
        bgp_match(ds, [("?x", "p", "?y"), ("?z", "p", "?w")], n_buckets=2)


# the three adaptive execution modes: driver-local, distributed
# broadcast rounds, distributed shuffle rounds
_MODES = [
    {},  # local fast path (default limits)
    {"local_limit": 0},  # broadcast rounds
    {"local_limit": 0, "broadcast_limit": 0},  # shuffle rounds
]


@pytest.mark.parametrize("mode", _MODES)
def test_closure_deep_chain(ray_session, mode):
    # 12-hop chain: far beyond any fixed iteration count
    n = 12
    out = transitive_closure(
        _edges([(i, i + 1) for i in range(n)]), n_buckets=4, **mode
    )
    got = set(map(tuple, out.to_pandas().to_records(index=False).tolist()))
    want = {(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)}
    assert got == want


@pytest.mark.parametrize("mode", _MODES)
def test_closure_cycle_and_diamond(ray_session, mode):
    # cycle 0->1->2->0 plus diamond 3->{4,5}->6
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5), (4, 6), (5, 6)]
    out = transitive_closure(_edges(edges), n_buckets=4, **mode)
    got = set(map(tuple, out.to_pandas().to_records(index=False).tolist()))
    cyc = {(i, j) for i in (0, 1, 2) for j in (0, 1, 2)}
    dia = {(3, 4), (3, 5), (3, 6), (4, 6), (5, 6)}
    assert got == cyc | dia


@pytest.mark.parametrize("mode", _MODES)
def test_closure_repeated_edge_is_one_path(ray_session, mode):
    # p+ has set semantics on every executor: sorted lists, not sets,
    # so a duplicated pair shows
    out = transitive_closure(_edges([(0, 1), (0, 1), (1, 2)]), n_buckets=4, **mode)
    got = sorted(map(tuple, out.to_pandas().to_records(index=False).tolist()))
    assert got == [(0, 1), (0, 2), (1, 2)]


def _dense_pagerank(edges, n_iters, damping):
    nodes = sorted({v for e in edges for v in e})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    outdeg = np.zeros(n)
    for s, _ in edges:
        outdeg[idx[s]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(n_iters):
        contrib = np.zeros(n)
        for s, d in edges:
            contrib[idx[d]] += r[idx[s]] / outdeg[idx[s]]
        dangling = r[outdeg == 0].sum()
        r = (1 - damping) / n + damping * (contrib + dangling / n)
    return {v: r[idx[v]] for v in nodes}


@pytest.mark.parametrize(
    "mode",
    [
        {},  # local dense fast path
        {"local_limit": 0},  # broadcast supersteps
        {"local_limit": 0, "broadcast_limit": 0},  # shuffle supersteps
    ],
)
def test_pagerank_matches_dense(ray_session, mode):
    rng = np.random.default_rng(7)
    edges = sorted({(int(a), int(b)) for a, b in rng.integers(0, 30, (120, 2))})
    edges = [e for e in edges if e[0] != e[1]]
    got = (
        pagerank(_edges(edges), n_iters=8, n_buckets=4, **mode)
        .to_pandas()
        .set_index("node")["rank"]
    )
    want = _dense_pagerank(edges, 8, 0.85)
    assert set(got.index) == set(want)
    assert abs(got.sum() - 1.0) < 1e-6
    for v, r in want.items():
        assert got[v] == pytest.approx(r, abs=1e-9)


def test_tfidf_topk_small_corpus(ray_session):
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["cat cat dog", "dog mouse", "Mouse mouse MOUSE"],
                    pa.string(),
                ),
            }
        )
    )
    out = tfidf_topk(docs, n_docs=3, k=3, n_buckets=2).to_pandas()
    # idf: cat=ln(3/1), dog=ln(3/2), mouse=ln(3/2)
    exp = {
        (0, "cat"): int(np.floor(2 * np.log(3.0) * 1e6 + 0.5)),
        (2, "mouse"): int(np.floor(3 * np.log(1.5) * 1e6 + 0.5)),
        (0, "dog"): int(np.floor(1 * np.log(1.5) * 1e6 + 0.5)),
    }
    got = {
        (r.doc_id, r.token): r.score_micro for r in out.itertuples(index=False)
    }
    assert got == exp
    # descending by score
    assert list(out["score_micro"]) == sorted(out["score_micro"], reverse=True)
    # the bucketed-join fallback (giant-vocabulary path) agrees
    forced = tfidf_topk(
        docs, n_docs=3, k=3, n_buckets=2, broadcast_vocab_limit=0
    ).to_pandas()
    assert forced.reset_index(drop=True).equals(out.reset_index(drop=True))
