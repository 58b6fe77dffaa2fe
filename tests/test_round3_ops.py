"""Unit tests for the round-3 operators: semi/anti join modes, the
windowed range join, exact grouped quantiles, token heavy hitters and
the inverted index — each against a planted small input with a
hand-computable expected result."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


def test_semi_anti_join(ray_session):
    from rdfa_ray.stages.join import bucketed_hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 4], "v": [10, 20, 30, 40, 41]})
    right = pd.DataFrame({"k": [2, 4, 4, 9]})
    semi = (
        bucketed_hash_join(_ds(left), _ds(right), on="k", how="semi", n_buckets=4)
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    # each matching left row exactly once, no right-side multiplication
    assert semi["k"].tolist() == [2, 4, 4]
    assert semi["v"].tolist() == [20, 40, 41]
    assert list(semi.columns) == ["k", "v"]

    anti = (
        bucketed_hash_join(_ds(left), _ds(right), on="k", how="anti", n_buckets=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert anti["k"].tolist() == [1, 3]
    # int64 preserved through the null-padded union
    assert anti["k"].dtype == np.int64


def test_range_join_count(ray_session):
    from rdfa_ray.stages.rangejoin import range_join_count

    us = 1_000_000
    left = pd.DataFrame(
        {
            "event_id": [1, 2, 3],
            "user_id": [7, 7, 8],
            "ts": pd.to_datetime([100 * us, 200 * us, 100 * us], unit="us"),
        }
    )
    # user 7 right rows at 40s (out), 50s (boundary: t-50 inclusive),
    # 100s (boundary: t inclusive), 150s; user 8 none
    right = pd.DataFrame(
        {
            "user_id": [7, 7, 7, 7],
            "ts": pd.to_datetime([40 * us, 50 * us, 100 * us, 150 * us], unit="us"),
        }
    )
    keep = ["event_id", "user_id"]
    # a left-only ``keep`` column of any type: the right side pads it
    # with nulls of its declared type (an int64 pad broke string ones)
    for x in (None, pa.int64(), pa.string()):
        keep_schema = None
        if x is not None:
            left["x"] = pa.array([5, 6, 7]).cast(x).to_pandas()
            keep_schema = pa.schema(
                [("event_id", pa.int64()), ("user_id", pa.int64()), ("x", x)]
            )
        out = (
            range_join_count(
                _ds(left), _ds(right), by="user_id", lo_us=-50 * us, hi_us=0,
                keep=keep + ([] if x is None else ["x"]),
                keep_schema=keep_schema, count_col="n", n_buckets=4,
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        # event 1 @100s window [50,100]: rows at 50,100 -> 2
        # event 2 @200s window [150,200]: row at 150 -> 1
        # event 3 user 8: no right rows -> 0
        assert out["n"].tolist() == [2, 1, 0]
        assert out["event_id"].dtype == np.int64
        if x is not None:
            assert out["x"].tolist() == left["x"].tolist()


def test_grouped_quantiles_exact(ray_session):
    from rdfa_ray.stages.quantile import grouped_quantiles

    rs = np.random.RandomState(5)
    df = pd.DataFrame(
        {
            "g": np.repeat(["a", "b"], 500),
            "v": np.concatenate(
                [rs.randint(0, 50, 500), rs.randint(100, 1000, 500)]
            ).astype("int64"),
        }
    )
    out = (
        grouped_quantiles(_ds(df), group="g", value="v", qs=[0.5, 0.9], n_buckets=4)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    for _, row in out.iterrows():
        vals = np.sort(df.loc[df["g"] == row["g"], "v"].to_numpy())
        for q, col in [(0.5, "q50"), (0.9, "q90")]:
            expect = vals[max(int(np.ceil(q * len(vals))), 1) - 1]
            assert row[col] == expect, (row["g"], col)


def test_token_topk_and_inverted_index(ray_session):
    from rdfa_ray.stages.tokens import inverted_index, token_topk

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "apple banana apple",
                "banana cherry BANANA",
                "apple date",
            ],
        }
    )
    top = token_topk(_ds(docs), k=3).to_pandas()
    # banana 3, apple 3 -> tie broken token asc: apple first
    assert top["token"].tolist() == ["apple", "banana", "cherry"]
    assert top["n"].tolist() == [3, 3, 1]

    idx = (
        inverted_index(_ds(docs), min_df=2, n_buckets=4)
        .to_pandas()
        .sort_values("token")
        .reset_index(drop=True)
    )
    assert idx["token"].tolist() == ["apple", "banana"]
    assert idx["postings"].tolist() == ["1,3", "1,2"]
    assert idx["df"].tolist() == [2, 2]


def test_join_rejects_unknown_modes(ray_session):
    from rdfa_ray.stages.join import bucketed_hash_join

    with pytest.raises(ValueError):
        bucketed_hash_join(None, None, on="k", how="cross")


def test_full_and_right_outer_join(ray_session):
    """Round 3: outer/right are exact — a bucket empty on one side
    still emits the other side's rows, null-padded."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.join import bucketed_hash_join

    l = rd.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()),
                  "x": pa.array(["a", "b"], pa.string())})
    )
    r = rd.from_arrow(
        pa.table({"k": pa.array([2, 3], pa.int64()),
                  "y": pa.array(["B", "C"], pa.string())})
    )
    schemas = dict(
        left_schema=pa.schema([("k", pa.int64()), ("x", pa.string())]),
        right_schema=pa.schema([("k", pa.int64()), ("y", pa.string())]),
    )
    full = (
        bucketed_hash_join(l, r, on="k", how="outer", n_buckets=4, **schemas)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(full["k"]) == [1, 2, 3]
    assert list(full["x"].fillna("-")) == ["a", "b", "-"]
    assert list(full["y"].fillna("-")) == ["-", "B", "C"]

    right = (
        bucketed_hash_join(l, r, on="k", how="right", n_buckets=4, **schemas)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(right["k"]) == [2, 3]
    assert list(right["x"].fillna("-")) == ["b", "-"]


def test_quantile_sketch_error_bound(ray_session):
    """Mergeable equi-weight summary: rank error <= 3/k per the
    3-compression-level construction; assert 2x slack on a skewed
    (lognormal) distribution split across many blocks."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.sketch import quantile_sketch

    rng = np.random.default_rng(7)
    vals = rng.lognormal(mean=0.0, sigma=2.0, size=120_000)
    ds = rd.from_arrow(
        pa.table({"value": pa.array(vals, pa.float64())})
    ).repartition(16)
    k = 512
    qs = [0.5, 0.9, 0.99]
    out = (
        quantile_sketch(ds, "value", qs, k=k, n_buckets=8)
        .to_pandas()
        .sort_values("q")
    )
    svals = np.sort(vals)
    for q, est in zip(out["q"], out["value"]):
        # rank of the estimate in the exact sorted data
        rank = np.searchsorted(svals, est) / len(svals)
        assert abs(rank - q) <= 2 * 3.0 / k, (q, est, rank)


def test_quantile_sketch_small_exact(ray_session):
    """Below k values, no compression fires: results are exact
    order statistics."""
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.sketch import quantile_sketch

    vals = [float(i) for i in range(1, 101)]
    ds = rd.from_arrow(pa.table({"value": pa.array(vals, pa.float64())}))
    out = (
        quantile_sketch(ds, "value", [0.5, 0.9], k=512)
        .to_pandas()
        .sort_values("q")
    )
    assert out["value"].tolist() == [50.0, 90.0]


def test_assign_split_deterministic_and_leak_free(ray_session):
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.split import assign_split

    texts = ["doc %d" % i for i in range(50)] + ["doc 0", "doc 1"]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(52), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(4)
    out = assign_split(ds).to_pandas().sort_values("doc_id")
    # matches the rule exactly
    for doc_id, split in zip(out["doc_id"], out["split"]):
        want = (
            "holdout"
            if hashlib.md5(texts[doc_id].encode()).hexdigest()[:2] < "40"
            else "train"
        )
        assert split == want
    # exact duplicates land in the same split (no train/eval leakage)
    assert out.iloc[0]["split"] == out.iloc[50]["split"]
    assert out.iloc[1]["split"] == out.iloc[51]["split"]
    # both splits are populated at this size
    assert set(out["split"]) == {"train", "holdout"}


def test_local_supplier_volume_q5(ray_session):
    """Q5 shape vs a DuckDB twin at sf0.001, plus edge regions."""
    import duckdb

    from rdfa_ray.pipelines.relational import local_supplier_volume

    sf = "/root/testdata/sf0.001"
    got = local_supplier_volume(sf).to_pandas()
    con = duckdb.connect()
    for t in ["customer", "orders", "lineitem", "supplier", "nation", "region"]:
        con.execute(
            "CREATE VIEW %s AS SELECT * FROM read_parquet('%s/%s.parquet')"
            % (t, sf, t)
        )
    want = con.execute(
        "SELECT n.n_name AS n_name,"
        " CAST(SUM(CAST(ROUND(l.l_extendedprice * (1 - l.l_discount) * 100.0)"
        " AS BIGINT)) AS BIGINT) AS revenue_cents "
        "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
        "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
        "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
        "JOIN nation n ON s.s_nationkey = n.n_nationkey "
        "JOIN region r ON n.n_regionkey = r.r_regionkey "
        "WHERE r.r_name = 'ASIA' AND c.c_nationkey = s.s_nationkey"
        " AND o.o_orderdate >= TIMESTAMP '1996-01-01'"
        " AND o.o_orderdate < TIMESTAMP '1997-01-01' "
        "GROUP BY 1 ORDER BY revenue_cents DESC, n_name"
    ).fetchdf()
    g = got.sort_values(["revenue_cents", "n_name"], ascending=[False, True])
    assert g["n_name"].tolist() == want["n_name"].tolist()
    assert g["revenue_cents"].tolist() == want["revenue_cents"].tolist()

    # empty date window -> empty result, no error
    empty = local_supplier_volume(
        sf, date_from="1900-01-01", date_to="1900-01-02"
    ).to_pandas()
    assert len(empty) == 0

    # unknown region -> empty
    none = local_supplier_volume(sf, region="ATLANTIS").to_pandas()
    assert len(none) == 0


# ------------------------------------------------------------------ BPE


def _bpe_train_reference(texts, n_merges, min_pair_count=2):
    """Sequential Sennrich-style trainer (independent of stages/bpe.py):
    word histogram -> per-round pair count -> merge best pair with a
    symbol-scan, greedy left-to-right."""
    import re
    from collections import Counter

    tok = re.compile(r"[a-z0-9]+")
    hist = Counter()
    for t in texts:
        hist.update(tok.findall(t.lower()))
    words = {w: list(w) + ["</w>"] for w in hist}
    merges = []
    for _ in range(n_merges):
        pairs = Counter()
        for w, syms in words.items():
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += hist[w]
        if not pairs:
            break
        best = max(pairs, key=lambda p: (pairs[p], tuple(-ord(c) for c in " ".join(p))))
        # deterministic tie-break: count desc, pair asc
        best = min(
            (p for p in pairs if pairs[p] == pairs[best]),
            key=lambda p: " ".join(p),
        )
        if pairs[best] < min_pair_count:
            break
        merges.append(best)
        a, b = best
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    return merges, words


def test_bpe_train_matches_sequential_reference(ray_session):
    import ray.data as rd

    from rdfa_ray.stages.bpe import train_bpe

    texts = [
        "the cat sat on the mat",
        "the cats sat on the mats",
        "a cat and a dog and a cat",
        "low lower lowest newest newer new",
        "hello hello world world world",
    ] * 3
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    got = train_bpe(ds, n_merges=20, max_words=1000)
    want, _ = _bpe_train_reference(texts, 20)
    got_pairs = list(zip(got.column("left").to_pylist(), got.column("right").to_pylist()))
    assert got_pairs == want


def test_bpe_encode_counts_match_reference(ray_session):
    import re

    import ray.data as rd

    from rdfa_ray.stages.bpe import encode_token_counts, train_bpe

    texts = [
        "banana bandana banana",
        "the band banned the banner",
        "an anagram and a banana",
    ] * 2
    ds = rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    merges = train_bpe(ds, n_merges=12, max_words=1000)
    out = (
        encode_token_counts(ds, merges)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    _, words = _bpe_train_reference(texts, 12)
    tok = re.compile(r"[a-z0-9]+")
    for i, t in enumerate(texts):
        want = sum(len(words[w]) for w in tok.findall(t.lower()))
        assert int(out.loc[out["doc_id"] == i, "n_tokens"].iloc[0]) == want


def test_bpe_consecutive_pair_fixpoint(ray_session):
    """'a a a a' must merge to [aa, aa] — the shared-delimiter case the
    single replace pass misses (module docstring)."""
    import ray.data as rd

    from rdfa_ray.stages.bpe import encode_token_counts, train_bpe

    texts = ["aaaa aaaa aaaa"]  # one word 'aaaa' x3
    ds = rd.from_items([{"doc_id": 0, "text": texts[0]}])
    merges = train_bpe(ds, n_merges=1, min_pair_count=1)
    assert list(
        zip(merges.column("left").to_pylist(), merges.column("right").to_pylist())
    ) == [("a", "a")]
    out = encode_token_counts(ds, merges).to_pandas()
    # 'aaaa' -> [aa, aa, </w>] = 3 tokens per word, 3 words
    assert int(out["n_tokens"].iloc[0]) == 9


def test_bpe_degenerate_inputs(ray_session):
    """Empty / null / vocabulary-less texts: no merges, zero counts —
    and all-null blocks (which Arrow types as null) don't crash the
    split kernel."""
    import ray.data as rd

    from rdfa_ray.stages.bpe import encode_token_counts, train_bpe

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": ""},
            {"doc_id": 1, "text": None},
            {"doc_id": 2, "text": "!!!"},
        ]
    )
    merges = train_bpe(ds, n_merges=8)
    assert merges.num_rows == 0
    out = encode_token_counts(ds, merges).to_pandas().sort_values("doc_id")
    assert out["n_tokens"].tolist() == [0, 0, 0]


# ------------------------------------------------------------- HTML extract


def test_extract_visible_fixtures():
    from rdfa_ray.stages.extract import extract_visible

    clean, n_tags, n_links, ld, tr = extract_visible(
        '<html><head><style>p{color:red}</style><script>var x=1;</script>'
        '</head><body><h1>Title</h1><p>Hello <b>world</b> this is '
        '<a href="/x">a link</a>.</p><div>Second   block</div></body></html>'
    )
    assert clean == "Title\nHello world this is a link.\nSecond block"
    assert n_links == 1
    # link chars 'alink'=5 of 38 non-ws visible chars -> 1315 bps
    assert ld == 1315

    clean, _, n_links, ld, tr = extract_visible("plain text, no markup")
    assert clean == "plain text, no markup" and n_links == 0 and tr == 10000

    clean, *_ = extract_visible("<p>one</p><p></p><p>two</p>")
    assert clean == "one\ntwo"

    assert extract_visible("")[0] == ""
    assert extract_visible(None)[0] == ""

    # nested links and skip subtrees inside body text
    clean, _, n_links, ld, _ = extract_visible(
        '<ul><li>a</li><li>b <a href=x>c</a></li></ul>'
    )
    assert clean == "a\nb c" and n_links == 1 and ld == 3333


def test_extract_text_stage(ray_session):
    import ray.data as rd

    from rdfa_ray.stages.extract import extract_text

    ds = rd.from_items(
        [
            {"doc_id": 1, "text": "<p>alpha <a href=x>beta</a></p>"},
            {"doc_id": 2, "text": "<script>no()</script>gamma"},
        ]
    )
    out = extract_text(ds, keep=("doc_id",)).to_pandas().sort_values("doc_id")
    assert out["clean_text"].tolist() == ["alpha beta", "gamma"]
    assert out["n_links"].tolist() == [1, 0]


# --------------------------------------------------------------------------
# int8 scalar-quantized ANN (stages/sq.py)


def _emb_ds(mat):
    import pyarrow as pa
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(len(mat)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in mat],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )


def test_sq_encode_matches_plain_numpy_twin(ray_session):
    import numpy as np

    from rdfa_ray.stages.sq import encode_matrix, normalize_exact, sq_minmax

    rng = np.random.RandomState(7)
    mat = rng.randn(300, 16).astype(np.float32)
    ds = _emb_ds(mat)
    mins, maxs = sq_minmax(ds, dim=16)
    x = normalize_exact(mat.astype(np.float64))
    assert np.array_equal(mins, x.min(axis=0))
    assert np.array_equal(maxs, x.max(axis=0))
    # the exact-norm normalization tracks true L2 normalization
    true = mat.astype(np.float64)
    true = true / np.linalg.norm(true, axis=1, keepdims=True)
    assert np.abs(x - true).max() < 1e-6
    codes = encode_matrix(x, mins, maxs)
    assert codes.dtype.name == "uint8"
    # reference twin: scalar half-up per element
    ref = np.empty_like(codes)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            r = maxs[j] - mins[j] if maxs[j] > mins[j] else 1.0
            ref[i, j] = min(
                255, max(0, int(np.floor((x[i, j] - mins[j]) * 255.0 / r + 0.5)))
            )
    assert np.array_equal(codes, ref)


def test_sq_constant_dimension_codes_zero(ray_session):
    import numpy as np

    from rdfa_ray.stages.sq import encode_matrix

    x = np.ones((5, 3))
    x[:, 1] = np.arange(5)
    codes = encode_matrix(x, x.min(axis=0), x.max(axis=0))
    assert (codes[:, 0] == 0).all() and (codes[:, 2] == 0).all()
    assert codes[0, 1] == 0 and codes[4, 1] == 255


def test_sq_topk_recall_vs_exact(ray_session):
    import numpy as np

    from rdfa_ray.stages.ann import brute_force_topk
    from rdfa_ray.stages.sq import sq_topk

    rng = np.random.RandomState(3)
    # each query has 9 planted near-duplicates; the rest of the corpus
    # is far away in cosine — the true top-10 is well separated, so a
    # correct 8-bit quantizer must recover it.  (With near-tied true
    # sims, sub-quantization-step rank flips are expected SQ behavior,
    # not a bug.)
    queries = rng.randn(3, 32) * 2
    blocks = [
        np.vstack([q] + [q + rng.randn(32) * 0.01 for _ in range(9)])
        for q in queries
    ]
    mat = np.vstack(blocks + [rng.randn(300, 32) * 2])
    ds = _emb_ds(mat)
    qids = [0, 10, 20]
    exact = (
        brute_force_topk(ds, query_ids=qids, k=10)
        .to_pandas().groupby("query_id")["vec_id"].apply(set)
    )
    quant = (
        sq_topk(ds, query_ids=qids, k=10, dim=32)
        .to_pandas().groupby("query_id")["vec_id"].apply(set)
    )
    for qid in qids:
        recall = len(exact[qid] & quant[qid]) / 10
        assert recall >= 0.9, (qid, recall)


def test_sq_topk_partition_invariance(ray_session):
    import numpy as np
    import pandas as pd

    from rdfa_ray.stages.sq import sq_topk

    rng = np.random.RandomState(11)
    mat = rng.randn(400, 16)
    a = (
        sq_topk(_emb_ds(mat).repartition(1), query_ids=[1, 2], k=5, dim=16)
        .to_pandas().sort_values(["query_id", "vec_id"]).reset_index(drop=True)
    )
    b = (
        sq_topk(_emb_ds(mat).repartition(17), query_ids=[1, 2], k=5, dim=16)
        .to_pandas().sort_values(["query_id", "vec_id"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_sq_codes_fixed_size_layout(ray_session):
    import numpy as np

    from rdfa_ray.stages.sq import sq_codes, sq_minmax

    rng = np.random.RandomState(5)
    mat = rng.randn(64, 8)
    ds = _emb_ds(mat)
    mins, maxs = sq_minmax(ds, dim=8)
    tbl = sq_codes(ds, mins, maxs).to_pandas()
    assert len(tbl) == 64
    assert all(len(c) == 8 for c in tbl["code"])
    flat = np.concatenate([np.asarray(c) for c in tbl["code"]])
    assert flat.min() >= 0 and flat.max() <= 255


# --------------------------------------------------------------------------
# ordered funnel (pipelines/relational.funnel_counts)


def test_funnel_strict_ordering(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rdfa_ray.pipelines.relational import funnel_counts

    # u1: full funnel in order; u2: click BEFORE view (click must not
    # count); u3: view only; u4: purchase without click (not counted)
    rows = [
        (1, 100, "view"), (1, 200, "click"), (1, 300, "purchase"),
        (2, 100, "click"), (2, 200, "view"), (2, 300, "click"),
        (3, 100, "view"),
        (4, 100, "view"), (4, 200, "purchase"),
        # u5: click at the SAME ts as view -> strictly-after fails
        (5, 100, "view"), (5, 100, "click"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    df["ts"] = pd.to_datetime(df["ts"], unit="s")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    out = (
        funnel_counts(str(tmp_path))
        .to_pandas().set_index("step_name")["users"]
    )
    assert out["view"] == 5       # u1..u5 all viewed
    assert out["click"] == 2      # u1 and u2 (u2's 2nd click, after view)
    assert out["purchase"] == 1   # only u1 in order


def test_salted_join_matches_unsalted(ray_session):
    """Hot-key salting: identical results to the plain join on a
    skewed corpus (one whale key), for every left-preserving mode."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from rdfa_ray.stages.join import bucketed_hash_join

    rng = np.random.RandomState(9)
    left = pd.DataFrame(
        {
            # 80% of probe rows hit key 7 (the whale)
            "k": np.where(rng.rand(500) < 0.8, 7, rng.randint(0, 40, 500)),
            "v": np.arange(500),
        }
    )
    right = pd.DataFrame({"k": np.arange(0, 40, 2), "w": np.arange(20)})

    for how in ("inner", "left", "semi", "anti"):
        plain = (
            bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                               on="k", how=how, n_buckets=8)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        salted = (
            bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                               on="k", how=how, n_buckets=8, salt=4)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(plain, salted), how

    import pytest as _pytest

    for how in ("right", "outer"):
        with _pytest.raises(ValueError):
            bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                               on="k", how=how, salt=4)


def test_cohort_retention_semantics(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rdfa_ray.pipelines.relational import cohort_retention

    WEEK = 7 * 86_400
    rows = [
        # u1 signs up week 0, active weeks 0 and 2
        (1, 0 * WEEK + 10, "signup"), (1, 0 * WEEK + 20, "view"),
        (1, 2 * WEEK + 5, "click"),
        # u2 signs up week 0 too; pre-signup event must NOT count
        (2, 0 * WEEK - 100, "view"), (2, 0 * WEEK + 50, "signup"),
        # u3 signs up week 1, two events same week count ONCE
        (3, 1 * WEEK + 9, "signup"), (3, 1 * WEEK + 99, "view"),
        # u4 never signs up -> excluded entirely
        (4, 0 * WEEK + 5, "view"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "secs", "event_type"])
    # shift everything up a year so the pre-signup event stays >= 0
    df["ts"] = pd.to_datetime(df["secs"] + 52 * WEEK, unit="s")
    pq.write_table(
        pa.Table.from_pandas(df[["user_id", "ts", "event_type"]],
                             preserve_index=False),
        str(tmp_path / "events.parquet"),
    )
    out = (
        cohort_retention(str(tmp_path))
        .to_pandas()
        .set_index(["cohort_week", "week_offset"])["users"]
    )
    w0 = 52  # epoch-aligned week of the shifted origin
    assert out[(w0, 0)] == 2          # u1 + u2 active in signup week
    assert out[(w0, 2)] == 1          # u1 returns in week 2
    assert out[(w0 + 1, 0)] == 1      # u3's cohort, deduped to one
    assert (w0 - 1, 0) not in out.index   # u2 pre-signup dropped
    assert len(out) == 3
