"""Ray pipeline end-to-end tests (small corpus; Ray init once per
session via conftest's ray_session fixture)."""

import json
import os
import pathlib
import shutil

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def small_corpus(ray_session):
    from rdfa_ray.sources.transcripts import transcripts_dataset

    return transcripts_dataset(400, override_num_blocks=4)


def _fresh(tmp_base, name):
    out = os.path.join(tmp_base, name)
    shutil.rmtree(out, ignore_errors=True)
    return out


def test_flagship_end_to_end(ray_session, small_corpus, tmp_path_factory):
    from rdfa_ray.pipelines import run_flagship
    from rdfa_ray.sources.transcripts import transcripts_dataset

    out = _fresh(str(tmp_path_factory.getbasetemp()), "flag1")
    summary = run_flagship(small_corpus, out, n_parts=8)
    assert summary["triples"].sum() > 400  # markup-rich corpus
    assert (summary["rows"] > 0).all()
    # all partitions have parquet + nq + manifest
    parts = sorted(int(p) for p in summary["part"])
    for p in parts:
        assert os.path.exists("%s/parquet/part-%05d.parquet" % (out, p))
        assert os.path.exists("%s/nt/part-%05d.nq" % (out, p))
        assert os.path.exists("%s/_manifest/part-%05d.json" % (out, p))

    # resume: nothing left to do
    s2 = run_flagship(transcripts_dataset(400, override_num_blocks=4), out, n_parts=8)
    assert len(s2) == 0

    # partial resume: delete one manifest -> exactly that part reruns,
    # byte-identical output (determinism under retry)
    victim = parts[0]
    nq_before = open("%s/nt/part-%05d.nq" % (out, victim)).read()
    os.remove("%s/_manifest/part-%05d.json" % (out, victim))
    s3 = run_flagship(transcripts_dataset(400, override_num_blocks=4), out, n_parts=8)
    assert sorted(s3["part"]) == [victim]
    assert open("%s/nt/part-%05d.nq" % (out, victim)).read() == nq_before


def test_text_passthrough_invariant(ray_session):
    """Per-turn text equality under stable (conv_id, turn_idx) ordering."""
    from rdfa_ray.sources.transcripts import transcripts_dataset

    a = (
        transcripts_dataset(200, override_num_blocks=4)
        .sort(["conv_id", "turn_idx"])
        .to_pandas()
    )
    b = (
        transcripts_dataset(200, override_num_blocks=2)
        .repartition(3, shuffle=True)
        .sort(["conv_id", "turn_idx"])
        .to_pandas()
    )
    assert (a["text"].values == b["text"].values).all()
    assert (a["conv_id"].values == b["conv_id"].values).all()


def test_distiller_matches_kernel(ray_session, small_corpus):
    """The Ray stage must emit exactly the kernel's triples per turn."""
    from rdfa_ray.kernel import distill
    from rdfa_ray.pipelines.flagship import build_triples
    from rdfa_ray.stages.distill import graph_iri

    turns = small_corpus.limit(40).to_pandas()
    out = build_triples(small_corpus.limit(40), concurrency=2).to_pandas()
    for _, row in turns.iterrows():
        g = graph_iri(row["conv_id"], row["turn_idx"])
        expected, diags = distill(row["text"], base=g)
        got = out[(out["graph"] == g) & (out["kind"] == "triple")]
        assert len(got) == len(expected), row["text"][:120]
        assert len(out[(out["graph"] == g) & (out["kind"] == "diag")]) == len(diags)


def test_linker_and_canonicalize(ray_session):
    import ray

    from rdfa_ray.pipelines.flagship import build_triples
    from rdfa_ray.sources.aliases import build_alias_table, entity_iri, entity_surface
    from rdfa_ray.sources.transcripts import TRANSCRIPTS_SCHEMA
    from rdfa_ray.stages.canonicalize import OWL_SAME_AS, canonicalize
    from rdfa_ray.stages.link import AugmentingLinker
    import pyarrow as pa
    import ray.data as rd

    surface = entity_surface(3)
    turns = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "conv_id": ["c1"],
                "turn_idx": pa.array([0], pa.int32()),
                "role": ["user"],
                "text": [
                    '<div about="http://x.org/s" property="http://schema.org/name">%s</div>'
                    '<div about="http://x.org/other" rel="http://schema.org/about" '
                    'resource="http://x.org/s">ref</div>' % surface
                ],
                "tool": [""],
                "ts": pa.array([0], pa.timestamp("us")),
            },
            schema=TRANSCRIPTS_SCHEMA,
        )
    )
    triples = build_triples(turns, concurrency=2)
    alias_ref = ray.put(build_alias_table())
    augmented = triples.map_batches(
        AugmentingLinker,
        fn_constructor_kwargs={"alias_ref": alias_ref},
        batch_format="pyarrow",
        concurrency=2,
    )
    result = canonicalize(augmented).to_pandas()
    trip = result[result["kind"] == "triple"]
    assert entity_iri(3) in set(trip["subj"])
    same_as = trip[trip["pred"] == OWL_SAME_AS]
    assert len(same_as) == 1 and same_as["obj_value"].iloc[0] == "http://x.org/s"
    # object position referencing the canonicalized subject follows it
    ref_edge = trip[trip["pred"] == "http://schema.org/about"]
    assert len(ref_edge) == 1 and ref_edge["obj_value"].iloc[0] == entity_iri(3)



def test_flagship_partition_schemas_are_identical(ray_session, tmp_path):
    """Every Parquet partition carries one schema, also a partition
    that holds no language-tagged literal (its obj_lang is all null)."""
    import glob

    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.pipelines.flagship import run_flagship
    from rdfa_ray.sources.transcripts import TRANSCRIPTS_SCHEMA

    n = 12
    texts = [
        '<p about="http://x.org/c%d" property="http://schema.org/name"%s>name %d</p>'
        % (i, ' lang="en"' if i == 0 else "", i)
        for i in range(n)
    ]
    turns = pa.Table.from_pydict(
        {
            "conv_id": ["conv%02d" % i for i in range(n)],
            "turn_idx": [0] * n,
            "role": ["user"] * n,
            "text": texts,
            "tool": [""] * n,
            "ts": [0] * n,
        },
        schema=TRANSCRIPTS_SCHEMA,
    )
    out = str(tmp_path / "flag")
    run_flagship(rd.from_arrow(turns), out, n_parts=4)
    files = sorted(glob.glob(out + "/parquet/part-*.parquet"))
    assert len(files) >= 2
    schemas = [pq.read_schema(f) for f in files]
    assert len({str(s.remove_metadata()) for s in schemas}) == 1
    assert all(s.equals(schemas[0], check_metadata=True) for s in schemas)
    assert schemas[0].field("obj_lang").type == pa.string()
    langs = pa.concat_tables(pq.read_table(f) for f in files).column("obj_lang")
    assert langs.null_count == n - 1

def test_dedup_and_text_stages(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.dedup import exact_dedup, jaccard, minhash_dedup, simhash_dedup

    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    near = base.replace("lazy", "sleepy")
    docs = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": [base, base, near, "completely different text about nothing"],
            }
        )
    )
    exact = exact_dedup(docs).to_pandas()
    dup_group = exact[exact["n"] == 2]
    assert len(dup_group) == 1 and dup_group["keeper"].iloc[0] == 1

    assert jaccard(base, near) > 0.5
    mh = minhash_dedup(docs, threshold=0.5).to_pandas()
    pairs = set(zip(mh["a"], mh["b"]))
    assert (1, 2) in pairs  # exact dup always survives
    sh = simhash_dedup(docs).to_pandas()
    assert (1, 2) in set(zip(sh["a"], sh["b"]))


def test_ann_bruteforce_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.ann import brute_force_topk

    rs = np.random.RandomState(5)
    mat = rs.randn(100, 16)
    embs = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "vec_id": pa.array(range(100), pa.int64()),
                "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    got = brute_force_topk(embs, query_ids=[0], k=5).to_pandas()
    # numpy reference
    m32 = mat.astype(np.float32).astype(np.float64)
    normed = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    sims = normed @ normed[0]
    expected = set(np.argsort(-sims)[:5].tolist())
    assert set(got["vec_id"]) == expected


def test_cosine_dup_pairs_planted(ray_session):
    """The driver embeddings have no >=0.95 pairs (max cosine ~0.51), so
    the embedding_dups query legitimately returns 0 rows there; prove
    the LSH+verify path works on planted near-duplicates."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.ann import cosine_dup_pairs

    rs = np.random.RandomState(9)
    base = rs.randn(50, 16)
    # plant: vec 50 = copy of 0, vec 51 = tiny perturbation of 1
    planted = np.vstack([base, base[0], base[1] + 0.01 * rs.randn(16)])
    embs = rd.from_arrow(
        pa.Table.from_pydict(
            {
                "vec_id": pa.array(range(len(planted)), pa.int64()),
                "embedding": pa.array(planted.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    got = cosine_dup_pairs(embs, threshold=0.95).to_pandas()
    pairs = set(zip(got["a"], got["b"]))
    assert (0, 50) in pairs and (1, 51) in pairs


def test_bucketed_join_edges(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.join import bucketed_hash_join

    left = rd.from_arrow(
        pa.Table.from_pydict({"k": pa.array([1, 2, 3], pa.int64()), "lval": ["a", "b", "c"]})
    )
    right = rd.from_arrow(
        pa.Table.from_pydict({"k": pa.array([2, 3, 4], pa.int64()), "rval": ["x", "y", "z"]})
    )
    inner = bucketed_hash_join(left, right, on="k", n_buckets=4).to_pandas()
    assert sorted(zip(inner["k"], inner["lval"], inner["rval"])) == [
        (2, "b", "x"), (3, "c", "y"),
    ]
    leftj = bucketed_hash_join(left, right, on="k", n_buckets=4, how="left").to_pandas()
    assert len(leftj) == 3 and leftj[leftj["k"] == 1]["rval"].isna().all()


def test_simhasher_vectorized_matches_scalar_twin():
    """The vectorized batch SimHasher must be bit-identical to the
    scalar simhash64 reference on every doc (incl. empty/None text,
    repeated words, mixed case, punctuation-only)."""
    import re

    import numpy as np
    import pyarrow as pa

    from rdfa_ray.stages.dedup import SimHasher, _SIM_BANDS

    rs = np.random.RandomState(11)
    vocab = ["alpha", "Beta", "gamma2", "DELTA", "x", "longword" * 3]
    texts = [
        " ".join(rs.choice(vocab, rs.randint(0, 40)).tolist()) for _ in range(50)
    ]
    texts += ["", None, "!!! ... ---", "word", "a b a b a b"]
    batch = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = SimHasher()(batch)
    word_re = re.compile(r"[A-Za-z0-9]+")
    got = dict(
        zip(out.column("doc_id").to_pylist(), out.column("simhash").to_pylist())
    )
    for i, t in enumerate(texts):
        want = SimHasher.simhash64(word_re.findall((t or "").lower()))
        assert got[i] == want, (i, t)
    # band keys are the 4 16-bit slices, doc-major band 0..3
    df = out.to_pandas()
    sims = df["simhash"].to_numpy(dtype=np.uint64)
    bands = df["band"].to_numpy(dtype=np.uint64)
    expect = (sims >> (np.uint64(16) * bands)) & np.uint64(0xFFFF)
    assert (df["key"].to_numpy(dtype=np.int64) == expect.astype(np.int64)).all()
    assert len(df) == len(texts) * _SIM_BANDS


def test_text_analyzer_vectorized_matches_scalar_lang():
    """Vectorized language scorer + stopword ratio must match the
    scalar reference twin (incl. ties, zero-score -> unk, None text)."""
    import pyarrow as pa

    from rdfa_ray.stages.text import _STOPWORDS, TextAnalyzer

    texts = [
        "the cat and the dog in the house",
        "der einzige schoene ich und die schule",
        "les questions que nous avons de la ville",
        "de la que el los dias",
        "zzz qqq xxx",
        "",
        None,
        "ing and the der die ein que les",  # cross-language mix
    ]
    batch = pa.Table.from_pydict(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = TextAnalyzer()(batch).to_pandas()
    import re

    tok = re.compile(r"[A-Za-z0-9]+")
    for i, t in enumerate(texts):
        t0 = t or ""
        assert out["lang_pred"][i] == TextAnalyzer.guess_lang(t0), (i, t)
        toks = [w.lower() for w in tok.findall(t0)]
        n_stop = sum(w in _STOPWORDS for w in toks)
        assert out["n_stopwords"][i] == n_stop
        want_ratio = n_stop / len(toks) if toks else 0.0
        assert abs(out["stopword_ratio"][i] - want_ratio) < 1e-12


def test_cli_rejects_non_transcript_table(ray_session, tmp_path):
    # wrong input table must fail loudly at entry, not KeyError inside
    # a Ray task with an empty output dir
    import pytest

    from rdfa_ray.cli import main

    with pytest.raises(SystemExit, match="not a transcripts table"):
        main([
            "--input", "/root/testdata/sf0.001/documents.parquet",
            "--output", str(tmp_path / "out"),
        ])
