"""Deduplication stages for large-scale training-data pipelines.

All operate on a ``documents``-shaped Dataset (doc_id, text, ...):

* exact dedup     — content-hash + hash-partitioned group, keep first
* MinHash + LSH   — shingle -> minhash -> banded buckets -> candidate
                    pairs -> exact-Jaccard verify
* SimHash         — 64-bit simhash + banded hamming LSH
* n-gram Jaccard  — the verify kernel, exposed standalone

Scale notes: every stage pre-computes signatures inside vectorized /
tight-loop ``map_batches`` (hashing is numpy where possible); the only
shuffles are groupbys on hash keys (uniformly distributed by
construction, so no salting needed).  Candidate verification joins
shingle sets through the bucket groupby — never a cross join.
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def _text_md5_batch(batch: pa.Table) -> pa.Table:
    hashes = [
        hashlib.md5((t or "").encode()).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    return pa.Table.from_pydict(
        {"doc_id": batch.column("doc_id"), "h": pa.array(hashes)}
    )


def exact_dedup(docs_ds):
    """Exact duplicate groups: (h, keeper=min doc_id, n).  Hash first in
    map_batches (so only (doc_id, 16-byte hash) rows shuffle), then a
    hash-partitioned groupby."""
    from ray.data.aggregate import Count, Min

    hashed = docs_ds.map_batches(_text_md5_batch, batch_format="pyarrow")
    return hashed.groupby("h").aggregate(
        Min("doc_id", alias_name="keeper"), Count(alias_name="n")
    )


def exact_dup_drops(docs_ds, n_buckets: int = 64):
    """The DROP side of exact dedup: (doc_id) rows for every non-keeper
    duplicate (keeper = min doc_id per content hash).  Duplicates are
    usually a minority, so this inverted output is the side worth
    broadcasting/Bloom-ing — an anti join of the corpus against it
    keeps document text out of the exchange entirely (only the
    (doc_id, 16-byte hash) pairs shuffle here)."""
    import pandas as pd

    from ..functions.exchange import keyed_exchange

    hashed = docs_ds.map_batches(_text_md5_batch, batch_format="pyarrow")

    def drops(group: pd.DataFrame) -> pa.Table:
        keeper = group.groupby("h", sort=False)["doc_id"].transform("min")
        out = group.loc[group["doc_id"].to_numpy() != keeper.to_numpy(), "doc_id"]
        return pa.Table.from_pydict(
            {"doc_id": pa.array(out.to_numpy(dtype="int64"), pa.int64())}
        )

    return keyed_exchange(hashed, "h", drops, n_buckets)


# ---------------------------------------------------------------------------
# MinHash + LSH

N_HASHES = 128
N_BANDS = 16
ROWS_PER_BAND = N_HASHES // N_BANDS
_MERSENNE = (1 << 61) - 1


def _hash_params(n=N_HASHES, seed=7):
    """Deterministic (a, b) pairs for universal hashing."""
    rs = np.random.RandomState(seed)
    a = rs.randint(1, _MERSENNE, size=n, dtype=np.int64)
    b = rs.randint(0, _MERSENNE, size=n, dtype=np.int64)
    return a, b


def shingles(text: str, k: int = 3) -> set[int]:
    """Word k-shingles as 32-bit hashes."""
    words = _WORD_RE.findall((text or "").lower())
    if len(words) < k:
        return {zlib.crc32(" ".join(words).encode())} if words else set()
    return {
        zlib.crc32(" ".join(words[i : i + k]).encode()) for i in range(len(words) - k + 1)
    }


class MinHasher:
    """Actor: text -> (doc_id, band, band_hash) rows (one per band)."""

    def __init__(self, k: int = 3):
        self.k = k
        self.a, self.b = _hash_params()

    def signature(self, text: str) -> np.ndarray:
        sh = shingles(text, self.k)
        if not sh:
            return np.full(N_HASHES, _MERSENNE, dtype=np.int64)
        x = np.fromiter(sh, dtype=np.int64, count=len(sh))
        # (a*x + b) mod p for all hash funcs: vectorized outer product
        vals = (np.multiply.outer(self.a, x) + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids_out, bands, band_hashes = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            sig = self.signature(text)
            for band in range(N_BANDS):
                chunk = sig[band * ROWS_PER_BAND : (band + 1) * ROWS_PER_BAND]
                doc_ids_out.append(doc_id)
                bands.append(band)
                band_hashes.append(hashlib.md5(chunk.tobytes()).hexdigest()[:16])
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids_out, pa.int64()),
                "band": pa.array(bands, pa.int32()),
                "band_hash": pa.array(band_hashes),
            }
        )


_MINHASHER_SINGLETON: list = []


def _minhash_batch_task(batch: pa.Table) -> pa.Table:
    """Task-based MinHasher (per-worker cached instance)."""
    if not _MINHASHER_SINGLETON:
        _MINHASHER_SINGLETON.append(MinHasher())
    return _MINHASHER_SINGLETON[0](batch)


BUCKET_CAP = 50


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "a": pd.Series(dtype="int64"),
            "b": pd.Series(dtype="int64"),
            "pair_mode": pd.Series(dtype="string"),
        }
    )


def _bucket_pairs(group: pd.DataFrame, cap: int = BUCKET_CAP) -> pd.DataFrame:
    """Candidate pairs for one LSH bucket.

    Small buckets emit all pairs (``pair_mode='full'``).  Degenerate
    buckets (> cap ids — boilerplate-heavy corpora collapse whole
    duplicate groups into one bucket) emit STAR pairs against the min
    doc_id instead of truncating: O(n) rows, and every member stays
    connected to the group's keeper, so duplicate-group recall is
    preserved (round-1 truncated to the first 50 ids, silently
    dropping docs 51+ from every bucket).  ``pair_mode='star'`` makes
    the degradation observable downstream.
    """
    ids = sorted(set(group["doc_id"]))
    if len(ids) < 2:
        return _empty_pairs()
    if len(ids) == 2:  # the overwhelmingly common collision size
        return pd.DataFrame(
            {"a": pd.Series([ids[0]], dtype="int64"),
             "b": pd.Series([ids[1]], dtype="int64"),
             "pair_mode": pd.Series(["full"], dtype="object")}
        )
    if len(ids) <= cap:
        a_out, b_out = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a_out.append(ids[i])
                b_out.append(ids[j])
        mode = "full"
    else:
        keeper = ids[0]
        a_out = [keeper] * (len(ids) - 1)
        b_out = ids[1:]
        mode = "star"
    return pd.DataFrame(
        {
            "a": pd.Series(a_out, dtype="int64"),
            "b": pd.Series(b_out, dtype="int64"),
            "pair_mode": pd.Series([mode] * len(a_out), dtype="object"),
        }
    )


def substring_dup_pairs(docs_ds, window: int = 8, min_shared: int = 2, n_buckets: int = 64):
    """Approximate long-common-substring dedup (the 'deduplicating
    training data' substring family): candidate pairs of documents
    sharing at least ``min_shared`` winnowed rolling fingerprints
    (stages/text.rolling_fingerprints — any shared span of
    ``window + 3`` words guarantees one shared fingerprint, so long
    verbatim overlaps accumulate many).

    Shape mirrors minhash_dedup: fingerprints bucket by fp hash, the
    star-capped enumerator emits per-fp pairs (degenerate boilerplate
    fps degrade observably to star pairs instead of truncating), one
    map-side partial count shrinks the exchange, one bucketed sum per
    (a, b) yields ``n_shared``, filtered map-side.  Returns
    (a, b, n_shared, pair_mode); for star pairs ``n_shared`` is a
    lower bound (documented, observable via pair_mode)."""
    from ..functions.exchange import keyed_exchange
    from .text import rolling_fingerprints

    fps = rolling_fingerprints(docs_ds, window)

    def pairs_block(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["fp", "doc_id"])
        sizes = g.groupby("fp")["doc_id"].transform("size")
        g = g[sizes >= 2]
        if len(g) == 0:
            return _empty_pairs()
        outs = [_bucket_pairs(sub) for _, sub in g.groupby("fp", sort=False)]
        return pd.concat(outs, ignore_index=True)

    pairs = keyed_exchange(fps, "fp", pairs_block, n_buckets)

    def partial_count(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {"a": pd.Series([], dtype="int64"),
                 "b": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64"),
                 "pair_mode": pd.Series([], dtype="object")}
            )
        out = (
            batch.groupby(["a", "b"], sort=False)
            .agg(n=("a", "size"), pair_mode=("pair_mode", "min"))
            .reset_index()
        )
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    def reduce_pairs(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby(["a", "b"], sort=False)
            .agg(n_shared=("n", "sum"), pair_mode=("pair_mode", "min"))
            .reset_index()
        )
        out = out[out["n_shared"] >= min_shared]
        out["n_shared"] = out["n_shared"].astype("int64")
        return out.reset_index(drop=True)

    return keyed_exchange(
        pairs.map_batches(partial_count, batch_format="pandas"),
        ["a", "b"], reduce_pairs, n_buckets,
    )


def jaccard(t1: str, t2: str, k: int = 3) -> float:
    s1, s2 = shingles(t1, k), shingles(t2, k)
    if not s1 and not s2:
        return 1.0
    inter = len(s1 & s2)
    return inter / (len(s1) + len(s2) - inter) if (s1 or s2) else 0.0


def minhash_dedup(docs_ds, threshold: float = 0.8, concurrency=(2, 8), n_buckets: int = 64):
    """Near-duplicate pairs (a, b, jaccard >= threshold) — fully
    distributed; nothing materializes on the driver.

    shingle -> minhash -> band rows (map_batches) -> coarse-bucketed
    candidate pairs (star-capped, see ``_bucket_pairs``) -> map-side
    partial pair dedup -> candidate texts joined in via TWO
    ``bucketed_hash_join`` passes (on ``a`` then ``b``; the GLOBAL
    (a, b) distinct is folded into the first join's buckets, saving a
    shuffle) -> exact-Jaccard verify inside ``map_batches``.  At
    100-TB scale the candidate set is O(corpus) — round-1's
    driver-side ``to_pandas()`` + whole-text broadcast is exactly what
    this replaces.
    """
    from .join import bucketed_hash_join

    from ..functions.exchange import keyed_exchange

    # elastic tasks (per-worker cached hasher) rather than an actor
    # pool: the hasher state is two numpy arrays, and a pool pays
    # spin-up + CPU reservation against the rest of the chain
    banded = docs_ds.map_batches(
        _minhash_batch_task, batch_format="pyarrow", batch_size=1024
    )

    # coarse-bucket the band rows (ONE shuffle, B groups) instead of
    # grouping by (band, band_hash) directly — that would pay one
    # Python map_groups call per LSH bucket (16 x n_docs groups, mostly
    # singletons).  Inside a coarse group, singleton LSH buckets are
    # dropped vectorized; the pair loop touches only colliding buckets
    # (proportional to actual duplicates, not corpus size).
    def pairs_block(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["band", "band_hash", "doc_id"])
        sizes = g.groupby(["band", "band_hash"])["doc_id"].transform("size")
        g = g[sizes >= 2]
        if len(g) == 0:
            return _empty_pairs()
        outs = [
            _bucket_pairs(sub)
            for _, sub in g.groupby(["band", "band_hash"], sort=False)
        ]
        return pd.concat(outs, ignore_index=True)

    pairs = keyed_exchange(banded, ["band", "band_hash"], pairs_block, n_buckets)
    # map-side partial dedup shrinks the shuffle; the GLOBAL distinct on
    # (a, b) is folded into the first text join below (its bucket key is
    # `a`, so every duplicate of a pair co-locates there — no separate
    # distinct shuffle).  Sorting puts 'full' before 'star', so 'full'
    # deterministically survives for pairs seen in both bucket kinds.
    def partial_dedup(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["a", "b", "pair_mode"], kind="mergesort").drop_duplicates(["a", "b"])

    pairs = pairs.map_batches(partial_dedup, batch_format="pandas")

    texts_a = docs_ds.map_batches(
        lambda b: pa.Table.from_pydict(
            {"a": b.column("doc_id"), "text_a": b.column("text")}
        ),
        batch_format="pyarrow",
    )
    texts_b = docs_ds.map_batches(
        lambda b: pa.Table.from_pydict(
            {"b": b.column("doc_id"), "text_b": b.column("text")}
        ),
        batch_format="pyarrow",
    )
    pairs_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("pair_mode", pa.string())]
    )
    texts_a_schema = pa.schema([("a", pa.int64()), ("text_a", pa.string())])
    texts_b_schema = pa.schema([("b", pa.int64()), ("text_b", pa.string())])
    with_a = bucketed_hash_join(
        pairs, texts_a, on="a", n_buckets=n_buckets,
        left_distinct=["a", "b"],
        left_schema=pairs_schema, right_schema=texts_a_schema,
    )
    with_a_schema = pa.schema(
        list(pairs_schema) + [texts_a_schema.field("text_a")]
    )
    with_ab = bucketed_hash_join(
        with_a, texts_b, on="b", n_buckets=n_buckets,
        left_schema=with_a_schema, right_schema=texts_b_schema,
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        sims = [
            jaccard(ta, tb)
            for ta, tb in zip(batch["text_a"], batch["text_b"])
        ]
        batch = batch.copy()
        batch["jaccard"] = sims
        out = batch[batch["jaccard"] >= threshold]
        return out[["a", "b", "jaccard", "pair_mode"]].astype(
            {"a": "int64", "b": "int64"}
        )

    return with_ab.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# SimHash

_SIM_BANDS = 4  # 16 bits each; hamming<=3 guarantees one identical band


class SimHasher:
    """text -> 64-bit simhash + 4 16-bit LSH band keys.

    Hot path is fully vectorized: tokens come out of one Arrow
    split-regex pass, md5 runs only once per UNIQUE vocabulary word
    (Zipf — a tiny fraction of the token count) with the ±1 bit-vector
    cached per worker process across batches, and the per-document
    bit-vote sums are one ``np.add.reduceat`` over the (token, 64)
    contribution matrix (token parent indices arrive pre-sorted from
    ``list_parent_indices``).  Output is bit-identical to the scalar
    ``simhash64`` reference kept below for tests."""

    _MAX_VOCAB = 1 << 20  # ~80 MB of cached bit rows; reset beyond

    def __init__(self):
        self._pm: dict = {}  # word -> np.ndarray(64, int8) in {-1,+1}

    @staticmethod
    def simhash64(words) -> int:
        """Scalar reference twin (one doc's word list -> simhash)."""
        if not words:
            return 0
        v = np.zeros(64, dtype=np.int64)
        for w in words:
            h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little")
            bits = np.unpackbits(
                np.frombuffer(h.to_bytes(8, "little"), dtype=np.uint8), bitorder="little"
            ).astype(np.int64)
            v += 2 * bits - 1
        return int(
            sum(1 << i for i in range(64) if v[i] > 0)
        )

    def _rows(self, uniques) -> np.ndarray:
        """(U, 64) ±1 contribution rows for unique words, md5 cached."""
        if len(self._pm) > self._MAX_VOCAB:
            self._pm.clear()
        pm, out = self._pm, np.empty((len(uniques), 64), dtype=np.int32)
        for i, w in enumerate(uniques):
            v = pm.get(w)
            if v is None:
                bits = np.unpackbits(
                    np.frombuffer(
                        hashlib.md5(w.encode()).digest()[:8], dtype=np.uint8
                    ),
                    bitorder="little",
                ).astype(np.int8)
                v = 2 * bits - 1
                pm[w] = v
            out[i] = v
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.cast(batch.column("text"), pa.string())),
            "[^a-z0-9]+",
        )
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        words = flat.filter(keep).to_pandas()
        par = parents.filter(keep).to_numpy(zero_copy_only=False)

        votes = np.zeros((n, 64), dtype=np.int64)
        if len(par):
            codes, uniques = pd.factorize(words, sort=False)
            contrib = self._rows(uniques)[codes]  # (T, 64) int32
            starts = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
            votes[par[starts]] = np.add.reduceat(
                contrib.astype(np.int64), starts, axis=0
            )
        packed = np.packbits(votes > 0, axis=1, bitorder="little")
        sims = np.ascontiguousarray(packed).view(np.uint64).ravel()

        shifts = 16 * np.arange(_SIM_BANDS, dtype=np.uint64)
        keys = ((sims[:, None] >> shifts) & np.uint64(0xFFFF)).astype(np.int32)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(np.repeat(ids, _SIM_BANDS), pa.int64()),
                "simhash": pa.array(np.repeat(sims, _SIM_BANDS), pa.uint64()),
                "band": pa.array(
                    np.tile(np.arange(_SIM_BANDS, dtype=np.int32), n), pa.int32()
                ),
                "key": pa.array(keys.ravel(), pa.int32()),
            }
        )


def _sim_pairs(group: pd.DataFrame, max_hamming: int = 3, cap: int = BUCKET_CAP) -> pd.DataFrame:
    """Hamming-verified pairs for one simhash band bucket.  Oversized
    buckets compare every id against the min doc_id only (star mode, no
    silent truncation — same rationale as ``_bucket_pairs``)."""
    rows = group.drop_duplicates("doc_id").sort_values("doc_id")
    ids = rows["doc_id"].tolist()
    sims = rows["simhash"].tolist()
    a_out, b_out, d_out = [], [], []
    if len(ids) <= cap:
        mode = "full"
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                d = bin(int(sims[i]) ^ int(sims[j])).count("1")
                if d <= max_hamming:
                    a_out.append(ids[i])
                    b_out.append(ids[j])
                    d_out.append(d)
    else:
        mode = "star"
        s0 = int(sims[0])
        for j in range(1, len(ids)):
            d = bin(s0 ^ int(sims[j])).count("1")
            if d <= max_hamming:
                a_out.append(ids[0])
                b_out.append(ids[j])
                d_out.append(d)
    return pd.DataFrame(
        {
            "a": pd.Series(a_out, dtype="int64"),
            "b": pd.Series(b_out, dtype="int64"),
            "hamming": pd.Series(d_out, dtype="int32"),
            "pair_mode": pd.Series([mode] * len(a_out), dtype="object"),
        }
    )


_SIMHASHER: list = []


def simhash_batch(batch: pa.Table) -> pa.Table:
    """Task-based SimHasher: elastic map_batches tasks with the word
    bit-vector cache held per worker process (an actor pool here would
    reserve CPUs against the rest of the pipeline — same rationale as
    ``link.link_batch_augmenting``)."""
    if not _SIMHASHER:
        _SIMHASHER.append(SimHasher())
    return _SIMHASHER[0](batch)


def simhash_dedup(docs_ds, max_hamming: int = 3, n_buckets: int = 64):
    from ..functions.exchange import keyed_exchange
    from .distinct import distinct

    banded = docs_ds.map_batches(
        simhash_batch, batch_format="pyarrow", batch_size=1024
    )

    # same coarse-bucket pattern as minhash_dedup: one shuffle into B
    # groups, vectorized singleton drop, pair loop only over collisions
    def pairs_block(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["band", "key", "doc_id"])
        sizes = g.groupby(["band", "key"])["doc_id"].transform("size")
        g = g[sizes >= 2]
        if len(g) == 0:
            return _sim_pairs(g.head(0), max_hamming)
        outs = [
            _sim_pairs(sub, max_hamming)
            for _, sub in g.groupby(["band", "key"], sort=False)
        ]
        return pd.concat(outs, ignore_index=True)

    pairs = keyed_exchange(banded, ["band", "key"], pairs_block, n_buckets)
    # distributed distinct on the pair key (was per-pair head(1));
    # hamming rides along (identical for every occurrence of a pair)
    return distinct(pairs, ["a", "b"], extra=["hamming", "pair_mode"])


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard set-similarity self-join (prefix filtering)

N_GRAM = 5


def char_grams(text: str, n: int = N_GRAM) -> set[str]:
    """Distinct character n-grams; texts shorter than ``n`` contribute
    themselves as the single gram (mirrors the SQL oracle's
    ``substr(text, g, n)`` over ``generate_series(1, greatest(len-n+1, 1))``)."""
    return {text[i : i + n] for i in range(max(len(text) - n + 1, 1))}


def _gram_hash64(gram: str) -> int:
    # 63-bit (int64-safe for Arrow/Ray groupby): two salted crc32s
    b = gram.encode()
    return ((zlib.crc32(b) << 32) | zlib.crc32(b, 0x9E3779)) & 0x7FFF_FFFF_FFFF_FFFF


def ngram_jaccard_dedup(docs_ds, threshold: float = 0.8, n: int = N_GRAM, n_buckets: int = 64):
    """EXACT near-duplicate pairs by character-n-gram Jaccard >= threshold.

    Unlike ``minhash_dedup`` / ``simhash_dedup`` (probabilistic recall),
    this is the exact set-similarity self-join, made tractable by
    frequency-ordered PREFIX FILTERING (the PPJoin family): if
    J(A, B) >= t, the first ``|S| - ceil(t*|S|) + 1`` grams of each
    set under any shared total order must intersect.  Ordering grams
    by ascending document frequency keeps common grams out of every
    prefix, so candidate buckets stay small even for corpora full of
    boilerplate ("the f" never generates candidates).

    Stages (all streaming, nothing on the driver):
      1. explode docs to distinct (doc_id, gram-hash64) rows
      2. groupby(gram).count() -> per-gram document frequency (map-side
         combinable)
      3. bucketed join grams x frequencies on gram
      4. regroup by doc (coarse-bucketed, vectorized): sort each doc's
         grams by (df, gram), keep the prefix, emit
         (gram, doc_id, size, pos)
      5. candidates: group prefix rows by gram; per shared gram emit
         pairs passing the size filter (t*|A| <= |B|) and PPJoin
         position filter (1 + min(|A|-1-pa, |B|-1-pb) >=
         ceil(t/(1+t)*(|A|+|B|)))
      6. verify: two bucketed text joins (global pair-distinct folded
         into the first), exact string-gram Jaccard in-map

    Partitioning assumptions: gram hashes are 63-bit (within-doc
    collisions that would perturb prefix lengths are ~|S|^2/2^64, i.e.
    negligible at any realistic scale — verification is on exact
    string sets either way, so collisions can only add candidates or,
    vanishingly, drop one); candidate buckets are per-(rare-)gram and
    small by construction — there is no star-mode cap here because the
    op is exact.

    Returns (left_id, right_id, isect, uni) with
    isect/uni = |A∩B| / |A∪B| as int64 (float-free for stable value
    hashing; jaccard = isect/uni).
    """
    import math

    from .join import bucketed_hash_join

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids_out, grams_out = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if text is None:
                continue  # SQL: length(NULL) -> no gram rows
            hs = {_gram_hash64(g) for g in char_grams(text, n)}
            ids_out.extend([doc_id] * len(hs))
            grams_out.extend(hs)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "gram": pa.array(grams_out, pa.int64()),
            }
        )

    import ray
    from ray.data.aggregate import Count

    # pass 1: per-gram document frequency; only the HEAVY tail (df >=
    # heavy_df, capped) is kept and broadcast via ray.put.  The shared
    # total order for prefix selection is (is-heavy, gram-hash):
    # exactness does not depend on WHICH grams are in the set — any
    # deterministic membership yields a valid shared order — so the
    # cap is safe; pushing frequent grams to the back of every doc's
    # order (where prefixes never reach) is purely the
    # candidate-count optimization that makes PPJoin scale.
    heavy_df, heavy_cap, heavy_sample_docs = 32, 1 << 16, 20_000
    heavy_rows = (
        docs_ds.limit(heavy_sample_docs)  # bounded sample: the heavy set
        # is a performance hint, not a correctness input, so a fixed-
        # size document sample suffices at any corpus scale
        .map_batches(gram_rows, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Count(alias_name="df"))
        .map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("df"), heavy_df)),
            batch_format="pyarrow",
        )
        .limit(heavy_cap)
        .take_all()
    )
    heavy_ref = ray.put(frozenset(r["gram"] for r in heavy_rows))

    # pass 2: prefixes are doc-local (no df join, no doc re-shuffle)
    def prefix_rows(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import bcast_cached

        hv = bcast_cached(heavy_ref)
        ids_out, grams_out, sizes_out, pos_out = [], [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if text is None:
                continue
            hs = {_gram_hash64(g) for g in char_grams(text, n)}
            rare = sorted(h for h in hs if h not in hv)
            common = sorted(h for h in hs if h in hv)
            ordered = rare + common
            size = len(ordered)
            # epsilon-relaxed ceil: float error must only ever LENGTHEN
            # the prefix (extra candidates are re-verified; a shortened
            # prefix could lose a true boundary pair)
            plen = size - math.ceil(threshold * size - 1e-9) + 1
            ids_out.extend([doc_id] * plen)
            grams_out.extend(ordered[:plen])
            sizes_out.extend([size] * plen)
            pos_out.extend(range(plen))
        return pa.Table.from_pydict(
            {
                "gram": pa.array(grams_out, pa.int64()),
                "doc_id": pa.array(ids_out, pa.int64()),
                "size": pa.array(sizes_out, pa.int64()),
                "pos": pa.array(pos_out, pa.int64()),
            }
        )

    prefixes = docs_ds.map_batches(prefix_rows, batch_format="pyarrow")

    def add_gram_bucket(batch: pa.Table) -> pa.Table:
        gs = batch.column("gram").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__g", pa.array((gs % n_buckets).astype(np.int32))
        )

    def _empty_cand() -> pd.DataFrame:
        return pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
        )

    def _pairs_chunk(arrs: list) -> pd.DataFrame:
        """Vectorized pair enumeration + filters for a chunk of per-gram
        row arrays (each (m, 3): doc_id, size, pos)."""
        ai, bi = [], []
        for arr in arrs:
            iu, ju = np.triu_indices(len(arr), 1)
            ai.append(arr[iu])
            bi.append(arr[ju])
        left = np.concatenate(ai)
        right = np.concatenate(bi)
        # canonical orientation: a < b
        swap = left[:, 0] > right[:, 0]
        left[swap], right[swap] = right[swap], left[swap]
        sl, sr = left[:, 1], right[:, 1]
        pl, pr = left[:, 2], right[:, 2]
        lo = np.minimum(sl, sr)
        hi = np.maximum(sl, sr)
        # size filter: J <= lo/hi, so lo/hi < t prunes; epsilon only
        # ever ADMITS boundary candidates
        keep = lo / hi >= threshold - 1e-12
        # PPJoin position filter
        alpha = np.ceil(threshold / (1.0 + threshold) * (sl + sr) - 1e-9)
        keep &= 1 + np.minimum(sl - 1 - pl, sr - 1 - pr) >= alpha
        return pd.DataFrame(
            {
                "a": pd.Series(left[keep, 0], dtype="int64"),
                "b": pd.Series(right[keep, 0], dtype="int64"),
            }
        ).drop_duplicates()

    CHUNK_VOL = 2_000_000  # max candidate rows materialized at once

    def candidates_block(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["gram", "doc_id"])
        bucket_sizes = g.groupby("gram")["doc_id"].transform("size")
        g = g[bucket_sizes >= 2]
        if len(g) == 0:
            return _empty_cand()
        outs, buf, vol = [], [], 0
        for _, sub in g.groupby("gram", sort=False):
            arr = sub[["doc_id", "size", "pos"]].to_numpy()
            buf.append(arr)
            vol += len(arr) * (len(arr) - 1) // 2
            if vol >= CHUNK_VOL:
                outs.append(_pairs_chunk(buf))
                buf, vol = [], 0
        if buf:
            outs.append(_pairs_chunk(buf))
        out = pd.concat(outs, ignore_index=True).drop_duplicates()
        return out.reset_index(drop=True)

    pairs = (
        prefixes.map_batches(add_gram_bucket, batch_format="pyarrow")
        .groupby("__g")
        .map_groups(candidates_block, batch_format="pandas")
    )

    # map-side partial pair dedup; global distinct folds into join 1
    pairs = pairs.map_batches(
        lambda b: b.drop_duplicates(["a", "b"]), batch_format="pandas"
    )

    texts_a = docs_ds.map_batches(
        lambda b: pa.Table.from_pydict(
            {"a": b.column("doc_id"), "text_a": b.column("text")}
        ),
        batch_format="pyarrow",
    )
    texts_b = docs_ds.map_batches(
        lambda b: pa.Table.from_pydict(
            {"b": b.column("doc_id"), "text_b": b.column("text")}
        ),
        batch_format="pyarrow",
    )
    pairs_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    texts_a_schema = pa.schema([("a", pa.int64()), ("text_a", pa.string())])
    texts_b_schema = pa.schema([("b", pa.int64()), ("text_b", pa.string())])
    with_a = bucketed_hash_join(
        pairs, texts_a, on="a", n_buckets=n_buckets, left_distinct=["a", "b"],
        left_schema=pairs_schema, right_schema=texts_a_schema,
    )
    with_ab = bucketed_hash_join(
        with_a, texts_b, on="b", n_buckets=n_buckets,
        left_schema=pa.schema(
            list(pairs_schema) + [texts_a_schema.field("text_a")]
        ),
        right_schema=texts_b_schema,
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        # docs repeat across many candidate pairs in a batch — build each
        # gram set once per doc, pay only the C-level set intersection
        # per pair
        cache: dict = {}

        def gset(doc_id, text):
            s = cache.get(doc_id)
            if s is None:
                s = char_grams(text, n)
                cache[doc_id] = s
            return s

        isect_out, uni_out = [], []
        for da, db, ta, tb in zip(
            batch["a"], batch["b"], batch["text_a"], batch["text_b"]
        ):
            sa, sb = gset(da, ta), gset(db, tb)
            i = len(sa & sb)
            isect_out.append(i)
            uni_out.append(len(sa) + len(sb) - i)
        out = pd.DataFrame(
            {
                "left_id": batch["a"].astype("int64").to_numpy(),
                "right_id": batch["b"].astype("int64").to_numpy(),
                "isect": pd.Series(isect_out, dtype="int64"),
                "uni": pd.Series(uni_out, dtype="int64"),
            }
        )
        # same double expression as the SQL oracle (isect*1.0/uni >= t):
        # i >= t*u is NOT equivalent at exact-boundary ratios
        keep = out["isect"].to_numpy(dtype=np.float64) / out["uni"].to_numpy(
            dtype=np.float64
        ) >= threshold
        return out[keep].reset_index(drop=True)

    return with_ab.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# Semantic (embedding-cluster) dedup — the SemDeDup recipe: k-means the
# embedding space, then search for near-duplicate pairs ONLY within
# each cluster (Abbas et al., "SemDeDup: Data-efficient learning at
# web-scale through semantic deduplication", arXiv:2303.09540).

_SEM_PAIRS_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("sim_micro", pa.int64())]
)


def semantic_dup_pairs(
    embeddings_ds,
    k: int = 64,
    threshold: float = 0.95,
    n_iters: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Within-cluster cosine near-dup pairs over an embedding column.

    Shape: ``kmeans_fit`` (broadcast supersteps, zero shuffle) ->
    map-side cell assignment (the centroid matrix rides a single
    ``ray.put``) -> ONE groupby(cell) exchange -> per-cell vectorized
    pairwise cosine (one normalized matmul per cell).  Pairs that
    straddle a cluster boundary are missed BY DESIGN — that is the
    SemDeDup recall/cost trade: per-cell work is O((n/k)^2), so k
    must grow with the corpus (k ~ n/2000 keeps cells matmul-sized at
    any scale; boundary loss is the paper's documented ~O(1%) regime).

    Returns (a, b, sim_micro): a < b by id, cosine quantized to
    micro-units so results hash identically across parallelism levels.
    """
    import ray

    from .kmeans import kmeans_fit

    cents = kmeans_fit(embeddings_ds, k, n_iters=n_iters, id_col=id_col,
                       vec_col=vec_col)
    cref = ray.put(np.asarray(cents, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if not len(ids):
            return pa.Table.from_pydict(
                {
                    id_col: pa.array([], pa.int64()),
                    vec_col: batch.column(vec_col),
                    "cell": pa.array([], pa.int32()),
                }
            )
        vecs = np.asarray(batch.column(vec_col).to_pylist(), dtype=np.float64)
        d2 = (
            (vecs * vecs).sum(axis=1)[:, None]
            - 2.0 * (vecs @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        return pa.Table.from_pydict(
            {
                id_col: pa.array(ids, pa.int64()),
                vec_col: batch.column(vec_col),
                "cell": pa.array(d2.argmin(axis=1).astype("int32")),
            }
        )

    assigned = embeddings_ds.map_batches(assign, batch_format="pyarrow")
    empty = _SEM_PAIRS_SCHEMA.empty_table().to_pandas()

    def cell_pairs(group: pd.DataFrame) -> pd.DataFrame:
        n = len(group)
        if n < 2:
            return empty
        ids = group[id_col].to_numpy(dtype=np.int64)
        vecs = np.asarray(group[vec_col].tolist(), dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0.0] = 1.0
        normed = vecs / norms[:, None]
        sims = normed @ normed.T
        iu, ju = np.triu_indices(n, k=1)
        keep = sims[iu, ju] >= threshold
        if not keep.any():
            return empty
        ia, jb = ids[iu[keep]], ids[ju[keep]]
        a = np.minimum(ia, jb)
        b = np.maximum(ia, jb)
        sim_micro = np.floor(sims[iu[keep], ju[keep]] * 1e6 + 0.5).astype(
            "int64"
        )
        return pd.DataFrame({"a": a, "b": b, "sim_micro": sim_micro})

    return assigned.groupby("cell").map_groups(cell_pairs, batch_format="pandas")


def dedup_lines(
    docs,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    out_sep: str | None = None,
    n_buckets: int = 64,
):
    """C4-style GLOBAL line-level exact dedup: every line (``sep``
    segment) is kept only at its first occurrence corpus-wide — the
    occurrence with the lexicographically smallest (doc_id, line_idx)
    — and documents are reassembled from their surviving lines (empty
    lines are dropped, the C4 rule).  Returns (doc_id, text, n_lines).

    Two exchanges, both vectorized end-to-end:

    1. explode: one ``map_batches`` pass splits text into a list array
       (``pc.split_pattern``), flattens with parent indices, and
       derives per-doc line indices from the list offsets — no Python
       per row;
    2. shuffle on crc32(line) buckets; per bucket a pandas
       sort + ``drop_duplicates(line)`` keeps each line's global
       winner (first-occurrence semantics need line-colocated rows —
       this is the all-to-all a global dedup cannot avoid);
    3. shuffle kept rows on doc buckets; per bucket the reassembly is
       a ``pa.ListArray.from_arrays`` over the (doc, line_idx)-sorted
       lines + ONE ``pc.binary_join`` — the string concat stays in
       Arrow, no per-doc Python join.

    At 100 TB the line table is ~10x the doc rows but each row is one
    short line; both shuffles move (hash-bucketed) line-sized rows and
    pre-bucket partials combine map-side via drop_duplicates inside
    the sort groupby, so skew is bounded by the hottest single line,
    which first-occurrence semantics cap at one surviving row."""
    import numpy as np

    from ..functions.exchange import keyed_exchange

    out_sep = sep if out_sep is None else out_sep

    lines_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("line_idx", pa.int64()),
            ("line", pa.large_string()),
        ]
    )

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return lines_schema.empty_table()
        t = batch.combine_chunks()
        ids = t.column(id_col).chunk(0)
        text = pc.cast(t.column(text_col).chunk(0), pa.large_string())
        lists = pc.split_pattern(text, sep)
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists)
        offs = np.asarray(lists.offsets)
        counts = np.diff(offs)
        line_idx = np.arange(len(flat), dtype=np.int64) - np.repeat(
            offs[:-1].astype(np.int64), counts
        )
        out = pa.table(
            {
                id_col: pc.cast(pc.take(ids, parent), pa.int64()),
                "line_idx": pa.array(line_idx, pa.int64()),
                "line": flat,
            }
        )
        out = out.filter(pc.not_equal(out.column("line"), ""))
        return out.cast(lines_schema)

    exploded = docs.map_batches(explode, batch_format="pyarrow")

    def keep_first(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["line", id_col, "line_idx"], kind="mergesort")
        g = g.drop_duplicates("line")[[id_col, "line_idx", "line"]]
        g["_dbucket"] = (g[id_col] % n_buckets).astype("int32")
        return g

    kept = keyed_exchange(exploded, "line", keep_first, n_buckets)

    out_schema = pa.schema(
        [(id_col, pa.int64()), ("text", pa.large_string()), ("n_lines", pa.int64())]
    )

    def reassemble(group: pd.DataFrame) -> pa.Table:
        if not len(group):
            return out_schema.empty_table()
        g = group.sort_values([id_col, "line_idx"], kind="mergesort")
        ids = g[id_col].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        offsets = np.r_[starts, len(ids)].astype(np.int64)
        values = pa.array(g["line"].to_numpy(), pa.large_string())
        lists = pa.LargeListArray.from_arrays(offsets, values)
        joined = pc.binary_join(lists, pa.scalar(out_sep, pa.large_string()))
        return pa.table(
            {
                id_col: pa.array(ids[starts], pa.int64()),
                "text": joined,
                "n_lines": pa.array(np.diff(offsets), pa.int64()),
            }
        ).cast(out_schema)

    return kept.groupby("_dbucket").map_groups(
        reassemble, batch_format="pandas"
    )


# --------------------------------------------------------------------------
# Paragraph-level exact dedup (the Dolma/CCNet boilerplate-removal
# pass: repeated paragraphs — headers, footers, subscription prompts —
# are removed corpus-wide, keeping only the FIRST occurrence)

_PARA_IDX_BITS = 20  # drop-set pack: doc_id << 20 | idx


def paragraph_dedup(docs_ds, sep: str = "\n\n", min_chars: int = 1,
                    n_buckets: int = 64, broadcast_limit: int = 200_000):
    """Corpus-wide exact paragraph dedup: split every document on
    ``sep``, keep each distinct paragraph's first occurrence (ordered
    by (doc_id, paragraph index) — the deterministic keeper rule), and
    reassemble documents without their dropped paragraphs.  Paragraphs
    shorter than ``min_chars`` are exempt (an empty slot between two
    separators should not dedup away).  Returns (doc_id, text_clean,
    n_paragraphs, n_dropped).

    Scale shape — document TEXT never crosses an exchange:

    1. one map explodes (md5hex(paragraph), doc_id, idx) KEY rows
       (32-byte hash + two ints, never the paragraph bytes);
    2. one hash-keyed exchange finds each hash's keeper = min
       (doc_id, idx) and inverts to the (doc_id, idx) DROP set —
       duplicates are the minority, so the inverted side is small;
    3. a second map over the original docs re-splits, drops the
       flagged slots via the broadcast sorted drop-set (``ray.put``
       once, searchsorted probe; key pack doc_id << 20 | idx), and
       reassembles map-side.

    Deterministic at any parallelism (slots are input-derived).  The
    drop-set is driver-collected and bounded by ``broadcast_limit``
    (loud error above it — pre-shard the corpus or raise the limit);
    docs with >= 2^20 paragraphs refuse loudly (pack overflow)."""
    import hashlib

    import pandas as pd
    import ray

    from ..functions.exchange import keyed_exchange

    def _explode(batch: pd.DataFrame):
        paras = batch["text"].fillna("").str.split(sep, regex=False)
        ex = paras.explode()
        doc = batch["doc_id"].astype("int64").to_numpy()[ex.index.to_numpy()]
        idx = ex.groupby(level=0).cumcount().to_numpy()
        if len(idx) and idx.max() >= (1 << _PARA_IDX_BITS):
            raise ValueError(
                "document with >= 2^%d paragraphs — the drop-set key "
                "pack cannot address it" % _PARA_IDX_BITS
            )
        return paras, ex, doc, idx

    def explode_keys(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"h": pd.Series([], dtype="object"),
             "doc_id": pd.Series([], dtype="int64"),
             "idx": pd.Series([], dtype="int64")}
        )
        if not len(batch):
            return empty
        _paras, ex, doc, idx = _explode(batch)
        texts = ex.to_numpy()
        lens = ex.str.len().to_numpy()
        keep = lens >= min_chars
        hs = [
            hashlib.md5(p.encode("utf-8", "surrogatepass")).hexdigest()
            for p in texts[keep]
        ]
        return pd.DataFrame(
            {"h": pd.Series(hs, dtype="object"),
             "doc_id": doc[keep], "idx": idx[keep]}
        )

    keys = docs_ds.map_batches(explode_keys, batch_format="pandas")

    def drops(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["h", "doc_id", "idx"], kind="mergesort")
        dup = g["h"].duplicated(keep="first")
        return g.loc[dup, ["doc_id", "idx"]].astype(
            {"doc_id": "int64", "idx": "int64"}
        )

    drop_df = keyed_exchange(keys, "h", drops, n_buckets).to_pandas()
    if len(drop_df) > broadcast_limit:
        raise ValueError(
            "paragraph drop-set (%d) exceeds broadcast_limit (%d) — "
            "raise the limit or pre-shard the corpus"
            % (len(drop_df), broadcast_limit)
        )
    if len(drop_df):
        packed = np.sort(
            drop_df["doc_id"].to_numpy("int64") * (1 << _PARA_IDX_BITS)
            + drop_df["idx"].to_numpy("int64")
        )
    else:
        packed = np.array([], dtype="int64")
    drops_ref = ray.put(packed)

    def rebuild(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"),
             "text_clean": pd.Series([], dtype="object"),
             "n_paragraphs": pd.Series([], dtype="int64"),
             "n_dropped": pd.Series([], dtype="int64")}
        )
        if not len(batch):
            return empty
        dset = ray.get(drops_ref)
        paras, ex, doc, idx = _explode(batch)
        key = doc * (1 << _PARA_IDX_BITS) + idx
        dropped = np.zeros(len(key), dtype=bool)
        if len(dset):
            pos = np.searchsorted(dset, key)
            inb = pos < len(dset)
            dropped[inb] = dset[pos[inb]] == key[inb]
        rowpos = ex.index.to_numpy()
        kept = (
            pd.Series(ex.to_numpy()[~dropped])
            .groupby(pd.Series(rowpos[~dropped]))
            .agg(sep.join)
        )
        clean = pd.Series("", index=range(len(batch)), dtype="object")
        clean.update(kept)
        n_drop = np.zeros(len(batch), np.int64)
        np.add.at(n_drop, rowpos[dropped], 1)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].astype("int64").to_numpy(),
             "text_clean": clean.to_numpy(),
             "n_paragraphs": paras.str.len().to_numpy("int64"),
             "n_dropped": n_drop}
        )

    return docs_ds.map_batches(rebuild, batch_format="pandas")
