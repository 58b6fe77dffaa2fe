"""DSIR — Data Selection via Importance Resampling (arXiv:2302.03169).

The paper's recipe for picking pretraining data that "looks like" a
small high-quality target corpus: featurize every document as a bag of
hashed n-grams (unigrams + bigrams), fit bucket-probability
distributions over the target and the raw pool, weight each raw
document by the log importance ratio ``sum_g [ln p_target(b(g)) -
ln p_raw(b(g))]``, and resample k documents via Gumbel top-k over the
log weights.

Distribution shape (the 100-TB plan):

* ONE pass over the text computes per-block partial bucket counts for
  BOTH distributions at once (the target is a subset of the pool, so
  each gram row carries an ``is_target`` flag) — each block emits ONE
  sparse counts row (<= 65,536 entries), a coalescing combine level
  sums every 256 of them, and the driver finalizes the survivors.  No
  groupby/sort shuffle anywhere: a fixed-size total never needs one.
* the per-bucket log-ratio table (<= 65,536 int64 rows, ~1 MB) ships
  once via ``ray.put`` and is read per actor, never per batch.
* scoring is a second map over the documents: vectorized gram
  extraction, bucket lookup against the broadcast table, grouped sum.
  Zero shuffles touch text.
* resampling is a per-block partial top-k followed by a global
  sort+limit over the k*n_blocks survivors — the full weight table is
  never collected on the driver.

Determinism / oracle contract: buckets are ``md5(gram)[:4]`` hex
strings (65,536 buckets — the paper's 10k, rounded to a hex boundary
so DuckDB's ``substr(md5(g),1,4)`` computes the identical key), and
the per-bucket log ratio is quantized to integer micro-nats BEFORE the
per-document sum, so document weights are exact int64 sums — immune to
summation order at any parallelism.  ``dsir_log_weights`` is
SQL-oracle-checked end to end; the Gumbel resample step is engine-only
(rows-only check) with the noise derived from a seeded splitmix64 over
doc_id, so the same (seed, corpus) selects the same documents at any
parallelism or block layout.

Smoothing is Laplace add-one over the 65,536-bucket space:
``p(b) = (count_b + 1) / (total + 65536)``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import splitmix64

N_BUCKETS = 65536  # 16 bits = 4 hex chars of md5
_QUANT = 1_000_000.0

_COUNT_FANIN = 256  # block-partials combined per tree-reduce row

_EMPTY_COUNTS = {
    "bi": pd.Series([], dtype=object),
    "n": pd.Series([], dtype=object),
    "nt": pd.Series([], dtype=object),
}


def _grams(texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """(parent_row_idx, gram) arrays for unigrams + bigrams.

    Tokenization is the engine's corpus convention (lower, split on
    single spaces — matching DuckDB ``string_split(lower(text), ' ')``;
    an empty text yields the single empty token on both sides).
    Bigrams pair adjacent tokens within one document.
    """
    toks = texts.fillna("").str.lower().str.split(" ")
    flat = toks.explode()
    parents = flat.index.to_numpy()
    words = flat.to_numpy(dtype=object)
    same_doc = parents[:-1] == parents[1:] if len(parents) else np.zeros(0, bool)
    bi = words[:-1][same_doc] + " " + words[1:][same_doc]
    return (
        np.concatenate([parents, parents[:-1][same_doc]]),
        np.concatenate([words, bi]),
    )


def _buckets(grams: np.ndarray) -> np.ndarray:
    """md5(gram)[:4] per gram — hashed over the batch's UNIQUE grams
    only (the stages/sketch.py convention), broadcast by take."""
    codes, uniq = pd.factorize(grams)
    lut = np.array(
        [hashlib.md5(u.encode()).hexdigest()[:4] for u in uniq], dtype=object
    )
    if len(lut) == 0:
        return np.zeros(0, dtype=object)
    return lut[codes]


def _count_partial(is_target_col: str):
    """One sparse row per block: occupied bucket indices (int32,
    ``int(md5_hex4, 16)``) plus pool/target counts — never more than
    65,536 entries regardless of block size."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(_EMPTY_COUNTS)
        parents, grams = _grams(batch["text"])
        b = _buckets(grams)
        it = batch[is_target_col].to_numpy()[parents]
        g = (
            pd.DataFrame({"b": b, "it": it.astype(np.int64)})
            .groupby("b", sort=False)
            .agg(n=("it", "size"), nt=("it", "sum"))
            .reset_index()
        )
        bi = np.array([int(h, 16) for h in g["b"]], dtype=np.int32)
        return pd.DataFrame(
            {
                "bi": [bi],
                "n": [g["n"].to_numpy(np.int64)],
                "nt": [g["nt"].to_numpy(np.int64)],
            }
        )

    return partial


def _accumulate_counts(rows: pd.DataFrame):
    """Dense (n, nt) int64 totals over the full bucket space from
    sparse one-row-per-block partials — exact integer adds, order-free."""
    n = np.zeros(N_BUCKETS, np.int64)
    nt = np.zeros(N_BUCKETS, np.int64)
    for bi, nn, tt in zip(rows["bi"], rows["n"], rows["nt"]):
        idx = np.asarray(bi, np.int64)
        n[idx] += np.asarray(nn, np.int64)
        nt[idx] += np.asarray(tt, np.int64)
    return n, nt


def _combine_counts(rows: pd.DataFrame) -> pd.DataFrame:
    if not len(rows):
        return rows
    n, nt = _accumulate_counts(rows)
    nz = np.flatnonzero(n)  # target is a subset of the pool: nt>0 => n>0
    return pd.DataFrame(
        {"bi": [nz.astype(np.int32)], "n": [n[nz]], "nt": [nt[nz]]}
    )


def dsir_log_weights(docs_ds, is_target_col: str = "is_target"):
    """(doc_id, text, <is_target_col>) -> (doc_id, n_grams, logw_micro).

    ``logw_micro`` is the DSIR log importance weight in integer
    micro-nats: the sum over the document's hashed n-grams of the
    quantized per-bucket ratio ``floor((ln(nt+1) - ln(T+65536) -
    ln(n+1) + ln(R+65536)) * 1e6 + 0.5)``.
    """
    import ray
    import ray.data as rd

    docs_ds = docs_ds.materialize()  # two passes: fit + score

    # bounded exchange with NO shuffle: each block emits one sparse
    # counts row (<= 65,536 entries), one coalescing combine level
    # (fan-in 256), then the driver sums the survivors — int64 adds
    # commute, so the totals are bit-identical at any block layout.
    parts = (
        docs_ds.map_batches(
            _count_partial(is_target_col), batch_format="pandas"
        )
        .map_batches(
            _combine_counts, batch_format="pandas", batch_size=_COUNT_FANIN
        )
        .to_pandas()
    )
    if len(parts):
        n_dense, nt_dense = _accumulate_counts(parts)
        nz = np.flatnonzero(n_dense)
        counts = pd.DataFrame(
            {
                "b": [format(i, "04x") for i in nz],
                "n": n_dense[nz],
                "nt": nt_dense[nz],
            }
        )
    else:
        counts = pd.DataFrame(
            {"b": pd.Series([], dtype=object),
             "n": pd.Series([], dtype="int64"),
             "nt": pd.Series([], dtype="int64")}
        )
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_grams", pa.int64()),
         ("logw_micro", pa.int64())]
    )
    if not len(counts):
        return rd.from_arrow(out_schema.empty_table())

    r_tot = float(counts["n"].sum())
    t_tot = float(counts["nt"].sum())
    const = np.log(r_tot + N_BUCKETS) - np.log(t_tot + N_BUCKETS)
    ratio = (
        np.log(counts["nt"].to_numpy(np.float64) + 1.0)
        - np.log(counts["n"].to_numpy(np.float64) + 1.0)
        + const
    )
    ratio_micro = pd.Series(
        np.floor(ratio * _QUANT + 0.5).astype(np.int64),
        index=counts["b"],
    )
    # a bucket unseen in BOTH corpora (possible when scoring new text):
    # nt = n = 0 -> the smoothing constant alone
    default_micro = int(np.floor(const * _QUANT + 0.5))
    table_ref = ray.put(ratio_micro)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_grams": pd.Series([], dtype="int64"),
                    "logw_micro": pd.Series([], dtype="int64"),
                }
            )
        table = ray.get(table_ref)
        parents, grams = _grams(batch["text"])
        b = _buckets(grams)
        codes, uniq = pd.factorize(b)
        lut = table.reindex(uniq).fillna(default_micro).to_numpy(np.int64)
        rm = lut[codes]
        g = pd.DataFrame({"p": parents, "rm": rm}).groupby("p")["rm"]
        s = g.sum()
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy()[s.index.to_numpy()],
                "n_grams": g.size().to_numpy().astype("int64"),
                "logw_micro": s.to_numpy().astype("int64"),
            }
        )

    return docs_ds.map_batches(score, batch_format="pandas")


def _gumbel_key(doc_ids: np.ndarray, logw_micro: np.ndarray, seed: int) -> np.ndarray:
    h = splitmix64(doc_ids.astype(np.uint64) ^ np.uint64(seed * 0x5851F42D4C957F2D % (1 << 64)))
    # (h+1)/(2^64+2) in (0,1) exclusive
    u = (h.astype(np.float64) + 1.0) / 18446744073709551618.0
    g = -np.log(-np.log(u))
    return logw_micro.astype(np.float64) / _QUANT + g


def dsir_resample(weights_ds, k: int, seed: int = 7):
    """Gumbel top-k resample over (doc_id, logw_micro): the paper's
    sampling-without-replacement proportional to the importance
    weights, made deterministic by seeded hash noise.

    Per-block partial top-k keeps only k rows per block before the one
    small global sort+limit — the weight table never concentrates.
    Returns (doc_id, logw_micro, gumbel_key) sorted by key desc.
    """

    def partial_topk(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["doc_id", "logw_micro"]].copy()
        out["gumbel_key"] = _gumbel_key(
            batch["doc_id"].to_numpy(np.int64),
            batch["logw_micro"].to_numpy(np.int64),
            seed,
        )
        return out.nlargest(k, "gumbel_key")

    return (
        weights_ds.map_batches(partial_topk, batch_format="pandas")
        .sort("gumbel_key", descending=True)
        .limit(k)
    )
