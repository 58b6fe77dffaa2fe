"""Corpus-level token statistics: heavy hitters (top-k frequent
tokens) and an inverted index (token -> posting list).

Scale plan:
* ``token_topk`` — the classic two-level frequent-items shape: each
  block collapses to a local ``Counter`` (token -> count) so ONLY
  per-block distinct tokens shuffle (bounded by vocabulary, not corpus
  size), one Ray-native grouped sum merges, and the global top-k is a
  distributed sort + limit with a total-order tie-break
  (count desc, token asc).
* ``inverted_index`` — (token, doc_id) pairs are deduped per document
  map-side, then ONE exchange on ``crc32(token) % B`` co-locates each
  token's postings; the per-bucket kernel is a sorted pandas
  ``groupby.agg(join)`` — no per-token Python round-trips through Ray.
  ``min_df`` bounds the emitted index (parameterized, not a silent
  cap); postings are comma-joined sorted doc_ids, the layout a
  shard-per-bucket parquet sink would write directly.

Tokenization matches the ``text_metrics`` oracle family:
``[a-z0-9]+`` over the lower-cased text.
"""

from __future__ import annotations

import re
from collections import Counter

import pandas as pd
import pyarrow as pa

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def token_topk(docs_ds, k: int = 20):
    """Top-k most frequent tokens across the corpus (count desc, token
    asc tie-break).  Returns (token, n)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for text in batch.column("text").to_pylist():
            counts.update(_TOKEN_RE.findall((text or "").lower()))
        return pa.Table.from_pydict(
            {
                "token": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    merged = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
    )
    return merged.sort(["n", "token"], descending=[True, False]).limit(k)


def inverted_index(docs_ds, min_df: int = 5, n_buckets: int = 64):
    """Token -> (document frequency, sorted posting list).

    Returns (token, df, postings) for tokens appearing in >= ``min_df``
    distinct documents; ``postings`` is ','-joined sorted doc_ids.
    """
    from ..functions.exchange import keyed_exchange

    def pairs(batch: pa.Table) -> pa.Table:
        toks, ids = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for t in set(_TOKEN_RE.findall((text or "").lower())):
                toks.append(t)
                ids.append(doc_id)
        return pa.Table.from_pydict(
            {"token": pa.array(toks, pa.string()), "doc_id": pa.array(ids, pa.int64())}
        )

    def bucket_postings(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["token", "doc_id"], kind="mergesort").drop_duplicates(
            ["token", "doc_id"]
        )
        g["doc_id"] = g["doc_id"].astype(str)
        agg = (
            g.groupby("token", sort=False)["doc_id"]
            .agg(df="size", postings=",".join)
            .reset_index()
        )
        agg = agg[agg["df"] >= min_df]
        agg["df"] = agg["df"].astype("int64")
        return agg[["token", "df", "postings"]]

    return keyed_exchange(
        docs_ds.map_batches(pairs, batch_format="pyarrow"), "token", bucket_postings, n_buckets
    )
