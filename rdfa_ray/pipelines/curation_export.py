"""End-to-end curated-training-shards export — the curation family's
materialization sink, mirroring the flagship KG pipeline's D3
(partitioned output + per-partition lineage manifest + exact resume;
``flagship.py:98-266``) for the document side: quality gate -> exact
dedup -> benchmark decontamination -> train split -> deterministic
shuffle-sharded Parquet a training loader can stream in order.

Distribution shape (the 100-TB plan):

* document TEXT crosses exactly ONE exchange: the final shard groupby.
  Both removal steps are inverted to key-sized drop-sets (non-keeper
  duplicate ids; contaminated ids) applied with Bloom-prefiltered anti
  joins — rows missing the broadcast Bloom filter pass map-side, only
  Bloom hits visit the exact anti join (``stages/bloom.py``).
* shard assignment and within-shard order derive from ONE hash,
  ``md5(seed|doc_id)`` (the ``epoch_shuffle`` convention,
  ``stages/split.py:112``): shard = first-4-hex-chars % n_parts,
  order = full digest.  Pure functions of (seed, doc_id) — the same
  document lands in the same shard at every parallelism, scale
  factor, and resume point, and the realized global order
  (shard asc, key asc) IS the seed's deterministic epoch shuffle.
* one writer task per shard sorts its group, counts whitespace
  tokens, and writes Parquet atomically (tmp -> rename) plus a
  manifest row carrying lineage (docs, tokens, sha256 of the ordered
  doc-id stream).  Shard count is sized from the input (bounded docs
  per shard) and pinned in ``_manifest/meta.json`` together with the
  seed and curation parameters; a resume with different parameters is
  refused loudly (changed params silently re-bucket or re-filter —
  the flagship's round-2 lesson, ``flagship.py:247-260``).
* resume drops completed shards map-side BEFORE the shard exchange,
  so a rerun re-reads text but re-shuffles and re-writes only the
  missing shards.

``curation_export`` is SQL-oracle-checked end to end: the per-shard
(docs, tokens) census hash-matches a DuckDB twin that reproduces the
whole chain (repetition gate, min-doc_id-per-md5 dedup, needle
scan, md5-byte split, hex shard arithmetic) in pure SQL.
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..state import commit
from .flagship import (
    MAX_PARTITIONS,
    MIN_PARTITIONS,
    RUN_META,
    completed_parts,
    load_run_meta,
    partition_manifests,
)

DEFAULT_DOCS_PER_SHARD = 50_000


def curated_train_docs(docs_ds, holdout_bytes: int = 64):
    """quality gate -> exact-dedup -> decontaminate -> 'train' rows
    (doc_id, text, lang, split) — the curation chain of
    ``q_curation_pipeline`` with text carried through for export."""
    from ..stages.bloom import bloom_anti_join
    from ..stages.contamination import extract_needles, flag_contaminated
    from ..stages.dedup import exact_dup_drops
    from ..stages.split import assign_split
    from ..stages.text import quality_gate

    doc_schema = pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string()), ("lang", pa.string())]
    )
    key_schema = pa.schema([("doc_id", pa.int64())])

    q = quality_gate(docs_ds).materialize()  # consumed by dedup AND anti join
    kept = (
        bloom_anti_join(
            q,
            exact_dup_drops(q),
            on="doc_id",
            n_buckets=16,
            left_schema=doc_schema,
            right_schema=key_schema,
        )
        .repartition(16)
        .materialize()  # consumed by flag pass AND anti-join left
    )
    needles = extract_needles(docs_ds)
    clean = bloom_anti_join(
        kept,
        flag_contaminated(kept, needles),
        on="doc_id",
        n_buckets=16,
        left_schema=doc_schema,
        right_schema=key_schema,
    )
    labeled = assign_split(
        clean, holdout_bytes=holdout_bytes, keep_cols=["text", "lang"]
    )

    def train_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch.column("split"), "train"))

    return labeled.map_batches(train_only, batch_format="pyarrow")


def _shard_cols(doc_ids, seed: int, n_parts: int):
    """(part int32, shuffle_key hex str) per doc — ONE md5 per doc, the
    epoch_shuffle key convention (``md5(seed|doc_id)``)."""
    keys = [
        hashlib.md5(("%d|%d" % (seed, d)).encode()).hexdigest()
        for d in doc_ids
    ]
    parts = [int(k[:4], 16) % n_parts for k in keys]
    return parts, keys


class ShardWriter:
    """One task per shard: sort by shuffle key, write Parquet
    atomically, emit the manifest row (lineage + metrics)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    _SUMMARY_SCHEMA = pa.schema(
        [("part", pa.int32()), ("docs", pa.int64()), ("tokens", pa.int64())]
    )

    def __call__(self, group) -> pa.Table:
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)  # writer tasks get exactly 1 Ray CPU
        if not isinstance(group, pd.DataFrame):
            group = group.to_pandas()
        if not len(group):  # typed empty: no RefBundle schema drift
            return self._SUMMARY_SCHEMA.empty_table()
        part = int(group["part"].iloc[0])
        group = group.sort_values("shuffle_key").reset_index(drop=True)

        # whitespace token census — DuckDB len(string_split(text, ' '))
        tokens = int(
            group["text"].fillna("").str.split(" ").str.len().sum()
        )
        ids_stream = "\n".join(str(d) for d in group["doc_id"])
        sha = hashlib.sha256(ids_stream.encode()).hexdigest()

        data = pa.Table.from_pandas(
            group[["doc_id", "text", "lang", "shuffle_key"]],
            preserve_index=False,
        )
        final = "%s/shards/shard-%05d.parquet" % (self.out_dir, part)
        commit.atomic_write(final, lambda tmp: pq.write_table(data, tmp))

        manifest = {
            "part": part,
            "docs": int(len(group)),
            "tokens": tokens,
            "sha256_ids": sha,
            "parquet": os.path.basename(final),
        }
        commit.publish_manifest(self.out_dir, "_manifest/part-%05d.json" % part, manifest)

        return pa.Table.from_pydict(
            {
                "part": pa.array([part], pa.int32()),
                "docs": pa.array([len(group)], pa.int64()),
                "tokens": pa.array([tokens], pa.int64()),
            }
        )


def _resolve_export_meta(docs_ds, out_dir, n_parts, resume, docs_per_shard,
                         seed, params_fp):
    """Pin (n_parts, seed, params) in the run manifest; a resume with a
    different pin is refused — shard ids and the drop logic are pure
    functions of these, so changing any mid-run corrupts the output."""
    meta = load_run_meta(out_dir) if resume else None
    if meta is not None:
        if int(meta.get("seed", -1)) != seed or meta.get("params") != params_fp:
            raise RuntimeError(
                "cannot resume %r: run was started with seed=%s params=%s "
                "but this call passes seed=%s params=%s — shard assignment "
                "and the curation drop-sets would change mid-output. Use "
                "the original parameters or a fresh output dir."
                % (out_dir, meta.get("seed"), meta.get("params"), seed,
                   params_fp)
            )
        return int(meta["n_parts"])
    if resume and n_parts is None and completed_parts(out_dir):
        raise RuntimeError(
            "cannot resume %r: completed shard manifests exist but "
            "_manifest/meta.json is missing, so the original n_parts is "
            "unknown (shard ids are hash %% n_parts). Pass the original "
            "n_parts explicitly, or start a fresh output dir." % out_dir
        )
    if n_parts is None:
        n_docs = docs_ds.count()  # metadata-only for parquet inputs
        n_parts = -(-n_docs // docs_per_shard)
        n_parts = max(MIN_PARTITIONS, min(MAX_PARTITIONS, n_parts))
    commit.publish_manifest(
        out_dir, RUN_META, {"n_parts": int(n_parts), "seed": int(seed),
                            "params": params_fp}
    )
    return int(n_parts)


def run_curation_export(
    docs_ds,
    out_dir: str,
    seed: int = 17,
    n_parts: int | None = None,
    resume: bool = True,
    holdout_bytes: int = 64,
    docs_per_shard: int = DEFAULT_DOCS_PER_SHARD,
):
    """Run the export; returns the full per-shard summary (part, docs,
    tokens) read back from the on-disk manifests — identical whether
    the shards were written by this call or a previous one (resume).
    The driver holds ``out_dir``'s writer lock for the whole run."""
    os.makedirs(out_dir, exist_ok=True)
    with commit.writer_lock(out_dir):
        params_fp = "holdout=%d" % holdout_bytes
        n_parts = _resolve_export_meta(
            docs_ds, out_dir, n_parts, resume, docs_per_shard, seed, params_fp
        )
        done = completed_parts(out_dir) if resume else set()

        train = curated_train_docs(docs_ds, holdout_bytes=holdout_bytes)

        def add_shard(batch: pd.DataFrame) -> pd.DataFrame:
            if not len(batch):
                return pd.DataFrame(
                    {
                        "doc_id": pd.Series([], dtype="int64"),
                        "text": pd.Series([], dtype=object),
                        "lang": pd.Series([], dtype=object),
                        "part": pd.Series([], dtype="int32"),
                        "shuffle_key": pd.Series([], dtype=object),
                    }
                )
            parts, keys = _shard_cols(
                batch["doc_id"].to_numpy(), seed, n_parts
            )
            out = batch[["doc_id", "text", "lang"]].copy()
            out["part"] = pd.Series(parts, dtype="int32").to_numpy()
            out["shuffle_key"] = keys
            if done:  # resume: completed shards never enter the exchange
                out = out[~out["part"].isin(list(done))]
            return out

        pending = train.map_batches(add_shard, batch_format="pandas")
        writer = ShardWriter(out_dir)

        def write_shard(group):  # map_groups wants a plain callable
            return writer(group)

        (
            pending.groupby("part")
            .map_groups(write_shard, batch_format="pandas")
            .materialize()  # drive the writes; summary comes from disk
        )

        # summary from the manifests — covers freshly written AND
        # previously completed shards, so resume returns the same table
        rows = [(m["part"], m["docs"], m["tokens"]) for m in partition_manifests(out_dir)]
        return pd.DataFrame(rows, columns=["part", "docs", "tokens"]).astype(
            {"part": "int32", "docs": "int64", "tokens": "int64"}
        )
