"""Incremental exact dedup against a PERSISTED content-hash store —
the production ingestion pattern: each new data drop dedups against
everything ever accepted WITHOUT rescanning the corpus, then commits
its own hashes as a new store generation.

Reference analogue: none in pyrdfa3 — beyond-reference data-ops stage
in the dedup family (the standing-store counterpart of
``dedup.exact_dedup``, structured like ``kgstore``: hash-prefix
partition directories + a ``_meta.json`` manifest published LAST as
the completeness sentinel, every writer under the store's single-writer
lock — ``state/commit.py``).

Scale shape (the whole point):

* the store holds ONLY md5 hex hashes (16 B of entropy per accepted
  document), hash-prefix partitioned into 256 directories;
* deduping a drop reads ONLY the prefix partitions its own hashes
  touch (directory pruning — a small drop against a 100-TB corpus
  reads a 1/256 slice per distinct prefix, and only the thin hash
  column);
* document text NEVER crosses an exchange: the drop hashes map-side,
  keep-first resolves on a hash-keyed groupby of (h, doc_id) rows, and
  the against-store check is a bucketed anti join of hash rows;
* committing appends one parquet per touched prefix (append-only —
  a membership set only ever grows) and swaps the manifest, so a
  crashed commit leaves the previous snapshot fully readable and a
  re-run is idempotent.
"""

from __future__ import annotations

import contextlib
import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc

# aliased: ``commit`` is incremental_exact_dedup's flag
from ..state import commit as store_commit

_META = "_meta.json"


def hash_store_is_complete(store_dir: str) -> bool:
    return store_commit.read_manifest(store_dir, _META, 1) is not None


def _current_meta(store_dir: str) -> dict:
    meta = store_commit.read_manifest(store_dir, _META, 1)
    if meta is None:
        raise FileNotFoundError(
            "hash store at %s is absent or incomplete — build it with "
            "persist_hash_store first" % store_dir
        )
    return meta


def _hash_prefix_batch(batch: pa.Table, prefix_len: int = 2) -> pa.Table:
    """(doc_id, text) -> (doc_id, h, p): md5 hex + hex-char prefix."""
    from .dedup import _text_md5_batch

    t = _text_md5_batch(batch)
    return t.append_column(
        "p", pc.utf8_slice_codeunits(t.column("h"), 0, prefix_len)
    )


def _store_files(store_dir: str, meta: dict, prefixes) -> list:
    return [
        os.path.join(store_dir, rel)
        for p in prefixes
        for rel in meta["partitions"].get(p, [])
    ]


def persist_hash_store(docs_ds, store_dir: str, prefix_len: int = 2) -> dict:
    """Build the store from an existing corpus: one hash pass, one
    p-range sort, prefix-pure parquet files written per BLOCK.
    Returns the meta dict; manifest written LAST (sentinel); any
    parquet not referenced by the new manifest (stale generations from
    a rebuild over a complete store, or orphans of a crashed commit)
    is vacuumed after the swap.

    ``prefix_len`` (hex chars; recorded in the manifest and honored by
    every later read/commit/compaction) sets the partition fan-out:
    2 -> 256 partitions, 3 -> 4096.  Deepen it for very large corpora
    so compaction's per-prefix task memory (~corpus/16^prefix_len
    distinct hashes) stays bounded."""
    import shutil

    os.makedirs(store_dir, exist_ok=True)
    with store_commit.writer_lock(store_dir):
        if not hash_store_is_complete(store_dir):
            p = os.path.join(store_dir, "parts")
            if os.path.isdir(p):  # crashed build: clear partial generations
                shutil.rmtree(p)

        hashed = docs_ds.map_batches(
            _hash_prefix_batch, fn_kwargs={"prefix_len": prefix_len},
            batch_format="pyarrow",
        )
        parts = _write_generation(hashed, store_dir, gen=1)
        meta = {"format": 1, "generation": 1, "prefix_len": prefix_len,
                "partitions": parts}
        _publish(store_dir, meta)
    return meta


_ROWS_PER_FILE = 4_000_000  # ~40 B/hash -> ~160 MB per file ceiling


def _write_generation(hashed_ds, store_dir: str, gen: int,
                      rows_per_file: int = _ROWS_PER_FILE) -> dict:
    """Write this generation's hashes as prefix-pure parquet files.

    Scale shape: one p-range sort of the thin (h, p) rows, then each
    BLOCK of the sorted stream splits itself by the few prefixes it
    spans and writes bounded-size files — no task ever holds more than
    one block (the round-4 build funnelled each prefix, ~corpus/256
    hashes, through a single ``map_groups`` task; at 100 TB that is a
    multi-GB heap per task).  A prefix spanning several blocks simply
    yields several files — the manifest's per-prefix file LIST covers
    it, and ``compact_hash_store`` folds them back down after many
    drops.  Hashes are deduped per (block, prefix) slice; cross-block
    duplicates are rare (the stream is h-unsorted only at block
    boundaries) and harmless for membership semantics.
    Returns {prefix: [relpaths]}."""
    import numpy as np

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _rel_rows([], [])
        pa.set_cpu_count(1)
        t = t.combine_chunks()
        pcol = np.asarray(t.column("p"))
        # block is p-sorted: each prefix is one contiguous run
        bounds = np.flatnonzero(pcol[1:] != pcol[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        stops = np.concatenate((bounds, [len(pcol)]))
        ps, rels = [], []
        for s, e in zip(starts, stops):
            h = pc.unique(pc.cast(t.slice(s, e - s).column("h"), pa.string()))
            new = _write_hash_files(store_dir, pcol[s], "g%d" % gen, h, rows_per_file)
            ps += [pcol[s]] * len(new)
            rels += new
        return _rel_rows(ps, rels)

    rows = (
        hashed_ds.select_columns(["h", "p"])
        .sort("p")
        .map_batches(write_block, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    parts: dict = {}
    for p, rel in zip(rows["p"], rows["rel"]):
        parts.setdefault(p, []).append(rel)
    return parts


def _write_hash_files(store_dir: str, prefix: str, tag: str, h, rows_per_file: int) -> list:
    """One prefix's distinct hashes ``h`` as bounded-size files
    ``parts/<prefix>-<tag>-<uuid>.parquet``; returns their relpaths."""
    import pyarrow.parquet as pq

    rels = []
    for off in range(0, len(h), rows_per_file):
        rel = os.path.join("parts", "%s-%s-%s.parquet" % (prefix, tag, uuid.uuid4().hex[:8]))
        chunk = pa.table({"h": h.slice(off, rows_per_file)})
        store_commit.atomic_write(os.path.join(store_dir, rel),
                                  lambda tmp: pq.write_table(chunk, tmp))
        rels.append(rel)
    return rels


def _rel_rows(ps: list, rels: list) -> pa.Table:
    return pa.Table.from_pydict(
        {"p": pa.array(ps, pa.string()), "rel": pa.array(rels, pa.string())}
    )


def vacuum_hash_store(store_dir: str) -> int:
    """Unlink every file under parts/ that the CURRENT manifest does
    not reference (stale generations from a rebuild, superseded
    compaction inputs, .tmp orphans of a crashed writer).  Returns the
    number of files removed."""
    with store_commit.writer_lock(store_dir):
        return len(_vacuum(store_dir, _current_meta(store_dir)))


def _vacuum(store_dir: str, meta: dict) -> list:
    referenced = [rel for rels in meta["partitions"].values() for rel in rels]
    return store_commit.vacuum(store_dir, "parts", referenced)


def _publish(store_dir: str, meta: dict) -> None:
    """Swap in ``meta``, then vacuum what it no longer references."""
    store_commit.publish_manifest(store_dir, _META, meta)
    _vacuum(store_dir, meta)


def compact_hash_store(store_dir: str, max_files_per_prefix: int = 4,
                       rows_per_file: int = _ROWS_PER_FILE) -> dict:
    """Fold each over-fragmented prefix's generation files into few
    distinct-hash files.  After N incremental drops a hot prefix holds
    N small files, and every future dedup re-reads all of them — this
    is the read-amplification release valve.  Prefixes at or under
    ``max_files_per_prefix`` files are left untouched (their bytes are
    not rewritten).  Swaps the manifest, then vacuums the superseded
    inputs.  Single-writer; crash before the swap leaves the previous
    snapshot fully readable and the re-run idempotent.

    Memory shape: compaction MUST co-locate a whole prefix to unique
    it, so each task holds one prefix's distinct hashes (~corpus/256
    16-byte digests — ~6 GB per task per PB of 100 KB docs; for larger
    corpora run with deeper prefixes or compact prefix subsets)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    with store_commit.writer_lock(store_dir):
        meta = _current_meta(store_dir)
        todo = sorted(
            p for p, rels in meta["partitions"].items()
            if len(rels) > max_files_per_prefix
        )
        if not todo:
            return meta
        files_by_prefix = {p: _store_files(store_dir, meta, [p]) for p in todo}

        def compact_prefix(batch: pa.Table) -> pa.Table:
            pa.set_cpu_count(1)
            ps, rels = [], []
            for prefix in batch.column("p").to_pylist():
                tabs = [pq.read_table(f, columns=["h"]) for f in files_by_prefix[prefix]]
                h = pc.unique(pc.cast(pa.concat_tables(tabs).column("h"), pa.string()))
                new = _write_hash_files(store_dir, prefix, "c%d" % meta["generation"],
                                        h, rows_per_file)
                ps += [prefix] * len(new)
                rels += new
            return _rel_rows(ps, rels)

        rows = (
            rd.from_items([{"p": p} for p in todo])
            .map_batches(compact_prefix, batch_format="pyarrow", batch_size=1)
            .to_pandas()
        )
        partitions = {p: list(rels) for p, rels in meta["partitions"].items()}
        for p in todo:
            partitions[p] = []
        for p, rel in zip(rows["p"], rows["rel"]):
            partitions[p].append(rel)
        new_meta = {"format": 1, "generation": meta["generation"],
                    "prefix_len": int(meta.get("prefix_len", 2)),
                    "partitions": partitions}
        _publish(store_dir, new_meta)
        return new_meta


def incremental_exact_dedup(new_docs_ds, store_dir: str, commit: bool = False):
    """Dedup a new drop against the store AND itself.

    Returns the surviving (doc_id, h) rows — drop-internal keep-first
    (min doc_id per hash) minus anything the store has already
    accepted.  ``commit=True`` appends the survivors' hashes as a new
    generation and swaps the manifest (append-only membership; crash
    before the swap leaves the old snapshot; the survivors Dataset is
    materialized first so the caller's result and the committed set
    cannot diverge).  A committing call holds the store's writer lock
    throughout, so concurrent commits serialize and each dedups
    against the hashes the other committed."""
    import ray.data as rd
    from ray.data.aggregate import Min

    from ..sources.io import read_parquet as read_parquet_clean
    from .join import bucketed_hash_join

    with store_commit.writer_lock(store_dir) if commit else contextlib.nullcontext():
        meta = _current_meta(store_dir)
        prefix_len = int(meta.get("prefix_len", 2))

        hashed = new_docs_ds.map_batches(
            _hash_prefix_batch, fn_kwargs={"prefix_len": prefix_len},
            batch_format="pyarrow",
        ).materialize()  # thin (doc_id, h, p) rows: consumed 2-3 times

        # drop-internal keep-first: hash-keyed exchange of hash rows only
        keepers = hashed.groupby("h").aggregate(Min("doc_id", alias_name="doc_id"))

        # prune the store read to the prefixes this drop actually touches
        from ray.data.aggregate import Count

        prefixes = sorted(
            r["p"]
            for r in hashed.map_batches(
                lambda t: pa.Table.from_pydict({"p": pc.unique(t.column("p"))}),
                batch_format="pyarrow",
            )
            .groupby("p")
            .aggregate(Count(alias_name="_n"))
            .take_all()
        )
        paths = _store_files(store_dir, meta, prefixes)
        if paths:
            store_hashes = read_parquet_clean(paths, columns=["h"])
            survivors = bucketed_hash_join(
                keepers, store_hashes, "h", how="anti",
                left_schema=pa.schema([("h", pa.string()), ("doc_id", pa.int64())]),
                right_schema=pa.schema([("h", pa.string())]),
            )
        else:  # brand-new prefixes only: nothing to check against
            survivors = keepers
        survivors = survivors.select_columns(["doc_id", "h"]).materialize()

        if commit and survivors.count() > 0:
            gen = meta["generation"] + 1
            with_prefix = survivors.map_batches(
                lambda t: t.append_column(
                    "p", pc.utf8_slice_codeunits(
                        pc.cast(t.column("h"), pa.string()), 0, prefix_len
                    )
                ),
                batch_format="pyarrow",
            )
            new_parts = _write_generation(with_prefix, store_dir, gen)
            partitions = {p: list(rels) for p, rels in meta["partitions"].items()}
            for p, rels in new_parts.items():
                partitions.setdefault(p, []).extend(rels)
            # the vacuum clears orphans of any crashed commit
            _publish(store_dir, {
                "format": 1, "generation": gen, "prefix_len": prefix_len,
                "partitions": partitions,
            })
        return survivors
