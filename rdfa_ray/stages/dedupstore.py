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
* every writer (build, commit, compaction) goes through
  ``commit.write_partitioned`` keyed on the prefix: a write task
  gathers up to ``_ROWS_PER_FILE`` hash rows, and each prefix it holds
  becomes bounded-size files in a new generation directory
  ``parts/<prefix>-g<N>`` whose paths the manifest lists per prefix;
* committing appends one generation directory per touched prefix
  (append-only — a membership set only ever grows) and swaps the
  manifest, so a crashed commit leaves the previous snapshot fully
  readable and a re-run is idempotent.
"""

from __future__ import annotations

import contextlib
import os

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


def _with_prefix(t: pa.Table, prefix_len: int = 2) -> pa.Table:
    """Append ``p``, the first ``prefix_len`` hex chars of ``h``."""
    h = pc.cast(t.column("h"), pa.string())
    return t.append_column("p", pc.utf8_slice_codeunits(h, 0, prefix_len))


def _hash_prefix_batch(batch: pa.Table, prefix_len: int = 2) -> pa.Table:
    """(doc_id, text) -> (doc_id, h, p): md5 hex + hex-char prefix."""
    from .dedup import _text_md5_batch

    return _with_prefix(_text_md5_batch(batch), prefix_len)


def _store_files(store_dir: str, meta: dict, prefixes) -> list:
    return [
        os.path.join(store_dir, rel)
        for p in prefixes
        for rel in meta["partitions"].get(p, [])
    ]


def persist_hash_store(docs_ds, store_dir: str, prefix_len: int = 2) -> dict:
    """Build the store from an existing corpus: one hash pass and one
    keyed write of prefix-pure files (``_write_hashes``).  Over a
    complete store the build is a NEW generation, so the live one stays
    readable until the manifest swap.  Returns the meta dict; manifest
    written LAST (sentinel); anything under parts/ the new manifest
    does not reference (the superseded generation, or orphans of a
    crashed commit) is vacuumed after the swap.

    ``prefix_len`` (hex chars; recorded in the manifest and honored by
    every later read/commit/compaction) sets the partition fan-out:
    2 -> 256 partitions, 3 -> 4096.  Deepen it for very large corpora
    so compaction's per-prefix task memory (~corpus/16^prefix_len
    distinct hashes) stays bounded."""
    import shutil

    os.makedirs(store_dir, exist_ok=True)
    with store_commit.writer_lock(store_dir):
        old = store_commit.read_manifest(store_dir, _META, 1)
        if old is None:  # crashed build: clear partial generations
            shutil.rmtree(os.path.join(store_dir, "parts"), ignore_errors=True)
        gen = 1 if old is None else old["generation"] + 1

        hashed = docs_ds.map_batches(
            _hash_prefix_batch, fn_kwargs={"prefix_len": prefix_len},
            batch_format="pyarrow",
        )
        meta = {"format": 1, "generation": gen, "prefix_len": prefix_len,
                "partitions": _write_hashes(hashed, store_dir, gen)}
        _publish(store_dir, meta)
    return meta


_ROWS_PER_FILE = 4_000_000  # ~40 B/hash -> ~160 MB per file ceiling


def _write_hashes(hashed_ds, store_dir: str, gen: int,
                  rows_per_file: int = _ROWS_PER_FILE) -> dict:
    """Write generation ``gen`` of the (h, p) rows of ``hashed_ds``
    through ``commit.write_partitioned``: per prefix, files of at most
    ``rows_per_file`` hashes under ``parts/<prefix>-g<gen>``.  Each
    block is reduced to its distinct (h, p) rows where it lives; a hash
    repeated across blocks is stored twice, which membership does not
    notice (``compact_hash_store`` folds it).  Those thin rows are
    materialized before the write: Ray fuses the maps in front of a
    sink into its write tasks, and a write task gathers up to
    ``rows_per_file`` rows of the fused input — without the barrier it
    would gather documents (or, compacting, whole prefixes) instead of
    at most ``rows_per_file`` hashes.  Returns {prefix: [relpaths]}."""

    def distinct(t: pa.Table) -> pa.Table:
        return t.select(["h", "p"]).group_by(["h", "p"], use_threads=False).aggregate([])

    hashes = hashed_ds.map_batches(distinct, batch_format="pyarrow").materialize()
    return store_commit.write_partitioned(hashes, "p", store_dir, gen, rows_per_file)


def vacuum_hash_store(store_dir: str) -> int:
    """Delete every entry under parts/ that holds no file the CURRENT
    manifest references (stale generations from a rebuild, superseded
    compaction inputs, .tmp orphans of a crashed writer).  Returns the
    number of entries removed."""
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
    not rewritten).  The folded prefixes are written as generation
    ``generation + 1`` (so no live directory is replaced), the manifest
    is swapped, then the superseded inputs are vacuumed.
    Single-writer; crash before the swap leaves the previous snapshot
    fully readable and the re-run idempotent.

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

        def unique_prefix(batch: pa.Table) -> pa.Table:
            pa.set_cpu_count(1)
            prefix = batch.column("p")[0].as_py()
            tabs = [pq.read_table(f, columns=["h"]) for f in files_by_prefix[prefix]]
            h = pc.unique(pc.cast(pa.concat_tables(tabs).column("h"), pa.string()))
            return pa.table({"h": h, "p": pa.array([prefix] * len(h), pa.string())})

        gen = meta["generation"] + 1
        folded = rd.from_items([{"p": p} for p in todo]).map_batches(
            unique_prefix, batch_format="pyarrow", batch_size=1
        )
        new_parts = _write_hashes(folded, store_dir, gen, rows_per_file)
        partitions = dict(meta["partitions"])
        partitions.update({p: new_parts.get(p, []) for p in todo})
        new_meta = {"format": 1, "generation": gen,
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
                _with_prefix, fn_kwargs={"prefix_len": prefix_len},
                batch_format="pyarrow",
            )
            new_parts = _write_hashes(with_prefix, store_dir, gen)
            partitions = {p: list(rels) for p, rels in meta["partitions"].items()}
            for p, rels in new_parts.items():
                partitions.setdefault(p, []).extend(rels)
            # the vacuum clears orphans of any crashed commit
            _publish(store_dir, {
                "format": 1, "generation": gen, "prefix_len": prefix_len,
                "partitions": partitions,
            })
        return survivors
