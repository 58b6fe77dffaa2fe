"""Persisted predicate-partitioned triple store — the 100-TB KG path.

Every ``kg_*`` query so far re-distills the graph from the source
documents per run; that is the right shape for one-shot pipelines but
wrong for a standing knowledge graph that is queried many times.  This
module splits construction from querying the way a production triple
store would (vertical partitioning by predicate — the classic SW-Store
/ property-table layout), and supports in-place evolution the way a
table format would (manifest-swapped partition generations):

* ``persist_kg``: ONE construction pass — each triple gets a
  deterministic ``pred_key`` partition token in ``map_batches`` and
  every predicate partition is written as one compacted generation
  directory (layout below).
* ``read_kg``: reads ONLY the requested predicates' partitions
  (directory pruning at the storage layer; scan fraction ≈
  |preds| / |distinct preds|), with a residual equality filter because
  sanitization may collide distinct predicate IRIs into one token.
  ``read_kg_table`` is the same read into one in-process Arrow table,
  or ``None`` when the pruned files' Parquet footers sum past a row
  limit — ``sparql_text.execute_on_store`` reads small scans
  in-process and runs larger ones on Ray Data.
* ``ensure_kg``: build-if-absent, re-checked under the writer lock so
  concurrent callers build one generation.
* ``update_kg``: SPARQL-Update analogue (INSERT DATA / DELETE DATA,
  rdflib Graph.update / add / remove): ONLY the partitions named by
  the delta are rewritten, each as a new generation directory; the
  manifest — rewritten atomically LAST — maps every predicate token to
  its current generation's directory, so untouched partitions are
  re-pointed, never copied, and a crash mid-update leaves the old
  manifest reading the old snapshot (snapshot isolation for free).

File layout: every writer (build, update, graph transforms) writes
through ``commit.write_partitioned`` keyed on ``pred_key``.  Its write
tasks each gather blocks up to ``ROWS_PER_FILE`` rows and write each
partition they hold as one Parquet file with one row group, in input
order; each partition then moves to its generation directory
``parts/<token>-g<N>``.  A generation of at most ``ROWS_PER_FILE`` rows
is one write task, so each partition it writes is one file — a pruned
read opens one file per predicate.  The coalescing is per write task:
a larger generation gives each partition about one file per
``ROWS_PER_FILE``-row slice of the whole generation (a per-partition
``keyed_exchange`` before the write would fold those, if the Ray path
ever needs it).  Rows are not sorted: a partition reads back in input
order, which is the order a LIMIT without ORDER BY sees.  Stores
written with one file per Ray block (several files of many row groups
per partition) read and update unchanged; their untouched partitions
keep their files.

The ``_meta.json`` manifest doubles as the completeness sentinel: it
is the LAST artifact published on both build and update — a store
without it is invisible and gets rebuilt; stale generation directories
are unreferenced, not corrupting.  The compacted files are written
under a staging directory and moved into place before that manifest.
Every writer (build, update, clear, graph transforms, vacuum) runs
under the store's single-writer lock; the commit protocol lives in
``state/commit.py``.

Read path: readers (``read_kg_table``, ``read_kg``, ``scan_rows``,
``store_has_graph``, ``sparql_text.explain``) share a process-local,
read-only ``StoreSnapshot`` of the current manifest, keyed on the
``os.stat`` of ``_meta.json`` (device, inode, size, ``mtime_ns``)
taken before the manifest is read.  It keeps the parsed manifest and,
from first use, each partition's files, footer counts and predicate
IRIs; decoded partitions stay within ``SNAPSHOT_TABLE_BYTES`` across
stores (LRU).  A warm query is one ``stat`` and a column ``select``;
the residual filter runs only on a partition holding a predicate the
query did not ask for.  Every publish swaps the manifest file, so the
key changes (this process's writers also drop the snapshot); a crashed
writer leaves the old manifest and its snapshot serving.  Writers
re-read the manifest from disk under the writer lock.  One lock guards
the snapshot and table maps, so threads share them; a snapshot's lazy
maps only gain equal values.

At cluster scale the store build is the only full-data pass; a BGP
whose patterns bind 2 of 40 predicates opens 2/40ths of the files, and
a vocabulary-migration update touching one predicate rewrites 1/40th.
"""

from __future__ import annotations

import functools
import os
import re
import threading
from collections import OrderedDict

import pyarrow as pa
from ..sources.io import read_parquet as read_parquet_clean
from ..state import commit

_META = "_meta.json"
_PRED_TOKEN_RE = re.compile(r"[^A-Za-z0-9]+")
_COLS = ("subj", "pred", "obj_value")
_QCOLS = ("subj", "pred", "obj_value", "graph")


@functools.lru_cache(maxsize=4096)
def pred_key(pred: str) -> str:
    """Deterministic partition token for a predicate IRI: the last two
    path/fragment segments, sanitized to [A-Za-z0-9_] and length-capped
    (partition directory names must stay filesystem-safe).  Collisions
    are allowed — readers re-filter on the full IRI."""
    tail = re.split(r"[/#]", pred.rstrip("/#"))
    token = _PRED_TOKEN_RE.sub("_", "_".join(tail[-2:])).strip("_")
    return (token or "p")[:48]


def store_meta(store_dir: str) -> dict | None:
    """The current manifest, or ``None`` when the store is absent or
    incomplete — including an older layout format, which callers
    rebuild rather than misread."""
    return commit.read_manifest(store_dir, _META, 2)


def store_is_complete(store_dir: str) -> bool:
    return store_meta(store_dir) is not None


def _current_meta(store_dir: str) -> dict:
    meta = store_meta(store_dir)
    if meta is None:
        raise FileNotFoundError("KG store at %s is absent or incomplete" % store_dir)
    return meta


def store_has_graph(store_dir: str) -> bool:
    """Is this a quad store (rows carry a ``graph`` column)?  Answered
    from the manifest's recorded form; older manifests (or ones written
    before the flag existed) fall back to sniffing one partition file's
    schema.  An empty store with no recorded form reads as triple-form
    — the next insert's delta schema decides what it becomes."""
    return _has_graph(store_dir, _current_snapshot(store_dir).meta)


def _has_graph(store_dir: str, meta: dict) -> bool:
    if "quads" in meta:
        return bool(meta["quads"])
    return _sniff_quads(store_dir, meta["partitions"])


def _sniff_quads(store_dir: str, partitions: dict) -> bool:
    """Schema-sniff a freshly written generation for the graph column."""
    if not partitions:
        return False
    import pyarrow.parquet as pq

    paths = _partition_files(store_dir, partitions, sorted(partitions)[:1])
    return bool(paths) and "graph" in pq.read_schema(paths[0]).names


def _add_key(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    preds = batch.column("pred")
    # vectorized via dictionary-encode: one pred_key() call per
    # DISTINCT predicate in the block, not per row
    enc = (
        preds.combine_chunks().dictionary_encode()
        if isinstance(preds, pa.ChunkedArray)
        else preds.dictionary_encode()
    )
    keys = pa.array([pred_key(p) for p in enc.dictionary.to_pylist()], pa.string())
    col = pa.DictionaryArray.from_arrays(enc.indices, keys).cast(pa.string())

    def column(c):
        v = batch.column(c)
        text = pa.types.is_string(v.type) or pa.types.is_large_string(v.type)
        if c in _COLS or (c == "graph" and text):
            # null term slots normalize to '' exactly like update_kg's
            # norm(): otherwise a persisted null-graph row packs to a
            # null set-key and can never be matched by a later DELETE
            return pc.fill_null(pc.cast(v, pa.string()), "")
        return v  # other payload columns pass through, nulls included

    names = [*_COLS, *(c for c in batch.column_names if c not in _COLS)]
    return pa.Table.from_pydict({**{c: column(c) for c in names}, "pred_key": col})


# Rows per store file and per write task: a write task gathers blocks up
# to this many rows, and no file holds more.  Equal to
# ``sparql_text.LOCAL_MAX_ROWS``, so a read large enough to run on Ray
# Data spans at least two files, and a write task holds about as many
# rows as an in-process query reads.
ROWS_PER_FILE = 400_000


def _partition_dirs(files: dict) -> dict:
    """``commit.write_partitioned``'s ``{token: [file, ...]}`` as the
    manifest's ``{token: partition directory}``."""
    return {token: os.path.dirname(rels[0]) for token, rels in files.items()}


def _pred_tokens(ds, rows=None) -> set:
    """The ``pred_key`` tokens of ``ds``'s predicates (of the rows
    ``rows(batch)`` keeps, when given).  Each block shrinks to its
    distinct predicates where it lives; the driver reads those back as
    Arrow batches."""
    import pyarrow.compute as pc

    def uniq(b: pa.Table) -> pa.Table:
        # an empty upstream block may arrive schemaless
        if "pred" not in b.column_names:
            return pa.table({"pred": pa.array([], pa.string())})
        if rows is not None:
            b = rows(b)
        return pa.table({"pred": pc.unique(pc.cast(b.column("pred"), pa.string()))})

    batches = ds.map_batches(uniq, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    )
    return {pred_key(p) for b in batches for p in b.column("pred").to_pylist()}


def _repoint(partitions: dict, touched, new_parts: dict) -> dict:
    """Untouched partitions carried by reference; a touched one whose
    rewrite came out empty is dropped."""
    out = {t: rel for t, rel in partitions.items() if t not in touched}
    out.update(new_parts)
    return out


def _publish(store_dir: str, gen: int, partitions: dict, quads) -> dict:
    """Swap in generation ``gen``'s manifest — LAST: callers key "store
    complete" off it, so it must not exist before the partition writes
    completed."""
    meta = {"format": 2, "generation": gen, "partitions": partitions, "quads": bool(quads)}
    commit.publish_manifest(store_dir, _META, meta)
    with _lock:  # this process's readers reload even within one mtime tick
        _forget(os.path.abspath(store_dir))
    return meta


def _partition_files(store_dir: str, partitions: dict, tokens) -> list:
    """Expand partition directories to their Parquet files (the pruned
    read takes explicit file lists)."""
    import glob as _glob

    return [
        f
        for t in tokens
        for f in sorted(
            _glob.glob(os.path.join(store_dir, partitions[t], "*.parquet"))
        )
    ]


def persist_kg(triples_ds, store_dir: str) -> dict:
    """One-shot store build from a (subj, pred, obj_value) Dataset.
    Returns the meta dict.  Predicate-partitioned so later reads prune;
    each partition is written compacted (``commit.write_partitioned``):
    one file with one row group per ``ROWS_PER_FILE`` rows of the
    build, in input order, with no extra pass and no shuffle."""
    import shutil

    os.makedirs(store_dir, exist_ok=True)
    with commit.writer_lock(store_dir):
        # a previous crashed build (no manifest) may have left partial
        # generation dirs; clear them so the rebuild can't mix
        # generations.  Over a COMPLETE store, build into a FRESH
        # generation instead — rewriting gen-1 dirs in place would
        # destroy the live snapshot the still-valid old manifest points
        # at (a crash mid-build would leave a complete-looking store
        # over mixed old/new data).
        old = store_meta(store_dir)
        if old is None:
            gen = 1
            for d in ("parts", "triples"):
                p = os.path.join(store_dir, d)
                if os.path.isdir(p):
                    shutil.rmtree(p)
        else:
            gen = old["generation"] + 1

        parts = _partition_dirs(commit.write_partitioned(
            triples_ds.map_batches(_add_key, batch_format="pyarrow"),
            "pred_key", store_dir, gen, ROWS_PER_FILE,
        ))
        return _publish(store_dir, gen, parts, _sniff_quads(store_dir, parts))


def ensure_kg(store_dir: str, build) -> dict:
    """The store at ``store_dir``, built from ``build()`` (a triples
    Dataset factory) when it is absent or incomplete.  Completeness is
    re-checked under the writer lock, so concurrent callers build ONE
    generation: the others wait, then find the manifest and read it.
    Returns the meta dict."""
    meta = store_meta(store_dir)
    if meta is not None:
        return meta
    os.makedirs(store_dir, exist_ok=True)
    with commit.writer_lock(store_dir):
        # re-entrant per thread: persist_kg takes the same lock inside
        return store_meta(store_dir) or persist_kg(build(), store_dir)


def update_kg(store_dir: str, insert_ds=None, delete_ds=None, quads=None) -> dict:
    """INSERT DATA / DELETE DATA against the store (deletes apply
    first, matching SPARQL Update's single-request semantics).  Only
    partitions whose predicate appears in the delta are rewritten —
    each as a NEW generation directory, with the manifest re-pointed
    atomically at the end.  Untouched partitions are carried by
    reference.  A crash before the manifest write leaves the previous
    snapshot fully readable.

    Works on triple stores and quad stores alike: ``quads`` forces the
    mode (True = deltas carry / default to a ``graph`` column, set
    semantics key on all four columns); ``None`` auto-detects from the
    store's recorded form.  Mixing a quad delta into a triple store
    raises — the row shapes are incompatible and a silent widen would
    corrupt every existing reader's schema."""
    import pyarrow.compute as pc
    import ray.data as rd

    from .distinct import distinct
    from .graphops import graph_difference

    with commit.writer_lock(store_dir):
        meta = _current_meta(store_dir)
        gen = meta["generation"] + 1
        # each delta's lineage is consumed twice (predicate collection +
        # the merge); pin the key-sized delta rows once
        if insert_ds is not None:
            insert_ds = insert_ds.materialize()
        if delete_ds is not None:
            delete_ds = delete_ds.materialize()

        deltas = [ds for ds in (insert_ds, delete_ds) if ds is not None]
        touched = sorted(set().union(*map(_pred_tokens, deltas)))
        if not touched:
            return meta

        has_graph = _has_graph(store_dir, meta)
        if quads is None:
            quads = has_graph
        elif meta["partitions"] and bool(quads) != has_graph:
            # a forced form that contradicts a NON-EMPTY store must refuse
            # even when every delta predicate is new — otherwise the delta
            # writes partitions of the other shape next to the existing
            # ones and flips the recorded form (silent schema widening)
            raise ValueError(
                "update_kg(quads=%r) against a non-empty %s store — the row"
                " shapes are incompatible; rebuild via persist_kg"
                % (quads, "quad" if has_graph else "triple")
            )
        cols = list(_QCOLS) if quads else list(_COLS)

        # current rows of ONLY the touched partitions (pruned read)
        paths = _partition_files(
            store_dir, meta["partitions"], [t for t in touched if t in meta["partitions"]]
        )
        if paths:
            import pyarrow.parquet as pq

            extra = set(pq.read_schema(paths[0]).names) - set(cols)
            if extra:
                raise ValueError(
                    "store rows carry columns %s beyond the %s layout this"
                    " update targets — a quad delta cannot apply to a"
                    " triple store (and vice versa); rebuild via persist_kg"
                    % (sorted(extra), "quad" if quads else "triple")
                )

        def norm(b: pa.Table) -> pa.Table:
            # an empty upstream block may arrive schemaless (same hazard
            # delta_keys' uniq defends against)
            if b.num_rows == 0:
                return pa.Table.from_pydict(
                    {c: pa.array([], pa.string()) for c in cols}
                )
            # quad mode: a graph-less delta lands in the default graph ''
            out = {}
            for c in cols:
                if c == "graph" and "graph" not in b.column_names:
                    out[c] = pa.nulls(b.num_rows, pa.string()).fill_null("")
                else:
                    out[c] = pc.fill_null(pc.cast(b.column(c), pa.string()), "")
            return pa.Table.from_pydict(out)

        if paths:
            current = read_parquet_clean(paths, columns=cols)
        else:
            current = rd.from_arrow(
                pa.Table.from_pydict({c: pa.array([], pa.string()) for c in cols})
            )

        updated = current
        if delete_ds is not None:
            # one bucketed anti join, key-sized rows on the delete side
            updated = graph_difference(
                updated, delete_ds.map_batches(norm, batch_format="pyarrow"),
                cols=tuple(cols),
            )
        if insert_ds is not None:
            ins = insert_ds.map_batches(norm, batch_format="pyarrow")
            updated = distinct(updated.union(ins), cols)

        new_parts = _partition_dirs(commit.write_partitioned(
            updated.map_batches(_add_key, batch_format="pyarrow"),
            "pred_key", store_dir, gen, ROWS_PER_FILE,
        ))
        return _publish(store_dir, gen, _repoint(meta["partitions"], touched, new_parts), quads)


def clear_kg(store_dir: str) -> dict:
    """SPARQL ``CLEAR DEFAULT`` analogue: swap in a manifest with no
    partitions (a new, empty generation).  The old generation
    directories stay on disk for crash safety / time travel until
    ``vacuum_store``."""
    with commit.writer_lock(store_dir):
        meta = _current_meta(store_dir)
        # an emptied store keeps its form
        return _publish(store_dir, meta["generation"] + 1, {}, meta.get("quads", False))


def transform_graphs(store_dir: str, affected, rewrite) -> dict:
    """Generational map-only rewrite of the partitions whose ``graph``
    column matches ``affected`` — the engine of SPARQL Update's graph
    management (§3.2: DROP / CLEAR GRAPH, COPY, MOVE), all of which are
    PARTITION-LOCAL under predicate partitioning: a graph's rows for
    predicate P live in P's partition, and so do their retagged copies.

    * ``affected(graph_array) -> bool mask``: which graph values the
      operation touches (vectorized, pyarrow).
    * ``rewrite(batch) -> batch``: the per-batch rewrite applied to
      every row batch of the touched partitions (drop rows, retag
      graphs, duplicate-and-retag — anything row-local).

    Two passes, no exchange anywhere:

    1. a PRUNE scan reading ONLY the (pred, graph) columns finds the
       partitions that contain any affected graph (columnar projection
       — at 100 TB this reads two thin columns, not the store);
    2. only those partitions re-write through ``rewrite`` as a new
       generation; every other partition is carried by reference in
       the manifest swap, exactly like ``update_kg``.

    Requires a quad store (``store_has_graph``); raises otherwise."""
    import pyarrow.compute as pc

    with commit.writer_lock(store_dir):
        meta = _current_meta(store_dir)
        if not _has_graph(store_dir, meta):
            raise ValueError(
                "graph management needs a quad store (rows with a 'graph'"
                " column); this store at %s is triple-form" % store_dir
            )
        gen = meta["generation"] + 1
        partitions = meta["partitions"]
        all_paths = _partition_files(store_dir, partitions, sorted(partitions))
        if not all_paths:
            return meta

        # pass 1: (pred, graph)-only prune scan -> touched pred_keys
        def hits(b: pa.Table) -> pa.Table:
            return b.filter(affected(pc.fill_null(pc.cast(b.column("graph"), pa.string()), "")))

        touched = sorted(
            _pred_tokens(read_parquet_clean(all_paths, columns=["pred", "graph"]), hits)
            & set(partitions)
        )
        if not touched:
            return meta

        # pass 2: rewrite ONLY the touched partitions, map-side
        paths = _partition_files(store_dir, partitions, touched)
        updated = read_parquet_clean(paths, columns=list(_QCOLS)).map_batches(
            rewrite, batch_format="pyarrow"
        )
        new_parts = _partition_dirs(commit.write_partitioned(
            updated.map_batches(_add_key, batch_format="pyarrow"),
            "pred_key", store_dir, gen, ROWS_PER_FILE,
        ))
        return _publish(store_dir, gen, _repoint(partitions, touched, new_parts), True)


def vacuum_store(store_dir: str) -> list:
    """Delete generation directories the current manifest no longer
    references (superseded partitions left behind by ``update_kg`` for
    crash safety / time travel).  Returns the removed relative paths.
    A concurrent reader of the CURRENT snapshot only touches referenced
    directories."""
    with commit.writer_lock(store_dir):
        live = _current_meta(store_dir)["partitions"].values()
        return commit.vacuum(store_dir, "parts", live)


class StoreSnapshot:
    """One published manifest of one store, as this process reads it.
    A manifest's files are never rewritten, so each field is filled on
    first use and never changes: ``files`` (token -> Parquet paths),
    ``footers`` (token -> (rows, row groups)) and ``preds`` (token ->
    the predicate IRIs its rows hold, known once it was decoded)."""

    def __init__(self, store_dir: str, key: tuple, meta: dict):
        self.dir, self.key, self.meta = store_dir, key, meta
        self.parts = meta["partitions"]
        self.files, self.footers, self.preds = {}, {}, {}

    def tokens(self, preds=None) -> list:
        """The partition tokens a read of ``preds`` opens (all when None)."""
        if preds is None:
            return sorted(self.parts)
        return sorted({pred_key(p) for p in preds} & self.parts.keys())

    def paths(self, token: str) -> list:
        if token not in self.files:
            import glob

            self.files[token] = sorted(
                glob.glob(os.path.join(self.dir, self.parts[token], "*.parquet"))
            )
        return self.files[token]

    def footer(self, token: str) -> tuple[int, int]:
        if token not in self.footers:
            import pyarrow.parquet as pq

            mds = [pq.ParquetFile(p).metadata for p in self.paths(token)]
            self.footers[token] = (sum(m.num_rows for m in mds), sum(m.num_row_groups for m in mds))
        return self.footers[token]

    def rows(self, tokens, stop_after: int | None = None) -> int:
        """Footer rows of ``tokens`` (before the residual filter),
        opening no footer once the sum passes ``stop_after``."""
        n = 0
        for t in tokens:
            n += self.footer(t)[0]
            if stop_after is not None and n > stop_after:
                break
        return n

    def layout(self, tokens) -> tuple[int, int]:
        """``(files, row groups)`` of ``tokens``."""
        return sum(len(self.paths(t)) for t in tokens), sum(self.footer(t)[1] for t in tokens)

    def empty(self, columns) -> pa.Table:
        """The typed empty table of a read that opens no file."""
        layout = _QCOLS if self.meta.get("quads") else _COLS
        return pa.Table.from_pydict({c: pa.array([], pa.string()) for c in (columns or layout)})


# Decoded partition tables kept for reuse, summed over every store this
# process reads; the least recently used leave first and a larger table
# is never kept.  Measured on the kg_query store (seed 61, 28,404 quads):
# the whole store decodes to 4.1 MB and the partitions its templates
# read to 2.5 MB, so they fit many times over; a read at
# sparql_text.LOCAL_MAX_ROWS (400k rows) decodes to ~55 MB and fits once.
SNAPSHOT_TABLE_BYTES = 64 << 20
_MAX_STORES = 64  # snapshots (manifest + file lists) kept, LRU
_lock = threading.Lock()
_snapshots: OrderedDict = OrderedDict()  # absolute store dir -> StoreSnapshot
_tables: OrderedDict = OrderedDict()  # (snapshot, token) -> (table, bytes)
_table_bytes = 0


def _forget(store: str) -> None:
    """Drop ``store``'s snapshot and its tables (caller holds ``_lock``)."""
    global _table_bytes
    snap = _snapshots.pop(store, None)
    for key in [k for k in _tables if k[0] is snap]:
        _table_bytes -= _tables.pop(key)[1]


def store_snapshot(store_dir: str) -> StoreSnapshot | None:
    """The snapshot of ``store_dir``'s current manifest, or ``None`` when
    the store is absent or incomplete.  One ``os.stat`` when cached."""
    try:
        st = os.stat(os.path.join(store_dir, _META))
    except OSError:
        return None
    # taken BEFORE the manifest is read: a manifest swapped in during the
    # read is cached under the older key and reloaded on the next call
    key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    store = os.path.abspath(store_dir)
    with _lock:
        snap = _snapshots.get(store)
        if snap is not None and snap.key == key:
            _snapshots.move_to_end(store)
            return snap
    meta = store_meta(store_dir)
    if meta is None:
        return None
    snap = StoreSnapshot(store, key, meta)
    with _lock:
        _forget(store)
        _snapshots[store] = snap
        while len(_snapshots) > _MAX_STORES:
            _forget(next(iter(_snapshots)))
    return snap


def _current_snapshot(store_dir: str) -> StoreSnapshot:
    snap = store_snapshot(store_dir)
    if snap is None:
        raise FileNotFoundError("KG store at %s is absent or incomplete" % store_dir)
    return snap


def _table(snap: StoreSnapshot, token: str) -> pa.Table | None:
    """``token``'s rows, all columns, in file order (schema metadata
    stripped, as ``read_parquet_clean`` strips it); ``None`` for a
    partition without files.  Decoded once per snapshot while it stays
    within ``SNAPSHOT_TABLE_BYTES``."""
    global _table_bytes
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    with _lock:
        hit = _tables.get((snap, token))
        if hit is not None:
            _tables.move_to_end((snap, token))
            return hit[0]
    paths = snap.paths(token)
    if not paths:
        snap.preds[token] = frozenset()
        return None
    # ParquetFile.read skips read_table's per-call dataset set-up
    table = pa.concat_tables(
        [pq.ParquetFile(p).read() for p in paths], promote_options="permissive"
    ).replace_schema_metadata(None)
    snap.preds[token] = frozenset(pc.unique(table.column("pred")).to_pylist())
    size = table.get_total_buffer_size()
    with _lock:
        live = _snapshots.get(snap.dir) is snap
        if live and size <= SNAPSHOT_TABLE_BYTES and (snap, token) not in _tables:
            _tables[(snap, token)] = (table, size)
            _table_bytes += size
            while _table_bytes > SNAPSHOT_TABLE_BYTES:
                _table_bytes -= _tables.popitem(last=False)[1][1]
    return table


def _select(table: pa.Table, want) -> pa.Table:
    """``want``'s columns that ``table`` has, in ``want``'s order (a
    Parquet read skips a column the file lacks)."""
    if want is None:
        return table
    have = set(table.column_names)
    return table.select([c for c in want if c in have])


def _residual(preds, want):
    """The exact predicate filter behind a pruned read (sanitization
    may collide distinct predicate IRIs into one partition token)."""
    import pyarrow.compute as pc

    pred_arr = pa.array(sorted(set(preds)))

    def residual(batch: pa.Table) -> pa.Table:
        return _select(batch.filter(pc.is_in(batch.column("pred"), pred_arr)), want)

    return residual


def scan_rows(store_dir: str, preds=None, stop_after: int | None = None) -> int:
    """Rows in the files a read of ``preds`` opens, summed from their
    Parquet footers (before the residual filter), stopping once past
    ``stop_after``."""
    snap = _current_snapshot(store_dir)
    return snap.rows(snap.tokens(preds), stop_after)


def read_kg(store_dir: str, preds=None, columns=None):
    """Read the store back as a Dataset; ``preds`` (list of predicate
    IRIs) prunes to only those predicates' partition directories and
    applies the residual exact filter.  ``columns`` prunes at the
    Parquet reader (pred is added transparently when a residual filter
    needs it, then dropped)."""
    import ray.data as rd

    snap = _current_snapshot(store_dir)
    paths = [p for t in snap.tokens(preds) for p in snap.paths(t)]
    if not paths:
        return rd.from_arrow(snap.empty(columns))
    want = list(columns) if columns is not None else None
    need_pred = preds is not None and want is not None and "pred" not in want
    ds = read_parquet_clean(paths, columns=[*want, "pred"] if need_pred else want)
    if preds is None:
        return ds
    return ds.map_batches(_residual(preds, want), batch_format="pyarrow")


def read_kg_table(store_dir: str, preds, columns, max_rows: int) -> pa.Table | None:
    """``read_kg`` in-process: the same pruned partitions, columns and
    residual filter, as one ``pa.Table`` built from the snapshot's
    decoded tables, or ``None`` when the partitions' footers hold more
    than ``max_rows`` rows.  The residual filter runs only on a
    partition that holds a predicate outside ``preds``."""
    snap = _current_snapshot(store_dir)
    tokens = snap.tokens(preds)
    if snap.rows(tokens, max_rows) > max_rows:
        return None
    asked = None if preds is None else set(preds)
    parts = []
    for token in tokens:
        table = _table(snap, token)
        if table is None:
            continue
        if asked is None or snap.preds[token] <= asked:
            parts.append(_select(table, columns))
        else:
            parts.append(_residual(asked, columns)(table))
    if not parts:
        return snap.empty(columns)
    return parts[0] if len(parts) == 1 else pa.concat_tables(parts, promote_options="permissive")
