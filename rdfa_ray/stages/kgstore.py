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

File layout: every writer (build, update, graph transforms) goes
through ``_write_generation``, whose write tasks each gather blocks up
to ``ROWS_PER_FILE`` rows and write each partition they hold as one
Parquet file with one row group, in input order.  A generation of at
most ``ROWS_PER_FILE`` rows is one write task, so each partition it
writes is one file — a pruned read opens one file per predicate.  The
coalescing is per write task: a larger generation gives each partition
about one file per ``ROWS_PER_FILE``-row slice of the whole generation
(a per-partition ``keyed_exchange`` before the write would fold those,
if the Ray path ever needs it).  Rows are not sorted: a partition
reads back in input order, which is the order a LIMIT without ORDER BY
sees.  Stores written with one file per Ray block (several files of
many row groups per partition) read and update unchanged; their
untouched partitions keep their files.

The ``_meta.json`` manifest doubles as the completeness sentinel: it
is the LAST artifact published on both build and update — a store
without it is invisible and gets rebuilt; stale generation directories
are unreferenced, not corrupting.  The compacted files are written
under a staging directory and moved into place before that manifest.
Every writer (build, update, clear, graph transforms, vacuum) runs
under the store's single-writer lock; the commit protocol lives in
``state/commit.py``.

At cluster scale the store build is the only full-data pass; a BGP
whose patterns bind 2 of 40 predicates opens 2/40ths of the files, and
a vocabulary-migration update touching one predicate rewrites 1/40th.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
from ..sources.io import read_parquet as read_parquet_clean
from ..state import commit

_META = "_meta.json"
_PRED_TOKEN_RE = re.compile(r"[^A-Za-z0-9]+")
_COLS = ("subj", "pred", "obj_value")
_QCOLS = ("subj", "pred", "obj_value", "graph")


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
    meta = _current_meta(store_dir)
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


def _partition_sink(staging: str):
    """A Ray Data sink whose write tasks each get blocks up to
    ``ROWS_PER_FILE`` rows and write them as
    ``staging/<token>/<task>-<n>.parquet``: each partition's rows in
    input order, at most ``ROWS_PER_FILE`` rows per file, each file one
    row group.  File names sort in task order, so a partition reads
    back in the order its rows were written."""
    from ray.data import Datasink

    cap = ROWS_PER_FILE

    class PartitionSink(Datasink):
        min_rows_per_write = cap

        def write(self, blocks, ctx):
            import pyarrow.compute as pc
            import pyarrow.parquet as pq

            tables = [b for b in blocks if b.num_rows]
            if not tables:
                return
            table = pa.concat_tables(tables, promote_options="permissive")
            keys = table.column("pred_key")
            rows = table.drop_columns(["pred_key"])
            for token in pc.unique(keys).to_pylist():
                part = rows.filter(pc.equal(keys, token))
                out = os.path.join(staging, token)
                os.makedirs(out, exist_ok=True)
                for n, off in enumerate(range(0, part.num_rows, cap)):
                    path = os.path.join(out, "%06d-%06d.parquet" % (ctx.task_idx, n))
                    pq.write_table(part.slice(off, cap), path, row_group_size=cap)

    return PartitionSink()


def _write_generation(keyed_ds, store_dir: str, gen: int) -> dict:
    """Write one generation under a staging dir (``_partition_sink``),
    then move each partition to its generation directory.  Returns
    {token: relpath}."""
    import shutil

    staging = os.path.join(store_dir, "_stage_g%d" % gen)
    if os.path.isdir(staging):
        shutil.rmtree(staging)
    keyed_ds.write_datasink(_partition_sink(staging))
    if not os.path.isdir(staging):  # empty dataset writes nothing
        return {}

    parts = {}
    for token in sorted(os.listdir(staging)):
        rel = os.path.join("parts", "%s-g%d" % (token, gen))
        commit.move(os.path.join(staging, token), os.path.join(store_dir, rel))
        parts[token] = rel
    shutil.rmtree(staging)
    return parts


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
    each partition is written compacted (``_write_generation``): one
    file with one row group per ``ROWS_PER_FILE`` rows of the build, in
    input order, with no extra pass and no shuffle."""
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

        parts = _write_generation(
            triples_ds.map_batches(_add_key, batch_format="pyarrow"), store_dir, gen
        )
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

        if quads is None:
            quads = store_has_graph(store_dir)
        elif meta["partitions"] and bool(quads) != store_has_graph(store_dir):
            # a forced form that contradicts a NON-EMPTY store must refuse
            # even when every delta predicate is new — otherwise the delta
            # writes partitions of the other shape next to the existing
            # ones and flips the recorded form (silent schema widening)
            raise ValueError(
                "update_kg(quads=%r) against a non-empty %s store — the row"
                " shapes are incompatible; rebuild via persist_kg"
                % (quads, "quad" if store_has_graph(store_dir) else "triple")
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

        new_parts = _write_generation(
            updated.map_batches(_add_key, batch_format="pyarrow"), store_dir, gen
        )
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
        if not store_has_graph(store_dir):
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
        new_parts = _write_generation(
            updated.map_batches(_add_key, batch_format="pyarrow"), store_dir, gen
        )
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


def _pruned_read(store_dir: str, preds, columns):
    """What a read of ``preds`` opens: ``(paths, read_cols, want,
    empty)`` — the Parquet files, the columns to read (pred added
    ONLY when the residual exact filter needs it; a plain projection
    must not scan pred for nothing), the columns to return, and the
    typed empty table for a read that opens no file."""
    meta = _current_meta(store_dir)
    partitions = meta["partitions"]
    want = list(columns) if columns is not None else None
    need_pred = preds is not None and want is not None and "pred" not in want
    read_cols = [*want, "pred"] if need_pred else want
    tokens = (
        sorted(partitions)
        if preds is None
        else sorted({pred_key(p) for p in preds} & set(partitions))
    )
    layout = list(_QCOLS) if meta.get("quads") else list(_COLS)
    empty = pa.Table.from_pydict({c: pa.array([], pa.string()) for c in (want or layout)})
    return _partition_files(store_dir, partitions, tokens), read_cols, want, empty


def _residual(preds, want):
    """The exact predicate filter behind a pruned read (sanitization
    may collide distinct predicate IRIs into one partition token)."""
    import pyarrow.compute as pc

    pred_arr = pa.array(sorted(set(preds)))

    def residual(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.is_in(batch.column("pred"), pred_arr))
        if want is not None and "pred" not in want:
            out = out.select(want)
        return out

    return residual


def _open_pruned(store_dir: str, preds, columns, stop_after: int | None):
    """``_pruned_read`` with each file opened once: ``(files, rows,
    read_cols, want, empty)``, ``rows`` summing the opened files'
    footers.  Stops opening once ``rows`` passes ``stop_after``, so
    sizing a large store's read opens only a few footers."""
    import pyarrow.parquet as pq

    paths, read_cols, want, empty = _pruned_read(store_dir, preds, columns)
    files, rows = [], 0
    for path in paths:
        # ParquetFile.read skips read_table's per-call dataset set-up
        files.append(pq.ParquetFile(path))
        rows += files[-1].metadata.num_rows
        if stop_after is not None and rows > stop_after:
            break
    return files, rows, read_cols, want, empty


def scan_rows(store_dir: str, preds=None, stop_after: int | None = None) -> int:
    """Rows in the files a read of ``preds`` opens, summed from their
    Parquet footers (before the residual filter), stopping once past
    ``stop_after``.  Footers are always current; the manifest records
    no counts that ``update_kg`` or ``transform_graphs`` would have to
    keep up."""
    return _open_pruned(store_dir, preds, None, stop_after)[1]


def scan_layout(store_dir: str, preds=None) -> tuple[int, int]:
    """``(files, row groups)`` a read of ``preds`` opens, from every
    pruned file's Parquet footer."""
    files = _open_pruned(store_dir, preds, None, None)[0]
    return len(files), sum(f.metadata.num_row_groups for f in files)


def read_kg(store_dir: str, preds=None, columns=None):
    """Read the store back as a Dataset; ``preds`` (list of predicate
    IRIs) prunes to only those predicates' partition directories and
    applies the residual exact filter.  ``columns`` prunes at the
    Parquet reader (pred is added transparently when a residual filter
    needs it, then dropped)."""
    import ray.data as rd

    paths, read_cols, want, empty = _pruned_read(store_dir, preds, columns)
    if not paths:
        return rd.from_arrow(empty)
    ds = read_parquet_clean(paths, columns=read_cols)
    if preds is None:
        return ds
    return ds.map_batches(_residual(preds, want), batch_format="pyarrow")


def read_kg_table(store_dir: str, preds, columns, max_rows: int) -> pa.Table | None:
    """``read_kg`` in-process: the same pruned files, columns and
    residual filter, read into one ``pa.Table`` in this process (schema
    metadata stripped, as ``read_parquet_clean`` strips it), or ``None``
    when the files' footers hold more than ``max_rows`` rows."""
    files, rows, read_cols, want, empty = _open_pruned(
        store_dir, preds, columns, max_rows
    )
    if rows > max_rows:
        return None
    if not files:
        return empty
    table = pa.concat_tables(
        [f.read(columns=read_cols) for f in files],
        promote_options="permissive",
    ).replace_schema_metadata(None)
    return table if preds is None else _residual(preds, want)(table)
