"""The store-commit protocol every persisted output follows (flagship
and curation-export sinks, KG store, dedup store, Z-order layout, IVF
index, vocab cache).

* ``atomic_write``: content goes to a unique tmp name (pid + uuid) next
  to the target and is renamed into place — a crash leaves an orphan
  ``*.tmp``, never a torn file.
* ``write_partitioned``: the one keyed Parquet writer (KG store, dedup
  hash store, IVF index).  A Ray Data sink writes each key's rows in
  input order under a staging directory, returns the files it wrote,
  and each key's directory is moved to ``parts/<key>-g<gen>``.  Nothing
  is globbed: the caller records the returned paths in its manifest.
* ``publish_manifest``: the manifest is written the same way and LAST;
  it is the completeness sentinel.  ``read_manifest`` returns ``None``
  for an absent manifest or one of a foreign format.
* ``writer_lock``: one writer per store directory — a blocking
  ``flock`` on ``<dir>/.lock`` held by the driver across the whole
  read-modify-write of the manifest, re-entrant within a thread.  The
  writer sweeps ``*.tmp`` orphans before releasing it.  Ray worker
  tasks write data files under their driver's lock, never taking it.
* ``vacuum``: immediately deletes what the manifest no longer
  references.

Readers take no lock and resolve the manifest to file paths once per
scan (the KG store once per manifest, keyed on its ``os.stat``); a
reader caching paths across a publish + vacuum can lose files.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import shutil
import threading
import uuid


def atomic_write(path: str, fn) -> None:
    """``fn(tmp)`` writes the content to ``tmp``; one rename makes it
    ``path``.  The tmp file is removed if ``fn`` or the rename fails."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = "%s.%d-%s.tmp" % (path, os.getpid(), uuid.uuid4().hex[:12])
    try:
        fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def move(src: str, dst: str) -> None:
    """Rename a finished file or directory to ``dst``; an existing
    ``dst`` directory (an unreferenced leftover of a crashed writer) is
    replaced."""
    if os.path.isdir(dst):
        shutil.rmtree(dst)
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    os.replace(src, dst)


def _sink_class():
    """The sink behind ``write_partitioned``.  Built on first use, so
    importing this module does not import Ray Data."""
    from ray.data import Datasink

    class PartitionedSink(Datasink):
        """A write task sorts its rows by ``key`` once (stable: each key
        keeps its input order), writes each key's run under
        ``staging/<key>/`` and returns ``{key: [file names]}``; the
        driver's ``on_write_complete`` gathers those in ``files``."""

        def __init__(self, key: str, staging: str, rows_per_file: int):
            self.key, self.staging, self.cap = key, staging, rows_per_file
            self.files: dict = {}

        @property
        def min_rows_per_write(self) -> int:
            return self.cap

        def write(self, blocks, ctx) -> dict:
            import pyarrow as pa
            import pyarrow.compute as pc
            import pyarrow.parquet as pq

            tables = [b for b in blocks if b.num_rows]
            if not tables:
                return {}
            table = pa.concat_tables(tables, promote_options="permissive")
            table = table.take(pc.sort_indices(table, [(self.key, "ascending")]))
            runs = pc.run_end_encode(table.column(self.key).combine_chunks())
            rows = table.drop_columns([self.key])
            written, start = {}, 0
            for value, end in zip(runs.values.to_pylist(), runs.run_ends.to_pylist()):
                out = os.path.join(self.staging, value)
                os.makedirs(out, exist_ok=True)
                names = written[value] = []
                for off in range(start, end, self.cap):
                    names.append("%06d-%06d.parquet" % (ctx.task_idx, len(names)))
                    part = rows.slice(off, min(self.cap, end - off))
                    pq.write_table(part, os.path.join(out, names[-1]), row_group_size=self.cap)
                start = end
            return written

        def on_write_complete(self, write_result) -> None:
            for written in write_result.write_returns:
                for value, names in written.items():
                    self.files.setdefault(value, []).extend(names)

    return PartitionedSink


def write_partitioned(ds, key: str, store_dir: str, gen: int, rows_per_file: int) -> dict:
    """Write ``ds`` as generation ``gen`` of a store partitioned on the
    string column ``key``: each key value's rows, in input order and
    without the key column, become
    ``parts/<value>-g<gen>/<task>-<n>.parquet`` files of at most
    ``rows_per_file`` rows and one row group each (names sort in task
    order).  A write task gathers up to ``rows_per_file`` input rows;
    Ray fuses the maps in front of the sink into the write task, so
    those are the rows going into the maps.  The files land under
    ``_stage_g<gen>``, then each key's directory is moved into place,
    replacing a crashed writer's leftover at that path.  Returns
    ``{value: [relpath, ...]}``, the store-relative paths in read order
    (empty for an empty ``ds``).  The caller holds ``writer_lock`` and
    publishes the manifest."""
    staging = os.path.join(store_dir, "_stage_g%d" % gen)
    shutil.rmtree(staging, ignore_errors=True)  # a crashed writer's leftovers
    sink = _sink_class()(key, staging, rows_per_file)
    ds.write_datasink(sink)
    parts = {}
    for value in sorted(sink.files):
        rel = os.path.join("parts", "%s-g%d" % (value, gen))
        move(os.path.join(staging, value), os.path.join(store_dir, rel))
        parts[value] = [os.path.join(rel, name) for name in sorted(sink.files[value])]
    shutil.rmtree(staging, ignore_errors=True)
    return parts


def read_manifest(store_dir: str, name: str, format: int | None = None) -> dict | None:
    """``store_dir/name``, or ``None`` when absent, unreadable, or (given
    ``format``) of another layout format."""
    try:
        with open(os.path.join(store_dir, name)) as f:
            meta = json.load(f)
    except (OSError, ValueError):
        return None
    return None if format is not None and meta.get("format") != format else meta


def publish_manifest(store_dir: str, name: str, meta: dict, **json_kw) -> None:
    def dump(tmp):
        with open(tmp, "w") as f:
            json.dump(meta, f, **json_kw)

    atomic_write(os.path.join(store_dir, name), dump)


# the stores this thread holds: re-entry must not flock a second
# descriptor, which would wait on the first
_held = threading.local()


@contextlib.contextmanager
def writer_lock(store_dir: str):
    """Hold the single-writer lock of the existing ``store_dir``.  Each
    acquisition opens its own descriptor, so the ``flock`` excludes
    other threads of this process as well as other processes."""
    key = os.path.realpath(store_dir)
    keys = _held.__dict__.setdefault("keys", set())
    if key in keys:
        yield
        return
    fd = os.open(os.path.join(key, ".lock"), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        keys.add(key)
        try:
            yield
        finally:
            keys.discard(key)
            _sweep_tmps(key)
    finally:
        os.close(fd)  # drops the flock


def _sweep_tmps(store_dir: str) -> None:
    for root, _dirs, files in os.walk(store_dir):
        for name in files:
            if name.endswith(".tmp"):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(root, name))


def vacuum(store_dir: str, subdir: str, referenced) -> list:
    """Delete each entry of ``store_dir/subdir`` that holds no
    ``referenced`` store-relative path (a referenced file or directory,
    or a directory with a referenced file inside), keeping
    ``.``/``_``-prefixed names (lock, manifests).  The caller holds
    ``writer_lock`` and read ``referenced`` from the manifest under it.
    Returns the removed relative paths, sorted."""
    base = os.path.join(store_dir, subdir)
    if not os.path.isdir(base):
        return []
    keep = {
        os.path.relpath(os.path.normpath(r), subdir).split(os.sep)[0]
        for r in referenced
    }
    removed = []
    for name in sorted(os.listdir(base)):
        if name in keep or name.startswith((".", "_")):
            continue
        rel = os.path.join(subdir, name)
        full = os.path.join(store_dir, rel)
        if os.path.isdir(full):
            shutil.rmtree(full)
        else:
            os.unlink(full)
        removed.append(rel)
    return removed
