"""The store-commit protocol every persisted output follows (flagship
and curation-export sinks, KG store, dedup store, Z-order layout, IVF
index, vocab cache).

* ``atomic_write``: content goes to a unique tmp name (pid + uuid) next
  to the target and is renamed into place — a crash leaves an orphan
  ``*.tmp``, never a torn file.
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
scan; a reader caching paths across a publish + vacuum can lose files.
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
    """Delete each entry of ``store_dir/subdir`` whose store-relative
    path is not ``referenced``, keeping ``.``/``_``-prefixed names (lock,
    manifests).  The caller holds ``writer_lock`` and read
    ``referenced`` from the manifest under it.  Returns the removed
    relative paths, sorted."""
    base = os.path.join(store_dir, subdir)
    if not os.path.isdir(base):
        return []
    keep = {os.path.normpath(r) for r in referenced}
    removed = []
    for name in sorted(os.listdir(base)):
        rel = os.path.normpath(os.path.join(subdir, name))
        if rel in keep or name.startswith((".", "_")):
            continue
        full = os.path.join(store_dir, rel)
        if os.path.isdir(full):
            shutil.rmtree(full)
        else:
            os.unlink(full)
        removed.append(rel)
    return removed
