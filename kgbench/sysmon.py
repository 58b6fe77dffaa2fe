"""Process accounting from /proc and Ray Data per-operator stats.

Both are read from the benchmark's side: nothing here reaches into
``rdfa_ray``.  psutil is not assumed; everything comes from /proc.
"""

from __future__ import annotations

import logging
import os
import re
import threading

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open("/proc/%d/stat" % pid, "rb") as f:
            raw = f.read().decode(errors="replace")
    except OSError:
        return None
    # comm (field 2) may hold spaces and parens: split after the last ')'
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """Every live process below ``root`` (Ray's raylet, GCS and workers
    are all started beneath the process that called ``ray.init``)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> bytes:
    try:
        with open("/proc/%d/cmdline" % pid, "rb") as f:
            return f.read()
    except OSError:
        return b""


def main_and_workers() -> list[int]:
    """This process plus its Ray worker processes (titled ``ray::...``)."""
    me = os.getpid()
    return [me] + [p for p in descendants(me) if _cmdline(p).startswith(b"ray::")]


def cpu_ticks(pids) -> dict[int, int]:
    out = {}
    for p in pids:
        f = _stat_fields(p)
        if f is not None:
            out[p] = int(f[11]) + int(f[12])  # utime + stime
    return out


_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes(pid: int) -> int:
    try:
        with open("/proc/%d/statm" % pid, "rb") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


class Region:
    """CPU seconds and peak summed RSS of this process plus Ray workers
    over a timed region.  A sampling thread polls RSS every
    ``interval`` seconds and sets ``tripped`` once the sum passes
    ``rss_cap`` bytes; the caller clears it after acting on it.

    Listing the workers walks all of /proc, so the sampler does it only
    every ``rescan`` polls: the thread shares the GIL with the requests
    it measures, and a full walk per poll takes GIL time from them."""

    def __init__(self, interval: float = 0.1, rss_cap: int | None = None, rescan: int = 10):
        self.rescan = rescan
        self.interval = interval
        self.rss_cap = rss_cap
        self.peak_rss = 0
        self.tripped = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._cpu0: dict[int, int] = {}
        self.cpu_s = 0.0

    def __enter__(self):
        self._cpu0 = cpu_ticks(main_and_workers())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        end = cpu_ticks(main_and_workers())
        self.cpu_s = sum(t - self._cpu0.get(p, 0) for p, t in end.items()) / _TICK
        return False

    def _run(self):
        polls = 0
        while not self._stop.is_set():
            if polls % self.rescan == 0:
                pids = main_and_workers()
            polls += 1
            total = sum(rss_bytes(p) for p in pids)
            self.peak_rss = max(self.peak_rss, total)
            if self.rss_cap is not None and total > self.rss_cap:
                self.tripped = True
            self._stop.wait(self.interval)


# ---------------------------------------------------------------------------
# Ray Data per-operator stats, captured from the auto-logged summary.

_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP_RE = re.compile(r"^Operator \d+ (.+?): ")
_SUB_RE = re.compile(r"^\s+Suboperator \d+ (.+?): ")
_TOTAL_RE = re.compile(r"([\d.]+)(us|ms|s)? total")
_FIELDS = {
    "* Remote wall time": "wall_s",
    "* Remote cpu time": "cpu_s",
    "* Output num rows per block": "rows_out",
    "* Output size bytes per block": "bytes_out",
}


def short_op(name: str) -> str | None:
    """Ray operator name -> the benchmark's layer name."""
    if name.startswith("ReadParquet"):
        return "read"
    if "distill" in name:
        return "map"
    if name == "Sort":  # the flagship's groupby exchange
        return "shuffle"
    if "write_partition" in name:
        return "write"
    return None


def parse_op_stats(text: str) -> dict[str, dict[str, float]]:
    """One Dataset stats summary -> {layer: {wall_s, cpu_s, rows_out,
    bytes_out}}.  An all-to-all operator's sub-operators sum their
    wall/cpu; its rows/bytes out are its last sub-operator's."""
    out: dict[str, dict[str, float]] = {}
    cur: dict[str, float] | None = None
    sub = False
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            key = short_op(m.group(1))
            cur = out.setdefault(key, {}) if key else None
            sub = False
            continue
        if cur is None:
            continue
        if _SUB_RE.match(line):
            sub = True
            continue
        stripped = line.strip()
        for prefix, field in _FIELDS.items():
            if stripped.startswith(prefix):
                t = _TOTAL_RE.search(stripped)
                if not t:
                    break
                val = float(t.group(1)) * _UNIT.get(t.group(2) or "", 1.0)
                if sub and field in ("wall_s", "cpu_s"):
                    cur[field] = cur.get(field, 0.0) + val
                else:
                    cur[field] = val
                break
    return out


class RayStatsCapture(logging.Handler):
    """Collects the stats summary Ray Data logs after each Dataset
    execution (``DataContext.enable_auto_log_stats``), and counts
    Dataset executions.  Ray 2.49 logs only the final operator of a
    Dataset; ``install`` makes the logged summary include its parent
    operators so the whole chain is captured."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.summaries: list[str] = []
        self.executions = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("Operator "):
            self.summaries.append(msg)
        elif msg.startswith("Starting execution of Dataset"):
            self.executions += 1

    def install(self):
        from ray.data._internal import stats as _stats

        orig = _stats.DatasetStatsSummary.to_string
        if not getattr(orig, "_kgbench_full", False):

            def to_string(self, already_printed=None, include_parent=True,
                          add_global_stats=True):
                return orig(self, already_printed, True, add_global_stats)

            to_string._kgbench_full = True
            _stats.DatasetStatsSummary.to_string = to_string
        logging.getLogger("ray.data").addHandler(self)
        return self

    def remove(self):
        logging.getLogger("ray.data").removeHandler(self)
