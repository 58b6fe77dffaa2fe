#!/usr/bin/env python3
"""rdfa_ray benchmark: the flagship KG build and the stored-graph query
side, on one core, with checked outputs.

    python3 kgbench/run.py --workload flagship_mixed --seed 1 --seconds 12 --trace 0

Run from the repository root (any cwd works; paths derive from this
file).  The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it records the run's context (CPU counts, source revision,
sample counts).  Exit status is 0 only when every output checked out.
See kgbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import kg
import layers
import sysmon
from inputs import GENERATORS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".kgbench")  # removed when the run ends
# Ray's unix sockets live under its temp dir and a socket path
# holds at most 107 bytes; a deep checkout falls back to Ray's default
RAY_TMP = os.path.join(ROOT, ".kgr")

# one core: per-core costs compare across hosts (ROADMAP direction 1)
NUM_CPUS = 1
TURNS = {"flagship_mixed": 8000, "flagship_longlit": 6000, "kg_query": 8000}
N_PARTS = 32
MIN_REPS = 3  # timed flagship runs; 3 x 32 partition commits >= 40
MIN_QUERIES = 40  # the context's p75 needs >= 10 samples above it
QUERY_CAP_S = 30.0
RSS_CAP = 3 << 30
OBJECT_STORE = 512 << 20

CLOCK = time.perf_counter


def _p75(xs):
    return statistics.quantiles(xs, n=4)[2]


def host_ref_s() -> float:
    """Best of three timings of a fixed pure-Python loop: how fast this
    host runs Python right now, recorded beside the measurements so a
    slow window of a shared host shows up in the run's context."""
    best = float("inf")
    for _ in range(3):
        t = CLOCK()
        x = 0
        for i in range(100_000):
            x += i * i % 7
        best = min(best, CLOCK() - t)
    return best


def nproc() -> int:
    """The CPU count ``nproc`` prints: OMP_NUM_THREADS caps the affinity mask."""
    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(cpus, int(omp)) if omp.isdigit() and int(omp) > 0 else cpus


def source_rev() -> dict:
    """git rev when the tree is a checkout, and a hash of the package
    sources either way (benchmark checkouts are not git repositories)."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "rdfa_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(os.path.relpath(os.path.join(d, f), pkg).encode() + fh.read())
    return {"git_rev": rev, "src_sha256": h.hexdigest()[:16]}


class Bench:
    def __init__(self, spec: dict, workload: str, seed: int, seconds: float, trace: bool):
        self.spec = spec
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.n_turns = TURNS[workload]
        self.in_dir = os.path.join(WORK, "in")
        self.layer: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}
        self.oracle = None
        self.host_ref: list[float] = []
        self.capture = sysmon.RayStatsCapture()

    # -- setup ---------------------------------------------------------

    def start_ray(self):
        import ray
        import ray.data as rd

        ray.init(
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE,
            _temp_dir=RAY_TMP if len(RAY_TMP) <= 40 else None,
        )
        self.ctx = rd.DataContext.get_current()
        self.ctx.enable_progress_bars = False

    def generate(self) -> float:
        import pyarrow.parquet as pq

        t = CLOCK()
        self.table = GENERATORS[self.workload](self.seed, self.n_turns)
        os.makedirs(self.in_dir, exist_ok=True)
        pq.write_table(self.table, os.path.join(self.in_dir, "turns.parquet"))
        return CLOCK() - t

    # -- flagship ------------------------------------------------------

    def flagship(self, tag: str, traced: bool = False) -> dict:
        """One run_flagship over the generated input, untimed checks aside."""
        import ray.data as rd
        from rdfa_ray.pipelines.flagship import run_flagship

        out = os.path.join(WORK, "out-%s" % tag)
        self.ctx.enable_auto_log_stats = traced
        n_logged = len(self.capture.summaries)
        t0, c0 = time.time(), CLOCK()
        summary = run_flagship(rd.read_parquet(self.in_dir), out, n_parts=N_PARTS, resume=False)
        wall = CLOCK() - c0
        self.ctx.enable_auto_log_stats = False
        stats = self.capture.summaries[n_logged:] if traced else []
        return {
            "out": out,
            "wall": wall,
            "parts": layers.ray_parts(summary),
            "commits": [c - t0 for c in layers.commit_times(out)],
            "traced": traced,
            "stats": stats[-1] if stats else None,
        }

    def flagship_reps(self, min_reps: int, until: float) -> list[dict]:
        reps = []
        while len(reps) < min_reps or time.time() < until:
            # traced and untraced runs alternate, untraced first
            reps.append(self.flagship("r%d" % len(reps), self.trace and len(reps) % 2 == 1))
            self.host_ref.append(host_ref_s())
        return reps

    def check_flagship(self, runs: list[dict]):
        """Check flagship outputs against the layered pass over the same
        input, which runs once (timed per layer when tracing)."""
        if self.oracle is None:
            if self.trace:  # warm this process's kernel caches before timing layers
                layers.run_layered(self.table.slice(0, 1000),
                                   os.path.join(WORK, "layers-warm"), N_PARTS)
            self.oracle = layers.run_layered(self.table, os.path.join(WORK, "oracle"),
                                             N_PARTS, timed=self.trace)
        for r in runs:
            self.attempted += 1
            bad = layers.check_flagship(r["out"], r["parts"], self.oracle.parts)
            if bad:
                self.failed += 1
                self.problems += ["%s: %s" % (os.path.basename(r["out"]), b) for b in bad]

    # -- kg ------------------------------------------------------------

    def build_store(self, flagship_out: str) -> float:
        self.store = os.path.join(WORK, "store")
        t = CLOCK()
        kg.build_store(flagship_out, self.store)
        took = CLOCK() - t
        self.twin = kg.Twin(self.store)
        return took

    def query_round(self, rnd: int, region=None, traced: bool = False) -> list[dict]:
        self.ctx.enable_auto_log_stats = traced
        done = []
        tripped = (lambda: region.tripped) if region is not None else (lambda: False)
        for name, sparql, cols, sql in kg.templates(self.seed, rnd):
            n_exec = self.capture.executions
            try:
                rows, secs = kg.run_query(self.store, sparql, cols, QUERY_CAP_S, tripped)
            except kg.CapExceeded as e:
                self.attempted += 1
                self.failed += 1
                raise kg.CapExceeded("query %s %s: counted as failed (%d of %d)"
                                     % (name, e, self.failed, self.attempted)) from None
            done.append({"name": name, "sparql": sparql, "sql": sql, "rows": rows,
                         "secs": secs, "traced": traced,
                         "datasets": self.capture.executions - n_exec})
        self.ctx.enable_auto_log_stats = False
        return done

    def check_queries(self, done: list[dict]):
        for q in done:
            self.attempted += 1
            if q["rows"] is None:
                self.failed += 1
                self.problems.append("query %s raised" % q["name"])
            elif q["rows"] != self.twin.rows(q["sql"]):
                self.failed += 1
                self.problems.append("query %s: %d rows differ from the DuckDB twin (%d rows)"
                                     % (q["name"], len(q["rows"]), len(self.twin.rows(q["sql"]))))

    def query_layers(self, done: list[dict]):
        from rdfa_ray.stages.sparql_text import explain, parse_query

        traced = [q for q in done if q["traced"]] or done
        parse_ms, ratios = [], []
        for q in traced:
            t = CLOCK()
            for _ in range(5):
                parse_query(q["sparql"])
            parse_ms.append((CLOCK() - t) / 5 * 1e3)
            scan = [ln for ln in explain(q["sparql"], self.store).splitlines()
                    if ln.startswith("store scan:")][0].split()
            # "store scan: H of T partitions [...]" or "store scan: ALL T ..."
            ratios.append(1.0 if scan[2] == "ALL" else int(scan[2]) / int(scan[4]))
        self.layer.update({
            "stages.sparql_text.parse_ms": statistics.median(parse_ms),
            "stages.kgstore.partitions_read_ratio": statistics.fmean(ratios),
            "ray.query.datasets_per_query": statistics.fmean(q["datasets"] for q in traced),
            "ray.query.exec_ms": statistics.median([q["secs"] * 1e3 for q in traced]),
        })

    # -- per-layer metrics ---------------------------------------------

    def flagship_layers(self, reps: list[dict]):
        sec, cnt = self.oracle.seconds, self.oracle.counts
        n = cnt["turns"]

        def us(s):
            return s / n * 1e6

        self.layer.update({
            "dom.parse_us_per_turn": us(sec["parse"]),
            "kernel.distill_us_per_turn": us(sec["distill"]),
            "kernel.walk_us_per_turn": us(sec["distill"] - sec["parse"]),
            "stages.distill.row_build_us_per_turn": us(sec["stage"] - sec["distill"]),
            "stages.distill.triples_per_turn": cnt["triples"] / n,
            "stages.distill.diags_per_turn": cnt["diags"] / n,
            "stages.link.us_per_turn": us(sec["link"]),
            "stages.link.links_per_literal": cnt["links"] / max(cnt["literals"], 1),
            "pipelines.flagship.write_us_per_turn": us(sec["write"] - sec["format"]),
            "pipelines.flagship.write_skew": layers.write_skew(reps[-1]["out"]),
            "rdf.ntriples.format_us_per_turn": us(sec["format"]),
        })
        ops = [sysmon.parse_op_stats(r["stats"]) for r in reps if r["stats"]]
        for op in ("read", "map", "shuffle", "write"):
            for field in ("wall_s", "cpu_s", "rows_out", "bytes_out"):
                self.layer["ray.%s.%s" % (op, field)] = statistics.median(
                    [o[op][field] for o in ops if field in o.get(op, {})])
        untraced = [r["wall"] for r in reps if not r["traced"]]
        layer_s = sum(layers.self_times(sec).values()) * self.n_turns / n
        self.layer["ray.overhead_s"] = statistics.median(untraced) - layer_s
        self.layer["trace.coverage"] = layer_s / statistics.median(untraced)

    # -- the run -------------------------------------------------------

    def run(self) -> dict:
        setup = {}
        t = CLOCK()
        self.start_ray()
        setup["ray_init_s"] = CLOCK() - t
        if self.trace:
            self.capture.install()
        # generation is cheap and deterministic: repeat it for a steadier figure
        setup["input_gen_s"] = statistics.median([self.generate() for _ in range(3)])
        t = CLOCK()
        # the first run is cold: worker start, imports, URI memo
        warm = [self.flagship("w0")]
        setup["warmup_s"] = CLOCK() - t
        setup["store_build_s"] = 0.0
        is_kg = self.workload == "kg_query"
        if is_kg:
            setup["store_build_s"] = self.build_store(warm[-1]["out"])
            t = CLOCK()
            self.check_queries(self.query_round(-1))
            setup["warmup_s"] += CLOCK() - t
        setup_s = sum(setup.values())

        with sysmon.Region(rss_cap=RSS_CAP) as region:
            t0 = time.time()
            until = t0 + self.seconds
            if is_kg:
                done, rnd = [], 0
                while len(done) < MIN_QUERIES or time.time() < until:
                    done += self.query_round(rnd, region, self.trace and rnd % 2 == 1)
                    self.host_ref.append(host_ref_s())
                    rnd += 1
            else:
                reps = self.flagship_reps(MIN_REPS + (1 if self.trace else 0), until)
            region_s = time.time() - t0

        if is_kg:
            timed = [q for q in done if not q["traced"]]
            lat_ms = [q["secs"] * 1e3 for q in timed]
            ops = len(done)
            ops_per_s = len(timed) / sum(q["secs"] for q in timed)
            out_bytes = kg.store_bytes(self.store)
            self.check_queries(done)
            self.check_flagship(warm)
            by_name: dict[str, list[float]] = {}
            for q in timed:
                by_name.setdefault(q["name"], []).append(q["secs"] * 1e3)
            self.samples = {"queries": len(timed), "traced_queries": len(done) - len(timed),
                            "template_p50_ms": {k: round(statistics.median(v), 1)
                                                for k, v in sorted(by_name.items())}}
        else:
            timed = [r for r in reps if not r["traced"]]
            lat_ms = [c * 1e3 for r in timed for c in r["commits"]]
            ops = self.n_turns * len(reps)
            ops_per_s = statistics.median([self.n_turns / r["wall"] for r in timed])
            out_bytes = statistics.median([layers.output_bytes(r["out"]) for r in timed])
            self.check_flagship(warm + reps)
            self.samples = {"flagship_runs": len(timed), "partition_commits": len(lat_ms),
                            "traced_runs": len(reps) - len(timed),
                            "run_walls_s": [round(r["wall"], 3) for r in reps]}

        if self.trace:
            self.layer.update({"setup.%s" % k: v for k, v in setup.items()})
            if is_kg:
                extra = [self.flagship("t0"), self.flagship("t1", traced=True)]
                self.check_flagship(extra)
                self.flagship_layers(extra)
                self.query_layers(done)
                traced_q = [q for q in done if q["traced"]]
                traced_ops_per_s = len(traced_q) / sum(q["secs"] for q in traced_q)
            else:
                self.flagship_layers(reps)
                traced_ops_per_s = statistics.median(
                    [self.n_turns / r["wall"] for r in reps if r["traced"]])
                self.layer["setup.store_build_s"] = self.build_store(reps[-1]["out"])
                rnd = self.query_round(0, traced=True)
                self.check_queries(rnd)
                self.query_layers(rnd)
            self.layer["trace.overhead_ops_per_s"] = traced_ops_per_s - ops_per_s
            values = self.layer
        else:
            values = {
                "setup_s": setup_s,
                "ops_per_s": ops_per_s,
                "cpu_us_per_op": region.cpu_s / ops * 1e6,
                "latency_p50_ms": statistics.median(lat_ms),
                "peak_rss_mb": region.peak_rss / 2**20,
                "out_bytes": out_bytes,
                "ok_ratio": 1.0 - self.failed / max(self.attempted, 1),
            }
        # the tail is context, not a gated metric: see README "End-to-end metrics"
        self.samples["latency_p75_ms"] = round(_p75(lat_ms), 1)
        self.samples["region_s"] = round(region_s, 3)
        self.samples["host_ref_ms"] = [round(h * 1e3, 2) for h in self.host_ref]
        # names and units come from BENCHMARK.json: a declared metric the
        # run did not measure is a KeyError, not a silently missing value
        declared = self.spec["per_layer" if self.trace else "end_to_end"]
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }


def stop_children(timeout: float = 20.0, hard: bool = False):
    """Shut Ray down and wait until every process this run started has
    exited (SIGKILL after ``timeout``).  ``hard`` SIGKILLs the whole
    process tree at once instead: Ray cannot shut down cleanly under a
    request that is still running."""
    if hard:
        deadline = 0.0
    else:
        import ray

        ray.shutdown()
        deadline = time.time() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        live = sysmon.descendants(os.getpid())
        if not live:
            return
        if time.time() > deadline:
            for p in live:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.time() + timeout
        time.sleep(0.1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TURNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "rdfa_ray", "__init__.py")):
        print("kgbench: no rdfa_ray package at %s" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path[:0] = [ROOT, HERE]
    # Ray workers inherit this process's environment, not its sys.path:
    # without this, a run started outside the repository root fails
    # every task with ModuleNotFoundError: rdfa_ray
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    # a fixed string-hash seed gives every worker the same dict and set
    # layouts, so runs differ by their input, not by a per-process draw
    os.environ["PYTHONHASHSEED"] = "0"

    shutil.rmtree(WORK, ignore_errors=True)
    shutil.rmtree(RAY_TMP, ignore_errors=True)
    os.makedirs(WORK)
    # Ray's exit handler can recreate its temp dir after the cleanup
    # below; registered before Ray is imported, this one runs after it
    atexit.register(shutil.rmtree, RAY_TMP, True)
    bench = Bench(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    hard = False
    try:
        result = bench.run()
    except kg.CapExceeded as e:
        hard = True
        print("kgbench: run aborted: %s" % e, file=sys.stderr)
        return 3
    finally:
        stop_children(hard=hard)
        shutil.rmtree(WORK, ignore_errors=True)
        shutil.rmtree(RAY_TMP, ignore_errors=True)
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "num_cpus": NUM_CPUS, "nproc": nproc(), **source_rev(),
               "samples": bench.samples}
    for p in bench.problems:
        print("kgbench: WRONG OUTPUT: %s" % p, file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
