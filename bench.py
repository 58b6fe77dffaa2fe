"""Benchmark harness.

    python bench.py              # headline run, prints ONE JSON line
    python bench.py --scaling    # same job at 8 and 32 CPUs (fresh
                                 # processes), prints scaling efficiency

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default os.cpu_count()),
     GRAFT_BENCH_TURNS (synthetic flagship turns; default 60000).

Headline metric: wall seconds for the flagship KG pipeline (synthetic
transcripts -> distill -> link -> canonicalize -> partitioned
materialize).  Per-query timings for the other operator families are
reported under "queries".
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def _headline_and_queries(sf_dir: str, num_cpus: int, n_turns: int) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    # Disable per-operator CPU reservations: with 4+ operators on a
    # small local cluster the default 0.5 ratio fragments the CPU
    # budget and caps the fused map stage at ~3 of 8 cores (measured);
    # with 0.0 the streaming executor shares CPUs demand-driven.
    # Below 8 cpus, ratio 0.0 instead serializes the fused map behind
    # the sort's queued objects (observed: 1 in-flight task, map
    # "backpressured:tasks"); a small reservation measures +15% there.
    ctx.op_resource_reservation_ratio = 0.0 if num_cpus >= 8 else 0.25

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ray.data as rd
    from rdfa_ray.pipelines.flagship import run_flagship
    from rdfa_ray.sources.transcripts import transcripts_dataset

    out_dir = "/tmp/graft_bench/flagship_%d" % num_cpus
    shutil.rmtree(out_dir, ignore_errors=True)

    # The pipeline input contract is a Parquet transcripts table
    # (BASELINE.json input_hint); generate it once, untimed, then time
    # read_parquet -> pipeline.  (Also avoids Ray fusing the synthetic
    # generator's tiny shard-spec blocks into the distiller's task
    # bundling, which would serialize the whole stage.)
    tdir = "/tmp/graft_bench/transcripts_%d" % n_turns
    if not os.path.isdir(tdir) or not os.listdir(tdir):
        shutil.rmtree(tdir, ignore_errors=True)
        transcripts_dataset(n_turns, override_num_blocks=256).write_parquet(tdir)

    def read_turns():
        # fixed block count at every parallelism level: the scaling
        # comparison runs the IDENTICAL job; 128 blocks measured best
        # (more blocks -> per-task overhead, fewer -> stragglers)
        return rd.read_parquet(tdir, override_num_blocks=128)

    # warm the page cache / actor pools with a small untimed run
    run_flagship(
        read_turns().limit(2000),
        "/tmp/graft_bench/warm_%d" % num_cpus,
        n_parts=num_cpus,
        resume=False,
    )
    shutil.rmtree("/tmp/graft_bench/warm_%d" % num_cpus, ignore_errors=True)

    t0 = time.time()
    # fixed partition count at every parallelism level: the scaling
    # comparison must run the IDENTICAL job, and a real deployment
    # sizes partitions to the data (>> max cores), not to the cluster
    summary = run_flagship(
        read_turns(),
        out_dir,
        n_parts=256,
        resume=False,
    )
    headline = time.time() - t0
    n_triples = int(summary["triples"].sum())

    timings = {}
    if os.environ.get("GRAFT_SKIP_QUERIES"):
        ray.shutdown()
        return {
            "headline_sec": round(headline, 3),
            "turns": n_turns,
            "turns_per_sec": round(n_turns / headline, 1),
            "triples": n_triples,
            "queries": timings,
        }

    def timed(name, fn):
        t = time.time()
        try:
            res = fn(sf_dir)
            if hasattr(res, "to_pandas"):
                res.to_pandas()
            timings[name] = round(time.time() - t, 3)
        except Exception as e:  # pragma: no cover
            timings[name] = "ERROR: %s" % e

    from rdfa_ray.pipelines import queries as Q

    timed("rdfa_text_triples", Q.q_rdfa_text_triples)
    timed("rdfa_typed_triples", Q.q_rdfa_typed_triples)
    timed("rdfa_canonical_subjects", Q.q_rdfa_canonical_subjects)
    timed("rdfa_turtle_roundtrip", Q.q_rdfa_turtle_roundtrip)
    timed("rdfa_structured", Q.q_rdfa_structured)
    timed("lineitem_agg", Q.q_lineitem_agg)
    timed("orders_by_segment", Q.q_orders_by_segment)
    timed("events_asof", Q.q_events_asof)
    timed("dedup_exact", Q.q_dedup_exact)
    timed("dedup_incremental", Q.q_dedup_incremental)
    timed("dedup_minhash", Q.q_dedup_minhash)
    timed("dedup_simhash", Q.q_dedup_simhash)
    timed("text_metrics", Q.q_text_metrics)
    timed("text_normalize", Q.q_text_normalize)
    timed("ann_bruteforce", Q.q_ann_bruteforce)
    timed("ann_ivf_indexed", Q.q_ann_ivf_indexed)
    timed("kg_bgp_star", Q.q_kg_bgp_star)
    timed("kg_subclass_closure", Q.q_kg_subclass_closure)
    timed("kg_pagerank", Q.q_kg_pagerank)
    timed("kg_graph_diff", Q.q_kg_graph_diff)
    timed("tfidf_top50", Q.q_tfidf_top50)
    timed("pii_scrub", Q.q_pii_scrub)
    timed("kmeans_sizes", Q.q_kmeans_sizes)
    timed("events_pivot", Q.q_events_pivot)
    timed("events_user_deltas", Q.q_events_user_deltas)
    timed("kg_minus", Q.q_kg_minus)
    timed("events_quantiles_sketch", Q.q_events_quantiles_sketch)
    timed("docs_train_split", Q.q_docs_train_split)
    timed("kg_agg_stats", Q.q_kg_agg_stats)
    timed("contamination", Q.q_contamination)
    timed("curation_pipeline", Q.q_curation_pipeline)
    timed("curation_export", Q.q_curation_export)
    timed("kg_sparql_text", Q.q_kg_sparql_text)
    timed("kg_sparql_graph", Q.q_kg_sparql_graph)
    timed("sequence_packing", Q.q_sequence_packing)
    timed("unigram_logppl", Q.q_unigram_logppl)
    timed("mixture_sample", Q.q_mixture_sample)
    timed("dedup_substrings", Q.q_dedup_substrings)
    timed("bpe_token_counts", Q.q_bpe_token_counts)
    timed("lineitem_below_avg", Q.q_lineitem_below_avg)
    timed("curation_v2", Q.q_curation_v2)
    timed("paragraph_dedup", Q.q_paragraph_dedup)
    timed("gopher_rules", Q.q_gopher_rules)
    timed("c4_rules", Q.q_c4_rules)
    timed("ann_sq_topk", Q.q_ann_sq_topk)
    timed("semdedup", Q.q_semdedup)
    timed("dsir_weights", Q.q_dsir_weights)
    timed("quality_classifier", Q.q_quality_classifier)
    timed("pca_covariance", Q.q_pca_covariance)
    timed("kg_link_pred", Q.q_kg_link_pred)
    timed("docs_profile", Q.q_docs_profile)
    timed("lineitem_zorder_keys", Q.q_lineitem_zorder_keys)
    timed("events_winsorized", Q.q_events_winsorized)
    timed("events_props_census", Q.q_events_props_census)
    timed("bigram_logppl", Q.q_bigram_logppl)
    timed("ccnet_buckets", Q.q_ccnet_buckets)
    timed("kg_ppr", Q.q_kg_ppr)

    ray.shutdown()
    return {
        "headline_sec": round(headline, 3),
        "turns": n_turns,
        "turns_per_sec": round(n_turns / headline, 1),
        "triples": n_triples,
        "queries": timings,
    }


def _num_cpus() -> int:
    return int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = _num_cpus()
    # FIXTURES.md: n_turns ~ SF * 6M -> 600k at the sf0.1 bench scale
    default_turns = "600000" if sf_dir.rstrip("/").endswith("0.1") else "60000"
    n_turns = int(os.environ.get("GRAFT_BENCH_TURNS", default_turns))

    if "--scaling" in sys.argv:
        # Identical job at two parallelism levels in fresh processes.
        # The scaling corpus is larger than the headline one so the
        # fixed per-run costs (Ray init, actor-pool spawn, shuffle
        # barriers — ~15 s, identical at both levels) amortize; with a
        # 600k-turn job they are ~half of the 32-cpu wall time and cap
        # measurable efficiency at ~0.55 regardless of the pipeline.
        scaling_turns = int(os.environ.get("GRAFT_SCALING_TURNS", "3000000"))
        # The sandbox host's throughput fluctuates minute-to-minute
        # (co-tenant load outside this VM; measured: the identical
        # single-core kernel microbench drifts 195->325 us/turn across
        # 10 minutes).  Interleave the two levels and keep the best
        # run per level (capability measurement, noise-robust); every
        # individual run is reported alongside.
        repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "2"))
        # levels: "N,4N".  Default 8,32 (the BASELINE.md protocol).
        # 4,16 is the bandwidth-unsaturated pair on this 32-vcpu VM —
        # at 32 the whole node saturates and per-core throughput drops
        # ~25% from memory/hypervisor contention, which a real 4N-node
        # cluster does not exhibit (bandwidth scales with nodes).
        lo, hi = (
            int(x) for x in os.environ.get("GRAFT_SCALING_LEVELS", "8,32").split(",")
        )
        runs: dict[int, list] = {lo: [], hi: []}
        for _ in range(repeats):
            for ncpu in (lo, hi):
                env = dict(
                    os.environ,
                    RAY_GRAFT_CPUS=str(ncpu),
                    GRAFT_SF_DIR=sf_dir,
                    GRAFT_BENCH_TURNS=str(scaling_turns),
                    GRAFT_SKIP_QUERIES="1",
                )
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__)],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                ).stdout
                runs[ncpu].append(json.loads(out.strip().splitlines()[-1]))
        import statistics

        results = {n: max(rs, key=lambda r: r["turns_per_sec"]) for n, rs in runs.items()}
        med = {
            n: statistics.median(r["turns_per_sec"] for r in rs)
            for n, rs in runs.items()
        }
        eff_best = (results[hi]["turns_per_sec"] / results[lo]["turns_per_sec"]) / (hi / lo)
        eff_median = (med[hi] / med[lo]) / (hi / lo)
        print(
            json.dumps(
                {
                    "metric": "flagship scaling %d->%d cpus" % (lo, hi),
                    "sec_%d" % lo: results[lo]["value"],
                    "sec_%d" % hi: results[hi]["value"],
                    "turns_per_sec_%d" % lo: results[lo]["turns_per_sec"],
                    "turns_per_sec_%d" % hi: results[hi]["turns_per_sec"],
                    "triples_%d" % lo: results[lo]["triples"],
                    "triples_%d" % hi: results[hi]["triples"],
                    # headline = MEDIAN-per-level efficiency (robust to a
                    # single slow host window without being a best-case
                    # figure); best-of-N reported alongside as the
                    # noise-free capability estimate.  All raw runs follow.
                    "scaling_efficiency": round(eff_median, 3),
                    "scaling_efficiency_best": round(eff_best, 3),
                    "selection": "median per level (headline); best-of-%d alongside"
                    % repeats,
                    "all_runs_turns_per_sec": {
                        str(n): [r["turns_per_sec"] for r in rs]
                        for n, rs in runs.items()
                    },
                    "repeats": repeats,
                    "sf": sf_dir,
                }
            )
        )
        return

    stats = _headline_and_queries(sf_dir, num_cpus, n_turns)
    print(
        json.dumps(
            {
                "metric": "flagship KG pipeline wall time (distill+link+canonicalize+materialize)",
                "value": stats["headline_sec"],
                "unit": "sec",
                "turns": stats["turns"],
                "turns_per_sec": stats["turns_per_sec"],
                "triples": stats["triples"],
                "queries": stats["queries"],
                "sf": os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"),
                "num_cpus": _num_cpus(),
            }
        )
    )


if __name__ == "__main__":
    main()
