"""The benchmark's own tests: its output checks must catch wrong output.

    python3 -m pytest -q kgbench/test_checks.py

Ray-free; the Ray pipeline is compared with the same checks on every
benchmark run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import kg  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import sysmon  # noqa: E402
from inputs import longlit_turns, mixed_turns  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def flagship_pair(tmp_path_factory):
    """Two layered passes over one seeded input: oracle and 'output'."""
    turns = mixed_turns(7, 300)
    base = tmp_path_factory.mktemp("flagship")
    want = layers.run_layered(turns, str(base / "oracle"), 4)
    got = layers.run_layered(turns, str(base / "got"), 4, timed=True)
    return str(base / "got"), got, want


def test_identical_output_passes(flagship_pair):
    out, got, want = flagship_pair
    assert got.parts == want.parts
    assert layers.check_flagship(out, got.parts, want.parts) == []


def test_corrupted_partition_file_is_caught(flagship_pair, tmp_path):
    out, got, want = flagship_pair
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    part = sorted(got.parts)[0]
    with open("%s/nt/part-%05d.nq" % (copy, part), "a") as f:
        f.write("<urn:x> <urn:y> <urn:z> <urn:g> .\n")
    problems = layers.check_flagship(copy, got.parts, want.parts)
    assert any("does not hash" in p for p in problems)


def test_wrong_or_missing_partition_is_caught(flagship_pair):
    out, got, want = flagship_pair
    part = sorted(got.parts)[0]
    wrong = {**got.parts, part: ("0" * 64, got.parts[part][1])}
    assert any("differ from oracle" in p for p in layers.check_flagship(out, wrong, want.parts))
    missing = {p: v for p, v in got.parts.items() if p != part}
    problems = layers.check_flagship(out, missing, want.parts)
    assert any("missing=[%d]" % part in p for p in problems)
    assert any(p.startswith("triples") for p in problems)


def test_layer_times_and_counts(flagship_pair):
    _out, got, _want = flagship_pair
    sec = got.seconds
    assert sec["parse"] > 0 and sec["distill"] > sec["parse"] and sec["format"] > 0
    assert sec["write"] > sec["format"]
    assert got.counts["turns"] == 300 and got.counts["triples"] > 0


def test_longlit_shape():
    turns = longlit_turns(3, 20)
    texts = turns.column("text").to_pylist()
    assert all(1900 < len(t) < 2300 for t in texts)
    assert all(t.count('property="') == 1 for t in texts)


def _store(tmp_path, rows):
    """A one-partition quad store in the layout kgstore writes."""
    part = tmp_path / "store" / "parts" / "all-g1"
    part.mkdir(parents=True)
    pq.write_table(pa.table({c: [r[i] for r in rows] for i, c in enumerate(kg.QUAD_COLS)}),
                   str(part / "0.parquet"))
    (tmp_path / "store" / "_meta.json").write_text(
        json.dumps({"format": 2, "generation": 1, "partitions": {"all": "parts/all-g1"},
                    "quads": True}))
    return str(tmp_path / "store")


def test_corrupted_query_result_is_caught(tmp_path):
    g = "http://graft.local/conv/c/turn/0"
    store = _store(tmp_path, [
        ("s1", kg.SCHEMA + "name", "Acme", g),
        ("s1", kg.SCHEMA + "description", "d1", g),
        ("s2", kg.SCHEMA + "name", "Acme", g),
        ("E1", kg.OWL_SAME_AS, "s1", g),
    ])
    bench = run.Bench(_spec(), "kg_query", 0, 1.0, False)
    bench.twin = kg.Twin(store)
    name, _sparql, _cols, sql = next(t for t in kg.templates(0) if t[0] == "star0")
    right = [(g, "s1", "Acme", "d1")]
    assert bench.twin.rows(sql) == right
    bench.check_queries([{"name": name, "sql": sql, "rows": right}])
    assert bench.problems == [] and bench.failed == 0
    bench.check_queries([{"name": name, "sql": sql, "rows": [(g, "s1", "Acme", "d2")]}])
    bench.check_queries([{"name": name, "sql": sql, "rows": None}])  # the request raised
    assert bench.failed == 2 and len(bench.problems) == 2 and bench.attempted == 3


def test_stats_parser_reads_the_whole_chain():
    text = (
        "Operator 1 ReadParquet->SplitBlocks(2): 1 tasks executed, 2 blocks produced in 0.02s\n"
        "* Remote wall time: 1.37ms min, 10.92ms max, 6.15ms mean, 12.29ms total\n"
        "* Remote cpu time: 1.66ms min, 10.77ms max, 6.21ms mean, 12.43ms total\n"
        "* Output num rows per block: 4000 min, 4000 max, 4000 mean, 8000 total\n"
        "* Output size bytes per block: 952347 min, 961761 max, 957054 mean, 1914108 total\n"
        "\n"
        "Operator 2 MapBatches(drop_done)->MapBatches(distill_batch_task): 1 tasks executed\n"
        "* Remote wall time: 2.21s min, 2.21s max, 2.21s mean, 2.21s total\n"
        "Operator 3 Sort: executed in 3.36s\n"
        "\n"
        "\tSuboperator 0 SortMap: 1 tasks executed, 1 blocks produced\n"
        "\t* Remote wall time: 6.07ms min, 6.07ms max, 6.07ms mean, 6.07ms total\n"
        "\t* Output num rows per block: 29532 min, 29532 max, 29532 mean, 29532 total\n"
        "\tSuboperator 1 SortReduce: 1 tasks executed, 1 blocks produced\n"
        "\t* Remote wall time: 3.24ms min, 3.24ms max, 3.24ms mean, 3.24ms total\n"
        "\t* Output num rows per block: 29532 min, 29532 max, 29532 mean, 29533 total\n"
        "Operator 4 MapBatches(write_partition): 1 tasks executed, 1 blocks produced in 0.88s\n"
        "* Remote cpu time: 884.28ms min, 884.28ms max, 884.28ms mean, 884.28ms total\n"
    )
    ops = sysmon.parse_op_stats(text)
    assert ops["read"] == pytest.approx(
        {"wall_s": 0.01229, "cpu_s": 0.01243, "rows_out": 8000, "bytes_out": 1914108})
    assert ops["map"]["wall_s"] == pytest.approx(2.21)
    assert ops["shuffle"]["wall_s"] == pytest.approx(0.00931)
    assert ops["shuffle"]["rows_out"] == 29533
    assert ops["write"]["cpu_s"] == pytest.approx(0.88428)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "kgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "kgbench/run.py", "--workload", "flagship_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
