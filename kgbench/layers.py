"""The flagship pipeline run layer by layer in the main process, without Ray.

It calls the same public functions the Ray pipeline runs
(``kernel.distill`` through ``RdfaDistiller``, ``AugmentingLinker``,
``crc32_bucket``, ``PartitionWriter``), so its per-partition
``sha256_nq`` set is the oracle for every Ray run over the same input
and ``n_parts``.  With ``timed=True`` it also times each layer; the
DOM parse and the bare kernel call are timed as separate calls on the
same batch, so that walk = distill - parse and row build = stage -
distill are self times.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

LINK_BATCH = 4096  # the flagship's link stage batch size


@dataclass
class Layered:
    parts: dict[int, tuple[str, int]]  # part -> (sha256_nq, triples)
    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def _marked(text: str, markers) -> bool:
    # kernel.distill's whole-document fast path: no marker, no parse
    return any(m in text for m in markers) or any(m in text.lower() for m in markers)


def _time_kernel(distill, rows, opts, graph_iri) -> float:
    t = time.perf_counter()
    for c, i, x in rows:
        distill(x, base=graph_iri(c, i), options=opts)
    return time.perf_counter() - t


def run_layered(turns: pa.Table, out_dir: str, n_parts: int,
                timed: bool = False) -> Layered:
    from rdfa_ray.dom.sniff import parse_document
    from rdfa_ray.functions.hashing import crc32_bucket
    from rdfa_ray.kernel import KernelOptions, distill
    from rdfa_ray.kernel.walk import FASTPATH_MARKERS
    from rdfa_ray.pipelines.flagship import PartitionWriter
    from rdfa_ray.rdf.ntriples import nquads_lines_arrow
    from rdfa_ray.sources.aliases import build_alias_table
    from rdfa_ray.stages.distill import DISTILL_BATCH_SIZE, RdfaDistiller, graph_iri
    from rdfa_ray.stages.link import AugmentingLinker

    sec = dict.fromkeys(
        ("filter", "parse", "distill", "stage", "link", "part", "group", "write", "format"),
        0.0,
    )
    clock = time.perf_counter

    t = clock()
    text = turns.column("text")
    turns = turns.filter(pc.and_(text.is_valid(), pc.not_equal(text, "")))
    sec["filter"] += clock() - t

    distiller = RdfaDistiller()
    opts = KernelOptions()
    distilled = []
    for off in range(0, turns.num_rows, DISTILL_BATCH_SIZE):
        batch = turns.slice(off, DISTILL_BATCH_SIZE)
        if timed:
            rows = list(zip(batch.column("conv_id").to_pylist(),
                            batch.column("turn_idx").to_pylist(),
                            batch.column("text").to_pylist()))
            marked = [x for _c, _t, x in rows if _marked(x, FASTPATH_MARKERS)]
            t = clock()
            for x in marked:
                try:
                    parse_document(x)
                except Exception:  # noqa: BLE001 - distill records these as diagnostics
                    pass
            sec["parse"] += clock() - t
        # the second call over a batch hits the kernel's URI memo, so the
        # bare kernel and the stage take turns going first
        kernel_first = timed and (off // DISTILL_BATCH_SIZE) % 2 == 0
        if kernel_first:
            sec["distill"] += _time_kernel(distill, rows, opts, graph_iri)
        t = clock()
        distilled.append(distiller(batch))
        sec["stage"] += clock() - t
        if timed and not kernel_first:
            sec["distill"] += _time_kernel(distill, rows, opts, graph_iri)
    raw = pa.concat_tables(distilled)

    linker = AugmentingLinker(alias_table=build_alias_table())
    t = clock()
    augmented = pa.concat_tables(
        [linker(raw.slice(off, LINK_BATCH)) for off in range(0, raw.num_rows, LINK_BATCH)]
        or [linker(raw)]
    )
    sec["link"] += clock() - t

    t = clock()
    part_col = crc32_bucket(augmented.column("conv_id"), n_parts)
    augmented = augmented.append_column("part", part_col)
    sec["part"] += clock() - t

    writer = PartitionWriter(out_dir, canonicalize_links=True)
    parts = {}
    for p in sorted(set(part_col.to_pylist())):
        t = clock()
        group = augmented.filter(pc.equal(part_col, p)).to_pandas()
        sec["group"] += clock() - t
        t = clock()
        row = writer(group).to_pylist()[0]
        sec["write"] += clock() - t
        parts[row["part"]] = (row["sha256_nq"], row["triples"])
        if timed:
            data = pq.read_table("%s/parquet/part-%05d.parquet" % (out_dir, p))
            data = data.filter(pc.equal(data.column("kind"), "triple"))
            t = clock()
            nquads_lines_arrow(data)
            sec["format"] += clock() - t

    is_triple = pc.equal(raw.column("kind"), "triple")
    counts = {
        "turns": turns.num_rows,
        "triples": int(pc.sum(is_triple).as_py() or 0),
        "diags": raw.num_rows - int(pc.sum(is_triple).as_py() or 0),
        "literals": int(pc.sum(pc.and_(is_triple, pc.equal(raw.column("obj_kind"), "literal"))).as_py() or 0),
        "links": augmented.num_rows - raw.num_rows,
    }
    return Layered(parts=parts, seconds=sec, counts=counts)


def self_times(sec: dict[str, float]) -> dict[str, float]:
    """Nested timings -> per-layer self time (seconds)."""
    return {
        "filter": sec["filter"],
        "dom.parse": sec["parse"],
        "kernel.walk": sec["distill"] - sec["parse"],
        "stages.distill.row_build": sec["stage"] - sec["distill"],
        "stages.link": sec["link"],
        "part_tag": sec["part"],
        "group": sec["group"],
        "rdf.ntriples.format": sec["format"],
        "pipelines.flagship.write": sec["write"] - sec["format"],
    }


# ---------------------------------------------------------------------------
# Output checks


def ray_parts(summary) -> dict[int, tuple[str, int]]:
    """run_flagship's returned summary -> part -> (sha256_nq, triples)."""
    return {
        int(p): (s, int(n))
        for p, s, n in zip(summary["part"], summary["sha256_nq"], summary["triples"])
    }


def check_flagship(out_dir: str, got: dict, want: dict) -> list[str]:
    """Problems with one flagship output, empty when correct: the
    returned per-partition shas and triple counts must equal the
    oracle's, and every N-Quads file on disk must hash to its sha."""
    problems = []
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        differ = sorted(p for p in set(got) & set(want) if got[p] != want[p])
        problems.append("partitions differ from oracle: missing=%s extra=%s differ=%s"
                        % (missing, extra, differ))
    total_got = sum(n for _s, n in got.values())
    total_want = sum(n for _s, n in want.values())
    if total_got != total_want:
        problems.append("triples %d != oracle %d" % (total_got, total_want))
    for p, (sha, _n) in got.items():
        path = "%s/nt/part-%05d.nq" % (out_dir, p)
        try:
            with open(path, "rb") as f:
                disk = hashlib.sha256(f.read()).hexdigest()
        except OSError as e:
            problems.append("part %d: %s" % (p, e))
            continue
        if disk != sha:
            problems.append("part %d: N-Quads file does not hash to its manifest sha" % p)
    return problems


def output_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(f)
        for pattern in ("parquet/*.parquet", "nt/*.nq")
        for f in glob.glob(os.path.join(out_dir, pattern))
    )


def commit_times(out_dir: str) -> list[float]:
    """Wall-clock times at which each partition's manifest was committed."""
    return [os.stat(f).st_mtime for f in glob.glob(os.path.join(out_dir, "_manifest", "part-*.json"))]


def write_skew(out_dir: str) -> float:
    """max / mean rows per partition, from the partition manifests."""
    rows = []
    for f in glob.glob(os.path.join(out_dir, "_manifest", "part-*.json")):
        with open(f) as fh:
            rows.append(json.load(fh)["rows"])
    return max(rows) / (sum(rows) / len(rows)) if rows else 1.0
