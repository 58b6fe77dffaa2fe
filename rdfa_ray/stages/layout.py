"""Z-order (Morton-curve) data layout — multi-dimensional clustering
for pruned scans, the write-side locality optimization (Delta/Iceberg
``ZORDER BY`` territory): rows sorted by the bit-interleaved key of
several columns land so that EVERY interleaved column has tight
per-file min/max ranges, so a selective filter on ANY of them prunes
most files at the manifest, not the reader.

Reference analogue: none in pyrdfa3 — a beyond-reference data-ops
stage in the ``curation_export`` (materialization/manifest) family.

Scale plan: the key is one vectorized numpy pass (magic-number bit
spreads — no per-row Python); the layout is ONE range-sort exchange
(Ray's distributed sort) followed by per-block writes, each block
appending its own (file, per-column min/max) manifest row; pruning
reads the manifest only.  Keys quantize each column into ``bits``-bit
buckets over a [lo, hi) domain fixed by the caller (or measured in a
cheap pre-pass) — the domain is part of the layout's manifest so
readers prune against the same quantization.
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state import commit


def _spread_bits_16(x: np.ndarray, stride: int) -> np.ndarray:
    """Spread each of the 16 low bits of ``x`` ``stride`` positions
    apart (uint64).  stride=2 is the classic 2-D Morton spread; 3 the
    3-D one.  Magic-number form, fully vectorized."""
    x = x.astype(np.uint64) & np.uint64(0xFFFF)
    if stride == 1:
        return x
    if stride == 2:
        x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF)
        x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F)
        x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
        x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
        return x
    # general stride: per-bit loop over the 16 bit POSITIONS (16
    # vector ops, not a row loop)
    out = np.zeros_like(x)
    for b in range(16):
        out |= ((x >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * stride)
    return out


def zorder_key(
    batch: pa.Table,
    cols: list[str],
    domains: dict[str, tuple[int, int]],
    bits: int = 16,
    out: str = "zkey",
) -> pa.Table:
    """Append the int64 Morton key of ``cols`` (each quantized to
    ``bits``-bit buckets over its ``domains[col] = (lo, hi)`` range;
    out-of-domain values clamp).  bits * len(cols) must fit 63 bits."""
    if bits * len(cols) > 63:
        raise ValueError("zorder_key: %d cols x %d bits exceeds int64" % (len(cols), bits))
    if bits > 16:
        raise ValueError("zorder_key supports at most 16 bits per column")
    n_levels = np.uint64(1 << bits)
    stride = len(cols)
    key = np.zeros(batch.num_rows, dtype=np.uint64)
    for i, c in enumerate(cols):
        lo, hi = domains[c]
        if not hi > lo:
            raise ValueError("empty domain for %s" % c)
        if (hi - lo) > ((1 << 63) - 1) >> bits:
            # (v - lo) * 2^bits must fit int64 — wider domains would
            # overflow and wrap BEFORE the clip, silently mis-bucketing
            raise ValueError(
                "zorder_key: domain width %d for %s exceeds 2^%d; "
                "pre-scale the column or lower bits" % (hi - lo, c, 63 - bits)
            )
        col = batch.column(c)
        if col.null_count:
            # a null cannot be bucketed; silently lumping nulls into
            # the lo bucket would also falsify the manifest min/max
            raise ValueError(
                "zorder_key: column %r contains nulls — fill or drop "
                "them before layout" % c
            )
        v = col.to_numpy(zero_copy_only=False).astype(np.int64)
        # clamp BEFORE the multiply so far-out-of-domain values can't
        # overflow the int64 product and wrap into a wrong bucket
        v = np.clip(v, lo, hi - 1)
        # integer quantization: bucket = (v - lo) * 2^bits // (hi - lo)
        q = (v - lo) * (1 << bits) // (hi - lo)
        q = np.clip(q, 0, int(n_levels) - 1).astype(np.uint64)
        # spread the bucket's OWN bits (bits x stride total key bits —
        # the round-4 code first up-shifted buckets into the top of a
        # 16-bit field, making every key occupy 16 x stride bits: a
        # 4-column layout set bit 63 and produced NEGATIVE keys that
        # sorted top buckets first, silently breaking Morton order)
        key |= _spread_bits_16(q, stride) << np.uint64(i)
    return batch.append_column(out, pa.array(key.astype(np.int64), pa.int64()))


def zorder_layout(
    ds,
    cols: list[str],
    domains: dict[str, tuple[int, int]],
    out_dir: str,
    bits: int = 16,
):
    """Sort ``ds`` by the Morton key of ``cols`` and write one Parquet
    file per block plus ``_manifest/files.json`` carrying per-file
    min/max for every interleaved column (+ the domain pin).  Returns
    the manifest dict.  Holds ``out_dir``'s writer lock throughout."""
    os.makedirs(out_dir, exist_ok=True)
    with commit.writer_lock(out_dir):
        keyed = ds.map_batches(
            lambda b: zorder_key(b, cols, domains, bits=bits), batch_format="pyarrow"
        ).sort("zkey")

        import pyarrow.parquet as pq

        def write_block(batch: pa.Table, ctx=None) -> pa.Table:
            if batch.num_rows == 0:
                return pa.Table.from_pydict({"file": pa.array([], pa.string()),
                                             "stats": pa.array([], pa.string())})
            kmin = int(pa.compute.min(batch.column("zkey")).as_py())
            kmax = int(pa.compute.max(batch.column("zkey")).as_py())
            # unique suffix: after the range sort a run of duplicate keys
            # can span block boundaries, so (kmin, kmax) alone can collide —
            # two blocks would silently overwrite one file and drop manifest
            # stats rows
            name = "part-%020d-%020d-%s.parquet" % (kmin, kmax, uuid.uuid4().hex[:12])
            pa.set_cpu_count(1)
            commit.atomic_write(
                os.path.join(out_dir, name),
                lambda tmp: pq.write_table(batch.drop_columns(["zkey"]), tmp),
            )
            stats = {
                c: [
                    int(pa.compute.min(batch.column(c)).as_py()),
                    int(pa.compute.max(batch.column(c)).as_py()),
                ]
                for c in cols
            }
            return pa.Table.from_pydict(
                {"file": pa.array([name]), "stats": pa.array([json.dumps(stats)])}
            )

        rows = keyed.map_batches(write_block, batch_format="pyarrow").to_pandas()
        files = {}
        for _, r in rows.iterrows():
            if r["file"] in files:  # uuid suffix makes this unreachable; fail loud
                raise RuntimeError("zorder_layout: duplicate output file %s" % r["file"])
            files[r["file"]] = json.loads(r["stats"])
        manifest = {
            "cols": cols,
            "bits": bits,
            "domains": {c: list(domains[c]) for c in cols},
            "files": files,
        }
        commit.publish_manifest(out_dir, "_manifest/files.json", manifest,
                                indent=1, sort_keys=True)
        # uuid-suffixed block names mean a RE-run writes fresh files;
        # readers only follow the manifest, so stale parts from a previous
        # layout are invisible but would grow the directory forever
        commit.vacuum(out_dir, "", files)
        return manifest


def zorder_prune(out_dir: str, ranges: dict[str, tuple[int, int]]) -> list[str]:
    """File paths whose per-column min/max MAY intersect every
    ``ranges[col] = (lo, hi)`` (inclusive) predicate — manifest-only, no
    data reads.  Feed the survivors to ``read_parquet`` with the same
    residual filter."""
    with open(os.path.join(out_dir, "_manifest", "files.json")) as f:
        manifest = json.load(f)
    unknown = set(ranges) - set(manifest["cols"])
    if unknown:
        raise ValueError(
            "zorder_prune: %r not in the layout's interleaved columns %r"
            % (sorted(unknown), manifest["cols"])
        )
    keep = []
    for name, stats in sorted(manifest["files"].items()):
        ok = True
        for c, (lo, hi) in ranges.items():
            mn, mx = stats[c]
            if mx < lo or mn > hi:
                ok = False
                break
        if ok:
            keep.append(os.path.join(out_dir, name))
    return keep
