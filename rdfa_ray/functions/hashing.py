"""Vectorized hash/bucket kernels for shuffle-key derivation.

Every all-to-all in the engine (flagship partitioning, canonicalize
buckets, the bucketed hash join, distincts) keys on
``crc32(key) % B``; every exchange but the flagship's partition
write takes it through :mod:`rdfa_ray.functions.exchange`
(``keyed_exchange`` / ``co_group``), never by appending a bucket
column itself.  Computing it with a per-row Python list-comp sat
directly upstream of the only shuffle (round-1 finding); these
kernels compute crc32 only over the batch's *unique* values
(``dictionary_encode``) and broadcast via a numpy ``take`` — identical
assignment (crc32 is unchanged), a fraction of the Python-level work
(conv_id repeats ~20x per batch, graph IRIs ~3-5x).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _as_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def crc32_bucket(col, n_buckets: int) -> pa.Array:
    """``crc32(str(x)) % n_buckets`` per row, int32.

    Bit-identical to ``[zlib.crc32(str(x).encode()) % B for x in col]``
    (the round-1 per-row implementation) — manifest shas and partition
    assignment are unchanged.
    """
    arr = _as_array(col)
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        arr = pc.cast(arr, pa.string())
    arr = pc.fill_null(arr, "")
    enc = pc.dictionary_encode(arr)
    uniques = enc.dictionary.to_pylist()
    lut = np.fromiter(
        (zlib.crc32(u.encode()) % n_buckets for u in uniques),
        dtype=np.int32,
        count=len(uniques),
    )
    idx = enc.indices.to_numpy(zero_copy_only=False)
    if len(lut) == 0:
        return pa.array(np.zeros(0, dtype=np.int32))
    return pa.array(lut[idx])


def crc32_bucket_concat(table: pa.Table, cols: list[str], n_buckets: int, sep: str = "\x1f") -> pa.Array:
    """Bucket on the concatenation of several key columns (for
    multi-column distincts).  Null-safe: nulls render as ''."""
    parts = []
    for c in cols:
        a = _as_array(table.column(c))
        if not pa.types.is_large_string(a.type):
            a = pc.cast(a, pa.large_string())
        parts.append(pc.fill_null(a, ""))
    joined = pc.binary_join_element_wise(*parts, pa.scalar(sep, pa.large_string()))
    return crc32_bucket(joined, n_buckets)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer of each value's 64-bit pattern
    (public-domain constants; uint64 overflow wraps, which is exactly
    the mix).  ``splitmix64(0)`` is SplitMix64's first output for seed 0."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
