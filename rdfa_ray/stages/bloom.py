"""Bloom-prefiltered semi join — the classic big-data join
optimization: build a compact bit-set summary of the build side's
keys, broadcast it, and drop probe-side rows map-side BEFORE the
shuffle, then run the exact semi join on the survivors.

Exactness: a Bloom filter has false POSITIVES only, and the survivors
still pass through the exact ``bucketed_hash_join(how='semi')`` — the
result is provably identical to the unfiltered semi join; the filter
only reduces how many rows reach the exchange.  With an x% match rate
the shuffle shrinks ~(1-x)-fold, and the bit-set costs m/8 bytes
regardless of data size (the per-block partial is a fixed-size bitset,
OR-merged — a mergeable summary like the engine's KMV/Misra-Gries
sketches).

False-positive rate ~ (1 - e^(-kn/m))^k; the default m=2^23 bits
(1 MiB) and k=4 keeps FPR < 1% up to ~1M build keys.  Size ``m_bits``
to the build side's distinct-key estimate (the KMV sketch provides
exactly that number at scale).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.hashing import splitmix64
from .join import bucketed_hash_join

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _hash_column(col) -> tuple:
    """Two independent vectorized 64-bit hashes per value plus the
    validity mask: ``(h1, h2, valid)``.

    The branch is chosen from the ARROW type, never the materialized
    numpy dtype — an int64 block containing a null materializes as
    float64, and a dtype-based branch would hash the same key two
    different ways depending on which block it sits in (Bloom false
    NEGATIVES, i.e. silently wrong joins).  Null positions get
    arbitrary hashes and ``valid=False``; callers must route null-key
    rows to the exact join rather than trusting their bits."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    pc = _pc()
    valid = np.asarray(pc.is_valid(col), dtype=bool)
    if pa.types.is_integer(col.type):
        # hash the 64-bit pattern: unsigned keys >= 2^63 do not fit int64
        wide = pa.uint64() if pa.types.is_unsigned_integer(col.type) else pa.int64()
        u = np.asarray(pc.fill_null(pc.cast(col, wide), 0)).astype(np.uint64)
        h1 = splitmix64(u)
        h2 = splitmix64(u ^ np.uint64(0xA5A5A5A5A5A5A5A5))
    else:
        import polars as pl

        vals = col.to_pylist()
        s = pl.Series(["" if v is None else str(v) for v in vals])
        h1 = s.hash(seed=7).to_numpy().astype(np.uint64)
        h2 = s.hash(seed=13).to_numpy().astype(np.uint64)
    return h1, (h2 | np.uint64(1)), valid


def _bit_positions(h1, h2, m_bits: int, n_hashes: int):
    with np.errstate(over="ignore"):
        for i in range(n_hashes):
            yield ((h1 + np.uint64(i) * h2) & _MASK64) % np.uint64(m_bits)


def _pc():
    import pyarrow.compute as pc

    return pc


def _broadcast_keys(right_ds, on: str, limit: int):
    """If the (materialized) build side holds <= ``limit`` ROWS,
    return ``(distinct non-null keys as pa.Array, has_null)``; else
    ``(None, False)``.  count() on a materialized dataset is
    metadata-free (row count over-estimates the key count for
    un-deduped drop lists — a conservative gate).  Keys are collected
    Arrow/Python-native: a pandas round-trip would decay nullable
    int64 to float64 and corrupt keys above 2^53."""
    if limit <= 0 or right_ds.count() > limit:
        return None, False

    def distinct(batch: pa.Table) -> pa.Table:
        if on not in batch.column_names:  # schema-less empty side
            return pa.Table.from_pydict({on: pa.array([], pa.string())})
        return pa.Table.from_pydict({on: _pc().unique(batch.column(on))})

    rows = right_ds.map_batches(distinct, batch_format="pyarrow").take_all()
    vals = {r[on] for r in rows}
    has_null = None in vals
    vals.discard(None)
    if not vals:
        return pa.array([], pa.string()), has_null
    return pa.array(sorted(vals)), has_null


def _round_m_bits(m_bits: int) -> int:
    """Bitsets are uint64-packed; a non-multiple-of-64 size would index
    past the last word.  Round up (callers sizing from a distinct-key
    estimate get >= the capacity they asked for)."""
    return max(64, (int(m_bits) + 63) // 64 * 64)


def build_bloom(right_ds, on: str, m_bits: int = 1 << 23, n_hashes: int = 4):
    """One pass over the build side -> the OR of per-block fixed-size
    bitsets (uint64-packed numpy array, m_bits/8 bytes).  Null keys
    set no bits — probe-side nulls must route to the exact join."""
    m_bits = _round_m_bits(m_bits)
    n_words = m_bits // 64

    def partial(batch: pa.Table) -> pa.Table:
        bits = np.zeros(n_words, dtype=np.uint64)
        if batch.num_rows:
            h1, h2, valid = _hash_column(batch.column(on))
            h1, h2 = h1[valid], h2[valid]
            for idx in _bit_positions(h1, h2, m_bits, n_hashes):
                words = (idx >> np.uint64(6)).astype(np.int64)
                masks = np.uint64(1) << (idx & np.uint64(63))
                np.bitwise_or.at(bits, words, masks)
        return pa.table({"bits": pa.array([bits.tobytes()], pa.large_binary())})

    merged = np.zeros(n_words, dtype=np.uint64)
    parts = right_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    # an empty build side yields a schema-less 0-row frame
    if "bits" in parts.columns:
        for part in parts["bits"]:
            merged |= np.frombuffer(part, dtype=np.uint64)
    return merged


def bloom_semi_join(
    left_ds,
    right_ds,
    on: str,
    n_buckets: int = 64,
    m_bits: int = 1 << 23,
    n_hashes: int = 4,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    broadcast_limit: int = 200_000,
):
    """Exact semi join with a Bloom pre-filter on the probe side.
    ``right_ds`` should be pre-projected to its key column (the same
    contract as the plain semi join).

    Build sides at or below ``broadcast_limit`` keys skip the Bloom +
    bucketed join entirely: the exact key set broadcasts once
    (``ray.put``) and the join is ONE map-side ``is_in`` — zero
    exchange.  Curation drop-sets (duplicate ids, contaminated ids)
    are usually this small even at corpus scale."""
    import ray

    m_bits = _round_m_bits(m_bits)
    right_ds = right_ds.materialize()
    small, has_null = _broadcast_keys(right_ds, on, broadcast_limit)
    if small is not None:
        keys_ref = ray.put(small)

        def semi_small(batch: pa.Table) -> pa.Table:
            pc = _pc()
            keys = ray.get(keys_ref)
            col = batch.column(on)
            if len(keys):
                m = pc.fill_null(pc.is_in(col, value_set=keys), False)
            else:
                m = pa.array(np.zeros(batch.num_rows, dtype=bool))
            if has_null:  # null matches null (the exact join's pandas
                m = pc.or_(m, pc.is_null(col))  # isin semantics)
            return batch.filter(m)

        return left_ds.map_batches(semi_small, batch_format="pyarrow")
    bits_ref = ray.put(build_bloom(right_ds, on, m_bits, n_hashes))

    def prefilter(batch: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        if not batch.num_rows:
            return batch
        h1, h2, valid = _hash_column(batch.column(on))
        keep = np.ones(batch.num_rows, dtype=bool)
        for idx in _bit_positions(h1, h2, m_bits, n_hashes):
            words = (idx >> np.uint64(6)).astype(np.int64)
            hit = (bits[words] >> (idx & np.uint64(63))) & np.uint64(1)
            keep &= hit.astype(bool)
        keep |= ~valid  # null keys: the exact join decides
        return batch.filter(pa.array(keep))

    survivors = left_ds.map_batches(prefilter, batch_format="pyarrow")
    return bucketed_hash_join(
        survivors,
        right_ds,
        on=on,
        n_buckets=n_buckets,
        how="semi",
        left_schema=left_schema,
        right_schema=right_schema,
    )


def bloom_anti_join(
    left_ds,
    right_ds,
    on: str,
    n_buckets: int = 64,
    m_bits: int = 1 << 23,
    n_hashes: int = 4,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    broadcast_limit: int = 200_000,
    materialize_left: bool = False,
):
    """Exact ANTI join (left rows with no right match) with a Bloom
    pre-filter: rows whose key misses the filter are DEFINITELY
    unmatched — they pass through map-side with zero shuffle; only the
    Bloom hits (true matches + false positives) go through the exact
    bucketed anti join.  With a small right side (a drop-list of
    duplicates or contaminated ids — the curation shape) the exchange
    carries a sliver of the data while the result stays provably equal
    to the unfiltered anti join.

    Build sides at or below ``broadcast_limit`` keys skip Bloom + join
    entirely — the exact key set broadcasts once and the anti join is
    ONE map-side negated ``is_in`` (zero exchange, zero union): the
    usual case for drop-lists even at corpus scale.

    ``materialize_left``: the Bloom path consumes the probe side twice
    (miss pass-through + hit join); True pins it once first — use for
    expensive KEY-SIZED probe pipelines, never for corpus-sized text
    probes."""
    import ray

    m_bits = _round_m_bits(m_bits)
    right_ds = right_ds.materialize()
    small, has_null = _broadcast_keys(right_ds, on, broadcast_limit)
    if small is not None:
        keys_ref = ray.put(small)

        def anti_small(batch: pa.Table) -> pa.Table:
            pc = _pc()
            keys = ray.get(keys_ref)
            col = batch.column(on)
            if len(keys):
                m = pc.fill_null(pc.is_in(col, value_set=keys), False)
            else:
                m = pa.array(np.zeros(batch.num_rows, dtype=bool))
            if has_null:  # null matches null (exact-join pandas isin)
                m = pc.or_(m, pc.is_null(col))
            return batch.filter(pc.invert(m))

        return left_ds.map_batches(anti_small, batch_format="pyarrow")
    bits_ref = ray.put(build_bloom(right_ds, on, m_bits, n_hashes))
    if materialize_left:
        # the miss/hit split consumes the probe side TWICE; callers
        # whose probe is an expensive lazy pipeline of KEY-SIZED rows
        # (e.g. a wedge-count shuffle) pin it once here.  Leave False
        # when the probe carries corpus-sized payloads (text) — there
        # the lazy double read is the memory-safe choice.
        left_ds = left_ds.materialize()

    def split_mask(batch: pa.Table):
        bits = ray.get(bits_ref)
        if not batch.num_rows:
            return np.zeros(0, dtype=bool)
        h1, h2, valid = _hash_column(batch.column(on))
        hit = np.ones(batch.num_rows, dtype=bool)
        for idx in _bit_positions(h1, h2, m_bits, n_hashes):
            words = (idx >> np.uint64(6)).astype(np.int64)
            bit = (bits[words] >> (idx & np.uint64(63))) & np.uint64(1)
            hit &= bit.astype(bool)
        hit |= ~valid  # null keys: candidates for the exact join
        return hit

    def keep_misses(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~split_mask(batch)))

    def keep_hits(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(split_mask(batch)))

    definite = left_ds.map_batches(keep_misses, batch_format="pyarrow")
    candidates = left_ds.map_batches(keep_hits, batch_format="pyarrow")
    cleared = bucketed_hash_join(
        candidates,
        right_ds,
        on=on,
        n_buckets=n_buckets,
        how="anti",
        left_schema=left_schema,
        right_schema=right_schema,
    )
    return definite.union(cleared)
