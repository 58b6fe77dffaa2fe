"""Tests for the Bloom-prefiltered semi join."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from rdfa_ray.stages.bloom import _hash_column, bloom_semi_join, build_bloom


def test_bloom_semi_matches_exact_int_keys(ray_session):
    left = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(list(range(1000)), pa.int64()),
                "val": pa.array([str(i) for i in range(1000)], pa.string()),
            }
        )
    ).repartition(4)
    right = rd.from_arrow(
        pa.table({"k": pa.array(list(range(0, 1000, 7)), pa.int64())})
    ).repartition(2)
    out = bloom_semi_join(
        left,
        right,
        on="k",
        n_buckets=4,
        left_schema=pa.schema([("k", pa.int64()), ("val", pa.string())]),
        right_schema=pa.schema([("k", pa.int64())]),
    ).to_pandas()
    assert sorted(out["k"]) == list(range(0, 1000, 7))


def test_bloom_semi_string_keys_and_tiny_filter_fp(ray_session):
    # a deliberately tiny filter (64 bits) forces false positives; the
    # exact join must still remove every one of them
    left = rd.from_arrow(
        pa.table({"k": pa.array(["x%d" % i for i in range(500)], pa.string())})
    ).repartition(4)
    right = rd.from_arrow(
        pa.table({"k": pa.array(["x7", "x42", "x499"], pa.string())})
    )
    out = bloom_semi_join(
        left, right, on="k", n_buckets=4, m_bits=64, n_hashes=2,
        left_schema=pa.schema([("k", pa.string())]),
        right_schema=pa.schema([("k", pa.string())]),
    ).to_pandas()
    assert sorted(out["k"]) == ["x42", "x499", "x7"]


def test_bloom_filter_has_no_false_negatives(ray_session):
    keys = np.arange(0, 100_000, 13, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64())})).repartition(8)
    bits = build_bloom(ds, "k", m_bits=1 << 20, n_hashes=4)
    h1, h2, _valid = _hash_column(pa.array(keys, pa.int64()))
    for i in range(4):
        idx = ((h1 + np.uint64(i) * h2) & np.uint64(0xFFFFFFFFFFFFFFFF)) % np.uint64(
            1 << 20
        )
        words = (idx >> np.uint64(6)).astype(np.int64)
        hit = (bits[words] >> (idx & np.uint64(63))) & np.uint64(1)
        assert hit.all()


def test_bloom_anti_join_exact(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.bloom import bloom_anti_join

    left = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(100)), pa.int64()),
                "v": pa.array(["x%d" % i for i in range(100)], pa.string()),
            }
        )
    ).repartition(4)
    right = rd.from_arrow(
        pa.table({"doc_id": pa.array([3, 17, 50, 999], pa.int64())})
    )
    out = bloom_anti_join(
        left,
        right,
        on="doc_id",
        n_buckets=4,
        left_schema=pa.schema([("doc_id", pa.int64()), ("v", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64())]),
    ).to_pandas()
    assert sorted(out["doc_id"]) == sorted(set(range(100)) - {3, 17, 50})
    assert sorted(out.columns) == ["doc_id", "v"]

    # empty right side -> everything passes map-side
    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
    assert bloom_anti_join(
        left, empty, on="doc_id", n_buckets=4,
        left_schema=pa.schema([("doc_id", pa.int64()), ("v", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64())]),
    ).count() == 100


def test_exact_dup_drops(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from rdfa_ray.stages.dedup import exact_dup_drops

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(["a", "b", "a", "a", "b"], pa.string()),
            }
        )
    ).repartition(3)
    out = exact_dup_drops(docs, n_buckets=4).to_pandas()
    # keepers are min doc_id per content: 1 ('a'), 2 ('b')
    assert sorted(out["doc_id"]) == [3, 4, 5]


def test_bloom_path_still_exercised_above_broadcast_limit(ray_session):
    # broadcast_limit=0 forces the Bloom + bucketed-join path; results
    # must equal the broadcast fast path
    import pandas as pd
    import ray.data as rd

    from rdfa_ray.stages.bloom import bloom_anti_join, bloom_semi_join

    left = pd.DataFrame({"k": list(range(50)), "v": list(range(50))})
    right = pd.DataFrame({"k": [3, 7, 11, 99]})
    for fn, expect in (
        (bloom_semi_join, {3, 7, 11}),
        (bloom_anti_join, set(range(50)) - {3, 7, 11}),
    ):
        fast = fn(rd.from_pandas(left), rd.from_pandas(right), on="k",
                  n_buckets=4).to_pandas()
        slow = fn(rd.from_pandas(left), rd.from_pandas(right), on="k",
                  n_buckets=4, broadcast_limit=0).to_pandas()
        assert set(fast["k"]) == expect
        assert set(slow["k"]) == expect


def test_null_bearing_int_key_blocks_hash_consistently(ray_session):
    """An int64 key column whose BLOCK contains a null materializes as
    float64 in numpy; a dtype-based hash branch would hash the same key
    two ways across blocks (Bloom false negatives).  Round-5 fix:
    branch on the Arrow type, route null keys to the exact join."""
    import ray.data as rd

    from rdfa_ray.stages.bloom import bloom_anti_join, bloom_semi_join

    big = 2**53 + 1  # also exercises exact >2^53 handling
    left = rd.from_arrow(
        pa.table({"k": pa.array([7, None, big, 8], pa.int64()),
                  "v": pa.array(list("abcd"), pa.string())})
    ).repartition(2)
    right = rd.from_arrow(pa.table({"k": pa.array([7, big], pa.int64())}))
    schema_l = pa.schema([("k", pa.int64()), ("v", pa.string())])
    schema_r = pa.schema([("k", pa.int64())])
    for limit in (200_000, 0):  # broadcast fast path AND bloom path
        semi = bloom_semi_join(
            left, right, on="k", n_buckets=2, broadcast_limit=limit,
            left_schema=schema_l, right_schema=schema_r,
        ).to_pandas()
        assert sorted(semi["v"]) == ["a", "c"], limit
        anti = bloom_anti_join(
            left, right, on="k", n_buckets=2, broadcast_limit=limit,
            left_schema=schema_l, right_schema=schema_r,
        ).to_pandas()
        assert sorted(anti["v"]) == ["b", "d"], limit


def test_null_key_matches_null_build_row(ray_session):
    """Pandas isin semantics: a null probe key matches a null build key
    — both the broadcast fast path and the exact join must agree."""
    import ray.data as rd

    from rdfa_ray.stages.bloom import bloom_semi_join

    left = rd.from_arrow(
        pa.table({"k": pa.array([1, None], pa.int64()),
                  "v": pa.array(["x", "y"], pa.string())})
    )
    right = rd.from_arrow(pa.table({"k": pa.array([None], pa.int64())}))
    out = bloom_semi_join(
        left, right, on="k", n_buckets=2,
        left_schema=pa.schema([("k", pa.int64()), ("v", pa.string())]),
        right_schema=pa.schema([("k", pa.int64())]),
    ).to_pandas()
    assert sorted(out["v"]) == ["y"]


def test_odd_m_bits_rounds_up(ray_session):
    import ray.data as rd

    from rdfa_ray.stages.bloom import bloom_semi_join

    left = rd.from_arrow(pa.table({"k": pa.array(list(range(40)), pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([5, 25], pa.int64())}))
    out = bloom_semi_join(
        left, right, on="k", n_buckets=2, m_bits=1000, broadcast_limit=0,
        left_schema=pa.schema([("k", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64())]),
    ).to_pandas()
    assert sorted(out["k"]) == [5, 25]


def test_splitmix64_pinned_and_uint64_keys_hash_their_bit_pattern(ray_session):
    """One shared splitmix64 (reference SplitMix64 outputs pinned), and
    unsigned keys >= 2^63 hash on the Bloom path instead of failing the
    int64 cast."""
    import ray.data as rd

    from rdfa_ray.functions.hashing import splitmix64

    got = splitmix64(np.array([0, 1, 0x9E3779B97F4A7C15, 2**64 - 1], np.uint64))
    assert [int(v) for v in got] == [
        0xE220A8397B1DCDAF, 0x910A2DEC89025CC1,
        0x6E789E6AA1B965F4, 0xE4D971771B652C20,
    ]

    big = 2**63 + 5
    left = rd.from_arrow(pa.table({"k": pa.array([5, big, 7], pa.uint64()),
                                   "v": pa.array(list("abc"))}))
    right = rd.from_arrow(pa.table({"k": pa.array([big], pa.uint64())}))
    out = bloom_semi_join(
        left, right, on="k", n_buckets=4, broadcast_limit=0,
        left_schema=pa.schema([("k", pa.uint64()), ("v", pa.string())]),
        right_schema=pa.schema([("k", pa.uint64())]),
    ).to_pandas()
    assert [int(k) for k in out["k"]] == [big]
    assert list(out["v"]) == ["b"]
