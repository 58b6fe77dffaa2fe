"""The keyed exchange primitives (``functions/exchange.py``), each case
on Ray and on the in-process ``ArrowFrame`` (``both_executors``)."""

import zlib

import pyarrow as pa
import pytest

from rdfa_ray.functions.exchange import co_group, keyed_exchange
from rdfa_ray.stages.join import bucketed_hash_join
from rdfa_ray.stages.localframe import ArrowFrame

pytestmark = pytest.mark.usefixtures("both_executors")

BIG = [2**62 + 1, 2**53 + 1, -(2**63), 2**63 - 1]


def _ds(table: pa.Table):
    """Up to three blocks, so a bucket gathers rows from several tasks."""
    import ray.data as rd

    third = -(-table.num_rows // 3) or 1
    return rd.from_arrow([table.slice(i, third) for i in range(0, table.num_rows or 1, third)])


def _rows(ds) -> list:
    """Sorted row tuples read through Arrow (pandas would turn an int64
    column holding nulls into float64 and round values above 2^53)."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return []
    t = pa.concat_tables(tables)
    t = t.select(sorted(t.column_names))
    return _sorted(tuple(r.values()) for r in t.to_pylist())


def _sorted(rows) -> list:
    return sorted(rows, key=repr)  # None-safe


@pytest.mark.parametrize(
    "key, table",
    [
        ("s", pa.table({"s": ["a", "b", "c", "hot", "hot", "z", "é"]})),
        ("i", pa.table({"i": pa.array([0, 1, 2, 3, -5, 2**40, 7], pa.int64())})),
        (["s", "i"], pa.table({"s": ["a", "a", "b", "c"], "i": [1, 2, 1, 1]})),
    ],
)
def test_bucket_is_crc32_of_the_key_text(key, table):
    n_buckets = 5
    keys = [key] if isinstance(key, str) else key

    def want(row) -> int:
        return zlib.crc32("\x1f".join(str(row[k]) for k in keys).encode()) % n_buckets

    def per_call(group: pa.Table) -> pa.Table:
        got = {want(r) for r in group.to_pylist()}
        return pa.table({"bucket": [min(got)], "n_buckets_in_call": [len(got)]})

    expected = sorted({want(r) for r in table.to_pylist()})
    # the differential runs the frame with one bucket by design, so each
    # executor is compared with zlib directly at the same bucket count
    run = getattr(keyed_exchange, "__wrapped__", keyed_exchange)
    for ds in (ArrowFrame(table), _ds(table)):
        out = run(ds, key, per_call, n_buckets, "pyarrow").to_pandas()
        assert sorted(out["bucket"]) == expected
        assert set(out["n_buckets_in_call"]) == {1}


def test_keyed_exchange_colocates_keys_and_hides_the_bucket():
    t = pa.table({"k": [1, 2, 1, 3, 2, 1] * 5, "v": list(range(30))})

    def per_key(group: pa.Table) -> pa.Table:
        assert group.column_names == ["k", "v"]
        return group.group_by("k").aggregate([("v", "count"), ("v", "sum")])

    out = keyed_exchange(_ds(t), "k", per_key, 4, "pyarrow")
    assert _rows(out) == _sorted([(1, 15, 215), (2, 10, 145), (3, 5, 75)])


def test_keyed_exchange_empty_input():
    t = pa.table({"k": pa.array([], pa.int64())})
    assert keyed_exchange(_ds(t), "k", lambda g: g, 4).count() == 0


def _counts():
    """Per key: rows on each side (executor-invariant only if every row
    of a key is in the same call).  Built per test: Ray workers cannot
    import this module, so the UDF must be a closure."""

    def counts(l: pa.Table, r: pa.Table) -> pa.Table:
        import pandas as pd

        nl = l.to_pandas().groupby("k").size()
        nr = r.to_pandas().groupby("k").size()
        both = pd.concat([nl.rename("nl"), nr.rename("nr")], axis=1).fillna(0)
        return pa.Table.from_pandas(both.astype("int64").reset_index(), preserve_index=False)

    return counts


LEFT = pa.table({"k": [1, 2, 2, 3, 3, 3], "a": ["x", "y", "z", "u", "v", "w"]})
RIGHT = pa.table({"k": [2, 3, 4], "b": [1.5, 2.5, 3.5]})


def test_co_group_colocates_both_sides():
    out = co_group(_ds(LEFT), _ds(RIGHT), "k", _counts(), 4)
    assert _rows(out) == _sorted([(1, 1, 0), (2, 2, 1), (3, 3, 1), (4, 0, 1)])


@pytest.mark.parametrize("empty", ["left", "right", "both"])
def test_co_group_either_side_empty(empty):
    left = LEFT.slice(0, 0) if empty in ("left", "both") else LEFT
    right = RIGHT.slice(0, 0) if empty in ("right", "both") else RIGHT
    out = co_group(
        _ds(left), _ds(right), "k", _counts(), 4,
        left_schema=LEFT.schema, right_schema=RIGHT.schema,
    )
    want = {
        "left": [(2, 0, 1), (3, 0, 1), (4, 0, 1)],
        "right": [(1, 1, 0), (2, 2, 0), (3, 3, 0)],
        "both": [],
    }[empty]
    assert _rows(out) == _sorted(want)


def test_co_group_sides_keep_their_own_columns_and_types():
    left = pa.table({"k": ["a", "b"], "v": pa.array(BIG[:2], pa.int64())})
    right = pa.table({"k": ["b", "c"], "v": pa.array(BIG[2:], pa.int64()), "s": ["p", "q"]})

    def sides(l: pa.Table, r: pa.Table) -> pa.Table:
        assert l.column_names == ["k", "v"] and r.column_names == ["k", "v", "s"]
        assert l.schema.field("v").type == r.schema.field("v").type == pa.int64()
        tagged = [t.select(["k", "v"]).append_column("side", pa.array([side] * t.num_rows))
                  for side, t in (("l", l), ("r", r))]
        return pa.concat_tables(tagged)

    out = co_group(_ds(left), _ds(right), "k", sides, 4)
    assert _rows(out) == _sorted(
        [("a", "l", BIG[0]), ("b", "l", BIG[1]), ("b", "r", BIG[2]), ("c", "r", BIG[3])]
    )


@pytest.mark.parametrize("how", ["inner", "left", "outer", "right"])
def test_big_int64_survive_join_padding(how):
    left = pa.table({"k": [1, 2, 3, 4], "v": pa.array(BIG, pa.int64())})
    right = pa.table({"k": [2, 3, 5], "w": pa.array(BIG[1:], pa.int64())})
    out = bucketed_hash_join(_ds(left), _ds(right), on="k", how=how, n_buckets=4)
    lv, rw = dict(zip([1, 2, 3, 4], BIG)), dict(zip([2, 3, 5], BIG[1:]))
    keys = {"inner": {2, 3}, "left": {1, 2, 3, 4}, "right": {2, 3, 5}, "outer": {1, 2, 3, 4, 5}}[how]
    assert _rows(out) == _sorted((k, lv.get(k), rw.get(k)) for k in keys)


SKEW_L = pa.table({"k": [7] * 40 + [1, 2, 3], "i": list(range(43))})
SKEW_R = pa.table({"k": [7, 7, 2, 9], "j": [100, 101, 102, 103]})


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_salt_is_exact_for_left_preserving_modes(how):
    plain = bucketed_hash_join(_ds(SKEW_L), _ds(SKEW_R), on="k", how=how, n_buckets=3)
    salted = bucketed_hash_join(
        _ds(SKEW_L), _ds(SKEW_R), on="k", how=how, n_buckets=3, salt=4
    )
    assert _rows(salted) == _rows(plain)
    n = {"inner": 81, "left": 83, "semi": 41, "anti": 2}[how]
    assert salted.count() == n


@pytest.mark.parametrize(
    "how, left_distinct", [("right", None), ("outer", None), ("inner", ["k", "i"])]
)
def test_salt_refused_where_it_would_change_the_answer(how, left_distinct):
    with pytest.raises(ValueError, match="salt > 1"):
        bucketed_hash_join(
            _ds(SKEW_L), _ds(SKEW_R), on="k", how=how, n_buckets=3,
            left_distinct=left_distinct, salt=4,
        )
