"""The query path's Arrow kernels against frozen copies of the pandas
kernels they replaced (Ray-free).

Each ``ref_*`` factory below holds a pandas kernel verbatim (only
hoisted out of its enclosing function).  A pandas kernel runs as Ray
ran it: Arrow batch -> ``to_pandas()`` -> kernel -> ``from_pandas``.
Both kernels get the same seeded batches, built from the lexical forms
pandas' ``to_numeric`` treats specially (padded digits, "1_000",
Arabic-Indic digits, integers past int64, overflow), null cells, NaN,
ties and groups that hold no number, and must agree on values and
Arrow types, row order included.

Declared differences:

* float SUM and AVG results are compared to a relative 1e-12, because
  pandas sums each group with Kahan compensation and Arrow does not;
  the seeded decimals ("0.1", "0.2", ...) make that difference real
  rather than hypothetical;
* the bucketed join's outer rows are compared as a multiset (pandas
  sorts outer keys);
* its inner rows are compared as a multiset when the join has exactly
  as many rows as its left side: pandas 2.2's ``libjoin.inner_join``
  then takes a shortcut that assumes one match per left row and
  scrambles the (left row, right row) order when some rows match
  twice and others never;
* integer null keys under semi/anti: the masked ``Int64`` ``isin`` of
  the pandas kernel never matched a null, while its merges (and its
  string ``isin``) did; the Arrow kernel matches null with null in
  every mode."""

import math
import random
from unittest import mock

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rdfa_ray.functions.exchange import co_group
from rdfa_ray.stages import join as join_mod
from rdfa_ray.stages.bgp import _broadcast_step
from rdfa_ray.stages.distinct import _distinct_kernel
from rdfa_ray.stages.localframe import ArrowFrame, string_table
from rdfa_ray.stages.sparql import (
    _aggregate_kernels,
    _distinct_aggregate_kernels,
    _order_limit_kernels,
    to_numeric,
)
from rdfa_ray.stages.sparql_text import _as_num

# ---------------------------------------------------------------------------
# frozen pandas references


def ref_merge_kernel(scan_df, shared, bound, p_vars):
    new_vars = [v for v in p_vars if v not in bound]
    out_vars = bound + new_vars
    out_schema = pa.schema([(v, pa.string()) for v in out_vars])
    empty = out_schema.empty_table()

    def merge_batch(batch: pa.Table) -> pa.Table:
        left = batch.to_pandas()
        if not len(left):
            return empty
        m = left.merge(scan_df, on=list(shared), how="inner")
        if not len(m):
            return empty
        return pa.Table.from_pandas(
            m[out_vars].astype(str), schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return merge_batch


def ref_aggregate_kernels(gvars, aggs, having=None):
    sep = "\x1f"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame()
        work = batch[gvars].copy()
        named = {}
        for fn, var, alias, *flags in aggs:
            numeric = "num" in flags
            if fn == "count":
                named["c__" + alias] = (gvars[0], "size")
            elif fn in ("sum", "avg"):
                work["__num_" + alias] = pd.to_numeric(batch[var], errors="coerce")
                named["s__" + alias] = ("__num_" + alias, "sum")
                if fn == "avg":
                    named["n__" + alias] = ("__num_" + alias, "count")
            elif fn in ("min", "max", "sample"):
                work["__v_" + alias] = (
                    pd.to_numeric(batch[var], errors="coerce") if numeric else batch[var]
                )
                prefix = {"min": "m__", "max": "m__", "sample": "w__"}[fn]
                named[prefix + alias] = ("__v_" + alias, "max" if fn == "max" else "min")
            elif fn == "group_concat":
                work["__v_" + alias] = batch[var].astype(str)
                named["g__" + alias] = (
                    "__v_" + alias,
                    lambda s: sep.join(sorted(s)),
                )
            else:
                raise ValueError("unknown aggregate %r" % fn)
        res = work.groupby(gvars, sort=False).agg(**named).reset_index()
        return pa.Table.from_pandas(res, preserve_index=False).replace_schema_metadata(None)

    def reduce_bucket(group: pd.DataFrame) -> pd.DataFrame:
        gb = group.groupby(gvars, sort=False)
        first = True
        for fn, _var, alias, *_ in aggs:
            if fn == "count":
                s = gb["c__" + alias].sum()
            elif fn == "sum":
                s = gb["s__" + alias].sum()
            elif fn == "avg":
                s = gb["s__" + alias].sum() / gb["n__" + alias].sum()
            elif fn in ("min", "sample"):
                key = ("m__" if fn == "min" else "w__") + alias
                s = gb[key].min()
            elif fn == "max":
                s = gb["m__" + alias].max()
            else:  # group_concat: merge partials, re-sort tokens, re-join
                s = gb["g__" + alias].agg(
                    lambda ss: sep.join(sorted(x for v in ss for x in v.split(sep)))
                )
            if first:
                out = s.reset_index()[gvars]
                first = False
            out[alias] = s.to_numpy()
        if having is not None:
            out = out[having(out)]
        return out.reset_index(drop=True)

    return partial, reduce_bucket


def ref_distinct_aggregate_kernels(gvars, var, alias, fn):
    cols = [*gvars, var]
    sep = "\x1f"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame()
        out = batch[cols].drop_duplicates()
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    out_dtype = {"count": "int64", "sum": "float64", "avg": "float64"}.get(
        fn, "object"
    )

    def reduce_bucket(group: pd.DataFrame) -> pd.DataFrame:
        d = group.drop_duplicates(cols)
        if fn in ("sum", "avg"):
            d = d.assign(**{var: pd.to_numeric(d[var], errors="coerce")})
        gb = d.groupby(gvars, sort=False)[var]
        if fn == "count":
            s = gb.nunique()
        elif fn == "sum":
            s = gb.sum()
        elif fn == "avg":
            s = gb.mean()
        elif fn == "group_concat":
            s = gb.agg(lambda vv: sep.join(sorted(vv.astype(str))))
        else:
            raise ValueError("unknown distinct aggregate %r" % fn)
        out = s.reset_index()[gvars]
        out[alias] = s.to_numpy()
        if out_dtype != "object":
            out[alias] = out[alias].astype(out_dtype)
        return out

    return partial, reduce_bucket


def ref_order_limit_kernels(sort_vars, ascending, offset, keep):
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            sort_vars, ascending=ascending, kind="mergesort"
        ).head(keep)

    def final(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.sort_values(sort_vars, ascending=ascending, kind="mergesort")
            .iloc[offset:keep]
        )

    return partial, final


def ref_bucket_distinct(cols, extra):
    out_cols = cols + extra

    def bucket_distinct(group: pd.DataFrame) -> pd.DataFrame:
        if extra:
            group = group.sort_values(out_cols, kind="mergesort")
        return group.drop_duplicates(cols)[out_cols]

    return bucket_distinct


def ref_join_kernel(on, how, suffix, left_distinct, left_schema, right_schema):
    left_cols = list(left_schema.names)
    rename = {
        c: (c + suffix if c in left_cols and c != on else c)
        for c in right_schema.names
    }
    right_cols = [rename[c] for c in right_schema.names if c != on]
    out_cols = left_cols if how in ("semi", "anti") else left_cols + right_cols

    def _int_preserving_df(t: pa.Table) -> pd.DataFrame:
        # Arrow -> pandas decays int columns containing nulls (an outer
        # merge's padding) to float64, silently corrupting values above
        # 2^53 (e.g. packed/hashed 63-bit ids); masked integer dtypes
        # keep every bit exact through the merge
        def mapper(t):
            if pa.types.is_int64(t):
                return pd.Int64Dtype()
            if pa.types.is_int32(t):
                return pd.Int32Dtype()
            if pa.types.is_int16(t):
                return pd.Int16Dtype()
            if pa.types.is_int8(t):
                return pd.Int8Dtype()
            if pa.types.is_uint64(t):
                return pd.UInt64Dtype()
            if pa.types.is_uint32(t):
                return pd.UInt32Dtype()
            return None

        return t.to_pandas(types_mapper=mapper)

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns([rename[c] for c in rt.column_names])
        fields = {f.name: f for f in (*rt.schema, *lt.schema)}
        out_schema = pa.schema([fields[c] for c in out_cols])
        nl, nr = lt.num_rows, rt.num_rows
        # mode-aware early-out: empty only when the preserved side(s)
        # cannot produce a row
        if (
            (how in ("inner", "semi") and (nl == 0 or nr == 0))
            or (how in ("left", "anti") and nl == 0)
            or (how == "right" and nr == 0)
        ):
            return out_schema.empty_table()
        l, r = _int_preserving_df(lt), _int_preserving_df(rt)
        if left_distinct:
            l = l.sort_values(left_cols, kind="mergesort").drop_duplicates(
                left_distinct
            )
        if how in ("semi", "anti"):
            mask = l[on].isin(r[on].unique())
            merged = l[mask] if how == "semi" else l[~mask]
        else:
            merged = l.merge(r, on=on, how=how)
        # strip the b'pandas' schema metadata: blocks must be
        # byte-identical in schema to the metadata-less empty table
        return pa.Table.from_pandas(
            merged[out_cols], schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return join_bucket


# ---------------------------------------------------------------------------
# harness


def _as_ray(kernel):
    """A pandas kernel on an Arrow batch, converted the way Ray did."""

    def run(t: pa.Table) -> pa.Table:
        out = kernel(t.to_pandas())
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return out.replace_schema_metadata(None)

    return run


def _same(got: pa.Table, want: pa.Table, approx=()):
    assert got.column_names == want.column_names
    if not want.num_rows:
        # a zero-row pandas result lost its string types (Arrow null)
        assert got.num_rows == 0
        return
    for g, w in zip(got.schema, want.schema):
        # so did an all-None pandas column; Arrow keeps the type
        assert g.type == w.type or (pa.types.is_null(w.type) and
                                    got.column(g.name).null_count == got.num_rows), (g, w)
    for name in got.column_names:
        g, w = got.column(name).to_pylist(), want.column(name).to_pylist()
        if name not in approx:
            assert g == w, name
            continue
        assert [x is None for x in g] == [x is None for x in w], name
        for x, y in zip(g, w):
            assert x is None or math.isclose(x, y, rel_tol=1e-12), (name, x, y)


# the lexical forms measured to differ between pandas and a plain cast
EDGE = [" 5", "6 ", "\t7\n", "1_000", "١", "12345678901234567890", "+4",
        "NaN", "nan", "inf", "-inf", "1e309", "1e5", ".5", "5.", "-0", "00012",
        "x", "", None]
POOLS = {
    "ints": ["1", "2", "-3", "7", "00012", " 5", "6 ", "+4", "-0"],
    "decimals": ["0.1", "0.2", "0.3", "1.5", "2.25", "-0.7", "1e-3", "3"],
    "edge": EDGE,
    "text": ["b", "a", "é", "z", "a b", "", None],
}
KEYS = ["k1", "k2", "k3", None]


def _batch(rng, pool, n=40, two_keys=False):
    cols = {"g": pa.array([rng.choice(KEYS) for _ in range(n)], pa.string())}
    if two_keys:
        cols["h"] = pa.array([rng.choice(["p", "q"]) for _ in range(n)], pa.string())
    cols["v"] = pa.array([rng.choice(POOLS[pool]) for _ in range(n)], pa.string())
    return pa.table(cols)


def _batches(seed, pool, two_keys=False):
    rng = random.Random(seed)
    return [_batch(rng, pool, rng.randrange(1, 40), two_keys) for _ in range(3)]


AGGS = [
    ("count", None, "n"),
    ("sum", "v", "s"),
    ("avg", "v", "a"),
    ("min", "v", "mnn", "num"),
    ("max", "v", "mxn", "num"),
    ("group_concat", "v", "gc"),
]
# lexical MIN / MAX / SAMPLE: pandas raised on a null cell among strings
# (see test_lexical_min_skips_nulls), so only null-free pools compare
LEX_AGGS = [("min", "v", "mn"), ("max", "v", "mx"), ("sample", "v", "w")]
FLOAT_AGGS = ("s__s", "s__a", "s", "a")

CASES = [(seed, pool, two) for seed in range(4) for pool in POOLS for two in (False, True)]


# ---------------------------------------------------------------------------
# the coercion helper


def _pd_numeric(values):
    s = pd.to_numeric(pd.Series(values, dtype=object), errors="coerce")
    return pa.Array.from_pandas(s)


@pytest.mark.parametrize(
    "values",
    [[v] for v in EDGE]
    + [
        ["1", "2"],
        ["1", "2.5"],
        ["1", "x"],
        ["1", None],
        ["1", "9223372036854775808"],
        ["-1", "12345678901234567890"],
        ["18446744073709551615"],
        ["18446744073709551616"],
        ["\xa08", "5 ", "１"],
        ["+inf", "-Infinity", "iNf", "infinit", "+-1", "1.2.3", "e5", ".", "-"],
        [],
    ],
)
def test_to_numeric_matches_pandas(values):
    want = _pd_numeric(values)
    for col in (pa.array(values, pa.string()), pa.chunked_array([pa.array(values, pa.string())])):
        got = to_numeric(col)
        assert got.type == want.type, values
        assert got.to_pylist() == want.to_pylist(), values
    # FILTER's numeric reading is the same values as float64
    got = _as_num(pa.array(values, pa.string()))
    assert got.to_pylist() == [None if x is None else float(x) for x in want.to_pylist()]


@pytest.mark.parametrize("s", ["9.123301445981755", "-9223372036854775809", "7.8e-28"])
def test_to_numeric_rounds_correctly_where_pandas_does_not(s):
    # past 15 significant digits, or at large exponents, pandas' parser
    # is one ulp off; Arrow and Python's float() round correctly
    assert _pd_numeric([s]).to_pylist() != [float(s)]
    assert to_numeric(pa.array([s])).to_pylist() == [float(s)]


def test_to_numeric_keeps_numeric_columns():
    assert to_numeric(pa.array([1, 2])).type == pa.int64()
    assert to_numeric(pa.array([1, None])).to_pylist() == [1.0, None]
    assert to_numeric(pa.array([1.5, float("nan")])).to_pylist() == [1.5, None]


# ---------------------------------------------------------------------------
# grouped_aggregate


@pytest.mark.parametrize("seed,pool,two_keys", CASES)
def test_aggregate_partial_and_reduce(seed, pool, two_keys):
    gvars = ["g", "h"] if two_keys else ["g"]
    aggs = AGGS + (LEX_AGGS if None not in POOLS[pool] else [])
    partial, reduce_bucket = _aggregate_kernels(gvars, aggs)
    ref_partial, ref_reduce = ref_aggregate_kernels(gvars, aggs)
    ref_partials = []
    for batch in _batches(seed, pool, two_keys):
        want = _as_ray(ref_partial)(batch)
        _same(partial(batch), want, approx=FLOAT_AGGS)
        ref_partials.append(want)
    # both reducers over one bucket of the same partial rows
    bucket = pa.concat_tables(ref_partials, promote_options="permissive")
    _same(reduce_bucket(bucket), _as_ray(ref_reduce)(bucket), approx=FLOAT_AGGS)


def test_aggregate_groups_without_numbers():
    batch = pa.table({"g": ["a", "a", "b", None], "v": ["x", None, "1", "2"]})
    partial, reduce_bucket = _aggregate_kernels(["g"], AGGS)
    ref_partial, ref_reduce = ref_aggregate_kernels(["g"], AGGS)
    got, want = partial(batch), _as_ray(ref_partial)(batch)
    _same(got, want)
    # SUM over no number is 0, AVG and numeric MIN over none unbound
    row = dict(zip(got.column_names, [c[0].as_py() for c in got.columns]))
    assert (row["s__s"], row["n__a"], row["m__mnn"]) == (0.0, 0, None)
    _same(reduce_bucket(want), _as_ray(ref_reduce)(want))


def test_lexical_min_skips_nulls():
    batch = pa.table({"g": ["a", "a", "b"], "v": ["y", None, None]})
    with pytest.raises(TypeError):
        _as_ray(ref_aggregate_kernels(["g"], LEX_AGGS)[0])(batch)
    got = _aggregate_kernels(["g"], LEX_AGGS)[0](batch)
    assert got.column("m__mn").to_pylist() == ["y", None]


def test_aggregate_uint64_sums():
    batch = pa.table({"g": ["a", "b", "a"], "v": ["9223372036854775808", "1", "2"]})
    partial, reduce_bucket = _aggregate_kernels(["g"], AGGS)
    ref_partial, ref_reduce = ref_aggregate_kernels(["g"], AGGS)
    want = _as_ray(ref_partial)(batch)
    _same(partial(batch), want)
    assert want.column("s__s").type == pa.uint64()
    _same(reduce_bucket(want), _as_ray(ref_reduce)(want))


# ---------------------------------------------------------------------------
# grouped_distinct_aggregate


@pytest.mark.parametrize("fn", ["count", "sum", "avg", "group_concat"])
@pytest.mark.parametrize("seed,pool,two_keys", CASES)
def test_distinct_aggregate_partial_and_reduce(fn, seed, pool, two_keys):
    gvars = ["g", "h"] if two_keys else ["g"]
    partial, reduce_bucket = _distinct_aggregate_kernels(gvars, "v", "out", fn)
    ref_partial, ref_reduce = ref_distinct_aggregate_kernels(gvars, "v", "out", fn)
    ref_partials = []
    for batch in _batches(seed, pool, two_keys):
        want = _as_ray(ref_partial)(batch)
        _same(partial(batch), want)
        ref_partials.append(want)
    bucket = pa.concat_tables(ref_partials, promote_options="permissive")
    approx = ("out",) if fn in ("sum", "avg") else ()
    _same(reduce_bucket(bucket), _as_ray(ref_reduce)(bucket), approx=approx)


def test_distinct_aggregate_of_a_group_key():
    # COUNT(DISTINCT ?g) ... GROUP BY ?g: the pandas kernel raised on
    # the duplicate column
    batch = pa.table({"g": ["a", "a", "b"]})
    partial, reduce_bucket = _distinct_aggregate_kernels(["g"], "g", "n", "count")
    assert reduce_bucket(partial(batch)).to_pydict() == {"g": ["a", "b"], "n": [1, 1]}


# ---------------------------------------------------------------------------
# order_limit


def _bindings(seed, n=30):
    rng = random.Random(seed)
    return pa.table({
        # few distinct values: ties everywhere
        "a": pa.array([rng.choice(["x", "y", None]) for _ in range(n)], pa.string()),
        "b": pa.array([rng.choice(["1", "2", "é"]) for _ in range(n)], pa.string()),
        "n": pa.array([rng.randrange(3) for _ in range(n)], pa.int64()),
        "f": pa.array([rng.choice([0.5, 1.5, None]) for _ in range(n)], pa.float64()),
        "row": pa.array([str(i) for i in range(n)], pa.string()),
    })


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "sort_vars,descending",
    [(["a"], [False]), (["a"], [True]), (["n", "b"], [True, False]),
     (["f", "a"], [False, True]), (["b", "f", "n"], [True, True, False])],
)
@pytest.mark.parametrize("offset,limit", [(0, 5), (3, 4), (0, 100), (40, 2)])
def test_order_limit_partial_and_final(seed, sort_vars, descending, offset, limit):
    batch = _bindings(seed)
    partial, final = _order_limit_kernels(sort_vars, descending, offset, limit)
    ref_partial, ref_final = ref_order_limit_kernels(
        sort_vars, [not d for d in descending], offset, offset + limit
    )
    _same(partial(batch), _as_ray(ref_partial)(batch))
    _same(final(batch), _as_ray(ref_final)(batch))


# ---------------------------------------------------------------------------
# distinct


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("extra", [[], ["x"], ["x", "y"]])
def test_distinct_reducer(seed, extra):
    rng = random.Random(seed)
    n = 50
    group = pa.table({
        "s": pa.array([rng.choice(["a", "b", None]) for _ in range(n)], pa.string()),
        "o": pa.array([rng.choice(["1", "2"]) for _ in range(n)], pa.string()),
        "x": pa.array([rng.choice(["p", "q", None]) for _ in range(n)], pa.string()),
        "y": pa.array([rng.choice(["u", "v", None]) for _ in range(n)], pa.string()),
    })
    got = _distinct_kernel(["s", "o"], extra)(group)
    _same(got, _as_ray(ref_bucket_distinct(["s", "o"], extra))(group))


# ---------------------------------------------------------------------------
# the BGP broadcast step


def _side(rng, names, n):
    return pa.table({
        c: pa.array([rng.choice(["a", "b", "c", None]) for _ in range(n)], pa.string())
        for c in names
    })


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "bound,p_vars",
    [(["s", "o"], ["o", "t"]), (["s", "o"], ["s", "o", "t"]), (["s"], ["s", "t", "u"])],
)
def test_merge_kernel(seed, bound, p_vars):
    rng = random.Random(seed)
    shared = [v for v in p_vars if v in bound]
    scan = _side(rng, p_vars, rng.randrange(0, 12))
    # the first scan of a store read is large_string
    batch = _side(rng, bound, rng.randrange(0, 30)).cast(
        pa.schema([(v, pa.large_string()) for v in bound])
    )
    want = ref_merge_kernel(scan.to_pandas().astype(str), shared, bound, p_vars)(batch)
    got, out_vars = _broadcast_step(string_table(ArrowFrame(scan)), shared, bound, p_vars)
    assert out_vars == want.column_names
    _same(got(batch), want)
    # a literal "None" binding meets the scan's null cells, as in pandas
    none = pa.table({v: ["None"] * 2 for v in bound})
    _same(got(none), ref_merge_kernel(
        scan.to_pandas().astype(str), shared, bound, p_vars)(none))


# ---------------------------------------------------------------------------
# the bucketed join's per-bucket kernel

HOWS = ["inner", "left", "right", "outer", "semi", "anti"]
BIG = 2**60 + 1  # not exact as a float64


def _join_case(case, seed):
    """``(left, right, kwargs)`` for one bucket: key ``k``, payload ``v``
    on both sides (a suffix collision) plus ``w`` on the left."""
    rng = random.Random(seed)
    n_left, n_right = rng.randrange(1, 12), rng.randrange(1, 12)
    if case == "empty_left":
        n_left = 0
    elif case == "empty_right":
        n_right = 0
    elif case == "both_empty":
        n_left = n_right = 0
    if case in ("int_nulls_both", "bigint"):
        kt, pool = pa.int64(), [1, 2, 3, BIG]
    else:
        kt, pool = pa.string(), ["a", "b", "c", "é"]
    l_pool = pool + [None] if case in ("nulls_left", "nulls_both", "int_nulls_both") else pool
    r_pool = pool + [None] if case in ("nulls_both", "int_nulls_both") else pool
    vt = pa.int64() if case == "bigint" else pa.string()

    def keys(pool, n):
        # a side that may hold null keys holds at least one
        planted = [None] if n and None in pool else []
        return pa.array(planted + [rng.choice(pool) for _ in range(n - len(planted))], kt)

    def value(i):
        return BIG + i if case == "bigint" else rng.choice(["x", "y", None])

    left = pa.table({
        "k": keys(l_pool, n_left),
        "v": pa.array([value(i) for i in range(n_left)], vt),
        "w": pa.array([rng.choice(["p", "q"]) for _ in range(n_left)], pa.string()),
    })
    right = pa.table({
        "k": keys(r_pool, n_right),
        "v": pa.array([value(-i) for i in range(n_right)], vt),
    })
    kwargs = {"left_distinct": ["k", "v"]} if case == "left_distinct" else {}
    return left, right, kwargs


def _new_join_kernel(how, left_schema, right_schema, **kwargs):
    """The per-bucket kernel ``bucketed_hash_join`` hands ``co_group``."""
    with mock.patch.object(join_mod, "co_group", lambda _l, _r, _on, fn, *_a, **_k: fn):
        return join_mod.bucketed_hash_join(
            None, None, "k", how=how, left_schema=left_schema,
            right_schema=right_schema, **kwargs,
        )


def _rows(t: pa.Table) -> list:
    return list(zip(*(t.column(c).to_pylist() for c in t.column_names)))


def _same_join(got: pa.Table, want: pa.Table, ordered: bool):
    assert got.schema == want.schema
    if ordered:
        assert _rows(got) == _rows(want)
    else:
        assert sorted(_rows(got), key=repr) == sorted(_rows(want), key=repr)


JOIN_CASES = ["nulls_left", "nulls_both", "int_nulls_both", "bigint", "left_distinct",
              "empty_left", "empty_right", "both_empty"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", JOIN_CASES)
@pytest.mark.parametrize("how", HOWS)
def test_join_kernel(how, case, seed):
    left, right, kwargs = _join_case(case, seed)
    got = _new_join_kernel(how, left.schema, right.schema, suffix="__r", **kwargs)(left, right)
    if case == "int_nulls_both" and how in ("semi", "anti"):
        # declared: a null key matches a null key here too
        assert right.column("k").null_count > 0
        found = set(right.column("k").to_pylist())
        keep = [(k in found) == (how == "semi") for k in left.column("k").to_pylist()]
        assert _rows(got) == [r for r, m in zip(_rows(left), keep) if m]
        return
    want = ref_join_kernel("k", how, "__r", kwargs.get("left_distinct"),
                           left.schema, right.schema)(left, right)
    shortcut = how == "inner" and want.num_rows == left.num_rows
    _same_join(got, want, ordered=how != "outer" and not shortcut)
    if how not in ("semi", "anti"):
        assert got.column_names == ["k", "v", "w", "v__r"]


@pytest.mark.parametrize("how", HOWS)
def test_join_kernel_list_payloads(how):
    # pyarrow's join rejects list payloads; the kernel only joins keys
    left = pa.table({"k": ["a", "b", None], "v": pa.array([[1], [2, 3], []], pa.list_(pa.int64()))})
    right = pa.table({"k": ["b", "b", "c", None],
                      "v": pa.array([[BIG], None, [5], [6]], pa.list_(pa.int64()))})
    got = _new_join_kernel(how, left.schema, right.schema)(left, right)
    a, b, null = ("a", [1]), ("b", [2, 3]), (None, [])
    want = {
        "inner": [b + ([BIG],), b + (None,), null + ([6],)],
        "left": [a + (None,), b + ([BIG],), b + (None,), null + ([6],)],
        "right": [b + ([BIG],), b + (None,), ("c", None, [5]), null + ([6],)],
        "outer": [a + (None,), b + ([BIG],), b + (None,), null + ([6],), ("c", None, [5])],
        "semi": [b, null],
        "anti": [a],
    }[how]
    assert _rows(got) == want
    assert got.schema.field("v").type == pa.list_(pa.int64())


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_join_salted_buckets(how):
    # salt > 1 spreads each key's left rows over sub-buckets that each
    # see all of its right rows; both kernels run under one co_group
    left, right, _ = _join_case("nulls_both", 7)
    left, right = pa.concat_tables([left] * 4), pa.concat_tables([right] * 2)
    schemas = {"left_schema": left.schema, "right_schema": right.schema}
    got = join_mod.bucketed_hash_join(
        ArrowFrame(left), ArrowFrame(right), "k", n_buckets=2, how=how, salt=3, **schemas
    ).to_arrow()
    ref = ref_join_kernel("k", how, "_r", None, left.schema, right.schema)
    want = co_group(ArrowFrame(left), ArrowFrame(right), "k", ref, 2, salt=3, **schemas).to_arrow()
    # the inner shortcut may hit any sub-bucket
    _same_join(got, want, ordered=how != "inner")
    unsalted = join_mod.bucketed_hash_join(
        ArrowFrame(left), ArrowFrame(right), "k", n_buckets=2, how=how, **schemas
    ).to_arrow()
    _same_join(got, unsalted, ordered=False)
