"""In-process stand-in for the Ray Dataset calls of the SPARQL query path.

A store query whose pruned read is small spends almost all of its time
in Ray Data's scheduling (each Dataset execution polls the streaming
executor) and almost none in Arrow work.  ``ArrowFrame`` lets such a
query run the UNCHANGED plan in the calling process: it holds one block and
implements exactly the ``Dataset`` methods that ``sparql_text``,
``sparql``, ``bgp``, ``closure``, ``join`` and ``distinct`` call, each
eagerly and each UDF once over the whole block.  No operator exists
twice — scans, joins, aggregates and filters are the same batch
functions Ray would run; the frame only replaces the executor (and
``closure`` runs a small edge set's rounds on one, whatever the
input).  The one exception is ``groupby().aggregate()``, which maps Ray's
``Count``/``Sum``/``Min``/``Max``/``Mean`` onto Arrow ``group_by``.
The finished frame is the query's answer: it shares ``CONSUMER_CALLS``
with a Dataset (its ``schema()`` is a ``pyarrow.Schema``) and adds
``to_arrow()``; any other Dataset method names the promotion.

The frame holds a ``pa.Table`` only: its transforms run
``batch_format="pyarrow"`` UDFs, the query path's one batch format;
its consumer calls hand out every format a Dataset does.

Empty frames follow Ray's empty Datasets: a UDF is never called on
zero rows (Ray's batcher skips empty blocks), so a transform of an
empty frame has no schema, and ``to_pandas()`` of any zero-row frame
is a zero-column DataFrame.
"""

from __future__ import annotations

import inspect

import pyarrow as pa
import pyarrow.compute as pc


# the result calls a small store query's frame shares with a Dataset
CONSUMER_CALLS = ("iter_batches", "iter_rows", "take_all", "to_pandas",
                  "count", "schema", "columns", "materialize")
_PROMOTE = "ray.data.from_arrow(res.to_arrow())"


def _acc(block):
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block)


def _rows(block) -> int:
    return 0 if block is None else block.num_rows


def _concat(blocks: list):
    """One block from UDF outputs: zero-row blocks only lend a schema
    when nothing else has rows (Ray drops them at consumption too)."""
    full = [b for b in blocks if _rows(b)]
    if not full:
        typed = [b for b in blocks if b is not None and len(b.columns)]
        return typed[0] if typed else None
    if len(full) == 1:
        return full[0]
    from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder

    merged = DelegatingBlockBuilder()
    for b in full:
        merged.add_block(b)
    return merged.build()


def _pyarrow_only(batch_format):
    if batch_format != "pyarrow":
        raise ValueError(
            "an ArrowFrame runs batch_format='pyarrow' UDFs only, got %r; "
            "promote the frame with %s for other formats"
            % (batch_format, _PROMOTE)
        )


def _call(fn, batch, fn_args, fn_kwargs) -> list:
    """UDF outputs; a generator UDF yields several."""
    out = fn(batch, *(fn_args or ()), **(fn_kwargs or {}))
    outs = list(out) if inspect.isgenerator(out) else [out]
    if not all(isinstance(o, pa.Table) for o in outs):
        raise TypeError("an ArrowFrame UDF must return pa.Table")
    return outs


def _udf(fn, ctor_args, ctor_kwargs):
    """Ray's class UDFs are constructed once per actor; here once."""
    if isinstance(fn, type):
        return fn(*(ctor_args or ()), **(ctor_kwargs or {}))
    return fn


def _keys(key) -> list:
    if key is None:
        return []
    return [key] if isinstance(key, str) else list(key)


def _group_bounds(t: pa.Table, keys: list) -> list:
    """Start offsets of each key run in a key-sorted table, plus its
    length; nulls form one group, as in Ray."""
    n = t.num_rows
    if not keys or n < 2:
        return [0, n]
    changed = None
    for k in keys:
        col = t.column(k).combine_chunks()
        a, b = col.slice(1), col.slice(0, n - 1)
        eq = pc.equal(a, b)
        same = pc.if_else(
            pc.is_null(eq), pc.and_(pc.is_null(a), pc.is_null(b)), eq
        )
        diff = pc.invert(same)
        changed = diff if changed is None else pc.or_(changed, diff)
    starts = pc.add(pc.indices_nonzero(changed), 1).to_pylist()
    return [0, *starts, n]


_ARROW_AGG = {"Sum": "sum", "Min": "min", "Max": "max", "Mean": "mean"}


class _GroupedFrame:
    def __init__(self, frame: "ArrowFrame", key):
        self._frame = frame
        self._keys = _keys(key)

    def map_groups(self, fn, *, batch_format="default", fn_args=None,
                   fn_kwargs=None, fn_constructor_args=None,
                   fn_constructor_kwargs=None, **_ray_args):
        """One ``fn`` call per key, in sorted key order."""
        _pyarrow_only(batch_format)
        block = self._frame._block
        if not _rows(block):
            return ArrowFrame(None)
        fn = _udf(fn, fn_constructor_args, fn_constructor_kwargs)
        t = block.sort_by([(k, "ascending") for k in self._keys]) if self._keys else block
        bounds = _group_bounds(t, self._keys)
        outs = []
        for lo, hi in zip(bounds, bounds[1:]):
            outs.extend(_call(fn, t.slice(lo, hi - lo), fn_args, fn_kwargs))
        return ArrowFrame(_concat(outs))

    def aggregate(self, *aggs):
        """Ray's ``Count``/``Sum``/``Min``/``Max``/``Mean`` as one Arrow
        ``group_by``; output is the key columns then one column per
        aggregate (named as Ray names it), sorted by key."""
        block = self._frame._block
        if not _rows(block):
            return ArrowFrame(None)
        specs = []
        for agg in aggs:
            kind = type(agg).__name__
            on = agg.get_target_column()
            skip = bool(getattr(agg, "_ignore_nulls", True))
            if kind == "Count":
                if on is None:
                    specs.append(([], "count_all"))
                else:
                    mode = "only_valid" if skip else "all"
                    specs.append((on, "count", pc.CountOptions(mode=mode)))
            elif kind in _ARROW_AGG:
                opts = pc.ScalarAggregateOptions(skip_nulls=skip)
                specs.append((on, _ARROW_AGG[kind], opts))
            else:
                raise NotImplementedError(
                    "in-process groupby().aggregate() supports Count/Sum/"
                    "Min/Max/Mean, not %s" % kind
                )
        g = block.group_by(self._keys, use_threads=False).aggregate(specs)
        # Arrow names outputs '<col>_<fn>' (or 'count_all'): positional
        agg_cols = [c for c in g.column_names if c not in self._keys]
        cols = {k: g.column(k) for k in self._keys}
        for agg, c in zip(aggs, agg_cols):
            cols[agg.name] = g.column(c)
        out = pa.Table.from_pydict(cols)
        if self._keys:
            out = out.sort_by([(k, "ascending") for k in self._keys])
        return ArrowFrame(out)


class ArrowFrame:
    """One materialized ``pa.Table`` (or ``None`` for an empty result of
    unknown schema) behind the subset of the ``ray.data.Dataset`` API
    the query path uses."""

    __slots__ = ("_block",)

    def __init__(self, block: pa.Table | None):
        if block is not None and not isinstance(block, pa.Table):
            raise TypeError("an ArrowFrame holds a pa.Table, got %r" % type(block))
        self._block = block

    # -- transforms ------------------------------------------------------

    def map_batches(self, fn, *, batch_format="default", fn_args=None,
                    fn_kwargs=None, fn_constructor_args=None,
                    fn_constructor_kwargs=None, **_ray_args):
        _pyarrow_only(batch_format)
        if not _rows(self._block):
            return ArrowFrame(None)
        fn = _udf(fn, fn_constructor_args, fn_constructor_kwargs)
        return ArrowFrame(_concat(_call(fn, self._block, fn_args, fn_kwargs)))

    def materialize(self):
        return self

    def repartition(self, *_args, **_kwargs):
        return self

    def select_columns(self, cols, **_ray_args):
        cols = _keys(cols)
        return self.map_batches(lambda t: t.select(cols), batch_format="pyarrow")

    def drop_columns(self, cols, **_ray_args):
        cols = _keys(cols)
        return self.map_batches(
            lambda t: t.drop_columns(cols), batch_format="pyarrow"
        )

    def rename_columns(self, names, **_ray_args):
        def rename(t: pa.Table) -> pa.Table:
            if isinstance(names, dict):
                return t.rename_columns([names.get(c, c) for c in t.column_names])
            return t.rename_columns(list(names))

        return self.map_batches(rename, batch_format="pyarrow")

    def union(self, *others):
        for o in others:
            if not isinstance(o, ArrowFrame):
                raise TypeError(
                    "ArrowFrame.union takes frames, got %r; promote the frame "
                    "with %s to union it with a Dataset" % (type(o), _PROMOTE)
                )
        return ArrowFrame(_concat([self._block, *(o._block for o in others)]))

    def limit(self, n: int):
        if _rows(self._block) <= n:
            return self
        return ArrowFrame(self._block.slice(0, n))

    def sort(self, key, descending=False):
        if not _rows(self._block):
            return ArrowFrame(None)
        keys = _keys(key)
        desc = descending if isinstance(descending, list) else [descending] * len(keys)
        return ArrowFrame(
            self._block.sort_by([(k, "descending" if d else "ascending") for k, d in zip(keys, desc)])
        )

    def groupby(self, key):
        return _GroupedFrame(self, key)

    # -- consumers -------------------------------------------------------

    def count(self) -> int:
        return _rows(self._block)

    def schema(self):
        if self._block is None or not self._block.num_columns:
            return None
        return self._block.schema

    def columns(self):
        schema = self.schema()
        return None if schema is None else list(schema.names)

    def to_pandas(self):
        if not _rows(self._block):
            return pa.table({}).to_pandas()
        return _acc(self._block).to_pandas().reset_index(drop=True)

    def to_arrow(self) -> pa.Table:
        """The frame as one Arrow table (zero columns when the frame is
        an empty result of unknown schema)."""
        return pa.table({}) if self._block is None else self._block

    def iter_rows(self):
        if _rows(self._block):
            yield from _acc(self._block).iter_rows(public_row_format=True)

    def take_all(self) -> list:
        return list(self.iter_rows())

    def iter_batches(self, *, batch_size=256, batch_format="default", **_kwargs):
        n = _rows(self._block)
        step = n if batch_size is None else batch_size
        fmt = "numpy" if batch_format == "default" else batch_format
        for lo in range(0, n, max(step, 1)):
            yield _acc(self._block.slice(lo, step)).to_batch_format(fmt)

    def __repr__(self):
        return "ArrowFrame(num_rows=%d, schema=%s)" % (self.count(), self.columns())

    def __getattr__(self, name):
        # only for a name the frame lacks, e.g. write_parquet or take
        if name.startswith("__"):
            raise AttributeError(name)
        raise AttributeError(
            "ArrowFrame has no %r: a small store query's answer supports %s "
            "and to_arrow; promote it with %s for the rest of the Dataset API"
            % (name, ", ".join(CONSUMER_CALLS), _PROMOTE)
        )


def from_arrow_like(like, table: pa.Table):
    """A Dataset holding ``table``, of the same kind as ``like``: a frame
    when ``like`` is one, a Ray Dataset otherwise.  Every typed empty
    or rebuilt input on the query path goes through here, so a frame
    plan never turns into a Ray plan halfway."""
    if isinstance(like, ArrowFrame):
        return ArrowFrame(table)
    import ray.data as rd

    return rd.from_arrow(table)


def blocks(ds) -> list:
    """Every block of ``ds`` (a frame or a Ray Dataset) as a
    ``pa.Table``, zero-row blocks included."""
    if isinstance(ds, ArrowFrame):
        return [ds.to_arrow()]
    import ray

    return ray.get(ds.to_arrow_refs())


def string_table(ds) -> pa.Table:
    """All of ``ds`` (a frame or a Ray Dataset) as one ``pa.Table``
    whose columns are all ``pa.string()``, nulls kept: what a broadcast
    side carries into a map UDF's closure."""
    got = blocks(ds)
    full = [b for b in got if b.num_rows] or [b for b in got if b.num_columns][:1]
    if not full:
        return pa.table({})
    schema = pa.schema([(c, pa.string()) for c in full[0].column_names])
    return pa.concat_tables([b.select(schema.names).cast(schema) for b in full])
