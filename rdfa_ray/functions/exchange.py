"""The keyed exchange: the one place a Dataset is hash-partitioned by key.

Every crc32-bucketed all-to-all in the engine goes through one of two
functions:

* :func:`keyed_exchange` (one input): append a private
  ``crc32(key) % n_buckets`` column, group on it, and call ``fn`` once
  per bucket with that column dropped;
* :func:`co_group` (two inputs): tag each row with its side, pad both
  sides to one declared union schema, union, bucket on the shared key,
  and call ``fn(l, r)`` once per bucket with each side's own columns.
  ``salt > 1`` spreads each left row over ``salt`` sub-buckets and
  replicates the right side into all of them (hot-key splitting).

Buckets are coarse: ``fn`` sees a whole bucket of keys and is
vectorized over it (per-key dispatch measured 21x slower).  Neither
Ray nor ``stages.localframe.ArrowFrame`` calls ``fn`` on an empty
group, so ``fn`` needs no empty guard.  The bucket is
``functions.hashing.crc32_bucket`` on one key column and
``crc32_bucket_concat`` on several, so assignment is bit-identical to
the hand-rolled exchanges these replaced.

Deliberately not routed through here:

* ``pipelines/flagship.py``'s ``groupby("part")``: the writer names
  files by ``part`` and resume filters on it;
* ``pipelines/curation_export.py``'s shard writer (groups by shard id);
* groupbys on a natural key the UDF reads (``pipelines/queries.py``
  minhash members and first-only, ``pipelines/relational.py`` top-k
  per segment and ordered concat, ``stages/dedup.py`` cell pairs,
  ``stages/graphalgo.py`` wedges by ``src``, ``stages/packing.py``,
  ``stages/semdedup.py``, ``stages/sketch.py`` x2);
* non-crc32 buckets whose assignment must stay bit-identical
  (``stages/graphalgo.py`` splitmix buckets x2, ``stages/dedup.py``
  ``gram % B`` and ``doc_id % B``, ``stages/ann.py`` ``bucket & 63``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import crc32_bucket, crc32_bucket_concat

_BUCKET = "__exchange_bucket"
_LEFT = "__exchange_left"

_PY_TO_PA = {str: pa.string(), int: pa.int64(), float: pa.float64(),
             bool: pa.bool_(), bytes: pa.binary()}


def _pa_type(t):
    """Ray Schema.types may hold Python types (pandas-produced
    datasets) instead of Arrow DataTypes; normalize."""
    if isinstance(t, pa.DataType):
        return t
    if t in _PY_TO_PA:
        return _PY_TO_PA[t]
    try:
        return pa.from_numpy_dtype(t)
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.string()


def _keys(key) -> list:
    return [key] if isinstance(key, str) else list(key)


def _bucket(batch: pa.Table, keys: list, n_buckets: int) -> pa.Array:
    if len(keys) == 1:
        return crc32_bucket(batch.column(keys[0]), n_buckets)
    return crc32_bucket_concat(batch, keys, n_buckets)


def keyed_exchange(ds, key, fn, n_buckets: int, batch_format: str = "pandas"):
    """``fn(bucket)`` once per ``crc32(key) % n_buckets`` bucket, every
    row of a key in one call; ``key`` is a column or a list of columns.
    ``fn`` gets the bucket in ``batch_format`` without the private
    bucket column, and its outputs form the returned Dataset."""
    from ray.data.block import BlockAccessor

    keys = _keys(key)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(_BUCKET, _bucket(batch, keys, n_buckets))

    def call(group: pa.Table):
        own = BlockAccessor.for_block(group.drop_columns([_BUCKET]))
        return fn(own.to_batch_format(batch_format))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(_BUCKET)
        .map_groups(call, batch_format="pyarrow")
    )


def co_group(left, right, key, fn, n_buckets: int, salt: int = 1,
             left_schema=None, right_schema=None):
    """``fn(l, r)`` once per bucket of the shared ``key`` column(s):
    ``l`` / ``r`` are ``pa.Table``s holding that bucket's left / right
    rows, each with the key columns then its side's other declared
    columns (either may have zero rows).

    ``left_schema`` / ``right_schema`` (``pa.Schema`` or Ray schema)
    declare each side's columns and types; undeclared columns are not
    shuffled.  Every block of the union is cast and null-padded to
    these types, so the union has one schema and int64 values survive
    the padding bit-exactly.  A key takes the left side's declared
    type (else the right's, else stays as it is).  Omitted, a schema is
    read with ``Dataset.schema()``, which EXECUTES a lazy upstream
    plan to see one block — callers that know their types pass them.

    ``salt`` > 1 splits hot keys: each left row lands in sub-bucket
    ``bucket * salt + crc32(row) % salt`` and the right side is
    replicated into all ``salt`` sub-buckets, so a key's left rows
    spread over ``salt`` calls that each see all of its right rows."""
    keys = _keys(key)
    salt = max(1, int(salt))
    sides = []
    for ds, schema, prefix in ((left, left_schema, "__l"), (right, right_schema, "__r")):
        schema = ds.schema() if schema is None else schema
        types = {n: _pa_type(t) for n, t in zip(schema.names, schema.types)}
        rest = [c for c in schema.names if c not in keys]
        sides.append((list(schema.names), types, rest,
                      ["%s%d" % (prefix, i) for i in range(len(rest))]))
    (l_names, l_types, l_rest, l_priv), (_, r_types, r_rest, r_priv) = sides
    key_types = {k: l_types.get(k, r_types.get(k)) for k in keys}

    def typed(col, want):
        return col if want is None or col.type == want else pc.cast(col, want)

    def tag(is_left: bool):
        def tag_batch(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {k: typed(batch.column(k), key_types[k]) for k in keys}
            for rest, priv, types, own in ((l_rest, l_priv, l_types, is_left),
                                           (r_rest, r_priv, r_types, not is_left)):
                for c, p in zip(rest, priv):
                    cols[p] = (typed(batch.column(c), types[c]) if own
                               else pa.nulls(n, types[c]))
            cols[_LEFT] = pa.repeat(pa.scalar(is_left), n)
            tagged = pa.Table.from_pydict(cols)
            bucket = _bucket(batch, keys, n_buckets)
            if salt == 1:
                return tagged.append_column(_BUCKET, bucket)
            base = bucket.to_numpy(zero_copy_only=False).astype(np.int32) * salt
            if is_left:
                spread = crc32_bucket_concat(batch, l_names, salt)
                sub = spread.to_numpy(zero_copy_only=False).astype(np.int32)
                return tagged.append_column(_BUCKET, pa.array(base + sub, pa.int32()))
            return pa.concat_tables(
                tagged.append_column(_BUCKET, pa.array(base + s, pa.int32()))
                for s in range(salt)
            )

        return tag_batch

    def call(group: pa.Table):
        is_left = group.column(_LEFT)
        l = group.filter(is_left).select(keys + l_priv)
        r = group.filter(pc.invert(is_left)).select(keys + r_priv)
        return fn(l.rename_columns(keys + l_rest), r.rename_columns(keys + r_rest))

    tagged = left.map_batches(tag(True), batch_format="pyarrow").union(
        right.map_batches(tag(False), batch_format="pyarrow")
    )
    return tagged.groupby(_BUCKET).map_groups(call, batch_format="pyarrow")
