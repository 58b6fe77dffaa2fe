"""Generic joins for two large sides (neither broadcastable), and the
one Arrow index join every join kernel in the engine runs on.

The portable Ray Data pattern (no reliance on a version-specific
``Dataset.join``): both sides go through ONE keyed exchange,
``functions/exchange.co_group`` — side tag, null-padding to one
declared schema, union, ``crc32(key) % B`` buckets — and each bucket
is joined by :func:`join_indices`.  B is sized so a bucket's build
side fits a worker's heap; a hot key is split with ``salt`` (see
``co_group``).  Every other keyed exchange in the engine uses the same
module (``keyed_exchange`` for one input).

:func:`join_indices` joins only the key columns plus a row index, and
the callers gather their payload columns with ``take``: pyarrow 16.1's
``Table.join`` rejects list payloads ("list<item: int64> is not
supported in join non-key field"), while ``take`` carries list, binary
and int64 columns of any value through null padding unchanged.  The
BGP broadcast step (``bgp._broadcast_step``) and the transitive
closure's rounds (``closure``) call it too.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import co_group
from .distinct import group_in_order

_L, _R = "__join_l", "__join_r"
_ARROW_HOW = {"inner": "inner", "left": "left outer", "right": "right outer",
              "outer": "full outer", "semi": "left semi", "anti": "left anti"}


def _null_safe_keys(lk: pa.Table, rk: pa.Table, keys: list):
    """``(lk, rk, keys)`` under which a null key matches a null key, as
    in pandas (Arrow's join never matches nulls): a key column holding
    nulls on both sides gets an is-null flag key and its nulls filled
    with one of its valid values; a key that is all null on both sides
    is replaced by its flag alone."""
    out = []
    for k in keys:
        a, b = lk.column(k), rk.column(k)
        if not (a.null_count and b.null_count):
            out.append(k)
            continue
        flag = k + "__null"
        lk = lk.append_column(flag, pc.is_null(a))
        rk = rk.append_column(flag, pc.is_null(b))
        valid = pc.drop_null(pa.chunked_array(a.chunks + b.chunks, a.type))
        if not len(valid):
            out.append(flag)
            continue
        fill = valid[0]
        lk = lk.set_column(lk.schema.get_field_index(k), k, pc.fill_null(a, fill))
        rk = rk.set_column(rk.schema.get_field_index(k), k, pc.fill_null(b, fill))
        out += [k, flag]
    return lk, rk, out


def join_indices(left: pa.Table, right: pa.Table, keys, how: str = "inner"):
    """Row indices ``(left_idx, right_idx)`` (int64) of the ``how``
    join of two tables on the same-named ``keys``, with pandas'
    ``merge`` semantics: a null key matches a null key, and rows come
    out in (left row, right row) order — (right row, left row) for
    ``'right'``.  An unmatched side's index is null (``'left'`` /
    ``'right'`` / ``'outer'`` padding; outer rows come in left order,
    then the unmatched right rows).  ``'semi'`` / ``'anti'`` return
    ``(left_idx, None)``: the left rows with (without) a match.

    Only the keys and a row index enter ``Table.join``; gather the
    payload columns with ``take``."""
    keys = list(keys)
    lk, rk, jkeys = _null_safe_keys(left.select(keys), right.select(keys), keys)
    lk = lk.append_column(_L, pa.array(np.arange(lk.num_rows, dtype=np.int64)))
    rk = rk.append_column(_R, pa.array(np.arange(rk.num_rows, dtype=np.int64)))
    m = lk.join(rk, keys=jkeys, join_type=_ARROW_HOW[how], use_threads=False)
    if how in ("semi", "anti"):
        li = m.column(_L)
        return li.take(pc.sort_indices(li)), None
    order = [_R, _L] if how == "right" else [_L, _R]
    m = m.sort_by([(c, "ascending") for c in order])
    return m.column(_L), m.column(_R)


def bucketed_hash_join(
    left_ds,
    right_ds,
    on: str,
    n_buckets: int = 64,
    how: str = "inner",
    suffix: str = "_r",
    left_distinct: list | None = None,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    salt: int = 1,
):
    """Join two Datasets on a single key column; right-side name
    collisions (other than the key) get ``suffix``.

    ``how``: ``'inner'``, ``'left'``, ``'right'``, ``'outer'`` (full),
    ``'semi'`` (left rows with >= 1 right match; left columns only,
    each left row at most once) or ``'anti'`` (left rows with NO right
    match).  The tagged-union design co-locates BOTH sides of a key in
    one bucket, so right/full-outer are exact — the per-bucket
    early-out is mode-aware (a bucket empty on the preserved side
    still emits the other side's rows, null-padded).  For semi/anti
    the right side only contributes its key column — callers should
    pre-select it so only 8-byte keys shuffle.  Within a bucket, rows
    follow :func:`join_indices`' order.

    ``left_schema`` / ``right_schema``: optional ``pa.Schema`` for the
    corresponding side.  ``Dataset.schema()`` on a lazy multi-stage
    input EXECUTES the upstream pipeline (sorts included) just to see
    one block — a caller that already knows its column types should
    always pass them so plan construction stays free.

    ``left_distinct``: optional key-column list including ``on`` — dedup the
    left side on those columns inside each bucket before joining
    (deterministic: rows sorted on all left columns, first kept).
    Because the bucket key is ``on``, every duplicate of a
    ``left_distinct`` group lands in the same bucket, so this equals a
    global distinct WITHOUT paying a separate shuffle — used by
    ``minhash_dedup`` to fold its candidate-pair dedup into the join.
    """
    if how not in _ARROW_HOW:
        raise ValueError(
            "bucketed_hash_join supports how='inner'/'left'/'right'/"
            "'outer'/'semi'/'anti' only, got %r" % how
        )
    # ``salt`` > 1 splits a hot key (raising n_buckets cannot: all of
    # one key's rows hash to one bucket) at the cost of a salt-fold
    # right-side shuffle — see ``co_group``.  Each left row meets its
    # key's full right side exactly once, so the left-preserving modes
    # stay exact; right/full-outer would emit right rows once per
    # sub-bucket, so they refuse.  Fully-identical left rows share a
    # salt — row-level duplicates need ``left_distinct``, not salt.
    if salt > 1 and how in ("right", "outer"):
        raise ValueError(
            "salt > 1 would duplicate right-side rows under how=%r "
            "(right rows replicate into every sub-bucket)" % how
        )
    if salt > 1 and left_distinct:
        # the sub-bucket salt hashes ALL left columns, so rows equal on
        # left_distinct but differing elsewhere land in different
        # sub-buckets and the per-bucket dedup is no longer a global
        # distinct
        raise ValueError(
            "salt > 1 breaks the left_distinct global-dedup guarantee "
            "(duplicates spread across sub-buckets); pre-distinct the "
            "left side instead"
        )
    # pa.Schema and ray Schema expose the same .names/.types surface
    left_schema = left_schema if left_schema is not None else left_ds.schema()
    right_schema = (
        right_schema if right_schema is not None else right_ds.schema()
    )
    left_cols = list(left_schema.names)
    rename = {
        c: (c + suffix if c in left_cols and c != on else c)
        for c in right_schema.names
    }
    right_cols = [rename[c] for c in right_schema.names if c != on]
    out_cols = left_cols if how in ("semi", "anti") else left_cols + right_cols

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
        if left_distinct:
            # sorted on all left columns, the first row of each group
            lt = lt.take(pc.sort_indices(lt, [(c, "ascending") for c in left_cols]))
            rows = lt.select(left_distinct).append_column(
                _L, pa.array(np.arange(nl, dtype=np.int64))
            )
            lt = lt.take(group_in_order(rows, left_distinct, [(_L, "min")])
                         .column(_L + "_min"))
        li, ri = join_indices(lt, rt, [on], how)
        cols = [lt.column(c).take(li) for c in left_cols]
        if how in ("right", "outer"):
            # a right-only row's key comes from the right side
            k = left_cols.index(on)
            cols[k] = pc.coalesce(cols[k], rt.column(on).take(ri))
        if ri is not None:
            cols += [rt.column(c).take(ri) for c in right_cols]
        return pa.Table.from_arrays(cols, schema=out_schema)

    return co_group(
        left_ds, right_ds, on, join_bucket, n_buckets, salt=salt,
        left_schema=left_schema, right_schema=right_schema,
    )
