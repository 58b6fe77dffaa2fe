"""Generic joins for two large sides (neither broadcastable).

The portable Ray Data pattern (no reliance on a version-specific
``Dataset.join``): both sides go through ONE keyed exchange,
``functions/exchange.co_group`` — side tag, null-padding to one
declared schema, union, ``crc32(key) % B`` buckets — and each bucket
is hash-joined with a vectorized pandas merge.  B is sized so a
bucket's build side fits a worker's heap; a hot key is split with
``salt`` (see ``co_group``).  Every other keyed exchange in the engine
uses the same module (``keyed_exchange`` for one input).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.exchange import co_group


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
    pre-select it so only 8-byte keys shuffle.

    ``left_schema`` / ``right_schema``: optional ``pa.Schema`` for the
    corresponding side.  ``Dataset.schema()`` on a lazy multi-stage
    input EXECUTES the upstream pipeline (sorts included) just to see
    one block — a caller that already knows its column types should
    always pass them so plan construction stays free.

    ``left_distinct``: optional key-column list including ``on`` — dedup the
    left side on those columns inside each bucket before merging
    (deterministic: rows sorted on all left columns, first kept).
    Because the bucket key is ``on``, every duplicate of a
    ``left_distinct`` group lands in the same bucket, so this equals a
    global distinct WITHOUT paying a separate shuffle — used by
    ``minhash_dedup`` to fold its candidate-pair dedup into the join.
    """
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
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
        # sub-buckets and the per-bucket drop_duplicates is no longer a
        # global distinct
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

    # The per-bucket kernel converts each side to pandas with MASKED
    # integer dtypes (see _int_preserving_df) and emits Arrow with one
    # explicit schema — block schemas stay stable and int64 values
    # above 2^53 stay exact through the merge's null padding.
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

    return co_group(
        left_ds, right_ds, on, join_bucket, n_buckets, salt=salt,
        left_schema=left_schema, right_schema=right_schema,
    )
