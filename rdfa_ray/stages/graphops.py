"""RDF graph set operations over triple Datasets — the rdflib Graph
algebra (`g1 + g2`, `g1 & g2`, `g1 - g2`, rdflib/graph.py __add__ /
__mul__ / __sub__) and ``rdflib.compare.graph_diff`` re-expressed as
distributed key joins.

Each triple is reduced to ONE packed ``s\\x1fp\\x1fo`` key column
map-side, so the set operation is a single bucketed semi/anti join
shuffling ~key-sized rows; ``graph_diff`` labels the three regions
(both / only_a / only_b) the way rdflib's graph_diff returns
(in_both, in_first, in_second).

Ground triples only: bnode-aware diff (rdflib's to_isomorphic /
RGDA1 canonical labeling) is the serializer test-suite's
``isomorphic`` — at pipeline scale the engine's graphs are
skolemized/canonicalized first (stages/canonicalize.py), which is the
standard large-scale answer to bnode identity.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .join import bucketed_hash_join

_COLS = ("subj", "pred", "obj_value")
_SEP = "\x1f"
_TRIPLE_SCHEMA = pa.schema([(c, pa.string()) for c in _COLS])
_KEYED_SCHEMA = pa.schema(
    [(c, pa.string()) for c in _COLS] + [("__k", pa.string())]
)
_KEY_ONLY = pa.schema([("__k", pa.string())])


def _pack(batch: pa.Table, cols=_COLS) -> pa.ChunkedArray:
    return pc.binary_join_element_wise(
        *[pc.cast(batch.column(c), pa.string()) for c in cols], _SEP
    )


def _with_key(ds, cols=_COLS):
    def add(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {**{c: pc.cast(batch.column(c), pa.string()) for c in cols},
             "__k": _pack(batch, cols)}
        )

    return ds.map_batches(add, batch_format="pyarrow")


def _key_only(ds, cols=_COLS):
    def add(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({"__k": _pack(batch, cols)})

    return ds.map_batches(add, batch_format="pyarrow")


def _semi_or_anti(a_ds, b_ds, how: str, n_buckets: int, cols=_COLS):
    keyed = (
        _KEYED_SCHEMA
        if tuple(cols) == _COLS
        else pa.schema([(c, pa.string()) for c in cols] + [("__k", pa.string())])
    )
    out = bucketed_hash_join(
        _with_key(a_ds, cols),
        _key_only(b_ds, cols),  # only ~key-sized rows shuffle on the right
        on="__k",
        n_buckets=n_buckets,
        how=how,
        left_distinct=["__k"],  # set semantics, folded into the join
        left_schema=keyed,
        right_schema=_KEY_ONLY,
    )
    return out.drop_columns(["__k"])


def graph_intersection(a_ds, b_ds, n_buckets: int = 64):
    """Triples present in BOTH graphs (rdflib ``g1 & g2``)."""
    return _semi_or_anti(a_ds, b_ds, "semi", n_buckets)


def graph_difference(a_ds, b_ds, n_buckets: int = 64, cols=_COLS):
    """Rows of ``a`` absent from ``b`` (rdflib ``g1 - g2``), keyed on
    ``cols`` — pass 4 columns for quad (named-graph-aware) difference."""
    return _semi_or_anti(a_ds, b_ds, "anti", n_buckets, cols)


def graph_union(a_ds, b_ds, n_buckets: int = 64):
    """Set union (rdflib ``g1 + g2``): streaming union + distinct."""
    from .distinct import distinct

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {c: pc.cast(batch.column(c), pa.string()) for c in _COLS}
        )

    merged = a_ds.map_batches(project, batch_format="pyarrow").union(
        b_ds.map_batches(project, batch_format="pyarrow")
    )
    return distinct(merged, list(_COLS), n_buckets=n_buckets)


def graph_diff(a_ds, b_ds, n_buckets: int = 64):
    """rdflib.compare.graph_diff analogue: one Dataset labeled
    ``region`` in ('both', 'only_a', 'only_b').

    ONE exchange: both sides co-group on the packed triple key
    (``functions/exchange.co_group``), then each bucket labels its keys
    with vectorized ``isin`` presence flags — no per-key Python.
    Round 3 replaced the previous three bucketed joins (semi + 2x
    anti), which shuffled both graphs three times each, with this
    single pass — same output, one-third the exchange volume."""
    import numpy as np
    import pandas as pd

    from ..functions.exchange import co_group

    out_cols = [*_COLS, "region"]

    def label(at: pa.Table, bt: pa.Table) -> pd.DataFrame:
        # one row per triple key; both sides carry identical triple columns
        a = at.to_pandas().drop_duplicates("__k")
        b = bt.to_pandas().drop_duplicates("__k")
        in_b = a["__k"].isin(b["__k"]).to_numpy()
        a = a.assign(region=np.where(in_b, "both", "only_a"))
        b = b[~b["__k"].isin(a["__k"])].assign(region="only_b")
        return pd.concat([a, b], ignore_index=True)[out_cols]

    return co_group(
        _with_key(a_ds), _with_key(b_ds), "__k", label, n_buckets,
        left_schema=_KEYED_SCHEMA, right_schema=_KEYED_SCHEMA,
    )
