"""Distributed transitive closure — the SPARQL property-path ``p+``
/ rdfs:subClassOf* reachability an RDFLib user gets from
``graph.transitive_objects`` (rdflib/graph.py) or a ``p+`` path query,
re-expressed as semi-naive iteration over Ray Datasets.

Semi-naive datalog evaluation: only the LAST round's new pairs join
against the base edges each round, so total work is O(|closure|)
joins instead of O(|closure| * depth):

    paths    := edges
    frontier := edges
    repeat:
        step     = frontier JOIN edges ON frontier.dst = edges.src
                   -> (frontier.src, edges.dst), deduped
        frontier = step ANTI-JOIN paths   (drop already-known pairs)
        if frontier is empty: stop
        paths    = paths UNION frontier

The base edges are deduplicated once at entry (SPARQL ``p+`` has set
semantics), so every mode returns each pair once.  Two execution
modes per round, chosen by measured frontier size:

* **Broadcast round** (frontier fits the driver —
  ``broadcast_limit`` pairs): the frontier rides in the map UDF's
  closure (shipped once per operator) and the step join is
  ``join.join_indices`` INSIDE ``map_batches`` over the
  (arbitrarily large) edge set — no exchange.  The known-pair
  check is likewise a broadcast ``pc.is_in`` scan over ``paths``
  that returns only the (small) matched keys; ``paths`` itself NEVER
  moves.  Per-round cost: one read pass over edges + one over paths,
  zero all-to-all.  This is the common case for hierarchy/ontology
  closures whose per-depth frontier is millions of pairs at most.

* **Shuffle round** (frontier too big to broadcast): the general
  bucketed-hash-join formulation — one exchange keyed on the join
  column and one anti-join exchange keyed on the composite pair key.
  Only (int64,int64) pairs plus the 16-byte-ish key shuffle, and the
  anti right side ships ONLY the key column.  Block counts are
  re-bounded every round (``repartition``) because each sort-based
  exchange otherwise multiplies block counts geometrically across
  rounds — the measured pathology that motivated this split.

Cycle safety: a pair enters ``paths`` exactly once (anti-join /
known-set check), so cycles saturate and the frontier empties.

An edge set of at most ``local_limit`` rows runs the same rounds over
an in-process ``localframe.ArrowFrame``: no Ray round-trips, which
cost ~1.5 s of orchestration PER ROUND for microseconds of work
(measured on the 500-doc category tree: 8.7 s -> <1 s).

The per-round ``materialize()`` on the shuffle path is REQUIRED, not
convenience: ``paths`` and ``frontier`` are each consumed by multiple
later rounds and Ray re-executes dataset lineage per consumer.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .distinct import distinct, group_in_order
from .join import bucketed_hash_join, join_indices
from .localframe import ArrowFrame, blocks, from_arrow_like


def _pair_schema(kt: pa.DataType) -> pa.Schema:
    return pa.schema([("src", kt), ("dst", kt)])


_EMPTY_KK = pa.schema([("kk", pa.string())]).empty_table()


def _pack_kk(tbl: pa.Table) -> pa.ChunkedArray:
    """Composite '(src)US(dst)' string key for pair-set operations."""
    return pc.binary_join_element_wise(
        pc.cast(tbl.column("src"), pa.string()),
        pc.cast(tbl.column("dst"), pa.string()),
        "\x1f",
    )


def _table(ds, schema: pa.Schema) -> pa.Table:
    """All rows of ``ds`` (a frame or a Dataset) as one table of
    ``schema``, typed even when empty."""
    full = [b.select(schema.names).cast(schema) for b in blocks(ds) if b.num_rows]
    return pa.concat_tables(full) if full else schema.empty_table()


def _broadcast_round(edges, paths, frontier: pa.Table, kt: pa.DataType) -> pa.Table:
    """One semi-naive round with the frontier broadcast.  Returns the
    new pairs (deduped, unknown pairs only)."""
    schema = _pair_schema(kt)
    fr = frontier.rename_columns(["src", "k"])

    def step_batch(batch: pa.Table) -> pa.Table:
        e = batch.select(["src", "dst"]).rename_columns(["k", "dst"])
        li, ri = join_indices(fr, e, ["k"])
        return group_in_order(pa.Table.from_arrays(
            [fr.column("src").take(li), e.column("dst").take(ri)], schema=schema
        ), ["src", "dst"])

    step = group_in_order(
        _table(edges.map_batches(step_batch, batch_format="pyarrow"), schema),
        ["src", "dst"],
    )
    if not step.num_rows:
        return step
    step_kk = _pack_kk(step).combine_chunks()

    def known_batch(batch: pa.Table) -> pa.Table:
        kk = _pack_kk(batch)
        return pa.table({"kk": kk.filter(pc.is_in(kk, value_set=step_kk))})

    known = _table(
        paths.map_batches(known_batch, batch_format="pyarrow"), _EMPTY_KK.schema
    ).column("kk").combine_chunks()
    return step.filter(pc.invert(pc.is_in(step_kk, value_set=known)))


def _shuffle_round(edges, paths, frontier, n_buckets: int, kt: pa.DataType):
    """One semi-naive round as two bucketed exchanges.  Returns the
    new-pairs Dataset (materialized, block count bounded)."""
    empty = _pair_schema(kt).empty_table()

    def fr_key(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"src": batch.column("src"), "k": batch.column("dst")}
        )

    def ed_key(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"k": batch.column("src"), "dst2": batch.column("dst")}
        )

    step = bucketed_hash_join(
        frontier.map_batches(fr_key, batch_format="pyarrow"),
        edges.map_batches(ed_key, batch_format="pyarrow"),
        on="k",
        n_buckets=n_buckets,
        how="inner",
        left_schema=pa.schema([("src", kt), ("k", kt)]),
        right_schema=pa.schema([("k", kt), ("dst2", kt)]),
    )

    def to_pairs(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return empty
        return pa.Table.from_pydict(
            {"src": batch.column("src"), "dst": batch.column("dst2")}
        )

    def dedup_pairs(batch: pa.Table) -> pa.Table:
        return group_in_order(batch, ["src", "dst"])

    step_pairs = step.map_batches(to_pairs, batch_format="pyarrow").map_batches(
        dedup_pairs, batch_format="pyarrow"
    )

    pair_schema_k = pa.schema([("src", kt), ("dst", kt), ("kk", pa.string())])

    def pack(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return pair_schema_k.empty_table()
        return batch.append_column("kk", _pack_kk(batch))

    def pack_key_only(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return _EMPTY_KK
        return pa.Table.from_pydict({"kk": _pack_kk(batch)})

    return (
        bucketed_hash_join(
            step_pairs.map_batches(pack, batch_format="pyarrow"),
            # anti right side ships ONLY the 20-byte key, not the pairs
            paths.map_batches(pack_key_only, batch_format="pyarrow"),
            on="kk",
            n_buckets=n_buckets,
            how="anti",
            left_distinct=["kk"],
            left_schema=pair_schema_k,
            right_schema=pa.schema([("kk", pa.string())]),
        )
        .drop_columns(["kk"])
        # re-bound block counts: each sort exchange otherwise emits
        # O(input blocks) blocks and rounds compound geometrically
        .repartition(n_buckets)
        .materialize()
    )


def transitive_closure(
    edges_ds,
    n_buckets: int = 32,
    max_rounds: int = 64,
    broadcast_limit: int = 500_000,
    key_type: pa.DataType = pa.int64(),
    local_limit: int = 100_000,
):
    """``edges_ds``: (src, dst) of ``key_type`` (int64 node ids, or
    string IRIs for SPARQL ``p+`` property paths).  Returns the Dataset
    of all (src, dst) pairs where dst is reachable from src in >= 1 hop
    (the closure INCLUDES the base edges).

    Adaptive execution, smallest to largest:
    * edge set <= ``local_limit`` rows: every round in-process over an
      ``ArrowFrame`` — the whole-graph analogue of a broadcast join's
      small side, chosen by the measured row count like an adaptive
      query engine picks a broadcast join;
    * frontier <= ``broadcast_limit``: zero-shuffle broadcast rounds
      (edges/paths stream, frontier broadcasts);
    * otherwise: general bucketed-exchange rounds.
    The result is a frame when ``edges_ds`` is one, else a Dataset.
    ``max_rounds`` is a runaway bound (covers path depth 64); hitting
    it raises rather than silently truncating.
    """
    kt = key_type
    schema = _pair_schema(kt)
    edges = edges_ds.materialize()
    n_edges = edges.count()
    if n_edges <= local_limit:
        # the edge set fits one process: every round runs in-process
        edges = ArrowFrame(group_in_order(_table(edges, schema), ["src", "dst"]))
    else:
        # SPARQL p+ has set semantics: a repeated base edge is one path
        edges = distinct(edges, ["src", "dst"], n_buckets).materialize()
    paths = edges
    # the frontier is a small table (broadcast rounds) or a Dataset
    frontier, frontier_t = edges, None
    frontier_rows = edges.count()

    for _ in range(max_rounds):
        if frontier_rows <= broadcast_limit:
            if frontier_t is None:
                frontier_t = _table(frontier, schema)
            frontier_t = _broadcast_round(edges, paths, frontier_t, kt)
            frontier_rows = frontier_t.num_rows
            new = from_arrow_like(edges, frontier_t)
        else:
            new = _shuffle_round(edges, paths, frontier, n_buckets, kt)
            frontier_rows = new.count()
            frontier_t = None
        if frontier_rows == 0:
            if isinstance(paths, ArrowFrame):
                return from_arrow_like(edges_ds, _table(paths, schema))
            return paths
        paths = paths.union(new).materialize()
        frontier = new
    raise RuntimeError(
        "transitive_closure did not converge in %d rounds (path depth "
        "exceeds the bound — raise max_rounds)" % max_rounds
    )
