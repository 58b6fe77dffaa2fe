"""Duplicate-group clustering: connected components over candidate
pairs -> one canonical id (the component's min doc_id) per document.

This is the step a dedup pipeline actually acts on: pair lists
(exact, MinHash, SimHash, embedding) become groups, and every group
keeps its canonical member.

Distributed min-label propagation (the classic Pregel-style CC):

    labels(node) := node
    repeat until no label changes (or `iters` fixed rounds):
        messages = labels             (keep-own, also carries the OLD
                                       label for the convergence check)
                 u edges x labels(a) -> (b, label_a)
                 u edges x labels(b) -> (a, label_b)
        labels = min(message) per node       [Ray-native groupby Min]
        labels(node) = min(labels(node), labels(labels(node)))
                                             [pointer-doubling hop]

Each iteration is two ``bucketed_hash_join`` shuffles over the edges,
one hash aggregate, and one labels-only join (the doubling hop).  The
convergence check is FREE of extra shuffles: the keep-own message
carries the pre-superstep label through a second Min aggregate, and
the changed-row count is a cheap scan of the already-materialized
label table.  Pointer doubling makes chain-shaped components converge
in O(log diameter) supersteps — round-2's fixed ``iters=3`` mislabeled
any component whose reachable diameter exceeded 3 (cross-bucket LSH
chains a-b / b-c produce exactly those).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .join import bucketed_hash_join

_EDGES_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _count_changed(t: pa.Table) -> pa.Table:
    changed = pc.sum(
        pc.cast(pc.less(t.column("label"), t.column("__old")), pa.int64())
    ).as_py()
    return pa.Table.from_pydict({"n": pa.array([changed or 0], pa.int64())})


def connected_components(
    edges_ds,
    nodes_ds,
    iters: int | None = None,
    n_buckets: int = 64,
    max_iters: int = 30,
    pointer_double: bool = True,
):
    """``edges_ds``: (a:int64, b:int64); ``nodes_ds``: (node:int64).
    Returns a Dataset (node, label), label = the component's min node id.

    Default (``iters=None``): run supersteps until the label table is
    stable (exact convergence; ``max_iters`` is a runaway bound — with
    pointer doubling it covers diameters ~2^30).  Pass a fixed
    ``iters`` ONLY when the caller guarantees the diameter (e.g. star
    edges around the group min: diameter 1, ``iters=1`` skips the
    final no-change verification round).
    """
    from ray.data.aggregate import Min

    # Iterative algorithm: every superstep references `edges` and
    # `labels` MULTIPLE times, and Ray Datasets re-execute their whole
    # lineage per consumer — without materializing each superstep the
    # DAG re-runs combinatorially (measured: 127 s for what runs in
    # ~10 s materialized).  Labels are one small row per node; edges
    # are the candidate pairs — both bounded, the canonical case for
    # mid-pipeline materialization.
    edges_ds = edges_ds.materialize()
    labels = nodes_ds.map_batches(
        lambda t: pa.Table.from_pydict(
            {"node": t.column("node"), "label": t.column("node")}
        ),
        batch_format="pyarrow",
    ).materialize()

    # Block-count control: each superstep's joins/groupbys multiply
    # the label table's block count by ~3-4x (union of tag maps +
    # map_groups output), which compounds across supersteps — measured
    # 42 -> 168 -> 672 blocks and a matching 4x wall-time blowup per
    # round.  A cheap coalescing repartition after each superstep
    # keeps the recycled table at a fixed block count.
    label_blocks = max(4, min(n_buckets, labels.num_blocks()))

    fixed_rounds = iters is not None
    n_rounds = iters if fixed_rounds else max_iters
    for _ in range(n_rounds):
        lab_a = labels.map_batches(
            lambda t: pa.Table.from_pydict(
                {"a": t.column("node"), "label_a": t.column("label")}
            ),
            batch_format="pyarrow",
        )
        with_a = bucketed_hash_join(
            edges_ds, lab_a, on="a", n_buckets=n_buckets,
            left_schema=_EDGES_SCHEMA,
            right_schema=pa.schema([("a", pa.int64()), ("label_a", pa.int64())]),
        )
        msg_ab = with_a.map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": t.column("b"),
                    "cand": t.column("label_a"),
                    "own": pa.nulls(t.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        lab_b = labels.map_batches(
            lambda t: pa.Table.from_pydict(
                {"b": t.column("node"), "label_b": t.column("label")}
            ),
            batch_format="pyarrow",
        )
        with_b = bucketed_hash_join(
            edges_ds, lab_b, on="b", n_buckets=n_buckets,
            left_schema=_EDGES_SCHEMA,
            right_schema=pa.schema([("b", pa.int64()), ("label_b", pa.int64())]),
        )
        msg_ba = with_b.map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": t.column("a"),
                    "cand": t.column("label_b"),
                    "own": pa.nulls(t.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        # keep-own doubles as the old-label carrier: Min("own") ignores
        # the message rows' nulls, so the aggregate emits each node's
        # pre-superstep label alongside the new one — the convergence
        # check costs no extra shuffle
        keep_own = labels.map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": t.column("node"),
                    "cand": t.column("label"),
                    "own": t.column("label"),
                }
            ),
            batch_format="pyarrow",
        )
        new_labels = (
            keep_own.union(msg_ab, msg_ba)
            .groupby("node")
            .aggregate(Min("cand", alias_name="label"), Min("own", alias_name="__old"))
            .repartition(label_blocks)
        )
        if pointer_double:
            # labels(node) := min(labels(node), labels(labels(node)));
            # every label IS a node id, so the inner join loses no rows
            new_labels = new_labels.materialize()
            hop = labels.map_batches(
                lambda t: pa.Table.from_pydict(
                    {"label": t.column("node"), "label2": t.column("label")}
                ),
                batch_format="pyarrow",
            )
            doubled = bucketed_hash_join(
                new_labels, hop, on="label", n_buckets=n_buckets,
                left_schema=pa.schema(
                    [("node", pa.int64()), ("label", pa.int64()), ("__old", pa.int64())]
                ),
                right_schema=pa.schema(
                    [("label", pa.int64()), ("label2", pa.int64())]
                ),
            )
            new_labels = doubled.map_batches(
                lambda t: pa.Table.from_pydict(
                    {
                        "node": t.column("node"),
                        "label": pc.min_element_wise(
                            t.column("label"), t.column("label2")
                        ),
                        "__old": t.column("__old"),
                    }
                ),
                batch_format="pyarrow",
            ).repartition(label_blocks)
        new_labels = new_labels.materialize()
        if not fixed_rounds:
            changed = (
                new_labels.map_batches(_count_changed, batch_format="pyarrow").sum("n")
            )
        labels = new_labels.map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": t.column("node"), "label": t.column("label")}
            ),
            batch_format="pyarrow",
        ).materialize()
        if not fixed_rounds and not changed:
            break
    return labels


def exact_dup_clusters(docs_ds, n_buckets: int = 64, iters: int = 1):
    """(doc_id, cluster_id) for EVERY document: cluster_id = min doc_id
    among documents with identical text (singletons label themselves).

    Exact-dup star edges (content-hash groupby, coarse-bucketed like
    stages/dedup.py) -> connected components.  Star edges have
    diameter 1 from the keeper, so ONE propagation round is exact.
    SQL-oracle-equivalent: ``MIN(doc_id) OVER (PARTITION BY md5(text))``.
    """
    from ..functions.exchange import keyed_exchange
    from .dedup import _text_md5_batch

    hashed = docs_ds.map_batches(_text_md5_batch, batch_format="pyarrow")

    def star_edges(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("doc_id")
        sizes = g.groupby("h")["doc_id"].transform("size")
        g = g[sizes >= 2]
        if len(g) == 0:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
            )
        keeper = g.groupby("h")["doc_id"].transform("min")
        rest = g[g["doc_id"] != keeper]
        return pd.DataFrame(
            {"a": keeper[g["doc_id"] != keeper].to_numpy(),
             "b": rest["doc_id"].to_numpy()}
        )

    edges = keyed_exchange(hashed, "h", star_edges, n_buckets)
    nodes = docs_ds.map_batches(
        lambda t: pa.Table.from_pydict({"node": t.column("doc_id")}),
        batch_format="pyarrow",
    )
    # star edges: diameter 1 from the keeper — one propagation round,
    # no doubling hop needed
    labels = connected_components(
        edges, nodes, iters=iters, n_buckets=n_buckets, pointer_double=False
    )
    return labels.map_batches(
        lambda t: pa.Table.from_pydict(
            {"doc_id": t.column("node"), "cluster_id": t.column("label")}
        ),
        batch_format="pyarrow",
    )
