"""Canonicalization: rewrite linked subjects to canonical entity IRIs
(SURVEY.md §2.5 D2, §7.3).

Semantics (deterministic):
  * For every (graph, subj) with >=1 link row, the canonical IRI is the
    entity of the best link (max score, ties broken by smallest entity
    IRI).
  * All triples of that subject are rewritten subj -> canonical IRI;
    an ``owl:sameAs`` provenance triple is added when the original
    subject was a non-bnode IRI different from the canonical one
    (bnode subjects are replaced silently — they were document-local).
  * Object positions referencing a canonicalized subject in the same
    graph are rewritten too (a second join keyed on (graph,
    obj_value)), so intra-document edges stay consistent.

Physical plan: an explicit partitioned hash join — both row kinds go
through one keyed exchange on ``graph`` (``functions/exchange``,
``crc32(graph) % B`` buckets), which co-locates a subject's triples
with its link evidence; inside each bucket one Arrow
kernel (``canonicalize_table``: sort + ordered group-by for the best
link, two left ``Table.join`` lookups, ``if_else`` rewrites) does the
work over the whole bucket (never per-(graph,subj) Python calls —
group cardinality is ~rows/3, and per-group overhead dominated an
earlier map_groups implementation).  The flagship writer runs the
same kernel per output partition.  Keys include the per-turn graph
IRI, so bucket load is uniform; genuinely hot keys would be salted by
raising B and sub-splitting (see stages.aggregate for the combiner
alternative used for algebraic aggregates).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

OWL_SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"

N_BUCKETS = 256

_DROP = ["_row_kind", "entity", "score"]


def canonicalize_table(table: pa.Table) -> pa.Table:
    """The bucket kernel: link rows in, rewritten triples (+ diags, +
    ``owl:sameAs`` provenance rows appended last) out, in input order,
    with every text column typed ``string`` (the on-disk type).

    Every step is a pyarrow compute kernel over the whole bucket.
    Group-by and joins run single-threaded: the ordered "first"
    aggregate needs it, and Ray already gives this task one CPU."""
    is_link = pc.equal(table.column("_row_kind"), "link")
    links = table.filter(is_link)
    keep = table.filter(pc.invert(is_link))
    out_names = [n for n in keep.column_names if n not in _DROP]
    if links.num_rows == 0:
        return _as_string(keep.select(out_names))

    # best link per (graph, subj): max score, then smallest entity IRI
    best = (
        links.select(["graph", "subj", "entity", "score"])
        .sort_by([("score", "descending"), ("entity", "ascending")])
        .group_by(["graph", "subj"], use_threads=False)
        .aggregate([("entity", "first")])
        .select(["graph", "subj", "entity_first"])
    )

    # left joins do not keep row order: carry a row index and take the
    # looked-up column back into input order
    n = keep.num_rows
    rows = pa.array(np.arange(n, dtype=np.int64))

    def lookup(key: str) -> pa.ChunkedArray:
        probe = pa.table({"graph": keep.column("graph"), key: keep.column(key), "_i": rows})
        hit = probe.join(best.rename_columns(["graph", key, "_canon"]),
                         ["graph", key], join_type="left outer", use_threads=False)
        canon = hit.column("_canon").take(pc.sort_indices(hit.column("_i")))
        return canon.cast(keep.column(key).type)

    subj = keep.column("subj")
    canon = lookup("subj")
    is_triple = pc.equal(keep.column("_row_kind"), "triple")
    matched = pc.and_(canon.is_valid(), is_triple)
    subj_kind = keep.column("subj_kind")

    # provenance rows come from the ORIGINAL subjects: the first row of
    # each (graph, subj) that moves an IRI subject to a different IRI
    moved = pc.and_(matched, pc.and_(pc.equal(subj_kind, "iri"), pc.not_equal(subj, canon)))
    first = (
        pa.table({"graph": keep.column("graph"), "subj": subj, "_i": rows})
        .filter(moved)
        .group_by(["graph", "subj"], use_threads=False)
        .aggregate([("_i", "min")])
        .column("_i_min")
    )
    first = first.take(pc.sort_indices(first))
    prov = keep.take(first)
    m = prov.num_rows
    prov = _set(prov, "obj_value", prov.column("subj"))
    prov = _set(prov, "subj", canon.take(first))
    prov = _set(prov, "subj_kind", _const("iri", subj_kind.type, m))
    prov = _set(prov, "pred", _const(OWL_SAME_AS, prov.schema.field("pred").type, m))
    prov = _set(prov, "obj_kind", _const("iri", prov.schema.field("obj_kind").type, m))
    for name in ("obj_lang", "obj_datatype"):
        prov = _set(prov, name, pa.nulls(m, prov.schema.field(name).type))

    # object-position rewrite: references to a canonicalized subject
    # (within the same graph — bnodes/IRIs are document-scoped, and the
    # bucket co-locates the whole graph) follow it to the canonical
    # IRI, keeping intra-document edges consistent
    ocanon = lookup("obj_value")
    obj_kind = keep.column("obj_kind")
    omatched = pc.and_(
        pc.and_(ocanon.is_valid(), is_triple),
        pc.is_in(obj_kind, value_set=pa.array(["iri", "bnode"], obj_kind.type)),
    )
    keep = _set(keep, "subj", pc.if_else(matched, canon, subj))
    keep = _set(keep, "subj_kind", pc.if_else(matched, "iri", subj_kind))
    keep = _set(keep, "obj_value", pc.if_else(omatched, ocanon, keep.column("obj_value")))
    keep = _set(keep, "obj_kind", pc.if_else(omatched, "iri", obj_kind))
    return _as_string(pa.concat_tables([keep.select(out_names), prov.select(out_names)]))


def _as_string(table: pa.Table) -> pa.Table:
    return table.cast(pa.schema(
        [f.with_type(pa.string()) if pa.types.is_large_string(f.type) else f for f in table.schema]
    ))


def _set(table: pa.Table, name: str, values) -> pa.Table:
    return table.set_column(table.schema.get_field_index(name), name, values)


def _const(value: str, type_: pa.DataType, n: int) -> pa.Array:
    return pa.repeat(pa.scalar(value, type_), n)


def canonicalize(augmented_ds, n_buckets: int = N_BUCKETS,
                 pre_blocks: int = 64):
    """Bucketed vectorized join over the AugmentingLinker output.
    Diag rows ride along untouched.

    ``pre_blocks``: narrow (no-shuffle) repartition before the
    exchange — Ray's sort-based groupby inherits its reduce-task count
    from its INPUT block count, and the fused read->distill->link
    chain bundles small reads into a couple of giant map tasks, which
    serialized the canonicalize kernel into 2 reduce tasks (measured
    2 x 1.8 s at sf0.1; 2.5 s -> 1.0 s of exchange+kernel after the
    split).  0 disables."""
    from ..functions.exchange import keyed_exchange

    if pre_blocks:
        augmented_ds = augmented_ds.repartition(pre_blocks)
    # bucket by graph (per-turn document IRI): co-locates a document's
    # whole triple set, which both the subject- and the object-position
    # rewrites need; per-graph size is bounded by document size, so the
    # key is uniform (hot ENTITIES only emerge after rewrite, in
    # downstream aggregates — see stages.aggregate combiners)
    return keyed_exchange(
        augmented_ds, "graph", canonicalize_table, n_buckets, "pyarrow"
    )
