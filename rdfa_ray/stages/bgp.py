"""SPARQL-style basic-graph-pattern (BGP) matching over a triples
Dataset — the query surface an RDFLib user gets from
``graph.query("SELECT ... WHERE { ?s :p ?o . ... }")`` for the
conjunctive (BGP) core, re-expressed as distributed self-joins.

A pattern is a 3-tuple over (subj, pred, obj_value) — or a 4-tuple
with a fourth **graph** term for named-graph (quad) patterns, matched
against the input's ``graph`` column (SPARQL ``GRAPH g { ... }``;
rdflib's ConjunctiveGraph/Dataset quad semantics).  Each term is
either a constant string or a variable spelled ``?name``.  Matching a
BGP of P patterns is the classic chain of P-1 self-joins on the shared
variables:

* each pattern becomes a **scan**: one vectorized ``map_batches`` over
  the triples that filters the constant positions with
  ``pyarrow.compute`` masks and projects/renames the variable
  positions to their variable names (repeated variables inside one
  pattern become an intra-scan equality filter);
* consecutive scans join on their shared variables through ONE
  ``bucketed_hash_join`` exchange per pattern, with multi-variable
  keys packed into a single composite column (``\\x1f``-joined — the
  same single-key contract every other join in the repo uses);
  a scan small enough to broadcast (``broadcast_limit``) joins
  map-side instead: one ``join.join_indices`` per bindings batch
  against the all-string scan table carried in the UDF's closure;
* the caller orders patterns most-selective-first (constants first),
  exactly the heuristic a SPARQL engine's greedy optimizer applies.

Scale notes: the triples input is materialized ONCE here (each of the
P scans re-reads the shared object-store blocks zero-copy; without it,
Ray would re-execute the whole upstream distill per scan).  A store
query whose pruned read is small (``sparql_text.LOCAL_MAX_ROWS``)
arrives as an in-process ``ArrowFrame`` instead: the materialize is a
no-op, each scan is one Arrow pass in the calling process, and the per-scan
``count()`` below costs nothing.  At 100-TB scale the input is the
parquet-backed KG the flagship materializes, so the P scans become P
column-pruned ``read_parquet`` passes instead and the materialize is
unnecessary — the join structure is unchanged.
Cross products (a pattern sharing no variable with the accumulated
bindings) are rejected rather than silently exploding.

Reference parity: rdflib's SPARQL BGP evaluation
(rdflib/plugins/sparql/evaluate.py, evalBGP) produces the identical
bag-of-bindings semantics for conjunctive patterns; pyrdfa3 itself
exposes its output as an rdflib Graph precisely so users can run such
queries (pyRdfa/__init__.py:630-676 returns a Graph).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .join import bucketed_hash_join, join_indices
from .localframe import from_arrow_like, string_table

# zip() truncates to the pattern's own length, so 3-tuples never touch
# the graph column and run unchanged on plain triples datasets
_POSITIONS = ("subj", "pred", "obj_value", "graph")
_SEP = "\x1f"


def _is_var(term: str) -> bool:
    return isinstance(term, str) and term.startswith("?")


def pattern_vars(pattern) -> list:
    """Variable names (without '?') bound by a pattern, in position
    order, deduplicated."""
    seen = []
    for term in pattern:
        if _is_var(term):
            name = term[1:]
            if name not in seen:
                seen.append(name)
    return seen


_META_COLS = (
    ("obj_lang", "__lang"),
    ("obj_datatype", "__datatype"),
    ("obj_kind", "__kind"),
)


def meta_vars_for(pattern) -> list:
    """Pseudo-variable names a meta-carrying scan of ``pattern`` adds:
    ``<objvar>__lang`` / ``<objvar>__datatype`` / ``<objvar>__kind``
    when the object position is a variable (SPARQL LANG()/DATATYPE()
    and the term tests ISIRI/ISBLANK/ISLITERAL/ISNUMERIC read these;
    ``__kind`` is "iri" | "bnode" | "literal")."""
    if len(pattern) >= 3 and _is_var(pattern[2]):
        v = pattern[2][1:]
        return [v + suf for _src, suf in _META_COLS]
    return []


def _scan(triples_ds, pattern, carry_meta: bool = False):
    """One pattern -> Dataset of its variable bindings (all string
    columns, named after the variables).

    ``carry_meta``: when the object position is a variable, also emit
    its ``__lang`` / ``__datatype`` / ``__kind`` pseudo-columns from
    the input's ``obj_lang`` / ``obj_datatype`` / ``obj_kind`` (the
    per-TRIPLE term metadata — it must ride along from the scan; it
    cannot be joined back on the lexical value later).  Requires those
    columns in the input."""
    consts = [
        (col, term)
        for col, term in zip(_POSITIONS, pattern)
        if not _is_var(term)
    ]
    # position -> variable name (repeated vars keep every position)
    var_cols = [
        (col, term[1:]) for col, term in zip(_POSITIONS, pattern) if _is_var(term)
    ]
    out_vars = pattern_vars(pattern)
    if not out_vars:
        raise ValueError("pattern %r binds no variables" % (pattern,))
    metas = meta_vars_for(pattern) if carry_meta else []
    # SPARQL 1.1 §13.3: a variable graph term ranges over NAMED graphs
    # only — the default graph ('' in the engine's quad layout) never
    # binds it.  (Under FROM/FROM NAMED the dataset-clause view tags
    # rows instead and its own unprefix step enforces this; the mask is
    # a no-op there since tagged rows are never ''.)
    named_only = len(pattern) > 3 and _is_var(pattern[3])

    def scan_batch(batch: pa.Table) -> pa.Table:
        if metas and any(
            src not in batch.column_names for src, _suf in _META_COLS
        ):
            raise ValueError(
                "carry_meta scan needs obj_lang/obj_datatype/obj_kind "
                "columns in the input (got %r) — use a metadata-"
                "preserving triples view" % (batch.column_names,)
            )
        if len(pattern) > 3 and "graph" not in batch.column_names:
            raise ValueError(
                "graph pattern %r needs a 'graph' column in the input "
                "(a quad dataset / quad store)" % (pattern,)
            )
        mask = None
        for col, value in consts:
            m = pc.equal(batch.column(col), value)
            mask = m if mask is None else pc.and_(mask, m)
        # repeated variable inside the pattern: equality across positions
        first_pos = {}
        for col, name in var_cols:
            if name in first_pos:
                m = pc.equal(batch.column(col), batch.column(first_pos[name]))
                mask = m if mask is None else pc.and_(mask, m)
            else:
                first_pos[name] = col
        if named_only:
            m = pc.not_equal(pc.cast(batch.column("graph"), pa.string()), "")
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            batch = batch.filter(pc.fill_null(mask, False))
        cols = {name: batch.column(first_pos[name]) for name in out_vars}
        if metas:
            obj_var = pattern[2][1:]
            for src, suf in _META_COLS:
                cols[obj_var + suf] = pc.fill_null(
                    pc.cast(batch.column(src), pa.string()), ""
                )
        return pa.Table.from_pydict(cols)

    return triples_ds.map_batches(scan_batch, batch_format="pyarrow")


def _with_key(ds, key_vars, all_vars):
    """Append the composite join key column ``__k``."""

    def add_key(batch: pa.Table) -> pa.Table:
        if len(key_vars) == 1:
            key = pc.cast(batch.column(key_vars[0]), pa.string())
        else:
            key = pc.binary_join_element_wise(
                *[pc.cast(batch.column(v), pa.string()) for v in key_vars], _SEP
            )
        return batch.append_column("__k", key)

    schema = pa.schema([(v, pa.string()) for v in all_vars] + [("__k", pa.string())])
    return ds.map_batches(add_key, batch_format="pyarrow"), schema


def _broadcast_step(scan: pa.Table, shared, bound, p_vars):
    """One BGP join step with the (measured-small) scan broadcast:
    ``(merge_batch, out_vars)``, where the map kernel ``merge_batch``
    carries the all-string ``scan`` table in its closure (Ray Data
    ships a map operator's UDF once per operator; an in-process frame
    ships nothing) and inner-joins each bindings batch, cast to
    strings, with it on the ``shared`` variables through
    ``join.join_indices`` — zero exchange (the adaptive move a SPARQL
    engine's optimizer makes for constants-heavy, highly selective
    patterns).  Rows come out in batch order, then scan order (a
    nested loop's order); a null cell becomes ``"None"`` and never
    matches a key, as in the pandas kernel this replaced."""
    out_vars = bound + [v for v in p_vars if v not in bound]
    as_str = pa.schema([(v, pa.string()) for v in bound])
    scan = pa.table(
        {c: pc.fill_null(scan.column(c), "None") for c in scan.column_names}
    )

    def merge_batch(batch: pa.Table) -> pa.Table:
        left = batch.select(bound).cast(as_str)
        li, ri = join_indices(left, scan, shared)
        return pa.table({
            v: pc.fill_null(left.column(v).take(li), "None") if v in bound
            else scan.column(v).take(ri)
            for v in out_vars
        })

    return merge_batch, out_vars


def bgp_match(
    triples_ds,
    patterns,
    select=None,
    n_buckets: int = 64,
    broadcast_limit: int = 200_000,
    carry_meta: bool = False,
):
    """Match a list of triple patterns against a (subj, pred,
    obj_value[, ...]) Dataset; returns a Dataset of bindings with one
    string column per variable (bag semantics, like SPARQL BGP over a
    multiset of triples — feed a distinct triples set for set
    semantics).

    ``select``: optional list of variable names to project at the end.
    Patterns are joined IN ORDER; put the most selective first.

    Adaptive join choice per step: each pattern's scan is materialized
    (one cheap pass over the already-materialized triples) and COUNTED;
    a scan at or below ``broadcast_limit`` bindings is broadcast (in
    the map UDF's closure, map-side Arrow join — zero exchange),
    larger scans take the general bucketed hash join.  Constants-first BGPs
    therefore usually pay no exchange at all after the first scan.
    """
    if not patterns:
        raise ValueError("empty BGP")
    triples_ds = triples_ds.materialize()

    bindings = _scan(triples_ds, patterns[0], carry_meta=carry_meta)
    bound = pattern_vars(patterns[0]) + (
        meta_vars_for(patterns[0]) if carry_meta else []
    )
    for pattern in patterns[1:]:
        p_vars = pattern_vars(pattern)
        shared = [v for v in p_vars if v in bound]
        if not shared:
            raise ValueError(
                "pattern %r shares no variable with %r — cross products "
                "are not supported (reorder the BGP)" % (pattern, bound)
            )
        new_metas = []
        if carry_meta:
            # a var bound in two object positions keeps the FIRST
            # binding's metadata (the engine joins on the lexical form;
            # see the module stance on term identity)
            new_metas = [m for m in meta_vars_for(pattern) if m not in bound]
        scan = _scan(triples_ds, pattern, carry_meta=carry_meta).materialize()
        if carry_meta:
            scan = scan.select_columns(p_vars + new_metas)
        p_vars = p_vars + new_metas
        if scan.count() <= broadcast_limit:
            scan_t = string_table(scan)
            if not scan_t.num_rows:
                # typed empty result: no solution can extend
                out_vars = bound + [v for v in p_vars if v not in bound]
                empty = pa.schema(
                    [(v, pa.string()) for v in out_vars]
                ).empty_table()
                bindings = from_arrow_like(triples_ds, empty)
                bound = out_vars
                continue
            merge_batch, bound = _broadcast_step(scan_t, shared, bound, p_vars)
            bindings = bindings.map_batches(merge_batch, batch_format="pyarrow")
            continue
        left, left_schema = _with_key(bindings, shared, bound)
        right, right_schema = _with_key(scan, shared, p_vars)
        joined = bucketed_hash_join(
            left,
            right,
            on="__k",
            n_buckets=n_buckets,
            how="inner",
            suffix="__r",
            left_schema=left_schema,
            right_schema=right_schema,
        )
        new_vars = [v for v in p_vars if v not in bound]
        bound = bound + new_vars
        keep = list(bound)

        def project(batch: pa.Table, _keep=tuple(keep), _shared=tuple(shared)):
            cols = {}
            for v in _keep:
                # shared vars appear on both sides with equal values;
                # new right-side vars may carry the collision suffix
                # only if they clashed with a left column (they cannot:
                # new vars are by construction absent from the left)
                cols[v] = batch.column(v)
            return pa.Table.from_pydict(cols)

        bindings = joined.map_batches(project, batch_format="pyarrow")
    if select is not None:
        missing = [v for v in select if v not in bound]
        if missing:
            raise ValueError("unbound select variables: %r" % missing)
        bindings = bindings.select_columns(list(select))
    return bindings
