"""SPARQL 1.1 Update text front-end over the persisted KG store.

The reference distiller hands its output to an rdflib ``Graph`` whose
public surface includes ``graph.update("DELETE ... INSERT ... WHERE
...")`` alongside ``graph.query(...)`` (the reference's processor
mutates its graphs through exactly this API family — e.g. the
processor-graph bookkeeping in ``/root/reference/pyRdfa/__init__.py``
adds/removes triples on live graphs).  ``rdfa_ray.query`` already
covers the read side; this module completes the write side by
compiling SPARQL *Update* strings onto the store's generational,
partition-pruned rewrite (``stages/kgstore.update_kg``).

Supported fragment (W3C SPARQL 1.1 Update §3):

* ``INSERT DATA { ground quads }``  /  ``DELETE DATA { ... }`` —
  including ``GRAPH <g> { ... }`` quad blocks (quad stores)
* ``DELETE WHERE { patterns }`` — the pattern doubles as the template
* ``[WITH <g>] [DELETE { tmpl }] [INSERT { tmpl }] [USING [NAMED]
  <iri>]* WHERE { group }`` — the full modify form; templates take
  ``GRAPH`` blocks (constant or WHERE-bound ?variable); the WHERE
  group supports everything the SELECT engine does (OPTIONAL / FILTER
  / VALUES / property paths / ...), because it is delegated to that
  engine verbatim; WITH/USING compile to dataset clauses (see
  ``execute_update``)
* graph management (§3.2): ``CLEAR`` / ``DROP`` ``[SILENT]``
  ``GRAPH <g> | DEFAULT | NAMED | ALL``, ``CREATE [SILENT] GRAPH``,
  ``ADD`` / ``MOVE`` / ``COPY [SILENT] src TO dst`` — map-only
  partition-local generational rewrites (``kgstore.transform_graphs``)
  except ADD, which merges through the pruned insert path
* ``LOAD [SILENT] <file-iri> [INTO GRAPH <g>]`` — local files only
  (``file:`` IRIs or plain paths; .nt/.ntriples/.nq/.nquads), read by
  the distributed N-Triples source and merged through the pruned
  insert path; ``SILENT`` turns a missing/corrupt document into a
  no-op (§3.1.2) but does NOT unlock network schemes (a capability
  error, raised regardless)
* multiple operations separated by ``;`` run left-to-right, each
  against the store state the previous one produced (§3.1); PREFIX
  prologues accumulate across operations

Execution shape (the 100-TB story): the WHERE group is evaluated by
``execute_on_store`` — so predicate pushdown prunes the scan to the
partitions the pattern names — and the bindings are materialized ONCE
before the store is touched (SPARQL's evaluate-then-mutate contract;
both templates instantiate from the same snapshot).  Template
instantiation is the same vectorized map-side projection CONSTRUCT
uses, and ``update_kg`` rewrites only the partitions whose predicates
appear in a delta, as new generations behind an atomic manifest swap.
A failed update never corrupts: the manifest still points at the old
snapshot.

Deliberate deviations, all raised loudly: blank nodes in templates
(fresh-bnode-per-binding needs row-level id minting — use a skolem IRI
instead), GRAPH-qualified updates against a TRIPLE-form store (no
graph column to write), GRAPH patterns inside a WITH-scoped WHERE
(§4.1.4's all-named-graphs scope is inexpressible in the FROM
compilation of WITH), SERVICE and non-file LOAD schemes (no network
in this engine).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from .sparql_text import (
    SparqlSyntaxError,
    _Parser,
    _resolve,
    _tokenize,
)

_COLS = ("subj", "pred", "obj_value")


# --------------------------------------------------------------------------
# parsing


def _parse_prefixes(p: _Parser, prefixes: dict) -> None:
    while p.at_kw("PREFIX"):
        p.next()
        kind, pname = p.next()
        if kind != "pname":
            raise SparqlSyntaxError("PREFIX needs a pname:")
        pre = pname.split(":", 1)[0]
        kind, iri = p.next()
        if kind != "iri":
            raise SparqlSyntaxError("PREFIX needs an <iri>")
        prefixes[pre] = iri[1:-1]


def _parse_quad_block(p: _Parser, prefixes: dict, allow_graph: bool) -> list:
    """``{ s p o ; p2 o2 . ... }`` with predicate-object lists, plus —
    at the outer level — ``GRAPH term { triples }`` sub-blocks (SPARQL
    1.1 Update QuadPattern).  Returns 4-tuples ``(s, p, o, g)`` where
    ``g`` is None for triples outside any GRAPH block."""
    p.expect_op("{")
    out = []
    while p.peek() != ("op", "}"):
        if allow_graph and p.at_kw("GRAPH"):
            p.next()
            gk, gv = p.next()
            if gk not in ("iri", "pname", "var"):
                raise SparqlSyntaxError("GRAPH needs an IRI or ?variable")
            g = _resolve(gk, gv, prefixes)
            out.extend(
                (s, pr, o, g)
                for (s, pr, o, _g) in _parse_quad_block(p, prefixes, False)
            )
            if p.peek() == ("op", "."):
                p.next()
            continue
        sk, sv = p.next()
        if sk is None:
            raise SparqlSyntaxError("unterminated { } block")
        subj = _resolve(sk, sv, prefixes)
        while True:
            pk, pv = p.next()
            pred = _resolve(pk, pv, prefixes)
            ok, ov = p.next()
            obj = _resolve(ok, ov, prefixes)
            out.append((subj, pred, obj, None))
            if p.peek() == ("op", ";"):
                p.next()
                continue
            break
        if p.peek() == ("op", "."):
            p.next()
    p.expect_op("}")
    return out


def _parse_template_block(p: _Parser, prefixes: dict, ground: bool) -> list:
    """Template / data block: quad patterns with no property paths
    (SPARQL forbids them in templates).  ``ground=True`` (DATA forms)
    additionally rejects variables — including GRAPH variables."""
    out = _parse_quad_block(p, prefixes, allow_graph=True)
    if ground:
        for t in out:
            for term in t:
                if isinstance(term, str) and term.startswith("?"):
                    raise SparqlSyntaxError(
                        "INSERT/DELETE DATA must be ground (got %s)" % term
                    )
    for t in out:
        for term in t:
            if isinstance(term, str) and term.startswith("_:"):
                raise SparqlSyntaxError(
                    "blank nodes in update templates are not supported;"
                    " mint a skolem IRI instead"
                )
    return out


def _raw_group(p: _Parser) -> str:
    """Capture a ``{ ... }`` group as re-serialized token text (brace
    depth tracked) so the WHERE clause can be delegated verbatim to the
    SELECT engine with its full feature set."""
    p.expect_op("{")
    depth, vals = 1, []
    while depth:
        kind, val = p.next()
        if kind is None:
            raise SparqlSyntaxError("unterminated WHERE group")
        if (kind, val) == ("op", "{"):
            depth += 1
        elif (kind, val) == ("op", "}"):
            depth -= 1
            if not depth:
                break
        vals.append(val)
    return " ".join(vals)


def _parse_iri_term(p: _Parser, prefixes: dict) -> str:
    kind, val = p.next()
    if kind not in ("iri", "pname"):
        raise SparqlSyntaxError("expected an IRI, got %r" % (val,))
    return _resolve(kind, val, prefixes)


def _parse_graph_ref(p: _Parser, prefixes: dict) -> str:
    """``DEFAULT`` | ``[GRAPH] <iri>`` — the GraphOrDefault production
    of ADD/MOVE/COPY.  The default graph is the engine's '' marker."""
    if p.at_kw("DEFAULT"):
        p.next()
        return ""
    if p.at_kw("GRAPH"):
        p.next()
    return _parse_iri_term(p, prefixes)


def parse_update(text: str) -> list[dict]:
    """Parse an update request into a list of operation dicts (run
    left-to-right).  Kinds: ``insert_data`` / ``delete_data`` (ground
    ``quads``), ``modify`` (``delete`` / ``insert`` quad templates +
    ``where`` text + ``prefixes`` + ``with_graph``/``usings``), and
    the graph-management family ``clear`` (CLEAR and DROP — identical
    here, see ``execute_update``), ``create``, ``add``/``move``/
    ``copy``."""
    p = _Parser(_tokenize(text))
    prefixes: dict = {}
    ops: list[dict] = []
    while p.peek()[0] is not None:
        _parse_prefixes(p, prefixes)
        if p.peek()[0] is None:
            break
        with_graph = None
        if p.at_kw("WITH"):
            p.next()
            with_graph = _parse_iri_term(p, prefixes)
            if not (p.at_kw("INSERT") or p.at_kw("DELETE")):
                raise SparqlSyntaxError(
                    "WITH <g> must be followed by a DELETE/INSERT"
                    " ... WHERE operation"
                )
        if p.at_kw("INSERT") or p.at_kw("DELETE"):
            first = p.next()[1].upper()
            if p.at_kw("DATA"):
                p.next()
                if with_graph is not None:
                    raise SparqlSyntaxError("WITH cannot prefix a DATA form")
                quads = _parse_template_block(p, prefixes, ground=True)
                ops.append(
                    {
                        "op": "insert_data" if first == "INSERT" else "delete_data",
                        "quads": quads,
                    }
                )
            elif first == "DELETE" and p.at_kw("WHERE"):
                p.next()
                tmpl = _parse_template_block(p, prefixes, ground=False)
                ops.append(
                    {
                        "op": "modify",
                        "delete": tmpl,
                        "insert": [],
                        "where": _tmpl_text(tmpl),
                        "prefixes": dict(prefixes),
                        "with_graph": with_graph,
                        "usings": [],
                        "usings_named": [],
                    }
                )
            else:
                delete_tmpl, insert_tmpl = [], []
                if first == "DELETE":
                    delete_tmpl = _parse_template_block(p, prefixes, ground=False)
                    if p.at_kw("INSERT"):
                        p.next()
                        insert_tmpl = _parse_template_block(
                            p, prefixes, ground=False
                        )
                else:
                    insert_tmpl = _parse_template_block(p, prefixes, ground=False)
                usings, usings_named = [], []
                while p.at_kw("USING"):
                    p.next()
                    if p.at_kw("NAMED"):
                        p.next()
                        usings_named.append(_parse_iri_term(p, prefixes))
                    else:
                        usings.append(_parse_iri_term(p, prefixes))
                p.expect_kw("WHERE")
                where = _raw_group(p)
                ops.append(
                    {
                        "op": "modify",
                        "delete": delete_tmpl,
                        "insert": insert_tmpl,
                        "where": where,
                        "prefixes": dict(prefixes),
                        "with_graph": with_graph,
                        "usings": usings,
                        "usings_named": usings_named,
                    }
                )
        elif p.at_kw("CLEAR") or p.at_kw("DROP"):
            p.next()
            if p.at_kw("SILENT"):
                p.next()
            if p.at_kw("DEFAULT"):
                p.next()
                target = ("default",)
            elif p.at_kw("NAMED"):
                p.next()
                target = ("named",)
            elif p.at_kw("ALL"):
                p.next()
                target = ("all",)
            elif p.at_kw("GRAPH"):
                p.next()
                target = ("graph", _parse_iri_term(p, prefixes))
            else:
                raise SparqlSyntaxError(
                    "CLEAR/DROP needs DEFAULT, NAMED, ALL or GRAPH <iri>"
                )
            ops.append({"op": "clear", "target": target})
        elif p.at_kw("CREATE"):
            p.next()
            if p.at_kw("SILENT"):
                p.next()
            p.expect_kw("GRAPH")
            _parse_iri_term(p, prefixes)
            # the store does not track empty graphs (a graph exists iff
            # it has rows), so CREATE is the spec-sanctioned no-op —
            # parsed for syntax, recorded for sequencing transparency
            ops.append({"op": "create"})
        elif p.at_kw("ADD") or p.at_kw("MOVE") or p.at_kw("COPY"):
            verb = p.next()[1].lower()
            if p.at_kw("SILENT"):
                p.next()
            src = _parse_graph_ref(p, prefixes)
            p.expect_kw("TO")
            dst = _parse_graph_ref(p, prefixes)
            ops.append({"op": verb, "src": src, "dst": dst})
        elif p.at_kw("LOAD"):
            p.next()
            silent = False
            if p.at_kw("SILENT"):
                p.next()
                silent = True
            iri = _parse_iri_term(p, prefixes)
            # scheme policy at PARSE time (never misexecute): local
            # files only — SILENT does not unlock network schemes
            if not iri.startswith(("file://", "file:")) and re.match(
                r"^[a-zA-Z][a-zA-Z0-9+.\-]*:", iri
            ):
                raise SparqlSyntaxError(
                    "LOAD supports local files only (file: IRIs or"
                    " plain paths); %r needs network" % iri
                )
            into = None
            if p.at_kw("INTO"):
                p.next()
                p.expect_kw("GRAPH")
                into = _parse_iri_term(p, prefixes)
            ops.append({"op": "load", "iri": iri, "silent": silent, "into": into})
        elif p.at_kw("SERVICE"):
            raise SparqlSyntaxError("SERVICE needs network — unsupported")
        else:
            raise SparqlSyntaxError("unsupported update operation %r" % (p.peek(),))
        if p.peek() == ("op", ";"):
            p.next()
    if not ops:
        raise SparqlSyntaxError("empty update request")
    return ops


def _tmpl_text(tmpl: list) -> str:
    """Render a parsed (already prefix-resolved) template back to
    pattern text for the SELECT engine (DELETE WHERE's pattern doubles
    as its own WHERE group).  The engine's term matching is lexical,
    so subject/object constants round-trip exactly as escaped string
    literals; predicate constants must be ``<iri>`` tokens (that is
    the only constant form the pattern grammar accepts there)."""
    parts = []
    for (s, p_, o, g) in tmpl:
        t = "%s %s %s ." % (
            _so_text(s),
            p_ if p_.startswith("?") else "<%s>" % p_,
            _so_text(o),
        )
        if g is None:
            parts.append(t)
        elif g.startswith("?"):
            parts.append("GRAPH %s { %s }" % (g, t))
        else:
            parts.append("GRAPH <%s> { %s }" % (g, t))
    return " ".join(parts)


def _so_text(term: str) -> str:
    if term.startswith("?"):
        return term
    return '"%s"' % term.replace("\\", "\\\\").replace('"', '\\"')


# --------------------------------------------------------------------------
# execution


def _tmpl_graph(g, with_graph):
    """Effective graph term of one template tuple: an explicit GRAPH
    wins, else the WITH graph, else the default graph ''."""
    if g is not None:
        return g
    return with_graph if with_graph is not None else ""


def _check_triple_form(template: list, with_graph):
    """A triple store cannot hold named-graph rows — raise before any
    partition is touched."""
    if with_graph is not None or any(g is not None for (*_t, g) in template):
        raise SparqlSyntaxError(
            "GRAPH-qualified updates need a quad store (rows with a"
            " 'graph' column); this store is triple-form — persist the"
            " graph column (persist_kg over quads) first"
        )


def _ground_ds(quads: list, as_quads: bool, with_graph=None):
    import ray.data as rd

    cols = {
        "subj": pa.array([t[0] for t in quads], pa.string()),
        "pred": pa.array([t[1] for t in quads], pa.string()),
        "obj_value": pa.array([t[2] for t in quads], pa.string()),
    }
    if as_quads:
        cols["graph"] = pa.array(
            [_tmpl_graph(t[3], with_graph) for t in quads], pa.string()
        )
    else:
        _check_triple_form(quads, with_graph)
    return rd.from_arrow(pa.Table.from_pydict(cols))


def _load_file_ds(iri: str, into, as_quads: bool):
    """LOAD <file-iri> -> an insert delta in the store's lexical
    (subj, pred, obj_value[, graph]) layout, read by the distributed
    N-Triples/N-Quads source (``sources/ntfiles.py``).

    Scheme policy: ``file://`` / ``file:`` IRIs and schemeless paths
    are local files; any other scheme raises at parse-policy level —
    a capability error SILENT does not swallow (never misexecute).
    Format by extension (.nt/.ntriples/.nq/.nquads — the two formats
    this engine writes).  A plain .nt document lands in the default
    graph; an N-Quads document keeps its graph terms (rdflib
    ConjunctiveGraph.parse semantics); ``INTO GRAPH <g>`` retargets
    every row to ``g``.  Literal lang/datatype tags are lexical in the
    store layout, matching INSERT DATA."""
    import os

    path = iri
    if path.startswith("file://"):
        path = path[7:]
    elif path.startswith("file:"):
        path = path[5:]
    low = path.lower()
    if not low.endswith((".nt", ".ntriples", ".nq", ".nquads")):
        raise ValueError(
            "LOAD: unsupported document format %r (this engine reads"
            " .nt/.ntriples/.nq/.nquads)" % path
        )
    if not os.path.isfile(path):
        raise FileNotFoundError("LOAD: no such file %r" % path)
    from ..sources.ntfiles import read_ntriples

    ds = read_ntriples(path)

    def project(b: pa.Table) -> pa.Table:
        out = {
            c: pc.fill_null(pc.cast(b.column(c), pa.string()), "")
            for c in ("subj", "pred", "obj_value")
        }
        g = pc.fill_null(pc.cast(b.column("graph"), pa.string()), "")
        if as_quads:
            if into is not None:
                g = pa.nulls(b.num_rows, pa.string()).fill_null(into)
            out["graph"] = g
        else:
            if into is not None:
                raise ValueError(
                    "LOAD INTO GRAPH targets a triple-form store (no"
                    " graph column) — rebuild via persist_kg with quads"
                )
            bad = pc.any(pc.not_equal(g, "")).as_py()
            if bad:
                raise ValueError(
                    "N-Quads named-graph rows cannot load into a"
                    " triple-form store"
                )
        return pa.Table.from_pydict(out)

    return ds.map_batches(project, batch_format="pyarrow")


def _instantiate(bindings, template: list, bound_vars: set,
                 as_quads: bool = False, with_graph=None):
    """Vectorized template instantiation over a bindings Dataset — the
    CONSTRUCT projection (stages/sparql.construct), plus the Update
    rule that a template variable must be bound by the WHERE group.
    Quad stores instantiate a 4th ``graph`` column: the tuple's GRAPH
    term (constant or bound ?variable), else WITH's graph, else ''."""
    if not as_quads:
        _check_triple_form(template, with_graph)
    names = ("subj", "pred", "obj_value", "graph") if as_quads else _COLS
    for t in template:
        terms = t[:3] + ((_tmpl_graph(t[3], with_graph),) if as_quads else ())
        for term in terms:
            if isinstance(term, str) and term.startswith("?"):
                if term[1:] not in bound_vars:
                    raise SparqlSyntaxError(
                        "template variable %s is not bound by WHERE" % term
                    )

    def project(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        outs = []
        for tp in template:
            terms = tp[:3] + (
                (_tmpl_graph(tp[3], with_graph),) if as_quads else ()
            )
            cols, mask = {}, None
            for name, term in zip(names, terms):
                if isinstance(term, str) and term.startswith("?"):
                    if term[1:] in batch.column_names:
                        col = pc.cast(batch.column(term[1:]), pa.string())
                        # an OPTIONAL-unbound ('' sentinel) variable
                        # skips this template triple for that solution
                        # (same SPARQL §16.2 rule CONSTRUCT applies)
                        m = pc.not_equal(pc.fill_null(col, ""), "")
                        mask = m if mask is None else pc.and_(mask, m)
                        cols[name] = col
                    else:  # schemaless empty block
                        cols[name] = pa.array([""] * n, pa.string())
                else:
                    cols[name] = pa.nulls(n, pa.string()).fill_null(term)
            t = pa.Table.from_pydict(cols)
            outs.append(t if mask is None else t.filter(mask))
        return pa.concat_tables(outs)

    return bindings.map_batches(project, batch_format="pyarrow")


def _graph_rewriters(verb: str, src: str, dst: str):
    """The map-side kernels of COPY/MOVE: which graph values a
    partition must contain to be touched, and the per-batch rewrite.
    Both are partition-local (a graph's rows for predicate P and their
    retagged copies live in the SAME predicate partition), so the
    whole operation is two map-only passes — no exchange, no dedup
    needed: the destination graph is emptied in the same pass that
    writes the retagged rows."""

    def affected(g):
        return pc.or_(pc.equal(g, src), pc.equal(g, dst))

    def rewrite(batch: pa.Table) -> pa.Table:
        g = pc.fill_null(pc.cast(batch.column("graph"), pa.string()), "")
        keep_mask = (
            pc.not_equal(g, dst)  # copy: source rows stay
            if verb == "copy"
            else pc.and_(pc.not_equal(g, dst), pc.not_equal(g, src))
        )
        kept = batch.filter(keep_mask)
        moved = batch.filter(pc.equal(g, src))
        retagged = moved.set_column(
            moved.schema.get_field_index("graph"),
            "graph",
            pa.nulls(moved.num_rows, pa.string()).fill_null(dst),
        )
        return pa.concat_tables([kept, retagged])

    return affected, rewrite


def execute_update(store_dir: str, text: str, n_buckets: int = 64) -> dict:
    """Run a SPARQL Update string against a persisted KG store;
    returns the final store manifest.  Operations run sequentially;
    each modify evaluates its WHERE against the store snapshot the
    previous operation produced (kgstore generations make every
    snapshot consistent), materializes the bindings, then applies
    deletes-before-inserts in ONE generational rewrite.

    Graph management (SPARQL 1.1 Update §3.2) over quad stores:

    * ``CLEAR``/``DROP`` ``GRAPH <g> | DEFAULT | NAMED | ALL`` — the
      store does not track empty graphs (a graph exists iff it has
      rows), so DROP ≡ CLEAR and clearing an absent graph is a no-op,
      exactly the behavior §3.2.2/§3.2.3 prescribe for such stores;
      likewise ``CREATE GRAPH`` is a syntax-checked no-op.  ALL (and
      DEFAULT on a triple store, whose whole content IS the default
      graph) is a pure manifest swap; the graph-scoped forms rewrite
      only the partitions that contain affected rows, found by a
      (pred, graph)-columns-only prune scan (``transform_graphs``).
    * ``COPY``/``MOVE <src> TO <dst>`` — one map-only generational
      pass over the touched partitions: predicate partitioning makes
      retagging partition-local, and emptying ``dst`` in the same
      pass makes dedup unnecessary.
    * ``ADD <src> TO <dst>`` — the one form that must merge into
      existing rows: the src rows re-enter through ``update_kg``'s
      pruned insert path (global set-distinct over only the touched
      partitions).

    ``WITH <g>`` scopes a modify: templates default to graph ``g`` and
    the WHERE matches only ``g`` (compiled to a ``FROM <g>`` dataset
    clause); a WHERE that also uses GRAPH under WITH raises (GRAPH
    would range over the engine's empty FROM-NAMED set, not all named
    graphs as §4.1.4 specifies — out of fragment, never misread).
    ``USING [NAMED]`` clauses compile to FROM / FROM NAMED and, per
    §4.1.5, override WITH for reading while templates still target
    ``g``."""
    import ray.data as rd

    from .kgstore import (
        clear_kg,
        read_kg,
        store_has_graph,
        store_meta,
        transform_graphs,
        update_kg,
    )
    from ..state.commit import writer_lock
    from .localframe import ArrowFrame
    from .sparql_text import execute_on_store

    ops = parse_update(text)
    with writer_lock(store_dir):  # the whole request is one writer
        meta = None
        store_quads = store_has_graph(store_dir)
        for op in ops:
            kind = op["op"]
            if kind == "create":
                continue
            if kind == "load":
                try:
                    ds = _load_file_ds(op["iri"], op["into"], store_quads)
                    meta = update_kg(store_dir, insert_ds=ds, quads=store_quads)
                except Exception:
                    if op["silent"]:
                        continue  # §3.1.2: SILENT turns load failure into success
                    raise
                continue
            if kind in ("insert_data", "delete_data"):
                ds = _ground_ds(op["quads"], store_quads)
                meta = update_kg(
                    store_dir,
                    insert_ds=ds if kind == "insert_data" else None,
                    delete_ds=ds if kind == "delete_data" else None,
                    quads=store_quads,
                )
            elif kind == "clear":
                target = op["target"]
                if target[0] == "all" or (
                    target[0] == "default" and not store_quads
                ):
                    meta = clear_kg(store_dir)
                elif not store_quads:
                    # no graph column -> no named graphs -> NAMED / GRAPH g
                    # target nothing (the spec's no-op for absent graphs)
                    continue
                elif target[0] == "default":
                    meta = transform_graphs(
                        store_dir,
                        lambda g: pc.equal(g, ""),
                        _drop_graph_rewrite(""),
                    )
                elif target[0] == "named":
                    meta = transform_graphs(
                        store_dir,
                        lambda g: pc.not_equal(g, ""),
                        _keep_default_rewrite,
                    )
                else:
                    graph = target[1]
                    meta = transform_graphs(
                        store_dir,
                        lambda g, _g=graph: pc.equal(g, _g),
                        _drop_graph_rewrite(graph),
                    )
            elif kind in ("copy", "move", "add"):
                src, dst = op["src"], op["dst"]
                if src == dst:
                    continue  # §3.2.x: same-graph COPY/MOVE/ADD is a no-op
                if not store_quads:
                    raise SparqlSyntaxError(
                        "ADD/MOVE/COPY need a quad store (a triple store"
                        " has only the default graph)"
                    )
                if kind == "add":
                    def pick_src(b: pa.Table, _s=src, _d=dst) -> pa.Table:
                        g = pc.fill_null(pc.cast(b.column("graph"), pa.string()), "")
                        hit = b.filter(pc.equal(g, _s))
                        return pa.Table.from_pydict(
                            {
                                **{
                                    c: pc.cast(hit.column(c), pa.string())
                                    for c in _COLS
                                },
                                "graph": pa.nulls(
                                    hit.num_rows, pa.string()
                                ).fill_null(_d),
                            }
                        )

                    ins = read_kg(
                        store_dir, columns=["subj", "pred", "obj_value", "graph"]
                    ).map_batches(pick_src, batch_format="pyarrow")
                    meta = update_kg(store_dir, insert_ds=ins, quads=True)
                else:
                    affected, rewrite = _graph_rewriters(kind, src, dst)
                    meta = transform_graphs(store_dir, affected, rewrite)
            else:  # modify
                prologue = "".join(
                    "PREFIX %s: <%s> " % (k, v) for k, v in op["prefixes"].items()
                )
                dataset = "".join(
                    "FROM <%s> " % u for u in op["usings"]
                ) + "".join("FROM NAMED <%s> " % u for u in op["usings_named"])
                with_graph = op["with_graph"]
                if with_graph is not None and not store_quads:
                    _check_triple_form([], with_graph)
                if with_graph is not None and not dataset:
                    if re.search(r"\bGRAPH\b", op["where"], re.IGNORECASE):
                        raise SparqlSyntaxError(
                            "GRAPH patterns inside a WITH-scoped WHERE are"
                            " out of this fragment (they must range over"
                            " ALL named graphs, which the FROM compilation"
                            " of WITH cannot express) — use USING NAMED"
                        )
                    dataset = "FROM <%s> " % with_graph
                select = "%sSELECT * %sWHERE { %s }" % (prologue, dataset, op["where"])
                # evaluate-then-mutate: snapshot the bindings BEFORE any
                # partition is rewritten; both templates read the snapshot
                bindings = execute_on_store(
                    store_dir, select, n_buckets=n_buckets
                ).materialize()
                # schema() on a materialized dataset is free; its columns
                # ARE the bound variables (SELECT * projects them all).
                # None = zero bindings -> both deltas are empty -> no-op
                schema = bindings.schema()
                if schema is None:
                    continue
                bound = set(schema.names)
                if isinstance(bindings, ArrowFrame):
                    # a small WHERE answers in-process; update_kg's
                    # delta unions run on Ray Data
                    bindings = rd.from_arrow(bindings.to_arrow())
                delete_ds = (
                    _instantiate(
                        bindings, op["delete"], bound, store_quads, with_graph
                    )
                    if op["delete"]
                    else None
                )
                insert_ds = (
                    _instantiate(
                        bindings, op["insert"], bound, store_quads, with_graph
                    )
                    if op["insert"]
                    else None
                )
                meta = update_kg(
                    store_dir,
                    insert_ds=insert_ds,
                    delete_ds=delete_ds,
                    quads=store_quads,
                )
        return meta if meta is not None else store_meta(store_dir)


def _drop_graph_rewrite(graph: str):
    def rewrite(batch: pa.Table, _g=graph) -> pa.Table:
        g = pc.fill_null(pc.cast(batch.column("graph"), pa.string()), "")
        return batch.filter(pc.not_equal(g, _g))

    return rewrite


def _keep_default_rewrite(batch: pa.Table) -> pa.Table:
    g = pc.fill_null(pc.cast(batch.column("graph"), pa.string()), "")
    return batch.filter(pc.equal(g, ""))
