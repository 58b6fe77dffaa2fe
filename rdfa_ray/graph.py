"""rdflib ``Graph``-shaped facade over the engine's distributed triple
layout — the object a reference user actually holds after
``pyRdfa().graph_from_source(...)`` (an ``rdflib.Graph``,
/root/reference/pyRdfa/__init__.py:538-640) and then drives with
``triples()`` / ``subjects()`` / ``value()`` / ``len()`` /
``serialize()`` / ``query()`` (rdflib/graph.py surface).

Terms are the engine's tuple model (``rdf/terms.py``): ``("iri", v)``,
``("bnode", label)``, ``("lit", value, lang, datatype)`` — hashable and
comparable like rdflib nodes; plain strings are accepted as IRI
shorthand in patterns.

Scale stance: every pattern method compiles to a MAP-SIDE vectorized
filter over the triples Dataset (predicate-constant patterns on a
persisted store prune to that predicate's partition directories before
any byte is read), and iteration streams through ``iter_batches`` with
backpressure — nothing materializes until the caller drains the
iterator.  ``__len__`` is a distributed distinct count (rdflib set
semantics).  Only ``serialize()`` and ``value()`` are deliberately
driver-sized (a serialized string / one term), matching their rdflib
contracts.

Mutation: ``add`` / ``remove`` maintain rdflib semantics on the
in-memory form by buffering driver-side edits that compose lazily with
the Dataset (set-add, pattern remove); store-backed graphs delegate to
the transactional SPARQL-Update path instead (``rdfa_ray.update``) and
refuse direct mutation loudly rather than silently forking the store.
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .rdf.terms import BNODE, IRI, LIT

_ABS_IRI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:\S*$")

_FULL_COLS = [
    "subj", "subj_kind", "pred", "obj_value", "obj_kind",
    "obj_lang", "obj_datatype",
]


def _as_term(x, position: str):
    """Accept a term tuple or an IRI string (rdflib users pass
    URIRef-like identifiers most of the time)."""
    if x is None:
        return None
    if isinstance(x, tuple):
        if x and x[0] in (IRI, BNODE, LIT):
            return x
        raise ValueError("not a term tuple: %r" % (x,))
    if isinstance(x, str):
        if x.startswith("_:"):
            return (BNODE, x[2:])
        if position in ("subj", "pred"):
            # subject/predicate strings are IRI shorthand (rdflib users
            # pass URIRef identifiers); bnodes need the _: prefix or a
            # term tuple — a bare label would silently match nothing
            return (IRI, x)
        if _ABS_IRI_RE.match(x) and " " not in x:
            return (IRI, x)
        return (LIT, x, None, None)
    raise TypeError("pattern terms are term tuples or strings, got %r" % (x,))


def _ensure_kinds(batch: pa.Table) -> pa.Table:
    """Recover missing kind/meta columns from lexical forms — the same
    rule ``rdf/results.py`` documents: ``_:`` prefixes are bnodes,
    absolute IRIs are IRIs, everything else is a literal."""
    cols = set(batch.column_names)
    n = batch.num_rows

    def lex_kind(col, allow_literal: bool):
        vals = pc.cast(batch.column(col), pa.string())
        is_b = pc.starts_with(pc.fill_null(vals, ""), "_:")
        if not allow_literal:
            return pc.if_else(is_b, "bnode", "iri")
        looks_iri = pc.match_substring_regex(
            pc.fill_null(vals, ""), r"^[A-Za-z][A-Za-z0-9+.-]*:[^ ]*$"
        )
        return pc.if_else(is_b, "bnode", pc.if_else(looks_iri, "iri", "literal"))

    if "subj_kind" not in cols:
        batch = batch.append_column("subj_kind", lex_kind("subj", False))
    if "obj_kind" not in cols:
        batch = batch.append_column("obj_kind", lex_kind("obj_value", True))
    for c in ("obj_lang", "obj_datatype"):
        if c not in cols:
            batch = batch.append_column(c, pa.nulls(n, pa.string()))

    # bnode lexical forms carry the _: prefix in minimal layouts; the
    # kind columns own that bit in the full layout
    def strip_bnode(col, kind_col):
        vals = pc.cast(batch.column(col), pa.string())
        is_b = pc.equal(batch.column(kind_col), "bnode")
        stripped = pc.if_else(
            pc.and_(is_b, pc.starts_with(pc.fill_null(vals, ""), "_:")),
            pc.utf8_slice_codeunits(vals, 2),
            vals,
        )
        return batch.set_column(batch.schema.get_field_index(col), col, stripped)

    batch = strip_bnode("subj", "subj_kind")
    batch = strip_bnode("obj_value", "obj_kind")
    return batch.select(_FULL_COLS)


def _match_mask(batch: pa.Table, s, p, o):
    mask = None

    def conj(m, cond):
        return cond if m is None else pc.and_(m, cond)

    if s is not None:
        mask = conj(mask, pc.equal(batch.column("subj"), s[1]))
        mask = conj(mask, pc.equal(batch.column("subj_kind"),
                                   "iri" if s[0] == IRI else "bnode"))
    if p is not None:
        mask = conj(mask, pc.equal(batch.column("pred"), p[1]))
    if o is not None:
        mask = conj(mask, pc.equal(batch.column("obj_value"), o[1]))
        if o[0] == LIT:
            mask = conj(mask, pc.equal(batch.column("obj_kind"), "literal"))
            lang, dt = o[2], o[3]
            lang_col = pc.fill_null(batch.column("obj_lang"), "")
            dt_col = pc.fill_null(batch.column("obj_datatype"), "")
            mask = conj(mask, pc.equal(lang_col, lang or ""))
            mask = conj(mask, pc.equal(dt_col, dt or ""))
        else:
            mask = conj(mask, pc.equal(batch.column("obj_kind"),
                                       "iri" if o[0] == IRI else "bnode"))
    return mask


class Graph:
    """See module docstring.  ``source``: None (empty graph), a triples
    ``ray.data.Dataset`` (full or minimal layout), or a persisted KG
    store directory path."""

    def __init__(self, source=None, n_buckets: int = 64):
        self._store_dir = source if isinstance(source, str) else None
        self._base = None if isinstance(source, str) else source
        self._added: set = set()
        self._removed_patterns: list = []
        self._n_buckets = n_buckets

    # -- dataset plumbing -------------------------------------------------

    def _dataset(self, pred_const: str | None = None):
        """The triples Dataset, kind-normalized; store-backed graphs
        prune to one predicate's partitions when the pattern fixes it."""
        import ray.data as rd

        if self._store_dir is not None:
            from .stages.kgstore import read_kg

            ds = read_kg(
                self._store_dir,
                preds=[pred_const] if pred_const is not None else None,
            )
        elif self._base is not None:
            ds = self._base
        else:
            ds = rd.from_arrow(
                pa.Table.from_pydict(
                    {c: pa.array([], pa.string()) for c in _FULL_COLS}
                )
            )
        ds = ds.map_batches(_ensure_kinds, batch_format="pyarrow")

        if self._removed_patterns:
            removed = list(self._removed_patterns)

            def drop_removed(batch: pa.Table) -> pa.Table:
                for (s, p, o) in removed:
                    m = _match_mask(batch, s, p, o)
                    if m is None:  # remove((None,None,None)) = clear
                        return batch.slice(0, 0)
                    batch = batch.filter(pc.invert(m))
                return batch

            ds = ds.map_batches(drop_removed, batch_format="pyarrow")

        if self._added:
            rows = sorted(self._added)
            tbl = pa.Table.from_pydict(
                {
                    "subj": pa.array([t[0][1] for t in rows], pa.string()),
                    "subj_kind": pa.array(
                        ["iri" if t[0][0] == IRI else "bnode" for t in rows]
                    ),
                    "pred": pa.array([t[1][1] for t in rows], pa.string()),
                    "obj_value": pa.array([t[2][1] for t in rows], pa.string()),
                    "obj_kind": pa.array(
                        [
                            "literal" if t[2][0] == LIT
                            else ("iri" if t[2][0] == IRI else "bnode")
                            for t in rows
                        ]
                    ),
                    "obj_lang": pa.array(
                        [t[2][2] if t[2][0] == LIT else None for t in rows],
                        pa.string(),
                    ),
                    "obj_datatype": pa.array(
                        [t[2][3] if t[2][0] == LIT else None for t in rows],
                        pa.string(),
                    ),
                }
            )
            add_ds = rd.from_arrow(tbl)
            if pred_const is not None:
                add_ds = add_ds.map_batches(
                    lambda b: b.filter(pc.equal(b.column("pred"), pred_const)),
                    batch_format="pyarrow",
                )
            ds = ds.union(add_ds)
        return ds

    # -- rdflib read surface ----------------------------------------------

    def triples(self, pattern=(None, None, None)):
        """Streaming iterator of term-tuple triples matching the
        pattern (None = wildcard) — rdflib ``Graph.triples``.  Matching
        is map-side and vectorized; rows stream to the driver with
        backpressure (duplicates preserved, like rdflib's underlying
        store iteration on a bag layout — wrap in ``set()`` or use the
        engine's ``stages/distinct`` for set semantics)."""
        from .stages.serialize import rows_to_terms

        s, p, o = (
            _as_term(pattern[0], "subj"),
            _as_term(pattern[1], "pred"),
            _as_term(pattern[2], "obj"),
        )
        ds = self._dataset(pred_const=p[1] if p is not None else None)

        def filter_batch(batch: pa.Table) -> pa.Table:
            m = _match_mask(batch, s, p, o)
            return batch if m is None else batch.filter(m)

        out = ds.map_batches(filter_batch, batch_format="pyarrow")
        for batch in out.iter_batches(batch_format="pandas"):
            yield from rows_to_terms(batch)

    def __iter__(self):
        return self.triples()

    def __contains__(self, triple):
        for _ in self.triples(triple):
            return True
        return False

    def __len__(self):
        """Number of DISTINCT triples (rdflib Graph set semantics) —
        a distributed two-level distinct, never a driver collect."""
        from .stages.distinct import distinct

        return distinct(
            self._dataset(), _FULL_COLS, n_buckets=self._n_buckets
        ).count()

    def subjects(self, predicate=None, object=None):
        for s, _p, _o in self.triples((None, predicate, object)):
            yield s

    def predicates(self, subject=None, object=None):
        for _s, p, _o in self.triples((subject, None, object)):
            yield p

    def objects(self, subject=None, predicate=None):
        for _s, _p, o in self.triples((subject, predicate, None)):
            yield o

    def subject_objects(self, predicate=None):
        for s, _p, o in self.triples((None, predicate, None)):
            yield s, o

    def subject_predicates(self, object=None):
        for s, p, _o in self.triples((None, None, object)):
            yield s, p

    def predicate_objects(self, subject=None):
        for _s, p, o in self.triples((subject, None, None)):
            yield p, o

    def value(self, subject=None, predicate=None, object=None, default=None):
        """First matching term for the one unfixed position (rdflib
        ``Graph.value``): exactly two of subject/predicate/object must
        be given."""
        fixed = [subject is not None, predicate is not None, object is not None]
        if sum(fixed) != 2:
            raise ValueError("value() needs exactly two fixed positions")
        for s, p, o in self.triples((subject, predicate, object)):
            if subject is None:
                return s
            if predicate is None:
                return p
            return o
        return default

    # -- query / serialize -------------------------------------------------

    def query(self, sparql: str):
        """SPARQL over this graph; returns what ``rdfa_ray.query``
        does (a Dataset, or an ``ArrowFrame`` for a small store query:
        see there for the calls both answer)."""
        from . import query as _query

        if self._store_dir is not None and not self._added and not self._removed_patterns:
            return _query(self._store_dir, sparql, n_buckets=self._n_buckets)
        return _query(self._dataset(), sparql, n_buckets=self._n_buckets)

    def update(self, sparql: str) -> dict:
        """SPARQL 1.1 Update against a store-backed graph (rdflib
        ``Graph.update``) — the transactional path ``add``/``remove``
        point at.  In-memory graphs have no store to mutate: use
        add/remove/parse there."""
        if self._store_dir is None:
            raise ValueError(
                "update() needs a store-backed Graph — in-memory graphs "
                "mutate via add()/remove()/parse()"
            )
        from . import update as _update

        return _update(self._store_dir, sparql, n_buckets=self._n_buckets)

    def serialize(self, format: str = "nt") -> str:
        """Whole-graph serialization to ONE string — driver-sized by
        contract (rdflib returns a string).  Formats: nt, turtle,
        jsonld, pretty-xml.  For corpus-scale output use
        ``stages/serialize.serialize_graphs`` (per-graph, streaming)."""
        from .stages.serialize import _SERIALIZERS

        fmt = {"xml": "pretty-xml", "ntriples": "nt", "json-ld": "jsonld"}.get(
            format, format
        )
        if fmt not in _SERIALIZERS:
            raise ValueError(
                "serialize() formats: nt, turtle, jsonld, pretty-xml — got %r"
                % (format,)
            )
        triples = set(self.triples())
        return _SERIALIZERS[fmt]().serialize(triples)

    # -- mutation -----------------------------------------------------------

    def _refuse_store_mutation(self):
        if self._store_dir is not None:
            raise ValueError(
                "store-backed Graph: use rdfa_ray.update(store_dir, ...) — "
                "direct add/remove would fork the persisted store"
            )

    def add(self, triple):
        """Set-add one triple (rdflib semantics: duplicate add is a
        no-op against the buffered edits; the underlying Dataset keeps
        bag semantics until ``__len__``/distinct)."""
        self._refuse_store_mutation()
        s, p, o = triple
        s, p, o = _as_term(s, "subj"), _as_term(p, "pred"), _as_term(o, "obj")
        if s is None or p is None or o is None:
            raise ValueError("add() takes a concrete triple, no wildcards")
        self._added.add((s, p, o))
        return self

    def remove(self, pattern):
        """Remove every triple matching the (wildcardable) pattern —
        applied lazily as a map-side anti-filter."""
        self._refuse_store_mutation()
        s, p, o = pattern
        s, p, o = _as_term(s, "subj"), _as_term(p, "pred"), _as_term(o, "obj")
        # drop buffered adds it matches, then mask the base
        def hits(t):
            return (
                (s is None or t[0] == s)
                and (p is None or t[1] == p)
                and (o is None or t[2] == o)
            )

        self._added = {t for t in self._added if not hits(t)}
        self._removed_patterns.append((s, p, o))
        return self

    def parse(self, source, format: str = "markup", **kw):
        """Distill more input INTO this graph (rdflib ``Graph.parse``)
        — unions the distributed parse result with the current
        dataset."""
        self._refuse_store_mutation()
        from . import parse as _parse

        new = _parse(source, format=format, **kw).map_batches(
            _ensure_kinds, batch_format="pyarrow"
        )
        base = self._dataset() if (self._base is not None or self._added or
                                   self._removed_patterns) else None
        # fold pending edits into the base so later removes don't
        # retroactively mask the freshly parsed triples
        self._added = set()
        self._removed_patterns = []
        self._base = new if base is None else base.union(new)
        return self
