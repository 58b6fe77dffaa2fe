"""SPARQL algebra beyond the conjunctive BGP core — OPTIONAL (left
join), UNION, FILTER, and property paths — distributed over Ray
Datasets.

Reference parity: rdflib's SPARQL evaluation dispatches a parsed query
to evalBGP / evalLeftJoin / evalUnion / evalFilter / evalPath
(rdflib/plugins/sparql/evaluate.py); pyrdfa3 exposes its extraction as
an rdflib Graph exactly so users can run such queries
(pyRdfa/__init__.py:630-676).  This module re-expresses each algebra
node as the matching distributed plan:

* ``optional_match`` — SPARQL LeftJoin: one bucketed LEFT hash join of
  the base bindings against the optional BGP's bindings on their
  shared variables; unmatched rows carry ``''`` for the optional-only
  variables (a deterministic sentinel rather than NULL so downstream
  hashing/equality is engine-independent; SPARQL's unbound is
  likewise "no value", not a NULL that poisons comparisons).
* ``union_match`` — SPARQL Union: per-arm BGP matching, columns
  aligned to the union of the arms' variables (absent vars filled with
  ``''``), then a zero-shuffle ``Dataset.union``.
* ``filter_bindings`` — SPARQL Filter: a vectorized predicate over the
  bindings batch (pyarrow.compute mask), applied map-side — never a
  shuffle.
* ``path_edges`` — SPARQL property paths as (src, dst) edge Datasets:
  an IRI is one vectorized scan; ``inv`` (^p) swaps endpoints
  map-side; ``alt`` (p|q) is a streaming union; ``seq`` (p/q) is one
  bucketed hash join per step; ``plus`` (p+) delegates to the
  semi-naive ``transitive_closure`` (string-keyed); ``star`` (p*) is
  ``plus`` unioned with the zero-length identity over every term of
  the graph (SPARQL 1.1 §9.3: a zero-length path matches all graph
  terms, subjects and objects alike).

Scale notes: every operator is shaped like the joins it contains —
OPTIONAL/seq pay ONE bucketed exchange each, UNION/alt/inv/FILTER pay
none, plus/star inherit the closure's broadcast-frontier fast path.
Path expressions are plain nested tuples, e.g.::

    ("seq", PRED_A, ("plus", ("inv", PRED_B)))
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import keyed_exchange
from .bgp import _scan, _with_key, bgp_match, pattern_vars
from .closure import transitive_closure
from .distinct import group_in_order
from .join import bucketed_hash_join

UNBOUND = ""  # sentinel for SPARQL-unbound variables


# ---------------------------------------------------------------------------
# OPTIONAL / UNION / FILTER


def _match_with_vars(triples_ds, patterns):
    """bgp_match + the ordered bound-variable list."""
    bindings = bgp_match(triples_ds, patterns)
    bound = []
    for p in patterns:
        for v in pattern_vars(p):
            if v not in bound:
                bound.append(v)
    return bindings, bound


def optional_match(
    triples_ds,
    base_patterns,
    optional_patterns,
    opt_filter=None,
    select=None,
    n_buckets: int = 64,
):
    """SPARQL ``{ base } OPTIONAL { optional [FILTER f] }``.

    ``opt_filter``: optional vectorized predicate (pa.Table -> bool
    mask) applied to the optional side's bindings BEFORE the left join
    (SPARQL semantics for a filter nested inside the OPTIONAL group).
    Optional-only variables of unmatched rows come back as ``''``.
    """
    triples_ds = triples_ds.materialize()
    base, base_vars = _match_with_vars(triples_ds, base_patterns)
    opt, opt_vars = _match_with_vars(triples_ds, optional_patterns)
    shared = [v for v in opt_vars if v in base_vars]
    if not shared:
        raise ValueError(
            "OPTIONAL group shares no variable with the base BGP — the "
            "result would be a cross product"
        )
    if opt_filter is not None:
        opt = opt.map_batches(
            lambda t, _f=opt_filter: apply_mask(t, _f(t)),
            batch_format="pyarrow",
        )

    left, left_schema = _with_key(base, shared, base_vars)
    right, right_schema = _with_key(opt, shared, opt_vars)
    joined = bucketed_hash_join(
        left,
        right,
        on="__k",
        n_buckets=n_buckets,
        how="left",
        suffix="__r",
        left_schema=left_schema,
        right_schema=right_schema,
    )

    out_vars = base_vars + [v for v in opt_vars if v not in base_vars]

    def project(batch: pa.Table, _vars=tuple(out_vars)) -> pa.Table:
        cols = {}
        for v in _vars:
            col = pc.cast(batch.column(v), pa.string())
            cols[v] = pc.fill_null(col, UNBOUND)
        return pa.Table.from_pydict(cols)

    bindings = joined.map_batches(project, batch_format="pyarrow")
    if select is not None:
        bindings = bindings.select_columns(list(select))
    return bindings


def union_match(triples_ds, bgps, select=None, extras=None, prebuilt=None):
    """SPARQL ``{ bgp1 } UNION { bgp2 } ...``: bag union with columns
    aligned to the union of the arms' variables (absent ones '').

    ``extras`` (optional, parallel to ``bgps``) carries per-arm
    ``(binds, filters)`` — BIND columns (table -> Array callables,
    appended to the arm's variables) and FILTER masks applied to that
    arm's bindings BEFORE the alignment union, all map-side.
    ``prebuilt`` (optional, parallel): per-arm ``(bindings, vars)``
    overriding the BGP match — callers pass it for arms that mix in
    property paths."""
    if not bgps:
        raise ValueError("empty UNION")
    triples_ds = triples_ds.materialize()
    arms = []
    for i, patterns in enumerate(bgps):
        if prebuilt is not None and prebuilt[i] is not None:
            bindings, bvars = prebuilt[i]
        else:
            bindings, bvars = _match_with_vars(triples_ds, patterns)
        if extras is not None:
            arm_binds, arm_filters = extras[i]
            for alias, expr in arm_binds:
                bindings = bind_var(bindings, alias, expr)
                if alias not in bvars:
                    bvars = list(bvars) + [alias]
            for f in arm_filters:
                bindings = filter_bindings(bindings, f)
        arms.append((bindings, bvars))
    all_vars: list = []
    for _, bvars in arms:
        for v in bvars:
            if v not in all_vars:
                all_vars.append(v)

    aligned = []
    for bindings, bvars in arms:

        def align(batch: pa.Table, _have=tuple(bvars)) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for v in all_vars:
                if v in _have:
                    cols[v] = pc.cast(batch.column(v), pa.string())
                else:
                    cols[v] = pa.nulls(n, pa.string()).fill_null(UNBOUND)
            return pa.Table.from_pydict(cols)

        aligned.append(bindings.map_batches(align, batch_format="pyarrow"))

    out = aligned[0]
    for ds in aligned[1:]:
        out = out.union(ds)
    if select is not None:
        out = out.select_columns(list(select))
    return out


def apply_mask(t, mask):
    """Filter a table by a predicate result that may be an Array OR a
    pa.Scalar — row-independent expressions (e.g. ``YEAR(NOW()) >=
    2026``) constant-fold to a scalar, which keeps or empties the
    whole batch."""
    if isinstance(mask, pa.Scalar):
        keep = mask.is_valid and bool(mask.as_py())
        return t if keep else t.slice(0, 0)
    return t.filter(pc.fill_null(mask, False))


def filter_bindings(bindings, predicate):
    """SPARQL FILTER: ``predicate`` maps a bindings pa.Table to a
    boolean mask (use pyarrow.compute kernels); nulls drop the row."""
    return bindings.map_batches(
        lambda t: apply_mask(t, predicate(t)),
        batch_format="pyarrow",
    )


def _compat_join(bindings, bound_vars, probe, probe_vars, shared, how, n_buckets):
    """Semi/anti join of a bindings table against a probe bindings
    table on their shared variables — only the probe's key column
    ships; the bindings keep their full width."""
    left, left_schema = _with_key(bindings, shared, bound_vars)

    def key_only(batch: pa.Table) -> pa.Table:
        if len(shared) == 1:
            k = pc.cast(batch.column(shared[0]), pa.string())
        else:
            k = pc.binary_join_element_wise(
                *[pc.cast(batch.column(v), pa.string()) for v in shared],
                "\x1f",
            )
        return pa.Table.from_pydict({"__k": k})

    return bucketed_hash_join(
        left,
        probe.map_batches(key_only, batch_format="pyarrow"),
        on="__k",
        n_buckets=n_buckets,
        how=how,
        left_schema=left_schema,
        right_schema=pa.schema([("__k", pa.string())]),
    ).drop_columns(["__k"])


def minus_bindings(bindings, bound_vars, triples_ds, minus_patterns,
                   n_buckets: int = 64, probe_filters=None, probe=None):
    """``MINUS { ... }`` over an already-computed bindings table: drop
    solutions compatible with some minus-group solution on their shared
    variables (ONE anti-join exchange; only the minus side's distinct
    keys ship).  Per SPARQL 1.1 §8.3, no shared variable removes
    nothing.  ``probe_filters``: group-local FILTER masks applied to
    the minus side's bindings map-side before the anti join.
    ``probe``: prebuilt ``(bindings, vars)`` for the minus side
    (callers pass it when the block mixes in property paths)."""
    if probe is not None:
        minus, minus_vars = probe
    else:
        minus, minus_vars = _match_with_vars(triples_ds, minus_patterns)
    for f in probe_filters or ():
        minus = filter_bindings(minus, f)
    shared = [v for v in minus_vars if v in bound_vars]
    if not shared:
        return bindings
    return _compat_join(
        bindings, bound_vars, minus, minus_vars, shared, "anti", n_buckets
    )


def exists_bindings(bindings, bound_vars, triples_ds, exists_patterns,
                    negate: bool = False, n_buckets: int = 64,
                    probe_filters=None, probe=None):
    """``FILTER [NOT] EXISTS { ... }`` over an already-computed
    bindings table (correlated on shared variables): one semi (EXISTS)
    or anti (NOT EXISTS) join exchange.  ``probe_filters``: group-local
    FILTER masks applied to the probe side map-side before the join.
    ``probe``: prebuilt ``(bindings, vars)`` for the probe side."""
    if probe is not None:
        probe, probe_vars = probe
    else:
        probe, probe_vars = _match_with_vars(triples_ds, exists_patterns)
    for f in probe_filters or ():
        probe = filter_bindings(probe, f)
    shared = [v for v in probe_vars if v in bound_vars]
    if not shared:
        raise ValueError(
            "FILTER [NOT] EXISTS group shares no variable with the base "
            "BGP — uncorrelated existence is a driver-side ask()"
        )
    return _compat_join(
        bindings, bound_vars, probe, probe_vars, shared,
        "anti" if negate else "semi", n_buckets,
    )


def minus_match(
    triples_ds, base_patterns, minus_patterns, select=None, n_buckets: int = 64
):
    """SPARQL ``{ base } MINUS { minus }`` (rdflib evalMinus): drop
    base solutions compatible with some minus solution on their shared
    variables — ONE anti-join exchange where only the minus side's
    distinct keys ship.  Per SPARQL 1.1 §8.3, arms sharing NO variable
    remove nothing: the base comes back unchanged."""
    triples_ds = triples_ds.materialize()
    base, base_vars = _match_with_vars(triples_ds, base_patterns)
    out = minus_bindings(base, base_vars, triples_ds, minus_patterns, n_buckets)
    return out if select is None else out.select_columns(list(select))


def exists_filter(
    triples_ds,
    base_patterns,
    exists_patterns,
    negate: bool = False,
    select=None,
    n_buckets: int = 64,
):
    """SPARQL ``FILTER EXISTS { ... }`` / ``FILTER NOT EXISTS { ... }``
    for the common correlated-on-shared-variables case: one semi
    (EXISTS) or anti (NOT EXISTS) join exchange; only the probe BGP's
    distinct keys ship on the right."""
    triples_ds = triples_ds.materialize()
    base, base_vars = _match_with_vars(triples_ds, base_patterns)
    out = exists_bindings(
        base, base_vars, triples_ds, exists_patterns, negate, n_buckets
    )
    return out if select is None else out.select_columns(list(select))


def values_filter(bindings, var: str, values):
    """SPARQL ``VALUES ?var { v1 v2 ... }`` joined onto the bindings:
    inline data is by definition broadcast-small, so this is a
    map-side ``is_in`` membership scan — never a shuffle."""
    value_set = pa.array(list(values), pa.string())
    return bindings.map_batches(
        lambda t: t.filter(
            pc.fill_null(
                pc.is_in(pc.cast(t.column(var), pa.string()), value_set=value_set),
                False,
            )
        ),
        batch_format="pyarrow",
    )


def values_filter_multi(bindings, var_names, rows):
    """SPARQL multi-variable ``VALUES (?a ?b) { (x y) (UNDEF z) ... }``
    joined onto the bindings (vars must be bound by the group — the
    same filter-join stance as the single-variable form): inline data
    is by definition broadcast-small, so this is a map-side mask — per
    inline row, AND the equalities over its non-UNDEF positions; a
    solution survives if ANY inline row matches.  Never a shuffle."""
    rows = [tuple(r) for r in rows]

    def xf(t: pa.Table) -> pa.Table:
        cols = {v: pc.cast(t.column(v), pa.string()) for v in var_names}
        total = None
        for r in rows:
            mask = None
            for v, val in zip(var_names, r):
                if val is None:  # UNDEF joins with anything
                    continue
                m = pc.equal(cols[v], val)
                mask = m if mask is None else pc.and_(mask, m)
            if mask is None:  # all-UNDEF row matches every solution
                mask = pa.array([True] * t.num_rows, pa.bool_())
            total = mask if total is None else pc.or_(total, mask)
        if total is None:  # empty inline block -> no solutions
            return t.slice(0, 0)
        return t.filter(pc.fill_null(total, False))

    return bindings.map_batches(xf, batch_format="pyarrow")


def bind_var(bindings, var: str, expr):
    """SPARQL ``BIND(expr AS ?var)``: ``expr`` maps the bindings
    pa.Table to the new column's Array (pyarrow.compute kernels) —
    pure map-side column append."""

    def add(batch: pa.Table) -> pa.Table:
        col = expr(batch)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.append_column(var, col)

    return bindings.map_batches(add, batch_format="pyarrow")


def distinct_bindings(bindings, on_vars, n_buckets: int = 64):
    """SPARQL ``SELECT DISTINCT ?a ?b``: project then global distinct
    (two-level: map-side dedup, one exchange on the key)."""
    from .distinct import distinct

    return distinct(
        bindings.select_columns(list(on_vars)), list(on_vars),
        n_buckets=n_buckets,
    )


# ---------------------------------------------------------------------------
# Property paths

_EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string())])


def _swap(ds):
    return ds.map_batches(
        lambda t: pa.Table.from_pydict(
            {"src": t.column("dst"), "dst": t.column("src")}
        ),
        batch_format="pyarrow",
    )


def _graph_terms(triples_ds):
    """Every term of the graph (subjects + objects), distinct — the
    zero-length-path universe (SPARQL 1.1 §9.3)."""
    from .distinct import distinct

    def terms(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [
                pa.table({"t": pc.cast(batch.column("subj"), pa.string())}),
                pa.table({"t": pc.cast(batch.column("obj_value"), pa.string())}),
            ]
        )

    return distinct(triples_ds.map_batches(terms, batch_format="pyarrow"), ["t"])


def path_edges(triples_ds, path, n_buckets: int = 64):
    """Evaluate a property-path expression to its (src, dst) edge
    Dataset over a (subj, pred, obj_value) triples Dataset.

    ``path``: an IRI string, or a tuple ``("seq", p1, p2, ...)``,
    ``("alt", p1, p2, ...)``, ``("inv", p)``, ``("plus", p)``,
    ``("star", p)``, ``("opt", p)`` (zero-or-one), or
    ``("neg", iri1, iri2, ...)`` (negated property set — every edge
    whose predicate is NOT in the set; map-side scan, zero shuffle).
    """
    if isinstance(path, str):
        scan = _scan(triples_ds, ("?src", path, "?dst"))
        return scan.map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "src": pc.cast(t.column("src"), pa.string()),
                    "dst": pc.cast(t.column("dst"), pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
    op, *args = path
    if op == "inv":
        return _swap(path_edges(triples_ds, args[0], n_buckets))
    if op == "alt":
        out = path_edges(triples_ds, args[0], n_buckets)
        for sub in args[1:]:
            out = out.union(path_edges(triples_ds, sub, n_buckets))
        return out
    if op == "seq":
        out = path_edges(triples_ds, args[0], n_buckets)
        for sub in args[1:]:
            nxt = path_edges(triples_ds, sub, n_buckets)
            joined = bucketed_hash_join(
                out.map_batches(
                    lambda t: pa.Table.from_pydict(
                        {"src": t.column("src"), "k": t.column("dst")}
                    ),
                    batch_format="pyarrow",
                ),
                nxt.map_batches(
                    lambda t: pa.Table.from_pydict(
                        {"k": t.column("src"), "dst2": t.column("dst")}
                    ),
                    batch_format="pyarrow",
                ),
                on="k",
                n_buckets=n_buckets,
                left_schema=pa.schema([("src", pa.string()), ("k", pa.string())]),
                right_schema=pa.schema([("k", pa.string()), ("dst2", pa.string())]),
            )
            out = joined.map_batches(
                lambda t: pa.Table.from_pydict(
                    {"src": t.column("src"), "dst": t.column("dst2")}
                )
                if t.num_rows
                else _EDGE_SCHEMA.empty_table(),
                batch_format="pyarrow",
            )
        return out
    if op == "plus":
        return transitive_closure(
            path_edges(triples_ds, args[0], n_buckets),
            n_buckets=n_buckets,
            key_type=pa.string(),
        )
    if op == "star":
        plus = path_edges(triples_ds, ("plus", args[0]), n_buckets)
        zero = _graph_terms(triples_ds).map_batches(
            lambda t: pa.Table.from_pydict(
                {"src": t.column("t"), "dst": t.column("t")}
            ),
            batch_format="pyarrow",
        )
        # plus already dedups; zero-length pairs may coincide with
        # 1+-length cycles (n ->+ n), so distinct the union
        from .distinct import distinct

        return distinct(plus.union(zero), ["src", "dst"])
    if op == "opt":  # p? — zero-or-one (SPARQL 1.1 §9.1 ZeroOrOnePath)
        one = path_edges(triples_ds, args[0], n_buckets)
        zero = _graph_terms(triples_ds).map_batches(
            lambda t: pa.Table.from_pydict(
                {"src": t.column("t"), "dst": t.column("t")}
            ),
            batch_format="pyarrow",
        )
        # a reflexive p-edge (n -p-> n) coincides with its zero-length
        # pair, so distinct the union (same reasoning as star)
        from .distinct import distinct

        return distinct(one.union(zero), ["src", "dst"])
    if op == "neg":  # !(p1|...|pn) — negated property set (§9.1)
        # map-side only: one scan keeping edges whose predicate is
        # OUTSIDE the excluded set — no join, no shuffle
        excluded = pa.array(sorted(set(args)), pa.string())

        def keep(batch: pa.Table) -> pa.Table:
            mask = pc.invert(pc.is_in(batch.column("pred"), excluded))
            kept = batch.filter(mask)
            return pa.Table.from_pydict(
                {
                    "src": pc.cast(kept.column("subj"), pa.string()),
                    "dst": pc.cast(kept.column("obj_value"), pa.string()),
                }
            )

        return triples_ds.map_batches(keep, batch_format="pyarrow")
    raise ValueError("unknown path operator %r" % (op,))


# ---------------------------------------------------------------------------
# Query forms beyond SELECT: CONSTRUCT / ASK (rdflib evalConstruct /
# evalAsk — rdflib/plugins/sparql/evaluate.py), and bindings
# aggregation (evalAggregateJoin)


def construct(triples_ds, patterns, template, n_buckets: int = 64):
    """SPARQL CONSTRUCT: match the BGP, instantiate ``template`` (a
    list of (s, p, o) patterns over the bound variables / constants)
    once per binding, and return the constructed triples, set-deduped
    (CONSTRUCT emits a GRAPH, not a bag).  Template instantiation is a
    vectorized map-side projection; the only exchanges are the BGP's
    own joins plus one distinct."""
    from .distinct import distinct

    bindings = bgp_match(triples_ds, patterns, n_buckets=n_buckets)

    def instantiate(batch: pa.Table) -> pa.Table:
        outs = []
        n = batch.num_rows
        for (s, p, o) in template:
            cols = {}
            for name, term in zip(("subj", "pred", "obj_value"), (s, p, o)):
                if isinstance(term, str) and term.startswith("?"):
                    cols[name] = pc.cast(batch.column(term[1:]), pa.string())
                else:
                    cols[name] = pa.nulls(n, pa.string()).fill_null(term)
            outs.append(pa.Table.from_pydict(cols))
        return pa.concat_tables(outs)

    made = bindings.map_batches(instantiate, batch_format="pyarrow")
    return distinct(made, ["subj", "pred", "obj_value"], n_buckets=n_buckets)


def ask(triples_ds, patterns, n_buckets: int = 64):
    """SPARQL ASK: True iff the BGP has at least one solution.  Short
    single-binding probe: ``limit(1)`` stops the streaming executor as
    soon as one row materializes."""
    got = bgp_match(triples_ds, patterns, n_buckets=n_buckets).limit(1).count()
    return got > 0


def aggregate_bindings(triples_ds, patterns, group_vars, n_buckets: int = 64):
    """SPARQL ``SELECT ?g (COUNT(*) AS ?n) WHERE {...} GROUP BY ?g``:
    one Ray-native grouped count over the BGP's bindings."""
    from ray.data.aggregate import Count

    bindings = bgp_match(triples_ds, patterns, n_buckets=n_buckets)
    return bindings.groupby(list(group_vars)).aggregate(Count(alias_name="n"))


# ---------------------------------------------------------------------------
# Arrow kernels of the aggregates and ORDER BY / LIMIT

_SEP = "\x1f"  # the engine's group_concat wire separator
_WS = " \t\n\v\f\r"
# the lexical forms pandas' to_numeric parses: ASCII digits only (no
# "1_000", no Arabic-Indic digits), an optional sign, inf / infinity;
# "nan" is left out because it coerces to missing anyway
_NUM_RE = r"^[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?$|^[+-]?inf(?:inity)?$"


def _nan_null(x):
    """NaN as null: the missing value the pandas kernels made of it."""
    if not pa.types.is_floating(x.type):
        return x
    return pc.if_else(pc.is_nan(x), pa.scalar(None, x.type), x)


def to_numeric(col):
    """``pandas.to_numeric(col, errors="coerce")`` in Arrow, with
    missing values null.  Strings are trimmed of ASCII whitespace.  A
    column whose every value is an integer lexical becomes int64
    (uint64 past int64's range, float64 past both); any other column
    becomes float64, its non-numeric and overflowing ("1e309") values
    null.  Doubles are correctly rounded; past 15 significant digits
    or at large exponents pandas' parser can be one ulp off."""
    t = col.type
    if pa.types.is_integer(t):
        return pc.cast(col, pa.float64()) if col.null_count else col
    if pa.types.is_floating(t):
        return _nan_null(col)
    s = pc.utf8_trim(pc.cast(col, pa.string()), _WS)
    ok = pc.fill_null(pc.match_substring_regex(s, _NUM_RE, ignore_case=True), False)
    s = pc.replace_substring_regex(pc.if_else(ok, s, None), r"^\+", "")
    if pc.all(ok, min_count=0).as_py():  # int64, else uint64, else float64
        for int_type in (pa.int64(), pa.uint64()):
            try:
                return pc.cast(s, int_type)
            except pa.ArrowInvalid:
                pass
    x = pc.cast(s, pa.float64())
    # inf from a lexical without an "n" (not inf/infinity) overflowed
    overflow = pc.and_(pc.is_inf(x), pc.invert(pc.match_substring(s, "n", ignore_case=True)))
    return pc.if_else(overflow, pa.scalar(None, pa.float64()), x)


def _group(t: pa.Table, gvars, specs) -> pa.Table:
    """``group_in_order``: the key columns, then one column per
    ``(name, column, fn)`` spec, named ``name``, NaN as null, a
    ``list`` as its strings sorted and joined on ``_SEP``.  A sum over
    no number is 0; a null key forms no group (as in pandas)."""
    for g in gvars:
        t = t.filter(pc.is_valid(t.column(g)))
    sum0 = pc.ScalarAggregateOptions(min_count=0)  # options do not pickle
    g = group_in_order(
        t, gvars, [(c, fn, sum0) if fn == "sum" else (c, fn) for _name, c, fn in specs]
    )
    # aggregate names may repeat (count_all): positional
    cols = [g.column(i) for i in range(g.num_columns)]
    return pa.Table.from_arrays(
        [_sorted_join(c) if pa.types.is_list(c.type) else _nan_null(c) for c in cols],
        names=[*gvars, *(s[0] for s in specs)],
    )


def _as_text(col):
    """Group_concat values: strings, null as ``"None"`` (the pandas
    kernels' ``astype(str)``)."""
    return pc.fill_null(pc.cast(col, pa.string()), "None")


def _sorted_join(lists):
    """Each list's strings in code-point order, joined on ``_SEP``."""
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = pc.list_flatten(lists)
    order = pc.sort_indices(
        pa.table({"p": pc.list_parent_indices(lists), "v": flat}),
        sort_keys=[("p", "ascending"), ("v", "ascending")],
    )
    offsets = pc.subtract(lists.offsets, lists.offsets[0])
    return pc.binary_join(pa.ListArray.from_arrays(offsets, flat.take(order)), _SEP)


def _distinct_aggregate_kernels(gvars, var, alias, fn):
    """``(partial, reduce_bucket)`` of :func:`grouped_distinct_aggregate`."""
    cols = list(dict.fromkeys([*gvars, var]))  # ?v may also be a group key
    aggs = {"count": "count", "sum": "sum", "avg": "mean", "group_concat": "list"}
    if fn not in aggs:
        raise ValueError("unknown distinct aggregate %r" % fn)

    def partial(batch: pa.Table) -> pa.Table:
        return group_in_order(batch.select(cols), cols)

    def reduce_bucket(group: pa.Table) -> pa.Table:
        d = partial(group)
        v = d.column(var)
        if fn in ("sum", "avg"):
            v = to_numeric(v)  # typed over the whole bucket, as pandas did
        elif fn == "group_concat":
            v = _as_text(v)
        out = _group(d.select(gvars).append_column("__v", v), gvars,
                     [(alias, "__v", aggs[fn])])
        if fn in ("sum", "avg"):
            return out.set_column(
                len(gvars), alias, pc.cast(out.column(alias), pa.float64(), safe=False)
            )
        return out

    return partial, reduce_bucket


def grouped_distinct_aggregate(bindings, group_vars, var, alias, fn="count",
                               n_buckets: int = 64):
    """SPARQL ``(AGG(DISTINCT ?var) AS ?alias) ... GROUP BY`` — the
    aggregates whose partial is not fixed-width because the distinct
    VALUE SET must survive to the reduce.  Two-level
    distinct-then-aggregate: a map-side Arrow ``group_by`` on (group,
    value) bounds each block's contribution by its distinct pairs, ONE
    bucketed exchange of those pairs, then a per-bucket dedup + final
    ``group_by`` aggregate.  A hot group ships its distinct values
    once per block, never its row count.

    ``fn``: ``count`` (distinct non-null values), ``sum`` / ``avg``
    (float64 over the distinct lexical values, by :func:`to_numeric`),
    or ``group_concat`` (sorted ``\\x1f``-join of the distinct values
    — same wire format as :func:`grouped_aggregate`, callers re-join
    on their separator)."""
    gvars = list(group_vars)

    if not gvars:
        return _one_group(
            bindings, [(fn, var, alias)],
            lambda b, g: grouped_distinct_aggregate(b, g, var, alias, fn=fn, n_buckets=1),
        )

    partial, reduce_bucket = _distinct_aggregate_kernels(gvars, var, alias, fn)
    return keyed_exchange(
        bindings.map_batches(partial, batch_format="pyarrow"), gvars,
        reduce_bucket, n_buckets, batch_format="pyarrow",
    )


def _one_group(bindings, aggs, aggregate):
    """An ungrouped aggregate: SPARQL treats the whole solution set as
    one group, so ``aggregate(bindings, gvars)`` runs under a constant
    hidden key, dropped after.  Zero solutions still yield ONE row (the
    SPARQL §18.5 empty-group result, :func:`_empty_group_row`)."""

    def add_key(t: pa.Table) -> pa.Table:
        return t.append_column("__all", pa.array(["0"] * t.num_rows, pa.string()))

    out = aggregate(bindings.map_batches(add_key, batch_format="pyarrow"), ["__all"])
    out = out.select_columns([a[2] for a in aggs]).materialize()
    return _empty_group_row(aggs, like=out) if out.count() == 0 else out


def _empty_group_row(aggs, like):
    """The SPARQL §18.5 aggregate result over ZERO solutions with no
    GROUP BY: the empty solution multiset is one group, so the query
    yields one row — COUNT = 0, SUM = 0, AVG = 0 (the spec defines
    Avg({}) = 0), GROUP_CONCAT = "", and MIN / MAX / SAMPLE unbound
    (the engine's ``UNBOUND`` "" sentinel).  ``aggs``: ``(fn, var,
    alias)`` tuples; ``fn`` may carry a ``_distinct`` suffix.  The row
    is a Dataset of the same kind as ``like``."""
    from .localframe import from_arrow_like

    cols = {}
    for fn, _v, alias, *_ in aggs:
        base = fn[: -len("_distinct")] if fn.endswith("_distinct") else fn
        if base == "count":
            cols[alias] = pa.array([0], pa.int64())
        elif base in ("sum", "avg"):
            cols[alias] = pa.array([0.0], pa.float64())
        elif base == "group_concat":
            cols[alias] = pa.array([""], pa.string())
        else:  # min / max / sample: error over {} -> unbound
            cols[alias] = pa.array([UNBOUND], pa.string())
    return from_arrow_like(like, pa.table(cols))


def _aggregate_kernels(gvars, aggs):
    """``(partial, reduce_bucket)`` of :func:`grouped_aggregate`.  The
    partial's columns per alias: ``c__`` count, ``s__`` sum (and
    ``n__`` count of numbers for avg), ``m__`` min/max, ``w__`` sample
    witness, ``g__`` sorted ``_SEP``-joined group_concat values."""
    # fn -> (partial column prefix, partial aggregate, reduce aggregate)
    parts = {"count": ("c__", "count_all", "sum"), "sum": ("s__", "sum", "sum"),
             "min": ("m__", "min", "min"), "max": ("m__", "max", "max"),
             "sample": ("w__", "min", "min"), "group_concat": ("g__", "list", "list")}
    specs, final = [], []
    for fn, _var, alias, *_ in aggs:
        if fn not in parts and fn != "avg":
            raise ValueError("unknown aggregate %r" % fn)
        avg = [("s__", "sum", "sum"), ("n__", "count", "sum")]
        for prefix, p_op, r_op in avg if fn == "avg" else [parts[fn]]:
            col = [] if p_op == "count_all" else "__v_" + alias
            specs.append((prefix + alias, col, p_op))
            final.append(("n__" + alias if prefix == "n__" else alias, prefix + alias, r_op))

    def partial(batch: pa.Table) -> pa.Table:
        cols = {g: batch.column(g) for g in gvars}
        for fn, var, alias, *flags in aggs:
            if fn == "group_concat":
                cols["__v_" + alias] = _as_text(batch.column(var))
            elif fn in ("sum", "avg") or (fn != "count" and "num" in flags):
                # typed over the whole batch, as pandas did
                cols["__v_" + alias] = to_numeric(batch.column(var))
            elif fn != "count":
                cols["__v_" + alias] = batch.column(var)
        return _group(pa.table(cols), gvars, specs)

    def reduce_bucket(group: pa.Table) -> pa.Table:
        g = _group(group, gvars, final)
        cols = [g.column(k) for k in gvars]
        for fn, _var, alias, *_ in aggs:
            c = g.column(alias)
            if fn == "avg":
                c = _nan_null(pc.divide(pc.cast(c, pa.float64(), safe=False),
                                        pc.cast(g.column("n__" + alias), pa.float64())))
            elif fn == "group_concat":
                # the partials joined whole; re-sort their tokens
                c = _sorted_join(pc.split_pattern(c, _SEP))
            cols.append(c)
        return pa.Table.from_arrays(cols, names=[*gvars, *(a[2] for a in aggs)])

    return partial, reduce_bucket


def grouped_aggregate(bindings, group_vars, aggs, n_buckets: int = 64):
    """SPARQL GROUP BY with the full 1.1 aggregate set (§18.5.1):
    COUNT / SUM / AVG / MIN / MAX / SAMPLE / GROUP_CONCAT.  HAVING is a
    :func:`filter_bindings` over the result (SPARQL Having is a Filter
    over the aggregated solutions).

    ``aggs``: list of ``(fn, var, alias)`` or ``(fn, var, alias,
    "num")`` — ``fn`` one of ``count`` (var ignored, COUNT(*)),
    ``sum``/``avg``/``min``/``max`` (var read by :func:`to_numeric` for
    sum/avg, avg as float64; min/max stay in the var's type unless the
    ``"num"`` flag reads them as numbers — SPARQL compares literals by
    datatype, and bindings carry lexical forms),
    ``sample`` (deterministic: the MIN value — SPARQL allows any
    witness, a fixed choice keeps runs reproducible), ``group_concat``
    (values globally sorted then ``sep``-joined, the deterministic
    order DuckDB's ``string_agg(... ORDER BY ...)`` mirrors).

    Two-level plan: a per-batch Arrow ``group_by`` emits ONE partial
    row per (group, block) — algebraic partials (counts, sums, mins,
    maxes, avg's sum+count pair) stay fixed-width; only group_concat's
    partial grows with the batch's values (it is holistic — callers
    should reserve it for bounded-cardinality columns, same caveat as
    any engine's STRING_AGG).  Partials then shuffle ONCE bucketed by
    group-key hash and reduce with one ``group_by`` per bucket.  A hot
    group contributes num_blocks partial rows, not its row count."""
    gvars = list(group_vars)

    if not gvars:
        return _one_group(
            bindings, aggs, lambda b, g: grouped_aggregate(b, g, aggs, n_buckets=1)
        )

    partial, reduce_bucket = _aggregate_kernels(gvars, aggs)
    return keyed_exchange(
        bindings.map_batches(partial, batch_format="pyarrow"), gvars,
        reduce_bucket, n_buckets, batch_format="pyarrow",
    )


def describe(triples_ds, patterns, var, n_buckets: int = 64,
             const_subjects=None, bindings=None):
    """SPARQL DESCRIBE ?v: every triple whose SUBJECT is a solution of
    ?v under the BGP (the simple-subject description rdflib's
    describe implementation emits).  One exact semi join of the triples
    against the distinct solution set — only solution keys shuffle on
    the right.

    ``const_subjects``: DESCRIBE <iri> … form — the subject set is a
    known constant list, so the semi join collapses to a map-side
    ``is_in`` filter over the scan (zero shuffle)."""
    from .distinct import distinct

    if const_subjects:
        subs = pa.array([str(s) for s in const_subjects], pa.string())

        def pick(batch: pa.Table) -> pa.Table:
            subj = pc.cast(batch.column("subj"), pa.string())
            t = batch.filter(pc.is_in(subj, value_set=subs))
            return pa.Table.from_pydict(
                {
                    "subj": pc.cast(t.column("subj"), pa.string()),
                    "pred": pc.cast(t.column("pred"), pa.string()),
                    "obj_value": pc.cast(t.column("obj_value"), pa.string()),
                }
            )

        return triples_ds.map_batches(pick, batch_format="pyarrow")

    triples_ds = triples_ds.materialize()
    if bindings is None:
        bindings = bgp_match(triples_ds, patterns, n_buckets=n_buckets)

    # DESCRIBE ?v [?w ...]: the subject set is the union over vars
    vars_ = [var] if isinstance(var, str) else list(var)

    def keys(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            pa.Table.from_pydict(
                {"subj": pc.cast(batch.column(v), pa.string())}
            )
            for v in vars_
        )

    subjects = distinct(
        bindings.map_batches(keys, batch_format="pyarrow"), ["subj"]
    )

    def typed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "subj": pc.cast(batch.column("subj"), pa.string()),
                "pred": pc.cast(batch.column("pred"), pa.string()),
                "obj_value": pc.cast(batch.column("obj_value"), pa.string()),
            }
        )

    return bucketed_hash_join(
        triples_ds.map_batches(typed, batch_format="pyarrow"),
        subjects,
        on="subj",
        n_buckets=n_buckets,
        how="semi",
        left_schema=pa.schema(
            [("subj", pa.string()), ("pred", pa.string()),
             ("obj_value", pa.string())]
        ),
        right_schema=pa.schema([("subj", pa.string())]),
    )


def _order_limit_kernels(sort_vars, descending, offset, limit):
    """``(partial, final)`` of :func:`order_limit` with a LIMIT: stable
    sorts (nulls last), then the first ``offset + limit`` rows / the
    ``[offset, offset + limit)`` window."""
    keys = [(v, "descending" if d else "ascending")
            for v, d in zip(sort_vars, descending)]

    def partial(batch: pa.Table) -> pa.Table:
        return batch.sort_by(keys).slice(0, offset + limit)

    def final(batch: pa.Table) -> pa.Table:
        return batch.sort_by(keys).slice(offset, limit)

    return partial, final


def order_limit(bindings, sort_vars, descending=False, limit: int | None = None,
                offset: int = 0):
    """SPARQL solution modifiers ORDER BY / OFFSET / LIMIT over a
    bindings Dataset.  With a LIMIT, the heavy lift is map-side partial
    top-(offset+limit) per block — only offset+limit rows leave each
    block — followed by a one-partition exact head; without one it is a
    full distributed sort."""
    sort_vars = list(sort_vars)
    if isinstance(descending, bool):
        descending = [descending] * len(sort_vars)
    if limit is None:
        out = bindings.sort(sort_vars, descending=descending)
        if offset:
            raise ValueError("OFFSET without LIMIT needs a full sort + skip; "
                             "pass a LIMIT")
        return out
    partial, final = _order_limit_kernels(sort_vars, descending, offset, limit)
    return (
        bindings.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )
