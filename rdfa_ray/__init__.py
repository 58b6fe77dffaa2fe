"""rdfa_ray — a Ray-Data-native RDFa-1.1 distiller / KG-construction engine.

A from-scratch reimplementation of the *semantics* of RDFLib/pyrdfa3
(the W3C RDFa 1.1 distiller) as a distributed Ray Data pipeline:
transcript turns (``conv_id, turn_idx, role, text, tool, ts``) carry
(X)HTML/SVG/XML fragments; a per-turn evaluation-context walk (the
"kernel", ``rdfa_ray.kernel``) extracts (subj, pred, obj, graph)
triples inside ``map_batches`` actor pools; downstream stages do
entity linking, canonicalization and partitioned graph materialization.

Nothing is ported from the reference's execution architecture (it is a
single-threaded recursive library); only its observable triple output
is reproduced.  Reference anchors are cited per module as
``/root/reference/pyRdfa/<file>:<lines>``.
"""

__version__ = "0.1.0"


def __getattr__(name):
    # lazy: Graph pulls in ray.data; keep bare `import rdfa_ray` light
    if name == "Graph":
        from .graph import Graph

        return Graph
    raise AttributeError(name)


def query_results(source, sparql: str, format: str = "json",
                  n_buckets: int = 64) -> str:
    """``query()`` then serialize to a W3C SPARQL 1.1 results document
    — ``format`` in {"json", "csv", "tsv"} (``rdf/results.py``); the
    rdflib ``graph.query(...).serialize(format=...)`` analogue.
    Collects the result driver-side: meant for query-sized outputs,
    not corpus-sized ones (serialize per-batch for those)."""
    from .rdf.results import results_csv, results_json, results_tsv

    res = query(source, sparql, n_buckets=n_buckets)
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    ser = {"json": results_json, "csv": results_csv, "tsv": results_tsv}
    if format not in ser:
        raise ValueError("unsupported results format %r" % format)
    return ser[format](df)


def query(source, sparql: str, n_buckets: int = 64):
    """Run a SPARQL string (SELECT / ASK / CONSTRUCT / DESCRIBE — see
    ``rdfa_ray.stages.sparql_text`` for the supported fragment) against
    either a (subj, pred, obj_value) ``ray.data.Dataset`` or a
    persisted KG store directory (``rdfa_ray.stages.kgstore``; store
    paths get predicate-pushdown partition pruning).  The rdflib
    ``graph.query(...)`` analogue for this engine.  Returns a Ray
    Dataset, or the in-process ``ArrowFrame`` for a store query whose
    pruned read fits ``LOCAL_MAX_ROWS``.  Both answer ``iter_batches``,
    ``iter_rows``, ``take_all``, ``to_pandas``, ``count``, ``schema``
    (``names``, ``types``), ``columns`` and ``materialize``; for any
    other Dataset method promote a frame with
    ``ray.data.from_arrow(res.to_arrow())``."""
    from .stages.sparql_text import execute, execute_on_store

    if isinstance(source, str):
        return execute_on_store(source, sparql, n_buckets=n_buckets)
    return execute(source, sparql, n_buckets=n_buckets)


def parse(source, format: str = "markup", options_kwargs=None,
          on_malformed: str = "raise"):
    """Distill input into a triples ``ray.data.Dataset`` — the rdflib
    ``Graph().parse(...)`` analogue, distributed.

    ``source``:
      * path(s) / glob / directory of (X)HTML/SVG/XML documents
        (``format="markup"``, the reference CLI's file mode) — one
        graph per document;
      * path(s) to N-Triples / N-Quads files (``format="ntriples"``);
      * an already-loaded transcripts-shaped Dataset
        (``conv_id, turn_idx, text, ...``; format ignored).

    Returns the engine's triple layout ``(conv_id?, subj, subj_kind,
    pred, obj_value, obj_kind, obj_lang, obj_datatype, graph)`` —
    feed it straight to :func:`query` or any ``stages`` operator.
    ``on_malformed="skip"`` quarantines undecodable/corrupt inputs
    instead of failing the read (the 100-TB-crawl stance)."""
    from .pipelines.flagship import build_triples
    from .stages.distill import split_triples

    if not isinstance(source, (str, list, tuple)):
        turns = source  # a transcripts Dataset
    elif format == "markup":
        from .sources.markupfiles import read_markup_documents

        turns = read_markup_documents(source, on_malformed=on_malformed)
    elif format in ("ntriples", "nquads", "nt", "nq"):
        from .sources.ntfiles import read_ntriples

        return read_ntriples(source, on_malformed=on_malformed)
    else:
        raise ValueError(
            "parse() formats: 'markup', 'ntriples' — got %r" % format
        )
    return build_triples(turns, options_kwargs=options_kwargs).map_batches(
        split_triples, batch_format="pyarrow"
    )


def update(store_dir: str, sparql: str, n_buckets: int = 64) -> dict:
    """Run a SPARQL 1.1 Update string (INSERT/DELETE DATA, DELETE
    WHERE, DELETE/INSERT WHERE, CLEAR; ';'-separated sequences) against
    a persisted KG store directory — the rdflib ``graph.update(...)``
    analogue.  Returns the final store manifest.  See
    ``rdfa_ray.stages.sparql_update`` for the supported fragment and
    the evaluate-then-mutate / generational-rewrite semantics."""
    from .stages.sparql_update import execute_update

    return execute_update(store_dir, sparql, n_buckets=n_buckets)
