"""Serialization sinks beyond N-Quads/Parquet: Turtle and JSON-LD
(SURVEY.md §2.1 S5; reference ``pyRdfaExtras/serializers/``).

Ray shape: a stateless ``map_batches`` kernel that renders one
serialized document per graph.  No shuffle is needed — the distiller
emits a turn's rows contiguously within its output block, so a
batch-local pandas groupby(graph) sees every graph whole.  (If the
input has been re-partitioned on another key, pass it through
``groupby("graph")`` first — documented partitioning assumption.)

The serializer object (prefix tables, regexes) is built once per
worker and cached — actor-pool-style state without reserving CPUs.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..rdf.jsonld import JsonLdSerializer
from ..rdf.rdfxml import RdfXmlSerializer
from ..rdf.terms import BNODE, IRI, literal
from ..rdf.turtle import TurtleSerializer

SERIALIZED_SCHEMA = pa.schema(
    [
        ("graph", pa.string()),
        ("text", pa.large_string()),
        ("n_triples", pa.int64()),
    ]
)


def rows_to_terms(df: pd.DataFrame):
    """Triple rows (subj, subj_kind, pred, obj_value, obj_kind,
    obj_lang, obj_datatype) -> iterable of term-tuple triples."""
    for s, sk, p, ov, ok, lang, dt in zip(
        df["subj"], df["subj_kind"], df["pred"], df["obj_value"],
        df["obj_kind"], df["obj_lang"], df["obj_datatype"],
    ):
        subj = (IRI, s) if sk == "iri" else (BNODE, s)
        if ok == "literal":
            obj = literal(ov, lang if isinstance(lang, str) and lang else None,
                          dt if isinstance(dt, str) and dt else None)
        elif ok == "bnode":
            obj = (BNODE, ov)
        else:
            obj = (IRI, ov)
        yield (subj, (IRI, p), obj)


class NTriplesSerializer:
    """Adapter giving the line-oriented N-Triples writer the same
    ``.serialize(triples)`` surface as the structured serializers."""

    def serialize(self, triples) -> str:
        from ..rdf.ntriples import graph_to_ntriples

        return graph_to_ntriples(triples)


_SERIALIZERS = {
    "turtle": TurtleSerializer,
    "jsonld": JsonLdSerializer,
    "pretty-xml": RdfXmlSerializer,
    "nt": NTriplesSerializer,
}

# Output-format aliases, matching the reference's accepted set
# (/root/reference/pyRdfa/__init__.py:459-466 accepts turtle/n3/xml/
# pretty-xml/nt/json-ld, with "json" a documented json-ld synonym at
# :694).  One deliberate deviation: the reference SILENTLY falls back
# to turtle on an unknown format; this engine raises instead — a
# silent format switch corrupts downstream consumers.
FORMAT_ALIASES = {
    "turtle": "turtle",
    "n3": "turtle",
    "ttl": "turtle",
    "xml": "pretty-xml",
    "pretty-xml": "pretty-xml",
    "nt": "nt",
    "ntriples": "nt",
    "n-triples": "nt",
    "json-ld": "jsonld",
    "json": "jsonld",
    "jsonld": "jsonld",
}


def resolve_format(fmt: str) -> str:
    """Canonical serializer key for any reference-accepted format name;
    raises ``ValueError`` on anything else (loud, unlike the
    reference's silent turtle fallback)."""
    try:
        return FORMAT_ALIASES[str(fmt).strip().lower()]
    except KeyError:
        raise ValueError(
            "unknown output format %r; accepted: %s"
            % (fmt, "/".join(sorted(FORMAT_ALIASES)))
        ) from None


_CACHE: dict = {}


def serialize_batch(batch: pa.Table, fmt: str = "turtle") -> pa.Table:
    """map_batches kernel: triple rows -> one serialized doc per graph."""
    fmt = resolve_format(fmt)
    ser = _CACHE.get(fmt)
    if ser is None:
        ser = _SERIALIZERS[fmt]()
        _CACHE[fmt] = ser
    df = batch.select(
        ["graph", "subj", "subj_kind", "pred", "obj_value", "obj_kind",
         "obj_lang", "obj_datatype"]
    ).to_pandas()
    graphs, texts, counts = [], [], []
    for g, sub in df.groupby("graph", sort=False):
        triples = set(rows_to_terms(sub))
        graphs.append(g)
        texts.append(ser.serialize(triples))
        counts.append(len(triples))
    return pa.Table.from_pydict(
        {"graph": graphs, "text": texts,
         "n_triples": pa.array(counts, pa.int64())},
        schema=SERIALIZED_SCHEMA,
    )


def serialize_graphs(
    triples_ds, fmt: str = "turtle", contiguous: bool = False, n_buckets: int = 64
):
    """Triples Dataset -> (graph, text, n_triples) Dataset.

    ``contiguous=True`` is the zero-shuffle fast path, valid ONLY when
    every graph's rows sit contiguously inside one block (the
    distiller's output layout — its callers pass it explicitly).  The
    default routes through ONE graph-keyed coarse-bucket exchange so
    an arbitrarily shuffled input still yields exactly one row per
    graph (a batch-local groupby on shuffled input would silently emit
    several partial documents per graph)."""
    fmt = resolve_format(fmt)  # fail on the driver, before any task launches
    if contiguous:
        return triples_ds.map_batches(
            lambda b: serialize_batch(b, fmt), batch_format="pyarrow"
        )
    from ..functions.exchange import keyed_exchange

    # coarse buckets, NOT per-graph dispatch: each call serializes a
    # whole bucket of graphs through the same batch kernel
    return keyed_exchange(
        triples_ds, "graph", lambda t: serialize_batch(t, fmt), n_buckets, "pyarrow"
    )
