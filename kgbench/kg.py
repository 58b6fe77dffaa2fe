"""kg_query: SPARQL templates over a persisted quad store, and their
DuckDB twins.

Every template is graph-scoped or single-pattern.  A subject star over
canonicalized entity IRIs that is NOT graph-scoped joins the hot
entity's rows with themselves across every document (measured: 6.9 GB
RSS in one task at 40k turns), so none is used; the client's RSS and
time caps turn such a query into a failed operation instead of an OOM
(``run_query``).
"""

from __future__ import annotations

import glob
import json
import os
import random
import sys
import threading
import time

import pyarrow as pa
import pyarrow.compute as pc

SCHEMA = "http://schema.org/"
EX = "http://example.org/terms#"
DCT = "http://purl.org/dc/terms/"
OWL_SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"
QUAD_COLS = ("subj", "pred", "obj_value", "graph")
# one closed-loop client on one core: the default 64 hash buckets per
# join would be 64 tasks of per-task overhead for a few thousand rows
N_BUCKETS = 4

# (first predicate, second predicate) of each graph-scoped star; one slot per template in
# every rotation round, so each run has the same mix whatever its seed
_STARS = [
    (SCHEMA + "name", SCHEMA + "description"),
    (SCHEMA + "performer", SCHEMA + "startDate"),
    (EX + "subject", EX + "mentions"),
]
_COUNTED = [DCT + "title", SCHEMA + "name", EX + "mentions", SCHEMA + "keywords",
            EX + "label", SCHEMA + "performer"]


def to_quads(batch: pa.Table) -> pa.Table:
    """Flagship output rows -> (subj, pred, obj_value, graph) triple rows."""
    batch = batch.filter(pc.equal(batch.column("kind"), "triple"))
    return pa.table({c: pc.cast(batch.column(c), pa.string()) for c in QUAD_COLS})


def build_store(flagship_out: str, store_dir: str) -> dict:
    import ray.data as rd
    from rdfa_ray.stages.kgstore import persist_kg

    ds = rd.read_parquet(os.path.join(flagship_out, "parquet"))
    return persist_kg(ds.map_batches(to_quads, batch_format="pyarrow"), store_dir)


def store_files(store_dir: str) -> list[str]:
    with open(os.path.join(store_dir, "_meta.json")) as f:
        parts = json.load(f)["partitions"]
    return sorted(
        p for rel in parts.values()
        for p in glob.glob(os.path.join(store_dir, rel, "*.parquet"))
    )


def store_bytes(store_dir: str) -> int:
    return sum(os.path.getsize(p) for p in store_files(store_dir))


def templates(seed: int, rnd: int = 0) -> list[tuple[str, str, list[str], str]]:
    """Round ``rnd`` of the rotation: (name, SPARQL text, output
    variables, DuckDB twin over table ``q``) in a seeded order.  The
    counted predicates step through ``_COUNTED`` two per round, so every
    three rounds run the same queries whatever the seed."""
    rng = random.Random(seed * 100_003 + rnd)
    out = []
    for i, (p1, p2) in enumerate(_STARS):
        out.append((
            "star%d" % i,
            "SELECT ?g ?s ?a ?b WHERE { GRAPH ?g { ?s <%s> ?a . ?s <%s> ?b } }" % (p1, p2),
            ["g", "s", "a", "b"],
            "SELECT a.graph, a.subj, a.obj_value, b.obj_value FROM q a JOIN q b"
            " ON a.graph = b.graph AND a.subj = b.subj"
            " WHERE a.pred = '%s' AND b.pred = '%s' AND a.graph <> ''" % (p1, p2),
        ))
    for i in range(2):
        p = _COUNTED[(2 * rnd + i) % len(_COUNTED)]
        out.append((
            "count%d" % i,
            "SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <%s> ?o } GROUP BY ?o" % p,
            ["o", "n"],
            "SELECT obj_value, COUNT(*) FROM q WHERE pred = '%s' GROUP BY obj_value" % p,
        ))
    out.append((
        "sameas",
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <%s> ?o } GROUP BY ?s" % OWL_SAME_AS,
        ["s", "n"],
        "SELECT subj, COUNT(*) FROM q WHERE pred = '%s' GROUP BY subj" % OWL_SAME_AS,
    ))
    rng.shuffle(out)
    return out


class Twin:
    """DuckDB over the store's Parquet files; answers are cached per
    SQL text."""

    def __init__(self, store_dir: str):
        import duckdb

        self.con = duckdb.connect()
        files = ", ".join("'%s'" % f.replace("'", "''") for f in store_files(store_dir))
        self.con.execute("CREATE TABLE q AS SELECT subj, pred, obj_value, graph"
                         " FROM read_parquet([%s])" % files)
        self._cache: dict[str, list[tuple]] = {}

    def rows(self, sql: str) -> list[tuple]:
        if sql not in self._cache:
            self._cache[sql] = sorted(self.con.execute(sql).fetchall())
        return self._cache[sql]


def collect(ds, cols: list[str]) -> list[tuple]:
    """Materialize a query result as sorted rows."""
    tables = [b.select(cols) for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
              if b.num_rows]
    if not tables:
        return []
    return sorted(tuple(r.values()) for r in pa.concat_tables(tables).to_pylist())


class CapExceeded(RuntimeError):
    """A request passed its time or RSS cap and was abandoned."""


def run_query(store_dir: str, query: str, cols: list[str], cap_s: float,
              tripped=lambda: False):
    """One closed-loop request: (rows, seconds); rows is None when the
    request raised.

    The request runs on a helper thread while this one waits for it, for
    ``cap_s`` or for ``tripped()`` (an RSS cap).  Ray Data retries a task
    whose worker died without limit, and Ray cannot be shut down under a
    running request, so a request over its cap raises ``CapExceeded``:
    the caller counts it as failed and kills Ray's processes."""
    from rdfa_ray.stages.sparql_text import execute_on_store

    out: dict = {}

    def request():
        try:
            out["rows"] = collect(execute_on_store(store_dir, query, n_buckets=N_BUCKETS), cols)
        except Exception as e:  # noqa: BLE001 - a failed request is counted, not fatal
            print("kgbench: query failed: %s: %s" % (type(e).__name__, e), file=sys.stderr)

    t = time.perf_counter()
    worker = threading.Thread(target=request, daemon=True)
    worker.start()
    while worker.is_alive():
        worker.join(0.05)
        if worker.is_alive() and (tripped() or time.perf_counter() - t > cap_s):
            raise CapExceeded("over its %s cap" % ("RSS" if tripped() else "time"))
    return out.get("rows"), time.perf_counter() - t
