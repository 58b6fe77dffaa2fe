"""The distiller stage: transcript turns -> (subj, pred, obj, graph) rows.

Engine analogue of the reference's per-document
``graph_from_source`` loop (``/root/reference/pyRdfa/__init__.py:689-
725``), re-expressed as a stateful Ray Data actor stage:

    triples = turns.map_batches(
        RdfaDistiller, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=DISTILL_BATCH_SIZE, concurrency=(2, cores), num_cpus=1)

Actor pool (not tasks) because per-actor state is warm: compiled
regexes, interned context tables, vocab expansion maps
(``KernelOptions`` construction), mirroring the reference's per-call
setup cost being amortized (SURVEY.md §7.2).

The per-row kernel is inherently row-oriented (a DOM walk), so the
"vectorization" here is batch-level: one Arrow table in, one Arrow
table out, with column builders filled in a tight loop and converted
once per batch.
"""

from __future__ import annotations

import pyarrow as pa

from ..kernel import KernelOptions, distill
from ..rdf.terms import IRI, LIT

# Tuned for ~1-10 KB markup fragments: a batch stays well under the
# object-store block target while amortizing actor-call overhead.
DISTILL_BATCH_SIZE = 512

TRIPLES_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("kind", pa.string()),  # "triple" | "diag"
        ("subj", pa.large_string()),
        ("subj_kind", pa.string()),  # "iri" | "bnode"
        ("pred", pa.large_string()),
        ("obj_value", pa.large_string()),
        ("obj_kind", pa.string()),  # "iri" | "bnode" | "literal"
        ("obj_lang", pa.string()),
        ("obj_datatype", pa.string()),
        ("graph", pa.string()),
    ]
)


def graph_iri(conv_id: str, turn_idx: int) -> str:
    """Skolem per-turn document/graph IRI (also the RDFa base, so that
    relative IRIs in fragments resolve inside the turn's namespace)."""
    return "http://graft.local/conv/%s/turn/%d" % (conv_id, turn_idx)


class RdfaDistiller:
    """Actor: parses each turn's ``text`` and emits triple + diagnostic rows.

    ``mode``: "rdfa" (default), "rdfa10" (pin RDFa 1.0 — the
    RDFa10Parser plugin variant) or "hturtle" (embedded-turtle-only —
    the HTurtleParser variant); reference rdflibparsers.py:183-351.
    """

    def __init__(
        self,
        options_kwargs: dict | None = None,
        vocab_graphs: dict | None = None,
        mode: str = "rdfa",
    ):
        kwargs = dict(options_kwargs or {})
        if vocab_graphs:
            kwargs["vocab_graphs"] = vocab_graphs
        self._options_kwargs = kwargs
        # one options object per actor, reused across rows (distill()
        # resets diagnostics and restores embedded_rdf per document);
        # round-1 rebuilt the dataclass inside the per-turn loop
        self._options = KernelOptions(**kwargs)
        if mode == "rdfa10":
            from ..kernel.walk import distill_rdfa10 as _fn
        elif mode == "hturtle":
            from ..kernel.walk import extract_hturtle as _fn
        elif mode == "structured":
            from ..kernel.walk import distill_structured as _fn
        else:
            _fn = distill
        self._distill = _fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv_ids = batch.column("conv_id").to_pylist()
        turn_idxs = batch.column("turn_idx").to_pylist()
        texts = batch.column("text").to_pylist()

        out = {name: [] for name in TRIPLES_SCHEMA.names}
        subj, subj_kind, pred = out["subj"].append, out["subj_kind"].append, out["pred"].append
        obj_value, obj_kind = out["obj_value"].append, out["obj_kind"].append
        obj_lang, obj_datatype = out["obj_lang"].append, out["obj_datatype"].append

        for conv_id, turn_idx, text in zip(conv_ids, turn_idxs, texts):
            if not text:
                continue
            g_iri = graph_iri(conv_id, turn_idx)
            triples, diags = self._distill(text, base=g_iri, options=self._options)
            n = len(triples) + len(diags)
            if not n:
                continue
            # the per-document columns, once per document
            out["conv_id"] += [conv_id] * n
            out["turn_idx"] += [turn_idx] * n
            out["graph"] += [g_iri] * n
            out["kind"] += ["triple"] * len(triples) + ["diag"] * len(diags)
            for (s, p, o) in triples:
                subj(s[1])
                subj_kind("iri" if s[0] == IRI else "bnode")
                pred(p[1])
                obj_value(o[1])
                if o[0] == LIT:
                    obj_kind("literal")
                    obj_lang(o[2])
                    obj_datatype(o[3])
                else:
                    obj_kind("iri" if o[0] == IRI else "bnode")
                    obj_lang(None)
                    obj_datatype(None)
            for d in diags:
                subj(d.severity)
                subj_kind("iri")
                pred(d.dclass or "")
                obj_value(d.message)
                obj_kind("literal")
                obj_lang(None)
                obj_datatype(None)

        return pa.Table.from_pydict(out, schema=TRIPLES_SCHEMA)


_TASK_CACHE: dict = {}


def distill_batch_task(batch: pa.Table, options_kwargs=None, mode: str = "rdfa") -> pa.Table:
    """Task-based distiller for elastic map_batches tasks.

    The distiller's per-actor state is actually module-level (compiled
    regexes, interned context tables) — and measurement showed Ray's
    streaming resource manager caps an autoscaling actor pool well
    below its max when downstream operators hold CPU reservations
    (observed avg 15.8 of 32 actors), so plain tasks both scale better
    (measured 8->32 cpu efficiency 0.88 vs 0.71) and lose nothing.
    ``RdfaDistiller`` remains for configurations with real per-actor
    state (vocab-expansion maps, custom transformer closures).
    """
    key = (repr(sorted((options_kwargs or {}).items())), mode)
    d = _TASK_CACHE.get(key)
    if d is None:
        d = RdfaDistiller(options_kwargs=options_kwargs, mode=mode)
        _TASK_CACHE.clear()
        _TASK_CACHE[key] = d
    return d(batch)


def split_triples(batch: pa.Table) -> pa.Table:
    """Stateless filter: keep data triples (drop diagnostics)."""
    import pyarrow.compute as pc

    return batch.filter(pc.equal(batch.column("kind"), "triple"))


def split_diags(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    return batch.filter(pc.equal(batch.column("kind"), "diag"))
