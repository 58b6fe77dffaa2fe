"""Entity linking: mention detection over literal objects against a
broadcast alias dictionary (SURVEY.md §2.5 D1).

Broadcast pattern: the alias dict is ``ray.put`` once on the driver;
each linker actor fetches it ONCE in ``__init__`` and compiles a
single alternation regex — never re-shipped per batch.  No shuffle.
"""

from __future__ import annotations

import re

import pyarrow as pa

LINKS_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("graph", pa.string()),
        ("subj", pa.large_string()),
        ("subj_kind", pa.string()),
        ("pred", pa.large_string()),
        ("entity", pa.string()),
        ("surface", pa.string()),
        ("score", pa.float64()),
    ]
)


class EntityLinker:
    """map_batches actor: triples rows -> link rows.

    A link is emitted when a literal object contains an alias surface
    form.  score = 1.0 for an exact full-string match, 0.8 for a
    substring (word-boundary) match — deterministic, no model.
    """

    def __init__(self, alias_ref=None, alias_table: dict | None = None):
        if alias_table is None:
            import ray

            alias_table = ray.get(alias_ref)
        self.aliases = alias_table
        # empty surfaces would be zero-width matches at every word
        # boundary; with none left, an empty alternation would match the
        # empty string everywhere — emit nothing
        surfaces = sorted((a for a in alias_table if a), key=len, reverse=True)
        if not surfaces:
            self.rx = None
            return
        # longest-first so overlapping aliases match maximally.  Each
        # branch starts with a literal character so sre can skip ahead
        # to candidate first characters; the width-2 lookbehind after
        # that character is the "no word character before the match"
        # check (DOTALL so its "." also takes a newline first character)
        pattern = "|".join(
            re.escape(a[0]) + r"(?<!\w.)" + re.escape(a[1:]) for a in surfaces
        )
        self.rx = re.compile(r"(%s)(?![\w])" % pattern, re.DOTALL)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if self.rx is None:
            return pa.Table.from_pydict(
                {name: [] for name in LINKS_SCHEMA.names}, schema=LINKS_SCHEMA
            )
        mask = pc.and_(
            pc.equal(batch.column("kind"), "triple"),
            pc.equal(batch.column("obj_kind"), "literal"),
        )
        lits = batch.filter(mask)
        out = {name: [] for name in LINKS_SCHEMA.names}
        conv = lits.column("conv_id").to_pylist()
        turn = lits.column("turn_idx").to_pylist()
        graph = lits.column("graph").to_pylist()
        subj = lits.column("subj").to_pylist()
        subj_kind = lits.column("subj_kind").to_pylist()
        pred = lits.column("pred").to_pylist()
        vals = lits.column("obj_value").to_pylist()
        for i, v in enumerate(vals):
            if not v:
                continue
            for m in self.rx.finditer(v):
                surface = m.group(1)
                out["conv_id"].append(conv[i])
                out["turn_idx"].append(turn[i])
                out["graph"].append(graph[i])
                out["subj"].append(subj[i])
                out["subj_kind"].append(subj_kind[i])
                out["pred"].append(pred[i])
                out["entity"].append(self.aliases[surface])
                out["surface"].append(surface)
                out["score"].append(1.0 if surface == v else 0.8)
        return pa.Table.from_pydict(out, schema=LINKS_SCHEMA)


_LINKER_CACHE: dict = {}


def _cached_linker(cls, alias_ref):
    ref = alias_ref.hex() if hasattr(alias_ref, "hex") else id(alias_ref)
    key = (cls.__name__, ref)
    linker = _LINKER_CACHE.get(key)
    if linker is None:
        linker = cls(alias_ref=alias_ref)
        _LINKER_CACHE.clear()
        _LINKER_CACHE[key] = linker
    return linker


def link_batch(batch: pa.Table, alias_ref=None) -> pa.Table:
    """Task-based EntityLinker: elastic map_batches tasks with the
    compiled alias regex cached per worker process (see
    ``link_batch_augmenting`` for why tasks beat an actor pool here)."""
    return _cached_linker(EntityLinker, alias_ref)(batch)


def link_batch_augmenting(batch: pa.Table, alias_ref=None) -> pa.Table:
    """Task-based AugmentingLinker: a plain function for elastic
    map_batches tasks (an actor pool here would RESERVE CPUs and fight
    the distiller pool for the node; the linker's per-task state — the
    compiled alias regex — is cached per worker process instead)."""
    return _cached_linker(AugmentingLinker, alias_ref)(batch)


class AugmentingLinker(EntityLinker):
    """Single-pass variant: emits the INPUT rows (tagged with
    ``_row_kind``) plus the link rows in one unified schema, so the
    pipeline stays a linear chain (the distiller output is consumed
    exactly once — a forked Dataset would re-execute the whole
    upstream per consumer)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        links = EntityLinker.__call__(self, batch)
        n = batch.num_rows
        passthrough = batch.append_column(
            "_row_kind", batch.column("kind").cast(pa.string())
        )
        passthrough = passthrough.append_column(
            "entity", pa.repeat(pa.scalar("", pa.string()), n)
        )
        passthrough = passthrough.append_column(
            "score", pa.repeat(pa.scalar(0.0, pa.float64()), n)
        )
        m = links.num_rows
        link_rows = pa.Table.from_pydict(
            {
                "conv_id": links.column("conv_id"),
                "turn_idx": links.column("turn_idx"),
                "kind": pa.repeat(pa.scalar("link", pa.string()), m),
                "subj": links.column("subj").cast(pa.large_string()),
                "subj_kind": links.column("subj_kind"),
                "pred": links.column("pred").cast(pa.large_string()),
                "obj_value": pa.repeat(pa.scalar("", pa.large_string()), m),
                "obj_kind": pa.repeat(pa.scalar("", pa.string()), m),
                "obj_lang": pa.nulls(m, pa.string()),
                "obj_datatype": pa.nulls(m, pa.string()),
                "graph": links.column("graph"),
                "_row_kind": pa.repeat(pa.scalar("link", pa.string()), m),
                "entity": links.column("entity"),
                "score": links.column("score"),
            },
            schema=passthrough.schema,
        )
        return pa.concat_tables([passthrough, link_rows])
