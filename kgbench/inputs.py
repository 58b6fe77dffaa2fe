"""Seeded workload inputs.  The program under test only ever sees the
generated transcripts table; the seed never reaches it."""

from __future__ import annotations

import random

import pyarrow as pa

# rows_for_range picks each turn's markup kind from a hash of
# (conv_id, turn_idx), so any conversation-aligned window of the global
# row space has the FIXTURES section 1 mix; the seed chooses the window.
_MAX_CONV = 5_000_000

_PROSE = (
    "the team reviewed quarterly results and discussed the roadmap for "
    "the next release while planning migration steps budget owners risk "
    "register service levels customer feedback onboarding metrics and "
    "follow up actions across regional offices during the weekly sync"
).split()


def mixed_turns(seed: int, n_turns: int) -> pa.Table:
    """``flagship_mixed``: the synthetic transcript mix at a seeded,
    conversation-aligned offset."""
    from rdfa_ray.sources.transcripts import TURNS_PER_CONV, rows_for_range

    start = random.Random(seed).randrange(_MAX_CONV) * TURNS_PER_CONV
    return rows_for_range(start, start + n_turns)


def longlit_turns(seed: int, n_turns: int, chars: int = 2000,
                  mentions: int = 7) -> pa.Table:
    """``flagship_longlit``: one ~``chars``-character prose literal per
    turn carrying ``mentions`` alias surface forms, wrapped as a single
    RDFa ``property`` by ``wrap_documents_batch``."""
    from rdfa_ray.sources.aliases import build_alias_table
    from rdfa_ray.sources.transcripts import wrap_documents_batch

    rng = random.Random(seed)
    surfaces = sorted(build_alias_table())
    first = rng.randrange(_MAX_CONV)
    n_words = round(chars / (sum(len(w) + 1 for w in _PROSE) / len(_PROSE)))
    texts = []
    for _ in range(n_turns):
        words = rng.choices(_PROSE, k=n_words)
        for pos in rng.sample(range(n_words), mentions):
            words[pos] = rng.choice(surfaces)
        texts.append(" ".join(words))
    docs = pa.table(
        {"doc_id": pa.array(range(first, first + n_turns), pa.int64()), "text": texts}
    )
    return wrap_documents_batch(docs)


GENERATORS = {"flagship_mixed": mixed_turns, "flagship_longlit": longlit_turns,
              "kg_query": mixed_turns}
