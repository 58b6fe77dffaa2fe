"""EntityLinker mention detection: empty surface forms, and equality
with the plain lookbehind alternation over random alias tables."""

import re

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfa_ray.stages.link import LINKS_SCHEMA, EntityLinker


def _literals(texts) -> pa.Table:
    n = len(texts)
    return pa.Table.from_pydict(
        {
            "conv_id": ["c%d" % i for i in range(n)],
            "turn_idx": pa.array(range(n), pa.int32()),
            "kind": ["triple"] * n,
            "subj": pa.array(["http://s/%d" % i for i in range(n)], pa.large_string()),
            "subj_kind": ["iri"] * n,
            "pred": pa.array(["http://p/"] * n, pa.large_string()),
            "obj_value": pa.array(texts, pa.large_string()),
            "obj_kind": ["literal"] * n,
            "obj_lang": pa.array([None] * n, pa.string()),
            "obj_datatype": pa.array([None] * n, pa.string()),
            "graph": ["g%d" % i for i in range(n)],
        }
    )


def _oracle(aliases: dict, batch: pa.Table) -> list[dict]:
    """Link rows from the plain form of the pattern: one lookbehind in
    front of the longest-first alternation."""
    rx = re.compile(r"(?<![\w])(%s)(?![\w])" % "|".join(
        re.escape(a) for a in sorted(aliases, key=len, reverse=True)))
    rows = []
    for r in batch.to_pylist():
        v = r["obj_value"]
        for m in rx.finditer(v) if v else ():
            s = m.group(1)
            rows.append({
                "conv_id": r["conv_id"], "turn_idx": r["turn_idx"], "graph": r["graph"],
                "subj": r["subj"], "subj_kind": r["subj_kind"], "pred": r["pred"],
                "entity": aliases[s], "surface": s, "score": 1.0 if s == v else 0.8,
            })
    return rows


def test_empty_surface_form_is_skipped():
    texts = ["Acme, then Acme Labs.", "a, b", "", "(x)"]
    linker = EntityLinker(alias_table={"": "http://e/E0", "Acme": "http://e/E1",
                                       "Acme Labs": "http://e/E2"})
    out = linker(_literals(texts))
    assert out.column("surface").to_pylist() == ["Acme", "Acme Labs"]
    assert out.column("conv_id").to_pylist() == ["c0", "c0"]
    assert EntityLinker(alias_table={"": "http://e/E0"})(_literals(texts)).num_rows == 0


# word characters (ASCII, "_", digits, non-ASCII letters) and non-word
# characters (space, punctuation, newline, tab) in few enough kinds that
# random texts hit the random surfaces and their neighbours often
_ALPHABET = "ab_1é中 -.\n\t"
_surface = st.text(_ALPHABET, min_size=1, max_size=5)


@st.composite
def _alias_tables(draw):
    base = draw(st.lists(_surface, min_size=1, max_size=6))
    # shared prefixes: extend some surfaces, including 1-char ones
    grown = [b + draw(_surface) for b in base if draw(st.booleans())]
    surfaces = base + grown + draw(st.lists(st.sampled_from(_ALPHABET), max_size=3))
    return {s: "http://e/E%d" % i for i, s in enumerate(dict.fromkeys(surfaces))}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_linker_matches_plain_lookbehind_pattern(data):
    aliases = data.draw(_alias_tables())
    pieces = st.one_of(st.sampled_from(sorted(aliases)), st.text(_ALPHABET, max_size=3))
    texts = data.draw(st.lists(st.lists(pieces, max_size=8).map("".join), min_size=1, max_size=4))
    batch = _literals(texts)
    got = EntityLinker(alias_table=aliases)(batch)
    assert got.schema == LINKS_SCHEMA
    assert got.to_pylist() == _oracle(aliases, batch)
