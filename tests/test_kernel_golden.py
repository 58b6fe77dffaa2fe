"""Per-document output pins for the RDFa kernel.

Every document below is distilled and reduced to one digest: a hash of
its sorted triples and of its diagnostics in emission order (severity,
class, message, element).  The digests in ``kernel_golden.json`` were
computed with the kernel as it stood before the lean walk (one
evaluation context per element, whole-tree pre-walk scans), so a change
to the walk, the DOM builders or the pre-walk passes that moves any
triple, bnode label or diagnostic of these documents fails here.

The documents:

* four windows of ``sources.transcripts.rows_for_range`` (the FIXTURES
  section 1 mix: HTML5, XHTML, SVG with RDF/XML, embedded Turtle,
  prose, malformed markup);
* ``wrap_documents_batch`` long literals (prose with escaped ``&``,
  ``<`` and ``>`` and alias surface forms);
* every conformance-corpus fixture, with its options.

Regenerate the digests only for an intended output change::

    python tests/test_kernel_golden.py --write
"""

import hashlib
import json
import pathlib
import random
import sys

import pyarrow as pa
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from rdfa_ray.kernel import KernelOptions, distill  # noqa: E402
from rdfa_ray.rdf.ntriples import parse_ntriples  # noqa: E402
from rdfa_ray.sources.aliases import build_alias_table  # noqa: E402
from rdfa_ray.sources.transcripts import (  # noqa: E402
    TURNS_PER_CONV,
    rows_for_range,
    wrap_documents_batch,
)
from rdfa_ray.stages.distill import graph_iri  # noqa: E402

GOLDEN = pathlib.Path(__file__).with_name("kernel_golden.json")
CORPUS = pathlib.Path(__file__).parent / "corpus"

# conversation-aligned window starts (conversation numbers) and length
WINDOW_CONVS = (0, 1_234_567, 2_718_281, 4_999_900)
WINDOW_TURNS = 1000
LONGLIT_DOCS = 300

_WORDS = (
    "the team & reviewed <quarterly> results and discussed the roadmap for "
    "next release while planning \"migration\" steps budget owners risk "
    "register service levels customer feedback onboarding café metrics"
).split()


def digest(triples, diags) -> str:
    h = hashlib.sha256()
    for line in sorted(repr(t) for t in triples):
        h.update(line.encode())
        h.update(b"\n")
    h.update(b"\x00")
    for d in diags:
        h.update(repr((d.severity, d.dclass, d.message, d.node)).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def window_docs(conv: int):
    start = conv * TURNS_PER_CONV
    t = rows_for_range(start, start + WINDOW_TURNS)
    return [
        (graph_iri(c, i), x)
        for c, i, x in zip(t.column("conv_id").to_pylist(),
                           t.column("turn_idx").to_pylist(),
                           t.column("text").to_pylist())
    ]


def longlit_docs():
    rng = random.Random(16)
    surfaces = sorted(build_alias_table())
    texts = []
    for _ in range(LONGLIT_DOCS):
        words = rng.choices(_WORDS, k=rng.randrange(20, 300))
        for pos in rng.sample(range(len(words)), min(7, len(words))):
            words[pos] = rng.choice(surfaces)
        texts.append(" ".join(words))
    docs = pa.table({"doc_id": pa.array(range(LONGLIT_DOCS), pa.int64()), "text": texts})
    t = wrap_documents_batch(docs)
    return [
        (graph_iri(c, i), x)
        for c, i, x in zip(t.column("conv_id").to_pylist(),
                           t.column("turn_idx").to_pylist(),
                           t.column("text").to_pylist())
    ]


def corpus_digests() -> dict:
    from rdfa_ray.kernel.walk import distill_structured

    out = {}
    for path in sorted(CORPUS.glob("*.html")):
        meta = json.loads(path.with_suffix(".json").read_text())
        vocab_graphs = {u: parse_ntriples(nt) for u, nt in meta.get("vocab_graphs", {}).items()}
        options = KernelOptions(vocab_graphs=vocab_graphs, **meta.get("options", {}))
        fn = distill_structured if meta.get("mode") == "structured" else distill
        out[path.stem] = digest(*fn(path.read_text(), base=meta["base"], options=options))
    return out


def doc_digests(docs) -> list:
    options = KernelOptions()  # one options object reused, as the distiller does
    return [digest(*distill(text, base=base, options=options)) for base, text in docs]


def compute() -> dict:
    out = {"window-%d" % conv: doc_digests(window_docs(conv)) for conv in WINDOW_CONVS}
    out["longlit"] = doc_digests(longlit_docs())
    out["corpus"] = corpus_digests()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _first_difference(docs, got, want):
    for (base, text), g, w in zip(docs, got, want):
        if g != w:
            return "first differing document (%s): %r" % (base, text[:200])
    return "document counts differ: %d != %d" % (len(got), len(want))


@pytest.mark.parametrize("conv", WINDOW_CONVS)
def test_transcript_window_outputs_are_pinned(golden, conv):
    docs = window_docs(conv)
    got = doc_digests(docs)
    want = golden["window-%d" % conv]
    assert got == want, _first_difference(docs, got, want)


def test_long_literal_outputs_are_pinned(golden):
    docs = longlit_docs()
    got = doc_digests(docs)
    assert got == golden["longlit"], _first_difference(docs, got, golden["longlit"])


def test_corpus_outputs_are_pinned(golden):
    got = corpus_digests()
    want = golden["corpus"]
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_kernel_golden.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=0, sort_keys=True) + "\n")
    print("wrote", GOLDEN)
