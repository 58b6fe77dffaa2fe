"""Scalar function library — the engine's counterpart of the
reference's scattered helper functions (SURVEY.md §2.6 "Scalar
functions"), collected for reuse inside batch kernels:

* URI handling: ``quote_uri`` (utils.py:150-166 semantics),
  fragment-preserving join (state.py:301-313 workaround)
* datetime sniffing: ``format_test`` (host/html5.py:66-155)
* text: shingles / n-gram Jaccard / simhash (training-data ops)
* N-Triples term formatting / escaping (+ the Arrow-vectorized
  N-Quads line formatter used by the flagship sink)
* shuffle-key hashing: :mod:`rdfa_ray.functions.hashing` — the
  dictionary-encoded crc32 bucket kernels every all-to-all keys on,
  and splitmix64
* the keyed exchange: :mod:`rdfa_ray.functions.exchange` —
  ``keyed_exchange`` (one input) and ``co_group`` (two inputs), the
  only places a Dataset is hash-partitioned by key
* word shingling: :mod:`rdfa_ray.functions.shingles` — stable token
  hashes + vectorized polynomial window rolls (contamination sweep,
  repetition signals, quality gate, winnowed fingerprints)
"""

from ..kernel.embedded import _resolve_iri as resolve_iri  # noqa: F401
from .hashing import crc32_bucket, crc32_bucket_concat  # noqa: F401
from .shingles import explode_tokens, phrase_hash, token_hashes, window_hashes  # noqa: F401
from ..kernel.state import NCNAME, TERMNAME, quote_uri  # noqa: F401
from ..kernel.transform import format_test  # noqa: F401
from ..rdf.ntriples import nquads_lines_arrow, term_to_nt, triple_to_ntriples  # noqa: F401
from ..stages.dedup import jaccard, shingles  # noqa: F401
