"""Where state lives in this engine (SURVEY.md §3.4):

* per-document: deterministic :class:`~rdfa_ray.kernel.state.BnodeGen`
  skolemizer (replaces the reference's process-global ``_bnodes``,
  termorcurie.py:83-85) and the evaluation-context chain — both
  kernel-local, stateless across rows.
* per-actor: warm compiled regexes / vocab expansion maps inside
  ``RdfaDistiller`` / ``EntityLinker`` (``__init__``-time setup).
* broadcast: alias dictionaries and query matrices via ``ray.put``,
  fetched once per actor/worker.
* durable: every persisted output (flagship checkpoint manifests and
  pinned run meta, KG/dedup stores, layouts, indexes, caches) commits
  through :mod:`.commit` — atomic writes, the manifest published LAST,
  a single-writer ``flock`` on ``<dir>/.lock`` held by the driver, and
  vacuum; readers take no lock and re-resolve the manifest per scan.
  The only cross-run state; everything else is recomputable.
"""

from ..kernel.state import BnodeGen, EvalState, TermContext  # noqa: F401
