"""One exchange primitive, one hashing module, one batch format on the
query path (Ray-free).

The structural guards read the ``rdfa_ray`` sources with ``ast``: every
``.map_groups(`` call and every call of the crc32 bucket kernels
outside ``functions/`` must be on an allowlist, so a new hand-rolled
exchange fails here and goes through ``functions/exchange.py``
instead.  The SPARQL query kernels and the store compute on
``pa.Table`` only: no pandas import, ``pd.`` use or pandas batch in
their modules, no ``.to_pandas(`` round trip in the store, and every
Arrow ``Table.join`` is on an allowlist (the join kernels share
``stages/join.join_indices``).  Keyed Parquet output has one writer:
``state/commit.py`` holds the only Ray Data sink, and no module writes
a hive-partitioned dataset."""

import ast
import pathlib
from collections import Counter

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent / "rdfa_ray"

# (file, enclosing function) -> how many ``.map_groups(`` calls
MAP_GROUPS_ALLOWED = {
    # the primitives themselves
    ("functions/exchange.py", "keyed_exchange"): 1,
    ("functions/exchange.py", "co_group"): 1,
    # the writer names files by ``part``; resume filters on it
    ("pipelines/flagship.py", "run_flagship"): 1,
    ("pipelines/curation_export.py", "run_curation_export"): 1,
    # natural-key groupbys whose UDF reads the key
    ("pipelines/queries.py", "_dup_pair_coverage"): 1,
    ("pipelines/queries.py", "_pair_membership_flags"): 1,
    ("pipelines/relational.py", "top_orders_per_segment"): 1,
    ("pipelines/relational.py", "orders_topk_concat"): 1,
    ("stages/dedup.py", "semantic_dup_pairs"): 1,
    ("stages/graphalgo.py", "triangle_count"): 1,
    ("stages/packing.py", "pack_sequences"): 1,
    ("stages/semdedup.py", "semdedup"): 1,
    ("stages/sketch.py", "kmv_distinct"): 1,
    ("stages/sketch.py", "hll_distinct"): 1,
    # non-crc32 buckets whose assignment must stay bit-identical:
    # splitmix (x2), gram % B, doc_id % B, bucket & 63
    ("stages/graphalgo.py", "neighbor_similarity"): 2,
    ("stages/dedup.py", "ngram_jaccard_dedup"): 1,
    ("stages/dedup.py", "dedup_lines"): 1,
    ("stages/ann.py", "cosine_dup_pairs"): 1,
}

# crc32 bucket kernel calls outside functions/ that build no exchange
# key of their own: the flagship's partition id (its out-of-scope
# groupby above, and the resume filter) and feature hashing
CRC32_ALLOWED = {
    ("pipelines/flagship.py", "_add_part"),
    ("pipelines/flagship.py", "run_flagship.drop_done"),
    ("stages/classifier.py", "_featurize_batch"),
}


def _calls(names, where=lambda call: True):
    """(file, dotted enclosing def, called name) for every call of one
    of ``names`` (as a function or a method) under ``rdfa_ray/`` for
    which ``where(call node)`` holds."""
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()

        def walk(node, stack):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    walk(child, stack + [child.name])
                    continue
                if isinstance(child, ast.Call):
                    f = child.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name in names and where(child):
                        found.append((rel, ".".join(stack), name))
                walk(child, stack)

        walk(ast.parse(path.read_text()), [])
    return found


def test_map_groups_sites_are_allowlisted():
    counts = Counter((rel, fn.split(".")[0]) for rel, fn, _ in _calls({"map_groups"}))
    assert dict(counts) == MAP_GROUPS_ALLOWED


def test_no_hand_rolled_bucket_columns():
    outside = {
        (rel, fn)
        for rel, fn, _ in _calls({"crc32_bucket", "crc32_bucket_concat"})
        if not rel.startswith("functions/")
    }
    assert outside == CRC32_ALLOWED


# modules of the query path that compute on pa.Table only, and the
# store they read
PANDAS_FREE = ("stages/bgp.py", "stages/sparql.py", "stages/distinct.py",
               "stages/localframe.py", "stages/join.py", "stages/closure.py",
               "stages/sparql_text.py", "stages/kgstore.py")
# modules that never convert a Dataset or table to pandas: their
# ``.to_pandas(`` calls count as pandas uses too
NO_TO_PANDAS = ("stages/kgstore.py", "stages/sparql_text.py")


def _pandas_uses(rel):
    """(what, line) for each pandas import, ``pd.`` attribute, pandas
    batch format, ``keyed_exchange`` call left at its pandas default
    batch format, and (in ``NO_TO_PANDAS``) ``.to_pandas(`` call in
    one ``rdfa_ray`` file."""
    found = []
    for node in ast.walk(ast.parse((ROOT / rel).read_text())):
        if isinstance(node, ast.Import):
            found += [("import pandas", node.lineno) for a in node.names
                      if a.name.split(".")[0] == "pandas"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pandas":
            found.append(("from pandas", node.lineno))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "pd":
            found.append(("pd.", node.lineno))
        elif isinstance(node, ast.keyword) and node.arg == "batch_format" and (
            getattr(node.value, "value", None) == "pandas"
        ):
            found.append(("batch_format='pandas'", node.lineno))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "keyed_exchange" and (
            not any(k.arg == "batch_format" for k in node.keywords)
        ):
            found.append(("keyed_exchange default format", node.lineno))
        elif rel in NO_TO_PANDAS and isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "to_pandas"
        ):
            found.append((".to_pandas(", node.lineno))
    return found


def test_query_kernels_compute_on_arrow_only():
    for rel in PANDAS_FREE:
        assert _pandas_uses(rel) == [], rel


# Table.join's keywords; str.join takes one argument and none of these,
# and os.path.join is told apart by its receiver
_TABLE_JOIN_ARGS = {"keys", "right_keys", "join_type", "left_suffix",
                    "right_suffix", "coalesce_keys", "use_threads"}
# (file, enclosing def) of every ``Table.join(`` call: the one index
# join, and the flagship's canonical-IRI lookup (its output is pinned)
TABLE_JOIN_ALLOWED = {
    ("stages/join.py", "join_indices"),
    ("stages/canonicalize.py", "canonicalize_table.lookup"),
}


def _is_table_join(call):
    return isinstance(call.func, ast.Attribute) and (
        bool({k.arg for k in call.keywords} & _TABLE_JOIN_ARGS)
        or (len(call.args) > 1 and not ast.unparse(call.func.value).endswith("os.path"))
    )


def test_table_join_sites_are_allowlisted():
    found = {(rel, fn) for rel, fn, _ in _calls({"join"}, _is_table_join)}
    assert found == TABLE_JOIN_ALLOWED


def test_one_keyed_parquet_writer():
    hive, sinks = [], []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text()
        if "partition_cols" in text:
            hive.append(rel)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and any(
                (b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)) == "Datasink"
                for b in node.bases
            ):
                sinks.append((rel, node.name))
    assert hive == []
    assert sinks == [("state/commit.py", "PartitionedSink")]


def _old_graph_mix(x):
    # the former stages/graphalgo._graph_mix, verbatim
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _old_kmeans_mix64(ids):
    # the former stages/kmeans._mix64, verbatim
    x = ids.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def test_splitmix_copies_match_old_formulas():
    from rdfa_ray.functions.hashing import splitmix64
    from rdfa_ray.stages.kmeans import _mix64

    ids = np.array(
        [0, 1, 2, -1, 2**62, -(2**63), 2**63 - 1, 123456789012345], dtype=np.int64
    )
    # the golden-ratio increment wraps for the top values
    assert np.array_equal(
        splitmix64(ids.astype(np.uint64)), _old_graph_mix(ids.astype(np.uint64))
    )
    assert np.array_equal(_mix64(ids), _old_kmeans_mix64(ids))
