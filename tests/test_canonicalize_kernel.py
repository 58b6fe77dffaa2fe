"""The Arrow canonicalize kernel against a frozen copy of the pandas
kernel it replaced: same rows, in the same order."""

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rdfa_ray.functions.hashing import crc32_bucket
from rdfa_ray.pipelines.flagship import PARTITION_SCHEMA
from rdfa_ray.sources.aliases import build_alias_table
from rdfa_ray.sources.transcripts import rows_for_range
from rdfa_ray.stages.canonicalize import OWL_SAME_AS, canonicalize_table
from rdfa_ray.stages.distill import TRIPLES_SCHEMA, RdfaDistiller
from rdfa_ray.stages.link import AugmentingLinker

_DROP = ["_row_kind", "entity", "score", "bucket"]


def _pandas_canonicalize_bucket(bucket_df: pd.DataFrame) -> pd.DataFrame:
    """Frozen copy of the pandas bucket kernel (the oracle)."""
    links = bucket_df[bucket_df["_row_kind"] == "link"]
    keep = bucket_df[bucket_df["_row_kind"] != "link"]
    if len(links) == 0:
        return keep.drop(columns=_DROP, errors="ignore")

    best = (
        links.sort_values(["graph", "subj", "score", "entity"],
                          ascending=[True, True, False, True])
        .drop_duplicates(["graph", "subj"])[["graph", "subj", "entity"]]
        .rename(columns={"entity": "_canonical"})
    )

    keep = keep.merge(best, on=["graph", "subj"], how="left")
    matched = keep["_canonical"].notna() & (keep["_row_kind"] == "triple")

    prov_src = keep[
        matched & (keep["subj_kind"] == "iri") & (keep["subj"] != keep["_canonical"])
    ].drop_duplicates(["graph", "subj"])
    prov = prov_src.copy()
    if len(prov):
        prov["pred"] = OWL_SAME_AS
        prov["obj_value"] = prov["subj"]
        prov["obj_kind"] = "iri"
        prov["obj_lang"] = None
        prov["obj_datatype"] = None

    keep.loc[matched, "subj"] = keep.loc[matched, "_canonical"]
    keep.loc[matched, "subj_kind"] = "iri"

    obest = best.rename(columns={"subj": "obj_value", "_canonical": "_ocanon"})
    keep = keep.merge(obest, on=["graph", "obj_value"], how="left")
    omatched = (
        keep["_ocanon"].notna()
        & (keep["_row_kind"] == "triple")
        & keep["obj_kind"].isin(["iri", "bnode"])
    )
    keep.loc[omatched, "obj_value"] = keep.loc[omatched, "_ocanon"]
    keep.loc[omatched, "obj_kind"] = "iri"

    if len(prov):
        prov["subj"] = prov["_canonical"]
        prov["subj_kind"] = "iri"
        keep = pd.concat([keep, prov], ignore_index=True)
    return keep.drop(columns=_DROP + ["_canonical", "_ocanon"], errors="ignore")


AUGMENTED_SCHEMA = TRIPLES_SCHEMA.append(pa.field("_row_kind", pa.string())).append(
    pa.field("entity", pa.string())).append(pa.field("score", pa.float64()))


def _as_partition(table: pa.Table) -> pa.Table:
    return table.select(PARTITION_SCHEMA.names).cast(PARTITION_SCHEMA)


def _assert_same(group: pa.Table):
    want = pa.Table.from_pandas(_pandas_canonicalize_bucket(group.to_pandas()),
                                preserve_index=False)
    got = canonicalize_table(group)
    assert got.num_rows == want.num_rows
    assert _as_partition(got).to_pylist() == _as_partition(want).to_pylist()


def _augmented(n_turns: int) -> pa.Table:
    raw = RdfaDistiller()(rows_for_range(0, n_turns))
    return AugmentingLinker(alias_table=build_alias_table())(raw)


@pytest.mark.parametrize("n_groups", [1, 8, 64])
def test_kernel_matches_pandas_on_fixture_mix(n_groups):
    aug = _augmented(600)
    assert pc.sum(pc.equal(aug.column("_row_kind"), "link")).as_py() > 0
    assert pc.sum(pc.equal(aug.column("kind"), "diag")).as_py() > 0
    bucket = crc32_bucket(aug.column("conv_id"), n_groups)
    for b in range(n_groups):
        group = aug.filter(pc.equal(bucket, b))
        if group.num_rows:
            _assert_same(group)


def _group(rows) -> pa.Table:
    """rows: (row_kind, graph, subj, subj_kind, pred, obj_value, obj_kind,
    entity, score); link rows carry entity/score, the rest ''/0.0."""
    cols = {name: [] for name in AUGMENTED_SCHEMA.names}
    for rk, g, s, sk, p, ov, ok, ent, score in rows:
        vals = {
            "conv_id": g, "turn_idx": 0, "kind": rk,
            "subj": s, "subj_kind": sk, "pred": p, "obj_value": ov, "obj_kind": ok,
            "obj_lang": "en" if ok == "literal" and ov.startswith("en:") else None,
            "obj_datatype": None, "graph": g, "_row_kind": rk, "entity": ent, "score": score,
        }
        for name in cols:
            cols[name].append(vals[name])
    return pa.Table.from_pydict(cols, schema=AUGMENTED_SCHEMA)


def T(g, s, p, ov, ok="iri", sk="iri"):
    return ("triple", g, s, sk, p, ov, ok, "", 0.0)


def L(g, s, ent, score, sk="iri"):
    return ("link", g, s, sk, "http://p/name", "", "", ent, score)


def D(g, s, msg="bad markup"):
    return ("diag", g, s, "iri", "http://w/Warning", msg, "literal", "", 0.0)


SYNTHETIC = {
    "score_ties": [
        T("g1", "http://x/s", "http://p/a", "en:one", "literal"),
        T("g1", "http://x/s", "http://p/b", "two", "literal"),
        L("g1", "http://x/s", "http://e/E3", 0.8),
        L("g1", "http://x/s", "http://e/E1", 0.8),
        L("g1", "http://x/s", "http://e/E2", 0.8),
        L("g1", "http://x/s", "http://e/E9", 0.5),
    ],
    "exact_beats_substring": [
        T("g1", "http://x/s", "http://p/a", "Acme", "literal"),
        L("g1", "http://x/s", "http://e/E1", 0.8),
        L("g1", "http://x/s", "http://e/E5", 1.0),
    ],
    "equal_entities": [
        T("g1", "http://x/t", "http://p/a", "v", "literal"),
        T("g1", "http://x/s", "http://p/a", "w", "literal"),
        T("g1", "http://x/t", "http://p/c", "http://x/u"),
        L("g1", "http://x/s", "http://e/E1", 0.8),
        L("g1", "http://x/s", "http://e/E1", 0.8),
        L("g1", "http://x/t", "http://e/E1", 1.0),
    ],
    "bnode_subjects": [
        T("g1", "b0", "http://p/a", "v", "literal", sk="bnode"),
        T("g1", "b1", "http://p/a", "w", "literal", sk="bnode"),
        L("g1", "b0", "http://e/E2", 0.8, sk="bnode"),
    ],
    "object_references": [
        T("g1", "http://x/doc", "http://p/about", "http://x/s"),
        T("g1", "http://x/doc", "http://p/has", "b0", "bnode"),
        T("g1", "http://x/doc", "http://p/label", "http://x/s", "literal"),
        T("g1", "http://x/s", "http://p/name", "Acme", "literal"),
        T("g1", "b0", "http://p/name", "Beta", "literal", sk="bnode"),
        T("g2", "http://x/doc", "http://p/about", "http://x/s"),
        L("g1", "http://x/s", "http://e/E1", 1.0),
        L("g1", "b0", "http://e/E2", 1.0, sk="bnode"),
    ],
    "subject_already_canonical": [
        T("g1", "http://e/E1", "http://p/name", "Acme", "literal"),
        T("g1", "http://x/s", "http://p/name", "Acme", "literal"),
        L("g1", "http://e/E1", "http://e/E1", 1.0),
        L("g1", "http://x/s", "http://e/E1", 1.0),
    ],
    "same_subject_two_graphs": [
        T("g2", "http://x/s", "http://p/name", "Beta", "literal"),
        T("g1", "http://x/s", "http://p/name", "Acme", "literal"),
        T("g2", "http://x/s", "http://p/knows", "http://x/s"),
        L("g1", "http://x/s", "http://e/E1", 1.0),
        L("g2", "http://x/s", "http://e/E2", 0.8),
    ],
    "diag_rows": [
        D("g1", "warning"),
        T("g1", "http://x/s", "http://p/name", "Acme", "literal"),
        D("g1", "http://x/s", "http://x/s"),
        L("g1", "http://x/s", "http://e/E1", 1.0),
        L("g1", "warning", "http://e/E4", 1.0),
        D("g2", "error"),
    ],
    "no_links": [
        T("g1", "http://x/s", "http://p/name", "Acme", "literal"),
        D("g1", "warning"),
        T("g1", "b0", "http://p/a", "http://x/s", sk="bnode"),
    ],
    "only_links": [
        L("g1", "http://x/s", "http://e/E1", 1.0),
    ],
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_kernel_matches_pandas_on_synthetic_groups(name):
    _assert_same(_group(SYNTHETIC[name]))


def test_kernel_provenance_rows_follow_kept_rows():
    out = canonicalize_table(_group(SYNTHETIC["equal_entities"]))
    assert out.column("pred").to_pylist()[-2:] == [OWL_SAME_AS, OWL_SAME_AS]
    # first occurrence order: http://x/t appears before http://x/s
    assert out.column("obj_value").to_pylist()[-2:] == ["http://x/t", "http://x/s"]
    assert set(out.column("subj").to_pylist()) == {"http://e/E1"}

