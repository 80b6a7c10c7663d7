"""End-to-end pipeline tests on the synthetic corpus (Ray session).

Mirrors the reference's stub-embedder e2e strategy
(tests/test_pipeline_smoke.py there): deterministic corpus, known clone
families, exact expectations — plus the recall>=0.99 accounting from
BASELINE.json against truth_pairs.
"""

import numpy as np
import pytest
import ray.data

from clonehunter_ray.config import ClusterConfig, EngineConfig
from clonehunter_ray.corpus import generate_corpus
from clonehunter_ray.pipelines.scan import scan
from clonehunter_ray.stages.extract import add_content_sha256


@pytest.fixture(scope="module")
def scan_result(ray_session, tiny_corpus):
    files, truth = tiny_corpus
    res = scan(ray.data.from_arrow(files), EngineConfig())
    findings = res.findings.to_pandas()
    return files, truth, res, findings


def test_content_sha256_invariant(ray_session, tiny_corpus):
    # per-row invariant (BASELINE.json): sha256(content) equality
    import hashlib

    files, _ = tiny_corpus
    ds = ray.data.from_arrow(files).map_batches(
        add_content_sha256, batch_format="pyarrow"
    )
    out = ds.take(5)
    for row in out:
        assert (
            row["content_sha256"]
            == hashlib.sha256(row["content"].encode()).hexdigest()
        )


def test_recall_and_precision_on_truth(scan_result):
    files, truth, res, findings = scan_result
    found = set(map(tuple, findings[["unit_a", "unit_b"]].values))
    found |= {(b, a) for a, b in found}
    tp = truth.to_pylist()
    expected = [(r["unit_a"], r["unit_b"]) for r in tp if r["expected"]]
    negatives = [(r["unit_a"], r["unit_b"]) for r in tp if not r["expected"]]
    hits = sum((a, b) in found for a, b in expected)
    recall = hits / len(expected)
    assert recall >= 0.99, f"recall {recall}: missed {[p for p in expected if p not in found]}"
    assert all((a, b) not in found for a, b in negatives)


def test_no_extra_findings_on_synthetic(scan_result):
    files, truth, res, findings = scan_result
    tp = truth.to_pylist()
    expected = {(r["unit_a"], r["unit_b"]) for r in tp if r["expected"]}
    got = set(map(tuple, findings[["unit_a", "unit_b"]].values))
    assert got == expected


def test_cluster_ids_consistent_with_pairs(scan_result):
    files, truth, res, findings = scan_result
    cm = res.cluster_map
    for _, row in findings.iterrows():
        assert cm[row["unit_a"]] == cm[row["unit_b"]] == row["cluster_id"]


def test_exact_family_forms_one_cluster(scan_result):
    files, truth, res, findings = scan_result
    tp = truth.to_pylist()
    fam_units = {}
    for r in tp:
        if r["family"] == "exact" and r["expected"]:
            fam_units.setdefault(r["unit_a"].split(":")[1], set()).update(
                [r["unit_a"], r["unit_b"]]
            )
    cm = res.cluster_map
    for fam, units in fam_units.items():
        labels = {cm[u] for u in units}
        assert len(labels) == 1


def test_min_cluster_size_filter(ray_session, tiny_corpus, monkeypatch):
    """min_size=3 keeps exactly the unfiltered findings whose cluster
    has >= 3 findings, on the driver and on the distributed clustering
    path (cluster ids differ between the two, so each is compared with
    its own unfiltered run)."""
    from clonehunter_ray.stages import clustering as C

    files, _ = tiny_corpus
    cols = ["pair_key", "unit_a", "unit_b", "cluster_id"]
    for max_edges, path in ((C.DRIVER_MAX_EDGES, "driver"), (0, "distributed")):
        monkeypatch.setattr(C, "DRIVER_MAX_EDGES", max_edges)
        full = scan(ray.data.from_arrow(files), EngineConfig()).findings.to_pandas()
        res = scan(
            ray.data.from_arrow(files),
            EngineConfig(cluster=ClusterConfig(enabled=True, min_size=3)),
        )
        assert res.stats["plan"]["clustering"]["path"] == path
        want = full[full.groupby("cluster_id")["pair_key"].transform("size") >= 3]
        assert 0 < len(want) < len(full)
        got = res.findings.to_pandas()
        a = got[cols].sort_values(cols).reset_index(drop=True)
        b = want[cols].sort_values(cols).reset_index(drop=True)
        assert a.equals(b)
        assert res.stats["counts"]["findings"] == len(want)
        assert res.stats["counts"]["clusters"] == want["cluster_id"].nunique()


def test_findings_deterministic_across_runs(ray_session, tiny_corpus):
    files, _ = tiny_corpus
    r1 = scan(ray.data.from_arrow(files), EngineConfig()).findings.to_pandas()
    r2 = scan(ray.data.from_arrow(files), EngineConfig()).findings.to_pandas()
    k = ["unit_a", "unit_b", "score", "duplicated_lines", "cluster_id"]
    a = r1[k].sort_values(k).reset_index(drop=True)
    b = r2[k].sort_values(k).reset_index(drop=True)
    assert a.equals(b)


def test_join_scale_path_matches_broadcast_path(
    ray_session, tiny_corpus, monkeypatch
):
    """The >2M-snippet scale path (string ids + narrow pre-gate joins +
    partitioned payload hash joins) must produce the same findings as
    the broadcast path; forced here with the broadcast row cutover at 0.
    Under ``skew_mode="star"`` with a small cap, buckets cap on both
    paths, and the capped-bucket counters agree too: both paths pick
    the same hub (the smallest snippet id) and count the same buckets."""
    from clonehunter_ray.config import ExecConfig, SignatureConfig
    from clonehunter_ray.stages import candidates

    files, _ = tiny_corpus
    cols = ["unit_a", "unit_b", "score", "duplicated_lines", "n_evidence"]
    import pandas as pd

    for sig in (
        SignatureConfig(),
        SignatureConfig(skew_mode="star", max_bucket_pairs_full=1),
    ):
        base = scan(ray.data.from_arrow(files), EngineConfig(signature=sig))
        with monkeypatch.context() as m:
            m.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
            forced = scan(
                ray.data.from_arrow(files),
                EngineConfig(signature=sig, exec=ExecConfig(shuffle_partitions=4)),
            )
        assert base.stats["plan"]["pairs"]["path"] == "broadcast"
        assert forced.stats["plan"]["pairs"]["path"] == "join"
        a = base.findings.to_pandas()[cols].sort_values(cols).reset_index(drop=True)
        b = forced.findings.to_pandas()[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_exact=False, atol=1e-9)
        if sig.skew_mode == "star":
            for key in ("lsh_buckets_capped", "lsh_capped_full_pairs"):
                assert base.stats["lsh"][key] == forced.stats["lsh"][key] > 0


def test_push_shuffle_strategy_findings_identical(ray_session, tiny_corpus):
    """exec.shuffle_strategy='push' (the big-corpus auto path,
    measured 3.3x at 1.6M files) must produce the identical findings
    set as the default pull-based sort on the same corpus."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from clonehunter_ray.config import ExecConfig

    files, _ = tiny_corpus
    ctx = DataContext.get_current()
    saved = ctx.shuffle_strategy
    try:
        base = (
            scan(ray.data.from_arrow(files), EngineConfig())
            .findings.to_pandas()
            .sort_values(["pair_key"])
            .reset_index(drop=True)
        )
        pushed = (
            scan(
                ray.data.from_arrow(files),
                EngineConfig(exec=ExecConfig(shuffle_strategy="push")),
            )
            .findings.to_pandas()
            .sort_values(["pair_key"])
            .reset_index(drop=True)
        )
        assert ctx.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        assert len(base) == len(pushed)
        assert (base["pair_key"].values == pushed["pair_key"].values).all()
    finally:
        ctx.shuffle_strategy = saved


def test_pull_shuffle_strategy_overrides_an_auto_push_session():
    """shuffle_strategy="pull" forces pull even after an earlier auto
    scan upgraded the session to push (auto alone never downgrades)."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from clonehunter_ray.config import ExecConfig
    from clonehunter_ray.pipelines.scan import _apply_shuffle_strategy

    ctx = DataContext.get_current()
    saved = ctx.shuffle_strategy
    try:
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
        auto = EngineConfig(exec=ExecConfig(push_shuffle_band_rows=10))
        _apply_shuffle_strategy(auto, band_rows=11)
        assert ctx.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        _apply_shuffle_strategy(auto, band_rows=1)  # auto never downgrades
        assert ctx.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        pull = EngineConfig(exec=ExecConfig(shuffle_strategy="pull"))
        _apply_shuffle_strategy(pull, band_rows=11)
        assert ctx.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    finally:
        ctx.shuffle_strategy = saved
