"""End-to-end pipeline tests on the synthetic corpus (Ray session).

Mirrors the reference's stub-embedder e2e strategy
(tests/test_pipeline_smoke.py there): deterministic corpus, known clone
families, exact expectations — plus the recall>=0.99 accounting from
BASELINE.json against truth_pairs.
"""

import numpy as np
import pyarrow as pa
import pytest
import ray
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


def test_pairs_independent_of_index_blocks(ray_session, tiny_corpus):
    """build_pairs over the tiny corpus's signature table as one block
    and repartitioned into 7: sids are global ranks of snippet_id
    whatever the blocks, so the verified pairs and the LSH counters are
    identical, under the default salted mode and under ``star`` with a
    cap every multi-member bucket exceeds."""
    from clonehunter_ray.config import SignatureConfig
    from clonehunter_ray.pipelines.scan import build_pairs, build_signatures
    from clonehunter_ray.state import metrics as M

    files, _ = tiny_corpus
    for sig in (
        SignatureConfig(),
        SignatureConfig(skew_mode="star", max_bucket_pairs_full=1),
    ):
        config = EngineConfig(signature=sig)
        signatures = build_signatures(ray.data.from_arrow(files), config).materialize()
        runs = []
        for blocks in (1, 7):
            metrics, plan = M.new_metrics_actor(), {}
            pairs = build_pairs(
                signatures.repartition(blocks).materialize(), config, metrics, plan
            )
            table = pa.concat_tables(ray.get(pairs.to_arrow_refs()))
            runs.append(
                (
                    plan["index_blocks"],
                    table.sort_by([("a_id", "ascending"), ("b_id", "ascending")]),
                    M.read_metrics(metrics),
                )
            )
        (one, pairs_1, lsh_1), (many, pairs_7, lsh_7) = runs
        assert one == 1 < many
        assert pairs_1.num_rows > 0 and pairs_1.equals(pairs_7)
        assert lsh_1 == lsh_7
        if sig.skew_mode == "star":
            assert lsh_1["lsh_buckets_capped"] > 0


def test_push_shuffle_strategy_findings_identical(ray_session, tiny_corpus):
    """exec.shuffle_strategy='push' (the big-corpus auto path,
    measured 3.3x at 1.6M files) must produce the identical findings
    set as the default pull-based sort on the same corpus. The choice
    lands on the pair stage's own DataContext, so the session's is
    left as it was."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from clonehunter_ray.config import ExecConfig

    files, _ = tiny_corpus
    session = DataContext.get_current().shuffle_strategy
    base = scan(ray.data.from_arrow(files), EngineConfig())
    pushed = scan(
        ray.data.from_arrow(files),
        EngineConfig(exec=ExecConfig(shuffle_strategy="push")),
    )
    assert DataContext.get_current().shuffle_strategy == session
    assert pushed.pairs.context.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    assert pushed.stats["plan"]["pairs"]["shuffle_strategy"] == "sort_shuffle_push_based"
    a, b = (
        r.findings.to_pandas().sort_values(["pair_key"]).reset_index(drop=True)
        for r in (base, pushed)
    )
    assert len(a) == len(b)
    assert (a["pair_key"].values == b["pair_key"].values).all()


def test_pull_shuffle_strategy_overrides_an_auto_push_session(
    ray_session, tiny_corpus
):
    """The strategy is the config's alone: "pull" and an "auto" scan
    under the band-row threshold pick pull in a push session, "push" and
    an auto scan over it pick push, and a scan leaves the session's
    context as it was while its pair stage carries the choice."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from clonehunter_ray.config import ExecConfig
    from clonehunter_ray.pipelines.scan import _shuffle_strategy

    push, pull = (
        ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED,
        ShuffleStrategy.SORT_SHUFFLE_PULL_BASED,
    )
    auto = EngineConfig(exec=ExecConfig(push_shuffle_band_rows=10))
    assert _shuffle_strategy(auto, band_rows=11) == push
    assert _shuffle_strategy(auto, band_rows=1) == pull
    assert _shuffle_strategy(EngineConfig(exec=ExecConfig(shuffle_strategy="pull")), 11) == pull
    assert _shuffle_strategy(EngineConfig(exec=ExecConfig(shuffle_strategy="push")), 1) == push

    ctx = DataContext.get_current()
    saved = ctx.shuffle_strategy
    try:
        ctx.shuffle_strategy = push
        files, _ = tiny_corpus
        res = scan(
            ray.data.from_arrow(files),
            EngineConfig(exec=ExecConfig(shuffle_strategy="pull")),
        )
        assert ctx.shuffle_strategy == push
        assert res.pairs.context.shuffle_strategy == pull
        assert res.findings.count() > 0
    finally:
        ctx.shuffle_strategy = saved
