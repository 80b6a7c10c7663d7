"""CI pin for EVERY oracle-backed query, not just the driver's 50-query
window (round-4 verdict, 'Next round' #3): run the same comparison the
driver runs — row count + sorted-schema + order-insensitive values vs
the DuckDB oracle SQL — over ALL ``__ray_entry__.queries()`` entries at
sf0.001, inside the shared session Ray fixture.

A regression in any oracle query (including the ~26 that rotate outside
the driver's window each round) turns this test red.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = "/root/testdata/sf0.001"


def test_all_oracle_queries_green(ray_session):
    if not os.path.exists(f"{SF_DIR}/documents.parquet"):
        pytest.skip("testdata not present")
    from tools.check_oracle import run_checks

    failures = run_checks(SF_DIR, verbose=False)
    assert not failures, "oracle regressions: " + "; ".join(
        f"{name}: {reason}" for name, reason in failures
    )


def test_pair_queries_join_path_match_oracle(ray_session, monkeypatch):
    """ngram_jaccard_pairs and ensemble_dup_pairs with the payload
    attach forced down the partitioned-join path still equal their
    DuckDB oracles."""
    if not os.path.exists(f"{SF_DIR}/documents.parquet"):
        pytest.skip("testdata not present")
    from clonehunter_ray.stages import candidates
    from tools.check_oracle import run_checks

    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    failures = run_checks(
        SF_DIR, only=["ngram_jaccard_pairs", "ensemble_dup_pairs"], verbose=False
    )
    assert not failures, failures


def test_fuzzy_decontaminate_bench_side_guard(ray_session, monkeypatch):
    """The driver-collected bench side is sized first: over the
    broadcast cutover the query raises instead of collecting it; at the
    default cutover it still equals its oracle."""
    if not os.path.exists(f"{SF_DIR}/documents.parquet"):
        pytest.skip("testdata not present")
    from clonehunter_ray.pipelines import queries as Q
    from clonehunter_ray.stages import candidates
    from tools.check_oracle import run_checks

    assert not run_checks(
        SF_DIR, only=["fuzzy_decontaminate_documents"], verbose=False
    )
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 1)
    with pytest.raises(ValueError, match=r"rows, None bytes\) is over"):
        Q.fuzzy_decontaminate_documents(SF_DIR)
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 2_000_000)
    monkeypatch.setattr(candidates, "BROADCAST_MAX_BYTES", 1)
    with pytest.raises(ValueError, match="broadcast cutover"):
        Q.fuzzy_decontaminate_documents(SF_DIR)


def test_zipf_vocabulary_guard(ray_session, monkeypatch):
    """The driver-collected vocabulary is sized before the collect:
    over the broadcast cutover the audit raises; at the default cutover
    it still equals its oracle."""
    if not os.path.exists(f"{SF_DIR}/documents.parquet"):
        pytest.skip("testdata not present")
    from clonehunter_ray.pipelines import queries as Q
    from clonehunter_ray.stages import candidates
    from tools.check_oracle import run_checks

    assert not run_checks(SF_DIR, only=["zipf_token_audit"], verbose=False)
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 1)
    with pytest.raises(ValueError, match=r"vocabulary \(\d+ rows, None bytes\)"):
        Q.zipf_token_audit(SF_DIR)
