"""Duplicate-free / empty-result robustness.

Ray's hash-shuffle join crashes when one input sequence is GLOBALLY
empty (zero-column partition tables reach Acero —
util.scrub_empty_blocks documents the mechanism), so every keyed
attach goes through stages/candidates.attach_by_key, which never joins
an empty side. Every dedup-family operator has a legitimate all-unique
input whose candidate/label/winner side is exactly that, so each one is
pinned here end-to-end on a corpus with no duplicates.
"""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data


def _unique_docs(n: int = 40) -> pa.Table:
    texts = [
        " ".join(f"w{i}x{j}" for j in range(24)) + f" tail{i} only{i}"
        for i in range(n)
    ]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def _assert_unclustered(out) -> None:
    """Every doc keeps, in no cluster (-1), under a typed cluster_id:
    with no edges the label table is typed null, and the attach's
    ``schema=`` types it."""
    assert len(out) == 40
    assert out["keep"].all()
    assert str(out["cluster_id"].dtype) == "int64"
    assert (out["cluster_id"] == -1).all()


def test_minhash_keep_no_dups(ray_session):
    from clonehunter_ray.pipelines import dedup

    out = dedup.minhash_dedup_keep(
        ray.data.from_arrow(_unique_docs()), threshold=0.8
    ).to_pandas()
    _assert_unclustered(out)


def test_minhash_keep_distributed_no_dups(ray_session, monkeypatch):
    """Dup-free corpus with the clustering cutover forced to 0: the
    empty edge set yields an empty label table, and every doc keeps."""
    from clonehunter_ray.pipelines import dedup
    from clonehunter_ray.stages import clustering as C

    monkeypatch.setattr(C, "DRIVER_MAX_EDGES", 0)
    out = dedup.minhash_dedup_keep(
        ray.data.from_arrow(_unique_docs()),
        threshold=0.8,
    ).to_pandas()
    _assert_unclustered(out)


def test_minhash_keep_best_no_dups(ray_session):
    from clonehunter_ray.pipelines import dedup

    out = dedup.minhash_dedup_keep_best(
        ray.data.from_arrow(_unique_docs()), threshold=0.8
    ).to_pandas()
    assert len(out) == 40
    assert out["keep"].all()


def test_minhash_pairs_join_path_no_dups(ray_session, monkeypatch):
    """Scale (partitioned-join) attach path with zero candidate pairs:
    the pair side of both payload joins is globally empty."""
    from clonehunter_ray.pipelines import dedup
    from clonehunter_ray.stages import candidates

    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    out = dedup.minhash_dedup_pairs(
        ray.data.from_arrow(_unique_docs()),
        threshold=0.8,
    ).to_pandas()
    assert len(out) == 0


def test_passage_spans_no_dups(ray_session):
    from clonehunter_ray.pipelines.passage import passage_dedup_spans

    out = passage_dedup_spans(
        ray.data.from_arrow(_unique_docs()), min_len=15
    ).to_pandas()
    assert len(out) == 0


def test_passage_dedup_documents_no_dups(ray_session):
    from clonehunter_ray.pipelines.passage import passage_dedup_documents

    out = passage_dedup_documents(
        ray.data.from_arrow(_unique_docs()), min_len=15
    ).to_pandas()
    assert len(out) == 40
    assert (out["dup_tokens"] == 0).all() if "dup_tokens" in out else True


def test_passage_pairs_join_path_no_dups(ray_session, monkeypatch):
    """Partitioned-join verify tail with zero candidate pairs."""
    from clonehunter_ray.pipelines.passage import passage_dup_span_pairs
    from clonehunter_ray.stages import candidates

    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    out = passage_dup_span_pairs(
        ray.data.from_arrow(_unique_docs()),
        min_len=15,
    ).to_pandas()
    assert len(out) == 0


def test_segment_dedup_no_dups(ray_session):
    from clonehunter_ray.pipelines.segment import segment_dedup

    out = segment_dedup(
        ray.data.from_arrow(_unique_docs()), seg_tokens=10
    ).to_pandas()
    assert len(out) == 40
    assert (out["n_dup_segments"] == 0).all()
    orig = {r["doc_id"]: r["text"] for r in _unique_docs().to_pylist()}
    for _, row in out.iterrows():
        assert row["dedup_text"] == orig[row["doc_id"]]


def _assert_typed_findings(findings) -> None:
    """An empty scan result still carries the findings columns and
    types: the rollup's plus the cluster id (clustering is on by
    default)."""
    from clonehunter_ray.stages.rollup import FINDINGS_SCHEMA

    schema = findings.schema()
    assert schema is not None
    assert schema.names == [*FINDINGS_SCHEMA.names, "cluster_id"]
    assert schema.types == [*FINDINGS_SCHEMA.types, pa.int64()]


def test_scan_clone_free_corpus(ray_session):
    """End-to-end scan over files with no clone pairs at all."""
    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.pipelines.scan import scan

    files = pa.table(
        {
            "repo": pa.array(["r0"] * 30),
            "path": pa.array([f"/src/u{i}.py" for i in range(30)]),
            "commit": pa.array(["c0"] * 30),
            "lang": pa.array(["python"] * 30),
            "content": pa.array(
                [
                    (
                        f"def fn_{i}(a, b):\n"
                        f"    x{i} = a * {i} + b\n"
                        f"    y{i} = x{i} ** 2 - {i}\n"
                        f"    return y{i} + a - b * {i}\n"
                    )
                    for i in range(30)
                ]
            ),
        }
    )
    res = scan(ray.data.from_arrow(files), EngineConfig())
    assert res.findings.count() == 0
    _assert_typed_findings(res.findings)


def test_scan_clone_free_corpus_join_path(ray_session, monkeypatch):
    """Same clone-free corpus forced down the scale (partitioned-join)
    pair-attach path: zero candidate pairs leave the join's left
    sequence globally empty."""
    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.pipelines.scan import scan
    from clonehunter_ray.stages import candidates

    files = pa.table(
        {
            "repo": pa.array(["r0"] * 20),
            "path": pa.array([f"/src/j{i}.py" for i in range(20)]),
            "commit": pa.array(["c0"] * 20),
            "lang": pa.array(["python"] * 20),
            "content": pa.array(
                [
                    (
                        f"def jn_{i}(p, q):\n"
                        f"    u{i} = p - {i} * q\n"
                        f"    v{i} = u{i} // ({i} + 2)\n"
                        f"    return v{i} * p + q - {i}\n"
                    )
                    for i in range(20)
                ]
            ),
        }
    )
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    res = scan(ray.data.from_arrow(files), EngineConfig())
    assert res.findings.count() == 0
    assert res.stats["plan"]["pairs"]["path"] == "join"
    _assert_typed_findings(res.findings)


def test_cross_corpus_no_overlap(ray_session):
    from clonehunter_ray.pipelines import queries as Q

    if not hasattr(Q, "cross_corpus_dedup"):
        pytest.skip("no dataset-level cross_corpus_dedup entry")


def test_customers_without_orders_no_urgent(ray_session, tmp_path):
    """Zero urgent orders -> the distinct-urgent side of the anti-join
    is globally empty; every customer must come back."""
    import pyarrow.parquet as pq

    from clonehunter_ray.pipelines import queries as Q

    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array(range(20), pa.int64()),
                "c_name": pa.array([f"cust{i}" for i in range(20)]),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array(range(20), pa.int64()),
                "o_orderpriority": pa.array(["3-MEDIUM"] * 20),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = Q.customers_without_orders(str(tmp_path)).to_pandas()
    assert len(out) == 20


def test_decontaminate_distributed_no_contamination(ray_session, tmp_path):
    """No train gram appears in the benchmark side -> the hit side of
    the fill-zeros join is globally empty."""
    import pyarrow.parquet as pq

    from clonehunter_ray.pipelines import queries as Q

    texts = [
        " ".join(f"tok{i}x{j}" for j in range(12)) for i in range(26)
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(26), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = Q.decontaminate_documents_distributed(str(tmp_path)).to_pandas()
    assert (out["n_contaminated_grams"] == 0).all()
    assert not out["contaminated"].any()
