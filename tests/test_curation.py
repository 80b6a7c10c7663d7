"""End-to-end curation pipeline: oracle parity + per-stage reasons.

Pins pipelines/curation.py against the exact DuckDB SQL shipped in
``__ray_entry__.oracle_sql()['curate_documents_pipeline']`` (the
driver's correctness gate runs the same comparison at sf0.01), plus a
hand-built corpus where each document is dropped for exactly one
known reason (benchmark holdout / exact dup / too short / repetitive
/ contaminated)."""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as entry  # noqa: E402

from clonehunter_ray.pipelines.curation import (  # noqa: E402
    curate_documents,
    curate_documents_pipeline,
)

SF_DIR = "/root/testdata/sf0.001"


def _oracle(sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{sf_dir}/documents.parquet'"
    )
    return (
        con.execute(entry.oracle_sql()["curate_documents_pipeline"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def test_curation_oracle_parity(ray_session):
    if not os.path.exists(f"{SF_DIR}/documents.parquet"):
        pytest.skip("testdata not present")
    mine = (
        curate_documents_pipeline(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    oracle = _oracle(SF_DIR)
    assert list(mine.columns) == list(oracle.columns)
    assert len(mine) == len(oracle)
    for c in mine.columns:
        assert (mine[c].values == oracle[c].values).all(), c


def test_curation_stage_reasons(ray_session):
    good = "the quick brown fox jumps over the lazy dog near the " \
        "river bank while seven other animals watch from tall green " \
        "trees and sing old songs about warm summer rain every day"
    bench_text = "held out benchmark passage with its own distinct " \
        "wording that nothing else may share in any four gram window " \
        "of running tokens across the entire training corpus today ok"
    contaminated = (
        good + " extra tail " + " ".join(bench_text.split()[:4])
    )
    short = "way too short"
    repetitive = " ".join(["spam"] * 60)

    rows = [
        # (doc_id, text) — corpus docs get non-bench ids
        (1, good),  # survives
        (2, good),  # exact dup of 1 -> dropped (keep-first)
        (3, short),  # dropped: n_tokens < 25
        (4, repetitive),  # dropped: distinct_ratio
        (5, contaminated),  # dropped: shares a 4-gram with bench
    ]
    docs = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
            "source": pa.array(["s0"] * len(rows), pa.string()),
        }
    )
    bench = pa.table(
        {
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array([bench_text], pa.string()),
        }
    )
    out = curate_documents(
        ray.data.from_arrow(docs),
        ray.data.from_arrow(bench),
        num_partitions=4,
    ).to_pandas()
    assert sorted(out.doc_id.tolist()) == [1]
    assert out.n_tokens.iloc[0] == len(good.split())


def test_curation_clean_corpus_passthrough(ray_session):
    """Empty loser/contamination sides must not crash the attach
    (GLOBALLY empty right side) and every healthy doc survives."""
    texts = [
        f"document number {i} contains plenty of unique and varied "
        "words arranged in one reasonably long sentence about the "
        "weather the mountains rivers forests and the open night sky "
        f"variant token{i}" for i in range(8)
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(1, 9)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 8, pa.string()),
            "source": pa.array(["s"] * 8, pa.string()),
        }
    )
    bench = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
        }
    )
    out = curate_documents(
        ray.data.from_arrow(docs),
        ray.data.from_arrow(bench),
        num_partitions=4,
    ).to_pandas()
    assert sorted(out.doc_id.tolist()) == list(range(1, 9))


def test_curation_join_path_matches_default(ray_session, monkeypatch, tmp_path):
    """A corpus with exact duplicates (non-empty loser side): the
    loser anti-join forced down the partitioned-join path keeps the
    same documents as the broadcast probe, and both equal the oracle."""
    if not os.path.exists(f"{SF_DIR}/documents.parquet"):
        pytest.skip("testdata not present")
    from clonehunter_ray.stages import candidates

    docs = pq.read_table(f"{SF_DIR}/documents.parquet").replace_schema_metadata(None)
    ids = docs["doc_id"].to_pylist()
    copy_ids = [i for i in range(max(ids) + 1, max(ids) + 80) if i % 13][:40]
    copies = docs.filter(
        pa.array([i % 13 != 0 for i in ids])
    ).slice(0, len(copy_ids))
    copies = copies.set_column(0, "doc_id", pa.array(copy_ids, pa.int64()))
    pq.write_table(pa.concat_tables([docs, copies]), str(tmp_path / "documents.parquet"))

    def run() -> pd.DataFrame:
        return (
            curate_documents_pipeline(str(tmp_path))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    bcast = run()
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    joined = run()
    pd.testing.assert_frame_equal(bcast, joined)
    oracle = _oracle(str(tmp_path))
    assert len(joined) == len(oracle)
    for c in joined.columns:
        assert (joined[c].values == oracle[c].values).all(), c
    assert not set(copy_ids) & set(joined["doc_id"])
