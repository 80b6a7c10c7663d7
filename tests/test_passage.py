"""Corpus-level exact-substring (passage) dedup: kernel fuzz vs the
quadratic-DP oracle, the winnowing detection guarantee, an offline
all-pairs span oracle over a synthetic corpus, partitioning
determinism, and DuckDB parity for the SQL-checkable gram-stats
companion."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from clonehunter_ray.functions import hashing as H
from clonehunter_ray.functions.substring import (
    matching_statistics,
    matching_statistics_dp,
    merge_intervals,
)
from clonehunter_ray.pipelines import passage

MIN_LEN = 9  # gram_len 5, window 5 (5 + 5 - 1)


def _words(rng, n):
    return [f"w{int(x)}" for x in rng.integers(0, 400, n)]


@pytest.fixture(scope="module")
def corpus():
    """60 docs; several share injected verbatim passages >= MIN_LEN."""
    rng = np.random.default_rng(11)
    texts = [" ".join(_words(rng, int(rng.integers(30, 120)))) for _ in range(60)]
    shared_a = " ".join(_words(rng, 15))  # > MIN_LEN
    shared_b = " ".join(_words(rng, 30))
    # inject shared_a into docs 3, 17, 40; shared_b into 5 and 29
    for d in (3, 17, 40):
        mid = len(texts[d]) // 2
        sp = texts[d].find(" ", mid)
        texts[d] = texts[d][:sp] + " " + shared_a + texts[d][sp:]
    texts[5] = shared_b + " " + texts[5]
    texts[29] = texts[29] + " " + shared_b
    # doc 50 = near-complete copy of doc 12 (whole-doc passage)
    texts[50] = texts[12] + " " + " ".join(_words(rng, 5))
    return pa.table(
        {
            "doc_id": pa.array(range(60), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def _expected_spans(corpus, min_len):
    """Offline oracle: all-pairs DP matching statistics with keeper
    semantics (spans flagged in the larger doc_id), merged per doc."""
    toks = H.tokenize_hash_texts(corpus["text"])
    ids = corpus["doc_id"].to_pylist()
    per_doc: dict[int, list[tuple[int, int]]] = {}
    for bi in range(len(ids)):
        starts, ends = [], []
        for ai in range(len(ids)):
            if ids[ai] >= ids[bi]:
                continue
            ms = matching_statistics_dp(toks[ai], toks[bi])
            hit = np.flatnonzero(ms >= min_len)
            starts.extend(hit.tolist())
            ends.extend((hit + ms[hit]).tolist())
        if starts:
            s, e = merge_intervals(np.array(starts), np.array(ends))
            per_doc[ids[bi]] = list(zip(s.tolist(), e.tolist()))
    return per_doc


def _collect_spans(ds) -> dict[int, list[tuple[int, int]]]:
    t = ds.to_pandas().sort_values(["doc_id", "span_start"])
    out: dict[int, list[tuple[int, int]]] = {}
    for r in t.itertuples():
        out.setdefault(int(r.doc_id), []).append(
            (int(r.span_start), int(r.span_end))
        )
    return out


def test_matching_statistics_fuzz_vs_dp():
    rng = np.random.default_rng(7)
    for _ in range(120):
        na, nb = rng.integers(0, 60, 2)
        vocab = int(rng.integers(2, 10))
        a = rng.integers(0, vocab, na).astype(np.uint64)
        b = rng.integers(0, vocab, nb).astype(np.uint64)
        assert np.array_equal(
            matching_statistics(a, b), matching_statistics_dp(a, b)
        )


def test_winnow_positions_guarantee():
    """Identical hash windows select identical gram content: any two
    sequences sharing a run of >= window shingle hashes share at least
    one selected gram value."""
    rng = np.random.default_rng(3)
    window = 5
    shared = rng.integers(1, 1 << 60, 12).astype(np.uint64)
    for _ in range(50):
        a = np.concatenate(
            [
                rng.integers(1, 1 << 60, rng.integers(0, 30)).astype(np.uint64),
                shared,
                rng.integers(1, 1 << 60, rng.integers(0, 30)).astype(np.uint64),
            ]
        )
        b = np.concatenate(
            [
                rng.integers(1, 1 << 60, rng.integers(0, 30)).astype(np.uint64),
                shared,
                rng.integers(1, 1 << 60, rng.integers(0, 30)).astype(np.uint64),
            ]
        )
        sel_a = set(a[passage.winnow_positions(a, window)].tolist())
        sel_b = set(b[passage.winnow_positions(b, window)].tolist())
        assert sel_a & sel_b & set(shared.tolist())


def test_passage_spans_match_offline_oracle(ray_session, corpus):
    got = _collect_spans(
        passage.passage_dedup_spans(
            ray.data.from_arrow(corpus), min_len=MIN_LEN
        )
    )
    want = _expected_spans(corpus, MIN_LEN)
    assert got == want
    # the injected families are actually flagged
    assert 17 in got and 40 in got and 29 in got and 50 in got
    assert 3 not in got or 3 in want  # keeper (min id of its family)


def test_passage_spans_cover_injected_span(ray_session, corpus):
    """Doc 50 contains doc 12 verbatim: its flagged span must cover
    doc 12's full token length."""
    got = _collect_spans(
        passage.passage_dedup_spans(
            ray.data.from_arrow(corpus), min_len=MIN_LEN
        )
    )
    n12 = len(H.tokenize_hash_texts(corpus["text"])[12])
    assert any(e - s >= n12 for s, e in got[50])


def test_passage_spans_partitioning_invariant(ray_session, corpus):
    a = _collect_spans(
        passage.passage_dedup_spans(
            ray.data.from_arrow(corpus), min_len=MIN_LEN
        )
    )
    b = _collect_spans(
        passage.passage_dedup_spans(
            ray.data.from_arrow(corpus).repartition(7),
            min_len=MIN_LEN,
            num_partitions=13,
        )
    )
    assert a == b


def test_passage_join_path_matches_broadcast(ray_session, corpus, monkeypatch):
    from clonehunter_ray.stages import candidates

    bcast = _collect_spans(
        passage.passage_dedup_spans(
            ray.data.from_arrow(corpus), min_len=MIN_LEN
        )
    )
    # force the partitioned-join path
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    joined = _collect_spans(
        passage.passage_dedup_spans(
            ray.data.from_arrow(corpus),
            min_len=MIN_LEN,
            num_partitions=4,
        )
    )
    assert bcast == joined


def test_passage_dedup_documents_summary(ray_session, corpus):
    out = (
        passage.passage_dedup_documents(
            ray.data.from_arrow(corpus), min_len=MIN_LEN, max_dup_frac=0.5
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(out) == 60
    want = _expected_spans(corpus, MIN_LEN)
    toks = H.tokenize_hash_texts(corpus["text"])
    for did in range(60):
        exp_dup = sum(e - s for s, e in want.get(did, []))
        assert int(out.loc[did, "dup_tokens"]) == exp_dup, did
        assert int(out.loc[did, "n_tokens"]) == len(toks[did])
        exp_frac = exp_dup / len(toks[did]) if len(toks[did]) else 0.0
        assert out.loc[did, "dup_frac"] == pytest.approx(exp_frac)
        assert bool(out.loc[did, "keep"]) == (exp_frac < 0.5)
    # the near-complete copy of doc 12 must be dropped
    assert not bool(out.loc[50, "keep"])


def test_passage_dup_stats_matches_duckdb(ray_session, tmp_path):
    """The SQL-checkable companion: engine gram-hash stats == DuckDB
    exact-string stats on a corpus with real duplicated passages."""
    import duckdb

    rng = np.random.default_rng(23)
    texts = [" ".join(_words(rng, int(rng.integers(5, 60)))) for _ in range(40)]
    shared = " ".join(_words(rng, 12))
    texts[2] += " " + shared
    texts[9] = shared + " " + texts[9]
    texts[30] += " " + shared
    t = pa.table(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    import pyarrow.parquet as pq

    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (
        passage.passage_dup_stats_documents(str(tmp_path), gram_len=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    from __ray_entry__ import oracle_sql

    want = (
        con.execute(oracle_sql()["passage_dup_stats_documents"])
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )


def _expected_decon_spans(train_tbl, bench_tbl, min_len):
    """Offline oracle: per train doc, union of DP matching-statistics
    spans >= min_len against EVERY benchmark doc."""
    tr_toks = H.tokenize_hash_texts(train_tbl["text"])
    be_toks = H.tokenize_hash_texts(bench_tbl["text"])
    out = {}
    for ti, tid in enumerate(train_tbl["doc_id"].to_pylist()):
        starts, ends = [], []
        for bj in range(len(be_toks)):
            ms = matching_statistics_dp(be_toks[bj], tr_toks[ti])
            hit = np.flatnonzero(ms >= min_len)
            starts.extend(hit.tolist())
            ends.extend((hit + ms[hit]).tolist())
        if starts:
            s, e = merge_intervals(np.array(starts), np.array(ends))
            out[int(tid)] = list(zip(s.tolist(), e.tolist()))
    return out


def test_passage_decontaminate_spans_matches_oracle(ray_session):
    rng = np.random.default_rng(41)
    bench_texts = [
        " ".join(_words(rng, int(rng.integers(20, 60)))) for _ in range(10)
    ]
    train_texts = [
        " ".join(_words(rng, int(rng.integers(30, 100)))) for _ in range(30)
    ]
    # leak benchmark passages into three train docs
    leak_a = " ".join(bench_texts[2].split()[:15])
    leak_b = " ".join(bench_texts[7].split()[5:25])
    train_texts[4] += " " + leak_a
    train_texts[11] = leak_b + " " + train_texts[11]
    train_texts[23] += " " + leak_a + " filler " + leak_b
    bench = pa.table(
        {
            "doc_id": pa.array(range(1000, 1010), pa.int64()),
            "text": pa.array(bench_texts, pa.string()),
        }
    )
    train = pa.table(
        {
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(train_texts, pa.string()),
        }
    )
    got = _collect_spans(
        passage.passage_decontaminate_spans(
            ray.data.from_arrow(train),
            ray.data.from_arrow(bench),
            min_len=MIN_LEN,
        )
    )
    want = _expected_decon_spans(train, bench, MIN_LEN)
    assert got == want
    assert {4, 11, 23} <= set(got)
    # benchmark docs never appear in the output (train side only)
    assert all(d < 1000 for d in got)


def test_passage_decontaminate_partitioning_invariant(ray_session, monkeypatch):
    from clonehunter_ray.stages import candidates

    rng = np.random.default_rng(5)
    bench_texts = [" ".join(_words(rng, 30)) for _ in range(5)]
    train_texts = [" ".join(_words(rng, 50)) for _ in range(20)]
    train_texts[3] += " " + " ".join(bench_texts[0].split()[:12])
    bench = pa.table(
        {
            "doc_id": pa.array(range(500, 505), pa.int64()),
            "text": pa.array(bench_texts, pa.string()),
        }
    )
    train = pa.table(
        {
            "doc_id": pa.array(range(20), pa.int64()),
            "text": pa.array(train_texts, pa.string()),
        }
    )
    a = _collect_spans(
        passage.passage_decontaminate_spans(
            ray.data.from_arrow(train),
            ray.data.from_arrow(bench),
            min_len=MIN_LEN,
        )
    )
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)  # join path
    b = _collect_spans(
        passage.passage_decontaminate_spans(
            ray.data.from_arrow(train).repartition(6),
            ray.data.from_arrow(bench).repartition(3),
            min_len=MIN_LEN,
            num_partitions=11,
            max_bucket_pairs=2,  # exercise the capped hub-spoke branch
        )
    )
    assert 3 in a
    assert a == b
