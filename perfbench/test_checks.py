"""Tests of the benchmark's own output checks: each must reject a
result with one planted error.

    python3 -m pytest perfbench/test_checks.py -q -p no:cacheprovider
"""

from __future__ import annotations

import os
import sys

import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture(scope="module")
def truth():
    _files, table = inputs.code_corpus(200, 3)
    pos, neg = checks.truth_sets(table.to_pylist())
    assert pos and neg
    return pos, neg


def test_scan_accepts_the_truth(truth):
    pos, neg = truth
    assert checks.check_scan(set(pos), pos, neg) == (True, 1.0, "")


def test_scan_rejects_a_missing_expected_pair(truth):
    pos, neg = truth
    found = set(pos)
    found.remove(min(found))
    ok, recall, reason = checks.check_scan(found, pos, neg)
    assert not ok and recall < 1.0 and "missing" in reason


def test_scan_rejects_an_added_truth_negative(truth):
    pos, neg = truth
    ok, _recall, reason = checks.check_scan(set(pos) | {min(neg)}, pos, neg)
    assert not ok and "negative" in reason


@pytest.fixture(scope="module")
def docs():
    table = inputs.documents(300, 5)
    ids, texts = table["doc_id"].to_pylist(), table["text"].to_pylist()
    edges = checks.near_dup_edges(ids, texts, 0.8)
    assert edges
    return ids, edges


def _keep_rows(ids, edges):
    label = checks.components(edges)
    return [
        {"doc_id": d, "cluster_id": label.get(d, -1), "keep": label.get(d, d) == d}
        for d in ids
    ]


def test_keep_accepts_the_oracle(docs):
    ids, edges = docs
    assert checks.check_keep(_keep_rows(ids, edges), ids, edges)[0]


def test_keep_rejects_a_kept_duplicate(docs):
    ids, edges = docs
    rows = _keep_rows(ids, edges)
    dropped = next(r for r in rows if not r["keep"])
    dropped["keep"] = True
    ok, recall, _reason = checks.check_keep(rows, ids, edges)
    assert not ok and recall < 1.0


def test_stream_rejects_a_missing_flag(docs):
    _ids, edges = docs
    truth = checks.stream_truth(edges, 100)
    rows = [{"doc_id": b, "dup_of": a, "jaccard": edges[(a, b)]} for b, a in truth.items()]
    assert checks.check_stream(rows, truth, edges)[0]
    ok, _recall, _reason = checks.check_stream(rows[1:], truth, edges)
    assert not ok


def test_shingle_jaccard_is_exact():
    a = "one two three four five six"
    b = "one two three four five seven"
    edges = checks.near_dup_edges([0, 1], [a, b], 0.0)
    # 2 shingles each, 1 shared
    assert edges == {(0, 1): 1 / 3}


def test_query_compare_rejects_one_changed_value():
    want = pd.DataFrame({"k": ["a", "b"], "v": [1.25, 2.5]})
    assert checks.compare_frames(want.copy(), want) == ""
    got = want.copy()
    got.loc[1, "v"] = 2.51
    assert checks.compare_frames(got, want) == "values differ"


def test_query_compare_rejects_a_dropped_row():
    want = pd.DataFrame({"k": ["a", "b"], "v": [1, 2]})
    assert checks.compare_frames(want.iloc[:1], want).startswith("rows")


def test_token_set_clusters_match_the_sql_twin(tmp_path):
    import duckdb

    import __ray_entry__ as E
    from tools.check_oracle import normalize

    docs = inputs.documents(300, 9)
    path = inputs.write_table(docs, str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    want = normalize(con.execute(E.oracle_sql()["duplicate_clusters_documents"]).fetchdf())
    got = normalize(checks.token_set_clusters(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    assert (got["cluster_id"] != got["doc_id"]).any()
    assert checks.compare_frames(got, want) == ""


def test_clock_takes_the_stolen_share_off_the_wall_time(monkeypatch):
    import run

    # (busy, stolen) ticks: 300 busy and 100 stolen during the block
    ticks = iter([(1000, 50), (1300, 150)])
    monkeypatch.setattr(run, "machine_ticks", lambda: next(ticks))
    with run.Clock() as clock:
        pass
    assert clock.steal_share == 0.25
    assert clock.seconds == clock.wall * 0.75
