"""Token n-gram training-data operators: flat batch gram hashing,
Gopher-style repetition signals, benchmark decontamination, and the
frequent-gram (boilerplate) heavy-hitter pass — each pinned against
the exact DuckDB SQL shipped in ``__ray_entry__.oracle_sql()``.
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as entry  # noqa: E402

from clonehunter_ray.functions import hashing as H  # noqa: E402
from clonehunter_ray.pipelines import queries as Q  # noqa: E402

SF_DIR = "/root/testdata/sf0.001"


# -- kernel units (no Ray needed) -------------------------------------------


def test_flat_gram_hashes_masks_row_boundaries():
    rows = [
        H.hash_tokens_batch([["a", "b", "c"]])[0],
        H.hash_tokens_batch([["d", "e"]])[0],
    ]
    grams, idx = H.flat_gram_hashes(rows, 2)
    # 2 grams from row 0 (ab, bc), 1 from row 1 (de) — never "cd"
    assert idx.tolist() == [0, 0, 1]
    solo0 = H.shingle_hashes_seq(rows[0], 2)
    solo1 = H.shingle_hashes_seq(rows[1], 2)
    assert grams[:2].tolist() == solo0.tolist()
    assert grams[2:].tolist() == solo1.tolist()


def test_flat_gram_hashes_short_rows_contribute_nothing():
    rows = [
        H.hash_tokens_batch([["only"]])[0],
        np.empty(0, dtype=np.uint64),
        H.hash_tokens_batch([["x", "y", "z"]])[0],
    ]
    grams, idx = H.flat_gram_hashes(rows, 3)
    # only the 3-token row yields a 3-gram; no shingle_hashes fallback
    assert idx.tolist() == [2]
    assert grams.size == 1


def test_flat_gram_hashes_all_empty():
    grams, idx = H.flat_gram_hashes([np.empty(0, dtype=np.uint64)], 2)
    assert grams.size == 0 and idx.size == 0


def test_run_stats_per_row_counts():
    # row 0: grams [7,7,9]  -> total 3, distinct 2, top 2
    # row 1: no grams       -> zeros
    # row 2: grams [5]      -> total 1, distinct 1, top 1
    g = np.array([7, 7, 9, 5], dtype=np.uint64)
    r = np.array([0, 0, 0, 2], dtype=np.int64)
    n, d, top = H.run_stats_per_row(g, r, 3)
    assert n.tolist() == [3, 0, 1]
    assert d.tolist() == [2, 0, 1]
    assert top.tolist() == [2, 0, 1]


# -- oracle parity on the smallest scale factor ------------------------------


@pytest.fixture(scope="module")
def con():
    path = f"{SF_DIR}/documents.parquet"
    if not os.path.exists(path):
        pytest.skip("testdata not present")
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    return c


def _check(ray_result, con, key: str, exact_cols=()) -> pd.DataFrame:
    got = ray_result.to_pandas()
    want = con.execute(entry.oracle_sql()[key]).fetchdf()
    got = got[sorted(got.columns)].sort_values("doc_id").reset_index(drop=True)
    want = want[sorted(want.columns)].sort_values("doc_id").reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, check_exact=False, rtol=0, atol=0
    )
    for c in exact_cols:
        # the derived doubles are exact-integer ratios: bit-exact
        assert (got[c].values == want[c].values).all(), c
    return got


def test_repetition_signals_vs_oracle(ray_session, con):
    got = _check(
        Q.doc_repetition_signals(SF_DIR),
        con,
        "doc_repetition_signals",
        exact_cols=("dup_2gram_frac", "top_2gram_frac"),
    )
    # the synthetic vocab is tiny, so repetition must actually appear
    assert (got["dup_2gram_frac"] > 0).any()


def test_decontaminate_vs_oracle(ray_session, con):
    got = _check(Q.decontaminate_documents(SF_DIR), con, "decontaminate_documents")
    # benchmark docs themselves are excluded from the output
    assert (got["doc_id"] % 13 != 0).all()


def test_frequent_gram_stats_vs_oracle(ray_session, con):
    _check(
        Q.frequent_gram_stats_documents(SF_DIR),
        con,
        "frequent_gram_stats_documents",
        exact_cols=("frequent_frac",),
    )


def test_pmi_join_path_matches_broadcast(ray_session, monkeypatch):
    import pandas as pd

    from clonehunter_ray.pipelines import queries as Q
    from clonehunter_ray.stages import candidates

    b = Q.pmi_top_bigrams(SF_DIR).to_pandas()
    # a zero-row broadcast cutover forces the partitioned-join path
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    j = Q.pmi_top_bigrams(SF_DIR).to_pandas()
    key = ["w1", "w2"]
    b = b.sort_values(key).reset_index(drop=True)
    j = j.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(b, j, check_like=True)


def test_pmi_empty_candidates_both_paths(ray_session, monkeypatch):
    from clonehunter_ray.pipelines import queries as Q
    from clonehunter_ray.stages import candidates

    # an unsatisfiable min_count must return the empty result on BOTH
    # dispatch paths (the join path once fed a zero-column block into
    # safe_join and crashed with ArrowInvalid)
    for limit in (2_000_000, 0):
        monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", limit)
        r = Q.pmi_top_bigrams(SF_DIR, min_count=10**9)
        # uniform return type: empty paths must be a Dataset too, so
        # Dataset-only call sites never break on degenerate inputs
        import ray.data

        assert isinstance(r, ray.data.Dataset)
        assert r.count() == 0
