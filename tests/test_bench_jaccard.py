"""``fuzzy_decontaminate_documents``' sparse max-Jaccard kernel equals
the dense (rows x n_bench) intersection-matrix formula it replaced,
kept here as the oracle."""

from __future__ import annotations

import numpy as np
import pytest

from clonehunter_ray.pipelines.queries import bench_token_index, max_bench_jaccard


def dense_max_jaccard(sets, index) -> np.ndarray:
    """The dense form: one bincount into the (rows x n_bench) count
    matrix, Jaccard with the empty-union-is-0 convention, row max."""
    uniq, off, owner, bench_len = index
    train_len = np.array([len(s) for s in sets], dtype=np.int64)
    tflat = np.concatenate(sets) if sets else np.empty(0, np.uint64)
    rows = np.repeat(np.arange(len(sets), dtype=np.int64), train_len)
    pos = np.searchsorted(uniq, tflat)
    hit = pos < len(uniq)
    hit[hit] = uniq[pos[hit]] == tflat[hit]
    h, r = pos[hit], rows[hit]
    lens = off[h + 1] - off[h]
    total = int(lens.sum())
    starts = np.repeat(off[h], lens)
    within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    owners_exp = owner[starts + within]
    rows_exp = np.repeat(r, lens)
    n_b = len(bench_len)
    inter = np.bincount(
        rows_exp * n_b + owners_exp, minlength=len(sets) * n_b
    ).reshape(len(sets), n_b)
    union = train_len[:, None] + bench_len[None, :] - inter
    jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    return jac.max(axis=1) if n_b else np.zeros(len(sets))


def random_sets(rng, n: int, vocab: int) -> list[np.ndarray]:
    out = []
    for _ in range(n):
        size = int(rng.integers(0, 12)) if rng.random() > 0.15 else 0
        out.append(np.unique(rng.integers(0, vocab, size).astype(np.uint64)))
    return out


@pytest.mark.parametrize("seed", range(60))
def test_sparse_max_jaccard_equals_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n_bench = 1 if seed % 5 == 0 else int(rng.integers(1, 20))
    vocab = int(rng.integers(5, 80))
    bench = random_sets(rng, n_bench, vocab)
    train = random_sets(rng, int(rng.integers(0, 40)), vocab * 2)
    index = bench_token_index(bench)
    got = max_bench_jaccard(train, index)
    want = dense_max_jaccard(train, index)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_rows_without_a_hit_and_empty_sets_score_zero():
    bench = [np.array([1, 2, 3], np.uint64), np.array([], np.uint64)]
    train = [
        np.array([], np.uint64),
        np.array([7, 8], np.uint64),
        np.array([2, 3, 9], np.uint64),
    ]
    index = bench_token_index(bench)
    got = max_bench_jaccard(train, index)
    assert got.tolist() == [0.0, 0.0, 0.5]
    assert got.tobytes() == dense_max_jaccard(train, index).tobytes()
    # a bench side of empty sets only: no token can hit
    index = bench_token_index([np.array([], np.uint64)])
    assert max_bench_jaccard(train, index).tolist() == [0.0, 0.0, 0.0]
