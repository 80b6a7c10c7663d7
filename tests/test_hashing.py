"""Unit tests for the hashing kernels (tokenize/shingle/minhash/simhash)."""

import hashlib

import numpy as np
import pytest

from clonehunter_ray.functions import hashing as H


def test_sha256_matches_reference_recipe():
    # reference io/fingerprints.py:6-7 — utf-8 encode, hexdigest
    assert H.sha256_hex("abc") == hashlib.sha256(b"abc").hexdigest()
    assert H.sha256_hex("héllo") == hashlib.sha256("héllo".encode()).hexdigest()


def test_tokenize_matches_reference_alphabet():
    # reference similarity/lexical.py:18-19
    assert H.tokenize("Foo_bar baz-42 Qux!") == ["foo_bar", "baz", "42", "qux"]
    assert H.tokenize("") == []


def test_token_hashing_is_deterministic_and_batch_consistent():
    lists = [["a", "b", "a"], ["b", "c"], []]
    out1 = H.hash_tokens_batch(lists)
    out2 = H.hash_tokens_batch(lists)
    for a, b in zip(out1, out2):
        assert (a == b).all()
    # same token -> same hash across rows
    assert out1[0][1] == out1[1][0]
    # matches the scalar function
    assert out1[0][0] == H.hash_token_u64("a")
    assert len(out1[2]) == 0


def test_shingles_distinct_sorted_and_short_row_fallback():
    th = H.hash_tokens_batch([["a", "b", "c", "d"], ["a", "b"]])
    sh = H.shingle_hashes(th[0], 3)
    assert len(sh) == 2  # abc, bcd
    assert (np.sort(sh) == sh).all()
    short = H.shingle_hashes(th[1], 3)
    assert len(short) == 1  # fallback single shingle


def test_minhash_estimates_jaccard():
    rng = np.random.RandomState(7)
    A = np.unique(rng.randint(0, 2**63, 2000).astype(np.uint64))
    B = np.unique(
        np.concatenate([A[:1200], rng.randint(0, 2**63, 800).astype(np.uint64)])
    )
    true_j = H.jaccard_sorted(A, B)
    mh = H.MinHasher(256, 123)
    sa, sb = mh.signatures_batch([A, B])
    est = float((sa == sb).mean())
    assert abs(est - true_j) < 0.08
    # batch API == row API
    assert (mh.signature(A) == sa).all()


def test_minhash_identical_sets_identical_signatures():
    mh = H.MinHasher(128, 1)
    x = np.unique(np.arange(100, dtype=np.uint64) * np.uint64(7919))
    s1, s2 = mh.signatures_batch([x, x.copy()])
    assert (s1 == s2).all()


def test_band_hashes_differ_across_band_index():
    mh = H.MinHasher(128, 1)
    sig = mh.signature(np.arange(1, 50, dtype=np.uint64))
    bh = H.band_hashes(sig, 32, 4)
    assert len(set(bh.tolist())) == 32  # band idx mixed in
    batch = H.band_hashes_batch(sig[None, :], 32, 4)
    assert (batch[0] == bh).all()


def test_simhash_similar_sets_small_hamming():
    rng = np.random.RandomState(3)
    A = np.unique(rng.randint(0, 2**63, 500).astype(np.uint64))
    B = np.unique(
        np.concatenate([A[:480], rng.randint(0, 2**63, 20).astype(np.uint64)])
    )
    C = np.unique(rng.randint(0, 2**63, 500).astype(np.uint64))
    sim = H.simhash_batch([A, B, C])
    d_ab = H.hamming_distance_u64(sim[0:1], sim[1:2])[0]
    d_ac = H.hamming_distance_u64(sim[0:1], sim[2:3])[0]
    assert d_ab < d_ac
    assert d_ab <= 10


def test_jaccard_sorted_edges():
    e = np.empty(0, dtype=np.uint64)
    x = np.array([1, 2, 3], dtype=np.uint64)
    assert H.jaccard_sorted(e, x) == 0.0
    assert H.jaccard_sorted(x, x) == 1.0
    y = np.array([2, 3, 4], dtype=np.uint64)
    assert H.jaccard_sorted(x, y) == pytest.approx(0.5)


def test_tokenize_hash_texts_matches_python_path():
    """The Arrow-kernel tokenizer (utf8_lower -> regex split ->
    dictionary_encode) must emit exactly the ordered hashes of the
    Python reference path (tokenize -> hash_tokens_batch)."""
    import pyarrow as pa

    texts = [
        "def foo(bar): return bar + 1",
        "",
        "   ",
        "ABC_def 123\nghi\tjkl!!",
        "café naïve ÜBER_mix",
        "unicode: 日本語 token_1 token_1 token_2",
        "__dunder__ CamelCase snake_case 0xdeadbeef",
    ]
    ref = [H.hash_tokens_batch([H.tokenize(t)])[0] for t in texts]
    for got in (
        H.tokenize_hash_texts(texts),
        H.tokenize_hash_texts(pa.array(texts, pa.string())),
        H.tokenize_hash_texts(pa.chunked_array([texts[:3], texts[3:]])),
    ):
        assert len(got) == len(ref)
        for a, b in zip(ref, got):
            assert b.dtype == np.uint64
            assert np.array_equal(a, b)
    assert H.tokenize_hash_texts([]) == []
    # nulls hash like empty strings
    withnull = pa.array(["a b", None, "c"], pa.string())
    out = H.tokenize_hash_texts(withnull)
    assert len(out[1]) == 0 and len(out[0]) == 2 and len(out[2]) == 1


def test_jaccard_batch_matches_scalar_path():
    """jaccard_batch (vectorized lexsort kernel) must equal
    jaccard_sorted pair-by-pair, including empty sides, identical
    sides, chunked columns, and sliced columns."""
    import pyarrow as pa

    rng = np.random.RandomState(7)
    rows_a, rows_b = [], []
    for _ in range(200):
        na, nb = rng.randint(0, 40), rng.randint(0, 40)
        pool = rng.randint(0, 50, size=80).astype(np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        a = np.unique(rng.choice(pool, size=na)) if na else np.empty(0, np.uint64)
        b = np.unique(rng.choice(pool, size=nb)) if nb else np.empty(0, np.uint64)
        rows_a.append(a)
        rows_b.append(b)
    rows_a[3] = rows_b[3].copy()  # identical sides
    ref = np.array(
        [H.jaccard_sorted(a, b) for a, b in zip(rows_a, rows_b)]
    )
    col_a = pa.array([a.tobytes() for a in rows_a], pa.binary())
    col_b = pa.array([b.tobytes() for b in rows_b], pa.binary())
    got = H.jaccard_batch(col_a, col_b)
    assert np.allclose(got, ref, rtol=0, atol=0)
    # chunked + sliced columns exercise the offset-aligned buffer path
    ch_a = pa.chunked_array([col_a.slice(0, 50), col_a.slice(50)])
    got2 = H.jaccard_batch(ch_a, col_b)
    assert np.array_equal(got2, got)
    got3 = H.jaccard_batch(col_a.slice(10, 100), col_b.slice(10, 100))
    assert np.array_equal(got3, got[10:110])
    assert len(H.jaccard_batch(col_a.slice(0, 0), col_b.slice(0, 0))) == 0


def test_binary_column_u64_large_binary_offsets():
    """large_binary columns carry int64 offsets — reading them as int32
    interleaves each offset's words and produces negative row lengths."""
    import numpy as np
    import pyarrow as pa

    from clonehunter_ray.functions.hashing import binary_column_u64, jaccard_batch

    blobs = [
        np.array([1, 5, 9], dtype=np.uint64).tobytes(),
        np.array([5, 9], dtype=np.uint64).tobytes(),
    ]
    for typ in (pa.binary(), pa.large_binary()):
        vals, lens = binary_column_u64(pa.array(blobs, typ))
        assert lens.tolist() == [3, 2]
        assert vals.tolist() == [1, 5, 9, 5, 9]
        sims = jaccard_batch(pa.array(blobs, typ), pa.array(blobs[::-1], typ))
        assert np.allclose(sims, [2 / 3, 2 / 3])


def test_flat_tokens_matches_reference_tokenizer():
    """flat_tokens (Arrow kernel chain) must agree with the reference
    TOKEN_RE.findall path on content and row attribution, including
    null rows, empty rows, and pure-separator rows."""
    import pyarrow as pa

    texts = [
        "The fast KEY order",
        "",
        None,
        "...!!  \t ",
        "a_b 9x  __ trailing_",
        "UPPER lower 0_9",
    ]
    flat, parent = H.flat_tokens(pa.array(texts, pa.string()))
    got = list(zip(parent.tolist(), flat.to_pylist()))
    want = []
    for i, t in enumerate(texts):
        for tok in H.tokenize(t or ""):
            want.append((i, tok))
    assert got == want
    # plain-list input path
    flat2, parent2 = H.flat_tokens(texts)
    assert flat2.to_pylist() == flat.to_pylist()
    assert parent2.tolist() == parent.tolist()
    # empty input
    flat3, parent3 = H.flat_tokens(pa.array([], pa.string()))
    assert len(flat3) == 0 and len(parent3) == 0


def test_run_ranks_matches_pandas_cumcount():
    """run_ranks on sorted keys == pandas groupby().cumcount()."""
    import pandas as pd

    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 57, 1000):
        keys = np.sort(rng.integers(0, max(n // 3, 1), size=n))
        got = H.run_ranks(keys)
        want = pd.Series(keys).groupby(keys).cumcount().to_numpy()
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    # string keys (cap_docs_per_source sorts object arrays)
    s = np.array(["a", "a", "b", "c", "c", "c"], dtype=object)
    assert H.run_ranks(s).tolist() == [0, 1, 0, 0, 1, 2]


def test_flat_batch_kernels_match_per_row_forms(monkeypatch):
    """The signature stage's flat batch kernels (batch_shingle_sets /
    dedup_per_row / simhash_from_flat / MinHasher.signatures_flat) are
    bit-identical to the per-row forms they replace — including empty
    rows, short-row (< k) shingle fallback, and a giant row that
    overflows the MinHasher chunk budget."""
    rng = np.random.default_rng(11)
    k, num_perm = 6, 32
    hasher_a = H.MinHasher(num_perm, 42)
    hasher_b = H.MinHasher(num_perm, 42)
    hasher_b._budget = 64  # force multi-chunk + giant-row paths

    lens = [0, 1, 3, k - 1, k, 17, 300, 0, 2, 95]
    token_lists = [
        rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
        for n in lens
    ]
    # repeats inside a row exercise the dedup
    token_lists[5][3:6] = token_lists[5][0:3]
    flat = (
        np.concatenate([t for t in token_lists if len(t)])
        if any(lens)
        else np.empty(0, np.uint64)
    )
    lens_arr = np.asarray(lens, dtype=np.int64)
    n_rows = len(lens)

    # per-row reference
    shingle_lists = [H.shingle_hashes(t, k) for t in token_lists]
    token_sets = [H.token_set_hashes(t) for t in token_lists]
    sigs_ref = hasher_a.signatures_batch(shingle_lists)
    sim_ref = H.simhash_batch(shingle_lists)

    # flat batch
    flat_sh, sh_counts = H.batch_shingle_sets(flat, lens_arr, k)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lens_arr)
    flat_ts, ts_counts = H.dedup_per_row(flat, rows, n_rows)
    sigs = hasher_b.signatures_flat(flat_sh, sh_counts)
    sims = H.simhash_from_flat(flat_sh, sh_counts)

    off = np.zeros(n_rows + 1, np.int64)
    np.cumsum(sh_counts, out=off[1:])
    for i in range(n_rows):
        assert np.array_equal(shingle_lists[i], flat_sh[off[i] : off[i + 1]])
    off2 = np.zeros(n_rows + 1, np.int64)
    np.cumsum(ts_counts, out=off2[1:])
    for i in range(n_rows):
        assert np.array_equal(token_sets[i], flat_ts[off2[i] : off2[i + 1]])
    assert np.array_equal(sigs_ref, sigs)
    assert np.array_equal(sim_ref, sims)

    # all-empty batch
    e_sh, e_cnt = H.batch_shingle_sets(
        np.empty(0, np.uint64), np.zeros(4, np.int64), k
    )
    assert e_sh.size == 0 and e_cnt.tolist() == [0, 0, 0, 0]
    assert H.simhash_from_flat(e_sh, e_cnt).tolist() == [0, 0, 0, 0]

    # SimHash votes: exact ties (2 * count == n: every bit of x and ~x,
    # 4-value rows with each bit in two of them), a row of more than
    # 65,535 values, and a batch that crosses the row-chunk boundary by
    # rows and, with the value bound lowered, by values
    x = rng.integers(0, 2**63, size=3, dtype=np.int64).astype(np.uint64)
    lists = [
        np.array([x[0], ~x[0]]),
        np.array([x[0], x[0], ~x[0], ~x[0]]),
        np.array([x[0], x[1], ~x[0], ~x[1]]),
        np.array([0, 2**64 - 1, 2**63, 2**63 - 1], dtype=np.uint64),
        np.array([x[2]]),
        rng.integers(0, 2**63, size=70_000, dtype=np.int64).astype(np.uint64),
    ]
    lists += [
        rng.integers(0, 2**63, size=int(m), dtype=np.int64).astype(np.uint64)
        for m in rng.integers(0, 40, size=2 * H._SIMHASH_CHUNK_ROWS + 7)
    ]
    counts = np.array([len(v) for v in lists], dtype=np.int64)
    want = H.simhash_batch(lists)
    assert want[:4].tolist() == [0, 0, 0, 0] and want[4] == x[2]
    for chunk_values in (H._SIMHASH_CHUNK_VALUES, 1000):
        monkeypatch.setattr(H, "_SIMHASH_CHUNK_VALUES", chunk_values)
        got = H.simhash_from_flat(np.concatenate(lists), counts)
        assert np.array_equal(got, want)


def test_signature_stage_arrow_layout_matches_per_row_build():
    """SignatureStage's zero-copy Arrow construction produces columns
    equal to the per-row tobytes()/tolist() build."""
    import pyarrow as pa

    from clonehunter_ray.config import SignatureConfig
    from clonehunter_ray.stages.signatures import SignatureStage

    texts = [
        "def f(x):\n    return x + 1",
        "",
        None,
        "a b",
        "the quick brown fox " * 40,
        "def g(y):\n    return y + 1",
    ]
    batch = pa.table(
        {
            "snippet_id": pa.array([f"s{i}" for i in range(len(texts))]),
            "text": pa.array(texts, pa.string()),
        }
    )
    cfg = SignatureConfig()
    out = SignatureStage(cfg, emit_token_seq=True)(batch)

    th = H.tokenize_hash_texts(batch["text"])
    sh = [H.shingle_hashes(t, cfg.shingle_k) for t in th]
    ts = [H.token_set_hashes(t) for t in th]
    sigs = H.MinHasher(cfg.num_perm, cfg.seed).signatures_batch(sh)
    assert out["shingles"].combine_chunks().equals(
        pa.array([s.tobytes() for s in sh], pa.binary())
    )
    assert out["tokens"].combine_chunks().equals(
        pa.array([t.tobytes() for t in ts], pa.binary())
    )
    assert out["token_seq"].combine_chunks().equals(
        pa.array([t.tobytes() for t in th], pa.binary())
    )
    assert out["minhash"].combine_chunks().equals(
        pa.array(sigs.tolist(), pa.list_(pa.uint64()))
    )
    assert out["simhash"].to_pylist() == H.simhash_batch(sh).tolist()
    assert out["n_shingles"].to_pylist() == [len(s) for s in sh]
    assert out["n_tokens"].to_pylist() == [len(t) for t in ts]

    # zero-row batch keeps the schema
    empty = batch.slice(0, 0)
    out0 = SignatureStage(cfg, emit_token_seq=True)(empty)
    assert out0.num_rows == 0
    assert set(out.column_names) == set(out0.column_names)


def test_doc_signature_stage_arrow_columns_match_list_build():
    """DocSignatureStage's band_keys / simhash columns, built from the
    numpy results without a tolist() round-trip, equal the list
    construction over the per-row kernels, and the band explode reads
    them back to the same (band_key, doc_id) rows."""
    import pyarrow as pa

    from clonehunter_ray.config import SignatureConfig
    from clonehunter_ray.pipelines.dedup import DocSignatureStage
    from clonehunter_ray.stages.candidates import explode_bands

    texts = ["alpha beta gamma delta epsilon zeta", "", None, "a b",
             "the quick brown fox " * 40]
    batch = pa.table(
        {
            "doc_id": pa.array([7, 3, 11, 0, 5], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    cfg = SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)
    out = DocSignatureStage(cfg)(batch)

    sh = [H.shingle_hashes(t, cfg.shingle_k)
          for t in H.tokenize_hash_texts(batch["text"])]
    sigs = H.MinHasher(cfg.num_perm, cfg.seed).signatures_batch(sh)
    bands = H.band_hashes_batch(sigs, cfg.num_bands, cfg.band_rows)
    assert out["band_keys"].combine_chunks().equals(
        pa.array(bands.tolist(), pa.list_(pa.uint64()))
    )
    assert out["simhash"].combine_chunks().equals(
        pa.array(H.simhash_batch(sh).tolist(), pa.uint64())
    )
    assert out["shingles"].combine_chunks().equals(
        pa.array([s.tobytes() for s in sh], pa.binary())
    )
    exploded = explode_bands(out, "doc_id")
    assert exploded["band_key"].to_pylist() == bands.ravel().tolist()
    assert exploded["doc_id"].to_pylist() == np.repeat(
        [7, 3, 11, 0, 5], cfg.num_bands
    ).tolist()

    out0 = DocSignatureStage(cfg)(batch.slice(0, 0))
    assert out0.schema.equals(out.schema)
    assert explode_bands(out0, "doc_id").num_rows == 0


def test_lsh_tune_matches_hand_derived_configs():
    from clonehunter_ray.functions.hashing import (
        lsh_collision_prob,
        lsh_tune,
    )

    # the scan default (16x8 at threshold ~0.857) is recall-feasible
    assert lsh_collision_prob(0.857, 16, 8) >= 0.99
    # tuner picks a config meeting the recall floor with minimal FP
    bands, rows = lsh_tune(0.857, num_perm=128)
    assert bands * rows == 128
    assert lsh_collision_prob(0.857, bands, rows) >= 0.99
    # at a LOW dedup threshold the tuner must go wider/shallower
    b2, r2 = lsh_tune(0.5, num_perm=128)
    assert r2 < rows
    assert lsh_collision_prob(0.5, b2, r2) >= 0.99
    # FP discipline: the chosen config never collides MORE at half
    # threshold than the trivial rows=1 config
    assert lsh_collision_prob(0.857 * 0.5, bands, rows) <= (
        lsh_collision_prob(0.857 * 0.5, 128, 1)
    )


def test_lsh_tune_raises_when_infeasible():
    import pytest as _pytest

    from clonehunter_ray.functions.hashing import lsh_tune

    with _pytest.raises(ValueError):
        lsh_tune(0.99, num_perm=2, min_recall=0.999999)
