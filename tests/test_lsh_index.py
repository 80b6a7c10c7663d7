"""Sharded mutable LSH index (state/lsh_index.py) and the streaming
incremental-dedup pipeline built on it, pinned against an exact
all-pairs shingle-Jaccard oracle computed offline."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from clonehunter_ray.config import SignatureConfig
from clonehunter_ray.functions import hashing as H
from clonehunter_ray.pipelines.dedup import incremental_dedup_stream
from clonehunter_ray.state.lsh_index import ShardedLshIndex

SF_DIR = "/root/testdata/sf0.001"
CFG = SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)


def _shingle_sets(texts):
    th = H.tokenize_hash_texts(pa.array(texts, pa.string()))
    return [H.shingle_hashes(x, CFG.shingle_k) for x in th]


def _exact_stream_oracle(ids, texts, threshold, chunk_rows):
    """For each doc: the earliest doc from an EARLIER ingest chunk with
    exact shingle Jaccard >= threshold (the stream contract: only docs
    indexed before the current chunk count)."""
    sets = _shingle_sets(texts)
    out = {}
    for i in range(len(ids)):
        for j in range(i):
            if j // chunk_rows == i // chunk_rows:
                break  # same chunk: not yet indexed
            jac = H.jaccard_sorted(sets[i], sets[j])
            if jac >= threshold:
                out[ids[i]] = (ids[j], jac)
                break
    return out


def _mk_batch(ids, texts):
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
    )


def test_index_add_query_roundtrip(ray_session):
    base = (
        "def compute(items):\n    total = 0\n    for i in items:\n"
        "        total += i * 3 + 7\n    return total hello world "
        "alpha beta gamma delta epsilon zeta eta theta"
    )
    idx = ShardedLshIndex(n_shards=3, config=CFG)
    try:
        idx.add(_mk_batch([1, 2], [base, "completely different words " * 8]))
        # exact duplicate of doc 1 -> flagged with jaccard 1.0
        res = idx.query(_mk_batch([10], [base]), threshold=0.8)
        assert res.num_rows == 1
        assert res["dup_of"][0].as_py() == 1
        assert res["jaccard"][0].as_py() == 1.0
        # unrelated text -> no hit
        res2 = idx.query(
            _mk_batch([11], ["nothing shared here at all " * 10]), threshold=0.8
        )
        assert res2.num_rows == 0
        stats = idx.stats()
        assert sum(s["docs"] for s in stats) == 2
    finally:
        idx.shutdown()


def test_index_shard_routing_consistent(ray_session):
    # same corpus through 1 shard and 5 shards -> identical results
    texts = [f"shared prefix words one two three four five six {i % 3}" for i in range(12)]
    ids = list(range(12))
    results = []
    for n in (1, 5):
        idx = ShardedLshIndex(n_shards=n, config=CFG)
        try:
            idx.add(_mk_batch(ids, texts))
            res = idx.query(
                _mk_batch([100], [texts[0]]), threshold=0.5
            ).to_pandas()
            results.append(
                res.sort_values(["dup_of"]).reset_index(drop=True)
            )
        finally:
            idx.shutdown()
    assert results[0].equals(results[1])


def test_incremental_stream_matches_exact_oracle(ray_session):
    t = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).sort_by("doc_id")
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    oracle = _exact_stream_oracle(ids, texts, 0.8, chunk_rows=17)
    assert oracle, "testdata should contain near-dups at 0.8"

    got = incremental_dedup_stream(
        ray.data.from_arrow(t), threshold=0.8, chunk_rows=17, config=CFG
    ).to_pandas()
    got_map = {
        int(r.doc_id): (int(r.dup_of), float(r.jaccard))
        for r in got.itertuples()
    }
    # recall: every oracle dup is found with the same earliest dup_of
    # (LSH miss probability at j>=0.8 is ~5e-8 with 32x4 bands)
    assert got_map.keys() == oracle.keys()
    for d, (dup_of, jac) in oracle.items():
        assert got_map[d][0] == dup_of
        assert got_map[d][1] == pytest.approx(jac, abs=0)


def test_incremental_stream_batch_boundary_semantics(ray_session):
    # duplicates INSIDE one chunk are not each other's dup (only
    # earlier CHUNKS count) — with chunk_rows large enough to hold all
    # rows nothing is flagged
    texts = ["identical text body " * 10] * 3
    ds = ray.data.from_arrow(_mk_batch([1, 2, 3], texts))
    res = incremental_dedup_stream(ds, threshold=0.8, chunk_rows=10, config=CFG)
    assert res.count() == 0
    # chunk_rows=1 -> docs 2 and 3 both dup of doc 1
    res2 = incremental_dedup_stream(
        ds, threshold=0.8, chunk_rows=1, config=CFG
    ).to_pandas()
    assert sorted(res2.doc_id) == [2, 3]
    assert list(res2.dup_of) == [1, 1]


def test_incremental_stream_checkpoint_resume_after_crash(
    ray_session, tmp_path
):
    """Kill mid-ingest, resume from the latest complete epoch: the
    union of checkpointed + re-run flagged rows must equal an
    uninterrupted run exactly."""
    t = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).sort_by("doc_id")
    ds = ray.data.from_arrow(t)
    want = (
        incremental_dedup_stream(ds, threshold=0.8, chunk_rows=17, config=CFG)
        .to_pandas()
        .sort_values(["doc_id"])
        .reset_index(drop=True)
    )

    ckpt = str(tmp_path / "lsh_ckpt")
    with pytest.raises(RuntimeError, match="simulated crash"):
        incremental_dedup_stream(
            ds,
            threshold=0.8,
            chunk_rows=17,
            config=CFG,
            checkpoint_dir=ckpt,
            snapshot_every=5,
            _crash_after_chunks=13,  # dies between epochs 10 and 15
        )
    epochs = ShardedLshIndex.list_epochs(ckpt)
    assert epochs and epochs[-1]["seq"] == 10

    got = (
        incremental_dedup_stream(
            ds,
            threshold=0.8,
            chunk_rows=17,
            config=CFG,
            checkpoint_dir=ckpt,
            snapshot_every=5,
        )
        .to_pandas()
        .sort_values(["doc_id"])
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_incremental_stream_checkpoint_config_mismatch(ray_session, tmp_path):
    """Resuming with a different signature config must fail loudly —
    band keys and hash routing would silently mismatch otherwise."""
    texts = [f"some distinct text body number {i} " * 6 for i in range(40)]
    ds = ray.data.from_arrow(_mk_batch(list(range(40)), texts))
    ckpt = str(tmp_path / "lsh_ckpt2")
    incremental_dedup_stream(
        ds,
        threshold=0.8,
        chunk_rows=10,
        config=CFG,
        checkpoint_dir=ckpt,
        snapshot_every=2,
    )
    other = SignatureConfig(shingle_k=4, num_bands=32, band_rows=4)
    with pytest.raises(ValueError, match="config mismatch"):
        incremental_dedup_stream(
            ds,
            threshold=0.8,
            chunk_rows=10,
            config=other,
            checkpoint_dir=ckpt,
        )


def _stream_map(ds, **kw):
    got = incremental_dedup_stream(ds, threshold=0.8, config=CFG, **kw)
    return {
        int(r.doc_id): (int(r.dup_of), float(r.jaccard))
        for r in got.to_pandas().itertuples()
    }


def test_incremental_stream_multi_window_matches_oracle(ray_session):
    """Windows of snapshot_every chunks, no checkpoint: 30 chunks of 17
    rows in 10 windows give the per-chunk query-then-add results."""
    t = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).sort_by("doc_id")
    oracle = _exact_stream_oracle(
        t["doc_id"].to_pylist(), t["text"].to_pylist(), 0.8, chunk_rows=17
    )
    got = _stream_map(ray.data.from_arrow(t), chunk_rows=17, snapshot_every=3)
    assert got.keys() == oracle.keys()
    for d, (dup_of, jac) in oracle.items():
        assert got[d] == (dup_of, pytest.approx(jac, abs=0))


def test_incremental_stream_chunks_inside_one_window(ray_session):
    """One window of three 2-row chunks: a duplicate in the SAME chunk
    is not flagged, one in an earlier chunk of the window is, with the
    earliest dup_of."""
    x = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    y = "one two three four five six seven eight nine ten eleven " * 3
    z = "completely unrelated words that share nothing else here " * 3
    ds = ray.data.from_arrow(_mk_batch([1, 2, 3, 4, 5, 6], [x, x, y, x, y, z]))
    got = _stream_map(ds, chunk_rows=2, snapshot_every=3)
    assert got == {4: (1, 1.0), 5: (3, 1.0)}


def _band_keys(texts):
    sigs = H.MinHasher(CFG.num_perm, CFG.seed).signatures_batch(
        _shingle_sets(texts)
    )
    return H.band_hashes_batch(sigs, CFG.num_bands, CFG.band_rows)


def test_index_successive_adds_then_query(ray_session):
    """Three adds, one query: matches from every add come back, and the
    stats count the indexed docs and distinct band keys."""
    texts = [
        f"shared prefix words one two three four five six {i % 3}"
        for i in range(9)
    ]
    idx = ShardedLshIndex(n_shards=3, config=CFG)
    try:
        for lo in (0, 3, 6):
            idx.add(_mk_batch(list(range(lo, lo + 3)), texts[lo : lo + 3]))
        res = idx.query(_mk_batch([100], [texts[0]]), threshold=1.0)
        assert sorted(res["dup_of"].to_pylist()) == [0, 3, 6]
        stats = idx.stats()
        assert sum(s["docs"] for s in stats) == 9
        assert sum(s["band_keys"] for s in stats) == np.unique(
            _band_keys(texts)
        ).size
    finally:
        idx.shutdown()


def test_index_snapshot_restore_same_query(ray_session, tmp_path):
    texts = [f"some distinct text body number {i % 4} " * 6 for i in range(20)]
    probe = _mk_batch([100, 101], [texts[1], "nothing in common at all " * 5])
    ckpt = str(tmp_path / "lsh_snap")
    idx = ShardedLshIndex(n_shards=3, config=CFG)
    try:
        idx.add(_mk_batch(list(range(20)), texts))
        want = idx.query(probe).sort_by("dup_of")
        want_stats = idx.stats()
        idx.snapshot(ckpt, seq=1, max_doc_id=19)
    finally:
        idx.shutdown()
    assert want.num_rows == 5
    fresh = ShardedLshIndex(n_shards=3, config=CFG)
    try:
        assert fresh.restore_latest(ckpt)["seq"] == 1
        got = fresh.query(probe).sort_by("dup_of")
        assert got.equals(want)
        assert fresh.stats() == want_stats
    finally:
        fresh.shutdown()


def test_incremental_stream_resume_restored_postings_are_earlier(
    ray_session, tmp_path
):
    """A stream resumed from an epoch matches its new chunk against the
    restored postings, even inside the first resumed chunk."""
    x = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    y = "one two three four five six seven eight nine ten eleven " * 3
    ckpt = str(tmp_path / "lsh_resume")
    first = ray.data.from_arrow(_mk_batch([1, 2], [x, y]))
    assert (
        _stream_map(first, chunk_rows=2, snapshot_every=1, checkpoint_dir=ckpt)
        == {}
    )
    assert ShardedLshIndex.list_epochs(ckpt)[-1]["max_doc_id"] == 2
    more = ray.data.from_arrow(_mk_batch([1, 2, 3, 4], [x, y, x, x]))
    got = _stream_map(more, chunk_rows=2, snapshot_every=1, checkpoint_dir=ckpt)
    assert got == {3: (1, 1.0), 4: (1, 1.0)}
