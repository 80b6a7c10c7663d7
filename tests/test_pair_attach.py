"""The one document pair path: ``dedup.band_pairs`` (band shuffle ->
emit -> pair dedup) and ``stages/candidates.attach_pair_payload``
(broadcast or partitioned join behind ``fits_broadcast``). Both sides
of the size rule must give identical rows, with inner-join semantics
and a typed empty result."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data

from clonehunter_ray.stages import candidates


def _payload(n: int = 6) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "blob": pa.array([bytes([i]) * (i + 1) for i in range(n)], pa.binary()),
        }
    )


def _rows(ds) -> list[tuple]:
    t = ds.to_pandas()
    cols = ["a_id", "b_id", "tag", "a_blob", "b_blob"]
    return sorted(tuple(r) for r in t[cols].itertuples(index=False))


def test_fits_broadcast_row_then_byte_gate(ray_session, monkeypatch):
    ds = ray.data.from_arrow(_payload()).materialize()
    fits, rows, nbytes = candidates.fits_broadcast(ds)
    assert (fits, rows) == (True, 6) and nbytes > 0
    monkeypatch.setattr(candidates, "BROADCAST_MAX_BYTES", nbytes - 1)
    assert candidates.fits_broadcast(ds) == (False, 6, nbytes)
    # over the row limit: not measured
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 5)
    assert candidates.fits_broadcast(ds) == (False, 6, None)


def test_attach_pair_payload_paths_agree_inner(ray_session, monkeypatch):
    """Same rows on both paths; pairs whose id has no payload row drop
    out on either side of the pair."""
    pairs = pa.table(
        {
            "a_id": pa.array([0, 1, 2, 4, 7], pa.int64()),
            "b_id": pa.array([3, 5, 9, 5, 1], pa.int64()),
            "tag": pa.array(["p", "q", "r", "s", "t"]),
        }
    )

    def attach():
        return candidates.attach_pair_payload(
            ray.data.from_arrow(pairs),
            ray.data.from_arrow(_payload()),
            "doc_id",
            ["blob"],
            num_partitions=4,
        )

    bcast = _rows(attach())
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    joined = _rows(attach())
    assert bcast == joined
    assert [r[:3] for r in bcast] == [(0, 3, "p"), (1, 5, "q"), (4, 5, "s")]
    assert bcast[1][3:] == (b"\x01" * 2, b"\x05" * 6)


def test_attach_pair_payload_empty_join_path_is_typed(ray_session, monkeypatch):
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    empty = pa.schema([("a_id", pa.int64()), ("b_id", pa.int64())]).empty_table()
    out = candidates.attach_pair_payload(
        ray.data.from_arrow(empty),
        ray.data.from_arrow(_payload()),
        "doc_id",
        ["blob"],
        num_partitions=4,
    )
    assert out.count() == 0
    schema = out.schema()
    assert dict(zip(schema.names, schema.types)) == {
        "a_id": pa.int64(),
        "b_id": pa.int64(),
        "a_blob": pa.binary(),
        "b_blob": pa.binary(),
    }


def test_minhash_dedup_pairs_identical_across_cutover(ray_session, monkeypatch):
    """Non-empty pair set, capped hot bucket included: the broadcast
    and join attaches verify the same (a_id, b_id, jaccard, capped)."""
    from clonehunter_ray.pipelines.dedup import minhash_dedup_pairs

    base = (
        "the quick brown fox jumps over the lazy dog and then "
        "runs far away into the deep dark forest looking for food "
    ) * 3
    texts = [base for _ in range(50)]
    texts += [base + f" extra tail words number {i}" for i in range(10)]
    texts += [f"completely different text number {i} " * 10 for i in range(20)]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )

    def run():
        df = minhash_dedup_pairs(
            ray.data.from_arrow(docs), threshold=0.8, num_partitions=4
        ).to_pandas()
        cols = ["a_id", "b_id", "jaccard", "capped"]
        return sorted(tuple(r) for r in df[cols].itertuples(index=False))

    bcast = run()
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    joined = run()
    assert len(bcast) > 59  # more than the hub-spoke star
    assert any(r[3] for r in bcast)  # the hot bucket was capped
    assert bcast == joined


def test_scan_byte_gate_takes_join_path(ray_session, monkeypatch):
    """Signatures under the row cutover but over the byte cutover go
    down the join path, and stats["plan"]["pairs"] says so."""
    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.corpus import generate_corpus
    from clonehunter_ray.pipelines.scan import scan

    files, _ = generate_corpus(60, 7)
    monkeypatch.setattr(candidates, "BROADCAST_MAX_BYTES", 1)
    res = scan(ray.data.from_arrow(files), EngineConfig())
    plan = res.stats["plan"]["pairs"]
    assert plan["path"] == "join"
    assert plan["snippets"] == res.stats["counts"]["snippets"]
    assert 0 < plan["snippets"] <= candidates.BROADCAST_MAX_ROWS
    assert plan["bytes"] > 1
    assert plan["pair_id_prune"] is True
    assert res.findings.count() > 0


@pytest.mark.parametrize("n", [0, 3])
def test_band_pairs_dedupes_and_ors_capped(ray_session, n):
    """band_pairs: a pair emitted from several bands comes out once,
    capped when any of its emissions was."""
    from clonehunter_ray.pipelines.dedup import band_pairs

    bands = pa.table(
        {
            "band_key": pa.array([1, 1, 2, 2, 3, 3][: 2 * n], pa.uint64()),
            "doc_id": pa.array([5, 9, 5, 9, 5, 9][: 2 * n], pa.int64()),
        }
    )

    def emit(g: pa.Table) -> pa.Table:
        buckets: dict[int, list[int]] = {}
        for k, d in zip(g["band_key"].to_pylist(), g["doc_id"].to_pylist()):
            buckets.setdefault(k, []).append(d)
        rows = [(min(v), max(v), k == 2) for k, v in buckets.items()]
        return pa.table(
            {
                "a_id": pa.array([r[0] for r in rows], pa.int64()),
                "b_id": pa.array([r[1] for r in rows], pa.int64()),
                "capped": pa.array([r[2] for r in rows], pa.bool_()),
            }
        )

    out = band_pairs(
        ray.data.from_arrow(bands).repartition(1), emit, num_partitions=1
    ).take_all()
    want = [{"a_id": 5, "b_id": 9, "capped": True}] if n else []
    assert out == want
