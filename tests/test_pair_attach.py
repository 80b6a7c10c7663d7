"""The one keyed attach, ``stages/candidates.attach_by_key`` (broadcast
or partitioned join behind ``fits_broadcast``), its pair form
``attach_pair_payload``, and the LSH pair shuffle ``candidates.band_pairs``
(band shuffle -> emit -> pair dedup). Both sides of the size rule must
give identical rows, for inner and left attaches, with a typed result
when a side is empty."""

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


def _both_paths(monkeypatch, attach) -> list:
    """``attach()`` collected as sorted rows on the broadcast path,
    then on the join path; the two must be identical."""

    def rows():
        t = attach().to_pandas()
        t = t[sorted(t.columns)]
        return sorted(
            tuple(None if v is None or v != v else v for v in r)
            for r in t.itertuples(index=False)
        )

    bcast = rows()
    with monkeypatch.context() as m:
        m.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
        joined = rows()
    assert bcast == joined
    return bcast


@pytest.mark.parametrize("how", ["inner", "left"])
def test_attach_by_key_int_key_paths_agree(ray_session, monkeypatch, how):
    rows = pa.table(
        {"k": pa.array([3, 1, 7, 1], pa.int64()), "v": ["a", "b", "c", "d"]}
    )
    side = pa.table(
        {"key": pa.array([1, 2, 3], pa.int32()), "name": ["one", "two", "three"]}
    )
    got = _both_paths(
        monkeypatch,
        lambda: candidates.attach_by_key(
            ray.data.from_arrow(rows),
            ray.data.from_arrow(side),
            "key",
            ["name"],
            on="k",
            how=how,
            num_partitions=2,
        ),
    )
    want = [(1, "one", "b"), (1, "one", "d"), (3, "three", "a")]
    if how == "left":
        want.append((7, None, "c"))
    assert got == sorted(want, key=lambda r: (r[0], str(r[1]), r[2]))


@pytest.mark.parametrize("how", ["inner", "left"])
def test_attach_by_key_string_key_two_on_columns(ray_session, monkeypatch, how):
    """Two ``on`` columns share one side and get prefixed outputs."""
    rows = pa.table(
        {"w1": ["the", "cat", "zzz", "sat"], "w2": ["cat", "sat", "the", "on"]}
    )
    side = pa.table(
        {"w": ["cat", "on", "sat", "the"], "cnt": pa.array([4, 1, 2, 9], pa.int64())}
    )
    got = _both_paths(
        monkeypatch,
        lambda: candidates.attach_by_key(
            ray.data.from_arrow(rows),
            ray.data.from_arrow(side),
            "w",
            ["cnt"],
            on={"w1": "x_", "w2": "y_"},
            how=how,
            num_partitions=2,
        ),
    )
    # columns sorted: w1, w2, x_cnt, y_cnt
    want = [("cat", "sat", 4, 2), ("sat", "on", 2, 1), ("the", "cat", 9, 4)]
    if how == "left":
        want.append(("zzz", "the", None, 9))
    assert got == sorted(want)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_attach_by_key_list_columns_paths_agree(ray_session, monkeypatch, how):
    """list<string> columns on either side (the findings' ``reasons``)
    cross the join path packed and come back equal to the broadcast
    path's, empty and null lists included."""
    rows = pa.table(
        {
            "k": pa.array([3, 1, 7, 2], pa.int64()),
            "reasons": pa.array(
                [["func", "lexical"], [], None, ["win"]], pa.list_(pa.string())
            ),
        }
    )
    side = pa.table(
        {
            "key": pa.array([1, 2, 3], pa.int64()),
            "tags": pa.array([["a"], ["b", "c"], []], pa.list_(pa.string())),
        }
    )

    def attach() -> pa.Table:
        out = candidates.attach_by_key(
            ray.data.from_arrow(rows),
            ray.data.from_arrow(side),
            "key",
            ["tags"],
            on="k",
            how=how,
            num_partitions=2,
        )
        return pa.concat_tables(ray.get(out.to_arrow_refs())).sort_by("k")

    bcast = attach()
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    joined = attach().select(bcast.column_names)
    assert joined.equals(bcast)
    assert bcast["k"].to_pylist() == ([1, 2, 3, 7] if how == "left" else [1, 2, 3])
    assert bcast["reasons"].to_pylist()[:3] == [[], ["win"], ["func", "lexical"]]
    assert bcast["tags"].to_pylist()[:3] == [["a"], ["b", "c"], []]


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("max_rows", [2_000_000, 0])
def test_attach_by_key_empty_side_is_typed(ray_session, monkeypatch, how, max_rows):
    """An empty side gives a typed result on both paths: typed by Ray's
    schema for a filter, by ``schema`` for an aggregate over no rows
    (Ray reports no schema for it)."""
    from ray.data.aggregate import Count

    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", max_rows)
    rows = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    empty = ray.data.from_arrow(
        pa.table({"key": pa.array([5], pa.int64()), "n": pa.array([7], pa.int32())})
    ).filter(expr="key < 0")
    sides = {
        "filter": (empty, None, pa.int32()),
        "aggregate": (
            empty.groupby("key").aggregate(Count(alias_name="n")),
            pa.schema([("key", pa.int64()), ("n", pa.int64())]),
            pa.int64(),
        ),
    }
    for side, schema, n_type in sides.values():
        out = candidates.attach_by_key(
            rows, side, "key", ["n"], on="k", how=how, num_partitions=2, schema=schema
        ).materialize()
        assert out.count() == (2 if how == "left" else 0)
        if how == "left":
            assert out.to_pandas()["n"].isna().all()
        s = out.schema()
        assert dict(zip(s.names, s.types)) == {"k": pa.int64(), "n": n_type}


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
    """Signatures under the row cutover but over the byte cutover: the
    scan's one pair path does not depend on the cutover, the plan
    records the snippets, and the attaches after it that cross the
    cutover still find the clones."""
    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.corpus import generate_corpus
    from clonehunter_ray.pipelines.scan import scan

    files, _ = generate_corpus(60, 7)
    monkeypatch.setattr(candidates, "BROADCAST_MAX_BYTES", 1)
    res = scan(ray.data.from_arrow(files), EngineConfig())
    plan = res.stats["plan"]["pairs"]
    assert plan["snippets"] == res.stats["counts"]["snippets"]
    assert 0 < plan["snippets"] <= candidates.BROADCAST_MAX_ROWS
    assert res.findings.count() > 0


@pytest.mark.parametrize("n", [0, 3])
def test_band_pairs_dedupes_and_ors_capped(ray_session, n):
    """band_pairs: a pair emitted from several bands comes out once,
    capped when any of its emissions was."""
    from clonehunter_ray.stages.candidates import band_pairs

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
