"""The shared LSH pair-shuffle kernels in ``stages/candidates.py``: one
bucket-emission kernel for int and string ids (``emit_pairs_partition``)
and one pair-dedup step (``dedupe_partition``, the per-partition half of
``dedupe_pairs``). No Ray session needed."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from clonehunter_ray.stages.candidates import (
    dedupe_partition,
    emit_pairs_partition,
    explode_bands,
)


def _partition(n_rows: int = 4000, hot: int = 40, seed: int = 0):
    """One band partition with many small buckets plus a ``hot``-member
    bucket, as int ids and as their zero-padded string names (so string
    order equals int order)."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_rows // 2, n_rows).astype(np.uint64)
    ids = rng.integers(0, n_rows // 2, n_rows)
    keys[:hot] = np.uint64(1 << 40)
    ids[:hot] = np.arange(hot) * 7 + 3
    names = np.array([f"s{i:07d}" for i in range(n_rows)], dtype=object)
    as_int = pa.table({"band_key": keys, "sid": pa.array(ids, pa.int64())})
    as_str = pa.table(
        {"band_key": keys, "snippet_id": pa.array(names[ids], pa.string())}
    )
    return as_int, as_str, names


def _rows(t: pa.Table, names=None) -> list[tuple]:
    a, b = t["a_id"].to_pylist(), t["b_id"].to_pylist()
    if names is not None:
        a, b = [names[i] for i in a], [names[i] for i in b]
    return sorted(zip(a, b, t["capped"].to_pylist()))


@pytest.mark.parametrize("mode", ["star", "full"])
def test_emit_string_ids_equal_int_ranks(mode):
    """String ids give exactly the pairs of their int ranks, ``capped``
    included, with a hot bucket over the cap: the hub is the smallest
    id and ``a_id < b_id`` on both."""
    as_int, as_str, names = _partition()
    by_int = emit_pairs_partition(as_int, "sid", 64, mode, 6)
    by_str = emit_pairs_partition(as_str, "snippet_id", 64, mode, 6)
    assert by_str.schema.types == [pa.string(), pa.string(), pa.bool_()]
    assert by_int.schema.types == [pa.int64(), pa.int64(), pa.bool_()]
    assert _rows(by_str) == _rows(by_int, names)
    assert all(a < b for a, b, _ in _rows(by_str))
    capped = [r for r in _rows(by_str) if r[2]]
    if mode == "star":
        hub = names[3]  # the hot bucket's smallest id
        assert len(capped) == 39 and {r[0] for r in capped} == {hub}
    else:
        assert not capped


def test_emit_salted_string_ids_deterministic():
    """Salted re-band over string ids (salted on partition ranks) is
    the same from run to run and on a reshuffled partition."""
    _, as_str, _ = _partition()
    first = emit_pairs_partition(as_str, "snippet_id", 64, "salted", 6)
    again = emit_pairs_partition(as_str, "snippet_id", 64, "salted", 6)
    perm = np.random.default_rng(1).permutation(as_str.num_rows)
    shuffled = emit_pairs_partition(
        as_str.take(pa.array(perm)), "snippet_id", 64, "salted", 6
    )
    star = emit_pairs_partition(as_str, "snippet_id", 64, "star", 6)
    assert _rows(first) == _rows(again) == _rows(shuffled)
    assert len(_rows(first)) > len(_rows(star))  # re-band pairs emitted


def test_emit_int32_sids_keep_type_and_empty_partition():
    as_int, _, _ = _partition(400, hot=0)
    sid32 = as_int.set_column(1, "sid", as_int["sid"].cast(pa.int32()))
    out = emit_pairs_partition(sid32, "sid", 256, "salted", 6)
    assert out.schema.types == [pa.int32(), pa.int32(), pa.bool_()]
    assert _rows(out) == _rows(emit_pairs_partition(as_int, "sid", 256, "salted", 6))
    empty = emit_pairs_partition(sid32.slice(0, 0), "sid", 256, "salted", 6)
    assert empty.num_rows == 0 and empty.schema.equals(out.schema)


def test_explode_bands_any_id_type():
    bands = pa.array([[1, 2], [3, 4], []], pa.list_(pa.uint64()))
    for ids in (pa.array([5, 9, 11], pa.int64()), pa.array(["x", "y", "z"])):
        out = explode_bands(pa.table({"id": ids, "band_keys": bands}), "id")
        assert out["band_key"].to_pylist() == [1, 2, 3, 4]
        assert out["id"].to_pylist() == ids.take(pa.array([0, 0, 1, 1])).to_pylist()
        assert out["id"].type == ids.type


@pytest.mark.parametrize(
    "ids", [pa.array([1, 1, 1, 2], pa.int64()), pa.array(["p", "p", "p", "q"])]
)
def test_dedupe_partition_type_rule(ids):
    """One row per (a_id, b_id): bool columns OR-ed (``capped``), every
    other column's minimum (``hamming``, ``cos5``); names, order and
    types kept, the ``part`` column dropped."""
    other = pa.array([5, 5, 5, 6], ids.type) if ids.type == pa.int64() else (
        pa.array(["u", "u", "u", "v"])
    )
    t = pa.table(
        {
            "a_id": ids,
            "b_id": other,
            "capped": [False, True, False, False],
            "hamming": pa.array([3, 1, 2, 0], pa.int32()),
            "cos5": pa.array([0.9, 0.8, 0.95, 0.7], pa.float64()),
            "part": pa.array([0, 0, 0, 0], pa.int64()),
        }
    )
    out = dedupe_partition(t)
    assert out.schema.equals(t.drop_columns(["part"]).schema)
    rows = sorted(zip(*(out[c].to_pylist() for c in out.column_names)))
    a0, a1 = ids[0].as_py(), ids[3].as_py()
    b0, b1 = other[0].as_py(), other[3].as_py()
    assert rows == sorted([(a0, b0, True, 1, 0.8), (a1, b1, False, 0, 0.7)])

    empty = dedupe_partition(t.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema.equals(t.drop_columns(["part"]).schema)
