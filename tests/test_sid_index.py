"""The scan's sid-range index (stages/candidates.sid_index) and its one
range-take kernel (``take_sids``): sids are global ranks of
``snippet_id`` over the sorted blocks, a take restores the caller's row
order across blocks, and ids that are not unique and sorted across the
blocks are refused."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from clonehunter_ray.stages.candidates import attach_sids, sid_index, take_sids


def _rows(lo: int, hi: int) -> pa.Table:
    return pa.table(
        {
            "snippet_id": [f"s{i:03d}" for i in range(lo, hi)],
            "n_tokens": pa.array(range(lo, hi), pa.int32()),
        }
    )


@pytest.fixture
def index(ray_session):
    # blocks of 4, 1 and 5 rows, one empty block between them
    return sid_index(
        ray.data.from_arrow([_rows(0, 4), _rows(4, 5), _rows(5, 5), _rows(5, 10)])
    )


def test_starts_skip_empty_blocks(index):
    _, starts, blocks = index
    assert starts.tolist() == [0, 4, 5]
    assert len(blocks) == 3


def test_take_crosses_blocks_and_restores_order(index):
    sids = np.array([9, 0, 4, 3, 5, 9, 1])
    got = take_sids(sids, index, ["snippet_id", "n_tokens"])
    assert got.column_names == ["snippet_id", "n_tokens"]
    assert got["snippet_id"].to_pylist() == [f"s{i:03d}" for i in sids]
    assert got["n_tokens"].to_pylist() == sids.tolist()


def test_take_of_an_empty_batch_is_typed(index):
    got = take_sids(np.empty(0, np.int64), index, ["n_tokens"])
    assert got.num_rows == 0
    assert got.schema == pa.schema([("n_tokens", pa.int32())])


def test_attach_sids_prefixes_both_sides(index):
    pairs = pa.table(
        {
            "a_id": pa.array([0, 5], pa.int32()),
            "b_id": pa.array([4, 9], pa.int32()),
            "capped": [False, True],
        }
    )
    got = attach_sids(pairs, index, ["n_tokens"])
    assert got.column_names == ["a_id", "b_id", "capped", "a_n_tokens", "b_n_tokens"]
    assert got["a_n_tokens"].to_pylist() == [0, 5]
    assert got["b_n_tokens"].to_pylist() == [4, 9]


@pytest.mark.parametrize(
    "blocks, bad",
    [
        ([_rows(0, 3).take([0, 1, 1])], "s001"),  # repeated within a block
        ([_rows(0, 3), _rows(2, 5)], "s002"),  # repeated across a boundary
        ([_rows(3, 6), _rows(0, 3)], "s000"),  # blocks out of order
    ],
    ids=["repeat", "repeat-across", "out-of-order"],
)
def test_guard_refuses_unsorted_or_repeated_ids(ray_session, blocks, bad):
    with pytest.raises(ValueError, match=f"'{bad}'"):
        sid_index(ray.data.from_arrow(blocks))
