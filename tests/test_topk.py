"""``stages/topk``: the one top-k kernel, checked against a pandas
``sort_values(...).head(k)`` reference kept here as the oracle."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from clonehunter_ray.stages.topk import cut, top_k

ORDERS = [
    [("s", "descending"), ("id", "ascending")],
    [("t", "ascending"), ("s", "descending"), ("id", "descending")],
    [("name", "ascending"), ("id", "ascending")],
]


def reference(df: pd.DataFrame, order, k, by=None, rank=None) -> pd.DataFrame:
    """pandas oracle: stable sort by ``order`` (per ``by`` group, groups
    ascending), head(k) or the group's quota, rank numbered from 1."""
    cols = [c for c, _ in order]
    asc = [d == "ascending" for _, d in order]

    def head(g: pd.DataFrame, kk) -> pd.DataFrame:
        g = g.sort_values(cols, ascending=asc, kind="mergesort")
        g = g if kk is None else g.head(kk)
        if rank is not None:
            g = g.assign(**{rank: np.arange(1, len(g) + 1, dtype=np.int64)})
        return g

    if by is None:
        out = head(df, k)
    else:
        parts = [
            head(g, k.get(key, 0) if isinstance(k, dict) else k)
            for key, g in df.groupby(by, sort=True)
        ]
        out = pd.concat(parts) if parts else head(df.iloc[:0], 0)
    return out.reset_index(drop=True)


def random_table(rng, n: int, n_groups: int) -> pa.Table:
    """Heavy ties on every key but ``id``, which is a shuffled
    permutation and so breaks every tie."""
    return pa.table(
        {
            "id": pa.array(rng.permutation(n), pa.int64()),
            "g": pa.array(rng.integers(0, n_groups, n), pa.int64()),
            "src": pa.array(
                [f"src{v}" for v in rng.integers(0, n_groups, n)], pa.string()
            ),
            "s": pa.array(rng.integers(0, 4, n) / 2.0, pa.float64()),
            "t": pa.array(rng.integers(0, 3, n), pa.int64()),
            "name": pa.array(
                [f"n{v}" for v in rng.integers(0, 5, n)], pa.string()
            ),
        }
    )


def assert_same(got: pa.Table, want: pd.DataFrame) -> None:
    assert got.column_names == list(want.columns)
    assert got.to_pandas().to_dict("list") == want.to_dict("list")


@pytest.mark.parametrize("seed", range(40))
def test_cut_matches_pandas_reference(seed):
    rng = np.random.default_rng(seed)
    t = random_table(rng, int(rng.integers(0, 60)), int(rng.integers(1, 6)))
    df = t.to_pandas()
    order = ORDERS[seed % len(ORDERS)]
    for k in (0, 1, 3, 1000):
        assert_same(cut(t, order, k), reference(df, order, k))
        for by in ("g", "src"):
            assert_same(
                cut(t, order, k, by=by, rank="r"),
                reference(df, order, k, by=by, rank="r"),
            )
    # a quota mapping; keys absent from it get 0
    quota = {"src0": 2, "src2": 100, "src3": 0, "nowhere": 5}
    assert_same(
        cut(t, order, quota, by="src"), reference(df, order, quota, by="src")
    )
    # k=None: no cut, every row ranked in its group
    assert_same(
        cut(t, order, None, by="g", rank="pos"),
        reference(df, order, None, by="g", rank="pos"),
    )


def test_cut_types_an_empty_table():
    t = random_table(np.random.default_rng(0), 0, 1)
    out = cut(t, ORDERS[0], 3, by="g", rank="r")
    assert out.num_rows == 0
    assert out.schema == t.schema.append(pa.field("r", pa.int64()))


def _blocks(t: pa.Table, n_blocks: int) -> list[pa.Table]:
    """Consecutive slices, each group spread over several blocks, plus
    empty blocks at the front, middle and end."""
    step = max(1, -(-t.num_rows // n_blocks))
    parts = [t.slice(i, step) for i in range(0, t.num_rows, step)]
    empty = t.schema.empty_table()
    return [empty, *parts[:1], empty, *parts[1:], empty]


def _frame(ds) -> pd.DataFrame:
    """A result's rows in block order; an empty result must be typed."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if tables:
        return pa.concat_tables(tables).to_pandas()
    schema = ds.schema()
    return pa.schema(list(zip(schema.names, schema.types))).empty_table().to_pandas()


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


@pytest.mark.parametrize("seed", range(3))
def test_top_k_over_blocks_matches_pandas_reference(ray_session, seed):
    import ray.data

    rng = np.random.default_rng(100 + seed)
    t = random_table(rng, 400, 4)
    df = t.to_pandas()
    ds = ray.data.from_arrow(_blocks(t, 7))
    order = ORDERS[seed]

    # global: the survivors' sort keeps the final rows in order
    got = _frame(top_k(ds, order, 25))
    pd.testing.assert_frame_equal(got, reference(df, order, 25))

    for by, k in (("g", 3), ("src", 0), ("src", 500), ("src", {"src1": 7, "src3": 2})):
        got = _frame(top_k(ds, order, k, by=by, rank="r"))
        want = reference(df, order, k, by=by, rank="r")
        pd.testing.assert_frame_equal(_sorted(got), _sorted(want))

    got = _frame(top_k(ds, order, None, by="g", rank="pos"))
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(reference(df, order, None, by="g", rank="pos"))
    )


def test_top_k_empty_input_is_typed(ray_session):
    import ray.data

    t = random_table(np.random.default_rng(1), 30, 3)
    empty = ray.data.from_arrow(t.schema.empty_table())
    filtered = ray.data.from_arrow(t).filter(expr="id < 0")
    for ds in (empty, filtered):
        out = top_k(ds, ORDERS[0], 5, by="src", rank="r")
        assert out.count() == 0
        assert out.schema().names == [*t.column_names, "r"]
        out = top_k(ds, ORDERS[0], 5)
        assert out.count() == 0
        assert out.schema().names == t.column_names
    # k=0 on a non-empty input is empty and typed too, by the projection
    for by in ("g", None):
        out = top_k(
            ray.data.from_arrow(t),
            ORDERS[0],
            0,
            by=by,
            project=lambda x: x.select(["id", "s"]).append_column(
                "s2", pc.multiply(x["s"], 2)
            ),
        )
        assert out.count() == 0
        assert out.schema().names == ["id", "s", "s2"]


def test_top_k_rejects_a_rank_or_quota_without_by():
    with pytest.raises(ValueError):
        top_k(None, ORDERS[0], 3, rank="r")
    with pytest.raises(ValueError):
        top_k(None, ORDERS[0], {"a": 1})
    with pytest.raises(ValueError):
        top_k(None, ORDERS[0], None)
