"""The empty-schema RefBundle warning filter: suppresses only the
zero-column variants emitted by Ray's sort/groupby exchange for empty
partitions; real schema divergences still warn."""

from __future__ import annotations

import logging

import pytest

from clonehunter_ray.util import (
    _EmptySchemaBundleFilter,
    silence_empty_schema_warnings,
)

_LOGGER_NAME = "ray.data._internal.execution.streaming_executor_state"


def _rec(msg: str) -> logging.LogRecord:
    return logging.LogRecord(
        _LOGGER_NAME, logging.WARNING, __file__, 1, msg, None, None
    )


def test_filter_suppresses_empty_schema_variants():
    f = _EmptySchemaBundleFilter()
    base = "Operator produced a RefBundle with a different schema "
    assert not f.filter(
        _rec(base + "than the previous one. Previous schema: a: int64, "
             "new schema: . This may lead to unexpected behavior.")
    )
    assert not f.filter(
        _rec(base + "... new schema: PandasBlockSchema(names=[], types=[]).")
    )
    assert not f.filter(_rec(base + "... new schema: None."))


def test_filter_passes_real_divergence_and_other_messages():
    f = _EmptySchemaBundleFilter()
    assert f.filter(
        _rec(
            "Operator produced a RefBundle with a different schema than "
            "the previous one. Previous schema: a: int64, new schema: "
            "a: string. This may lead to unexpected behavior."
        )
    )
    assert f.filter(_rec("some unrelated warning"))


def test_install_is_idempotent():
    lg = logging.getLogger(_LOGGER_NAME)
    before = [f for f in lg.filters if isinstance(f, _EmptySchemaBundleFilter)]
    for f in before:
        lg.removeFilter(f)
    try:
        silence_empty_schema_warnings()
        silence_empty_schema_warnings()
        installed = [
            f for f in lg.filters if isinstance(f, _EmptySchemaBundleFilter)
        ]
        assert len(installed) == 1
    finally:
        for f in list(lg.filters):
            if isinstance(f, _EmptySchemaBundleFilter):
                lg.removeFilter(f)
        for f in before:
            lg.addFilter(f)


def test_safe_join_survives_zero_column_blocks(ray_session):
    """Ray's sort/aggregate exchanges emit zero-column empty blocks;
    map operators pass them through without invoking the UDF, and
    Acero's hash join dies on them ("No match or multiple matches for
    key field reference"). safe_join scrubs both sides first."""
    import pyarrow as pa
    import ray
    import ray.data

    from clonehunter_ray.util import safe_join

    left = ray.data.from_arrow(
        [
            pa.table({}),  # the poisoned block
            pa.table(
                {
                    "k": pa.array([1, 2, 3], pa.int64()),
                    "v": pa.array([10, 20, 30], pa.int64()),
                }
            ),
        ]
    )
    right = ray.data.from_arrow(
        [
            pa.table(
                {
                    "k": pa.array([2, 3], pa.int64()),
                    "w": pa.array([200, 300], pa.int64()),
                }
            ),
            pa.table({}),
        ]
    )
    out = (
        safe_join(left, right, "inner", 4, on=("k",))
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out["k"]) == [2, 3]
    assert list(out["w"]) == [200, 300]


def test_stage_progress_logs_label_rows_and_rate(caplog):
    from clonehunter_ray.progress import LOGGER_NAME, stage_progress

    with caplog.at_level(logging.INFO, logger=LOGGER_NAME):
        with stage_progress("Demo stage") as p:
            p.set_rows(1234)
        with stage_progress("Quiet stage", enabled=False):
            pass
        with stage_progress("No-rows stage"):
            pass
    msgs = [r.getMessage() for r in caplog.records]
    assert any("Demo stage: 1234 rows in" in m and "rows/s" in m for m in msgs)
    assert any(m.startswith("No-rows stage: done in") for m in msgs)
    assert not any("Quiet stage" in m for m in msgs)


def test_get_logger_reference_format():
    from clonehunter_ray.progress import get_logger

    logger = get_logger()
    assert logger.handlers, "handler installed once"
    fmt = logger.handlers[0].formatter._fmt
    assert fmt == "[%(levelname)s] %(message)s"
    assert get_logger() is logger  # idempotent


@pytest.mark.parametrize(
    "cpus,want", [(1, 1), (2, 1), (3, 2), (4, 2), (8, 6), (32, 30)]
)
def test_auto_actor_count_leaves_a_cpu_free(monkeypatch, cpus, want):
    """From 2 CPUs up an actor pool never claims every CPU (at 2 the
    signature pool starved read_parquet and the scan hung); from 3 up
    the count is unchanged, CPUs minus 2 with a floor of 2."""
    import ray

    from clonehunter_ray.util import auto_actor_count, auto_actor_pool

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus})
    assert auto_actor_count() == want
    low, high = auto_actor_pool()
    assert high == want and low == min(2, want) <= high
