"""Small execution helpers shared across pipelines."""

from __future__ import annotations


def safe_join_partitions(requested: int) -> int:
    """Cap hash-join partition count to the cluster's CPU budget.

    Ray Data's hash-shuffle join spins up ``num_partitions`` aggregator
    actors; requesting more aggregators than the cluster has CPUs
    deadlocks the streaming executor on small clusters (observed with
    64 partitions on an 8-CPU local node). On a real multi-node cluster
    the CPU count scales with nodes, so this cap loosens exactly when
    more partitions actually help.
    """
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001 - not initialised yet
        cpus = 8
    return max(2, min(requested, max(2, cpus // 2)))


def scrub_empty_blocks(ds, batch_size: int = 4096):
    """Re-bundle a Dataset so zero-column empty blocks (mostly)
    disappear.

    Ray's sort/aggregate exchanges emit ZERO-COLUMN blocks for empty
    output partitions, map operators pass them through without ever
    invoking the UDF, and Acero's hash join then dies with "No match
    or multiple matches for key field reference" when one reaches a
    join input (reproduced on Ray 2.49.2 with a tiny groupby feeding
    a join). A map_batches with a NUMERIC batch_size coalesces blocks
    through the batcher, which drops the schema-less empties in one
    streaming pass, no materialization.

    Limit: a scrub TASK whose input blocks are ALL empty re-emits one
    empty block (map_transformer.py:443-460 builds it from the first
    input block's builder, so it stays zero-column), and the join's
    one schema-broadcast slot is consumed by the first block submitted
    per side even when that block is empty (hash_shuffle.py:223 +
    :584-586), so every aggregator gets a zero-column table and Acero
    aborts; no in-stream scrub can prevent it, because empty batches
    bypass map UDFs entirely (plan_udf_map_op.py:454-462). A side that
    can be GLOBALLY empty therefore needs a count gate, not just the
    scrub: ``stages/candidates.attach_by_key`` sizes its side first and
    never joins an empty one."""

    def _identity(t):
        return t

    return ds.map_batches(
        _identity, batch_format="pyarrow", batch_size=batch_size
    )


def safe_join(
    left,
    right,
    join_type: str,
    num_partitions: int,
    on: tuple,
    right_on: tuple | None = None,
):
    """``Dataset.join`` with both inputs scrubbed of zero-column empty
    blocks (see scrub_empty_blocks) and the partition count capped to
    the cluster (see safe_join_partitions). A GLOBALLY empty input
    still crashes the join (see scrub_empty_blocks); keyed attaches go
    through ``stages/candidates.attach_by_key``, which never joins an
    empty side."""
    return scrub_empty_blocks(left).join(
        scrub_empty_blocks(right),
        join_type,
        safe_join_partitions(num_partitions),
        on=on,
        right_on=right_on,
    )


def with_reservation(ds, enabled: bool | None = None):
    """``ds`` on its own copy of its DataContext, whose
    ``op_resource_reservation_enabled`` is ``enabled`` (the session's
    value when None).

    Ray Data 2.49's per-operator reservation
    (``ReservationOpResourceAllocator``) splits the object-store budget
    between operators before they have run. A new map operator then
    runs one task until that task returns its first output, and a map
    operator between two all-to-all exchanges runs one task at a time
    (the scan's band-exchange output was gated at concurrency 1). A
    dataset whose stages are CPU-bound and whose blocks are small runs
    on every CPU with it off (``enabled=False``).

    Ray Data keeps one DataContext per dataset, and every dataset built
    on it by a lazy transform shares that object, while
    ``materialize`` copies it. The copy scopes the value to ``ds`` and
    what is built on it: the session's context and ``ds``'s inputs keep
    theirs. Use the result in place of ``ds``: the two share a logical
    plan, which follows the copy's context."""
    import ray.data
    from ray.data import DataContext

    ds = ray.data.Dataset.copy(ds, _deep_copy=True)
    ds.context.op_resource_reservation_enabled = (
        DataContext.get_current().op_resource_reservation_enabled
        if enabled is None
        else enabled
    )
    return ds


def read_parquet_clean(path: str, columns: list[str] | None = None, **kwargs):
    """``ray.data.read_parquet`` with the b'pandas' footer metadata
    stripped from the schema at the READ operator.

    pandas-written parquet carries schema metadata whose dict value
    makes ``hash(schema)`` raise — Ray Data then logs "Failed to hash
    the schemas (for deduplication)" from every downstream operator.
    Stripping inside a later map_batches is too late for the read op
    itself, so pass a metadata-free schema (projected to ``columns``,
    which Ray applies AFTER pruning) into the datasource. Footer-only
    read; no data is touched on the driver."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    probe = path
    if os.path.isdir(path):
        with os.scandir(path) as it:
            files = sorted(
                e.path for e in it
                if e.is_file() and e.name.endswith(".parquet")
            )
        probe = files[0] if files else None
    try:
        full = pq.read_schema(probe).remove_metadata() if probe else None
    except Exception:  # noqa: BLE001 - odd layout; fall back to plain read
        full = None
    if full is None:
        return ray.data.read_parquet(path, columns=columns, **kwargs)
    schema = (
        pa.schema([full.field(c) for c in columns]) if columns else full
    )
    return ray.data.read_parquet(path, schema=schema, columns=columns, **kwargs)


class _EmptySchemaBundleFilter:
    """Suppress Ray Data's "RefBundle with a different schema" warning
    ONLY when the divergent schema is the zero-column empty one.

    Ray's sort/groupby exchange emits zero-column blocks for empty
    output partitions (e.g. a final ``groupby(query_id)`` with 3
    distinct keys sorted into 16 partitions leaves 13 empty) and the
    streaming executor then warns "new schema: ." or
    "new schema: PandasBlockSchema(names=[]...)". Reproduced with
    every UDF in the pipeline emitting schema-stable empties — the
    blocks are produced inside Ray's exchange, not by user code — so
    the clean fix is filtering this one benign variant at the driver
    logger. Schema divergences with REAL columns still warn."""

    def filter(self, record) -> bool:  # logging.Filter protocol
        msg = record.getMessage()
        if "Operator produced a RefBundle with a different schema" not in msg:
            return True
        return not (
            "new schema: ." in msg
            or "new schema: PandasBlockSchema(names=[]" in msg
            or "new schema: None" in msg
        )


def silence_empty_schema_warnings() -> None:
    """Install the empty-schema-bundle filter on the Ray Data
    streaming-executor logger (idempotent). Driver-side only: the
    warning is logged by the executor loop in the driver process."""
    import logging

    lg = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    )
    if not any(
        isinstance(f, _EmptySchemaBundleFilter) for f in lg.filters
    ):
        lg.addFilter(_EmptySchemaBundleFilter())


# (stage class, *constructor args) -> instance, per worker process
_STAGES: dict[tuple, object] = {}
# distinct stages one process keeps before the cache starts over (each
# may hold an 8 MB MinHash scratch buffer)
_STAGES_MAX = 8


def cached_stage(cls, *args):
    """``cls(*args)``, built once per process: the stateful half of a
    ``map_batches`` task whose state is cheap tables (MinHash
    permutations, scratch buffers). Ray reuses task workers, so the
    state is paid once per worker process, as in an actor pool, while
    the stage still runs as plain tasks on every CPU. ``args`` key the
    cache and must be hashable (frozen configs, tuples)."""
    key = (cls, *args)
    stage = _STAGES.get(key)
    if stage is None:
        if len(_STAGES) >= _STAGES_MAX:
            _STAGES.clear()
        stage = _STAGES[key] = cls(*args)
    return stage


def auto_actor_count(reserve: int = 2, cap: int | None = None) -> int:
    """Size an actor pool to the cluster: CPUs minus ``reserve`` slots
    left for feeder/read tasks (min 2, but never every CPU: from 2 CPUs
    up at least one stays free, or the pool starves the read tasks
    feeding it and the pipeline hangs). Its users are the model-holding
    stages, ``classifier`` and ``bpe``; stages whose only state is small
    tables run as tasks over ``cached_stage`` instead."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001 - not initialised yet
        cpus = 8
    n = max(1, min(max(2, cpus - reserve), cpus - 1))
    return min(n, cap) if cap else n


def auto_actor_pool() -> tuple[int, int]:
    """Autoscaling ``concurrency`` tuple (2, ``auto_actor_count()``),
    its min clamped to stay <= its max."""
    n = auto_actor_count()
    return min(2, n), n
