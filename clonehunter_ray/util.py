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
    :584-586). A side that can be GLOBALLY empty therefore needs
    left_attach_or_nulls / a count gate, not just the scrub."""

    def _identity(t):
        return t

    return ds.map_batches(
        _identity, batch_format="pyarrow", batch_size=batch_size
    )


def key_sentinel(schema, keys: tuple) -> "object":
    """One-row join-side sentinel: key columns = -1, the rest null.

    Ray's hash-shuffle join builds each partition side with an
    ArrowBlockBuilder that has seen only the shards routed to it; a
    GLOBALLY empty input sequence contributes no shard anywhere, the
    builder produces a zero-COLUMN table, and Acero aborts with "No
    match or multiple matches for key field reference" (join.py:106-118
    on Ray 2.49.2; a zero-ROW block doesn't help — Ray drops it before
    the shuffle). One real row is enough: every partition then receives
    schema-carrying shards. Engine join keys are non-negative ids, so
    -1 can never match."""
    import pyarrow as pa

    arrays = []
    for f in schema:
        if f.name in keys:
            if not pa.types.is_signed_integer(f.type):
                raise TypeError(
                    f"key_sentinel: key {f.name} must be signed int, "
                    f"got {f.type}"
                )
            arrays.append(pa.array([-1], f.type))
        else:
            arrays.append(pa.array([None], f.type))
    return pa.table(dict(zip(schema.names, arrays)), schema=schema)


def left_attach_or_nulls(
    left,
    right,
    num_partitions: int,
    on: tuple,
    right_on: tuple,
    right_schema,
):
    """Left-outer attach that tolerates a GLOBALLY empty right side.

    Ray's hash-shuffle join consumes its one schema-broadcast slot on
    the FIRST block submitted per side even when that block has zero
    rows (hash_shuffle.py:223 returns before broadcasting, yet the
    flag at :584-586 is already set), so an all-empty side leaves
    every aggregator with a zero-column table and Acero aborts. No
    in-stream scrub can prevent it — empty batches bypass map UDFs
    entirely (plan_udf_map_op.py:454-462). The deterministic guard:
    materialize the right side (the attach sides in this engine are
    label/winner/flag tables, orders of magnitude narrower than the
    corpus), and when it is empty skip the join and append the right
    columns as nulls — exactly what the join would have produced."""
    import pyarrow as pa

    r = scrub_empty_blocks(right).materialize()
    if r.count() > 0:
        return safe_join(
            left, r, "left_outer", num_partitions, on=on, right_on=right_on
        )

    def add_nulls(batch: pa.Table) -> pa.Table:
        for f in right_schema:
            if f.name in batch.column_names:
                continue  # shared join-key name: the join merges it
            batch = batch.append_column(
                f.name, pa.nulls(batch.num_rows, f.type)
            )
        return batch

    return left.map_batches(add_nulls, batch_format="pyarrow")


def safe_join(
    left,
    right,
    join_type: str,
    num_partitions: int,
    on: tuple,
    right_on: tuple | None = None,
    left_sentinel=None,
    right_sentinel=None,
):
    """``Dataset.join`` with both inputs scrubbed of zero-column empty
    blocks (see scrub_empty_blocks) and the partition count capped to
    the cluster (see safe_join_partitions).

    ``left_sentinel`` / ``right_sentinel``: a one-row ``key_sentinel``
    table unioned onto that side so a GLOBALLY empty input can't crash
    the join (see key_sentinel). Only legal on sides whose unmatched
    rows the join type drops — a sentinel on an outer side would leak
    a -1 row into the output."""
    import ray.data

    if left_sentinel is not None and join_type != "inner":
        raise ValueError("left_sentinel requires an inner join")
    if right_sentinel is not None and join_type not in (
        "inner",
        "left_outer",
    ):
        raise ValueError("right_sentinel requires inner or left_outer")
    l_ds = scrub_empty_blocks(left)
    if left_sentinel is not None:
        l_ds = l_ds.union(ray.data.from_arrow(left_sentinel))
    r_ds = scrub_empty_blocks(right)
    if right_sentinel is not None:
        r_ds = r_ds.union(ray.data.from_arrow(right_sentinel))
    return l_ds.join(
        r_ds,
        join_type,
        safe_join_partitions(num_partitions),
        on=on,
        right_on=right_on,
    )


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


def auto_actor_count(reserve: int = 2, cap: int | None = None) -> int:
    """Size an actor pool to the cluster: CPUs minus ``reserve`` slots
    left for feeder/read tasks (min 2, but never every CPU: from 2 CPUs
    up at least one stays free, or the pool starves the read tasks
    feeding it and the pipeline hangs). A fixed small constant (the
    easy default) caps the whole fused stage at that parallelism no
    matter how many cores the cluster has."""
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
