"""Per-stage partitioned Parquet checkpoints with lineage + metrics.

Replaces the reference's SQLite embedding cache (reference
embedding/cache.py:18-137) with a design that works on a multi-node
cluster: each stage's output is written as a directory of Parquet part
files plus a ``_lineage.json`` manifest recording the stage name, the
semantics-affecting config fingerprint, row count, and wall time; a
``_SUCCESS`` marker makes completion atomic-enough for resume (write
to ``<dir>.tmp``, rename).

Resume semantics (north_rule "resumes mid-pipeline"):

* a stage dir with ``_SUCCESS`` and a matching config fingerprint is
  read back with ``ray.data.read_parquet`` instead of recomputed;
* a partial signature checkpoint can be resumed with an anti-join —
  ``resume_missing`` filters the input to rows whose key is absent
  from the checkpoint (the analogue of the reference's cache
  ``get_many``-then-embed-misses flow, core/pipeline.py:50-88).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import ray.data


def stage_dir(root: str, stage: str) -> str:
    return os.path.join(root, stage)


def is_complete(root: str, stage: str, config_fp: str) -> bool:
    d = stage_dir(root, stage)
    marker = os.path.join(d, "_SUCCESS")
    lineage = os.path.join(d, "_lineage.json")
    if not (os.path.exists(marker) and os.path.exists(lineage)):
        return False
    try:
        with open(lineage) as fh:
            meta = json.load(fh)
        return meta.get("config_fp") == config_fp
    except (OSError, json.JSONDecodeError):
        return False


def write_stage(
    ds: "ray.data.Dataset",
    root: str,
    stage: str,
    config_fp: str,
    lineage: dict | None = None,
) -> "ray.data.Dataset":
    """Write ``ds`` as the checkpoint for ``stage`` and return a fresh
    Dataset reading it back (so downstream consumers stream from disk
    instead of re-executing the upstream pipeline). ``lineage`` entries
    join the manifest, written atomically with the stage."""
    d = stage_dir(root, stage)
    tmp = d + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    if os.path.exists(d):
        shutil.rmtree(d)
    os.makedirs(tmp, exist_ok=True)
    t0 = time.monotonic()
    ds.write_parquet(tmp)
    wall = time.monotonic() - t0
    out = ray.data.read_parquet(tmp)
    rows = out.count()
    with open(os.path.join(tmp, "_lineage.json"), "w") as fh:
        json.dump(
            {
                "stage": stage,
                "config_fp": config_fp,
                "rows": rows,
                "wall_sec": round(wall, 3),
                **(lineage or {}),
            },
            fh,
        )
    with open(os.path.join(tmp, "_SUCCESS"), "w") as fh:
        fh.write("")
    os.rename(tmp, d)
    return ray.data.read_parquet(d)


def read_stage(root: str, stage: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(stage_dir(root, stage))


def read_lineage(root: str, stage: str) -> dict:
    with open(os.path.join(stage_dir(root, stage), "_lineage.json")) as fh:
        return json.load(fh)


def update_lineage(root: str, stage: str, extra: dict) -> None:
    """Merge run metrics (e.g. capped-LSH recall accounting) into a
    completed stage's lineage manifest."""
    path = os.path.join(stage_dir(root, stage), "_lineage.json")
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return
    meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh)


def checkpoint_or_compute(
    make_ds,
    root: str | None,
    stage: str,
    config_fp: str,
    stats: dict | None = None,
    lineage: dict | None = None,
) -> "ray.data.Dataset":
    """Return the checkpointed stage if complete, else compute + write.

    ``make_ds`` is a zero-arg callable producing the stage Dataset so
    the upstream pipeline is only constructed when actually needed.
    Without a checkpoint root the Dataset is materialized in the object
    store instead (test-scale convenience; checkpoints are the scale
    path). ``stats`` (when given) records hit/miss per stage — the
    analogue of the reference cache-hit counters (core/pipeline.py:50-88).
    ``lineage`` goes to ``write_stage``; it is read after ``make_ds``
    runs, so ``make_ds`` may fill it.
    """
    if root is None:
        if stats is not None:
            stats[stage] = "memory"
        return make_ds().materialize()
    if is_complete(root, stage, config_fp):
        if stats is not None:
            stats[stage] = "hit"
        return read_stage(root, stage)
    if stats is not None:
        stats[stage] = "miss"
    return write_stage(make_ds(), root, stage, config_fp, lineage)


def resume_missing(
    input_ds: "ray.data.Dataset",
    checkpoint_ds: "ray.data.Dataset",
    key: str,
) -> "ray.data.Dataset":
    """Anti-join: rows of ``input_ds`` whose ``key`` is not present in
    ``checkpoint_ds`` (broadcast key set; the checkpoint key column is
    small relative to payloads)."""
    import pyarrow as pa
    import ray

    key_type = pa.string()
    chunks = []
    for batch in checkpoint_ds.select_columns([key]).iter_batches(
        batch_format="pyarrow"
    ):
        key_type = batch.schema.field(key).type
        if batch.num_rows:
            chunks.append(batch[key].combine_chunks())
    done = pa.concat_arrays(chunks) if chunks else pa.array([], key_type)
    done_ref = ray.put(done)

    def _filter(batch):
        import pyarrow.compute as pc

        mask = pc.is_in(batch[key], value_set=ray.get(done_ref))
        return batch.filter(pc.invert(pc.fill_null(mask, False)))

    return input_ds.map_batches(_filter, batch_format="pyarrow")


def _partition_dirname(col: str, value) -> str:
    """Hive-style directory name; URL-quoting makes every distinct value
    a distinct directory and round-trips all codepoints."""
    from urllib.parse import quote

    return f"{col}={quote(str(value), safe='._-')}"


def finished_partitions(out_dir: str, col: str) -> set:
    """Partition VALUES (as strings) whose directory carries _SUCCESS."""
    from urllib.parse import unquote

    done = set()
    prefix = f"{col}="
    try:
        names = os.listdir(out_dir)
    except OSError:
        return done
    for name in names:
        if not name.startswith(prefix):
            continue
        if os.path.exists(os.path.join(out_dir, name, "_SUCCESS")):
            done.add(unquote(name[len(prefix) :]))
    return done


def write_partitioned_output(
    ds: "ray.data.Dataset",
    out_dir: str,
    partition_col: str,
    skip_finished: bool = True,
    fmt: str = "parquet",
) -> dict:
    """Resumable hive-partitioned sink (Parquet or JSONL part files).

    One directory per partition value (``out_dir/<col>=<val>/`` with a
    part file and a ``_SUCCESS`` marker), each written ON THE
    WORKERS inside a ``groupby(partition_col).map_groups`` — never one
    giant driver-side file. A re-run with ``skip_finished`` filters out
    rows whose partition already carries ``_SUCCESS``, so a failed job
    resumes exactly where it stopped, and each partition is atomic
    (tmp-file + rename before the marker). Assumes ``out_dir`` is
    shared storage on a multi-node cluster — the same assumption every
    checkpoint here makes.

    ``fmt="jsonl"`` writes newline-delimited JSON part files (the
    format most LLM training loaders consume) with the same layout,
    markers, and resume semantics as the Parquet sink.

    Returns ``{"written": n_partitions, "skipped": n_skipped,
    "rows": n_rows_written}``.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    if fmt not in ("parquet", "jsonl"):
        raise ValueError(f"write_partitioned_output: unknown fmt {fmt!r}")

    os.makedirs(out_dir, exist_ok=True)
    done = finished_partitions(out_dir, partition_col) if skip_finished else set()
    done_ref = ray.put(done)

    if done:

        def _skip(batch: pa.Table) -> pa.Table:
            finished = ray.get(done_ref)
            mask = pa.array(
                [str(v) not in finished for v in batch[partition_col].to_pylist()],
                pa.bool_(),
            )
            return batch.filter(mask)

        ds = ds.map_batches(_skip, batch_format="pyarrow")

    stats_schema = pa.schema([("value", pa.string()), ("rows", pa.int64())])

    def _write_group(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return stats_schema.empty_table()
        value = group[partition_col][0].as_py()
        d = os.path.join(out_dir, _partition_dirname(partition_col, value))
        os.makedirs(d, exist_ok=True)
        part = f"part-0.{fmt}"
        tmp = os.path.join(d, part + ".tmp")
        if fmt == "parquet":
            pq.write_table(group, tmp)
        else:
            # jsonl via Arrow + json.dumps, NOT pandas to_json: the
            # pandas route truncates float64 to 10 significant digits
            # by default and degrades nullable int64 to float64 —
            # silent corruption for any caller of this shared sink
            # with numeric columns. Arrow row conversion preserves
            # int64/None exactly; repr-based float serialization
            # round-trips. Non-finite floats become null (RFC 8259
            # has no NaN/Infinity token — strict loaders reject the
            # bare tokens json.dumps would emit); timestamps/dates
            # serialize as ISO strings and binary as base64 via the
            # default hook. Rows stream batch-wise so a multi-GB
            # partition never materializes as Python dicts at once.
            import base64 as _b64
            import datetime as _dt
            import json as _json

            import pyarrow.compute as _pc

            def _default(o):
                if isinstance(o, (_dt.datetime, _dt.date, _dt.time)):
                    return o.isoformat()
                if isinstance(o, (bytes, bytearray)):
                    return _b64.b64encode(o).decode("ascii")
                raise TypeError(
                    f"write_partitioned_output jsonl: cannot serialize "
                    f"{type(o).__name__}"
                )

            clean = []
            for name in group.column_names:
                col = group[name]
                if pa.types.is_floating(col.type):
                    # is_finite/if_else have no halffloat kernel; widen
                    # float16 first (to_pylist yields Python floats
                    # either way, so the output is unchanged)
                    if col.type == pa.float16():
                        col = col.cast(pa.float32())
                    col = _pc.if_else(_pc.is_finite(col), col, None)
                clean.append(col)
            group_clean = pa.table(dict(zip(group.column_names, clean)))
            with open(tmp, "w", encoding="utf-8") as fh:
                for rb in group_clean.to_batches(max_chunksize=8192):
                    for row in rb.to_pylist():
                        # allow_nan=False: non-finite floats NESTED in
                        # list/struct columns bypass the top-level
                        # cleanup above — fail loudly rather than
                        # emitting the RFC-invalid bare NaN token
                        fh.write(
                            _json.dumps(
                                row,
                                ensure_ascii=False,
                                separators=(",", ":"),
                                default=_default,
                                allow_nan=False,
                            )
                        )
                        fh.write("\n")
        os.replace(tmp, os.path.join(d, part))
        with open(os.path.join(d, "_SUCCESS"), "w") as fh:
            fh.write("")
        return pa.table(
            {
                "value": pa.array([str(value)], pa.string()),
                "rows": pa.array([group.num_rows], pa.int64()),
            },
            schema=stats_schema,
        )

    written = (
        ds.groupby(partition_col)
        .map_groups(_write_group, batch_format="pyarrow")
        .to_pandas()
    )
    return {
        "written": int(len(written)),
        "skipped": len(done),
        "rows": int(written["rows"].sum()) if len(written) else 0,
    }
