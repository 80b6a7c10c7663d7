"""Candidate generation: the LSH band shuffle.

This dissolves the reference's O(N^2/P)-per-worker k-NN self-join
(reference similarity/candidates.py:117-164, where every worker rebuilt
the FULL vector index) into the one wide dependency of the pipeline:

    signatures --explode--> bands(band_key, snippet_id)
               --groupby(band_key)--> map_groups(emit_pairs)

Two snippets become a candidate pair iff they share at least one LSH
band hash; with band_rows=4, num_bands=32 the detection probability at
Jaccard j is 1-(1-j^4)^32 (>=0.9998 at j=0.7), which is what makes the
pipeline "exact-recall" at the verification thresholds.

Skew handling (north_rule): a bucket whose pair count would exceed
``max_bucket_pairs_full`` emits a star (every member paired with the
min snippet_id) instead of all O(n^2) pairs — connectivity within a
genuine clone family is preserved for clustering, and the ``capped``
flag on emitted pairs keeps recall accounting honest. Hot buckets come
from boilerplate shingles (license headers etc.), the analogue of
stop-shingle handling.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BANDS_SCHEMA = pa.schema(
    [
        ("band_key", pa.uint64()),
        ("snippet_id", pa.string()),
    ]
)


def explode_bands(batch: pa.Table) -> pa.Table:
    """signatures batch -> (band_key, snippet_id) rows, one per band.

    Zero-copy-ish: flattens the fixed-width ``band_keys`` list column
    and repeats ids with numpy.
    """
    n = batch.num_rows
    if n == 0:
        return pa.Table.from_pydict(
            {"band_key": [], "snippet_id": []}, schema=BANDS_SCHEMA
        )
    band_col = batch["band_keys"].combine_chunks()
    flat = band_col.flatten()
    num_bands = len(flat) // n
    ids = batch["snippet_id"].to_pylist()
    rep_ids = pa.array(np.repeat(np.asarray(ids, dtype=object), num_bands))
    return pa.Table.from_arrays([flat, rep_ids], schema=BANDS_SCHEMA)


def _bucket_pairs(
    ids: list[str], max_bucket_pairs_full: int
) -> tuple[list[str], list[str], bool]:
    n = len(ids)
    out_a: list[str] = []
    out_b: list[str] = []
    capped = False
    if n >= 2:
        if n * (n - 1) // 2 <= max_bucket_pairs_full:
            for i in range(n):
                for j in range(i + 1, n):
                    out_a.append(ids[i])
                    out_b.append(ids[j])
        else:
            capped = True
            hub = ids[0]
            for other in ids[1:]:
                out_a.append(hub)
                out_b.append(other)
    return out_a, out_b, capped


def add_partition_column(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Add ``part = band_key % P`` — the explicit shuffle key. Grouping
    by the coarse partition (P groups instead of millions of buckets)
    turns the per-bucket UDF overhead into one vectorized pass per
    partition; skew within a partition stays bounded because hot
    *buckets* are still capped individually."""
    import numpy as np

    keys = batch["band_key"].to_numpy(zero_copy_only=False)
    part = (keys % np.uint64(num_partitions)).astype(np.int64)
    return batch.append_column("part", pa.array(part, pa.int64()))


def _salted_bucket_pairs_str(
    bucket_ids: list[str], cap: int, rounds: int, salt_seed: int = 0x5A17ED
) -> tuple[list[str], list[str]]:
    """String-id twin of ``salted_bucket_pairs_int`` (crc32 sub-bucket
    hash — deterministic across processes, unlike builtin hash())."""
    import zlib

    n = len(bucket_ids)
    m = max(2, int((2 * cap) ** 0.5))
    n_sub = max(2, -(-n // m))
    out_a: list[str] = []
    out_b: list[str] = []
    if n_sub > rounds:  # see salted_bucket_pairs_int: coverage ~R/B
        return out_a, out_b
    for r in range(rounds):
        subs: dict[int, list[str]] = {}
        for sid in bucket_ids:
            h = zlib.crc32(f"{salt_seed + r}:{sid}".encode()) % n_sub
            subs.setdefault(h, []).append(sid)
        for members in subs.values():
            if len(members) < 2:
                continue
            members = sorted(members)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out_a.append(members[i])
                    out_b.append(members[j])
    return out_a, out_b


def emit_pairs_partition(
    partition: pa.Table,
    max_bucket_pairs_full: int = 256,
    skew_mode: str = "star",
    salt_rounds: int = 6,
    metrics=None,
) -> pa.Table:
    """One hash partition of band rows (MANY buckets) -> candidate
    pairs. Buckets are detected as runs of the sorted band_key with
    numpy (vectorized); only multi-member buckets touch Python. Skew
    handling matches ``emit_pairs_partition_indexed``."""
    import numpy as np

    if skew_mode == "full":
        max_bucket_pairs_full = 1 << 62
    keys = partition["band_key"].to_numpy(zero_copy_only=False)
    ids = np.asarray(partition["snippet_id"].to_pylist(), dtype=object)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    ids = ids[order]
    _, starts, counts = np.unique(keys, return_index=True, return_counts=True)
    out_a: list[str] = []
    out_b: list[str] = []
    out_c: list[bool] = []
    n_buckets = 0
    n_capped = 0
    full_pairs_capped = 0
    emitted_capped = 0
    for s, c in zip(starts[counts > 1], counts[counts > 1]):
        bucket_ids = sorted(set(ids[s : s + c].tolist()))
        a, b, capped = _bucket_pairs(bucket_ids, max_bucket_pairs_full)
        n_buckets += 1 if len(bucket_ids) >= 2 else 0
        if capped:
            n_capped += 1
            n = len(bucket_ids)
            full_pairs_capped += n * (n - 1) // 2
            if skew_mode == "salted":
                sa, sb = _salted_bucket_pairs_str(
                    bucket_ids, max_bucket_pairs_full, salt_rounds
                )
                a = a + sa
                b = b + sb
            emitted_capped += len(a)
        out_a.extend(a)
        out_b.extend(b)
        out_c.extend([capped] * len(a))
    if metrics is not None and n_buckets:
        from clonehunter_ray.state.metrics import report_metrics

        report_metrics(
            metrics,
            {
                "lsh_buckets_multi": n_buckets,
                "lsh_buckets_capped": n_capped,
                "lsh_capped_full_pairs": full_pairs_capped,
                "lsh_capped_emitted_pairs": emitted_capped,
            },
        )
    return pa.Table.from_pydict(
        {
            "a_id": pa.array(out_a, pa.string()),
            "b_id": pa.array(out_b, pa.string()),
            "capped": pa.array(out_c, pa.bool_()),
        }
    )


# assembled broadcast payloads per worker process, keyed by broadcast
# id; bounded LRU-ish so concurrent pipelines (scan + doc dedup sharing
# a worker pool) can hold their payloads without thrashing re-assembly
_PAYLOAD_CACHE: dict[str, tuple[pa.Table, dict | None]] = {}
_PAYLOAD_CACHE_MAX = 4


def combine_payload_blocks(cols, key_col, *tables: pa.Table) -> pa.Table:
    """Remote combiner: concat + combine_chunks ONCE so the combined
    table lives in plasma a single time and every worker maps it
    zero-copy. Per-worker combine_chunks copies the full payload into
    each worker's HEAP (tens of GB across 32 workers at 400k
    snippets), and Table.take on a many-chunk table costs ~5 ms per
    chunk per call — neither per-worker strategy survives at scale.

    Blocks produced by a filter/map over EMPTY input blocks come back
    schema-less (zero columns — Ray skips the UDF and emits a bare
    empty block); those are dropped. A block that HAS rows but lacks a
    payload column is genuine schema drift and raises loudly — silently
    dropping it would turn an upstream column rename into empty
    downstream results."""
    usable = []
    for t in tables:
        if all(c in t.column_names for c in cols):
            usable.append(t)
        elif t.num_rows:
            missing = [c for c in cols if c not in t.column_names]
            raise KeyError(
                f"payload block with {t.num_rows} rows is missing "
                f"columns {missing}; has {t.column_names}"
            )
    if not usable:
        return pa.table({c: [] for c in cols})
    combined = pa.concat_tables(
        [t.select(list(cols)) for t in usable]
    ).combine_chunks()
    # sort by the key column: block arrival order is NOT deterministic
    # (preserve_order is off), and downstream the row index (sid) is
    # used as the capped-bucket hub choice (min sid) and the salted
    # sub-bucket hash input — sorting pins sid to the key's rank, so
    # hub = lexicographically smallest id (agreeing with the string
    # scale path's min-id convention) and the emitted pair set is
    # identical run-to-run. Bounded by the broadcast cutover (<= 2M
    # rows), one in-plasma sort in the zero-CPU combiner.
    key = key_col if key_col in combined.column_names else cols[0]
    if combined.num_rows:
        combined = combined.sort_by([(key, "ascending")]).combine_chunks()
    return combined


def make_broadcast_handle(ds, cols: list[str], key_col: str = "snippet_id"):
    """Combine a dataset's blocks into ONE plasma-resident table via a
    remote task (the payload never funnels through the driver — blocks
    stay in the object store; ``to_arrow_refs`` hands over refs) and
    return a handle for ``get_broadcast_payload``."""
    return broadcast_blocks(ds.select_columns(cols).to_arrow_refs(), cols, key_col)


def broadcast_blocks(block_refs, cols: list[str], key_col: str):
    """``make_broadcast_handle`` over Arrow block refs already in the
    object store (a materialized dataset's ``to_arrow_refs()`` costs no
    execution; the combiner keeps only ``cols``)."""
    import uuid

    import ray

    # num_cpus=0: the combiner is memory-bound and must not be starved
    # behind the streaming executor's CPU reservation (observed: the
    # attach stage stalled ~100 s waiting for a 1-CPU combine task)
    combined_ref = ray.remote(num_cpus=0)(combine_payload_blocks).remote(
        tuple(cols), key_col, *block_refs
    )
    return (str(uuid.uuid4()), combined_ref, tuple(cols), key_col)


def get_broadcast_payload(ref, need_index: bool = True) -> tuple[pa.Table, dict]:
    """ref = (key, combined-table ObjectRef, payload_cols[, key_col]).
    Maps the combined payload from plasma (zero-copy, shared by every
    worker on the node) and builds the key -> row index ONCE per worker
    process. Pass ``need_index=False`` when the caller addresses rows
    positionally (``Table.take``) — the index dict over every key is
    then skipped entirely (it is pure overhead for the heavy
    full-payload handle, whose consumers already hold row indices)."""
    key, combined_ref, _cols = ref[0], ref[1], ref[2]
    key_col = ref[3] if len(ref) > 3 else "snippet_id"
    entry = _PAYLOAD_CACHE.get(key)
    if entry is None:
        import ray

        payload = ray.get(combined_ref)
        while len(_PAYLOAD_CACHE) >= _PAYLOAD_CACHE_MAX:
            _PAYLOAD_CACHE.pop(next(iter(_PAYLOAD_CACHE)))
        entry = (payload, None)
        _PAYLOAD_CACHE[key] = entry
    if need_index and entry[1] is None:
        payload = entry[0]
        index = {
            sid: i for i, sid in enumerate(payload[key_col].to_pylist())
        }
        entry = (payload, index)
        _PAYLOAD_CACHE[key] = entry
    return entry


# The one broadcast-or-join rule for pair-payload attaches (the scan's
# signature table and the document pipelines' shingle/token blobs).
# Measured at 200k files (BASELINE.md "Broadcast-cutover thresholds
# validated by measurement"): the scan's signature table is 1.79 KiB
# per snippet, so 2M rows ~= 3.4 GiB of plasma plus a ~180 MB id->row
# dict per worker, comfortably within a 128 GB node; the join path was
# 7x slower than broadcast at 423k snippets.
BROADCAST_MAX_ROWS = 2_000_000
# Byte backstop for payloads of unbounded width per row (document token
# blobs): a corpus under the row limit but over this size takes the
# join path instead of building one plasma object the store can't hold.
BROADCAST_MAX_BYTES = 4 << 30


def fits_broadcast(ds) -> tuple[bool, int, int | None]:
    """``(fits, rows, bytes)``: whether ``ds`` may be broadcast as one
    plasma table — at most ``BROADCAST_MAX_ROWS`` rows AND at most
    ``BROADCAST_MAX_BYTES`` in-memory bytes. Rows are checked first: a
    lazy dataset already over the row limit is not executed just to be
    measured, and its bytes read None."""
    rows = ds.count()
    if rows > BROADCAST_MAX_ROWS:
        return False, rows, None
    nbytes = ds.size_bytes() or 0
    return nbytes <= BROADCAST_MAX_BYTES, rows, nbytes


def guard_broadcast(ds, what: str, remedy: str) -> None:
    """Raise ``ValueError`` (rows, bytes and the cutover, then
    ``remedy``) when ``ds`` — about to be collected onto the driver —
    does not ``fits_broadcast``."""
    fits, rows, nbytes = fits_broadcast(ds)
    if not fits:
        raise ValueError(
            f"{what} ({rows} rows, {nbytes} bytes) is over the broadcast "
            f"cutover ({BROADCAST_MAX_ROWS} rows, {BROADCAST_MAX_BYTES} "
            f"bytes); it is collected onto the driver, so {remedy}"
        )


def _attach_broadcast(
    batch: pa.Table, table, key: str, cols: list[str], on: dict, how: str
) -> pa.Table:
    """Broadcast side of ``attach_by_key``: ``table`` (a
    ``broadcast_blocks`` handle, or a typed empty table) is sorted
    by ``key`` (combine_payload_blocks), so each ``on`` value is found
    by binary search — no per-worker key->row dict. ``inner`` drops a
    row missing under any ``on`` column; ``left`` keeps it with nulls."""
    if not isinstance(table, pa.Table):
        table, _ = get_broadcast_payload(table, need_index=False)
    keys = table[key].to_numpy(zero_copy_only=False)
    found = np.ones(batch.num_rows, dtype=bool)
    rows, hits = {}, {}
    for col in on:
        ids = batch[col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, ids)
        hit = pos < len(keys)
        hit[hit] = keys[pos[hit]] == ids[hit]
        found &= hit
        rows[col], hits[col] = np.where(hit, pos, 0), hit
    if how == "inner" and not found.all():
        sel = np.flatnonzero(found)
        batch = batch.take(pa.array(sel, pa.int64()))
        rows = {c: r[sel] for c, r in rows.items()}
        hits = {c: h[sel] for c, h in hits.items()}
    for col, prefix in on.items():
        picked = table.take(pa.array(rows[col], pa.int64(), mask=~hits[col]))
        for c in cols:
            batch = batch.append_column(f"{prefix}{c}", picked[c])
    return batch


def attach_by_key(
    rows,
    side,
    key: str,
    cols: list[str],
    on,
    how: str = "inner",
    num_partitions: int = 16,
    schema: pa.Schema | None = None,
):
    """Attach ``side``'s ``cols`` onto ``rows`` where a row's ``on``
    column equals ``side``'s ``key`` (unique in ``side``). ``on`` is
    one column name (``cols`` keep their names) or a ``{column:
    prefix}`` dict: every listed column is looked up in the same side
    and gets ``prefix + col`` outputs (``{"a_id": "a_", "b_id": "b_"}``
    is the pair attach). ``how="inner"`` drops a row whose value is
    missing from ``side`` under any ``on`` column, ``"left"`` keeps it
    with nulls (an anti-join is ``left`` plus ``is_null``).

    ``side`` is materialized and sized once: when it
    ``fits_broadcast`` it is combined into one key-sorted plasma table
    every worker maps zero-copy (``make_broadcast_handle``) and
    ``rows`` stream through a binary-search probe; otherwise one
    partitioned hash join per ``on`` column (``util.safe_join``, or
    ``util.left_attach_or_nulls`` for ``left``). An empty ``side`` — or
    empty ``rows`` on the join path, which Ray's hash join cannot take
    (see util.left_attach_or_nulls) — gives a typed result without a
    join. ``schema`` types the side's columns when Ray reports no
    schema for an empty side (an aggregate over no rows)."""
    import ray.data

    from clonehunter_ray.util import left_attach_or_nulls, safe_join

    on = {on: ""} if isinstance(on, str) else dict(on)
    side = side.select_columns([key, *cols]).materialize()
    fits, n_side, _ = fits_broadcast(side)
    s = schema or side.schema()
    types = dict(zip(s.names, s.types))
    if fits or n_side == 0:
        table = (
            broadcast_blocks(side.to_arrow_refs(), [key, *cols], key)
            if n_side
            else pa.schema([(c, types[c]) for c in (key, *cols)]).empty_table()
        )
        return rows.map_batches(
            _attach_broadcast,
            fn_kwargs=dict(table=table, key=key, cols=cols, on=on, how=how),
            batch_format="pyarrow",
        )

    rows = rows.materialize()
    r = rows.schema()
    if rows.count() == 0:
        fields = (
            list(zip(r.names, r.types))
            if r is not None and r.names
            else [(col, types[key]) for col in on]
        )
        fields += [(f"{p}{c}", types[c]) for p in on.values() for c in cols]
        return ray.data.from_arrow(pa.schema(fields).empty_table())

    row_types = dict(zip(r.names, r.types))
    for col, prefix in on.items():
        # the join needs equal key types on both sides (the probe
        # compares int widths freely); outputs take their prefix here
        def right_side(t, p=prefix, want=row_types[col]):
            t = t.rename_columns([key, *(f"{p}{c}" for c in cols)])
            return t.set_column(0, key, t[key].cast(want))

        right = side.map_batches(right_side, batch_format="pyarrow")
        if how == "inner":
            rows = safe_join(
                rows, right, "inner", num_partitions, on=(col,), right_on=(key,)
            )
        else:
            rows = left_attach_or_nulls(
                rows,
                right,
                num_partitions,
                on=(col,),
                right_on=(key,),
                right_schema=pa.schema(
                    [(f"{prefix}{c}", types[c]) for c in cols]
                ),
            )
    return rows


def attach_pair_payload(
    pairs, payload, key: str, cols: list[str], num_partitions: int
):
    """Pair rows (``a_id``, ``b_id``, ...) plus ``a_<col>`` and
    ``b_<col>`` for every payload column, inner-join semantics: the
    pair form of ``attach_by_key``."""
    return attach_by_key(
        pairs,
        payload,
        key,
        cols,
        on={"a_id": "a_", "b_id": "b_"},
        num_partitions=num_partitions,
    )


_DERIVED_CACHE: dict[tuple, tuple] = {}


def pre_gate_pairs_indexed(
    batch: pa.Table,
    index_ref,
    gates: tuple[float, float, float],  # func, win, exp thresholds
    lexical_weight: float,
    lexical_min_ratio: float,
    substr_floor: float | None,
) -> pa.Table:
    """Vectorized candidate pre-gate BEFORE payload attach.

    Using only per-snippet sizes and kinds (broadcast int/str columns):
    jaccard <= min(|A|,|B|)/max(|A|,|B|), likewise for lexical, so any
    pair whose upper-bound composite cannot clear the smaller kind gate
    (and cannot reach the substring floor) is dropped as a pure numpy
    mask — the expensive Table.take + exact verification only sees
    survivors. At 60k files this cuts ~1.5M deduped candidates to
    thousands.
    """
    if batch.num_rows == 0:
        return batch
    key_tuple = (index_ref[0], gates)  # stable broadcast uuid
    if key_tuple not in _DERIVED_CACHE:
        payload, _ = get_broadcast_payload(index_ref, need_index=False)
        n_sh = payload["n_shingles"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        n_tok = payload["n_tokens"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        kinds = np.asarray(payload["kind"].to_pylist(), dtype=object)
        gate_arr = np.where(
            kinds == "FUNC", gates[0], np.where(kinds == "WIN", gates[1], gates[2])
        ).astype(np.float64)
        _DERIVED_CACHE.clear()
        _DERIVED_CACHE[key_tuple] = (n_sh, n_tok, gate_arr)
    n_sh, n_tok, gate_arr = _DERIVED_CACHE[key_tuple]

    a = batch["a_sid"].to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch["b_sid"].to_numpy(zero_copy_only=False).astype(np.int64)
    sa, sb = n_sh[a], n_sh[b]
    ta, tb = n_tok[a], n_tok[b]
    with np.errstate(divide="ignore", invalid="ignore"):
        jac_ub = np.where(
            (sa > 0) & (sb > 0), np.minimum(sa, sb) / np.maximum(sa, sb), 0.0
        )
        lex_ub = np.where(
            (ta > 0) & (tb > 0), np.minimum(ta, tb) / np.maximum(ta, tb), 0.0
        )
    gate = np.minimum(gate_arr[a], gate_arr[b])
    comp_ub = (1.0 - lexical_weight) * jac_ub + lexical_weight * lex_ub
    keep = comp_ub >= gate
    if substr_floor is not None:
        keep |= jac_ub >= substr_floor
    if lexical_min_ratio > 0:
        keep &= lex_ub >= lexical_min_ratio
    return batch.filter(pa.array(keep, pa.bool_()))


def pre_gate_pairs_joined(
    batch: pa.Table,
    gates: tuple[float, float, float],
    lexical_weight: float,
    lexical_min_ratio: float,
    substr_floor: float | None,
) -> pa.Table:
    """Scale-path twin of ``pre_gate_pairs_indexed``: the same
    size-ratio upper-bound mask, but over ``a_/b_`` columns attached by
    a NARROW (kind + sizes) hash join — so above the broadcast cutover
    the heavy payload joins (shingle/token blobs) only move survivors,
    not the ~12x band-duplicated candidate set."""
    if batch.num_rows == 0:
        return batch

    def _gate(col: str) -> np.ndarray:
        kinds = np.asarray(batch[col].to_pylist(), dtype=object)
        return np.where(
            kinds == "FUNC", gates[0], np.where(kinds == "WIN", gates[1], gates[2])
        ).astype(np.float64)

    def _num(col: str) -> np.ndarray:
        return batch[col].to_numpy(zero_copy_only=False).astype(np.float64)

    sa, sb = _num("a_n_shingles"), _num("b_n_shingles")
    ta, tb = _num("a_n_tokens"), _num("b_n_tokens")
    with np.errstate(divide="ignore", invalid="ignore"):
        jac_ub = np.where(
            (sa > 0) & (sb > 0), np.minimum(sa, sb) / np.maximum(sa, sb), 0.0
        )
        lex_ub = np.where(
            (ta > 0) & (tb > 0), np.minimum(ta, tb) / np.maximum(ta, tb), 0.0
        )
    gate = np.minimum(_gate("a_kind"), _gate("b_kind"))
    comp_ub = (1.0 - lexical_weight) * jac_ub + lexical_weight * lex_ub
    keep = comp_ub >= gate
    if substr_floor is not None:
        keep |= jac_ub >= substr_floor
    if lexical_min_ratio > 0:
        keep &= lex_ub >= lexical_min_ratio
    return batch.filter(pa.array(keep, pa.bool_()))


def explode_bands_indexed(
    batch: pa.Table, index_ref
) -> pa.Table:
    """signatures batch -> (band_key, sid:int32) rows, snippet ids
    replaced by their row index in the broadcast payload table. The
    band shuffle then moves 12 bytes/row instead of a ~64-byte string
    (the dominant shuffle of the pipeline), and the verify stage
    attaches payloads with a direct ``Table.take`` on the indices."""
    n = batch.num_rows
    if n == 0:
        return pa.table(
            {
                "band_key": pa.array([], pa.uint64()),
                "sid": pa.array([], pa.int32()),
            }
        )
    _, index = get_broadcast_payload(index_ref)
    band_col = batch["band_keys"].combine_chunks()
    flat = band_col.flatten()
    num_bands = len(flat) // n
    ids = batch["snippet_id"].to_pylist()
    sids = np.repeat(
        np.asarray([index[i] for i in ids], dtype=np.int32), num_bands
    )
    return pa.table({"band_key": flat, "sid": pa.array(sids, pa.int32())})


def explode_bands_packed(
    batch: pa.Table, index_ref, num_partitions: int
) -> pa.Table:
    """signatures batch -> AT MOST ``num_partitions`` rows of
    (part: i64, keys: binary, sids: binary) where the blobs are the
    raw little-endian u64 band keys / i32 sids of this batch's rows
    falling in that band-hash partition.

    Map-side packing for the band shuffle: the groupby("part") sort
    then moves ~blocks x P FAT rows instead of |snippets| x |bands|
    12-byte rows (measured 19 s of per-row sort machinery at 11.3M
    rows / 100k files — the slowest, worst-scaling pairs operator; the
    bytes still move, the per-row cost vanishes). The all-parallel
    shape also survives this host's memory-bandwidth contention bursts,
    which made a single-task combine variant 2-4x slower, not faster."""
    et = explode_bands_indexed(batch, index_ref)
    keys = et["band_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    sids = et["sid"].to_numpy(zero_copy_only=False).astype(np.int32)
    # plain python-int modulus: u64-scalar variants hit slow numpy
    # paths under memory pressure; int is always the fast loop
    part = (keys % num_partitions).astype(np.int64)
    order = np.argsort(part, kind="stable")
    part_s, keys_s, sids_s = part[order], keys[order], sids[order]
    uniq, starts = np.unique(part_s, return_index=True)
    bounds = np.append(starts, len(part_s))
    out_part: list[int] = []
    out_keys: list[bytes] = []
    out_sids: list[bytes] = []
    for i, p in enumerate(uniq):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        out_part.append(int(p))
        out_keys.append(keys_s[lo:hi].tobytes())
        out_sids.append(sids_s[lo:hi].tobytes())
    return pa.table(
        {
            "part": pa.array(out_part, pa.int64()),
            "keys": pa.array(out_keys, pa.binary()),
            "sids": pa.array(out_sids, pa.binary()),
        }
    )


def emit_pairs_packed_partition(
    partition: pa.Table,
    max_bucket_pairs_full: int,
    skew_mode: str,
    salt_rounds: int,
    metrics=None,
) -> pa.Table:
    """One part group of packed band fragments -> candidate pairs.
    Unpacks the blobs (zero-copy frombuffer views), concatenates, and
    runs the standard vectorized emission — row-for-row the same
    partition contents as the unpacked groupby, so output pairs and
    capped-bucket metrics are identical."""
    kb = [
        np.frombuffer(b, dtype=np.uint64)
        for b in partition["keys"].to_pylist()
    ]
    sb = [
        np.frombuffer(b, dtype=np.int32)
        for b in partition["sids"].to_pylist()
    ]
    if not kb:
        return _SID_PAIRS_SCHEMA.empty_table()
    part_tbl = pa.table(
        {
            "band_key": pa.array(np.concatenate(kb), pa.uint64()),
            "sid": pa.array(np.concatenate(sb), pa.int32()),
        }
    )
    return emit_pairs_partition_indexed(
        part_tbl,
        max_bucket_pairs_full,
        skew_mode=skew_mode,
        salt_rounds=salt_rounds,
        metrics=metrics,
    )


def salted_bucket_pairs_int(
    bucket: np.ndarray,
    cap: int,
    rounds: int,
    salt_seed: int = 0x5A17ED,
) -> tuple[list[int], list[int]]:
    """Salted re-band for one hot bucket (north_rule skew handling):
    each round hashes the members into B sub-buckets sized so a
    sub-bucket's all-pairs emission stays under ``cap``, then emits all
    pairs within every sub-bucket. A non-hub pair co-occurs in a round
    with probability ~1/B, so coverage after R rounds is 1-(1-1/B)^R
    (e.g. B=2, R=8: 99.6%); for genuinely huge buckets (B large) the
    residual loss is what the capped-pair metrics account for — full
    O(n^2) emission there is infeasible by construction, not a bug.
    Deterministic: salts derive from (salt_seed, round), never from
    process state."""
    from clonehunter_ray.functions.hashing import _mix64

    n = len(bucket)
    m = max(2, int((2 * cap) ** 0.5))  # sub-bucket size target
    n_sub = max(2, -(-n // m))
    out_a: list[int] = []
    out_b: list[int] = []
    if n_sub > rounds:
        # pathological mega-bucket (boilerplate): pair coverage after R
        # rounds is ~R/B which is negligible here, so the emissions
        # would be pure cost — star-only, with the loss accounted in
        # lsh_capped_full_pairs (measured: 29 such buckets at 60k files
        # emitted ~1M salted pairs for 17% coverage of junk pairs)
        return out_a, out_b
    ids_u = bucket.astype(np.uint64)
    for r in range(rounds):
        salt = np.uint64((salt_seed + r * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        sub = (_mix64(ids_u ^ salt) % np.uint64(n_sub)).astype(np.int64)
        order = np.argsort(sub, kind="stable")
        s_sub, s_ids = sub[order], bucket[order]
        _, starts, counts = np.unique(s_sub, return_index=True, return_counts=True)
        for s, c in zip(starts[counts > 1], counts[counts > 1]):
            members = np.sort(s_ids[s : s + c])
            ii, jj = np.triu_indices(len(members), k=1)
            out_a.extend(members[ii].tolist())
            out_b.extend(members[jj].tolist())
    return out_a, out_b


def emit_pairs_partition_indexed(
    partition: pa.Table,
    max_bucket_pairs_full: int = 256,
    skew_mode: str = "star",
    salt_rounds: int = 6,
    metrics=None,
) -> pa.Table:
    """Int-sid variant of ``emit_pairs_partition`` — fully vectorized
    (np.unique + triu_indices per bucket, no Python id handling).

    Hot buckets (pair count over the cap): always emit the hub-spoke
    star (cluster connectivity), and under ``skew_mode="salted"`` also
    the salted re-band pairs so non-hub pairs are recovered;
    ``skew_mode="full"`` disables the cap. Capped-bucket counts and the
    full-emission pair estimate go to the run's metrics actor."""
    if skew_mode == "full":
        max_bucket_pairs_full = 1 << 62
    keys = partition["band_key"].to_numpy(zero_copy_only=False)
    sids = partition["sid"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((sids, keys))
    keys, sids = keys[order], sids[order]
    if len(keys):
        # drop duplicate (key, sid) rows so run length == member count
        keep = np.concatenate(
            [[True], (keys[1:] != keys[:-1]) | (sids[1:] != sids[:-1])]
        )
        keys, sids = keys[keep], sids[keep]
    _, starts, counts = np.unique(keys, return_index=True, return_counts=True)
    # members allowed for full emission: c(c-1)/2 <= cap
    c_full = int((1 + (1 + 8 * max_bucket_pairs_full) ** 0.5) // 2)
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    c_parts: list[np.ndarray] = []
    # same-size buckets share one triu pattern: ONE gather + fancy
    # index per distinct size instead of a Python loop over millions of
    # buckets (measured 49 s of UDF CPU at 60k files the loop way)
    multi = counts >= 2
    n_buckets = int(multi.sum())
    for c in np.unique(counts[multi & (counts <= c_full)]):
        sel = starts[counts == c]
        m = sids[sel[:, None] + np.arange(c)[None, :]]  # (k, c) members
        ii, jj = np.triu_indices(int(c), k=1)
        a_parts.append(m[:, ii].ravel())
        b_parts.append(m[:, jj].ravel())
        c_parts.append(np.zeros(m.shape[0] * len(ii), dtype=bool))
    # hot buckets (rare): hub-spoke star + optional salted re-band
    n_capped = 0
    full_pairs_capped = 0
    emitted_capped = 0
    for s, c in zip(starts[counts > c_full], counts[counts > c_full]):
        bucket = sids[s : s + c]
        n = len(bucket)
        n_capped += 1
        full_pairs_capped += n * (n - 1) // 2
        star_a = np.full(n - 1, bucket[0], dtype=np.int64)
        star_b = bucket[1:]
        emitted = n - 1
        a_parts.append(star_a)
        b_parts.append(star_b)
        if skew_mode == "salted":
            sa, sb = salted_bucket_pairs_int(
                bucket, max_bucket_pairs_full, salt_rounds
            )
            a_parts.append(np.asarray(sa, dtype=np.int64))
            b_parts.append(np.asarray(sb, dtype=np.int64))
            emitted += len(sa)
        emitted_capped += emitted
        c_parts.append(np.ones(emitted, dtype=bool))
    if metrics is not None and n_buckets:
        from clonehunter_ray.state.metrics import report_metrics

        report_metrics(
            metrics,
            {
                "lsh_buckets_multi": n_buckets,
                "lsh_buckets_capped": n_capped,
                "lsh_capped_full_pairs": full_pairs_capped,
                "lsh_capped_emitted_pairs": emitted_capped,
            },
        )
    out_a = np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.int64)
    out_b = np.concatenate(b_parts) if b_parts else np.empty(0, dtype=np.int64)
    out_c = np.concatenate(c_parts) if c_parts else np.empty(0, dtype=bool)
    return pa.table(
        {
            "a_sid": pa.array(out_a.astype(np.int32), pa.int32()),
            "b_sid": pa.array(out_b.astype(np.int32), pa.int32()),
            "capped": pa.array(out_c, pa.bool_()),
        }
    )


_SID_PAIRS_SCHEMA = pa.schema(
    [("a_sid", pa.int32()), ("b_sid", pa.int32()), ("capped", pa.bool_())]
)


def dedupe_pairs_partition_indexed(partition: pa.Table) -> pa.Table:
    """Vectorized (a_sid, b_sid) dedup; capped = any occurrence."""
    if partition.num_rows == 0:
        return _SID_PAIRS_SCHEMA.empty_table()
    df = partition.select(["a_sid", "b_sid", "capped"]).to_pandas()
    out = df.groupby(["a_sid", "b_sid"], as_index=False, sort=False).agg(
        capped=("capped", "any")
    )
    return pa.Table.from_pandas(out, preserve_index=False).cast(_SID_PAIRS_SCHEMA)


def add_pair_partition_column(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Partition key for cross-band pair dedup: hash of (a_id, b_id).

    Vectorized (pd.util.hash_array is a process-stable siphash over
    the string array, golden-ratio mix to combine the sides) — this
    runs on the scale path's band-duplicated candidate stream, where
    the previous per-row f-string + crc32 loop burned minutes of pure
    Python per shuffle. Any deterministic function of the pair works:
    identical (a_id, b_id) rows land in one partition either way."""
    import numpy as np
    import pandas as pd

    a = batch["a_id"].to_numpy(zero_copy_only=False)
    b = batch["b_id"].to_numpy(zero_copy_only=False)
    with np.errstate(over="ignore"):
        mixed = (
            pd.util.hash_array(a) * np.uint64(0x9E3779B97F4A7C15)
        ) ^ pd.util.hash_array(b)
    part = (mixed % np.uint64(num_partitions)).astype(np.int64)
    return batch.append_column("part", pa.array(part, pa.int64()))


_STR_PAIRS_SCHEMA = pa.schema(
    [("a_id", pa.string()), ("b_id", pa.string()), ("capped", pa.bool_())]
)


def dedupe_pairs_partition(partition: pa.Table) -> pa.Table:
    """Vectorized cross-band pair dedup within one partition: keep one
    row per (a_id, b_id); capped = any occurrence capped."""
    if partition.num_rows == 0:
        return _STR_PAIRS_SCHEMA.empty_table()
    df = partition.select(["a_id", "b_id", "capped"]).to_pandas()
    out = df.groupby(["a_id", "b_id"], as_index=False, sort=False).agg(
        capped=("capped", "any")
    )
    return pa.Table.from_pandas(out, preserve_index=False).cast(_STR_PAIRS_SCHEMA)
