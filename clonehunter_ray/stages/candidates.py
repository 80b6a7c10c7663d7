"""Candidate generation: the LSH band shuffle, and the payload attaches
that follow it.

This dissolves the reference's O(N^2/P)-per-worker k-NN self-join
(reference similarity/candidates.py:117-164, where every worker rebuilt
the FULL vector index) into the one wide dependency of every LSH
pipeline, built from four pieces shared by the scan, the document
pipelines, SimHash and embedding LSH:

    explode_bands         (id, band_keys) -> (band_key, id) rows
    band_pairs            band_key % P partition -> emit per partition
                          -> dedupe_pairs
    emit_pairs_partition  buckets = runs of the sorted band_key; every
                          bucket's pairs a < b, hot buckets capped
    dedupe_pairs          (a_id, b_id) hash partition -> one Arrow
                          group_by per partition

Two items become a candidate pair iff they share at least one LSH band
hash; with band_rows=4, num_bands=32 the detection probability at
Jaccard j is 1-(1-j^4)^32 (>=0.9998 at j=0.7), which is what makes the
pipeline "exact-recall" at the verification thresholds.

Skew handling (north_rule): a bucket whose pair count would exceed
``max_bucket_pairs_full`` emits a star (every member paired with the
bucket's smallest id) instead of all O(n^2) pairs — connectivity within
a genuine clone family is preserved for clustering, and the ``capped``
flag on emitted pairs keeps recall accounting honest. Hot buckets come
from boilerplate shingles (license headers etc.), the analogue of
stop-shingle handling.

Payloads never ride the band shuffle: pairs carry ids only, and the
payload columns attach afterwards. The document pipelines attach by
key (``attach_pair_payload``, broadcast or partitioned join behind the
one ``fits_broadcast`` rule); every other keyed lookup of the engine
(dimension and vocabulary lookups, cluster ids and component labels,
winner and summary left attaches) is the same ``attach_by_key``. The
scan's ids are int sids, the global ranks of ``snippet_id``: its
signature table, sorted once, is the sid-range index (``sid_index``),
and one range-take kernel (``take_sids``, paired as ``attach_sids``)
attaches the narrow columns that ``pre_gate_pairs`` gates on
(``verify.size_kind_gate``) and then the survivors' payload, with no
join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clonehunter_ray.functions.hashing import _mix64


def explode_bands(batch: pa.Table, id_col: str) -> pa.Table:
    """``(id_col, band_keys)`` batch -> ``(band_key, id_col)`` rows, one
    per band: the flattened ``band_keys`` list column beside an Arrow
    ``take`` of the ids on their repeated row indices (any id type)."""
    bands = batch["band_keys"]
    return pa.table(
        {
            "band_key": pc.list_flatten(bands),
            id_col: batch[id_col].take(pc.list_parent_indices(bands)),
        }
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


def emit_pairs_partition(
    partition: pa.Table,
    id_col: str,
    max_bucket_pairs_full: int,
    skew_mode: str,
    salt_rounds: int,
    metrics=None,
) -> pa.Table:
    """One hash partition of ``(band_key, id_col)`` rows (many buckets)
    -> ``(a_id, b_id, capped)`` candidate pairs with ``a_id < b_id``,
    ids keeping ``id_col``'s type. Buckets are runs of the sorted
    band_key; emission is fully vectorized (np.unique + one triu
    gather per distinct bucket size). String ids are ranked on the
    partition's sorted unique ids, the int algorithm runs on the ranks
    and the pairs map back with ``take``, so order and hub agree with
    the int case.

    Hot buckets (pair count over ``max_bucket_pairs_full``): always
    emit the hub-spoke star from the smallest id (cluster
    connectivity), and under ``skew_mode="salted"`` also the salted
    re-band pairs so non-hub pairs are recovered (``salt_rounds``
    rounds; the salt hashes the int id or the string's partition rank);
    ``skew_mode="full"`` disables the cap. Bucket counts, capped-bucket
    counts and the full-emission pair estimate go to the run's metrics
    actor."""
    if skew_mode == "full":
        max_bucket_pairs_full = 1 << 62
    keys = partition["band_key"].to_numpy(zero_copy_only=False)
    id_arr = partition[id_col]
    ranked = not pa.types.is_integer(id_arr.type)
    if ranked:
        uniq = pc.unique(id_arr)
        uniq = uniq.take(pc.sort_indices(uniq))
        id_arr = pc.index_in(id_arr, value_set=uniq)
    ids = id_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, keys))
    keys, ids = keys[order], ids[order]
    if len(keys):
        # drop duplicate (key, id) rows so run length == member count
        keep = np.concatenate(
            [[True], (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])]
        )
        keys, ids = keys[keep], ids[keep]
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
        m = ids[sel[:, None] + np.arange(c)[None, :]]  # (k, c) members
        ii, jj = np.triu_indices(int(c), k=1)
        a_parts.append(m[:, ii].ravel())
        b_parts.append(m[:, jj].ravel())
        c_parts.append(np.zeros(m.shape[0] * len(ii), dtype=bool))
    # hot buckets (rare): hub-spoke star + optional salted re-band
    n_capped = 0
    full_pairs_capped = 0
    emitted_capped = 0
    for s, c in zip(starts[counts > c_full], counts[counts > c_full]):
        bucket = ids[s : s + c]
        n = len(bucket)
        n_capped += 1
        full_pairs_capped += n * (n - 1) // 2
        a_parts.append(np.full(n - 1, bucket[0], dtype=np.int64))
        b_parts.append(bucket[1:])
        emitted = n - 1
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
    out = []
    for parts in (a_parts, b_parts):
        flat = pa.array(
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        out.append(uniq.take(flat) if ranked else flat.cast(id_arr.type))
    return pa.table(
        {
            "a_id": out[0],
            "b_id": out[1],
            "capped": pa.array(
                np.concatenate(c_parts) if c_parts else np.empty(0, dtype=bool)
            ),
        }
    )


def _id_hash(col) -> np.ndarray:
    """A deterministic uint64 per id: int ids as themselves, string ids
    as a splitmix chain over their bytes read in 8-byte words."""
    if pa.types.is_integer(col.type):
        return col.to_numpy(zero_copy_only=False).astype(np.uint64)
    raw = col.cast(pa.binary()).to_numpy(zero_copy_only=False).astype("S")
    width = -(-raw.dtype.itemsize // 8) * 8
    words = raw.astype(f"S{width}").view(np.uint64).reshape(len(raw), -1)
    h = np.zeros(len(raw), dtype=np.uint64)
    for w in words.T:
        h = _mix64(h ^ w)
    return h


def _with_part(t: pa.Table, cols: list[str], num_partitions: int) -> pa.Table:
    """``part`` = a hash of ``cols`` mod P (one int column hashes to
    itself): rows equal on ``cols`` land in one partition."""
    h = np.zeros(t.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in cols:
            h = h * np.uint64(0x9E3779B97F4A7C15) ^ _id_hash(t[c])
    part = (h % np.uint64(num_partitions)).astype(np.int64)
    return t.append_column("part", pa.array(part, pa.int64()))


def dedupe_partition(t: pa.Table) -> pa.Table:
    """One ``(a_id, b_id)`` row per pair of a partition, by one Arrow
    ``group_by``; every other column aggregates by its type: bool ->
    ``any`` (``capped``: any emission capped), anything else -> ``min``
    (``hamming``, ``cos5``). Column order and types are kept."""
    if "part" in t.column_names:
        t = t.drop_columns(["part"])
    if t.num_rows == 0:
        return t
    rest = [c for c in t.column_names if c not in ("a_id", "b_id")]
    aggs = [
        (c, "any" if pa.types.is_boolean(t.schema.field(c).type) else "min")
        for c in rest
    ]
    g = t.group_by(["a_id", "b_id"], use_threads=False).aggregate(aggs)
    return pa.table(
        [g["a_id"], g["b_id"], *(g[f"{c}_{fn}"] for c, fn in aggs)],
        schema=t.schema,
    )


def dedupe_pairs(pairs, num_partitions: int):
    """The pair-dedup step of every LSH pipeline: a pair emitted from
    several bands or buckets comes out once (``dedupe_partition``),
    after one ``(a_id, b_id)`` hash partition into ``num_partitions``
    groups (P group calls, not one per pair)."""
    return (
        pairs.map_batches(
            _with_part,
            fn_args=(["a_id", "b_id"], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(dedupe_partition, batch_format="pyarrow")
    )


def band_pairs(bands, emit, num_partitions: int):
    """The LSH pair shuffle: exploded ``(band_key, id[, ...])`` rows are
    partitioned by ``band_key % P`` (P group calls instead of one per
    bucket; skew within a partition stays bounded because hot buckets
    are capped individually), each partition goes through ``emit``
    (one partition table -> ``(a_id, b_id, ...)`` pairs, usually
    ``emit_pairs_partition``), then ``dedupe_pairs``. Only ids cross
    both shuffles; payloads attach after (``attach_pair_payload``)."""
    return dedupe_pairs(
        bands.map_batches(
            _with_part,
            fn_args=(["band_key"], num_partitions),
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(emit, batch_format="pyarrow"),
        num_partitions,
    )


# plasma tables mapped per worker process, keyed by broadcast or sid
# index id: a broadcast payload with what the worker derived from it
# once (``index``: key -> row dict, ``keys``: the key column as numpy),
# or a sid index's blocks by position; bounded LRU-ish so concurrent
# pipelines (scan + doc dedup sharing a worker pool) can hold theirs
# without thrashing re-assembly
_PAYLOAD_CACHE: dict[str, dict] = {}
_PAYLOAD_CACHE_MAX = 4


def _cache_entry(key: str) -> dict:
    entry = _PAYLOAD_CACHE.get(key)
    if entry is None:
        while len(_PAYLOAD_CACHE) >= _PAYLOAD_CACHE_MAX:
            _PAYLOAD_CACHE.pop(next(iter(_PAYLOAD_CACHE)))
        entry = _PAYLOAD_CACHE[key] = {}
    return entry


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
    # sort by the key column: ``_attach_broadcast`` binary-searches it,
    # and since block arrival order is NOT deterministic (preserve_order
    # is off) the sort also fixes the row order run-to-run. Bounded by
    # the broadcast cutover (<= 2M rows), one in-plasma sort in the
    # zero-CPU combiner.
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


def _payload_entry(ref) -> dict:
    """The worker's ``_PAYLOAD_CACHE`` entry for a broadcast handle,
    mapping the combined table from plasma on first use."""
    entry = _cache_entry(ref[0])
    if "table" not in entry:
        import ray

        entry["table"] = ray.get(ref[1])
    return entry


def get_broadcast_payload(ref, need_index: bool = True) -> tuple[pa.Table, dict]:
    """ref = (key, combined-table ObjectRef, payload_cols, key_col).
    Maps the combined payload from plasma (zero-copy, shared by every
    worker on the node) and builds the key -> row index ONCE per worker
    process. Pass ``need_index=False`` when the caller addresses rows
    positionally (``Table.take``) — the index dict over every key is
    then skipped entirely (it is pure overhead for the heavy
    full-payload handle, whose consumers already hold row indices)."""
    entry = _payload_entry(ref)
    if need_index and "index" not in entry:
        entry["index"] = {
            sid: i for i, sid in enumerate(entry["table"][ref[3]].to_pylist())
        }
    return entry["table"], entry.get("index")


def _broadcast_keys(ref) -> tuple[pa.Table, np.ndarray]:
    """The broadcast table and its key column as numpy, converted ONCE
    per worker process (a string key column is an object array the
    size of the whole side)."""
    entry = _payload_entry(ref)
    if "keys" not in entry:
        entry["keys"] = entry["table"][ref[3]].to_numpy(zero_copy_only=False)
    return entry["table"], entry["keys"]


# The one broadcast-or-join rule for keyed attaches (the document
# pipelines' shingle/token blobs, dimension and vocabulary lookups).
# Measured at 200k files on the scan's former broadcast payload
# (BASELINE.md "Broadcast-cutover thresholds validated by
# measurement"): 1.79 KiB per snippet, so 2M rows ~= 3.4 GiB of plasma
# plus a ~180 MB id->row dict per worker, comfortably within a 128 GB
# node; the join path was 7x slower than broadcast at 423k snippets.
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
    if isinstance(table, pa.Table):
        keys = table[key].to_numpy(zero_copy_only=False)
    else:
        table, keys = _broadcast_keys(table)
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


# Ray's hash join (Arrow Acero) carries no list columns; list<string>
# columns (the findings' reasons) cross it as \x1f-joined strings.
# Reason tags never contain \x1f, so the round trip is lossless.
_SEP = "\x1f"
_PACKED = "__packed__"


def pack_lists(batch: pa.Table) -> pa.Table:
    """Each list<string> column as one \x1f-joined string column
    renamed ``__packed__<name>`` (``unpack_lists`` reverses it)."""
    for i, field in enumerate(batch.schema):
        if pa.types.is_list(field.type) and pa.types.is_string(
            field.type.value_type
        ):
            batch = batch.set_column(
                i,
                _PACKED + field.name,
                pc.binary_join(batch.column(i).combine_chunks(), _SEP),
            )
    return batch


def unpack_lists(batch: pa.Table) -> pa.Table:
    for i, field in enumerate(batch.schema):
        if field.name.startswith(_PACKED):
            col = batch.column(i)
            lists = pc.if_else(
                pc.equal(col, ""),
                pa.scalar([], pa.list_(pa.string())),
                pc.split_pattern(col, pattern=_SEP).cast(pa.list_(pa.string())),
            )
            batch = batch.set_column(i, field.name[len(_PACKED):], lists)
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
    partitioned hash join per ``on`` column (``util.safe_join``,
    inner or left outer), list<string> columns of either side crossing
    it packed (``pack_lists``). An empty ``side`` — or empty ``rows``
    on the join path, which Ray's hash join cannot take (see
    util.scrub_empty_blocks) — gives a typed result
    without a join. ``schema`` types the side's columns when Ray reports
    no schema for an empty side (an aggregate over no rows)."""
    import ray.data

    from clonehunter_ray.util import safe_join

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
    # an extra pass over the rows only when a list column must be packed
    lists = any(pa.types.is_list(t) for t in [*r.types, *(types[c] for c in cols)])
    if lists:
        rows = rows.map_batches(pack_lists, batch_format="pyarrow")
    for col, prefix in on.items():
        # the join needs equal key types on both sides (the probe
        # compares int widths freely); outputs take their prefix here
        def right_side(t, p=prefix, want=row_types[col]):
            t = t.rename_columns([key, *(f"{p}{c}" for c in cols)])
            return pack_lists(t.set_column(0, key, t[key].cast(want)))

        right = side.map_batches(right_side, batch_format="pyarrow")
        rows = safe_join(
            rows,
            right,
            "inner" if how == "inner" else "left_outer",
            num_partitions,
            on=(col,),
            right_on=(key,),
        )
    return rows.map_batches(unpack_lists, batch_format="pyarrow") if lists else rows


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


def pre_gate_pairs(
    batch: pa.Table, thresholds, substr_floor: float | None
) -> pa.Table:
    """``verify.size_kind_gate`` fed from attached ``a_``/``b_``
    ``n_shingles`` / ``n_tokens`` / ``kind`` columns (the scan attaches
    these narrow columns first, so the payload attach only takes for
    survivors)."""
    from clonehunter_ray.stages.verify import kind_gates, size_kind_gate

    def side(p: str) -> tuple:
        return (
            batch[f"{p}n_shingles"].to_numpy(zero_copy_only=False),
            batch[f"{p}n_tokens"].to_numpy(zero_copy_only=False),
            kind_gates(batch[f"{p}kind"], thresholds),
        )

    keep = size_kind_gate(side("a_"), side("b_"), thresholds, substr_floor)
    return batch.filter(pa.array(keep, pa.bool_()))


def _id_bounds(block: pa.Table) -> tuple:
    """``(first id, last id, first id not above its predecessor or
    None)`` of one block's ``snippet_id`` column."""
    ids = block["snippet_id"]
    bad = pc.less_equal(ids[1:], ids[:-1]).to_numpy(zero_copy_only=False)
    hit = np.flatnonzero(bad)
    return (
        ids[0].as_py(),
        ids[-1].as_py(),
        ids[int(hit[0]) + 1].as_py() if len(hit) else None,
    )


def sid_index(ds) -> tuple:
    """The sid-range index of ``ds``, a materialized dataset sorted by
    ``snippet_id``: sid = the row's global rank, so its non-empty blocks
    in order hold sids ``[start_i, start_i + rows_i)``. Row counts come
    from the blocks' metadata. Returns ``(id, starts, block refs)`` for
    ``take_sids``.

    A sid must name one row, so ids must increase strictly within each
    block and across block boundaries; a repeated id or blocks out of
    order raise ``ValueError`` naming the offending id."""
    import uuid

    import ray

    blocks = [
        (ref, meta.num_rows)
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    refs = [ref for ref, _ in blocks]
    bounds = ray.get([ray.remote(num_cpus=0)(_id_bounds).remote(r) for r in refs])
    last = None
    for first, block_last, bad in bounds:
        if last is not None and first <= last:
            bad = first
        if bad is not None:
            raise ValueError(
                f"snippet_id {bad!r} does not increase strictly: the sid "
                "index needs unique ids sorted across its blocks"
            )
        last = block_last
    starts = np.cumsum([0] + [n for _, n in blocks], dtype=np.int64)[:-1]
    return (str(uuid.uuid4()), starts, refs)


def _index_block(index, i: int) -> pa.Table:
    """Block ``i`` of a sid index, mapped from plasma (zero-copy) once
    per worker process."""
    blocks = _cache_entry(index[0])
    if i not in blocks:
        import ray

        blocks[i] = ray.get(index[2][i])
    return blocks[i]


def take_sids(sids, index, cols: list[str]) -> pa.Table:
    """The range-take kernel: the ``cols`` of the index rows named by
    ``sids`` (any int array), in ``sids``' order. Sids are split by
    owning block (``searchsorted`` on the starts), each touched block is
    gathered with one ``take``, and the row order is restored; no
    shuffle and no join."""
    _, starts, _ = index
    sids = np.asarray(sids, dtype=np.int64)
    blk = np.searchsorted(starts, sids, side="right") - 1
    order = np.argsort(blk, kind="stable")
    touched, lo = np.unique(blk[order], return_index=True)
    hi = np.append(lo[1:], len(order))
    parts = [
        _index_block(index, int(b))
        .select(cols)
        .take(pa.array(sids[order[l:h]] - starts[b]))
        for b, l, h in zip(touched, lo, hi)
    ]
    if not parts:
        return _index_block(index, 0).select(cols).slice(0, 0)
    out = pa.concat_tables(parts)
    if len(parts) > 1:
        restore = np.empty_like(order)
        restore[order] = np.arange(len(order))
        out = out.take(restore)
    return out


def attach_sids(batch: pa.Table, index, cols: list[str]) -> pa.Table:
    """Sid pair rows (``a_id``, ``b_id``, ...) plus ``a_<col>`` and
    ``b_<col>`` for every column of ``cols``, range-taken from the
    index (``take_sids``)."""
    for p in ("a_", "b_"):
        side = take_sids(batch[f"{p}id"].to_numpy(zero_copy_only=False), index, cols)
        for c in cols:
            batch = batch.append_column(f"{p}{c}", side[c])
    return batch


def explode_bands_packed(
    block: pa.Table, start: int, num_partitions: int
) -> pa.Table:
    """One sid index block -> AT MOST ``num_partitions`` rows of
    (part: i64, keys: binary, sids: binary) where the blobs are the
    raw little-endian u64 band keys / i32 sids of the block's rows
    falling in that band-hash partition. The block holds sids
    ``start, start + 1, ...`` (``sid_index``), so the band shuffle moves
    12 bytes per band row instead of a ~64-byte string (the dominant
    shuffle of the pipeline).

    Map-side packing for the band shuffle: the groupby("part") sort
    then moves ~blocks x P FAT rows instead of |snippets| x |bands|
    12-byte rows (measured 19 s of per-row sort machinery at 11.3M
    rows / 100k files — the slowest, worst-scaling pairs operator; the
    bytes still move, the per-row cost vanishes). The all-parallel
    shape also survives this host's memory-bandwidth contention bursts,
    which made a single-task combine variant 2-4x slower, not faster."""
    sid = pa.array(np.arange(start, start + block.num_rows, dtype=np.int32))
    et = explode_bands(
        pa.table({"sid": sid, "band_keys": block["band_keys"]}), "sid"
    )
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
    """One part group of packed band fragments -> ``(a_id, b_id,
    capped)`` int32 sid pairs. Unpacks the blobs (zero-copy frombuffer
    views), concatenates, and runs ``emit_pairs_partition`` — row for
    row the same partition contents as an unpacked groupby, so output
    pairs and capped-bucket metrics are identical."""
    kb = [
        np.frombuffer(b, dtype=np.uint64)
        for b in partition["keys"].to_pylist()
    ]
    sb = [
        np.frombuffer(b, dtype=np.int32)
        for b in partition["sids"].to_pylist()
    ]
    part_tbl = pa.table(
        {
            "band_key": pa.array(
                np.concatenate(kb) if kb else np.empty(0, np.uint64)
            ),
            "sid": pa.array(np.concatenate(sb) if sb else np.empty(0, np.int32)),
        }
    )
    return emit_pairs_partition(
        part_tbl, "sid", max_bucket_pairs_full, skew_mode, salt_rounds, metrics
    )
