"""Document-level deduplication pipelines (training-data extras).

Five strategies over a generic ``documents(doc_id, text, ...)`` table,
all streaming Ray Data pipelines:

* exact:       sha256 groupby keep-first (queries.exact_dedup_documents)
* MinHash+LSH: shingle -> minhash -> band groupby -> verified pairs ->
               union-find clusters -> representative per cluster
* SimHash:     64-bit simhash, banded into 16-bit chunks, hamming<=K
               verification within buckets
* n-gram Jaccard: queries.ngram_jaccard_pairs (SQL-checkable)
* embedding cosine near-dup: similarity.embedding_near_dup_pairs
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from clonehunter_ray.config import SignatureConfig
from clonehunter_ray.functions import hashing as H


class DocSignatureStage:
    """Actor-pool stage: text -> shingle set + minhash bands + simhash.

    Flat batch kernels throughout (one lexsort/reduceat over the whole
    batch instead of per-row np.unique / (n_shingles x 64) expansions
    — bit-identical to the per-row forms, pinned by
    tests/test_hashing.py), mirroring the scan SignatureStage
    (stages/signatures.py:99-126). ``emit`` selects the artifacts a
    caller pays for: the SimHash pipeline does not compute 128-perm
    MinHash signatures it will drop, and the MinHash pipelines skip
    the simhash column."""

    def __init__(
        self,
        config: SignatureConfig | None = None,
        emit: tuple[str, ...] = ("shingles", "bands", "simhash"),
    ) -> None:
        self.config = config or SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)
        self.hasher = (
            H.MinHasher(self.config.num_perm, self.config.seed)
            if "bands" in emit
            else None
        )
        self.emit = emit

    def __call__(self, batch: pa.Table) -> pa.Table:
        from clonehunter_ray.stages.signatures import _binary_from_flat_u64

        flat_tok, tok_lens = H.tokenize_hash_flat(batch["text"])
        flat_sh, sh_counts = H.batch_shingle_sets(
            flat_tok, tok_lens, self.config.shingle_k
        )
        cols: dict[str, pa.Array] = {"doc_id": batch["doc_id"]}
        if "shingles" in self.emit:
            cols["shingles"] = _binary_from_flat_u64(flat_sh, sh_counts)
        if "bands" in self.emit:
            sigs = self.hasher.signatures_flat(flat_sh, sh_counts)
            bands = H.band_hashes_batch(
                sigs, self.config.num_bands, self.config.band_rows
            )
            cols["band_keys"] = pa.array(
                bands.tolist(), pa.list_(pa.uint64())
            )
        if "simhash" in self.emit:
            cols["simhash"] = pa.array(
                H.simhash_from_flat(flat_sh, sh_counts).tolist(), pa.uint64()
            )
        return pa.table(cols)


def _explode_doc_bands_ids(batch: pa.Table) -> pa.Table:
    """(doc_id, band_keys) -> (band_key, doc_id) rows — ids only; the
    shingle payload never rides the band shuffle (x num_bands blow-up)."""
    n = batch.num_rows
    if n == 0:
        return pa.table(
            {
                "band_key": pa.array([], pa.uint64()),
                "doc_id": pa.array([], pa.int64()),
            }
        )
    flat = batch["band_keys"].combine_chunks().flatten()
    nb = len(flat) // n
    ids = np.repeat(np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64), nb)
    return pa.table({"band_key": flat, "doc_id": pa.array(ids)})


def _emit_doc_pairs_partition(
    partition: pa.Table,
    max_bucket_pairs_full: int = 1024,
    skew_mode: str = "salted",
    salt_rounds: int = 6,
    metrics=None,
) -> pa.Table:
    """One hash partition of band rows (many buckets) -> candidate doc
    pairs, vectorized: buckets are runs of the sorted band_key. Hot
    buckets emit the hub-spoke star (connectivity) plus, under
    ``skew_mode="salted"``, salted re-band sub-bucket all-pairs (see
    stages/candidates.salted_bucket_pairs_int) so spoke-spoke pairs
    that collide in no other band are still recovered; every capped
    emission carries ``capped=True`` for recall accounting."""
    from clonehunter_ray.stages.candidates import salted_bucket_pairs_int

    if skew_mode == "full":
        max_bucket_pairs_full = 1 << 62
    keys = partition["band_key"].to_numpy(zero_copy_only=False)
    ids = partition["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, keys))
    keys, ids = keys[order], ids[order]
    if len(keys):
        keep = np.concatenate(
            [[True], (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])]
        )
        keys, ids = keys[keep], ids[keep]
    _, starts, counts = np.unique(keys, return_index=True, return_counts=True)
    c_full = int((1 + (1 + 8 * max_bucket_pairs_full) ** 0.5) // 2)
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    c_parts: list[np.ndarray] = []
    # size-grouped vectorized emission (see candidates.py:
    # emit_pairs_partition_indexed) — one gather per distinct bucket
    # size, no Python loop over buckets
    multi = counts >= 2
    for c in np.unique(counts[multi & (counts <= c_full)]):
        sel = starts[counts == c]
        m = ids[sel[:, None] + np.arange(c)[None, :]]
        ii, jj = np.triu_indices(int(c), k=1)
        a_parts.append(m[:, ii].ravel())
        b_parts.append(m[:, jj].ravel())
        c_parts.append(np.zeros(m.shape[0] * len(ii), dtype=bool))
    n_capped = 0
    full_pairs_capped = 0
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
        c_parts.append(np.ones(emitted, dtype=bool))
    if metrics is not None and n_capped:
        from clonehunter_ray.state.metrics import report_metrics

        report_metrics(
            metrics,
            {
                "lsh_buckets_capped": n_capped,
                "lsh_capped_full_pairs": full_pairs_capped,
            },
        )
    out_a = np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.int64)
    out_b = np.concatenate(b_parts) if b_parts else np.empty(0, dtype=np.int64)
    out_c = np.concatenate(c_parts) if c_parts else np.empty(0, dtype=bool)
    return pa.table(
        {
            "a_id": pa.array(out_a, pa.int64()),
            "b_id": pa.array(out_b, pa.int64()),
            "capped": pa.array(out_c, pa.bool_()),
        }
    )


_INT_PAIRS_SCHEMA = pa.schema(
    [("a_id", pa.int64()), ("b_id", pa.int64()), ("capped", pa.bool_())]
)


def _dedupe_int_pairs_partition(partition: pa.Table) -> pa.Table:
    if partition.num_rows == 0:
        return _INT_PAIRS_SCHEMA.empty_table()
    if "capped" not in partition.column_names:
        partition = partition.append_column(
            "capped", pa.array([False] * partition.num_rows, pa.bool_())
        )
    df = partition.select(["a_id", "b_id", "capped"]).to_pandas()
    out = df.groupby(["a_id", "b_id"], as_index=False, sort=False).agg(
        capped=("capped", "any")
    )
    return pa.Table.from_pandas(out, preserve_index=False).cast(_INT_PAIRS_SCHEMA)


def minhash_dedup_pairs(
    docs_ds: "ray.data.Dataset",
    threshold: float = 0.8,
    config: SignatureConfig | None = None,
    concurrency: int | None = None,
    num_partitions: int = 64,
    broadcast_limit: int = 2_000_000,
    max_bucket_pairs_full: int = 1024,
    metrics=None,
) -> "ray.data.Dataset":
    """Verified near-duplicate pairs (jaccard >= threshold) via
    MinHash-LSH, mirroring the scan pipeline's shape: ids-only band
    shuffle -> hash-partitioned vectorized pair generation (hot
    buckets: hub-spoke star + salted re-band, ``capped`` flag
    propagated to the output for recall accounting) -> pair dedup ->
    shingle payload attach (plasma-resident broadcast table below
    ``broadcast_limit`` docs — never a driver-heap dict — partitioned
    hash join above) -> exact Jaccard verification in ``map_batches``.
    """
    from clonehunter_ray.util import auto_actor_pool

    config = config or SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)
    sig = docs_ds.map_batches(
        DocSignatureStage,
        fn_constructor_kwargs={
            "config": config,
            "emit": ("shingles", "bands"),
        },
        # autoscale to the cluster (a fixed constant caps the whole
        # stage; a fixed FULL-size pool pays mass actor startup even
        # for tiny inputs); small batches keep task count >> actor
        # count so the pool fills even from a handful of read blocks
        concurrency=concurrency or auto_actor_pool(),
        batch_size=256,
        batch_format="pyarrow",
    ).materialize()  # reused by the band shuffle AND the payload attach

    bands = (
        sig.select_columns(["doc_id", "band_keys"])
        .map_batches(_explode_doc_bands_ids, batch_format="pyarrow")
        .map_batches(
            lambda t: t.append_column(
                "part",
                pa.array(
                    (
                        t["band_key"].to_numpy(zero_copy_only=False)
                        % np.uint64(num_partitions)
                    ).astype(np.int64),
                    pa.int64(),
                ),
            ),
            batch_format="pyarrow",
        )
    )
    cand = bands.groupby("part").map_groups(
        lambda g: _emit_doc_pairs_partition(
            g,
            max_bucket_pairs_full,
            skew_mode=config.skew_mode,
            salt_rounds=config.salt_rounds,
            metrics=metrics,
        ),
        batch_format="pyarrow",
    )
    deduped = cand.map_batches(
        lambda t: t.append_column(
            "part",
            pa.array(
                (
                    (
                        t["a_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                        * np.uint64(0x9E3779B97F4A7C15)
                        ^ t["b_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                    )
                    % np.uint64(num_partitions)
                ).astype(np.int64),
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    ).groupby("part").map_groups(
        _dedupe_int_pairs_partition, batch_format="pyarrow"
    )

    n_docs = sig.count()
    verified_schema = pa.schema(
        [
            ("a_id", pa.int64()),
            ("b_id", pa.int64()),
            ("jaccard", pa.float64()),
            ("capped", pa.bool_()),
        ]
    )
    if n_docs <= broadcast_limit:
        # shingle payload stays in plasma: blocks combined ONCE in a
        # remote task, every worker maps the combined table zero-copy
        # (scan.py's broadcast pattern — a driver-heap dict of 2M
        # shingle blobs would be tens of GB on one process)
        from clonehunter_ray.stages.candidates import (
            get_broadcast_payload,
            make_broadcast_handle,
        )

        handle = make_broadcast_handle(
            sig, ["doc_id", "shingles"], key_col="doc_id"
        )

        def verify(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return verified_schema.empty_table()
            table, idx = get_broadcast_payload(handle)
            blobs = table["shingles"]
            rows_a = pa.array(
                [idx[x] for x in batch["a_id"].to_pylist()], pa.int64()
            )
            rows_b = pa.array(
                [idx[y] for y in batch["b_id"].to_pylist()], pa.int64()
            )
            # one vectorized lexsort kernel replaces the per-pair
            # frombuffer+intersect loop (functions/hashing.jaccard_batch)
            jac = H.jaccard_batch(blobs.take(rows_a), blobs.take(rows_b))
            sel = pa.array(np.flatnonzero(jac >= threshold), pa.int64())
            return pa.table(
                {
                    "a_id": batch["a_id"].take(sel),
                    "b_id": batch["b_id"].take(sel),
                    "jaccard": pa.array(
                        jac[sel.to_numpy(zero_copy_only=False)], pa.float64()
                    ),
                    "capped": batch["capped"].take(sel),
                },
                schema=verified_schema,
            )

        return deduped.map_batches(verify, batch_format="pyarrow")

    # scale path: two partitioned hash joins to attach each side's blob
    from clonehunter_ray.util import safe_join_partitions

    num_partitions = safe_join_partitions(num_partitions)
    payload = sig.select_columns(["doc_id", "shingles"])
    a_side = payload.map_batches(
        lambda t: t.rename_columns(["a_id", "a_shingles"]), batch_format="pyarrow"
    )
    b_side = payload.map_batches(
        lambda t: t.rename_columns(["b_id", "b_shingles"]), batch_format="pyarrow"
    )
    from clonehunter_ray.util import safe_join

    # zero candidate pairs (dup-free corpus) leave the join's left
    # sequence globally empty, which crashes Ray's hash join (see
    # util.left_attach_or_nulls). The pair table is ids-only and
    # bounded by the banding caps — materializing it for the gate is
    # cheap relative to the payload joins it feeds.
    deduped = deduped.select_columns(["a_id", "b_id", "capped"]).materialize()
    if deduped.count() == 0:
        return ray.data.from_arrow(verified_schema.empty_table())

    joined = safe_join(
        safe_join(
            deduped,
            a_side,
            "inner",
            num_partitions,
            on=("a_id",),
        ),
        b_side,
        "inner",
        num_partitions,
        on=("b_id",),
    )

    def verify_joined(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return verified_schema.empty_table()
        jac = H.jaccard_batch(batch["a_shingles"], batch["b_shingles"])
        sel = pa.array(np.flatnonzero(jac >= threshold), pa.int64())
        return pa.table(
            {
                "a_id": batch["a_id"].take(sel),
                "b_id": batch["b_id"].take(sel),
                "jaccard": pa.array(
                    jac[sel.to_numpy(zero_copy_only=False)], pa.float64()
                ),
                "capped": batch["capped"].take(sel),
            },
            schema=verified_schema,
        )

    return joined.map_batches(verify_joined, batch_format="pyarrow")


@ray.remote(num_cpus=0)
def _route_and_verify_chunk(
    shards,
    n_shards: int,
    ids: np.ndarray,
    blobs: list[bytes],
    threshold: float,
    n_qb: int,
    *refs,
) -> pa.Table:
    """Worker-side tail of one ingest chunk: candidate-pair dedup,
    owner-routed exact verification, keep-earliest reduction (a doc
    lives in exactly one chunk, so the per-chunk reduction IS the
    global one). ``refs[:n_qb]`` are the chunk's resolved per-shard
    ``query_bands`` results; the remaining refs are the PREVIOUS
    chunk's add results — data-only dependencies that guarantee every
    earlier chunk's blobs are installed on every shard before this
    task's verify calls land (actor tasks execute in submission order
    per submitter, so add(N-1) done everywhere implies add(<=N-1)
    done everywhere)."""
    from clonehunter_ray.state.lsh_index import (
        dedupe_candidate_pairs,
        keep_earliest,
        verify_on_owners,
    )

    qb = refs[:n_qb]
    new_idx, corpus = dedupe_candidate_pairs(list(qb))
    flagged = verify_on_owners(
        shards, n_shards, new_idx, corpus, ids, blobs, threshold
    )
    return keep_earliest(flagged)


def incremental_dedup_stream(
    docs_ds: "ray.data.Dataset",
    threshold: float = 0.8,
    chunk_rows: int = 200,
    n_shards: int = 4,
    config: SignatureConfig | None = None,
    max_inflight_chunks: int = 8,
    checkpoint_dir: str | None = None,
    snapshot_every: int = 50,
    _crash_after_chunks: int | None = None,
) -> "ray.data.Dataset":
    """Streaming-ingest near-dedup: documents arrive in doc_id order in
    chunks; each chunk is checked against everything indexed BEFORE it
    (query-then-add against state/lsh_index's shard actors), returning
    (doc_id, dup_of, jaccard) with dup_of the EARLIEST matching indexed
    doc — the append-only semantics the batch re-band pipelines can't
    express.

    Pipelined (round-4 rework of the driver-serialized loop): signature
    hashing runs as a distributed actor-pool stage BEFORE the ingest
    order sort; the driver's per-chunk work is pure array slicing and
    task submission — it submits query_bands then add to the shards
    (actor submission order preserves query-before-add, chunk order,
    and append-only semantics with NO ray.get barrier) and hands the
    chunk's verification + keep-earliest reduction to a detached
    worker task gated on the previous chunk's add refs. Chunk N's
    verify therefore overlaps chunk N+1..N+k's routing
    (``max_inflight_chunks`` bounds the overlap), and the flagged rows
    come back as a ``ray.data.Dataset`` built from the per-chunk
    result refs — nothing corpus-scale is ever concatenated on the
    driver.

    Checkpoint/resume (``checkpoint_dir``): every ``snapshot_every``
    chunks the stream barriers, has each shard actor persist its full
    postings+payload state to partitioned parquet (worker-side
    writes), stores the flagged-row DELTA since the previous epoch
    beside it, and commits the epoch with a manifest written last. A
    restarted run restores the newest complete epoch, prunes
    already-ingested docs AT THE READ (``doc_id > max_doc_id``
    pushdown — chunk boundaries are doc_id-sorted, so the epoch cut is
    a clean chunk boundary), and returns checkpointed flagged rows
    unioned with the re-run tail — byte-identical to an uninterrupted
    run. ``_crash_after_chunks`` is a test hook simulating driver
    death mid-ingest.
    """
    import os

    from clonehunter_ray.state.lsh_index import OUT_SCHEMA, ShardedLshIndex
    from clonehunter_ray.util import auto_actor_pool

    cfg = config or SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)
    index = ShardedLshIndex(n_shards=n_shards, config=cfg)

    seq = 0
    restored_flagged: list[str] = []
    if checkpoint_dir:
        # shutdown on restore failure too: a config/shard-count
        # mismatch raises here, and without the guard the n_shards
        # live shard actors created above would leak into the session
        try:
            resume = index.restore_latest(checkpoint_dir)
        except BaseException:
            index.shutdown()
            raise
        if resume is not None:
            seq = int(resume["seq"])
            docs_ds = docs_ds.filter(
                expr=f"doc_id > {int(resume['max_doc_id'])}"
            )
            restored_flagged = [
                f
                for m in index.list_epochs(checkpoint_dir)
                if m["seq"] <= seq
                for f in [os.path.join(m["epoch_dir"], "flagged.parquet")]
                if os.path.exists(f)
            ]

    # distributed signature stage FIRST, ingest-order sort LAST (the
    # sort being the final op keeps iter_batches in sorted order even
    # with preserve_order off)
    sig = (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(
            DocSignatureStage,
            fn_constructor_kwargs={
                "config": cfg,
                "emit": ("shingles", "bands"),
            },
            concurrency=auto_actor_pool(),
            batch_size=256,
            batch_format="pyarrow",
        )
        .select_columns(["doc_id", "shingles", "band_keys"])
        .sort("doc_id")
    )

    flagged_refs = []
    prev_add_refs: list = []
    chunks_this_run = 0
    unsnapshotted: list = []  # flagged refs since the last epoch
    try:
        for batch in sig.iter_batches(
            batch_size=chunk_rows, batch_format="pyarrow"
        ):
            import pyarrow.compute as pc

            ids = (
                batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            blobs = batch["shingles"].to_pylist()
            bands = (
                pc.list_flatten(batch["band_keys"])
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
                .reshape(len(ids), cfg.num_bands)
            )
            qb_refs = index.submit_query_bands(ids, bands)
            add_refs = index.submit_add(ids, blobs, bands)
            ref = _route_and_verify_chunk.remote(
                index.shards,
                n_shards,
                ids,
                blobs,
                threshold,
                len(qb_refs),
                *qb_refs,
                *prev_add_refs,
            )
            flagged_refs.append(ref)
            unsnapshotted.append(ref)
            prev_add_refs = add_refs
            seq += 1
            chunks_this_run += 1
            if (
                _crash_after_chunks is not None
                and chunks_this_run >= _crash_after_chunks
            ):
                raise RuntimeError(
                    "incremental_dedup_stream: simulated crash (test hook)"
                )
            if checkpoint_dir and seq % snapshot_every == 0:
                # epoch barrier: the LAST chunk's adds done on every
                # shard implies all earlier adds are too (actor tasks
                # run in submission order); the delta flagged rows are
                # bounded by snapshot_every chunks
                ray.get(prev_add_refs)
                delta = [t for t in ray.get(unsnapshotted) if t.num_rows]
                index.snapshot(
                    checkpoint_dir,
                    seq,
                    max_doc_id=int(ids[-1]),
                    flagged=(
                        pa.concat_tables(delta)
                        if delta
                        else OUT_SCHEMA.empty_table()
                    ),
                )
                unsnapshotted = []
            if len(flagged_refs) > max_inflight_chunks:
                # bounded pipeline: block until the chunk that is
                # max_inflight behind has fully verified
                ray.wait(
                    [flagged_refs[-max_inflight_chunks - 1]], num_returns=1
                )
        # the shard actors must outlive every in-flight verify call
        if flagged_refs:
            ray.wait(flagged_refs, num_returns=len(flagged_refs))
    finally:
        index.shutdown()
    parts = []
    if restored_flagged:
        parts.append(ray.data.read_parquet(restored_flagged))
    if flagged_refs:
        parts.append(ray.data.from_arrow_refs(flagged_refs))
    if not parts:
        return ray.data.from_arrow(OUT_SCHEMA.empty_table())
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def minhash_dedup_keep(
    docs_ds: "ray.data.Dataset",
    threshold: float = 0.8,
    config: SignatureConfig | None = None,
) -> "ray.data.Dataset":
    """Full near-dedup: returns (doc_id, cluster_id, keep) where keep
    marks the representative (min doc_id) of each near-dup cluster.

    The verified pairs go through ``stages/clustering.py``'s
    ``connected_components`` (driver union-find or the distributed
    loop, its choice), so cluster_id IS the component's min doc_id —
    the same canonical representative the keep rule uses: keep =
    (doc in no pair, cluster_id -1) or (doc_id == cluster_id)."""
    import pyarrow.compute as pc

    from clonehunter_ray.stages.clustering import (
        attach_labels,
        connected_components,
    )

    labels = connected_components(
        minhash_dedup_pairs(docs_ds, threshold, config), columns=("a_id", "b_id")
    )

    def finish(batch: pa.Table) -> pa.Table:
        lab = batch["label"]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "cluster_id": pc.cast(pc.fill_null(lab, -1), pa.int64()),
                "keep": pc.fill_null(pc.equal(batch["doc_id"], lab), True),
            }
        )

    return attach_labels(
        docs_ds.select_columns(["doc_id"]), labels, "doc_id"
    ).map_batches(finish, batch_format="pyarrow")


def simhash_dup_pairs(
    docs_ds: "ray.data.Dataset",
    max_hamming: int = 3,
    config: SignatureConfig | None = None,
    max_bucket_pairs: int = 100_000,
) -> "ray.data.Dataset":
    """Near-identical pairs by SimHash: band the 64-bit fingerprint
    into 4 x 16-bit chunks (pigeonhole: hamming<=3 pairs share at
    least one exact chunk), groupby chunk, verify hamming in-bucket.

    Hot buckets are capped like the MinHash path: a bucket whose
    all-pairs count would exceed ``max_bucket_pairs`` (e.g. a modal
    fingerprint — boilerplate or empty-shingle docs all hash to one
    value) emits a hub-spoke star from its min doc_id instead of
    O(n^2) pairs. Hamming distance is not transitive, so the star keeps
    only the docs within ``max_hamming`` of the hub connected; other
    near-identical docs in the bucket (even the mass of its most common
    fingerprint, when the hub is not part of it) may lose their pairs.
    Pair-level recall inside the capped bucket is traded for bounded
    memory, same contract as ``minhash_dedup_pairs``."""
    from clonehunter_ray.util import auto_actor_pool

    config = config or SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)
    sig = docs_ds.map_batches(
        DocSignatureStage,
        fn_constructor_kwargs={"config": config, "emit": ("simhash",)},
        concurrency=auto_actor_pool(),
        batch_size=256,
        batch_format="pyarrow",
    ).select_columns(["doc_id", "simhash"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        sh = np.asarray(batch["simhash"].to_pylist(), dtype=np.uint64)
        keys, out_ids, out_sh = [], [], []
        for chunk in range(4):
            part = (sh >> np.uint64(16 * chunk)) & np.uint64(0xFFFF)
            keys.append(part.astype(np.uint64) | (np.uint64(chunk) << np.uint64(32)))
            out_ids.append(ids)
            out_sh.append(sh)
        return pa.table(
            {
                "chunk_key": pa.array(np.concatenate(keys), pa.uint64()),
                "doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
                "simhash": pa.array(np.concatenate(out_sh), pa.uint64()),
            }
        )

    num_partitions = 64
    bands = sig.map_batches(explode, batch_format="pyarrow").map_batches(
        lambda t: t.append_column(
            "part",
            pa.array(
                (
                    t["chunk_key"].to_numpy(zero_copy_only=False)
                    % np.uint64(num_partitions)
                ).astype(np.int64),
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )

    def emit_partition(partition: pa.Table) -> pa.Table:
        """Buckets = runs of the sorted chunk_key; in-bucket hamming
        verification is vectorized per bucket member (popcount table)."""
        keys = partition["chunk_key"].to_numpy(zero_copy_only=False)
        ids = partition["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sh = partition["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ids, keys))
        keys, ids, sh = keys[order], ids[order], sh[order]
        _, starts, counts = np.unique(keys, return_index=True, return_counts=True)
        a, b, d = [], [], []
        for s, c in zip(starts[counts > 1], counts[counts > 1]):
            bid = ids[s : s + c]
            bsh = sh[s : s + c]
            uniq_idx = np.unique(bid, return_index=True)[1]
            bid, bsh = bid[uniq_idx], bsh[uniq_idx]
            n = len(bid)
            if n * (n - 1) // 2 > max_bucket_pairs:
                # hot bucket: hub-spoke star from the min doc_id (bid
                # is np.unique-sorted, so bid[0] is deterministic),
                # hamming-verified — O(n) memory instead of O(n^2)
                hams = H.hamming_distance_u64(
                    np.full(n - 1, bsh[0], dtype=np.uint64), bsh[1:]
                )
                hits = np.nonzero(hams <= max_hamming)[0]
                a.extend(int(bid[0]) for _ in hits)
                b.extend(int(bid[1 + h]) for h in hits)
                d.extend(int(hams[h]) for h in hits)
                continue
            for x in range(n - 1):
                hams = H.hamming_distance_u64(
                    np.full(n - x - 1, bsh[x], dtype=np.uint64),
                    bsh[x + 1 :],
                )
                hits = np.nonzero(hams <= max_hamming)[0]
                for h in hits:
                    a.append(int(bid[x]))
                    b.append(int(bid[x + 1 + h]))
                    d.append(int(hams[h]))
        return pa.table(
            {
                "a_id": pa.array(a, pa.int64()),
                "b_id": pa.array(b, pa.int64()),
                "hamming": pa.array(d, pa.int32()),
            }
        )

    pairs = bands.groupby("part").map_groups(emit_partition, batch_format="pyarrow")
    return pairs.map_batches(
        lambda t: t.append_column(
            "dpart",
            pa.array(
                (
                    (
                        t["a_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                        * np.uint64(0x9E3779B97F4A7C15)
                        ^ t["b_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                    )
                    % np.uint64(num_partitions)
                ).astype(np.int64),
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    ).groupby("dpart").map_groups(_dedupe_simhash_pairs_partition, batch_format="pyarrow")


_SIMHASH_PAIRS_SCHEMA = pa.schema(
    [("a_id", pa.int64()), ("b_id", pa.int64()), ("hamming", pa.int32())]
)


def _dedupe_simhash_pairs_partition(t: pa.Table) -> pa.Table:
    if t.num_rows == 0:
        return _SIMHASH_PAIRS_SCHEMA.empty_table()
    out = (
        t.select(["a_id", "b_id", "hamming"])
        .to_pandas()
        .sort_values("hamming")
        .drop_duplicates(["a_id", "b_id"])
    )
    return pa.Table.from_pandas(out, preserve_index=False).cast(
        _SIMHASH_PAIRS_SCHEMA
    )


def minhash_dedup_keep_best(
    docs_ds: "ray.data.Dataset",
    threshold: float = 0.8,
    config: SignatureConfig | None = None,
    num_partitions: int = 16,
) -> "ray.data.Dataset":
    """Quality-aware near-dedup keep list: within each near-dup cluster
    keep the HIGHEST-QUALITY document (ties -> min doc_id) instead of
    an arbitrary representative — the canonical LLM-training-data
    recipe (when several near-copies exist, keep the best one).

    Quality = n_tokens * distinct_ratio (length x lexical diversity)
    from the vectorized text_analysis quality kernel; monotonic in
    content, cheap, and deterministic.

    Distributed shape (no stage materializes the corpus):
    1. cluster labels from ``minhash_dedup_keep`` (the one
       connected-components routine; cluster_id = min doc_id);
    2. per-doc quality scored inside ``map_batches``;
    3. label + quality attached with ONE partitioned hash join;
    4. per-cluster winner via map-side partial argmax (one candidate
       row per cluster per block) -> tiny global groupby — only
       cluster-count rows cross the final shuffle;
    5. winners re-attached by a partitioned left-outer join on
       cluster_id; unclustered docs (cluster_id == -1) always keep.

    Returns (doc_id:int64, cluster_id:int64, quality:float64,
    keep:bool).
    """
    import pyarrow.compute as pc

    from clonehunter_ray.pipelines.text_analysis import quality_scores_batch
    from clonehunter_ray.util import safe_join, safe_join_partitions

    base = minhash_dedup_keep(docs_ds, threshold, config).select_columns(
        ["doc_id", "cluster_id"]
    )

    def score(batch: pa.Table) -> pa.Table:
        q = quality_scores_batch(batch)
        quality = q["n_tokens"].to_numpy(zero_copy_only=False).astype(
            np.float64
        ) * q["distinct_ratio"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                # q_-prefixed: Ray's hash join needs distinct key names
                # on the two sides
                "q_doc_id": q["doc_id"].cast(pa.int64()),
                "quality": pa.array(quality, pa.float64()),
            }
        )

    quality = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )
    nj = safe_join_partitions(num_partitions)
    labeled = (
        safe_join(
            base, quality, "inner", nj, on=("doc_id",), right_on=("q_doc_id",)
        )
        .select_columns(["doc_id", "cluster_id", "quality"])
        # consumed twice (winner partials + final attach): materialize
        # the NARROW table (3 scalar cols, ~20 B/row — spills fine)
        # instead of executing the label+quality join twice
        .materialize()
    )

    # ONE schema for the partials AND the reduce output: Ray's groupby
    # emits empty partitions with the pre-group schema without calling
    # the UDF, and the downstream join concatenates right-side blocks —
    # any schema drift between UDF blocks and passed-through empties
    # breaks it. best_quality rides along (harmlessly) for that reason.
    _WINNER_SCHEMA = pa.schema(
        [
            ("w_cluster_id", pa.int64()),
            ("best_doc", pa.int64()),
            ("best_quality", pa.float64()),
        ]
    )

    def _first_per_cluster(
        cl: np.ndarray, ids: np.ndarray, qv: np.ndarray
    ) -> pa.Table:
        """First row per cluster after (quality desc, doc_id asc)."""
        order = np.lexsort((ids, -qv, cl))
        _, first = np.unique(cl[order], return_index=True)
        take = order[first]
        return pa.table(
            {
                "w_cluster_id": pa.array(cl[take], pa.int64()),
                "best_doc": pa.array(ids[take], pa.int64()),
                "best_quality": pa.array(qv[take], pa.float64()),
            }
        )

    def partial_best(batch: pa.Table) -> pa.Table:
        cl = batch["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = cl != -1
        if not mask.any():
            return _WINNER_SCHEMA.empty_table()
        return _first_per_cluster(
            cl[mask],
            batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)[mask],
            batch["quality"].to_numpy(zero_copy_only=False)[mask],
        )

    def global_best(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _WINNER_SCHEMA.empty_table()
        return _first_per_cluster(
            group["w_cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            group["best_doc"].to_numpy(zero_copy_only=False).astype(np.int64),
            group["best_quality"].to_numpy(zero_copy_only=False),
        )

    winners = (
        labeled.map_batches(partial_best, batch_format="pyarrow")
        .groupby("w_cluster_id")
        .map_groups(global_best, batch_format="pyarrow")
        # Ray's map_groups emits ZERO-SCHEMA empty blocks for empty sort
        # partitions and map_batches skips empty blocks, so the schema
        # can't be repaired in-stream; repartition rebuilds blocks from
        # rows, dropping the poisoned empties before the hash join.
        # Winners are one row per cluster — the repartition is tiny.
        .repartition(nj)
    )

    from clonehunter_ray.util import left_attach_or_nulls

    # a dup-free corpus has NO clusters -> winners is globally empty,
    # which crashes Ray's hash join (see util.left_attach_or_nulls)
    out = left_attach_or_nulls(
        labeled,
        winners,
        nj,
        on=("cluster_id",),
        right_on=("w_cluster_id",),
        right_schema=_WINNER_SCHEMA,
    )

    def finish(batch: pa.Table) -> pa.Table:
        cl = batch["cluster_id"]
        keep = pc.or_kleene(
            pc.equal(cl, -1),
            pc.equal(batch["doc_id"], pc.fill_null(batch["best_doc"], -2)),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "cluster_id": cl.cast(pa.int64()),
                "quality": batch["quality"].cast(pa.float64()),
                "keep": pc.cast(keep, pa.bool_()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def cdc_chunk_dedup_documents(
    docs: "ray.data.Dataset", min_docs: int = 2
) -> "ray.data.Dataset":
    """Content-defined-chunking dedup report: chunk every document with
    a Rabin-style rolling-hash chunker (functions/cdc.py) and report
    each chunk whose content appears in >= ``min_docs`` DISTINCT
    documents — the shift-resistant storage-dedup complement to the
    fixed-token-window ``segment_dedup``: an inserted prefix shifts at
    most one chunk, so shared suffixes of near-identical web pages
    still collide.

    Ray shape: one stateless chunk pass emitting per-batch
    (chunk_hash, chunk_len, partial-distinct-docs, partial-occurrences)
    partials — each document lives in exactly one input block, so
    per-batch distinct-doc counts SUM to the true corpus-wide distinct
    count (same argument as frequent_gram_stats' df partials); one
    groupby('chunk_hash') exchange over hash-sized rows (payload text
    never shuffles); a stateless threshold filter finishes. Output:
    (chunk_hash, chunk_len, n_docs, n_occ).
    """
    from ray.data.aggregate import Max, Sum

    from clonehunter_ray.functions import cdc

    parts_schema = pa.schema(
        [
            ("chunk_hash", pa.string()),
            ("chunk_len", pa.int64()),
            ("pd_docs", pa.int64()),
            ("pd_occ", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        doc_ord, _, digests, lengths = cdc.cdc_chunks_batch(texts)
        if len(digests) == 0:
            return parts_schema.empty_table()
        df = pd.DataFrame(
            {"chunk_hash": digests, "chunk_len": lengths, "doc": doc_ord}
        )
        g = (
            df.groupby(["chunk_hash", "chunk_len"], sort=False)
            .agg(pd_docs=("doc", "nunique"), pd_occ=("doc", "size"))
            .reset_index()
        )
        return pa.Table.from_pandas(
            g, schema=parts_schema, preserve_index=False
        ).replace_schema_metadata(None)

    out_schema = pa.schema(
        [
            ("chunk_hash", pa.string()),
            ("chunk_len", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_occ", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        t = pa.table(
            {
                "chunk_hash": batch["chunk_hash"],
                "chunk_len": batch["max(chunk_len)"].cast(pa.int64()),
                "n_docs": batch["sum(pd_docs)"].cast(pa.int64()),
                "n_occ": batch["sum(pd_occ)"].cast(pa.int64()),
            },
            schema=out_schema,
        )
        import pyarrow.compute as pc

        mask = pc.greater_equal(t["n_docs"], min_docs)
        return t.filter(mask)

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("chunk_hash")
        .aggregate(Sum("pd_docs"), Sum("pd_occ"), Max("chunk_len"))
        .map_batches(finish, batch_format="pyarrow")
    )
