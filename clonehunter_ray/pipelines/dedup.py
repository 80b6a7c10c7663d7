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
from clonehunter_ray.util import cached_stage


_DEFAULT_CONFIG = SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)


class DocSignatureStage:
    """Stateful stage: text -> shingle set + minhash bands + simhash.
    Pipelines run it as tasks through ``doc_signatures_task``.

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
        self.config = config or _DEFAULT_CONFIG
        self.hasher = (
            H.MinHasher(self.config.num_perm, self.config.seed)
            if "bands" in emit
            else None
        )
        self.emit = emit

    def __call__(self, batch: pa.Table) -> pa.Table:
        from clonehunter_ray.stages.signatures import (
            _binary_from_flat_u64,
            _list_from_matrix_u64,
        )

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
            cols["band_keys"] = _list_from_matrix_u64(bands)
        if "simhash" in self.emit:
            cols["simhash"] = pa.array(
                H.simhash_from_flat(flat_sh, sh_counts), pa.uint64()
            )
        return pa.table(cols)


def doc_signatures_task(
    batch: pa.Table, config: SignatureConfig, emit: tuple[str, ...]
) -> pa.Table:
    """``map_batches`` task form of ``DocSignatureStage``: one stage per
    ``(config, emit)`` per worker process (util.cached_stage)."""
    return cached_stage(DocSignatureStage, config, emit)(batch)


def _doc_signatures(
    docs_ds: "ray.data.Dataset", config: SignatureConfig, emit: tuple[str, ...]
) -> "ray.data.Dataset":
    return docs_ds.map_batches(
        doc_signatures_task,
        fn_kwargs={"config": config, "emit": emit},
        batch_size=256,
        batch_format="pyarrow",
    )


def minhash_dedup_pairs(
    docs_ds: "ray.data.Dataset",
    threshold: float = 0.8,
    config: SignatureConfig | None = None,
    num_partitions: int = 64,
    max_bucket_pairs_full: int = 1024,
    metrics=None,
) -> "ray.data.Dataset":
    """Verified near-duplicate pairs (jaccard >= threshold) via
    MinHash-LSH, mirroring the scan pipeline's shape: ids-only band
    shuffle -> hash-partitioned vectorized pair generation (hot
    buckets: hub-spoke star + salted re-band, ``capped`` flag
    propagated to the output for recall accounting) -> pair dedup
    (stages/candidates.band_pairs) -> shingle payload attach
    (stages/candidates.attach_pair_payload: plasma broadcast when the
    signature table fits its one size rule, partitioned hash joins
    above) -> exact Jaccard verification in ``map_batches``.
    """
    from clonehunter_ray.stages.candidates import (
        attach_pair_payload,
        band_pairs,
        emit_pairs_partition,
        explode_bands,
    )

    config = config or _DEFAULT_CONFIG
    # materialized: reused by the band shuffle AND the payload attach
    sig = _doc_signatures(docs_ds, config, ("shingles", "bands")).materialize()

    pairs = band_pairs(
        sig.select_columns(["doc_id", "band_keys"]).map_batches(
            explode_bands, fn_kwargs={"id_col": "doc_id"}, batch_format="pyarrow"
        ),
        lambda g: emit_pairs_partition(
            g,
            "doc_id",
            max_bucket_pairs_full,
            config.skew_mode,
            config.salt_rounds,
            metrics,
        ),
        num_partitions,
    )
    verified_schema = pa.schema(
        [
            ("a_id", pa.int64()),
            ("b_id", pa.int64()),
            ("jaccard", pa.float64()),
            ("capped", pa.bool_()),
        ]
    )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return verified_schema.empty_table()
        # one vectorized lexsort kernel replaces the per-pair
        # frombuffer+intersect loop (functions/hashing.jaccard_batch)
        jac = H.jaccard_batch(batch["a_shingles"], batch["b_shingles"])
        sel = np.flatnonzero(jac >= threshold)
        return pa.table(
            {
                "a_id": batch["a_id"].take(sel),
                "b_id": batch["b_id"].take(sel),
                "jaccard": pa.array(jac[sel], pa.float64()),
                "capped": batch["capped"].take(sel),
            },
            schema=verified_schema,
        )

    return attach_pair_payload(
        pairs, sig, "doc_id", ["shingles"], num_partitions
    ).map_batches(verify, batch_format="pyarrow")


def incremental_dedup_stream(
    docs_ds: "ray.data.Dataset",
    threshold: float = 0.8,
    chunk_rows: int = 200,
    n_shards: int = 4,
    config: SignatureConfig | None = None,
    checkpoint_dir: str | None = None,
    snapshot_every: int = 50,
    _crash_after_chunks: int | None = None,
) -> "ray.data.Dataset":
    """Streaming-ingest near-dedup: documents arrive in doc_id order in
    chunks of ``chunk_rows``; each chunk is checked against everything
    indexed BEFORE it (state/lsh_index's shard actors), returning
    (doc_id, dup_of, jaccard) with dup_of the EARLIEST matching indexed
    doc — the append-only semantics the batch re-band pipelines can't
    express.

    The unit of work is the epoch: a window of ``snapshot_every``
    chunks. Signature hashing runs as distributed tasks BEFORE the
    ingest-order sort; the driver then hands each window to
    ``ShardedLshIndex.ingest`` — one ``ingest`` and one ``put`` call per
    shard, then candidate dedup, owner-side exact verification and the
    keep-earliest reduction inline. Every posting carries its chunk's
    ingest number, and a candidate counts only when that number is
    below the querying row's, so windows give exactly the results of
    query-then-add per chunk. The flagged rows (at most one per
    document) come back as a ``ray.data.Dataset``.

    Checkpoint/resume (``checkpoint_dir``): after every window each
    shard actor persists its full postings+payload state to
    partitioned parquet (worker-side writes), the window's flagged
    rows land beside it as the delta since the previous epoch, and a
    manifest written last commits the epoch. A restarted run restores
    the newest complete epoch (its postings count as earlier than any
    new chunk), prunes already-ingested docs AT THE READ
    (``doc_id > max_doc_id`` pushdown — windows are doc_id-sorted, so
    the epoch cut is a clean chunk boundary), and returns checkpointed
    flagged rows unioned with the re-run tail — identical to an
    uninterrupted run. ``_crash_after_chunks`` is a test hook
    simulating driver death mid-ingest: it fires at the end of the
    first window that reaches that many chunks, before its snapshot.
    """
    import os

    from clonehunter_ray.state.lsh_index import OUT_SCHEMA, ShardedLshIndex

    cfg = config or _DEFAULT_CONFIG
    index = ShardedLshIndex(n_shards=n_shards, config=cfg)

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
            docs_ds = docs_ds.filter(
                expr=f"doc_id > {int(resume['max_doc_id'])}"
            )
            restored_flagged = [
                f
                for m in index.list_epochs(checkpoint_dir)
                if m["seq"] <= index.seq
                for f in [os.path.join(m["epoch_dir"], "flagged.parquet")]
                if os.path.exists(f)
            ]

    # distributed signature stage FIRST, ingest-order sort LAST (the
    # sort being the final op keeps iter_batches in sorted order even
    # with preserve_order off)
    sig = (
        _doc_signatures(
            docs_ds.select_columns(["doc_id", "text"]), cfg, ("shingles", "bands")
        )
        .select_columns(["doc_id", "shingles", "band_keys"])
        .sort("doc_id")
    )

    # flagged rows wait in the object store, not on the driver
    flagged_refs = [ray.put(OUT_SCHEMA.empty_table())]
    first_seq = index.seq
    try:
        for window in sig.iter_batches(
            batch_size=snapshot_every * chunk_rows, batch_format="pyarrow"
        ):
            flagged = index.ingest(window, chunk_rows, threshold)
            flagged_refs.append(ray.put(flagged))
            if (
                _crash_after_chunks is not None
                and index.seq - first_seq >= _crash_after_chunks
            ):
                raise RuntimeError(
                    "incremental_dedup_stream: simulated crash (test hook)"
                )
            if checkpoint_dir:
                index.snapshot(
                    checkpoint_dir,
                    index.seq,
                    max_doc_id=window["doc_id"][-1].as_py(),
                    flagged=flagged,
                )
    finally:
        index.shutdown()
    out = ray.data.from_arrow_refs(flagged_refs)
    if restored_flagged:
        out = ray.data.read_parquet(restored_flagged).union(out)
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

    from clonehunter_ray.stages.candidates import attach_by_key
    from clonehunter_ray.stages.clustering import connected_components

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

    return attach_by_key(
        docs_ds.select_columns(["doc_id"]),
        labels,
        "unit_id",
        ["label"],
        on="doc_id",
        how="left",
        schema=pa.schema([("unit_id", pa.int64()), ("label", pa.int64())]),
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
    memory, same contract as ``minhash_dedup_pairs``. The chunk buckets
    go through the one LSH pair shuffle (stages/candidates.band_pairs
    and emit_pairs_partition in ``star`` mode)."""
    from clonehunter_ray.stages import candidates

    sig = _doc_signatures(
        docs_ds, config or _DEFAULT_CONFIG, ("simhash",)
    ).select_columns(["doc_id", "simhash"])

    def explode(batch: pa.Table) -> pa.Table:
        sh = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keys = [
            ((sh >> np.uint64(16 * chunk)) & np.uint64(0xFFFF))
            | (np.uint64(chunk) << np.uint64(32))
            for chunk in range(4)
        ]
        rows = pa.array(np.tile(np.arange(batch.num_rows), 4))
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys), pa.uint64()),
                "doc_id": batch["doc_id"].take(rows),
                "simhash": batch["simhash"].take(rows),
            }
        )

    def emit(partition: pa.Table) -> pa.Table:
        """Bucket pairs (star from the min doc_id over the cap), each
        hamming-verified against the partition's fingerprints."""
        pairs = candidates.emit_pairs_partition(
            partition, "doc_id", max_bucket_pairs, "star", 0
        )
        ids = partition["doc_id"].to_numpy(zero_copy_only=False)
        sh = partition["simhash"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids, sh = ids[order], sh[order]

        def fp(col: str) -> np.ndarray:
            pos = np.searchsorted(ids, pairs[col].to_numpy(zero_copy_only=False))
            return sh[pos].astype(np.uint64)

        hams = H.hamming_distance_u64(fp("a_id"), fp("b_id"))
        hit = hams <= max_hamming
        return pa.table(
            {
                "a_id": pairs["a_id"].filter(hit),
                "b_id": pairs["b_id"].filter(hit),
                "hamming": pa.array(hams[hit], pa.int32()),
            }
        )

    return candidates.band_pairs(
        sig.map_batches(explode, batch_format="pyarrow"), emit, num_partitions=64
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
    3. quality attached to the labels by ``attach_by_key`` on doc_id;
    4. per-cluster winner via map-side partial argmax (one candidate
       row per cluster per block) -> tiny global groupby — only
       cluster-count rows cross the final shuffle;
    5. winners attached back by a left ``attach_by_key`` on
       cluster_id; unclustered docs (cluster_id == -1) always keep.

    Returns (doc_id:int64, cluster_id:int64, quality:float64,
    keep:bool).
    """
    import pyarrow.compute as pc

    from clonehunter_ray.pipelines.text_analysis import quality_scores_batch
    from clonehunter_ray.stages.candidates import attach_by_key

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
                "doc_id": q["doc_id"].cast(pa.int64()),
                "quality": pa.array(quality, pa.float64()),
            }
        )

    quality = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )
    # consumed twice (winner partials + final attach): materialize the
    # NARROW table (3 scalar cols, ~20 B/row — spills fine) instead of
    # executing the label+quality attach twice
    labeled = attach_by_key(
        base, quality, "doc_id", ["quality"], on="doc_id",
        num_partitions=num_partitions,
    ).materialize()

    # ONE schema for the partials AND the reduce output: Ray's groupby
    # emits empty partitions with the pre-group schema without calling
    # the UDF, so a UDF block must not drift from it. best_quality is
    # the reduce's input.
    _WINNER_SCHEMA = pa.schema(
        [
            ("cluster_id", pa.int64()),
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
                "cluster_id": pa.array(cl[take], pa.int64()),
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
            group["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            group["best_doc"].to_numpy(zero_copy_only=False).astype(np.int64),
            group["best_quality"].to_numpy(zero_copy_only=False),
        )

    winners = (
        labeled.map_batches(partial_best, batch_format="pyarrow")
        .groupby("cluster_id")
        .map_groups(global_best, batch_format="pyarrow")
    )
    # a dup-free corpus has no clusters, so no winners: attach_by_key
    # gives every row a null best_doc
    out = attach_by_key(
        labeled,
        winners,
        "cluster_id",
        ["best_doc"],
        on="cluster_id",
        how="left",
        num_partitions=num_partitions,
        schema=_WINNER_SCHEMA,
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
