"""Similarity search over embedding columns (training-data extras).

* brute-force cosine top-k (queries.knn_cosine_topk is the
  SQL-checkable instance) — broadcast query matrix, per-batch matmul.
* LSH-bucketed variant (random-hyperplane signs) — the scale path: a
  query only probes its bucket +/- multi-probe neighbors instead of
  the full corpus.
* embedding-cosine near-dup pairs — all-pairs above a cosine threshold
  via the same hyperplane-LSH bucketing (used as a dedup signal).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from clonehunter_ray.functions import hashing as H
from clonehunter_ray.functions import veccodec as V
from clonehunter_ray.stages.topk import top_k


def _hyperplanes(dim: int, n_bits: int, seed: int) -> np.ndarray:
    rng = np.random.RandomState(seed)
    h = rng.normal(size=(n_bits, dim))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def _bucket_of(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0
    out = np.zeros(len(mat), dtype=np.uint64)
    for b in range(planes.shape[0]):
        out |= bits[:, b].astype(np.uint64) << np.uint64(b)
    return out


def _query_matrix(queries) -> np.ndarray:
    """Row-normalized float64 query matrix with the same guards as
    every corpus-side normalization: loud error on an empty match set
    (np.stack would raise a cryptic 'need at least one array'), and
    the 1e-12 zero-norm clamp (a zero embedding otherwise yields NaN
    cosines and garbage top-k ordering)."""
    if len(queries) == 0:
        raise ValueError("query_ids matched no corpus vectors")
    q_mat = np.stack(queries["embedding"].to_numpy()).astype(np.float64)
    return q_mat / np.maximum(
        np.linalg.norm(q_mat, axis=1, keepdims=True), 1e-12
    )


def _uniform_sample_embeddings(emb_ds, n: int):
    """Deterministic UNIFORM sample of ``n`` rows for quantizer
    training: priority = mixed hash of vec_id, keep the n smallest. A
    ``limit(n)`` prefix is NOT uniform — parquet written in
    topic/source order would train every centroid on the first topic
    and collapse the rest into a few far cells. Ray shape: a priority
    map, then ``stages/topk.top_k`` (a per-batch combiner, one bounded
    sort over <= n x n_blocks survivors); rows come back in priority
    order."""
    from clonehunter_ray.functions.hashing import _mix64

    def priority(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pri = _mix64(ids.astype(np.uint64))
        return batch.append_column("_pri", pa.array(pri, pa.uint64()))

    return top_k(
        emb_ds.map_batches(priority, batch_format="pyarrow"),
        [("_pri", "ascending"), ("vec_id", "ascending")],
        n,
        project=lambda t: t.drop_columns(["_pri"]),
    )


def lsh_knn_cosine(
    emb_ds: "ray.data.Dataset",
    query_ids: list[int],
    k: int = 10,
    n_bits: int = 8,
    seed: int = 17,
):
    """Approximate top-k: random-hyperplane LSH buckets; each corpus
    vector lands in 1 bucket, each query probes its own bucket plus all
    1-bit-flip neighbors (multi-probe). Returns
    (query_id, vec_id, rank, cos5) like the brute-force baseline."""
    wanted = np.asarray(sorted(query_ids), dtype=np.int64)

    def _pick(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, wanted), pa.bool_()))

    queries = emb_ds.map_batches(_pick, batch_format="pyarrow").to_pandas()
    q_mat = _query_matrix(queries)
    planes = _hyperplanes(q_mat.shape[1], n_bits, seed)
    q_buckets = _bucket_of(q_mat, planes)
    probe: dict[int, list[int]] = {}
    for qi, qb in enumerate(q_buckets):
        buckets = [int(qb)] + [int(qb) ^ (1 << b) for b in range(n_bits)]
        for bkt in buckets:
            probe.setdefault(bkt, []).append(qi)
    ref = ray.put((queries["vec_id"].to_numpy(), q_mat, probe, planes))

    def score(batch: pa.Table) -> pa.Table:
        q_ids, qm, probe_map, pl = ray.get(ref)
        vec_ids, matn = V.normalized_matrix(batch)
        buckets = _bucket_of(matn, pl)
        out_q, out_v, out_s = [], [], []
        for bkt in np.unique(buckets):
            qis = probe_map.get(int(bkt))
            if not qis:
                continue
            rows = np.flatnonzero(buckets == bkt)
            sims = matn[rows] @ qm[qis].T
            for c, qi in enumerate(qis):
                out_q.extend([int(q_ids[qi])] * len(rows))
                out_v.extend(vec_ids[rows].tolist())
                out_s.extend(sims[:, c].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos": pa.array(out_s, pa.float64()),
            }
        )

    def emit(t: pa.Table) -> pa.Table:
        cos5 = pa.array(t["cos"].to_numpy().round(5), pa.float64())
        return t.select(["query_id", "vec_id", "rank"]).append_column("cos5", cos5)

    return top_k(
        emb_ds.map_batches(score, batch_format="pyarrow"),
        [("cos", "descending"), ("vec_id", "ascending")],
        k,
        by="query_id",
        rank="rank",
        project=emit,
    )


def ivf_knn_cosine(
    emb_ds: "ray.data.Dataset",
    query_ids: list[int],
    k: int = 10,
    n_cells: int = 16,
    nprobe: int = 4,
    seed: int = 29,
    train_sample: int = 2048,
):
    """IVF-flavored approximate top-k (reference FaissIndex IVFFlat
    semantics, index/faiss_index.py:11-62): k-means coarse quantizer
    trained driver-side on a bounded sample, centroids broadcast via
    ray.put, every corpus vector assigned to its nearest cell inside
    ``map_batches``, and each query scored only against vectors in its
    ``nprobe`` closest cells. Returns (query_id, vec_id, rank)."""
    wanted = np.asarray(sorted(query_ids), dtype=np.int64)

    def _pick(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, wanted), pa.bool_()))

    queries = emb_ds.map_batches(_pick, batch_format="pyarrow").to_pandas()
    q_ids = queries["vec_id"].to_numpy()
    q_mat = _query_matrix(queries)

    # train the coarse quantizer on a bounded sample (driver-side —
    # the sample is small by construction; the corpus never collects)
    sample = _uniform_sample_embeddings(emb_ds, train_sample).to_pandas()
    s_mat = np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    s_mat = s_mat / np.maximum(
        np.linalg.norm(s_mat, axis=1, keepdims=True), 1e-12
    )
    rng = np.random.RandomState(seed)
    n_cells = min(n_cells, len(s_mat))
    centroids = s_mat[rng.choice(len(s_mat), n_cells, replace=False)]
    for _ in range(10):  # spherical k-means
        assign = np.argmax(s_mat @ centroids.T, axis=1)
        for c in range(n_cells):
            members = s_mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n

    # per-query probe set
    q_cells = np.argsort(-(q_mat @ centroids.T), axis=1)[:, :nprobe]
    cell_to_queries: dict[int, list[int]] = {}
    for qi, cells in enumerate(q_cells):
        for c in cells:
            cell_to_queries.setdefault(int(c), []).append(qi)
    ref = ray.put((q_ids, q_mat, centroids, cell_to_queries))

    def score(batch: pa.Table) -> pa.Table:
        ids_, qm, cents, c2q = ray.get(ref)
        vec_ids, matn = V.normalized_matrix(batch)
        cells = np.argmax(matn @ cents.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for c in np.unique(cells):
            qis = c2q.get(int(c))
            if not qis:
                continue
            rows = np.flatnonzero(cells == c)
            sims = matn[rows] @ qm[qis].T
            for col, qi in enumerate(qis):
                out_q.extend([int(ids_[qi])] * len(rows))
                out_v.extend(vec_ids[rows].tolist())
                out_s.extend(sims[:, col].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos": pa.array(out_s, pa.float64()),
            }
        )

    return top_k(
        emb_ds.map_batches(score, batch_format="pyarrow"),
        [("cos", "descending"), ("vec_id", "ascending")],
        k,
        by="query_id",
        rank="rank",
        project=lambda t: t.select(["query_id", "vec_id", "rank"]),
    )


def embedding_near_dup_pairs(
    emb_ds: "ray.data.Dataset",
    threshold: float = 0.95,
    n_bits: int = 6,
    seed: int = 23,
):
    """Embedding-cosine near-dup pairs: hyperplane-LSH bucket groupby,
    exact cosine verification within buckets (a vector is assigned to
    its bucket and every 1-bit-flip neighbor so pairs within hamming 1
    of each other collide).

    Shuffle shape: the bucket explode carries ONLY (bucket, vec_id) —
    the normalized vectors stay in a plasma-resident broadcast table
    (x(n_bits+1) bucket variants would otherwise multiply the vector
    payload through the exchange); each bucket group attaches its rows
    zero-copy and verifies with one Gram matmul."""
    from clonehunter_ray.stages.candidates import (
        dedupe_pairs,
        get_broadcast_payload,
        make_broadcast_handle,
    )

    def normalize(batch: pa.Table) -> pa.Table:
        _, matn = V.normalized_matrix(batch)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "vecn": V.matrix_blob_array(matn),
            }
        )

    norm = emb_ds.select_columns(["vec_id", "embedding"]).map_batches(
        normalize, batch_format="pyarrow"
    ).materialize()  # reused by the bucket shuffle AND the payload attach
    handle = make_broadcast_handle(norm, ["vec_id", "vecn"], key_col="vec_id")

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                }
            )
        matn = V.blob_matrix(batch["vecn"])
        planes = _hyperplanes(matn.shape[1], n_bits, seed)
        buckets = _bucket_of(matn, planes)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # each vector lands in its own bucket + every 1-bit flip
        variants = np.empty((len(ids), n_bits + 1), dtype=np.int64)
        variants[:, 0] = buckets
        for b in range(n_bits):
            variants[:, b + 1] = buckets ^ (1 << b)
        return pa.table(
            {
                "bucket": pa.array(variants.ravel(), pa.int64()),
                "vec_id": pa.array(np.repeat(ids, n_bits + 1), pa.int64()),
            }
        )

    bands = norm.map_batches(assign, batch_format="pyarrow")

    _PAIRS_SCHEMA = pa.schema(
        [("a_id", pa.int64()), ("b_id", pa.int64()), ("cos5", pa.float64())]
    )

    def emit(group: pa.Table) -> pa.Table:
        """Gram verification in ROW BLOCKS: compute (block x n) slabs
        of the bucket's Gram matrix instead of the full n x n (and its
        n^2/2 triu index arrays), bounding worker memory to ~64 MB per
        slab regardless of bucket size — a modal bucket (e.g. one
        dense region holding 100k vectors over the 2^n_bits bucket
        domain) previously allocated multi-GB gram + index arrays.
        Compute stays O(|bucket|^2) — that is the exact-verification
        semantic of the LSH bucket, same contract as SemDeDup's
        per-cluster prune. Vectors come from the broadcast table
        (zero-copy plasma map)."""
        ids = np.unique(
            group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        n = len(ids)
        if n < 2:
            return _PAIRS_SCHEMA.empty_table()
        table, idx = get_broadcast_payload(handle)
        rows = [idx[int(i)] for i in ids]
        mat = V.blob_matrix(table["vecn"].take(pa.array(rows, pa.int64())))
        block = max(64, min(4096, (64 << 20) // (8 * n)))
        out_a, out_b, out_c = [], [], []
        for s in range(0, n - 1, block):
            e = min(s + block, n)
            g = mat[s:e] @ mat.T  # (block, n) slab
            ii, jj = np.nonzero(g >= threshold)
            keep = (ii + s) < jj  # upper triangle only
            ii, jj = ii[keep], jj[keep]
            out_a.append(ids[ii + s])
            out_b.append(ids[jj])
            out_c.append(np.round(g[ii, jj], 5))
        if not out_a:
            return _PAIRS_SCHEMA.empty_table()
        return pa.table(
            {
                "a_id": pa.array(np.concatenate(out_a), pa.int64()),
                "b_id": pa.array(np.concatenate(out_b), pa.int64()),
                "cos5": pa.array(np.concatenate(out_c), pa.float64()),
            },
            schema=_PAIRS_SCHEMA,
        )

    # cross-bucket pair dedup: a pair colliding in several bit-flip
    # buckets comes out once (stages/candidates.dedupe_pairs)
    return dedupe_pairs(
        bands.groupby("bucket").map_groups(emit, batch_format="pyarrow"), 32
    )


# -- exact all-pairs baseline -------------------------------------------------

_EXACT_PAIR_MATRIX_CACHE: dict = {}


def embedding_cosine_pairs_exact(
    emb_ds: "ray.data.Dataset", threshold: float = 0.4, ids_only: bool = False
):
    """Exact all-pairs embedding cosine >= threshold — the brute-force,
    oracle-checkable counterpart of ``embedding_near_dup_pairs`` (the
    hyperplane-LSH scale path, whose recall pytest pins against this
    function on identical inputs).

    Shape: the normalized corpus is broadcast ONCE as a plasma combined
    table (``make_broadcast_handle`` — blocks never funnel through the
    driver); each ``map_batches`` task computes its block-row of the
    Gram matrix against the broadcast matrix and keeps ``a_id < b_id``
    pairs, so every pair is emitted exactly once and no shuffle or
    driver-side collection happens anywhere. This is the documented
    QUADRATIC baseline: O(n^2 / blocks) work per task, viable exactly as
    long as the corpus matrix fits the object store — the same
    assumption brute-force kNN makes. Past that, use the LSH path.

    Output: (a_id:int64, b_id:int64, cos5:float64). For cross-engine
    value checks compare only the integer id columns — DuckDB's
    ``list_cosine_similarity`` computes in float32, so float scores
    can't hash-match across engines (same caveat as knn_cosine_topk).
    """
    from clonehunter_ray.stages.candidates import (
        get_broadcast_payload,
        make_broadcast_handle,
    )

    def normalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "vecn": pa.array([], pa.binary()),
                }
            )
        _, matn = V.normalized_matrix(batch)
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "vecn": V.matrix_blob_array(matn),
            }
        )

    norm = (
        emb_ds.select_columns(["vec_id", "embedding"])
        .map_batches(normalize, batch_format="pyarrow")
        .materialize()  # consumed twice: broadcast handle + block-row scan
    )
    handle = make_broadcast_handle(norm, ["vec_id", "vecn"], key_col="vec_id")

    # ids_only drops the float score INSIDE the single emit stage: a
    # downstream projection would leave the executor's empty-block
    # pass-through emitting mixed schemas (and DuckDB cross-checks can
    # only hash-match integer columns anyway — its
    # list_cosine_similarity runs in float32).
    fields = [("a_id", pa.int64()), ("b_id", pa.int64())]
    if not ids_only:
        fields.append(("cos5", pa.float64()))
    _SCHEMA = pa.schema(fields)

    def _corpus_matrix() -> tuple[np.ndarray, np.ndarray]:
        """Decode the broadcast table to (ids, matrix) once per worker
        process; keyed by the handle's uuid like _PAYLOAD_CACHE."""
        key = handle[0]
        cached = _EXACT_PAIR_MATRIX_CACHE.get(key)
        if cached is None:
            payload, _ = get_broadcast_payload(handle, need_index=False)
            ids = payload["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            mat = V.blob_matrix(payload["vecn"])
            _EXACT_PAIR_MATRIX_CACHE.clear()  # one live handle per worker
            cached = (ids, mat)
            _EXACT_PAIR_MATRIX_CACHE[key] = cached
        return cached

    def emit(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _SCHEMA.empty_table()
        all_ids, all_mat = _corpus_matrix()
        if len(all_ids) == 0:
            return _SCHEMA.empty_table()
        my_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        my_mat = V.blob_matrix(batch["vecn"])
        sims = my_mat @ all_mat.T  # (block rows, corpus)
        keep = (sims >= threshold) & (my_ids[:, None] < all_ids[None, :])
        ai, bj = np.nonzero(keep)
        cols = {
            "a_id": pa.array(my_ids[ai], pa.int64()),
            "b_id": pa.array(all_ids[bj], pa.int64()),
        }
        if not ids_only:
            cols["cos5"] = pa.array(np.round(sims[ai, bj], 5), pa.float64())
        return pa.table(cols)

    return norm.map_batches(emit, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SemDeDup: distributed k-means + per-cluster semantic-duplicate pruning
# (Abbas et al. 2023, "SemDeDup: Data-efficient learning at web-scale
# through semantic deduplication", arXiv:2303.09540)
# ---------------------------------------------------------------------------

_KM_PARTIAL_SCHEMA = pa.schema(
    [("cluster", pa.int64()), ("n", pa.int64()), ("vsum", pa.binary())]
)
_KM_INIT_SCHEMA = pa.schema(
    [("vec_id", pa.int64()), ("rank", pa.string()), ("vecn", pa.binary())]
)
_SEM_ASSIGN_SCHEMA = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("cluster", pa.int64()),
        ("centroid_cos5", pa.float64()),
        ("vecn", pa.binary()),
    ]
)


def _normalized_f64(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids, row-normalized float64 matrix) for one Arrow batch —
    zero-copy ``veccodec`` ingest (the round-4 ``weak`` fix: the old
    ``to_pylist`` path materialized every vector as Python floats on
    EVERY corpus pass, and kmeans re-scans the corpus iters+2 times)."""
    return V.normalized_matrix(batch)


def kmeans_embeddings(
    emb_ds: "ray.data.Dataset", k: int = 8, iters: int = 6, seed: int = 31
) -> np.ndarray:
    """Distributed spherical k-means (Lloyd's) over the FULL corpus —
    unlike ``ivf_knn_cosine``'s bounded-sample coarse quantizer, every
    iteration is one streaming pass: centroids broadcast once via
    ``ray.put``, ``map_batches`` emits one (cluster, count, float64-sum
    blob) partial row per non-empty cluster per batch, a batched
    combine pass tree-reduces the partials WITHOUT a shuffle, and only
    ~k rows ever reach the driver. Init is the k corpus vectors with
    the smallest sha256(seed:vec_id) rank — a deterministic seeded
    uniform sample with no RNG state (same recipe as
    ``queries.hash_sample_documents``), found with the same per-batch
    top-k combiner. Empty clusters keep their previous centroid.
    Returns the (k, dim) unit-row centroid matrix. The corpus is
    re-scanned per iteration (lazy Dataset re-execution) — at 100 TB
    that is the memory-safe choice vs materializing it in plasma.
    """

    def init_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _KM_INIT_SCHEMA.empty_table()
        ids, matn = _normalized_f64(batch)
        ranks = np.array(H.sha256_hex_many(f"{seed}:{i}" for i in ids))
        top = np.lexsort((ids, ranks))[:k]
        return pa.table(
            {
                "vec_id": pa.array(ids[top], pa.int64()),
                "rank": pa.array(ranks[top], pa.string()),
                "vecn": V.matrix_blob_array(matn[top]),
            }
        )

    init_rows = [
        t
        for t in ray.get(
            emb_ds.map_batches(
                init_partial, batch_format="pyarrow"
            ).to_arrow_refs()
        )
        if t.num_rows
    ]
    if not init_rows:
        raise ValueError("kmeans_embeddings: empty embedding corpus")
    cand = pa.concat_tables(init_rows).to_pandas()
    cand = cand.sort_values(["rank", "vec_id"], kind="mergesort").head(k)
    centroids = np.stack(
        [np.frombuffer(b, dtype=np.float64) for b in cand["vecn"]]
    )
    k = len(centroids)  # corpus smaller than k -> one centroid per row

    def step_partial(ref):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _KM_PARTIAL_SCHEMA.empty_table()
            cents = ray.get(ref)
            _, matn = _normalized_f64(batch)
            assign = np.argmax(matn @ cents.T, axis=1)
            uniq = np.unique(assign)
            clusters, counts = [], []
            sums = np.empty((len(uniq), matn.shape[1]), dtype=np.float64)
            for j, c in enumerate(uniq):
                rows = matn[assign == c]
                clusters.append(int(c))
                counts.append(len(rows))
                sums[j] = rows.sum(axis=0)
            return pa.table(
                {
                    "cluster": pa.array(clusters, pa.int64()),
                    "n": pa.array(counts, pa.int64()),
                    "vsum": V.matrix_blob_array(sums),
                }
            )

        return fn

    def combine(batch: pa.Table) -> pa.Table:
        # tree-reduce partials within a batch: n_blocks*k rows -> <=k
        # (row order within a cluster is preserved, so the pairwise
        # float sums match the previous pandas-groupby reduction)
        if batch.num_rows == 0:
            return _KM_PARTIAL_SCHEMA.empty_table()
        clusters = batch["cluster"].to_numpy(zero_copy_only=False)
        ns = batch["n"].to_numpy(zero_copy_only=False)
        mats = V.blob_matrix(batch["vsum"])
        uniq = np.unique(clusters)
        counts = np.empty(len(uniq), dtype=np.int64)
        sums = np.empty((len(uniq), mats.shape[1]), dtype=np.float64)
        for j, c in enumerate(uniq):
            rows = clusters == c
            counts[j] = ns[rows].sum()
            sums[j] = mats[rows].sum(axis=0)
        return pa.table(
            {
                "cluster": pa.array(uniq.astype(np.int64), pa.int64()),
                "n": pa.array(counts, pa.int64()),
                "vsum": V.matrix_blob_array(sums),
            }
        )

    for _ in range(iters):
        ref = ray.put(centroids)
        reduced = (
            emb_ds.map_batches(step_partial(ref), batch_format="pyarrow")
            .map_batches(combine, batch_format="pyarrow", batch_size=8192)
            .map_batches(combine, batch_format="pyarrow", batch_size=8192)
        )
        parts = [
            t for t in ray.get(reduced.to_arrow_refs()) if t.num_rows
        ]
        merged = combine(pa.concat_tables(parts)) if parts else None
        if merged is None or merged.num_rows == 0:
            break
        new = centroids.copy()
        for c, n, blob in zip(
            merged["cluster"].to_pylist(),
            merged["n"].to_pylist(),
            merged["vsum"].to_pylist(),
        ):
            if n:
                v = np.frombuffer(blob, dtype=np.float64) / n
                nrm = np.linalg.norm(v)
                if nrm > 1e-12:
                    new[c] = v / nrm
        centroids = new
    return centroids


def kmeans_assign_embeddings(
    emb_ds: "ray.data.Dataset", k: int = 8, iters: int = 6, seed: int = 31
):
    """First-class k-means clustering result: train spherical k-means
    with ``kmeans_embeddings`` (the same distributed Lloyd's kernel
    SemDeDup and IVF build on), then one stateless assign pass emitting
    (vec_id, cluster, centroid_cos5) per vector — the topic-bucketing /
    curriculum-binning primitive used when a corpus is sharded by
    semantic neighborhood before dedup or mixture planning.

    Ray shape: centroids broadcast once via ``ray.put``; assignment is
    a single map_batches matmul with NO exchange — output order is the
    input sharding, so at 100 TB the labels can be written alongside
    the source partitions without a shuffle.
    """
    centroids = kmeans_embeddings(emb_ds, k=k, iters=iters, seed=seed)
    ref = ray.put(centroids)
    out_schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("cluster", pa.int64()),
            ("centroid_cos5", pa.float64()),
        ]
    )

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        cents = ray.get(ref)
        ids, matn = _normalized_f64(batch)
        sims = matn @ cents.T
        cluster = np.argmax(sims, axis=1)
        ccos = sims[np.arange(len(ids)), cluster]
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(cluster.astype(np.int64), pa.int64()),
                "centroid_cos5": pa.array(np.round(ccos, 5), pa.float64()),
            },
            schema=out_schema,
        )

    return emb_ds.map_batches(assign, batch_format="pyarrow")


def _cluster_sizes_exact(
    emb_ds: "ray.data.Dataset", cents_ref, k: int
) -> np.ndarray:
    """Exact per-cluster member counts under the FINAL centroids: one
    ids-never-leave-the-worker pass emitting a <=k-row bincount table
    per batch, summed driver-side (k rows total reach the driver)."""
    schema = pa.schema([("cluster", pa.int64()), ("cnt", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        cents = ray.get(cents_ref)
        _, matn = _normalized_f64(batch)
        a = np.argmax(matn @ cents.T, axis=1)
        cnt = np.bincount(a, minlength=len(cents))
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "cluster": pa.array(nz.astype(np.int64), pa.int64()),
                "cnt": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            },
            schema=schema,
        )

    sizes = np.zeros(k, dtype=np.int64)
    for t in ray.get(
        emb_ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    ):
        if t.num_rows:
            np.add.at(
                sizes,
                t["cluster"].to_numpy(zero_copy_only=False),
                t["cnt"].to_numpy(zero_copy_only=False),
            )
    return sizes


def _sample_oversized(
    emb_ds: "ray.data.Dataset",
    cents_ref,
    oversized: np.ndarray,
    seed: int,
    sample_per_cluster: int,
) -> dict[int, np.ndarray]:
    """Deterministic hash-rank top-S sample of each oversized cluster's
    normalized vectors (same seeded-uniform recipe as the kmeans init):
    per-batch top-S combiner, one re-top combine pass, driver head-S.
    Returns {cluster: (<=S, dim) matrix, rows in rank order}."""
    schema = pa.schema(
        [("cluster", pa.int64()), ("rank", pa.string()), ("vecn", pa.binary())]
    )
    over_ref = ray.put(np.asarray(sorted(oversized), dtype=np.int64))

    def _top_per_cluster(
        cl: np.ndarray, ranks: np.ndarray, ids: np.ndarray, matn: np.ndarray
    ) -> pa.Table:
        parts = []
        for c in np.unique(cl):
            idx = np.flatnonzero(cl == c)
            top = idx[np.lexsort((ids[idx], ranks[idx]))][:sample_per_cluster]
            parts.append(
                pa.table(
                    {
                        "cluster": pa.array(
                            np.full(len(top), c, dtype=np.int64), pa.int64()
                        ),
                        "rank": pa.array(ranks[top], pa.string()),
                        "vecn": V.matrix_blob_array(matn[top]),
                    },
                    schema=schema,
                )
            )
        return pa.concat_tables(parts) if parts else schema.empty_table()

    def sample_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        cents = ray.get(cents_ref)
        over = ray.get(over_ref)
        ids, matn = _normalized_f64(batch)
        a = np.argmax(matn @ cents.T, axis=1)
        m = np.isin(a, over)
        if not m.any():
            return schema.empty_table()
        ids, matn, a = ids[m], matn[m], a[m]
        ranks = np.array(
            H.sha256_hex_many(f"{seed}:sub:{i}" for i in ids), dtype=object
        )
        # rank doubles as the unique tiebreak (it hashes the vec_id)
        return _top_per_cluster(a, ranks, ids, matn)

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        cl = batch["cluster"].to_numpy(zero_copy_only=False)
        ranks = np.asarray(batch["rank"].to_pylist(), dtype=object)
        matn = V.blob_matrix(batch["vecn"])
        return _top_per_cluster(cl, ranks, np.zeros(len(cl)), matn)

    tbls = [
        t
        for t in ray.get(
            emb_ds.map_batches(sample_partial, batch_format="pyarrow")
            .map_batches(combine, batch_format="pyarrow", batch_size=8192)
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    out: dict[int, np.ndarray] = {}
    if not tbls:
        return out
    allt = pa.concat_tables(tbls)
    cl = allt["cluster"].to_numpy(zero_copy_only=False)
    ranks = np.asarray(allt["rank"].to_pylist(), dtype=object)
    matn = V.blob_matrix(allt["vecn"])
    for c in np.unique(cl):
        idx = np.flatnonzero(cl == c)
        top = idx[np.argsort(ranks[idx], kind="stable")][:sample_per_cluster]
        out[int(c)] = matn[top]
    return out


def _local_spherical_lloyd(
    X: np.ndarray, k: int, iters: int = 10
) -> np.ndarray:
    """Driver-side spherical Lloyd's on a bounded sample (rows already
    unit-norm and in deterministic rank order; init = first k rows)."""
    k = min(k, len(X))
    cents = X[:k].copy()
    for _ in range(iters):
        a = np.argmax(X @ cents.T, axis=1)
        for c in range(k):
            members = X[a == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 1e-12:
                    cents[c] = v / n
    return cents


def semdedup_embeddings(
    emb_ds: "ray.data.Dataset",
    k: int = 8,
    iters: int = 6,
    threshold: float = 0.6,
    seed: int = 31,
    max_cluster_rows: int = 16384,
):
    """SemDeDup semantic near-dedup (arXiv:2303.09540 §3): k-means
    cluster the embedding space with ``kmeans_embeddings``, then
    within each cluster greedily mark semantic duplicates — visiting
    members farthest-from-centroid FIRST (the paper keeps the
    lowest-centroid-similarity representative of each duplicate
    group; ties broken by vec_id), an item is a duplicate iff its
    cosine to an already-kept member reaches ``threshold`` (= 1 - eps
    in the paper's notation). Returns one row per vector:
    (vec_id, cluster, centroid_cos5, keep).

    Ray shape: centroids broadcast once; a stateless assign pass ships
    (id, cluster, normalized-vector blob); ONE hash exchange on
    ``cluster``; the O(|c|^2) Gram prune runs per cluster inside
    ``map_groups``.

    Oversized-cluster guard (``max_cluster_rows``, 0 disables): the
    prune is quadratic in cluster size, so a skewed embedding
    distribution (one modal cluster holding a large corpus fraction)
    would OOM a worker regardless of k. When an exact ids-only size
    pass finds clusters over the cap, their members are hierarchically
    re-clustered: sub-centroids trained driver-side on a deterministic
    hash-rank sample (the bounded-sample recipe ``ivf_knn_cosine``
    uses), plus an integer-hash salt split for sub-groups the sample
    predicts will STILL exceed the cap (k-means cannot split a mass of
    identical vectors; salting can — the same fallback the LSH band
    path uses for hot buckets). The prune then groups by the guarded
    key, while the OUTPUT ``cluster`` column keeps the original
    k-means label. Semantics: dedup comparisons never cross sub-group
    boundaries, so a pathological cluster keeps at most one
    representative per sub-group instead of one overall — bounded
    over-keep, traded for a hard per-worker memory bound. Non-skewed
    corpora (every cluster under the cap) take the exact original
    path; the guard then costs one extra ids-only corpus pass.
    """
    centroids = kmeans_embeddings(emb_ds, k=k, iters=iters, seed=seed)
    ref = ray.put(centroids)
    k_eff = len(centroids)

    sub_map: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    if max_cluster_rows:
        sizes = _cluster_sizes_exact(emb_ds, ref, k_eff)
        oversized = np.flatnonzero(sizes > max_cluster_rows)
        if len(oversized):
            samples = _sample_oversized(
                emb_ds,
                ref,
                oversized,
                seed,
                sample_per_cluster=4096,
            )
            next_gid = k_eff
            for c in sorted(samples):
                n_c = int(sizes[c])
                X = samples[c]
                sub_k = min(
                    max(2, -(-n_c // max_cluster_rows) * 2), 1024, len(X)
                )
                subc = _local_spherical_lloyd(X, sub_k)
                # estimate final sub-group sizes from the sample; salt
                # any sub-group projected to still exceed the cap (2x
                # safety factor: the estimate has sampling error)
                est = np.bincount(
                    np.argmax(X @ subc.T, axis=1), minlength=len(subc)
                ) * (n_c / max(1, len(X)))
                salts = np.maximum(
                    1, np.ceil(2.0 * est / max_cluster_rows)
                ).astype(np.int64)
                offs = next_gid + np.concatenate(
                    ([0], np.cumsum(salts)[:-1])
                ).astype(np.int64)
                next_gid = int(offs[-1] + salts[-1])
                sub_map[int(c)] = (subc, offs, salts)
    sub_ref = ray.put(sub_map) if sub_map else None

    assign_schema = _SEM_ASSIGN_SCHEMA
    if sub_ref is not None:
        assign_schema = assign_schema.append(pa.field("pgroup", pa.int64()))

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return assign_schema.empty_table()
        cents = ray.get(ref)
        ids, matn = _normalized_f64(batch)
        sims = matn @ cents.T
        cluster = np.argmax(sims, axis=1)
        ccos = sims[np.arange(len(ids)), cluster]
        cols = {
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(cluster.astype(np.int64), pa.int64()),
            "centroid_cos5": pa.array(np.round(ccos, 5), pa.float64()),
            "vecn": V.matrix_blob_array(matn),
        }
        if sub_ref is not None:
            smap = ray.get(sub_ref)
            pgroup = cluster.astype(np.int64).copy()
            for c, (subc, offs, salts) in smap.items():
                rows = np.flatnonzero(cluster == c)
                if not len(rows):
                    continue
                sub = np.argmax(matn[rows] @ subc.T, axis=1)
                salt = (
                    (
                        ids[rows].astype(np.uint64)
                        * np.uint64(0x9E3779B97F4A7C15)
                    )
                    >> np.uint64(33)
                ).astype(np.int64) % salts[sub]
                pgroup[rows] = offs[sub] + salt
            cols["pgroup"] = pa.array(pgroup, pa.int64())
        return pa.table(cols)

    out_schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("cluster", pa.int64()),
            ("centroid_cos5", pa.float64()),
            ("keep", pa.bool_()),
        ]
    )

    def prune(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        ids = group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cos = group["centroid_cos5"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cos))  # farthest-from-centroid first
        mat = V.blob_matrix(group["vecn"])[order]
        gram = mat @ mat.T
        keep = np.zeros(len(ids), dtype=bool)
        kept: list[int] = []
        for i in range(len(ids)):
            if not kept or gram[i, kept].max() < threshold:
                keep[i] = True
                kept.append(i)
        cl = group["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids[order], pa.int64()),
                "cluster": pa.array(cl[order], pa.int64()),
                "centroid_cos5": pa.array(cos[order], pa.float64()),
                "keep": pa.array(keep, pa.bool_()),
            },
            schema=out_schema,
        )

    return (
        # numeric batch_size: the batcher coalesces away the
        # zero-column empty blocks sparse parquet read tasks emit
        # (see util.scrub_empty_blocks) before the sort exchange
        emb_ds.map_batches(assign, batch_format="pyarrow", batch_size=4096)
        .groupby("pgroup" if sub_ref is not None else "cluster")
        .map_groups(prune, batch_format="pyarrow")
    )


# -- product quantization (IVF-PQ) ------------------------------------------


def _train_pq_codebooks(
    sample_matn: np.ndarray, m_sub: int, n_codes: int, seed: int,
    iters: int = 15,
) -> np.ndarray:
    """Per-subspace k-means codebooks ``(m_sub, n_codes, sub_dim)``
    trained driver-side on the bounded sample (standard PQ training:
    the codebook is tiny — 8x16x8 doubles here — and training data
    needs only ~1e3-1e4 vectors regardless of corpus size)."""
    n, d = sample_matn.shape
    if d % m_sub:
        raise ValueError(f"dim {d} not divisible by m_sub={m_sub}")
    sub = d // m_sub
    rng = np.random.RandomState(seed)
    books = np.empty((m_sub, n_codes, sub), dtype=np.float64)
    for m in range(m_sub):
        X = sample_matn[:, m * sub : (m + 1) * sub]
        cents = X[rng.choice(n, n_codes, replace=n < n_codes)].copy()
        for _ in range(iters):
            d2 = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            for c in range(n_codes):
                members = X[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
        books[m] = cents
    return books


def _pq_encode_mat(matn: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, dim) -> (n, m_sub) uint8 codes, vectorized per subspace."""
    m_sub, n_codes, sub = books.shape
    codes = np.empty((len(matn), m_sub), dtype=np.uint8)
    for m in range(m_sub):
        X = matn[:, m * sub : (m + 1) * sub]
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; argmin drops ||x||^2
        d2 = (books[m] ** 2).sum(axis=1)[None, :] - 2.0 * (X @ books[m].T)
        codes[:, m] = d2.argmin(axis=1).astype(np.uint8)
    return codes


def pq_encode(
    emb_ds: "ray.data.Dataset",
    books_ref,
    cents_ref=None,
) -> "ray.data.Dataset":
    """Compress the corpus to PQ codes: one streaming pass emitting
    (vec_id, cell, codes) — ``m_sub`` BYTES per vector instead of
    ``dim`` floats (64x smaller at dim=64/m_sub=8/float64). This is
    the 100 TB memory story: the search pass scans only this table;
    raw vectors are touched again only for the top-R exact rerank.

    ``books_ref``/``cents_ref`` are ``ray.put`` handles (codebooks and
    optional IVF coarse centroids) read zero-copy per task.
    """

    def encode(batch: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        cents = ray.get(cents_ref) if cents_ref is not None else None
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cell": pa.array([], pa.int32()),
                    "codes": pa.array([], pa.list_(pa.uint8())),
                }
            )
        ids, matn = _normalized_f64(batch)
        cells = (
            np.argmax(matn @ cents.T, axis=1).astype(np.int32)
            if cents is not None
            else np.zeros(len(ids), dtype=np.int32)
        )
        codes = _pq_encode_mat(matn, books)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cell": pa.array(cells, pa.int32()),
                "codes": V.matrix_list_array(codes, pa.uint8()),
            }
        )

    return emb_ds.map_batches(encode, batch_format="pyarrow")


def pq_knn_cosine(
    emb_ds: "ray.data.Dataset",
    query_ids: list[int],
    k: int = 10,
    n_cells: int = 16,
    nprobe: int = 12,
    m_sub: int = 16,
    n_codes: int = 32,
    rerank: int = 100,
    seed: int = 29,
    train_sample: int = 2048,
):
    """IVF-PQ approximate top-k (Jegou et al. 2011, the FAISS IVFPQ
    shape): coarse quantizer + per-subspace codebooks trained
    driver-side on a bounded sample, corpus compressed to ``m_sub``
    bytes/vector (``pq_encode``), queries scored against ONLY the
    ``nprobe`` probed cells via asymmetric-distance lookup tables
    (LUT[m, code] = q_m . c_{m,code}; a scan touches uint8 codes, no
    floats), then the top-``rerank`` ADC candidates per query rescored
    EXACTLY against raw vectors (a second, tiny, id-filtered pass).
    Returns (query_id, vec_id, rank) like the other ANN variants.
    """
    wanted = np.asarray(sorted(query_ids), dtype=np.int64)

    def _pick(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, wanted), pa.bool_()))

    queries = emb_ds.map_batches(_pick, batch_format="pyarrow").to_pandas()
    q_ids = queries["vec_id"].to_numpy().astype(np.int64)
    q_mat = _query_matrix(queries)

    # bounded-sample training (coarse cells + PQ codebooks)
    sample = _uniform_sample_embeddings(emb_ds, train_sample).to_pandas()
    s_mat = np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    s_mat = s_mat / np.maximum(
        np.linalg.norm(s_mat, axis=1, keepdims=True), 1e-12
    )
    rng = np.random.RandomState(seed)
    n_cells = min(n_cells, len(s_mat))
    cents = s_mat[rng.choice(len(s_mat), n_cells, replace=False)].copy()
    for _ in range(10):  # spherical k-means, as in ivf_knn_cosine
        assign = np.argmax(s_mat @ cents.T, axis=1)
        for c in range(n_cells):
            members = s_mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cents[c] = v / nv
    books = _train_pq_codebooks(s_mat, m_sub, n_codes, seed)

    books_ref = ray.put(books)
    cents_ref = ray.put(cents)
    codes_ds = pq_encode(emb_ds, books_ref, cents_ref)

    # per-query ADC lookup tables + probe sets
    nprobe = min(nprobe, n_cells)
    q_cells = np.argsort(-(q_mat @ cents.T), axis=1)[:, :nprobe]
    sub = q_mat.shape[1] // m_sub
    luts = np.empty((len(q_ids), m_sub, n_codes), dtype=np.float64)
    for m in range(m_sub):
        luts[:, m, :] = q_mat[:, m * sub : (m + 1) * sub] @ books[m].T
    q_ref = ray.put((q_ids, q_cells, luts))

    def adc_scan(batch: pa.Table) -> pa.Table:
        ids_, qcells, lut = ray.get(q_ref)
        if batch.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "approx": pa.array([], pa.float64()),
                }
            )
        cells = batch["cell"].to_numpy(zero_copy_only=False)
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        codes_col = batch["codes"].combine_chunks()
        codes = codes_col.flatten().to_numpy(zero_copy_only=False).reshape(
            batch.num_rows, -1
        )
        out_q, out_v, out_s = [], [], []
        for qi in range(len(ids_)):
            rows = np.flatnonzero(np.isin(cells, qcells[qi]))
            if not len(rows):
                continue
            c = codes[rows]
            score = np.zeros(len(rows), dtype=np.float64)
            for m in range(c.shape[1]):
                score += lut[qi, m, c[:, m]]
            out_q.extend([int(ids_[qi])] * len(rows))
            out_v.extend(vec_ids[rows].tolist())
            out_s.extend(score.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "approx": pa.array(out_s, pa.float64()),
            }
        )

    cand = top_k(
        codes_ds.map_batches(adc_scan, batch_format="pyarrow"),
        [("approx", "descending"), ("vec_id", "ascending")],
        rerank,
        by="query_id",
    ).to_pandas()
    if cand.empty:
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        )

    # exact rerank: ONE id-filtered pass over raw vectors (candidate
    # set is <= |Q| * rerank rows — tiny), scored driver-side
    cand_ids = np.unique(cand["vec_id"].to_numpy())
    cid_ref = ray.put(cand_ids)

    def _pick_cand(batch: pa.Table) -> pa.Table:
        cids = ray.get(cid_ref)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, cids), pa.bool_()))

    raw = emb_ds.map_batches(_pick_cand, batch_format="pyarrow").to_pandas()
    r_ids = raw["vec_id"].to_numpy().astype(np.int64)
    r_mat = np.stack(raw["embedding"].to_numpy()).astype(np.float64)
    r_mat = r_mat / np.maximum(
        np.linalg.norm(r_mat, axis=1, keepdims=True), 1e-12
    )
    pos = {int(v): i for i, v in enumerate(r_ids)}
    qpos = {int(v): i for i, v in enumerate(q_ids)}
    exact = np.einsum(
        "ij,ij->i",
        q_mat[[qpos[int(q)] for q in cand["query_id"]]],
        r_mat[[pos[int(v)] for v in cand["vec_id"]]],
    )
    cand = cand.assign(cos=exact)
    out = []
    for qid, g in cand.groupby("query_id", sort=True):
        g = g.sort_values(["cos", "vec_id"], ascending=[False, True]).head(k)
        out.append(
            pd.DataFrame(
                {
                    "query_id": np.int64(qid),
                    "vec_id": g["vec_id"].to_numpy(np.int64),
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                }
            )
        )
    return ray.data.from_pandas(pd.concat(out, ignore_index=True))


def prototype_prune_embeddings(
    emb_ds: "ray.data.Dataset",
    k: int = 8,
    iters: int = 6,
    prune_frac: float = 0.25,
    seed: int = 31,
):
    """D4-style prototype pruning (SSL-prototypes, Sorscher et al.
    2022 arXiv:2206.14486; composed with SemDeDup in D4, Tirumala et
    al. 2023 arXiv:2308.12284): within each spherical-k-means cluster,
    drop the most PROTOTYPICAL ``prune_frac`` of vectors — the ones
    closest to their centroid. Near-centroid examples are the
    semantically redundant "easy" mass whose removal costs the least
    model quality per token; SemDeDup removes pairwise near-copies,
    this removes cluster-core density, and D4 runs both. Returns one
    row per vector: (vec_id, cluster, centroid_cos5, keep).

    Ray shape: assignment reuses ``kmeans_assign_embeddings``
    (broadcast centroids, stateless matmul, NO exchange), materialized
    once because it is consumed twice — id-sized rows, not payloads.
    The per-cluster cutoff comes from a bounded (cluster, cos5, cnt)
    histogram combiner: the 5-dp rounding of ``centroid_cos5`` bounds
    the value domain, so the aggregation moves <= k x 200_001 rows
    regardless of corpus size, and the driver's quantile walk
    (quantile_disc at 1 - prune_frac, per cluster) touches only that
    summary. One final stateless flag pass carries the k cutoffs in
    the task closure; ties AT the cutoff are kept, so the kept
    fraction is >= 1 - prune_frac and the rule is deterministic with
    no RNG state.
    """
    assigned = kmeans_assign_embeddings(
        emb_ds, k=k, iters=iters, seed=seed
    ).materialize()

    hist_schema = pa.schema(
        [
            ("cluster", pa.int64()),
            ("centroid_cos5", pa.float64()),
            ("cnt", pa.int64()),
        ]
    )

    def hist(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return hist_schema.empty_table()
        g = (
            batch.select(["cluster", "centroid_cos5"])
            .group_by(["cluster", "centroid_cos5"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "cluster": g["cluster"].cast(pa.int64()),
                "centroid_cos5": g["centroid_cos5"],
                "cnt": g["count_all"].cast(pa.int64()),
            },
            schema=hist_schema,
        )

    agg = (
        # numeric batch_size: the batcher coalesces away zero-column
        # empty blocks before the groupby's key extraction (see
        # util.scrub_empty_blocks)
        assigned.map_batches(
            hist, batch_format="pyarrow", batch_size=4096
        )
        .groupby(["cluster", "centroid_cos5"])
        .sum("cnt")
        .to_pandas()
    )
    cutoffs: dict[int, float] = {}
    for c, g in agg.groupby("cluster"):
        g = g.sort_values("centroid_cos5")
        counts = g["sum(cnt)"].to_numpy()
        cum = np.cumsum(counts)
        n = int(cum[-1])
        # quantile_disc(1 - prune_frac): the value at sorted index
        # ceil(q * n) - 1 — everything strictly above it is pruned
        idx = max(0, int(np.ceil((1.0 - prune_frac) * n)) - 1)
        pos = int(np.searchsorted(cum, idx + 1))
        cutoffs[int(c)] = float(g["centroid_cos5"].to_numpy()[pos])

    out_schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("cluster", pa.int64()),
            ("centroid_cos5", pa.float64()),
            ("keep", pa.bool_()),
        ]
    )

    # dense cluster ids 0..k-1 -> vectorized cutoff lookup; clusters
    # absent from the summary (empty) keep everything via +inf
    cut_arr = np.full(max(cutoffs, default=0) + 1, np.inf)
    for c, v in cutoffs.items():
        cut_arr[c] = v

    def flag(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        cl = batch["cluster"].to_numpy(zero_copy_only=False)
        cos = batch["centroid_cos5"].to_numpy(zero_copy_only=False)
        cut = cut_arr[cl]
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster": batch["cluster"],
                "centroid_cos5": batch["centroid_cos5"],
                "keep": pa.array(cos <= cut, pa.bool_()),
            },
            schema=out_schema,
        )

    return assigned.map_batches(flag, batch_format="pyarrow")


def d4_prune_embeddings(
    emb_ds: "ray.data.Dataset",
    k: int = 8,
    iters: int = 6,
    threshold: float = 0.6,
    prune_frac: float = 0.25,
    seed: int = 31,
    max_cluster_rows: int = 16384,
):
    """The full D4 pipeline (Tirumala et al. 2023 arXiv:2308.12284):
    SemDeDup first (remove pairwise semantic near-copies), then
    SSL-prototype pruning over the SURVIVORS — re-clustered, as the
    paper does, so prototype density is measured on the deduped
    distribution rather than inflated by the copies SemDeDup just
    removed. Returns one row per INPUT vector:
    (vec_id, stage, keep) with stage = 'semdedup' (dropped by the
    dedup pass), 'prototype' (survived dedup, pruned as cluster-core),
    or 'kept'.

    Ray shape: the two stages are the existing operators unchanged;
    the only NEW exchange is one hash join shipping survivor
    embeddings into the re-cluster pass (unavoidable — D4's re-cluster
    step reads the payload; at 100 TB this is the id-pruned read a
    second pass over partitioned parquet would also pay). The final
    combine is a UNION of disjoint row sets (dropped ∪ survivors) —
    no join, no shuffle.
    """
    from clonehunter_ray.util import safe_join, scrub_empty_blocks

    out_schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("stage", pa.string()),
            ("keep", pa.bool_()),
        ]
    )
    sem = semdedup_embeddings(
        emb_ds,
        k=k,
        iters=iters,
        threshold=threshold,
        seed=seed,
        max_cluster_rows=max_cluster_rows,
    ).materialize()

    def dropped_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.filter(pc.invert(batch["keep"]))
        n = t.num_rows
        return pa.table(
            {
                "vec_id": t["vec_id"].cast(pa.int64()),
                "stage": pa.array(["semdedup"] * n, pa.string()),
                "keep": pa.array(np.zeros(n, dtype=bool), pa.bool_()),
            },
            schema=out_schema,
        )

    def kept_ids(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["keep"])
        return pa.table({"vec_id": t["vec_id"].cast(pa.int64())})

    # Acero hash joins reject list<double> non-key fields: ship the
    # embedding through the join as a float64 blob and decode after
    def to_blob(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "emb_blob": V.matrix_blob_array(
                    V.list_matrix(batch["embedding"], np.float64)
                ),
            }
        )

    def from_blob(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "embedding": V.matrix_list_array(
                    V.blob_matrix(batch["emb_blob"]), pa.float64()
                ),
            }
        )

    survivors = safe_join(
        emb_ds.map_batches(to_blob, batch_format="pyarrow"),
        sem.map_batches(kept_ids, batch_format="pyarrow"),
        "inner",
        16,
        on=("vec_id",),
    )
    # materialize the decoded survivors: kmeans re-executes its input
    # Dataset once per pass (init + iters + assign), and without the
    # barrier the blob encode + hash join would re-run ~(iters+2)x.
    # The sort pins the hash join's otherwise-unstable block order /
    # boundaries so the re-cluster's float-summation order (and hence
    # the composed result) is deterministic run-to-run — the join
    # output order is the one nondeterministic exchange in the D4
    # composition (survivor rows are a strict subset of the corpus, so
    # the sort cost is bounded by one exchange of the kept set).
    proto = prototype_prune_embeddings(
        scrub_empty_blocks(survivors)
        .map_batches(from_blob, batch_format="pyarrow")
        .sort("vec_id")
        .materialize(),
        k=k,
        iters=iters,
        prune_frac=prune_frac,
        seed=seed,
    )

    def proto_rows(batch: pa.Table) -> pa.Table:
        keep = batch["keep"].to_numpy(zero_copy_only=False)
        stage = np.where(keep, "kept", "prototype")
        return pa.table(
            {
                "vec_id": batch["vec_id"].cast(pa.int64()),
                "stage": pa.array(list(stage), pa.string()),
                "keep": batch["keep"],
            },
            schema=out_schema,
        )

    return sem.map_batches(dropped_rows, batch_format="pyarrow").union(
        proto.map_batches(proto_rows, batch_format="pyarrow")
    )
