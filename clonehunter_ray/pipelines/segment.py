"""Segment-granularity exact deduplication (C4-style, keep-first).

C4 (Raffel et al. 2020, §2.2) removes duplicated THREE-SENTENCE spans
corpus-wide, keeping the first occurrence; the unit here is a fixed
``seg_tokens``-token non-overlapping segment (the test corpus has no
sentence punctuation, and a fixed window is the scale-stable form —
sentence splitting is a per-doc preprocessing choice, not a different
shuffle shape). A segment instance (doc, seg_idx) is a DUPLICATE when
an identical token sequence occurs at any lexicographically smaller
(doc_id, seg_idx); duplicates are dropped and the kept segments are
re-joined in document order.

Complements the dedup family: doc-level exact (queries.exact_dedup),
doc-level near (dedup.minhash_*), span-level verbatim (passage.*) —
this is the segment-level exact member, the one C4 actually shipped.

Ray shape (ids/hashes only through the wide steps; text shuffles at
most once, in the final left attach):

1. explode   — stateless map: single-space split (Arrow kernels),
   per-unique-token blake2b-128 via dictionary_encode, order-sensitive
   positional combine per segment (two independent u64 lanes -> a
   128-bit segment key; a cross-lane collision, ~2^-128 per pair,
   is the only deviation from exact-string semantics). Emits
   (h1, h2, packed = doc_id * 2^20 + seg_idx) — 24 B per segment.
2. flag      — hash-partition on h1 (groupby("part").map_groups —
   whole buckets, no group straddling), lexsort per partition, every
   instance after the (h1, h2)-group minimum packed is a duplicate.
   Only DUPLICATE rows ship onward (kept is the default).
3. collect   — duplicates grouped per doc into an idx list
   (doc-partitioned, same map_groups shape).
4. reassemble— dup-lists attached onto docs by a left
   ``attach_by_key`` (broadcast, or a doc-partitioned join past the
   cutover), then one stateless pass re-splits each doc and drops the
   flagged segments.

Partitioning at 100 TB: stages 2-3 move 24-byte rows; stage 3 moves
only duplicate instances (bounded by the dup rate, not the corpus);
a join in stage 4 is doc-partitioned with text on exactly one side.
``packed`` bounds: doc_id < 2^43 and < 2^20 segments per document
(~10M tokens at the default width) — violated input raises loudly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from clonehunter_ray.functions.hashing import _mix64

_SEG_IDX_BITS = 20
_SEG_ROWS_SCHEMA = pa.schema(
    [("h1", pa.uint64()), ("h2", pa.uint64()), ("packed", pa.int64())]
)
_DUP_SCHEMA = pa.schema([("doc_id", pa.int64()), ("seg_idx", pa.int64())])
# dup_idxs rides as a little-endian int64 blob: Acero hash joins
# reject list-typed non-key fields, binary payloads join fine
_DUP_LIST_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("dup_idxs", pa.binary())]
)
_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_segments", pa.int64()),
        ("n_dup_segments", pa.int64()),
        ("dedup_text", pa.string()),
    ]
)

_LANE1_LEN = np.uint64(0x9E3779B97F4A7C15)
_LANE2_LEN = np.uint64(0xC2B2AE3D27D4EB4F)


def _token_lanes(flat: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Two independent u64 hash lanes per token (blake2b-128 split),
    amortized over the batch's unique-token vocabulary."""
    import hashlib

    import pyarrow.compute as pc

    if isinstance(flat, pa.ChunkedArray):
        flat = pa.concat_arrays(flat.chunks)
    d = pc.dictionary_encode(flat)
    uniq = d.dictionary.to_pylist()
    inv = d.indices.to_numpy(zero_copy_only=False)
    digests = np.frombuffer(
        b"".join(
            hashlib.blake2b(t.encode("utf-8"), digest_size=16).digest()
            for t in uniq
        ),
        dtype=np.uint64,
    ).reshape(-1, 2)
    return digests[:, 0][inv], digests[:, 1][inv]


def _pos_mix(n: int, salt: int) -> np.ndarray:
    return _mix64(np.arange(n, dtype=np.uint64) + np.uint64(salt))


def _explode_segments(batch: pa.Table, seg_tokens: int) -> pa.Table:
    """(doc_id, text) -> one (h1, h2, packed) row per segment."""
    import pyarrow.compute as pc

    if batch.num_rows == 0:
        return _SEG_ROWS_SCHEMA.empty_table()
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if doc_ids.size and (
        int(doc_ids.min()) < 0
        or int(doc_ids.max()) >= (1 << (63 - _SEG_IDX_BITS))
    ):
        raise ValueError(
            "segment_dedup: doc_id must be in [0, 2^43) for the packed key"
        )
    toks = pc.split_pattern(
        pc.fill_null(pc.cast(batch["text"], pa.string()), ""), " "
    )
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    if len(flat) == 0:
        return _SEG_ROWS_SCHEMA.empty_table()
    lane1, lane2 = _token_lanes(flat)

    # within-doc token index -> (seg_idx, within-segment offset)
    n = len(parent)
    doc_start = np.concatenate(([True], parent[1:] != parent[:-1]))
    starts_at = np.flatnonzero(doc_start)
    tok_idx = np.arange(n, dtype=np.int64) - np.repeat(
        starts_at, np.diff(np.append(starts_at, n))
    )
    seg_idx = tok_idx // seg_tokens
    if seg_idx.size and int(seg_idx.max()) >= (1 << _SEG_IDX_BITS):
        raise ValueError(
            f"segment_dedup: a document has >= 2^{_SEG_IDX_BITS} segments"
        )
    offset = tok_idx - seg_idx * seg_tokens

    # order-sensitive combine: XOR of position-mixed token lanes per
    # segment (ufunc.reduceat at segment starts), length folded in so
    # a short tail can't alias a prefix
    p1 = _pos_mix(seg_tokens, 0x5851F42D)[offset]
    p2 = _pos_mix(seg_tokens, 0x14057B7E)[offset]
    seg_start = np.flatnonzero(doc_start | (offset == 0))
    x1 = np.bitwise_xor.reduceat(_mix64(lane1 ^ p1), seg_start)
    x2 = np.bitwise_xor.reduceat(_mix64(lane2 ^ p2), seg_start)
    seg_len = np.diff(np.append(seg_start, n)).astype(np.uint64)
    h1 = _mix64(x1 ^ (seg_len * _LANE1_LEN))
    h2 = _mix64(x2 ^ (seg_len * _LANE2_LEN))

    packed = (doc_ids[parent[seg_start]] << _SEG_IDX_BITS) | seg_idx[seg_start]
    return pa.table(
        {
            "h1": pa.array(h1, pa.uint64()),
            "h2": pa.array(h2, pa.uint64()),
            "packed": pa.array(packed, pa.int64()),
        },
        schema=_SEG_ROWS_SCHEMA,
    )


def _flag_dups_partition(partition: pa.Table) -> pa.Table:
    """One h1-partition -> the DUPLICATE instances (all but the
    minimum packed per distinct (h1, h2) key)."""
    if partition.num_rows == 0:
        return _DUP_SCHEMA.empty_table()
    h1 = partition["h1"].to_numpy(zero_copy_only=False)
    h2 = partition["h2"].to_numpy(zero_copy_only=False)
    packed = partition["packed"].to_numpy(zero_copy_only=False)
    order = np.lexsort((packed, h2, h1))
    h1, h2, packed = h1[order], h2[order], packed[order]
    first = np.concatenate(
        ([True], (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1]))
    )
    dup = packed[~first]
    return pa.table(
        {
            "doc_id": pa.array(dup >> _SEG_IDX_BITS, pa.int64()),
            "seg_idx": pa.array(dup & ((1 << _SEG_IDX_BITS) - 1), pa.int64()),
        },
        schema=_DUP_SCHEMA,
    )


def _pack_dup_lists_partition(partition: pa.Table) -> pa.Table:
    """One doc-partition of (doc_id, seg_idx) -> (doc_id, dup_idxs)."""
    if partition.num_rows == 0:
        return _DUP_LIST_SCHEMA.empty_table()
    ids = partition["doc_id"].to_numpy(zero_copy_only=False)
    idxs = partition["seg_idx"].to_numpy(zero_copy_only=False)
    order = np.lexsort((idxs, ids))
    ids, idxs = ids[order], idxs[order]
    starts = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
    bounds = np.append(starts, len(ids))
    blobs = [
        idxs[s:e].astype("<i8").tobytes()
        for s, e in zip(bounds[:-1], bounds[1:])
    ]
    return pa.table(
        {
            "doc_id": pa.array(ids[starts], pa.int64()),
            "dup_idxs": pa.array(blobs, pa.binary()),
        },
        schema=_DUP_LIST_SCHEMA,
    )


def segment_dedup(
    docs_ds: "ray.data.Dataset",
    seg_tokens: int = 10,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Corpus-wide keep-first exact dedup at fixed-token-segment
    granularity -> (doc_id, n_segments, n_dup_segments, dedup_text)."""
    from clonehunter_ray.stages.candidates import attach_by_key
    from clonehunter_ray.util import safe_join_partitions

    nparts = safe_join_partitions(num_partitions)

    seg_rows = docs_ds.map_batches(
        lambda t: _explode_segments(t, seg_tokens),
        batch_format="pyarrow",
    )
    dup_rows = (
        seg_rows.map_batches(
            lambda t: t.append_column(
                "part",
                pa.array(
                    (
                        t["h1"].to_numpy(zero_copy_only=False)
                        % np.uint64(nparts)
                    ).astype(np.int64),
                    pa.int64(),
                ),
            ),
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(_flag_dups_partition, batch_format="pyarrow")
    )
    dup_lists = (
        dup_rows.map_batches(
            lambda t: t.append_column(
                "part",
                pa.array(
                    t["doc_id"].to_numpy(zero_copy_only=False) % nparts,
                    pa.int64(),
                ),
            ),
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(_pack_dup_lists_partition, batch_format="pyarrow")
    )

    # a dup-free corpus leaves dup_lists empty; schema= types it
    joined = attach_by_key(
        docs_ds.select_columns(["doc_id", "text"]),
        dup_lists,
        "doc_id",
        ["dup_idxs"],
        on="doc_id",
        how="left",
        num_partitions=nparts,
        schema=_DUP_LIST_SCHEMA,
    )

    def reassemble(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        out = {k: [] for k in _OUT_SCHEMA.names}
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_pylist()
        dup_col = batch["dup_idxs"].to_pylist()
        for did, text, dups in zip(ids, texts, dup_col):
            toks = (text or "").split(" ")
            n_segs = (len(toks) + seg_tokens - 1) // seg_tokens
            drop = (
                set(np.frombuffer(dups, dtype="<i8").tolist())
                if dups
                else set()
            )
            kept = [
                " ".join(toks[s * seg_tokens : (s + 1) * seg_tokens])
                for s in range(n_segs)
                if s not in drop
            ]
            out["doc_id"].append(did)
            out["n_segments"].append(n_segs)
            out["n_dup_segments"].append(len(drop))
            out["dedup_text"].append(" ".join(kept))
        return pa.table(out, schema=_OUT_SCHEMA)

    return joined.map_batches(reassemble, batch_format="pyarrow")


def segment_dedup_documents(
    sf_dir: str, seg_tokens: int = 10, num_partitions: int = 64
) -> "ray.data.Dataset":
    """Oracle-checked entry over the documents table."""
    from clonehunter_ray.util import read_parquet_clean

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return segment_dedup(docs, seg_tokens, num_partitions)


def _explode_segment_texts(
    batch: pa.Table, seg_tokens: int, min_seg_tokens: int
) -> pa.Table:
    """(doc_id, text) -> one (doc_id=packed uid, text=segment string)
    row per segment of >= min_seg_tokens tokens. Segment strings are
    rebuilt with Arrow ``binary_join`` over a ListArray sliced at
    segment boundaries — no per-row Python."""
    import pyarrow.compute as pc

    out_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    if batch.num_rows == 0:
        return out_schema.empty_table()
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if doc_ids.size and (
        int(doc_ids.min()) < 0
        or int(doc_ids.max()) >= (1 << (63 - _SEG_IDX_BITS))
    ):
        raise ValueError(
            "segment_near_dup: doc_id must be in [0, 2^43) for the packed key"
        )
    toks = pc.split_pattern(
        pc.fill_null(pc.cast(batch["text"], pa.string()), ""), " "
    )
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    n = len(parent)
    if n == 0:
        return out_schema.empty_table()
    doc_start = np.concatenate(([True], parent[1:] != parent[:-1]))
    starts_at = np.flatnonzero(doc_start)
    tok_idx = np.arange(n, dtype=np.int64) - np.repeat(
        starts_at, np.diff(np.append(starts_at, n))
    )
    seg_idx = tok_idx // seg_tokens
    if seg_idx.size and int(seg_idx.max()) >= (1 << _SEG_IDX_BITS):
        raise ValueError(
            f"segment_near_dup: a document has >= 2^{_SEG_IDX_BITS} segments"
        )
    seg_start = np.flatnonzero(doc_start | (tok_idx % seg_tokens == 0))
    seg_len = np.diff(np.append(seg_start, n))
    offsets = pa.array(np.append(seg_start, n), pa.int32())
    seg_list = pa.ListArray.from_arrays(
        offsets, flat.combine_chunks() if hasattr(flat, "combine_chunks") else flat
    )
    seg_text = pc.binary_join(seg_list, " ")
    uid = (
        doc_ids[parent[seg_start]] * np.int64(1 << _SEG_IDX_BITS)
        + seg_idx[seg_start]
    )
    keep = pa.array(seg_len >= min_seg_tokens, pa.bool_())
    return pa.table(
        {
            "doc_id": pa.array(uid, pa.int64()),
            "text": seg_text,
        }
    ).filter(keep)


def segment_near_dup_pairs(
    docs_ds: "ray.data.Dataset",
    seg_tokens: int = 30,
    threshold: float = 0.8,
    min_seg_tokens: int = 5,
    cross_doc_only: bool = True,
    config=None,
) -> "ray.data.Dataset":
    """FUZZY segment-level near-dedup — the missing granularity in the
    dedup family (doc-level near = dedup.minhash_*, segment-level
    exact = segment_dedup, span-level verbatim = passage.*): detect
    ~duplicated paragraphs that differ by small edits, across
    documents.

    Pure composition, no new shuffle machinery: documents explode into
    fixed-width token segments with a packed uid (doc_id * 2^20 +
    seg_idx, same contract as segment_dedup), and the existing
    MinHash-LSH pair pipeline (dedup.minhash_dedup_pairs: ids-only
    band shuffle, salted hot buckets, exact Jaccard verify) runs over
    the segment table unchanged. Output: (doc_a, seg_a, doc_b, seg_b,
    jaccard), cross-document pairs only by default.
    """
    from clonehunter_ray.config import SignatureConfig
    from clonehunter_ray.pipelines.dedup import minhash_dedup_pairs

    config = config or SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)
    segments = docs_ds.map_batches(
        lambda t: _explode_segment_texts(t, seg_tokens, min_seg_tokens),
        batch_format="pyarrow",
    )
    pairs = minhash_dedup_pairs(segments, threshold=threshold, config=config)

    out_schema = pa.schema(
        [
            ("doc_a", pa.int64()),
            ("seg_a", pa.int64()),
            ("doc_b", pa.int64()),
            ("seg_b", pa.int64()),
            ("jaccard", pa.float64()),
        ]
    )

    def decode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        a = batch["a_id"].to_numpy(zero_copy_only=False)
        b = batch["b_id"].to_numpy(zero_copy_only=False)
        mask = np.int64((1 << _SEG_IDX_BITS) - 1)
        doc_a, seg_a = a >> _SEG_IDX_BITS, a & mask
        doc_b, seg_b = b >> _SEG_IDX_BITS, b & mask
        tbl = pa.table(
            {
                "doc_a": pa.array(doc_a, pa.int64()),
                "seg_a": pa.array(seg_a, pa.int64()),
                "doc_b": pa.array(doc_b, pa.int64()),
                "seg_b": pa.array(seg_b, pa.int64()),
                "jaccard": batch["jaccard"],
            }
        )
        if cross_doc_only:
            tbl = tbl.filter(pa.array(doc_a != doc_b, pa.bool_()))
        return tbl

    return pairs.map_batches(decode, batch_format="pyarrow")


def segment_near_dup_documents(sf_dir: str, seg_tokens: int = 30):
    """Driver-contract wrapper over the documents table."""
    from clonehunter_ray.util import read_parquet_clean

    return segment_near_dup_pairs(
        read_parquet_clean(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
        seg_tokens=seg_tokens,
    )
