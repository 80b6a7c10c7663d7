"""Corpus-level exact-substring (passage) deduplication.

The one canonical LLM-training-data operator the doc-level dedup
family doesn't cover (Lee et al. 2022, "Deduplicating Training Data
Makes Language Models Better"): find VERBATIM token spans of >=
``min_len`` tokens duplicated ACROSS documents — as opposed to
doc-level MinHash (pipelines/dedup.py) or pair-local substring rescue
(stages/verify.py). The reference engine has no analogue; the
suffix-array kernels live in functions/substring.py.

Ray shape (all ids/hashes through the wide steps, text never
shuffles):

1. fingerprint  — one stateless pass per doc: tokenize+hash
   (functions/hashing.tokenize_hash_texts), positional ``gram_len``
   shingle hashes, winnowing selection (min hash per sliding window
   of ``window`` shingle hashes; Schleimer et al. 2003). Guarantee:
   any shared span of >= ``gram_len + window - 1`` = ``min_len``
   tokens makes both docs select at least one identical gram, because
   the window of hashes inside the shared region is content-defined.
   The pass also emits each doc's token-hash blob for verification.
2. candidate    — distinct (gram, doc_id) rows through the one LSH
   pair shuffle (stages/candidates.band_pairs): hash-partitioned
   groupby, per-bucket pair emission with the hub-spoke + salted
   re-band cap of stages/candidates.emit_pairs_partition (hot grams =
   boilerplate; the cap keeps a 10M-doc license header from emitting
   10M^2 pairs while ``capped`` rides to the output), pair dedup.
3. verify       — token blobs attached by the attach every document
   pair pipeline shares, stages/candidates.attach_pair_payload (plasma
   broadcast when the fingerprint table fits its row-and-byte size
   rule, partitioned hash joins above), then the exact suffix-array
   matching-statistics kernel per pair: positions p in the LARGER
   doc_id with ms[p] >= min_len, union-merged into maximal spans.
   Keeper semantics: the smaller doc_id keeps its copy, the larger
   doc's span is flagged (hub-spoke pairs keep this exact: the hub is
   the bucket's min id, and a spoke's span matches the hub verbatim
   because the selected gram is identical).
4. span merge   — groupby(doc_id) union of spans across all pairing
   partners -> (doc_id, span_start, span_end, span_tokens); summary
   adds per-doc duplicated-token fraction from the blob length.

Partitioning assumptions at 100 TB: gram buckets are capped (step 2);
per-pair verification is O((|a|+|b|) log) on the two docs' token
streams only; the only all-to-all exchanges carry (uint64, int64)
rows. A doc pair sharing many grams verifies ONCE (pair dedup before
the payload attach).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clonehunter_ray.functions import hashing as H
from clonehunter_ray.functions.substring import (
    matching_statistics,
    merge_intervals,
)
from clonehunter_ray.stages.candidates import (
    attach_pair_payload,
    band_pairs,
    emit_pairs_partition,
    explode_bands,
)

_FP_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("tokens", pa.binary()),
        ("band_keys", pa.list_(pa.uint64())),  # the selected winnow grams
    ]
)

_SPAN_PAIR_SCHEMA = pa.schema(
    [
        ("a_id", pa.int64()),
        ("b_id", pa.int64()),
        ("b_start", pa.int64()),
        ("b_end", pa.int64()),
        ("span_tokens", pa.int64()),
        ("b_n_tokens", pa.int64()),
        ("capped", pa.bool_()),
    ]
)


def winnow_positions(sh: np.ndarray, window: int) -> np.ndarray:
    """Winnowing selection over a positional shingle-hash sequence:
    the (leftmost) min-hash position of every sliding ``window`` of
    hashes, deduplicated. Content-defined — identical hash windows in
    two documents select the same relative position, which is what
    gives the ``gram_len + window - 1`` detection guarantee."""
    n = len(sh)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n <= window:
        return np.array([int(np.argmin(sh))], dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(sh, window)
    pos = np.argmin(win, axis=1) + np.arange(len(win), dtype=np.int64)
    return np.unique(pos)


def _fingerprint_batch(
    batch: pa.Table, gram_len: int, window: int
) -> pa.Table:
    """text -> (doc_id, token-hash blob, selected winnow grams)."""
    token_hashes = H.tokenize_hash_texts(batch["text"])
    blobs: list[bytes] = []
    grams: list[list[int]] = []
    for th in token_hashes:
        blobs.append(th.tobytes())
        if len(th) < gram_len:
            grams.append([])
            continue
        sh = H.shingle_hashes_seq(th, gram_len)
        sel = winnow_positions(sh, window)
        grams.append(np.unique(sh[sel]).tolist())
    return pa.table(
        {
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "tokens": pa.array(blobs, pa.binary()),
            "band_keys": pa.array(grams, pa.list_(pa.uint64())),
        },
        schema=_FP_SCHEMA,
    )


def _verify_pair_batch(
    a_blobs, b_blobs, a_ids, b_ids, capped, min_len: int
) -> pa.Table:
    """Per candidate pair: exact matching statistics of the larger-id
    doc against the keeper, union-merged spans >= min_len."""
    out = {k: [] for k in _SPAN_PAIR_SCHEMA.names}
    for a_blob, b_blob, ai, bi, cap in zip(
        a_blobs, b_blobs, a_ids, b_ids, capped
    ):
        a_tok = np.frombuffer(a_blob, dtype=np.uint64)
        b_tok = np.frombuffer(b_blob, dtype=np.uint64)
        ms = matching_statistics(a_tok, b_tok)
        hit = np.flatnonzero(ms >= min_len)
        if len(hit) == 0:
            continue
        s, e = merge_intervals(hit, hit + ms[hit])
        for ss, ee in zip(s, e):
            out["a_id"].append(int(ai))
            out["b_id"].append(int(bi))
            out["b_start"].append(int(ss))
            out["b_end"].append(int(ee))
            out["span_tokens"].append(int(ee - ss))
            out["b_n_tokens"].append(len(b_tok))
            out["capped"].append(bool(cap))
    return pa.table(out, schema=_SPAN_PAIR_SCHEMA)


def _winnow_params(
    min_len: int, gram_len: int | None, window: int | None
) -> tuple[int, int]:
    """(gram_len, window) defaults for a ``min_len`` detection
    guarantee, validated."""
    if gram_len is None:
        gram_len = max(2, (min_len + 1) // 2)
    if window is None:
        window = min_len - gram_len + 1
    if gram_len + window - 1 != min_len:
        raise ValueError(
            f"gram_len ({gram_len}) + window ({window}) - 1 must equal "
            f"min_len ({min_len}) for the winnowing guarantee"
        )
    if window < 1:
        # window 0/negative passes the identity above (e.g. min_len=1,
        # or gram_len > min_len) but crashes winnowing's
        # sliding_window_view with an opaque error inside a Ray task
        raise ValueError(f"derived winnow window ({window}) must be >= 1")
    return gram_len, window


def _span_pairs(sig, bands, emit, min_len: int, num_partitions: int):
    """Shared tail of the self-dedup and decontamination pipelines:
    the gram shuffle (stages/candidates.band_pairs), token blobs
    attached to the deduped pairs (stages/candidates.attach_pair_payload),
    then the exact matching-statistics span kernel per pair."""

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _SPAN_PAIR_SCHEMA.empty_table()
        return _verify_pair_batch(
            batch["a_tokens"].to_pylist(),
            batch["b_tokens"].to_pylist(),
            batch["a_id"].to_pylist(),
            batch["b_id"].to_pylist(),
            batch["capped"].to_pylist(),
            min_len,
        )

    return attach_pair_payload(
        band_pairs(bands, emit, num_partitions),
        sig,
        "doc_id",
        ["tokens"],
        num_partitions,
    ).map_batches(verify, batch_format="pyarrow")


def passage_dup_span_pairs(
    docs_ds: "ray.data.Dataset",
    min_len: int = 25,
    gram_len: int | None = None,
    window: int | None = None,
    num_partitions: int = 64,
    max_bucket_pairs_full: int = 1024,
) -> "ray.data.Dataset":
    """All (keeper a_id < dup b_id) pairs with the maximal verbatim
    token spans of b duplicated from a (span length >= ``min_len``
    tokens). Detection is exact for spans >= ``min_len`` up to the
    hot-gram cap (``capped`` column accounts for those buckets)."""
    gram_len, window = _winnow_params(min_len, gram_len, window)
    sig = docs_ds.map_batches(
        lambda t: _fingerprint_batch(t, gram_len, window),
        batch_format="pyarrow",
        # modest batches: the token blobs are the corpus itself
        batch_size=256,
    ).materialize()  # reused by the gram shuffle AND the payload attach

    return _span_pairs(
        sig,
        sig.select_columns(["doc_id", "band_keys"]).map_batches(
            explode_bands, fn_kwargs={"id_col": "doc_id"}, batch_format="pyarrow"
        ),
        lambda g: emit_pairs_partition(
            g, "doc_id", max_bucket_pairs_full, "salted", 6
        ),
        min_len,
        num_partitions,
    )


_SPAN_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("span_start", pa.int64()),
        ("span_end", pa.int64()),
        ("span_tokens", pa.int64()),
    ]
)

_SUMMARY_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("dup_tokens", pa.int64()),
        ("dup_frac", pa.float64()),
        ("keep", pa.bool_()),
    ]
)


def _merge_spans_doc(g: pa.Table) -> pa.Table:
    """One doc's span rows -> merged maximal intervals (shared by the
    self-dedup and decontamination span groupbys)."""
    s, e = merge_intervals(
        g["b_start"].to_numpy(zero_copy_only=False),
        g["b_end"].to_numpy(zero_copy_only=False),
    )
    did = g["b_id"][0].as_py()
    return pa.table(
        {
            "doc_id": pa.array(np.full(len(s), did), pa.int64()),
            "span_start": pa.array(s, pa.int64()),
            "span_end": pa.array(e, pa.int64()),
            "span_tokens": pa.array(e - s, pa.int64()),
        },
        schema=_SPAN_SCHEMA,
    )


def passage_dedup_spans(
    docs_ds: "ray.data.Dataset", min_len: int = 25, **kwargs
) -> "ray.data.Dataset":
    """Per-document maximal duplicated spans (union over all pairing
    partners), keeper semantics: a span appears here only for the doc
    that should LOSE it (some smaller doc_id holds a verbatim copy).
    One groupby(doc_id) over span rows — ints only."""
    pairs = passage_dup_span_pairs(docs_ds, min_len=min_len, **kwargs)

    return pairs.groupby("b_id").map_groups(_merge_spans_doc, batch_format="pyarrow")


def passage_dedup_documents(
    docs_ds: "ray.data.Dataset",
    min_len: int = 25,
    max_dup_frac: float = 0.5,
    **kwargs,
) -> "ray.data.Dataset":
    """Per-document passage-dup summary: duplicated-token count and
    fraction (union of flagged spans), plus the C4-style keep decision
    ``dup_frac < max_dup_frac``. Docs with no flagged span keep with
    dup_frac 0 — the span rows are aggregated per doc (ints only) and
    attached back onto the corpus ids by one left ``attach_by_key`` on
    doc_id."""
    pairs = passage_dup_span_pairs(docs_ds, min_len=min_len, **kwargs)
    # the summary join scales with the same knob as every other
    # exchange in this pipeline (previously hardcoded to 16)
    num_partitions = kwargs.get("num_partitions", 64)

    def per_doc(g: pa.Table) -> pa.Table:
        s, e = merge_intervals(
            g["b_start"].to_numpy(zero_copy_only=False),
            g["b_end"].to_numpy(zero_copy_only=False),
        )
        did = g["b_id"][0].as_py()
        n_tok = int(g["b_n_tokens"][0].as_py())
        dup = int((e - s).sum())
        frac = dup / n_tok if n_tok else 0.0
        return pa.table(
            {
                "doc_id": pa.array([did], pa.int64()),
                "n_tokens": pa.array([n_tok], pa.int64()),
                "dup_tokens": pa.array([dup], pa.int64()),
                "dup_frac": pa.array([frac], pa.float64()),
                "keep": pa.array([frac < max_dup_frac], pa.bool_()),
            },
            schema=_SUMMARY_SCHEMA,
        )

    flagged = pairs.groupby("b_id").map_groups(
        per_doc, batch_format="pyarrow"
    )

    ids = docs_ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                # count-only: token COUNTS need the Arrow split
                # chain, not the per-unique blake2b hashing pass
                "n_tokens": pa.array(
                    np.bincount(
                        H.flat_tokens(t["text"])[1], minlength=t.num_rows
                    ).astype(np.int64),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    from clonehunter_ray.stages.candidates import attach_by_key

    # a span-dup-free corpus leaves flagged empty; schema= types it
    joined = attach_by_key(
        ids,
        flagged,
        "doc_id",
        ["dup_tokens", "dup_frac", "keep"],
        on="doc_id",
        how="left",
        num_partitions=num_partitions,
        schema=_SUMMARY_SCHEMA,
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_tok = pc.cast(batch["n_tokens"], pa.int64())
        dup = pc.fill_null(batch["dup_tokens"], 0)
        frac = pc.fill_null(batch["dup_frac"], 0.0)
        keep = pc.fill_null(batch["keep"], True)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": n_tok,
                "dup_tokens": pc.cast(dup, pa.int64()),
                "dup_frac": pc.cast(frac, pa.float64()),
                "keep": pc.cast(keep, pa.bool_()),
            },
            schema=_SUMMARY_SCHEMA,
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SQL-checkable companion: per-doc duplicated-gram statistics
# ---------------------------------------------------------------------------

_DUP_STATS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_grams", pa.int64()),
        ("n_dup_grams", pa.int64()),
        ("dup_gram_frac", pa.float64()),
    ]
)


def passage_dup_stats_documents(
    sf_dir: str, gram_len: int = 8, num_partitions: int = 32
) -> "ray.data.Dataset":
    """Per-document exact-duplicated-gram statistics: of a doc's
    ``gram_len``-token gram INSTANCES, how many have their gram occur
    in at least one OTHER document. The SQL-expressible companion of
    the span operator above (exact strings in DuckDB, 64-bit positional
    gram hashes here — collision odds ~(corpus grams)^2 / 2^64).

    Ray shape (decontaminate_documents_distributed's): one stateless
    pass emits per-batch pre-aggregated (gram, doc_id, n_inst) rows;
    one gram-keyed groupby computes each gram's doc frequency and
    re-emits only df >= 2 instances; the per-doc totals and dup counts
    then merge in ONE groupby(doc_id) over the UNION of tagged
    contribution rows — no join (a ``groupby().aggregate()`` output
    carries zero-column empty partition blocks that Acero's hash join
    rejects, and unioning contributions needs one less shuffle
    anyway). Shuffle rows are (uint64, int64, int64) triples bounded
    by distinct (gram, doc) pairs.
    """
    from ray.data.aggregate import Sum

    from clonehunter_ray.util import read_parquet_clean

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    gd_schema = pa.schema(
        [
            ("gram", pa.uint64()),
            ("doc_id", pa.int64()),
            ("n_inst", pa.int64()),
        ]
    )

    def gram_doc_counts(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g_parts, d_parts = [], []
        for i, th in enumerate(H.tokenize_hash_texts(batch["text"])):
            if len(th) < gram_len:
                continue
            sh = H.shingle_hashes_seq(th, gram_len)
            g_parts.append(sh)
            d_parts.append(np.full(len(sh), ids[i], dtype=np.int64))
        if not g_parts:
            return gd_schema.empty_table()
        grams = np.concatenate(g_parts)
        docs_ = np.concatenate(d_parts)
        # distinct (gram, doc) + instance count via one lexsort
        order = np.lexsort((docs_, grams))
        grams, docs_ = grams[order], docs_[order]
        new = np.concatenate(
            ([True], (grams[1:] != grams[:-1]) | (docs_[1:] != docs_[:-1]))
        )
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate((starts, [len(grams)])))
        return pa.table(
            {
                "gram": pa.array(grams[starts], pa.uint64()),
                "doc_id": pa.array(docs_[starts], pa.int64()),
                "n_inst": pa.array(counts.astype(np.int64), pa.int64()),
            },
            schema=gd_schema,
        )

    gd = docs.map_batches(
        gram_doc_counts, batch_format="pyarrow"
    ).materialize()  # feeds totals AND the df pass; text tokenized once

    _contrib_schema = pa.schema(
        [("doc_id", pa.int64()), ("tot", pa.int64()), ("dup", pa.int64())]
    )

    def total_contrib(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "tot": t["n_inst"],
                "dup": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
            },
            schema=_contrib_schema,
        )

    def dup_rows(part: pa.Table) -> pa.Table:
        """One gram-hash partition: per-batch partial (gram, doc)
        rows may repeat per gram across batches — re-reduce, then keep
        instances of grams present in >= 2 docs, emitted as tagged
        contribution rows (tot 0)."""
        if part.num_rows == 0:
            return _contrib_schema.empty_table()
        grams = part["gram"].to_numpy(zero_copy_only=False)
        ids = part["doc_id"].to_numpy(zero_copy_only=False)
        n = part["n_inst"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, grams))
        grams, ids, n = grams[order], ids[order], n[order]
        # collapse duplicate (gram, doc) partials
        new_pair = np.concatenate(
            ([True], (grams[1:] != grams[:-1]) | (ids[1:] != ids[:-1]))
        )
        pair_id = np.cumsum(new_pair) - 1
        n_coll = np.zeros(pair_id[-1] + 1, dtype=np.int64)
        np.add.at(n_coll, pair_id, n)
        grams, ids = grams[new_pair], ids[new_pair]
        # df per gram over the collapsed pairs
        new_gram = np.concatenate(([True], grams[1:] != grams[:-1]))
        gram_id = np.cumsum(new_gram) - 1
        df = np.bincount(gram_id)
        dup = df[gram_id] >= 2
        return pa.table(
            {
                "doc_id": pa.array(ids[dup], pa.int64()),
                "tot": pa.array(
                    np.zeros(int(dup.sum()), dtype=np.int64), pa.int64()
                ),
                "dup": pa.array(n_coll[dup], pa.int64()),
            },
            schema=_contrib_schema,
        )

    parted = gd.map_batches(
        lambda t: t.append_column(
            "part",
            pa.array(
                (
                    t["gram"].to_numpy(zero_copy_only=False)
                    % np.uint64(num_partitions)
                ).astype(np.int64),
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )
    stats = (
        gd.map_batches(total_contrib, batch_format="pyarrow")
        .union(parted.groupby("part").map_groups(dup_rows, batch_format="pyarrow"))
        .groupby("doc_id")
        .aggregate(
            Sum("tot", alias_name="n_grams"),
            Sum("dup", alias_name="n_dup_grams"),
        )
    )

    # docs with zero grams (< gram_len tokens) never enter gd; re-add
    # them as zero-stat rows straight from the batch (no row filter)
    def short_doc_zero_rows(batch: pa.Table) -> pa.Table:
        lens = np.bincount(
            H.flat_tokens(batch["text"])[1], minlength=batch.num_rows
        ).astype(np.int64)
        ids = (
            batch["doc_id"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)[lens < gram_len]
        )
        n = len(ids)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_grams": pa.nulls(n, pa.int64()).fill_null(0),
                "n_dup_grams": pa.nulls(n, pa.int64()).fill_null(0),
                "dup_gram_frac": pa.nulls(n, pa.float64()).fill_null(0.0),
            },
            schema=_DUP_STATS_SCHEMA,
        )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_grams = pc.fill_null(pc.cast(batch["n_grams"], pa.int64()), 0)
        n_dup = pc.fill_null(pc.cast(batch["n_dup_grams"], pa.int64()), 0)
        ng = n_grams.to_numpy(zero_copy_only=False).astype(np.float64)
        nd = n_dup.to_numpy(zero_copy_only=False).astype(np.float64)
        frac = np.divide(nd, ng, out=np.zeros_like(nd), where=ng > 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_grams": n_grams,
                "n_dup_grams": n_dup,
                "dup_gram_frac": pa.array(frac, pa.float64()),
            },
            schema=_DUP_STATS_SCHEMA,
        )

    return stats.map_batches(finish, batch_format="pyarrow").union(
        docs.map_batches(short_doc_zero_rows, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Span-level decontamination: train spans verbatim-present in a benchmark
# ---------------------------------------------------------------------------


_CANDIDATE_SCHEMA = pa.schema(
    [("a_id", pa.int64()), ("b_id", pa.int64()), ("capped", pa.bool_())]
)


def _emit_cross_side_pairs_partition(
    partition: pa.Table,
    max_bucket_pairs: int = 1024,
    hub_fanout: int = 8,
) -> pa.Table:
    """One gram-hash partition of (band_key, doc_id, side) rows ->
    cross-side candidate pairs (a_id = benchmark doc, b_id = train
    doc). Buckets whose bench x train product exceeds the cap connect
    every train doc to the ``hub_fanout`` SMALLEST bench ids (not just
    the minimum: two bench docs can share the selected gram yet carry
    different-length spans, so a single hub under-verified — the
    fanout covers the common few-bench-dups case exactly while
    bounding capped output at hub_fanout x train). ``capped`` rides to
    the output on every hub pair; a capped PAIR that verifies to no
    >= min_len span emits no row, so the accounting is per surviving
    pair, not per bucket. Only buckets containing BOTH sides are
    walked, so the Python loop touches contaminated grams only."""
    if partition.num_rows == 0:
        return _CANDIDATE_SCHEMA.empty_table()
    keys = partition["band_key"].to_numpy(zero_copy_only=False)
    ids = partition["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    side = partition["side"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, side, keys))
    keys, ids, side = keys[order], ids[order], side[order]
    # drop duplicate (key, side, id) rows
    keep = np.concatenate(
        [
            [True],
            (keys[1:] != keys[:-1])
            | (side[1:] != side[:-1])
            | (ids[1:] != ids[:-1]),
        ]
    )
    keys, ids, side = keys[keep], ids[keep], side[keep]
    _, starts, counts = np.unique(keys, return_index=True, return_counts=True)
    # buckets with both sides: side is sorted within bucket (0s first)
    n_bench = np.add.reduceat(
        (side == 0).astype(np.int64), starts
    )
    mixed = (n_bench > 0) & (n_bench < counts)
    a_parts, b_parts, c_parts = [], [], []
    for s, c, nb in zip(starts[mixed], counts[mixed], n_bench[mixed]):
        bench = ids[s : s + nb]
        train = ids[s + nb : s + c]
        if nb * (c - nb) <= max_bucket_pairs:
            a_parts.append(np.repeat(bench, train.size))
            b_parts.append(np.tile(train, bench.size))
            c_parts.append(np.zeros(bench.size * train.size, dtype=bool))
        else:
            hubs = bench[: min(nb, hub_fanout)]  # ids ascend in-bucket
            a_parts.append(np.repeat(hubs, train.size))
            b_parts.append(np.tile(train, hubs.size))
            c_parts.append(np.ones(hubs.size * train.size, dtype=bool))
    if not a_parts:
        return _CANDIDATE_SCHEMA.empty_table()
    return pa.table(
        {
            "a_id": pa.array(np.concatenate(a_parts), pa.int64()),
            "b_id": pa.array(np.concatenate(b_parts), pa.int64()),
            "capped": pa.array(np.concatenate(c_parts), pa.bool_()),
        },
        schema=_CANDIDATE_SCHEMA,
    )


def passage_decontaminate_spans(
    train_ds: "ray.data.Dataset",
    bench_ds: "ray.data.Dataset",
    min_len: int = 13,
    gram_len: int | None = None,
    window: int | None = None,
    num_partitions: int = 64,
    max_bucket_pairs: int = 1024,
) -> "ray.data.Dataset":
    """Span-level benchmark decontamination (the GPT-3 13-gram recipe
    with exact removal boundaries): maximal verbatim token spans of
    >= ``min_len`` tokens in TRAIN documents that also appear anywhere
    in the BENCHMARK corpus, as (doc_id, span_start, span_end,
    span_tokens) rows over the train side. The gram-overlap companion
    (queries.decontaminate_documents) answers *whether* a doc is
    contaminated; this answers *which bytes to cut*.

    Same exact machinery as passage dedup — winnow fingerprints on
    both sides (detection guarantee ``min_len``), one gram-partitioned
    shuffle of (gram, doc, side) id rows, cross-side-only pair
    emission, suffix-array matching statistics of each train doc
    against its matched benchmark doc — so a benchmark of any size
    streams; nothing requires the held-out set to fit in one object.
    Doc ids must be unique ACROSS the two inputs (they address the
    shared token-blob table).
    """
    gram_len, window = _winnow_params(min_len, gram_len, window)

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            t = _fingerprint_batch(batch, gram_len, window)
            return t.append_column(
                "side", pa.nulls(t.num_rows, pa.int8()).fill_null(side)
            )

        return fn

    sig = (
        bench_ds.map_batches(tag(0), batch_format="pyarrow", batch_size=256)
        .union(
            train_ds.map_batches(
                tag(1), batch_format="pyarrow", batch_size=256
            )
        )
        .materialize()
    )

    def explode_side(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parent = pc.list_parent_indices(batch["band_keys"])
        return explode_bands(batch, "doc_id").append_column(
            "side", batch["side"].take(parent)
        )

    pairs = _span_pairs(
        sig,
        sig.select_columns(["doc_id", "band_keys", "side"]).map_batches(
            explode_side, batch_format="pyarrow"
        ),
        lambda g: _emit_cross_side_pairs_partition(g, max_bucket_pairs),
        min_len,
        num_partitions,
    )

    return pairs.groupby("b_id").map_groups(_merge_spans_doc, batch_format="pyarrow")
