"""End-to-end corpus curation: the composition a training-data team
actually runs, as ONE streaming Ray Data pipeline.

    documents
      -> benchmark holdout        (doc_id % bench_mod == 0 held out)
      -> exact dedup, keep-first  (ids-only loser shuffle + anti-join)
      -> quality filter + n-gram decontamination, FUSED in one
         stateless stage (tokenize once per doc, both signal families
         from the same pass; benchmark gram set plasma-broadcast)
      -> (doc_id, lang, source, n_tokens)

Every individual stage already exists as an oracle-green operator
(queries.exact_dedup_documents, queries.c4_quality_filter_documents,
queries.decontaminate_documents); this module proves the COMPOSITION
stays streaming — no driver-side materialization between stages, text
never enters a shuffle, and the whole chain remains SQL-checkable
end-to-end (a single DuckDB CTE pipeline in oracle_sql()).

Scale shapes (100 TB):
- dedup flag exchange moves 24 B/doc (two sha256 lanes + doc_id);
  only LOSERS (all-but-first per duplicate group, bounded by the dup
  rate) flow to the anti-join's right side, which
  stages/candidates.attach_by_key materializes and broadcasts when it
  fits the one broadcast cutover — narrow by construction.
- the benchmark side is eval-set-sized by definition, so its distinct
  gram hashes broadcast once via ray.put (the corpus-scale
  contamination-source variant is queries.decontaminate_documents_
  distributed's gram-partitioned semi-join; swap it in unchanged).
- the fused filter emits only ints/strings — no floats in the output,
  so the driver's value-hash comparison is exact by construction.

Output columns are int64/string only: (doc_id, lang, source,
n_tokens).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray

from clonehunter_ray.functions import hashing as H

_SHA_ROWS_SCHEMA = pa.schema(
    [("h1", pa.int64()), ("h2", pa.int64()), ("doc_id", pa.int64())]
)
_LOSER_SCHEMA = pa.schema([("d_id", pa.int64()), ("dup", pa.int8())])
_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("n_tokens", pa.int64()),
    ]
)


def _sha_lanes(batch: pa.Table) -> pa.Table:
    """(doc_id, text) -> (h1, h2, doc_id): two int64 lanes of the
    text's sha256 (collision odds 2^-128 per pair — the same exactness
    budget as segment.py's 128-bit segment keys)."""
    if batch.num_rows == 0:
        return _SHA_ROWS_SCHEMA.empty_table()
    texts = batch["text"].to_pylist()
    # flag byte keeps the NULL group distinct from '' — SQL's
    # GROUP BY text groups NULLs together but apart from empty
    # strings, and hashing both to sha256('') would merge them
    digests = np.frombuffer(
        b"".join(
            hashlib.sha256(
                b"\x00" if t is None else b"\x01" + t.encode("utf-8")
            ).digest()[:16]
            for t in texts
        ),
        dtype="<i8",
    ).reshape(-1, 2)
    return pa.table(
        {
            "h1": pa.array(digests[:, 0], pa.int64()),
            "h2": pa.array(digests[:, 1], pa.int64()),
            "doc_id": batch["doc_id"],
        },
        schema=_SHA_ROWS_SCHEMA,
    )


def _losers_partition(partition: pa.Table) -> pa.Table:
    """One h1-partition of (h1, h2, doc_id) -> the LOSER doc_ids (all
    but the min doc_id per distinct (h1, h2))."""
    if partition.num_rows == 0:
        return _LOSER_SCHEMA.empty_table()
    h1 = partition["h1"].to_numpy(zero_copy_only=False)
    h2 = partition["h2"].to_numpy(zero_copy_only=False)
    ids = partition["doc_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, h2, h1))
    h1, h2, ids = h1[order], h2[order], ids[order]
    first = np.concatenate(([True], (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])))
    losers = ids[~first]
    return pa.table(
        {
            "d_id": pa.array(losers, pa.int64()),
            "dup": pa.array(np.ones(losers.size, dtype=np.int8), pa.int8()),
        },
        schema=_LOSER_SCHEMA,
    )


def curate_documents(
    docs_ds: "ray.data.Dataset",
    bench_ds: "ray.data.Dataset",
    *,
    gram_k: int = 4,
    min_tokens: int = 25,
    min_distinct_ratio: float = 0.35,
    mean_len_range: tuple[float, float] = (3.0, 8.0),
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Curate ``docs_ds`` (doc_id, text, lang, source) against the
    held-out ``bench_ds`` (doc_id, text). See module docstring."""
    import pyarrow.compute as pc

    from clonehunter_ray.pipelines.queries import (
        _collect_gram_set,
        _count_gram_hits,
    )
    from clonehunter_ray.stages.candidates import attach_by_key
    from clonehunter_ray.util import safe_join_partitions

    nparts = safe_join_partitions(num_partitions)

    from clonehunter_ray.util import scrub_empty_blocks

    # --- exact dedup: ids-only flag shuffle, losers-only collect ---
    # scrubs on both sides of the exchange: the sort emits zero-column
    # blocks for empty partitions and a materialize PRESERVES them
    losers = scrub_empty_blocks(
        scrub_empty_blocks(
            docs_ds.select_columns(["doc_id", "text"])
            .map_batches(_sha_lanes, batch_format="pyarrow")
            .map_batches(
                lambda t: t.append_column(
                    "part",
                    pa.array(
                        t["h1"].to_numpy(zero_copy_only=False) % nparts,
                        pa.int64(),
                    ),
                ),
                batch_format="pyarrow",
            )
        )
        .groupby("part")
        .map_groups(_losers_partition, batch_format="pyarrow")
    )
    # the loser set is bounded by the dup rate and ids-only; the
    # anti-join (left attach + is_null) broadcasts it whenever it
    # ``fits_broadcast`` (the overwhelmingly common case), so the
    # corpus streams through a stateless probe and TEXT NEVER ENTERS A
    # SHUFFLE. The partitioned left-outer join (which hash-partitions
    # the full corpus text by doc_id) remains only for an adversarial
    # mostly-duplicates corpus.
    alive = attach_by_key(
        docs_ds,
        losers,
        "d_id",
        ["dup"],
        on="doc_id",
        how="left",
        num_partitions=nparts,
        schema=_LOSER_SCHEMA,
    ).map_batches(
        lambda t: t.filter(pc.is_null(t["dup"])), batch_format="pyarrow"
    )

    # --- benchmark gram set: small by definition, broadcast once ---
    bench_set = _collect_gram_set(bench_ds, gram_k)
    set_ref = ray.put(bench_set)

    # --- fused quality + decontamination: one stage, one data pass ---
    def fused_filter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        n_rows = batch.num_rows
        flat, parent = H.flat_tokens(batch["text"])
        n = np.bincount(parent, minlength=n_rows).astype(np.int64)
        if len(flat):
            rows, _tok_ids, _tf, _d = H.doc_token_pairs(flat, parent)
            distinct = np.bincount(rows, minlength=n_rows).astype(np.int64)
        else:
            distinct = np.zeros(n_rows, dtype=np.int64)
        low = pc.utf8_lower(pc.fill_null(batch["text"], ""))
        tok_chars = pc.cast(
            pc.count_substring_regex(low, "[a-z0-9_]"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_len = np.where(n > 0, tok_chars / np.maximum(n, 1), 0.0)
            dratio = np.where(n > 0, distinct / np.maximum(n, 1), 0.0)

        gs = ray.get(set_ref)
        # reuse the tokenization above: hash the SAME flat stream and
        # re-split per row — the second lower/regex-split pass the old
        # tokenize_hash_texts call paid is gone (this stage's claim of
        # "tokenize once per doc" is now literally true)
        th_flat = H.hash_token_stream(flat)
        th = np.split(th_flat, np.cumsum(n)[:-1]) if n_rows else []
        grams, rows2 = H.flat_gram_hashes(th, gram_k)
        _, n_hit = _count_gram_hits(grams, rows2, gs, n_rows)

        keep = (
            (n >= min_tokens)
            & (dratio >= min_distinct_ratio)
            & (mean_len >= mean_len_range[0])
            & (mean_len <= mean_len_range[1])
            & (n_hit == 0)
        )
        out = pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "lang": pc.cast(batch["lang"], pa.string()),
                "source": pc.cast(batch["source"], pa.string()),
                "n_tokens": pa.array(n, pa.int64()),
            },
            schema=_OUT_SCHEMA,
        )
        return out.filter(pa.array(keep, pa.bool_()))

    return alive.map_batches(fused_filter, batch_format="pyarrow")


def curate_documents_pipeline(
    sf_dir: str, bench_mod: int = 13, **kwargs
) -> "ray.data.Dataset":
    """Oracle-checked entry over the documents table: docs with
    ``doc_id % bench_mod == 0`` are the held-out benchmark; the rest
    are the training corpus to curate."""
    from clonehunter_ray.util import read_parquet_clean

    def _mod_filter(want_bench: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            mask = (ids % bench_mod == 0) == want_bench
            return t.filter(pa.array(mask, pa.bool_()))

        return f

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    corpus = docs.map_batches(_mod_filter(False), batch_format="pyarrow")
    bench = docs.select_columns(["doc_id", "text"]).map_batches(
        _mod_filter(True), batch_format="pyarrow"
    )
    return curate_documents(corpus, bench, **kwargs)
