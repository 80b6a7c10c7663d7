"""Driver-harness query pipelines over /root/testdata tables.

Each function takes ``sf_dir`` and returns a Dataset / pandas DataFrame
/ pyarrow Table; the matching DuckDB oracle SQL lives in
``__ray_entry__.oracle_sql``. Column names are kept identical between
the Ray result and the SQL so the driver's order-insensitive value-hash
comparison matches.

These exercise the operator inventory of SURVEY.md §2 on generic
tables: exact dedup (fs.py:54-63 analogue), groupby counts
(pipeline.py:239-247 ScanStats analogue), top-k (brute_index.py:42-45
analogue), semi-join scoping (cli/commands/diff.py:62-68 analogue),
token Jaccard (similarity/lexical.py:6-19), plus the training-data
extras (MinHash dedup, SimHash, ANN search, language ID, quality
scoring, token counting, fingerprinting).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from clonehunter_ray.functions import hashing as H
from clonehunter_ray.functions import veccodec as _V
from clonehunter_ray.stages.topk import top_k


def _pt(df: pd.DataFrame, schema: pa.Schema | None = None) -> pa.Table:
    """pandas UDF result -> metadata-free Arrow table (same hashable-
    schema requirement as _strip_meta, for blocks we produce).

    Pass ``schema`` for UDFs that can return EMPTY frames with object
    columns: pandas->Arrow inference types an empty object column as
    ``null``, and the streaming executor then warns about RefBundle
    schema drift between batches."""
    return pa.Table.from_pandas(
        df, preserve_index=False, schema=schema
    ).replace_schema_metadata(None)


def _collect_tables(ds) -> list[pa.Table]:
    """Driver-side collect of a SMALL dataset's blocks, skipping the
    schema-less empty blocks Ray emits for filters/maps over empty
    input blocks (zero columns — a concat or column access on one
    throws; see the sf0.1 broadcast-combiner regression)."""
    return [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]


def _read(sf_dir: str, table: str, columns=None):
    # read_parquet_clean strips the b'pandas' footer metadata at the
    # READ op (unhashable schema -> "Failed to hash the schemas" noise
    # from every downstream shuffle otherwise)
    from clonehunter_ray.util import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _score6(t: pa.Table, cols: list[str]) -> pa.Table:
    """``cols`` of a top-k table plus ``score6``: its ``score`` rounded
    to 6 dp by Python round (correctly-rounded decimal, as DuckDB's
    round(); np.round can differ by 1 ulp and the oracle hash-compare is
    exact) on the emitted rows only — ranking used the unrounded score."""
    s6 = [round(v, 6) for v in t["score"].to_pylist()]
    return t.select(cols).append_column("score6", pa.array(s6, pa.float64()))


# ---------------------------------------------------------------------------
# relational / SQL-checkable operators
# ---------------------------------------------------------------------------


def exact_dedup_documents(sf_dir: str):
    """Exact dedup: group by content hash, keep first (min doc_id).

    Ray shape: vectorized sha256 column -> groupby(hash) aggregate —
    the text itself never enters the shuffle (only the 64-char hash).
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = H.sha256_hex_many(batch["text"].to_pylist())
        return pa.table(
            {"text_sha": pa.array(hashes, pa.string()), "doc_id": batch["doc_id"]}
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        add_hash, batch_format="pyarrow"
    )
    out = ds.groupby("text_sha").aggregate(
        Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dups")
    )
    return out.select_columns(["doc_id", "n_dups"])


def doc_counts_by_lang(sf_dir: str):
    ds = _read(sf_dir, "documents", ["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n_docs"))


def top_k_longest_docs(sf_dir: str, k: int = 20):
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(k)


def changed_scope_semijoin(sf_dir: str):
    """Broadcast semi-join: keep documents whose doc_id is in a small
    'changed' key set (diff-scope semantics, reference diff.py:62-68)."""
    keys = np.arange(0, 100000, 37, dtype=np.int64)
    keys_ref = ray.put(keys)

    def _filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, ks), pa.bool_()))

    return _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        _filter, batch_format="pyarrow"
    )


def token_count_documents(sf_dir: str):
    """Token counting with the reference token alphabet."""

    def count(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        low = pc.utf8_lower(pc.fill_null(batch["text"], ""))
        n = pc.cast(pc.count_substring_regex(low, "[a-z0-9_]+"), pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        count, batch_format="pyarrow"
    )


def doc_quality_counts(sf_dir: str):
    """Quality-scoring inputs as exact integer counts (ratios are
    derived client-side; integers hash exactly across engines)."""

    def metrics(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = pc.fill_null(batch["text"], "")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_len": pc.cast(pc.utf8_length(text), pa.int64()),
                "n_alpha": pc.cast(
                    pc.count_substring_regex(text, "[A-Za-z]"), pa.int64()
                ),
                "n_digit": pc.cast(
                    pc.count_substring_regex(text, "[0-9]"), pa.int64()
                ),
                "n_space": pc.cast(pc.count_substring(text, " "), pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        metrics, batch_format="pyarrow"
    )


_JAC6_SCHEMA = pa.schema(
    [("a_id", pa.int64()), ("b_id", pa.int64()), ("jac6", pa.float64())]
)


def _jac6_verify(threshold: float):
    """Exact token-set Jaccard verify over ``a_tok_hashes`` /
    ``b_tok_hashes`` (attached by stages/candidates.attach_pair_payload):
    pairs with jac >= threshold as (a_id, b_id, jac6)."""

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _JAC6_SCHEMA.empty_table()
        jac = H.jaccard_batch(batch["a_tok_hashes"], batch["b_tok_hashes"])
        sel = np.flatnonzero(jac >= threshold)
        return pa.table(
            {
                "a_id": batch["a_id"].take(sel),
                "b_id": batch["b_id"].take(sel),
                # Python round (correctly-rounded decimal) — np.round can
                # differ by 1 ulp and the oracle hash-compare is exact
                "jac6": pa.array(
                    [round(float(v), 6) for v in jac[sel]], pa.float64()
                ),
            },
            schema=_JAC6_SCHEMA,
        )

    return verify


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.6, max_id: int = 500):
    """Token-set Jaccard >= threshold pairs among doc_id < max_id.

    LSH params give ~certain recall at the threshold (band_rows=2,
    num_bands=64: miss probability (1-0.36)^64 ≈ 4e-13 at j=0.6).

    Pipeline shape is minhash_dedup_pairs' (the engine's one document
    pair path): ids-only (band_key:u64, doc_id:i64) band explode — the
    token payload NEVER rides the x64-band shuffle — then
    stages/candidates.band_pairs (hash-partitioned vectorized pair emit + pair
    dedup, P partition UDF calls, not one per bucket/pair), then the
    token-hash payload attached by stages/candidates.attach_pair_payload
    (plasma broadcast or partitioned joins, its size rule) and exact
    Jaccard verified per batch. This is the SQL-exact variant, so hot
    buckets emit ALL pairs (no hub-spoke cap); the capped/salted scale
    path is pipelines/dedup.py:minhash_dedup_pairs.
    """
    from clonehunter_ray.stages.candidates import (
        attach_pair_payload,
        band_pairs,
        emit_pairs_partition,
        explode_bands,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr=f"doc_id < {max_id}"
    )
    hasher = H.MinHasher(128, 0xD00D)
    num_partitions = 32

    def signatures(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        sets = [H.token_set_hashes(x) for x in th]
        sigs = hasher.signatures_batch(sets)
        bands = H.band_hashes_batch(sigs, 64, 2)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "tok_hashes": pa.array([s.tobytes() for s in sets], pa.binary()),
                "band_keys": pa.array(bands.tolist(), pa.list_(pa.uint64())),
            }
        )

    sig = docs.map_batches(signatures, batch_format="pyarrow").materialize()
    pairs = band_pairs(
        sig.select_columns(["doc_id", "band_keys"]).map_batches(
            explode_bands, fn_kwargs={"id_col": "doc_id"}, batch_format="pyarrow"
        ),
        # full emission: SQL-equality demands every pair
        lambda g: emit_pairs_partition(g, "doc_id", 0, "full", 0),
        num_partitions,
    )
    return attach_pair_payload(
        pairs.select_columns(["a_id", "b_id"]),
        sig,
        "doc_id",
        ["tok_hashes"],
        num_partitions,
    ).map_batches(_jac6_verify(threshold), batch_format="pyarrow")


def _bench_mod_filter(bench_mod: int, want_bench: bool):
    """Benchmark-partition predicate shared by every decontamination
    query (``doc_id % bench_mod == 0`` is the held-out side), kept in
    ONE place so the mask semantics cannot drift between the four
    decontamination pipelines and their SQL oracles' ``doc_id % 13 =
    0`` predicate."""

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        mask = (ids % bench_mod == 0) == want_bench
        return t.filter(pa.array(mask, pa.bool_()))

    return f


def bench_token_index(bench_sets: list[np.ndarray]):
    """CSR inverted index over bench token-hash sets: ``(uniq, off,
    owner, bench_len)``, hash ``uniq[i]`` owned by bench sets
    ``owner[off[i]:off[i+1]]``."""
    flat = np.concatenate(bench_sets)
    owner = np.repeat(
        np.arange(len(bench_sets), dtype=np.int64),
        [len(s) for s in bench_sets],
    )
    order = np.argsort(flat, kind="stable")
    flat, owner = flat[order], owner[order]
    uniq, start = np.unique(flat, return_index=True)
    off = np.append(start, len(flat))
    bench_len = np.array([len(s) for s in bench_sets], dtype=np.int64)
    return uniq, off, owner, bench_len


def max_bench_jaccard(sets: list[np.ndarray], index) -> np.ndarray:
    """Each token set's maximum Jaccard against the bench sets of a
    ``bench_token_index`` (0 without a shared token). Intersections are
    counted for hit pairs only — searchsorted membership, ragged
    expansion of each hit's owner range, ``np.unique`` on the packed
    ``row * n_bench + owner`` key — so scratch is O(hits), not
    O(rows x n_bench)."""
    uniq, off, owner, bench_len = index
    train_len = np.array([len(s) for s in sets], dtype=np.int64)
    tflat = np.concatenate(sets) if sets else np.empty(0, np.uint64)
    rows = np.repeat(np.arange(len(sets), dtype=np.int64), train_len)
    pos = np.searchsorted(uniq, tflat)
    hit = pos < len(uniq)
    hit[hit] = uniq[pos[hit]] == tflat[hit]
    h, r = pos[hit], rows[hit]
    lens = off[h + 1] - off[h]
    starts = np.repeat(off[h], lens)
    within = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
    n_b = len(bench_len)
    pair, inter = np.unique(
        np.repeat(r, lens) * n_b + owner[starts + within], return_counts=True
    )
    pr, pb = pair // n_b, pair % n_b
    union = train_len[pr] + bench_len[pb] - inter
    mx = np.zeros(len(sets))
    np.maximum.at(mx, pr, inter / np.maximum(union, 1))
    return mx


def fuzzy_decontaminate_documents(
    sf_dir: str, threshold: float = 0.5, bench_mod: int = 13
):
    """Near-duplicate benchmark decontamination: for every TRAINING
    document (``doc_id % bench_mod != 0``), its exact maximum token-set
    Jaccard against ANY held-out benchmark document (``doc_id %
    bench_mod == 0``), and ``keep = max < threshold`` — the fuzzy
    companion of ``decontaminate_documents``'s exact-n-gram test (a
    paraphrased eval item shares few verbatim 4-grams but a high token
    Jaccard; D4/GPT-4-style decontamination runs both).

    Ray shape: the benchmark side is SMALL by design (eval sets are
    thousands of docs at any corpus scale), so a CSR inverted index
    (``bench_token_index``) broadcasts once via ray.put; each training
    batch then counts its (doc, bench) intersections sparsely in one
    vectorized pass (``max_bench_jaccard``) and takes the row max. Exact
    (no LSH recall caveat), no shuffle, nothing corpus-sized on the
    driver. jac uses the empty-union-is-0 convention on both engines;
    max_jac6 is Python-rounded per row for DuckDB hash parity.

    The small-bench assumption is enforced: the bench side is
    materialized once and sized by stages/candidates.fits_broadcast,
    and a bench side over that cutover raises ``ValueError`` instead
    of being collected onto the driver.
    """
    from clonehunter_ray.stages import candidates

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = (
        docs.map_batches(_bench_mod_filter(bench_mod, True), batch_format="pyarrow")
        .select_columns(["text"])
        .materialize()
    )
    candidates.guard_broadcast(
        bench,
        "fuzzy_decontaminate_documents: the benchmark side",
        "this shape needs a smaller benchmark set",
    )

    # driver-side CSR index over the (small) benchmark token sets
    bench_sets: list[np.ndarray] = []
    for t in ray.get(bench.to_arrow_refs()):
        if t.num_rows:
            th = H.tokenize_hash_texts(t["text"])
            bench_sets.extend(H.token_set_hashes(x) for x in th)
    idx_ref = ray.put(bench_token_index(bench_sets) if bench_sets else None)

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("max_jac6", pa.float64()),
            ("keep", pa.bool_()),
        ]
    )

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        index = ray.get(idx_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if index is None:
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "max_jac6": pa.array(
                        np.zeros(len(ids)), pa.float64()
                    ),
                    "keep": pa.array(np.ones(len(ids), bool), pa.bool_()),
                },
                schema=out_schema,
            )
        th = H.tokenize_hash_texts(batch["text"])
        mx = max_bench_jaccard([H.token_set_hashes(x) for x in th], index)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                # Python round: correctly-rounded decimal, matching
                # DuckDB's round() where np.round can differ by 1 ulp
                "max_jac6": pa.array(
                    [round(float(v), 6) for v in mx], pa.float64()
                ),
                "keep": pa.array(mx < threshold, pa.bool_()),
            },
            schema=out_schema,
        )

    return docs.map_batches(_bench_mod_filter(bench_mod, False), batch_format="pyarrow").map_batches(
        score, batch_format="pyarrow"
    )


def blocklist_filter_documents(
    sf_dir: str,
    terms: tuple[str, ...] = ("spark", "vector", "dup"),
):
    """Blocklist (bad-words) filter — the C4 recipe's term-filter step:
    flag every document whose lowercased text contains any blocked term
    at a word boundary. Returns one row per document
    (doc_id, blocked) so the audit side (how much would be dropped per
    term list) is as cheap as the filter itself.

    Ray shape: ONE stateless vectorized pass — Arrow's RE2
    ``match_substring_regex`` kernel over the lowercased text column
    (DuckDB's ``regexp_matches`` is also RE2, so the word-boundary
    semantics match bit-for-bit). No shuffle, no Python per row; the
    alternation pattern compiles once per task. At 100 TB a large
    blocklist (tens of thousands of terms) would swap the alternation
    for an Aho-Corasick actor pool, same batch signature.
    """
    import pyarrow.compute as pc

    import re

    if not terms:
        raise ValueError("blocklist_filter_documents: empty term list")
    pattern = r"\b(" + "|".join(re.escape(t) for t in terms) + r")\b"
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def flag(batch: pa.Table) -> pa.Table:
        blocked = pc.match_substring_regex(
            pc.utf8_lower(batch["text"]), pattern
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "blocked": blocked,
            }
        )

    return docs.map_batches(flag, batch_format="pyarrow")


def duplicate_clusters_documents(
    sf_dir: str, threshold: float = 0.6, max_id: int = 500
):
    """Connected-component cluster ids over the exact token-Jaccard
    near-dup graph: every doc_id < max_id gets the MIN doc_id of its
    component (singletons label themselves).

    This oracle-checks the engine's one clustering routine,
    ``stages/clustering.py:connected_components`` (driver union-find
    up to its edge cutover, distributed hook-and-shortcut above it),
    the same routine ``scan()`` and ``minhash_dedup_keep`` use. The
    DuckDB oracle computes the identical labels via a recursive-CTE
    transitive closure over the identical edge set
    (ngram_jaccard_pairs' SQL), so label parity pins the routine
    end-to-end, not just on synthetic pytest graphs. Docs in no edge
    keep their own id."""
    from clonehunter_ray.stages.candidates import attach_by_key
    from clonehunter_ray.stages.clustering import connected_components

    labels = connected_components(
        ngram_jaccard_pairs(sf_dir, threshold=threshold, max_id=max_id),
        columns=("a_id", "b_id"),
    )
    docs = _read(sf_dir, "documents", ["doc_id"]).filter(
        expr=f"doc_id < {max_id}"
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "cluster_id": pc.cast(
                    pc.coalesce(batch["label"], batch["doc_id"]), pa.int64()
                ),
            }
        )

    return attach_by_key(
        docs,
        labels,
        "unit_id",
        ["label"],
        on="doc_id",
        how="left",
        schema=pa.schema([("unit_id", pa.int64()), ("label", pa.int64())]),
    ).map_batches(finish, batch_format="pyarrow")


def ensemble_dup_pairs(
    sf_dir: str, cos_threshold: float = 0.4, jac_threshold: float = 0.5
):
    """Multi-signal near-dup pairs: embedding cosine >= cos_threshold
    AND exact token-set Jaccard >= jac_threshold.

    The production dedup recipe when one signal alone over-fires
    (embeddings catch paraphrases but also topic-siblings; lexical
    Jaccard anchors the decision to shared surface text). Shape:
    candidates come from the exact cosine pair path (normalized corpus
    broadcast once via plasma, block-row Gram per task, no shuffle);
    the token-hash payload is then attached by
    stages/candidates.attach_pair_payload (plasma broadcast or
    partitioned joins, its size rule; a candidate with no document row
    drops out) and Jaccard-verified per batch — candidates stay
    ids-only end-to-end. Both stages are the same kernels the
    single-signal paths use (similarity.embedding_cosine_pairs_exact,
    H.jaccard_batch), so the ensemble adds one verify stage, not new
    machinery."""
    from clonehunter_ray.pipelines.similarity import embedding_cosine_pairs_exact
    from clonehunter_ray.stages.candidates import attach_pair_payload

    cand = embedding_cosine_pairs_exact(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        threshold=cos_threshold,
        ids_only=True,
    )

    def toks(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        sets = [H.token_set_hashes(x) for x in th]
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "tok_hashes": pa.array([s.tobytes() for s in sets], pa.binary()),
            }
        )

    tok = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        toks, batch_format="pyarrow"
    )
    return attach_pair_payload(
        cand, tok, "doc_id", ["tok_hashes"], num_partitions=16
    ).map_batches(_jac6_verify(jac_threshold), batch_format="pyarrow")


def doc_repetition_signals(sf_dir: str):
    """Gopher-style per-document repetition quality signals over token
    2-grams: total / distinct / top-gram multiplicity plus the derived
    duplicate-gram and top-gram fractions (Rae et al. 2021 §A1.1 uses
    these to drop boilerplate-heavy docs before LLM training).

    Ray shape: one stateless vectorized map_batches — batch-flattened
    gram hashing (flat_gram_hashes) + a single lexsort/run-length pass
    per batch (run_stats_per_row); no shuffle, no per-row Python loop.
    Fractions are exact-integer-ratio doubles, so the DuckDB oracle
    matches bit-for-bit.
    """

    def signals(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, 2)
        n, d, top = H.run_stats_per_row(grams, rows, batch.num_rows)
        safe = np.maximum(n, 1).astype(np.float64)
        dup_frac = np.where(n > 0, (n - d) / safe, 0.0)
        top_frac = np.where(n > 0, top / safe, 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_2grams": pa.array(n, pa.int64()),
                "n_distinct_2grams": pa.array(d, pa.int64()),
                "top_2gram_n": pa.array(top, pa.int64()),
                "dup_2gram_frac": pa.array(dup_frac, pa.float64()),
                "top_2gram_frac": pa.array(top_frac, pa.float64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        signals, batch_format="pyarrow"
    )


def _collect_gram_set(ds, k: int, min_df: int | None = None) -> np.ndarray:
    """Driver-side sorted uint64 gram-hash set of a SMALL dataset side.

    With ``min_df`` unset: the distinct k-gram hashes of every row
    (per-batch np.unique, global np.unique of the concatenation). With
    ``min_df`` set: per-row-DISTINCT grams are partially counted per
    batch, summed in a tiny groupby shuffle (rows = distinct grams, not
    gram instances), and only grams whose document frequency reaches
    ``min_df`` are collected — the heavy-hitter set is small by
    construction. Only 8-byte hashes ever reach the driver.
    """

    def batch_grams(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        if min_df is None:
            # int64 reinterpretation: lossless, and Ray's shuffle/key
            # machinery boxes uint64 > 2^63-1 into Python ints it can't
            # rebuild into Arrow blocks
            return pa.table(
                {"gram": pa.array(np.unique(grams).view(np.int64), pa.int64())}
            )
        # distinct (row, gram) -> per-gram count of rows in this batch
        order = np.lexsort((grams, rows))
        g, r = grams[order], rows[order]
        if g.size:
            first = np.empty(g.size, dtype=bool)
            first[0] = True
            first[1:] = (g[1:] != g[:-1]) | (r[1:] != r[:-1])
            gu, cnt = np.unique(g[first], return_counts=True)
        else:
            gu = np.empty(0, dtype=np.uint64)
            cnt = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "gram": pa.array(gu.view(np.int64), pa.int64()),
                "pdf": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    per_batch = ds.map_batches(batch_grams, batch_format="pyarrow")
    if min_df is not None:
        per_batch = per_batch.groupby("gram").sum("pdf")
    chunks = []
    for b in per_batch.iter_batches(batch_format="pyarrow"):
        g = b["gram"].to_numpy(zero_copy_only=False).astype(np.int64)
        if min_df is not None:
            g = g[b["sum(pdf)"].to_numpy(zero_copy_only=False) >= min_df]
        chunks.append(g.view(np.uint64))
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(chunks))


def _count_gram_hits(grams: np.ndarray, rows: np.ndarray, gram_set, n_rows: int):
    """Per-row count of gram INSTANCES whose hash is in the sorted
    ``gram_set`` (searchsorted membership — the set is already sorted)."""
    n_total = np.bincount(rows, minlength=n_rows).astype(np.int64)
    if gram_set.size and grams.size:
        pos = np.searchsorted(gram_set, grams).clip(max=gram_set.size - 1)
        hit = gram_set[pos] == grams
        n_hit = np.bincount(rows[hit], minlength=n_rows).astype(np.int64)
    else:
        n_hit = np.zeros(n_rows, dtype=np.int64)
    return n_total, n_hit


def decontaminate_documents(sf_dir: str, k: int = 4, bench_mod: int = 13):
    """Benchmark decontamination: flag every training document sharing
    at least one token 4-gram with the held-out benchmark set (docs
    with ``doc_id % 13 == 0``) — the standard n-gram-overlap test-set
    decontamination recipe for LLM training corpora.

    Ray shape: the benchmark side is SMALL by design (eval sets are
    thousands of docs even when the corpus is 100 TB), so its distinct
    gram-hash set is collected once, sorted, and plasma-broadcast via
    ray.put; the training side then streams through one stateless
    map_batches doing a vectorized searchsorted membership test. If
    the contamination source were corpus-scale, the right shape is the
    gram-hash-partitioned semi-join (explode ids-only (gram, doc_id),
    groupby gram partition, emit flagged doc_ids) — the machinery
    pipelines/dedup.py already uses for band buckets.
    """
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    bench_set = _collect_gram_set(
        docs.map_batches(_bench_mod_filter(bench_mod, True), batch_format="pyarrow"), k
    )
    set_ref = ray.put(bench_set)

    def flag(batch: pa.Table) -> pa.Table:
        gs = ray.get(set_ref)
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        _, n_hit = _count_gram_hits(grams, rows, gs, batch.num_rows)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_contaminated_grams": pa.array(n_hit, pa.int64()),
                "contaminated": pa.array(n_hit > 0, pa.bool_()),
            }
        )

    return docs.map_batches(_bench_mod_filter(bench_mod, False), batch_format="pyarrow").map_batches(
        flag, batch_format="pyarrow"
    )


def contamination_by_source(sf_dir: str, k: int = 4, bench_mod: int = 13):
    """Per-source contamination audit — the report a data team reads
    BEFORE deciding which crawls need scrubbing: for each source, the
    count and fraction of its training docs sharing >= 1 token k-gram
    with the held-out benchmark slice (same slice and gram recipe as
    ``decontaminate_documents``, so the two oracles stay coupled).

    Ray shape: the benchmark gram set broadcasts once (eval sets are
    small by design); ONE streaming pass emits per-batch (source,
    n_docs, n_contaminated) partials — rows shipped = sources x
    blocks, never the corpus — and a tiny groupby-sum finishes.
    Fractions are exact-int-ratio doubles (oracle bit-exact).
    """
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    bench_set = _collect_gram_set(
        docs.map_batches(
            _bench_mod_filter(bench_mod, True), batch_format="pyarrow"
        ),
        k,
    )
    set_ref = ray.put(bench_set)

    _partial_schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_docs", pa.int64()),
            ("n_contaminated", pa.int64()),
        ]
    )

    def flag_partial(batch: pa.Table) -> pa.Table:
        batch = _bench_mod_filter(bench_mod, False)(batch)
        if batch.num_rows == 0:
            return _partial_schema.empty_table()
        gs = ray.get(set_ref)
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        _, n_hit = _count_gram_hits(grams, rows, gs, batch.num_rows)
        src = batch["source"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(src, return_inverse=True)
        n_docs = np.bincount(inv, minlength=len(uniq))
        n_cont = np.bincount(
            inv, weights=(n_hit > 0), minlength=len(uniq)
        )
        return pa.table(
            {
                "source": pa.array(list(uniq), pa.string()),
                "n_docs": pa.array(n_docs, pa.int64()),
                "n_contaminated": pa.array(
                    n_cont.astype(np.int64), pa.int64()
                ),
            },
            schema=_partial_schema,
        )

    def finish(t: pa.Table) -> pa.Table:
        nd = t["sum(n_docs)"].to_numpy(zero_copy_only=False)
        nc = t["sum(n_contaminated)"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": t["source"],
                "n_docs": pa.array(nd, pa.int64()),
                "n_contaminated": pa.array(nc, pa.int64()),
                "contamination_rate": pa.array(
                    nc / np.maximum(nd, 1), pa.float64()
                ),
            }
        )

    return (
        docs.map_batches(flag_partial, batch_format="pyarrow")
        .groupby("source")
        .sum(["n_docs", "n_contaminated"])
        .map_batches(finish, batch_format="pyarrow")
    )


def frequent_gram_stats_documents(sf_dir: str, k: int = 3, min_df: int = 5):
    """Boilerplate detection: for each document, the fraction of its
    token 3-gram instances whose gram occurs in >= ``min_df`` distinct
    documents corpus-wide (CCNet/C4-style frequent-fragment signal).

    Ray shape, two passes: (1) heavy-hitter discovery — per-batch
    partial document-frequency counts over per-doc-DISTINCT grams
    (each doc lives in exactly one block, so batch partials sum to the
    true df), one tiny groupby('gram') shuffle over (gram, pdf) rows,
    threshold filter; the surviving frequent-gram set is small by the
    heavy-hitter property and is broadcast sorted via ray.put. (2) one
    stateless map_batches counting per-doc instances in the set.
    """
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    freq_set = _collect_gram_set(docs, k, min_df=min_df)
    set_ref = ray.put(freq_set)

    def stats(batch: pa.Table) -> pa.Table:
        gs = ray.get(set_ref)
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        n_total, n_hit = _count_gram_hits(grams, rows, gs, batch.num_rows)
        safe = np.maximum(n_total, 1).astype(np.float64)
        frac = np.where(n_total > 0, n_hit / safe, 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_grams": pa.array(n_total, pa.int64()),
                "n_frequent": pa.array(n_hit, pa.int64()),
                "frequent_frac": pa.array(frac, pa.float64()),
            }
        )

    return docs.map_batches(stats, batch_format="pyarrow")


def _nchars_hist(batch: pa.Table) -> pa.Table:
    """Per-batch (n_chars, count) histogram combiner — the shared
    pre-aggregation behind every length-distribution query: the
    groupby shuffle then moves one row per DISTINCT length, bounded by
    the value domain, independent of corpus size."""
    v, c = np.unique(
        batch["n_chars"].to_numpy(zero_copy_only=False), return_counts=True
    )
    return pa.table(
        {
            "n_chars": pa.array(v.astype(np.int64), pa.int64()),
            "cnt": pa.array(c.astype(np.int64), pa.int64()),
        }
    )


def doc_length_quantiles(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.9, 0.99)):
    """Exact distributed quantiles of n_chars WITHOUT a global sort:
    per-batch (value, count) combiner -> tiny groupby('n_chars') sum
    shuffle (rows = distinct values, not documents) -> driver-side
    cumulative walk over the sorted histogram. At 100 TB the shuffle
    moves one row per distinct length — bounded by the value domain,
    independent of corpus size. Matches DuckDB quantile_disc (value at
    index ceil(q*n)-1 of the sorted column).
    """
    agg = (
        _read(sf_dir, "documents", ["n_chars"])
        .map_batches(_nchars_hist, batch_format="pyarrow")
        .groupby("n_chars")
        .sum("cnt")
        .to_pandas()
        .sort_values("n_chars")
    )
    values = agg["n_chars"].to_numpy()
    counts = agg["sum(cnt)"].to_numpy()
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    if n == 0:
        # quantiles of an empty column: empty result, like the oracle
        return pa.table(
            {"q": pa.array([], pa.float64()), "value": pa.array([], pa.int64())}
        )
    for q in qs:
        idx = max(0, int(np.ceil(q * n)) - 1)
        out_q.append(float(q))
        out_v.append(int(values[np.searchsorted(cum, idx + 1)]))
    return pa.table(
        {"q": pa.array(out_q, pa.float64()), "value": pa.array(out_v, pa.int64())}
    )


def hash_sample_documents(sf_dir: str):
    """Deterministic content-hash sampling: keep documents whose
    sha256(text) first byte < 0x40 (a reproducible ~25% sample —
    the standard way to subsample a 100 TB corpus so every re-run,
    resume, and downstream join sees the same rows with no RNG state).
    One stateless map_batches filter; no shuffle.
    """

    def sample(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        # NULL text drops the row — sha256(NULL) IS NULL in the oracle
        mask = pa.array(
            [
                t is not None and H.sha256_hex(t)[0] in "0123"
                for t in texts
            ],
            pa.bool_(),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "n_chars": batch["n_chars"],
            }
        ).filter(mask)

    return _read(sf_dir, "documents", ["doc_id", "lang", "n_chars", "text"]).map_batches(
        sample, batch_format="pyarrow"
    )


def sample_k_documents(sf_dir: str, k: int = 100):
    """Deterministic EXACT-k uniform sample (the 'give me exactly k
    random rows, reproducibly' primitive the ~25% ``hash_sample`` and
    per-source ``mixture_sample`` don't provide): priority = sha256 of
    the doc_id string, keep the k smallest digests. Uniform because the
    digest is uniform over ids; identical across re-runs, resumes, and
    any partitioning with no RNG state.

    Ray shape: a priority map, then ``stages/topk.top_k`` (a per-batch
    combiner — at most k rows leave any block — and one sort of the
    <= k x n_blocks survivors). The corpus never shuffles.
    """
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def priority(batch: pa.Table) -> pa.Table:
        # drop NULL ids BEFORE to_numpy: one null coerces the int64
        # column to float64 and every id in the block would hash as
        # 'X.0'. Parity: the oracle's sha256(CAST(NULL AS VARCHAR)) is
        # NULL, which sorts NULLS LAST in DuckDB — never sampled while
        # k <= non-null count.
        batch = batch.filter(pc.is_valid(batch["doc_id"]))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        pri = H.sha256_hex_many([str(i) for i in ids])
        return batch.append_column("priority", pa.array(pri, pa.string()))

    return top_k(
        docs.map_batches(priority, batch_format="pyarrow"),
        [("priority", "ascending"), ("doc_id", "ascending")],
        k,
        project=lambda t: t.drop_columns(["priority"]),
    )


def weighted_sample_documents(sf_dir: str, k: int = 100):
    """Deterministic weighted sampling WITHOUT replacement
    (Efraimidis-Spirakis A-ES, 2006): per document, priority =
    ln(u) / w with u a hash-derived uniform in (0,1) and weight
    w = n_chars; the k LARGEST priorities are an exact weighted
    sample without replacement — the primitive behind
    quality-weighted corpus subsetting ('sample 1B tokens biased
    toward long/high-score docs') where uniform ``sample_k`` and
    rate-based ``hash_sample`` both underweight the docs curation
    actually wants. u derives from sha256(doc_id) — no RNG state, so
    re-runs, resumes, and any partitioning produce the identical
    sample, and the identical closed-form runs in the DuckDB oracle.

    Ray shape: a priority map, then ``stages/topk.top_k`` (a per-batch
    combiner and one sort of the <= k x n_blocks survivors); the
    corpus never shuffles. Priorities round to 9 dp in BOTH engines so
    libm ulp drift cannot reorder the rank-k boundary; residual ties
    break on doc_id. NULL ids and non-positive weights are excluded
    (weight 0 = never sampled — the E-S limit), matching the oracle's
    WHERE clause.
    """
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def priority(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch["doc_id"]),
                pc.greater(pc.fill_null(batch["n_chars"], 0), 0),
            )
        )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        w = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        u = H.hex_uniform(H.sha256_hex_many([str(i) for i in ids]))
        key = np.round(np.log(u) / w, 9)
        return batch.append_column("priority", pa.array(key, pa.float64()))

    return top_k(
        docs.map_batches(priority, batch_format="pyarrow"),
        [("priority", "descending"), ("doc_id", "ascending")],
        k,
    )


def knn_cosine_topk(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Brute-force cosine top-k ANN baseline: query matrix broadcast
    once via ray.put, per-batch numpy matmul, then ``stages/topk.top_k``
    per query. Integer-only output: DuckDB's list_cosine_similarity
    runs in float32, so float columns can't hash-match across engines;
    neighbor gaps (~1e-3 in this data) make ranks precision-stable."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    queries = emb.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q_ids = queries["vec_id"].to_numpy()
    q_mat = np.stack(queries["embedding"].to_numpy()).astype(np.float64)
    q_norm = q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, q_norm))

    def score(batch: pa.Table) -> pa.Table:
        ids, qn = ray.get(q_ref)
        vec_ids, matn = _V.normalized_matrix(batch)
        sims = matn @ qn.T  # (batch, n_queries)
        n, nq = sims.shape
        return pa.table(
            {
                "query_id": pa.array(np.tile(ids, n), pa.int64()),
                "vec_id": pa.array(np.repeat(vec_ids, nq), pa.int64()),
                "cos": pa.array(sims.ravel(), pa.float64()),
            }
        )

    return top_k(
        emb.map_batches(score, batch_format="pyarrow"),
        [("cos", "descending"), ("vec_id", "ascending")],
        k,
        by="query_id",
        rank="rank",
        project=lambda t: t.select(["query_id", "vec_id", "rank"]),
    )


def lineitem_pricing_summary(sf_dir: str):
    """TPC-H Q1-flavored grouped aggregate with map-side partial
    aggregation before the shuffle (SURVEY §2.5 pattern). Partials are
    Arrow-native (``Table.group_by``) — zero pandas copies on the hot
    fact-table pass; the rounding in ``finish`` stays ``np.round``
    (the same scaled-rint the pandas path used, so oracle hashes are
    unchanged)."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "l_quantity": batch["l_quantity"],
                "l_extendedprice": batch["l_extendedprice"],
                "disc_price": disc,
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("l_quantity", "sum"),
                ("l_extendedprice", "sum"),
                ("disc_price", "sum"),
                ("l_quantity", "count"),
            ]
        )
        return g.rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty",
                "sum_base",
                "sum_disc",
                "n",
            ]
        )

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(partial, batch_format="pyarrow")
    agg = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="s_qty"),
        Sum("sum_base", alias_name="s_base"),
        Sum("sum_disc", alias_name="s_disc"),
        Sum("n", alias_name="count_order"),
    )

    def _r2(col) -> pa.Array:
        return pa.array(
            np.round(col.to_numpy(zero_copy_only=False), 2), pa.float64()
        )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": pc.cast(batch["l_returnflag"], pa.string()),
                "l_linestatus": pc.cast(batch["l_linestatus"], pa.string()),
                "sum_qty": _r2(batch["s_qty"]),
                "sum_base_price": _r2(batch["s_base"]),
                "sum_disc_price": _r2(batch["s_disc"]),
                "count_order": pc.cast(batch["count_order"], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def events_daily_counts(sf_dir: str):
    """Time-bucketed aggregate: day x event_type counts + value sums.
    Arrow-native partial (``pc.strftime`` + ``Table.group_by``) — the
    events fact pass never round-trips through pandas."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "day": pc.strftime(batch["ts"], format="%Y-%m-%d"),
                "event_type": batch["event_type"],
                "value": batch["value"],
            }
        )
        g = t.group_by(["day", "event_type"]).aggregate(
            [("value", "count"), ("value", "sum")]
        )
        return g.rename_columns(["day", "event_type", "n", "v"])

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow"
    )
    agg = ds.groupby(["day", "event_type"]).aggregate(
        Sum("n", alias_name="n_events"), Sum("v", alias_name="v_sum")
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": pc.cast(batch["day"], pa.string()),
                "event_type": pc.cast(batch["event_type"], pa.string()),
                "n_events": pc.cast(batch["n_events"], pa.int64()),
                "sum_value": pa.array(
                    np.round(
                        batch["v_sum"].to_numpy(zero_copy_only=False), 2
                    ),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def top_users_by_value(sf_dir: str, k: int = 10):
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("user_id").aggregate([("value", "sum")])
        return g.rename_columns(["user_id", "v"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("v", alias_name="v_sum"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "total_value": pa.array(
                    np.round(
                        batch["v_sum"].to_numpy(zero_copy_only=False), 2
                    ),
                    pa.float64(),
                ),
            }
        )

    out = agg.map_batches(finish, batch_format="pyarrow")
    return out.sort(["total_value", "user_id"], descending=[True, False]).limit(k)


def suppliers_per_region(sf_dir: str):
    """Dimension-chain rollup exercising region/nation/supplier: count
    suppliers and sum account balance per region. nation, then region,
    attach through stages/candidates.attach_by_key (broadcast as one
    key-sorted plasma table when a side ``fits_broadcast`` — the map-
    side join, no shuffle until the tiny final groupby — or a
    partitioned hash join above it); inner-join semantics, so a
    supplier with an unknown nationkey is dropped, matching the
    oracle's INNER JOIN (TPC-H FK integrity means none are)."""
    import pyarrow.compute as pc

    from clonehunter_ray.stages.candidates import attach_by_key

    sup = attach_by_key(
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]),
        _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]),
        "n_nationkey",
        ["n_regionkey"],
        on="s_nationkey",
    )
    sup = attach_by_key(
        sup,
        _read(sf_dir, "region", ["r_regionkey", "r_name"]),
        "r_regionkey",
        ["r_name"],
        on="n_regionkey",
    )
    agg = sup.groupby("r_name").aggregate(
        Count(alias_name="n_sum"), Sum("s_acctbal", alias_name="b_sum")
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "r_name": pc.cast(batch["r_name"], pa.string()),
                "n_suppliers": pc.cast(batch["n_sum"], pa.int64()),
                "total_acctbal": pa.array(
                    np.round(
                        batch["b_sum"].to_numpy(zero_copy_only=False), 2
                    ),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def parts_by_brand(sf_dir: str):
    """Grouped aggregate over the part table (Arrow-native map-side
    partial agg)."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("p_brand").aggregate(
            [
                ("p_retailprice", "count"),
                ("p_retailprice", "sum"),
                ("p_size", "max"),
            ]
        )
        return g.rename_columns(["p_brand", "n", "p", "mx"])

    ds = _read(
        sf_dir, "part", ["p_brand", "p_retailprice", "p_size"]
    ).map_batches(partial, batch_format="pyarrow")
    agg = ds.groupby("p_brand").aggregate(
        Sum("n", alias_name="n_sum"),
        Sum("p", alias_name="p_sum"),
        Max("mx", alias_name="mx_max"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": pc.cast(batch["p_brand"], pa.string()),
                "n_parts": pc.cast(batch["n_sum"], pa.int64()),
                "sum_retail": pa.array(
                    np.round(
                        batch["p_sum"].to_numpy(zero_copy_only=False), 2
                    ),
                    pa.float64(),
                ),
                "max_size": pc.cast(batch["mx_max"], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def events_asof_latest_view(sf_dir: str):
    """As-of join (an operator Ray Data lacks natively, SURVEY §2.4):
    for each ``purchase`` event, the latest strictly-earlier ``view``
    event of the same user.

    Ray shape: ONE hash shuffle co-partitions both sides by user_id
    (``groupby(user_id).map_groups``), then a vectorized sort +
    ``np.searchsorted`` merge inside each group. Partitioning
    assumption: a user's events fit in one group — true for any
    per-entity event history; at 100 TB the same code runs with the
    group key salted by coarse time range plus a boundary pass.
    ``ts`` is unique per user in this data, so the result is
    deterministic without tie-breaking.
    """
    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"]).filter(
        expr="event_type == 'purchase' or event_type == 'view'"
    )

    asof_schema = pa.schema(
        [
            ("purchase_id", pa.int64()),
            ("user_id", pa.int64()),
            ("view_id", pa.int64()),
        ]
    )

    def asof_group(g: pa.Table) -> pa.Table:
        et = g["event_type"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vm = et == "view"
        bm = et == "purchase"
        if not vm.any() or not bm.any():
            return asof_schema.empty_table()
        vord = np.argsort(ts[vm], kind="stable")
        vt = ts[vm][vord]
        vid = eid[vm][vord]
        idx = np.searchsorted(vt, ts[bm], side="left") - 1
        keep = idx >= 0
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "purchase_id": pa.array(eid[bm][keep], pa.int64()),
                "user_id": pa.array(uid[bm][keep], pa.int64()),
                "view_id": pa.array(vid[idx[keep]], pa.int64()),
            },
            schema=asof_schema,
        )

    return ev.groupby("user_id").map_groups(asof_group, batch_format="pyarrow")


def top_orders_per_customer(sf_dir: str, k: int = 3):
    """Per-group window rank (row_number over partition): top-k orders
    per customer by total price (tie: orderkey). Ray shape:
    ``stages/topk.top_k`` by custkey — a per-batch cut, then
    groupby(custkey) with the final cut and rank; no global sort."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def project(t: pa.Table) -> pa.Table:
        price = np.round(t["o_totalprice"].to_numpy(), 2)
        i = t.schema.get_field_index("o_totalprice")
        return t.set_column(i, "o_totalprice", pa.array(price, pa.float64()))

    return top_k(
        ds,
        [("o_totalprice", "descending"), ("o_orderkey", "ascending")],
        k,
        by="o_custkey",
        rank="rank",
        project=project,
    )


def distinct_users_per_event_type(sf_dir: str):
    """Exact distinct-count: per-batch local dedup (combiner) shrinks
    the shuffle, groupby(type,user) finishes the distinct, then a tiny
    groupby(type) counts — COUNT(DISTINCT) without shipping raw rows."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def local_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.drop_duplicates()

    pairs = (
        ds.map_batches(local_distinct, batch_format="pandas")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="c"))
        .select_columns(["event_type"])
    )
    out = pairs.groupby("event_type").aggregate(Count(alias_name="n_users"))
    return out


def _flat_tokens_lower(text_col):
    """The canonical token stream: lower -> split on the token
    alphabet's complement -> flatten -> drop boundary empties.
    Shared by token_vocabulary_topk and heavy_hitter_tokens so the two
    queries (and their common oracle regex '[a-z0-9_]+') cannot
    drift apart. Thin wrapper over the engine-wide canonical tokenizer
    (functions/hashing.flat_tokens) on its no-parent fast path."""
    return H.flat_tokens(text_col, with_parent=False)[0]


# sidecar key carrying each batch's MG decrement through the merge
# shuffle ('\x00' sorts before every real token and cannot appear in
# the '[a-z0-9_]+' alphabet)
_MG_ERR_KEY = "\x00__mg_err__"


def zipf_token_audit(sf_dir: str, top_k: int = 10):
    """Corpus-health audit: type/token counts, top-``top_k``-type
    coverage, and the Zipf slope (OLS of ln(freq) on ln(rank) over the
    frequency-ranked vocabulary, rank ties broken by token) — the
    three numbers a tokenizer-budget or crawl-quality review reads
    first (natural text sits near alpha = -1; boilerplate-heavy or
    template corpora flatten the head and steepen the tail).

    Ray shape: per-batch token-count folds -> ONE vocab-bounded
    groupby(tok) exchange; the ranked walk then runs on the collected
    (tok, n) table — vocabulary-sized, not corpus-sized. The counts
    are materialized and sized by stages/candidates.fits_broadcast
    BEFORE the collect, and a vocabulary over that cutover raises
    ``ValueError`` (a 100 TB-vocabulary variant would rank via a
    count-histogram prefix scan instead). Coverage is integer-exact;
    the slope is the standard centered-moments formula, matching DuckDB
    ``regr_slope`` to ~1e-12 before the shared 6 dp rounding.
    """
    docs = _read(sf_dir, "documents", ["text"])
    cnt_schema = pa.schema([("tok", pa.string()), ("n", pa.int64())])

    def fold(batch: pa.Table) -> pa.Table:
        # with_parent=False: this scan only needs the token stream —
        # skip the per-token parent-index materialization
        flat, _ = H.flat_tokens(batch["text"], with_parent=False)
        if len(flat) == 0:
            return cnt_schema.empty_table()
        w = flat.to_numpy(zero_copy_only=False)
        uw, un = np.unique(w, return_counts=True)
        return pa.table(
            {
                "tok": pa.array(list(uw), pa.string()),
                "n": pa.array(un.astype(np.int64), pa.int64()),
            },
            schema=cnt_schema,
        )

    from clonehunter_ray.stages import candidates
    from clonehunter_ray.util import scrub_empty_blocks

    counts = scrub_empty_blocks(
        docs.map_batches(fold, batch_format="pyarrow").groupby("tok").sum("n")
    ).materialize()
    candidates.guard_broadcast(
        counts,
        "zipf_token_audit: the vocabulary",
        "this corpus needs a histogram-rank variant",
    )
    blocks = _collect_tables(counts)
    out_schema = pa.schema(
        [
            ("n_types", pa.int64()),
            ("n_tokens", pa.int64()),
            (f"top{top_k}_coverage", pa.float64()),
            ("zipf_alpha", pa.float64()),
        ]
    )
    if not blocks:
        # the oracle is a no-GROUP-BY aggregate: one row even over an
        # empty vocabulary (count 0, NULL sums/slope), never zero rows
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_types": pa.array([0], pa.int64()),
                    "n_tokens": pa.array([None], pa.int64()),
                    f"top{top_k}_coverage": pa.array([None], pa.float64()),
                    "zipf_alpha": pa.array([None], pa.float64()),
                },
                schema=out_schema,
            )
        )
    allc = pa.concat_tables(blocks).combine_chunks()
    toks = np.asarray(allc["tok"].to_pylist(), dtype=object)
    ns = allc["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((toks, -ns))  # freq desc, token asc
    ns = ns[order]
    n_tokens = int(ns.sum())
    cov = float(ns[:top_k].sum()) / n_tokens
    x = np.log(np.arange(1, len(ns) + 1, dtype=np.float64))
    y = np.log(ns.astype(np.float64))
    xc = x - x.mean()
    denom = float((xc * xc).sum())
    # single-type vocabulary: zero rank variance -> regr_slope is NULL
    alpha = (
        round(float((xc * (y - y.mean())).sum() / denom), 6)
        if denom > 0.0
        else None
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "n_types": pa.array([len(ns)], pa.int64()),
                "n_tokens": pa.array([n_tokens], pa.int64()),
                f"top{top_k}_coverage": pa.array(
                    [round(cov, 6)], pa.float64()
                ),
                "zipf_alpha": pa.array([alpha], pa.float64()),
            },
            schema=out_schema,
        )
    )


def heavy_hitter_tokens(
    sf_dir: str,
    k: int = 10,
    mg_size: int = 64,
    max_id: int = 500,
    max_candidates: int = 100_000,
):
    """Exact top-k tokens via the candidate-then-verify scale pattern:
    per-batch Misra-Gries summaries -> tiny merge shuffle -> broadcast
    candidate set -> exact recount of candidates only.

    ``token_vocabulary_topk`` ships one row per distinct token per
    batch — fine at a 31-token test vocab, a billions-row shuffle on a
    web-scale corpus. Misra-Gries caps pass 1 at ``mg_size`` rows per
    batch regardless of vocabulary size.

    Candidate rule: for any MERGED token, true_count lies in
    [under, under + err_total], where ``under`` is its summed MG
    underestimate and ``err_total`` the sum of per-batch decrements
    (<= n/(mg_size+1) globally). Every merged token whose count could
    reach the k-th place (under + err_total >= kth_under) becomes a
    candidate; each batch's top-k is always seeded so the merge is
    never empty. A token emitted by NO batch has true count <=
    err_total — that is the information-theoretic limit of any
    fixed-memory summary, so the top-k is PROVABLY exact iff the
    recounted k-th count exceeds err_total (every non-candidate is
    then strictly below it). That certificate is checked after the
    recount: when it fails (the "top-k" are not actual
    n/(mg_size+1)-heavy hitters) a warning is logged telling the
    caller to raise mg_size — never a silent maybe-wrong answer.
    ``max_candidates`` bounds the broadcast; truncation also voids
    the certificate and logs (no silent caps)."""
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr=f"doc_id < {max_id}"
    )

    def mg_partial(batch: pa.Table) -> pa.Table:
        flat = _flat_tokens_lower(batch["text"])
        vc = flat.value_counts()
        toks = np.asarray(vc.field("values").to_pylist(), dtype=object)
        counts = vc.field("counts").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        if len(counts) == 0:
            return pa.table(
                {"tok": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        err = int(counts.sum()) // (mg_size + 1)
        # MG survivors: count > batch_n/(m+1), capped at the m largest,
        # plus the batch top-k seeds (never-empty merge input)
        order = np.lexsort((toks.astype(str), -counts))[:mg_size]
        sel = order[
            (counts[order] > err) | (np.arange(len(order)) < k)
        ]
        out_toks = toks[sel].tolist() + [_MG_ERR_KEY]
        # MG underestimate (floored at 1 for seeds) + the err sidecar
        out_ns = np.maximum(counts[sel] - err, 1).tolist() + [err]
        return pa.table(
            {
                "tok": pa.array(out_toks, pa.string()),
                "n": pa.array(out_ns, pa.int64()),
            }
        )

    merged = (
        docs.map_batches(mg_partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("n", alias_name="under"))
        .materialize()
    )

    def _split_err(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["tok"], _MG_ERR_KEY))

    err_rows = merged.map_batches(_split_err, batch_format="pyarrow").take_all()
    err_total = int(err_rows[0]["under"]) if err_rows else 0
    real = merged.map_batches(
        lambda t: t.filter(pc.not_equal(t["tok"], _MG_ERR_KEY)),
        batch_format="pyarrow",
    )
    top_rows = real.sort(["under", "tok"], descending=[True, False]).limit(
        k
    ).take_all()
    kth_under = int(top_rows[-1]["under"]) if len(top_rows) >= k else 0
    floor_under = kth_under - err_total

    cand_rows = (
        real.map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["under"], pa.scalar(floor_under))
            ),
            batch_format="pyarrow",
        )
        .sort(["under", "tok"], descending=[True, False])
        .limit(max_candidates)
        .take_all()
    )
    if len(cand_rows) >= max_candidates:
        import logging

        logging.getLogger(__name__).warning(
            "heavy_hitter_tokens: candidate set truncated at %d — the "
            "exactness guarantee is voided; raise max_candidates or "
            "mg_size",
            max_candidates,
        )
    cand_array = pa.array(
        sorted(r["tok"] for r in cand_rows), pa.string()
    )

    def recount(batch: pa.Table) -> pa.Table:
        flat = _flat_tokens_lower(batch["text"])
        keep = pc.is_in(flat, value_set=cand_array)
        vc = flat.filter(keep).value_counts()
        return pa.table(
            {
                "tok": pc.cast(vc.field("values"), pa.string()),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    result = (
        docs.map_batches(recount, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("n", alias_name="n_sum"))
        .map_batches(
            lambda t: pa.table(
                {
                    "tok": pc.cast(t["tok"], pa.string()),
                    "n": pc.cast(t["n_sum"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort(["n", "tok"], descending=[True, False])
        .limit(k)
        .materialize()  # k rows; consumers read the cached blocks
    )
    rows = result.take_all()
    kth_count = int(rows[-1]["n"]) if len(rows) >= k else 0
    if rows and kth_count <= err_total:
        import logging

        logging.getLogger(__name__).warning(
            "heavy_hitter_tokens: k-th count %d <= summed MG error %d "
            "— the requested top-k are not n/(mg_size+1)-heavy "
            "hitters, so a sub-threshold token could be missing; "
            "raise mg_size for a certificate",
            kth_count,
            err_total,
        )
    return result


def approx_distinct_users_hll(sf_dir: str, p: int = 12):
    """Approximate COUNT(DISTINCT user_id) per event_type via
    HyperLogLog (functions/sketches.py) — the 100 TB alternative to
    ``distinct_users_per_event_type``: instead of shipping one row per
    distinct (type, user) through the shuffle, each batch emits ONE
    2^p-byte register blob per event type present, and the groupby
    merges blobs with an elementwise max. Shuffle volume is
    O(batches x types x 4 KiB), independent of cardinality.

    Approximate by design (rho ~1.6% at p=12) -> rows-only in the
    driver harness; pytest pins relative error vs the exact query."""
    from clonehunter_ray.functions import sketches as S

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # NULL semantics match the exact query: COUNT(DISTINCT user_id)
        # ignores NULL users; a NULL event_type is its own group
        # (sentinel string — np.unique cannot sort None next to str,
        # and a NaN-bearing float64 user column would hash garbage)
        valid = pc.is_valid(batch["user_id"])
        batch = batch.filter(valid)
        types = pc.fill_null(
            pc.cast(batch["event_type"], pa.string()), "\x00null"
        ).to_numpy(zero_copy_only=False)
        users = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        out_t, out_r = [], []
        for t in np.unique(types):
            out_t.append(str(t))
            out_r.append(S.hll_partial(users[types == t], p).tobytes())
        return pa.table(
            {
                "event_type": pa.array(out_t, pa.string()),
                "regs": pa.array(out_r, pa.binary()),
            }
        )

    def finish(group: pa.Table) -> pa.Table:
        merged = S.hll_merge(group["regs"].to_pylist())
        etype = group["event_type"][0].as_py()
        return pa.table(
            {
                "event_type": pa.array(
                    [None if etype == "\x00null" else etype], pa.string()
                ),
                "approx_users": pa.array(
                    [int(round(S.hll_estimate(merged)))], pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(finish, batch_format="pyarrow")
    )


def order_priority_counts(sf_dir: str):
    """Filtered groupby count (TPC-H Q4 flavor): 1996 orders by
    priority. The date filter runs inside the read's map stage so only
    matching rows reach the (tiny) shuffle."""
    import datetime

    import pyarrow.compute as pc

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate"])
    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["o_orderdate"], pa.scalar(lo)),
            pc.less(batch["o_orderdate"], pa.scalar(hi)),
        )
        g = (
            batch.filter(m)
            .select(["o_orderpriority"])
            .group_by("o_orderpriority")
            .aggregate([("o_orderpriority", "count")])
        )
        return g.rename_columns(["o_orderpriority", "n"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n", alias_name="n_sum"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderpriority": pc.cast(
                    batch["o_orderpriority"], pa.string()
                ),
                "n_orders": pc.cast(batch["n_sum"], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_VALUE_BUCKETS = [0.0, 10.0, 50.0, 100.0, 500.0]  # left edges; last is open


def events_value_range_join(sf_dir: str):
    """Range join (SURVEY §2.4 custom-operator class): band each event
    value into a bucket dimension of [lo, hi) ranges and aggregate.

    Ray shape: the (tiny) range table is broadcast once and each batch
    does one vectorized ``np.searchsorted`` — no shuffle for the join
    itself, only the small final groupby. This is the scale pattern
    for any small-side interval/band join (IP ranges, price bands,
    histogram binning).
    """
    edges = np.asarray(_VALUE_BUCKETS)
    edges_ref = ray.put(edges)

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        e = ray.get(edges_ref)
        v = batch["value"].to_numpy()
        idx = np.searchsorted(e, v, side="right") - 1
        idx = np.clip(idx, 0, len(e) - 1)
        df = pd.DataFrame({"bucket_lo": e[idx], "value": v})
        return df.groupby("bucket_lo", as_index=False).agg(
            n=("value", "size"), v=("value", "sum")
        )

    ds = _read(sf_dir, "events", ["value"]).map_batches(
        bucketize, batch_format="pandas"
    )
    agg = ds.groupby("bucket_lo").aggregate(
        Sum("n", alias_name="n_sum"), Sum("v", alias_name="v_sum")
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "bucket_lo": batch["bucket_lo"],
                "n_events": batch["n_sum"].astype("int64"),
                "sum_value": batch["v_sum"].round(2),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def events_sessionization(sf_dir: str, gap_minutes: int = 30):
    """Sessionization (the classic streaming/window operator): split a
    user's event stream into sessions at inactivity gaps > gap_minutes
    and count sessions + events per user.

    Ray shape: ONE hash shuffle co-partitions by user_id, then a
    vectorized np.diff over the sorted timestamps inside each group.
    Same partitioning assumption as the as-of join (a user's history
    fits one group; salt by coarse time range + boundary pass at
    extreme scale)."""
    gap = np.timedelta64(gap_minutes * 60, "s")
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessions(g: pa.Table) -> pa.Table:
        ts = np.sort(g["ts"].to_numpy(zero_copy_only=False))
        n_sessions = 1 + int((np.diff(ts) > gap).sum()) if len(ts) else 0
        return pa.table(
            {
                "user_id": pa.array([g["user_id"][0].as_py()], pa.int64()),
                "n_sessions": pa.array([n_sessions], pa.int64()),
                "n_events": pa.array([len(ts)], pa.int64()),
            }
        )

    return ds.groupby("user_id").map_groups(sessions, batch_format="pyarrow")


def customers_without_orders(sf_dir: str):
    """Anti-join: customers with no URGENT orders. The distinct
    urgent-order custkeys (per-batch distinct, then a groupby) left-
    attach onto customer through stages/candidates.attach_by_key —
    broadcast as one key-sorted plasma table when they
    ``fits_broadcast``, a partitioned left-outer join above — and the
    null-extended rows are kept; no driver-side key set. Zero urgent
    orders give an empty side, which attach_by_key extends with typed
    nulls (every customer is kept). (Scoped to URGENT because the
    synthetic data gives every customer *some* order — an unscoped
    anti-join is degenerately empty at every sf.)"""
    import pyarrow.compute as pc

    from clonehunter_ray.stages.candidates import attach_by_key

    def local_distinct(batch: pa.Table) -> pa.Table:
        urgent = batch.filter(
            pc.equal(batch["o_orderpriority"], "1-URGENT")
        )
        keys = np.unique(urgent["o_custkey"].to_numpy(zero_copy_only=False))
        return pa.table({"o_custkey": pa.array(keys, pa.int64())})

    dist = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(local_distinct, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n_o"))
    )
    joined = attach_by_key(
        _read(sf_dir, "customer", ["c_custkey", "c_name"]),
        dist,
        "o_custkey",
        ["n_o"],
        on="c_custkey",
        how="left",
        schema=pa.schema([("o_custkey", pa.int64()), ("n_o", pa.int64())]),
    )

    def keep_unmatched(batch: pa.Table) -> pa.Table:
        mask = pc.is_null(batch["n_o"])
        return batch.filter(mask).select(["c_custkey", "c_name"])

    return joined.map_batches(keep_unmatched, batch_format="pyarrow")


def shipping_priority_revenue(sf_dir: str, k: int = 10):
    """TPC-H Q3 flavor: top-k open orders of BUILDING-segment customers
    by pending revenue. Ray shape: orders behind their date filter
    semi-join the segment's custkeys, lineitem is pre-aggregated per
    orderkey behind its date filter (combiner), and the doubly-filtered
    orders side (segment x date cuts it to a few % of the table)
    attaches its order date onto those partials — both through
    stages/candidates.attach_by_key (one key-sorted plasma table when
    the side ``fits_broadcast``, a partitioned hash join above it, so
    no fact-scale table is ever broadcast) — then a tiny final groupby
    + sort-limit."""
    import datetime

    import pyarrow.compute as pc

    from clonehunter_ray.stages.candidates import attach_by_key

    cutoff = pa.scalar(datetime.datetime(1995, 3, 15), pa.timestamp("us"))

    def date_filter(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less(batch["o_orderdate"], cutoff))
        day = pc.cast(pc.cast(t["o_orderdate"], pa.date32()), pa.string())
        return t.set_column(
            t.schema.get_field_index("o_orderdate"), "o_orderdate", day
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(date_filter, batch_format="pyarrow")
    building = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).filter(
        expr="c_mktsegment == 'BUILDING'"
    )
    orders = attach_by_key(orders, building, "c_custkey", [], on="o_custkey")

    def line_partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(1, t["l_discount"])
        )
        return (
            pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})
            .group_by("l_orderkey", use_threads=False)
            .aggregate([("rev", "sum")])
            .rename_columns(["l_orderkey", "v"])
        )

    line = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(line_partial, batch_format="pyarrow")
    joined = attach_by_key(
        line, orders, "o_orderkey", ["o_orderdate"], on="l_orderkey"
    )
    agg = joined.groupby(["l_orderkey", "o_orderdate"]).aggregate(
        Sum("v", alias_name="v_sum")
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": pc.cast(batch["l_orderkey"], pa.int64()),
                "o_orderdate": batch["o_orderdate"],
                "revenue": pa.array(
                    np.round(batch["v_sum"].to_numpy(zero_copy_only=False), 2),
                    pa.float64(),
                ),
            }
        )

    return (
        agg.map_batches(finish, batch_format="pyarrow")
        .sort(
            ["revenue", "o_orderdate", "l_orderkey"],
            descending=[True, False, False],
        )
        .limit(k)
    )


def token_vocabulary_topk(sf_dir: str, k: int = 50, max_id: int = 500):
    """Corpus vocabulary: top-k tokens by total occurrence count over
    doc_id < max_id. Ray shape: per-batch Arrow value_counts (combiner)
    shrinks the shuffle to one (token, n) row per distinct token per
    batch; groupby(token) sums; the global sort runs on the tiny vocab.
    Tokenization is the C++ kernel chain lower -> split on the token
    alphabet's complement -> flatten (equivalent to findall of
    ``[a-z0-9_]+`` after dropping boundary empties)."""
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr=f"doc_id < {max_id}"
    )

    def partial(batch: pa.Table) -> pa.Table:
        vc = _flat_tokens_lower(batch["text"]).value_counts()
        return pa.table(
            {
                "tok": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("n", alias_name="n_sum"))
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"tok": batch["tok"], "n": batch["n_sum"].astype("int64")}
        )

    return (
        agg.map_batches(finish, batch_format="pandas")
        .sort(["n", "tok"], descending=[True, False])
        .limit(k)
    )


def redact_numbers_documents(sf_dir: str, max_id: int = 500):
    """PII-scrub-style text transform: every digit run replaced with a
    '#' placeholder — fully Arrow-vectorized
    (pc.replace_substring_regex), the pattern for any regex-based
    redaction/normalization pass over a 100 TB text column."""
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr=f"doc_id < {max_id}"
    )

    def redact(batch: pa.Table) -> pa.Table:
        red = pc.replace_substring_regex(
            pc.fill_null(batch["text"], ""), "[0-9]+", "#"
        )
        return pa.table({"doc_id": batch["doc_id"], "redacted": red})

    return docs.map_batches(redact, batch_format="pyarrow")


# PII scrubbing patterns — RE2 syntax identical in pyarrow and DuckDB.
# Order matters: URLs first (they can contain @ and digits), then
# emails, then phone-like digit runs.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"https?://[^\s]+", "<URL>"),
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\+?[0-9][0-9()\-\s]{6,}[0-9]", "<PHONE>"),
]


def redact_pii_batch(texts, patterns=None):
    """Apply the PII patterns to an Arrow string array — one
    pc.replace_substring_regex (RE2, vectorized) per pattern."""
    import pyarrow.compute as pc

    out = texts
    for pat, repl in patterns or PII_PATTERNS:
        out = pc.replace_substring_regex(out, pat, repl)
    return out


def redact_pii_documents(sf_dir: str, max_id: int = 500):
    """PII scrubbing over the text column: URLs, emails, and
    phone-like digit runs replaced by typed placeholders — the
    standard pre-training scrub pass, fully Arrow-vectorized (one RE2
    kernel per pattern, no Python rows). The synthetic corpus carries
    no PII so the sf-table oracle is structural; the kernel's real
    behavior is pinned by pytest against DuckDB regexp_replace on
    strings that DO contain emails/URLs/phones."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).filter(
        expr=f"doc_id < {max_id}"
    )

    def redact(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        red = redact_pii_batch(pc.fill_null(batch["text"], ""))
        return pa.table({"doc_id": batch["doc_id"], "redacted": red})

    return docs.map_batches(redact, batch_format="pyarrow")


def stratified_sample_embeddings(sf_dir: str, per_label: int = 20):
    """Deterministic stratified sample: the first ``per_label`` vec_ids
    of every label (class-balanced subset selection — the shape of any
    per-class quota pass over training data). ``stages/topk.top_k`` by
    label: a per-batch cut, then one co-partitioning shuffle of the
    survivors and the final cut."""
    ds = _read(sf_dir, "embeddings", ["label", "vec_id"])
    return top_k(ds, [("vec_id", "ascending")], per_label, by="label")


def label_centroids(sf_dir: str):
    """Vector aggregate: mean embedding per label (class centroids for
    ANN seeding / dataset cartography). Map-side partial vector sums
    per batch (combiner), tiny final combine per label — the raw
    vectors never shuffle, only one (label, sum-vector) row per label
    per batch does. Output is long format (label, dim, centroid) so the
    DuckDB oracle (generate_subscripts + unnest + avg) checks every
    component; dim is 1-based to match generate_subscripts."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for label, g in batch.groupby("label"):
            mat = np.stack(g["embedding"].to_numpy()).astype(np.float64)
            rows.append(
                {
                    "label": int(label),
                    "vec_sum": mat.sum(axis=0).tobytes(),
                    "n": len(mat),
                }
            )
        return pd.DataFrame(rows, columns=["label", "vec_sum", "n"])

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        mats = np.stack(
            [np.frombuffer(b, dtype=np.float64) for b in g["vec_sum"]]
        )
        cent = np.round(mats.sum(axis=0) / int(g["n"].sum()), 6)
        d = len(cent)
        return pd.DataFrame(
            {
                "label": np.full(d, int(g["label"].iloc[0]), dtype=np.int64),
                "dim": np.arange(1, d + 1, dtype=np.int64),
                "centroid": cent,
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("label")
        .map_groups(combine, batch_format="pandas")
    )


def events_rolling_7d(sf_dir: str):
    """Sliding windowed aggregate: 7-day rolling event count per
    event_type over the daily series.

    Ray shape: the raw stream is first reduced to one row per
    (day, type) — the full-size shuffle happens on PRE-AGGREGATED data
    — then the tiny daily series is windowed per type inside
    ``map_groups`` with a vectorized cumsum sliding diff. At 100 TB the daily
    series stays small (days x types), so the window step never sees
    raw rows.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(day=batch["ts"].dt.strftime("%Y-%m-%d"))
        return batch.groupby(["day", "event_type"], as_index=False).agg(
            n=("event_type", "size")
        )

    daily = (
        _read(sf_dir, "events", ["ts", "event_type"])
        .map_batches(partial, batch_format="pandas")
        .groupby(["day", "event_type"])
        .aggregate(Sum("n", alias_name="n_events"))
    )

    def rolling(g: pa.Table) -> pa.Table:
        day = g["day"].to_numpy(zero_copy_only=False)
        order = np.argsort(day, kind="stable")
        n = g["n_events"].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        # rolling(window=7, min_periods=1).sum() == cumsum sliding diff
        c = np.cumsum(n)
        n7 = c.copy()
        n7[7:] = c[7:] - c[:-7]
        et = g["event_type"].to_numpy(zero_copy_only=False)[order]
        return pa.table(
            {
                "day": pa.array(day[order], pa.string()),
                "event_type": pa.array(et, pa.string()),
                "n_events": pa.array(n, pa.int64()),
                "n_7d": pa.array(n7, pa.int64()),
            }
        )

    return daily.groupby("event_type").map_groups(rolling, batch_format="pyarrow")


def revenue_by_nation(sf_dir: str):
    """Multi-table star join done the Ray-Data way: the lineitem side
    is pre-aggregated per orderkey inside map_batches (combiner, so the
    attaches carry partial sums, not raw line items), then orders,
    customer and nation attach in turn through
    stages/candidates.attach_by_key — each side broadcast as one
    key-sorted plasma table when it ``fits_broadcast``, a partitioned
    hash join otherwise (orders is fact-scale and customer is 1/10th
    of it, so neither is broadcast unconditionally). Inner-join
    semantics throughout, then a per-batch nation partial and a tiny
    final groupby."""
    import pyarrow.compute as pc

    from clonehunter_ray.stages.candidates import attach_by_key

    def partial_by_order(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(1, batch["l_discount"]),
        )
        return (
            pa.table({"l_orderkey": batch["l_orderkey"], "rev": rev})
            .group_by("l_orderkey", use_threads=False)
            .aggregate([("rev", "sum"), ("rev", "count")])
            .rename_columns(["l_orderkey", "v", "n"])
        )

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(partial_by_order, batch_format="pyarrow")
    keyed = attach_by_key(
        line,
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        "o_orderkey",
        ["o_custkey"],
        on="l_orderkey",
    )
    keyed = attach_by_key(
        keyed,
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey",
        ["c_nationkey"],
        on="o_custkey",
    )
    keyed = attach_by_key(
        keyed,
        _read(sf_dir, "nation", ["n_nationkey", "n_name"]),
        "n_nationkey",
        ["n_name"],
        on="c_nationkey",
    )

    def to_nation(batch: pa.Table) -> pa.Table:
        return (
            batch.select(["n_name", "v", "n"])
            .group_by("n_name", use_threads=False)
            .aggregate([("v", "sum"), ("n", "sum")])
            .rename_columns(["n_name", "v", "n"])
        )

    agg = keyed.map_batches(to_nation, batch_format="pyarrow").groupby(
        "n_name"
    ).aggregate(Sum("v", alias_name="v_sum"), Sum("n", alias_name="n_sum"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch["n_name"],
                "revenue": pa.array(
                    np.round(batch["v_sum"].to_numpy(zero_copy_only=False), 2),
                    pa.float64(),
                ),
                "n_items": pc.cast(batch["n_sum"], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def large_volume_orders(sf_dir: str, min_qty: float = 320.0):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds a
    threshold, with the customer name attached.

    Ray shape for 100 TB: (1) map-side partial sums of l_quantity per
    l_orderkey inside each batch (combiner — the shuffle carries one
    row per order per batch, not per line item), (2) tiny
    groupby(l_orderkey) sum + HAVING filter — the surviving set is
    small BY CONSTRUCTION (the threshold selects the top ~0.1% of
    orders), (3) the survivors attach onto orders through
    stages/candidates.attach_by_key (one key-sorted plasma table when
    they ``fits_broadcast``, a partitioned hash join above), (4) the
    surviving orders — guarded by the same cutover, raising past it —
    are collected, sorted by custkey and broadcast via ray.put, and the
    customer fact table streams through a one-to-many expansion
    against them (a customer may own several survivors). No
    fact-scale table is ever collected.
    """
    import pyarrow.compute as pc

    from clonehunter_ray.stages import candidates
    from clonehunter_ray.stages.candidates import attach_by_key

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=qty, minlength=len(uniq))
        return pa.table(
            {
                "l_orderkey": pa.array(uniq, pa.int64()),
                "q": pa.array(sums, pa.float64()),
            }
        )

    def having(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["sum_qty"], min_qty))
        qty = np.round(t["sum_qty"].to_numpy(zero_copy_only=False), 2)
        return t.set_column(
            t.schema.get_field_index("sum_qty"),
            "sum_qty",
            pa.array(qty, pa.float64()),
        )

    big = (
        line.map_batches(partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("q", alias_name="sum_qty"))
        .map_batches(having, batch_format="pyarrow")
    )
    orders = attach_by_key(
        _read(
            sf_dir,
            "orders",
            ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
        ),
        big,
        "l_orderkey",
        ["sum_qty"],
        on="o_orderkey",
        schema=pa.schema([("l_orderkey", pa.int64()), ("sum_qty", pa.float64())]),
    ).materialize()
    # the surviving orders are collected onto the driver and broadcast
    # sorted by custkey; the customer fact table streams against them
    candidates.guard_broadcast(
        orders,
        "large_volume_orders: the surviving orders",
        "this threshold needs a larger min_qty",
    )
    # fallback schema = the orders _read column list + the attached
    # sum_qty; keep in sync if either changes
    surv_parts = _collect_tables(orders) or [
        pa.table(
            {
                "o_orderkey": pa.array([], pa.int64()),
                "o_custkey": pa.array([], pa.int64()),
                "o_totalprice": pa.array([], pa.float64()),
                "o_orderdate": pa.array([], pa.string()),
                "sum_qty": pa.array([], pa.float64()),
            }
        )
    ]
    surv_tbl = pa.concat_tables(surv_parts).combine_chunks()
    order_c = np.argsort(
        surv_tbl["o_custkey"].to_numpy(zero_copy_only=False), kind="stable"
    )
    surv_tbl = surv_tbl.take(pa.array(order_c, pa.int64()))
    surv_ck = surv_tbl["o_custkey"].to_numpy(zero_copy_only=False)
    surv_ref = ray.put((surv_tbl, surv_ck))

    _empty = pa.table(
        {
            "c_custkey": pa.array([], pa.int64()),
            "c_name": pa.array([], pa.string()),
            "o_orderkey": pa.array([], pa.int64()),
            "o_orderdate": pa.array([], pa.string()),
            "o_totalprice": pa.array([], pa.float64()),
            "sum_qty": pa.array([], pa.float64()),
        }
    )

    def attach_customer(batch: pa.Table) -> pa.Table:
        tbl, ck_sorted = ray.get(surv_ref)
        ckeys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(ck_sorted, ckeys, side="left")
        hi = np.searchsorted(ck_sorted, ckeys, side="right")
        n = hi - lo
        if int(n.sum()) == 0:
            return _empty
        # expand each matching customer to its survivor-order rows
        cust_idx = np.repeat(np.arange(len(ckeys), dtype=np.int64), n)
        starts = np.repeat(lo, n)
        offs = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(n)[:-1])), n
        )
        take = starts + offs
        sub = tbl.take(pa.array(take, pa.int64()))
        names = batch["c_name"].take(pa.array(cust_idx, pa.int64()))
        dates = pd.to_datetime(sub["o_orderdate"].to_pandas()).dt.strftime(
            "%Y-%m-%d"
        )
        return pa.table(
            {
                "c_custkey": sub["o_custkey"].cast(pa.int64()),
                "c_name": names,
                "o_orderkey": sub["o_orderkey"].cast(pa.int64()),
                "o_orderdate": pa.array(dates.tolist(), pa.string()),
                "o_totalprice": pc.round(
                    sub["o_totalprice"].cast(pa.float64()), 2
                ),
                "sum_qty": sub["sum_qty"],
            }
        )

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        attach_customer, batch_format="pyarrow"
    )


def c4_quality_filter_documents(
    sf_dir: str,
    min_tokens: int = 25,
    min_distinct_ratio: float = 0.35,
    mean_len_range: tuple[float, float] = (3.0, 8.0),
):
    """C4/Gopher-style heuristic quality filter: keep documents whose
    token count, type-token (distinct) ratio, and mean token length
    all fall in the healthy band (Raffel et al. 2020 §2.2; Rae et al.
    2021 appendix A — re-expressed over this corpus's token alphabet).

    One stateless vectorized pass: Arrow lower/split tokenization,
    np.bincount per-doc reductions via dictionary-encoded token ids —
    no shuffle, no Python rows, no per-token hashing (token counts and
    distinct counts come straight from the dictionary indices). Emits
    the kept docs with their signals so the filter is auditable
    downstream.
    """

    def fil(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_rows = batch.num_rows
        flat, parent = H.flat_tokens(batch["text"])
        n = np.bincount(parent, minlength=n_rows).astype(np.int64)
        if len(flat):
            # distinct (doc, token) pairs -> distinct tokens per doc
            rows, _tok_ids, _tf, _d = H.doc_token_pairs(flat, parent)
            distinct = np.bincount(rows, minlength=n_rows).astype(np.int64)
        else:
            distinct = np.zeros(n_rows, dtype=np.int64)

        low = pc.utf8_lower(pc.fill_null(batch["text"], ""))
        # total token chars = count of token-alphabet chars
        tok_chars = pc.cast(
            pc.count_substring_regex(low, "[a-z0-9_]"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_len = np.where(n > 0, tok_chars / np.maximum(n, 1), 0.0)
            dratio = np.where(n > 0, distinct / np.maximum(n, 1), 0.0)
        keep = (
            (n >= min_tokens)
            & (dratio >= min_distinct_ratio)
            & (mean_len >= mean_len_range[0])
            & (mean_len <= mean_len_range[1])
        )
        # unrounded exact-integer-ratio doubles: IEEE division of the
        # same ints is bit-identical in DuckDB, and rounding would
        # introduce half-to-even vs half-away mismatches
        out = pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n, pa.int64()),
                "distinct_ratio": pa.array(dratio, pa.float64()),
                "mean_token_len": pa.array(mean_len, pa.float64()),
            }
        )
        return out.filter(pa.array(keep, pa.bool_()))

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fil, batch_format="pyarrow"
    )


def gopher_quality_batch(
    batch: pa.Table,
    word_range: tuple[int, int] = (50, 100_000),
    mean_len_range: tuple[float, float] = (3.0, 10.0),
    max_symbol_ratio: float = 0.1,
    max_bullet_frac: float = 0.9,
    max_ellipsis_frac: float = 0.3,
    min_alpha_frac: float = 0.8,
    min_stop_hits: int = 2,
) -> pa.Table:
    """Per-batch kernel for the Gopher quality rules (module-level so
    the adversarial-text parity tests can drive it without a Ray
    session, like ``quality_scores_batch``). See
    ``gopher_quality_filter_documents`` for semantics."""
    import pyarrow.compute as pc

    from clonehunter_ray.pipelines.text_analysis import _STOPWORDS

    stops = pa.array(sorted(frozenset().union(*_STOPWORDS.values())))
    n_rows = batch.num_rows
    txt = pc.fill_null(batch["text"], "")
    flat, parent = H.flat_tokens(txt)
    n = np.bincount(parent, minlength=n_rows).astype(np.int64)

    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sum_lens = np.bincount(parent, weights=tok_lens, minlength=n_rows)
    alpha = pc.match_substring_regex(flat, "[a-z]").to_numpy(
        zero_copy_only=False
    )
    n_alpha = np.bincount(parent, weights=alpha, minlength=n_rows)

    # distinct stopword hits: one membership probe on the batch
    # DICTIONARY (vocab-sized), fanned back out over the distinct
    # (doc, token) pairs — never a per-token set lookup
    if len(flat):
        rows, tok_ids, _tf, vocab = H.doc_token_pairs(flat, parent)
        member = pc.is_in(vocab, value_set=stops).to_numpy(
            zero_copy_only=False
        )
        stop_hits = np.bincount(
            rows, weights=member[tok_ids], minlength=n_rows
        ).astype(np.int64)
    else:
        stop_hits = np.zeros(n_rows, dtype=np.int64)

    # symbol counts over the RAW text (Gopher counts '#' and '...'
    # pre-tokenization); count_substring is non-overlapping
    # left-to-right, same as DuckDB's regexp_extract_all
    n_hash = pc.count_substring(txt, "#").to_numpy(zero_copy_only=False)
    n_ell = pc.count_substring(txt, "...").to_numpy(zero_copy_only=False)

    lines = pc.split_pattern(txt, "\n")
    n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    flat_lines = pc.list_flatten(lines)
    lparent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    bullet = pc.or_(
        pc.starts_with(flat_lines, "-"), pc.starts_with(flat_lines, "*")
    ).to_numpy(zero_copy_only=False)
    ell_end = pc.ends_with(flat_lines, "...").to_numpy(zero_copy_only=False)
    n_bullet = np.bincount(lparent, weights=bullet, minlength=n_rows)
    n_ell_lines = np.bincount(lparent, weights=ell_end, minlength=n_rows)

    nd = np.maximum(n, 1).astype(np.float64)
    mean_len = np.where(n > 0, sum_lens / nd, 0.0)
    alpha_frac = np.where(n > 0, n_alpha / nd, 0.0)
    symbol_ratio = np.where(n > 0, (n_hash + n_ell) / nd, 0.0)
    # split() never yields an empty list, so n_lines >= 1 always
    bullet_frac = n_bullet / n_lines
    ellipsis_frac = n_ell_lines / n_lines

    keep = (
        (n >= word_range[0])
        & (n <= word_range[1])
        & (mean_len >= mean_len_range[0])
        & (mean_len <= mean_len_range[1])
        & (symbol_ratio <= max_symbol_ratio)
        & (bullet_frac <= max_bullet_frac)
        & (ellipsis_frac <= max_ellipsis_frac)
        & (alpha_frac >= min_alpha_frac)
        & (stop_hits >= min_stop_hits)
    )
    # unrounded exact-integer-ratio doubles (IEEE division of the
    # same ints is bit-identical in DuckDB) — c4 filter convention
    out = pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n, pa.int64()),
            "mean_word_len": pa.array(mean_len, pa.float64()),
            "alpha_word_frac": pa.array(alpha_frac, pa.float64()),
            "symbol_ratio": pa.array(symbol_ratio, pa.float64()),
            "bullet_line_frac": pa.array(bullet_frac, pa.float64()),
            "ellipsis_line_frac": pa.array(ellipsis_frac, pa.float64()),
            "stop_hits": pa.array(stop_hits, pa.int64()),
        }
    )
    return out.filter(pa.array(keep, pa.bool_()))


#: Gopher Table A1 repetition thresholds (Rae et al. 2021): a doc is
#: dropped when ANY fraction exceeds its bound.
GOPHER_REPETITION_RULES: dict[str, float] = {
    "dup_line_frac": 0.30,
    "dup_para_frac": 0.30,
    "dup_line_char_frac": 0.20,
    "dup_para_char_frac": 0.20,
    "top_2gram_char_frac": 0.20,
    "top_3gram_char_frac": 0.18,
    "top_4gram_char_frac": 0.16,
    "dup_5gram_char_frac": 0.15,
    "dup_6gram_char_frac": 0.14,
    "dup_7gram_char_frac": 0.13,
    "dup_8gram_char_frac": 0.12,
    "dup_9gram_char_frac": 0.11,
    "dup_10gram_char_frac": 0.10,
}


def _check_repetition_rules(
    rules: dict[str, float] | None,
) -> dict[str, float]:
    """Reject rule names outside the signal set — a typo'd key must
    fail loudly (and on the driver, via the filter wrapper's eager
    call) instead of as an opaque KeyError inside a Ray task."""
    rules = dict(GOPHER_REPETITION_RULES if rules is None else rules)
    unknown = set(rules) - set(GOPHER_REPETITION_RULES)
    if unknown:
        raise ValueError(
            f"unknown gopher repetition rule(s): {sorted(unknown)}; "
            f"valid: {sorted(GOPHER_REPETITION_RULES)}"
        )
    return rules


def gopher_repetition_batch(
    batch: pa.Table, rules: dict[str, float] | None = None
) -> pa.Table:
    """Per-batch kernel for the Gopher REPETITION rules (Rae et al.
    2021 Table A1 — the other half of the quality rule set; see
    ``gopher_quality_filter_documents`` for the quality half). The
    exact accounting, chosen once and pinned by the independent
    reference in tests/test_gopher_repetition.py:

    - dup_line_frac / dup_para_frac: occurrences of a line (split
      '\\n') / paragraph (split '\\n\\n') BEYOND the first identical
      occurrence within the doc, over the part count;
    - dup_*_char_frac: the characters of those beyond-first parts,
      over ``len(text)``;
    - top_{2,3,4}gram_char_frac: occurrences x character-weight of the
      most frequent n-gram (ties: the larger character product), over
      the doc's total TOKEN characters;
    - dup_{5..10}gram_char_frac: characters of token positions covered
      by ANY n-gram occurring more than once (overlaps counted once),
      over total token characters.

    One vectorized pass: Arrow split/dictionary kernels for the parts,
    the shared shingle mix for gram hashes, lexsort run-length for
    counts, and an add.at/cumsum interval union for coverage — no
    Python over rows, tokens, or grams.
    """
    import pyarrow.compute as pc

    rules = _check_repetition_rules(rules)
    n_rows = batch.num_rows
    txt = pc.fill_null(batch["text"], "")
    txt_chars = pc.utf8_length(txt).to_numpy(zero_copy_only=False)

    flat, parent = H.flat_tokens(txt)
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    tot_tok = np.bincount(parent, weights=tok_lens, minlength=n_rows)
    tot_safe = np.maximum(tot_tok, 1.0)

    # token hashes aligned with tok_lens/parent (unique-amortized)
    th = H.hash_token_stream(flat)
    prefix = np.concatenate(([0.0], np.cumsum(tok_lens)))

    sig = {"doc_id": batch["doc_id"]}

    def part_fracs(sep: str, prefix_name: str) -> None:
        parts = pc.split_pattern(txt, sep)
        flat_p = pc.list_flatten(parts)
        if isinstance(flat_p, pa.ChunkedArray):
            flat_p = flat_p.combine_chunks()
        pparent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False
        )
        plens = pc.utf8_length(flat_p).to_numpy(zero_copy_only=False)
        d = pc.dictionary_encode(flat_p)
        idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        key = pparent.astype(np.int64) * max(len(d.dictionary), 1) + idx
        order = np.argsort(key, kind="stable")
        dup_occ = H.run_ranks(key[order]) > 0
        rows_d = pparent[order][dup_occ]
        n_parts = np.bincount(pparent, minlength=n_rows).astype(np.float64)
        dup_cnt = np.bincount(rows_d, minlength=n_rows)
        dup_chr = np.bincount(
            rows_d, weights=plens[order][dup_occ], minlength=n_rows
        )
        sig[f"dup_{prefix_name}_frac"] = dup_cnt / np.maximum(n_parts, 1.0)
        sig[f"dup_{prefix_name}_char_frac"] = dup_chr / np.maximum(
            txt_chars, 1.0
        )

    part_fracs("\n", "line")
    part_fracs("\n\n", "para")

    def gram_runs(n: int):
        """(per-run row, count, first-pos arrays, per-instance sorted
        pos/row arrays + run ids) for n-grams that stay inside a row."""
        m = len(th) - n + 1
        if m <= 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z, z, z
        gh = H.shingle_hashes_seq(th, n)
        mask = parent[:m] == parent[n - 1 :]
        g = gh[:m][mask]
        gpos = np.flatnonzero(mask)
        grow = parent[:m][mask]
        order = np.lexsort((g, grow))
        gs, rs, ps = g[order], grow[order], gpos[order]
        new = np.concatenate(
            ([True], (gs[1:] != gs[:-1]) | (rs[1:] != rs[:-1]))
        )
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate((starts, [len(gs)])))
        return rs[starts], counts.astype(np.int64), ps[starts], ps, np.repeat(
            np.arange(len(starts), dtype=np.int64), counts
        )

    for n in (2, 3, 4):
        run_row, run_cnt, run_pos, _ps, _rid = gram_runs(n)
        frac = np.zeros(n_rows, dtype=np.float64)
        if len(run_row):
            w = prefix[run_pos + n] - prefix[run_pos]
            order2 = np.lexsort((w, run_cnt, run_row))
            rr = run_row[order2]
            last = np.concatenate((rr[1:] != rr[:-1], [True]))
            top_rows = rr[last]
            prod = (run_cnt[order2] * w[order2])[last]
            frac[top_rows] = prod / tot_safe[top_rows]
        sig[f"top_{n}gram_char_frac"] = frac

    for n in (5, 6, 7, 8, 9, 10):
        run_row, run_cnt, _run_pos, ps_sorted, rid = gram_runs(n)
        frac = np.zeros(n_rows, dtype=np.float64)
        if len(run_row):
            dup_inst = run_cnt[rid] >= 2
            if dup_inst.any():
                delta = np.zeros(len(th) + n + 1, dtype=np.int64)
                np.add.at(delta, ps_sorted[dup_inst], 1)
                np.add.at(delta, ps_sorted[dup_inst] + n, -1)
                cov = np.cumsum(delta)[: len(th)] > 0
                marked = np.bincount(
                    parent[cov], weights=tok_lens[cov], minlength=n_rows
                )
                frac = marked / tot_safe
        sig[f"dup_{n}gram_char_frac"] = frac

    keep = np.ones(n_rows, dtype=bool)
    for name, bound in rules.items():
        keep &= sig[name] <= bound
    cols = {"doc_id": batch["doc_id"]}
    for name in GOPHER_REPETITION_RULES:
        cols[name] = pa.array(sig[name], pa.float64())
    return pa.table(cols).filter(pa.array(keep, pa.bool_()))


def gopher_repetition_filter_documents(
    sf_dir: str, rules: dict[str, float] | None = None
):
    """The Gopher repetition rule set as a corpus filter — one
    stateless vectorized ``map_batches`` pass, no shuffle; see
    ``gopher_repetition_batch`` for the exact accounting. Emits every
    signal with the kept docs so the filter is auditable. Rows-only
    (interval-union coverage is not SQL-expressible at reasonable
    cost); pinned by an independent per-doc Python reference."""
    rules = _check_repetition_rules(rules)  # eager: fail on the driver

    def fil(batch: pa.Table) -> pa.Table:
        return gopher_repetition_batch(batch, rules)

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fil, batch_format="pyarrow"
    )


def gopher_quality_filter_documents(sf_dir: str, **rules):
    """The full Gopher document-quality rule set (Rae et al. 2021,
    appendix A1.1), re-expressed over this corpus's token alphabet:
    word-count band, mean-word-length band, symbol-to-word ratio
    ('#' and '...'), bullet-started and ellipsis-ended line fractions,
    alphabetic-word fraction, and the required-stopword rule — Gopher
    demands >= 2 of 8 English stop words; this corpus is multilingual,
    so the rule counts DISTINCT hits against the engine's per-language
    stopword union (same list as ``doc_quality_scores``).

    Complements ``c4_quality_filter_documents`` (which keeps the
    C4-side signals: distinct-token ratio). One stateless vectorized
    pass, no shuffle: tokens via the shared ``flat_tokens`` kernel,
    per-doc reductions via ``np.bincount``, line stats via the Arrow
    split/list_parent_indices chain, distinct-stopword hits via the
    shared ``doc_token_pairs`` dictionary reduction. Emits every
    signal alongside the kept docs so the filter is auditable.
    """

    def fil(batch: pa.Table) -> pa.Table:
        return gopher_quality_batch(batch, **rules)

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fil, batch_format="pyarrow"
    )


def customers_without_orders_bloom(sf_dir: str, n_bits: int = 1 << 20):
    """The same exact anti-join as ``customers_without_orders``, via
    the Bloom-join scale shape (Bratbergsengen 1984): the build side
    (urgent-order custkeys) ships ONE fixed-size bitmap per batch
    (OR-merged on the driver — bytes, not rows), bloom-NEGATIVE
    customers are kept immediately (a Bloom "no" is definite), and
    only the ~fpr-sized maybe set goes through the exact distributed
    anti-join for verification. At 100 TB the exact path's shuffle
    shrinks from |customer| to |matches| + fpr * |non-matches| while
    the result stays EXACT — hence the same oracle SQL.
    """
    import pyarrow.compute as pc

    from clonehunter_ray.functions import sketches as SK
    from clonehunter_ray.stages.candidates import attach_by_key

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    # ONE pass over the build side (the dominant I/O at scale): each
    # batch emits its per-batch DISTINCT urgent custkeys (o_custkey
    # rows, bloom null) plus one in-band bloom-bitmap row (o_custkey
    # -1, bloom blob) — the same summary-row-rides-the-pass idiom as
    # bm25_search_documents. Reading orders twice (once for bitmaps,
    # once for distinct keys) would double the most expensive scan.
    _build_schema = pa.schema(
        [("o_custkey", pa.int64()), ("bloom", pa.binary())]
    )

    def build_partials(batch: pa.Table) -> pa.Table:
        urgent = batch.filter(pc.equal(batch["o_orderpriority"], "1-URGENT"))
        keys = np.unique(urgent["o_custkey"].to_numpy(zero_copy_only=False))
        # the in-band bitmap row rides as o_custkey == -1 and the
        # downstream only_keys filter keeps >= 0: a negative REAL key
        # would be dropped from the exact-verify path, so fail loudly
        # on non-TPC-H corpora instead of silently losing keys
        if keys.size and keys[0] < 0:
            raise ValueError(
                "customers_without_orders_bloom: negative o_custkey "
                f"({keys[0]}) collides with the in-band bitmap sentinel"
            )
        blob = SK.bloom_partial(keys.astype(np.uint64), n_bits).tobytes()
        return pa.table(
            {
                "o_custkey": pa.array(
                    np.concatenate(([-1], keys)), pa.int64()
                ),
                "bloom": pa.array([blob] + [None] * len(keys), pa.binary()),
            },
            schema=_build_schema,
        )

    build = orders.map_batches(
        build_partials, batch_format="pyarrow"
    ).materialize()

    def only_blobs(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["o_custkey"], -1)).select(["bloom"])

    blobs = [
        b
        for t in _collect_tables(
            build.map_batches(only_blobs, batch_format="pyarrow")
        )
        for b in t["bloom"].to_pylist()
    ]
    packed = SK.bloom_merge(blobs)
    bloom_ref = ray.put(packed)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def split_by_bloom(maybe: bool):
        def fn(batch: pa.Table) -> pa.Table:
            bits = ray.get(bloom_ref)
            keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
            m = SK.bloom_contains(bits, keys.astype(np.uint64))
            return batch.filter(pa.array(m if maybe else ~m, pa.bool_()))

        return fn

    negatives = cust.map_batches(split_by_bloom(False), batch_format="pyarrow")
    maybes = cust.map_batches(split_by_bloom(True), batch_format="pyarrow")

    # exact verification of the maybes only: distributed left-outer
    # join against the distinct urgent custkeys, keep null-extended
    def only_keys(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["o_custkey"], 0)).select(
            ["o_custkey"]
        )

    dist = (
        build.map_batches(only_keys, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n_o"))
    )
    # zero urgent orders leave dist empty: Ray reports no schema for
    # it, so schema= types n_o
    joined = attach_by_key(
        maybes,
        dist,
        "o_custkey",
        ["n_o"],
        on="c_custkey",
        how="left",
        schema=pa.schema([("o_custkey", pa.int64()), ("n_o", pa.int64())]),
    )

    def keep_unmatched(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch["n_o"])).select(
            ["c_custkey", "c_name"]
        )

    verified = joined.map_batches(keep_unmatched, batch_format="pyarrow")
    return negatives.union(verified)


def cap_docs_per_source(sf_dir: str, cap: int = 20):
    """Per-domain document cap — the standard web-crawl mitigation for
    template-heavy sites: keep at most ``cap`` docs per source,
    preferring the longest (n_chars desc, doc_id asc tie-break).

    Ray shape for 100 TB: ``stages/topk.top_k`` by source — a
    per-batch combiner forwards at most cap rows per source it
    contains, so the shuffle is bounded by cap x n_batches per key,
    not by the key's true row count, then the per-source final cut.
    A hot domain with a billion pages never ships more than cap rows
    per input block.
    """
    return top_k(
        _read(sf_dir, "documents", ["doc_id", "source", "n_chars"]),
        [("n_chars", "descending"), ("doc_id", "ascending")],
        cap,
        by="source",
    )


def _tfidf_topk_join(docs, df_tbl, n_docs: int, k: int):
    """Corpus-scale tf-idf top-k path: the vocabulary stays
    distributed. (doc_id, tok, tf) rows hash-partition-join the
    (tok, df) table, scores are computed per joined batch with the
    SAME arithmetic as the broadcast path (tf_float64 * ln(n/df) —
    identical doubles), then ``stages/topk.top_k`` per doc by (score
    desc, tok asc): its per-batch cut bounds the per-doc shuffle to
    <= k rows per doc per batch, and the Python-rounded emit maps the
    final cut's output."""
    def tf_rows(batch: pa.Table) -> pa.Table:
        flat, parent = H.flat_tokens(batch["text"])
        if len(flat) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "tok": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        rows, tok_ids, tf, dictionary = H.doc_token_pairs(flat, parent)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[rows], pa.int64()),
                "tok": dictionary.take(pa.array(tok_ids, pa.int64())),
                "tf": pa.array(tf, pa.int64()),
            }
        )

    from clonehunter_ray.util import safe_join

    joined = safe_join(
        docs.map_batches(tf_rows, batch_format="pyarrow"),
        df_tbl,
        "inner",
        16,
        on=("tok",),
    )

    def score(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = batch["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = tf * np.log(float(n_docs) / dfv)
        return batch.select(["doc_id", "tok"]).append_column(
            "score", pa.array(s, pa.float64())
        )

    return top_k(
        joined.map_batches(score, batch_format="pyarrow"),
        [("score", "descending"), ("tok", "ascending")],
        k,
        by="doc_id",
        project=lambda t: _score6(t, ["doc_id", "tok"]),
    )


def tfidf_top_terms_documents(sf_dir: str, k: int = 3):
    """Top-k TF-IDF terms per document (dataset cartography / keyword
    extraction): score = tf * ln(n_docs / df), ties broken by token
    asc.

    Ray shape: pass 1 computes document frequencies with the same
    combiner as ``token_vocabulary_topk`` (per-batch DISTINCT tokens
    per doc -> one (token, partial_df) row per batch -> tiny groupby
    sum). Pass 2 dispatches on vocabulary size, exact either way:
    when the (token, df) table ``fits_broadcast`` (stages/candidates)
    it becomes one token-sorted plasma table (``make_broadcast_handle``)
    and docs stream through one stateless scoring pass that needs a
    document's rows in one batch; above the cutover the full vocabulary
    never leaves the cluster — per-doc (doc_id, tok, tf) rows
    hash-partition-join the df table on tok, and ``stages/topk.top_k``
    per doc bounds what shuffles (<= k rows per doc per batch). Same
    score arithmetic on both paths, so the oracle comparison and the
    broadcast/join parity test hold bit-exactly.
    """
    from clonehunter_ray.stages import candidates, topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = docs.count()

    def partial_df(batch: pa.Table) -> pa.Table:
        flat, parent = H.flat_tokens(batch["text"])
        if len(flat) == 0:
            return pa.table(
                {
                    "tok": pa.array([], pa.string()),
                    "pdf": pa.array([], pa.int64()),
                }
            )
        # distinct (doc, token) pairs -> df contribution of this batch
        _rows, tok_ids, _tf, dictionary = H.doc_token_pairs(flat, parent)
        counts = np.bincount(tok_ids, minlength=len(dictionary))
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "tok": dictionary.take(pa.array(nz, pa.int64())),
                "pdf": pa.array(counts[nz], pa.int64()),
            }
        )

    df_tbl = (
        docs.map_batches(partial_df, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("pdf", alias_name="df"))
        .materialize()
    )
    if not candidates.fits_broadcast(df_tbl)[0]:
        return _tfidf_topk_join(docs, df_tbl, n_docs, k)
    handle = candidates.broadcast_blocks(df_tbl.to_arrow_refs(), ["tok", "df"], "tok")

    def score(batch: pa.Table) -> pa.Table:
        flat, parent = H.flat_tokens(batch["text"])
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "tok": pa.array([], pa.string()),
                    "score6": pa.array([], pa.float64()),
                }
            )
        df_all, _ = candidates.get_broadcast_payload(handle, need_index=False)
        vocab = df_all["tok"].to_numpy(zero_copy_only=False)
        df_sorted = df_all["df"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        rows, tok_ids, tf, dictionary = H.doc_token_pairs(flat, parent)
        tok_strs = np.asarray(dictionary.to_pylist(), dtype=object)[tok_ids]
        pos = np.searchsorted(vocab, tok_strs)
        idf = np.log(float(n_docs) / df_sorted[pos])
        # a document's rows are all in this batch: one in-batch cut
        top = topk.cut(
            pa.table(
                {
                    "row": pa.array(rows, pa.int64()),
                    "tok": dictionary.take(pa.array(tok_ids, pa.int64())),
                    "score": pa.array(tf * idf, pa.float64()),
                }
            ),
            [("score", "descending"), ("tok", "ascending")],
            k,
            by="row",
        )
        doc = pa.array(doc_ids[top["row"].to_numpy()], pa.int64())
        return _score6(top.set_column(0, "doc_id", doc), ["doc_id", "tok"])

    return docs.map_batches(score, batch_format="pyarrow")


def approx_length_quantiles(sf_dir: str, k: int = 256):
    """Approximate doc-length quantiles via the mergeable KLL-style
    compactor sketch (functions/sketches.py:QuantileSketch) — the
    constant-size scale path beside the exact histogram-combiner
    ``doc_length_quantiles``: per batch ONE few-KB level-buffer blob
    leaves the map stage regardless of value cardinality, blobs merge
    associatively on the driver, and quantile_disc-style answers come
    from the weighted sorted union. Use when the value domain is
    continuous/high-cardinality (the exact histogram's one-row-per-
    distinct-value shuffle stops being tiny)."""
    from clonehunter_ray.functions.sketches import QuantileSketch

    def partial(batch: pa.Table) -> pa.Table:
        sk = QuantileSketch(k)
        sk.update(
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        return pa.table({"blob": pa.array([sk.serialize()], pa.binary())})

    ds = _read(sf_dir, "documents", ["n_chars"]).map_batches(
        partial, batch_format="pyarrow"
    )
    blobs = [
        b for t in _collect_tables(ds) for b in t["blob"].to_pylist()
    ]
    merged = QuantileSketch.deserialize(blobs[0])
    for b in blobs[1:]:
        merged.merge(QuantileSketch.deserialize(b))
    qs = [0.25, 0.5, 0.75, 0.9, 0.99]
    vals = merged.quantiles(qs)
    return pa.table(
        {
            "q": pa.array(qs, pa.float64()),
            "value": pa.array(vals, pa.float64()),
        }
    )


def decontaminate_documents_distributed(
    sf_dir: str, k: int = 4, bench_mod: int = 13
):
    """``decontaminate_documents`` re-expressed as the gram-hash-
    partitioned semi-join — the shape for when the contamination
    SOURCE is corpus-scale (dedup against another training corpus)
    and its gram set cannot be broadcast.

    Both sides explode to ids-only gram rows: the train side
    pre-aggregates (gram, doc_id) -> instance count per batch (docs
    live in one block, so batch partials are exact), the bench side
    reduces to its distinct grams with a groupby. One inner hash join
    on the gram key, then a per-doc sum attached back onto the full doc
    list by a left ``attach_by_key`` to fill zeros. Same oracle SQL as
    the broadcast path — the two shapes must agree bit-for-bit.
    """
    import pyarrow.compute as pc

    from clonehunter_ray.stages.candidates import attach_by_key
    from clonehunter_ray.util import safe_join, safe_join_partitions

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    bench = docs.map_batches(_bench_mod_filter(bench_mod, True), batch_format="pyarrow")
    train = docs.map_batches(_bench_mod_filter(bench_mod, False), batch_format="pyarrow")

    def bench_grams(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        grams, _rows = H.flat_gram_hashes(th, k)
        uniq = np.unique(grams)
        return pa.table(
            {"gram": pa.array(uniq.view(np.int64), pa.int64())}
        )

    bench_set = (
        bench.map_batches(bench_grams, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Count(alias_name="n_b"))
        .select_columns(["gram"])
    )

    def train_grams(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        if len(grams) == 0:
            return pa.table(
                {
                    "gram": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # per-batch (gram, doc) instance counts: sort once, run-length
        order = np.lexsort((grams, rows))
        g_s, r_s = grams[order], rows[order]
        new = np.concatenate(
            ([True], (g_s[1:] != g_s[:-1]) | (r_s[1:] != r_s[:-1]))
        )
        starts = np.flatnonzero(new)
        cnt = np.diff(np.concatenate((starts, [len(g_s)])))
        return pa.table(
            {
                "gram": pa.array(g_s[starts].view(np.int64), pa.int64()),
                "doc_id": pa.array(doc_ids[r_s[starts]], pa.int64()),
                "cnt": pa.array(cnt, pa.int64()),
            }
        )

    train_rows = train.map_batches(train_grams, batch_format="pyarrow")
    nparts = safe_join_partitions(16)
    hit_rows = safe_join(
        train_rows, bench_set, "inner", nparts, on=("gram",), right_on=("gram",)
    )
    hits = (
        hit_rows.select_columns(["doc_id", "cnt"])
        .groupby("doc_id")
        .aggregate(Sum("cnt", alias_name="n_hits"))
    )
    # a contamination-free corpus leaves hits empty: Ray reports no
    # schema for it, so schema= types n_hits
    out = attach_by_key(
        train.select_columns(["doc_id"]),
        hits,
        "doc_id",
        ["n_hits"],
        on="doc_id",
        how="left",
        num_partitions=nparts,
        schema=pa.schema([("doc_id", pa.int64()), ("n_hits", pa.int64())]),
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.coalesce(batch["n_hits"], pa.scalar(0, pa.int64())),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_contaminated_grams": n,
                "contaminated": pc.greater(n, 0),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def cluster_aware_split_documents(
    sf_dir: str, threshold: float = 0.6, max_id: int = 500, test_frac_hex: str = "20"
):
    """Leakage-aware train/test split: near-duplicate documents must
    land on the SAME side of the split (a test doc whose near-dup sits
    in train leaks the answer), so the split key is the doc's
    connected-component CLUSTER id, not the doc id.

    Composition of existing primitives: the connected-component
    cluster labels (``duplicate_clusters_documents``) plus one
    stateless salted-sha256 assignment per row — deterministic across
    re-runs/partitionings, no RNG state, ~1/8 of clusters to test at
    the default hex threshold.
    """
    clusters = duplicate_clusters_documents(
        sf_dir, threshold=threshold, max_id=max_id
    )

    def assign(batch: pa.Table) -> pa.Table:
        cids = batch["cluster_id"].to_pylist()
        hexes = H.sha256_hex_many([f"split:{c}" for c in cids])
        side = [
            "test" if h[:2] < test_frac_hex else "train" for h in hexes
        ]
        return batch.append_column("split", pa.array(side, pa.string()))

    return clusters.map_batches(assign, batch_format="pyarrow")


# (query_id, term) pairs for the BM25 demo index — common corpus
# tokens so every query has a non-trivial posting list at every sf
BM25_QUERIES: list[tuple[int, str]] = [
    (0, "scan"),
    (0, "column"),
    (1, "join"),
    (1, "merge"),
    (2, "order"),
]


def bm25_search_documents(sf_dir: str, k: int = 10, k1: float = 1.2, b: float = 0.75):
    """Okapi BM25 top-k keyword search over the documents table
    (Robertson et al., TREC-3): score(q, d) = sum over query terms of
    idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl / avgdl)) with
    idf = ln(1 + (N - df + 0.5) / (df + 0.5)).

    Ray shape: ONE corpus pass emits the (term, doc, tf, dl) posting
    rows ONLY where a query term matches (query-selective, not
    corpus-wide) plus one in-band summary row per batch (term_idx=-1
    carrying token-sum/doc-count) so the corpus stats ride the same
    read; the small posting table is materialized once and feeds the
    exact per-term df groupby, the map-side scoring against broadcast
    idf/avgdl, and the per-query top-k. Queries <= 2 terms keep the
    float sum commutative-safe for the oracle comparison.
    """
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    term_hashes = np.array(
        [H.hash_token_u64(t) for _q, t in BM25_QUERIES], dtype=np.uint64
    )
    _post_schema = pa.schema(
        [
            ("term_idx", pa.int64()),
            ("doc_id", pa.int64()),
            ("tf", pa.int64()),
            ("dl", pa.int64()),
        ]
    )

    def postings(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dls = np.array([len(h) for h in th], dtype=np.int64)
        if len(th) == 0:
            return _post_schema.empty_table()
        # in-band corpus-stats summary: term_idx -1, tf = sum of doc
        # lengths in this batch, dl = batch row count
        t_idx = [np.array([-1], dtype=np.int64)]
        t_doc = [np.array([-1], dtype=np.int64)]
        t_tf = [np.array([int(dls.sum())], dtype=np.int64)]
        t_dl = [np.array([len(th)], dtype=np.int64)]
        flat = np.concatenate(th)
        parent = np.repeat(np.arange(len(th), dtype=np.int64), dls)
        for ti, h in enumerate(term_hashes):
            sel = parent[flat == h]
            if len(sel) == 0:
                continue
            tf = np.bincount(sel, minlength=len(th))
            nz = np.flatnonzero(tf)
            t_idx.append(np.full(len(nz), ti, dtype=np.int64))
            t_doc.append(doc_ids[nz])
            t_tf.append(tf[nz].astype(np.int64))
            t_dl.append(dls[nz])
        return pa.table(
            {
                "term_idx": pa.array(np.concatenate(t_idx), pa.int64()),
                "doc_id": pa.array(np.concatenate(t_doc), pa.int64()),
                "tf": pa.array(np.concatenate(t_tf), pa.int64()),
                "dl": pa.array(np.concatenate(t_dl), pa.int64()),
            }
        )

    # one corpus read; the posting table is materialized once for its
    # three consumers so the tokenization pass never re-runs. Postings
    # are query-selective (one row per matching doc) so the table can
    # still be large at corpus scale — corpus stats are therefore
    # reduced DISTRIBUTEDLY (filter summary rows + Sum aggregate);
    # only two scalars ever reach the driver.
    post_all = docs.map_batches(postings, batch_format="pyarrow").materialize()

    def only_summary(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["term_idx"], -1))

    stats = post_all.map_batches(
        only_summary, batch_format="pyarrow"
    ).aggregate(Sum("tf", alias_name="tok_sum"), Sum("dl", alias_name="n_docs"))
    n_docs = int(stats["n_docs"])
    avgdl = float(stats["tok_sum"]) / n_docs

    def drop_summary(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["term_idx"], 0))

    post = post_all.map_batches(drop_summary, batch_format="pyarrow")
    # exact df per term: postings already hold one row per (term, doc).
    # Drop schema-less empty blocks before the driver-side concat.
    df_parts = [
        t
        for t in ray.get(
            post.groupby("term_idx")
            .aggregate(Count(alias_name="df"))
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    df_tbl = (
        pa.concat_tables(df_parts)
        if df_parts
        else pa.table(
            {"term_idx": pa.array([], pa.int64()), "df": pa.array([], pa.int64())}
        )
    )
    dfs = np.zeros(len(BM25_QUERIES), dtype=np.float64)
    for ti, dfv in zip(
        df_tbl["term_idx"].to_pylist(), df_tbl["df"].to_pylist()
    ):
        dfs[ti] = dfv
    idf = np.log(1.0 + (n_docs - dfs + 0.5) / (dfs + 0.5))
    qids = np.array([q for q, _t in BM25_QUERIES], dtype=np.int64)
    consts_ref = ray.put((idf, qids, avgdl))

    def contrib(batch: pa.Table) -> pa.Table:
        idf_, qids_, avgdl_ = ray.get(consts_ref)
        ti = batch["term_idx"].to_numpy(zero_copy_only=False)
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = idf_[ti] * tf * (k1 + 1.0) / (
            tf + k1 * (1.0 - b + b * dl / avgdl_)
        )
        return pa.table(
            {
                "query_id": pa.array(qids_[ti], pa.int64()),
                "doc_id": batch["doc_id"],
                "s": pa.array(s, pa.float64()),
            }
        )

    scored = (
        post.map_batches(contrib, batch_format="pyarrow")
        .groupby(["query_id", "doc_id"])
        .aggregate(Sum("s", alias_name="score"))
    )
    return top_k(
        scored,
        [("score", "descending"), ("doc_id", "ascending")],
        k,
        by="query_id",
        project=lambda t: _score6(t, ["query_id", "doc_id"]),
    )


def length_quantiles_by_lang(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.9)):
    """Per-GROUP exact quantiles (n_chars per lang) with the same
    histogram-combiner shape as ``doc_length_quantiles``: per-batch
    (lang, value, count) partials -> tiny groupby((lang, value)) sum
    (rows = distinct values per group, corpus-size-independent) ->
    per-lang cumulative walk in ``map_groups``. The group count is
    small (languages), the per-group walk is over its histogram, and
    no raw row ever shuffles."""

    _hist_schema = pa.schema(
        [("lang", pa.string()), ("n_chars", pa.int64()), ("cnt", pa.int64())]
    )

    def hist(batch: pd.DataFrame) -> pa.Table:
        # dropna=False: a NULL lang is a real group in the oracle's
        # GROUP BY lang — pandas' default would silently drop it. Ray's
        # sort-based groupby shuffle cannot total-order null (or NaN)
        # string keys, so the null group rides the shuffle as the
        # sentinel '\x00' (sorts before any real lang, cannot collide —
        # same idiom as heavy_hitter_tokens' _MG_ERR_KEY) and is
        # decoded back to a typed null at emit in ``walk``.
        g = (
            batch.groupby(["lang", "n_chars"], sort=False, dropna=False)
            .size()
            .reset_index(name="cnt")
        )
        # NOTE: pandas .where/.fillna route string fills through numpy
        # unicode arrays, which strip trailing NULs ("\x00" -> "") —
        # the sentinel must be applied at the Python-object level. The
        # histogram is tiny (distinct (lang, n_chars) rows), so the
        # listcomp is off the hot path.
        g["lang"] = [
            "\x00" if pd.isna(x) else x for x in g["lang"].astype(object)
        ]
        return _pt(g, schema=_hist_schema)

    def walk(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("n_chars")
        values = g["n_chars"].to_numpy()
        cum = np.cumsum(g["cnt"].to_numpy())
        n = int(cum[-1])
        lang = g["lang"].iloc[0]
        if lang == "\x00":  # sentinel -> the NULL lang group
            lang = None
        rows = {"lang": [], "q": [], "value": []}
        for q in qs:
            idx = max(0, int(np.ceil(q * n)) - 1)
            rows["lang"].append(lang)
            rows["q"].append(float(q))
            rows["value"].append(int(values[np.searchsorted(cum, idx + 1)]))
        return _pt(
            pd.DataFrame(rows),
            schema=pa.schema(
                [("lang", pa.string()), ("q", pa.float64()), ("value", pa.int64())]
            ),
        )

    return (
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .map_batches(hist, batch_format="pandas")
        .groupby(["lang", "n_chars"])
        .sum("cnt")
        .map_batches(
            # stay in Arrow: a pandas rename block would reintroduce
            # NaN lang keys ahead of the per-lang groupby
            lambda t: t.rename_columns(
                ["cnt" if c == "sum(cnt)" else c for c in t.column_names]
            ),
            batch_format="pyarrow",
        )
        .groupby("lang")
        .map_groups(walk, batch_format="pandas")
    )


def cross_corpus_dedup_documents(
    sf_dir: str, threshold: float = 0.8, ref_mod: int = 7, max_id: int = 500
):
    """Dedup a NEW crawl against an existing REFERENCE corpus (the
    snapshot-over-snapshot recipe: flag new docs near-duplicate to
    anything already in the training set). Reference side here =
    ``doc_id % ref_mod == 0``, new side = the rest.

    Composition over the engine's exact ids-only pair machinery
    (``ngram_jaccard_pairs``): keep only cross-side pairs, normalize
    to the new doc, and aggregate per new doc (match count + best
    Jaccard). At 100 TB the same flow applies with one refinement —
    the band explode tags each id with its side and the pair-emit
    kernel skips same-side pairs inside a bucket, so new-new
    candidates never materialize; at oracle scale the shared kernel
    keeps the two paths bit-identical.
    """
    import pyarrow.compute as pc

    pairs = ngram_jaccard_pairs(sf_dir, threshold=threshold, max_id=max_id)

    def to_cross(batch: pa.Table) -> pa.Table:
        a = batch["a_id"].to_numpy(zero_copy_only=False)
        b = batch["b_id"].to_numpy(zero_copy_only=False)
        a_ref = a % ref_mod == 0
        b_ref = b % ref_mod == 0
        keep = a_ref != b_ref
        new_id = np.where(a_ref[keep], b[keep], a[keep])
        return pa.table(
            {
                "doc_id": pa.array(new_id, pa.int64()),
                "jac6": batch["jac6"].filter(pa.array(keep, pa.bool_())),
            }
        )

    agg = (
        pairs.map_batches(to_cross, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Count(alias_name="n_ref_matches"),
            Max("jac6", alias_name="best_jac6"),
        )
    )
    out = agg.select_columns(["doc_id", "n_ref_matches", "best_jac6"]).materialize()
    if out.count() == 0:
        # no cross-side pair: the aggregate's empty blocks carry no schema
        return ray.data.from_arrow(
            pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("n_ref_matches", pa.int64()),
                    ("best_jac6", pa.float64()),
                ]
            ).empty_table()
        )
    return out


def global_shuffle_documents(sf_dir: str, seed: str = "s42", n_shards: int = 4):
    """Deterministic seeded GLOBAL SHUFFLE + shard assignment — the
    training-export primitive ("shuffle the corpus, then cut it into
    shards, reproducibly") that ``random_shuffle`` can't give you:
    rank = sha256(seed || ':' || doc_id), shard = the rank's first 15
    hex chars (60 bits — BIGINT-safe in the SQL oracle) mod
    ``n_shards``, pos = 1-based rank order within the shard.
    Changing ``seed`` is a fresh permutation; re-runs, resumes and any
    input partitioning reproduce it bit-exactly with no RNG state
    (same recipe as ``hash_sample_documents`` / the reference's
    deterministic sha256 ordering, io/fingerprints.py:6-7).

    Ray shape: a stateless ids-only rank/shard map (payload columns
    never read) -> ``stages/topk.top_k`` with no cut: ONE exchange on
    ``shard``, then a per-shard sort that numbers ``pos``. At 100 TB, size
    ``n_shards`` in the thousands so one shard (the exchange moves
    only 72 B/row: id + 64-hex rank) fits a worker; the per-shard
    sort is exactly the per-output-file ordering pass the exporter
    needs anyway.
    """
    def rank(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        hs = H.sha256_hex_many(f"{seed}:{i}" for i in ids)
        # 60 bits of the rank, not one nibble: shards stay uniform
        # for any n_shards (a nibble caps the universe at 16 shards)
        shard = np.array([int(h[:15], 16) for h in hs], np.int64) % n_shards
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "shard": pa.array(shard, pa.int64()),
                "_rank": pa.array(hs, pa.string()),
            }
        )

    return top_k(
        _read(sf_dir, "documents", ["doc_id"]).map_batches(
            rank, batch_format="pyarrow"
        ),
        [("_rank", "ascending"), ("doc_id", "ascending")],
        None,
        by="shard",
        rank="pos",
        project=lambda t: t.select(["doc_id", "shard", "pos"]),
    )


def bigram_logprob_documents(sf_dir: str, num_partitions: int = 32):
    """CCNet-style n-gram LM quality scoring (Wenzek et al. 2020 filter
    web text by LM perplexity; the reference has no LM stage — this is
    the engine's training-data extension): train an add-one-smoothed
    bigram LM on the corpus itself and score every document by its
    average bigram log-probability,
    ``p(w2|w1) = (C(w1 w2) + 1) / (C(w1 .) + V)`` with
    ``V = |distinct first-position tokens|`` (the documented vocabulary
    convention — everything derives from one bigram-instance table).
    Tokens are the canonical ``[a-z0-9_]+`` stream; docs with < 2
    tokens have no bigrams and are absent from the output.
    Returns (doc_id, n_bigrams, avg_ll6).

    Ray shape: ONE stateless pass emits per-batch distinct
    (bigram-hash, w1-hash, doc_id, k) rows — ids-only: tokens hash to
    uint64 (blake2b, batch-unique-amortized; same 64-bit-key-collision
    stance as passage_dup_stats' shingle grams) and the payload text
    never leaves the batch — materialized once to feed both the
    vocabulary count and the scoring pass. ONE exchange on ``part``
    (NOT per-w1 groups — tens of thousands of tiny map_groups UDF
    calls; measured 11 s -> 8 s partitioned -> this ids-only form)
    computes C(w1 .), every C(w1 w2) AND the per-(doc, bigram)
    contribution with vectorized pandas transforms over many w1
    groups at once (all instances of a bigram share its first token,
    so no second exchange for the numerator); a map-side combine then
    ONE tiny exchange on ``doc_id`` sums contributions. At 100 TB: a
    partition holds distinct (bigram, doc) rows for
    ~vocab/num_partitions first-tokens — raise ``num_partitions``
    with corpus size; the materialize becomes a parquet checkpoint."""
    import pyarrow.compute as pc

    bg_schema = pa.schema(
        [
            ("bigh", pa.uint64()),
            ("w1h", pa.uint64()),
            ("doc_id", pa.int64()),
            ("k", pa.int64()),
            ("part", pa.int64()),
        ]
    )

    def bigram_doc_counts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return bg_schema.empty_table()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, parent = H.flat_tokens(batch["text"])
        if len(flat) < 2:
            return bg_schema.empty_table()
        same = parent[1:] == parent[:-1]
        if not same.any():
            return bg_schema.empty_table()
        # token hashes amortized over the batch's unique tokens; the
        # 2-shingle mix over the flat stream gives every adjacent-pair
        # hash, masked down to within-document pairs
        th = H.hash_token_stream(flat)
        bigh = H.shingle_hashes_seq(th, 2)[same]
        w1h = th[:-1][same]
        docs_ = ids[parent[:-1][same]]
        order = np.lexsort((docs_, bigh))
        b_s, d_s = bigh[order], docs_[order]
        new = np.concatenate(
            ([True], (b_s[1:] != b_s[:-1]) | (d_s[1:] != d_s[:-1]))
        )
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate((starts, [len(b_s)])))
        w1_out = w1h[order[starts]]
        return pa.table(
            {
                "bigh": pa.array(b_s[starts], pa.uint64()),
                "w1h": pa.array(w1_out, pa.uint64()),
                "doc_id": pa.array(d_s[starts], pa.int64()),
                "k": pa.array(counts.astype(np.int64), pa.int64()),
                "part": pa.array(
                    (w1_out % np.uint64(num_partitions)).astype(np.int64),
                    pa.int64(),
                ),
            },
            schema=bg_schema,
        )

    bg = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(bigram_doc_counts, batch_format="pyarrow", batch_size=4096)
        .materialize()  # feeds the vocab count AND the scoring pass
    )

    def w1_partial(t: pa.Table) -> pa.Table:
        # bit-reinterpret uint64 -> int64: Ray's groupby rebuilds blocks
        # through python ints and a value above 2^63 trips an Arrow
        # int64 conversion fallback (pickled blocks + schema warnings)
        if t.num_rows == 0:
            return pa.schema([("w1h", pa.int64())]).empty_table()
        return pa.table(
            {"w1h": pc.unique(t["w1h"]).view(pa.int64())}
        )

    # distributed count-distinct: per-batch distinct partials, one
    # groupby dedupe, then a row COUNT — the vocabulary list itself
    # never reaches the driver (it is only ever used as a scalar)
    n_vocab = float(
        bg.map_batches(w1_partial, batch_format="pyarrow")
        .groupby("w1h")
        .count()
        .count()
    )

    def contrib(g: pd.DataFrame) -> pd.DataFrame:
        # one hash partition = many whole w1 groups, all vectorized:
        # collapse duplicate (bigram, doc) per-batch partials, then
        # corpus totals via grouped transforms (a bigram implies its w1)
        gg = g.groupby(["w1h", "bigh", "doc_id"], as_index=False)["k"].sum()
        c_big = gg.groupby("bigh")["k"].transform("sum").to_numpy()
        c_w1 = gg.groupby("w1h")["k"].transform("sum").to_numpy()
        k = gg["k"].to_numpy().astype(np.float64)
        ll = k * np.log((c_big + 1.0) / (c_w1 + n_vocab))
        return pd.DataFrame(
            {"doc_id": gg["doc_id"], "n": gg["k"], "ll": ll}
        )

    def doc_partial(batch: pa.Table) -> pa.Table:
        # map-side combine: the doc exchange moves <= n_docs rows per
        # batch instead of one row per distinct (doc, bigram)
        if batch.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.int64()), ("n", pa.int64()), ("ll", pa.float64())]
            ).empty_table()
        agg = pa.TableGroupBy(batch, "doc_id").aggregate(
            [("n", "sum"), ("ll", "sum")]
        )
        # select by name: aggregate's key/aggregate column order is a
        # pyarrow implementation detail
        return agg.select(["doc_id", "n_sum", "ll_sum"]).rename_columns(
            ["doc_id", "n", "ll"]
        )

    scored = (
        bg.groupby("part")
        .map_groups(contrib, batch_format="pandas")
        .map_batches(doc_partial, batch_format="pyarrow", batch_size=65536)
        .groupby("doc_id")
        .aggregate(Sum("n", alias_name="n_sum"), Sum("ll", alias_name="ll_sum"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("n_bigrams", pa.int64()),
                    ("avg_ll6", pa.float64()),
                ]
            ).empty_table()
        n = batch["n_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        ll = batch["ll_sum"].to_numpy(zero_copy_only=False)
        avg = np.array(
            [round(float(v), 6) for v in ll / n], dtype=np.float64
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": pc.cast(batch["n_sum"], pa.int64()),
                "avg_ll6": pa.array(avg, pa.float64()),
            }
        )

    return scored.map_batches(finish, batch_format="pyarrow", batch_size=4096)


def _lang_norm_batch(t: pa.Table) -> pa.Table:
    """(doc_id, lang) with lang null-coalesced to '' — MUST stay in
    lockstep with the oracles' ``coalesce(lang, '')`` (shared by the
    perplexity-bucket and UniMax operators)."""
    import pyarrow.compute as pc

    return pa.table(
        {
            "doc_id": t["doc_id"],
            "lang": pc.fill_null(pc.cast(t["lang"], pa.string()), ""),
        }
    )


def perplexity_bucket_documents(
    sf_dir: str,
    sample_hex: str = "0123",
    num_partitions: int = 32,
):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020 §4.3):
    split each language's documents into head / middle / tail thirds
    by LM score. CCNet learns tercile cutoffs on a held-out sample and
    applies them as FIXED thresholds; same two-phase shape here:

    1. score every doc with the corpus bigram LM
       (``bigram_logprob_documents`` — avg bigram log-prob per
       bigram, rounded to 6 decimals, already bit-exact vs DuckDB, so
       every threshold comparison below lands identically);
    2. cutoffs from a deterministic doc-id-hash sample
       (sha256(doc_id) first hex digit in ``sample_hex`` — ~25% at
       the default, no RNG state: every re-run and resume sees the
       same sample): per-language k-th order statistics
       (k = ceil(n/3), ceil(2n/3)) inside ``groupby(lang).map_groups``
       — the SAMPLE per language must fit one task (shrink
       ``sample_hex`` at scale; a 100 TB run samples ~0.1%), and the
       cutoff table is language-count-sized, broadcast via ray.put;
    3. one stateless assign pass over the scored corpus — vectorized
       ``index_in`` against the broadcast cutoff arrays, no shuffle.

    head = avg_ll6 > t_high; middle = (t_low, t_high]; tail =
    <= t_low. Languages whose sample has < 3 docs have no meaningful
    terciles and land in 'middle'. Docs with < 2 tokens have no LM
    score and are absent (inner join), matching the oracle. Returns
    (doc_id, lang, avg_ll6, bucket).
    """
    import pyarrow.compute as pc

    from clonehunter_ray.util import safe_join, scrub_empty_blocks

    scores = bigram_logprob_documents(sf_dir, num_partitions=num_partitions)

    langs = _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        _lang_norm_batch, batch_format="pyarrow"
    )
    # materialize: (doc_id, avg_ll6, lang) rows are tiny next to the
    # corpus, and BOTH the cutoff pass and the final assign pass
    # consume this table — without the pin, lazy re-execution would
    # run the bigram-LM shuffles and the join twice
    scored = scrub_empty_blocks(
        safe_join(
            scores.select_columns(["doc_id", "avg_ll6"]),
            langs,
            "inner",
            num_partitions,
            on=("doc_id",),
        )
    ).materialize()

    def sample_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        keep = pa.array(
            [H.sha256_hex(str(i))[0] in sample_hex for i in ids], pa.bool_()
        )
        return batch.select(["lang", "avg_ll6"]).filter(keep)

    _cut_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("t_low", pa.float64()),
            ("t_high", pa.float64()),
            ("n_sample", pa.int64()),
        ]
    )

    def cutoffs(g: pd.DataFrame) -> pd.DataFrame:
        vals = np.sort(g["avg_ll6"].to_numpy(dtype=np.float64))
        n = len(vals)
        if n < 3:
            row = {"t_low": np.nan, "t_high": np.nan}
        else:
            row = {
                "t_low": vals[int(np.ceil(n / 3.0)) - 1],
                "t_high": vals[int(np.ceil(2.0 * n / 3.0)) - 1],
            }
        return pd.DataFrame(
            {
                "lang": [str(g["lang"].iloc[0])],
                "t_low": [row["t_low"]],
                "t_high": [row["t_high"]],
                "n_sample": [n],
            }
        )

    cut_parts = _collect_tables(
        scrub_empty_blocks(
            scrub_empty_blocks(
                scored.map_batches(sample_only, batch_format="pyarrow")
            )
            .groupby("lang")
            .map_groups(
                lambda g: _pt(cutoffs(g), schema=_cut_schema),
                batch_format="pandas",
            )
        )
    )
    if cut_parts:
        ct = pa.concat_tables(cut_parts).combine_chunks()
        cm_langs = ct["lang"]
        t_low = ct["t_low"].to_numpy(zero_copy_only=False)
        t_high = ct["t_high"].to_numpy(zero_copy_only=False)
        n_s = ct["n_sample"].to_numpy(zero_copy_only=False)
    else:
        cm_langs = pa.array([], pa.string())
        t_low = t_high = np.array([], dtype=np.float64)
        n_s = np.array([], dtype=np.int64)
    cuts_ref = ray.put((cm_langs, t_low, t_high, n_s))

    def assign(batch: pa.Table) -> pa.Table:
        langs_v, lo, hi, ns = ray.get(cuts_ref)
        v = batch["avg_ll6"].to_numpy(zero_copy_only=False)
        idx = pc.fill_null(
            pc.index_in(batch["lang"], value_set=langs_v), -1
        ).to_numpy(zero_copy_only=False)
        # pad slot -1 with no-tercile sentinels so gather is branch-free
        lo_p = np.concatenate((lo, [np.nan]))
        hi_p = np.concatenate((hi, [np.nan]))
        ns_p = np.concatenate((ns, [0]))
        valid = ns_p[idx] >= 3
        head = valid & (v > hi_p[idx])
        tail = valid & ~head & (v <= lo_p[idx])
        bucket = np.where(head, "head", np.where(tail, "tail", "middle"))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "avg_ll6": batch["avg_ll6"],
                "bucket": pa.array(bucket.tolist(), pa.string()),
            }
        )

    return scored.map_batches(assign, batch_format="pyarrow")


def dsir_logweights_documents(
    sf_dir: str,
    target_lang: str = "en",
    n_buckets: int | None = None,
    num_partitions: int = 32,
):
    """DSIR importance log-weights (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling", arXiv:2302.03169):
    fit two add-one-smoothed bag-of-feature distributions — p over the
    TARGET slice (``lang = target_lang``), q over the whole corpus —
    on unigram+bigram features, and give every document its importance
    log-weight ``sum_f k_f * (ln p_f - ln q_f)``; resampling is a
    downstream deterministic sampler (``hash_sample``/Gumbel top-k)
    over the weights. ``n_buckets=None`` keeps exact string features
    (the SQL-checkable form); setting it hashes features into
    ``n_buckets`` buckets (blake2b % B) — the paper's memory-bounded
    form for 100 TB vocabularies, byte-identical pipeline otherwise.
    Returns (doc_id, n_feats, logweight6).

    Ray shape: same single-exchange family as
    ``bigram_logprob_documents`` — per-batch distinct
    (feat, doc, k, is-target) rows; ONE exchange on a feat-hash
    partition key computes target counts, corpus counts AND per-doc
    contributions vectorized within the partition (scalars T_p, T_q,
    F reduce through tiny side passes); map-side combine then one doc
    exchange."""
    import pyarrow.compute as pc

    feat_type = pa.string() if n_buckets is None else pa.uint64()
    bg_schema = pa.schema(
        [
            ("feat", feat_type),
            ("doc_id", pa.int64()),
            ("k", pa.int64()),
            ("tgt", pa.int64()),
            ("part", pa.int64()),
        ]
    )

    def feat_doc_counts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return bg_schema.empty_table()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_tgt = pc.equal(
            pc.fill_null(batch["lang"], ""), target_lang
        ).to_numpy(zero_copy_only=False)
        flat, parent = H.flat_tokens(batch["text"])
        if len(flat) == 0:
            return bg_schema.empty_table()
        uni_np = flat.to_numpy(zero_copy_only=False).astype(object)
        same = parent[1:] == parent[:-1] if len(flat) > 1 else np.zeros(0, bool)
        if same.any():
            mask = pa.array(same, pa.bool_())
            w1 = flat.slice(0, len(flat) - 1).filter(mask)
            w2 = flat.slice(1).filter(mask)
            big_np = (
                pc.binary_join_element_wise(w1, w2, " ")
                .to_numpy(zero_copy_only=False)
                .astype(object)
            )
            big_docs = parent[:-1][same]
        else:
            big_np = np.empty(0, dtype=object)
            big_docs = np.empty(0, dtype=np.int64)
        feats = np.concatenate((uni_np, big_np))
        rows = np.concatenate((parent, big_docs))
        # distinct (feat, doc) + counts via batch-unique encode + lexsort
        uniq, inv = np.unique(feats, return_inverse=True)
        order = np.lexsort((rows, inv))
        f_s, r_s = inv[order], rows[order]
        new = np.concatenate(
            ([True], (f_s[1:] != f_s[:-1]) | (r_s[1:] != r_s[:-1]))
        )
        starts = np.flatnonzero(new)
        counts = np.diff(np.concatenate((starts, [len(f_s)])))
        uh = np.fromiter(
            (H.hash_token_u64(t) for t in uniq),
            dtype=np.uint64,
            count=len(uniq),
        )
        sel = f_s[starts]
        out_hash = uh[sel]
        if n_buckets is None:
            feat_col = pa.array(uniq[sel].astype(str), pa.string())
            part = (out_hash % np.uint64(num_partitions)).astype(np.int64)
        else:
            bucket = out_hash % np.uint64(n_buckets)
            feat_col = pa.array(bucket, pa.uint64())
            part = (bucket % np.uint64(num_partitions)).astype(np.int64)
        docs_out = ids[r_s[starts]]
        return pa.table(
            {
                "feat": feat_col,
                "doc_id": pa.array(docs_out, pa.int64()),
                "k": pa.array(counts.astype(np.int64), pa.int64()),
                "tgt": pa.array(
                    is_tgt[r_s[starts]].astype(np.int64), pa.int64()
                ),
                "part": pa.array(part, pa.int64()),
            },
            schema=bg_schema,
        )

    bg = (
        _read(sf_dir, "documents", ["doc_id", "text", "lang"])
        .map_batches(feat_doc_counts, batch_format="pyarrow", batch_size=4096)
        .materialize()  # feeds the scalar passes AND the scoring pass
    )

    def feat_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            out_type = pa.string() if n_buckets is None else pa.int64()
            return pa.schema([("feat", out_type)]).empty_table()
        u = pc.unique(t["feat"])
        if n_buckets is not None:
            u = u.view(pa.int64())  # same uint64 groupby hazard as w1h
        return pa.table({"feat": u})

    n_feats_distinct = float(
        bg.map_batches(feat_partial, batch_format="pyarrow")
        .groupby("feat")
        .count()
        .count()
    )

    def tot_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"t_p": pa.array([], pa.int64()), "t_q": pa.array([], pa.int64())}
            )
        k = t["k"].to_numpy(zero_copy_only=False)
        tg = t["tgt"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "t_p": pa.array([int((k * tg).sum())], pa.int64()),
                "t_q": pa.array([int(k.sum())], pa.int64()),
            }
        )

    tot_tables = _collect_tables(
        bg.map_batches(tot_partial, batch_format="pyarrow")
    )
    t_p = float(sum(t["t_p"].to_pandas().sum() for t in tot_tables))
    t_q = float(sum(t["t_q"].to_pandas().sum() for t in tot_tables))

    def contrib(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(["feat", "doc_id", "tgt"], as_index=False)["k"].sum()
        c_q = gg.groupby("feat")["k"].transform("sum").to_numpy()
        pk = gg["k"].to_numpy() * gg["tgt"].to_numpy()
        c_p = (
            gg.assign(pk=pk).groupby("feat")["pk"].transform("sum").to_numpy()
        )
        k = gg["k"].to_numpy().astype(np.float64)
        ll = k * (
            np.log((c_p + 1.0) / (t_p + n_feats_distinct))
            - np.log((c_q + 1.0) / (t_q + n_feats_distinct))
        )
        return pd.DataFrame({"doc_id": gg["doc_id"], "n": gg["k"], "ll": ll})

    def doc_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.int64()), ("n", pa.int64()), ("ll", pa.float64())]
            ).empty_table()
        agg = pa.TableGroupBy(batch, "doc_id").aggregate(
            [("n", "sum"), ("ll", "sum")]
        )
        # select by name: aggregate's key/aggregate column order is a
        # pyarrow implementation detail
        return agg.select(["doc_id", "n_sum", "ll_sum"]).rename_columns(
            ["doc_id", "n", "ll"]
        )

    scored = (
        bg.groupby("part")
        .map_groups(contrib, batch_format="pandas")
        .map_batches(doc_partial, batch_format="pyarrow", batch_size=65536)
        .groupby("doc_id")
        .aggregate(Sum("n", alias_name="n_sum"), Sum("ll", alias_name="ll_sum"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("n_feats", pa.int64()),
                    ("logweight6", pa.float64()),
                ]
            ).empty_table()
        ll = batch["ll_sum"].to_numpy(zero_copy_only=False)
        w6 = np.array([round(float(v), 6) for v in ll], dtype=np.float64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_feats": pc.cast(batch["n_sum"], pa.int64()),
                "logweight6": pa.array(w6, pa.float64()),
            }
        )

    return scored.map_batches(finish, batch_format="pyarrow", batch_size=4096)


def dsir_resample_documents(
    sf_dir: str,
    k: int = 100,
    seed: str = "dsir42",
    target_lang: str = "en",
):
    """Gumbel top-k importance RESAMPLING — the selection half of DSIR
    (arXiv:2302.03169 alg. 1 resamples k examples without replacement
    w.p. proportional to exp(importance weight); perturbing each log
    weight with Gumbel(0,1) noise and keeping the global top-k draws
    exactly that sample): u = sha256(seed:doc_id) mapped into (0,1)
    via its first 52 bits, g = -ln(-ln u),
    gkey = round(logweight + g, 6), ties by doc_id. Deterministic —
    no RNG state; a seed change is a fresh draw. Returns the k
    selected (doc_id, logweight6, gkey6).

    Ray shape: stateless key map over the ids-only dsir weight table,
    then ``stages/topk.top_k`` (a per-batch combiner, one sort of the
    <= k x n_blocks survivors) — the corpus never shuffles (same
    recipe as sample_k_documents)."""
    w = dsir_logweights_documents(sf_dir, target_lang=target_lang)

    def gumbel_key(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        lw = batch["logweight6"].to_numpy(zero_copy_only=False)
        u = H.hex_uniform(H.sha256_hex_many(f"{seed}:{i}" for i in ids))
        gkey = np.array(
            [round(float(x), 6) for x in lw + (-np.log(-np.log(u)))],
            dtype=np.float64,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "logweight6": batch["logweight6"],
                "gkey6": pa.array(gkey, pa.float64()),
            }
        )

    return top_k(
        w.map_batches(gumbel_key, batch_format="pyarrow"),
        [("gkey6", "descending"), ("doc_id", "ascending")],
        k,
    )


def quota_rank_sample(
    docs: "ray.data.Dataset", key_col: str, quota: dict[str, int], seed: int
) -> "ray.data.Dataset":
    """Deterministic per-key quota sampling, shared by the
    temperature-mixture and UniMax operators: select each key's
    ``quota[key]`` smallest sha256(seed:doc_id) ranks (tie: doc_id).

    Ray shape: keys with quota 0 are dropped BEFORE hashing (their
    rows can never be selected), then ``stages/topk.top_k`` with the
    quota mapping (a key never ships more than its quota per block).
    Returns (doc_id, <key_col>) rows.
    """
    import pyarrow.compute as pc

    active = pa.array(
        sorted(k for k, q in quota.items() if q > 0), pa.string()
    )

    def rank(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch["doc_id"]),
                pc.is_in(batch[key_col], value_set=active),
            )
        )
        hs = H.sha256_hex_many(f"{seed}:{i}" for i in batch["doc_id"].to_pylist())
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                key_col: pc.cast(batch[key_col], pa.string()),
                "rank": pa.array(hs, pa.string()),
            }
        )

    return top_k(
        docs.map_batches(rank, batch_format="pyarrow"),
        [("rank", "ascending"), ("doc_id", "ascending")],
        quota,
        by=key_col,
        project=lambda t: t.select(["doc_id", key_col]),
    )


def temperature_sample_by_source(
    sf_dir: str, k: int = 200, seed: int = 17
):
    """Temperature-flattened mixture sampling (the mT5/multilingual
    recipe, Xue et al. 2021: sample source s w.p. proportional to
    n_s^alpha, alpha = 1/T): draw a deterministic total-k sample whose
    per-source quotas follow n_s^(1/2) (T=2) instead of raw counts, so
    small sources are upweighted relative to proportional sampling.

    Quota arithmetic is INTEGER-EXACT for oracle parity: the weight is
    w_s = floor(sqrt(n_s) * 1e6 + 0.5) (sqrt is correctly rounded in
    both numpy and DuckDB; floor(+0.5) sidesteps banker's-rounding
    differences), the quota floor((k * w_s) / sum w) divides two
    exactly-representable integers cast to double — bit-identical in
    both engines. Selection within a source is the k-smallest
    sha256(seed:doc_id) rank (same deterministic-uniform recipe as
    ``sample_k_documents``).

    Ray shape for 100 TB: counts come from per-batch partial
    value-counts (rows shipped = sources x blocks, never the corpus);
    selection is ``quota_rank_sample`` (``stages/topk.top_k`` with the
    per-source quotas) — a hot source never ships more than quota rows
    per block.
    """
    import math

    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        vc = batch["source"].value_counts()
        return pa.table(
            {
                "source": vc.field("values"),
                "cnt": vc.field("counts"),
            }
        )

    counts = (
        docs.map_batches(partial_counts, batch_format="pyarrow")
        .to_pandas()
        .groupby("source", sort=True)["cnt"]
        .sum()
    )
    weights = {
        s: int(math.floor(math.sqrt(float(n)) * 1e6 + 0.5))
        for s, n in counts.items()
    }
    total_w = sum(weights.values())
    quota = {
        s: min(
            int(counts[s]),
            int(math.floor(float(k * w) / float(total_w))),
        )
        for s, w in weights.items()
    }

    return quota_rank_sample(docs, "source", quota, seed)


def unimax_waterfill(
    lang_counts: dict[str, int], budget: int, max_epochs: int
) -> dict[str, int]:
    """Closed-form UniMax budget allocation: quota_l = min(n_l * E,
    floor(level)) where the fill level is fixed by the FIRST language
    (capacities ascending, tie lang) whose capacity meets its equal
    share of the remaining budget — shares rise monotonically before
    the crossover, so "first" is well-defined. Exact-int inputs, one
    IEEE double division — bit-identical to the SQL oracle's
    window-function form. No crossover (budget covers all capacities)
    means every quota is its capacity."""
    import math

    caps = sorted(
        (int(n) * max_epochs, str(lang)) for lang, n in lang_counts.items()
    )
    k = len(caps)
    level = None
    cum = 0
    for i, (c, _lang) in enumerate(caps, 1):
        share = float(budget - cum) / float(k - i + 1)
        if c >= share:
            level = share
            break
        cum += c
    lvl_floor = None if level is None else int(math.floor(level))
    return {
        lang: (c if lvl_floor is None else min(c, lvl_floor))
        for c, lang in caps
    }


def unimax_sample_documents(
    sf_dir: str, budget: int = 600, max_epochs: int = 2, seed: int = 11
):
    """UniMax language-balanced sampling (Chung et al. 2023,
    arXiv:2304.09151): allocate a total training budget across
    languages by waterfilling, capping every language at
    ``max_epochs`` passes over its corpus — high-resource languages
    stop growing at the fill level and no language repeats more than
    E epochs. Budget unit here is DOCUMENTS (compose with per-doc
    token counts for the paper's token budget; the allocation math is
    identical).

    Closed-form waterfill, identical arithmetic in the DuckDB oracle:
    languages sorted by capacity c_l = n_l * E ascending (tie: lang);
    the FIRST index i with c_i >= (B - cum_{i-1}) / (k - i + 1) fixes
    the level (shares rise monotonically before the crossover, so
    "first" is well-defined); quota_l = min(c_l, floor(level)). All
    inputs exact ints, the level one IEEE double division —
    bit-identical cross-engine. Selection: every doc repeats
    quota // n full epochs; the partial epoch takes the quota % n
    smallest sha256(seed:doc_id) ranks (house deterministic-uniform,
    no RNG state). Output (doc_id, lang, epoch), one row per USE.

    Ray shape at 100 TB: per-lang counts from per-batch partial
    value-counts (rows = langs x blocks, never the corpus); the
    waterfill runs on the language-count-sized table driver-side;
    full epochs are one stateless np.repeat pass; the partial epoch
    reuses ``quota_rank_sample`` with the remainders as quotas, so a
    language never ships more than its remainder per block.
    """
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
        _lang_norm_batch, batch_format="pyarrow"
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        vc = batch["lang"].value_counts()
        return pa.table(
            {"lang": vc.field("values"), "cnt": vc.field("counts")}
        )

    counts = (
        docs.map_batches(partial_counts, batch_format="pyarrow")
        .to_pandas()
        .groupby("lang", sort=True)["cnt"]
        .sum()
    )
    quotas = unimax_waterfill(
        {str(lang): int(n) for lang, n in counts.items()},
        budget,
        max_epochs,
    )
    langs_list = sorted(quotas)
    full_list = [quotas[lang] // int(counts[lang]) for lang in langs_list]
    rem_list = [quotas[lang] % int(counts[lang]) for lang in langs_list]
    langs_arr = pa.array(langs_list, pa.string())
    full_arr = np.array(full_list + [0], dtype=np.int64)
    rem = dict(zip(langs_list, rem_list))

    _out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("lang", pa.string()),
            ("epoch", pa.int64()),
        ]
    )

    def full_epochs(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        idx = pc.fill_null(
            pc.index_in(batch["lang"], value_set=langs_arr), len(langs_arr)
        ).to_numpy(zero_copy_only=False)
        f = full_arr[idx]
        tot = int(f.sum())
        if tot == 0:
            return _out_schema.empty_table()
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), f)
        starts = np.cumsum(f) - f
        epoch = np.arange(tot, dtype=np.int64) - np.repeat(starts, f)
        take = pa.array(rows, pa.int64())
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(take).cast(pa.int64()),
                "lang": batch["lang"].take(take),
                "epoch": pa.array(epoch, pa.int64()),
            },
            schema=_out_schema,
        )

    full_side = docs.map_batches(full_epochs, batch_format="pyarrow")
    if not any(rem_list):
        # quotas are exact multiples of every corpus (or zero): no
        # partial epoch exists, and skipping the branch keeps the
        # groupby's zero-column empty partitions out of the union
        return full_side
    from clonehunter_ray.util import scrub_empty_blocks

    def add_epoch(t: pa.Table) -> pa.Table:
        idx = pc.fill_null(
            pc.index_in(t["lang"], value_set=langs_arr), len(langs_arr)
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "lang": t["lang"],
                "epoch": pa.array(full_arr[idx], pa.int64()),
            },
            schema=_out_schema,
        )

    partial = scrub_empty_blocks(
        quota_rank_sample(docs, "lang", rem, seed)
    ).map_batches(add_epoch, batch_format="pyarrow")
    return full_side.union(partial)


def source_overlap_matrix(sf_dir: str, k: int = 3, num_partitions: int = 16):
    """Corpus-audit operator: pairwise overlap between sources measured
    as Jaccard similarity of their DISTINCT token k-gram sets — the
    standard pre-training audit for "how much does crawl A repeat
    crawl B" (and the quantitative basis for choosing dedup order).

    Ray shape: (1) a tiny per-batch value-counts pass discovers the
    source list (rows shipped = sources x blocks); (2) per batch,
    distinct (gram-hash, source-idx) pairs — ids only, no strings —
    partitioned by gram hash; (3) inside each gram partition, a
    VECTORIZED per-gram source-bitmask fold (sort + bitwise_or.reduceat
    — OR is idempotent, so duplicate (gram, source) rows across batches
    are harmless), then distinct-mask histogram rows (mask, cnt);
    (4) the driver aggregates the bounded (<= 2^n_sources x partitions)
    mask histogram into per-source counts, pairwise intersections, and
    Jaccards. Requires <= 63 sources (one uint64 mask); beyond that,
    chunk the source list and run per chunk pair-block.

    Gram identity is the 64-bit positional hash (functions.hashing
    flat_gram_hashes) — distinct counts match a SQL oracle building
    gram STRINGS up to negligible collision odds, same contract as
    frequent_gram_stats_documents.
    """
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial_sources(batch: pa.Table) -> pa.Table:
        vc = batch["source"].value_counts()
        return pa.table({"source": vc.field("values")})

    src_list = sorted(
        set(
            docs.map_batches(partial_sources, batch_format="pyarrow")
            .to_pandas()["source"]
        )
    )
    if len(src_list) > 63:
        raise ValueError(
            f"{len(src_list)} sources exceed the single-uint64 bitmask"
        )
    src_idx = {s: i for i, s in enumerate(src_list)}

    empty_pairs = pa.schema(
        [("part", pa.int64()), ("gram", pa.int64()), ("sidx", pa.int64())]
    )

    def gram_source_pairs(batch: pa.Table) -> pa.Table:
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        if len(grams) == 0:
            return empty_pairs.empty_table()
        srcs = batch["source"].to_numpy(zero_copy_only=False)
        sidx = np.array([src_idx[s] for s in srcs], dtype=np.int64)[rows]
        g = grams.view(np.int64)  # bit-reinterpret: Arrow-safe group key
        key = np.stack([g, sidx])
        # per-batch distinct (gram, source) — ships each pair once
        order = np.lexsort(key)
        gg, ss = g[order], sidx[order]
        first = np.r_[True, (gg[1:] != gg[:-1]) | (ss[1:] != ss[:-1])]
        gg, ss = gg[first], ss[first]
        part = (gg.view(np.uint64) % np.uint64(num_partitions)).astype(
            np.int64
        )
        return pa.table(
            {
                "part": pa.array(part, pa.int64()),
                "gram": pa.array(gg, pa.int64()),
                "sidx": pa.array(ss, pa.int64()),
            }
        )

    mask_schema = pa.schema([("mask", pa.int64()), ("cnt", pa.int64())])

    def fold_masks(part_tbl: pa.Table) -> pa.Table:
        if part_tbl.num_rows == 0:
            return mask_schema.empty_table()
        g = part_tbl["gram"].to_numpy(zero_copy_only=False)
        s = part_tbl["sidx"].to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g, s = g[order], s[order]
        bits = (np.uint64(1) << s.astype(np.uint64))
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        masks = np.bitwise_or.reduceat(bits, starts)
        um, cnt = np.unique(masks, return_counts=True)
        return pa.table(
            {
                "mask": pa.array(um.view(np.int64), pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        docs.map_batches(gram_source_pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold_masks, batch_format="pyarrow")
        .to_pandas()
    )
    n_src = len(src_list)
    per_src = np.zeros(n_src, dtype=np.int64)
    common = np.zeros((n_src, n_src), dtype=np.int64)
    for m, c in zip(
        hist["mask"].to_numpy().view(np.uint64), hist["cnt"].to_numpy()
    ):
        members = [i for i in range(n_src) if m >> np.uint64(i) & np.uint64(1)]
        for i in members:
            per_src[i] += c
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                common[members[ai], members[bi]] += c
    rows = []
    for a in range(n_src):
        for b in range(a + 1, n_src):
            union = per_src[a] + per_src[b] - common[a, b]
            rows.append(
                {
                    "source_a": src_list[a],
                    "source_b": src_list[b],
                    "grams_a": int(per_src[a]),
                    "grams_b": int(per_src[b]),
                    "grams_common": int(common[a, b]),
                    "jaccard": float(common[a, b]) / union if union else 0.0,
                }
            )
    return _pt(
        pd.DataFrame(rows),
        pa.schema(
            [
                ("source_a", pa.string()),
                ("source_b", pa.string()),
                ("grams_a", pa.int64()),
                ("grams_b", pa.int64()),
                ("grams_common", pa.int64()),
                ("jaccard", pa.float64()),
            ]
        ),
    )


def token_budget_select(sf_dir: str, budget: int = 15_000):
    """Deterministic token-budget cut: keep the prefix of documents —
    in sha256(doc_id) priority order — whose cumulative token count
    stays <= ``budget`` (the "give me exactly N training tokens,
    reproducibly" dataset-sizing primitive; a distributed prefix-scan
    WITHOUT a global sort).

    Ray shape: (1) one pass computing per-batch partial token sums per
    16-bit priority-prefix BUCKET (rows shipped = nonzero buckets per
    block, never documents); (2) the driver prefix-sums the <= 65536
    bucket totals and finds the boundary bucket; (3) one filtered pass
    keeps every doc in buckets strictly before the boundary, and the
    boundary bucket's rows (~corpus/65536) collect driver-side for the
    exact in-bucket cut. Integer token sums end to end — bit-exact vs
    the SQL windowed-SUM oracle. At 10^12 docs the boundary bucket is
    ~10^7 rows; recurse on the next 2 priority bytes if that is still
    too large (documented assumption, not implemented).
    """
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def _tok_pri(batch: pa.Table):
        batch = batch.filter(pc.is_valid(batch["doc_id"]))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        _, lens = H.tokenize_hash_flat(batch["text"])
        if len(lens) == 0:
            lens = np.zeros(len(ids), dtype=np.int64)
        pri = H.sha256_hex_many(str(i) for i in ids)
        bucket = np.fromiter(
            (int(p[:4], 16) for p in pri), dtype=np.int64, count=len(pri)
        )
        return batch, ids, lens, pri, bucket

    def bucket_partials(batch: pa.Table) -> pa.Table:
        _, ids, lens, _, bucket = _tok_pri(batch)
        if len(ids) == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "tok": pa.array([], pa.int64()),
                }
            )
        ub, inv = np.unique(bucket, return_inverse=True)
        sums = np.bincount(inv, weights=lens).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(ub, pa.int64()),
                "tok": pa.array(sums, pa.int64()),
            }
        )

    totals = (
        docs.map_batches(bucket_partials, batch_format="pyarrow")
        .to_pandas()
        .groupby("bucket", sort=True)["tok"]
        .sum()
    )
    out_schema = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64())])
    if totals.empty:
        return ray.data.from_arrow(out_schema.empty_table())
    cum = totals.cumsum()
    # boundary = first bucket whose cumulative total exceeds the budget
    over = cum[cum > budget]
    if over.empty:
        boundary = int(totals.index.max()) + 1  # everything fits
        remaining = 0
    else:
        boundary = int(over.index[0])
        before = int(cum.loc[boundary] - totals.loc[boundary])
        remaining = budget - before

    def keep_before(batch: pa.Table) -> pa.Table:
        batch, ids, lens, _, bucket = _tok_pri(batch)
        sel = bucket < boundary
        return pa.table(
            {
                "doc_id": pa.array(ids[sel], pa.int64()),
                "n_tokens": pa.array(lens[sel], pa.int64()),
            }
        )

    def boundary_rows(batch: pa.Table) -> pa.Table:
        batch, ids, lens, pri, bucket = _tok_pri(batch)
        sel = bucket == boundary
        return pa.table(
            {
                "doc_id": pa.array(ids[sel], pa.int64()),
                "n_tokens": pa.array(lens[sel], pa.int64()),
                "pri": pa.array([p for p, s in zip(pri, sel) if s], pa.string()),
            }
        )

    selected = docs.map_batches(keep_before, batch_format="pyarrow")
    if boundary > int(totals.index.max()):
        return selected
    edge = (
        docs.map_batches(boundary_rows, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["pri", "doc_id"])
    )
    run = edge["n_tokens"].cumsum()
    edge_keep = edge[run <= remaining][["doc_id", "n_tokens"]]
    return selected.union(
        ray.data.from_arrow(_pt(edge_keep.reset_index(drop=True), out_schema))
    )


def gram_novelty_documents(sf_dir: str, k: int = 3):
    """Novelty scoring for curriculum/dedup triage: for each document,
    the fraction of its DISTINCT token k-grams whose global FIRST
    occurrence (minimum doc_id) is this document — 1.0 means entirely
    novel content, ~0.0 means the document restates earlier corpus.

    Ray shape: per-batch distinct (gram-hash, doc_id) pairs (ids only;
    a doc's grams never straddle batches, so per-doc distinct counts
    are exact map-side) -> ONE gram-partitioned exchange computing
    min(doc_id) per gram and folding first-occurrence counts per doc
    -> a tiny doc-partitioned sum over (doc, n_grams, n_first)
    partials -> stateless novelty arithmetic. Gram identity is the
    64-bit positional hash, same oracle contract as
    frequent_gram_stats_documents.
    """
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    partial_schema = pa.schema(
        [
            ("part", pa.int64()),
            ("doc_id", pa.int64()),
            ("n_grams", pa.int64()),
            ("n_first", pa.int64()),
        ]
    )
    pair_schema = pa.schema(
        [("part", pa.int64()), ("gram", pa.int64()), ("doc_id", pa.int64())]
    )
    nparts = 16

    def doc_totals(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        n_total = np.zeros(len(ids), dtype=np.int64)
        if len(grams):
            key = np.stack([grams.view(np.int64), rows])
            order = np.lexsort(key)
            g, r = grams.view(np.int64)[order], rows[order]
            first = np.r_[True, (g[1:] != g[:-1]) | (r[1:] != r[:-1])]
            n_total = np.bincount(r[first], minlength=len(ids)).astype(
                np.int64
            )
        return pa.table(
            {
                "part": pa.array(ids % nparts, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "n_grams": pa.array(n_total, pa.int64()),
                "n_first": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
            },
            schema=partial_schema,
        )

    def gram_pairs(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        th = H.tokenize_hash_texts(batch["text"])
        grams, rows = H.flat_gram_hashes(th, k)
        if len(grams) == 0:
            return pair_schema.empty_table()
        g = grams.view(np.int64)
        d = ids[rows]
        order = np.lexsort(np.stack([g, d]))
        gg, dd = g[order], d[order]
        first = np.r_[True, (gg[1:] != gg[:-1]) | (dd[1:] != dd[:-1])]
        gg, dd = gg[first], dd[first]
        return pa.table(
            {
                "part": pa.array(
                    (gg.view(np.uint64) % np.uint64(nparts)).astype(np.int64),
                    pa.int64(),
                ),
                "gram": pa.array(gg, pa.int64()),
                "doc_id": pa.array(dd, pa.int64()),
            },
            schema=pair_schema,
        )

    def fold_first(part_tbl: pa.Table) -> pa.Table:
        if part_tbl.num_rows == 0:
            return partial_schema.empty_table()
        g = part_tbl["gram"].to_numpy(zero_copy_only=False)
        d = part_tbl["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort(np.stack([d, g]))  # gram primary, doc asc
        g, d = g[order], d[order]
        starts = np.r_[True, g[1:] != g[:-1]]
        first_docs = d[starts]
        ud, cnt = np.unique(first_docs, return_counts=True)
        return pa.table(
            {
                "part": pa.array(ud % nparts, pa.int64()),
                "doc_id": pa.array(ud, pa.int64()),
                "n_grams": pa.array(np.zeros(len(ud), np.int64), pa.int64()),
                "n_first": pa.array(cnt.astype(np.int64), pa.int64()),
            },
            schema=partial_schema,
        )

    firsts = (
        docs.map_batches(gram_pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold_first, batch_format="pyarrow")
    )
    totals = docs.map_batches(doc_totals, batch_format="pyarrow")

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_grams", pa.int64()),
            ("n_first", pa.int64()),
            ("novelty", pa.float64()),
        ]
    )

    def finish(part_tbl: pa.Table) -> pa.Table:
        if part_tbl.num_rows == 0:
            return out_schema.empty_table()
        d = part_tbl["doc_id"].to_numpy(zero_copy_only=False)
        ng = part_tbl["n_grams"].to_numpy(zero_copy_only=False)
        nf = part_tbl["n_first"].to_numpy(zero_copy_only=False)
        ud, inv = np.unique(d, return_inverse=True)
        tg = np.bincount(inv, weights=ng).astype(np.int64)
        tf = np.bincount(inv, weights=nf).astype(np.int64)
        nov = np.where(tg > 0, tf / np.maximum(tg, 1), 0.0)
        return pa.table(
            {
                "doc_id": pa.array(ud, pa.int64()),
                "n_grams": pa.array(tg, pa.int64()),
                "n_first": pa.array(tf, pa.int64()),
                "novelty": pa.array(nov, pa.float64()),
            },
            schema=out_schema,
        )

    return (
        totals.union(firsts)
        .groupby("part")
        .map_groups(finish, batch_format="pyarrow")
    )


def _weighted_quantile_cont(
    vals: np.ndarray, cnts: np.ndarray, q: float
) -> float:
    """quantile_cont over a (value, count) histogram — DuckDB
    median()/mad() interpolation semantics (position (n-1)*q, linear
    between the bracketing order statistics)."""
    order = np.argsort(vals)
    vals = vals[order]
    cnts = cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    pos = (n - 1) * q
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    lo_v = float(vals[np.searchsorted(cum, lo + 1)])
    hi_v = float(vals[np.searchsorted(cum, hi + 1)])
    frac = pos - lo
    return lo_v * (1.0 - frac) + hi_v * frac


def length_outlier_filter_documents(sf_dir: str, c: float = 2.0):
    """Robust length-outlier detection (median/MAD): report documents
    whose n_chars deviates from the corpus median by more than ``c``
    median-absolute-deviations — the standard robust alternative to
    mean/stddev screens for heavy-tailed web-corpus length
    distributions (a mean/stddev cut is itself dragged by the
    outliers it is trying to remove).

    Ray shape, two passes: (1) the same bounded (value, count)
    histogram combiner as ``doc_length_quantiles`` — the shuffle moves
    one row per DISTINCT length, independent of corpus size — then
    median and MAD both derive driver-side from that tiny summary via
    weighted quantile_cont (DuckDB median()/mad() semantics, verified
    bit-equal); (2) one stateless map_batches filter with the two
    scalars closed over (two floats ship in the task closure — no
    broadcast object needed). Integer lengths and .0/.5 medians make
    every deviation exact in float64, so the ``>`` threshold
    comparison is deterministic across engines.
    """

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_chars", pa.int64()),
            ("abs_dev", pa.float64()),
        ]
    )
    agg = (
        _read(sf_dir, "documents", ["n_chars"])
        .map_batches(_nchars_hist, batch_format="pyarrow")
        .groupby("n_chars")
        .sum("cnt")
        .to_pandas()
    )
    if agg.empty:
        return out_schema.empty_table()
    vals = agg["n_chars"].to_numpy().astype(np.float64)
    cnts = agg["sum(cnt)"].to_numpy().astype(np.int64)
    med = _weighted_quantile_cont(vals, cnts, 0.5)
    dev_vals = np.abs(vals - med)
    uv, inv = np.unique(dev_vals, return_inverse=True)
    uc = np.bincount(inv, weights=cnts).astype(np.int64)
    thr = c * _weighted_quantile_cont(uv, uc, 0.5)

    def flag(batch: pa.Table) -> pa.Table:
        n = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        dev = np.abs(n - med)
        t = pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_chars": batch["n_chars"].cast(pa.int64()),
                "abs_dev": pa.array(dev, pa.float64()),
            },
            schema=out_schema,
        )
        return t.filter(pa.array(dev > thr, pa.bool_()))

    return _read(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        flag, batch_format="pyarrow"
    )


_STP_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("source", pa.string()),
        ("tok", pa.string()),
        ("cnt", pa.int64()),
    ]
)


def _source_token_partial(batch: pa.Table, nparts: int) -> pa.Table:
    """Shared per-batch (part, source, tok, cnt) combiner behind the
    source-level token audits (``token_kl_by_source``,
    ``lexical_diversity_by_source``): canonical ``flat_tokens``
    stream, per-batch (source, tok) fold, part = token hash % nparts
    so every partial for a token lands in one partition group. NULL
    sources raise (fail loudly rather than silently diverging from
    the oracle's NULL-group semantics)."""
    if batch["source"].null_count:
        raise ValueError(
            "source-token audit: NULL source values are not "
            "supported — fill or drop them upstream"
        )
    flat, parent = H.flat_tokens(batch["text"], with_parent=True)
    if len(flat) == 0:
        return _STP_SCHEMA.empty_table()
    src = batch["source"].to_numpy(zero_copy_only=False)
    df = pd.DataFrame(
        {
            "source": src[parent],
            "tok": flat.to_numpy(zero_copy_only=False),
        }
    )
    g = (
        df.groupby(["source", "tok"], sort=False)
        .size()
        .reset_index(name="cnt")
    )
    part = (
        H.hash_token_stream(pa.array(g["tok"], pa.string()))
        % np.uint64(nparts)
    ).astype(np.int64)
    g.insert(0, "part", part)
    return _pt(g, _STP_SCHEMA)


def token_kl_by_source(sf_dir: str):
    """Data-mixture audit: per-source KL divergence between each
    source's token unigram distribution and the corpus-wide
    distribution — the standard 'how far does this slice sit from the
    mixture' diagnostic used when rebalancing pretraining mixes
    (DSIR's importance weights are the per-DOCUMENT cousin; this is
    the per-SOURCE rollup planners actually look at).

    Ray shape: one tokenize pass emits per-batch (part, source, tok,
    cnt) partials via the canonical ``flat_tokens`` kernel (part =
    token hash % 64), materialized once and consumed twice. Partial
    volume is per-batch-DISTINCT rows: upper-bounded by token
    instances when the vocabulary is hapax-dominated (web-scale worst
    case) but far below payload bytes, and plasma spills it rather
    than any driver list; a fixed memory budget instead wants DSIR's
    hashed-bucket distributions (``dsir_logweights_documents``) — this
    op is the EXACT variant. Per-source token totals reduce through a
    tiny groupby('source') whose handful of scalars ship in task
    closures. KL terms reduce through a groupby('part') whose 64
    hash-partitioned groups each hold complete per-token counts (a
    token's every partial lands in its hash's partition), so one
    VECTORIZED pandas pass per partition — not one Python call per
    token — computes p_t/p_s/terms and emits <= n_sources rows; a
    final groupby('source') sums 64 partials per source. Nothing
    corpus-sized crosses an exchange after the first combiner. KL
    terms round to 6 dp on both engines, absorbing summation-order
    float drift. NULL sources raise rather than silently diverging
    from the oracle's NULL-group semantics.
    """
    nparts = 64
    partial = lambda b: _source_token_partial(b, nparts)  # noqa: E731

    from clonehunter_ray.util import scrub_empty_blocks

    docs = _read(sf_dir, "documents", ["source", "text"])
    # consumed twice (source totals + per-token groups): materialize the
    # vocab-bounded partials so the corpus is tokenized exactly once
    parts = docs.map_batches(partial, batch_format="pyarrow").materialize()
    totals = (
        scrub_empty_blocks(parts).groupby("source").sum("cnt").to_pandas()
    )
    out_schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_tokens", pa.int64()),
            ("kl", pa.float64()),
        ]
    )
    if totals.empty:
        return ray.data.from_arrow(out_schema.empty_table())
    ns = {
        s: float(n) for s, n in zip(totals["source"], totals["sum(cnt)"])
    }
    n_total = float(sum(ns.values()))
    term_schema = pa.schema(
        [("source", pa.string()), ("kl_part", pa.float64())]
    )

    def per_part(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return term_schema.empty_table()
        df = group.select(["source", "tok", "cnt"]).to_pandas()
        # fold duplicate (tok, source) partials from different batches
        g = (
            df.groupby(["tok", "source"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        # every partial for a token lands in this partition, so the
        # per-tok transform sum IS the token's global count
        tok_tot = g.groupby("tok", sort=False)["cnt"].transform("sum")
        p_t = tok_tot.to_numpy(dtype=np.float64) / n_total
        p_s = g["cnt"].to_numpy(dtype=np.float64) / g["source"].map(
            ns
        ).to_numpy(dtype=np.float64)
        terms = p_s * np.log(p_s / p_t)
        out = (
            pd.DataFrame({"source": g["source"], "kl_part": terms})
            .groupby("source", sort=False)["kl_part"]
            .sum()
            .reset_index()
        )
        return _pt(out, term_schema)

    agg = (
        scrub_empty_blocks(
            scrub_empty_blocks(parts)
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow")
        )
        .groupby("source")
        .sum("kl_part")
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        src = batch["source"].to_pylist()
        kl = np.round(
            batch["sum(kl_part)"].to_numpy(zero_copy_only=False), 6
        )
        return pa.table(
            {
                "source": pa.array(src, pa.string()),
                "n_tokens": pa.array(
                    [int(ns[s]) for s in src], pa.int64()
                ),
                "kl": pa.array(kl, pa.float64()),
            },
            schema=out_schema,
        )

    return scrub_empty_blocks(agg).map_batches(
        finish, batch_format="pyarrow"
    )


def lexical_diversity_by_source(sf_dir: str):
    """Lexical-diversity audit: per-source type-token ratio (distinct
    tokens / total tokens) — the quick Heaps-law sanity check run
    before mixing: a source whose TTR sits far below its peers is
    templated/boilerplate text (machine-generated listings, log dumps)
    that repetition and quality filters should see before it floods
    the mix.

    Ray shape: the shared (part, source, tok, cnt) hash-partitioned
    combiner (``_source_token_partial``; part = token hash % 64), so
    every partial for a token lands in one partition group; each of
    the 64 groups folds duplicate (tok, source) partials and emits
    per-source (n_distinct, n_tokens) scalars — <= n_sources rows per
    group; a final groupby('source') sums 64 partials per source.
    Counts are exact integers, so only the ratio needs the house 6-dp
    rounding. Nothing corpus-sized crosses an exchange after the
    first combiner; an approximate fixed-memory variant would swap
    the distinct fold for the HLL sketch (``approx_distinct``
    family) — this op is the EXACT variant.
    """
    nparts = 64
    from clonehunter_ray.util import scrub_empty_blocks

    docs = _read(sf_dir, "documents", ["source", "text"])
    parts = docs.map_batches(
        lambda b: _source_token_partial(b, nparts),
        batch_format="pyarrow",
    )
    stat_schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_distinct", pa.int64()),
            ("n_tokens", pa.int64()),
        ]
    )

    def per_part(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return stat_schema.empty_table()
        df = group.select(["source", "tok", "cnt"]).to_pandas()
        # fold duplicate (tok, source) partials: each surviving row is
        # one DISTINCT (tok, source) — size counts types, sum counts
        # tokens
        g = (
            df.groupby(["tok", "source"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        out = (
            g.groupby("source", sort=False)["cnt"]
            .agg(n_distinct="size", n_tokens="sum")
            .reset_index()
        )
        return _pt(out, stat_schema)

    out_schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_distinct", pa.int64()),
            ("n_tokens", pa.int64()),
            ("ttr", pa.float64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        nd = batch["sum(n_distinct)"].to_numpy(zero_copy_only=False)
        nt = batch["sum(n_tokens)"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": batch["source"],
                "n_distinct": pa.array(nd, pa.int64()),
                "n_tokens": pa.array(nt, pa.int64()),
                "ttr": pa.array(
                    np.round(nd / nt.astype(np.float64), 6), pa.float64()
                ),
            },
            schema=out_schema,
        )

    agg = (
        scrub_empty_blocks(
            scrub_empty_blocks(parts)
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow")
        )
        .groupby("source")
        .sum(["n_distinct", "n_tokens"])
    )
    return scrub_empty_blocks(agg).map_batches(
        finish, batch_format="pyarrow"
    )


def pmi_top_bigrams(sf_dir: str, k: int = 50, min_count: int = 5):
    """Collocation mining: the top-k within-document adjacent token
    pairs by pointwise mutual information — pmi = ln((c12/N2) /
    ((c1/N1) * (c2/N1))) with c12 the corpus bigram count, c1/c2 the
    unigram counts, N1/N2 the unigram/bigram totals, candidates
    restricted to c12 >= min_count (raw PMI is maximized by hapax
    pairs; the count floor is the standard Church-Hanks guard). The
    result is the corpus's multi-word-expression list — what a
    tokenizer-vocabulary or stopword-phrase audit reads first.

    Ray shape: ONE tokenize pass emits per-batch-folded unigram AND
    bigram (kind, w1, w2, cnt) partials, materialized once (vocab- not
    corpus-bounded) and consumed by two tiny aggregate trees. Bigram
    counts reduce through groupby(w1, w2); the min_count filter prunes
    the hapax tail FIRST, so everything downstream is
    candidate-bounded. Unigram counts reduce through groupby(w1) and
    attach onto both words of each candidate through
    stages/candidates.attach_by_key — one word-sorted plasma table
    when the vocabulary ``fits_broadcast``, else partitioned joins on
    w1 then w2 so nothing vocab-sized leaves the cluster; same
    arithmetic on both paths. The attach is a left one: a candidate
    word missing from the unigram vocabulary means the two partial
    kinds tokenized differently (corrupt PMI), and scoring raises on
    it on either path.
    Final top-k: ``stages/topk.top_k`` (a per-batch combiner, one sort
    of the <= k x n_blocks survivors). PMI rounds to 6 dp on both
    engines.
    """
    import pyarrow.compute as pc

    from clonehunter_ray.stages.candidates import attach_by_key
    from clonehunter_ray.util import scrub_empty_blocks

    part_schema = pa.schema(
        [
            ("kind", pa.string()),
            ("w1", pa.string()),
            ("w2", pa.string()),
            ("cnt", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = H.flat_tokens(batch["text"], with_parent=True)
        if len(flat) == 0:
            return part_schema.empty_table()
        w = flat.to_numpy(zero_copy_only=False)
        uw, ucnt = np.unique(w, return_counts=True)
        frames = [
            pd.DataFrame(
                {
                    "kind": "u",
                    "w1": uw,
                    "w2": "",
                    "cnt": ucnt.astype(np.int64),
                }
            )
        ]
        same = parent[1:] == parent[:-1]
        if same.any():
            g = (
                pd.DataFrame({"w1": w[:-1][same], "w2": w[1:][same]})
                .groupby(["w1", "w2"], sort=False)
                .size()
                .reset_index(name="cnt")
            )
            g.insert(0, "kind", "b")
            frames.append(g)
        return _pt(pd.concat(frames, ignore_index=True), part_schema)

    docs = _read(sf_dir, "documents", ["text"])
    parts = docs.map_batches(partial, batch_format="pyarrow").materialize()

    # one pass over the partials yields both corpus totals
    tot = (
        scrub_empty_blocks(parts).groupby("kind").sum("cnt").to_pandas()
    )
    tmap = dict(zip(tot["kind"], tot["sum(cnt)"]))
    n1 = float(tmap.get("u", 0))
    n2 = float(tmap.get("b", 0))
    out_schema = pa.schema(
        [
            ("w1", pa.string()),
            ("w2", pa.string()),
            ("n12", pa.int64()),
            ("pmi", pa.float64()),
        ]
    )
    if n2 == 0:
        return ray.data.from_arrow(out_schema.empty_table())

    cand_schema = pa.schema(
        [("w1", pa.string()), ("w2", pa.string()), ("n12", pa.int64())]
    )

    def keep_frequent(batch: pa.Table) -> pa.Table:
        mask = pc.greater_equal(batch["sum(cnt)"], min_count)
        t = batch.filter(mask)
        return pa.table(
            {
                "w1": t["w1"],
                "w2": t["w2"],
                "n12": t["sum(cnt)"].cast(pa.int64()),
            },
            schema=cand_schema,
        )

    cand = (
        scrub_empty_blocks(parts.filter(expr="kind == 'b'"))
        .groupby(["w1", "w2"])
        .sum("cnt")
    )
    # candidate-bounded: materialize once so the count gate below does
    # not re-run the aggregation; a globally-empty candidate set
    # returns the empty result up front
    cand = (
        scrub_empty_blocks(cand)
        .map_batches(keep_frequent, batch_format="pyarrow")
        .materialize()
    )
    if cand.count() == 0:
        return ray.data.from_arrow(out_schema.empty_table())
    uni = (
        scrub_empty_blocks(parts.filter(expr="kind == 'u'"))
        .groupby("w1")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def _pmi(n12, c1, c2):
        return np.round(
            np.log((n12 / n2) / ((c1 / n1) * (c2 / n1))), 6
        )

    def score(batch: pa.Table) -> pa.Table:
        n12 = batch["n12"].to_numpy(zero_copy_only=False).astype(np.float64)
        if batch["w1_cnt"].null_count or batch["w2_cnt"].null_count:
            raise ValueError(
                "pmi_top_bigrams: bigram word absent from unigram vocab"
            )
        c1 = batch["w1_cnt"].to_numpy().astype(np.float64)
        c2 = batch["w2_cnt"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "w1": batch["w1"],
                "w2": batch["w2"],
                "n12": pa.array(n12.astype(np.int64), pa.int64()),
                "pmi": pa.array(_pmi(n12, c1, c2), pa.float64()),
            },
            schema=out_schema,
        )

    scored = attach_by_key(
        cand, uni, "w1", ["cnt"], on={"w1": "w1_", "w2": "w2_"}, how="left"
    )
    return top_k(
        scrub_empty_blocks(scored).map_batches(score, batch_format="pyarrow"),
        [("pmi", "descending"), ("w1", "ascending"), ("w2", "ascending")],
        k,
    )


def dup_cluster_size_histogram(
    sf_dir: str, threshold: float = 0.6, max_id: int = 500
):
    """Dedup impact report: the distribution of near-dup cluster sizes
    (how many 2-doc, 3-doc, ... N-doc duplicate groups the corpus
    holds) — the first number a curation run reports, and the input to
    the 'expected token reduction' estimate before committing to a
    full dedup pass.

    Ray shape: composes ``duplicate_clusters_documents`` (connected
    components) with two count aggregations — both over
    cluster-id-sized tables, tiny relative to the corpus. Singleton
    clusters are excluded (size >= 2): the report is about duplicate
    GROUPS, and at 100 TB the singleton count is corpus-sized noise.
    """
    sizes = (
        duplicate_clusters_documents(sf_dir, threshold, max_id)
        .groupby("cluster_id")
        .count()
    )
    out_schema = pa.schema(
        [("cluster_size", pa.int64()), ("n_clusters", pa.int64())]
    )

    def to_size(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("cluster_size", pa.int64())]
            ).empty_table()
        t = pa.table(
            {"cluster_size": batch["count()"].cast(pa.int64())}
        )
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t["cluster_size"], 2))

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return pa.table(
            {
                "cluster_size": batch["cluster_size"].cast(pa.int64()),
                "n_clusters": batch["count()"].cast(pa.int64()),
            },
            schema=out_schema,
        )

    return (
        sizes.map_batches(to_size, batch_format="pyarrow")
        .groupby("cluster_size")
        .count()
        .map_batches(finish, batch_format="pyarrow")
    )


def stratified_split_documents(
    sf_dir: str, test_tenths: int = 1, val_tenths: int = 1
):
    """Exact-quota stratified train/val/test split: every source
    contributes EXACTLY ceil(n_s/10) docs to test and the next
    ceil(n_s/10) to val (rank order = sha256(doc_id) priority, the
    same deterministic-priority convention as ``sample_k_documents``),
    so per-source proportions hold exactly — unlike the hash-threshold
    split (``cluster_aware_split_documents``) whose per-source counts
    are only binomially close to the target fraction.

    Ray shape (NO global or per-source sort of the corpus — the same
    16-bit priority-bucket prefix scan as ``token_budget_select``,
    here run per source):
      (1) one pass ships per-(source, bucket) COUNTS (<= 65536 rows
          per source per block, in practice the nonzero buckets);
      (2) the driver prefix-sums each source's histogram and finds the
          two boundary buckets (test cutoff, val cutoff);
      (3) boundary-bucket rows (~n_s/65536 per source) collect
          driver-side for the exact in-bucket rank cut, yielding one
          (priority, doc_id) threshold tuple per source per cutoff;
      (4) one stateless assign pass compares each row's bucket /
          threshold tuple — thresholds broadcast in the task closure
          (a few tuples per source).
    At 10^12 docs per source the boundary bucket is ~10^7 rows;
    recurse on the next 2 priority bytes if that is still too large
    (same documented assumption as token_budget_select).
    """
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def _pri_bucket(batch: pa.Table):
        batch = batch.filter(pc.is_valid(batch["doc_id"]))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        srcs = batch["source"].to_pylist()
        pri = H.sha256_hex_many(str(i) for i in ids)
        bucket = np.fromiter(
            (int(p[:4], 16) for p in pri), dtype=np.int64, count=len(pri)
        )
        return ids, srcs, pri, bucket

    def bucket_counts(batch: pa.Table) -> pa.Table:
        ids, srcs, _, bucket = _pri_bucket(batch)
        if any(s is None for s in srcs):
            # a NULL source would need its own NULL-partition quota
            # (the sf tables have none); fail loudly rather than
            # silently diverging from the SQL window oracle
            raise ValueError("stratified_split_documents: NULL source")
        if len(ids) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame({"source": srcs, "bucket": bucket})
        g = (
            df.groupby(["source", "bucket"], dropna=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "bucket": pa.array(g["bucket"], pa.int64()),
                "n": pa.array(g["n"], pa.int64()),
            }
        )

    hist = (
        docs.map_batches(bucket_counts, batch_format="pyarrow")
        .to_pandas()
        .groupby(["source", "bucket"], dropna=False, sort=True)["n"]
        .sum()
    )
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("source", pa.string()), ("split", pa.string())]
    )
    if hist.empty:
        return ray.data.from_arrow(out_schema.empty_table())

    # per source: quota ranks and the bucket holding each cutoff
    plans: dict = {}  # source -> (test_bkt, test_rank_in_bkt, val_bkt, val_rank_in_bkt)
    boundary_buckets: dict = {}  # source -> set of buckets needing exact rank
    for source, h in hist.groupby(level=0, dropna=False):
        counts = h.droplevel(0)
        n_s = int(counts.sum())
        n_test = -(-n_s * test_tenths // 10)  # ceil
        n_val = -(-n_s * val_tenths // 10)
        cum = counts.cumsum()
        cuts = []
        for rank in (n_test, n_test + n_val):
            if rank <= 0:
                cuts.append((-1, 0))
                continue
            # a source smaller than its combined quotas assigns every
            # row (SQL: rk <= quota is vacuously true past n_s) — clamp
            # the cutoff rank to the last row
            rank = min(rank, n_s)
            bkt = int(cum[cum >= rank].index[0])
            before = int(cum.loc[bkt] - counts.loc[bkt])
            cuts.append((bkt, rank - before))
        plans[source] = tuple(cuts)
        boundary_buckets[source] = {b for b, _ in cuts if b >= 0}

    def edge_rows(batch: pa.Table) -> pa.Table:
        ids, srcs, pri, bucket = _pri_bucket(batch)
        srcs_arr = np.array(srcs, dtype=object)
        keep = np.zeros(len(ids), dtype=bool)
        for s in set(srcs):
            bkts = boundary_buckets.get(s)
            if bkts:
                keep |= (srcs_arr == s) & np.isin(bucket, list(bkts))
        idx = np.nonzero(keep)[0]
        return pa.table(
            {
                "doc_id": pa.array(ids[idx], pa.int64()),
                "source": pa.array(list(srcs_arr[idx]), pa.string()),
                "bucket": pa.array(bucket[idx], pa.int64()),
                "pri": pa.array(list(np.array(pri, dtype=object)[idx]), pa.string()),
            }
        )

    edges = docs.map_batches(edge_rows, batch_format="pyarrow").to_pandas()
    # exact (priority, doc_id) threshold per source per cutoff: the
    # LAST row (inclusive) of each split within its boundary bucket
    thresholds: dict = {}  # source -> [(bkt, pri, doc_id) or None, ...]
    for source, (tcut, vcut) in plans.items():
        e = edges[edges["source"].isna()] if source is None else edges[
            edges["source"] == source
        ]
        ths = []
        for bkt, rank_in in (tcut, vcut):
            if bkt < 0:
                ths.append(None)
                continue
            rows = e[e["bucket"] == bkt].sort_values(["pri", "doc_id"])
            row = rows.iloc[rank_in - 1]
            ths.append((bkt, str(row["pri"]), int(row["doc_id"])))
        thresholds[source] = ths

    def assign(batch: pa.Table) -> pa.Table:
        ids, srcs, pri, bucket = _pri_bucket(batch)
        n = len(ids)
        srcs_arr = np.array(srcs, dtype=object)
        pri_arr = np.array(pri, dtype=object)
        split = np.full(n, "train", dtype=object)

        def at_most(th):  # vectorized (bucket, pri, doc_id) <= threshold
            t_bkt, t_pri, t_id = th
            return (bucket < t_bkt) | (
                (bucket == t_bkt)
                & ((pri_arr < t_pri) | ((pri_arr == t_pri) & (ids <= t_id)))
            )

        for s in set(srcs):
            ths = thresholds.get(s)
            if ths is None:
                continue
            in_s = srcs_arr == s
            t_th, v_th = ths
            if v_th is not None:
                split[in_s & at_most(v_th)] = "val"
            if t_th is not None:
                split[in_s & at_most(t_th)] = "test"
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "split": pa.array(list(split), pa.string()),
            },
            schema=out_schema,
        )

    return docs.map_batches(assign, batch_format="pyarrow")
