"""Benchmark harness (driver contract).

Runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) at num_cpus=$RAY_GRAFT_CPUS (default 32) and
prints ONE JSON line:

    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "corpus_files": N, "findings": N, "files_per_sec": N}

Headline = the flagship near-duplicate code scan over a synthetic
source-code corpus sized to the scale factor (sf0.1 -> 20,000 files;
BASELINE.json metric is files/sec end-to-end dedup throughput).

``--scaling``: run the headline twice in fresh processes at 8 and 32
CPUs on the same input and report throughputs + scaling efficiency
(the sandbox proxy for the N vs 4N node criterion).

The recorded BASELINE.md campaign (efficiency 0.815 with a
probe-gated rep) used a corpus big enough to amortize fixed overhead:

    GRAFT_BENCH_FILES=100000 GRAFT_SCALING_LO=4 GRAFT_SCALING_HI=16 \
    GRAFT_SCALING_RUNS=2 GRAFT_PROBE_MIN=0.95 python bench.py --scaling

(~15-25 min: each lo rep is a ~3-4 min 4-CPU scan; the default 20k
corpus finishes fast but is ~40% fixed overhead at 32 CPUs, so its
efficiency number measures Amdahl, not the engine.)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CORPUS_CACHE = "/tmp/clonehunter_bench"


def sf_of(sf_dir: str) -> float:
    tail = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(tail.replace("sf", ""))
    except ValueError:
        return 0.1


def corpus_path(n_files: int) -> str:
    """Deterministic synthetic corpus, cached on disk per size."""
    os.makedirs(CORPUS_CACHE, exist_ok=True)
    path = os.path.join(CORPUS_CACHE, f"corpus_{n_files}")
    marker = os.path.join(path, "_DONE")
    if not os.path.exists(marker):
        from clonehunter_ray.corpus import write_corpus

        write_corpus(path, n_files=n_files, seed=42)
        with open(marker, "w") as fh:
            fh.write("")
    return os.path.join(path, "files.parquet")


def run_bench() -> dict:
    import ray
    import ray.data
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from clonehunter_ray.util import silence_empty_schema_warnings

    silence_empty_schema_warnings()

    from clonehunter_ray.config import EngineConfig, ExecConfig
    from clonehunter_ray.pipelines import dedup, queries as Q
    from clonehunter_ray.pipelines.scan import scan
    from clonehunter_ray.util import read_parquet_clean

    sf = sf_of(SF_DIR)
    n_files = int(
        os.environ.get("GRAFT_BENCH_FILES", max(200, int(20000 * sf / 0.1)))
    )
    files_path = corpus_path(n_files)

    # warm the page cache so we measure compute + shuffle, not cold disk
    with open(files_path, "rb") as fh:
        while fh.read(1 << 24):
            pass

    timings: dict[str, float] = {}

    def read_corpus():
        # Block count scales with the CORPUS, not the CPU count: ~400
        # files/block keeps per-task skew bounded (the fused signature
        # stage showed 7x straggler spread at 3k files/block) and gives
        # every parallelism level the same granularity, so scaling runs
        # measure CPUs, not block-size side effects. Measured sweet spot
        # at 100k files: 256 requested (~128 actual) -> 63 s at 16 CPUs
        # vs 88 s at the CPU-derived default.
        return ray.data.read_parquet(
            files_path,
            override_num_blocks=max(32, NUM_CPUS * 4, n_files // 400),
        )

    # ---- headline: flagship clone scan --------------------------------
    # best of 2 back-to-back reps: co-tenant load on this host swings
    # single samples up to 3x, and the second rep also amortizes Ray's
    # worker warmup out of the measurement
    cfg = EngineConfig()
    scan_runs = []
    n_findings = 0
    for _ in range(int(os.environ.get("GRAFT_BENCH_REPS", "2"))):
        t0 = time.monotonic()
        res = scan(read_corpus(), cfg)
        n_findings = res.findings.count()
        scan_runs.append(round(time.monotonic() - t0, 3))
    headline = min(scan_runs)
    timings["clone_scan"] = round(headline, 3)

    # ---- supporting pipelines over the sf tables ----------------------
    scan_only = os.environ.get("GRAFT_SCAN_ONLY") == "1"

    def timed(name, fn):
        if scan_only:
            return
        t = time.monotonic()
        out = fn(SF_DIR)
        # consume
        if hasattr(out, "count"):
            out.count()
        timings[name] = round(time.monotonic() - t, 3)

    timed("exact_dedup_documents", Q.exact_dedup_documents)
    timed("lineitem_pricing_summary", Q.lineitem_pricing_summary)
    timed("events_daily_counts", Q.events_daily_counts)
    timed("knn_cosine_topk", Q.knn_cosine_topk)
    timed(
        "minhash_dedup_documents",
        lambda sf_dir: dedup.minhash_dedup_pairs(
            read_parquet_clean(f"{sf_dir}/documents.parquet"), threshold=0.8
        ),
    )

    def _all_docs_quality(sf_dir):
        from clonehunter_ray.pipelines import text_analysis as T

        return T.quality_scores(
            read_parquet_clean(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
        )

    timed("doc_quality_scores", _all_docs_quality)
    timed("gopher_quality_filter_documents", Q.gopher_quality_filter_documents)
    timed(
        "gopher_repetition_filter_documents",
        Q.gopher_repetition_filter_documents,
    )
    timed("shipping_priority_revenue", Q.shipping_priority_revenue)
    timed("events_sessionization", Q.events_sessionization)
    timed("doc_repetition_signals", Q.doc_repetition_signals)
    timed(
        "incremental_dedup_stream",
        lambda sf_dir: dedup.incremental_dedup_stream(
            read_parquet_clean(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            ),
            threshold=0.8,
        ),
    )

    def _pack(sf_dir):
        from clonehunter_ray.pipelines import training

        return training.pack_sequences_documents(sf_dir)

    timed("pack_sequences_documents", _pack)

    def _chunk(sf_dir):
        from clonehunter_ray.pipelines import training

        return training.chunk_documents(sf_dir)

    timed("chunk_documents", _chunk)
    timed("bm25_search_documents", Q.bm25_search_documents)

    def _passage_spans(sf_dir):
        from clonehunter_ray.pipelines.passage import passage_dedup_spans

        return passage_dedup_spans(
            read_parquet_clean(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            ),
            min_len=15,
        )

    timed("passage_dedup_spans", _passage_spans)

    def _passage_stats(sf_dir):
        from clonehunter_ray.pipelines.passage import (
            passage_dup_stats_documents,
        )

        return passage_dup_stats_documents(sf_dir, gram_len=8)

    timed("passage_dup_stats", _passage_stats)

    def _segment_dedup(sf_dir):
        from clonehunter_ray.pipelines.segment import segment_dedup_documents

        return segment_dedup_documents(sf_dir, seg_tokens=10)

    timed("segment_dedup_documents", _segment_dedup)

    def _curate(sf_dir):
        from clonehunter_ray.pipelines.curation import (
            curate_documents_pipeline,
        )

        return curate_documents_pipeline(sf_dir)

    timed("curate_documents_pipeline", _curate)

    def _semdedup(sf_dir):
        from clonehunter_ray.pipelines.similarity import semdedup_embeddings

        return semdedup_embeddings(
            read_parquet_clean(f"{sf_dir}/embeddings.parquet"),
            k=8,
            iters=6,
            threshold=0.4,
        )

    timed("semdedup_embeddings", _semdedup)
    def _bpe_encode(sf_dir):
        from clonehunter_ray.pipelines import bpe

        return bpe.bpe_encode_documents(
            read_parquet_clean(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            ),
            n_merges=50,
        )

    timed("bpe_encode_documents", _bpe_encode)
    timed("bigram_logprob_documents", Q.bigram_logprob_documents)
    timed("perplexity_bucket_documents", Q.perplexity_bucket_documents)
    timed("dsir_logweights_documents", Q.dsir_logweights_documents)
    timed("global_shuffle_documents", Q.global_shuffle_documents)

    def _quality_classifier(sf_dir):
        import __ray_entry__ as E

        return E.queries()["quality_classifier_scores"](sf_dir)

    timed("quality_classifier_scores", _quality_classifier)
    timed("source_overlap_matrix", Q.source_overlap_matrix)
    timed("gram_novelty_documents", Q.gram_novelty_documents)
    timed("token_budget_select", Q.token_budget_select)
    timed("temperature_sample_by_source", Q.temperature_sample_by_source)
    timed("unimax_sample_documents", Q.unimax_sample_documents)
    timed("contamination_by_source", Q.contamination_by_source)

    def _segment_near_dup(sf_dir):
        from clonehunter_ray.pipelines.segment import (
            segment_near_dup_documents,
        )

        return segment_near_dup_documents(sf_dir)

    timed("segment_near_dup_documents", _segment_near_dup)

    timed("length_outlier_filter_documents", Q.length_outlier_filter_documents)
    timed("token_kl_by_source", Q.token_kl_by_source)
    timed("weighted_sample_documents", Q.weighted_sample_documents)
    timed("lexical_diversity_by_source", Q.lexical_diversity_by_source)
    timed("pmi_top_bigrams", Q.pmi_top_bigrams)

    def _cdc_dedup(sf_dir):
        return dedup.cdc_chunk_dedup_documents(
            read_parquet_clean(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            ),
            min_docs=2,
        )

    timed("cdc_chunk_dedup_documents", _cdc_dedup)

    def _kmeans_assign(sf_dir):
        from clonehunter_ray.pipelines.similarity import (
            kmeans_assign_embeddings,
        )

        return kmeans_assign_embeddings(
            read_parquet_clean(f"{sf_dir}/embeddings.parquet"), k=8, iters=6
        )

    timed("kmeans_assign_embeddings", _kmeans_assign)

    def _prototype_prune(sf_dir):
        from clonehunter_ray.pipelines.similarity import (
            prototype_prune_embeddings,
        )

        return prototype_prune_embeddings(
            read_parquet_clean(f"{sf_dir}/embeddings.parquet"),
            k=8,
            iters=6,
            prune_frac=0.25,
        )

    timed("prototype_prune_embeddings", _prototype_prune)

    def _d4_prune(sf_dir):
        from clonehunter_ray.pipelines.similarity import d4_prune_embeddings

        return d4_prune_embeddings(
            read_parquet_clean(f"{sf_dir}/embeddings.parquet"),
            k=8,
            iters=6,
            threshold=0.4,
            prune_frac=0.25,
        )

    timed("d4_prune_embeddings", _d4_prune)

    def _pq_knn(sf_dir):
        from clonehunter_ray.pipelines.similarity import pq_knn_cosine

        return pq_knn_cosine(
            read_parquet_clean(f"{sf_dir}/embeddings.parquet"),
            query_ids=[0, 1, 2, 3, 4],
            k=10,
        )

    timed("pq_knn_cosine", _pq_knn)

    # ---- expansion-enabled scan (EXP call-graph snippets) -------------
    # one rep over the same corpus as the headline; measures the
    # per-repo groupby and the extra snippets the EXP path adds
    # (scan.build_signatures)
    if not scan_only:
        from clonehunter_ray.config import ExpansionConfig

        exp_cfg = EngineConfig(expansion=ExpansionConfig(enabled=True))
        t0 = time.monotonic()
        exp_res = scan(read_corpus(), exp_cfg)
        exp_findings = exp_res.findings.count()
        timings["clone_scan_expansion"] = round(time.monotonic() - t0, 3)

        # suffix-array substring rescue (the third leg of the
        # MinHash/SimHash/substring triad), same corpus, one rep
        from clonehunter_ray.config import SubstringConfig

        sub_cfg = EngineConfig(substring=SubstringConfig(enabled=True))
        t0 = time.monotonic()
        sub_res = scan(read_corpus(), sub_cfg)
        sub_res.findings.count()
        timings["clone_scan_substring"] = round(time.monotonic() - t0, 3)

    result = {
        "metric": "end-to-end near-dup code scan (files/sec) + query suite",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "corpus_files": n_files,
        "findings": n_findings,
        "expansion_findings": exp_findings if not scan_only else None,
        "files_per_sec": round(n_files / headline, 1),
        "clone_scan_runs": scan_runs,
    }
    ray.shutdown()
    return result


def _probe_burn(seconds: float) -> int:
    import hashlib

    h = b"x" * 1024
    t0 = time.monotonic()
    c = 0
    while time.monotonic() - t0 < seconds:
        for _ in range(100):
            h = hashlib.sha256(h).digest() * 32
        c += 100
    return c


def cpu_probe(lo: int, hi: int, seconds: float = 2.5) -> float:
    """Measured hardware parallelism: total sha256 throughput of hi vs
    lo burner processes, right now. On an idle 32-core host this is
    ~hi/lo; under co-tenant load it can drop under 2 — scan scaling
    numbers are only interpretable relative to it."""
    import multiprocessing as mp

    rates = {}
    for workers in (lo, hi):
        with mp.get_context("fork").Pool(workers) as p:
            t0 = time.monotonic()
            res = p.map(_probe_burn, [seconds] * workers)
            wall = time.monotonic() - t0
        rates[workers] = sum(res) / wall
    return rates[hi] / rates[lo]


def run_scaling() -> None:
    """Same headline job at 8 and 32 CPUs in fresh processes.

    The runs are interleaved (hi, lo, hi, lo) and the best time per
    level is reported: the sandbox's effective CPU availability
    fluctuates with co-tenant load, so a single sample per level can
    invert the comparison entirely. ``GRAFT_SCALING_RUNS`` (default 2)
    controls repetitions. A hardware probe brackets every rep;
    ``normalized_efficiency`` = scan speedup / delivered-hardware
    speedup in the same window — the engine's share of whatever
    parallelism the host actually provided (= the honest cluster-size
    criterion when the "cluster" is a contended single node).
    """

    def run_at(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=SF_DIR,
            GRAFT_SCAN_ONLY="1",  # skip the query suite: scaling measures the scan
            GRAFT_BENCH_REPS="1",  # interleaving supplies the repetitions here
            # pin the corpus so every subprocess sees the same input
            GRAFT_BENCH_FILES=os.environ.get("GRAFT_BENCH_FILES", "20000"),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # N vs 4N CPUs; default 8 vs 32. On a co-tenant-loaded host the hi
    # level only sees its nominal parallelism in quiet windows — 4 vs 16
    # (GRAFT_SCALING_LO/HI) keeps both levels inside the delivered-core
    # envelope far more often and measures the same 4x criterion.
    lo = int(os.environ.get("GRAFT_SCALING_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALING_HI", "32"))
    n_runs = int(os.environ.get("GRAFT_SCALING_RUNS", "2"))
    # probe gate: a rep only counts toward the headline when the
    # bracketing hardware probes show the host actually delivering >=
    # this fraction of the nominal hi/lo parallelism ratio (co-tenant
    # load can eat half the cores mid-rep; measuring scan scaling in
    # such a window measures the neighbors, not the engine). Gated-out
    # reps are still recorded. 0 disables the gate.
    probe_min = float(os.environ.get("GRAFT_PROBE_MIN", "0")) * (hi / lo)
    lo_times, hi_times, probes, norm_effs = [], [], [], []
    gated_lo, gated_hi = [], []
    last_lo = last_hi = None
    for _ in range(n_runs):
        probe_pre = cpu_probe(lo, hi)
        last_hi = run_at(hi)
        last_lo = run_at(lo)
        probe_post = cpu_probe(lo, hi)
        probe = min(probe_pre, probe_post)
        probes.append((round(probe_pre, 2), round(probe_post, 2)))
        hi_times.append(last_hi["value"])
        lo_times.append(last_lo["value"])
        norm_effs.append(
            round((last_lo["value"] / last_hi["value"]) / probe, 3)
        )
        if not probe_min or probe >= probe_min:
            gated_hi.append(last_hi["value"])
            gated_lo.append(last_lo["value"])
    import statistics

    if gated_lo:
        t_lo, t_hi = min(gated_lo), min(gated_hi)
    else:  # every rep gated out: fall back to all reps, flagged below
        t_lo, t_hi = min(lo_times), min(hi_times)
    eff = (t_lo / t_hi) / (hi / lo)
    # per-rep PAIRED speedup: lo and hi of the same rep ran minutes
    # apart in the same noise regime — mixing best-lo with best-hi from
    # different windows (the per-level best above) compares different
    # hosts in effect. The paired number is the physically meaningful
    # scaling measurement; per-level best kept for continuity.
    paired = [
        round((l / h) / (hi / lo), 3) for l, h in zip(lo_times, hi_times)
    ]
    print(
        json.dumps(
            {
                "metric": f"scaling efficiency ({lo} -> {hi} cpus, same input, best of interleaved runs)",
                "cpus_lo": lo,
                "cpus_hi": hi,
                "sec_lo": t_lo,
                "sec_hi": t_hi,
                "sec_lo_runs": lo_times,
                "sec_hi_runs": hi_times,
                "files_per_sec_lo": round(last_lo["corpus_files"] / t_lo, 1),
                "files_per_sec_hi": round(last_hi["corpus_files"] / t_hi, 1),
                "speedup": round(t_lo / t_hi, 3),
                "scaling_efficiency": round(eff, 3),
                "paired_efficiency_per_rep": paired,
                "paired_efficiency_best": max(paired) if paired else None,
                "paired_efficiency_median": (
                    round(statistics.median(paired), 3) if paired else None
                ),
                "probe_gate_min": round(probe_min, 2) if probe_min else None,
                "reps_gated_in": len(gated_lo),
                "hardware_probe_speedups": probes,
                "normalized_efficiency_per_rep": norm_effs,
                # headline = MEDIAN across reps (a max would cherry-pick
                # the friendliest noise window); best kept for reference
                "normalized_efficiency": (
                    round(statistics.median(norm_effs), 3) if norm_effs else None
                ),
                "normalized_efficiency_best": max(norm_effs) if norm_effs else None,
                "sf": last_hi["sf"],
                "corpus_files": last_hi["corpus_files"],
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
