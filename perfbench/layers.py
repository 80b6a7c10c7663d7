"""Traced run: per-layer spans, counts and kernel rates.

Spans wrap the calls into each layer from the benchmark's side (the
engine itself is not instrumented).  They are kept in memory and
written as JSON when the run ends, with the Ray Data operator table
(``Dataset.stats()``) of the streamed run.

Every workload's traced run reports every per-layer metric.  The
layers on the workload's own path run on its own input; the others
(the scan stages for ``docs``; the dedup, index and query layers for
``scan``) run once on a small companion input made from the same seed,
so each traced run stays short.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa

import workloads
from workloads import HASHMIN_QUERY, QUERIES, TRACED_QUERIES, consume

KERNEL_REPS = 5
# the kernels run on the first rows of the workload's input: a batch
# this size keeps a traced scan run well inside its time limit
KERNEL_ROWS = 1500


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.values: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, str] = {}
        self.attempted = self.failed = 0
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def set(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def timed(self, metric: str, name: str) -> None:
        self.set(metric, self.duration(name), "s")

    def checked(self, ok: bool, reason: str, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"traced {what} failed: {reason}", file=sys.stderr, flush=True)

    def metrics(self) -> dict:
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(self.values.items())}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "metrics": self.metrics(), "notes": self.notes}, f, indent=1)


# -- kernels ----------------------------------------------------------------


def _rate(tracer: Tracer, name: str, rows: int, fn) -> object:
    """Run ``fn`` KERNEL_REPS times in-process; rows/s from the median."""
    times, out = [], None
    for _ in range(KERNEL_REPS):
        with tracer.span(f"kernel.{name}") as rec:
            out = fn()
        times.append(rec["end"] - rec["start"])
    tracer.set(f"kernel.{name}.rows_per_s", max(rows, 1) / statistics.median(times), "rows/s")
    return out


def trace_kernels(tracer: Tracer, files: pa.Table, edges: list) -> None:
    """The hot kernels of functions.hashing, functions.substring,
    stages.extract/snippets and state.unionfind, on a batch of the
    workload's own rows: ``files`` is a files table, ``edges`` the
    verified pairs of the whole input."""
    from clonehunter_ray.config import EngineConfig, SignatureConfig
    from clonehunter_ray.functions import hashing as H
    from clonehunter_ray.functions.substring import lcs_token_len
    from clonehunter_ray.stages.extract import add_content_sha256, extract_units_batch
    from clonehunter_ray.stages.snippets import generate_snippets_batch
    from clonehunter_ray.state.unionfind import cluster_labels

    cfg = EngineConfig()
    sig = SignatureConfig()
    files = files.slice(0, KERNEL_ROWS)
    contents = files["content"].to_pylist()
    _rate(tracer, "sha256", len(contents), lambda: H.sha256_hex_many(contents))
    hashed = add_content_sha256(files)
    units = _rate(tracer, "extract_units", files.num_rows, lambda: extract_units_batch(hashed))
    snippets = _rate(tracer, "snippets", units.num_rows,
                     lambda: generate_snippets_batch(units, cfg.window))
    texts = snippets["text"]
    flat_tok, lens = _rate(tracer, "tokenize_hash", len(texts), lambda: H.tokenize_hash_flat(texts))
    flat_sh, counts = H.batch_shingle_sets(flat_tok, lens, sig.shingle_k)
    hasher = H.MinHasher(sig.num_perm, sig.seed)
    sigs = _rate(tracer, "minhash", len(counts), lambda: hasher.signatures_flat(flat_sh, counts))
    _rate(tracer, "band_hashes", len(counts),
          lambda: H.band_hashes_batch(sigs, sig.num_bands, sig.band_rows))
    ends = np.cumsum(counts)
    blobs = pa.array(
        [flat_sh[e - c : e].tobytes() for e, c in zip(ends, counts)], pa.binary()
    )
    n = len(blobs)
    rng = np.random.default_rng(0)
    ia, ib = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    a_col, b_col = blobs.take(pa.array(ia)), blobs.take(pa.array(ib))
    _rate(tracer, "jaccard_batch", len(ia), lambda: H.jaccard_batch(a_col, b_col))
    starts = np.concatenate([[0], np.cumsum(lens)])
    toks = [flat_tok[starts[i] : starts[i + 1]] for i in range(len(lens))]
    sample = list(zip(ia[:200], ib[:200]))
    _rate(tracer, "lcs", len(sample),
          lambda: [lcs_token_len(toks[a], toks[b]) for a, b in sample])
    str_edges = [(str(a), str(b)) for a, b in edges]
    _rate(tracer, "unionfind", len(str_edges), lambda: cluster_labels(str_edges))


# -- scan stages --------------------------------------------------------------


def trace_scan_stages(tracer: Tracer, wl) -> list:
    """Staged scan: each stage materialized under its own span, then
    the streamed ``scan()`` for the overhead gap, the LSH cap counters
    and the Ray Data operator table.  Returns the findings edges."""
    import ray.data

    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.pipelines.scan import build_findings, build_pairs, build_signatures, scan
    from clonehunter_ray.stages.clustering import add_cluster_ids

    cfg = EngineConfig()
    with tracer.span("scan.staged"):
        with tracer.span("scan.signatures"):
            sigs = build_signatures(ray.data.read_parquet(wl.path), cfg).materialize()
        with tracer.span("scan.pairs"):
            pairs = build_pairs(sigs, cfg).materialize()
        with tracer.span("scan.rollup"):
            findings = build_findings(pairs, cfg).materialize()
        with tracer.span("scan.clustering"):
            labelled, cmap = add_cluster_ids(findings, cfg.cluster)
        with tracer.span("scan.consume"):
            staged_out = consume(labelled.select_columns(["unit_a", "unit_b"]))
    n_snippets = sigs.count()
    tracer.timed("scan.signatures.s", "scan.signatures")
    tracer.set("scan.signatures.snippets_per_s",
               n_snippets / tracer.duration("scan.signatures"), "snippets/s")
    for stage in ("pairs", "rollup", "clustering", "consume"):
        tracer.timed(f"scan.{stage}.s", f"scan.{stage}")
    tracer.set("verify.pairs", pairs.count(), "count")
    tracer.set("rollup.findings", findings.count(), "count")
    tracer.set("clustering.clusters", len(set(cmap.values())), "count")
    ok, _recall, reason = wl.check(staged_out)
    tracer.checked(ok, reason, "staged scan")

    with tracer.span("scan.streamed"):
        res = scan(ray.data.read_parquet(wl.path), cfg)
        out = consume(res.findings.select_columns(["unit_a", "unit_b"]))
    ok, _recall, reason = wl.check(out)
    tracer.checked(ok, reason, "streamed scan")
    staged = sum(tracer.duration(f"scan.{s}")
                 for s in ("signatures", "pairs", "rollup", "clustering", "consume"))
    tracer.set("trace.overhead_s", staged - tracer.duration("scan.streamed"), "s")
    lsh = res.stats.get("lsh", {})
    tracer.set("candidates.capped_buckets", lsh.get("lsh_buckets_capped", 0), "count")
    full = lsh.get("lsh_capped_full_pairs", 0)
    tracer.set("candidates.capped_emitted_over_full",
               lsh.get("lsh_capped_emitted_pairs", 0) / full if full else 1.0, "ratio")
    tracer.notes["scan.stats"] = json.dumps(res.stats, default=str)
    tracer.notes["scan.dataset_stats"] = res.findings.stats()
    return sorted(zip(out["unit_a"].to_pylist(), out["unit_b"].to_pylist()))


# -- document layers ----------------------------------------------------------


def trace_docs_layers(tracer: Tracer, wl) -> None:
    """Dedup keep, the streaming dedup, the LSH index's add and query
    paths, every query of the list and the hash-min query, each under
    its own span."""
    from clonehunter_ray.state.lsh_index import ShardedLshIndex

    queries = QUERIES + TRACED_QUERIES + [HASHMIN_QUERY]
    with tracer.span("docs.staged"):
        with tracer.span("dedup.keep"):
            keep = wl.dedup_keep(wl.sf_dir)
        with tracer.span("dedup.incremental"):
            stream = wl.dedup_stream(wl.sf_dir)
        answers = {}
        for q in queries:
            with tracer.span(f"query.{q}"):
                answers[q] = wl.query(q, wl.sf_dir)
    tracer.timed("dedup.keep.s", "dedup.keep")
    tracer.timed("dedup.incremental.s", "dedup.incremental")
    for q in queries:
        tracer.timed(f"query.{q}.s", f"query.{q}")
    ok, _recall, reason = wl.check({"keep": keep, "stream": stream, **answers})
    tracer.checked(ok, reason, "document layers")

    import pyarrow.parquet as pq

    docs = pq.read_table(wl.docs_path, columns=["doc_id", "text"])
    half = docs.num_rows // 2
    first, second = docs.slice(0, half), docs.slice(half)
    index = ShardedLshIndex(n_shards=4)
    try:
        with tracer.span("lsh_index.add"):
            for off in range(0, first.num_rows, workloads.STREAM_CHUNK_ROWS):
                index.add(first.slice(off, workloads.STREAM_CHUNK_ROWS))
        with tracer.span("lsh_index.query"):
            got = [index.query(second.slice(off, workloads.STREAM_CHUNK_ROWS), 0.8)
                   for off in range(0, second.num_rows, workloads.STREAM_CHUNK_ROWS)]
    finally:
        index.shutdown()
    tracer.set("lsh_index.add.docs_per_s", first.num_rows / tracer.duration("lsh_index.add"), "docs/s")
    tracer.set("lsh_index.query.docs_per_s",
               second.num_rows / tracer.duration("lsh_index.query"), "docs/s")
    # every (new doc, indexed doc) pair at or above 0.8, and only those
    found = {(r["dup_of"], r["doc_id"]) for t in got for r in t.to_pylist()}
    want = {(a, b) for a, b in wl.edges if a < half <= b}
    tracer.checked(found == want, f"{len(found ^ want)} pairs differ from the oracle",
                   "lsh index query")


def docs_as_files(wl) -> pa.Table:
    """The documents as text files, the shape the code kernels take."""
    import pyarrow.parquet as pq

    docs = pq.read_table(wl.docs_path, columns=["doc_id", "text"])
    ids = docs["doc_id"].to_pylist()
    return pa.table({
        "repo": ["docs"] * len(ids),
        "path": [f"docs/{i}.txt" for i in ids],
        "commit": [""] * len(ids),
        "lang": ["text"] * len(ids),
        "content": docs["text"],
    })


# -- per workload ---------------------------------------------------------------


def trace_scan(wl, tracer: Tracer) -> None:
    import pyarrow.parquet as pq

    edges = trace_scan_stages(tracer, wl)
    trace_kernels(tracer, pq.read_table(wl.path), edges)
    companion = workloads.make("docs", os.path.dirname(wl.work), wl.seed, companion=True)
    companion.prepare()
    trace_docs_layers(tracer, companion)


def trace_docs(wl, tracer: Tracer) -> None:
    trace_docs_layers(tracer, wl)
    trace_kernels(tracer, docs_as_files(wl), sorted(wl.edges))
    companion = workloads.make("scan", os.path.dirname(wl.work), wl.seed, companion=True)
    companion.prepare()
    trace_scan_stages(tracer, companion)
