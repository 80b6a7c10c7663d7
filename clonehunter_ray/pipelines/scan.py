"""The flagship scan pipeline: files -> findings (+ clusters).

Logical DAG (the Ray-Data-first re-expression of the reference's
sequential in-memory pipeline, core/pipeline.py:91-255):

    read_parquet(files)                       # columns pruned at read
      -> map_batches(add_content_sha256)      # per-row invariant
      -> map_batches(extract_units)           # flat-map, stateless
      -> map_batches(generate_snippets)       # flat-map, stateless
      -> map_batches(signatures_task)         # tasks, per-process stage
      (read -> signatures run on the stage's own DataContext, whose
       target_max_block_size is SIGNATURE_BLOCK_BYTES; every later
       stage plans on the session's)
      [checkpoint: signatures]
      -- signatures fit the broadcast cutover (the default path):
      -> broadcast payload table (one plasma table, sid = row index)
      -> map_batches(explode_bands_packed)    # (part, band keys, sids) blobs
      -> groupby(part).map_groups(emit)       # THE shuffle: bucket pairs
      -> map_batches(pre_gate_pairs_indexed)  # size/kind upper-bound mask
      -> dedupe_pairs                         # (a,b) hash partition + group_by
      -> map_batches(take payloads by sid)
      -- above it (string ids):
      -> band_pairs(explode_bands)            # band shuffle + emit + dedupe
      -> prune signatures to paired ids       # semi-join, pair-bounded
      -> attach_pair_payload(kind, sizes)     # narrow a_*, b_* columns
      -> map_batches(pre_gate_pairs)          # the same size/kind mask
      -> attach_pair_payload(payload)         # gate survivors only
      -> map_batches(verify_pairs)            # exact Jaccard + filters
      [checkpoint: pairs]
      -> groupby(pair_key).map_groups(rollup) # finding aggregation
      [checkpoint: findings]
      -> connected components (driver union-find; distributed loop at scale)
      [checkpoint: clusters]                   # labelled findings

Only ids/hashes/shingle arrays cross the shuffles — raw ``content`` /
``text`` columns never enter a wide stage (SURVEY.md §7 "wide rows").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
import ray.data

from clonehunter_ray.config import EngineConfig
from clonehunter_ray.stages import clustering as C
from clonehunter_ray.stages.candidates import (
    attach_pair_payload,
    band_pairs,
    dedupe_pairs,
    emit_pairs_partition,
    explode_bands,
    fits_broadcast,
    pre_gate_pairs,
    pre_gate_pairs_indexed,
)
from clonehunter_ray.stages.extract import add_content_sha256, extract_units_batch
from clonehunter_ray.stages.signatures import signatures_task
from clonehunter_ray.stages.snippets import generate_snippets_batch
from clonehunter_ray.stages.verify import verify_pairs_batch
from clonehunter_ray.state import checkpoint as ckpt
from clonehunter_ray.util import with_block_size

# columns each pair side carries into verification, attached by
# snippet_id
_JOIN_PAYLOAD = [
    "kind",
    "unit_id",
    "path",
    "qualified_name",
    "unit_start",
    "unit_end",
    "start_line",
    "end_line",
    "shingles",
    "tokens",
    "n_shingles",
    "n_tokens",
]


# target_max_block_size of the read -> signatures operator's own
# DataContext. Until a map operator's first task returns, Ray Data
# budgets each task's pending output as this size times its 2-block
# generator buffer, so at the session's 128 MiB a 768 MiB object store
# let the fused operator start ONE task. The stage's blocks (one per
# read block) stay well below it (largest 12.3 MB on the 6,000-file
# benchmark input), so no block splits and every CPU starts at once.
SIGNATURE_BLOCK_BYTES = 32 << 20


# Join path only: when the deduped pair table has at most this many
# rows, its distinct snippet-id set is broadcast once and the signature
# side is FILTERED to paired ids before the payload attaches (measured
# 400k files: 157k pairs vs 2.83M signatures — the unpruned joins
# shipped 89% dead payload). Above it the id set stops being
# broadcastable and the joins run unpruned. 20M pairs ~= 2.5 GB of
# 64-byte ids in plasma.
PAIR_ID_PRUNE_MAX_PAIRS = 20_000_000


def _apply_shuffle_strategy(config: EngineConfig, band_rows: int) -> None:
    """Pick the band exchange's sort-shuffle implementation
    (ExecConfig.shuffle_strategy): push-based once the estimated band
    volume would overflow the object store and go spill-I/O-bound
    (measured 3.3x at 1.6M files, BASELINE.md round 5), pull-based
    below it where push costs a few percent. Session-level knob — Ray
    Data has no per-operator strategy — so "pull" sets pull explicitly
    (a session an earlier auto scan upgraded stays push otherwise),
    while auto only ever UPGRADES the session to push (never silently
    downgrades a push session)."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    mode = config.exec.shuffle_strategy
    ctx = DataContext.get_current()
    if mode == "pull":
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    elif mode == "push" or band_rows > config.exec.push_shuffle_band_rows:
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED


def _join_payload(config: EngineConfig) -> list[str]:
    # token_seq (ordered token hashes) only rides the shuffle when the
    # suffix-array substring rescue needs it
    if config.substring.enabled:
        return _JOIN_PAYLOAD + ["token_seq"]
    return _JOIN_PAYLOAD


def _gate_kwargs(config: EngineConfig) -> dict:
    return {
        "thresholds": config.thresholds,
        "substr_floor": config.substring.floor if config.substring.enabled else None,
    }


def _verified(pairs: "ray.data.Dataset", config: EngineConfig) -> "ray.data.Dataset":
    return pairs.map_batches(
        verify_pairs_batch,
        fn_kwargs={"thresholds": config.thresholds, "substring": config.substring},
        batch_format="pyarrow",
    )


@dataclass
class ScanResult:
    files: "ray.data.Dataset"
    units: "ray.data.Dataset"
    snippets: "ray.data.Dataset"
    signatures: "ray.data.Dataset"
    pairs: "ray.data.Dataset"
    findings: "ray.data.Dataset"
    cluster_map: dict[str, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    # run-metrics actor handle: holding it here ties the actor's life
    # to the result, so lineage re-execution of a pairs block AFTER
    # scan() returns still reaches a live actor (killing it inside
    # scan() failed those tasks with RayActorError)
    metrics_actor: object = None


def build_prefix(
    files_ds: "ray.data.Dataset", config: EngineConfig
) -> tuple["ray.data.Dataset", "ray.data.Dataset", "ray.data.Dataset"]:
    """files -> (hashed, units, snippets): the narrow, embarrassingly-
    parallel chain, built ONCE and shared by build_signatures and the
    ScanResult surfaces (a second parallel definition of the same chain
    previously lived in scan() — confusing and rot-prone)."""
    hashed = files_ds.map_batches(add_content_sha256, batch_format="pyarrow")
    if config.include_langs:
        import pyarrow.compute as pc

        langs = pa.array(sorted(config.include_langs), pa.string())
        hashed = hashed.map_batches(
            lambda t: t.filter(pc.is_in(t["lang"], value_set=langs)),
            batch_format="pyarrow",
        )
    units = hashed.map_batches(extract_units_batch, batch_format="pyarrow")
    snippets = units.map_batches(
        generate_snippets_batch,
        fn_kwargs={"window": config.window},
        batch_format="pyarrow",
        batch_size=config.exec.file_batch_size,
    )
    return hashed, units, snippets


def build_signatures(
    files_ds: "ray.data.Dataset",
    config: EngineConfig,
    prefix: tuple | None = None,
) -> "ray.data.Dataset":
    """files -> signatures (the narrow half; ``prefix`` reuses an
    already-built (hashed, units, snippets) chain). The result runs on
    its own DataContext copy (``SIGNATURE_BLOCK_BYTES``); the prefix
    datasets and the session keep theirs, and ``build_pairs`` (like
    ``scan``) goes back to the session's value."""
    hashed, _units, snippets = prefix or build_prefix(files_ds, config)
    if config.expansion.enabled:
        # EXP call-expansion snippets (per-repo-local groupby; off by
        # default like the reference, config.py:16)
        from clonehunter_ray.stages.expansion import generate_exp_snippets

        snippets = snippets.union(generate_exp_snippets(hashed, config.expansion))
    signatures = snippets.map_batches(
        signatures_task,
        fn_kwargs={
            "config": config.signature,
            "emit_token_seq": config.substring.enabled,
        },
        # the fused files->signatures operator bundles tasks by ITS
        # INPUT rows (files); a small bundle keeps task count >> CPU
        # count so every CPU gets work (observed: 2048 capped a
        # 20k-file corpus at 10 tasks)
        batch_size=config.exec.file_batch_size,
        batch_format="pyarrow",
    )
    return with_block_size(signatures, SIGNATURE_BLOCK_BYTES)


def build_pairs(
    signatures: "ray.data.Dataset",
    config: EngineConfig,
    metrics=None,
    plan: dict | None = None,
) -> "ray.data.Dataset":
    """signatures -> verified pairs (the wide half: LSH shuffle, then
    payload attachment by broadcast lookup or partitioned hash join).

    When the signature table ``fits_broadcast`` (stages/candidates.py,
    the one broadcast-or-join rule; at 1.79 KiB per snippet its row
    limit binds first) the payload table is broadcast ONCE and the
    band shuffle moves (band_key:u64, sid:i32) rows — ~12 bytes
    instead of a ~64-byte snippet-id string, the pipeline's dominant
    shuffle volume. Otherwise string ids flow, and ``attach_pair_payload``
    attaches the narrow gate columns, then (to gate survivors) the
    payload, each behind the same rule on the signature side left after
    the pair-id prune. The decision and its inputs land in
    ``plan`` (when given): ``path``, ``snippets``, ``bytes`` and
    ``pair_id_prune``.
    """
    cap = config.signature.max_bucket_pairs_full
    payload_cols = _join_payload(config)
    # plan on the session's block size, whatever context the
    # signatures were built on (build_signatures scopes its own)
    signatures = with_block_size(signatures)

    fits, n_sigs, nbytes = fits_broadcast(signatures)
    plan = {} if plan is None else plan
    plan.update(
        path="broadcast" if fits else "join",
        snippets=n_sigs,
        bytes=nbytes,
        pair_id_prune=False,
    )
    band_rows = n_sigs * config.signature.num_bands
    _apply_shuffle_strategy(config, band_rows)
    nparts = config.exec.shuffle_partitions
    if not nparts:
        # autoscale the band exchange with the corpus: fixed counts go
        # superlinear when per-partition band rows outgrow the target
        # (see ExecConfig.shuffle_target_rows)
        nparts = int(
            max(
                64,
                min(
                    4096,
                    -(-band_rows // max(1, config.exec.shuffle_target_rows)),
                ),
            )
        )

    if fits:
        return _pairs_broadcast(
            signatures, config, cap, nparts, payload_cols, metrics
        )

    # scale path: string ids, payloads attached by snippet_id
    deduped = band_pairs(
        signatures.select_columns(["snippet_id", "band_keys"]).map_batches(
            explode_bands,
            fn_kwargs={"id_col": "snippet_id"},
            batch_format="pyarrow",
        ),
        lambda g: emit_pairs_partition(
            g,
            "snippet_id",
            cap,
            config.signature.skew_mode,
            config.signature.salt_rounds,
            metrics,
        ),
        nparts,
    ).materialize()
    n_pairs = deduped.count()

    # semi-join prune (PAIR_ID_PRUNE_MAX_PAIRS): only snippet ids that
    # appear in a surviving band pair can contribute to EITHER attach
    # below, and the pair table is capped by the banding
    # accountant while signatures are corpus-scale
    plan["pair_id_prune"] = 0 < n_pairs <= PAIR_ID_PRUNE_MAX_PAIRS
    if plan["pair_id_prune"]:
        import pyarrow.compute as pc

        # per-block local unique FIRST (a combiner: band-duplicated ids
        # collapse in the workers), then one C-speed Arrow hash-unique
        # over the collected remainder — no driver-side Python-object
        # sort (np.unique on an object array compared ~40M strings
        # element-by-element at the 20M-pair limit)
        def _block_ids(t: pa.Table) -> pa.Table:
            both = pa.chunked_array(
                [t["a_id"].combine_chunks(), t["b_id"].combine_chunks()]
            )
            return pa.table({"snippet_id": pc.unique(both)})

        id_parts = [
            t
            for t in ray.get(
                deduped.select_columns(["a_id", "b_id"])
                .map_batches(_block_ids, batch_format="pyarrow")
                .to_arrow_refs()
            )
            if t.num_rows
        ]
        paired_ids = pc.unique(pa.concat_tables(id_parts)["snippet_id"])
        ids_ref = ray.put(paired_ids)

        def _only_paired(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            wanted = ray.get(ids_ref)
            return t.filter(pc.is_in(t["snippet_id"], value_set=wanted))

        # ONE filter pass, materialized: both attaches below consume
        # the signature side, and feeding each its own lazy filter
        # chain re-streamed the full payload per join (measured: the
        # heavy joins DOUBLED, 39.7 -> 83.8 s). The pruned table is
        # pair-bounded (~11% of signatures at 400k files), so pinning
        # it is cheap.
        signatures = signatures.map_batches(
            _only_paired, batch_format="pyarrow", batch_size=8192
        ).materialize()

    # narrow attach (kind + sizes, ~20 bytes/row) and the size/kind
    # gate first, so the heavy payload attach (shingle/token blobs)
    # moves only gate survivors, not the ~12x band-duplicated candidates
    gated = (
        attach_pair_payload(
            deduped, signatures, "snippet_id", ["kind", "n_shingles", "n_tokens"],
            nparts,
        )
        .map_batches(
            pre_gate_pairs, fn_kwargs=_gate_kwargs(config), batch_format="pyarrow"
        )
        .select_columns(["a_id", "b_id", "capped"])
    )
    return _verified(
        attach_pair_payload(gated, signatures, "snippet_id", payload_cols, nparts),
        config,
    )


def _pairs_broadcast(
    signatures: "ray.data.Dataset",
    config: EngineConfig,
    cap: int,
    nparts: int,
    payload_cols: list[str],
    metrics=None,
) -> "ray.data.Dataset":
    """Broadcast path: int-sid band shuffle + Table.take payload attach.

    The payload never funnels through the driver: the materialized
    signature BLOCKS stay in the object store (``to_arrow_refs``) and
    each worker process assembles (table, id->row index) once, caching
    it per broadcast key (plasma reads are zero-copy; concat_tables
    only chains chunk references).
    """
    from clonehunter_ray.stages.candidates import (
        emit_pairs_packed_partition,
        explode_bands_packed,
        make_broadcast_handle,
    )

    # combine ONCE in a task: the combined table lands in plasma a
    # single time and every worker maps it zero-copy (per-worker
    # combining copied the payload into every worker heap). A split
    # light/heavy handle pair was A/B-tested and is NOT faster: the
    # heavy blob combine runs late and contends with the pipeline,
    # while the single combine (num_cpus=0, starts the moment the
    # signature blocks exist) overlaps for free.
    ref = make_broadcast_handle(
        signatures, ["snippet_id", *payload_cols], "snippet_id"
    )

    # packed band shuffle: each explode task pre-splits its band rows
    # by part and ships P blob rows, so the groupby sort handles
    # thousands of fat rows instead of millions of 12-byte rows (the
    # per-row sort machinery was the slowest, worst-scaling pairs
    # operator — 19 s at 100k files / 16 CPUs; see
    # candidates.explode_bands_packed)
    packed = signatures.select_columns(
        ["snippet_id", "band_keys"]
    ).map_batches(
        explode_bands_packed,
        fn_kwargs={"index_ref": ref, "num_partitions": nparts},
        batch_format="pyarrow",
    )
    candidates = packed.groupby("part").map_groups(
        lambda g: emit_pairs_packed_partition(
            g,
            cap,
            skew_mode=config.signature.skew_mode,
            salt_rounds=config.signature.salt_rounds,
            metrics=metrics,
        ),
        batch_format="pyarrow",
    )

    # numpy size/kind pre-gate runs BEFORE the global pair dedup: a
    # clone pair collides in ~12 bands (measured dup factor 11.7x at
    # 20k files), and the gate is a pure mask over broadcast int
    # columns whose verdict is identical for every duplicate — gating
    # first shrinks the dedup shuffle's input ~13x (emit output ->
    # gate survivors), where gating after only shrank the attach.
    candidates = candidates.map_batches(
        pre_gate_pairs_indexed,
        fn_kwargs={"index_ref": ref, **_gate_kwargs(config)},
        batch_format="pyarrow",
    )
    deduped = dedupe_pairs(candidates, nparts)

    def _attach(batch: pa.Table) -> pa.Table:
        from clonehunter_ray.stages.candidates import get_broadcast_payload

        table, _idx = get_broadcast_payload(ref, need_index=False)
        a_side = table.take(batch["a_id"])
        b_side = table.take(batch["b_id"])
        cols: dict[str, pa.Array] = {
            "a_id": a_side["snippet_id"],
            "b_id": b_side["snippet_id"],
            "capped": batch["capped"],
        }
        for cname in payload_cols:
            cols[f"a_{cname}"] = a_side[cname]
            cols[f"b_{cname}"] = b_side[cname]
        return pa.table(cols)

    return _verified(deduped.map_batches(_attach, batch_format="pyarrow"), config)


def build_findings(
    pairs: "ray.data.Dataset", config: EngineConfig
) -> "ray.data.Dataset":
    """Partitioned rollup: hash(pair_key) -> P groups, every pair group
    processed inside its partition pass (stages/rollup.py — avoids one
    Ray-level UDF call per function pair, which is millions at scale)."""
    from clonehunter_ray.stages.rollup import add_rollup_partition, rollup_partition

    thresholds = config.thresholds
    # rollup input is VERIFIED pairs — bounded by the banding
    # accountant (cap x buckets), orders below the band-row volume the
    # band exchange autoscales for. 64 partitions holds to ~10^8
    # verified pairs (~1.5M/partition); past that set
    # exec.shuffle_partitions explicitly (it feeds this and the
    # cluster-attach join).
    nparts = config.exec.shuffle_partitions or 64
    return (
        pairs.map_batches(
            add_rollup_partition,
            fn_kwargs={"num_partitions": nparts},
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(
            lambda g: rollup_partition(g, thresholds), batch_format="pyarrow"
        )
    )


def _tally_rows(batch, metrics=None, counter: str = "rows"):
    """Pass-through batch map that counts rows into the run's metrics
    actor — lets a lazy (streamed) stage report its cardinality without
    a materialize barrier. Task retries can double-count; the counter
    is a run statistic, not a correctness input."""
    from clonehunter_ray.state import metrics as M

    M.report_metrics(metrics, {counter: batch.num_rows})
    return batch


def scan(
    files_ds: "ray.data.Dataset",
    config: EngineConfig | None = None,
    checkpoint_dir: str | None = None,
) -> ScanResult:
    """Run the full pipeline; heavy intermediates are checkpointed to
    ``checkpoint_dir`` (or materialized in the object store when None).
    """
    import time

    from clonehunter_ray.state import metrics as M

    config = config or EngineConfig()
    config.validate()
    fp = config.fingerprint()
    root = checkpoint_dir or config.exec.checkpoint_dir

    # per-run shared counters (capped LSH buckets etc.) live in a
    # zero-CPU actor whose HANDLE rides the UDF closures
    metrics_handle = M.new_metrics_actor()
    _log = None
    if config.exec.log_progress:
        from clonehunter_ray.progress import get_logger, log_stage

        _log = get_logger()
    timing: dict[str, float] = {}
    ckpt_stats: dict[str, str] = {}
    t_start = time.monotonic()

    hashed, units, snippets = build_prefix(files_ds, config)

    t0 = time.monotonic()
    signatures = ckpt.checkpoint_or_compute(
        lambda: build_signatures(
            files_ds, config, prefix=(hashed, units, snippets)
        ),
        root, "signatures", fp, ckpt_stats,
    )
    # the stage's block size stops here: res.signatures and all that is
    # built on it plan on the session's. Its block count is known when
    # the stage is held in the object store; a checkpoint's read-back
    # blocks follow its parquet files instead.
    signatures_plan = {
        "target_max_block_size": SIGNATURE_BLOCK_BYTES,
        "blocks": signatures.num_blocks()
        if ckpt_stats["signatures"] == "memory"
        else None,
    }
    signatures = with_block_size(signatures)
    timing["signatures"] = round(time.monotonic() - t0, 3)
    if _log:
        log_stage("Build signatures", timing["signatures"])
    t0 = time.monotonic()
    pairs_plan: dict = {}
    if root is None and not config.exec.materialize_pairs:
        # STREAMING pairs -> findings: without a checkpoint root there
        # is no reason to barrier between the two wide stages — verify
        # output blocks flow straight into the rollup shuffle's map
        # side, overlapping the tail of the pair stage with the head of
        # the findings stage. The verified-pair count for ScanStats is
        # tallied in-stream (counting the lazy dataset afterwards would
        # re-run the whole band shuffle).
        ckpt_stats["pairs"] = "streamed"
        pairs = build_pairs(
            signatures, config, metrics_handle, pairs_plan
        ).map_batches(
            _tally_rows,
            fn_kwargs={"metrics": metrics_handle, "counter": "verified_pairs"},
            batch_format="pyarrow",
        )
        timing["pairs"] = 0.0  # fused into the findings stage below
        if _log:
            _log.info("Verify pairs: streamed (fused into findings)")
    else:
        pairs = ckpt.checkpoint_or_compute(
            lambda: build_pairs(signatures, config, metrics_handle, pairs_plan),
            root, "pairs", fp, ckpt_stats,
            lineage={"plan": pairs_plan},
        )
        if ckpt_stats["pairs"] == "hit":
            # a checkpoint written before the record existed has none
            pairs_plan.update(ckpt.read_lineage(root, "pairs").get("plan", {}))
        timing["pairs"] = round(time.monotonic() - t0, 3)
        if _log:
            log_stage("Verify pairs", timing["pairs"])
    t0 = time.monotonic()
    findings = ckpt.checkpoint_or_compute(
        lambda: build_findings(pairs, config), root, "findings", fp, ckpt_stats,
    )
    timing["findings"] = round(time.monotonic() - t0, 3)
    if _log:
        log_stage("Rollup findings", timing["findings"])

    t0 = time.monotonic()
    n_findings = findings.count()
    cluster_map: dict[str, int] = {}
    n_clusters = 0
    clustering: dict = {}
    if config.cluster.enabled:

        def _compute_labelled() -> "ray.data.Dataset":
            labelled, cmap = C.add_cluster_ids(
                findings, config.cluster, clustering
            )
            cluster_map.update(cmap)
            return labelled

        if root is None:
            # in-memory path: label lazily, no extra materialization
            findings = _compute_labelled()
        else:
            # checkpoint the labelled findings as their own stage: a
            # resumed run skips connected components entirely; the
            # clustering decision rides the stage's lineage manifest
            findings = ckpt.checkpoint_or_compute(
                _compute_labelled, root, "clusters", fp, ckpt_stats,
                lineage={"clustering": clustering},
            )
            if ckpt_stats["clusters"] == "hit":
                clustering.update(
                    ckpt.read_lineage(root, "clusters")["clustering"]
                )
        if config.cluster.min_size > 1:
            findings = C.filter_min_cluster_size(
                findings, config.cluster.min_size
            )
            # the reported findings count must agree with the RETURNED
            # dataset (and the CLI's finding_count), not the pre-filter
            # edge count; so must n_clusters and cluster_map (a cluster
            # whose findings were all filtered out must not survive in
            # the stats or the map), which are rebuilt below
            n_findings = findings.count()
            cluster_map.clear()
        if clustering["path"] == "driver":
            if not cluster_map:
                # resumed from the clusters checkpoint, or min-size
                # filtered: rebuild the unit->cluster map from the
                # labelled table (driver path: at most DRIVER_MAX_EDGES
                # rows)
                for r in findings.select_columns(
                    ["unit_a", "unit_b", "cluster_id"]
                ).take_all():
                    cluster_map[r["unit_a"]] = r["cluster_id"]
                    cluster_map[r["unit_b"]] = r["cluster_id"]
            n_clusters = len(set(cluster_map.values()))
        else:
            n_clusters = (
                findings.select_columns(["cluster_id"])
                .groupby("cluster_id")
                .count()
                .count()
            )
    if n_findings == 0:
        # the stages after the pair shuffle passed only empty blocks,
        # whose map UDFs never run, so nothing typed the result
        from clonehunter_ray.stages.rollup import FINDINGS_SCHEMA

        schema = FINDINGS_SCHEMA
        if config.cluster.enabled:
            schema = schema.append(pa.field("cluster_id", pa.int64()))
        findings = ray.data.from_arrow(schema.empty_table())
    timing["clustering"] = round(time.monotonic() - t0, 3)
    timing["total"] = round(time.monotonic() - t_start, 3)
    if _log:
        _log.info(
            "Scan: %d findings, %d clusters in %.2fs",
            n_findings,
            n_clusters,
            timing["total"],
        )

    # reference ScanStats/timing parity (core/pipeline.py:124-247):
    # stage wall clock, dataset counts (cheap: signatures/pairs are
    # materialized or checkpointed by now), capped-LSH recall
    # accounting from the run's metrics actor, checkpoint hit/miss
    lsh = {k: int(v) for k, v in M.read_metrics(metrics_handle).items()}
    # in streaming mode the verified-pair count was tallied in-stream
    # (the pairs dataset is a lazy view; counting it would re-run the
    # band shuffle) — it is a run counter, not an LSH stat. Default 0:
    # a clone-free corpus emits only empty blocks, so the counter is
    # never reported, and 0 IS the true count (not a -1 sentinel).
    n_pairs = int(lsh.pop("verified_pairs", 0))
    if ckpt_stats.get("pairs") != "streamed":
        # checkpointed or exec.materialize_pairs: the dataset is
        # concrete, count it directly (no in-stream tally ran)
        n_pairs = pairs.count()
    if root and lsh and ckpt_stats.get("pairs") == "miss":
        ckpt.update_lineage(root, "pairs", {"lsh": lsh})
    stats = {
        "timing": timing,
        "counts": {
            "snippets": signatures.count(),
            "verified_pairs": n_pairs,
            "findings": n_findings,
            "clusters": n_clusters,
        },
        "lsh": lsh,
        "checkpoint": dict(ckpt_stats),
        # automatic plan decisions with their inputs
        "plan": {"signatures": signatures_plan, "pairs": pairs_plan}
        | ({"clustering": clustering} if clustering else {}),
    }

    return ScanResult(
        files=hashed,
        units=units,
        snippets=snippets,
        signatures=signatures,
        pairs=pairs,
        findings=findings,
        cluster_map=cluster_map,
        stats=stats,
        metrics_actor=metrics_handle,
    )
