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
      -> one task per signature block: narrow_block
                                              # ids, band keys, payload, unit_key
      -> sort(snippet_id), materialized       # blocks = the sid-range index
      -> one task per index block: explode_bands_packed
                                              # (part, band keys, sids) blobs
      -> groupby(part).map_groups(emit)       # band exchange: bucket pairs
      -> map_batches(_gate)                   # range-take kind/sizes/unit_key,
                                              # size/kind mask, part = unit pair
      -> groupby(part).map_groups(_pair_partition)
                                              # unit-pair exchange: dedup,
                                              # range-take payload, verify,
                                              # and (streamed) rollup
      [checkpoint: pairs; a persisted pair stage is rolled up by
       groupby(pair_key).map_groups(rollup) instead]
      [checkpoint: findings]
      -> connected components (driver union-find; distributed loop at scale)
      [checkpoint: clusters]                   # labelled findings

Only ids/hashes/shingle arrays cross the shuffles — raw ``content`` /
``text`` columns never enter a wide stage (SURVEY.md §7 "wide rows").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray
import ray.data

from clonehunter_ray.config import EngineConfig
from clonehunter_ray.stages import clustering as C
from clonehunter_ray.stages.candidates import (
    _with_part,
    attach_sids,
    dedupe_partition,
    emit_pairs_packed_partition,
    explode_bands_packed,
    narrow_block,
    pre_gate_pairs,
    sid_index,
)
from clonehunter_ray.stages.extract import add_content_sha256, extract_units_batch
from clonehunter_ray.stages.rollup import FINDINGS_SCHEMA, rollup_partition
from clonehunter_ray.stages.signatures import signatures_task
from clonehunter_ray.stages.snippets import generate_snippets_batch
from clonehunter_ray.stages.verify import verify_pairs_batch
from clonehunter_ray.state import checkpoint as ckpt
from clonehunter_ray.util import with_block_size

# columns each pair side carries into verification, range-taken by
# sid (token_seq, the ordered token hashes, joins them only when the
# suffix-array substring rescue needs it)
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


def _shuffle_strategy(config: EngineConfig, band_rows: int):
    """The sort-shuffle implementation of the pair stage's sort and band
    exchange (ExecConfig.shuffle_strategy): "push" and "pull" as set;
    "auto" is push-based once the estimated band volume would overflow
    the object store and go spill-I/O-bound (measured 3.3x at 1.6M
    files, BASELINE.md round 5), pull-based below it where push costs a
    few percent. ``build_exchange`` sets it on those datasets' own
    DataContexts, never on the session's."""
    from ray.data.context import ShuffleStrategy

    mode = config.exec.shuffle_strategy
    if mode == "push" or (
        mode == "auto" and band_rows > config.exec.push_shuffle_band_rows
    ):
        return ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    return ShuffleStrategy.SORT_SHUFFLE_PULL_BASED


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
    datasets and the session keep theirs, and ``build_exchange`` (like
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


def _sid_index(signatures: "ray.data.Dataset", cols: list[str], strategy) -> tuple:
    """The sid-range index: each non-empty signature block narrowed to
    ``cols`` plus ``unit_key`` by one plain task
    (``candidates.narrow_block``), sorted by ``snippet_id`` on
    ``strategy`` and materialized (``candidates.sid_index``)."""
    narrow = ray.remote(narrow_block)
    refs = [
        narrow.remote(ref, cols)
        for bundle in signatures.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    narrowed = ray.data.from_arrow_refs(refs)
    narrowed.context.shuffle_strategy = strategy
    return sid_index(narrowed.sort("snippet_id").materialize())


def _gate(
    batch: pa.Table,
    index,
    thresholds,
    substr_floor: float | None,
    num_partitions: int,
) -> pa.Table:
    """Candidate sid pairs -> the ``(a_id, b_id, part)`` rows the
    size/kind gate keeps (``candidates.pre_gate_pairs`` on the narrow
    columns range-taken by sid), ``part`` = a hash of the pair's
    unordered unit pair mod P: every duplicate of a sid pair and every
    pair of one unit pair land in one partition."""
    gated = pre_gate_pairs(
        attach_sids(batch, index, ["kind", "n_shingles", "n_tokens", "unit_key"]),
        thresholds,
        substr_floor,
    )
    a = gated["a_unit_key"].to_numpy(zero_copy_only=False)
    b = gated["b_unit_key"].to_numpy(zero_copy_only=False)
    units = pa.table({"lo": np.minimum(a, b), "hi": np.maximum(a, b)})
    return gated.select(["a_id", "b_id"]).append_column(
        "part", _with_part(units, ["lo", "hi"], num_partitions)["part"]
    )


def _pair_partition(
    partition: pa.Table,
    index,
    cols: list[str],
    thresholds,
    substring,
    rollup: bool = False,
    metrics=None,
) -> pa.Table:
    """One unit-pair partition of gated sid pairs -> its verified pairs,
    or with ``rollup`` its findings (the verified-pair count goes to
    ``metrics``): the pair dedup (``candidates.dedupe_partition``), the
    payload range-take and ``verify_pairs_batch``, then
    ``rollup.rollup_partition``. The partition holds every duplicate of
    its sid pairs and every verified pair of its unit pairs, so the
    dedup and the rollup are exact. Deduped pairs are in sid order, so
    a partition's rows come out in the same order on every run."""
    pairs = dedupe_partition(partition).sort_by(
        [("a_id", "ascending"), ("b_id", "ascending")]
    )
    verified = verify_pairs_batch(
        _with_payload(pairs, index, cols), thresholds, substring
    )
    if not rollup:
        return verified
    from clonehunter_ray.state import metrics as M

    M.report_metrics(metrics, {"verified_pairs": verified.num_rows})
    return rollup_partition(verified, thresholds)


def build_exchange(
    signatures: "ray.data.Dataset",
    config: EngineConfig,
    metrics=None,
    plan: dict | None = None,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """signatures -> (verified pairs, findings), the wide half, one
    pipeline for every corpus size. Both datasets are lazy views of one
    exchange; the findings view reports the verified-pair count to
    ``metrics``.

    A sid is the global rank of ``snippet_id``. The signature table,
    narrowed to the ids, band keys and payload plus a per-sid
    ``unit_key``, is sorted by it once and materialized here, and its
    blocks in order are the sid-range index (``_sid_index``). Each index
    block explodes in one task into packed (band key, sid) blobs, so the
    band shuffle moves ~12 bytes per band row instead of a ~64-byte id
    string (the pipeline's dominant shuffle volume). The emitted sid
    pairs are gated on narrow columns and partitioned by their unit
    pair (``_gate``); one exchange then dedups, verifies and, for the
    findings, rolls up each partition (``_pair_partition``). Every
    column comes from the one range-take kernel
    (``candidates.attach_sids``), so no string crosses a shuffle and no
    hash join runs. The plan lands in ``plan`` (when given):
    ``snippets``, ``index_blocks``, ``partitions`` and
    ``shuffle_strategy``.
    """
    sig = config.signature
    substring = config.substring.enabled
    payload_cols = _JOIN_PAYLOAD + (["token_seq"] if substring else [])
    # plan on the session's block size, whatever context the
    # signatures were built on (build_signatures scopes its own)
    signatures = with_block_size(signatures)
    n_sigs = signatures.count()
    band_rows = n_sigs * sig.num_bands
    strategy = _shuffle_strategy(config, band_rows)
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

    index = _sid_index(
        signatures, ["snippet_id", "band_keys", *payload_cols], strategy
    )
    _, starts, blocks = index
    plan = {} if plan is None else plan
    plan.update(
        snippets=n_sigs,
        index_blocks=len(blocks),
        partitions=nparts,
        shuffle_strategy=strategy.value,
    )

    # packed band shuffle: each explode task pre-splits its band rows
    # by part and ships P blob rows, so the groupby sort handles
    # thousands of fat rows instead of millions of 12-byte rows (see
    # candidates.explode_bands_packed)
    explode = ray.remote(explode_bands_packed)
    packed = ray.data.from_arrow_refs(
        [
            explode.remote(block, int(start), nparts)
            for block, start in zip(blocks, starts)
        ]
    )
    packed.context.shuffle_strategy = strategy
    # the size/kind gate runs BEFORE the pair dedup: a clone pair
    # collides in ~12 bands (measured dup factor 11.7x at 20k files),
    # and the gate's verdict is identical for every duplicate — gating
    # first shrinks the unit-pair exchange's input ~13x
    gated = (
        packed.groupby("part")
        .map_groups(
            lambda g: emit_pairs_packed_partition(
                g, sig.max_bucket_pairs_full, sig.skew_mode, sig.salt_rounds, metrics
            ),
            batch_format="pyarrow",
        )
        .map_batches(
            _gate,
            fn_kwargs={
                "index": index,
                "thresholds": config.thresholds,
                "substr_floor": config.substring.floor if substring else None,
                "num_partitions": nparts,
            },
            batch_format="pyarrow",
        )
    )
    kernel = {
        "index": index,
        "cols": payload_cols,
        "thresholds": config.thresholds,
        "substring": config.substring,
    }

    def exchange(**rollup) -> "ray.data.Dataset":
        return gated.groupby("part").map_groups(
            _pair_partition, fn_kwargs=kernel | rollup, batch_format="pyarrow"
        )

    return exchange(), exchange(rollup=True, metrics=metrics)


def build_pairs(
    signatures: "ray.data.Dataset",
    config: EngineConfig,
    metrics=None,
    plan: dict | None = None,
) -> "ray.data.Dataset":
    """signatures -> verified pairs: ``build_exchange``'s pair view,
    the input of a persisted pair stage (``build_findings`` rolls it up
    after)."""
    return build_exchange(signatures, config, metrics, plan)[0]


def _with_payload(batch: pa.Table, index, cols: list[str]) -> pa.Table:
    """Sid pairs -> snippet-id pairs with both sides' payload columns,
    the rows verification reads."""
    out = attach_sids(batch, index, ["snippet_id", *cols])
    for p in ("a_", "b_"):
        i = out.schema.get_field_index(f"{p}id")
        out = out.set_column(i, f"{p}id", out[f"{p}snippet_id"])
    return out


def _pair_key_partitions(config: EngineConfig) -> int:
    """P of ``build_findings``' pair_key exchange. Its input is VERIFIED
    pairs — bounded by the banding accountant (cap x buckets), orders
    below the band-row volume the band exchange autoscales for. 64
    partitions holds to ~10^8 verified pairs (~1.5M/partition); past
    that set exec.shuffle_partitions explicitly (it feeds this and the
    cluster-attach join)."""
    return config.exec.shuffle_partitions or 64


def build_findings(
    pairs: "ray.data.Dataset", config: EngineConfig
) -> "ray.data.Dataset":
    """Verified pairs (a persisted pair stage) -> findings: one
    hash(pair_key) exchange into P partitions, every pair group rolled
    up inside its partition pass (``rollup.rollup_partition`` — no
    Ray-level UDF call per function pair, which is millions at scale).
    The streamed scan rolls up inside ``build_exchange`` instead."""
    thresholds = config.thresholds
    return (
        pairs.map_batches(
            _with_part,
            fn_args=(["pair_key"], _pair_key_partitions(config)),
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(
            lambda g: rollup_partition(g, thresholds), batch_format="pyarrow"
        )
    )


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
        # STREAMING pairs -> findings: without a checkpoint root the
        # pairs are never persisted, so one unit-pair exchange dedups,
        # verifies and rolls up (build_exchange); "pairs" times the
        # eager sid-index build, "findings" the fused exchange. The
        # verified-pair count for ScanStats is reported from the
        # exchange (counting the lazy pairs view afterwards would re-run
        # the whole band shuffle).
        ckpt_stats["pairs"] = "streamed"
        pairs, fused = build_exchange(signatures, config, metrics_handle, pairs_plan)
        make_findings = lambda: fused  # noqa: E731
        findings_plan = {
            "partitions": pairs_plan["partitions"], "exchange": "unit_pair"
        }
        timing["pairs"] = round(time.monotonic() - t0, 3)
        if _log:
            log_stage("Sid index (pairs streamed into findings)", timing["pairs"])
    else:
        pairs = ckpt.checkpoint_or_compute(
            lambda: build_pairs(signatures, config, metrics_handle, pairs_plan),
            root, "pairs", fp, ckpt_stats,
            lineage={"plan": pairs_plan},
        )
        if ckpt_stats["pairs"] == "hit":
            # a checkpoint written before the record existed has none
            pairs_plan.update(ckpt.read_lineage(root, "pairs").get("plan", {}))
        make_findings = lambda: build_findings(pairs, config)  # noqa: E731
        findings_plan = {
            "partitions": _pair_key_partitions(config), "exchange": "pair_key"
        }
        timing["pairs"] = round(time.monotonic() - t0, 3)
        if _log:
            log_stage("Verify pairs", timing["pairs"])
    t0 = time.monotonic()
    findings = ckpt.checkpoint_or_compute(
        make_findings, root, "findings", fp, ckpt_stats
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
    # in streaming mode the verified-pair count was reported by the
    # exchange (the pairs dataset is a lazy view; counting it would
    # re-run the band shuffle) — it is a run counter, not an LSH stat.
    # Default 0: a clone-free corpus emits only empty blocks, so the
    # counter is never reported, and 0 IS the true count (not a -1
    # sentinel).
    n_pairs = int(lsh.pop("verified_pairs", 0))
    if ckpt_stats.get("pairs") != "streamed":
        # checkpointed or exec.materialize_pairs: the dataset is
        # concrete, count it directly (no in-stream tally ran)
        n_pairs = pairs.count()
    if ckpt_stats.get("pairs") == "hit":
        # the band exchange did not run: its counters are the ones the
        # run that wrote the checkpoint recorded
        lsh = ckpt.read_lineage(root, "pairs").get("lsh", {})
    elif root and lsh and ckpt_stats.get("pairs") == "miss":
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
        "plan": {
            "signatures": signatures_plan,
            "pairs": pairs_plan,
            "findings": findings_plan,
        }
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
