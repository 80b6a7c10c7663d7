"""Checkpoint + mid-pipeline resume semantics (north_rule: per-stage
partitioned Parquet with lineage; a rerun after losing downstream
stages must reuse the completed upstream checkpoint)."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pytest
import ray.data

from clonehunter_ray.config import EngineConfig
from clonehunter_ray.corpus import generate_corpus
from clonehunter_ray.pipelines.scan import scan
from clonehunter_ray.state import checkpoint as ckpt


def _scan(files: pa.Table, root: str):
    cfg = EngineConfig()
    return scan(ray.data.from_arrow(files), cfg, checkpoint_dir=root), cfg


def test_scan_writes_stage_checkpoints_with_lineage(ray_session, tmp_path):
    files, _ = generate_corpus(60, 7)
    root = str(tmp_path / "ck")
    res, cfg = _scan(files, root)
    n = res.findings.count()
    assert n > 0
    for stage in ("signatures", "pairs", "findings", "clusters"):
        d = os.path.join(root, stage)
        assert os.path.exists(os.path.join(d, "_SUCCESS")), stage
        lineage = json.load(open(os.path.join(d, "_lineage.json")))
        assert lineage["stage"] == stage
        assert lineage["config_fp"] == cfg.fingerprint()
        assert lineage["rows"] >= 0
        assert any(f.endswith(".parquet") for f in os.listdir(d))


def test_resume_skips_completed_upstream(ray_session, tmp_path):
    files, _ = generate_corpus(60, 7)
    root = str(tmp_path / "ck")
    res1, cfg = _scan(files, root)
    first = res1.findings.to_pandas().sort_values("pair_key").reset_index(drop=True)

    sig_lineage = os.path.join(root, "signatures", "_lineage.json")
    mtime_before = os.path.getmtime(sig_lineage)

    # simulate a mid-pipeline crash: downstream stages lost
    shutil.rmtree(os.path.join(root, "pairs"))
    shutil.rmtree(os.path.join(root, "findings"))

    res2, _ = _scan(files, root)
    second = res2.findings.to_pandas().sort_values("pair_key").reset_index(drop=True)

    # signatures were NOT recomputed (lineage file untouched) ...
    assert os.path.getmtime(sig_lineage) == mtime_before
    # ... and the resumed run reproduces the findings exactly
    assert list(first["pair_key"]) == list(second["pair_key"])
    assert list(first["score"]) == list(second["score"])


def test_clusters_checkpoint_resume_rebuilds_map(ray_session, tmp_path):
    """A full rerun over an intact checkpoint tree hits every stage —
    including the new clusters stage — and the driver-path
    unit->cluster map is rebuilt from the checkpointed table."""
    files, _ = generate_corpus(60, 7)
    root = str(tmp_path / "ck")
    res1, cfg = _scan(files, root)
    assert res1.stats["checkpoint"]["clusters"] == "miss"
    map1 = dict(res1.cluster_map)
    assert map1  # driver path at this scale

    findings_lineage = os.path.join(root, "findings", "_lineage.json")
    mtime_before = os.path.getmtime(findings_lineage)

    res2, _ = _scan(files, root)
    assert res2.stats["checkpoint"]["clusters"] == "hit"
    assert os.path.getmtime(findings_lineage) == mtime_before
    assert dict(res2.cluster_map) == map1
    assert res2.stats["counts"]["clusters"] == res1.stats["counts"]["clusters"]

    # lose ONLY the clusters stage: upstream findings reused, labels
    # recomputed, same assignment
    shutil.rmtree(os.path.join(root, "clusters"))
    res3, _ = _scan(files, root)
    assert res3.stats["checkpoint"]["clusters"] == "miss"
    assert res3.stats["checkpoint"]["findings"] == "hit"
    assert dict(res3.cluster_map) == map1


def test_config_change_invalidates_checkpoint(ray_session, tmp_path):
    files, _ = generate_corpus(60, 7)
    root = str(tmp_path / "ck")
    _scan(files, root)
    fp1 = json.load(open(os.path.join(root, "signatures", "_lineage.json")))[
        "config_fp"
    ]
    from clonehunter_ray.config import Thresholds

    cfg2 = EngineConfig(thresholds=Thresholds(func=0.5))
    scan(ray.data.from_arrow(files), cfg2, checkpoint_dir=root)
    fp2 = json.load(open(os.path.join(root, "signatures", "_lineage.json")))[
        "config_fp"
    ]
    assert fp1 != fp2  # stale checkpoint replaced, not reused


def test_resume_missing_anti_join(ray_session):
    inp = ray.data.from_items([{"k": i, "v": i * 2} for i in range(10)])
    done = ray.data.from_items([{"k": i} for i in range(0, 10, 2)])
    missing = ckpt.resume_missing(inp, done, "k")
    ks = sorted(r["k"] for r in missing.iter_rows())
    assert ks == [1, 3, 5, 7, 9]


def test_partitioned_output_writes_and_resumes(ray_session, tmp_path):
    out = str(tmp_path / "sink")
    ds = ray.data.from_arrow(
        pa.table(
            {
                # "c/x" and "€" pin the URL-escape round-trip
                # (multi-byte codepoints must not collide, VERDICT r3 review)
                "shard": ["a", "a", "b", "c/x", "b", "€"],
                "v": [1, 2, 3, 4, 5, 6],
            }
        )
    )
    stats = ckpt.write_partitioned_output(ds, out, "shard")
    assert stats == {"written": 4, "skipped": 0, "rows": 6}
    # hive dirs with per-partition _SUCCESS; hostile chars escaped
    assert os.path.exists(os.path.join(out, "shard=a", "_SUCCESS"))
    assert os.path.exists(os.path.join(out, "shard=c%2Fx", "_SUCCESS"))
    assert os.path.exists(os.path.join(out, "shard=%E2%82%AC", "_SUCCESS"))
    assert ckpt.finished_partitions(out, "shard") == {"a", "b", "c/x", "€"}
    back = ray.data.read_parquet(
        [os.path.join(out, d, "part-0.parquet") for d in os.listdir(out)]
    )
    assert back.count() == 6
    assert sorted(r["v"] for r in back.take_all()) == [1, 2, 3, 4, 5, 6]

    # simulate a failed partition: drop b's marker, re-run -> only b
    os.remove(os.path.join(out, "shard=b", "_SUCCESS"))
    stats2 = ckpt.write_partitioned_output(ds, out, "shard")
    assert stats2 == {"written": 1, "skipped": 3, "rows": 2}
    assert os.path.exists(os.path.join(out, "shard=b", "_SUCCESS"))


def test_partitioned_output_via_cli(ray_session, tmp_path):
    import subprocess
    import sys

    src = tmp_path / "repo"
    src.mkdir()
    # one IDENTICAL function in every file (a certain clone pair) plus
    # a unique one so file-level exact dedupe keeps all files
    shared = (
        "def shared_logic(items):\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        if item is None:\n"
        "            continue\n"
        "        total += item * 2 + 1\n"
        "    out = [total, len(items)]\n"
        "    return out\n"
    )
    uniq = "def only_{i}():\n    val_{i} = {i}\n    return val_{i} + {i}\n"
    for i in range(4):
        (src / f"m{i}.py").write_text(shared + "\n\n" + uniq.format(i=i))
    out = str(tmp_path / "parts")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "clonehunter_ray.cli",
            "scan",
            str(src),
            "--format",
            "parquet",
            "--partition-by",
            "cluster_id",
            "--out",
            out,
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = proc.stdout.strip().splitlines()[-1]
    stats = json.loads(line)
    # the duplicated function bodies are designed to produce clones —
    # zero partitions would mean the sink wiring regressed
    assert stats["partitions_written"] > 0
    dirs = [d for d in os.listdir(out) if d.startswith("cluster_id=")]
    assert len(dirs) == stats["partitions_written"]
    assert all(os.path.exists(os.path.join(out, d, "_SUCCESS")) for d in dirs)
    assert stats["finding_count"] == stats["findings_written"]


def test_partitioned_output_jsonl_preserves_numeric_exactness(
    ray_session, tmp_path
):
    """The jsonl sink must be as lossless as the parquet sink: float64
    round-trips exactly (pandas to_json's default 10-digit truncation
    would corrupt it) and nullable int64 stays int (not 123.0)."""
    out = str(tmp_path / "jl")
    f64 = [0.1234567890123456789, 1e-17, 9007199254740993.0]
    i64 = [2**53 + 1, None, 7]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "shard": pa.array(["a", "a", "b"], pa.string()),
                "score": pa.array(f64, pa.float64()),
                "n": pa.array(i64, pa.int64()),
            }
        )
    )
    stats = ckpt.write_partitioned_output(ds, out, "shard", fmt="jsonl")
    assert stats["rows"] == 3 and stats["written"] == 2
    rows = []
    for d in sorted(os.listdir(out)):
        p = os.path.join(out, d, "part-0.jsonl")
        assert os.path.exists(os.path.join(out, d, "_SUCCESS"))
        with open(p) as fh:
            rows += [json.loads(line) for line in fh]
    rows.sort(key=lambda r: (r["shard"], str(r["n"])))
    got_scores = sorted(r["score"] for r in rows)
    assert got_scores == sorted(f64)  # bit-exact float64 round-trip
    ns = {r["n"] for r in rows}
    assert 2**53 + 1 in ns  # int64 above 2^53 survives as int
    assert None in ns  # null stays null, not NaN
    # unknown format is refused
    import pytest as _pytest

    with _pytest.raises(ValueError, match="unknown fmt"):
        ckpt.write_partitioned_output(ds, out, "shard", fmt="orc")


def test_partitioned_output_jsonl_nan_and_typed_columns(ray_session, tmp_path):
    """Non-finite floats must emit RFC-valid null (bare NaN tokens
    break strict loaders), timestamps serialize as ISO strings, and
    binary as base64 — while a multi-batch partition streams without
    materializing all rows at once."""
    import base64
    import datetime

    out = str(tmp_path / "jl2")
    ds = ray.data.from_arrow(
        pa.table(
            {
                "shard": pa.array(["a", "a", "a"], pa.string()),
                "score": pa.array([1.5, float("nan"), float("inf")], pa.float64()),
                "ts": pa.array(
                    [datetime.datetime(2026, 8, 19, 1, 2, 3)] * 3,
                    pa.timestamp("us"),
                ),
                "blob": pa.array([b"\x00\xff", b"hi", b""], pa.binary()),
            }
        )
    )
    ckpt.write_partitioned_output(ds, out, "shard", fmt="jsonl")
    with open(os.path.join(out, "shard=a", "part-0.jsonl")) as fh:
        raw = fh.read()
        assert "NaN" not in raw and "Infinity" not in raw
        rows = [json.loads(line) for line in raw.splitlines()]
    scores = sorted((r["score"] for r in rows), key=lambda v: (v is None, v))
    assert scores == [1.5, None, None]
    assert rows[0]["ts"] == "2026-08-19T01:02:03"
    assert {r["blob"] for r in rows} == {
        base64.b64encode(b).decode() for b in (b"\x00\xff", b"hi", b"")
    }


def test_partitioned_output_jsonl_float16_and_nested_nan(ray_session, tmp_path):
    """float16 columns widen and serialize (is_finite has no halffloat
    kernel); non-finite floats NESTED in list columns bypass the
    top-level cleanup and must fail loudly (allow_nan=False) instead of
    writing RFC-invalid bare NaN tokens."""
    import numpy as np

    out = str(tmp_path / "h16")
    ds = ray.data.from_arrow(
        pa.table(
            {
                "shard": pa.array(["a", "a"], pa.string()),
                "h": pa.array(
                    np.array([1.5, np.nan], dtype=np.float16), pa.float16()
                ),
            }
        )
    )
    ckpt.write_partitioned_output(ds, out, "shard", fmt="jsonl")
    with open(os.path.join(out, "shard=a", "part-0.jsonl")) as fh:
        vals = sorted(
            (json.loads(line)["h"] for line in fh),
            key=lambda v: (v is None, v),
        )
    assert vals == [1.5, None]

    nested = ray.data.from_arrow(
        pa.table(
            {
                "shard": pa.array(["a"], pa.string()),
                "v": pa.array([[1.0, float("nan")]], pa.list_(pa.float64())),
            }
        )
    )
    import pytest as _pytest

    with _pytest.raises(Exception, match="not JSON compliant"):
        ckpt.write_partitioned_output(
            nested, str(tmp_path / "nested"), "shard", fmt="jsonl"
        )


def test_scan_plan_records_clustering(ray_session, tmp_path):
    """stats["plan"] records the connected-components decision (path,
    edge count, rounds), the pair stage's sid index and band exchange
    (snippets, index blocks, partitions, shuffle strategy) and the
    signature stage's block count in
    streamed mode, in a checkpointed run, and in a resume that hits the
    pairs and clusters stages. The stage datasets run without
    per-operator reservation, and that stays on them: after scan() the
    session's context and every dataset scan() returns or that is built
    on res.signatures keep the session's reservation setting and block
    size."""
    from ray.data import DataContext

    from clonehunter_ray.pipelines.scan import build_exchange, build_signatures

    def values(context) -> tuple:
        return (
            context.op_resource_reservation_enabled,
            context.target_max_block_size,
        )

    def scope(ds) -> tuple:
        return values(ds.context)

    session = values(DataContext.get_current())
    assert session[0]
    files, _ = generate_corpus(60, 7)
    files_ds = ray.data.from_arrow(files)
    sigs = build_signatures(files_ds, EngineConfig())
    assert scope(sigs) == (False, session[1])
    views = build_exchange(sigs.materialize(), EngineConfig())
    assert [scope(d) for d in views] == [(False, session[1])] * 2
    assert scope(files_ds) == session
    root = str(tmp_path / "ck")
    results = [scan(ray.data.from_arrow(files), EngineConfig())]
    results += [_scan(files, root)[0] for _ in range(2)]
    for res in results:
        built = [
            res.files,
            res.units,
            res.snippets,
            res.signatures,
            res.signatures.select_columns(["snippet_id"]),
            res.signatures.map_batches(lambda t: t, batch_format="pyarrow"),
            res.pairs,
            res.findings,
        ]
        assert [scope(d) for d in built] == [session] * len(built)
    assert values(DataContext.get_current()) == session
    streamed, missed, resumed = (res.stats for res in results)
    assert streamed["plan"]["signatures"] == {
        "blocks": results[0].signatures.num_blocks(),
    }
    for stats in (missed, resumed):
        assert stats["plan"]["signatures"] == {"blocks": None}
    assert missed["checkpoint"]["clusters"] == "miss"
    assert resumed["checkpoint"]["clusters"] == "hit"
    assert missed["checkpoint"]["pairs"] == "miss"
    assert resumed["checkpoint"]["pairs"] == "hit"
    assert streamed["checkpoint"]["pairs"] == "streamed"
    # the streamed scan rolls up inside its unit-pair exchange; a
    # persisted pair stage is rolled up by its own pair_key exchange
    assert streamed["plan"]["findings"] == {"partitions": 64, "exchange": "unit_pair"}
    for stats in (missed, resumed):
        assert stats["plan"]["findings"] == {"partitions": 64, "exchange": "pair_key"}
    for stats in (streamed, missed, resumed):
        pairs = stats["plan"]["pairs"]
        assert set(pairs) == {
            "snippets", "index_blocks", "partitions", "shuffle_strategy"
        }
        assert pairs["snippets"] == stats["counts"]["snippets"]
        assert pairs["index_blocks"] > 0
        assert pairs["partitions"] == 64
        assert pairs["shuffle_strategy"] == "sort_shuffle_pull_based"
        assert set(stats["plan"]) == {"signatures", "pairs", "findings", "clustering"}
        rec = stats["plan"]["clustering"]
        assert set(rec) == {"path", "edges", "rounds"}
        assert rec == {
            "path": "driver",
            "edges": stats["counts"]["findings"],
            "rounds": 0,
        }
    assert streamed["counts"]["findings"] > 0



def _sorted_findings(res) -> pa.Table:
    table = pa.concat_tables(ray.get(res.findings.to_arrow_refs()))
    return table.sort_by([("pair_key", "ascending")])


@pytest.mark.parametrize("cluster", [True, False])
def test_findings_blocks_concatenate(ray_session, cluster):
    """scan() hands out findings blocks of one schema: the exchange's
    empty partitions (zero-column blocks) are dropped from the
    materialized findings, so a consumer concatenates the blocks as
    they come, on every seed and with or without the cluster labels."""
    from clonehunter_ray.config import ClusterConfig
    from clonehunter_ray.stages.rollup import FINDINGS_SCHEMA

    config = EngineConfig(cluster=ClusterConfig(enabled=cluster))
    schema = FINDINGS_SCHEMA
    if cluster:
        schema = schema.append(pa.field("cluster_id", pa.int64()))
    for seed in (42, 1, 2, 3):
        files, _ = generate_corpus(200, seed)
        res = scan(ray.data.from_arrow(files), config)
        table = pa.concat_tables(ray.get(res.findings.to_arrow_refs()))
        assert table.schema == schema, seed
        assert table.num_rows == res.stats["counts"]["findings"] > 0, seed


def test_findings_equal_streamed_checkpointed_and_resumed(
    ray_session, tiny_corpus, tmp_path
):
    """The streamed scan (one unit-pair exchange rolls up), a
    checkpointed run (the persisted pairs rolled up by their pair_key
    exchange) and a run resumed from the pairs checkpoint give equal
    findings, counts and LSH counters, under the default salted mode
    and under ``star`` with a cap every multi-member bucket exceeds."""
    from clonehunter_ray.config import SignatureConfig

    files, _ = tiny_corpus
    for i, sig in enumerate(
        (SignatureConfig(), SignatureConfig(skew_mode="star", max_bucket_pairs_full=1))
    ):
        config = EngineConfig(signature=sig)
        root = str(tmp_path / f"ck{i}")
        runs, found = [], []
        for resume in (None, False, True):
            if resume:
                for stage in ("findings", "clusters"):
                    shutil.rmtree(os.path.join(root, stage))
            ck = None if resume is None else root
            runs.append(scan(ray.data.from_arrow(files), config, ck))
            # read now: a checkpointed result reads the files the next
            # run replaces
            found.append(_sorted_findings(runs[-1]))
        assert [r.stats["checkpoint"]["pairs"] for r in runs] == [
            "streamed", "miss", "hit"
        ]
        assert [r.stats["plan"]["findings"]["exchange"] for r in runs] == [
            "unit_pair", "pair_key", "pair_key"
        ]
        streamed, *persisted = found
        assert streamed.num_rows > 0
        for table in persisted:
            assert table.cast(streamed.schema).equals(streamed)
        for r in runs[1:]:
            assert r.stats["counts"] == runs[0].stats["counts"]
            assert r.stats["lsh"] == runs[0].stats["lsh"]
        if sig.skew_mode == "star":
            assert runs[0].stats["lsh"]["lsh_buckets_capped"] > 0
