"""Round-2 features: capped-bucket salted re-band recall, scan stats /
timing parity, HTML diff viewer, config surface additions."""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pytest


def _emit_table(n_docs: int) -> pa.Table:
    """One synthetic hot LSH bucket: every doc shares one band_key."""
    return pa.table(
        {
            "band_key": pa.array([7] * n_docs, pa.uint64()),
            "doc_id": pa.array(list(range(n_docs)), pa.int64()),
        }
    )


def _pair_set(t: pa.Table) -> set[tuple[int, int]]:
    return set(zip(t["a_id"].to_pylist(), t["b_id"].to_pylist()))


def test_salted_reband_recovers_capped_bucket_pairs():
    """A hot bucket (60 members, 1770 pairs > cap 256): star mode loses
    spoke-spoke pairs; salted re-band recovers >=99% of all pairs."""
    from clonehunter_ray.stages.candidates import emit_pairs_partition

    n = 60
    want = {(i, j) for i in range(n) for j in range(i + 1, n)}

    star = emit_pairs_partition(_emit_table(n), "doc_id", 256, "star", 6)
    star_pairs = _pair_set(star)
    assert star_pairs == {(0, j) for j in range(1, n)}  # hub-spoke only
    assert all(star["capped"].to_pylist())

    salted = emit_pairs_partition(_emit_table(n), "doc_id", 256, "salted", 16)
    got = _pair_set(salted)
    recall = len(got & want) / len(want)
    assert recall >= 0.99, f"salted recall {recall:.4f}"
    assert got <= want  # only canonical a<b pairs, no inventions
    assert all(salted["capped"].to_pylist())  # accounting flag intact

    full = emit_pairs_partition(_emit_table(n), "doc_id", 256, "full", 6)
    assert _pair_set(full) == want
    assert not any(full["capped"].to_pylist())


def test_salted_reband_indexed_variant():
    from clonehunter_ray.stages.candidates import salted_bucket_pairs_int

    bucket = np.arange(80, dtype=np.int64)
    want = {(i, j) for i in range(80) for j in range(i + 1, 80)}
    a, b = salted_bucket_pairs_int(bucket, cap=256, rounds=16)
    got = set(zip(a, b))
    assert got <= want
    assert len(got & want) / len(want) >= 0.99
    # deterministic across calls (fixed salts, no process state)
    a2, b2 = salted_bucket_pairs_int(bucket, cap=256, rounds=16)
    assert (a, b) == (a2, b2)


def test_minhash_dedup_hot_bucket_recall_with_cap(ray_session):
    """End-to-end: 60 near-identical docs (one hot cluster) + filler.
    With the cap engaged (1770 pairs > 1024) the salted default still
    verifies >=99% of the true duplicate pairs, and the capped flag
    rides through to the verified output."""
    import ray.data

    from clonehunter_ray.config import SignatureConfig
    from clonehunter_ray.pipelines.dedup import minhash_dedup_pairs

    base = (
        "the quick brown fox jumps over the lazy dog and then "
        "runs far away into the deep dark forest looking for food "
    ) * 4
    # identical texts: every band bucket holds all 60 docs with hub 0,
    # so star mode emits exactly the 59 spoke edges
    texts = [base for _ in range(60)]
    texts += [f"completely different text number {i} " * 10 for i in range(20)]
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(len(texts))), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    want = {(i, j) for i in range(60) for j in range(i + 1, 60)}

    cfg = SignatureConfig(
        shingle_k=5, num_bands=32, band_rows=4, skew_mode="salted",
        salt_rounds=16,
    )
    pairs = minhash_dedup_pairs(docs, threshold=0.8, config=cfg).to_pandas()
    got = set(zip(pairs["a_id"], pairs["b_id"]))
    assert len(got & want) / len(want) >= 0.99
    assert pairs["capped"].any()  # the hot bucket was indeed capped

    star_cfg = SignatureConfig(
        shingle_k=5, num_bands=32, band_rows=4, skew_mode="star"
    )
    star = minhash_dedup_pairs(docs, threshold=0.8, config=star_cfg).to_pandas()
    # star keeps connectivity but drops spoke-spoke pairs
    star_got = set(zip(star["a_id"], star["b_id"]))
    assert len(star_got) < len(got)


def test_scan_stats_block(ray_session, tiny_corpus):
    """ScanResult.stats carries timing / counts / lsh / checkpoint
    blocks (reference core/pipeline.py:124-247 ScanStats parity)."""
    import ray.data

    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.pipelines.scan import scan

    files, _ = tiny_corpus
    res = scan(ray.data.from_arrow(files), EngineConfig())
    stats = res.stats
    for stage in ("signatures", "pairs", "findings", "clustering", "total"):
        assert stats["timing"][stage] >= 0
    assert stats["counts"]["snippets"] > 0
    assert stats["counts"]["findings"] == res.findings.count()
    # streamed pairs: the count is tallied in-stream by the metrics
    # actor, and must agree with an actual count of the lazy dataset
    assert stats["counts"]["verified_pairs"] == res.pairs.count()
    assert stats["lsh"]["lsh_buckets_multi"] > 0
    assert "lsh_buckets_capped" in stats["lsh"]
    assert "verified_pairs" not in stats["lsh"]
    assert stats["checkpoint"] == {
        "signatures": "memory", "pairs": "streamed", "findings": "memory"
    }


def test_html_report_diff_viewer(tmp_path):
    from clonehunter_ray import reporting

    finding = {
        "pair_key": "a.py:f:1:5||b.py:g:1:5",
        "unit_a": "a.py:f:1:5",
        "unit_b": "b.py:g:1:5",
        "path_a": "a.py",
        "path_b": "b.py",
        "qual_a": "f",
        "qual_b": "g",
        "score": 0.97,
        "duplicated_lines": 5,
        "reasons": ["func_threshold"],
        "n_evidence": 2,
        "best_evidence": "FUNC->FUNC|jac=0.97",
    }
    out = tmp_path / "r.html"
    reporting.write_html_report(
        [finding],
        str(out),
        unit_code={
            "a.py:f:1:5": "def f():\n    x = 1\n    return x",
            "b.py:g:1:5": "def g():\n    y = 1\n    return y",
        },
    )
    html = out.read_text()
    assert "class='sbs'" in html  # side-by-side diff table present
    assert "has-diff" in html
    assert "x = 1" in html and "y = 1" in html
    assert "rep" in html  # replace rows marked
    # without unit_code: plain sortable table, no diff machinery
    out2 = tmp_path / "r2.html"
    reporting.write_html_report([finding], str(out2))
    html2 = out2.read_text()
    assert "<table class='sbs'>" not in html2
    assert "class='f has-diff'" not in html2


def test_side_by_side_rows_opcodes():
    from clonehunter_ray.reporting import _side_by_side_rows

    rows = _side_by_side_rows("a\nb\nc", "a\nx\nc\nd", start_a=10, start_b=20)
    assert ("eq", 10, "a", 20, "a") in rows
    assert ("rep", 11, "b", 21, "x") in rows
    assert ("ins", "", "", 23, "d") in rows


def test_side_by_side_rows_fold_long_equal_runs():
    """Unchanged runs longer than the fold threshold collapse into a
    '<N lines not shown>' row with context kept on each edge (reference
    html_reporter.py:300-312 hidden-row parity)."""
    from clonehunter_ray.reporting import _side_by_side_rows

    same = [f"line{i}" for i in range(20)]
    a = "\n".join(["left only"] + same + ["tail a"])
    b = "\n".join(["right only"] + same + ["tail b"])
    rows = _side_by_side_rows(a, b)
    folds = [r for r in rows if r[0] == "fold"]
    assert len(folds) == 1
    assert "lines not shown>" in folds[0][2]
    # 3 context lines survive on each side of the fold
    kept = [r[2] for r in rows if r[0] == "eq"]
    assert kept[:3] == ["line0", "line1", "line2"]
    assert kept[-3:] == ["line17", "line18", "line19"]
    hidden = int(folds[0][2].split("<")[1].split(" ")[0])
    assert hidden == 20 - 6


def test_html_diff_has_line_numbers_and_fold(tmp_path):
    from clonehunter_ray import reporting

    body = "\n".join(f"    x{i} = {i}" for i in range(15))
    finding = {
        "pair_key": "a.py:f:40:56||b.py:g:7:23",
        "unit_a": "a.py:f:40:56",
        "unit_b": "b.py:g:7:23",
        "path_a": "a.py",
        "path_b": "b.py",
        "qual_a": "f",
        "qual_b": "g",
        "score": 0.97,
        "duplicated_lines": 15,
        "reasons": ["func_threshold"],
        "n_evidence": 2,
        "best_evidence": "FUNC->FUNC|jac=0.97",
    }
    out = tmp_path / "r.html"
    reporting.write_html_report(
        [finding],
        str(out),
        unit_code={
            "a.py:f:40:56": f"def f():\n{body}\n    return x0",
            "b.py:g:7:23": f"def g():\n{body}\n    return x1",
        },
    )
    html = out.read_text()
    # line numbers from the unit spans: a starts at 40, b at 7
    assert "<td class='ln'>40</td>" in html
    assert "<td class='ln'>7</td>" in html
    # the 15 identical body lines fold, 3 context lines kept each side
    assert "lines not shown&gt;" in html
    assert "class='fold'" in html


def test_config_loader_accepts_expansion_group(tmp_path):
    from clonehunter_ray.config_loader import load_config

    (tmp_path / "pyproject.toml").write_text(
        "[tool.clonehunter_ray.expansion]\nenabled = true\ndepth = 2\n"
    )
    cfg = load_config(str(tmp_path))
    assert cfg.expansion.enabled and cfg.expansion.depth == 2
    # CLI-style dotted override still wins
    cfg2 = load_config(str(tmp_path), {"expansion.enabled": False})
    assert not cfg2.expansion.enabled


def test_env_override_layer():
    """Env-var escape hatch (reference cli/commands/overrides.py:6-42):
    pyproject < CLONEHUNTER_RAY_* < CLI."""
    from clonehunter_ray.config_loader import ConfigError, load_config

    cfg = load_config(
        None,
        None,
        {
            "CLONEHUNTER_RAY_THRESHOLDS__FUNC": "0.8",
            "CLONEHUNTER_RAY_SUBSTRING__ENABLED": "true",
            "CLONEHUNTER_RAY_SIGNATURE__SALT_ROUNDS": "9",
            "IRRELEVANT_VAR": "ignored",
        },
    )
    assert cfg.thresholds.func == 0.8
    assert cfg.substring.enabled
    assert cfg.signature.salt_rounds == 9
    cli_wins = load_config(
        None,
        {"thresholds.func": 0.85},
        {"CLONEHUNTER_RAY_THRESHOLDS__FUNC": "0.8"},
    )
    assert cli_wins.thresholds.func == 0.85
    with pytest.raises(ConfigError):
        load_config(None, None, {"CLONEHUNTER_RAY_BOGUS__KEY": "1"})


def test_config_skew_mode_validation():
    from clonehunter_ray.config import SignatureConfig

    SignatureConfig(skew_mode="full").validate()
    with pytest.raises(ValueError):
        SignatureConfig(skew_mode="bogus").validate()


def test_multi_root_path_disambiguation(tmp_path):
    """Two roots with identical relative paths must not collide in
    unit identity (path-keyed, stages/extract.py:43)."""
    from clonehunter_ray import sources

    for root in ("left", "right"):
        d = tmp_path / root / "src"
        d.mkdir(parents=True)
        (d / "a.py").write_text(f"def f_{root}():\n    return 1\n")
    t = sources.files_from_directory(
        [str(tmp_path / "left"), str(tmp_path / "right")]
    )
    paths = sorted(t["path"].to_pylist())
    assert len(paths) == len(set(paths)) == 2
    assert {p.split("/", 1)[0] for p in paths} == {"left", "right"}
    assert sorted(set(t["repo"].to_pylist())) == ["left", "right"]


def test_cli_json_report_stats_and_compare(ray_session, tmp_path):
    """CLI JSON report embeds the engine stats/timing blocks and, with
    --compare, per-finding unified diffs (reference json_reporter
    compare block, reporting parity)."""
    from clonehunter_ray import cli

    code = (
        "def alpha(n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total += i * i\n"
        "        total -= i\n"
        "    return total\n"
    )
    src = tmp_path / "proj"
    src.mkdir()
    (src / "m1.py").write_text(code)
    (src / "m2.py").write_text(code)  # verbatim clone across files
    out = tmp_path / "report.json"
    rc = cli.main(
        ["scan", str(src), "--out", str(out), "--format", "json", "--compare"]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["stats"]["finding_count"] >= 1
    assert payload["stats"]["timing"]["total"] > 0
    assert "lsh" in payload["stats"]
    assert payload["stats"]["checkpoint"]
    assert payload["timing"]  # top-level timing block
    diffs = [f for f in payload["findings"] if "compare" in f]
    assert diffs and "unified_diff" in diffs[0]["compare"]


def test_streaming_scan_zero_pairs_reports_zero(ray_session):
    """A clone-free corpus in streaming mode (no checkpoint root) emits
    only empty pair blocks, so the in-stream tally never fires — the
    stats must report verified_pairs 0, not a -1 sentinel."""
    import pyarrow as pa_
    import ray.data as rd

    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.pipelines.scan import scan

    files = pa_.table(
        {
            "repo": pa_.array(["r"] * 4),
            "path": pa_.array([f"u{i}.py" for i in range(4)]),
            "commit": pa_.array(["c"] * 4),
            "lang": pa_.array(["python"] * 4),
            "content": pa_.array(
                [
                    "\n".join(
                        f"def f{i}_{j}(x):\n    return x * {i * 97 + j} + {i + j}"
                        for j in range(3)
                    )
                    for i in range(4)
                ]
            ),
        }
    )
    res = scan(rd.from_arrow(files), EngineConfig())
    assert res.findings.count() == 0
    assert res.stats["counts"]["verified_pairs"] == 0


def test_scan_materialize_pairs_not_streamed(ray_session, tiny_corpus):
    """exec.materialize_pairs=True (the CLI --save-tables path) must
    barrier the pair stage so ScanResult.pairs is reusable without
    re-running the band shuffle."""
    import ray.data as rd

    from clonehunter_ray.config import EngineConfig, ExecConfig
    from clonehunter_ray.pipelines.scan import scan

    files, _ = tiny_corpus
    res = scan(
        rd.from_arrow(files),
        EngineConfig(exec=ExecConfig(materialize_pairs=True)),
    )
    assert res.stats["checkpoint"]["pairs"] != "streamed"
    # pairs is concretely countable and agrees with the tallied stat
    assert res.pairs.count() == res.stats["counts"]["verified_pairs"]


def test_side_by_side_folds_long_changed_runs():
    """Long replace/delete/insert runs fold their middle like equal runs
    do — a mostly-different pair of big units must not render thousands
    of rows."""
    from clonehunter_ray.reporting import _side_by_side_rows

    a = "\n".join(f"left only line {i}" for i in range(400))
    b = "\n".join(f"right only line {i}" for i in range(400))
    rows = _side_by_side_rows(a, b)
    assert len(rows) < 50
    assert any(r[0] == "fold" and "changed lines" in r[2] for r in rows)


def test_broadcast_handle_survives_schemaless_empty_blocks(ray_session):
    """A filter over empty input blocks emits SCHEMA-LESS empty blocks
    (zero columns — Ray skips the UDF); the plasma broadcast combiner
    must drop them instead of crashing on the column select. This is
    the sf0.1 shape: a doc_id < N filter empties most read blocks."""
    import pyarrow as pa
    import ray
    import ray.data

    from clonehunter_ray.stages.candidates import (
        get_broadcast_payload,
        make_broadcast_handle,
    )

    t = pa.table(
        {
            "doc_id": pa.array(range(100), pa.int64()),
            "payload": pa.array([f"p{i}" for i in range(100)], pa.string()),
        }
    )
    # 16 blocks, filter keeps only the first ~12 rows -> most blocks
    # come back empty and schema-less
    ds = (
        ray.data.from_arrow(t)
        .repartition(16)
        .filter(expr="doc_id < 12")
        .map_batches(lambda b: b, batch_format="pyarrow")
        .materialize()
    )
    refs = ray.get(ds.to_arrow_refs())
    assert any(len(r.column_names) == 0 for r in refs), (
        "expected schema-less empty blocks in this Ray version; "
        "if this stops holding, the combiner guard is untestable here"
    )
    handle = make_broadcast_handle(ds, ["doc_id", "payload"], key_col="doc_id")
    payload, idx = get_broadcast_payload(handle)
    assert payload.num_rows == 12
    assert idx[5] == payload["doc_id"].to_pylist().index(5)
    assert payload["payload"][idx[7]].as_py() == "p7"


def test_capped_bucket_scan_deterministic_across_runs(ray_session):
    """Run-to-run determinism THROUGH a capped hot bucket on the
    broadcast path: the hub sid / salted sub-bucket assignment derives
    from the combined payload's row order, which is only deterministic
    because combine_payload_blocks sorts by the key column (block
    arrival order is not stable). Two scans over a corpus with a
    boilerplate hot bucket must emit identical findings."""
    import pyarrow as pa
    import ray.data

    from clonehunter_ray.config import EngineConfig, SignatureConfig
    from clonehunter_ray.pipelines.scan import scan

    # 60 near-identical files (one hot clone family -> capped bucket)
    # plus filler; tiny cap forces the star/salt path
    base = (
        "def hot(a, b):\n"
        "    total = a + b\n"
        "    prod = a * b\n"
        "    ratio = total / (prod + 1)\n"
        "    return total, prod, ratio\n"
    )
    rows = []
    for i in range(60):
        rows.append(
            {
                "repo": f"r{i % 5}",
                "path": f"src/hot_{i:03d}.py",
                "commit": "c0",
                "lang": "python",
                "content": base + f"\n# tail {i % 3}\n",
            }
        )
    files = pa.Table.from_pylist(rows)
    cfg = EngineConfig(
        signature=SignatureConfig(max_bucket_pairs_full=8, skew_mode="salted")
    )

    def run():
        res = scan(ray.data.from_arrow(files), cfg)
        df = res.findings.to_pandas()
        return sorted(df["pair_key"].tolist())

    first = run()
    assert len(first) > 0
    assert first == run()
