"""The signature stages run as plain ``map_batches`` tasks over a
per-process stage cache (``util.cached_stage``): the cache key must tell
configs apart, the removed pool knob must stay rejected, and a
``read_parquet``-fed scan must finish on a one-CPU session, where an
actor pool used to hold the only CPU and starve the read."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pyarrow as pa
import pytest

from clonehunter_ray.config import SignatureConfig
from clonehunter_ray.config_loader import ConfigError, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TEXTS = [
    "def f(x):\n    return x + 1",
    "",
    None,
    "the quick brown fox jumps over the lazy dog " * 6,
    "alpha beta gamma delta epsilon zeta eta theta",
]


def _batch(id_col: str) -> pa.Table:
    ids = (
        pa.array([f"s{i}" for i in range(len(_TEXTS))])
        if id_col == "snippet_id"
        else pa.array(range(len(_TEXTS)), pa.int64())
    )
    return pa.table({id_col: ids, "text": pa.array(_TEXTS, pa.string())})


def test_signatures_task_cache_keys_on_config():
    """Interleaved calls with differing configs each give exactly a
    fresh ``SignatureStage``'s output: a key that ignored ``num_perm``,
    ``seed`` or ``shingle_k`` would reuse the wrong hasher."""
    from clonehunter_ray.stages.signatures import SignatureStage, signatures_task

    batch = _batch("snippet_id")
    configs = [
        SignatureConfig(),
        SignatureConfig(num_perm=64, num_bands=8, band_rows=8),
        SignatureConfig(seed=7),
        SignatureConfig(shingle_k=2),
    ]
    fresh = [SignatureStage(c, emit_token_seq=True)(batch) for c in configs]
    assert all(not fresh[0].equals(f) for f in fresh[1:])
    for _ in range(2):
        for cfg, want in zip(configs, fresh):
            assert signatures_task(batch, cfg, emit_token_seq=True).equals(want)
    no_seq = signatures_task(batch, configs[0], emit_token_seq=False)
    assert "token_seq" not in no_seq.column_names
    assert no_seq.equals(fresh[0].drop(["token_seq"]))


@pytest.mark.parametrize("emit_token_seq", [False, True])
def test_sign_once_equals_per_row_stage(emit_token_seq):
    """``SignatureStage`` runs its kernels once per distinct text and
    takes each row back by its dictionary index: on a two-chunk batch
    with repeated, empty and None texts, every column equals the stage
    run on each row alone."""
    from clonehunter_ray.stages.signatures import SignatureStage

    texts = [_TEXTS[i] for i in (0, 1, 2, 0, 4, 2, 3, 1, 4, 0, 3)]
    batch = pa.table(
        {
            "snippet_id": pa.array([f"s{i}" for i in range(len(texts))]),
            "kind": pa.array(["FUNC", "WIN"] * 5 + ["WIN"]),
            "text": pa.array(texts, pa.string()),
        }
    )
    batch = pa.concat_tables([batch.slice(0, 4), batch.slice(4)])
    assert batch["text"].num_chunks == 2
    stage = SignatureStage(SignatureConfig(), emit_token_seq)
    want = pa.concat_tables(
        [stage(batch.slice(i, 1)) for i in range(batch.num_rows)]
    )
    got = stage(batch)
    assert got.schema == want.schema
    assert got.equals(want)
    assert ("token_seq" in got.column_names) == emit_token_seq


def test_doc_signatures_task_cache_keys_on_config_and_emit():
    from clonehunter_ray.pipelines.dedup import (
        DocSignatureStage,
        doc_signatures_task,
    )

    batch = _batch("doc_id")
    doc = SignatureConfig(shingle_k=5, num_bands=32, band_rows=4)
    other = SignatureConfig(shingle_k=3, num_bands=32, band_rows=4, seed=1)
    cases = [
        (doc, ("shingles", "bands")),
        (doc, ("simhash",)),
        (other, ("shingles", "bands")),
    ]
    fresh = [DocSignatureStage(c, emit)(batch) for c, emit in cases]
    assert not fresh[0].equals(fresh[2])
    for _ in range(2):
        for (cfg, emit), want in zip(cases, fresh):
            assert doc_signatures_task(batch, cfg, emit).equals(want)


def test_cached_stage_is_bounded(monkeypatch):
    from clonehunter_ray import util

    monkeypatch.setattr(util, "_STAGES", {})
    first = util.cached_stage(tuple, (0,))
    assert util.cached_stage(tuple, (0,)) is first
    for i in range(1, util._STAGES_MAX + 1):
        util.cached_stage(tuple, (i,))
    assert len(util._STAGES) <= util._STAGES_MAX


@pytest.mark.parametrize("key", ["exec.signature_actors", "exec.batch_size"])
def test_config_loader_rejects_signature_actors(tmp_path, key):
    """Removed exec knobs are unknown keys to the strict loader."""
    with pytest.raises(ConfigError, match=key):
        load_config(str(tmp_path), {key: 4})


_ONE_CPU_SCAN = textwrap.dedent(
    """
    import sys

    import pyarrow.parquet as pq
    import ray
    import ray.data

    from clonehunter_ray.config import EngineConfig
    from clonehunter_ray.corpus import generate_corpus
    from clonehunter_ray.pipelines.scan import scan

    files, _ = generate_corpus(200, 42)
    pq.write_table(files, sys.argv[1])
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    ray.data.DataContext.get_current().enable_progress_bars = False
    res = scan(ray.data.read_parquet(sys.argv[1]), EngineConfig())
    print(res.findings.count())
    ray.shutdown()
    """
)


def test_read_parquet_scan_finishes_on_one_cpu(tmp_path):
    """A 200-file ``read_parquet``-fed scan in its own ``num_cpus=1``
    session. With the signature stage as an actor pool the one actor
    held the only CPU, the read never ran and the scan hung."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCAN, str(tmp_path / "files.parquet")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": ROOT},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("one-CPU read_parquet scan gave no result within 60 s")
    assert proc.returncode == 0, err[-2000:]
    assert int(out.strip().splitlines()[-1]) > 0
