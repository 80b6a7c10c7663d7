"""The one size/kind upper-bound gate (stages/verify.size_kind_gate),
fed by ``pre_gate_pairs`` from attached ``a_``/``b_`` columns: attached
directly, or range-taken by sid from a sid index (``attach_sids``, the
scan's feeder).

Verification no longer repeats the bound, so it must be implied by the
exact checks: every pair ``verify_pairs_batch`` accepts passes the gate,
over random sizes (empty sides included), kinds, ``lexical_min_ratio``
and the substring floor."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from clonehunter_ray.config import SubstringConfig, Thresholds
from clonehunter_ray.stages.candidates import attach_sids, pre_gate_pairs, sid_index
from clonehunter_ray.stages.verify import verify_pairs_batch

KINDS = ["FUNC", "WIN", "EXP"]
THRESHOLDS = [
    Thresholds(),
    Thresholds(func=0.6, win=0.5, exp=0.4, lexical_min_ratio=0.0),
    Thresholds(func=0.5, win=0.45, exp=0.3, lexical_min_ratio=0.5, lexical_weight=0.5),
]
SUBSTRING = [None, SubstringConfig(enabled=True, floor=0.2, min_ratio=0.5)]


def _blob(vals) -> bytes:
    return np.unique(np.asarray(vals, dtype=np.uint64)).tobytes()


def _side(seq: np.ndarray) -> dict:
    """Sorted-set blobs and sizes of one token sequence (3-shingles)."""
    sh = [int(seq[i]) * 144 + int(seq[i + 1]) * 12 + int(seq[i + 2])
          for i in range(len(seq) - 2)]
    return {
        "shingles": _blob(sh),
        "tokens": _blob(seq),
        "token_seq": seq.astype(np.uint64).tobytes(),
        "n_shingles": len(set(sh)),
        "n_tokens": len(set(seq.tolist())),
    }


def _sequences(rng, n: int) -> list[np.ndarray]:
    """``n`` (a, b) token sequences over a 12-token vocabulary: equal,
    unrelated, prefix, extension or point-edited pairs."""
    seqs = []
    for _ in range(n):
        a = rng.integers(0, 12, size=rng.integers(0, 16))
        mode = rng.integers(0, 5)
        if mode == 0:
            b = a.copy()
        elif mode == 1:
            b = rng.integers(0, 12, size=rng.integers(0, 16))
        elif mode == 2:
            b = a[: rng.integers(0, len(a) + 1)]
        elif mode == 3:
            b = np.concatenate([a, rng.integers(0, 12, size=rng.integers(0, 8))])
        else:
            b = a.copy()
            if len(b):
                b[rng.integers(0, len(b), size=2)] = rng.integers(0, 12, size=2)
        seqs += [a, b]
    return seqs


def _payload(seed: int, n: int) -> pa.Table:
    """One row per side: sid = row index, snippet i*2 and i*2+1 paired."""
    rng = np.random.default_rng(seed)
    sides = [_side(s) for s in _sequences(rng, n)]
    cols = {c: [s[c] for s in sides] for c in sides[0]}
    m = len(sides)
    return pa.table(
        {
            "snippet_id": [f"s{i:04d}" for i in range(m)],
            "kind": [KINDS[k] for k in rng.integers(0, 3, size=m)],
            "unit_id": [f"u{i:04d}" for i in range(m)],
            "path": [f"p{i:04d}.py" for i in range(m)],
            "qualified_name": [f"q{i}" for i in range(m)],
            "unit_start": pa.array([1] * m, pa.int32()),
            "unit_end": pa.array([20] * m, pa.int32()),
            "start_line": pa.array([1] * m, pa.int32()),
            "end_line": pa.array([20] * m, pa.int32()),
            "shingles": pa.array(cols["shingles"], pa.binary()),
            "tokens": pa.array(cols["tokens"], pa.binary()),
            "token_seq": pa.array(cols["token_seq"], pa.binary()),
            "n_shingles": pa.array(cols["n_shingles"], pa.int32()),
            "n_tokens": pa.array(cols["n_tokens"], pa.int32()),
        }
    )


def _attached(payload: pa.Table, a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Pairs of sids with both sides' payload columns, as the scan's
    attaches produce them (ids are snippet ids)."""
    a_side = payload.take(pa.array(a, pa.int64()))
    b_side = payload.take(pa.array(b, pa.int64()))
    cols = {
        "a_id": a_side["snippet_id"],
        "b_id": b_side["snippet_id"],
        "capped": pa.array([False] * len(a)),
    }
    for c in payload.column_names[1:]:
        cols[f"a_{c}"], cols[f"b_{c}"] = a_side[c], b_side[c]
    return pa.table(cols)


def _ids(t: pa.Table) -> set:
    return {
        frozenset(p) for p in zip(t["a_id"].to_pylist(), t["b_id"].to_pylist())
    }


@pytest.mark.parametrize("substring", SUBSTRING, ids=["plain", "substring"])
@pytest.mark.parametrize("thresholds", THRESHOLDS, ids=["default", "low", "lexical"])
@pytest.mark.parametrize("seed", [0, 1])
def test_verify_accepts_only_gate_survivors(seed, thresholds, substring):
    payload = _payload(seed, 300)
    sid = np.arange(payload.num_rows)
    batch = _attached(payload, sid[0::2], sid[1::2])
    floor = substring.floor if substring else None

    accepted = _ids(verify_pairs_batch(batch, thresholds, substring))
    gated = _ids(pre_gate_pairs(batch, thresholds, floor))
    assert accepted <= gated
    # not vacuous: verify accepts pairs, and the gate drops some
    assert accepted and len(gated) < batch.num_rows


@pytest.mark.parametrize("floor", [None, 0.2])
@pytest.mark.parametrize("thresholds", THRESHOLDS, ids=["default", "low", "lexical"])
def test_sid_and_column_feeders_agree(ray_session, thresholds, floor):
    payload = _payload(7, 200)
    rng = np.random.default_rng(3)
    a = rng.integers(0, payload.num_rows, size=2000)
    b = rng.integers(0, payload.num_rows, size=2000)
    # the payload in three blocks, so the sids cross block boundaries
    index = sid_index(
        ray.data.from_arrow([payload.slice(0, 70), payload.slice(70, 60), payload.slice(130)])
    )
    by_sid = pre_gate_pairs(
        attach_sids(
            pa.table({"a_id": pa.array(a, pa.int32()), "b_id": pa.array(b, pa.int32())}),
            index,
            ["kind", "n_shingles", "n_tokens"],
        ),
        thresholds,
        floor,
    )
    by_col = pre_gate_pairs(_attached(payload, a, b), thresholds, floor)
    names = payload["snippet_id"]
    assert by_col["a_id"].to_pylist() == names.take(by_sid["a_id"]).to_pylist()
    assert by_col["b_id"].to_pylist() == names.take(by_sid["b_id"]).to_pylist()
    assert 0 < by_sid.num_rows < len(a)
