"""Partitioned rollup equals per-group rollup."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clonehunter_ray.config import Thresholds
from clonehunter_ray.stages.candidates import _with_part
from clonehunter_ray.stages.rollup import (
    FINDINGS_SCHEMA,
    _kind_rank,
    rollup_group,
    rollup_partition,
)
from clonehunter_ray.stages.verify import PAIRS_SCHEMA


def _pair_row(pair_key, unit_a, unit_b, kind, comp, a_span=(1, 10), b_span=(1, 10)):
    return {
        "pair_key": pair_key,
        "a_id": "a",
        "b_id": "b",
        "unit_a": unit_a,
        "unit_b": unit_b,
        "kind_a": kind,
        "kind_b": kind,
        "path_a": "p1",
        "path_b": "p2",
        "qual_a": "f",
        "qual_b": "g",
        "ua_start": 1,
        "ua_end": 20,
        "ub_start": 1,
        "ub_end": 20,
        "a_start": a_span[0],
        "a_end": a_span[1],
        "b_start": b_span[0],
        "b_end": b_span[1],
        "jaccard": comp,
        "lexical": comp,
        "composite": comp,
        "substr_ratio": 0.0,
        "evidence": "e",
    }


def _per_group(table: pa.Table, th: Thresholds) -> list[dict]:
    """The oracle: ``rollup_group`` over each pair_key group, rows in
    table order, findings in pair_key order."""
    keys = table["pair_key"].to_pylist()
    out = []
    for key in sorted(set(keys)):
        rows = pa.array([i for i, k in enumerate(keys) if k == key], pa.int64())
        out.extend(rollup_group(table.take(rows), th).to_pylist())
    return out


def test_rollup_partition_matches_per_group():
    rows = []
    for g in range(17):
        key = f"u{g}||v{g}"
        rows.append(_pair_row(key, f"u{g}", f"v{g}", "FUNC", 0.95))
        rows.append(
            _pair_row(key, f"u{g}", f"v{g}", "WIN", 0.91, (11, 20), (11, 20))
        )
    # one group below every gate: produces no finding
    rows.append(_pair_row("x||y", "x", "y", "FUNC", 0.5))
    table = pa.Table.from_pylist(rows, schema=PAIRS_SCHEMA)
    th = Thresholds()
    expected = sorted(_per_group(table, th), key=lambda r: r["pair_key"])

    # actual: the rollup's pair_key partitioner, then one call per part
    parted = _with_part(table, ["pair_key"], 4)
    got = []
    for p in range(4):
        mask = pa.array([v == p for v in parted["part"].to_pylist()])
        sub = parted.filter(mask)
        if sub.num_rows:
            got.extend(rollup_partition(sub, th).to_pylist())
    got.sort(key=lambda r: r["pair_key"])

    assert len(got) == len(expected) == 17
    for a, b in zip(got, expected):
        assert a == b


def _random_partition(rng: np.random.Generator, n: int) -> pa.Table:
    """``n`` verified-pair rows over a few unit pairs, drawn from small
    value sets so that span keys repeat, composites and kind ranks tie
    exactly (FUNC/WIN and WIN/FUNC share rank 2, EXP/EXP and EXP/WIN
    share 0), spans overlap, touch or leave gaps, and some rows carry a
    substring ratio."""
    kinds = np.array(["FUNC", "WIN", "EXP"])
    units = [("m:a", "m:b"), ("m:a", "m:a"), ("n:c", "q:d"), ("r:e", "s:f")]
    pick = rng.integers(0, len(units), n)
    a_s = rng.integers(1, 4, n)
    b_s = rng.integers(1, 4, n)
    ka, kb = kinds[rng.integers(0, 3, n)], kinds[rng.integers(0, 3, n)]
    comp = rng.choice([0.5, 0.8, 0.9, 1.0], n)
    a_e = a_s + rng.integers(0, 3, n)
    b_e = b_s + rng.integers(0, 3, n)
    for i in range(1, n):
        if rng.random() < 0.4:  # repeat an earlier row's span key
            j = int(rng.integers(0, i))
            pick[i], a_s[i], a_e[i], b_s[i], b_e[i] = (
                pick[j], a_s[j], a_e[j], b_s[j], b_e[j]
            )
    rows = []
    for i in range(n):
        ua, ub = units[pick[i]]
        rows.append(
            {
                "pair_key": f"{ua}||{ub}",
                "a_id": f"s{i}a",
                "b_id": f"s{i}b",
                "unit_a": ua,
                "unit_b": ub,
                "kind_a": ka[i],
                "kind_b": kb[i],
                "path_a": f"/{ua[0]}.py",
                "path_b": f"/{ub[0]}.py",
                "qual_a": ua,
                "qual_b": ub,
                "ua_start": 1,
                "ua_end": 40,
                "ub_start": 1,
                "ub_end": 40,
                "a_start": int(a_s[i]),
                "a_end": int(a_e[i]),
                "b_start": int(b_s[i]),
                "b_end": int(b_e[i]),
                "jaccard": float(comp[i]),
                "lexical": float(comp[i]),
                "composite": float(comp[i]),
                "substr_ratio": (
                    float(rng.choice([0.0, 0.0, 0.0, 0.7]))
                    if rng.random() < 0.9
                    else None
                ),
                "evidence": f"ev{i}",
            }
        )
    return pa.Table.from_pylist(rows, schema=PAIRS_SCHEMA)


def test_rollup_partition_matches_rollup_group_on_random_partitions():
    """The Arrow kernel against the per-group loop on random partitions:
    exact composite and kind-rank ties, repeated span keys (the first
    row of the best wins, best_evidence is the first maximum in
    first-occurrence order of the span keys), adjacent and overlapping
    spans, EXP and substring reasons, and ``min_window_hits`` at, above
    and below the group's WIN count."""
    rng = np.random.default_rng(20261019)
    reasons = set()
    ties = 0
    for trial in range(300):
        table = _random_partition(rng, int(rng.integers(1, 60)))
        th = Thresholds(
            func=float(rng.choice([0.8, 0.85])),
            exp=float(rng.choice([0.8, 0.9])),
            min_window_hits=int(rng.integers(0, 5)),
        )
        want = _per_group(table, th)
        got = rollup_partition(table, th)
        assert got.schema.equals(FINDINGS_SCHEMA)
        assert got.to_pylist() == want, trial
        reasons.update(r for f in want for r in f["reasons"])
        ties += _has_exact_tie(table)
    assert reasons == {
        "func_threshold", "exp_threshold", "min_window_hits", "substring_match"
    }
    assert ties >= 150


def _has_exact_tie(table: pa.Table) -> bool:
    """Whether two rows share a span key, a composite and a kind rank,
    so only their order decides which one the dedup keeps."""
    seen = set()
    for r in table.to_pylist():
        key = (
            r["unit_a"], r["a_start"], r["a_end"],
            r["unit_b"], r["b_start"], r["b_end"],
            r["composite"], _kind_rank(r["kind_a"], r["kind_b"]),
        )
        if key in seen:
            return True
        seen.add(key)
    return False


def test_rollup_partition_min_window_hits_boundary():
    """A group with exactly ``min_window_hits`` distinct WIN spans gets
    the reason; one span fewer does not, and the group drops out."""
    rows = [
        _pair_row("u||v", "u", "v", "WIN", 0.5, (s, s + 4), (s, s + 4))
        for s in (1, 6, 11)
    ]
    # a repeat of the first span key does not count twice
    rows.append(_pair_row("u||v", "u", "v", "WIN", 0.4, (1, 5), (1, 5)))
    table = pa.Table.from_pylist(rows, schema=PAIRS_SCHEMA)
    hit = rollup_partition(table, Thresholds(min_window_hits=3)).to_pylist()
    assert [f["reasons"] for f in hit] == [["min_window_hits"]]
    # the three spans touch end to end: one merged interval of 15 lines
    assert hit[0]["duplicated_lines"] == 15
    assert hit[0]["n_evidence"] == 3
    assert rollup_partition(table, Thresholds(min_window_hits=4)).num_rows == 0


def test_rollup_partition_empty():
    empty = pa.Table.from_pydict(
        {n: [] for n in PAIRS_SCHEMA.names}, schema=PAIRS_SCHEMA
    )
    out = rollup_partition(empty, Thresholds())
    assert out.schema.equals(FINDINGS_SCHEMA)
    assert out.num_rows == 0
    # a partition whose every group lacks a reason is typed too
    low = pa.Table.from_pylist(
        [_pair_row("x||y", "x", "y", "FUNC", 0.5)], schema=PAIRS_SCHEMA
    )
    out = rollup_partition(low, Thresholds(min_window_hits=1))
    assert out.schema.equals(FINDINGS_SCHEMA) and out.num_rows == 0
