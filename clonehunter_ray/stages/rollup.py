"""Finding rollup: verified pairs -> per-function-pair findings.

Reference semantics (similarity/rollup.py:12-83,136-154), expressed as
``pairs.groupby("pair_key").map_groups(rollup_group)``:

* span-pair dedup within the group: keep the max-composite match per
  canonical (a_span, b_span) key, ties broken by kind rank
  FUNC/FUNC=3 > FUNC/*=2 > WIN/WIN=1 > else 0 (reference
  rollup.py:42-62, ranking.py:10-19).
* reasons gate (reference rollup.py:71-83): ``func_threshold`` if any
  FUNC-touching match clears thresholds.func, ``exp_threshold``
  likewise for EXP, ``min_window_hits`` if the count of WIN-touching
  matches reaches thresholds.min_window_hits. Groups with no reason
  produce no finding.
* score = max composite over the deduped group (scoring.py:6-9).
* duplicated_lines = min over the two sides of merged-interval line
  coverage, adjacent intervals merging (rollup.py:136-154).

The group key is the unordered unit pair, so the aggregation is
associative over partitions; the heavy lifting (interval merge) needs
the whole span list and therefore lives in ``map_groups``.
"""

from __future__ import annotations

import pyarrow as pa

from clonehunter_ray.config import Thresholds

FINDINGS_SCHEMA = pa.schema(
    [
        ("pair_key", pa.string()),
        ("unit_a", pa.string()),
        ("unit_b", pa.string()),
        ("path_a", pa.string()),
        ("path_b", pa.string()),
        ("qual_a", pa.string()),
        ("qual_b", pa.string()),
        ("score", pa.float64()),
        ("duplicated_lines", pa.int32()),
        ("reasons", pa.list_(pa.string())),
        ("n_evidence", pa.int32()),
        ("best_evidence", pa.string()),
    ]
)


def _kind_rank(kind_a: str, kind_b: str) -> int:
    """Reference ranking.py:10-19."""
    if kind_a == "FUNC" and kind_b == "FUNC":
        return 3
    if "FUNC" in (kind_a, kind_b):
        return 2
    if kind_a == "WIN" and kind_b == "WIN":
        return 1
    return 0


def _covered_lines(spans: list[tuple[int, int]]) -> int:
    """Reference rollup.py:144-154 (adjacent intervals merge)."""
    if not spans:
        return 0
    merged: list[list[int]] = []
    for start, end in sorted(spans):
        if not merged or start > merged[-1][1] + 1:
            merged.append([start, end])
        elif end > merged[-1][1]:
            merged[-1][1] = end
    return sum(end - start + 1 for start, end in merged)


def add_rollup_partition(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Shuffle key for the partitioned rollup: hash(pair_key) % P.

    Grouping by the coarse partition instead of by pair_key turns
    millions of per-pair ``map_groups`` UDF calls into P vectorizable
    partition passes (same trick as candidates.band_pairs' band-key
    partition).
    """
    import zlib

    part = [
        zlib.crc32(k.encode()) % num_partitions
        for k in batch["pair_key"].to_pylist()
    ]
    return batch.append_column("part", pa.array(part, pa.int64()))


def rollup_partition(partition: pa.Table, thresholds: Thresholds) -> pa.Table:
    """One hash partition (MANY pair groups) -> finding rows."""
    if partition.num_rows == 0:
        return pa.Table.from_pydict(
            {n: [] for n in FINDINGS_SCHEMA.names}, schema=FINDINGS_SCHEMA
        )
    if "part" in partition.column_names:
        partition = partition.drop_columns(["part"])
    keys = partition["pair_key"].to_pylist()
    order = sorted(range(len(keys)), key=keys.__getitem__)
    sorted_tbl = partition.take(pa.array(order, pa.int64()))
    skeys = [keys[i] for i in order]
    out: list[pa.Table] = []
    start = 0
    for i in range(1, len(skeys) + 1):
        if i == len(skeys) or skeys[i] != skeys[start]:
            out.append(
                rollup_group(sorted_tbl.slice(start, i - start), thresholds)
            )
            start = i
    return pa.concat_tables(
        [t for t in out if t.num_rows]
        or [
            pa.Table.from_pydict(
                {n: [] for n in FINDINGS_SCHEMA.names}, schema=FINDINGS_SCHEMA
            )
        ]
    )


def rollup_group(group: pa.Table, thresholds: Thresholds) -> pa.Table:
    """One unit-pair group of verified matches -> 0 or 1 finding row."""
    rows = group.to_pylist()
    # span-pair dedup (reference rollup.py:42-62); sides are already
    # canonically ordered by the verify stage.
    best: dict[tuple, dict] = {}
    for r in rows:
        key = (
            r["unit_a"], r["a_start"], r["a_end"],
            r["unit_b"], r["b_start"], r["b_end"],
        )
        cur = best.get(key)
        if cur is None:
            best[key] = r
        elif r["composite"] > cur["composite"] or (
            r["composite"] == cur["composite"]
            and _kind_rank(r["kind_a"], r["kind_b"])
            > _kind_rank(cur["kind_a"], cur["kind_b"])
        ):
            best[key] = r
    deduped = list(best.values())

    func_hits = [r for r in deduped if "FUNC" in (r["kind_a"], r["kind_b"])]
    win_hits = [r for r in deduped if "WIN" in (r["kind_a"], r["kind_b"])]
    exp_hits = [r for r in deduped if "EXP" in (r["kind_a"], r["kind_b"])]

    reasons: list[str] = []
    if func_hits and max(r["composite"] for r in func_hits) >= thresholds.func:
        reasons.append("func_threshold")
    if exp_hits and max(r["composite"] for r in exp_hits) >= thresholds.exp:
        reasons.append("exp_threshold")
    if len(win_hits) >= thresholds.min_window_hits:
        reasons.append("min_window_hits")
    # suffix-array rescue channel (stages/verify.py): substr_ratio is
    # only non-zero when a pair passed the LCS gate below the composite
    # threshold — a reason of its own, additive to the reference set.
    if any((r.get("substr_ratio") or 0.0) > 0.0 for r in deduped):
        reasons.append("substring_match")

    empty = pa.Table.from_pydict(
        {n: [] for n in FINDINGS_SCHEMA.names}, schema=FINDINGS_SCHEMA
    )
    if not reasons:
        return empty

    score = max(r["composite"] for r in deduped)
    dup_lines = min(
        _covered_lines([(r["a_start"], r["a_end"]) for r in deduped]),
        _covered_lines([(r["b_start"], r["b_end"]) for r in deduped]),
    )
    # best evidence match for reporting (reference ranking.py:22-31)
    best_ev = max(
        deduped,
        key=lambda r: (
            _kind_rank(r["kind_a"], r["kind_b"]),
            min(r["a_end"] - r["a_start"] + 1, r["b_end"] - r["b_start"] + 1),
            r["composite"],
        ),
    )
    first = deduped[0]
    return pa.Table.from_pydict(
        {
            "pair_key": [first["pair_key"]],
            "unit_a": [first["unit_a"]],
            "unit_b": [first["unit_b"]],
            "path_a": [first["path_a"]],
            "path_b": [first["path_b"]],
            "qual_a": [first["qual_a"]],
            "qual_b": [first["qual_b"]],
            "score": [score],
            "duplicated_lines": [dup_lines],
            "reasons": [reasons],
            "n_evidence": [len(deduped)],
            "best_evidence": [best_ev["evidence"]],
        },
        schema=FINDINGS_SCHEMA,
    )
