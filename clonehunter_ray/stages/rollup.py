"""Finding rollup: verified pairs -> per-function-pair findings.

Reference semantics (similarity/rollup.py:12-83,136-154), per group
of verified pairs sharing a ``pair_key`` (``rollup_group``, the
per-group form the vectorized ``rollup_partition`` is tested against):

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

The group key is the unordered unit pair, so any partitioning that
keeps a unit pair's rows together is exact: the scan's unit-pair
exchange, or a ``pair_key`` hash partition of persisted pairs.
``rollup_partition`` rolls up every group of a partition at once over
sorted columns, since the interval merge needs the whole span list.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


def _covered_lines_runs(
    group: np.ndarray, start: np.ndarray, end: np.ndarray, n_groups: int
) -> np.ndarray:
    """``_covered_lines`` of every group at once: spans sorted by
    (group, start, end), a running max of the ends within each group,
    and a new merged interval wherever a start is more than one line
    past everything before it (adjacent intervals merge)."""
    order = np.lexsort((end, start, group))
    g, s, e = group[order], start[order], end[order]
    # the group offset keeps the running max from crossing groups
    lo = min(int(s.min()), int(e.min()))
    span = int(e.max()) - lo + 2
    offset = g * span
    reach = np.maximum.accumulate(offset + (e - lo)) - offset + lo
    new = np.ones(len(g), dtype=bool)
    new[1:] = (g[1:] != g[:-1]) | (s[1:] > reach[:-1] + 1)
    heads = np.flatnonzero(new)
    tails = np.append(heads[1:], len(g)) - 1
    covered = reach[tails] - s[heads] + 1
    return np.bincount(g[heads], weights=covered, minlength=n_groups).astype(
        np.int64
    )


def rollup_partition(partition: pa.Table, thresholds: Thresholds) -> pa.Table:
    """One partition (MANY pair groups) -> finding rows, one per group
    with a reason, in ``pair_key`` order: ``rollup_group`` on every
    group at once over sorted Arrow/numpy columns. A group's rows keep
    the partition's order, which breaks ties exactly as the loop does
    (the first row of a span key's best composite and kind rank wins,
    and the best evidence is the first maximum in first-occurrence
    order of the span keys)."""
    if partition.num_rows == 0:
        return FINDINGS_SCHEMA.empty_table()

    def codes(col: str) -> np.ndarray:
        enc = partition[col].combine_chunks().dictionary_encode()
        return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

    def num(col: str) -> np.ndarray:
        return partition[col].to_numpy(zero_copy_only=False)

    def is_kind(col: str, kind: str) -> np.ndarray:
        return np.asarray(pc.fill_null(pc.equal(partition[col], kind), False))

    # group ids in pair_key order
    keys = partition["pair_key"].combine_chunks().dictionary_encode()
    rank = np.empty(len(keys.dictionary), dtype=np.int64)
    rank[pc.sort_indices(keys.dictionary).to_numpy()] = np.arange(len(rank))
    group = rank[keys.indices.to_numpy(zero_copy_only=False)]
    row = np.arange(partition.num_rows)
    a_s, a_e = num("a_start").astype(np.int64), num("a_end").astype(np.int64)
    b_s, b_e = num("b_start").astype(np.int64), num("b_end").astype(np.int64)
    comp = num("composite").astype(np.float64)
    fa, fb = is_kind("kind_a", "FUNC"), is_kind("kind_b", "FUNC")
    wa, wb = is_kind("kind_a", "WIN"), is_kind("kind_b", "WIN")
    # reference ranking.py:10-19, as _kind_rank
    kind_rank = np.where(
        fa & fb, 3, np.where(fa | fb, 2, np.where(wa & wb, 1, 0))
    )

    # span-pair dedup: per span key, the best composite, then the best
    # kind rank, then the first row; each kept row sits at its span
    # key's first occurrence
    span = np.column_stack(
        [group, codes("unit_a"), codes("unit_b"), a_s, a_e, b_s, b_e]
    )
    order = np.lexsort((row, -kind_rank, -comp, *span.T[::-1]))
    span = span[order]
    heads = np.flatnonzero(
        np.concatenate([[True], (span[1:] != span[:-1]).any(axis=1)])
    )
    first_seen = np.minimum.reduceat(row[order], heads)
    kept = order[heads]
    by_seen = np.lexsort((first_seen, group[kept]))
    kept = kept[by_seen]  # rollup_group's ``deduped``, group by group

    g = group[kept]
    starts = np.flatnonzero(np.concatenate([[True], g[1:] != g[:-1]]))
    sizes = np.diff(np.append(starts, len(g)))
    n_groups = len(starts)
    gid = np.repeat(np.arange(n_groups), sizes)
    k_comp = comp[kept]

    def best_of(mask: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(np.where(mask, k_comp, -np.inf), starts)

    func = (fa | fb)[kept]
    exp = (is_kind("kind_a", "EXP") | is_kind("kind_b", "EXP"))[kept]
    win = (wa | wb)[kept]
    substr = np.nan_to_num(
        pc.fill_null(partition["substr_ratio"], 0.0).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
    )[kept]
    has = np.column_stack(
        [
            best_of(func) >= thresholds.func,
            best_of(exp) >= thresholds.exp,
            np.add.reduceat(win.astype(np.int64), starts)
            >= thresholds.min_window_hits,
            np.maximum.reduceat(substr, starts) > 0.0,
        ]
    )
    out = np.flatnonzero(has.any(axis=1))
    if not len(out):
        return FINDINGS_SCHEMA.empty_table()

    dup_lines = np.minimum(
        _covered_lines_runs(gid, a_s[kept], a_e[kept], n_groups),
        _covered_lines_runs(gid, b_s[kept], b_e[kept], n_groups),
    )
    # best evidence (reference ranking.py:22-31): the first maximum of
    # (kind rank, shorter side's lines, composite) in deduped order
    min_len = np.minimum(a_e - a_s + 1, b_e - b_s + 1)[kept]
    best = np.lexsort(
        (np.arange(len(kept)), -k_comp, -min_len, -kind_rank[kept], gid)
    )[starts]
    flags = has[out]
    names = pa.array(
        ["func_threshold", "exp_threshold", "min_window_hits", "substring_match"]
    )
    reasons = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], np.cumsum(flags.sum(axis=1))]), pa.int32()),
        names.take(pa.array(np.nonzero(flags)[1], pa.int64())),
    )
    first = partition.take(pa.array(kept[starts[out]], pa.int64()))
    cols = {
        n: first[n]
        for n in ("pair_key", "unit_a", "unit_b", "path_a", "path_b",
                  "qual_a", "qual_b")
    }
    cols |= {
        "score": pa.array(np.maximum.reduceat(k_comp, starts)[out], pa.float64()),
        "duplicated_lines": pa.array(dup_lines[out], pa.int32()),
        "reasons": reasons,
        "n_evidence": pa.array(sizes[out], pa.int32()),
        "best_evidence": partition["evidence"].take(
            pa.array(kept[best[out]], pa.int64())
        ),
    }
    return pa.table(cols, schema=FINDINGS_SCHEMA)


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
