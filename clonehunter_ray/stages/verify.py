"""Pair verification: exact Jaccard + lexical similarity + structural
filters + threshold gating.

Consumes candidate pairs joined with both sides' signature payloads
(columns prefixed ``a_`` / ``b_``). Semantics reproduce the reference:

* lexical similarity = Jaccard over distinct lowercase ``[A-Za-z0-9_]+``
  tokens (reference similarity/lexical.py:6-19) — computed here over
  the pre-hashed token sets.
* composite = ``(1-lexical_weight)*sim + lexical_weight*lexical``
  (reference similarity/candidates.py:146-148) with ``sim`` = exact
  shingle Jaccard instead of embedding cosine.
* lexical_min_ratio gate (reference candidates.py:149-150 and
  rollup.py:123-133).
* per-kind threshold: the reference tests each direction of the k-NN
  retrieval against the *neighbor's* kind threshold
  (candidates.py:167-172); an undirected pair therefore passes if it
  clears the smaller of the two kind thresholds.
* overlap filters (reference rollup.py:86-120): self-pairs of one
  function kept only when the matched snippet ranges are disjoint;
  pairs of distinct functions in the same file dropped when the
  function spans overlap (structural containment).

``size_kind_gate`` is the one upper-bound mask from sizes and kinds
alone (jaccard <= min(|A|,|B|)/max(|A|,|B|)); the scan applies it to
candidate pairs before their payloads attach, fed from the ``kind`` /
``n_shingles`` / ``n_tokens`` columns range-taken by sid
(stages/candidates.py ``attach_sids`` -> ``pre_gate_pairs``).

Stateless ``map_batches`` stage; per-row work is numpy set
intersection over the carried shingle/token arrays.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clonehunter_ray.config import SubstringConfig, Thresholds
from clonehunter_ray.functions.hashing import jaccard_batch
from clonehunter_ray.functions.substring import lcs_ratio

PAIRS_SCHEMA = pa.schema(
    [
        ("pair_key", pa.string()),
        ("a_id", pa.string()),
        ("b_id", pa.string()),
        ("unit_a", pa.string()),
        ("unit_b", pa.string()),
        ("kind_a", pa.string()),
        ("kind_b", pa.string()),
        ("path_a", pa.string()),
        ("path_b", pa.string()),
        ("qual_a", pa.string()),
        ("qual_b", pa.string()),
        ("ua_start", pa.int32()),
        ("ua_end", pa.int32()),
        ("ub_start", pa.int32()),
        ("ub_end", pa.int32()),
        ("a_start", pa.int32()),
        ("a_end", pa.int32()),
        ("b_start", pa.int32()),
        ("b_end", pa.int32()),
        ("jaccard", pa.float64()),
        ("lexical", pa.float64()),
        ("composite", pa.float64()),
        ("substr_ratio", pa.float64()),
        ("evidence", pa.string()),
    ]
)


def kind_gates(kinds, thresholds: Thresholds) -> np.ndarray:
    """Each row's per-kind threshold (FUNC, WIN, anything else EXP)."""
    import pyarrow.compute as pc

    def is_kind(k: str) -> np.ndarray:
        hit = pc.fill_null(pc.equal(kinds, k), False)
        return hit.to_numpy(zero_copy_only=False)

    return np.where(
        is_kind("FUNC"),
        thresholds.func,
        np.where(is_kind("WIN"), thresholds.win, thresholds.exp),
    ).astype(np.float64)


def size_kind_gate(
    a: tuple, b: tuple, thresholds: Thresholds, substr_floor: float | None
) -> np.ndarray:
    """The pairs' upper-bound mask from sizes and kinds alone: ``a`` and
    ``b`` are each side's ``(n_shingles, n_tokens, kind gate)`` arrays.
    jaccard <= min(|A|,|B|)/max(|A|,|B|) (0 when a side is empty), and
    likewise for lexical, so a pair dropped here can clear neither the
    smaller kind gate, nor the substring floor (``None`` when off), nor
    ``lexical_min_ratio``: ``verify_pairs_batch`` would reject it. The
    scan gates with it before the payload attach."""

    def ratio(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                (x > 0) & (y > 0), np.minimum(x, y) / np.maximum(x, y), 0.0
            )

    jac_ub, lex_ub = ratio(a[0], b[0]), ratio(a[1], b[1])
    w = thresholds.lexical_weight
    keep = (1.0 - w) * jac_ub + w * lex_ub >= np.minimum(a[2], b[2])
    if substr_floor is not None:
        keep |= jac_ub >= substr_floor
    if thresholds.lexical_min_ratio > 0:
        keep &= lex_ub >= thresholds.lexical_min_ratio
    return keep


def _exact_jaccard(a: pa.ChunkedArray, b: pa.ChunkedArray) -> np.ndarray:
    """Exact Jaccard per row of two sorted-set blob columns: byte-equal
    non-empty sides are 1.0 for free, the rest go through ONE vectorized
    lexsort kernel (hashing.jaccard_batch), where an empty side is 0 —
    as in ``size_kind_gate``'s bound."""
    import pyarrow.compute as pc

    eq = pc.and_(pc.equal(a, b), pc.greater(pc.binary_length(a), 0))
    out = np.ones(len(a), dtype=np.float64)
    rest = np.flatnonzero(~eq.to_numpy(zero_copy_only=False))
    if len(rest):
        sel = pa.array(rest, pa.int64())
        out[rest] = jaccard_batch(a.take(sel), b.take(sel))
    return out


def verify_pairs_batch(
    batch: pa.Table,
    thresholds: Thresholds,
    substring: SubstringConfig | None = None,
) -> pa.Table:
    """Joined candidate batch -> verified pair rows (canonical sides).

    Three phases, sized to the candidate funnel (measured at 60k files:
    110k candidates -> 23k accepted): (1) structural filters fully
    vectorized on numeric columns, (2) exact Jaccard/lexical per
    surviving row (one lexsort kernel — the only inherently per-pair
    work), (3) output assembly via ``take`` + vectorized side
    canonicalization. The size upper bound is not repeated here: the
    scan gates on it before the payload attach (``size_kind_gate``),
    and the exact checks imply it, so a direct caller gets the same
    rows. When
    ``substring`` is enabled, pairs failing the composite gate but with
    shingle Jaccard >= ``substring.floor`` get a suffix-array LCS
    rescue over the carried ``token_seq`` columns
    (functions/substring.py).
    """
    import pyarrow.compute as pc

    n = batch.num_rows
    if n == 0:
        return PAIRS_SCHEMA.empty_table()
    substr_on = (
        substring is not None
        and substring.enabled
        and "a_token_seq" in batch.column_names
    )

    # ---- phase 1: vectorized structural filters ---------------------
    num = lambda c: batch[c].to_numpy(zero_copy_only=False)  # noqa: E731
    a_s, a_e = num("a_start_line"), num("a_end_line")
    b_s, b_e = num("b_start_line"), num("b_end_line")
    ua_s, ua_e = num("a_unit_start"), num("a_unit_end")
    ub_s, ub_e = num("b_unit_start"), num("b_unit_end")
    unit_eq = pc.equal(batch["a_unit_id"], batch["b_unit_id"]).to_numpy(
        zero_copy_only=False
    )
    path_eq = pc.equal(batch["a_path"], batch["b_path"]).to_numpy(
        zero_copy_only=False
    )
    ov_snip = np.maximum(a_s, b_s) <= np.minimum(a_e, b_e)
    ov_unit = np.maximum(ua_s, ub_s) <= np.minimum(ua_e, ub_e)
    # structural filters (reference rollup.py:86-120): self-pairs with
    # overlapping snippet spans; same-file distinct units overlapping
    keep = ~(unit_eq & ov_snip) & ~(~unit_eq & path_eq & ov_unit)

    gate = np.minimum(
        kind_gates(batch["a_kind"], thresholds),
        kind_gates(batch["b_kind"], thresholds),
    )

    sub = batch.take(pa.array(np.flatnonzero(keep), pa.int64()))
    m = sub.num_rows
    if m == 0:
        return PAIRS_SCHEMA.empty_table()

    # ---- phase 2: exact set similarity on survivors ------------------
    jac = _exact_jaccard(sub["a_shingles"], sub["b_shingles"])
    lex = _exact_jaccard(sub["a_tokens"], sub["b_tokens"])
    composite = (1.0 - thresholds.lexical_weight) * jac + (
        thresholds.lexical_weight * lex
    )
    gate2 = gate[keep]
    ok = composite >= gate2
    if thresholds.lexical_min_ratio > 0:
        lex_ok = lex >= thresholds.lexical_min_ratio
    else:
        lex_ok = np.ones(m, dtype=bool)
    substr = np.zeros(m, dtype=np.float64)
    if substr_on:
        # materialize token-seq blobs ONLY for the rows that actually
        # need the LCS rescue (typically ~1% of gate survivors) — the
        # token_seq columns are the heaviest payload in the batch
        need = np.flatnonzero(~ok & lex_ok & (jac >= substring.floor))
        if len(need):
            sel = pa.array(need, pa.int64())
            seq_a = sub["a_token_seq"].take(sel).to_pylist()
            seq_b = sub["b_token_seq"].take(sel).to_pylist()
            for k, i in enumerate(need):
                r = lcs_ratio(
                    np.frombuffer(seq_a[k], dtype=np.uint64),
                    np.frombuffer(seq_b[k], dtype=np.uint64),
                )
                if r >= substring.min_ratio:
                    substr[i] = r
                    ok[i] = True
    ok &= lex_ok

    sub2 = sub.take(pa.array(np.flatnonzero(ok), pa.int64()))
    if sub2.num_rows == 0:
        return PAIRS_SCHEMA.empty_table()
    jac2, lex2 = jac[ok], lex[ok]
    comp2, substr2 = composite[ok], substr[ok]

    # ---- phase 3: canonical side order + output assembly -------------
    # canonical side order by (unit_id, start, end) — replaces the
    # reference's list-order dependence (rollup.py:45-62) with an
    # order-free canonical form for distributed determinism.
    ua = np.asarray(sub2["a_unit_id"].to_pylist(), dtype=object)
    ub = np.asarray(sub2["b_unit_id"].to_pylist(), dtype=object)
    s_a, e_a = (
        sub2["a_start_line"].to_numpy(zero_copy_only=False),
        sub2["a_end_line"].to_numpy(zero_copy_only=False),
    )
    s_b, e_b = (
        sub2["b_start_line"].to_numpy(zero_copy_only=False),
        sub2["b_end_line"].to_numpy(zero_copy_only=False),
    )
    swap = (ua > ub) | ((ua == ub) & ((s_a > s_b) | ((s_a == s_b) & (e_a > e_b))))
    swap_arr = pa.array(swap, pa.bool_())

    def pick(a_col: str, b_col: str):
        return (
            pc.if_else(swap_arr, sub2[b_col], sub2[a_col]),
            pc.if_else(swap_arr, sub2[a_col], sub2[b_col]),
        )

    unit_a_c, unit_b_c = pick("a_unit_id", "b_unit_id")
    id_a_c, id_b_c = pick("a_id", "b_id")
    kind_a_c, kind_b_c = pick("a_kind", "b_kind")
    path_a_c, path_b_c = pick("a_path", "b_path")
    qual_a_c, qual_b_c = pick("a_qualified_name", "b_qualified_name")
    uas_c, ubs_c = pick("a_unit_start", "b_unit_start")
    uae_c, ube_c = pick("a_unit_end", "b_unit_end")
    as_c, bs_c = pick("a_start_line", "b_start_line")
    ae_c, be_c = pick("a_end_line", "b_end_line")

    pair_key = pc.binary_join_element_wise(
        pc.cast(unit_a_c, pa.string()), pc.cast(unit_b_c, pa.string()), "||"
    )
    ka = kind_a_c.to_pylist()
    kb = kind_b_c.to_pylist()
    evidence = [
        (
            f"{ka[i]}->{kb[i]}|jac={jac2[i]:.3f}|lex={lex2[i]:.3f}"
            f"|comp={comp2[i]:.3f}"
            + (f"|substr={substr2[i]:.3f}" if substr2[i] else "")
        )
        for i in range(sub2.num_rows)
    ]
    return pa.Table.from_arrays(
        [
            pair_key,
            id_a_c,
            id_b_c,
            unit_a_c,
            unit_b_c,
            kind_a_c,
            kind_b_c,
            path_a_c,
            path_b_c,
            qual_a_c,
            qual_b_c,
            pc.cast(uas_c, pa.int32()),
            pc.cast(uae_c, pa.int32()),
            pc.cast(ubs_c, pa.int32()),
            pc.cast(ube_c, pa.int32()),
            pc.cast(as_c, pa.int32()),
            pc.cast(ae_c, pa.int32()),
            pc.cast(bs_c, pa.int32()),
            pc.cast(be_c, pa.int32()),
            pa.array(jac2, pa.float64()),
            pa.array(lex2, pa.float64()),
            pa.array(comp2, pa.float64()),
            pa.array(substr2, pa.float64()),
            pa.array(evidence, pa.string()),
        ],
        schema=PAIRS_SCHEMA,
    )
