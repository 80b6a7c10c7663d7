"""Ground-truth oracles and output checks.

Nothing here calls the engine: the truth comes from the corpus
generator's planted families, from an exact all-pairs shingle Jaccard
computed in plain Python, or from DuckDB running each query's SQL
twin.  Each check returns ``(ok, recall, reason)``; ``reason`` is empty
when the output is correct.
"""

from __future__ import annotations

import re
from collections import defaultdict

Pair = tuple[str, str]


def _pair(a, b):
    return (a, b) if a <= b else (b, a)


def _recall(found: set, truth: set) -> float:
    return len(found & truth) / len(truth) if truth else 1.0


# -- scan -------------------------------------------------------------------


def truth_sets(truth_rows: list[dict]) -> tuple[set[Pair], set[Pair]]:
    """(expected pairs, planted negative pairs) from the generator's
    truth table rows."""
    pos = {_pair(r["unit_a"], r["unit_b"]) for r in truth_rows if r["expected"]}
    neg = {_pair(r["unit_a"], r["unit_b"]) for r in truth_rows if not r["expected"]}
    return pos, neg


def check_scan(found: set[Pair], pos: set[Pair], neg: set[Pair]):
    """The typical corpus: findings equal the planted truth exactly."""
    recall = _recall(found, pos)
    bad = found & neg
    if bad:
        return False, recall, f"{len(bad)} planted negatives reported, e.g. {min(bad)}"
    if found != pos:
        missing, extra = pos - found, found - pos
        return False, recall, (
            f"{len(missing)} expected pairs missing, {len(extra)} unexpected pairs"
        )
    return True, recall, ""


# -- documents --------------------------------------------------------------


_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def shingles(text: str, k: int = 5) -> frozenset:
    toks = _TOKEN.findall(text.lower())
    if len(toks) < k:
        return frozenset([tuple(toks)]) if toks else frozenset()
    return frozenset(tuple(toks[i : i + k]) for i in range(len(toks) - k + 1))


def near_dup_edges(
    doc_ids: list[int], texts: list[str], threshold: float = 0.8, k: int = 5
) -> dict[Pair, float]:
    """Exact all-pairs k-shingle Jaccard >= threshold.  Pairs sharing
    no shingle have Jaccard 0, so an inverted index over shingles
    enumerates every pair that can qualify."""
    sets = {d: shingles(t, k) for d, t in zip(doc_ids, texts)}
    posting: dict[tuple, list[int]] = defaultdict(list)
    for d, s in sets.items():
        for g in s:
            posting[g].append(d)
    cands: set[Pair] = set()
    for ds in posting.values():
        if len(ds) > 1:
            ds = sorted(ds)
            cands.update((a, b) for i, a in enumerate(ds) for b in ds[i + 1 :])
    out = {}
    for a, b in cands:
        sa, sb = sets[a], sets[b]
        inter = len(sa & sb)
        jac = inter / (len(sa) + len(sb) - inter)
        if jac >= threshold:
            out[(a, b)] = jac
    return out


def components(edges) -> dict[int, int]:
    """node -> min node of its connected component (nodes on edges only)."""
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def check_keep(rows: list[dict], doc_ids: list[int], edges) -> tuple:
    """``minhash_dedup_keep`` rows (doc_id, cluster_id, keep): one row per
    document, the oracle's components as clusters, and exactly the
    component minimum (or a singleton) kept."""
    label = components(edges)
    dropped = {d for d, root in label.items() if d != root}
    got_dropped = {r["doc_id"] for r in rows if not r["keep"]}
    recall = _recall(got_dropped, dropped)
    if sorted(r["doc_id"] for r in rows) != sorted(doc_ids):
        return False, recall, "output rows are not one per input document"
    if got_dropped != dropped:
        return False, recall, (
            f"dropped {len(got_dropped)} docs, oracle drops {len(dropped)} "
            f"({len(dropped - got_dropped)} missed, {len(got_dropped - dropped)} extra)"
        )
    groups: dict[int, set] = defaultdict(set)
    for r in rows:
        if r["cluster_id"] is not None and r["cluster_id"] >= 0:
            groups[r["cluster_id"]].add(r["doc_id"])
    want: dict[int, set] = defaultdict(set)
    for d, root in label.items():
        want[root].add(d)
    if sorted(map(sorted, groups.values())) != sorted(map(sorted, want.values())):
        return False, recall, "clusters differ from the oracle's components"
    return True, recall, ""


def stream_truth(edges, chunk_rows: int) -> dict[int, int]:
    """doc -> earliest near-duplicate indexed before it.  The stream
    ingests in doc_id order, ``chunk_rows`` documents at a time, and a
    chunk is checked against the chunks before it only."""
    first: dict[int, int] = {}
    for a, b in edges:  # a < b
        if a // chunk_rows < b // chunk_rows:
            first[b] = min(first.get(b, a), a)
    return first


def check_stream(rows: list[dict], truth: dict[int, int], edges) -> tuple:
    """``incremental_dedup_stream`` rows (doc_id, dup_of, jaccard)."""
    got = {r["doc_id"]: r["dup_of"] for r in rows}
    recall = _recall(set(got), set(truth))
    if len(got) != len(rows):
        return False, recall, "a document was flagged twice"
    if got != truth:
        diff = sorted(set(got.items()) ^ set(truth.items()))[:3]
        return False, recall, f"flags differ from the oracle, e.g. {diff}"
    for r in rows:
        want = edges.get((r["dup_of"], r["doc_id"]))
        if want is None or abs(r["jaccard"] - want) > 1e-9:
            return False, recall, f"jaccard of {r['doc_id']} is {r['jaccard']}, oracle {want}"
    return True, recall, ""


# -- queries ----------------------------------------------------------------


def token_set_clusters(doc_ids, texts, threshold: float = 0.6, max_id: int = 500):
    """``duplicate_clusters_documents`` computed the way its SQL twin
    defines it: documents with doc_id < ``max_id``, token sets
    (``[a-z0-9_]+`` over the lowercased text), an edge where the set
    Jaccard reaches ``threshold``, and each document labelled with the
    minimum doc_id of its connected component.  DuckDB takes about 20 s
    per input on that twin's list self-join here, longer than a run can
    spend per seed; ``test_checks`` pins this function to the SQL."""
    import pandas as pd

    sets = {
        d: set(re.findall(r"[a-z0-9_]+", t.lower()))
        for d, t in zip(doc_ids, texts)
        if d < max_id
    }
    posting: dict[str, list[int]] = defaultdict(list)
    for d, s in sets.items():
        for tok in s:
            posting[tok].append(d)
    cands = {
        (a, b) for ds in posting.values() for a in ds for b in ds if a < b
    }
    edges = []
    for a, b in cands:
        sa, sb = sets[a], sets[b]
        if sa and sb:
            inter = len(sa & sb)
            if inter / (len(sa) + len(sb) - inter) >= threshold:
                edges.append((a, b))
    label = components(edges)
    ids = sorted(sets)
    return pd.DataFrame(
        {"doc_id": ids, "cluster_id": [label.get(d, d) for d in ids]}, dtype="int64"
    )


def compare_frames(got, want) -> str:
    """The DuckDB-oracle comparison of ``tools/check_oracle.run_checks``
    on two normalized frames: schema, row count, dtype kinds, then
    values.  Returns the failure reason, or "" when they match."""
    import pandas as pd

    if list(got.columns) != list(want.columns):
        return f"schema {list(got.columns)} != {list(want.columns)}"
    if len(got) != len(want):
        return f"rows {len(got)} != {len(want)}"
    kinds = [c for c in got.columns if got[c].dtype.kind != want[c].dtype.kind]
    if kinds:
        return f"dtype kinds differ: {kinds}"
    try:
        pd.testing.assert_frame_equal(
            got, want, check_dtype=False, check_exact=False, rtol=0, atol=1e-9
        )
    except AssertionError:
        return "values differ"
    return ""
