"""Union-find with path compression, plus deterministic cluster-label
assignment.

The reference's clustering (similarity/clustering.py:8-43) assigns
cluster ids 1..K in first-seen finding order — an inherently sequential
list-order dependence. For distributed determinism we instead label
each component by dense rank of its minimum member id (order-free
canonical form; the reference benchmark compares sorted pair sets, so
order independence is permitted — see SURVEY.md §2.9).
"""

from __future__ import annotations


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self) -> dict[str, list[str]]:
        comps: dict[str, list[str]] = {}
        for node in self.parent:
            comps.setdefault(self.find(node), []).append(node)
        return comps


def component_minima(edges) -> dict:
    """node -> smallest member id of its component, for an iterable of
    (a, b) edges over any orderable id type."""
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    minima = {}
    for members in uf.components().values():
        low = min(members)
        for m in members:
            minima[m] = low
    return minima


def cluster_labels(edges: list[tuple[str, str]]) -> dict[str, int]:
    """node -> dense cluster id (1-based), clusters ordered by their
    minimum member id — deterministic regardless of edge order."""
    minima = component_minima(edges)
    rank = {low: cid for cid, low in enumerate(sorted(set(minima.values())), 1)}
    return {node: rank[low] for node, low in minima.items()}
