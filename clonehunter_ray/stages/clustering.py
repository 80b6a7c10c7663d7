"""Connected-component clustering of findings.

One routine, ``connected_components``, labels every node of an edge
list with the smallest member id of its component (string unit ids or
int64 doc ids alike). It picks one of two paths by a single edge-count
cutover, ``DRIVER_MAX_EDGES``:

* **driver union-find** (up to the cutover): the edge list is orders of
  magnitude smaller than the corpus (pairs that cleared verification),
  so it is collected and run through ``state.unionfind``.
* **distributed hook-and-shortcut** (above it): the FastSV rules
  (Zhang, Azad & Hu, SIAM PP 2020) over a parent table ``f`` and its
  grandparent ``gf = f[f]``, each round two joins and two min-groupbys.
  Rounds grow with log(nodes), not with component diameter; the loop
  stops only at a fixpoint and raises past ``max_rounds``.

Labels go onto rows by one left ``stages/candidates.attach_by_key``
(broadcast or partitioned join behind ``fits_broadcast``); so do the
cluster ids of ``add_cluster_ids``, the scan's use of both.
``filter_min_cluster_size`` reproduces the reference's
``filter_clusters`` (clustering.py:46-55): keep findings whose cluster
has >= min_size *findings* (not members).
"""

from __future__ import annotations

import itertools

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from clonehunter_ray.config import ClusterConfig
from clonehunter_ray.state.unionfind import component_minima
from clonehunter_ray.util import safe_join

# Edge count up to which components are found on the driver. Not
# measured: no benchmark workload has more than a few thousand edges.
DRIVER_MAX_EDGES = 2_000_000
# partitions requested for the loop's and the attach's joins (capped to
# the cluster by util.safe_join_partitions)
_JOIN_PARTITIONS = 16


def max_rounds(n_nodes: int) -> int:
    """Round budget of the distributed loop. Simulated FastSV runs took
    at most ~1.2 log2(n) rounds (paths, shuffled paths, stars on chains,
    binary trees, grids, caterpillars); the budget is twice that."""
    return 2 * n_nodes.bit_length() + 4


def connected_components(
    edges_ds: "ray.data.Dataset",
    plan: dict | None = None,
    columns: tuple[str, str] = ("unit_a", "unit_b"),
) -> "ray.data.Dataset":
    """Dataset (unit_id, label): every node of the edge list ``columns``
    labelled with the smallest member id of its component.

    ``plan`` (when given) receives the decision: ``path`` ("driver" or
    "distributed"), ``edges`` and ``rounds`` (0 on the driver)."""
    a, b = columns
    edges = edges_ds.select_columns([a, b]).map_batches(
        lambda t: t.rename_columns(["unit_a", "unit_b"]),
        batch_format="pyarrow",
    ).materialize()
    n_edges = edges.count()
    if n_edges <= DRIVER_MAX_EDGES:
        labels, path, rounds = _union_find(edges), "driver", 0
    else:
        (labels, rounds), path = _hook_and_shortcut(edges), "distributed"
    if plan is not None:
        plan.update(path=path, edges=n_edges, rounds=rounds)
    return labels


def _union_find(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    schema = edges.schema()
    id_type = schema.types[0] if schema is not None else pa.null()

    def pairs():
        for t in edges.iter_batches(batch_format="pyarrow", batch_size=None):
            yield from zip(t["unit_a"].to_pylist(), t["unit_b"].to_pylist())

    minima = component_minima(pairs())
    return ray.data.from_arrow(
        pa.table(
            {
                "unit_id": pa.array(list(minima), id_type),
                "label": pa.array(list(minima.values()), id_type),
            }
        )
    )


def _hook_and_shortcut(
    edges: "ray.data.Dataset",
) -> tuple["ray.data.Dataset", int]:
    """FastSV on Ray Data. Per round, reading the previous ``f``:
    f[f[u]] <- min(f[f[u]], gf[v]); f[u] <- min(f[u], gf[v]);
    f[u] <- min(f[u], gf[u]) for every edge (u, v), both directions.

    ``f[u] <= u`` always holds (values only fall), so at a fixpoint
    every node points at its component's smallest id. Join 1 builds
    (u, f, gf); join 2 sends gf[v] along each edge; groupby 1 folds a
    node's messages and its own gf into m[u] (and keeps f[u]); groupby
    2 takes the min of m[u] at u and at f[u] and counts changed nodes.
    """
    from ray.data.aggregate import Max, Min

    def both_directions(t: pa.Table) -> pa.Table:
        a, b = t["unit_a"].combine_chunks(), t["unit_b"].combine_chunks()
        return pa.table(
            {"src": pa.concat_arrays([a, b]), "dst": pa.concat_arrays([b, a])}
        )

    sym = edges.map_batches(both_directions, batch_format="pyarrow").materialize()
    # start one hook ahead: each node points at min(itself, neighbours)
    f = (
        sym.groupby("src")
        .min("dst")
        .map_batches(
            lambda t: pa.table(
                {
                    "unit_id": t["src"],
                    "f": pc.min_element_wise(t["src"], t["min(dst)"]),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_nodes = f.count()
    budget = max_rounds(n_nodes)

    def own(t: pa.Table) -> pa.Table:
        return pa.table({"unit_id": t["unit_id"], "cand": t["gf"], "f": t["f"]})

    def message(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "unit_id": t["src"],
                "cand": t["cand"],
                "f": pa.nulls(t.num_rows, t["cand"].type),
            }
        )

    def hooks(t: pa.Table) -> pa.Table:
        u, m, fu = (
            t[c].combine_chunks() for c in ("unit_id", "min(cand)", "max(f)")
        )
        return pa.table(
            {
                "unit_id": pa.concat_arrays([u, fu]),
                "cand": pa.concat_arrays([pc.min_element_wise(fu, m), m]),
                "old": pa.concat_arrays([fu, pa.nulls(len(fu), fu.type)]),
            }
        )

    def settle(t: pa.Table) -> pa.Table:
        new, old = t["min(cand)"], t["max(old)"]
        return pa.table(
            {
                "unit_id": t["unit_id"],
                "f": new,
                "changed": pc.cast(pc.not_equal(new, old), pa.int64()),
            }
        )

    for rounds in itertools.count(1):
        gf = safe_join(
            f,
            f.map_batches(
                lambda t: t.rename_columns(["f", "gf"]), batch_format="pyarrow"
            ),
            "inner",
            _JOIN_PARTITIONS,
            on=("f",),
        ).materialize()
        sent = safe_join(
            sym,
            gf.map_batches(
                lambda t: pa.table({"dst": t["unit_id"], "cand": t["gf"]}),
                batch_format="pyarrow",
            ),
            "inner",
            _JOIN_PARTITIONS,
            on=("dst",),
        ).map_batches(message, batch_format="pyarrow")
        step = (
            sent.union(gf.map_batches(own, batch_format="pyarrow"))
            .groupby("unit_id")
            .aggregate(Min("cand"), Max("f"))
            .map_batches(hooks, batch_format="pyarrow")
            .groupby("unit_id")
            .aggregate(Min("cand"), Max("old"))
            .map_batches(settle, batch_format="pyarrow")
            .materialize()
        )
        changed = int(step.sum("changed") or 0)
        f = step.select_columns(["unit_id", "f"])
        if changed == 0:
            return f.rename_columns(["unit_id", "label"]), rounds
        if rounds >= budget:
            raise RuntimeError(
                f"connected_components: no fixpoint after {rounds} rounds "
                f"over {n_nodes} nodes; {changed} nodes still changing"
            )


def add_cluster_ids(
    findings_ds: "ray.data.Dataset",
    config: ClusterConfig | None = None,
    plan: dict | None = None,
) -> tuple["ray.data.Dataset", dict[str, int]]:
    """Label findings with cluster_id; returns (dataset, unit->cluster).

    On the driver path cluster_id is the dense rank 1..K of the
    component's smallest unit_id (unionfind.cluster_labels' ids) and
    the unit map is returned. Above the cutover the unit map would be
    corpus-sized, so it stays empty and cluster_id is a stable 63-bit
    hash of the smallest unit_id: its only contract downstream (rollup
    grouping, min-size filter, reports) is "same component <=> same
    id". ``config`` holds no clustering knob; ``plan`` is as in
    ``connected_components``."""
    from clonehunter_ray.functions.hashing import hash_token_u64
    from clonehunter_ray.stages.candidates import attach_by_key

    plan = {} if plan is None else plan
    labels = connected_components(findings_ds, plan)
    cluster_map: dict[str, int] = {}
    if plan["path"] == "driver":
        table = pa.concat_tables(ray.get(labels.to_arrow_refs()))
        lows = pc.unique(table["label"]).sort()
        rank = pc.add(pc.index_in(table["label"], value_set=lows), 1)
        cluster_map = dict(zip(table["unit_id"].to_pylist(), rank.to_pylist()))
        ids = ray.data.from_arrow(
            pa.table(
                {"unit_id": table["unit_id"], "cluster_id": rank.cast(pa.int64())}
            )
        )
    else:
        ids = labels.map_batches(
            lambda t: pa.table(
                {
                    "unit_id": t["unit_id"],
                    "cluster_id": pa.array(
                        [
                            hash_token_u64(s) & 0x7FFFFFFFFFFFFFFF
                            for s in t["label"].to_pylist()
                        ],
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    # no edges: the label table is typed null, so schema= types it
    labelled = attach_by_key(
        findings_ds,
        ids,
        "unit_id",
        ["cluster_id"],
        on="unit_a",
        how="left",
        num_partitions=_JOIN_PARTITIONS,
        schema=pa.schema([("unit_id", pa.string()), ("cluster_id", pa.int64())]),
    )
    return labelled, cluster_map


def filter_min_cluster_size(
    findings_ds: "ray.data.Dataset", min_size: int
) -> "ray.data.Dataset":
    """Reference filter_clusters (clustering.py:46-55): count findings
    per cluster_id, keep clusters with >= min_size findings — one inner
    ``attach_by_key`` semi-join (no columns attached) onto the kept
    cluster ids, so nothing cluster-sized is collected on the driver."""
    if min_size <= 1:
        return findings_ds
    from clonehunter_ray.stages.candidates import attach_by_key

    kept = (
        findings_ds.groupby("cluster_id")
        .count()
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["count()"], min_size)),
            batch_format="pyarrow",
        )
    )
    return attach_by_key(
        findings_ds,
        kept,
        "cluster_id",
        [],
        on="cluster_id",
        schema=pa.schema([("cluster_id", pa.int64())]),
    )
