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

``attach_labels`` puts the labels on rows (broadcast when the label
table is driver-sized, partitioned join otherwise). ``add_cluster_ids``
is the scan's use of both. ``filter_min_cluster_size`` reproduces the
reference's ``filter_clusters`` (clustering.py:46-55): keep findings
whose cluster has >= min_size *findings* (not members).
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


def _label_table(labels_ds: "ray.data.Dataset") -> pa.Table:
    return pa.concat_tables(ray.get(labels_ds.to_arrow_refs())).combine_chunks()


def attach_labels(
    rows_ds: "ray.data.Dataset", labels_ds: "ray.data.Dataset", key: str
) -> "ray.data.Dataset":
    """``rows_ds`` plus a ``label`` column: the label of each row's
    ``key`` in ``labels_ds`` (unit_id, label), null for a key that is
    in no edge. A driver-sized label table (at most two nodes per edge
    below the cutover) is broadcast; a larger one is joined."""
    if labels_ds.count() > 2 * DRIVER_MAX_EDGES:
        return _join_labels(rows_ds, labels_ds, key)
    table_ref = ray.put(_label_table(labels_ds))

    def lookup(batch: pa.Table) -> pa.Table:
        table = ray.get(table_ref)
        keys = batch[key]
        ids = table["unit_id"].cast(keys.type).combine_chunks()
        label = table["label"].take(pc.index_in(keys, value_set=ids))
        if pa.types.is_null(label.type):  # no edges, so no id type seen
            label = label.cast(keys.type)
        return batch.append_column("label", label)

    return rows_ds.map_batches(lookup, batch_format="pyarrow")


# Ray's hash join (Arrow Acero) carries no list columns; list<string>
# columns (the findings' reasons) cross it as \x1f-joined strings.
# Reason tags never contain \x1f, so the round trip is lossless.
_SEP = "\x1f"
_PACKED = "__packed__"


def _pack_lists(batch: pa.Table) -> pa.Table:
    for i, field in enumerate(batch.schema):
        if pa.types.is_list(field.type):
            batch = batch.set_column(
                i,
                _PACKED + field.name,
                pc.binary_join(batch.column(i).combine_chunks(), _SEP),
            )
    return batch


def _unpack_lists(batch: pa.Table) -> pa.Table:
    for i, field in enumerate(batch.schema):
        if field.name.startswith(_PACKED):
            col = batch.column(i)
            lists = pc.if_else(
                pc.equal(col, ""),
                pa.scalar([], pa.list_(pa.string())),
                pc.split_pattern(col, pattern=_SEP).cast(pa.list_(pa.string())),
            )
            batch = batch.set_column(i, field.name[len(_PACKED):], lists)
    return batch


def _join_labels(
    rows_ds: "ray.data.Dataset", labels_ds: "ray.data.Dataset", key: str
) -> "ray.data.Dataset":
    labels = labels_ds.map_batches(
        lambda t: t.rename_columns([key, "label"]), batch_format="pyarrow"
    )
    return safe_join(
        rows_ds.map_batches(_pack_lists, batch_format="pyarrow"),
        labels,
        "left_outer",
        _JOIN_PARTITIONS,
        on=(key,),
    ).map_batches(_unpack_lists, batch_format="pyarrow")


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

    plan = {} if plan is None else plan
    labels = connected_components(findings_ds, plan)
    cluster_map: dict[str, int] = {}
    if plan["path"] == "driver":
        table = _label_table(labels)
        lows = pc.unique(table["label"]).sort()
        rank = pc.add(pc.index_in(table["label"], value_set=lows), 1)
        cluster_map = dict(zip(table["unit_id"].to_pylist(), rank.to_pylist()))
        ids = ray.data.from_arrow(
            pa.table({"unit_id": table["unit_id"], "label": rank.cast(pa.int64())})
        )
    else:
        ids = labels.map_batches(
            lambda t: pa.table(
                {
                    "unit_id": t["unit_id"],
                    "label": pa.array(
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
    labelled = attach_labels(findings_ds, ids, "unit_a").map_batches(
        lambda t: t.rename_columns(
            ["cluster_id" if c == "label" else c for c in t.column_names]
        ),
        batch_format="pyarrow",
    )
    return labelled, cluster_map


def filter_min_cluster_size(
    findings_ds: "ray.data.Dataset", min_size: int
) -> "ray.data.Dataset":
    """Reference filter_clusters (clustering.py:46-55): count findings
    per cluster_id, keep clusters with >= min_size findings."""
    if min_size <= 1:
        return findings_ds

    counts_ds = findings_ds.groupby("cluster_id").count()
    keep = [
        r["cluster_id"]
        for r in counts_ds.iter_rows()
        if r["count()"] >= min_size
    ]
    keep_ref = ray.put(pa.array(keep, pa.int64()))

    def _filter(batch):
        mask = pc.fill_null(
            pc.is_in(batch["cluster_id"], value_set=ray.get(keep_ref)), False
        )
        return batch.filter(mask)

    return findings_ds.map_batches(_filter, batch_format="pyarrow")
