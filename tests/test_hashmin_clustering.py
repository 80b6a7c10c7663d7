"""The one connected-components routine (stages/clustering.py) on its
distributed hook-and-shortcut path — forced by setting the edge cutover
to 0 — against driver-side union-find, including every caller."""

from __future__ import annotations

import random

import pyarrow as pa
import pytest
import ray.data

from clonehunter_ray.config import EngineConfig
from clonehunter_ray.corpus import generate_corpus
from clonehunter_ray.pipelines.scan import scan
from clonehunter_ray.stages import clustering as C
from clonehunter_ray.state.unionfind import cluster_labels


@pytest.fixture
def distributed(monkeypatch):
    """Every non-empty edge set takes the distributed loop."""
    monkeypatch.setattr(C, "DRIVER_MAX_EDGES", 0)


def _edges_ds(edges, id_type=pa.string()):
    return ray.data.from_arrow(
        pa.table(
            {
                "unit_a": pa.array([a for a, _ in edges], id_type),
                "unit_b": pa.array([b for _, b in edges], id_type),
            }
        )
    )


def _components(edges, id_type=pa.string()):
    plan: dict = {}
    rows = C.connected_components(_edges_ds(edges, id_type), plan).iter_rows()
    return {r["unit_id"]: r["label"] for r in rows}, plan


def _shuffled_path(n: int, seed: int) -> list:
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return list(zip(ids, ids[1:]))


def test_hashmin_matches_unionfind_components(ray_session, distributed):
    # two chains + a triangle + an isolated pair; chain needs >1 round
    edges = [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
        ("p", "q"), ("q", "r"), ("r", "p"),
        ("x", "y"),
    ]
    labels, plan = _components(edges)
    assert plan["path"] == "distributed" and plan["edges"] == len(edges)
    assert plan["rounds"] >= 1
    uf = cluster_labels(edges)
    # same partitioning of nodes into components
    nodes = sorted(labels)
    assert nodes == sorted(uf)
    for u in nodes:
        for v in nodes:
            assert (labels[u] == labels[v]) == (uf[u] == uf[v]), (u, v)
    # labels are the min unit_id of the component
    assert labels["e"] == "a" and labels["r"] == "p" and labels["y"] == "x"


def test_scan_distributed_clustering_branch(ray_session, monkeypatch):
    files, truth = generate_corpus(120, 11)
    r_driver = scan(ray.data.from_arrow(files), EngineConfig())
    f_driver = r_driver.findings.to_pandas()
    monkeypatch.setattr(C, "DRIVER_MAX_EDGES", 0)
    r_dist = scan(ray.data.from_arrow(files), EngineConfig())
    f_dist = r_dist.findings.to_pandas()

    assert r_driver.stats["plan"]["clustering"]["path"] == "driver"
    assert r_dist.stats["plan"]["clustering"]["path"] == "distributed"
    assert r_dist.stats["counts"]["clusters"] == r_driver.stats["counts"]["clusters"]
    assert sorted(f_dist.pair_key) == sorted(f_driver.pair_key)
    # the reasons list column survives the attach join
    assert sorted(map(tuple, f_dist.sort_values("pair_key").reasons)) == sorted(
        map(tuple, f_driver.sort_values("pair_key").reasons)
    )
    # cluster ids may be numbered differently but must induce the same
    # partition of unit pairs
    def comp_map(df):
        comp = {}
        for _, row in df.iterrows():
            comp.setdefault(row.cluster_id, set()).update(
                (row.unit_a, row.unit_b)
            )
        # sort by a TOTAL order (frozenset < is subset comparison, a
        # partial order — sorted() over it is encounter-order dependent)
        return sorted((tuple(sorted(v)) for v in comp.values()))

    assert comp_map(f_dist) == comp_map(f_driver)


def test_hashmin_int64_edges(ray_session, distributed):
    """The routine is type-generic: int64 doc-id edges label each
    component with its minimum doc_id."""
    edges = [(5, 4), (4, 3), (3, 2), (10, 11), (20, 21)]
    labels, _ = _components(edges, pa.int64())
    assert labels == {5: 2, 4: 2, 3: 2, 2: 2, 10: 10, 11: 10, 20: 20, 21: 20}


@pytest.mark.parametrize("id_kind", ["int", "string"])
def test_long_shuffled_path_is_one_component(ray_session, distributed, id_kind):
    """A 1,000-node path whose ids are shuffled along the chain: far
    beyond any fixed round count of min-label flooding, one label."""
    edges = _shuffled_path(1000, 3)
    id_type = pa.int64()
    if id_kind == "string":
        edges = [(f"n{a}", f"n{b}") for a, b in edges]
        id_type = pa.string()
    labels, plan = _components(edges, id_type)
    assert len(labels) == 1000
    assert set(labels.values()) == {min(labels)}
    assert plan["path"] == "distributed"
    assert plan["rounds"] <= C.max_rounds(1000)


def test_star_plus_chain_one_label_per_component(ray_session, distributed):
    """Hub shape of capped LSH buckets: a 600-spoke star whose spokes
    feed a 300-node chain, next to a separate 100-node star; ids are
    shuffled so no id order follows the shape."""
    ids = list(range(1002))
    random.Random(5).shuffle(ids)
    big = [(0, s) for s in range(1, 601)]
    big += [(600 + i, 601 + i) for i in range(300)]  # chain off spoke 600
    small = [(901, s) for s in range(902, 1002)]
    edges = [(ids[a], ids[b]) for a, b in big + small]
    labels, _ = _components(edges, pa.int64())
    want = {ids[u]: min(ids[v] for v in range(901)) for u in range(901)}
    want.update({ids[u]: min(ids[v] for v in range(901, 1002)) for u in range(901, 1002)})
    assert labels == want


def test_round_bound_raises(ray_session, distributed, monkeypatch):
    """The loop never returns without a fixpoint: past its round
    budget it raises with the round count and the changing nodes."""
    monkeypatch.setattr(C, "max_rounds", lambda n_nodes: 1)
    with pytest.raises(RuntimeError, match=r"after 1 rounds over 40 nodes; \d+ nodes"):
        _components(_shuffled_path(40, 1), pa.int64())


def test_minhash_keep_distributed_matches_driver(ray_session, monkeypatch):
    """minhash_dedup_keep on the distributed path: keep flags and
    cluster ids (the component's min doc_id on both paths) must match
    the driver union-find path exactly."""
    from clonehunter_ray.pipelines.dedup import minhash_dedup_keep

    texts = []
    base = " ".join(f"tok{i} word{i} filler{i}" for i in range(60))
    for d in range(30):
        if d % 3 == 2:
            texts.append(base + f" tail{d // 3}")  # near-dup of the pair below
        elif d % 3 == 1:
            texts.append(base + f" tail{d // 3} extra")
        else:
            texts.append(f"unique document {d} " + " ".join(
                f"only{d}_{i}" for i in range(50)
            ))
    docs = pa.table(
        {"doc_id": pa.array(range(30), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )

    drv = minhash_dedup_keep(
        ray.data.from_arrow(docs), threshold=0.7
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(C, "DRIVER_MAX_EDGES", 0)
    dist = minhash_dedup_keep(
        ray.data.from_arrow(docs), threshold=0.7
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    assert len(drv) == len(dist) == 30
    assert drv["keep"].tolist() == dist["keep"].tolist()
    assert drv["cluster_id"].tolist() == dist["cluster_id"].tolist()
    in_cl = dist[dist.cluster_id != -1]
    assert len(in_cl) > 0  # clusters actually formed
    # cluster_id is the min member, and exactly that member is kept
    g = in_cl.groupby("cluster_id")["doc_id"].min()
    assert (g.index.values == g.values).all()
    assert ((dist["doc_id"] == dist["cluster_id"]) == (dist["keep"] & (dist["cluster_id"] != -1))).all()


def test_minhash_keep_best_quality_representative(ray_session, monkeypatch):
    """minhash_dedup_keep_best keeps the HIGHEST-quality doc per
    near-dup cluster (ties -> min doc_id), exactly one keeper per
    cluster, unclustered docs always kept — on both the driver
    union-find and the distributed connected-components paths."""
    from clonehunter_ray.pipelines.dedup import minhash_dedup_keep_best

    texts = []
    base = " ".join(f"tok{i} word{i} filler{i}" for i in range(60))
    for d in range(30):
        if d % 3 == 2:
            # near-dup of the d % 3 == 1 doc but with MORE distinct
            # content -> higher quality, must win over the lower id
            texts.append(base + f" tail{d // 3} bonus{d} extra{d} rich{d}")
        elif d % 3 == 1:
            texts.append(base + f" tail{d // 3} extra")
        else:
            texts.append(f"unique document {d} " + " ".join(
                f"only{d}_{i}" for i in range(50)
            ))
    docs = pa.table(
        {"doc_id": pa.array(range(30), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )

    for max_edges in (C.DRIVER_MAX_EDGES, 0):  # driver, distributed path
        monkeypatch.setattr(C, "DRIVER_MAX_EDGES", max_edges)
        out = (
            minhash_dedup_keep_best(
                ray.data.from_arrow(docs), threshold=0.7, num_partitions=4,
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(out) == 30
        clustered = out[out.cluster_id != -1]
        assert len(clustered) > 0
        # exactly one keeper per cluster, and it is the quality argmax
        for _, g in clustered.groupby("cluster_id"):
            keepers = g[g.keep]
            assert len(keepers) == 1
            best = g.sort_values(
                ["quality", "doc_id"], ascending=[False, True]
            ).iloc[0]
            assert keepers.iloc[0]["doc_id"] == best["doc_id"]
        # unclustered docs always keep
        assert out[out.cluster_id == -1]["keep"].all()
        # the richer near-dup (higher id, higher quality) beats its pair
        pair_clusters = clustered.groupby("cluster_id").filter(
            lambda g: set(g.doc_id % 3) == {1, 2}
        )
        if len(pair_clusters):
            kept = pair_clusters[pair_clusters.keep]
            assert (kept.doc_id % 3 == 2).all()


def test_duplicate_clusters_documents_vs_recursive_cte(ray_session, monkeypatch):
    """End-to-end oracle parity for the clustering routine on both of
    its paths: connected components over the exact token-Jaccard edge
    set must produce the identical (doc_id, cluster_id) labeling as a
    DuckDB recursive-CTE transitive closure (singletons label
    themselves)."""
    import duckdb

    import __ray_entry__ as entry
    from clonehunter_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = (
        con.sql(entry.oracle_sql()["duplicate_clusters_documents"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for max_edges in (C.DRIVER_MAX_EDGES, 0):  # driver, distributed path
        monkeypatch.setattr(C, "DRIVER_MAX_EDGES", max_edges)
        mine = (
            Q.duplicate_clusters_documents(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(mine) == len(want) > 0
        assert (mine["doc_id"].values == want["doc_id"].values).all()
        assert (mine["cluster_id"].values == want["cluster_id"].values).all()
        # labels are canonical: every cluster_id is the min member id
        g = mine.groupby("cluster_id")["doc_id"].min()
        assert (g.index.values == g.values).all()
        assert (mine["cluster_id"] != mine["doc_id"]).any()  # real clusters
