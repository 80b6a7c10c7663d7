"""The benchmark workloads: inputs, the timed operation, its check.

Each workload drives the engine only through public functions.  The
timed operation runs from the first call into the engine until its
output is fully consumed by this process; generating inputs, computing
oracles and checking outputs happen outside the timed region.
"""

from __future__ import annotations

import os
import pickle

import pyarrow as pa

import checks
import inputs

# the timed query of the docs workload: a four-way join
QUERIES = ["revenue_by_nation"]
# queries of the traced run only.  The window query's time jumped
# between 0.2 and 1.6 s from one call to the next here, for about 0.2 s
# of work; the hash-min connected-components query
# takes 18-29 s a call on the dense token graph of the real-shaped
# documents, more than a run can spend next to three set-ups (README.md)
TRACED_QUERIES = ["top_orders_per_customer"]
HASHMIN_QUERY = "duplicate_clusters_documents"
STREAM_CHUNK_ROWS = 200


def consume(ds) -> pa.Table:
    """Pull every row of a dataset into this process."""
    parts = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(parts) if parts else pa.table({})


def _pairs(table: pa.Table) -> set:
    if table.num_rows == 0:
        return set()
    return set(zip(table["unit_a"].to_pylist(), table["unit_b"].to_pylist()))


class Workload:
    """Inputs live in ``work``, at paths fixed by the constructor, so a
    fresh process can warm up on them without preparing anything.
    ``prepare()`` writes the inputs and computes the ground truth, which
    it saves; ``load()`` reads the truth back in another process."""

    TRUTH: tuple[str, ...] = ()

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed

    def _save(self) -> None:
        path = os.path.join(self.work, "truth.pickle")
        with open(path + ".tmp", "wb") as f:
            pickle.dump({k: getattr(self, k) for k in self.TRUTH}, f)
        os.replace(path + ".tmp", path)

    def load(self) -> None:
        with open(os.path.join(self.work, "truth.pickle"), "rb") as f:
            self.__dict__.update(pickle.load(f))


class ScanWorkload(Workload):
    """``pipelines.scan.scan()`` with the default ``EngineConfig`` over a
    parquet code corpus."""

    TRUTH = ("items", "pos", "neg")

    def __init__(self, work: str, seed: int, n_files: int, warm_files: int):
        super().__init__(work, seed)
        self.n_files, self.warm_files = n_files, warm_files
        self.path = os.path.join(work, "files.parquet")
        self.warm_path = os.path.join(work, "warm.parquet")

    def prepare(self) -> None:
        files, truth = inputs.code_corpus(self.n_files, self.seed)
        self.items = files.num_rows
        inputs.write_table(files, self.path)
        self.pos, self.neg = checks.truth_sets(truth.to_pylist())
        warm, _ = inputs.code_corpus(self.warm_files, self.seed)
        inputs.write_table(warm, self.warm_path)
        self._save()

    def _scan(self, path: str):
        import ray.data

        from clonehunter_ray.config import EngineConfig
        from clonehunter_ray.pipelines.scan import scan

        return scan(ray.data.read_parquet(path), EngineConfig())

    def warm_up(self) -> None:
        consume(self._scan(self.warm_path).findings)

    def run_once(self):
        return consume(self._scan(self.path).findings)

    def check(self, out: pa.Table):
        return checks.check_scan(_pairs(out), self.pos, self.neg)

    def trace(self, tracer) -> None:
        import layers

        layers.trace_scan(self, tracer)


class DocsWorkload(Workload):
    """Document pipelines: MinHash near-dedup (batch keep and the
    streaming LSH index) plus DuckDB-oracle-checked queries over a
    generated documents table and a small star schema."""

    TRUTH = ("items", "doc_ids", "edges", "stream_truth", "oracle")

    def __init__(self, work: str, seed: int, n_docs: int, n_orders: int,
                 warm_docs: int, warm_orders: int):
        super().__init__(work, seed)
        self.n_docs, self.n_orders = n_docs, n_orders
        self.warm_docs, self.warm_orders = warm_docs, warm_orders
        self.sf_dir = os.path.join(work, "tables")
        self.warm_dir = os.path.join(work, "warm")
        self.docs_path = os.path.join(self.sf_dir, "documents.parquet")

    def prepare(self) -> None:
        docs = inputs.documents(self.n_docs, self.seed)
        self.items = docs.num_rows
        inputs.write_tables(
            {"documents": docs, **inputs.relational_tables(self.n_orders, self.seed)},
            self.sf_dir,
        )
        inputs.write_tables(
            {"documents": inputs.documents(self.warm_docs, self.seed),
             **inputs.relational_tables(self.warm_orders, self.seed)},
            self.warm_dir,
        )
        ids, texts = docs["doc_id"].to_pylist(), docs["text"].to_pylist()
        self.doc_ids = ids
        self.edges = checks.near_dup_edges(ids, texts, 0.8)
        self.stream_truth = checks.stream_truth(self.edges, STREAM_CHUNK_ROWS)
        self.oracle = self._oracle_answers(docs)
        self._save()

    def _oracle_answers(self, docs: pa.Table) -> dict:
        """Every query's answer from outside the engine: DuckDB running
        its ``oracle_sql()`` twin, and for the hash-min query the same
        definition in plain Python (checks.token_set_clusters)."""
        import duckdb

        import __ray_entry__ as E
        from tools.check_oracle import normalize

        con = duckdb.connect()
        for name in os.listdir(self.sf_dir):
            table = name.removesuffix(".parquet")
            con.execute(
                f"CREATE VIEW {table} AS SELECT * FROM "
                f"read_parquet('{os.path.join(self.sf_dir, name)}')"
            )
        sql = E.oracle_sql()
        out = {q: normalize(con.execute(sql[q]).fetchdf()) for q in QUERIES + TRACED_QUERIES}
        con.close()
        out[HASHMIN_QUERY] = normalize(checks.token_set_clusters(
            docs["doc_id"].to_pylist(), docs["text"].to_pylist()
        ))
        return out

    def dedup_keep(self, sf_dir: str) -> pa.Table:
        import ray.data

        from clonehunter_ray.pipelines import dedup

        docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        return consume(dedup.minhash_dedup_keep(docs, threshold=0.8))

    def dedup_stream(self, sf_dir: str) -> pa.Table:
        import ray.data

        from clonehunter_ray.pipelines import dedup

        docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        return consume(
            dedup.incremental_dedup_stream(docs, threshold=0.8, chunk_rows=STREAM_CHUNK_ROWS)
        )

    def query(self, name: str, sf_dir: str):
        import ray.data

        import __ray_entry__ as E

        out = E.queries()[name](sf_dir)
        return out.to_pandas() if isinstance(out, (ray.data.Dataset, pa.Table)) else out

    def _operate(self, sf_dir: str) -> dict:
        out = {"keep": self.dedup_keep(sf_dir), "stream": self.dedup_stream(sf_dir)}
        for q in QUERIES:
            out[q] = self.query(q, sf_dir)
        return out

    def warm_up(self) -> None:
        self._operate(self.warm_dir)

    def run_once(self):
        return self._operate(self.sf_dir)

    def check(self, out: dict):
        from tools.check_oracle import normalize

        ok, recall, reason = checks.check_keep(
            out["keep"].to_pylist(), self.doc_ids, self.edges
        )
        if ok:
            ok, r2, reason = checks.check_stream(
                out["stream"].to_pylist(), self.stream_truth, self.edges
            )
            recall = min(recall, r2)
        if not ok:
            return ok, recall, reason
        for q in out.keys() - {"keep", "stream"}:
            reason = checks.compare_frames(normalize(out[q]), self.oracle[q])
            if reason:
                return False, recall, f"{q}: {reason}"
        return True, recall, ""

    def trace(self, tracer) -> None:
        import layers

        layers.trace_docs(self, tracer)


SIZES = {
    "scan": dict(n_files=6000, warm_files=10),
    "docs": dict(n_docs=20000, n_orders=1000, warm_docs=50, warm_orders=50),
}
# small inputs for the layers a workload's traced run measures off its
# own path (layers.py)
COMPANION = {
    "scan": dict(n_files=60, warm_files=10),
    "docs": dict(n_docs=300, n_orders=300, warm_docs=50, warm_orders=50),
}
_CLASSES = {"scan": ScanWorkload, "docs": DocsWorkload}


def make(name: str, work_root: str, seed: int, companion: bool = False):
    """The workload ``name`` on inputs from ``seed``; its inputs and
    ground truth live in a work directory keyed by the workload, its
    sizes and the seed."""
    sizes = (COMPANION if companion else SIZES)[name]
    tag = "-".join(f"{v}" for v in sizes.values())
    work = os.path.join(work_root, f"{name}-{tag}-s{seed}")
    return _CLASSES[name](work, seed, **sizes)
