"""Distributed MUTABLE LSH index for incremental / streaming dedup.

The batch pipelines (pipelines/dedup.py) re-band the whole corpus every
run. An ingest pipeline at 100 TB instead APPENDS: each new batch of
documents must be checked against everything already indexed without
touching existing postings. A shared mutable index is the one semantics
the Dataset API can't express, so this module drops to raw Ray actors
(the documented last-resort case): N index shards, each owning

* band postings:  sorted runs of ``(band_key, doc_id, seq)`` for
  ``band_key % N == shard``, where ``seq`` is the ingest number of the
  posting's chunk
* doc payloads:   ``doc_id -> sorted-unique shingle blob`` for
  ``doc_id % N == shard``

"Only earlier chunks count" lives in the data, not in call order: a
lookup keeps a posting only when its ``seq`` is below the querying
row's. A whole window of chunks therefore goes to each shard in ONE
``ingest`` call (append the window's postings, then look them up —
earlier windows and earlier chunks of the same window match, the same
chunk never does) and one ``put`` call carrying the owned payloads as
an Arrow binary array. Corpus payloads never leave their owner:
candidate verification runs on the shard owning the corpus doc, with
only the new rows' blobs travelling. Partitioning assumption: shard
count is fixed for the index lifetime (re-sharding = rebuild), the
standard trade-off for hash-routed mutable state.

Reference parity note: this generalizes the reference's incremental
embedding cache (embedding/cache.py) from "skip re-embedding" to
"query the live index", which its multiprocessing engine cannot do.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from clonehunter_ray.config import SignatureConfig
from clonehunter_ray.functions import hashing as H

# the seq of a query that looks at the whole index, and of postings
# restored from a snapshot (earlier than any chunk ingested after it)
QUERY_SEQ = np.iinfo(np.int64).max
RESTORED_SEQ = -1


def _sorted_run(
    keys: np.ndarray, doc_ids: np.ndarray, seqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = np.argsort(keys, kind="stable")
    return keys[order], doc_ids[order], seqs[order]


@ray.remote(num_cpus=0)
class _LshIndexShard:
    """One hash shard: band postings + payload blobs + local verify.

    num_cpus=0: the shards are a long-lived state service that must
    coexist with the signature tasks and Ray Data's read/sort
    tasks inside the same CPU budget — N shards each holding a full
    logical CPU deadlocks a small session (4 shards = the whole 4-CPU
    test cluster) before the ingest pipeline can start. Their verify
    bursts are short and vectorized; mild oversubscription beats a
    resource deadlock.

    Postings are an LSM stack of key-sorted runs: a new run merges into
    the run below it while that run is at most twice its size, so the
    stack holds O(log n) runs and an append costs amortized O(log n)
    per posting instead of growing with the index."""

    def __init__(self) -> None:
        self._runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._blobs: dict[int, bytes] = {}

    def append(
        self, keys: np.ndarray, doc_ids: np.ndarray, seqs: np.ndarray
    ) -> None:
        if keys.size == 0:
            return
        run = _sorted_run(keys, doc_ids, seqs)
        while self._runs and self._runs[-1][0].size <= 2 * run[0].size:
            below = self._runs.pop()
            run = _sorted_run(
                *(np.concatenate([b, r]) for b, r in zip(below, run))
            )
        self._runs.append(run)

    def lookup(
        self, keys: np.ndarray, seqs: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(band_key, query seq, row) -> candidate (row, corpus doc_id)
        pairs from every posting with that key and a smaller seq."""
        out_rows, out_docs = [], []
        for run_keys, run_ids, run_seqs in self._runs:
            lo = np.searchsorted(run_keys, keys, side="left")
            counts = np.searchsorted(run_keys, keys, side="right") - lo
            total = int(counts.sum())
            if total == 0:
                continue
            # vectorized expansion of the [lo, lo + count) ranges
            ends = np.cumsum(counts)
            pos = np.repeat(lo - (ends - counts), counts) + np.arange(total)
            q = np.repeat(np.arange(keys.size), counts)
            earlier = run_seqs[pos] < seqs[q]
            out_rows.append(rows[q[earlier]])
            out_docs.append(run_ids[pos[earlier]])
        if not out_rows:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(out_rows), np.concatenate(out_docs)

    def ingest(
        self,
        keys: np.ndarray,
        doc_ids: np.ndarray,
        seqs: np.ndarray,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append one window's postings, then return its candidates:
        the same as query-then-add per chunk, since a posting only
        matches rows of a later seq."""
        self.append(keys, doc_ids, seqs)
        return self.lookup(keys, seqs, rows)

    def put(self, doc_ids: np.ndarray, blobs: pa.Array) -> None:
        self._blobs.update(zip(doc_ids.tolist(), blobs.to_pylist()))

    def verify(self, corpus_ids: np.ndarray, new_blobs: pa.Array) -> np.ndarray:
        """Exact Jaccard of each (owned corpus doc, new blob) pair —
        vectorized, payloads never leave the shard."""
        a = pa.array(
            [self._blobs[c] for c in corpus_ids.tolist()], pa.binary()
        )
        return H.jaccard_batch(a, new_blobs)

    def _flat_postings(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._runs:
            return np.empty(0, np.uint64), np.empty(0, np.int64)
        return (
            np.concatenate([r[0] for r in self._runs]),
            np.concatenate([r[1] for r in self._runs]),
        )

    def stats(self) -> dict:
        keys, _ = self._flat_postings()
        return {"band_keys": int(np.unique(keys).size), "docs": len(self._blobs)}

    def snapshot(self, epoch_dir: str, shard_idx: int) -> dict:
        """Persist this shard's full state as two parquet files inside
        ``epoch_dir`` (worker-side write — the driver never sees the
        payloads): the flattened (band_key, doc_id) postings plus the
        (doc_id, blob) table. Seqs are not stored: every posting of a
        snapshot is earlier than anything ingested after it."""
        import os

        import pyarrow.parquet as pq

        os.makedirs(epoch_dir, exist_ok=True)
        keys, ids = self._flat_postings()
        postings = pa.table(
            {
                "band_key": pa.array(keys, pa.uint64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )
        blobs = pa.table(
            {
                "doc_id": pa.array(list(self._blobs), pa.int64()),
                "blob": pa.array(list(self._blobs.values()), pa.binary()),
            }
        )
        pq.write_table(
            postings, os.path.join(epoch_dir, f"shard_{shard_idx}_postings.parquet")
        )
        pq.write_table(
            blobs, os.path.join(epoch_dir, f"shard_{shard_idx}_blobs.parquet")
        )
        return {"postings": postings.num_rows, "docs": blobs.num_rows}

    def restore(self, epoch_dir: str, shard_idx: int) -> dict:
        """Rebuild shard state from a ``snapshot`` epoch (replaces any
        current state); restored postings get ``RESTORED_SEQ``."""
        import os

        import pyarrow.parquet as pq

        postings = pq.read_table(
            os.path.join(epoch_dir, f"shard_{shard_idx}_postings.parquet")
        )
        blobs = pq.read_table(
            os.path.join(epoch_dir, f"shard_{shard_idx}_blobs.parquet")
        )
        self._runs = []
        ids = postings["doc_id"].to_numpy().astype(np.int64)
        self.append(
            postings["band_key"].to_numpy().astype(np.uint64),
            ids,
            np.full(ids.size, RESTORED_SEQ, dtype=np.int64),
        )
        self._blobs = dict(
            zip(blobs["doc_id"].to_pylist(), blobs["blob"].to_pylist())
        )
        return self.stats()


OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("dup_of", pa.int64()),
        ("jaccard", pa.float64()),
    ]
)


def dedupe_candidate_pairs(
    qb_results: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard ``lookup`` / ``ingest`` results and drop
    duplicate (new_idx, corpus_doc) pairs (the same pair surfaces from
    many bands/shards)."""
    new_idx = np.concatenate([c[0] for c in qb_results])
    corpus = np.concatenate([c[1] for c in qb_results])
    if new_idx.size == 0:
        return new_idx, corpus
    order = np.lexsort((corpus, new_idx))
    new_idx, corpus = new_idx[order], corpus[order]
    keep = np.concatenate(
        [[True], (new_idx[1:] != new_idx[:-1]) | (corpus[1:] != corpus[:-1])]
    )
    return new_idx[keep], corpus[keep]


def verify_on_owners(
    shards,
    n_shards: int,
    new_idx: np.ndarray,
    corpus: np.ndarray,
    ids: np.ndarray,
    shingles: pa.ChunkedArray,
    threshold: float,
) -> pa.Table:
    """Exact-Jaccard verification of candidate (new, corpus) pairs on
    the shard OWNING each corpus doc (payloads never move; the new
    rows' ``shingles`` blobs travel as Arrow binary arrays); returns
    flagged (doc_id, dup_of, jaccard) rows."""
    if new_idx.size == 0:
        return OUT_SCHEMA.empty_table()
    owner = corpus % n_shards
    refs, slots = [], []
    for s in range(n_shards):
        sel = np.flatnonzero(owner == s)
        if sel.size == 0:
            continue
        refs.append(
            shards[s].verify.remote(corpus[sel], shingles.take(new_idx[sel]))
        )
        slots.append(sel)
    jac = np.zeros(new_idx.size, dtype=np.float64)
    for sel, res in zip(slots, ray.get(refs)):
        jac[sel] = res
    hit = jac >= threshold
    return pa.table(
        {
            "doc_id": pa.array(ids[new_idx[hit]], pa.int64()),
            "dup_of": pa.array(corpus[hit], pa.int64()),
            "jaccard": pa.array(jac[hit], pa.float64()),
        },
        schema=OUT_SCHEMA,
    )


def keep_earliest(t: pa.Table) -> pa.Table:
    """One row per doc_id: the EARLIEST (min) dup_of — the
    deterministic representative. Vectorized lexsort + run-first."""
    if t.num_rows == 0:
        return OUT_SCHEMA.empty_table()
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    dup = t["dup_of"].to_numpy(zero_copy_only=False)
    jac = t["jaccard"].to_numpy(zero_copy_only=False)
    order = np.lexsort((dup, ids))
    first = np.concatenate([[True], ids[order][1:] != ids[order][:-1]])
    sel = order[first]
    return pa.table(
        {
            "doc_id": pa.array(ids[sel], pa.int64()),
            "dup_of": pa.array(dup[sel], pa.int64()),
            "jaccard": pa.array(jac[sel], pa.float64()),
        },
        schema=OUT_SCHEMA,
    )


class ShardedLshIndex:
    """Driver-side handle over N ``_LshIndexShard`` actors.

    ``seq`` is the ingest number of the next chunk: ``add`` indexes its
    batch as one chunk, ``ingest`` its window as chunks of ``chunk_rows``
    rows."""

    def __init__(
        self, n_shards: int = 4, config: SignatureConfig | None = None
    ) -> None:
        from clonehunter_ray.pipelines.dedup import DocSignatureStage

        self.config = config or SignatureConfig(
            shingle_k=5, num_bands=32, band_rows=4
        )
        self._signatures = DocSignatureStage(
            self.config, emit=("shingles", "bands")
        )
        self.n = n_shards
        self.shards = [_LshIndexShard.remote() for _ in range(n_shards)]
        self.seq = 0

    # -- routing -------------------------------------------------------------

    def _postings(self, sig: pa.Table, row_seq: np.ndarray):
        """Per band shard: the (keys, doc_ids, seqs, rows) postings of
        the signed rows ``sig`` (doc_id, shingles, band_keys)."""
        ids = sig["doc_id"].to_numpy().astype(np.int64)
        keys = (
            pc.list_flatten(sig["band_keys"]).to_numpy().astype(np.uint64)
        )
        rows = np.repeat(np.arange(ids.size), self.config.num_bands)
        band_shard = keys % np.uint64(self.n)
        for s in range(self.n):
            sel = band_shard == s
            r = rows[sel]
            yield self.shards[s], keys[sel], ids[r], row_seq[r], r

    def _put(self, sig: pa.Table) -> list:
        """One ``put`` per shard: the payloads of the docs it owns."""
        ids = sig["doc_id"].to_numpy().astype(np.int64)
        owner = ids % self.n
        refs = []
        for s in range(self.n):
            sel = np.flatnonzero(owner == s)
            refs.append(
                self.shards[s].put.remote(ids[sel], sig["shingles"].take(sel))
            )
        return refs

    def _verify(self, cand: list, sig: pa.Table, threshold: float) -> pa.Table:
        new_idx, corpus = dedupe_candidate_pairs(cand)
        return verify_on_owners(
            self.shards,
            self.n,
            new_idx,
            corpus,
            sig["doc_id"].to_numpy().astype(np.int64),
            sig["shingles"],
            threshold,
        )

    # -- mutations / queries -------------------------------------------------

    def ingest(
        self, sig: pa.Table, chunk_rows: int, threshold: float = 0.8
    ) -> pa.Table:
        """Streaming-ingest step over a window of signed rows split into
        chunks of ``chunk_rows``: index every row and return, per row,
        its EARLIEST verified near-dup among the rows of earlier chunks
        (``keep_earliest`` of the flagged pairs). One ``ingest`` and one
        ``put`` call per shard; the verify calls are submitted after the
        puts to the same actors, so the window's blobs are in place."""
        row_seq = self.seq + np.arange(sig.num_rows) // chunk_rows
        refs = [
            shard.ingest.remote(*postings)
            for shard, *postings in self._postings(sig, row_seq)
        ]
        puts = self._put(sig)
        self.seq += -(-sig.num_rows // chunk_rows)
        flagged = self._verify(ray.get(refs), sig, threshold)
        ray.get(puts)
        return keep_earliest(flagged)

    def add(self, batch: pa.Table) -> None:
        """Index ``batch`` as the next chunk."""
        sig = self._signatures(batch)
        row_seq = np.full(sig.num_rows, self.seq, dtype=np.int64)
        refs = [
            shard.append.remote(keys, ids, seqs)
            for shard, keys, ids, seqs, _ in self._postings(sig, row_seq)
        ]
        ray.get(refs + self._put(sig))
        self.seq += 1

    def query(self, batch: pa.Table, threshold: float = 0.8) -> pa.Table:
        """Verified near-dup pairs of ``batch`` against the CURRENT
        index: (doc_id, dup_of, jaccard), one row per indexed doc whose
        exact shingle Jaccard with the new doc reaches ``threshold``."""
        sig = self._signatures(batch)
        row_seq = np.full(sig.num_rows, QUERY_SEQ, dtype=np.int64)
        refs = [
            shard.lookup.remote(keys, seqs, rows)
            for shard, keys, _, seqs, rows in self._postings(sig, row_seq)
        ]
        return self._verify(ray.get(refs), sig, threshold)

    def query_then_add(self, batch: pa.Table, threshold: float = 0.8) -> pa.Table:
        """Streaming-ingest step: flag near-dups of EARLIER docs, then
        index this batch (docs within one batch never match each other
        — batch boundaries define 'earlier')."""
        res = self.query(batch, threshold)
        self.add(batch)
        return res

    def stats(self) -> list[dict]:
        return ray.get([s.stats.remote() for s in self.shards])

    # -- checkpoint / resume -------------------------------------------------

    def _manifest_payload(self) -> dict:
        c = self.config
        return {
            "n_shards": self.n,
            "shingle_k": c.shingle_k,
            "num_bands": c.num_bands,
            "band_rows": c.band_rows,
            "num_perm": c.num_perm,
            "seed": c.seed,
        }

    def snapshot(
        self,
        checkpoint_dir: str,
        seq: int,
        max_doc_id: int,
        flagged: pa.Table | None = None,
    ) -> str:
        """Write a complete epoch snapshot: every shard persists its own
        state in parallel (partitioned parquet, one pair of files per
        shard), the flagged-rows DELTA since the previous epoch lands
        beside them, then the driver commits the epoch by writing
        MANIFEST.json LAST — manifest presence marks the epoch
        complete, so a crash mid-snapshot leaves only ignorable
        partial files."""
        import json
        import os

        import pyarrow.parquet as pq

        epoch_dir = os.path.join(checkpoint_dir, f"epoch_{seq:08d}")
        refs = [
            s.snapshot.remote(epoch_dir, i)
            for i, s in enumerate(self.shards)
        ]
        if flagged is not None:
            os.makedirs(epoch_dir, exist_ok=True)
            pq.write_table(
                flagged, os.path.join(epoch_dir, "flagged.parquet")
            )
        ray.get(refs)
        manifest = dict(
            self._manifest_payload(), seq=seq, max_doc_id=int(max_doc_id)
        )
        tmp = os.path.join(epoch_dir, "MANIFEST.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, os.path.join(epoch_dir, "MANIFEST.json"))
        return epoch_dir

    @staticmethod
    def list_epochs(checkpoint_dir: str) -> list[dict]:
        """Complete (manifest-committed) epochs, ascending by seq."""
        import glob
        import json
        import os

        out = []
        for mf in sorted(
            glob.glob(os.path.join(checkpoint_dir, "epoch_*", "MANIFEST.json"))
        ):
            with open(mf) as fh:
                m = json.load(fh)
            m["epoch_dir"] = os.path.dirname(mf)
            out.append(m)
        return sorted(out, key=lambda m: m["seq"])

    def restore_latest(self, checkpoint_dir: str) -> dict | None:
        """Restore shard state from the newest complete epoch under
        ``checkpoint_dir`` (no-op returning None when there is none) and
        continue numbering chunks from its ``seq``. Raises if the
        checkpoint was written with a different shard count or signature
        config — hash routing and band keys would silently mismatch
        otherwise."""
        epochs = self.list_epochs(checkpoint_dir)
        if not epochs:
            return None
        m = epochs[-1]
        want = self._manifest_payload()
        got = {k: m[k] for k in want}
        if got != want:
            raise ValueError(
                f"lsh checkpoint config mismatch: snapshot {got} != index {want}"
            )
        ray.get(
            [
                s.restore.remote(m["epoch_dir"], i)
                for i, s in enumerate(self.shards)
            ]
        )
        self.seq = int(m["seq"])
        return m

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
