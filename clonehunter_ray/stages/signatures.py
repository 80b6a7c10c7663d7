"""Signature stage: snippets -> MinHash/SimHash signatures.

This replaces the reference's transformer embedding stage (reference
embedding/codebert_embedder.py:37-129 — 92% of its cold wall time) with
stateless-in-data, stateful-in-setup hash signatures, per the
BASELINE.json north_star.

Engine shape: plain Ray Data **tasks** —
``ds.map_batches(signatures_task, fn_kwargs={"config": ...,
"emit_token_seq": ...}, batch_size=B, batch_format="pyarrow")``. The
stage's only state is its MinHash permutation tables and scratch
buffer (a few KB to 8 MB), so it lives in a per-process cache keyed by
the frozen config and the emit argument (``util.cached_stage``). Ray
reuses task workers, so ``SignatureStage`` is built once per worker
process, every CPU runs the fused read->signatures chain, and no actor
pool holds CPU slots the read tasks need. The scan runs that chain on
the stage's own Ray Data context, whose ``target_max_block_size``
(``pipelines/scan.SIGNATURE_BLOCK_BYTES``, 32 MiB) sits near the
stage's real blocks: at the session's 128 MiB, Ray's estimate of a
first task's pending output let the operator start a single task.
Each ``__call__`` vectorizes over the whole Arrow batch; SimHash counts
bits from per-byte histograms (``hashing.simhash_from_flat``).

Output columns (FIXTURES.md §3 `signatures`, plus carried snippet meta
so downstream stages never re-join against raw text):

* ``shingles  list<uint64>`` — sorted distinct k-token shingle hashes
  (the exact-Jaccard verification basis)
* ``tokens    list<uint64>`` — sorted distinct token hashes (the
  lexical-similarity basis, reference similarity/lexical.py:6-19)
* ``minhash   list<uint64>[num_perm]``
* ``band_keys list<uint64>[num_bands]`` — LSH band hashes (band index
  mixed in)
* ``simhash   uint64``, ``n_shingles/n_tokens int32``
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from clonehunter_ray.config import SignatureConfig
from clonehunter_ray.functions import hashing as H
from clonehunter_ray.util import cached_stage

SIGNATURE_META_COLS = [
    "snippet_id",
    "kind",
    "unit_id",
    "repo",
    "path",
    "qualified_name",
    "unit_start",
    "unit_end",
    "start_line",
    "end_line",
]


def _binary_from_flat_u64(flat: np.ndarray, counts: np.ndarray) -> pa.Array:
    """Zero-copy-ish binary column from flattened per-row uint64 sets:
    one values buffer + int32 offsets, byte-identical to per-row
    ``arr.tobytes()`` (little-endian uint64)."""
    n = len(counts)
    total_bytes = int(counts.sum()) * 8
    if total_bytes >= (1 << 31):  # int32 offset overflow: fall back
        splits = np.split(flat, np.cumsum(counts)[:-1])
        return pa.array([s.tobytes() for s in splits], pa.binary())
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts * 8, out=offsets[1:])
    return pa.Array.from_buffers(
        pa.binary(),
        n,
        [
            None,
            pa.py_buffer(offsets.tobytes()),
            pa.py_buffer(flat.astype("<u8", copy=False).tobytes()),
        ],
    )


def _list_from_matrix_u64(mat: np.ndarray) -> pa.Array:
    """list<uint64> column from an (n_rows, width) uint64 matrix
    without the ``tolist()`` round-trip."""
    n, width = mat.shape
    offsets = pa.array(
        np.arange(0, (n + 1) * width, width, dtype=np.int32), pa.int32()
    )
    return pa.ListArray.from_arrays(offsets, pa.array(mat.ravel(), pa.uint64()))


class SignatureStage:
    """Stateful signature computer: one MinHasher per instance, reused
    for every batch (``signatures_task`` keeps one per worker process)."""

    def __init__(
        self,
        config: SignatureConfig | None = None,
        emit_token_seq: bool = False,
    ) -> None:
        self.config = config or SignatureConfig()
        self.config.validate()
        self.hasher = H.MinHasher(self.config.num_perm, self.config.seed)
        # ordered (non-deduped) token hashes power the suffix-array
        # substring rescue (stages/verify.py); only emitted when that
        # channel is on so the extra bytes never ride the shuffle
        # otherwise.
        self.emit_token_seq = emit_token_seq

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        # flat batch kernels: one lexsort/reduceat over the whole batch
        # instead of per-row np.unique / (n x 64) expansions — outputs
        # bit-identical to the per-row forms (pinned by
        # tests/test_hashing.py parity tests)
        flat_tok, tok_lens = H.tokenize_hash_flat(batch["text"])
        flat_sh, sh_counts = H.batch_shingle_sets(
            flat_tok, tok_lens, self.config.shingle_k
        )
        tok_rows = np.repeat(np.arange(n, dtype=np.int64), tok_lens)
        flat_tset, tset_counts = H.dedup_per_row(flat_tok, tok_rows, n)
        sigs = self.hasher.signatures_flat(flat_sh, sh_counts)
        bands = H.band_hashes_batch(
            sigs, self.config.num_bands, self.config.band_rows
        )
        simhashes = H.simhash_from_flat(flat_sh, sh_counts)

        cols: dict[str, pa.Array] = {}
        for name in SIGNATURE_META_COLS:
            if name in batch.column_names:
                cols[name] = batch[name]
        # binary-encoded sorted uint64 sets (little-endian) — list types
        # can't ride through Acero hash joins as payload, and the blob
        # form is also the compact wire format for the verify shuffle
        cols["shingles"] = _binary_from_flat_u64(flat_sh, sh_counts)
        cols["tokens"] = _binary_from_flat_u64(flat_tset, tset_counts)
        if self.emit_token_seq:
            cols["token_seq"] = _binary_from_flat_u64(flat_tok, tok_lens)
        cols["minhash"] = _list_from_matrix_u64(sigs)
        cols["band_keys"] = _list_from_matrix_u64(bands)
        cols["simhash"] = pa.array(simhashes, pa.uint64())
        cols["n_shingles"] = pa.array(
            sh_counts.astype(np.int32), pa.int32()
        )
        cols["n_tokens"] = pa.array(
            tset_counts.astype(np.int32), pa.int32()
        )
        return pa.table(cols)


def signatures_task(
    batch: pa.Table, config: SignatureConfig, emit_token_seq: bool = False
) -> pa.Table:
    """``map_batches`` task form of ``SignatureStage``: one stage per
    ``(config, emit_token_seq)`` per worker process (util.cached_stage)."""
    return cached_stage(SignatureStage, config, emit_token_seq)(batch)
