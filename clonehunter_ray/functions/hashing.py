"""Deterministic hashing kernels: sha256 columns, 64-bit token/shingle
hashes, MinHash signatures, SimHash fingerprints.

Everything here is process-independent (no Python ``hash()``) and
vectorized with numpy where the data is already numeric. Token strings
are hashed once per *unique* token per batch (blake2b-8) and shingle
hashes are then derived by pure uint64 mixing — so the per-string
Python cost is amortized over the batch.

Reference parity notes:
* sha256 text hash matches reference ``io/fingerprints.py:6-7``
  (utf-8 encode -> hexdigest) — the per-row invariant from
  BASELINE.json (`content sha256 equality`).
* the token alphabet matches reference ``similarity/lexical.py:18-19``
  (``[A-Za-z0-9_]+`` on lowercased text).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)


def sha256_hex(text: str) -> str:
    """Reference ``hash_text`` (io/fingerprints.py:6-7)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_hex_many(texts) -> list[str]:
    """Vectorized-ish column version; hashlib releases the GIL for
    large inputs but the loop itself stays in C-call territory."""
    return [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]


def hash_token_u64(token: str) -> int:
    """Stable 64-bit hash of one token (blake2b, 8-byte digest)."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little"
    )


def tokenize(text: str) -> list[str]:
    """Reference tokenizer (similarity/lexical.py:18-19) but ordered
    (the reference keeps only the set; we need order for shingles)."""
    return TOKEN_RE.findall(text.lower())


def hash_tokens_batch(token_lists: list[list[str]]) -> list[np.ndarray]:
    """Hash every token of every row to uint64, amortizing string
    hashing over the batch via a unique-token vocabulary."""
    flat: list[str] = []
    offsets = [0]
    for toks in token_lists:
        flat.extend(toks)
        offsets.append(len(flat))
    if not flat:
        return [np.empty(0, dtype=np.uint64) for _ in token_lists]
    arr = np.asarray(flat, dtype=object)
    uniq, inv = np.unique(arr, return_inverse=True)
    uniq_hashes = np.fromiter(
        (hash_token_u64(t) for t in uniq), dtype=np.uint64, count=len(uniq)
    )
    all_hashes = uniq_hashes[inv]
    return [
        all_hashes[offsets[i] : offsets[i + 1]] for i in range(len(token_lists))
    ]


def flat_tokens(texts, with_parent: bool = True):
    """The canonical token stream with row attribution: lower -> split
    on the token alphabet's complement (``[^a-z0-9_]+``) -> flatten ->
    drop boundary empties, all as Arrow C++ kernels. Returns
    ``(flat tokens as a pa.StringArray, parent row index per token as
    an int64 np.ndarray)`` — or ``(flat, None)`` with
    ``with_parent=False``, the fast path for callers that only need
    the token stream (vocabulary/heavy-hitter scans), skipping the
    parent-index materialization entirely.

    Every tokenizing stage (signature hashing, TF-IDF, vocabulary
    top-k, chunking) builds on this one helper so the token-alphabet
    contract and the empty-token boundary rule cannot drift between
    stages and their SQL oracles."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    low = pc.utf8_lower(pc.fill_null(texts, ""))
    toks = pc.split_pattern_regex(low, "[^a-z0-9_]+")
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if not with_parent:
        return flat.filter(pc.not_equal(flat, "")), None
    parent = (
        pc.list_parent_indices(toks)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    return flat.filter(pa.array(keep, pa.bool_())), parent[keep]


def doc_token_pairs(flat, parent: np.ndarray):
    """Distinct (row, token) reduction over a ``flat_tokens`` stream:
    dictionary-encode the tokens, fuse (parent, dict-index) into one
    int64 key, and np.unique it. Returns ``(rows, tok_ids, tf,
    dictionary)`` — the parent row of each distinct pair, its index
    into ``dictionary``, its within-row occurrence count, and the
    batch dictionary array. One shared kernel behind the C4 filter,
    TF-IDF (both paths), and any per-doc distinct-token statistic, so
    the encode/decode arithmetic cannot drift between the oracles."""
    import pyarrow.compute as pc

    d = pc.dictionary_encode(flat)
    inv = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nvocab = len(d.dictionary)
    pair = parent.astype(np.int64) * nvocab + inv
    uniq, tf = np.unique(pair, return_counts=True)
    return uniq // nvocab, uniq % nvocab, tf.astype(np.int64), d.dictionary


def run_ranks(sorted_keys: np.ndarray) -> np.ndarray:
    """Rank within consecutive runs of equal keys: for an array already
    sorted so equal keys are adjacent, returns 0,1,2,... restarting at
    each run boundary. The shared kernel behind every vectorized
    per-group top-k combiner (sort by (key, order...), keep
    ``run_ranks(keys_sorted) < k``)."""
    n = len(sorted_keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    new_run = np.concatenate(
        ([False], sorted_keys[1:] != sorted_keys[:-1])
    )
    starts = np.concatenate(([0], np.flatnonzero(new_run)))
    run_id = np.cumsum(new_run.astype(np.int64))
    return np.arange(n, dtype=np.int64) - starts[run_id]


def hash_token_stream(flat) -> np.ndarray:
    """uint64 token hash per element of a FLAT Arrow string array,
    unique-amortized: one ``np.unique`` over the batch's tokens, one
    Python ``hash_token_u64`` per DISTINCT token, fanned back out via
    the inverse index. Positionally aligned with ``flat_tokens``'
    (flat, parent) output — the one kernel behind the bigram-LM and
    repetition-filter gram pipelines, so the token-hash recipe cannot
    drift between them."""
    if len(flat) == 0:
        return np.empty(0, dtype=np.uint64)
    f_np = flat.to_numpy(zero_copy_only=False).astype(object)
    uniq, inv = np.unique(f_np, return_inverse=True)
    uh = np.fromiter(
        (hash_token_u64(t) for t in uniq), dtype=np.uint64, count=len(uniq)
    )
    return uh[inv]


def tokenize_hash_flat(texts) -> tuple[np.ndarray, np.ndarray]:
    """texts -> ``(flat uint64 token hashes in document order,
    per-row token counts int64)`` — the flat form of
    :func:`tokenize_hash_texts`, for batch kernels that would only
    re-concatenate the per-row split."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    n = len(texts)
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    flat, parent = flat_tokens(texts)
    if len(flat) == 0:
        return np.empty(0, dtype=np.uint64), np.zeros(n, dtype=np.int64)
    d = pc.dictionary_encode(flat)
    uniq = d.dictionary.to_pylist()
    inv = d.indices.to_numpy(zero_copy_only=False)
    uniq_hashes = np.fromiter(
        (hash_token_u64(t) for t in uniq), dtype=np.uint64, count=len(uniq)
    )
    all_hashes = uniq_hashes[inv]
    lens = np.bincount(parent, minlength=n).astype(np.int64)
    return all_hashes, lens


def tokenize_hash_texts(texts) -> list[np.ndarray]:
    """texts (Arrow string array / chunked array) -> ordered uint64
    token-hash array per row.

    Equivalent to ``[hash_tokens_batch([tokenize(t)])[0] for t in ...]``
    but the tokenization runs as Arrow C++ kernels (``flat_tokens``),
    per-token dedup as ``dictionary_encode`` (hash table, no argsort
    over Python objects), and only the per-UNIQUE-token blake2b stays
    in Python."""
    flat, lens = tokenize_hash_flat(texts)
    if len(lens) == 0:
        return []
    return np.split(flat, np.cumsum(lens)[:-1])


# -- shingles ---------------------------------------------------------------

# odd multipliers for position mixing (splitmix64-derived constants)
_SHINGLE_MIX = np.array(
    [
        0x9E3779B97F4A7C15,
        0xBF58476D1CE4E5B9,
        0x94D049BB133111EB,
        0xD6E8FEB86659FD93,
        0xA5A5A5A5A5A5A5A5 | 1,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x27D4EB2F165667C5,
    ],
    dtype=np.uint64,
)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def shingle_hashes(token_hashes: np.ndarray, k: int) -> np.ndarray:
    """Distinct sorted uint64 hashes of the k-token shingles of one row.

    Rows shorter than k fall back to a single shingle over all tokens
    (so tiny snippets still have a non-empty signature basis).
    """
    n = len(token_hashes)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if n < k:
        h = np.zeros(1, dtype=np.uint64)
        for j in range(n):
            h = (h * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ token_hashes[j : j + 1]
        return _mix64(h)
    m = n - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc = (acc * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ token_hashes[j : j + m]
    return np.unique(_mix64(acc))


def shingle_hashes_seq(token_hashes: np.ndarray, k: int) -> np.ndarray:
    """Positional (non-deduped, document-order) k-token shingle hashes —
    the winnowing/fingerprinting basis (order matters there)."""
    n = len(token_hashes)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if n < k:
        h = np.zeros(1, dtype=np.uint64)
        for j in range(n):
            h = (h * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ token_hashes[j : j + 1]
        return _mix64(h)
    m = n - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc = (acc * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ token_hashes[j : j + m]
    return _mix64(acc)


def token_set_hashes(token_hashes: np.ndarray) -> np.ndarray:
    """Distinct sorted token hashes — the lexical-similarity basis
    (reference tokenizes to a *set*, similarity/lexical.py:18-19)."""
    return np.unique(token_hashes)


def flat_gram_hashes(
    token_hash_lists: list[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positional k-gram hashes of a whole BATCH of rows, flattened.

    Returns ``(gram_hashes: uint64[M], row_idx: int64[M])`` with one
    entry per k-gram instance in document order. Rows shorter than k
    contribute NO grams — strict SQL n-gram semantics, unlike
    :func:`shingle_hashes`'s short-row fallback — so per-row
    count/distinct/membership aggregates over these hashes match a SQL
    oracle building gram *strings* (64-bit mix; within-corpus collision
    odds are negligible and the test corpora are deterministic).

    One vectorized pass over the concatenated token-hash array: grams
    that straddle a row boundary are masked out, never computed per
    row in Python.
    """
    n_rows = len(token_hash_lists)
    lens = np.fromiter(
        (len(x) for x in token_hash_lists), dtype=np.int64, count=n_rows
    )
    total = int(lens.sum())
    if total < k or n_rows == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    flat = np.concatenate(
        [np.asarray(x, dtype=np.uint64) for x in token_hash_lists if len(x)]
    )
    m = total - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc = (acc * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ flat[j : j + m]
    acc = _mix64(acc)
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
    valid = row_of[:m] == row_of[k - 1 :]
    return acc[valid], row_of[:m][valid]


def run_stats_per_row(
    gram_hashes: np.ndarray, row_idx: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (total, distinct, top-count) over (row, gram) instances.

    One lexsort + run-length pass, no per-row Python loop: returns
    ``(n_grams, n_distinct, top_n)`` int64 arrays of length ``n_rows``
    where ``top_n[r]`` is the multiplicity of the most-repeated gram in
    row r (0 for gram-less rows).
    """
    n_grams = np.bincount(row_idx, minlength=n_rows).astype(np.int64)
    n_distinct = np.zeros(n_rows, dtype=np.int64)
    top_n = np.zeros(n_rows, dtype=np.int64)
    if gram_hashes.size:
        order = np.lexsort((gram_hashes, row_idx))
        g = gram_hashes[order]
        r = row_idx[order]
        new_run = np.empty(g.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = (g[1:] != g[:-1]) | (r[1:] != r[:-1])
        run_starts = np.flatnonzero(new_run)
        run_doc = r[run_starts]
        run_len = np.diff(np.append(run_starts, g.size))
        n_distinct += np.bincount(run_doc, minlength=n_rows).astype(np.int64)
        np.maximum.at(top_n, run_doc, run_len)
    return n_grams, n_distinct, top_n


# -- MinHash ----------------------------------------------------------------


class MinHasher:
    """num_perm-way MinHash over uint64 shingle hashes.

    Permutations are multiply-add bijections on Z_2^64 (odd multiplier),
    drawn from a fixed seed so every worker/actor computes identical
    signatures. Batch API computes all rows' signatures with one
    ``minimum.reduceat`` over the concatenated shingle array.
    """

    def __init__(self, num_perm: int, seed: int) -> None:
        rng = np.random.RandomState(seed & 0x7FFFFFFF)
        self.num_perm = num_perm
        # odd multipliers => bijective mod 2^64
        self.a = (
            rng.randint(0, 2**62, size=num_perm).astype(np.uint64) * _U64(2)
            + _U64(1)
        )
        self.b = rng.randint(0, 2**62, size=num_perm).astype(np.uint64)
        self.empty = np.full(num_perm, _MASK64, dtype=np.uint64)
        # chunk budget (shingles per chunk) and its REUSED scratch
        # buffer: this sandbox's kernel makes first-touch page faults
        # ~100x dearer than the compute, so the buffer is (a) small
        # (1M elements = 8 MB, still thousands of rows per reduceat
        # call) and (b) allocated once per MinHasher lifetime — a
        # stage cached per worker process pays the fault cost once per
        # worker process, not once per batch
        self._budget = max(1, (1 << 20) // num_perm)
        self._buf: np.ndarray | None = None

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        if len(shingles) == 0:
            return self.empty.copy()
        vals = shingles[:, None] * self.a[None, :] + self.b[None, :]
        return vals.min(axis=0)

    def signatures_batch(self, shingle_lists: list[np.ndarray]) -> np.ndarray:
        """(n_rows, num_perm) uint64 signatures for a batch of rows.

        Rows are processed in chunks whose (num_perm, n_shingles)
        intermediate stays ~64 MB, REUSING one buffer across chunks
        (no per-chunk alloc/page-fault), and the per-row min runs as
        ``np.minimum.reduceat`` along axis=1 of the perm-major layout —
        each segment reduce is then a contiguous scan. The row-major
        axis=0 reduceat this replaces strides num_perm*8 bytes between
        elements and measured 50x slower on a 3M-shingle batch."""
        n = len(shingle_lists)
        out = np.full((n, self.num_perm), _MASK64, dtype=np.uint64)
        budget = self._budget
        if self._buf is None:
            self._buf = np.empty((self.num_perm, budget), dtype=np.uint64)
        buf = self._buf
        i = 0
        while i < n:
            j = i
            total = 0
            rows: list[int] = []
            while j < n and (total == 0 or total + len(shingle_lists[j]) <= budget):
                if len(shingle_lists[j]) > 0:
                    rows.append(j)
                    total += len(shingle_lists[j])
                j += 1
            if rows:
                concat = np.concatenate([shingle_lists[r] for r in rows])
                if len(concat) > budget:  # one giant row: one-off buffer
                    v = np.empty((self.num_perm, len(concat)), dtype=np.uint64)
                else:
                    v = buf[:, : len(concat)]
                np.multiply(self.a[:, None], concat[None, :], out=v)
                np.add(v, self.b[:, None], out=v)
                lens = np.asarray([len(shingle_lists[r]) for r in rows])
                offsets = np.zeros(len(rows), dtype=np.intp)
                np.cumsum(lens[:-1], out=offsets[1:])
                out[rows] = np.minimum.reduceat(v, offsets, axis=1).T
            i = j
        return out

    def signatures_flat(
        self, flat_values: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """(n_rows, num_perm) signatures from per-row value sets in
        flattened form — bit-identical to :meth:`signatures_batch` on
        the split lists, minus its re-concatenation. Same chunked
        scratch-buffer regime."""
        n = len(counts)
        out = np.full((n, self.num_perm), _MASK64, dtype=np.uint64)
        if flat_values.size == 0 or n == 0:
            return out
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        budget = self._budget
        if self._buf is None:
            self._buf = np.empty((self.num_perm, budget), dtype=np.uint64)
        buf = self._buf
        i = 0
        while i < n:
            j = max(
                i + 1,
                int(
                    np.searchsorted(
                        offsets, offsets[i] + budget, side="right"
                    )
                )
                - 1,
            )
            j = min(j, n)
            seg = flat_values[offsets[i] : offsets[j]]
            if seg.size:
                if len(seg) > budget:  # one giant row: one-off buffer
                    v = np.empty((self.num_perm, len(seg)), dtype=np.uint64)
                else:
                    v = buf[:, : len(seg)]
                np.multiply(self.a[:, None], seg[None, :], out=v)
                np.add(v, self.b[:, None], out=v)
                rows_ne = i + np.flatnonzero(counts[i:j] > 0)
                rel = (offsets[rows_ne] - offsets[i]).astype(np.intp)
                out[rows_ne] = np.minimum.reduceat(v, rel, axis=1).T
            i = j
        return out


def band_hashes(signature: np.ndarray, num_bands: int, band_rows: int) -> np.ndarray:
    """Hash each band of a signature to one uint64 (row version).

    The band index seeds the accumulator so identical row values in
    different bands land in different LSH buckets.
    """
    bands = signature.reshape(num_bands, band_rows)
    acc = _mix64(np.arange(1, num_bands + 1, dtype=np.uint64))
    for j in range(band_rows):
        acc = (acc * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ bands[:, j]
    return _mix64(acc)


def band_hashes_batch(
    signatures: np.ndarray, num_bands: int, band_rows: int
) -> np.ndarray:
    """(n_rows, num_bands) band hashes from (n_rows, num_perm) sigs."""
    n = signatures.shape[0]
    bands = signatures.reshape(n, num_bands, band_rows)
    acc = np.broadcast_to(
        _mix64(np.arange(1, num_bands + 1, dtype=np.uint64)), (n, num_bands)
    ).copy()
    for j in range(band_rows):
        acc = (acc * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ bands[:, :, j]
    return _mix64(acc)


# -- SimHash ----------------------------------------------------------------


def simhash_batch(shingle_lists: list[np.ndarray]) -> np.ndarray:
    """64-bit SimHash per row from its shingle-hash set."""
    n = len(shingle_lists)
    out = np.zeros(n, dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    for i, sh in enumerate(shingle_lists):
        if len(sh) == 0:
            continue
        bits = ((sh[:, None] >> shifts[None, :]) & _U64(1)).sum(axis=0)
        vote = bits * 2 > len(sh)
        out[i] = np.bitwise_or.reduce(
            (vote.astype(np.uint64) << shifts), axis=0
        )
    return out


# -- flat batch kernels (signature stage hot path) ---------------------------
#
# Bit-identical batch forms of the per-row kernels above: one lexsort /
# reduceat over the whole batch instead of thousands of tiny np.unique
# and (n_shingles x 64) expansions. The per-row forms stay for callers
# that genuinely hold one row (verify, winnowing) and as the parity
# oracle in tests/test_hashing.py.


def dedup_per_row(
    values: np.ndarray, rows: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """(values, row_idx) instances -> per-row SORTED DISTINCT values,
    flattened, plus per-row distinct counts — bit-identical to
    ``np.unique(values[rows == r])`` per row, in one batch lexsort."""
    if values.size == 0:
        return np.empty(0, dtype=values.dtype), np.zeros(
            n_rows, dtype=np.int64
        )
    order = np.lexsort((values, rows))
    v, r = values[order], rows[order]
    first = np.empty(v.size, dtype=bool)
    first[0] = True
    first[1:] = (v[1:] != v[:-1]) | (r[1:] != r[:-1])
    counts = np.bincount(r[first], minlength=n_rows).astype(np.int64)
    return v[first], counts


def batch_shingle_sets(
    flat_tokens_u64: np.ndarray, lens: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sorted-distinct k-shingle hashes of a whole batch,
    flattened: ``(flat_shingles, per-row counts)`` — bit-identical to
    ``shingle_hashes(row_tokens, k)`` per row (including the short-row
    single-shingle fallback), without per-row Python calls."""
    n_rows = len(lens)
    total = int(lens.sum())
    if n_rows == 0 or total == 0:
        return np.empty(0, dtype=np.uint64), np.zeros(n_rows, np.int64)
    starts = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])

    # full-width shingles for rows with len >= k: one flat pass,
    # boundary-straddling windows masked (flat_gram_hashes semantics)
    if total >= k:
        m = total - k + 1
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            acc = (acc * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]) ^ (
                flat_tokens_u64[j : j + m]
            )
        acc = _mix64(acc)
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
        valid = row_of[:m] == row_of[k - 1 :]
        grams, gram_rows = acc[valid], row_of[:m][valid]
    else:
        grams = np.empty(0, dtype=np.uint64)
        gram_rows = np.empty(0, dtype=np.int64)

    # short-row fallback (0 < len < k): ONE shingle over all tokens,
    # j-th step applied to rows still long enough — <= k-1 vector ops
    short = np.flatnonzero((lens > 0) & (lens < k))
    if short.size:
        s_lens = lens[short]
        s_starts = starts[short]
        h = np.zeros(short.size, dtype=np.uint64)
        for j in range(int(s_lens.max())):
            active = s_lens > j
            h[active] = (
                h[active] * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]
            ) ^ flat_tokens_u64[s_starts[active] + j]
        grams = np.concatenate([grams, _mix64(h)])
        gram_rows = np.concatenate([gram_rows, short])

    return dedup_per_row(grams, gram_rows, n_rows)


_BYTE_BITS = (
    (np.arange(256, dtype=np.uint8)[:, None] >> np.arange(8, dtype=np.uint8))
    & 1
).astype(np.float64)
# simhash_from_flat's row chunk: at most this many rows (a 512 KiB
# histogram per byte position) and, past its first row, this many values
_SIMHASH_CHUNK_ROWS = 256
_SIMHASH_CHUNK_VALUES = 1 << 18


def simhash_from_flat(
    flat_values: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """64-bit SimHash per row from flattened per-row value sets —
    bit-identical to :func:`simhash_batch` on the split lists. Per row
    chunk and little-endian byte position b, one ``bincount`` builds a
    (rows x 256) byte-value histogram and a (256 x 8) bit table turns
    it into the counts of bits 8b..8b+7, so scratch stays bounded by
    the chunk and nothing expands a value into its 64 bits."""
    n_rows = len(counts)
    out = np.zeros(n_rows, dtype=np.uint64)
    if flat_values.size == 0 or n_rows == 0:
        return out
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    value_bytes = (
        flat_values.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    )
    bit_counts = np.empty((min(n_rows, _SIMHASH_CHUNK_ROWS), 64))
    i = 0
    while i < n_rows:
        by_values = int(
            np.searchsorted(
                offsets, offsets[i] + _SIMHASH_CHUNK_VALUES, side="right"
            )
        ) - 1
        j = min(n_rows, i + _SIMHASH_CHUNK_ROWS, max(i + 1, by_values))
        rows = j - i
        seg = value_bytes[offsets[i] : offsets[j]]
        # histogram bin of each value: its chunk row * 256 + the byte
        bins = np.repeat(
            np.arange(0, rows * 256, 256, dtype=np.intp), counts[i:j]
        )
        cnt = bit_counts[:rows]
        for b in range(8):
            hist = np.bincount(bins + seg[:, b], minlength=rows * 256)
            np.matmul(
                hist.reshape(rows, 256), _BYTE_BITS, out=cnt[:, 8 * b : 8 * b + 8]
            )
        vote = cnt * 2 > counts[i:j, None]
        out[i:j] = np.packbits(vote, axis=1, bitorder="little").view("<u8")[:, 0]
        i = j
    return out


def hamming_distance_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of xor over uint64 arrays."""
    x = np.bitwise_xor(a, b)
    # numpy >=1.24 lacks popcount on uint64; use byte view + table
    bytes_view = x.view(np.uint8).reshape(*x.shape, 8)
    return _POPCNT_TABLE[bytes_view].sum(axis=-1)


_POPCNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


# -- exact set similarity ---------------------------------------------------


def intersect_size_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for sorted-unique arrays via binary search of the
    smaller in the larger — O(min·log max) in C, ~3x faster than the
    concat+sort inside np.intersect1d for the few-hundred-element
    shingle sets the verifier sees millions of."""
    if len(a) < len(b):
        a, b = b, a
    idx = np.searchsorted(a, b)
    idx[idx == len(a)] = len(a) - 1
    return int((a[idx] == b).sum())


def jaccard_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted-unique uint64 arrays."""
    if len(a) == 0 or len(b) == 0:
        return 0.0
    inter = intersect_size_sorted(a, b)
    union = len(a) + len(b) - inter
    if union == 0:
        return 0.0
    return inter / union


def binary_column_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow binary column whose rows are uint64-array blobs ->
    (concatenated uint64 values, per-row element counts).

    Zero-copy when the offsets/data buffers line up (every blob is a
    multiple of 8 bytes, so any slice of the column stays 8-aligned);
    falls back to a per-row ``frombuffer`` loop otherwise."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # offsets are int32 for binary, int64 for large_binary — reading
    # large offsets as int32 interleaves each int64's low/high words
    # and produces negative/garbage row lengths
    offs_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    try:
        offs = np.frombuffer(col.buffers()[1], dtype=offs_dtype)[
            col.offset : col.offset + len(col) + 1
        ]
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        seg = data[offs[0] : offs[-1]]
        if seg.ctypes.data % 8 or len(seg) % 8:
            raise ValueError("unaligned")
        lens = (np.diff(offs) // 8).astype(np.int64)
        return seg.view(np.uint64), lens
    except (ValueError, TypeError, AttributeError):
        blobs = col.to_pylist()
        arrs = [np.frombuffer(b or b"", dtype=np.uint64) for b in blobs]
        lens = np.asarray([len(a) for a in arrs], dtype=np.int64)
        vals = (
            np.concatenate(arrs) if arrs else np.empty(0, dtype=np.uint64)
        )
        return vals, lens


def jaccard_batch(a_col, b_col) -> np.ndarray:
    """Exact Jaccard per row of two binary columns of sorted-UNIQUE
    uint64 blobs, with no per-pair Python loop.

    One ``lexsort`` over (pair_id, value) of both sides concatenated;
    the intersection size per pair is the count of adjacent duplicate
    (pair_id, value) entries (each side's values are unique within a
    row, so a duplicate means the value appears on BOTH sides)."""
    va, la = binary_column_u64(a_col)
    vb, lb = binary_column_u64(b_col)
    n = len(la)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    pids = np.concatenate(
        [
            np.repeat(np.arange(n, dtype=np.int64), la),
            np.repeat(np.arange(n, dtype=np.int64), lb),
        ]
    )
    vals = np.concatenate([va, vb])
    order = np.lexsort((vals, pids))
    pp = pids[order]
    pv = vals[order]
    dup = (pp[1:] == pp[:-1]) & (pv[1:] == pv[:-1])
    inter = np.bincount(pp[1:][dup], minlength=n)
    union = la + lb - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = np.where(
            (la == 0) | (lb == 0) | (union == 0), 0.0, inter / union
        )
    return jac.astype(np.float64)


def lsh_collision_prob(j: float, num_bands: int, band_rows: int) -> float:
    """P(LSH candidate) for a pair with true Jaccard ``j`` under
    (bands, rows) banding: 1 - (1 - j^rows)^bands."""
    return 1.0 - (1.0 - j ** band_rows) ** num_bands


def lsh_tune(
    threshold: float,
    num_perm: int = 128,
    min_recall: float = 0.99,
    fp_margin: float = 0.5,
) -> tuple[int, int]:
    """Pick ``(num_bands, band_rows)`` for a verify threshold.

    Among factorizations bands*rows == num_perm, keep those whose
    collision probability at ``threshold`` is >= ``min_recall`` (the
    recall floor at the verification gate), then choose the one with
    the LOWEST collision probability at ``fp_margin * threshold`` —
    the fewest below-gate candidates the verifier must reject. This is
    the quantitative form of the hand-derived SignatureConfig notes
    (config.py:66-81): deeper rows cut false positives but cost
    recall, wider bands do the opposite.

    Raises if no factorization reaches the recall floor (raise
    ``num_perm`` in that case).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    candidates = []
    for rows in range(1, num_perm + 1):
        if num_perm % rows:
            continue
        bands = num_perm // rows
        recall = lsh_collision_prob(threshold, bands, rows)
        if recall >= min_recall:
            fp = lsh_collision_prob(threshold * fp_margin, bands, rows)
            candidates.append((fp, -rows, bands, rows))
    if not candidates:
        raise ValueError(
            f"no (bands, rows) with bands*rows={num_perm} reaches "
            f"recall {min_recall} at threshold {threshold}; raise num_perm"
        )
    _, _, bands, rows = min(candidates)
    return bands, rows
