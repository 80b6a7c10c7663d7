"""Training-data export operators: mixture sampling, text
normalization, sequence packing.

These are the last-mile ops a pretraining pipeline runs after
dedup/quality filtering (pipelines/dedup.py, text_analysis.py) and
before tokenized shards are written: re-weight the source mixture,
canonicalize text, and pack variable-length documents into fixed
token-budget bins. The reference has no analogue (it stops at clone
findings); these follow the same engine rules — stateless
``map_batches`` over Arrow batches, no shuffle, per-block locality.

Scale notes (100 TB):

- ``mixture_sample`` is a pure per-row filter keyed on a salted
  content hash — deterministic across re-runs/resumes, no RNG state,
  no shuffle; the rates dict is closure-captured (it is tiny — one
  float per source).
- ``normalize_text`` is entirely pyarrow.compute kernels (NFC
  normalize, RE2 whitespace collapse, trim) — zero Python per row.
- ``pack_sequences`` packs WITHIN each input block (bins never span
  blocks). That is the standard shard-local packing used for LLM
  batch construction: it needs no shuffle, keeps outputs resumable
  per input shard, and wastes at most one partial bin per block. The
  per-block first-fit-decreasing loop is inherently sequential but
  O(docs x open_bins) on a few-thousand-row block — not a hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clonehunter_ray.functions import hashing as H
from clonehunter_ray.functions.hashing import sha256_hex


def _rate_threshold(rate: float) -> str | None:
    """Map a sampling rate in [0, 1] to a 4-hex-char threshold on the
    first two bytes of a sha256 hex digest (lexicographic compare on
    lowercase hex == numeric compare). ``None`` means keep-all.

    1/65536 quantization: the previous 1/256 grid rounded any rate
    under 1/512 to the '00' threshold, silently dropping that source
    ENTIRELY instead of sampling it (e.g. rate=0.001 kept nothing).
    Byte-aligned rates (0.5 -> '8000') keep bit-identical decisions
    vs the old 2-hex compare, so the SQL oracles move in lockstep by
    appending '00'. Rates rounding to the full range are keep-all:
    format(65536) would be a 5-char string, which INVERTS the
    lexicographic compare and silently drops ~94% of rows.

    A nonzero rate now keeps SOMETHING whenever it rounds to >= 1
    (>= ~1/131072); rates below that still truncate to zero — raise
    loudly rather than silently dropping the source."""
    t = int(round(rate * 65536))
    if t >= 65536:
        return None
    if t == 0 and rate > 0.0:
        raise ValueError(
            f"sampling rate {rate} is below the 1/65536 quantization "
            "grid; it would silently drop the source entirely"
        )
    return format(max(0, t), "04x")


def mixture_sample_batch(
    batch: pa.Table,
    rates: dict[str, float],
    default_rate: float,
    salt: str,
    source_col: str = "source",
    text_col: str = "text",
) -> pa.Table:
    """Filter one Arrow batch to the per-source mixture rates.

    A row survives iff the first two bytes of sha256(salt + text)
    fall below ``rate * 65536`` for its source. NULL text never survives
    (sha256(NULL) IS NULL in the SQL oracle)."""
    sources = batch[source_col].to_pylist()
    texts = batch[text_col].to_pylist()
    # per-batch threshold cache: one derivation per distinct source,
    # not one per row
    thresholds = {
        s: _rate_threshold(rates.get(s, default_rate)) for s in set(sources)
    }
    keep = []
    for s, t in zip(sources, texts):
        if t is None:
            keep.append(False)
            continue
        thresh = thresholds[s]
        if thresh is None:
            keep.append(True)
        else:
            keep.append(sha256_hex(salt + t)[:4] < thresh)
    return batch.filter(pa.array(keep, pa.bool_()))


def mixture_upsample_batch(
    batch: pa.Table,
    rates: dict[str, float],
    default_rate: float,
    salt: str,
    source_col: str = "source",
    text_col: str = "text",
) -> pa.Table:
    """Mixture re-weighting where rates may EXCEED 1.0: rate r means
    each row is emitted floor(r) times plus one more with probability
    frac(r) (decided by the same salted sha256, so deterministic).
    This is epoch-style upsampling of small high-quality sources in a
    training mix (e.g. wiki at 2.5 epochs while web stays at 0.5).

    Output appends an ``epoch`` column (0-based copy index) so
    downstream shuffles/packing see distinct rows. NULL text emits
    zero copies."""
    sources = batch[source_col].to_pylist()
    texts = batch[text_col].to_pylist()
    n = batch.num_rows
    copies = np.zeros(n, dtype=np.int64)

    def frac_threshold(frac: float) -> str | None:
        # a fraction below the 1/65536 grid is float dust (3.000001),
        # not a sampling rate: no extra copy
        return "0000" if round(frac * 65536) == 0 else _rate_threshold(frac)

    per_source = {
        s: (
            int(np.floor(rates.get(s, default_rate))),
            frac_threshold(rates.get(s, default_rate) % 1.0),
        )
        for s in set(sources)
    }
    for i, (s, t) in enumerate(zip(sources, texts)):
        if t is None:
            continue
        base, frac_thresh = per_source[s]
        extra = 0
        if frac_thresh is None:
            # _rate_threshold returns None only for frac ~ 1 (integer
            # rates produce '0000', caught below) -> the fractional
            # copy is effectively certain
            extra = 1
        elif frac_thresh != "0000":
            extra = int(sha256_hex(salt + t)[:4] < frac_thresh)
        copies[i] = base + extra
    idx = np.repeat(np.arange(n), copies)
    starts = np.repeat(np.cumsum(copies) - copies, copies)
    epoch = np.arange(int(copies.sum()), dtype=np.int64) - starts
    out = batch.take(pa.array(idx, pa.int64()))
    return out.append_column("epoch", pa.array(epoch, pa.int64()))


def mixture_sample(
    ds,
    rates: dict[str, float],
    default_rate: float = 1.0,
    salt: str = "mix:",
    columns: list[str] | None = None,
):
    """Deterministic per-source mixture re-weighting of a Dataset.

    The standard way to hit a target pretraining mixture (e.g. web at
    0.25, reference text at 1.0) without RNG state: every re-run,
    resume, and downstream join sees the same rows."""

    def fn(batch: pa.Table) -> pa.Table:
        out = mixture_sample_batch(batch, rates, default_rate, salt)
        if columns is not None:
            out = out.select(columns)
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


def normalize_text_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """NFC-normalize, collapse ASCII whitespace runs to one space, and
    trim one Arrow batch. NULL text stays NULL; ``doc_id`` keeps its
    input type.

    Whitespace collapse/trim/length are pyarrow.compute (RE2) kernels.
    NFC composition goes through ``unicodedata`` — but ONLY for rows
    that actually contain non-ASCII bytes (byte length != char
    length), so an ASCII corpus pays zero Python rows. (This build's
    ``pc.utf8_normalize(form="NFC")`` does not compose combining
    sequences, so it cannot match DuckDB's ``nfc_normalize``.)"""
    col = pc.cast(batch[text_col], pa.string())
    non_ascii = pc.fill_null(
        pc.not_equal(pc.binary_length(col), pc.utf8_length(col)), False
    )
    if pc.any(non_ascii).as_py():
        import unicodedata

        vals = col.to_pylist()
        mask = non_ascii.to_pylist()
        vals = [
            unicodedata.normalize("NFC", v) if (m and v is not None) else v
            for v, m in zip(vals, mask)
        ]
        col = pa.array(vals, pa.string())
    # trim exactly ' ' (what the \s+ collapse can leave at the edges):
    # pc.utf8_trim_whitespace would ALSO strip non-ASCII whitespace
    # like U+2028, which DuckDB's trim() does not — oracle divergence
    collapsed = pc.utf8_trim(
        pc.replace_substring_regex(col, pattern=r"\s+", replacement=" "),
        characters=" ",
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "norm_text": pc.cast(collapsed, pa.string()),
            "n_norm_chars": pc.cast(pc.utf8_length(collapsed), pa.int64()),
        }
    )


def pack_bins_batch(batch: pa.Table, budget: int) -> pa.Table:
    """First-fit-decreasing packing of one block's documents into
    token-budget bins.

    Deterministic: docs are ordered by (n_tokens desc, doc_id asc);
    ``bin_id`` is the doc_id of the bin's first (largest) member —
    globally unique across blocks with no coordination, and keeps the
    input doc_id type. A document longer than the budget gets a bin of
    its own (truncation is the tokenizer's job, not the packer's)."""
    id_type = batch["doc_id"].type
    ids = batch["doc_id"].to_pylist()
    toks = batch["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
    # np.array(ids) is int64 or '<U*' — both lexsort-able natively
    order = np.lexsort((np.array(ids), -toks))
    open_rem: list[int] = []  # remaining capacity per open bin
    open_key: list = []
    open_n: list[int] = []  # members per open bin
    out_bin: list = [None] * len(ids)
    out_slot = np.zeros(len(ids), dtype=np.int64)
    for i in order:
        n = int(toks[i])
        placed = False
        for b in range(len(open_rem)):
            if open_rem[b] >= n:
                open_rem[b] -= n
                out_bin[i] = open_key[b]
                out_slot[i] = open_n[b]
                open_n[b] += 1
                placed = True
                break
        if not placed:
            open_key.append(ids[i])
            # deliberately NOT clamped at 0: an over-budget singleton
            # carries negative remaining capacity, so even a 0-token
            # doc (n == 0 satisfies rem >= n for rem == 0) can never
            # join it and break the bins-over-budget-are-singletons
            # invariant
            open_rem.append(budget - n)
            open_n.append(1)
            out_bin[i] = ids[i]
            out_slot[i] = 0
    return pa.table(
        {
            "doc_id": pa.array(ids, id_type),
            "n_tokens": pa.array(toks, pa.int64()),
            "bin_id": pa.array(out_bin, id_type),
            "bin_slot": pa.array(out_slot, pa.int64()),
        }
    )


def pack_sequences(ds, budget: int, text_col: str = "text"):
    """Token-count then shard-local FFD packing (see module docstring
    for the bins-never-span-blocks contract)."""

    def count(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
        n = pc.cast(pc.count_substring_regex(low, "[a-z0-9_]+"), pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    return ds.map_batches(count, batch_format="pyarrow").map_batches(
        lambda b: pack_bins_batch(b, budget),
        batch_format="pyarrow",
        batch_size=None,
    )


def chunk_tokens_batch(
    batch: pa.Table, chunk_size: int, text_col: str = "text"
) -> pa.Table:
    """Split each document into fixed-size token chunks (the standard
    pre-tokenization step before sequence packing: long docs become
    chunk rows a context window can hold).

    Chunk text is the space-join of the chunk's tokens (token alphabet
    ``[a-z0-9_]+`` over the lowered text, same as every other stage).
    Docs with zero tokens emit no rows. Fully vectorized: Arrow
    lower/split/flatten for tokens, numpy for chunk boundaries, and
    one ``pc.binary_join`` over a ListArray view for the joins — the
    chunks of a row are contiguous in the flat token array and rows
    are contiguous in the batch, so the per-chunk starts double as
    ListArray offsets with no copy. Stateless, no shuffle; chunk ids
    are (doc_id, chunk_idx), deterministic under any partitioning.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    n_rows = batch.num_rows
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_chunk_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
        }
    )
    if n_rows == 0:
        return empty
    flat, parent = H.flat_tokens(batch[text_col])
    if len(flat) == 0:
        return empty
    lens = np.bincount(parent, minlength=n_rows).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    # chunks per row; rows with 0 tokens contribute none
    k = -(-lens // chunk_size)
    total = int(k.sum())
    row_of_chunk = np.repeat(np.arange(n_rows, dtype=np.int64), k)
    k_before = np.concatenate(([0], np.cumsum(k)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(k_before, k)
    chunk_start = starts[row_of_chunk] + within * chunk_size
    chunk_end = np.minimum(
        chunk_start + chunk_size, starts[row_of_chunk] + lens[row_of_chunk]
    )
    # consecutive chunks are contiguous in the flat token array (the
    # next chunk starts where the previous ended, across row borders
    # too), so the starts + final end form valid ListArray offsets
    offsets = np.concatenate((chunk_start, chunk_end[-1:])).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
    joined = pc.binary_join(lists, " ")
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[row_of_chunk]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "chunk_idx": pa.array(within, pa.int64()),
            "n_chunk_tokens": pa.array(chunk_end - chunk_start, pa.int64()),
            "chunk_text": joined,
        }
    )


# ---------------------------------------------------------------------------
# sf_dir query wrappers (driver harness; oracle SQL in __ray_entry__)
# ---------------------------------------------------------------------------

# Demo mixture: full reference-text sources, progressively downsampled
# web-ish tiers. Keys match the synthetic documents.source domain.
MIXTURE_RATES = {
    **{f"src{i}": 1.0 for i in range(0, 5)},
    **{f"src{i}": 0.5 for i in range(5, 10)},
    **{f"src{i}": 0.25 for i in range(10, 15)},
}
MIXTURE_DEFAULT = 0.125


def _docs(sf_dir: str, columns: list[str]):
    from clonehunter_ray.util import read_parquet_clean

    # accept either a testdata dir (containing documents.parquet) or a
    # direct parquet path — the CLI export passes the latter
    path = (
        sf_dir
        if sf_dir.endswith(".parquet")
        else f"{sf_dir}/documents.parquet"
    )
    return read_parquet_clean(path, columns=columns)


def mixture_sample_documents(sf_dir: str):
    """Deterministic per-source mixture sample of the documents table."""
    return mixture_sample(
        _docs(sf_dir, ["doc_id", "source", "lang", "n_chars", "text"]),
        MIXTURE_RATES,
        default_rate=MIXTURE_DEFAULT,
        columns=["doc_id", "source", "lang", "n_chars"],
    )


# Upsampling bound: also the multiplier that makes the pack uid
# (doc_id * MAX_EPOCHS + epoch) collision-free — the two must agree.
MAX_EPOCHS = 1024

# Demo upsampling mix: src0 at exactly 2 epochs, src1 at 2.5 epochs,
# src2 downsampled to half, everything else kept once.
UPSAMPLE_RATES = {"src0": 2.0, "src1": 2.5, "src2": 0.5}


def mixture_upsample_documents(sf_dir: str):
    """Epoch-style mixture upsampling of the documents table."""

    def fn(batch: pa.Table) -> pa.Table:
        return mixture_upsample_batch(
            batch, UPSAMPLE_RATES, default_rate=1.0, salt="mix:"
        ).select(["doc_id", "source", "epoch"])

    return _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def normalize_text_documents(sf_dir: str):
    """NFC + whitespace-canonical text for every document."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        normalize_text_batch, batch_format="pyarrow"
    )


def pack_sequences_documents(sf_dir: str, budget: int = 256):
    """Shard-local FFD packing of documents into 256-token bins."""
    return pack_sequences(_docs(sf_dir, ["doc_id", "text"]), budget)


def chunk_documents(sf_dir: str, chunk_size: int = 64):
    """Fixed-size token chunking of the documents table."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: chunk_tokens_batch(b, chunk_size), batch_format="pyarrow"
    )


def export_training_shards(
    sf_dir: str,
    out_dir: str | None = None,
    budget: int = 256,
    shards_per_source: int = 1,
    rates: dict[str, float] | None = None,
    default_rate: float | None = None,
    shard_format: str = "parquet",
):
    """The composed end-to-end training-data export: mixture sample ->
    normalize -> token count -> shard-local pack -> resumable
    hive-partitioned Parquet sink (one directory per partition,
    written on the workers, ``_SUCCESS`` per partition so a re-run
    skips finished partitions).

    Every stage is a stateless map_batches over the same flowing
    blocks — one pipeline, no driver collection, the only shuffle is
    the sink's partition groupby. Returns the per-source manifest
    (source, n_rows) read back from the written partitions; since no
    stage after the mixture filter drops or adds rows, the manifest
    equals the mixture's per-source kept counts and is exactly
    SQL-checkable.

    ``shards_per_source`` is the 100 TB knob: with few distinct
    sources, one partition per source means one worker writing one
    multi-TB file. Above 1 the partition key becomes
    ``source/shard_id`` with shard_id = splitmix64(doc_id) mod k —
    deterministic (resume-safe), decorrelated from any id-derived
    attribute, k-way parallel writes per source, and the manifest
    still aggregates back to per-source counts.
    """
    import hashlib
    import os
    import shutil
    import tempfile

    from clonehunter_ray.state.checkpoint import write_partitioned_output

    if out_dir is None:
        # deterministic scratch path per input dir, wiped before the
        # run: repeated harness invocations reuse ONE directory
        # (bounded /tmp use) and the wipe guarantees a fresh export
        # rather than skip-resuming over a previous run's partitions
        key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
        out_dir = os.path.join(
            tempfile.gettempdir(), f"training_shards_{key}"
        )
        shutil.rmtree(out_dir, ignore_errors=True)

    eff_rates = MIXTURE_RATES if rates is None else rates
    eff_default = MIXTURE_DEFAULT if default_rate is None else default_rate

    # Parameter fingerprint: the sink's per-partition _SUCCESS resume
    # is only valid when THIS run's parameters match the ones the
    # existing partitions were written with — otherwise a re-run with
    # different rates/budget/sharding would silently keep stale data
    # (and switching shards_per_source would mix two dir layouts).
    import json as _json

    params_fp = _json.dumps(
        {
            # input identity: without it, re-exporting a DIFFERENT
            # corpus into the same out_dir would skip-resume the old
            # corpus's _SUCCESS partitions and report them in the
            # manifest as if they came from this input
            "input": sf_dir,
            "rates": {k: eff_rates[k] for k in sorted(eff_rates)},
            "default_rate": eff_default,
            "budget": budget,
            "shards_per_source": shards_per_source,
            # format changes the part-file layout -> resume-incompatible
            **({"shard_format": shard_format} if shard_format != "parquet" else {}),
        },
        sort_keys=True,
    )
    fp_path = os.path.join(out_dir, "_export_params.json")
    if os.path.exists(fp_path):
        with open(fp_path, encoding="utf-8") as fh:
            if fh.read() != params_fp:
                raise ValueError(
                    f"out_dir {out_dir} holds an export written with "
                    "different parameters; use a fresh directory or "
                    "delete it to re-export"
                )
    else:
        os.makedirs(out_dir, exist_ok=True)
        with open(fp_path, "w", encoding="utf-8") as fh:
            fh.write(params_fp)

    # rates above 1.0 mean epoch-style upsampling (duplicated rows with
    # an epoch column); at or below 1.0 the plain filter path applies
    upsampling = eff_default > 1.0 or any(
        r > 1.0 for r in eff_rates.values()
    )
    if upsampling:
        top = max([eff_default, *eff_rates.values()])
        if top >= MAX_EPOCHS:
            raise ValueError(
                f"upsampling rates must be < {MAX_EPOCHS}, got {top}"
            )
        ds = _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
            lambda b: mixture_upsample_batch(
                b, eff_rates, default_rate=eff_default, salt="mix:"
            ),
            batch_format="pyarrow",
        )
    else:
        ds = mixture_sample(
            _docs(sf_dir, ["doc_id", "source", "text"]),
            eff_rates,
            default_rate=eff_default,
        )

    def normalize_keep_source(batch: pa.Table) -> pa.Table:
        out = normalize_text_batch(batch)
        out = out.append_column("source", batch["source"])
        if "epoch" in batch.column_names:
            out = out.append_column("epoch", batch["epoch"])
        return out

    def count_tokens(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch["norm_text"], ""))
        n = pc.cast(pc.count_substring_regex(low, "[a-z0-9_]+"), pa.int64())
        return batch.append_column("n_tokens", n)

    def pack_block(batch: pa.Table) -> pa.Table:
        # packing needs a UNIQUE per-row id for bin keys; upsampled
        # copies share doc_id, so pack on doc_id*MAX_EPOCHS + epoch
        # (epoch bounded by the same constant) — deterministic and
        # collision-free in int64
        if "epoch" in batch.column_names:
            uid = (
                batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                * MAX_EPOCHS
                + batch["epoch"].to_numpy(zero_copy_only=False)
            )
            key_tbl = pa.table(
                {
                    "doc_id": pa.array(uid, pa.int64()),
                    "n_tokens": batch["n_tokens"],
                }
            )
        else:
            key_tbl = batch.select(["doc_id", "n_tokens"])
        packed = pack_bins_batch(key_tbl, budget)
        # pack_bins_batch emits exactly one output row per input row,
        # in input order (only bin assignment is computed), so the new
        # columns align positionally
        return batch.append_column(
            "bin_id", packed["bin_id"]
        ).append_column("bin_slot", packed["bin_slot"])

    staged = (
        ds.map_batches(normalize_keep_source, batch_format="pyarrow")
        .map_batches(count_tokens, batch_format="pyarrow")
        .map_batches(pack_block, batch_format="pyarrow", batch_size=None)
    )

    if shards_per_source > 1:
        k = shards_per_source

        def add_shard_key(batch: pa.Table) -> pa.Table:
            from clonehunter_ray.functions.sketches import splitmix64

            # HASH the id before the modulo: raw doc_id % k correlates
            # with any id-derived attribute (the synthetic corpus
            # assigns source by doc_id modulo, collapsing every source
            # into one shard); splitmix64 decorrelates and stays
            # deterministic/resume-safe
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            sid = (
                splitmix64(ids.astype(np.uint64)) % np.uint64(k)
            ).astype(np.int64)
            keys = [
                f"{s}/{i:04d}"
                for s, i in zip(batch["source"].to_pylist(), sid)
            ]
            return batch.append_column(
                "export_part", pa.array(keys, pa.string())
            )

        staged = staged.map_batches(add_shard_key, batch_format="pyarrow")
        write_partitioned_output(staged, out_dir, "export_part", fmt=shard_format)
        prefix = "export_part="
    else:
        write_partitioned_output(staged, out_dir, "source", fmt=shard_format)
        prefix = "source="

    import pyarrow.parquet as pq
    from urllib.parse import unquote

    def _part_rows(part_path: str) -> int:
        if shard_format == "parquet":
            return pq.read_metadata(part_path).num_rows
        with open(part_path, "rb") as fh:  # jsonl: one row per line
            return sum(1 for _ in fh)

    counts: dict[str, int] = {}
    for name in sorted(os.listdir(out_dir)):
        part = os.path.join(out_dir, name, f"part-0.{shard_format}")
        # count only COMPLETE partitions (_SUCCESS is the sink's
        # completion marker) and unquote the hive dirname back to the
        # raw value (the sink URL-quotes it); sharded partition values
        # are 'source/NNNN' — aggregate back to per-source counts
        if (
            name.startswith(prefix)
            and os.path.exists(part)
            and os.path.exists(os.path.join(out_dir, name, "_SUCCESS"))
        ):
            value = unquote(name.split("=", 1)[1])
            # strip the '/NNNN' shard suffix ONLY in sharded layout —
            # raw source values may legitimately contain '/'
            # (e.g. 'web/commoncrawl') and must pass through verbatim
            # in the unsharded layout
            source = (
                value.rsplit("/", 1)[0]
                if prefix == "export_part=" and "/" in value
                else value
            )
            counts[source] = counts.get(source, 0) + _part_rows(part)
    items = sorted(counts.items())
    return pa.table(
        {
            "source": pa.array([k for k, _ in items], pa.string()),
            "n_rows": pa.array([v for _, v in items], pa.int64()),
        }
    )
