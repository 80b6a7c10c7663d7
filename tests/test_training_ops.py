"""Training-data export operators (pipelines/training.py): mixture
sampling and text normalization pinned against the DuckDB SQL shipped
in ``__ray_entry__.oracle_sql()``; sequence packing pinned by its
invariants (FFD legality, determinism, near-optimal bin count).
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as entry  # noqa: E402

from clonehunter_ray.pipelines import training as T  # noqa: E402

SF_DIR = "/root/testdata/sf0.001"


def _oracle(sql: str):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"'{SF_DIR}/documents.parquet'"
    )
    return con.sql(sql).df()


def _norm(df):
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


# -- kernel units (no Ray needed) -------------------------------------------


def test_rate_threshold_mapping():
    assert T._rate_threshold(1.0) is None
    assert T._rate_threshold(0.5) == "8000"
    assert T._rate_threshold(0.25) == "4000"
    assert T._rate_threshold(0.125) == "2000"
    assert T._rate_threshold(0.0) == "0000"  # keeps nothing
    # 1/65536 grid: small rates now sample instead of vanishing (the
    # old 1/256 grid mapped 0.001 to '00' and dropped the source)
    assert T._rate_threshold(0.001) == format(round(0.001 * 65536), "04x")
    import pytest as _pytest

    with _pytest.raises(ValueError):  # below the grid: loud, not silent
        T._rate_threshold(1e-7)
    # rates rounding to the full range are keep-all, NOT a 5-char
    # string whose lexicographic compare would drop ~94% of rows
    assert T._rate_threshold(0.9999961) is None
    batch = pa.table(
        {
            "doc_id": pa.array(range(200), pa.int64()),
            "source": pa.array(["w"] * 200),
            "text": pa.array([f"doc {i}" for i in range(200)]),
        }
    )
    out = T.mixture_sample_batch(batch, {"w": 0.999}, 1.0, "s:")
    assert out.num_rows == 200


def test_pack_zero_token_doc_never_joins_oversize_bin():
    out = T.pack_bins_batch(
        pa.table(
            {
                "doc_id": pa.array(["big", "empty"]),
                "n_tokens": pa.array([300, 0], pa.int64()),
            }
        ),
        budget=256,
    )
    bins = dict(zip(out["doc_id"].to_pylist(), out["bin_id"].to_pylist()))
    assert bins["big"] != bins["empty"]  # oversize bin stays a singleton
    # but a 0-token doc MAY join an exactly-full legal bin
    out2 = T.pack_bins_batch(
        pa.table(
            {
                "doc_id": pa.array(["full", "empty"]),
                "n_tokens": pa.array([256, 0], pa.int64()),
            }
        ),
        budget=256,
    )
    b2 = dict(zip(out2["doc_id"].to_pylist(), out2["bin_id"].to_pylist()))
    assert b2["full"] == b2["empty"]


def test_mixture_sample_batch_null_text_dropped():
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "source": pa.array(["a", "a", "b"]),
            "text": pa.array(["x", None, "y"]),
        }
    )
    out = T.mixture_sample_batch(batch, {"a": 1.0}, default_rate=1.0, salt="s:")
    assert out["doc_id"].to_pylist() == [1, 3]


def test_normalize_text_batch_kernels():
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            # decomposed a + U+0301: NFC must COMPOSE it to U+00E1
            "text": pa.array(["a\u0301  b\t\nc", "  x  ", None]),
        }
    )
    out = T.normalize_text_batch(batch)
    assert out["norm_text"].to_pylist() == ["\u00e1 b c", "x", None]
    assert out["n_norm_chars"].to_pylist() == [5, 1, None]


def test_normalize_text_batch_matches_duckdb_nfc():
    # includes U+2028 at string edges: DuckDB's trim() strips only
    # ' ', so the engine must not Unicode-trim it away
    texts = [
        "a\u0301b",
        "nai\u0308ve",
        "\ufb01le  x",
        "plain ascii",
        "\u2028x\u2028",
        None,
    ]
    batch = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts),
        }
    )
    out = T.normalize_text_batch(batch)["norm_text"].to_pylist()
    con = duckdb.connect()
    for t, mine in zip(texts, out):
        db = con.execute(
            "SELECT trim(regexp_replace(nfc_normalize(?), '\\s+', ' ', 'g'))",
            [t],
        ).fetchone()[0]
        assert mine == db


def test_pack_bins_batch_ffd_invariants():
    rng = np.random.default_rng(7)
    n = 400
    toks = rng.integers(1, 300, size=n)
    batch = pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(n)], pa.string()),
            "n_tokens": pa.array(toks, pa.int64()),
        }
    )
    budget = 256
    out = T.pack_bins_batch(batch, budget)
    assert out.num_rows == n  # every doc exactly once
    assert len(set(out["doc_id"].to_pylist())) == n
    import collections

    sums: dict = collections.defaultdict(int)
    members: dict = collections.defaultdict(int)
    for bid, nt in zip(out["bin_id"].to_pylist(), out["n_tokens"].to_pylist()):
        sums[bid] += nt
        members[bid] += 1
    for bid, s in sums.items():
        # over-budget bins are exactly the single docs longer than budget
        assert s <= budget or members[bid] == 1
    # near-optimal: FFD uses at most ~1.5x the fractional lower bound
    # (11/9 OPT + 1 classically; generous slack for the big-item bins)
    fits = toks[toks <= budget]
    lb = int(np.ceil(fits.sum() / budget)) + int((toks > budget).sum())
    assert len(sums) <= 1.5 * lb + 1
    # deterministic
    out2 = T.pack_bins_batch(batch, budget)
    assert out.equals(out2)
    # bin_id is a member of its own bin, slot 0
    first = {
        bid: slot
        for bid, did, slot in zip(
            out["bin_id"].to_pylist(),
            out["doc_id"].to_pylist(),
            out["bin_slot"].to_pylist(),
        )
        if bid == did
    }
    assert set(first) == set(sums) and all(s == 0 for s in first.values())


# -- Ray pipelines vs oracle -------------------------------------------------


@pytest.mark.usefixtures("ray_session")
def test_mixture_sample_documents_oracle():
    mine = _norm(entry_query("mixture_sample_documents"))
    oracle = _norm(_oracle(entry.oracle_sql()["mixture_sample_documents"]))
    assert mine.shape == oracle.shape
    assert (mine.astype(str).values == oracle.astype(str).values).all()
    # the mixture actually downsamples: fewer rows than the corpus
    n_docs = len(_oracle("SELECT doc_id FROM documents"))
    assert 0 < len(mine) < n_docs


@pytest.mark.usefixtures("ray_session")
def test_normalize_text_documents_oracle():
    mine = _norm(entry_query("normalize_text_documents"))
    oracle = _norm(_oracle(entry.oracle_sql()["normalize_text_documents"]))
    assert mine.shape == oracle.shape
    assert (mine.astype(str).values == oracle.astype(str).values).all()


@pytest.mark.usefixtures("ray_session")
def test_pack_sequences_documents_pipeline():
    df = entry_query("pack_sequences_documents")
    n_docs = len(_oracle("SELECT doc_id FROM documents"))
    assert len(df) == n_docs and df["doc_id"].is_unique
    g = df.groupby("bin_id")["n_tokens"].agg(["sum", "size"])
    assert ((g["sum"] <= 256) | (g["size"] == 1)).all()
    # doc_id keeps the input dtype (int64 in the testdata tables)
    assert str(df["doc_id"].dtype) == "int64"


def entry_query(name: str):
    import pandas as pd
    import ray.data

    res = entry.queries()[name](SF_DIR)
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    assert isinstance(res, pd.DataFrame)
    return res


@pytest.mark.usefixtures("ray_session")
def test_export_training_shards_end_to_end(tmp_path):
    """Composed export pipeline: the written per-source manifest equals
    the SQL mixture counts, shard files carry the full export schema,
    bins are legal, and a re-run skips finished partitions."""
    import pyarrow.parquet as pq

    out_dir = str(tmp_path / "shards")
    manifest = T.export_training_shards(SF_DIR, out_dir=out_dir).to_pandas()
    want = _oracle(entry.oracle_sql()["export_training_shards"])
    m = _norm(manifest)
    w = _norm(want)
    assert m.shape == w.shape
    assert (m.astype(str).values == w.astype(str).values).all()
    # shard files have the full export schema and legal bins
    one = os.path.join(
        out_dir, f"source={manifest['source'].iloc[0]}", "part-0.parquet"
    )
    t = pq.read_table(one)
    assert set(t.column_names) >= {
        "doc_id", "source", "norm_text", "n_tokens", "bin_id", "bin_slot"
    }
    df = t.to_pandas()
    g = df.groupby("bin_id")["n_tokens"].agg(["sum", "size"])
    assert ((g["sum"] <= 256) | (g["size"] == 1)).all()
    # a re-run against the same out_dir skips every finished partition
    # (the _SUCCESS markers survive) and reports identical counts
    manifest2 = T.export_training_shards(SF_DIR, out_dir=out_dir).to_pandas()
    assert (
        _norm(manifest2).astype(str).values == m.astype(str).values
    ).all()


@pytest.mark.usefixtures("ray_session")
def test_duplicate_clusters_empty_edge_set_is_all_singletons():
    from clonehunter_ray.pipelines import queries as Q

    df = (
        Q.duplicate_clusters_documents(SF_DIR, threshold=1.01)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert len(df) > 0
    assert (df["doc_id"].values == df["cluster_id"].values).all()


@pytest.mark.usefixtures("ray_session")
def test_export_training_shards_sub_sharded(tmp_path):
    """shards_per_source > 1 splits each source across k parallel
    writer partitions (the 100 TB path) while the per-source manifest
    stays identical to the unsharded export."""
    flat = _norm(
        T.export_training_shards(
            SF_DIR, out_dir=str(tmp_path / "flat")
        ).to_pandas()
    )
    sharded_dir = str(tmp_path / "sharded")
    sharded = _norm(
        T.export_training_shards(
            SF_DIR, out_dir=sharded_dir, shards_per_source=3
        ).to_pandas()
    )
    assert (flat.astype(str).values == sharded.astype(str).values).all()
    # at least one source actually split into multiple shard dirs
    names = [n for n in os.listdir(sharded_dir) if n.startswith("export_part=")]
    from urllib.parse import unquote as _uq

    sources = [_uq(n.split("=", 1)[1]).rsplit("/", 1)[0] for n in names]
    assert len(names) > len(set(sources))


def test_mixture_upsample_batch_copies_and_epochs():
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "source": pa.array(["a", "a", "b"]),
            "text": pa.array(["x", None, "y"]),
        }
    )
    # a at exactly 3 epochs, b kept once
    out = T.mixture_upsample_batch(batch, {"a": 3.0}, 1.0, "s:")
    got = list(
        zip(out["doc_id"].to_pylist(), out["epoch"].to_pylist())
    )
    assert got == [(1, 0), (1, 1), (1, 2), (3, 0)]  # NULL text: 0 copies
    # fractional rate: copies is floor(r) or floor(r)+1, deterministic
    out2 = T.mixture_upsample_batch(batch, {"a": 1.5}, 1.0, "s:")
    c1 = [d for d in out2["doc_id"].to_pylist()].count(1)
    assert c1 in (1, 2)
    out3 = T.mixture_upsample_batch(batch, {"a": 1.5}, 1.0, "s:")
    assert out2.equals(out3)


def test_mixture_upsample_float_dust_rate():
    """A rate whose fractional part quantizes to 0 (3.000001) upsamples
    like the integer rate instead of raising on the sub-grid fraction."""
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "source": pa.array(["a", "b"]),
            "text": pa.array(["x", "y"]),
        }
    )
    dusty = T.mixture_upsample_batch(batch, {"a": 3.000001}, 1.0, "s:")
    exact = T.mixture_upsample_batch(batch, {"a": 3.0}, 1.0, "s:")
    assert dusty.equals(exact)
    assert dusty["doc_id"].to_pylist() == [1, 1, 1, 2]
    # just under an integer: the fraction rounds up to a certain copy
    assert T.mixture_upsample_batch(batch, {"a": 2.9999999}, 1.0, "s:").equals(
        exact
    )


@pytest.mark.usefixtures("ray_session")
def test_mixture_upsample_documents_oracle():
    mine = _norm(entry_query("mixture_upsample_documents"))
    oracle = _norm(_oracle(entry.oracle_sql()["mixture_upsample_documents"]))
    assert mine.shape == oracle.shape
    assert (mine.astype(str).values == oracle.astype(str).values).all()
    # upsampled sources actually multiply
    per = mine.groupby("source").size()
    assert per["src0"] == 2 * 25 and per["src1"] > 25


@pytest.mark.usefixtures("ray_session")
def test_export_training_shards_with_upsampling(tmp_path):
    """Rates above 1.0 flow through the export as epoch-duplicated
    rows: manifest counts multiply, shard files carry the epoch
    column, and packed bins stay legal despite duplicate doc_ids."""
    import pyarrow.parquet as pq

    out_dir = str(tmp_path / "up")
    manifest = (
        T.export_training_shards(
            SF_DIR,
            out_dir=out_dir,
            rates={"src0": 2.0, "src1": 2.5},
            default_rate=1.0,
        )
        .to_pandas()
        .set_index("source")["n_rows"]
    )
    assert manifest["src0"] == 50  # 25 docs x exactly 2 epochs
    assert 50 <= manifest["src1"] <= 75  # 2.5 epochs, hash-decided
    assert manifest["src2"] == 25  # default rate 1.0
    part = os.path.join(out_dir, "source=src0", "part-0.parquet")
    t = pq.read_table(part)
    assert "epoch" in t.column_names
    df = t.to_pandas()
    assert set(df["epoch"]) == {0, 1}
    g = df.groupby("bin_id")["n_tokens"].agg(["sum", "size"])
    assert ((g["sum"] <= 256) | (g["size"] == 1)).all()
    # every (doc_id, epoch) pair exactly once
    assert not df.duplicated(["doc_id", "epoch"]).any()


@pytest.mark.usefixtures("ray_session")
def test_export_rejects_parameter_drift(tmp_path):
    """Re-running export into an existing out_dir with DIFFERENT
    parameters must fail loudly — the _SUCCESS resume would silently
    keep stale partitions otherwise."""
    out_dir = str(tmp_path / "d")
    T.export_training_shards(out_dir=out_dir, sf_dir=SF_DIR)
    # identical params: resume is fine
    T.export_training_shards(out_dir=out_dir, sf_dir=SF_DIR)
    with pytest.raises(ValueError, match="different parameters"):
        T.export_training_shards(
            out_dir=out_dir, sf_dir=SF_DIR, shards_per_source=3
        )
    with pytest.raises(ValueError, match="different parameters"):
        T.export_training_shards(
            out_dir=out_dir, sf_dir=SF_DIR, rates={"src0": 0.5}
        )


def test_manifest_preserves_slash_in_source_names(tmp_path, ray_session):
    """Unsharded layout: a source value containing '/' must pass
    through the manifest verbatim (only the sharded layout strips a
    shard suffix)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pa.table(
        {
            "doc_id": pa.array(range(8), pa.int64()),
            "source": pa.array(
                ["web/commoncrawl"] * 4 + ["web/openweb"] * 4
            ),
            "text": pa.array([f"alpha beta {i}" for i in range(8)]),
        }
    )
    src = tmp_path / "docs.parquet"
    pq.write_table(docs, str(src))
    manifest = (
        T.export_training_shards(
            str(src),
            out_dir=str(tmp_path / "o"),
            rates={},
            default_rate=1.0,
        )
        .to_pandas()
        .set_index("source")["n_rows"]
    )
    assert manifest["web/commoncrawl"] == 4
    assert manifest["web/openweb"] == 4


def test_chunk_tokens_batch_boundaries():
    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["a b c d e f g", "", "one two"], pa.string()
            ),
        }
    )
    out = T.chunk_tokens_batch(b, chunk_size=3)
    assert out["doc_id"].to_pylist() == [1, 1, 1, 3]
    assert out["chunk_idx"].to_pylist() == [0, 1, 2, 0]
    assert out["n_chunk_tokens"].to_pylist() == [3, 3, 1, 2]
    assert out["chunk_text"].to_pylist() == ["a b c", "d e f", "g", "one two"]


def test_chunk_tokens_batch_empty_and_validation():
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    assert T.chunk_tokens_batch(empty, 4).num_rows == 0
    import pytest as _pytest

    with _pytest.raises(ValueError):
        T.chunk_tokens_batch(empty, 0)
    # all-punctuation rows tokenize to nothing -> no chunks
    b = pa.table(
        {"doc_id": pa.array([9], pa.int64()), "text": pa.array(["!!! ..."])}
    )
    assert T.chunk_tokens_batch(b, 4).num_rows == 0


def test_chunk_documents_matches_duckdb(ray_session):
    got = (
        T.chunk_documents(SF_DIR)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    want = (
        _oracle(
            """
            WITH t AS (
                SELECT doc_id,
                       regexp_extract_all(lower(coalesce(text, '')),
                                          '[a-z0-9_]+') AS ts
                FROM documents
            ), c AS (
                SELECT doc_id, ts,
                       unnest(range(CAST(ceil(len(ts) / 64.0) AS BIGINT)))
                           AS i
                FROM t WHERE len(ts) > 0
            )
            SELECT doc_id,
                   CAST(i AS BIGINT) AS chunk_idx,
                   CAST(least((i + 1) * 64, len(ts)) - i * 64 AS BIGINT)
                       AS n_chunk_tokens,
                   array_to_string(
                       ts[i * 64 + 1 : least((i + 1) * 64, len(ts))], ' ')
                       AS chunk_text
            FROM c
            """
        )
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_export_training_shards_jsonl_format(tmp_path):
    """shard_format='jsonl' writes newline-delimited JSON part files
    with the same layout, manifest, resume markers, and row content as
    the Parquet sink."""
    import json

    pq_dir = str(tmp_path / "pq")
    jl_dir = str(tmp_path / "jl")
    m_pq = _norm(T.export_training_shards(SF_DIR, out_dir=pq_dir).to_pandas())
    m_jl = _norm(
        T.export_training_shards(
            SF_DIR, out_dir=jl_dir, shard_format="jsonl"
        ).to_pandas()
    )
    assert (m_pq.astype(str).values == m_jl.astype(str).values).all()
    # one partition round-trips: same rows, full export schema
    src = m_jl["source"].iloc[0]
    part = os.path.join(jl_dir, f"source={src}", "part-0.jsonl")
    assert os.path.exists(part)
    assert os.path.exists(os.path.join(jl_dir, f"source={src}", "_SUCCESS"))
    with open(part) as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == int(m_jl.loc[m_jl["source"] == src, "n_rows"].iloc[0])
    assert set(rows[0]) >= {
        "doc_id", "source", "norm_text", "n_tokens", "bin_id", "bin_slot"
    }
    import pyarrow.parquet as pq

    pq_rows = pq.read_table(
        os.path.join(pq_dir, f"source={src}", "part-0.parquet")
    ).to_pylist()
    assert sorted(r["doc_id"] for r in rows) == sorted(
        r["doc_id"] for r in pq_rows
    )
    # a jsonl re-run resumes over the finished partitions
    m_jl2 = _norm(
        T.export_training_shards(
            SF_DIR, out_dir=jl_dir, shard_format="jsonl"
        ).to_pandas()
    )
    assert (m_jl2.astype(str).values == m_jl.astype(str).values).all()
    # a format switch against an existing export dir is refused
    with pytest.raises(ValueError, match="different parameters"):
        T.export_training_shards(SF_DIR, out_dir=jl_dir)
