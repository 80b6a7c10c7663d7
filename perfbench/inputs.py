"""Seeded input generation for the benchmark workloads.

Every input is a pure function of ``(workload sizes, seed)`` and is
written as parquet under the benchmark's work directory, so the engine
reads it the way a user's data would arrive (``read_parquet``).  The
ground truth comes from the generators' own bookkeeping, or from the
exact oracles in checks.py, which do not use the engine.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def write_table(table: pa.Table, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp, row_group_size=4096)
    os.replace(tmp, path)
    return path


# -- code corpus (scan) -------------------------------------------------------


def code_corpus(n_files: int, seed: int) -> tuple[pa.Table, pa.Table]:
    """``corpus.generate_corpus``: Python clone families (about a tenth
    of the units) plus non-Python text files, with the planted pair
    truth table ``(unit_a, unit_b, family, expected)``.

    The generator gives each plain text file the boilerplate header
    (the LSH hot-bucket material) with probability 0.1, and the pair
    work in those buckets grows with the square of their count, so the
    count alone moved a scan's time by a third between seeds.  Here
    exactly a tenth of the plain text files carry it, so the seed
    changes the content and not the shape.  Header files are in no
    truth pair."""
    from clonehunter_ray.corpus import _SKEW_HEADER, generate_corpus

    files, truth = generate_corpus(n_files, seed)
    rng = random.Random(seed)
    paths = files["path"].to_pylist()
    content = files["content"].to_pylist()
    header = _SKEW_HEADER.split("\n")
    plain = [i for i, p in enumerate(paths) if p.startswith("misc/")]
    skew = [i for i in plain if content[i].startswith(header[0])]
    want = round(0.1 * len(plain))
    if len(skew) > want:
        for i in rng.sample(skew, len(skew) - want):
            content[i] = "".join(
                f"line {k} of file {i} token_{rng.randrange(10**6)} "
                f"data_{rng.randrange(10**6)}\n"
                for k in range(rng.randint(8, 25))
            )
    else:
        rest = sorted(set(plain) - set(skew))
        for i in rng.sample(rest, want - len(skew)):
            content[i] = "\n".join(header + content[i].splitlines()[:4]) + "\n"
    col = files.schema.get_field_index("content")
    return files.set_column(col, "content", pa.array(content, pa.string())), truth


# -- documents + relational tables (docs) -----------------------------------


# Fitted to the repository's seed-42 documents table (5,000 rows at
# sf0.1; README.md, "Document inputs"): a 30-word vocabulary drawn
# uniformly, lengths uniform over 10-99 tokens, and 5 % of the documents
# a copy of another, non-copied document with one marker token appended.
VOCAB_WORDS = 30
MIN_TOKENS, MAX_TOKENS = 10, 99
COPY_SHARE = 0.05
COPY_MARK = "dup"
_LANGS = ["en", "de", "fr", "es", "zh"]
_LANG_WEIGHTS = [0.41, 0.14, 0.15, 0.15, 0.15]
N_SOURCES = 20


def _vocabulary(rng: random.Random, n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choice(letters) for _ in range(rng.randint(3, 9))))
    return sorted(words)


def documents(n_docs: int, seed: int) -> pa.Table:
    """Documents shaped like the seed-42 table: space-joined tokens from
    a 30-word vocabulary, ``COPY_SHARE`` of them (a fixed count, so the
    seed changes the words and not the shape) a copy of another document
    picked at random, earlier or later, with ``COPY_MARK`` appended."""
    rng = random.Random(seed * 7919 + 17)
    vocab = _vocabulary(rng, VOCAB_WORDS)
    copies = set(rng.sample(range(n_docs), round(COPY_SHARE * n_docs)))
    toks: list[list[str] | None] = [
        None if i in copies
        else [rng.choice(vocab) for _ in range(rng.randint(MIN_TOKENS, MAX_TOKENS))]
        for i in range(n_docs)
    ]
    originals = [i for i in range(n_docs) if i not in copies]
    for i in sorted(copies):
        toks[i] = toks[rng.choice(originals)] + [COPY_MARK]
    texts = [" ".join(t) for t in toks]
    return pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choices(_LANGS, _LANG_WEIGHTS, k=n_docs)),
            "source": pa.array([f"src{i % N_SOURCES}" for i in range(n_docs)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def relational_tables(scale: int, seed: int) -> dict[str, pa.Table]:
    """A small TPC-H-shaped star schema with the column names and types
    the engine's relational queries read.
    ``scale`` is the number of orders."""
    rng = np.random.default_rng(seed * 104729 + 3)
    n_cust = max(10, scale // 10)
    nation = pa.table(
        {
            "n_nationkey": pa.array(range(25), pa.int32()),
            "n_name": pa.array([f"NATION_{i:02d}" for i in range(25)]),
            "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
        }
    )
    customer = pa.table(
        {
            "c_custkey": pa.array(range(n_cust), pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
            "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, n_cust), 2)),
            "c_mktsegment": pa.array(
                rng.choice(["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"], n_cust)
            ),
        }
    )
    base = np.datetime64("1995-01-01", "us")
    odays = rng.integers(0, 2000, scale)
    orders = pa.table(
        {
            "o_orderkey": pa.array(range(scale), pa.int64()),
            # the last tenth of customers place no orders
            "o_custkey": pa.array(rng.integers(0, n_cust - n_cust // 10, scale), pa.int64()),
            "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], scale)),
            "o_totalprice": pa.array(np.round(rng.uniform(900, 400000, scale), 2)),
            "o_orderdate": pa.array(base + odays.astype("timedelta64[D]"), pa.timestamp("us")),
            "o_orderpriority": pa.array(
                rng.choice(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], scale)
            ),
        }
    )
    per_order = rng.integers(1, 8, scale)
    okeys = np.repeat(np.arange(scale), per_order)
    n_li = len(okeys)
    linenumber = np.concatenate([np.arange(1, k + 1) for k in per_order])
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(okeys, pa.int64()),
            "l_partkey": pa.array(rng.integers(0, 2000, n_li), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, 100, n_li), pa.int64()),
            "l_linenumber": pa.array(linenumber, pa.int32()),
            "l_quantity": pa.array(qty),
            # whole currency units: sums of price * (1 - discount) then
            # carry exactly two decimals, so round(sum, 2) has no
            # half-cent ties for float summation order to break
            "l_extendedprice": pa.array(qty * rng.integers(900, 2000, n_li)),
            "l_discount": pa.array(rng.integers(0, 11, n_li) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_li) / 100.0),
            "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_li)),
            "l_linestatus": pa.array(rng.choice(["F", "O"], n_li)),
            "l_shipdate": pa.array(
                base + (odays[okeys] + rng.integers(1, 120, n_li)).astype("timedelta64[D]"),
                pa.timestamp("us"),
            ),
        }
    )
    return {
        "nation": nation,
        "customer": customer,
        "orders": orders,
        "lineitem": lineitem,
    }


def write_tables(tables: dict[str, pa.Table], out_dir: str) -> str:
    for name, table in tables.items():
        write_table(table, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir

