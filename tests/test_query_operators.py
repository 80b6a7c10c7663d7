"""Relational query operators vs DuckDB on the driver testdata.

Covers the operator classes the scan pipeline doesn't exercise: as-of
join (SURVEY §2.4 — composed from one co-partitioning shuffle +
vectorized sort-merge), per-group window rank (row_number-over-
partition as groupby/map_groups top-k), exact COUNT(DISTINCT) via a
combiner + two-level groupby, and a filtered rollup. The full suite of
oracle comparisons runs in tools/check_oracle.py; these pin the tricky
operators into pytest at the smallest scale factor.
"""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

from clonehunter_ray.pipelines import queries as Q

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["events", "orders"]:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _check(ray_result, con, sql: str) -> None:
    got = _norm(ray_result.to_pandas())
    want = _norm(con.execute(sql).fetchdf())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, check_exact=False, rtol=0, atol=1e-9
    )


def test_asof_join_matches_duckdb(ray_session, con):
    _check(
        Q.events_asof_latest_view(SF_DIR),
        con,
        """
        SELECT p.event_id AS purchase_id, p.user_id, v.event_id AS view_id
        FROM (SELECT * FROM events WHERE event_type = 'purchase') p
        ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') v
          ON p.user_id = v.user_id AND v.ts < p.ts
        """,
    )


def test_window_rank_matches_duckdb(ray_session, con):
    _check(
        Q.top_orders_per_customer(SF_DIR),
        con,
        """
        SELECT o_custkey, o_orderkey, round(o_totalprice, 2) AS o_totalprice, rank
        FROM (
            SELECT o_custkey, o_orderkey, o_totalprice,
                   row_number() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey ASC
                   ) AS rank
            FROM orders
        ) WHERE rank <= 3
        """,
    )


def test_distinct_count_matches_duckdb(ray_session, con):
    _check(
        Q.distinct_users_per_event_type(SF_DIR),
        con,
        """
        SELECT event_type, count(DISTINCT user_id) AS n_users
        FROM events GROUP BY event_type
        """,
    )


def test_range_join_matches_duckdb(ray_session, con):
    _check(
        Q.events_value_range_join(SF_DIR),
        con,
        """
        SELECT bucket_lo, count(*) AS n_events, round(sum(value), 2) AS sum_value
        FROM (
            SELECT CASE WHEN value >= 500 THEN 500.0
                        WHEN value >= 100 THEN 100.0
                        WHEN value >= 50  THEN 50.0
                        WHEN value >= 10  THEN 10.0
                        ELSE 0.0 END AS bucket_lo,
                   value
            FROM events
        ) GROUP BY bucket_lo
        """,
    )


def test_rolling_window_matches_duckdb(ray_session, con):
    _check(
        Q.events_rolling_7d(SF_DIR),
        con,
        """
        WITH daily AS (
            SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                   event_type, count(*) AS n_events
            FROM events GROUP BY 1, 2
        )
        SELECT day, event_type, n_events,
               sum(n_events) OVER (
                   PARTITION BY event_type ORDER BY day
                   ROWS BETWEEN 6 PRECEDING AND CURRENT ROW
               ) AS n_7d
        FROM daily
        """,
    )


def test_filtered_rollup_matches_duckdb(ray_session, con):
    _check(
        Q.order_priority_counts(SF_DIR),
        con,
        """
        SELECT o_orderpriority, count(*) AS n_orders
        FROM orders
        WHERE o_orderdate >= DATE '1996-01-01'
          AND o_orderdate < DATE '1997-01-01'
        GROUP BY o_orderpriority
        """,
    )


@pytest.fixture(scope="module")
def con2():
    c = duckdb.connect()
    for t in ["events", "orders", "customer", "lineitem", "documents", "embeddings"]:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def test_sessionization_matches_duckdb(ray_session, con2):
    _check(
        Q.events_sessionization(SF_DIR),
        con2,
        """
        WITH g AS (
            SELECT user_id, ts,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        )
        SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions,
               count(*) AS n_events
        FROM g GROUP BY user_id
        """,
    )


def test_anti_join_matches_duckdb(ray_session, con2):
    _check(
        Q.customers_without_orders(SF_DIR),
        con2,
        """
        SELECT c.c_custkey, c.c_name
        FROM customer c
        LEFT JOIN (
            SELECT DISTINCT o_custkey FROM orders
            WHERE o_orderpriority = '1-URGENT'
        ) o ON c.c_custkey = o.o_custkey
        WHERE o.o_custkey IS NULL
        """,
    )


def test_shipping_priority_matches_duckdb(ray_session, con2):
    _check(
        Q.shipping_priority_revenue(SF_DIR),
        con2,
        """
        SELECT l.l_orderkey,
               strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
               round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
        FROM customer c
        JOIN orders o ON c.c_custkey = o.o_custkey
        JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        WHERE c.c_mktsegment = 'BUILDING'
          AND o.o_orderdate < DATE '1995-03-15'
          AND l.l_shipdate > DATE '1995-03-15'
        GROUP BY l.l_orderkey, o.o_orderdate
        ORDER BY revenue DESC, o_orderdate, l.l_orderkey
        LIMIT 10
        """,
    )


def test_vocabulary_topk_matches_duckdb(ray_session, con2):
    _check(
        Q.token_vocabulary_topk(SF_DIR),
        con2,
        """
        SELECT tok, count(*) AS n
        FROM (
            SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
            FROM documents WHERE doc_id < 500
        )
        GROUP BY tok
        ORDER BY n DESC, tok
        LIMIT 50
        """,
    )


@pytest.fixture(scope="module")
def con3():
    c = duckdb.connect()
    for t in ["documents", "embeddings"]:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def test_redaction_matches_duckdb(ray_session, con3):
    _check(
        Q.redact_numbers_documents(SF_DIR),
        con3,
        """
        SELECT doc_id, regexp_replace(text, '[0-9]+', '#', 'g') AS redacted
        FROM documents WHERE doc_id < 500
        """,
    )


def test_stratified_sample_matches_duckdb(ray_session, con3):
    _check(
        Q.stratified_sample_embeddings(SF_DIR),
        con3,
        """
        SELECT label, vec_id FROM (
            SELECT label, vec_id,
                   row_number() OVER (PARTITION BY label ORDER BY vec_id) AS rn
            FROM embeddings
        ) WHERE rn <= 20
        """,
    )


def test_label_centroids_matches_duckdb(ray_session, con2):
    _check(
        Q.label_centroids(SF_DIR),
        con2,
        """
        SELECT CAST(label AS BIGINT) AS label,
               CAST(dim AS BIGINT) AS dim,
               round(avg(v), 6) AS centroid
        FROM (
            SELECT label,
                   generate_subscripts(embedding, 1) AS dim,
                   unnest(embedding) AS v
            FROM embeddings
        )
        GROUP BY label, dim
        """,
    )


def test_label_centroids_values(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    df = Q.label_centroids(SF_DIR).to_pandas()
    assert set(df.columns) == {"label", "dim", "centroid"}
    # long format: every label has the full dim range, 1-based
    dims = df.groupby("label")["dim"].agg(["min", "max", "count"])
    assert (dims["min"] == 1).all()
    assert (dims["max"] == dims["count"]).all()
    # centroid of a label equals the brute-force mean for that label
    raw = pq.read_table(f"{SF_DIR}/embeddings.parquet").to_pandas()
    lab = int(df["label"].iloc[0])
    want = np.stack(
        raw.loc[raw["label"] == lab, "embedding"].to_numpy()
    ).astype(np.float64).mean(axis=0)
    got = (
        df.loc[df["label"] == lab]
        .sort_values("dim")["centroid"]
        .to_numpy()
    )
    assert np.allclose(got, np.round(want, 6), atol=1e-6)


def test_revenue_by_nation_join_cutover_matches_broadcast(
    ray_session, monkeypatch
):
    """Above the broadcast cutover orders, customer and nation attach
    by partitioned join instead of a plasma broadcast; results
    identical."""
    from clonehunter_ray.stages import candidates

    bc = (
        Q.revenue_by_nation(SF_DIR)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    jn = (
        Q.revenue_by_nation(SF_DIR)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bc, jn)


@pytest.mark.parametrize(
    "query", ["suppliers_per_region", "customers_without_orders"]
)
def test_dimension_attach_join_path_matches_default(
    ray_session, monkeypatch, query
):
    """Every keyed attach of the query forced down the partitioned-join
    path gives the default (broadcast) rows."""
    from clonehunter_ray.stages import candidates

    run = getattr(Q, query)
    bc = _norm(run(SF_DIR).to_pandas())
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    jn = _norm(run(SF_DIR).to_pandas())
    assert len(bc) > 0
    pd.testing.assert_frame_equal(bc, jn)


def test_large_volume_orders_join_attach_matches_default(
    ray_session, monkeypatch
):
    """The HAVING survivors attached onto orders by partitioned join
    (the survivor collect after it left at the default cutover) give
    the default rows."""
    from clonehunter_ray.stages import candidates

    bc = _norm(Q.large_volume_orders(SF_DIR, min_qty=220.0).to_pandas())
    attach = candidates.attach_by_key

    def join_attach(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
            return attach(*args, **kwargs)

    monkeypatch.setattr(candidates, "attach_by_key", join_attach)
    jn = _norm(Q.large_volume_orders(SF_DIR, min_qty=220.0).to_pandas())
    assert len(bc) > 0
    pd.testing.assert_frame_equal(bc, jn)


def test_large_volume_orders_survivor_guard(ray_session, monkeypatch):
    """The surviving orders are collected onto the driver: past the
    broadcast cutover the query raises instead of collecting them."""
    from clonehunter_ray.stages import candidates

    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    with pytest.raises(
        ValueError, match=r"surviving orders \(\d+ rows, None bytes\) is over"
    ):
        Q.large_volume_orders(SF_DIR, min_qty=220.0)


def test_shipping_priority_join_cutover_matches_broadcast(
    ray_session, monkeypatch
):
    from clonehunter_ray.stages import candidates

    bc = (
        Q.shipping_priority_revenue(SF_DIR)
        .to_pandas()
        .reset_index(drop=True)
    )
    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    jn = (
        Q.shipping_priority_revenue(SF_DIR)
        .to_pandas()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bc, jn)


def test_length_quantiles_match_duckdb(ray_session, con2):
    # exact distributed quantiles via histogram combiner — no sort
    _check(
        Q.doc_length_quantiles(SF_DIR),
        con2,
        """
        SELECT 0.25 AS q, CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS value
        FROM documents
        UNION ALL SELECT 0.5, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) FROM documents
        UNION ALL SELECT 0.75, CAST(quantile_disc(n_chars, 0.75) AS BIGINT) FROM documents
        UNION ALL SELECT 0.9, CAST(quantile_disc(n_chars, 0.9) AS BIGINT) FROM documents
        UNION ALL SELECT 0.99, CAST(quantile_disc(n_chars, 0.99) AS BIGINT) FROM documents
        """,
    )


def test_hash_sample_matches_duckdb(ray_session, con2):
    # deterministic sha256-prefix sampling — reproducible, no RNG state
    _check(
        Q.hash_sample_documents(SF_DIR),
        con2,
        """
        SELECT doc_id, lang, n_chars FROM documents
        WHERE substr(sha256(text), 1, 1) IN ('0', '1', '2', '3')
        """,
    )


def test_large_volume_orders_matches_duckdb(ray_session, con2):
    # sf0.001's max per-order quantity sum is smaller than the sf0.01
    # default threshold — pick one that yields a non-trivial survivor
    # set at this scale
    _check(
        Q.large_volume_orders(SF_DIR, min_qty=220.0),
        con2,
        """
        WITH t AS (
            SELECT l_orderkey, sum(l_quantity) AS sum_qty
            FROM lineitem GROUP BY l_orderkey
            HAVING sum(l_quantity) > 220
        )
        SELECT c.c_custkey, c.c_name, o.o_orderkey,
               strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
               round(o.o_totalprice, 2) AS o_totalprice,
               round(t.sum_qty, 2) AS sum_qty
        FROM t
        JOIN orders o ON o.o_orderkey = t.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        """,
    )


def test_large_volume_orders_nonempty(ray_session):
    got = Q.large_volume_orders(SF_DIR, min_qty=220.0).to_pandas()
    assert len(got) > 0
    assert (got["sum_qty"] > 220.0).all()


def test_c4_quality_filter_matches_duckdb(ray_session, con2):
    _check(
        Q.c4_quality_filter_documents(SF_DIR),
        con2,
        """
        WITH t AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '[a-z0-9_]+') AS ts
            FROM documents
        ), s AS (
            SELECT doc_id,
                   CAST(len(ts) AS BIGINT) AS n_tokens,
                   CASE WHEN len(ts) > 0 THEN
                       CAST(len(list_distinct(ts)) AS DOUBLE) / len(ts)
                   ELSE 0.0 END AS distinct_ratio,
                   CASE WHEN len(ts) > 0 THEN
                       CAST(list_aggregate(
                           list_transform(ts, x -> length(x)), 'sum')
                           AS DOUBLE) / len(ts)
                   ELSE 0.0 END AS mean_token_len
            FROM t
        )
        SELECT doc_id, n_tokens, distinct_ratio, mean_token_len
        FROM s
        WHERE n_tokens >= 25
          AND distinct_ratio >= 0.35
          AND mean_token_len BETWEEN 3.0 AND 8.0
        """,
    )


def test_c4_quality_filter_is_selective(ray_session):
    """The filter must neither pass everything nor drop everything."""
    import pyarrow.parquet as pq

    total = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    kept = Q.c4_quality_filter_documents(SF_DIR).count()
    assert 0 < kept < total


def test_bloom_anti_join_matches_exact_path(ray_session):
    """The Bloom-join shape must return the IDENTICAL exact result."""
    exact = (
        Q.customers_without_orders(SF_DIR)
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    bloom = (
        Q.customers_without_orders_bloom(SF_DIR)
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bloom, exact)


def test_bloom_anti_join_tiny_filter_still_exact(ray_session):
    """With a deliberately undersized bitmap (high fpr), more rows
    route through exact verification but the result is unchanged."""
    exact = (
        Q.customers_without_orders(SF_DIR)
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    bloom = (
        Q.customers_without_orders_bloom(SF_DIR, n_bits=256)
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bloom, exact)


def test_cap_docs_per_source_matches_duckdb(ray_session, con2):
    _check(
        Q.cap_docs_per_source(SF_DIR, cap=5),
        con2,
        """
        SELECT doc_id, source, n_chars FROM (
            SELECT doc_id, source, n_chars,
                   row_number() OVER (
                       PARTITION BY source
                       ORDER BY n_chars DESC, doc_id ASC
                   ) AS rn
            FROM documents
        ) WHERE rn <= 5
        """,
    )


def test_tfidf_top_terms_matches_duckdb(ray_session, con2):
    _check(
        Q.tfidf_top_terms_documents(SF_DIR),
        con2,
        """
        WITH t AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '[a-z0-9_]+') AS ts
            FROM documents
        ), n AS (
            SELECT count(*) AS n_docs FROM t
        ), tok AS (
            SELECT doc_id, unnest(ts) AS tok FROM t
        ), tf AS (
            SELECT doc_id, tok, count(*) AS tf
            FROM tok GROUP BY doc_id, tok
        ), df AS (
            SELECT tok, count(DISTINCT doc_id) AS df
            FROM tok GROUP BY tok
        ), ranked AS (
            SELECT tf.doc_id, tf.tok,
                   tf.tf * ln(CAST(n.n_docs AS DOUBLE) / df.df) AS s,
                   row_number() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY tf.tf * ln(CAST(n.n_docs AS DOUBLE)
                                           / df.df) DESC,
                                tf.tok ASC
                   ) AS rn
            FROM tf JOIN df USING (tok) CROSS JOIN n
        )
        SELECT doc_id, tok, round(s, 6) AS score6
        FROM ranked WHERE rn <= 3
        """,
    )


def test_decontaminate_distributed_matches_broadcast(ray_session):
    """The gram-partitioned semi-join shape and the broadcast shape
    must agree bit-for-bit (same oracle, different physical plan)."""
    a = (
        Q.decontaminate_documents(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        Q.decontaminate_documents_distributed(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_cluster_aware_split_no_leakage(ray_session):
    """Every near-dup cluster lands entirely on one side, and the
    split key is the cluster id (doc-level hashing would leak)."""
    got = Q.cluster_aware_split_documents(SF_DIR).to_pandas()
    sides_per_cluster = got.groupby("cluster_id")["split"].nunique()
    assert (sides_per_cluster == 1).all()
    assert set(got["split"].unique()) <= {"train", "test"}
    # at least one real multi-doc cluster exists in the fixture corpus
    assert (got.groupby("cluster_id").size() > 1).any()


def test_bm25_search_matches_duckdb(ray_session, con2):
    _check(
        Q.bm25_search_documents(SF_DIR),
        con2,
        """
        WITH t AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '[a-z0-9_]+') AS ts
            FROM documents
        ), stats AS (
            SELECT count(*) AS n_docs,
                   CAST(sum(len(ts)) AS DOUBLE) / count(*) AS avgdl
            FROM t
        ), q(query_id, tok) AS (
            VALUES (0, 'scan'), (0, 'column'), (1, 'join'),
                   (1, 'merge'), (2, 'order')
        ), tok AS (
            SELECT doc_id, unnest(ts) AS tok FROM t
        ), tf AS (
            SELECT doc_id, tok, count(*) AS tf
            FROM tok GROUP BY doc_id, tok
        ), dl AS (
            SELECT doc_id, len(ts) AS dl FROM t
        ), df AS (
            SELECT tok, count(DISTINCT doc_id) AS df
            FROM tok GROUP BY tok
        ), scored AS (
            SELECT q.query_id, tf.doc_id,
                   sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * 2.2
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))
                       AS score
            FROM q
            JOIN tf ON tf.tok = q.tok
            JOIN df ON df.tok = q.tok
            JOIN dl ON dl.doc_id = tf.doc_id
            CROSS JOIN stats s
            GROUP BY q.query_id, tf.doc_id
        ), ranked AS (
            SELECT query_id, doc_id, score,
                   row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score DESC, doc_id ASC
                   ) AS rn
            FROM scored
        )
        SELECT query_id, doc_id, round(score, 6) AS score6
        FROM ranked WHERE rn <= 10
        """,
    )


def test_length_quantiles_by_lang_matches_duckdb(ray_session, con2):
    _check(
        Q.length_quantiles_by_lang(SF_DIR),
        con2,
        """
        SELECT lang, q, value FROM (
            SELECT lang, 0.25 AS q,
                   CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS value
            FROM documents GROUP BY lang
            UNION ALL
            SELECT lang, 0.5, CAST(quantile_disc(n_chars, 0.5) AS BIGINT)
            FROM documents GROUP BY lang
            UNION ALL
            SELECT lang, 0.75, CAST(quantile_disc(n_chars, 0.75) AS BIGINT)
            FROM documents GROUP BY lang
            UNION ALL
            SELECT lang, 0.9, CAST(quantile_disc(n_chars, 0.9) AS BIGINT)
            FROM documents GROUP BY lang
        )
        """,
    )


def test_cross_corpus_dedup_matches_duckdb(ray_session, con2):
    _check(
        Q.cross_corpus_dedup_documents(SF_DIR),
        con2,
        """
        WITH toks AS (
            SELECT doc_id,
                   list_distinct(regexp_extract_all(lower(text),
                                                    '[a-z0-9_]+')) AS ts
            FROM documents WHERE doc_id < 500
        ), pairs AS (
            SELECT n.doc_id AS new_id,
                   round(CAST(len(list_intersect(n.ts, r.ts)) AS DOUBLE)
                         / (len(n.ts) + len(r.ts)
                            - len(list_intersect(n.ts, r.ts))), 6) AS jac6
            FROM toks n
            JOIN toks r ON n.doc_id % 7 <> 0 AND r.doc_id % 7 = 0
            WHERE len(n.ts) > 0 AND len(r.ts) > 0
              AND CAST(len(list_intersect(n.ts, r.ts)) AS DOUBLE)
                  / (len(n.ts) + len(r.ts)
                     - len(list_intersect(n.ts, r.ts))) >= 0.8
        )
        SELECT new_id AS doc_id,
               count(*) AS n_ref_matches,
               max(jac6) AS best_jac6
        FROM pairs GROUP BY new_id
        """,
    )


def test_cross_corpus_dedup_only_flags_new_side(ray_session):
    got = Q.cross_corpus_dedup_documents(SF_DIR).to_pandas()
    assert len(got) > 0
    assert (got["doc_id"] % 7 != 0).all()
    assert (got["best_jac6"] >= 0.8).all()


def test_length_quantiles_by_lang_keeps_null_lang_group(ray_session, tmp_path):
    """documents.lang is nullable: a NULL lang is a real group in the
    oracle's GROUP BY lang, and the pandas hist combiner must not drop
    it (groupby's default dropna=True silently would)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    langs = ["py", "js", None] * 40
    t = pa.table(
        {
            "doc_id": pa.array(range(120), pa.int64()),
            "lang": pa.array(langs, pa.string()),
            "n_chars": pa.array(
                rng.integers(10, 500, size=120), pa.int64()
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    got = (
        Q.length_quantiles_by_lang(str(tmp_path))
        .to_pandas()
        .sort_values(["lang", "q"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    want = (
        con.execute(
            """
            SELECT lang, q, value FROM (
                SELECT lang, 0.25 AS q,
                       CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS value
                FROM documents GROUP BY lang
                UNION ALL
                SELECT lang, 0.5, CAST(quantile_disc(n_chars, 0.5) AS BIGINT)
                FROM documents GROUP BY lang
                UNION ALL
                SELECT lang, 0.75, CAST(quantile_disc(n_chars, 0.75) AS BIGINT)
                FROM documents GROUP BY lang
                UNION ALL
                SELECT lang, 0.9, CAST(quantile_disc(n_chars, 0.9) AS BIGINT)
                FROM documents GROUP BY lang
            )
            """
        )
        .fetchdf()
        .sort_values(["lang", "q"], na_position="last")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) == 12  # 3 lang groups x 4 quantiles
    assert got["lang"].isna().sum() == 4
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, check_exact=True
    )


def test_tfidf_join_path_matches_broadcast(ray_session, monkeypatch):
    """The corpus-scale partitioned-join tf-idf path (vocabulary never
    broadcast) must agree bit-for-bit with the broadcast path: same
    score arithmetic, same (score desc, tok asc) top-k tie-break,
    same Python-rounded emit."""
    cols = ["doc_id", "tok", "score6"]
    bcast = (
        Q.tfidf_top_terms_documents(SF_DIR)
        .to_pandas()[cols]
        .sort_values(cols)
        .reset_index(drop=True)
    )
    from clonehunter_ray.stages import candidates

    monkeypatch.setattr(candidates, "BROADCAST_MAX_ROWS", 0)
    joinp = (
        Q.tfidf_top_terms_documents(SF_DIR)
        .to_pandas()[cols]
        .sort_values(cols)
        .reset_index(drop=True)
    )
    assert len(bcast) > 0
    pd.testing.assert_frame_equal(bcast, joinp, check_exact=True)


def test_sample_k_documents_matches_duckdb(ray_session, con2):
    got = (
        Q.sample_k_documents(SF_DIR, k=50)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        con2.execute(
            """
            SELECT doc_id, lang, n_chars FROM documents
            ORDER BY sha256(CAST(doc_id AS VARCHAR)), doc_id LIMIT 50
            """
        )
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == 50
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # determinism across re-runs (no RNG state)
    again = (
        Q.sample_k_documents(SF_DIR, k=50)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, again, check_dtype=False)


def test_global_shuffle_matches_duckdb(ray_session, con2):
    # seeded deterministic global shuffle + shard assignment
    _check(
        Q.global_shuffle_documents(SF_DIR),
        con2,
        """
        WITH r AS (
            SELECT doc_id, sha256('s42:' || CAST(doc_id AS VARCHAR)) AS h
            FROM documents
        ), s AS (
            SELECT doc_id, h,
                   CAST(CAST('0x' || substr(h, 1, 15) AS BIGINT)
                        % 4 AS BIGINT) AS shard
            FROM r
        )
        SELECT doc_id, shard,
               CAST(ROW_NUMBER() OVER (
                   PARTITION BY shard ORDER BY h, doc_id
               ) AS BIGINT) AS pos
        FROM s
        """,
    )


def test_global_shuffle_seed_and_determinism(ray_session):
    base = (
        Q.global_shuffle_documents(SF_DIR, seed="s42")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    again = (
        Q.global_shuffle_documents(SF_DIR, seed="s42")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(base, again)
    other = (
        Q.global_shuffle_documents(SF_DIR, seed="s43")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # a different seed is a genuinely different permutation
    assert not other[["shard", "pos"]].equals(base[["shard", "pos"]])
    # every shard's positions are a contiguous 1..n enumeration
    for _, g in base.groupby("shard"):
        assert sorted(g["pos"]) == list(range(1, len(g) + 1))
    # shard universe is NOT capped at 16 (regression: one-nibble shard)
    wide = Q.global_shuffle_documents(SF_DIR, n_shards=33).to_pandas()
    assert wide["shard"].nunique() == 33


def test_bigram_logprob_matches_duckdb(ray_session, con2):
    # add-one-smoothed bigram LM scores, bit-exact vs the SQL oracle
    import __ray_entry__

    _check(
        Q.bigram_logprob_documents(SF_DIR),
        con2,
        __ray_entry__.oracle_sql()["bigram_logprob_documents"],
    )


def test_dsir_logweights_matches_duckdb(ray_session, con2):
    # DSIR importance log-weights, exact-string features vs SQL oracle
    import __ray_entry__

    _check(
        Q.dsir_logweights_documents(SF_DIR),
        con2,
        __ray_entry__.oracle_sql()["dsir_logweights_documents"],
    )


def test_dsir_hashed_buckets_path(ray_session):
    # the memory-bounded hashed-feature form: same docs scored, target
    # slice scores higher on average (weights are target-likelihood
    # ratios), and a large bucket count converges to the exact scores
    exact = (
        Q.dsir_logweights_documents(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    hashed = (
        Q.dsir_logweights_documents(SF_DIR, n_buckets=1 << 20)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(hashed["doc_id"]) == list(exact["doc_id"])
    assert (hashed["n_feats"] == exact["n_feats"]).all()
    # 2^20 buckets over a tiny vocab: collisions are rare, so scores
    # track the exact form closely (identical up to bucket collisions)
    diff = (hashed["logweight6"] - exact["logweight6"]).abs()
    assert (diff < 0.05).mean() > 0.95
    import pandas as pd

    langs = pd.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "lang"]
    )
    j = exact.merge(langs, on="doc_id")
    assert (
        j.loc[j["lang"] == "en", "logweight6"].mean()
        > j.loc[j["lang"] != "en", "logweight6"].mean()
    )


def test_dsir_resample_matches_duckdb(ray_session, con2):
    # Gumbel top-k importance resample: identical selection + keys
    import __ray_entry__

    _check(
        Q.dsir_resample_documents(SF_DIR),
        con2,
        __ray_entry__.oracle_sql()["dsir_resample_documents"],
    )


def test_dsir_resample_seed_changes_draw(ray_session):
    a = (
        Q.dsir_resample_documents(SF_DIR, k=50, seed="dsir42")
        .to_pandas()["doc_id"]
        .tolist()
    )
    b = (
        Q.dsir_resample_documents(SF_DIR, k=50, seed="dsir43")
        .to_pandas()["doc_id"]
        .tolist()
    )
    assert set(a) != set(b)  # fresh Gumbel draw
    again = (
        Q.dsir_resample_documents(SF_DIR, k=50, seed="dsir42")
        .to_pandas()["doc_id"]
        .tolist()
    )
    assert a == again  # deterministic re-run


def test_token_budget_select_edges(ray_session, tmp_path):
    import duckdb as _duck

    import __ray_entry__ as entry
    from clonehunter_ray.pipelines.queries import token_budget_select

    sf = "/root/testdata/sf0.001"
    # budget >= corpus total -> every document selected
    all_rows = token_budget_select(sf, budget=10**9).to_pandas()
    con = _duck.connect()
    total = con.execute(
        f"SELECT count(*) FROM read_parquet('{sf}/documents.parquet')"
    ).fetchone()[0]
    assert len(all_rows) == total
    # budget 0 -> nothing
    assert token_budget_select(sf, budget=0).to_pandas().empty
    # the selected set is budget-feasible and maximal-prefix: total
    # tokens <= budget, and adding the next-priority doc would exceed
    sel = token_budget_select(sf, budget=15_000).to_pandas()
    assert sel["n_tokens"].sum() <= 15_000
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    nxt = con.execute(
        """
        WITH t AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(coalesce(text, '')),
                                               '[a-z0-9_]+')) AS BIGINT)
                       AS n_tokens,
                   sha256(CAST(doc_id AS VARCHAR)) AS pri
            FROM documents
        )
        SELECT n_tokens FROM t ORDER BY pri, doc_id
        LIMIT 1 OFFSET ?
        """,
        [len(sel)],
    ).fetchone()
    assert nxt is not None
    assert sel["n_tokens"].sum() + nxt[0] > 15_000


# ---- UniMax waterfill (pure driver-side allocation math) --------------


def test_unimax_waterfill_hand_computed():
    from clonehunter_ray.pipelines.queries import unimax_waterfill

    # crossover at the last language: 10 + 20 fully granted, the
    # big language takes the remaining 30
    assert unimax_waterfill({"a": 10, "b": 20, "c": 100}, 60, 1) == {
        "a": 10, "b": 20, "c": 30,
    }
    # crossover in the middle: level = (100 - 10) / 2 = 45
    assert unimax_waterfill({"a": 10, "b": 50, "c": 60}, 100, 1) == {
        "a": 10, "b": 45, "c": 45,
    }
    # budget covers every capacity -> quotas == capacities
    assert unimax_waterfill({"a": 5, "b": 7}, 1000, 2) == {"a": 10, "b": 14}
    # zero budget -> zero quotas
    assert unimax_waterfill({"a": 5, "b": 7}, 0, 2) == {"a": 0, "b": 0}
    # single language
    assert unimax_waterfill({"a": 40}, 60, 2) == {"a": 60}
    assert unimax_waterfill({"a": 40}, 100, 2) == {"a": 80}


def test_unimax_waterfill_invariants():
    from clonehunter_ray.pipelines.queries import unimax_waterfill

    cases = [
        ({"a": 3, "b": 3, "c": 3}, 7, 1),
        ({"a": 1, "b": 100}, 50, 2),
        ({"a": 17, "b": 23, "c": 5, "d": 90}, 113, 3),
        ({"a": 2, "b": 2, "c": 2, "d": 2, "e": 2}, 9, 1),
        ({"x": 1000}, 1, 5),
    ]
    for counts, budget, epochs in cases:
        q = unimax_waterfill(counts, budget, epochs)
        caps = {l: n * epochs for l, n in counts.items()}
        # never exceed a language's capacity
        assert all(q[l] <= caps[l] for l in counts)
        total_cap = sum(caps.values())
        if total_cap <= budget:
            assert q == caps
        else:
            # floors can strand at most one unit per uncapped language
            assert sum(q.values()) <= budget
            assert budget - sum(q.values()) < len(counts)
            # uniform fill: every language below its capacity sits at
            # the same level
            levels = {q[l] for l in counts if q[l] < caps[l]}
            assert len(levels) <= 1


def test_weighted_sample_biases_toward_weight(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from clonehunter_ray.pipelines import queries as Q

    got = Q.weighted_sample_documents(SF_DIR, k=50).to_pandas()
    assert len(got) == 50
    assert got["n_chars"].gt(0).all()
    # priorities are the E-S keys: sorted descending, 9-dp rounded
    pri = got["priority"].to_numpy()
    assert (np.diff(pri) <= 0).all()
    assert np.allclose(pri, np.round(pri, 9))
    # length-weighted sampling must overrepresent long documents
    # relative to the corpus mean (deterministic given the fixture)
    corpus = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["n_chars"]
    )["n_chars"].to_numpy(zero_copy_only=False)
    assert got["n_chars"].mean() > corpus.mean()
    # determinism: a second run returns the identical sample
    again = Q.weighted_sample_documents(SF_DIR, k=50).to_pandas()
    assert got["doc_id"].tolist() == again["doc_id"].tolist()


def test_stratified_split_exact_quotas(ray_session):
    """Every source contributes EXACTLY ceil(n_s/10) docs to test and
    the next ceil(n_s/10) to val (the property the hash-threshold
    split only approximates), and the assignment is deterministic
    across runs (sha256-priority rank, no RNG)."""
    df = Q.stratified_split_documents(SF_DIR).to_pandas()
    for _, g in df.groupby("source"):
        n = len(g)
        quota = -(-n // 10)  # ceil(n/10)
        counts = g["split"].value_counts()
        assert counts.get("test", 0) == quota
        assert counts.get("val", 0) == quota
        assert counts.get("train", 0) == n - 2 * quota
    df2 = Q.stratified_split_documents(SF_DIR).to_pandas()
    a = df.sort_values("doc_id").reset_index(drop=True)
    b = df2.sort_values("doc_id").reset_index(drop=True)
    assert (a["split"].values == b["split"].values).all()


def test_stratified_split_tiny_sources(ray_session, tmp_path):
    """Sources smaller than their combined quotas must not crash and
    must match the SQL semantics: rk <= quota is vacuously true past
    n_s, so a 1-doc source is all test and a 2-doc source is
    test+val."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": list(range(6)),
            "source": ["a", "b", "b", "c", "c", "c"],
            "text": ["x"] * 6,
            "lang": ["en"] * 6,
            "n_chars": [1] * 6,
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (
        Q.stratified_split_documents(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    import __ray_entry__ as entry

    want = (
        con.execute(entry.oracle_sql()["stratified_split_documents"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (got["split"].values == want["split"].values).all()
    assert set(got[got["source"] == "a"]["split"]) == {"test"}
