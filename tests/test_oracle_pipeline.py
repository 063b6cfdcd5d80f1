"""DuckDB-oracle checks for the Spark aggregations the reproduction relies
on (every query-result check routes through
``repro.oracle.assert_equivalent``)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import from_edges
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def gdfs(spark):
    rng = np.random.default_rng(31)
    g = from_edges(20, rng.integers(0, 20, 60), rng.integers(0, 20, 60),
                   rng.random(60) + 0.1, vertex_weight=rng.random(20))
    verts, edges = g.to_pandas()
    return g, verts, edges


def test_degree_aggregation_oracle(spark, gdfs):
    g, verts, edges = gdfs
    sdf = spark.createDataFrame(edges)
    deg = (
        sdf.select(F.col("src").alias("vid"))
        .unionAll(sdf.select(F.col("dst").alias("vid")))
        .groupBy("vid")
        .agg(F.count(F.lit(1)).alias("deg"))
    )
    assert_equivalent(
        deg,
        """
        SELECT vid, COUNT(*) AS deg FROM (
            SELECT src AS vid FROM edges UNION ALL SELECT dst FROM edges
        ) GROUP BY vid
        """,
        edges=edges,
    )


def test_total_weight_f_oracle(spark, gdfs):
    """f(V) = Σ a + Σ c — the density numerator."""
    g, verts, edges = gdfs
    sv = spark.createDataFrame(verts)
    se = spark.createDataFrame(edges)
    f_df = (
        sv.agg(F.sum("a").alias("sa"))
        .crossJoin(se.agg(F.sum("c").alias("sc")))
        .select((F.col("sa") + F.col("sc")).alias("f"))
    )
    assert_equivalent(
        f_df,
        """
        SELECT (SELECT SUM(a) FROM verts) + (SELECT SUM(c) FROM edges) AS f
        """,
        verts=verts,
        edges=edges,
    )


def test_induced_subgraph_weight_oracle(spark, gdfs):
    """Σ c over G[S] for an explicit member list (the density of a
    detected community), cross-checked in SQL."""
    g, verts, edges = gdfs
    members = pd.DataFrame({"vid": np.arange(0, 10)})
    se = spark.createDataFrame(edges)
    sm = spark.createDataFrame(members)
    inside = (
        se.join(sm.withColumnRenamed("vid", "src"), "src")
        .join(sm.withColumnRenamed("vid", "dst"), "dst")
        .agg(F.coalesce(F.sum("c"), F.lit(0.0)).alias("fw"))
    )
    assert_equivalent(
        inside,
        """
        SELECT COALESCE(SUM(c), 0.0) AS fw FROM edges
        WHERE src IN (SELECT vid FROM members)
          AND dst IN (SELECT vid FROM members)
        """,
        edges=edges,
        members=members,
    )


def test_edge_table_dedup_oracle(spark):
    """from_edges' parallel-edge merging equals the SQL GROUP BY."""
    rng = np.random.default_rng(32)
    raw = pd.DataFrame(
        {
            "src": rng.integers(0, 8, 50),
            "dst": rng.integers(0, 8, 50),
            "amount": rng.random(50),
        }
    )
    g = from_edges(8, raw["src"], raw["dst"], raw["amount"])
    _, edges = g.to_pandas()
    got = spark.createDataFrame(edges).select(
        "src", "dst", F.round("c", 6).alias("c")
    )
    assert_equivalent(
        got,
        """
        SELECT LEAST(src, dst) AS src, GREATEST(src, dst) AS dst,
               ROUND(SUM(amount), 6) AS c
        FROM raw WHERE src <> dst
        GROUP BY LEAST(src, dst), GREATEST(src, dst)
        """,
        raw=raw,
    )
