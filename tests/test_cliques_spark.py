"""Spark DataFrame clique counting vs the local substrate and DuckDB."""
import numpy as np
import pytest

from repro.cliques.local import enumerate_cliques
from repro.core.graph import from_edges
from repro.core.spark_engine import clique_weights_df, cliques_df, ingest
from repro.oracle import assert_equivalent


def _graph(seed, n=18, m=50, vertex_weight=None):
    rng = np.random.default_rng(seed)
    return from_edges(
        n, rng.integers(0, n, m), rng.integers(0, n, m), vertex_weight=vertex_weight
    )


@pytest.mark.parametrize("k", [3, 4, 5])
def test_spark_clique_count_matches_local(spark, k):
    g = _graph(21)
    _, edges = g.to_spark(spark)
    got = cliques_df(edges, k).count()
    assert got == enumerate_cliques(g, k).shape[0]


def test_spark_cliques_are_ordered_tuples(spark):
    g = _graph(22)
    _, edges = g.to_spark(spark)
    rows = cliques_df(edges, 3).collect()
    for r in rows:
        assert r["v0"] < r["v1"] < r["v2"]


@pytest.mark.parametrize("a", [None, np.linspace(0.5, 9.0, 18)], ids=["a0", "a-nonzero"])
def test_clique_weights_df_matches_local_counts(spark, a):
    """``w`` is the clique count; ``a`` does not count in it."""
    g = _graph(23, vertex_weight=a)
    tri = enumerate_cliques(g, 3)
    counts = np.zeros(g.n, dtype=np.int64)
    if tri.size:
        np.add.at(counts, tri.ravel(), 1)
    wdf = clique_weights_df(*g.to_spark(spark), 3)
    got = {r["vid"]: r["w"] for r in wdf.collect()}
    for v in range(g.n):
        assert got[v] == pytest.approx(float(counts[v]))


def test_per_vertex_triangle_counts_oracle(spark):
    """Per-vertex triangle membership counts vs the DuckDB SQL version."""
    g = _graph(24)
    verts, edges = ingest(spark, g.vertex_weight, g.src, g.dst, g.edge_weight)
    wdf = clique_weights_df(verts, edges, 3).select("vid", "w")
    assert_equivalent(
        wdf,
        """
        WITH tri AS (
            SELECT e1.src AS v0, e1.dst AS v1, e2.dst AS v2
            FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
            JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst
        ), roles AS (
            SELECT v0 AS vid FROM tri
            UNION ALL SELECT v1 FROM tri
            UNION ALL SELECT v2 FROM tri
        )
        SELECT v.vid AS vid, CAST(COALESCE(r.cnt, 0) AS DOUBLE) AS w
        FROM verts v LEFT JOIN (
            SELECT vid, COUNT(*) AS cnt FROM roles GROUP BY vid
        ) r ON v.vid = r.vid
        """,
        verts=verts,
        edges=edges,
    )
