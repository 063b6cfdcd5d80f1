"""Tests for repro.core.graph: LocalGraph, from_edges, CSR adjacency."""
import numpy as np
import pytest

from repro.core.graph import LocalGraph, from_edges, induced_f_edge


def test_from_edges_orders_endpoints():
    g = from_edges(4, [2, 3], [0, 1], [1.0, 2.0])
    assert (g.src < g.dst).all()
    assert set(zip(g.src.tolist(), g.dst.tolist())) == {(0, 2), (1, 3)}


def test_from_edges_drops_self_loops():
    g = from_edges(3, [0, 1, 2], [0, 2, 2], [1.0, 1.0, 1.0])
    assert g.m == 1
    assert (g.src[0], g.dst[0]) == (1, 2)


def test_from_edges_merges_parallel_edges_summing_weight():
    # (0,1) three times across both orientations -> one edge, weight 6
    g = from_edges(2, [0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0])
    assert g.m == 1
    assert g.edge_weight[0] == pytest.approx(6.0)


def test_from_edges_default_weights():
    g = from_edges(3, [0, 1], [1, 2])
    assert np.allclose(g.edge_weight, 1.0)
    assert np.allclose(g.vertex_weight, 0.0)


def test_degrees_simple_path():
    g = from_edges(3, [0, 1], [1, 2])
    assert g.degrees().tolist() == [1, 2, 1]


def test_csr_roundtrip_matches_edges():
    rng = np.random.default_rng(0)
    n, m = 20, 60
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    indptr, nbr, eid = g.csr()
    # every undirected edge appears exactly twice as a half-edge
    assert indptr[-1] == 2 * g.m
    halfs = set()
    for u in range(n):
        for j in range(indptr[u], indptr[u + 1]):
            v = nbr[j]
            e = eid[j]
            assert {u, v} == {g.src[e], g.dst[e]}
            halfs.add((u, int(v), int(e)))
    assert len(halfs) == 2 * g.m


def test_csr_degrees_consistent():
    rng = np.random.default_rng(1)
    g = from_edges(15, rng.integers(0, 15, 40), rng.integers(0, 15, 40))
    indptr, _, _ = g.csr()
    assert np.array_equal(np.diff(indptr), g.degrees())


def test_induced_f_edge_triangle():
    g = from_edges(4, [0, 1, 0, 2], [1, 2, 2, 3], [1.0, 2.0, 3.0, 4.0])
    # subgraph {0,1,2} contains edges (0,1),(1,2),(0,2): 1+2+3 = 6
    assert induced_f_edge(g, np.array([0, 1, 2])) == pytest.approx(6.0)
    # single vertex: no edges, no vertex weight
    assert induced_f_edge(g, np.array([3])) == pytest.approx(0.0)


def test_induced_f_edge_includes_vertex_weights():
    g = from_edges(2, [0], [1], [5.0], vertex_weight=[1.0, 2.0])
    assert induced_f_edge(g, np.array([0, 1])) == pytest.approx(8.0)
    assert induced_f_edge(g, np.array([0])) == pytest.approx(1.0)


def test_to_pandas_schema():
    g = from_edges(3, [0, 1], [1, 2], [1.5, 2.5], vertex_weight=[0.1, 0.2, 0.3])
    verts, edges = g.to_pandas()
    assert list(verts.columns) == ["vid", "a"]
    assert list(edges.columns) == ["src", "dst", "c"]
    assert len(verts) == 3 and len(edges) == 2


@pytest.mark.parametrize("g,want", [
    (from_edges(3, [0, 1], [1, 2], [1.5, 2.5]), {(0, 1): 1.5, (1, 2): 2.5}),
    (from_edges(0, [], []), {}),
    (from_edges(3, [], []), {}),
], ids=["path", "empty", "edgeless"])
def test_to_spark_roundtrip(spark, g, want):
    verts, edges = g.to_spark(spark)
    assert verts.dtypes == [("vid", "bigint"), ("a", "double")]
    assert edges.dtypes == [("src", "bigint"), ("dst", "bigint"), ("c", "double")]
    assert verts.count() == g.n
    rows = {(r["src"], r["dst"]): r["c"] for r in edges.collect()}
    assert rows == want


def test_labels_carried():
    g = from_edges(2, [0], [1], labels={"fraud": np.array([1, 0])})
    assert g.labels["fraud"].tolist() == [1, 0]


def test_empty_graph_edge_cases():
    g = from_edges(2, [], [])
    assert g.m == 0
    indptr, nbr, eid = g.csr()
    assert indptr.tolist() == [0, 0, 0]


def test_from_edges_is_deterministic():
    rng = np.random.default_rng(3)
    s, d, w = rng.integers(0, 9, 30), rng.integers(0, 9, 30), rng.random(30)
    g1 = from_edges(9, s, d, w)
    g2 = from_edges(9, s, d, w)
    assert np.array_equal(g1.src, g2.src)
    assert np.allclose(g1.edge_weight, g2.edge_weight)


@pytest.mark.parametrize(
    "args, kwargs, match",
    [
        ((3, [-1], [1]), {}, r"\[0, 3\)"),
        ((3, [0], [5]), {}, r"\[0, 3\)"),
        ((3, [0, 1], [1]), {}, "length"),
        ((3, [0], [1], [1.0, 2.0]), {}, "length"),
        ((3, [0], [1]), {"vertex_weight": [0.0, 0.0]}, "vertex_weight"),
    ],
    ids=["negative-id", "id-past-n", "src-dst-length", "edge-weight-length",
         "vertex-weight-length"],
)
def test_from_edges_rejects_malformed_input(args, kwargs, match):
    """A malformed edge list is refused at set-up with the problem named,
    not peeled into a graph with a vertex −1 or failed on deep inside the
    engine."""
    with pytest.raises(ValueError, match=match):
        from_edges(*args, **kwargs)
