"""Tests for Algorithm 1 (sequential peeling) incl. the paper's Example 2.1."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DG, DW, FD, TDS, from_edges, kclids, peel_local, sequential
from repro.core.brute import density_of, optimal_density


@pytest.fixture
def example_graph():
    """A DW graph realizing the worked numbers of Example 2.1 / Figure 3:
    g(V)=2.33, best subset {u3,u4,u5,u6} with density 2.75."""
    return from_edges(
        6,
        [0, 1, 2, 2, 2, 3, 3],
        [1, 2, 3, 4, 5, 4, 5],
        [1.0, 2.0, 1.0, 2.5, 2.5, 2.5, 2.5],
    )


def test_example21_initial_density(example_graph):
    r = peel_local(example_graph, DW, sequential())
    assert r.densities[0] == pytest.approx(14.0 / 6.0, abs=1e-9)


def test_example21_best_subset_and_density(example_graph):
    r = peel_local(example_graph, DW, sequential())
    assert r.best_density == pytest.approx(2.75)
    assert r.best_set.tolist() == [2, 3, 4, 5]


def test_example21_first_two_peels(example_graph):
    r = peel_local(example_graph, DW, sequential())
    # u1 (smallest weight 1) peels first, then u2
    assert r.round_sets[0].tolist() == [0]
    assert r.round_sets[1].tolist() == [1]


def test_example21_final_density_zero(example_graph):
    r = peel_local(example_graph, DW, sequential())
    assert r.densities[-1] == 0.0


def test_sequential_peels_one_vertex_per_round():
    g = from_edges(5, [0, 1, 2, 3], [1, 2, 3, 4])
    r = peel_local(g, DG, sequential())
    assert r.n_rounds == 5
    assert all(s.size == 1 for s in r.round_sets)


def test_sequential_always_peels_current_min_weight():
    rng = np.random.default_rng(2)
    g = from_edges(10, rng.integers(0, 10, 25), rng.integers(0, 10, 25),
                   rng.random(25) + 0.05)
    r = peel_local(g, DW, sequential())
    # replay: at each step the peeled vertex has minimal remaining weight
    alive = np.ones(g.n, bool)
    for batch in r.round_sets:
        w = np.zeros(g.n)
        for u, v, c in zip(g.src, g.dst, g.edge_weight):
            if alive[u] and alive[v]:
                w[u] += c
                w[v] += c
        wmin = w[alive].min()
        assert w[batch[0]] == pytest.approx(wmin, abs=1e-9)
        alive[batch[0]] = False


def test_best_set_density_is_consistent():
    rng = np.random.default_rng(3)
    g = from_edges(12, rng.integers(0, 12, 30), rng.integers(0, 12, 30),
                   rng.random(30))
    for metric in (DG, DW, FD):
        r = peel_local(g, metric, sequential())
        assert density_of(g, metric, r.best_set) == pytest.approx(
            r.best_density, abs=1e-9
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_theorem21_two_approximation(seed):
    """Theorem 2.1: sequential peeling is a 2-approx for DG/DW/FD."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    m = int(rng.integers(3, 16))
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                   rng.random(m) + 0.05, vertex_weight=rng.random(n) * 0.2)
    for metric in (DG, DW, FD):
        opt, _ = optimal_density(g, metric)
        r = peel_local(g, metric, sequential())
        assert r.best_density >= opt / 2.0 - 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_theorem22_k_approximation(seed):
    """Theorem 2.2: sequential peeling is a k-approx for TDS/kCLiDS."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    m = int(rng.integers(4, 18))
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    for metric in (TDS, kclids(4)):
        opt, _ = optimal_density(g, metric)
        r = peel_local(g, metric, sequential())
        assert r.best_density >= opt / metric.k - 1e-9


def test_isolated_vertices_peel_first():
    g = from_edges(4, [0], [1])  # 2 and 3 isolated
    r = peel_local(g, DG, sequential())
    first_two = {r.round_sets[0][0], r.round_sets[1][0]}
    assert first_two == {2, 3}


def test_tds_sequential_on_k4_plus_tail():
    # K4 with a pendant path — best TDS subgraph is the K4 (4 triangles / 4)
    g = from_edges(6, [0, 0, 0, 1, 1, 2, 3, 4], [1, 2, 3, 2, 3, 3, 4, 5])
    r = peel_local(g, TDS, sequential())
    assert set(r.best_set.tolist()) == {0, 1, 2, 3}
    assert r.best_density == pytest.approx(1.0)
