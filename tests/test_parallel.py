"""Tests for Algorithm 2 (Dupin parallel peeling), local engine."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DG, DW, FD, TDS, dupin, from_edges, kclids, peel_local
from repro.core.brute import density_of, optimal_density


@pytest.fixture
def example_graph():
    """The Example 4.1 / Figure 5 graph (same as the sequential example)."""
    return from_edges(
        6,
        [0, 1, 2, 2, 2, 3, 3],
        [1, 2, 3, 4, 5, 4, 5],
        [1.0, 2.0, 1.0, 2.5, 2.5, 2.5, 2.5],
    )


def test_example41_first_round_peels_u1_u2(example_graph):
    """Example 4.1: u1 (w=1) and u2 (w=3) are both below 2·g(V)=4.67 and
    peel together in round 1; density then rises to 2.75."""
    r = peel_local(example_graph, DW, dupin(0.0))
    assert r.round_sets[0].tolist() == [0, 1]
    assert r.densities[1] == pytest.approx(2.75)


def test_example41_best_matches_sequential(example_graph):
    r = peel_local(example_graph, DW, dupin(0.0))
    assert r.best_density == pytest.approx(2.75)
    assert r.best_set.tolist() == [2, 3, 4, 5]


def test_parallel_uses_fewer_rounds_than_sequential(example_graph):
    r = peel_local(example_graph, DW, dupin(0.0))
    assert r.n_rounds < 6  # sequential needs |V| = 6


def test_rounds_bound_lemma41():
    """Lemma 4.1: R < log_{1+eps}|V| for eps > 0."""
    rng = np.random.default_rng(7)
    n = 200
    g = from_edges(n, rng.integers(0, n, 800), rng.integers(0, n, 800),
                   rng.random(800) + 0.05)
    for eps in (0.1, 0.5, 1.0):
        r = peel_local(g, DW, dupin(eps))
        assert r.n_rounds <= int(np.ceil(np.log(n) / np.log(1 + eps)))


def test_every_round_peels_at_least_one_vertex():
    rng = np.random.default_rng(8)
    g = from_edges(30, rng.integers(0, 30, 90), rng.integers(0, 30, 90),
                   rng.random(90))
    r = peel_local(g, DW, dupin(0.1))
    assert all(s.size >= 1 for s in r.round_sets)
    assert sum(s.size for s in r.round_sets) == 30


def test_larger_eps_never_more_rounds():
    rng = np.random.default_rng(9)
    g = from_edges(60, rng.integers(0, 60, 240), rng.integers(0, 60, 240),
                   rng.random(240) + 0.01)
    r_small = peel_local(g, DW, dupin(0.05))
    r_large = peel_local(g, DW, dupin(1.0))
    assert r_large.n_rounds <= r_small.n_rounds


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.1, 0.5]))
def test_theorem42_edge_metrics(seed, eps):
    """Theorem 4.2: g(S^p) >= g(S*) / (k(1+eps)) for DG/DW/FD."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    m = int(rng.integers(3, 16))
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                   rng.random(m) + 0.05, vertex_weight=rng.random(n) * 0.2)
    for metric in (DG, DW, FD):
        opt, _ = optimal_density(g, metric)
        r = peel_local(g, metric, dupin(eps))
        assert r.best_density >= opt / (metric.k * (1 + eps)) - 1e-9


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_theorem42_clique_metrics(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    m = int(rng.integers(5, 18))
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    for metric in (TDS, kclids(4)):
        opt, _ = optimal_density(g, metric)
        r = peel_local(g, metric, dupin(0.1))
        assert r.best_density >= opt / (metric.k * 1.1) - 1e-9


def test_best_set_density_consistent():
    rng = np.random.default_rng(11)
    g = from_edges(15, rng.integers(0, 15, 40), rng.integers(0, 15, 40),
                   rng.random(40))
    for metric in (DG, DW, FD, TDS):
        r = peel_local(g, metric, dupin(0.1))
        assert density_of(g, metric, r.best_set) == pytest.approx(
            r.best_density, abs=1e-9
        )


def test_peel_stamp_partitions_vertices():
    rng = np.random.default_rng(12)
    g = from_edges(25, rng.integers(0, 25, 70), rng.integers(0, 25, 70))
    r = peel_local(g, DG, dupin(0.1))
    assert (r.peel_stamp > 0).all()  # everything eventually peeled
    # the round sets partition V and stamps match the round order
    seen = np.zeros(g.n, dtype=int)
    for i, batch in enumerate(r.round_sets, start=1):
        seen[batch] += 1
        assert (r.peel_stamp[batch] == i).all()
    assert (seen == 1).all()


def test_densities_log_one_entry_per_batch():
    rng = np.random.default_rng(13)
    g = from_edges(20, rng.integers(0, 20, 50), rng.integers(0, 20, 50))
    r = peel_local(g, DG, dupin(0.2))
    assert len(r.densities) == len(r.round_sets) + 1


def test_dupin_finds_planted_clique():
    """A dense planted near-clique should be (approximately) recovered."""
    rng = np.random.default_rng(14)
    n = 120
    src = rng.integers(0, n, 300).tolist()
    dst = rng.integers(0, n, 300).tolist()
    plant = list(range(10))
    for i in plant:
        for j in plant:
            if i < j:
                src.append(i)
                dst.append(j)
    g = from_edges(n, src, dst)
    r = peel_local(g, DG, dupin(0.1))
    overlap = len(set(r.best_set.tolist()) & set(plant)) / len(plant)
    assert overlap >= 0.9


def test_worklog_records_rounds():
    rng = np.random.default_rng(15)
    g = from_edges(20, rng.integers(0, 20, 60), rng.integers(0, 20, 60))
    r = peel_local(g, DG, dupin(0.1))
    peel_rounds = [x for x in r.worklog.rounds if x.phase == "peel"]
    assert len(peel_rounds) == r.n_rounds
    assert all(x.scanned > 0 for x in peel_rounds)
