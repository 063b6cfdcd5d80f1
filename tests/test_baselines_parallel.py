"""Tests for the GBBS / PKMC / FWA / ALENEX / kCLIST / PBBS stand-ins."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    alenex_run,
    fwa_run,
    gbbs_run,
    kclist_run,
    pbbs_run,
    pkmc_run,
    spade_run,
)
from repro.core import (
    DG, DW, FD, TDS, alenex, from_edges, kclids, peel_local, sequential,
)
from repro.core.brute import density_of, optimal_density
from repro.graphgen import chung_lu_with_communities


@pytest.fixture(scope="module")
def graph():
    return chung_lu_with_communities(300, 1500, seed=77)


def _tiny(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    m = int(rng.integers(3, 16))
    return from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                      rng.random(m) + 0.05)


# ---- metric-support matrix (Table 2) ------------------------------------

def test_gbbs_rejects_clique_metrics(graph):
    with pytest.raises(ValueError):
        gbbs_run(graph, TDS)


def test_pbbs_rejects_edge_metrics(graph):
    with pytest.raises(ValueError):
        pbbs_run(graph, DG)


def test_kclist_rejects_edge_metrics(graph):
    with pytest.raises(ValueError):
        kclist_run(graph, DW)


def test_fwa_rejects_clique_metrics(graph):
    with pytest.raises(ValueError):
        fwa_run(graph, kclids(4))


def test_alenex_rejects_clique_metrics(graph):
    with pytest.raises(ValueError):
        alenex_run(graph, TDS)


# ---- GBBS ---------------------------------------------------------------

def test_gbbs_equals_sequential_on_distinct_weights(graph):
    """Weighted buckets are singletons -> GBBS follows the greedy order."""
    b = gbbs_run(graph, DW)
    s = peel_local(graph, DW, sequential())
    assert b.best_density == pytest.approx(s.best_density)


def test_gbbs_rounds_fewer_on_unweighted(graph):
    dg_rounds = gbbs_run(graph, DG).n_rounds
    dw_rounds = gbbs_run(graph, DW).n_rounds
    # integer-degree buckets group many vertices; weighted buckets don't —
    # exactly the parallelism collapse the paper describes
    assert dg_rounds < dw_rounds / 3


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_gbbs_two_approximation(seed):
    g = _tiny(seed)
    for metric in (DG, DW):
        opt, _ = optimal_density(g, metric)
        assert gbbs_run(g, metric).best_density >= opt / 2 - 1e-9


# ---- PKMC ---------------------------------------------------------------

def test_pkmc_density_not_above_greedy(graph):
    pk = pkmc_run(graph, DW)
    ref = peel_local(graph, DW, sequential())
    assert pk.best_density <= ref.best_density + 1e-6


def test_pkmc_density_reasonable(graph):
    """Coarse snapshots lose some density but stay in range (Table 7)."""
    pk = pkmc_run(graph, DW)
    ref = peel_local(graph, DW, sequential())
    assert pk.best_density >= 0.5 * ref.best_density


def test_pkmc_result_set_matches_density(graph):
    pk = pkmc_run(graph, DG)
    assert density_of(graph, DG, pk.best_set) == pytest.approx(
        pk.best_density, abs=1e-9
    )


def test_pkmc_charges_edge_pass_per_round(graph):
    pk = pkmc_run(graph, DG)
    for r in pk.worklog.rounds:
        assert r.scanned >= graph.m


# ---- FWA ----------------------------------------------------------------

def test_fwa_high_density(graph):
    """Frank–Wolfe approaches the optimum: at least the greedy result."""
    fw = fwa_run(graph, DW, n_iters=120)
    ref = peel_local(graph, DW, sequential())
    assert fw.best_density >= 0.95 * ref.best_density


def test_fwa_iterations_logged(graph):
    fw = fwa_run(graph, DG, n_iters=30)
    assert fw.n_rounds == 30
    assert len(fw.worklog.rounds) == 31  # + extraction pass


def test_fwa_weighted_runs_more_iterations_by_default(graph):
    dg = fwa_run(graph, DG)
    dw = fwa_run(graph, DW)
    assert dw.n_rounds > dg.n_rounds


def test_fwa_best_set_density_consistent(graph):
    fw = fwa_run(graph, DW, n_iters=60)
    assert density_of(graph, DW, fw.best_set) == pytest.approx(
        fw.best_density, abs=1e-6
    )


# ---- ALENEX -------------------------------------------------------------

def test_alenex_density_close_to_greedy(graph):
    al = alenex_run(graph, DW)
    ref = peel_local(graph, DW, sequential())
    assert al.best_density >= ref.best_density / (2 * 1.01) - 1e-9
    assert al.best_density >= 0.8 * ref.best_density


def test_alenex_charges_sort_work(graph):
    al = alenex_run(graph, DG)
    base = peel_local(graph, DG, sequential())
    n_logn = graph.n * np.log2(graph.n)
    for r in al.worklog.rounds:
        assert r.scanned >= n_logn


@pytest.mark.parametrize("metric", [DG, DW, FD], ids=lambda m: m.name)
def test_alenex_is_its_schedule_plus_the_sort_charge(graph, metric):
    """ALENEX peels as the ``alenex`` schedule does and prices its
    ordering after the run: every peel record scans ``n·log2 n + m``
    more, and nothing else differs."""
    al = alenex_run(graph, metric)
    ref = peel_local(graph, metric, alenex())
    sort = int(graph.n * np.log2(max(graph.n, 2)) + graph.m)
    assert np.array_equal(al.peel_stamp, ref.peel_stamp)
    assert al.best_density == ref.best_density
    assert al.worklog.rounds == [
        dataclasses.replace(r, scanned=r.scanned + sort) if r.phase == "peel" else r
        for r in ref.worklog.rounds
    ]


# ---- kCLIST / PBBS ------------------------------------------------------

@pytest.fixture(scope="module")
def tri_graph():
    return chung_lu_with_communities(150, 700, community_size=12, seed=78)


def test_kclist_density_equals_sequential_clique_peel(tri_graph):
    kc = kclist_run(tri_graph, TDS)
    ref = peel_local(tri_graph, TDS, sequential())
    assert kc.best_density == pytest.approx(ref.best_density)


def test_kclist_relist_factor_applied(tri_graph):
    kc = kclist_run(tri_graph, TDS)
    ref = peel_local(tri_graph, TDS, sequential())
    assert sum(r.updates for r in kc.worklog.rounds) == 8 * sum(
        r.updates for r in ref.worklog.rounds
    )


def test_pbbs_density_close_to_kclist(tri_graph):
    pb = pbbs_run(tri_graph, TDS)
    kc = kclist_run(tri_graph, TDS)
    assert pb.best_density == pytest.approx(kc.best_density, rel=0.05)


def test_pbbs_parallel_rounds_not_sequential(tri_graph):
    pb = pbbs_run(tri_graph, TDS)
    assert all(not r.sequential for r in pb.worklog.rounds)
    kc = kclist_run(tri_graph, TDS)
    assert all(r.sequential for r in kc.worklog.rounds)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_clique_baselines_k_approximation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    m = int(rng.integers(5, 18))
    g = from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    opt, _ = optimal_density(g, TDS)
    assert kclist_run(g, TDS).best_density >= opt / 3 - 1e-9
    assert pbbs_run(g, TDS).best_density >= opt / 3 - 1e-9


# ---- degenerate graphs ----------------------------------------------------

def _spade(g, metric):
    return spade_run(g, metric).result


@pytest.mark.parametrize("run,metric", [
    (gbbs_run, DW), (pkmc_run, DW), (pkmc_run, TDS), (fwa_run, DG),
    (alenex_run, FD), (kclist_run, TDS), (pbbs_run, TDS), (_spade, DW),
], ids=["gbbs-DW", "pkmc-DW", "pkmc-TDS", "fwa-DG", "alenex-FD",
        "kclist-TDS", "pbbs-TDS", "spade-DW"])
@pytest.mark.parametrize("n", [0, 5], ids=["empty", "edgeless"])
def test_baselines_run_on_degenerate_graphs(run, metric, n):
    """Every baseline runs on the empty and the edgeless graph; the empty
    graph's best set is empty, at density 0."""
    g = from_edges(n, [], [], vertex_weight=np.arange(n, dtype=np.float64))
    res = run(g, metric)
    if n == 0:
        assert res.best_density == 0.0 and res.best_set.size == 0
