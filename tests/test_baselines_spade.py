"""Tests for the Spade incremental-peeling stand-in."""
import numpy as np
import pytest

from repro.baselines.spade import spade_run, stale_weight_error
from repro.core import DW, TDS, from_edges, peel_local, sequential
from repro.graphgen import chung_lu_with_communities


@pytest.fixture(scope="module")
def graph():
    return chung_lu_with_communities(400, 2400, seed=42)


def test_spade_density_equals_sequential(graph):
    s = spade_run(graph, DW, batch_size=50, n_batches=5)
    ref = peel_local(graph, DW, sequential())
    assert s.result.best_density == pytest.approx(ref.best_density)


def test_batch_work_positive_and_bounded(graph):
    s = spade_run(graph, DW, batch_size=50, n_batches=8)
    total = 1.0 * graph.n + 2 * graph.m + graph.n  # loose upper bound
    assert len(s.batch_work) == 8
    for w in s.batch_work:
        assert 0 < w <= total


def test_batches_touching_dense_core_cost_more(graph):
    """The suffix model: edges touching late-peeled (dense) vertices force
    longer re-peels — the paper's fraud-heavy-batch pathology."""
    res = peel_local(graph, DW, sequential())
    rank = res.peel_stamp
    deg = graph.degrees()
    order = np.argsort(rank)
    costs = 1.0 + deg[order].astype(float)
    suffix = np.concatenate([np.cumsum(costs[::-1])[::-1], [0.0]])
    # a batch touching the earliest-peeled vertex costs the full re-peel
    early = int(order[0])
    late = int(order[-1])
    assert suffix[rank[early] - 1] > suffix[rank[late] - 1]


def test_spade_clique_init_is_span_bound():
    g = chung_lu_with_communities(120, 500, seed=43)
    s = spade_run(g, TDS, batch_size=20, n_batches=2)
    assert s.result.worklog.init_sequential > 0
    assert s.result.worklog.init_work == 0.0


def test_stale_weight_error_nonnegative_and_grows():
    base = chung_lu_with_communities(300, 1200, seed=44)
    rng = np.random.default_rng(45)

    def err(n_new):
        return stale_weight_error(
            base,
            rng.integers(0, 300, n_new),
            rng.integers(0, 300, n_new),
            np.exp(rng.normal(3, 1, n_new)),
        )

    small, large = err(100), err(4000)
    assert small >= 0.0
    assert large >= 0.0
    # more unaccounted insertions => more drift (the Figure 12 effect)
    assert large >= small


def test_avg_batch_work_property(graph):
    s = spade_run(graph, DW, batch_size=50, n_batches=5)
    assert s.avg_batch_work == pytest.approx(float(np.mean(s.batch_work)))
