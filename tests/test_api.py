"""Tests for the Dupin user-facing API (paper §3, Listings 1–4)."""
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import Dupin, from_edges, peel_local
from repro.core.schedules import gpo, lpo
from repro.graphgen import chung_lu_with_communities


@pytest.fixture(scope="module")
def graph():
    return chung_lu_with_communities(120, 600, community_size=15, seed=99)


def test_listing1_fd_style_custom_metric_local(graph):
    """Listing 1: plug in vsusp/esusp, set epsilon, detect."""
    d = (
        Dupin(backend="local")
        .VSusp(lambda u, g: g.vertex_weight[u])
        .ESusp(lambda u, v, w, g: 1.0 / np.log(g.degrees()[v] + 5.0))
        .setEpsilon(0.1)
        .LoadGraph(graph)
    )
    res = d.ParDetect()
    assert res.best_density > 0
    assert res.best_set.size > 0


def test_listing2_dg_unweighted(graph):
    d = (
        Dupin(backend="local")
        .VSusp(lambda u, g: 0.0)
        .ESusp(lambda u, v, w, g: 1.0)
        .setEpsilon(0.1)
        .LoadGraph(graph)
    )
    res = d.ParDetect()
    from repro.core import DG

    ref = peel_local(graph, DG, lpo(0.1))
    assert res.best_density == pytest.approx(ref.best_density)


def test_named_metric_matches_direct_engine(graph):
    d = Dupin(backend="local").setMetric("DW").setEpsilon(0.2).LoadGraph(graph)
    res = d.ParDetect()
    from repro.core import DW

    ref = peel_local(graph, DW, lpo(0.2))
    assert res.best_density == pytest.approx(ref.best_density)
    assert np.array_equal(res.best_set, ref.best_set)


def test_optimization_levels(graph):
    from repro.core import DW

    d = Dupin(backend="local").setMetric("DW").LoadGraph(graph)
    d.setOptimization("gpo")
    assert d.ParDetect().best_density == pytest.approx(
        peel_local(graph, DW, gpo(0.1)).best_density
    )
    with pytest.raises(ValueError):
        d.setOptimization("???")


def test_setk_for_clique_metric():
    g = from_edges(5, [0, 0, 0, 1, 1, 2, 0], [1, 2, 3, 2, 3, 3, 4])
    d = Dupin(backend="local").setK(4).setMetric("kCLiDS").LoadGraph(g)
    res = d.ParDetect()
    assert set(res.best_set.tolist()) == {0, 1, 2, 3}


def test_spark_backend_matches_local(spark, graph):
    loc = Dupin(backend="local").setMetric("DG").LoadGraph(graph).ParDetect()
    spk = Dupin(spark=spark).setMetric("DG").LoadGraph(graph).ParDetect()
    assert spk.best_density == pytest.approx(loc.best_density, abs=1e-7)
    assert np.array_equal(np.sort(spk.best_set), np.sort(loc.best_set))


def test_is_benign(graph):
    d = Dupin(backend="local").setMetric("DW").LoadGraph(graph)
    res = d.ParDetect()
    flagged = set(res.best_set.tolist())
    some_flagged = next(iter(flagged))
    some_benign = next(v for v in range(graph.n) if v not in flagged)
    assert not d.isBenign(res, some_flagged)
    assert d.isBenign(res, some_benign)


def test_api_validation_errors(graph):
    with pytest.raises(ValueError):
        Dupin(backend="nope")
    with pytest.raises(ValueError):
        Dupin(backend="spark")  # needs a session
    d = Dupin(backend="local")
    with pytest.raises(RuntimeError):
        d.ParDetect()  # no graph
    d.LoadGraph(graph)
    with pytest.raises(RuntimeError):
        d.ParDetect()  # no metric
    with pytest.raises(ValueError):
        d.setEpsilon(-1)


def test_detected_community_overlaps_planted_fraud():
    g = chung_lu_with_communities(
        600, 2400, n_communities=1, community_size=25, seed=101
    )
    d = Dupin(backend="local").setMetric("DW").LoadGraph(g)
    found = set(d.ParDetect().best_set.tolist())
    plant = set(np.flatnonzero(g.labels["fraud_community"] == 0).tolist())
    assert len(found & plant) / len(plant) >= 0.7


def test_local_path_imports_no_pyspark():
    """``repro.cliques`` imports first without a cycle, and the local
    engine, the baselines and the table harness run without ``pyspark``;
    only the Spark backend imports it."""
    code = """
import sys
import repro.cliques, repro.core, repro.baselines, repro.experiments.tables
from repro.core import DW, from_edges, lpo, peel_local
res = peel_local(from_edges(4, [0, 1, 2], [1, 2, 0]), DW, lpo(0.1))
assert res.best_set.size == 3, res.best_set
assert "pyspark" not in sys.modules, sorted(m for m in sys.modules if "repro" in m)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
