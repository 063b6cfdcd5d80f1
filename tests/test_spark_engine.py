"""Spark engine ≡ local engine, peel-for-peel, plus DuckDB oracle checks
on the engine's internal aggregations."""
import uuid

import numpy as np
import pytest

from repro.core import DG, DW, FD, TDS, from_edges, kclids, peel_local, peel_spark
from repro.core.schedules import (
    bucket, bucket_gpo, bucket_lpo, dupin, gpo, lpo, sequential,
)
from repro.core.spark_engine import cliques_df, edge_weights_df, ingest
from repro.graphgen import load_dataset
from repro.oracle import assert_equivalent


def _graph(seed, n=36, m=110):
    rng = np.random.default_rng(seed)
    return from_edges(
        n, rng.integers(0, n, m), rng.integers(0, n, m),
        rng.random(m) * 3 + 0.1, vertex_weight=rng.random(n) * 0.3,
    )


def _core_with_leaves(seed=0):
    """A 10-clique core (weights in [2, 4]) with 30 leaves hung on it
    (weights in [0.5, 1.4]): under bucket GPO, τ_max takes the leaves in
    early as a long tail."""
    rng = np.random.default_rng(seed)
    cs, cd = np.triu_indices(10, 1)
    hub = rng.integers(0, 10, 30)
    return from_edges(
        40, np.concatenate([cs, np.arange(10, 40)]), np.concatenate([cd, hub]),
        np.concatenate([rng.uniform(2, 4, cs.size), rng.uniform(0.5, 1.4, 30)]),
    )


def _heavy_tailed(seed=0, n=400, m=2000):
    """Edge weights ``exp(N(8, 3))``: amounts spanning ~10 decades."""
    rng = np.random.default_rng(seed)
    return from_edges(
        n, rng.integers(0, n, m), rng.integers(0, n, m),
        np.exp(rng.normal(8, 3, m)),
    )


def _log(r):
    """The engine-independent fields of each WorkLog record (Spark does
    not count weight updates)."""
    return [(x.scanned, x.peeled, x.phase, x.sequential, x.bucket, x.tail)
            for x in r.worklog.rounds]


def _assert_same(rl, rs):
    assert rs.best_density == pytest.approx(rl.best_density, abs=1e-7)
    assert np.array_equal(np.sort(rl.best_set), np.sort(rs.best_set))
    assert rl.n_rounds == rs.n_rounds
    assert len(rl.round_sets) == len(rs.round_sets)
    for a, b in zip(rl.round_sets, rs.round_sets):
        assert np.array_equal(np.sort(a), b)
    assert _log(rl) == _log(rs)


@pytest.mark.parametrize("metric", [DW, DG, FD], ids=lambda m: m.name)
def test_spark_matches_local_dupin(spark, metric):
    g = _graph(1)
    rl = peel_local(g, metric, dupin(0.1))
    rs = peel_spark(spark, g, metric, dupin(0.1))
    _assert_same(rl, rs)


@pytest.mark.parametrize("sched_name,sched", [
    ("gpo", gpo(0.1)), ("lpo", lpo(0.1)), ("bucket", bucket()),
    ("bucket_gpo", bucket_gpo(0.1)), ("bucket_lpo", bucket_lpo(0.1)),
])
def test_spark_matches_local_schedules(spark, sched_name, sched):
    if sched.mode == "bucket" and sched.gpo:
        g = _core_with_leaves()
        assert peel_local(g, DW, sched).long_tail_peeled > 0
    else:
        g = _graph(2, n=24, m=70)
    rl = peel_local(g, DW, sched)
    rs = peel_spark(spark, g, DW, sched)
    _assert_same(rl, rs)
    assert rs.long_tail_peeled == rl.long_tail_peeled
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)


def test_spark_matches_local_tds(spark):
    g = _graph(3, n=26, m=90)
    rl = peel_local(g, TDS, dupin(0.1))
    rs = peel_spark(spark, g, TDS, dupin(0.1))
    _assert_same(rl, rs)


def test_spark_matches_local_kclids4(spark):
    g = _graph(4, n=20, m=70)
    rl = peel_local(g, kclids(4), dupin(0.1))
    rs = peel_spark(spark, g, kclids(4), dupin(0.1))
    _assert_same(rl, rs)


def test_spark_matches_local_gfg(spark):
    """The detection benchmark's input: gfg x1, DW, DupinLPO."""
    g = load_dataset("gfg", 1.0)
    rl = peel_local(g, DW, lpo(0.1))
    rs = peel_spark(spark, g, DW, lpo(0.1))
    _assert_same(rl, rs)
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)


@pytest.mark.parametrize("sched", [lpo(0.1), gpo(0.1)], ids=lambda s: s.name)
def test_spark_matches_local_heavy_tailed(spark, sched):
    g = _heavy_tailed()
    rl = peel_local(g, DW, sched)
    rs = peel_spark(spark, g, DW, sched)
    _assert_same(rl, rs)
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)


def _edgeless(n):
    return from_edges(n, [], [], vertex_weight=np.arange(n, dtype=np.float64))


_CYCLE12 = from_edges(12, np.arange(12), (np.arange(12) + 1) % 12)
_K5 = from_edges(5, *np.triu_indices(5, 1))
_EXAMPLE21 = from_edges(6, [0, 1, 2, 2, 2, 3, 3], [1, 2, 3, 4, 5, 4, 5],
                        [1.0, 2.0, 1.0, 2.5, 2.5, 2.5, 2.5])


@pytest.mark.parametrize("metric", [DW, FD, TDS], ids=lambda m: m.name)
@pytest.mark.parametrize("g,sched", [
    (_edgeless(0), lpo(0.1)),
    (_edgeless(5), lpo(0.1)),
    # all-equal weights: every w of the 12-cycle sits exactly at τ = 2;
    # on the unit-weight cycle and K5, DW is DG
    (_CYCLE12, dupin(0.0)),
    (_K5, lpo(0.0)),
    (_EXAMPLE21, bucket_lpo(0.0)),
    # under DW vertex 1 falls by 1e-12 < TOL in step 1: it must peel once
    (from_edges(4, [0, 1, 2], [1, 2, 3], [1e-12, 5.0, 5.0]), bucket()),
], ids=["empty", "edgeless", "cycle12-dupin", "k5-lpo", "ex21-bucket_lpo",
        "tiny_edge-bucket"])
def test_spark_matches_local_degenerate(spark, g, sched, metric):
    rl = peel_local(g, metric, sched)
    rs = peel_spark(spark, g, metric, sched)
    _assert_same(rl, rs)
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)
    assert (rs.long_tail_peeled, rs.sparse_trimmed) == (
        rl.long_tail_peeled, rl.sparse_trimmed)
    if g.n == 0:
        assert rs.best_set.size == 0 and rs.best_density == 0.0


# ---- Spark job budget ---------------------------------------------------

SETUP_JOBS = 5  # message table, initial weights, final collect (measured)
STEP_JOBS = 3  # stamp + delta + checkpoint of one step (measured, edge metrics)


def _count_jobs(spark, fn):
    """``(fn(), number of Spark jobs it ran)``, counted in a job group."""
    sc = spark.sparkContext
    group = f"job-budget-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "job budget")
    try:
        res = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events are async
    return res, len(sc.statusTracker().getJobIdsForGroup(group))


def test_spark_job_budget(spark):
    g = _graph(1)
    res, jobs = _count_jobs(spark, lambda: peel_spark(spark, g, DW, lpo(0.1)))
    steps = res.n_rounds + res.n_trim_rounds
    assert res.n_trim_rounds > 0
    assert jobs <= SETUP_JOBS + STEP_JOBS * steps


def test_spark_refused_trim_runs_no_job(spark):
    """K6 plus a disjoint triangle: the triangle peels, then LPO's trim of
    the K6 is refused (it would trim nothing) and must cost no job."""
    iu, ju = np.triu_indices(6, 1)
    g = from_edges(9, [*iu, 6, 6, 7], [*ju, 7, 8, 8])
    rl, lpo_jobs = _count_jobs(spark, lambda: peel_spark(spark, g, DG, lpo(0.1)))
    rg, gpo_jobs = _count_jobs(spark, lambda: peel_spark(spark, g, DG, gpo(0.1)))
    assert rl.n_rounds == rg.n_rounds == 2 and rl.n_trim_rounds == 0
    assert np.array_equal(rl.peel_stamp, rg.peel_stamp)
    assert lpo_jobs == gpo_jobs


def test_spark_rejects_sequential(spark):
    g = _graph(5, n=8, m=12)
    with pytest.raises(ValueError, match="sequential"):
        peel_spark(spark, g, DG, sequential())


def test_spark_densities_match_local(spark):
    g = _graph(6, n=20, m=60)
    rl = peel_local(g, DW, dupin(0.1))
    rs = peel_spark(spark, g, DW, dupin(0.1))
    assert len(rl.densities) == len(rs.densities)
    for a, b in zip(rl.densities, rs.densities):
        assert b == pytest.approx(a, abs=1e-7)


# ---- oracle checks on the engine's internal aggregations ----------------

@pytest.mark.parametrize("metric,g", [
    (DW, _graph(7, n=18, m=50)),
    # nonzero a, and isolated vertices whose w is a alone
    (FD, _graph(7, n=30, m=20)),
], ids=["DW", "FD-isolated"])
def test_edge_weights_df_oracle(spark, metric, g):
    """The per-vertex weight aggregation equals the equivalent SQL."""
    ew = metric.build(g)
    if metric is FD:
        assert (g.degrees() == 0).any() and (ew.a > 0).all()
    verts, edges = ingest(spark, ew.a, g.src, g.dst, ew.c)
    sdf = edge_weights_df(verts, edges).select("vid", "w")
    assert_equivalent(
        sdf,
        """
        SELECT v.vid AS vid,
               v.a + COALESCE(s.wsum, 0.0) AS w
        FROM verts v
        LEFT JOIN (
            SELECT src AS vid, SUM(c) AS wsum FROM (
                SELECT src, c FROM edges
                UNION ALL
                SELECT dst AS src, c FROM edges
            ) GROUP BY src
        ) s ON v.vid = s.vid
        """,
        verts=verts,
        edges=edges,
    )


def test_triangle_count_oracle(spark):
    """DataFrame triangle listing equals the DuckDB three-way join."""
    g = _graph(8, n=16, m=45)
    _, edges = g.to_spark(spark)
    tri = cliques_df(edges, 3).groupBy().count().withColumnRenamed("count", "n_tri")
    assert_equivalent(
        tri,
        """
        SELECT COUNT(*) AS n_tri
        FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
        JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst
        """,
        edges=edges,
    )


def test_spark_f_matches_local_f(spark):
    """f(V) computed by the Spark stats aggregation equals the local f."""
    g = _graph(9, n=20, m=55)
    rl = peel_local(g, FD, dupin(0.1))
    rs = peel_spark(spark, g, FD, dupin(0.1))
    assert rs.densities[0] == pytest.approx(rl.densities[0], abs=1e-9)
