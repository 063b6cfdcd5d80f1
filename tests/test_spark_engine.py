"""Spark engine ≡ local engine, peel-for-peel, plus DuckDB oracle checks
on the engine's internal aggregations."""
import dataclasses
import uuid

import numpy as np
import pandas as pd
import pytest

from repro.core import DG, DW, FD, TDS, from_edges, kclids, peel_local, peel_spark
from repro.core import spark_engine
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


def _assert_same_records(ra, rb):
    """Every WorkLog record field equal, ``g`` (and ``g0``) to a relative
    1e-9: the engines sum floats in different orders. A ``g`` that should
    be 0 is rounding noise of f's running sum, so the bound is relative to
    the run's largest ``g`` too."""
    gs = [ra.worklog.g0] + [x.g for x in ra.worklog.rounds]
    close = {"rel": 1e-9, "abs": 1e-9 * max(map(abs, gs))}
    assert rb.worklog.g0 == pytest.approx(ra.worklog.g0, **close)
    assert len(ra.worklog.rounds) == len(rb.worklog.rounds)
    for x, y in zip(ra.worklog.rounds, rb.worklog.rounds):
        assert dataclasses.replace(y, g=x.g) == x
        assert y.g == pytest.approx(x.g, **close)


def _assert_same(rl, rs):
    assert rs.best_density == pytest.approx(rl.best_density, abs=1e-7)
    assert np.array_equal(np.sort(rl.best_set), np.sort(rs.best_set))
    assert rl.n_rounds == rs.n_rounds
    assert len(rl.round_sets) == len(rs.round_sets)
    for a, b in zip(rl.round_sets, rs.round_sets):
        assert np.array_equal(np.sort(a), b)
    _assert_same_records(rl, rs)


def _never(rows, rows0):
    return False


def _always(rows, rows0):
    return True


@pytest.mark.parametrize("metric", [DW, DG, FD], ids=lambda m: m.name)
def test_spark_matches_local_dupin(spark, metric):
    g = _graph(1)
    rl = peel_local(g, metric, dupin(0.1))
    rs = peel_spark(spark, g, metric, dupin(0.1))
    _assert_same(rl, rs)


_SCHEDULES = [
    ("gpo", gpo(0.1)), ("lpo", lpo(0.1)), ("bucket", bucket()),
    ("bucket_gpo", bucket_gpo(0.1)), ("bucket_lpo", bucket_lpo(0.1)),
]


@pytest.mark.parametrize("sched_name,sched", _SCHEDULES)
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


# With the default handoff rule the small graphs above finish on the
# driver after a step or two; these rerun them with every step on Spark,
# so _delta's later-step edge and clique paths keep their coverage.

@pytest.mark.parametrize("sched_name,sched", _SCHEDULES)
def test_spark_matches_local_schedules_all_on_spark(spark, monkeypatch,
                                                    sched_name, sched):
    monkeypatch.setattr(spark_engine, "_hand_off", _never)
    test_spark_matches_local_schedules(spark, sched_name, sched)


@pytest.mark.parametrize("metric", [TDS, kclids(4)], ids=lambda m: m.name)
def test_spark_charges_the_clique_listing(spark, metric):
    """A Spark clique run lists its cliques on the driver, as
    ``peel_local`` does, and charges the listing as the same set-up work."""
    g = _graph(4, n=20, m=70)  # has 4-cliques
    want = peel_local(g, metric, dupin(0.1)).worklog.init_work
    assert want > 0
    assert peel_spark(spark, g, metric, dupin(0.1)).worklog.init_work == want


def test_spark_matches_local_cliques_all_on_spark(spark, monkeypatch):
    monkeypatch.setattr(spark_engine, "_hand_off", _never)
    test_spark_matches_local_tds(spark)
    test_spark_matches_local_kclids4(spark)


def test_spark_matches_local_gfg(spark):
    """The detection benchmark's input: gfg x1, DW, DupinLPO."""
    g = load_dataset("gfg", 1.0)
    rl = peel_local(g, DW, lpo(0.1))
    rs = peel_spark(spark, g, DW, lpo(0.1))
    _assert_same(rl, rs)
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)
    assert (rl.worklog.handoff, rs.worklog.handoff) == (0, 1)


def test_spark_matches_local_soc_tds(spark):
    """The soc-tds benchmark's input: soc x0.25, TDS, DupinGPO. The
    messages are triangle roles: 60% are alive after step 1 and 23% after
    step 2, so the driver finishes from step 3."""
    g = load_dataset("soc", 0.25)
    rl = peel_local(g, TDS, gpo(0.1))
    rs = peel_spark(spark, g, TDS, gpo(0.1))
    _assert_same(rl, rs)
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)
    assert rs.worklog.handoff == 2


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


_DEGENERATE = [
    pytest.param(_edgeless(0), lpo(0.1), id="empty"),
    pytest.param(_edgeless(5), lpo(0.1), id="edgeless"),
    # all-equal weights: every w of the 12-cycle sits exactly at τ = 2;
    # on the unit-weight cycle and K5, DW is DG
    pytest.param(_CYCLE12, dupin(0.0), id="cycle12-dupin"),
    pytest.param(_K5, lpo(0.0), id="k5-lpo"),
    pytest.param(_EXAMPLE21, bucket_lpo(0.0), id="ex21-bucket_lpo"),
    # under DW vertex 1 falls by 1e-12 in step 1, leaving the bucket heap
    # a stale entry for it: it must peel once
    pytest.param(from_edges(4, [0, 1, 2], [1, 2, 3], [1e-12, 5.0, 5.0]),
                 bucket(), id="tiny_edge-bucket"),
]


@pytest.mark.parametrize("metric", [DW, FD, TDS], ids=lambda m: m.name)
@pytest.mark.parametrize("g,sched", _DEGENERATE)
def test_spark_matches_local_degenerate(spark, g, sched, metric):
    rl = peel_local(g, metric, sched)
    rs = peel_spark(spark, g, metric, sched)
    _assert_same(rl, rs)
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)
    assert (rs.long_tail_peeled, rs.sparse_trimmed) == (
        rl.long_tail_peeled, rl.sparse_trimmed)
    if g.n == 0:
        assert rs.best_set.size == 0 and rs.best_density == 0.0


# ---- the handoff to the local engine -------------------------------------

@pytest.mark.parametrize("metric", [DW, TDS], ids=lambda m: m.name)
@pytest.mark.parametrize("g,sched", [
    # threshold steps with LPO trims; bucket steps with a GPO long tail
    pytest.param(_graph(1), lpo(0.1), id="g1-lpo"),
    pytest.param(_core_with_leaves(), bucket_gpo(0.1), id="leaves-bucket_gpo"),
    *_DEGENERATE,
])
def test_handoff_rule_does_not_change_the_run(spark, monkeypatch, g, sched,
                                              metric):
    """Handing off never, or right at set-up, gives the default run's
    stamps, best set and WorkLog records."""
    want = peel_spark(spark, g, metric, sched)
    steps = len(want.worklog.rounds)
    for rule, handoff in ((_never, steps), (_always, 0)):
        monkeypatch.setattr(spark_engine, "_hand_off", rule)
        got = peel_spark(spark, g, metric, sched)
        assert np.array_equal(got.peel_stamp, want.peel_stamp)
        assert np.array_equal(got.best_set, want.best_set)
        assert got.best_density == pytest.approx(want.best_density, rel=1e-9)
        _assert_same_records(want, got)
        assert got.worklog.handoff == handoff


def _persisted(spark):
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


@pytest.mark.parametrize("case", ["handoff", "all-on-spark", "raises"])
def test_peel_spark_leaves_nothing_cached(spark, monkeypatch, case):
    """The shipped edge frame or clique list, which the message table
    reads, and every checkpointed state table are freed, whether the run
    hands off, stays on Spark, or fails mid-run."""
    g = _graph(1)
    if case != "handoff":
        monkeypatch.setattr(spark_engine, "_hand_off", _never)
    if case == "raises":
        def failing_peel(state, schedule, k, log):
            state.remove(1, le=state.g)
            raise RuntimeError("failed mid-run")

        monkeypatch.setattr(spark_engine, "peel", failing_peel)
    for metric in (DW, TDS):
        before = _persisted(spark)
        if case == "raises":
            with pytest.raises(RuntimeError, match="mid-run"):
                peel_spark(spark, g, metric, lpo(0.1))
        else:
            res = peel_spark(spark, g, metric, lpo(0.1))
            steps = len(res.worklog.rounds)
            assert (res.worklog.handoff == steps) == (case == "all-on-spark")
        assert _persisted(spark) <= before, metric.name


# ---- Spark job budget ---------------------------------------------------

# measured: set-up runs no job, and a run collects once, at the handoff
# or at the end; a step under AQE runs three, for either metric kind:
# the broadcast (of the batch, or of the stamps), the absorb's map side
# and the checkpoint
SETUP_JOBS = 1
STEP_JOBS = 3


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


@pytest.mark.parametrize("metric,g", [
    (DW, _graph(1)), (TDS, _graph(1)),
    # 8 4-cliques: an lpo(0.1) run trims, and hands off after step 3
    (kclids(4), _graph(6, n=30, m=120)),
], ids=["DW", "TDS", "kCLiDS-4"])
def test_spark_job_budget(spark, monkeypatch, metric, g):
    """Measured counts: a run costs exactly its Spark steps' jobs and one
    collect, whether it hands off (after step ``handoff``) or ends on
    Spark, for edge and clique metrics alike."""
    res, jobs = _count_jobs(spark, lambda: peel_spark(spark, g, metric, lpo(0.1)))
    steps = res.n_rounds + res.n_trim_rounds
    assert res.n_trim_rounds > 0 and 0 < res.worklog.handoff < steps
    assert jobs == SETUP_JOBS + STEP_JOBS * res.worklog.handoff
    monkeypatch.setattr(spark_engine, "_hand_off", _never)
    res, jobs = _count_jobs(spark, lambda: peel_spark(spark, g, metric, lpo(0.1)))
    assert jobs == SETUP_JOBS + STEP_JOBS * (res.n_rounds + res.n_trim_rounds)


@pytest.mark.parametrize("metric", [DW, TDS], ids=lambda m: m.name)
def test_handoff_jobs(spark, monkeypatch, metric):
    """A run handed off at set-up costs its set-up plus the handoff, one
    collect of ``(vid, w, stamp)``, for either metric kind: the driver
    holds the set-up state, so the tail peels the driver's graph or
    clique list."""
    g = _graph(3, n=26, m=90)
    monkeypatch.setattr(spark_engine, "_hand_off", _never)
    state, setup = _count_jobs(
        spark, lambda: spark_engine._SparkState(spark, g, metric, dupin(0.1))
    )
    state.close()
    monkeypatch.setattr(spark_engine, "_hand_off", _always)
    res, jobs = _count_jobs(spark, lambda: peel_spark(spark, g, metric, dupin(0.1)))
    assert res.worklog.handoff == 0
    assert jobs - setup == 1


@pytest.mark.parametrize("metric", [DG, DW, FD, TDS, kclids(4)],
                         ids=lambda m: m.name)
def test_set_up_runs_no_job(spark, metric):
    """Set-up ships the driver's state and the edge frame or clique list:
    no Spark job, for either metric kind."""
    g = _graph(4, n=20, m=70)  # has 4-cliques: no metric hands off at set-up
    state, jobs = _count_jobs(
        spark, lambda: spark_engine._SparkState(spark, g, metric, lpo(0.1))
    )
    state.close()
    assert state.handoff is None
    assert jobs == 0


@pytest.mark.parametrize("metric,g,joins", [
    (DW, _graph(1), 1), (TDS, _graph(1), 3), (kclids(4), _graph(4, n=20, m=70), 4),
], ids=["DW", "TDS", "kCLiDS-4"])
def test_step_joins_by_broadcast(spark, monkeypatch, metric, g, joins):
    """Every Spark step probes the message table with a broadcast: the
    batch's vids for an edge metric, the stamps once per clique member
    for a clique metric. No sort-merge join, so the absorb's ``groupBy``
    is the step's one shuffle."""
    plans, checkpoint = [], spark_engine._checkpoint

    def spy(table, step, tail):
        plans.append(table._jdf.queryExecution().executedPlan().toString())
        return checkpoint(table, step, tail)

    monkeypatch.setattr(spark_engine, "_checkpoint", spy)
    monkeypatch.setattr(spark_engine, "_hand_off", _never)
    res = peel_spark(spark, g, metric, lpo(0.1))
    assert len(plans) == res.n_rounds + res.n_trim_rounds
    for plan in plans:
        assert plan.count("BroadcastHashJoin") == joins
        assert "SortMergeJoin" not in plan
        assert plan.count("Exchange hashpartitioning") == 1


def _session_conf(spark, conf):
    """Yield ``spark`` with the SQL settings ``conf``; restored afterwards."""
    was = {key: spark.conf.get(key) for key in conf}
    for key, value in conf.items():
        spark.conf.set(key, value)
    try:
        yield spark
    finally:
        for key, value in was.items():
            spark.conf.set(key, value)


@pytest.fixture
def arrow_off(spark):
    """The session with Arrow conversion off, as ``spark-submit`` runs the
    job by default; restored afterwards."""
    yield from _session_conf(
        spark, {"spark.sql.execution.arrow.pyspark.enabled": "false"}
    )


@pytest.fixture
def one_partition_no_aqe(spark):
    """The session with adaptive execution off and one shuffle partition;
    restored afterwards."""
    yield from _session_conf(spark, {
        "spark.sql.adaptive.enabled": "false",
        "spark.sql.shuffle.partitions": "1",
    })


@pytest.mark.parametrize("metric,sched,g", [
    (DW, lpo(0.1), _graph(1)),
    (FD, gpo(0.1), _graph(1)),
    (TDS, gpo(0.1), _graph(1)),
    (kclids(4), lpo(0.1), _graph(4, n=20, m=70)),  # has 4-cliques
], ids=["DW-lpo", "FD-gpo", "TDS-gpo", "kCLiDS-4-lpo"])
@pytest.mark.parametrize("all_on_spark", [False, True],
                         ids=["handoff", "all-on-spark"])
def test_spark_matches_local_other_session(one_partition_no_aqe, monkeypatch,
                                           metric, sched, g, all_on_spark):
    """Spark ≡ local does not rest on the session's shuffle settings."""
    spark = one_partition_no_aqe
    if all_on_spark:
        monkeypatch.setattr(spark_engine, "_hand_off", _never)
    rl = peel_local(g, metric, sched)
    rs = peel_spark(spark, g, metric, sched)
    assert np.array_equal(rs.peel_stamp, rl.peel_stamp)
    _assert_same_records(rl, rs)


def _rdd_lineage(df) -> str:
    return df._jdf.queryExecution().toRdd().toDebugString()


def test_detection_starts_no_python_worker(arrow_off):
    """The ingest frames and the job's output are read without a
    ``PythonRDD``, and the engine's plans hold no driver-side
    ``LocalRelation``, even with Arrow conversion off."""
    from jobs import dupin_detect

    spark = arrow_off
    g = _graph(8)
    for df in ingest(spark, g.vertex_weight, g.src, g.dst, g.edge_weight):
        assert "PythonRDD" not in _rdd_lineage(df)
    out = dupin_detect.run(spark, "gfg", 0.1)
    assert "PythonRDD" not in _rdd_lineage(out)
    for metric in (DW, TDS):
        state = spark_engine._SparkState(spark, g, metric, lpo(0.1))
        try:
            # a cached table's plan is physical: a LocalRelation shows
            # there as a LocalTableScan
            plans = [
                df._jdf.queryExecution().optimizedPlan().toString()
                for df in (state.msgs, state.state)
            ]
        finally:
            state.close()
        for plan in plans:
            assert "LocalRelation" not in plan and "LocalTableScan" not in plan


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


def _clique_roles_sql(k: int) -> str:
    """SQL for one row ``vid`` per member of each k-clique of ``edges``
    (``src < dst``): a join of k(k-1)/2 edges, the one from ``v{i}`` to
    ``v{j}`` for every pair ``i < j``."""
    pairs = [(i, j) for j in range(1, k) for i in range(j)]
    v = ["e0_1.src"] + [f"e0_{j}.dst" for j in range(1, k)]
    on = " AND ".join(f"e{i}_{j}.src = {v[i]} AND e{i}_{j}.dst = {v[j]}"
                      for i, j in pairs)
    cliques = (
        f"SELECT {', '.join(f'{x} AS v{j}' for j, x in enumerate(v))} "
        f"FROM {', '.join(f'edges e{i}_{j}' for i, j in pairs)} WHERE {on}"
    )
    return " UNION ALL ".join(
        f"SELECT v{j} AS vid FROM ({cliques})" for j in range(k)
    )


@pytest.mark.parametrize("metric,g", [
    (DG, _graph(7, n=18, m=50)),
    (DW, _graph(7, n=18, m=50)),
    # nonzero a, and isolated vertices whose w is a alone and deg 0
    (FD, _graph(7, n=30, m=20)),
    (TDS, _graph(7, n=18, m=50)),
    (kclids(4), _graph(4, n=20, m=70)),
], ids=["DG", "DW", "FD-isolated", "TDS", "kCLiDS-4"])
def test_edge_state_table_oracle(spark, metric, g):
    """The state table a run starts from holds, for an edge metric,
    ``w = a + Σ incident c`` and ``deg`` = the degree, as the equivalent
    SQL over the metric's own arrays computes them; for a clique metric,
    ``a`` = the vertex weight and ``w = deg`` = the vertex's clique
    count, as SQL joins over the edges count it."""
    if metric.kind == "clique":
        sql = f"""
            SELECT v.vid AS vid, v.a AS a,
                   CAST(COALESCE(r.cnt, 0) AS DOUBLE) AS w,
                   0 AS stamp,
                   COALESCE(r.cnt, 0) AS deg
            FROM verts v
            LEFT JOIN (
                SELECT vid, COUNT(*) AS cnt
                FROM ({_clique_roles_sql(metric.k)}) GROUP BY vid
            ) r ON v.vid = r.vid
            """
        a, c = g.vertex_weight, g.edge_weight
    else:
        sql = """
            SELECT v.vid AS vid, v.a AS a,
                   v.a + COALESCE(s.wsum, 0.0) AS w,
                   0 AS stamp,
                   COALESCE(s.deg, 0) AS deg
            FROM verts v
            LEFT JOIN (
                SELECT vid, SUM(c) AS wsum, COUNT(*) AS deg FROM (
                    SELECT src AS vid, c FROM edges
                    UNION ALL
                    SELECT dst AS vid, c FROM edges
                ) GROUP BY vid
            ) s ON v.vid = s.vid
            """
        ew = metric.build(g)
        a, c = ew.a, ew.c
        if metric is FD:
            assert (g.degrees() == 0).any() and (a > 0).all()
    state = spark_engine._SparkState(spark, g, metric, lpo(0.1))
    try:
        assert_equivalent(
            state.state,
            sql,
            verts=pd.DataFrame({"vid": np.arange(g.n), "a": a}),
            edges=pd.DataFrame({"src": g.src, "dst": g.dst, "c": c}),
        )
    finally:
        state.close()


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
