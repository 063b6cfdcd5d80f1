"""Spark DataFrame peeling engine.

The paper's parallel peeling (Algorithms 2–4) expressed as iterative
vertex-peeling jobs over partitioned DataFrames — the PySpark-native
rendition of "GraphX vertex-peeling jobs over partitioned edge RDDs"
(GraphX has no Python API; Catalyst DataFrame ops are the supported
dataflow layer). The step structure is the one-pass-per-round MapReduce
peeling of Bahmani, Kumar & Vassilvitskii (VLDB 2012): weights are kept
as state and only the peeled batch's contribution is subtracted.

- **Message table**, built once and cached, hash-partitioned by the
  vertex whose removal sends the message: half-edges ``(src, dst, c)``
  for edge metrics, or clique roles ``(vid, v0..v{k-1})`` from a single
  :func:`cliques_df` listing for clique metrics.
- **Vertex-state table** ``(vid, a, w, stamp)``: ``w`` is the current
  peeling weight, ``stamp`` the step that removed the vertex (0 while
  alive). It is the only per-step state.

A step stamps the alive vertices that meet the schedule's condition with
a ``when`` expression, subtracts from each surviving vertex what the
just-stamped batch contributed (its half-edges, or the cliques that die
with it), and materialises the new table with one ``localCheckpoint``.
The step's scalars (|S|, Σa, Σw, min and max alive ``w``, the batch size
and its long-tail count) ride on that same job through
``DataFrame.observe``, so the driver takes every schedule decision
without another action; a refused LPO trim runs no job. The stamps are
collected once, at the end.

The engine accepts the same :class:`~repro.core.schedules.Schedule`
objects as the local engine for the parallel modes (``threshold`` and
``bucket``); sequential schedules are inherently single-vertex-per-step
and stay on the local engine (see DESIGN.md §4).

Results are bit-compatible with ``local_engine`` (same TOL conventions);
``tests/test_spark_engine.py`` asserts identical peel sets per round.
"""
from __future__ import annotations

from functools import reduce

import numpy as np
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.graph import LocalGraph
from repro.core.local_engine import TOL, PeelResult
from repro.core.metrics import Metric
from repro.core.schedules import Schedule
from repro.core.worklog import WorkLog

MAX_ROUNDS = 100_000  # safety valve: R < log_{1+eps}|V| in theory


def _symmetric(edges: DataFrame) -> DataFrame:
    """Both orientations of the undirected edge table."""
    return edges.select("src", "dst", "c").unionAll(
        edges.select(
            F.col("dst").alias("src"), F.col("src").alias("dst"), "c"
        )
    )


def edge_weights_df(verts: DataFrame, edges: DataFrame) -> DataFrame:
    """Per-vertex peeling weight ``w = a + Σ incident c`` (edge metrics).

    Public so tests can oracle-check the aggregation against DuckDB SQL.
    """
    inc = _symmetric(edges).groupBy("src").agg(F.sum("c").alias("wsum"))
    return (
        verts.join(inc, verts["vid"] == inc["src"], "left")
        .select(
            verts["vid"],
            verts["a"],
            (F.coalesce(F.col("wsum"), F.lit(0.0)) + F.col("a")).alias("w"),
            F.coalesce(F.col("wsum"), F.lit(0.0)).alias("wsum"),
        )
    )


def cliques_df(edges: DataFrame, k: int) -> DataFrame:
    """All k-cliques (columns ``v0 < v1 < ... < v{k-1}``) via self-joins.

    Edges hold ``src < dst``; a clique grows one vertex at a time along
    that order, checking back-edges with one join per earlier member —
    the DataFrame transliteration of ordered clique listing (kCLIST).
    """
    cl = edges.select(F.col("src").alias("v0"), F.col("dst").alias("v1"))
    for j in range(2, k):
        ext = edges.select(
            F.col("src").alias(f"_e{j}"), F.col("dst").alias(f"v{j}")
        )
        cl = cl.join(ext, cl[f"v{j-1}"] == ext[f"_e{j}"]).drop(f"_e{j}")
        for i in range(j - 1):
            back = edges.select(
                F.col("src").alias(f"_b{i}"), F.col("dst").alias(f"_t{i}")
            )
            cl = cl.join(
                back,
                (cl[f"v{i}"] == back[f"_b{i}"])
                & (cl[f"v{j}"] == back[f"_t{i}"]),
            ).drop(f"_b{i}", f"_t{i}")
    return cl


def clique_weights_df(verts: DataFrame, edges: DataFrame, k: int) -> DataFrame:
    """Per-vertex live-clique counts; ``w`` = #cliques containing vertex."""
    cl = cliques_df(edges, k)
    roles = None
    for j in range(k):
        r = cl.select(F.col(f"v{j}").alias("vid"))
        roles = r if roles is None else roles.unionAll(r)
    counts = roles.groupBy("vid").agg(F.count(F.lit(1)).alias("cnt"))
    return verts.join(counts, "vid", "left").select(
        "vid",
        "a",
        F.coalesce(F.col("cnt"), F.lit(0)).cast("double").alias("w"),
    )


def _frames(
    spark: SparkSession, graph: LocalGraph, metric: Metric
) -> tuple[DataFrame, DataFrame]:
    """``(vertices, edges)`` frames with explicit schemas, so empty and
    edgeless graphs work; edge metrics carry the metric's ``a`` and ``c``."""
    a, c = graph.vertex_weight, graph.edge_weight
    if metric.kind == "edge":
        ew = metric.build(graph)
        a, c = ew.a, ew.c
    verts = zip(range(graph.n), np.asarray(a, dtype=np.float64).tolist())
    edges = zip(
        graph.src.tolist(), graph.dst.tolist(), np.asarray(c, dtype=np.float64).tolist()
    )
    # rows built from typed arrays, so Spark need not verify each one
    return (
        spark.createDataFrame(list(verts), "vid long, a double", verifySchema=False),
        spark.createDataFrame(
            list(edges), "src long, dst long, c double", verifySchema=False
        ),
    )


def _absorb(state: DataFrame, delta: DataFrame) -> DataFrame:
    """Add each alive vertex's ``delta`` rows ``(vid, d)`` to its ``w``.

    A union and one ``groupBy`` instead of an aggregate plus a join, so
    the state and the messages meet in a single shuffle.
    """
    rows = state.withColumn("d", F.lit(0.0)).unionByName(
        delta, allowMissingColumns=True
    )
    return rows.groupBy("vid").agg(
        F.max("a").alias("a"),
        F.max("w").alias("w"),
        F.max("stamp").alias("stamp"),
        F.sum("d").alias("d"),
    ).select(
        "vid",
        "a",
        F.when(F.col("stamp") == 0, F.col("w") + F.col("d"))
        .otherwise(F.col("w"))
        .alias("w"),
        "stamp",
    )


def _checkpoint(state: DataFrame, step: int, tail: float):
    """Materialise ``state``; returns it with the step's scalars, observed
    on the same job: alive ``n``, ``sa`` = Σa, ``sw`` = Σw, ``lo`` =
    min ``(w, vid)``, ``hi`` = max ``w``, and ``batch`` / ``tail`` = the
    vertices stamped ``step``, all / those with ``w > tail``."""
    alive = F.col("stamp") == 0
    now = F.col("stamp") == step
    obs = Observation()
    state = state.observe(
        obs,
        F.count(F.when(alive, 1)).alias("n"),
        F.sum(F.when(alive, F.col("a"))).alias("sa"),
        F.sum(F.when(alive, F.col("w"))).alias("sw"),
        F.min(F.when(alive, F.struct("w", "vid"))).alias("lo"),
        F.max(F.when(alive, F.col("w"))).alias("hi"),
        F.count(F.when(now, 1)).alias("batch"),
        F.count(F.when(now & (F.col("w") > tail), 1)).alias("tail"),
    ).localCheckpoint(eager=True)
    return state, obs.get


def peel_spark(
    spark: SparkSession,
    graph: LocalGraph,
    metric: Metric,
    schedule: Schedule,
    collect_round_sets: bool = False,
) -> PeelResult:
    """Run a parallel peeling schedule as iterative Spark jobs.

    Returns the same :class:`PeelResult` shape as the local engine, so the
    table harnesses and tests treat backends interchangeably.
    """
    if schedule.mode == "sequential":
        raise ValueError(
            "sequential schedules are span-bound by definition; "
            "run them on the local engine (DESIGN.md §4)"
        )
    n0 = graph.n
    k = metric.k
    verts, edges = _frames(spark, graph, metric)
    # AQE cannot coalesce a cached side, so size it to the platform
    parts = spark.sparkContext.defaultParallelism
    if metric.kind == "edge":
        msgs = _symmetric(edges).repartition(parts, "src").cache()
        init = msgs.select(F.col("dst").alias("vid"), F.col("c").alias("d"))
        w0 = F.col("a")
    else:
        cl = cliques_df(edges, k)
        members = [f"v{j}" for j in range(k)]
        msgs = reduce(
            DataFrame.unionAll,
            [cl.select(F.col(v).alias("vid"), *members) for v in members],
        ).repartition(parts, "vid").cache()
        init = msgs.select("vid", F.lit(1.0).alias("d"))
        w0 = F.lit(0.0)

    def delta_of(state: DataFrame, step: int) -> DataFrame:
        """``(vid, d)`` rows that the batch stamped ``step`` takes away."""
        if metric.kind == "edge":
            batch = state.filter(F.col("stamp") == step).select(
                F.col("vid").alias("src")
            )
            return msgs.join(batch, "src").select(
                F.col("dst").alias("vid"), (-F.col("c")).alias("d")
            )
        # a clique dies in the step that stamps its first member
        stamped = state.filter(F.col("stamp") > 0).select("vid", "stamp")
        dead = (
            msgs.join(stamped, "vid")
            .groupBy(*members)
            .agg(
                F.min("stamp").alias("first"),
                F.collect_list("vid").alias("gone"),
            )
            .filter(F.col("first") == step)
        )
        return dead.select(
            F.explode(F.array_except(F.array(*members), "gone")).alias("vid"),
            F.lit(-1.0).alias("d"),
        )

    def g_of(st: dict) -> float:
        """g of the alive set, from the observed sums."""
        if not st["n"]:
            return 0.0
        sa, sw = st["sa"], st["sw"]
        if metric.kind == "edge":
            return (sa + (sw - sa) / 2.0) / st["n"]  # w = a + Σ incident c
        return sw / k / st["n"]  # each live clique counts in k members' w

    log = WorkLog(n=n0, m=graph.m)
    peel_steps: list[int] = []
    try:
        state = verts.select(
            "vid", "a", w0.alias("w"), F.lit(0).cast("long").alias("stamp")
        )
        state, st = _checkpoint(_absorb(state, init), 0, float("inf"))
        densities = [g_of(st)]  # densities[s] = g after step s

        def advance(cond, tail: float, phase: str) -> None:
            """One step: stamp the alive vertices meeting ``cond``,
            subtract their contribution, checkpoint, observe."""
            nonlocal state, st
            step, n_before = len(densities), st["n"]
            if phase == "peel":
                peel_steps.append(step)
            state = state.withColumn(
                "stamp",
                F.when((F.col("stamp") == 0) & cond, F.lit(step).cast("long"))
                .otherwise(F.col("stamp")),
            )
            state, st = _checkpoint(
                _absorb(state, delta_of(state, step)), step, tail
            )
            log.add(n_before, st["batch"], st["batch"], phase=phase)
            densities.append(g_of(st))

        factor = k * (1.0 + schedule.eps)
        tau_max = 0.0
        long_tail = sparse = 0
        while st["n"] > 0:
            if len(peel_steps) >= MAX_ROUNDS:
                raise RuntimeError("peeling failed to terminate")
            gcur = densities[-1]
            if schedule.gpo:
                tau_max = max(tau_max, gcur / factor)
            wmin, vmin = st["lo"]
            if schedule.mode == "bucket":
                thr = max(wmin, tau_max) if schedule.gpo else wmin
                cond, tail = F.col("w") <= thr + TOL, wmin + TOL
            else:
                base_tau = factor * gcur
                tau = max(tau_max, base_tau) if schedule.gpo else base_tau
                if wmin > tau + TOL:  # nothing under τ: peel the argmin
                    cond = F.col("vid") == vmin
                else:
                    cond = F.col("w") <= tau + TOL
                tail = base_tau + TOL
            advance(cond, tail, "peel")
            if schedule.gpo:
                long_tail += st["tail"]

            # LPO: trim w < τ₂ unless that trims nothing or empties S
            while schedule.lpo and st["n"] > 0:
                tau2 = max(tau_max, densities[-1])
                if st["lo"]["w"] >= tau2 - TOL or st["hi"] < tau2 - TOL:
                    break
                advance(F.col("w") < tau2 - TOL, float("inf"), "trim")
                sparse += st["batch"]

        stamp = np.zeros(n0, dtype=np.int64)
        rows = state.select("vid", "stamp").collect()
        if rows:
            vid, stp = np.asarray(rows, dtype=np.int64).T
            stamp[vid] = stp
    finally:
        msgs.unpersist()

    best_step = 0  # the first step whose g beats every earlier one by TOL
    for step, g in enumerate(densities):
        if g > densities[best_step] + TOL:
            best_step = step
    return PeelResult(
        best_set=np.flatnonzero(stamp > best_step),
        best_density=float(densities[best_step]),
        densities=densities,
        n_rounds=len(peel_steps),
        n_trim_rounds=len(densities) - 1 - len(peel_steps),
        long_tail_peeled=long_tail,
        sparse_trimmed=sparse,
        worklog=log,
        peel_stamp=stamp,
        round_sets=(
            [np.flatnonzero(stamp == s) for s in peel_steps]
            if collect_round_sets
            else None
        ),
    )
