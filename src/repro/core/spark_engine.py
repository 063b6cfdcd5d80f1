"""Spark DataFrame peeling engine.

The paper's parallel peeling (Algorithms 2–4) expressed as iterative
vertex-peeling jobs over partitioned DataFrames — the PySpark-native
rendition of "GraphX vertex-peeling jobs over partitioned edge RDDs"
(GraphX has no Python API; Catalyst DataFrame ops are the supported
dataflow layer). The step structure is the one-pass-per-round MapReduce
peeling of Bahmani, Kumar & Vassilvitskii (VLDB 2012): weights are kept
as state and only the peeled batch's contribution is subtracted.

- **Ingest**: :func:`ingest`, the one path from arrays to the
  ``(vid, a)`` and ``(src, dst, c)`` frames (``LocalGraph.to_spark``
  uses it too).
- **Message table**, built once and cached, hash-partitioned by ``vid``,
  the vertex whose removal sends the row: half-edges ``(vid, dst, c)``
  for edge metrics, or clique roles ``(vid, v0..v{k-1})`` from a single
  :func:`cliques_df` listing for clique metrics.
- **Vertex-state table** ``(vid, a, w, stamp)``: ``w`` is the current
  peeling weight, ``stamp`` the step that removed the vertex (0 while
  alive). It is the only per-step state. The initial ``w`` is absorbed
  from the message table, as each step's decrement is later;
  :func:`edge_weights_df` and :func:`clique_weights_df` return it.

The schedule loop is :func:`repro.core.schedules.peel`; ``_SparkState``
gives it the six members it asks of a state. ``remove`` is one step: it
stamps the alive vertices that meet the driver's condition with a
``when`` expression, subtracts from each surviving vertex what the
just-stamped batch contributed (its half-edges, or the cliques that die
with it), and materialises the new table with one ``localCheckpoint``.
The step's scalars (|S|, Σa, Σw, min and max alive ``w``, the batch size
and its long-tail count) ride on that same job through
``DataFrame.observe``, so ``n``, ``g``, ``lo()`` and ``hi()`` read them
without another action; a refused LPO trim runs no job. ``stamps()``
collects the stamps once, at the end.

The engine accepts the same :class:`~repro.core.schedules.Schedule`
objects as the local engine for the parallel modes (``threshold`` and
``bucket``); sequential schedules are inherently single-vertex-per-step
and stay on the local engine (see DESIGN.md §4).

Results are bit-compatible with ``local_engine`` (one driver, one TOL);
``tests/test_spark_engine.py`` asserts identical peel sets per round.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.graph import LocalGraph
from repro.core.metrics import Metric
from repro.core.schedules import PeelResult, Schedule, peel
from repro.core.worklog import WorkLog


def ingest(spark: SparkSession, a, src, dst, c) -> tuple[DataFrame, DataFrame]:
    """``(vid, a)`` and ``(src, dst, c)`` frames from per-vertex and per-edge
    arrays; explicit schemas, so empty and edgeless graphs work."""
    verts = zip(range(len(a)), np.asarray(a, dtype=np.float64).tolist())
    edges = zip(src.tolist(), dst.tolist(), np.asarray(c, dtype=np.float64).tolist())
    # rows built from typed arrays, so Spark need not verify each one
    return (
        spark.createDataFrame(list(verts), "vid long, a double", verifySchema=False),
        spark.createDataFrame(
            list(edges), "src long, dst long, c double", verifySchema=False
        ),
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


def _messages(edges: DataFrame, k: int | None = None) -> DataFrame:
    """The message table, keyed by ``vid``, the vertex whose removal sends
    the row: half-edges ``(vid, dst, c)``, or, given ``k``, one role row
    ``(vid, v0..v{k-1})`` per member of each k-clique, exploded from a
    single listing so the self-joins run once."""
    if k is None:
        return edges.select(F.col("src").alias("vid"), "dst", "c").unionAll(
            edges.select(F.col("dst").alias("vid"), F.col("src").alias("dst"), "c")
        )
    members = [f"v{j}" for j in range(k)]
    return cliques_df(edges, k).select(
        F.explode(F.array(*members)).alias("vid"), *members
    )


def _initial(verts: DataFrame, msgs: DataFrame) -> DataFrame:
    """The vertex-state table ``(vid, a, w, stamp=0)`` absorbed from the
    message table: ``w = a + Σ incident c`` over half-edges (each row
    gives its ``c`` to ``dst``), or the number of cliques containing the
    vertex over clique roles, whatever ``a`` is."""
    if "c" in msgs.columns:
        w0 = F.col("a")
        gain = msgs.select(F.col("dst").alias("vid"), F.col("c").alias("d"))
    else:
        w0 = F.lit(0.0)
        gain = msgs.select("vid", F.lit(1.0).alias("d"))
    state = verts.select("vid", "a", w0.alias("w"), F.lit(0).cast("long").alias("stamp"))
    return _absorb(state, gain)


def edge_weights_df(verts: DataFrame, edges: DataFrame) -> DataFrame:
    """Per-vertex peeling weight ``w = a + Σ incident c`` (edge metrics):
    the engine's initial state, public so tests can oracle-check it."""
    return _initial(verts, _messages(edges))


def clique_weights_df(verts: DataFrame, edges: DataFrame, k: int) -> DataFrame:
    """Per-vertex clique counts ``w`` = #k-cliques containing the vertex:
    the engine's initial state for a clique metric."""
    return _initial(verts, _messages(edges, k))


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


class _SparkState:
    """The driver's peeling state over the vertex-state table; every
    member but :meth:`remove` and :meth:`stamps` reads the scalars
    observed on the last checkpoint, so it runs no Spark job."""

    def __init__(self, spark: SparkSession, graph: LocalGraph, metric: Metric):
        self.k, self.kind, self.n0 = metric.k, metric.kind, graph.n
        a, c = graph.vertex_weight, graph.edge_weight
        if metric.kind == "edge":
            ew = metric.build(graph)
            a, c = ew.a, ew.c
        verts, edges = ingest(spark, a, graph.src, graph.dst, c)
        # AQE cannot coalesce a cached side, so size it to the platform
        parts = spark.sparkContext.defaultParallelism
        self.msgs = _messages(
            edges, self.k if metric.kind == "clique" else None
        ).repartition(parts, "vid").cache()
        try:
            self.state, self.st = _checkpoint(_initial(verts, self.msgs), 0, float("inf"))
        except BaseException:
            self.msgs.unpersist()
            raise

    @property
    def n(self) -> int:
        return self.st["n"]

    @property
    def g(self) -> float:
        """g of the alive set, from the observed sums."""
        if not self.st["n"]:
            return 0.0
        sa, sw = self.st["sa"], self.st["sw"]
        if self.kind == "edge":
            return (sa + (sw - sa) / 2.0) / self.st["n"]  # w = a + Σ incident c
        return sw / self.k / self.st["n"]  # each live clique counts in k members' w

    def lo(self) -> tuple[float, int]:
        return self.st["lo"]  # a Row (w, vid)

    def hi(self) -> float:
        return self.st["hi"]

    def remove(self, step, le=None, lt=None, vid=None, tail=float("inf")):
        """One step: stamp the alive vertices meeting the condition,
        subtract their contribution, checkpoint, observe."""
        if vid is not None:
            cond = F.col("vid") == vid
        elif le is not None:
            cond = F.col("w") <= le
        else:
            cond = F.col("w") < lt
        state = self.state.withColumn(
            "stamp",
            F.when((F.col("stamp") == 0) & cond, F.lit(step).cast("long"))
            .otherwise(F.col("stamp")),
        )
        self.state, self.st = _checkpoint(
            _absorb(state, self._delta(state, step)), step, tail
        )
        return self.st["batch"], self.st["tail"], self.st["batch"]

    def _delta(self, state: DataFrame, step: int) -> DataFrame:
        """``(vid, d)`` rows that the batch stamped ``step`` takes away."""
        if self.kind == "edge":
            batch = state.filter(F.col("stamp") == step).select("vid")
            return self.msgs.join(batch, "vid").select(
                F.col("dst").alias("vid"), (-F.col("c")).alias("d")
            )
        # a clique dies in the step that stamps its first member
        members = [f"v{j}" for j in range(self.k)]
        stamped = state.filter(F.col("stamp") > 0).select("vid", "stamp")
        dead = (
            self.msgs.join(stamped, "vid")
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

    def stamps(self) -> np.ndarray:
        stamp = np.zeros(self.n0, dtype=np.int64)
        rows = self.state.select("vid", "stamp").collect()
        if rows:
            vid, stp = np.asarray(rows, dtype=np.int64).T
            stamp[vid] = stp
        return stamp


def peel_spark(
    spark: SparkSession, graph: LocalGraph, metric: Metric, schedule: Schedule
) -> PeelResult:
    """Run a parallel peeling schedule as iterative Spark jobs.

    Returns the same :class:`PeelResult` shape as the local engine, so the
    table harnesses and tests treat backends interchangeably: the per-step
    figures are views of the WorkLog trace, which records the same steps
    as the local engine's (weight updates aside, which Spark does not
    count).
    """
    if schedule.mode == "sequential":
        raise ValueError(
            "sequential schedules are span-bound by definition; "
            "run them on the local engine (DESIGN.md §4)"
        )
    state = _SparkState(spark, graph, metric)
    try:
        return peel(state, schedule, metric.k, WorkLog(n=graph.n, m=graph.m))
    finally:
        state.msgs.unpersist()
