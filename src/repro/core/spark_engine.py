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
  uses it too). The arrays go to Spark as Arrow tables of array-valued
  rows that Spark explodes in its tasks (:func:`_frame`), so no Python
  worker starts and the driver handles a few array rows, not one row
  per element. The engine wraps every frame it ships in a lazy
  ``localCheckpoint``, so its plans read an RDD, not the
  ``LocalRelation`` under the Arrow table, which Catalyst may evaluate
  on the driver (``ConvertToLocalRelation``). The checkpoint runs no job
  of its own: the first job that reads the frame stores its rows.
- **Set-up on the driver.** For every metric the driver runs the local
  engine's set-up (``local_engine.make_state``, the one ``peel_local``
  runs; for a clique metric, its kCLIST listing) and :func:`_frame`
  ships what Spark peels: the state table, and the checkpointed edge
  frame or clique list. So set-up runs no Spark job, ``g0``, ``lo()``
  and ``hi()`` come from the driver's arrays, and Spark lists no clique.
- **Message table**, read where it lies, neither shuffled nor cached:
  for edge metrics the half-edges ``(vid, dst, c)``, keyed by ``vid``,
  the vertex whose removal sends the row, a narrow union of both
  directions of the edge frame; for clique metrics the shipped clique
  list ``(v0..v{k-1})`` itself, one row per clique.
- **Vertex-state table** ``(vid, a, w, stamp, deg)``: ``w`` is the
  current peeling weight, ``stamp`` the step that removed the vertex (0
  while alive), ``deg`` the live message rows that reach it: at set-up
  the CSR row length, or the vertex's clique count. It is the only
  per-step state. :func:`edge_weights_df` and :func:`clique_weights_df`
  build the same table from frames, with Spark's own aggregation and,
  for cliques, its self-join listing (:func:`cliques_df`).

The schedule loop is :func:`repro.core.schedules.peel`; ``_SparkState``
gives it the six members it asks of a state. ``remove(step, le=|vid=,
tail=)`` is one step: it stamps the alive vertices with ``w <= le``, or
vertex ``vid``, with a ``when`` expression, subtracts from each
surviving vertex what the just-stamped batch contributed (its
half-edges, or the cliques whose first stamp is this step's), found by
probing the message table with a broadcast of at most n rows, and
materialises the new table with one ``localCheckpoint``, whose
``groupBy`` is the step's only shuffle.
The step's scalars (|S|, Σa, Σw, min and max alive ``w``, the alive
message rows, the step's weight updates, the batch size and its
long-tail count) ride on that same job through ``DataFrame.observe``, so
``n``, ``g``, ``lo()`` and ``hi()`` read them without another action; a
refused LPO trim runs no job. Each checkpoint and its table replace the
previous one, whose blocks are freed.

**Handoff.** Threshold rounds remove most of a graph in the first steps,
after which a Spark step mostly pays its fixed cost. So, as in the
filtering method of Lattanzi, Moseley, Suri & Vassilvitskii (SPAA 2011),
the run shrinks the graph on Spark until it fits the driver, then
finishes there: once the alive message rows fall to a quarter of the
set-up rows (:func:`_hand_off`, a fixed rule, never met at set-up by a
graph with messages), or a step leaves no vertex alive, the state
collects ``(vid, w, stamp)`` as Arrow columns, one job, and continues
the *same*
:func:`~repro.core.schedules.peel` run on a local ``_Scan`` or ``_Heap``
started from those stamps, in the graph's own vids. The tail carries on
the set-up's ``EdgeState`` or ``CliqueState``, seeded with Spark's ``w``
and ``f``; a clique state keeps the cliques none of whose members is
stamped, since a clique dies with its first stamped member. Steps carry
on, and ``WorkLog.handoff`` records the last Spark step. So every run
leaves Spark through that one collect, and ``stamps()`` reads the local
state's stamps.

The engine accepts the same :class:`~repro.core.schedules.Schedule`
objects as the local engine for the parallel modes (``threshold`` and
``bucket``); sequential schedules are inherently single-vertex-per-step
and stay on the local engine (see DESIGN.md §4).

Results are bit-compatible with ``local_engine`` (one driver, one TOL);
``tests/test_spark_engine.py`` asserts identical peel sets and WorkLog
records per step, with the handoff rule at its default, at "never" and
at "right after set-up".
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.graph import LocalGraph
from repro.core.local_engine import make_state, selector, start_log
from repro.core.metrics import Metric
from repro.core.schedules import PeelResult, Schedule, peel


# Elements of each column per row of the Arrow table _frame hands to Spark
PACK = 4096


def _frame(spark: SparkSession, **cols: np.ndarray) -> DataFrame:
    """A frame of the equal-length ``long`` / ``double`` arrays ``cols``.

    Spark turns an Arrow table under 48 MB into a driver-side
    ``LocalRelation``: it converts every row on the driver, copies it
    again to plan a scan, and ships the rows inside the scan's tasks,
    which on la x1's 693k edges took seconds. So the table holds only a
    few rows, each a slice of every column as one array (at least one
    row per task slot, so the frame keeps the platform's partitioning),
    and Spark's ``inline`` explodes them into one row per element inside
    the tasks.
    """
    n = len(next(iter(cols.values())))
    rows = max(spark.sparkContext.defaultParallelism, -(-n // PACK))
    ends = pa.array(np.linspace(0, n, rows + 1).astype(np.int32))
    table = pa.table(
        {k: pa.ListArray.from_arrays(ends, pa.array(v)) for k, v in cols.items()}
    )
    kind = {"i": "long", "f": "double"}
    schema = ", ".join(f"{k} array<{kind[v.dtype.kind]}>" for k, v in cols.items())
    return spark.createDataFrame(table, schema).select(F.inline(F.arrays_zip(*cols)))


def ingest(spark: SparkSession, a, src, dst, c) -> tuple[DataFrame, DataFrame]:
    """``(vid, a)`` and ``(src, dst, c)`` frames from per-vertex and per-edge
    arrays, handed to Spark as Arrow (:func:`_frame`): typed columns, so
    empty and edgeless graphs work, and no Python worker reads them back,
    whatever the session's Arrow setting."""
    a = np.asarray(a, dtype=np.float64)
    return (
        _frame(spark, vid=np.arange(len(a), dtype=np.int64), a=a),
        _frame(
            spark,
            src=np.asarray(src, dtype=np.int64),
            dst=np.asarray(dst, dtype=np.int64),
            c=np.asarray(c, dtype=np.float64),
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


def _messages(table: DataFrame, k: int | None = None) -> DataFrame:
    """Message rows keyed by ``vid``, the vertex whose removal sends the
    row: the half-edges ``(vid, dst, c)`` of an edge frame, the engine's
    message table; or, given ``k``, one role row ``(vid)`` per member of
    each clique of a clique frame, which :func:`clique_weights_df`
    absorbs."""
    if k is None:
        return table.select(F.col("src").alias("vid"), "dst", "c").unionAll(
            table.select(F.col("dst").alias("vid"), F.col("src").alias("dst"), "c")
        )
    return table.select(F.explode(F.array(*(f"v{j}" for j in range(k)))).alias("vid"))


def _initial(verts: DataFrame, msgs: DataFrame) -> DataFrame:
    """The vertex-state table ``(vid, a, w, stamp=0, deg)`` absorbed from
    the message table: ``w = a + Σ incident c`` over half-edges (each row
    gives its ``c`` to ``dst``), or the number of cliques containing the
    vertex over clique roles, whatever ``a`` is; ``deg`` counts the rows."""
    if "c" in msgs.columns:
        w0 = F.col("a")
        gain = msgs.select(F.col("dst").alias("vid"), F.col("c").alias("d"))
    else:
        w0 = F.lit(0.0)
        gain = msgs.select("vid", F.lit(1.0).alias("d"))
    zero = F.lit(0).cast("long")
    state = verts.select(
        "vid", "a", w0.alias("w"), zero.alias("stamp"), zero.alias("deg")
    )
    return _absorb(state, gain.withColumn("deg", F.lit(1)))


def edge_weights_df(verts: DataFrame, edges: DataFrame) -> DataFrame:
    """Per-vertex peeling weight ``w = a + Σ incident c`` (edge metrics),
    as the state table ``(vid, a, w, stamp=0, deg)`` absorbed from vertex
    and edge frames. The engine builds the same table from the driver's
    arrays instead (:class:`_SparkState`); this is the path for input
    that is already a DataFrame."""
    return _initial(verts, _messages(edges))


def clique_weights_df(verts: DataFrame, edges: DataFrame, k: int) -> DataFrame:
    """Per-vertex clique counts ``w`` = #k-cliques containing the vertex,
    as the state table absorbed from the roles of a :func:`cliques_df`
    listing: the DataFrame-input path to the table the engine builds from
    the driver's clique list."""
    return _initial(verts, _messages(cliques_df(edges, k), k))


def _absorb(state: DataFrame, delta: DataFrame) -> DataFrame:
    """Add each vertex's ``delta`` rows ``(vid, d, deg)``: ``d`` to ``w``
    while it is alive, and ``deg`` (±1 a row) whether or not.

    So ``deg`` counts the live message rows that reach the vertex: its
    alive neighbours' half-edges, or its live cliques. Over the alive
    vertices it sums to the alive message rows, and over all vertices it
    drops in a step by the delta rows, the step's weight updates.

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
        F.sum("deg").alias("deg"),
    ).select(
        "vid",
        "a",
        F.when(F.col("stamp") == 0, F.col("w") + F.col("d"))
        .otherwise(F.col("w"))
        .alias("w"),
        "stamp",
        "deg",
    )


def _checkpoint(state: DataFrame, step: int, tail: float):
    """Materialise ``state``; returns it with the step's scalars, observed
    on the same job: alive ``n``, ``sa`` = Σa, ``sw`` = Σw, ``lo`` =
    min ``(w, vid)``, ``hi`` = max ``w``, ``rows`` = Σ alive ``deg``,
    ``deg`` = Σ ``deg``, and ``batch`` / ``tail`` = the vertices stamped
    ``step``, all / those with ``w > tail``."""
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
        F.sum(F.when(alive, F.col("deg"))).alias("rows"),
        F.sum("deg").alias("deg"),
        F.count(F.when(now, 1)).alias("batch"),
        F.count(F.when(now & (F.col("w") > tail), 1)).alias("tail"),
    ).localCheckpoint(eager=True)
    return state, obs.get


def _free(table: DataFrame) -> None:
    """Drop the blocks of a ``localCheckpoint``-ed table, which
    ``DataFrame.unpersist`` does not reach: they are the RDD under its
    plan."""
    table._jdf.queryExecution().logical().rdd().unpersist(False)


def _arrays(df: DataFrame) -> list[np.ndarray]:
    """The columns of ``df`` as NumPy arrays, collected as Arrow batches."""
    return [col.to_numpy() for col in df.toArrow().columns]


def _hand_off(rows: int, rows0: int) -> bool:
    """Whether a run whose alive message rows fell from ``rows0`` at set-up
    to ``rows`` finishes on the driver: once a quarter of the set-up rows
    is left, one more Spark step costs more than the driver's whole tail.
    The driver holds the run's set-up state from the start, so the
    handoff collects only ``(vid, w, stamp)`` and no size bound is needed.
    A graph with messages never meets the rule at set-up, so the first
    step always runs on Spark."""
    return rows <= rows0 // 4


class _SparkState:
    """The driver's peeling state over the vertex-state table. Only
    ``remove(step, le=|vid=, tail=)`` runs Spark jobs; ``n``, ``g``,
    ``lo()`` and ``hi()`` read the scalars observed on the last
    checkpoint.

    Set-up runs no Spark job: the driver builds the local engine's state
    (``base``, an ``EdgeState`` or ``CliqueState``) and ships its
    ``(vid, a, w, stamp=0, deg)`` as the state table, with the scalars
    read off the same arrays (:meth:`_set_up`).

    Once :func:`_hand_off` holds after a checkpoint, or no vertex is left
    alive, the state hands the rest of the run to a local ``_Scan`` or
    ``_Heap`` over ``base``, started from the collected stamps
    (:meth:`_finish_locally`); every member then delegates to that
    ``local`` state, in the graph's own vids, and ``stamps()`` reads it.
    """

    def __init__(self, spark: SparkSession, graph: LocalGraph, metric: Metric,
                 schedule: Schedule):
        self.k, self.kind, self.graph = metric.k, metric.kind, graph
        self.select = selector(schedule)
        self.state = self.local = self.handoff = None
        self.inputs = []
        try:
            self._set_up(spark, metric)
            self._finish_locally(0)
        except BaseException:
            self.close()
            raise

    def _set_up(self, spark: SparkSession, metric: Metric) -> None:
        """The local engine's set-up, shipped: the state table, and the
        edge frame or the clique list with the message table over it, all
        lazy. Nothing is repartitioned or cached: each step probes the
        message table where it lies."""
        g = self.graph
        base = self.base = make_state(g, metric)
        if self.kind == "edge":
            a, deg = base.a, np.diff(base.indptr)
            cols = {"src": g.src, "dst": g.dst, "c": base.c}
        else:
            a, deg = g.vertex_weight, base.w.astype(np.int64)
            cols = {f"v{j}": col for j, col in enumerate(base.cliques.T)}
        # lazy checkpoints: the plans see RDDs, not the Arrow tables'
        # LocalRelation; the first step's jobs store the rows
        self.state = _frame(
            spark, vid=np.arange(g.n, dtype=np.int64), a=a, w=base.w,
            stamp=np.zeros(g.n, dtype=np.int64), deg=deg,
        ).localCheckpoint(eager=False)
        table = _frame(spark, **cols).localCheckpoint(eager=False)
        self.inputs = [table]
        self.msgs = _messages(table) if self.kind == "edge" else table
        self.rows0 = int(deg.sum())
        self.f = base.f
        self.st = {"n": g.n, "rows": self.rows0, "deg": self.rows0}
        if g.n:  # peel asks lo() and hi() of a non-empty state only
            v = int(np.argmin(base.w))  # the first of the least: min (w, vid)
            self.st.update(lo=(float(base.w[v]), v), hi=float(base.w.max()))

    def _observe(self, table: DataFrame, step: int, tail: float) -> None:
        """Checkpoint ``table`` as the state and read the step's scalars;
        ``f`` of the alive set comes from the observed sums."""
        self.state, self.st = _checkpoint(table, step, tail)
        sa, sw = self.st["sa"] or 0.0, self.st["sw"] or 0.0
        if self.kind == "edge":
            self.f = sa + (sw - sa) / 2.0  # w = a + Σ incident c
        else:
            self.f = sw / self.k  # each live clique counts in k members' w

    @property
    def n(self) -> int:
        return self.local.n if self.local else self.st["n"]

    @property
    def g(self) -> float:
        if self.local:
            return self.local.g
        return self.f / self.st["n"] if self.st["n"] else 0.0

    def lo(self) -> tuple[float, int]:
        return self.local.lo() if self.local else self.st["lo"]  # (w, vid)

    def hi(self) -> float:
        return self.local.hi() if self.local else self.st["hi"]

    def remove(self, step, le=None, vid=None, tail=math.inf):
        """One step: stamp the alive vertices with ``w <= le``, or vertex
        ``vid``, subtract their contribution, checkpoint, observe; the
        weight updates are the delta rows, as the local engine counts
        them."""
        if self.local:
            return self.local.remove(step, le=le, vid=vid, tail=tail)
        cond = F.col("vid") == vid if vid is not None else F.col("w") <= le
        state = self.state.withColumn(
            "stamp",
            F.when((F.col("stamp") == 0) & cond, F.lit(step).cast("long"))
            .otherwise(F.col("stamp")),
        )
        old, deg = self.state, self.st["deg"]
        self._observe(_absorb(state, self._delta(state, step)), step, tail)
        _free(old)
        done = self.st["batch"], self.st["tail"], deg - self.st["deg"]
        self._finish_locally(step)
        return done

    def _delta(self, state: DataFrame, step: int) -> DataFrame:
        """``(vid, d, deg)`` rows that the batch stamped ``step`` takes away:
        one per half-edge of the batch, or per member of each clique that
        dies with it. The message table is scanned where it lies, probed by
        a broadcast of the batch's vids or of every stamped ``(vid, stamp)``
        (one exchange for a clique step's k joins): one shuffle, the absorb's."""
        if self.kind == "edge":
            batch = state.filter(F.col("stamp") == step).select("vid")
            rows = self.msgs.join(F.broadcast(batch), "vid").select(
                F.col("dst").alias("vid"), (-F.col("c")).alias("d")
            )
        else:
            # a clique dies in the step that stamps its first member;
            # least() skips the alive members, whose stamp joins as null
            stamped = F.broadcast(state.filter(F.col("stamp") > 0))
            members = [f"v{j}" for j in range(self.k)]
            dead = self.msgs
            for j, v in enumerate(members):
                s = stamped.alias(f"s{j}")
                dead = dead.join(s, F.col(v) == F.col(f"s{j}.vid"), "left")
            first = F.least(*(F.col(f"s{j}.stamp") for j in range(self.k)))
            rows = dead.filter(first == step).select(
                F.explode(F.array(*members)).alias("vid"), F.lit(-1.0).alias("d")
            )
        return rows.withColumn("deg", F.lit(-1))

    def _finish_locally(self, step: int) -> None:
        """Hand the run to the local engine if :func:`_hand_off` holds or
        no vertex is left alive.

        Collects ``(vid, w, stamp)`` into arrays over the graph's own vids
        with one job and seeds ``base`` with Spark's ``w`` and ``f``, so
        the tail continues this run's own numbers, in this run's stamp
        array; steps carry on. A clique dies in the step that stamps its
        first member, so the live cliques are those with no stamped
        member. The Spark tables are freed.
        """
        if self.st["n"] and not _hand_off(self.st["rows"], self.rows0):
            return
        vid, wv, stp = _arrays(self.state.select("vid", "w", "stamp"))
        tail = self.base
        tail.w, tail.f = np.zeros(self.graph.n), self.f
        stamp = np.zeros(self.graph.n, dtype=np.int64)
        tail.w[vid], stamp[vid] = wv, stp
        if self.kind == "clique":
            tail.alive_clique = (stamp[tail.cliques] == 0).all(axis=1)
        self.local, self.handoff = self.select(tail, stamp), step
        self.close()

    def stamps(self) -> np.ndarray:
        return self.local.stamps()  # a finished run has left Spark

    def close(self) -> None:
        """Free the checkpointed inputs, which the message table reads, and
        the checkpointed state."""
        for df in self.inputs:
            _free(df)
        self.inputs = []
        if self.state is not None:
            _free(self.state)
            self.state = None


def peel_spark(
    spark: SparkSession, graph: LocalGraph, metric: Metric, schedule: Schedule
) -> PeelResult:
    """Run a parallel peeling schedule as iterative Spark jobs, finishing
    on the driver once the alive graph is small.

    Returns the same :class:`PeelResult` shape as the local engine, so the
    table harnesses and tests treat backends interchangeably: the per-step
    figures are views of the WorkLog trace, which records the same steps
    as the local engine's, and ``worklog.handoff`` the last Spark step.
    """
    if schedule.mode == "sequential":
        raise ValueError(
            "sequential schedules are span-bound by definition; "
            "run them on the local engine (DESIGN.md §4)"
        )
    state = _SparkState(spark, graph, metric, schedule)
    try:
        res = peel(state, schedule, metric.k, start_log(graph, state.base))
    finally:
        state.close()
    res.worklog.handoff = state.handoff
    return res
