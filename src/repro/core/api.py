"""The user-facing Dupin API (paper §3, Listing 1).

Mirrors the C++ facade: plug in ``VSusp``/``ESusp`` suspiciousness
functions (or pick a named metric), tune ``setEpsilon``/``setK``, load a
graph, call ``ParDetect``. Detection runs on the Spark engine by default
(``backend="spark"``) or the memory-resident reference (``"local"``).
"""
from __future__ import annotations

from typing import Callable

from repro.core import metrics as M
from repro.core import schedules
from repro.core.graph import LocalGraph
from repro.core.local_engine import peel_local
from repro.core.schedules import PeelResult


class Dupin:
    """Flexible DSD detector — the paper's programming abstraction."""

    def __init__(self, spark=None, backend: str = "spark"):
        """``spark`` is the ``SparkSession`` the Spark backend runs on."""
        if backend not in ("spark", "local"):
            raise ValueError("backend must be 'spark' or 'local'")
        if backend == "spark" and spark is None:
            raise ValueError("spark backend needs a SparkSession")
        self._spark = spark
        self._backend = backend
        self._vsusp: Callable | None = None
        self._esusp: Callable | None = None
        self._metric: M.Metric | None = None
        self._eps = 0.1
        self._k = 3
        self._optimization = "lpo"  # paper default: all optimizations on
        self._graph: LocalGraph | None = None

    # -- API surface (paper Figure 4) ------------------------------------
    def VSusp(self, fn: Callable) -> "Dupin":
        """Vertex suspiciousness ``vsusp(u, graph) -> float >= 0``."""
        self._vsusp = fn
        self._metric = None
        return self

    def ESusp(self, fn: Callable) -> "Dupin":
        """Edge suspiciousness ``esusp(u, v, weight, graph) -> float >= 0``."""
        self._esusp = fn
        self._metric = None
        return self

    def setEpsilon(self, eps: float) -> "Dupin":
        """Precision/throughput knob: larger ε ⇒ fewer rounds, looser bound."""
        if eps < 0:
            raise ValueError("epsilon must be >= 0")
        self._eps = float(eps)
        return self

    def setK(self, k: int) -> "Dupin":
        """Clique size for TDS/kCLiDS-style metrics."""
        self._k = int(k)
        return self

    def setMetric(self, name: str) -> "Dupin":
        """Use a named built-in metric: DG, DW, FD, TDS, kCLiDS."""
        self._metric = M.by_name(name, self._k)
        return self

    def setOptimization(self, level: str) -> "Dupin":
        """``"none"`` (Alg 2), ``"gpo"`` (Alg 3) or ``"lpo"`` (Alg 4)."""
        if level not in ("none", "gpo", "lpo"):
            raise ValueError(level)
        self._optimization = level
        return self

    def isBenign(self, result: PeelResult, vertex: int) -> bool:
        """Was ``vertex`` peeled before the flagged community formed?

        Benign vertices are those outside the detected dense subgraph —
        they were peeled during the process and never re-flagged.
        """
        return int(vertex) not in set(result.best_set.tolist())

    def LoadGraph(self, graph: LocalGraph) -> "Dupin":
        self._graph = graph
        return self

    def ParDetect(self) -> PeelResult:
        """Run parallel peeling; returns the flagged community + stats."""
        if self._graph is None:
            raise RuntimeError("LoadGraph first")
        metric = self._resolve_metric()
        sched = {
            "none": schedules.dupin(self._eps),
            "gpo": schedules.gpo(self._eps),
            "lpo": schedules.lpo(self._eps),
        }[self._optimization]
        if self._backend == "local":
            return peel_local(self._graph, metric, sched)
        from repro.core.spark_engine import peel_spark

        return peel_spark(self._spark, self._graph, metric, sched)

    def _resolve_metric(self) -> M.Metric:
        if self._metric is not None:
            return self._metric
        if self._vsusp is None or self._esusp is None:
            raise RuntimeError("set a metric or plug in VSusp and ESusp")
        return M.custom_metric("custom", self._vsusp, self._esusp, k=2)
