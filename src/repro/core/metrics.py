"""Density metrics: DG, DW, FD, TDS, kCLiDS.

A :class:`Metric` carries everything the engines need:

- ``k``: the constant in the peeling threshold ``k(1+ε)·g(S)`` (2 for
  edge metrics, clique size for clique metrics);
- ``kind``: ``"edge"`` (peeling weight = incident suspiciousness) or
  ``"clique"`` (peeling weight = number of live cliques containing u);
- ``build(graph)``: materializes per-vertex ``a`` and per-edge ``c``
  (edge metrics) or the clique list (clique metrics).

Custom metrics plug in via :func:`custom_metric` with ``vsusp``/``esusp``
callables, mirroring the paper's Listing 1 API; Property 3.1
(non-negative ``a``, ``c``; ``g = f/|S|``) is validated at build time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.graph import LocalGraph
from repro.cliques.local import enumerate_cliques

FD_LOG_OFFSET = 5.0  # the positive constant c in c_ij = 1/log(x + c) [25]


@dataclass(frozen=True)
class EdgeWeights:
    """Materialized suspiciousness for an edge-based metric."""

    a: np.ndarray  # per-vertex, >= 0
    c: np.ndarray  # per undirected edge, >= 0


@dataclass(frozen=True)
class CliqueWeights:
    """Materialized cliques for a clique-based metric (TDS / kCLiDS)."""

    cliques: np.ndarray  # (C, k) int64


@dataclass(frozen=True)
class Metric:
    """A density metric accepted by every engine and baseline."""

    name: str
    k: int
    kind: str  # "edge" | "clique"
    _builder: Callable[[LocalGraph], EdgeWeights | CliqueWeights]

    def build(self, g: LocalGraph) -> EdgeWeights | CliqueWeights:
        w = self._builder(g)
        if isinstance(w, EdgeWeights):
            if (w.a < 0).any() or (w.c < 0).any():
                raise ValueError(
                    f"metric {self.name} violates Property 3.1: negative weights"
                )
        return w


def _dg_builder(g: LocalGraph) -> EdgeWeights:
    return EdgeWeights(a=np.zeros(g.n), c=np.ones(g.m))


def _dw_builder(g: LocalGraph) -> EdgeWeights:
    return EdgeWeights(a=np.zeros(g.n), c=g.edge_weight.astype(np.float64))


def fd_edge_weight(g: LocalGraph, deg: np.ndarray) -> np.ndarray:
    """FD's ``c_ij = 1 / log(x + c)`` per edge of ``g``, ``x`` the object's
    degree in ``deg``. The object is the higher-degree endpoint (the
    popular item or merchant), which the metric down-weights."""
    obj_deg = np.maximum(deg[g.src], deg[g.dst]).astype(np.float64)
    return 1.0 / np.log(obj_deg + FD_LOG_OFFSET)


def _fd_builder(g: LocalGraph) -> EdgeWeights:
    a = g.vertex_weight.astype(np.float64)  # Fraudar: a_i = prior suspiciousness
    return EdgeWeights(a=a, c=fd_edge_weight(g, g.degrees()))


def _clique_builder(k: int) -> Callable[[LocalGraph], CliqueWeights]:
    def build(g: LocalGraph) -> CliqueWeights:
        return CliqueWeights(cliques=enumerate_cliques(g, k))

    return build


DG = Metric("DG", 2, "edge", _dg_builder)
DW = Metric("DW", 2, "edge", _dw_builder)
FD = Metric("FD", 2, "edge", _fd_builder)
TDS = Metric("TDS", 3, "clique", _clique_builder(3))


def kclids(k: int = 4) -> Metric:
    """k-Clique densest subgraph metric for a given clique size ``k >= 3``."""
    if k < 3:
        raise ValueError("kCLiDS needs k >= 3 (k == 3 is TDS)")
    return Metric(f"kCLiDS-{k}", k, "clique", _clique_builder(k))


EDGE_METRICS = {"DG": DG, "DW": DW, "FD": FD}


def by_name(name: str, k: int = 4) -> Metric:
    """Resolve a metric by the paper's name (``kCLiDS`` takes ``k``)."""
    if name in EDGE_METRICS:
        return EDGE_METRICS[name]
    if name == "TDS":
        return TDS
    if name == "kCLiDS":
        return kclids(k)
    raise KeyError(name)


def custom_metric(
    name: str,
    vsusp: Callable[[int, LocalGraph], float],
    esusp: Callable[[int, int, float, LocalGraph], float],
    k: int = 2,
) -> Metric:
    """User-defined metric from suspiciousness callables (the Dupin API).

    ``vsusp(u, g)`` scores a vertex; ``esusp(u, v, weight, g)`` scores an
    edge given its raw weight. Both must be non-negative (Property 3.1).
    """

    def build(g: LocalGraph) -> EdgeWeights:
        a = np.array([float(vsusp(u, g)) for u in range(g.n)])
        c = np.array(
            [
                float(esusp(int(u), int(v), float(w), g))
                for u, v, w in zip(g.src, g.dst, g.edge_weight)
            ]
        )
        return EdgeWeights(a=a, c=c)

    return Metric(name, k, "edge", build)
