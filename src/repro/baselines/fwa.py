"""FWA stand-in: Frank–Wolfe convex-programming DSD (Danisch et al.).

Each edge fractionally assigns its weight between its endpoints; each
Frank–Wolfe iteration re-routes weight toward the lighter endpoint with
step 2/(t+2); after T iterations vertices are ranked by accumulated load
``r`` and the densest prefix of the ranking is returned. With enough
iterations the ranking approaches the exact dense decomposition — hence
FWA's high densities and very long runtimes (T full edge passes) in
Tables 5/7.
"""
from __future__ import annotations

import numpy as np

from repro.core.graph import LocalGraph
from repro.core.metrics import EdgeWeights, Metric
from repro.core.schedules import PeelResult
from repro.core.worklog import WorkLog

N_ITERS_UNWEIGHTED = 400
N_ITERS_WEIGHTED = 1200  # weighted loads converge ~3x slower (paper's DW/FD TLEs)


def fwa_run(graph: LocalGraph, metric: Metric, n_iters: int | None = None) -> PeelResult:
    """Frank–Wolfe DSD for edge metrics (DG/DW/FD)."""
    if metric.kind != "edge":
        raise ValueError("FWA supports edge metrics only (Table 2)")
    if n_iters is None:
        n_iters = N_ITERS_UNWEIGHTED if metric.name == "DG" else N_ITERS_WEIGHTED
    ew = metric.build(graph)
    assert isinstance(ew, EdgeWeights)
    n, m = graph.n, graph.m
    if n == 0:  # nothing to rank: the empty set, density 0
        empty = np.zeros(0, dtype=np.int64)
        return PeelResult(best_set=empty, best_density=0.0,
                          worklog=WorkLog(n=0, m=0), peel_stamp=empty)
    src, dst, c, a = graph.src, graph.dst, ew.c, ew.a
    alpha = np.full(m, 0.5)  # fraction of each edge's weight routed to src

    def loads(al: np.ndarray) -> np.ndarray:
        r = a.copy()
        np.add.at(r, src, al * c)
        np.add.at(r, dst, (1.0 - al) * c)
        return r

    r = loads(alpha)
    for t in range(1, n_iters + 1):
        gamma = 2.0 / (t + 2.0)
        b = (r[src] < r[dst]).astype(np.float64)  # all weight to lighter side
        alpha = (1.0 - gamma) * alpha + gamma * b
        r = loads(alpha)

    # Extraction: order by load descending; evaluate every prefix density.
    order = np.argsort(-r, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    # edge joins the prefix when its later endpoint enters
    enter = np.maximum(pos[src], pos[dst])
    edge_w_at = np.zeros(n, dtype=np.float64)
    np.add.at(edge_w_at, enter, c)
    prefix_f = np.cumsum(a[order]) + np.cumsum(edge_w_at)
    prefix_g = prefix_f / np.arange(1, n + 1)
    best_k = int(np.argmax(prefix_g))
    # nothing leaves S while Frank–Wolfe iterates: every iteration leaves
    # g(V); the extraction pass then consumes the whole ranking
    log = WorkLog(n=n, m=m, g0=float(prefix_g[-1]))
    for _ in range(n_iters):
        log.add(scanned=n, updates=2 * m, peeled=0, g=log.g0)
    log.add(scanned=n, updates=m, peeled=n, phase="extract")
    best_set = np.sort(order[: best_k + 1])
    # stamp: prefix members "survive longest" (removed last)
    stamp = pos + 1  # removal order = reverse ranking, for API parity
    return PeelResult(
        best_set=best_set,
        best_density=float(prefix_g[best_k]),
        worklog=log,
        peel_stamp=stamp,
    )
