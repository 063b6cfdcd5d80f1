"""PKMC stand-in: core-decomposition-style densest-subgraph discovery.

Luo et al. (ICDE'23) approximate DSD through scalable (k,Ψ)-core style
decompositions. We model the family's essential behaviour: sweep a grid
of weight levels λ; at each level, repeatedly strip every vertex with
peeling weight ≤ λ until stable (a generalized core), and snapshot the
density only at level boundaries. The coarse snapshot granularity is why
PKMC's densities trail the greedy peelers (Table 7), and the many
strip-rounds per level are why it is slower than GBBS (Table 5).
"""
from __future__ import annotations

import numpy as np

from repro.core.graph import LocalGraph
from repro.core.local_engine import _Scan, make_state, start_log
from repro.core.metrics import Metric
from repro.core.schedules import TOL, PeelResult

N_LEVELS = 32


def pkmc_run(graph: LocalGraph, metric: Metric, n_levels: int = N_LEVELS) -> PeelResult:
    """λ-grid core sweep; returns the densest core-boundary snapshot."""
    state = make_state(graph, metric)
    sel = _Scan(state, np.zeros(graph.n, dtype=np.int64))
    log = start_log(graph, state)
    step = 0
    log.g0 = best_g = sel.g
    best_step = 0
    # λ grid over the initial weight distribution (quantiles, ascending)
    levels = np.linspace(0.0, 1.0, n_levels + 1)[1:]
    grid = np.unique(np.quantile(state.w, levels)) if graph.n else []
    for lam in grid:
        while sel.n:
            n_batch, _, updates = sel.remove(step + 1, le=lam + TOL)
            if n_batch == 0:
                break
            step += 1
            # PKMC recomputes the core structure each strip round: charge
            # a full edge pass on top of the vertex scan.
            log.add(sel.n + n_batch + graph.m, updates, n_batch, g=sel.g)
        if sel.n == 0:
            break
        # snapshot only at the stabilized core boundary (the coarse step)
        if sel.g > best_g + TOL:
            best_g, best_step = sel.g, step
    stamp = sel.stamps()
    best_set = np.flatnonzero((stamp > best_step) | (stamp == 0))
    return PeelResult(
        best_set=best_set, best_density=best_g, worklog=log, peel_stamp=stamp
    )
