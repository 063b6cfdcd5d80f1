"""Spade stand-in: incremental sequential peeling on an evolving graph.

Spade (VLDB'23 / Spade+) maintains the sequential peeling *sequence* of
the current graph and, when a batch ΔG of edges arrives, reorders it from
the first affected rank onward. Its per-batch cost is therefore the
re-peel of the suffix starting at ``r0 = min rank(endpoints(ΔG))`` —
small for edges landing among early-peeled (benign) vertices, huge when
activity touches the dense tail (fraudsters), which is the paper's
explanation for Spade's latency on fraud-heavy batches.

This module reproduces both facets:

- ``spade_run``: final detection result (exact sequential peeling of the
  full graph — what incremental maintenance converges to) plus the
  span-bound cost of each batch under the suffix-re-peel model above.
  Table 5/6 report the average per-batch cost, matching the paper's
  measurement protocol (1K-edge batches).
- ``stale_weight_error``: for FD, Spade assumes static edge weights, but
  inserts change object degrees and hence ``1/log(deg+c)``; the resulting
  density drift is the case-study error the paper plots in Figure 12.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import LocalGraph, from_edges
from repro.core.local_engine import peel_local
from repro.core.metrics import FD, Metric, fd_edge_weight
from repro.core.schedules import PeelResult, sequential

BATCH_SIZE = 1_000


@dataclass
class SpadeResult:
    """Final peeling result + incremental per-batch work accounting."""

    result: PeelResult
    batch_work: list[float]  # sequential ops charged per batch

    @property
    def avg_batch_work(self) -> float:
        return float(np.mean(self.batch_work)) if self.batch_work else 0.0


def spade_run(
    graph: LocalGraph,
    metric: Metric,
    batch_size: int = BATCH_SIZE,
    n_batches: int = 16,
    seed: int = 7,
) -> SpadeResult:
    """Run the incremental protocol: peel once, then charge suffix re-peels.

    The last ``n_batches × batch_size`` edges (random arrival order) play
    the role of ΔG. The peeling sequence of the final graph gives each
    vertex a rank; a batch touching minimum rank ``r0`` forces a re-peel
    of every vertex ranked ≥ ``r0`` (cost: their count plus incident
    updates), which we charge as span-bound sequential work.
    """
    res = peel_local(graph, metric, sequential())
    if metric.kind == "clique":
        # Spade's initial triangle/k-clique counting is span-bound (the
        # paper's stated bottleneck) and re-lists rather than decrements.
        res.worklog.init_sequential += res.worklog.init_work * 15
        res.worklog.init_work = 0.0
    # rank = removal order (1-based stamps from the sequential engine)
    rank = res.peel_stamp.astype(np.int64)
    deg = graph.degrees()
    order = np.argsort(rank, kind="stable")
    # suffix_cost[r] = Σ_{v: rank(v) >= r} (1 + deg(v)) — via reverse cumsum
    costs = 1.0 + deg[order].astype(np.float64)
    suffix = np.concatenate([np.cumsum(costs[::-1])[::-1], [0.0]])

    rng = np.random.default_rng(seed)
    m = graph.m
    if m == 0:  # no edge can arrive, so no batch re-peels anything
        return SpadeResult(result=res, batch_work=[])
    n_batches = max(1, min(n_batches, m // max(batch_size, 1) or 1))
    batch_edges = rng.integers(0, m, size=(n_batches, max(1, batch_size)))
    batch_work: list[float] = []
    for b in range(n_batches):
        eids = batch_edges[b]
        touched = np.unique(
            np.concatenate([graph.src[eids], graph.dst[eids]])
        )
        r0 = int(rank[touched].min())
        batch_work.append(float(suffix[r0 - 1]))
    return SpadeResult(result=res, batch_work=batch_work)


def stale_weight_error(
    base: LocalGraph,
    inserted_src: np.ndarray,
    inserted_dst: np.ndarray,
    inserted_amount: np.ndarray,
) -> float:
    """Relative FD-density error from Spade's static-weight assumption.

    Builds the post-insertion graph twice: once with FD edge weights
    frozen at base-time degrees (Spade's view) and once recomputed on the
    true degrees. Returns ``|g_stale - g_true| / g_true`` for the densest
    subgraph under the true weights.
    """
    n = base.n
    new = from_edges(
        n,
        np.concatenate([base.src, inserted_src]),
        np.concatenate([base.dst, inserted_dst]),
        np.concatenate([base.edge_weight, inserted_amount]),
        vertex_weight=base.vertex_weight,
    )

    def fd_density(best: np.ndarray, deg: np.ndarray) -> float:
        mask = np.zeros(n, dtype=bool)
        mask[best] = True
        inside = mask[new.src] & mask[new.dst]
        c = fd_edge_weight(new, deg)
        f = float(new.vertex_weight[best].sum() + c[inside].sum())
        return f / best.size if best.size else 0.0

    true_res = peel_local(new, FD, sequential())
    best = true_res.best_set
    g_true = fd_density(best, new.degrees())
    g_stale = fd_density(best, np.maximum(base.degrees(), 1))
    return abs(g_stale - g_true) / g_true if g_true > 0 else 0.0
