"""kCLIST stand-in: parallel clique listing + sequential clique peeling.

kCLIST (Danisch et al.) parallelizes the *listing* of k-cliques but peels
one minimum-count vertex at a time. Our clique enumeration substrate
plays the listing role (its cost lands in ``worklog.init_work``, which is
parallelizable); the peel itself is the sequential schedule, whose rounds
are span-bound — the bottleneck the paper exploits.
"""
from __future__ import annotations

from repro.core.graph import LocalGraph
from repro.core.local_engine import peel_local
from repro.core.metrics import Metric
from repro.core.schedules import PeelResult, sequential


# kCLIST re-lists cliques around each removed vertex instead of keeping
# incremental membership counters: a constant-factor work blow-up over our
# decrement-based substrate (calibrated against Table 6; EXPERIMENTS.md).
RELIST_FACTOR = 8


def kclist_run(graph: LocalGraph, metric: Metric) -> PeelResult:
    """Sequential clique peeling for TDS/kCLiDS after parallel listing."""
    if metric.kind != "clique":
        raise ValueError("kCLIST handles clique metrics only (Table 2)")
    res = peel_local(graph, metric, sequential())
    for r in res.worklog.rounds:
        r.updates *= RELIST_FACTOR
    return res
