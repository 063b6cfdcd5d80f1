"""ALENEX'24 stand-in: near-optimal parallel densest subgraph.

Sukprasert et al. run threshold peeling at a very small ε with extra
per-round ordering machinery to approach the exact greedy sequence. We
model it with the ``alenex`` schedule: ε = 0.01 threshold peeling whose
rounds carry an additional ``n·log₂ n`` ordering charge. The density it
finds is near-greedy (matching Table 7, where ALENEX ties GBBS), and the
large round count makes it slower than GBBS but far faster than FWA
(matching Table 5).
"""
from __future__ import annotations

import numpy as np

from repro.core.graph import LocalGraph
from repro.core.local_engine import peel_local
from repro.core.metrics import Metric
from repro.core.schedules import PeelResult, alenex


def alenex_run(graph: LocalGraph, metric: Metric, eps: float = 0.01) -> PeelResult:
    """Near-optimal parallel peeling for edge metrics."""
    if metric.kind != "edge":
        raise ValueError("ALENEX supports DG/DW/FD (Table 2)")
    res = peel_local(graph, metric, alenex(eps))
    sort = int(graph.n * np.log2(max(graph.n, 2)) + graph.m)  # re-sort + edge pass
    for r in res.worklog.rounds:
        if r.phase == "peel":
            r.scanned += sort
    return res
