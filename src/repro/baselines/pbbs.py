"""PBBS stand-in: parallel bucketed clique peeling (Shi et al.).

Same bucket schedule as GBBS but over clique peeling weights (TDS /
kCLiDS). Clique-count buckets are numerous and per-round clique updates
are expensive, which is why the paper reports TLEs on billion-scale
graphs — the simmachine extrapolation reproduces that blow-up.
"""
from __future__ import annotations

from repro.core.graph import LocalGraph
from repro.core.local_engine import peel_local
from repro.core.metrics import Metric
from repro.core.schedules import PeelResult, bucket


# PBBS's bucketed clique peeling recomputes counts over the frontier's
# neighbourhoods every round rather than decrementing memberships — a
# large constant-factor blow-up (calibrated against Table 6's PBBS rows).
RECOUNT_FACTOR = 150


def pbbs_run(graph: LocalGraph, metric: Metric) -> PeelResult:
    """Bucketed clique peeling for TDS/kCLiDS."""
    if metric.kind != "clique":
        raise ValueError("PBBS is a clique-peeling system (Table 2)")
    res = peel_local(graph, metric, bucket())
    for r in res.worklog.rounds:
        r.updates *= RECOUNT_FACTOR
    return res
