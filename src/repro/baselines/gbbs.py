"""GBBS stand-in: bucket-based parallel peeling (Dhulipala et al.).

GBBS peels one *bucket* per round — all vertices sharing the minimum
peeling weight. On unweighted graphs (DG) buckets are large; on weighted
graphs (DW/FD) buckets degenerate to near-singletons, which is exactly
the parallelism collapse the paper reports. The paper's GBBS runs import
precomputed weights for DW/FD; our bucket schedule consumes the metric's
weights directly, which is equivalent and excludes the same preprocessing
from the measured schedule.
"""
from __future__ import annotations

from repro.core.graph import LocalGraph
from repro.core.local_engine import peel_local
from repro.core.metrics import Metric
from repro.core.schedules import PeelResult, bucket


def gbbs_run(graph: LocalGraph, metric: Metric) -> PeelResult:
    """Bucket peeling for edge metrics (GBBS supports DG/DW/FD)."""
    if metric.kind != "edge":
        raise ValueError("GBBS does not support clique metrics (Table 2)")
    return peel_local(graph, metric, bucket())
