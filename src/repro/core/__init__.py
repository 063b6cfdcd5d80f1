"""Dupin's core: density metrics, peeling schedules, and the two engines.

See DESIGN.md §2 — the paper's contribution is the *schedule* (which
vertices peel each round); one audited engine pair (Spark DataFrame jobs
and a NumPy reference) executes every schedule for every metric.
"""
from repro.core.api import Dupin
from repro.core.graph import LocalGraph, from_edges
from repro.core.local_engine import peel_local
from repro.core.metrics import DG, DW, FD, TDS, by_name, custom_metric, kclids
from repro.core.schedules import (
    PeelResult,
    Schedule,
    alenex,
    bucket,
    dupin,
    gpo,
    lpo,
    sequential,
)

__all__ = [
    "Dupin",
    "LocalGraph",
    "from_edges",
    "PeelResult",
    "peel_local",
    "peel_spark",
    "DG",
    "DW",
    "FD",
    "TDS",
    "by_name",
    "custom_metric",
    "kclids",
    "Schedule",
    "sequential",
    "dupin",
    "gpo",
    "lpo",
    "bucket",
    "alenex",
]


def __getattr__(name):
    # peel_spark imports pyspark, so only on first use
    if name == "peel_spark":
        from repro.core.spark_engine import peel_spark

        return peel_spark
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
