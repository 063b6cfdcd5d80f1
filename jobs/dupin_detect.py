"""Flagship job: run Dupin's Spark peeling engine on a dataset and emit
the detected (fraud) community as a DataFrame.

Usage: ``spark-submit jobs/dupin_detect.py [dataset] [scale] [metric] [eps]``
"""
from __future__ import annotations

import sys

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.core import by_name, peel_spark
from repro.core.schedules import lpo
from repro.graphgen import load_dataset


def run(
    spark: SparkSession,
    dataset: str = "gfg",
    scale: float = 0.25,
    metric_name: str = "DW",
    eps: float = 0.1,
) -> DataFrame:
    """Detect the densest community with DupinLPO on the Spark engine."""
    graph = load_dataset(dataset, scale)
    metric = by_name(metric_name)
    res = peel_spark(spark, graph, metric, lpo(eps))
    comm = graph.labels.get("fraud_community", np.full(graph.n, -1))
    best = res.best_set
    out = pa.table(
        {
            "vid": best,
            "fraud_community": comm[best],
            "density": np.full(best.size, res.best_density),
        }
    )
    # an Arrow table, so no Python worker reads the rows back
    return spark.createDataFrame(out, "vid long, fraud_community long, density double")


if __name__ == "__main__":
    args = sys.argv[1:]
    ds = args[0] if args else "gfg"
    sc = float(args[1]) if len(args) > 1 else 0.25
    mn = args[2] if len(args) > 2 else "DW"
    ep = float(args[3]) if len(args) > 3 else 0.1
    spark = (
        SparkSession.builder.appName("repro-dupin-detect")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    try:
        df = run(spark, ds, sc, mn, ep)
        df.show(50)
        print(f"detected community size: {df.count()}")
    finally:
        spark.stop()
