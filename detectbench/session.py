"""Start and stop the pinned Spark session the Spark workloads run on.

The settings live in ``config.json`` beside this file. Driver memory and
the master are read when the JVM starts, so they go into
``PYSPARK_SUBMIT_ARGS`` before the first session is built. Every file
Spark or the JVM writes lands under ``work_dir``, inside the checkout;
``-XX:-UsePerfData`` stops the JVM's counters file, which ignores the
temp dir setting.
"""
from __future__ import annotations

import json
import os
import shlex
import subprocess
from pathlib import Path

CONFIG = json.loads((Path(__file__).parent / "config.json").read_text())


def master() -> str:
    """``local[N]`` with N the pinned thread count, capped at the CPUs
    this process may run on."""
    n = min(CONFIG["master_threads"], len(os.sched_getaffinity(0)))
    return f"local[{n}]"


def start(work_dir: Path, event_log: bool):
    """Build the session; with ``event_log`` every job is written to
    ``work_dir/eventlog`` as one uncompressed JSON-lines file."""
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(work_dir / "local")
    os.environ["TMPDIR"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM spark-submit runs first
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master()} --driver-memory {CONFIG['driver_memory']} "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("detectbench")
    conf = dict(CONFIG["spark_conf"])
    conf["spark.local.dir"] = str(work_dir / "local")
    if event_log:
        log_dir = work_dir / "eventlog"
        log_dir.mkdir(parents=True, exist_ok=True)
        conf.update(CONFIG["trace_conf"])
        conf["spark.eventLog.dir"] = log_dir.resolve().as_uri()
    for key, value in conf.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session, then the JVM it runs in, and wait for the JVM
    to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is None:
        return
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
