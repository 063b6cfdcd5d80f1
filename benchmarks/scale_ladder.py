"""Scale ladder: the Spark engine against the local engine on la x{1, 2, 4, 8}
and soc x{0.25, 1, 2}.

Run from the root of a checkout:

    python3 benchmarks/scale_ladder.py                      # la x1, x2, x4, x8
    python3 benchmarks/scale_ladder.py --scales 16 --driver-memory 6g

``--scales`` picks the la rungs, which run DupinLPO (ε = 0.1) with the
DW metric. The soc rungs, DupinGPO (ε = 0.1) with the triangle metric
TDS, are fixed and run after them every time. Each rung runs in a child
process of its own, so it starts a fresh JVM in the Spark session of
``detectbench/config.json`` (master, driver memory, SQL settings). The
child runs ``peel_spark`` twice, cold then warm, each on a copy of the
graph with no CSR or clique list cached, as a job that loads its input
pays. It then runs ``peel_local`` and fails unless both Spark runs gave
its stamps, its best density and its WorkLog: ``g0``, ``init_work`` and
every record, field for field. The densities (``best_density``, ``g0``
and each record's ``g``) may differ by a relative 1e-9, since the
engines sum floats in different orders.

The la x16 rung (608k vertices, 11.2M edges; a few minutes, ~2 GB in
the Python process) is the largest graph the machine holds and the
longest Spark tail before the handoff, so it is left out by default;
run it after any change to the handoff. Its first Spark step runs out
of heap in a 2 GB JVM, so it needs ``--driver-memory``. The script
prints one JSON object per rung: seconds and Spark jobs of each run,
the step it handed off after, the driver process's peak RSS over the
Spark runs (before the reference run) and the JVM's peak RSS.

The file name keeps pytest from collecting it.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCALES = (1, 2, 4, 8)  # la
SOC_SCALES = (0.25, 1, 2)


def _jobs(sc, fn):
    """``(fn(), number of Spark jobs it ran)``, counted in a job group."""
    group = f"ladder-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "scale ladder")
    try:
        res = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events are async
    return res, len(sc.statusTracker().getJobIdsForGroup(group))


def _mismatch(ref, res) -> str | None:
    """What differs between the reference run ``ref`` and the Spark run
    ``res``, or None; densities to a relative 1e-9."""
    import numpy as np

    a, b = ref.worklog, res.worklog
    top = max([abs(a.g0)] + [abs(r.g) for r in a.rounds])

    def close(x: float, y: float) -> bool:
        return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9 * top)

    if not np.array_equal(res.peel_stamp, ref.peel_stamp):
        return "stamps"
    if not close(ref.best_density, res.best_density):
        return "best_density"
    if not close(a.g0, b.g0) or a.init_work != b.init_work:
        return "g0 or init_work"
    if len(a.rounds) != len(b.rounds):
        return "step count"
    for s, (x, y) in enumerate(zip(a.rounds, b.rounds), start=1):
        if dataclasses.replace(y, g=x.g) != x or not close(x.g, y.g):
            return f"record of step {s}"
    return None


def rung(dataset: str, scale: float, driver_memory: str | None) -> dict:
    """One rung in this process: two Spark runs, then the reference."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "detectbench")]
    import session

    if driver_memory:
        session.CONFIG["driver_memory"] = driver_memory
    from repro.core import DW, TDS, LocalGraph, peel_local, peel_spark
    from repro.core.schedules import gpo, lpo
    from repro.graphgen import load_dataset

    metric, schedule = {"la": (DW, lpo(0.1)), "soc": (TDS, gpo(0.1))}[dataset]
    t0 = time.perf_counter()
    g = load_dataset(dataset, scale)
    out = {
        "dataset": dataset, "metric": metric.name, "schedule": schedule.name,
        "scale": scale, "n": g.n, "m": g.m, "gen_s": time.perf_counter() - t0,
        "driver_memory": session.CONFIG["driver_memory"],
    }

    def copy():
        return LocalGraph(g.n, g.src, g.dst, g.edge_weight, g.vertex_weight)

    work_dir = ROOT / ".bench_tmp" / f"ladder-{uuid.uuid4().hex[:8]}"
    runs = []
    try:
        spark = session.start(work_dir, event_log=False)
        try:
            for name in ("cold", "warm"):
                t0 = time.perf_counter()
                res, jobs = _jobs(
                    spark.sparkContext, lambda: peel_spark(spark, copy(), metric, schedule)
                )
                out[name] = {
                    "seconds": time.perf_counter() - t0,
                    "jobs": jobs,
                    "handoff": res.worklog.handoff,
                    "steps": len(res.worklog.rounds),
                }
                runs.append(res)
            out["driver_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            session.stop(spark)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out["jvm_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    t0 = time.perf_counter()
    ref = peel_local(copy(), metric, schedule)
    out["local_s"] = time.perf_counter() - t0
    for name, res in zip(("cold", "warm"), runs):
        if (what := _mismatch(ref, res)) is not None:
            raise RuntimeError(
                f"{dataset} x{scale} {name}: Spark {what} differs from peel_local's"
            )
    out["matches_local"] = True
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scales", type=float, nargs="+", default=DEFAULT_SCALES)
    p.add_argument("--driver-memory", help="the JVM heap, instead of config.json's")
    p.add_argument("--rung", nargs=2, help=argparse.SUPPRESS)  # child process
    args = p.parse_args(argv)
    if args.rung is not None:
        dataset, scale = args.rung
        print(json.dumps(rung(dataset, float(scale), args.driver_memory)), flush=True)
        return 0
    extra = ["--driver-memory", args.driver_memory] if args.driver_memory else []
    rungs = [("la", s) for s in args.scales] + [("soc", s) for s in SOC_SCALES]
    results = []
    for dataset, scale in rungs:
        child = subprocess.run(
            [sys.executable, __file__, "--rung", dataset, str(scale), *extra],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        results.append(json.loads(child.stdout.strip().splitlines()[-1]))
        print(json.dumps(results[-1]), flush=True)
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
