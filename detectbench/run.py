"""Detection-latency benchmark of the Dupin reproduction.

Run from the root of a checkout:

    python3 detectbench/run.py --workload gfg-dw --seed 1 --seconds 10 --trace 0

It sets up the workload (Spark session, input graph, reference result),
runs detections in a closed loop for ``--seconds`` (at least one, at
least two when traced), checks every detection's output, and prints one
JSON object as the last line of stdout. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
per-layer ones, from spans around each layer call and the Spark event
log. Everything it writes goes under ``.bench_tmp/`` in the checkout and
is removed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # graph generation and reference run, median taken


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(f"[detectbench] {msg}", file=sys.stderr, flush=True)


def run(wl, seconds: float, trace: bool, work_dir: Path):
    """Set up, measure, check; returns (attempted, failed, count drift,
    end-to-end values, per-layer values)."""
    import session
    from tracer import Tracer

    t0 = time.perf_counter()
    spark = session.start(work_dir, event_log=trace) if wl.uses_spark else None
    session_s = time.perf_counter() - t0
    try:
        preps = [wl.prepare() for _ in range(SETUP_REPEATS)]
        prep = {k: statistics.median(p[k] for p in preps) for k in preps[0]}
        setup_s = session_s + sum(prep.values())
        log(f"setup {setup_s:.3f}s: session {session_s:.3f}s, {prep}")

        tr = Tracer(trace, spark.sparkContext if spark is not None else None)
        ok_s, all_s, failed = [], [], 0
        min_detections = 2 if trace else 1
        t_end = time.perf_counter() + seconds
        while len(all_s) < min_detections or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            try:
                with tr.span("detect"):
                    problems = wl.detect(spark, tr)
            except Exception:  # a failed detection is counted, not fatal
                problems = [traceback.format_exc()]
            dt = time.perf_counter() - t0
            all_s.append(dt)
            if problems:
                failed += 1
                log(f"detection {len(all_s)} failed its check: {problems}")
            else:
                ok_s.append(dt)
        log(f"{len(all_s)} detections, seconds: {[round(x, 4) for x in all_s]}")
        if trace:
            wl.layers(spark, tr)
    finally:
        if spark is not None:
            session.stop(spark)

    attempted = len(all_s)
    e2e = {
        "detect_s": statistics.median(ok_s or all_s),
        "setup_s": setup_s,
        "best_density": float(wl.density),
        "success_frac": (attempted - failed) / attempted,
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer, drift = {}, []
    if trace:
        import eventlog

        groups = {}
        if wl.uses_spark:
            groups = eventlog.per_group(eventlog.log_file(work_dir / "eventlog"))
        layer, drift = wl.per_layer(tr, groups, prep)
        layer["trace.detect_s"] = tr.named("detect")[0].seconds
    return attempted, failed, drift, e2e, layer


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in ("src/repro/core/spark_engine.py", "jobs/dupin_detect.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            log(f"{needed} is missing: run from the root of a full checkout")
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    work_dir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        attempted, failed, drift, e2e, layer = run(
            wl, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for d in drift:
        log(d)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    print(
        json.dumps(
            {
                "correct": failed == 0 and not drift,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
