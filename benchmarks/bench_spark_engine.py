"""Wall-clock benchmarks of the Spark DataFrame peeling engine itself.

The table benches price *schedules* through the machine simulator; this
bench records what the actual distributed dataflow costs on the local
Spark session (gfg analogue at reduced scale). A run is the engine's
set-up (no Spark job for DW: the driver ships the initial state), then
one checkpoint job per Spark step until the alive message rows fall to
a quarter of the set-up rows, then the rest of the run on the driver's
local engine. The local reference engine is benchmarked alongside for the dataflow-overhead ratio,
recorded in extra_info.
"""
import time

from repro.core import DW, peel_local, peel_spark
from repro.core.schedules import gpo
from repro.graphgen import load_dataset


def test_bench_spark_peeling_gfg(benchmark, spark):
    graph = load_dataset("gfg", 0.25)

    def run():
        return peel_spark(spark, graph, DW, gpo(0.1))

    # warm-up outside the measured run (JVM/codegen caches)
    res = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    t0 = time.perf_counter()
    local = peel_local(graph, DW, gpo(0.1))
    local_s = time.perf_counter() - t0
    assert abs(res.best_density - local.best_density) < 1e-6
    benchmark.extra_info["rounds"] = res.n_rounds
    benchmark.extra_info["local_engine_s"] = round(local_s, 4)


def test_bench_local_engine_la(benchmark):
    graph = load_dataset("la", 1.0)
    res = benchmark.pedantic(
        lambda: peel_local(graph, DW, gpo(0.1)), rounds=1, iterations=1
    )
    assert res.best_density > 0
    benchmark.extra_info["rounds"] = res.n_rounds
