"""Benchmark + reproduction harness for Table 10 (X5650 vs EPYC 7742)."""
from repro.experiments import write_table
from repro.experiments.tables import table10


def test_bench_table10(benchmark):
    rows = benchmark.pedantic(lambda: table10(scale=1.0), rounds=1, iterations=1)
    write_table("table10", rows)
    by = {r["System"]: r for r in rows}

    def speedup(system, metric):
        x, e = by[system][f"{metric} X5650"], by[system][f"{metric} EPYC"]
        if x in ("-", "TLE") or e in ("-", "TLE"):
            return None
        return float(x) / float(e)

    # paper shape: Dupin scales ~2x on modern hardware, Spade barely
    assert speedup("Dupin", "DG") > 1.8
    assert speedup("Spade", "DG") < 1.3
    assert speedup("Dupin", "DG") > speedup("Spade", "DG")