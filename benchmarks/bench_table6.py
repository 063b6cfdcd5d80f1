"""Benchmark + reproduction harness for Table 6 (runtime, TDS/kCLiDS)."""
from repro.experiments import write_table
from repro.experiments.tables import CLIQUE_METRICS, table6


def test_bench_table6(benchmark):
    rows = benchmark.pedantic(lambda: table6(scale=0.25), rounds=1, iterations=1)
    write_table("table6", rows)
    for ds in {r["Dataset"] for r in rows}:
        sub = {r["Method"]: r for r in rows if r["Dataset"] == ds}
        for m in CLIQUE_METRICS:
            d = sub["Dupin"][m]
            if d == "TLE":
                continue
            # Dupin at least matches every completing competitor
            for sysname, row in sub.items():
                v = row[m]
                assert v == "TLE" or float(v) >= float(d) * 0.9