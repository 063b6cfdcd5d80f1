"""Benchmark + reproduction harness for Table 5 (runtime, DG/DW/FD,
all 8 datasets × 6 systems; simulated seconds at paper scale)."""
from repro.experiments import write_table
from repro.experiments.tables import EDGE_METRICS, table5
from repro.simmachine import TIME_LIMIT_S


def test_bench_table5(benchmark):
    rows = benchmark.pedantic(lambda: table5(scale=1.0), rounds=1, iterations=1)
    write_table("table5", rows)
    # paper shape: Dupin is the fastest system on every dataset/metric
    for ds in {r["Dataset"] for r in rows}:
        sub = {r["Method"]: r for r in rows if r["Dataset"] == ds}
        for m in EDGE_METRICS:
            d = float(sub["Dupin"][m])
            assert d < TIME_LIMIT_S
            for sysname, row in sub.items():
                if sysname in ("Dupin", "GBBS"):
                    continue  # GBBS-DG can tie Dupin-DG (see EXPERIMENTS.md)
                v = row[m]
                assert v == "TLE" or float(v) >= d * 0.9
