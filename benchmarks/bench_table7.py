"""Benchmark + reproduction harness for Table 7 (density, DG/DW/FD)."""
from repro.experiments import write_table
from repro.experiments.tables import EDGE_METRICS, table7


def test_bench_table7(benchmark):
    rows = benchmark.pedantic(lambda: table7(scale=1.0), rounds=1, iterations=1)
    write_table("table7", rows)
    for ds in {r["Dataset"] for r in rows}:
        sub = {r["Method"]: r for r in rows if r["Dataset"] == ds}
        for m in EDGE_METRICS:
            # Dupin trades bounded density for speed (within 25% of GBBS)
            assert float(sub["Dupin"][m]) >= 0.75 * float(sub["GBBS"][m])