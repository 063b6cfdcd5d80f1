"""Benchmark + reproduction harness for Table 9 (latency vs prevention)."""
from repro.experiments import write_table
from repro.experiments.tables import table9


def _pct(row, m):
    v = row[f"{m} R"]
    return float(v.rstrip("%")) if v not in ("TLE", "-") else -1.0


def test_bench_table9(benchmark):
    rows = benchmark.pedantic(table9, rounds=1, iterations=1)
    write_table("table9", rows)
    by = {r["Method"]: r for r in rows}
    # headline: Dupin prevents the most fraud under the FD production metric
    assert _pct(by["Dupin"], "FD") > 80.0
    assert _pct(by["Dupin"], "FD") > _pct(by["Spade"], "FD") > _pct(by["GBBS"], "FD")