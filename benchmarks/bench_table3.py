"""Benchmark + reproduction harness for Table 3 (GPO/LPO round impact).

Regenerates ``results/table3.md``; the pytest-benchmark timing is the
wall-clock of the full three-schedule sweep on the la analogue.
"""
from repro.experiments import write_table
from repro.experiments.tables import table3


def test_bench_table3(benchmark):
    rows = benchmark.pedantic(
        lambda: table3(dataset="la", scale=1.0), rounds=1, iterations=1
    )
    write_table("table3", rows)
    by = {r["Metric"]: r for r in rows}
    # paper-shape assertions: DW longest tail; LPO large reductions
    assert by["DW"]["Rounds without GPO"] > by["DG"]["Rounds without GPO"]
    for r in rows:
        assert r["Rounds with GPO"] <= r["Rounds without GPO"]
        assert r["% Reduction (LPO)"] > 50.0
    benchmark.extra_info["rounds_without_gpo"] = {
        m: by[m]["Rounds without GPO"] for m in by
    }
