"""Benchmark for Table 4 (dataset generation at benchmark scale)."""
from repro.experiments import write_table
from repro.experiments.tables import table4


def test_bench_table4(benchmark):
    rows = benchmark.pedantic(lambda: table4(scale=1.0), rounds=1, iterations=1)
    write_table("table4", rows)
    assert len(rows) == 8
