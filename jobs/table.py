"""spark-submit entrypoint reproducing one of the paper's Tables 2–10.

Usage: ``spark-submit jobs/table.py table5`` — prints the table and writes
``results/table5.md``. The harness behind ``tableN`` is
``repro.experiments.tables.tableN``; see DESIGN.md §6 for the mapping.
"""
from __future__ import annotations

import sys

from pyspark.sql import DataFrame, SparkSession

from repro.experiments import tables

NAMES = tuple(f"table{i}" for i in range(2, 11))


def rows_to_df(spark: SparkSession, rows: list[dict]) -> DataFrame:
    """List-of-dicts (table harness output) -> Spark DataFrame, with every
    value stringified so mixed TLE/number columns keep one type."""
    cols = list(rows[0].keys()) if rows else ["empty"]
    data = [tuple(str(r.get(c, "")) for c in cols) for r in rows]
    return spark.createDataFrame(data, schema=cols)


def _harness(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown table {name!r}; expected one of {NAMES}")
    return getattr(tables, name)


def run(spark: SparkSession, name: str) -> DataFrame:
    """Build the rows of table ``name`` (e.g. ``"table5"``) as a Spark
    DataFrame."""
    return rows_to_df(spark, _harness(name)())


def main(name: str) -> None:
    """Build the session, write ``results/<name>.md`` and show the table."""
    from repro.experiments.io import write_table

    harness = _harness(name)
    spark = (
        SparkSession.builder.appName(f"repro-{name}")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    try:
        rows = harness()
        md = write_table(name, rows)
        print(md, file=sys.stderr)
        rows_to_df(spark, rows).show(100, truncate=False)
    finally:
        spark.stop()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: spark-submit jobs/table.py {{{','.join(NAMES)}}}")
    main(sys.argv[1])
