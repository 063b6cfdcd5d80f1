"""Tests for the spark-submit job wrappers."""
from pathlib import Path

import numpy as np
import pytest

from jobs import dupin_detect, table
from jobs.table import rows_to_df


def test_rows_to_df_stringifies_mixed_columns(spark):
    rows = [{"a": 1, "b": "TLE"}, {"a": 2.5, "b": "0.12"}]
    df = rows_to_df(spark, rows)
    assert df.columns == ["a", "b"]
    got = [tuple(r) for r in df.collect()]
    assert got == [("1", "TLE"), ("2.5", "0.12")]


def test_table2_job_run(spark):
    df = table.run(spark, "table2")
    assert df.count() == 8
    assert "System" in df.columns


def test_table_job_rejects_unknown_name(spark):
    with pytest.raises(ValueError, match="table1"):
        table.run(spark, "table1")


@pytest.mark.parametrize("name", table.NAMES)
def test_table_job_writes_the_committed_title(tmp_path, monkeypatch, name):
    """The job's ``write_table(name, rows)`` heads ``results/<name>.md``
    as the committed file is headed, so running the job after the
    benchmark that wrote the file changes no title."""
    import repro.experiments.io as io

    committed = Path(io.RESULTS_DIR) / f"{name}.md"
    monkeypatch.setattr(io, "RESULTS_DIR", str(tmp_path))
    md = io.write_table(name, [])
    assert md.splitlines()[0] == committed.read_text().splitlines()[0]


def test_dupin_detect_job(spark):
    df = dupin_detect.run(spark, dataset="gfg", scale=0.1, metric_name="DW")
    rows = df.collect()
    assert len(rows) > 0
    assert {"vid", "fraud_community", "density"} <= set(df.columns)
    assert df.schema.simpleString() == (
        "struct<vid:bigint,fraud_community:bigint,density:double>"
    )
    dens = {r["density"] for r in rows}
    assert len(dens) == 1 and dens.pop() > 0


def test_dupin_detect_flags_fraud_block(spark):
    """The end-to-end Spark job should surface the planted fraud block."""
    from repro.graphgen import load_dataset

    g = load_dataset("gfg", 0.1)
    df = dupin_detect.run(spark, dataset="gfg", scale=0.1, metric_name="DW")
    found = {r["vid"] for r in df.collect()}
    comm = g.labels["fraud_community"]
    planted = set(np.flatnonzero(comm >= 0).tolist())
    # the detected dense community is dominated by planted fraud vertices
    assert len(found & planted) / len(found) >= 0.6
