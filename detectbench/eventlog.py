"""Attribute Spark work to job groups by reading the event log.

Each traced layer call runs under its own job group
(``SparkContext.setJobGroup``). A job's start event carries that group in
its properties and lists its stages; stage and task events name their
stage. So every completed stage and task, with its shuffle bytes and run
time, can be charged to the group of the job that submitted it.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

COUNTS = ("jobs", "stages", "tasks", "shuffle_write_bytes", "shuffle_read_bytes")

_WANTED = (
    "SparkListenerJobStart",
    "SparkListenerJobEnd",
    "SparkListenerStageCompleted",
    "SparkListenerTaskEnd",
)


def log_file(log_dir: Path) -> Path:
    """The single finished log of a stopped session in ``log_dir``."""
    files = [
        p for p in log_dir.iterdir()
        if p.is_file() and not p.name.endswith(".inprogress")
    ]
    if len(files) != 1:
        raise RuntimeError(f"expected one finished event log in {log_dir}, found {files}")
    return files[0]


def per_group(path: Path) -> dict[str, Counter]:
    """``group -> Counter`` of jobs, completed stages, finished tasks,
    shuffle bytes written and read, task run time (``executor_run_ms``)
    and summed job durations (``job_wall_ms``)."""
    groups: dict[str, Counter] = defaultdict(Counter)
    stage_group: dict[int, str] = {}
    job_start: dict[int, tuple[str, int]] = {}
    with path.open() as f:
        for line in f:
            head = line[:48]
            if not any(w in head for w in _WANTED):
                continue
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id", "")
                for sid in ev["Stage IDs"]:
                    stage_group[sid] = group
                job_start[ev["Job ID"]] = (group, ev["Submission Time"])
                groups[group]["jobs"] += 1
            elif kind == "SparkListenerJobEnd":
                group, t0 = job_start[ev["Job ID"]]
                groups[group]["job_wall_ms"] += ev["Completion Time"] - t0
            elif kind == "SparkListenerStageCompleted":
                groups[stage_group[ev["Stage Info"]["Stage ID"]]]["stages"] += 1
            else:
                c = groups[stage_group[ev["Stage ID"]]]
                m = ev.get("Task Metrics") or {}
                read = m.get("Shuffle Read Metrics") or {}
                c["tasks"] += 1
                c["executor_run_ms"] += m.get("Executor Run Time", 0)
                c["shuffle_write_bytes"] += (
                    m.get("Shuffle Write Metrics") or {}
                ).get("Shuffle Bytes Written", 0)
                c["shuffle_read_bytes"] += read.get("Remote Bytes Read", 0) + read.get(
                    "Local Bytes Read", 0
                )
    return dict(groups)
