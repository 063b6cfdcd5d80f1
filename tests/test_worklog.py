"""Tests for the work/span log."""
from repro.core.worklog import RoundRecord, WorkLog


def test_round_record_work():
    r = RoundRecord(scanned=10, updates=5, peeled=2)
    assert r.work == 15
    assert r.phase == "peel"
    assert not r.sequential and not r.bucket


def test_add_and_counters():
    log = WorkLog(n=10, m=20)
    log.add(5, 3, 1)
    log.add(4, 2, 1, phase="trim", bucket=True)
    log.add(3, 1, 1, sequential=True)
    assert len(log.rounds) == 3
    assert log.total_work == 5 + 3 + 4 + 2 + 3 + 1


def test_total_work_includes_init():
    log = WorkLog(n=1, m=1, init_work=100.0, init_sequential=50.0)
    log.add(1, 1, 1)
    assert log.total_work == 152.0


def test_phases_recorded():
    log = WorkLog(n=1, m=1)
    log.add(1, 0, 1, phase="trim")
    assert log.rounds[0].phase == "trim"
