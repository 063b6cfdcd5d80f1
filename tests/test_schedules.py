"""Tests for the schedule descriptors and the peeling driver."""
import math

import numpy as np
import pytest

from repro.core import DG, DW, FD, TDS, from_edges, kclids, local_engine, peel_local
from repro.core.schedules import (
    TOL,
    Schedule,
    alenex,
    bucket,
    bucket_gpo,
    bucket_lpo,
    dupin,
    gpo,
    lpo,
    peel,
    sequential,
)
from repro.core.worklog import WorkLog


def test_sequential_descriptor():
    s = sequential()
    assert s.mode == "sequential" and not s.gpo and not s.lpo


def test_dupin_eps_flows_through():
    assert dupin(0.25).eps == 0.25
    assert dupin().eps == 0.1


def test_gpo_implies_global_threshold_only():
    s = gpo(0.2)
    assert s.gpo and not s.lpo and s.mode == "threshold"


def test_lpo_implies_gpo():
    """Algorithm 4 includes the τ_max refinement of Algorithm 3."""
    s = lpo()
    assert s.gpo and s.lpo


def test_bucket_variants():
    assert bucket().mode == "bucket" and not bucket().gpo
    assert bucket_gpo().gpo and not bucket_gpo().lpo
    assert bucket_lpo().gpo and bucket_lpo().lpo


def test_alenex_charges_sort():
    assert alenex().eps == 0.01


def test_schedules_are_frozen():
    with pytest.raises(AttributeError):
        dupin().eps = 0.5


def test_schedule_names_distinct():
    names = {
        s.name
        for s in (sequential(), dupin(), gpo(), lpo(), bucket(),
                  bucket_gpo(), bucket_lpo(), alenex())
    }
    assert len(names) == 8


def test_custom_schedule_constructible():
    s = Schedule("mine", "threshold", eps=0.3, gpo=True)
    assert s.name == "mine" and s.eps == 0.3


class _StuckState:
    """Two alive vertices that no ``remove`` ever stamps."""

    n, g = 2, 1.0

    def lo(self):
        return 1.0, 0

    def hi(self):
        return 1.0

    def remove(self, step, le=None, vid=None, tail=None):
        return 0, 0, 0

    def stamps(self):
        return np.zeros(2, dtype=np.int64)


@pytest.mark.parametrize("sched", [sequential(), dupin(0.1), bucket()],
                         ids=lambda s: s.name)
def test_peel_raises_when_a_step_removes_nothing(sched):
    """The driver bounds every run at n steps: a step that stamps no
    vertex is an engine fault, not a reason to loop forever."""
    with pytest.raises(RuntimeError, match="removed no vertex"):
        peel(_StuckState(), sched, 2, WorkLog(n=2, m=1))


def _random_graph(seed=0, n=30, m=120):
    rng = np.random.default_rng(seed)
    return from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                      rng.random(m) * 3 + 0.1, vertex_weight=rng.random(n))


def _core_with_leaves(seed=0):
    """A 10-clique core with 30 light leaves: bucket GPO takes the leaves
    as a long tail, and bucket LPO trims them."""
    rng = np.random.default_rng(seed)
    cs, cd = np.triu_indices(10, 1)
    return from_edges(
        40, np.concatenate([cs, np.arange(10, 40)]),
        np.concatenate([cd, rng.integers(0, 10, 30)]),
        np.concatenate([rng.uniform(2, 4, cs.size), rng.uniform(0.5, 1.4, 30)]),
    )


_SMALL = {
    "ex21": from_edges(6, [0, 1, 2, 2, 2, 3, 3], [1, 2, 3, 4, 5, 4, 5],
                       [1.0, 2.0, 1.0, 2.5, 2.5, 2.5, 2.5]),
    "k5": from_edges(5, *np.triu_indices(5, 1)),
    "random30": _random_graph(),
    "core_leaves": _core_with_leaves(),
    # vertex 1 falls from 5 + 1e-12 to 5.0 in step 1, so the bucket heap
    # holds a stale entry for it next to its valid one in step 2
    "tiny_edge": from_edges(4, [0, 1, 2], [1, 2, 3], [1e-12, 5.0, 5.0]),
}


@pytest.mark.parametrize("sched", [dupin(0.1), gpo(0.1), lpo(0.1), bucket(),
                                   bucket_gpo(0.1), bucket_lpo(0.1)],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("metric", [DG, DW, FD, TDS, kclids(4)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("name", list(_SMALL))
def test_trace_accounts_for_every_vertex(name, metric, sched):
    """The WorkLog trace is the run: its records peel every vertex once,
    its densities end at the empty set, and the GPO/LPO views count
    nothing for schedules without GPO/LPO."""
    g = _SMALL[name]
    r = peel_local(g, metric, sched)
    assert sum(x.peeled for x in r.worklog.rounds) == g.n
    assert (r.peel_stamp > 0).all()
    assert r.densities[-1] == 0
    if not sched.gpo:
        assert r.long_tail_peeled == 0
    if not sched.lpo:
        assert r.sparse_trimmed == 0


class _Recording(local_engine._Scan):
    """A threshold state that records each ``remove``'s ``le`` with the
    density the driver read just before it."""

    def __init__(self, state, stamp):
        super().__init__(state, stamp)
        self.calls = []

    def remove(self, step, le=None, vid=None, tail=math.inf):
        self.calls.append((le, self.g))
        return super().remove(step, le=le, vid=vid, tail=tail)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lpo_trim_bound_is_the_float_below_tau2(seed):
    """An LPO trim asks for ``w <= le`` with ``le`` the largest float
    below ``τ₂ - TOL``: the same set as the strict ``w < τ₂ - TOL``."""
    g, sched = _random_graph(seed, n=60, m=300), lpo(0.1)
    state = local_engine.make_state(g, DW)
    sel = _Recording(state, np.zeros(g.n, dtype=np.int64))
    log = WorkLog(n=g.n, m=g.m)
    peel(sel, sched, DW.k, log)
    factor, tau_max, trims = DW.k * (1 + sched.eps), 0.0, 0
    for (le, gv), r in zip(sel.calls, log.rounds, strict=True):
        if r.phase == "peel":
            tau_max = max(tau_max, gv / factor)
            continue
        tau2 = max(tau_max, gv)
        assert le < tau2 - TOL
        assert np.nextafter(le, np.inf) == tau2 - TOL
        trims += 1
    assert trims > 0


@pytest.mark.parametrize("batch", [[], [1], [0], [3, 0, 2], [4, 1, 3, 0, 2]])
def test_slots_match_per_vertex_ranges(batch):
    """The vectorised CSR slots equal the concatenated per-vertex ranges,
    empty ranges and empty batches included."""
    ptr = np.array([0, 2, 2, 5, 9, 10], dtype=np.int64)
    batch = np.array(batch, dtype=np.int64)
    want = [i for v in batch for i in range(ptr[v], ptr[v + 1])]
    assert local_engine._slots(ptr, batch).tolist() == want


def _trace(r):
    return r.peel_stamp.tolist(), [
        (x.scanned, x.updates, x.peeled, x.phase, x.g, x.tail)
        for x in r.worklog.rounds
    ]


@pytest.mark.parametrize("frontier", [1, 10**9], ids=["K1", "Kall"])
@pytest.mark.parametrize("sched", [sequential(), bucket(), bucket_gpo(0.1),
                                   bucket_lpo(0.1)], ids=lambda s: s.name)
@pytest.mark.parametrize("metric", [DG, DW, FD, TDS, kclids(4)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("name", list(_SMALL))
def test_heap_frontier_size_does_not_change_the_run(monkeypatch, name, metric,
                                                    sched, frontier):
    """The bucket heap's frontier decides which entries exist, never which
    vertex a step takes: a frontier of one vertex, or of every vertex,
    gives the default's stamps and WorkLog records."""
    g = _SMALL[name]
    want = _trace(peel_local(g, metric, sched))
    monkeypatch.setattr(local_engine, "_frontier", lambda n: frontier)
    assert _trace(peel_local(g, metric, sched)) == want
