"""Memory-resident reference engine (NumPy/CSR).

This is the reproduction's analogue of the authors' C++ implementation:
all five metrics × all schedules run here, emitting work/span logs for the
machine simulator. The Spark engine (``spark_engine``) implements the same
algorithms as DataFrame jobs; tests assert the two produce identical
peeling decisions.

The schedule loop is :func:`repro.core.schedules.peel`; this module
supplies its state. ``EdgeState`` (DG/DW/FD) and ``CliqueState``
(TDS/kCLiDS), built from arrays, keep the weights ``w`` and ``f`` under
removal; their ``remove`` walks a batch's neighbours once and returns
the number of weight updates with the alive vertices they touched. A
selection wrapper (:func:`selector`), started from a stamp array (zeros
for a fresh run), adds the driver's members ``n``, ``g``, ``lo()``,
``hi()``, ``remove()`` and ``stamps()``: threshold
schedules select with one vectorised mask over the alive vertices
(``_Scan``), bucket and sequential schedules with a lazy min-heap
(``_Heap``), so a bucket round costs its bucket, not a full scan. The
heap is frontier-bounded: it holds entries only for the alive vertices
at or under a weight θ, and raises θ past the next K alive weights with
one vectorised partition when it runs dry, so a step pushes only the
touched vertices under θ.

A sequential step removes one vertex, and so does nearly every bucket
step on a weighted graph; such a step is kept to one slice of that
vertex's CSR row: ``_slots`` returns a one-vertex batch's row as one
``arange``, ``EdgeState`` reads the row's edge weights from a half-edge
copy in CSR order, and the heap pushes the touched vertices as they
come, leaving a repeated vertex's second entry to be discarded as stale.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.graph import LocalGraph
from repro.core.metrics import Metric
from repro.core.schedules import PeelResult, Schedule, peel
from repro.core.worklog import WorkLog


def _slots(ptr: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """The CSR slots ``ptr[v]:ptr[v+1]`` of every ``v`` in ``batch``, in
    batch order.

    A one-vertex batch, the usual step of bucket and sequential peeling
    (weighted buckets are near-singletons), is one ``arange`` over its
    row: the vectorised cumsum/repeat/arange sequence below costs a dozen
    NumPy calls, which on a ~36-slot row is most of the step. Threshold
    batches of thousands of vertices take the vectorised path."""
    if batch.size == 1:
        v = batch[0]
        return np.arange(ptr[v], ptr[v + 1])
    starts = ptr[batch]
    lens = ptr[batch + 1] - starts
    ends = np.cumsum(lens)  # where each vertex's run ends in the output
    total = int(ends[-1]) if lens.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens)


class EdgeState:
    """Peeling state for DG/DW/FD: w_u = a_u + Σ incident alive c. Built
    from arrays: ``a`` and ``w`` per vertex, ``c`` per edge, the half-edge
    ``csr`` ``(indptr, nbr, eid)`` and ``f``. The edge weights are kept
    per half-edge in CSR order (``hc = c[eid]``, 2m floats built once), so
    a removal reads a batch's weights with the same slots as its
    neighbours. A removal counts its CSR half-edges as weight updates."""

    def __init__(self, a, w, f: float, c, csr):
        self.a, self.w, self.f, self.c = a, w, f, c
        self.indptr, self.nbr, eid = csr
        self.hc = c[eid]

    def remove(self, batch: np.ndarray, stamp: np.ndarray, step: int):
        """Remove ``batch`` (already stamped with ``step``); returns the
        number of weight updates and the alive neighbours they touched."""
        idx = _slots(self.indptr, batch)
        self.f -= float(self.a[batch].sum())
        if not idx.size:
            return 0, idx
        nbrs = self.nbr[idx]
        cw = self.hc[idx]
        st = stamp[nbrs]
        alive = st == 0
        touched, ca = nbrs[alive], cw[alive]
        np.subtract.at(self.w, touched, ca)
        # f loses: vertex priors + every edge leaving the subgraph once.
        self.f -= float(ca.sum()) + 0.5 * float(cw[st == step].sum())
        return idx.size, touched


class CliqueState:
    """Peeling state for TDS/kCLiDS: w_u = #live cliques containing u.
    Built from arrays: ``w``, ``f`` = #live cliques, and those cliques."""

    def __init__(self, w, f: float, cliques: np.ndarray, k: int):
        self.w, self.f, self.cliques, self.k = w, f, cliques, k
        self.alive_clique = np.ones(cliques.shape[0], dtype=bool)
        # membership CSR: vertex -> clique ids
        flat = cliques.ravel()
        order = np.argsort(flat, kind="stable")
        self.mem_cid = np.repeat(np.arange(cliques.shape[0], dtype=np.int64), k)[order]
        self.mem_ptr = np.searchsorted(flat[order], np.arange(w.size + 1))

    def remove(self, batch: np.ndarray, stamp: np.ndarray, step: int):
        """Kill the live cliques of ``batch``; returns the number of
        weight updates and the alive members they touched."""
        cids = np.unique(self.mem_cid[_slots(self.mem_ptr, batch)])
        dead = cids[self.alive_clique[cids]]
        self.alive_clique[dead] = False
        self.f -= float(dead.size)
        members = self.cliques[dead].ravel()
        alive = stamp[members] == 0
        np.subtract.at(self.w, members[alive], 1.0)
        return int(dead.size) * self.k, members[alive]


def make_state(graph: LocalGraph, metric: Metric):
    """Fresh peeling state for ``graph`` under ``metric`` (public so
    baselines with non-standard schedules reuse the audited machinery)."""
    weights = metric.build(graph)
    if metric.kind == "clique":
        cl = weights.cliques
        w = np.bincount(cl.ravel(), minlength=graph.n).astype(np.float64)
        return CliqueState(w, float(cl.shape[0]), cl, metric.k)
    a, c = weights.a, weights.c
    w = a.copy()
    np.add.at(w, graph.src, c)
    np.add.at(w, graph.dst, c)
    return EdgeState(a, w, float(a.sum() + c.sum()), c, graph.csr())


def start_log(graph: LocalGraph, state) -> WorkLog:
    """The empty trace of a run from :func:`make_state`'s ``state``: a
    clique listing (~ k·|E|·α(G)^(k-2)) is charged as its size."""
    listed = state.cliques.size if isinstance(state, CliqueState) else 0
    return WorkLog(n=graph.n, m=graph.m, init_work=float(listed))


class _Scan:
    """Threshold selection: each step masks every alive vertex at once.
    ``stamp`` holds the step that removed each vertex, 0 while alive."""

    def __init__(self, state, stamp: np.ndarray):
        self.state, self.stamp = state, stamp
        self.n = int((stamp == 0).sum())

    @property
    def g(self) -> float:
        return self.state.f / self.n if self.n else 0.0  # empty: density 0

    def lo(self) -> tuple[float, int]:
        wv = np.where(self.stamp == 0, self.state.w, np.inf)
        v = int(np.argmin(wv))
        return float(wv[v]), v

    def hi(self) -> float:
        return float(self.state.w[self.stamp == 0].max())

    def remove(self, step, le=None, vid=None, tail=math.inf):
        w = self.state.w
        if vid is not None:
            batch = np.array([vid], dtype=np.int64)
        else:
            batch = np.flatnonzero((self.stamp == 0) & (w <= le))
        return self._drop(batch, step, int((w[batch] > tail).sum()))

    def _drop(self, batch: np.ndarray, step: int, n_tail: int):
        self.stamp[batch] = step
        updates, touched = self.state.remove(batch, self.stamp, step)
        self.n -= batch.size
        self._requeue(touched)
        return batch.size, n_tail, updates

    def _requeue(self, touched: np.ndarray) -> None:
        """A threshold step rescans every alive weight: nothing to do."""

    def stamps(self) -> np.ndarray:
        return self.stamp


def _frontier(n_alive: int) -> int:
    """K, the number of alive weights above θ that one refill brings
    under it: √n keeps the refills to about √n vectorised O(n) scans,
    while θ stays low enough that most touched vertices sit above it and
    cost no push."""
    return max(1, math.isqrt(n_alive))


class _Heap(_Scan):
    """Bucket and sequential selection through a frontier-bounded lazy
    min-heap.

    The heap holds ``(w, vid)`` entries only for alive vertices with
    ``w <= θ`` (the frontier); every vertex above θ is left out, so a
    step pushes only the touched vertices that are, or fall, under θ.
    When no valid entry is left, one vectorised ``np.partition`` over the
    alive weights above θ raises θ to the next K smallest of them
    (:func:`_frontier`) and pushes those vertices; a ``le`` bound above θ
    raises θ to the bound first. This is the lazy bucketing of
    Julienne (Dhulipala, Blelloch & Shun, SPAA 2017): only the low
    buckets are materialised, so a bucket round costs its bucket, not a
    full vertex scan, and the heap never holds an entry per vertex.

    An entry is stale once its vertex is gone or its weight is no longer
    the vertex's weight; a popped vertex is stamped at once, so its other
    entries read as stale. Duplicate entries are therefore expected: a vertex
    touched twice in one step (two removed neighbours, or two dying
    cliques) is pushed twice, and the entry that is not popped is
    discarded by ``_top``. Removal never raises a weight (``c >= 0``, and
    clique counts only fall), so a vertex's newest entry is its smallest and
    equals its current weight, and the first valid entry is exactly the
    argmin ``(w, vid)`` over the alive vertices: the frontier changes
    which entries exist, never which vertex a step takes, or in what
    order.
    """

    def __init__(self, state, stamp: np.ndarray):
        super().__init__(state, stamp)
        self.heap: list[tuple[float, int]] = []
        self.theta = -math.inf

    def _grow(self, bound: float = -math.inf) -> None:
        """Raise θ to at least ``bound`` and past the next K alive weights
        above it; push every alive vertex that θ passes."""
        w = self.state.w
        above = np.flatnonzero((self.stamp == 0) & (w > self.theta))
        wa = w[above]
        k = _frontier(self.n)
        if wa.size > k:
            self.theta = max(bound, float(np.partition(wa, k - 1)[k - 1]))
        else:
            self.theta = math.inf
        self._push(above[wa <= self.theta])

    def _push(self, vids: np.ndarray) -> None:
        for entry in zip(self.state.w[vids].tolist(), vids.tolist()):
            heapq.heappush(self.heap, entry)

    def _top(self) -> tuple[float, int] | None:
        """The first valid entry, popping stale ones on the way."""
        heap, stamp, w = self.heap, self.stamp, self.state.w
        while heap:
            wv, v = heap[0]
            if stamp[v] != 0 or wv != w[v]:
                heapq.heappop(heap)
                continue
            return wv, v
        return None

    def lo(self) -> tuple[float, int]:
        top = self._top()
        if top is None:  # every alive vertex is above θ
            self._grow()
            top = self._top()
        return top

    def remove(self, step, le=None, vid=None, tail=math.inf):
        if vid is not None:
            return super().remove(step, vid=vid, tail=tail)
        if le > self.theta:
            self._grow(le)
        batch: list[int] = []
        n_tail = 0
        while (top := self._top()) is not None and top[0] <= le:
            heapq.heappop(self.heap)
            self.stamp[top[1]] = step  # its other entries are now stale
            batch.append(top[1])
            n_tail += top[0] > tail
        return self._drop(np.asarray(batch, dtype=np.int64), step, n_tail)

    def _requeue(self, touched: np.ndarray) -> None:
        """Push a fresh entry for each touched vertex now under θ. A vertex
        touched twice in one step gets two equal entries; the first pop
        stamps it, so ``_top`` discards the other as stale."""
        self._push(touched[self.state.w[touched] <= self.theta])


def selector(schedule: Schedule) -> type:
    """The selection wrapper of ``schedule``: a vectorised scan for
    threshold schedules, the frontier heap for bucket and sequential."""
    return _Scan if schedule.mode == "threshold" else _Heap


def peel_local(graph: LocalGraph, metric: Metric, schedule: Schedule) -> PeelResult:
    """Run one peeling schedule on one graph; see module docstring.

    The result's per-step figures (densities, round counts, long-tail and
    trim counts, round sets) are views of its WorkLog trace.
    """
    state = make_state(graph, metric)
    sel = selector(schedule)(state, np.zeros(graph.n, dtype=np.int64))
    return peel(sel, schedule, metric.k, start_log(graph, state))
