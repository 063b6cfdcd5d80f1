"""Memory-resident reference engine (NumPy/CSR).

This is the reproduction's analogue of the authors' C++ implementation:
all five metrics × all schedules run here, emitting work/span logs for the
machine simulator. The Spark engine (``spark_engine``) implements the same
algorithms as DataFrame jobs; tests assert the two produce identical
peeling decisions.

Numerical convention: thresholds use ``w <= τ + TOL`` (Algorithms 2/3) and
the LPO trim uses strict ``w < τ₂ - TOL`` (Algorithm 4), with
``TOL = 1e-9``, so both engines agree bit-for-bit on the peel sets.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import LocalGraph
from repro.core.metrics import CliqueWeights, EdgeWeights, Metric
from repro.core.schedules import Schedule
from repro.core.worklog import WorkLog

TOL = 1e-9


@dataclass
class PeelResult:
    """Outcome of one peeling run."""

    best_set: np.ndarray  # vertex ids of argmax_{S_i} g(S_i)
    best_density: float
    densities: list[float]  # g after every removal batch, densities[0] = g(V)
    n_rounds: int  # outer peeling rounds (the paper's round counts)
    n_trim_rounds: int  # LPO inner-loop rounds
    long_tail_peeled: int  # vertices peeled only because of τ_max (GPO)
    sparse_trimmed: int  # vertices trimmed by the LPO inner loop
    worklog: WorkLog = field(repr=False)
    peel_stamp: np.ndarray = field(repr=False)  # batch index when removed
    round_sets: list[np.ndarray] | None = field(default=None, repr=False)


class _EdgeState:
    """Peeling state for DG/DW/FD: w_u = a_u + Σ incident c."""

    def __init__(self, g: LocalGraph, ew: EdgeWeights):
        self.g = g
        self.a = ew.a
        self.c = ew.c
        indptr, nbr, eid = g.csr()
        self.indptr, self.nbr, self.eid = indptr, nbr, eid
        self.w = ew.a.copy()
        np.add.at(self.w, g.src, ew.c)
        np.add.at(self.w, g.dst, ew.c)
        self.f = float(ew.a.sum() + ew.c.sum())

    def remove(self, batch: np.ndarray, stamp: np.ndarray, step: int) -> int:
        """Remove ``batch`` (already stamped with ``step``); returns #updates."""
        starts, ends = self.indptr[batch], self.indptr[batch + 1]
        total = int((ends - starts).sum())
        if total:
            idx = np.concatenate(
                [np.arange(s, e) for s, e in zip(starts, ends)]
            ) if len(batch) else np.empty(0, np.int64)
            nbrs = self.nbr[idx]
            cw = self.c[self.eid[idx]]
            alive = stamp[nbrs] == 0
            same = stamp[nbrs] == step
            np.subtract.at(self.w, nbrs[alive], cw[alive])
            # f loses: vertex priors + every edge leaving the subgraph once.
            self.f -= float(self.a[batch].sum())
            self.f -= float(cw[alive].sum()) + 0.5 * float(cw[same].sum())
        else:
            self.f -= float(self.a[batch].sum())
        return total

    def touched(self, batch: np.ndarray, stamp: np.ndarray) -> np.ndarray:
        """Alive vertices whose weight just changed (for heap re-push)."""
        starts, ends = self.indptr[batch], self.indptr[batch + 1]
        if not len(batch):
            return np.empty(0, np.int64)
        idx = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
        nbrs = self.nbr[idx]
        return np.unique(nbrs[stamp[nbrs] == 0])


class _CliqueState:
    """Peeling state for TDS/kCLiDS: w_u = #live cliques containing u."""

    def __init__(self, g: LocalGraph, cw: CliqueWeights, k: int):
        self.k = k
        self.cliques = cw.cliques
        C = self.cliques.shape[0]
        self.alive_clique = np.ones(C, dtype=bool)
        self.w = np.zeros(g.n, dtype=np.float64)
        if C:
            np.add.at(self.w, self.cliques.ravel(), 1.0)
        self.f = float(C)
        # membership CSR: vertex -> clique ids
        if C:
            flat = self.cliques.ravel()
            cids = np.repeat(np.arange(C, dtype=np.int64), k)
            order = np.argsort(flat, kind="stable")
            flat, cids = flat[order], cids[order]
            self.mem_ptr = np.searchsorted(flat, np.arange(g.n + 1))
            self.mem_cid = cids
        else:
            self.mem_ptr = np.zeros(g.n + 1, dtype=np.int64)
            self.mem_cid = np.empty(0, dtype=np.int64)

    def _incident_cliques(self, batch: np.ndarray) -> np.ndarray:
        starts, ends = self.mem_ptr[batch], self.mem_ptr[batch + 1]
        if not len(batch) or (ends - starts).sum() == 0:
            return np.empty(0, np.int64)
        idx = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
        cids = np.unique(self.mem_cid[idx])
        return cids[self.alive_clique[cids]]

    def remove(self, batch: np.ndarray, stamp: np.ndarray, step: int) -> int:
        dead = self._incident_cliques(batch)
        if dead.size:
            self.alive_clique[dead] = False
            self.f -= float(dead.size)
            members = self.cliques[dead].ravel()
            alive = stamp[members] == 0
            np.subtract.at(self.w, members[alive], 1.0)
        return int(dead.size) * self.k

    def touched(self, batch: np.ndarray, stamp: np.ndarray) -> np.ndarray:
        dead = self._incident_cliques(batch)
        if not dead.size:
            return np.empty(0, np.int64)
        members = self.cliques[dead].ravel()
        return np.unique(members[stamp[members] == 0])


def make_state(graph: LocalGraph, metric: Metric):
    """Fresh peeling state for ``graph`` under ``metric`` (public so
    baselines with non-standard schedules reuse the audited machinery)."""
    weights = metric.build(graph)
    if metric.kind == "edge":
        return _EdgeState(graph, weights)
    return _CliqueState(graph, weights, metric.k)


_make_state = make_state


def peel_local(
    graph: LocalGraph,
    metric: Metric,
    schedule: Schedule,
    collect_round_sets: bool = False,
) -> PeelResult:
    """Run one peeling schedule on one graph; see module docstring."""
    if schedule.mode in ("sequential", "bucket"):
        return _peel_heap(graph, metric, schedule, collect_round_sets)
    return _peel_threshold(graph, metric, schedule, collect_round_sets)


def _peel_threshold(
    graph: LocalGraph, metric: Metric, sched: Schedule, collect: bool
) -> PeelResult:
    """Algorithms 2 (dupin), 3 (+gpo), 4 (+gpo+lpo); also ALENEX-style."""
    n, k = graph.n, metric.k
    state = _make_state(graph, metric)
    log = WorkLog(n=n, m=graph.m)
    if metric.kind == "clique":
        # enumeration cost ~ k·|E|·α(G)^(k-2); charge the materialized size
        log.init_work = float(state.cliques.size)
    stamp = np.zeros(n, dtype=np.int64)
    alive_count = n
    step = 0
    g0 = state.f / n if n else 0.0  # the empty graph has density 0
    densities = [g0]
    best_g, best_step = g0, 0
    tau_max = 0.0
    factor = k * (1.0 + sched.eps)
    rounds = trim_rounds = long_tail = sparse = 0
    round_sets: list[np.ndarray] | None = [] if collect else None

    while alive_count > 0:
        gcur = state.f / alive_count
        base_tau = factor * gcur
        if sched.gpo:
            tau_max = max(tau_max, gcur / factor)
            tau = max(tau_max, base_tau)
        else:
            tau = base_tau
        alive = stamp == 0
        batch_mask = alive & (state.w <= tau + TOL)
        if not batch_mask.any():  # float safety net: peel the argmin
            wv = np.where(alive, state.w, np.inf)
            batch_mask = np.zeros(n, dtype=bool)
            batch_mask[int(np.argmin(wv))] = True
        if sched.gpo:
            long_tail += int((batch_mask & (state.w > base_tau + TOL)).sum())
        batch = np.flatnonzero(batch_mask)
        step += 1
        rounds += 1
        stamp[batch] = step
        updates = state.remove(batch, stamp, step)
        scanned = alive_count
        if sched.round_sort:
            # ALENEX-style machinery: full re-sort + edge pass per round
            scanned += int(n * np.log2(max(n, 2)) + graph.m)
        log.add(scanned, updates, batch.size, phase="peel")
        if round_sets is not None:
            round_sets.append(batch)
        alive_count -= batch.size
        gnew = state.f / alive_count if alive_count else float("-inf")
        densities.append(gnew if alive_count else 0.0)
        if alive_count and gnew > best_g + TOL:
            best_g, best_step = gnew, step

        if sched.lpo:
            while alive_count > 0:
                gcur = state.f / alive_count
                tau2 = max(tau_max, gcur)
                alive = stamp == 0
                trim_mask = alive & (state.w < tau2 - TOL)
                n_trim = int(trim_mask.sum())
                if n_trim == 0 or n_trim == alive_count:
                    break
                trim = np.flatnonzero(trim_mask)
                step += 1
                trim_rounds += 1
                sparse += n_trim
                stamp[trim] = step
                updates = state.remove(trim, stamp, step)
                log.add(alive_count, updates, n_trim, phase="trim")
                alive_count -= n_trim
                gnew = state.f / alive_count
                densities.append(gnew)
                if gnew > best_g + TOL:
                    best_g, best_step = gnew, step

    best_set = np.flatnonzero(stamp > best_step)
    return PeelResult(
        best_set=best_set,
        best_density=best_g,
        densities=densities,
        n_rounds=rounds,
        n_trim_rounds=trim_rounds,
        long_tail_peeled=long_tail,
        sparse_trimmed=sparse,
        worklog=log,
        peel_stamp=stamp,
        round_sets=round_sets,
    )


def _peel_heap(
    graph: LocalGraph, metric: Metric, sched: Schedule, collect: bool
) -> PeelResult:
    """Sequential (Algorithm 1) and bucket (GBBS-style) peeling.

    A lazy min-heap yields O((V+E)·log V) total, matching the data
    structures the compared systems actually use — the per-round cost is
    bucket-local, *not* a full vertex scan (this is why GBBS rounds are
    cheap but numerous on weighted graphs).
    """
    n = graph.n
    state = _make_state(graph, metric)
    log = WorkLog(n=n, m=graph.m)
    log.init_sequential = 0.0
    if metric.kind == "clique":
        log.init_work = float(state.cliques.size)
    is_seq = sched.mode == "sequential"
    k = metric.k
    factor = k * (1.0 + sched.eps)
    stamp = np.zeros(n, dtype=np.int64)
    alive_count = n
    step = 0
    g0 = state.f / n if n else 0.0  # the empty graph has density 0
    densities = [g0]
    best_g, best_step = g0, 0
    tau_max = 0.0
    heap: list[tuple[float, int]] = [(float(state.w[v]), v) for v in range(n)]
    heapq.heapify(heap)
    rounds = trim_rounds = long_tail = sparse = 0
    round_sets: list[np.ndarray] | None = [] if collect else None

    def _pop_valid() -> tuple[float, int] | None:
        while heap:
            wv, v = heap[0]
            if stamp[v] != 0 or abs(wv - state.w[v]) > TOL:
                heapq.heappop(heap)
                continue
            return wv, v
        return None

    while alive_count > 0:
        top = _pop_valid()
        if top is None:  # all remaining entries stale: rebuild
            heap = [
                (float(state.w[v]), v) for v in np.flatnonzero(stamp == 0)
            ]
            heapq.heapify(heap)
            top = _pop_valid()
            assert top is not None
        wmin, _ = top
        if sched.gpo:
            tau_max = max(tau_max, (state.f / alive_count) / factor)
        thr = max(wmin, tau_max) if sched.gpo else wmin
        batch_list: list[int] = []
        while True:
            nxt = _pop_valid()
            if nxt is None or (not is_seq and nxt[0] > thr + TOL):
                break
            if is_seq and batch_list:
                break
            heapq.heappop(heap)
            batch_list.append(nxt[1])
            if sched.gpo and nxt[0] > wmin + TOL:
                long_tail += 1  # pulled in early by the global threshold
        batch = np.asarray(batch_list, dtype=np.int64)
        step += 1
        rounds += 1
        stamp[batch] = step
        touched = state.touched(batch, stamp)
        updates = state.remove(batch, stamp, step)
        for v in touched:
            heapq.heappush(heap, (float(state.w[v]), int(v)))
        log.add(batch.size, updates, batch.size, sequential=is_seq,
                bucket=not is_seq)
        if round_sets is not None:
            round_sets.append(batch)
        alive_count -= batch.size
        gnew = state.f / alive_count if alive_count else float("-inf")
        densities.append(gnew if alive_count else 0.0)
        if alive_count and gnew > best_g + TOL:
            best_g, best_step = gnew, step

        if sched.lpo:
            # LPO trim loop at bucket granularity: strip vertices whose
            # weight fell below max(τ_max, g(S)) before the next round.
            while alive_count > 0:
                thr2 = max(tau_max, state.f / alive_count)
                trim_list: list[int] = []
                while True:
                    nxt = _pop_valid()
                    if nxt is None or nxt[0] >= thr2 - TOL:
                        break
                    heapq.heappop(heap)
                    trim_list.append(nxt[1])
                if not trim_list or len(trim_list) == alive_count:
                    for v in trim_list:  # refused batch: restore entries
                        heapq.heappush(heap, (float(state.w[v]), v))
                    break
                trim = np.asarray(trim_list, dtype=np.int64)
                step += 1
                trim_rounds += 1
                sparse += trim.size
                stamp[trim] = step
                touched = state.touched(trim, stamp)
                updates = state.remove(trim, stamp, step)
                for v in touched:
                    heapq.heappush(heap, (float(state.w[v]), int(v)))
                log.add(trim.size, updates, trim.size, phase="trim",
                        bucket=True)
                alive_count -= trim.size
                gnew = state.f / alive_count
                densities.append(gnew)
                if gnew > best_g + TOL:
                    best_g, best_step = gnew, step

    best_set = np.flatnonzero(stamp > best_step)
    return PeelResult(
        best_set=best_set,
        best_density=best_g,
        densities=densities,
        n_rounds=rounds,
        n_trim_rounds=trim_rounds,
        long_tail_peeled=long_tail,
        sparse_trimmed=sparse,
        worklog=log,
        peel_stamp=stamp,
        round_sets=round_sets,
    )
