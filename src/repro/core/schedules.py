"""Peeling schedules — *who gets peeled each round* — and the one driver
that runs them.

Every system the paper compares is Charikar's greedy peeling with its own
rule for choosing each batch. Expressing the rules as data keeps one
audited loop, :func:`peel`, behind all comparisons on both engines:

- ``sequential``  — Algorithm 1: argmin peeling weight, one vertex/round.
- ``dupin(eps)``  — Algorithm 2: peel all ``w_u <= k(1+ε)·g(S)``.
- ``gpo(eps)``    — Algorithm 3: + global threshold ``τ_max``.
- ``lpo(eps)``    — Algorithm 4: + local trim loop (``w_u < g(S)``).
- ``bucket``      — GBBS/PBBS-style: peel the minimum-weight bucket.
- ``alenex(eps)`` — near-optimal parallel peeling at a tiny ε (its extra
  per-round ordering work is priced by baselines.alenex after the run).

:func:`peel` takes every decision: τ and τ_max, the bucket threshold,
the single-vertex pick, the long-tail count, the LPO trim loop and its
refusals and the best step. It writes one WorkLog record per step, which
holds the step's work, its vertex count, the density it leaves and its
GPO long tail; that trace is the run's only per-step state, and the
counters, densities and round sets of :class:`PeelResult` are views of
it. An engine only supplies a peeling state with six members:

- ``n`` — the number of alive vertices; ``g`` — the density of the alive set;
- ``lo()`` — the minimum alive ``(w, vid)``; ``hi()`` — the maximum alive ``w``;
- ``remove(step, le=|vid=, tail=) -> (size, n_tail, updates)`` —
  stamp ``step`` on the alive vertices with ``w <= le``, or on vertex
  ``vid``; remove them; report how many were stamped, how many of those
  had ``w > tail``, and the weight updates applied;
- ``stamps()`` — the step that removed each vertex (0 while alive).

Numerical convention: thresholds use ``w <= τ + TOL`` (Algorithms 2/3) and
the LPO trim uses strict ``w < τ₂ - TOL`` (Algorithm 4), with
``TOL = 1e-9``, so both engines agree bit-for-bit on the peel sets. The
trim passes ``le = nextafter(τ₂ - TOL, -inf)``, which selects that set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.worklog import WorkLog

TOL = 1e-9


@dataclass(frozen=True)
class Schedule:
    name: str
    mode: str  # "threshold" | "bucket" | "sequential"
    eps: float = 0.0
    gpo: bool = False
    lpo: bool = False


def sequential() -> Schedule:
    return Schedule("sequential", "sequential")


def dupin(eps: float = 0.1) -> Schedule:
    return Schedule("dupin", "threshold", eps=eps)


def gpo(eps: float = 0.1) -> Schedule:
    return Schedule("dupin-gpo", "threshold", eps=eps, gpo=True)


def lpo(eps: float = 0.1) -> Schedule:
    return Schedule("dupin-lpo", "threshold", eps=eps, gpo=True, lpo=True)


def bucket() -> Schedule:
    return Schedule("bucket", "bucket")


def alenex(eps: float = 0.01) -> Schedule:
    return Schedule("alenex", "threshold", eps=eps)


def bucket_gpo(eps: float = 0.1) -> Schedule:
    """Bucket-granularity peeling + the global threshold τ_max (GPO).

    Table 3 counts peeling rounds at bucket granularity (its round counts
    on |V|=52M exceed the Lemma 4.1 bound for threshold rounds by orders
    of magnitude, so the production engine's "iteration" is a min-weight
    bucket). GPO lets a round absorb every bucket below τ_max at once —
    exactly the long-tail pruning the paper describes.
    """
    return Schedule("bucket-gpo", "bucket", eps=eps, gpo=True)


def bucket_lpo(eps: float = 0.1) -> Schedule:
    """Bucket-granularity peeling + GPO + the LPO trim loop."""
    return Schedule("bucket-lpo", "bucket", eps=eps, gpo=True, lpo=True)


@dataclass
class PeelResult:
    """Outcome of one peeling run: the best set and the run's trace.

    Only ``best_set``, ``best_density``, ``worklog`` and ``peel_stamp``
    are stored; the per-step figures are read off ``worklog``, whose
    records are steps 1, 2, … of the run.
    """

    best_set: np.ndarray  # vertex ids of argmax_{S_i} g(S_i)
    best_density: float
    worklog: WorkLog = field(repr=False)
    peel_stamp: np.ndarray = field(repr=False)  # step that removed each vertex

    @property
    def densities(self) -> list[float]:
        """g after every step; ``densities[0]`` = g(V)."""
        return [self.worklog.g0] + [r.g for r in self.worklog.rounds]

    @property
    def n_rounds(self) -> int:
        """Outer peeling rounds (the paper's round counts)."""
        return sum(r.phase == "peel" for r in self.worklog.rounds)

    @property
    def n_trim_rounds(self) -> int:
        """LPO inner-loop rounds."""
        return sum(r.phase == "trim" for r in self.worklog.rounds)

    @property
    def long_tail_peeled(self) -> int:
        """Vertices peeled only because of τ_max (GPO)."""
        return sum(r.tail for r in self.worklog.rounds)

    @property
    def sparse_trimmed(self) -> int:
        """Vertices trimmed by the LPO inner loop."""
        return sum(r.peeled for r in self.worklog.rounds if r.phase == "trim")

    @property
    def round_sets(self) -> list[np.ndarray]:
        """The vertices of each peel round, ascending."""
        return [
            np.flatnonzero(self.peel_stamp == s)
            for s, r in enumerate(self.worklog.rounds, start=1)
            if r.phase == "peel"
        ]


def peel(state, schedule: Schedule, k: int, log: WorkLog) -> PeelResult:
    """Peel ``state`` empty under ``schedule``; see the module docstring.

    ``k`` is the metric's clique size and ``log``, empty on entry,
    receives one record per step.
    """
    threshold = schedule.mode == "threshold"
    seq = schedule.mode == "sequential"
    factor = k * (1.0 + schedule.eps)
    tau_max = 0.0
    log.g0 = state.g

    def step(phase: str, tail: float = math.inf, **pick) -> None:
        s = len(log.rounds) + 1
        scanned = state.n
        size, n_tail, updates = state.remove(s, tail=tail, **pick)
        if not size:  # every step removes a vertex, so a run takes <= n steps
            raise RuntimeError(f"{phase} step {s} removed no vertex")
        if not threshold:
            scanned = size  # a bucket pop touches only its batch
        log.add(scanned, updates, size, phase=phase, sequential=seq,
                bucket=schedule.mode == "bucket", g=state.g, tail=n_tail)

    while state.n:
        g = state.g
        if schedule.gpo:
            tau_max = max(tau_max, g / factor)
        wmin, vmin = state.lo()
        # τ without GPO: k(1+ε)·g, or the minimum bucket; GPO's long tail
        # is what the step takes above it
        base = factor * g if threshold else wmin
        tau = max(tau_max, base) if schedule.gpo else base
        if seq or wmin > tau + TOL:  # float safety net: nothing under τ
            pick = {"vid": vmin}
        else:
            pick = {"le": tau + TOL}
        step("peel", base + TOL if schedule.gpo else math.inf, **pick)

        # LPO: trim w < τ₂ unless that trims nothing or empties S
        while schedule.lpo and state.n:
            tau2 = max(tau_max, state.g)
            if state.lo()[0] >= tau2 - TOL or state.hi() < tau2 - TOL:
                break
            step("trim", le=math.nextafter(tau2 - TOL, -math.inf))

    # the best step: the first whose g beats the best earlier g by TOL
    best_step, best_g = 0, log.g0
    for s, r in enumerate(log.rounds, start=1):
        if r.g > best_g + TOL:
            best_step, best_g = s, r.g
    stamp = state.stamps()
    return PeelResult(
        best_set=np.flatnonzero(stamp > best_step),
        best_density=float(best_g),
        worklog=log,
        peel_stamp=stamp,
    )
