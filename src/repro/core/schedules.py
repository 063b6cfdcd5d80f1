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
- ``alenex(eps)`` — near-optimal parallel peeling: tiny ε, extra per-round
  ordering work (see baselines.alenex).

:func:`peel` takes every decision: τ and τ_max, the bucket threshold,
the single-vertex pick, the long-tail count, the LPO trim loop and its
refusals, best-step tracking and the WorkLog. An engine only supplies a
peeling state with six members:

- ``n`` — the number of alive vertices; ``g`` — the density of the alive set;
- ``lo()`` — the minimum alive ``(w, vid)``; ``hi()`` — the maximum alive ``w``;
- ``remove(step, le=|lt=|vid=, tail=) -> (size, n_tail, updates)`` —
  stamp ``step`` on the alive vertices with ``w <= le``, with ``w < lt``,
  or on vertex ``vid``; remove them; report how many were stamped, how
  many of those had ``w > tail``, and the weight updates applied;
- ``stamps()`` — the step that removed each vertex (0 while alive).

Numerical convention: thresholds use ``w <= τ + TOL`` (Algorithms 2/3) and
the LPO trim uses strict ``w < τ₂ - TOL`` (Algorithm 4), with
``TOL = 1e-9``, so both engines agree bit-for-bit on the peel sets.
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
    round_sort: bool = False  # charge an extra n·log2(n) ordering per round


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
    return Schedule("alenex", "threshold", eps=eps, round_sort=True)


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


def peel(
    state, schedule: Schedule, k: int, log: WorkLog, collect: bool = False
) -> PeelResult:
    """Peel ``state`` empty under ``schedule``; see the module docstring.

    ``k`` is the metric's clique size, ``log`` receives one record per
    step, and ``collect`` asks for the vertex set of every peel round.
    """
    threshold = schedule.mode == "threshold"
    seq = schedule.mode == "sequential"
    factor = k * (1.0 + schedule.eps)
    densities = [state.g]  # densities[s] = g after step s
    peel_steps: list[int] = []
    tau_max = 0.0
    long_tail = sparse = 0

    def step(phase: str, tail: float = math.inf, **pick) -> tuple[int, int]:
        scanned = state.n
        size, n_tail, updates = state.remove(len(densities), tail=tail, **pick)
        if not size:  # every step removes a vertex, so a run takes <= n steps
            raise RuntimeError(f"{phase} step {len(densities)} removed no vertex")
        if not threshold:
            scanned = size  # a bucket pop touches only its batch
        elif schedule.round_sort and phase == "peel":
            # ALENEX-style machinery: full re-sort + edge pass per round
            scanned += int(log.n * np.log2(max(log.n, 2)) + log.m)
        log.add(scanned, updates, size, phase=phase, sequential=seq,
                bucket=schedule.mode == "bucket")
        densities.append(state.g)
        return size, n_tail

    while state.n:
        g = state.g
        if schedule.gpo:
            tau_max = max(tau_max, g / factor)
        wmin, vmin = state.lo()
        peel_steps.append(len(densities))
        if seq:
            tail, pick = math.inf, {"vid": vmin}
        elif threshold:
            base_tau = factor * g
            tau = max(tau_max, base_tau) if schedule.gpo else base_tau
            tail = base_tau + TOL
            # float safety net: with nothing under τ, peel the argmin
            pick = {"vid": vmin} if wmin > tau + TOL else {"le": tau + TOL}
        else:
            thr = max(wmin, tau_max) if schedule.gpo else wmin
            tail, pick = wmin + TOL, {"le": thr + TOL}
        _, n_tail = step("peel", tail, **pick)
        if schedule.gpo:
            long_tail += n_tail  # pulled in early by the global threshold

        # LPO: trim w < τ₂ unless that trims nothing or empties S
        while schedule.lpo and state.n:
            tau2 = max(tau_max, state.g)
            if state.lo()[0] >= tau2 - TOL or state.hi() < tau2 - TOL:
                break
            sparse += step("trim", lt=tau2 - TOL)[0]

    best_step = 0  # the first step whose g beats every earlier one by TOL
    for s, g in enumerate(densities):
        if g > densities[best_step] + TOL:
            best_step = s
    stamp = state.stamps()
    return PeelResult(
        best_set=np.flatnonzero(stamp > best_step),
        best_density=float(densities[best_step]),
        densities=densities,
        n_rounds=len(peel_steps),
        n_trim_rounds=len(densities) - 1 - len(peel_steps),
        long_tail_peeled=long_tail,
        sparse_trimmed=sparse,
        worklog=log,
        peel_stamp=stamp,
        round_sets=(
            [np.flatnonzero(stamp == s) for s in peel_steps] if collect else None
        ),
    )
