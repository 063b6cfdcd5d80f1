"""The per-step trace every peeling run emits.

The paper's runtime tables are wall-clock on a 128-thread machine over
billion-edge graphs — hardware and scale this container does not have.
Every engine therefore records *what happened* in each step (vertices
scanned, weight updates applied, vertices removed, the density left
behind, the GPO long tail) and ``repro.simmachine`` converts the log into
seconds under a machine profile. Sequential records are span-bound: they
cannot be sped up by threads.

The trace is the only per-step state a run keeps: the round counters,
the density sequence and the round sets of
:class:`~repro.core.schedules.PeelResult` are read off it.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RoundRecord:
    """One step: a peeling round, an LPO trim, or a baseline's pass."""

    scanned: int  # vertices examined against the threshold this round
    updates: int  # weight updates (half-edges / clique memberships) applied
    peeled: int  # vertices removed this round
    phase: str = "peel"  # "peel" | "trim" | "extract"
    sequential: bool = False  # True -> this round's work is span-bound
    bucket: bool = False  # True -> round is a bucket pop (cheap sync)
    g: float = 0.0  # density of the alive set after the step
    tail: int = 0  # vertices removed only because of GPO's τ_max

    @property
    def work(self) -> int:
        return self.scanned + self.updates


@dataclass
class WorkLog:
    """Full accounting for one algorithm run on one graph."""

    n: int
    m: int
    init_work: float = 0.0  # parallelizable setup (e.g. clique enumeration)
    init_sequential: float = 0.0  # span-bound setup
    g0: float = 0.0  # density of the whole graph, before the first step
    handoff: int = 0  # the last step run on Spark: 0 for a local run
    rounds: list[RoundRecord] = field(default_factory=list)

    def add(self, scanned: int, updates: int, peeled: int, phase: str = "peel",
            sequential: bool = False, bucket: bool = False, g: float = 0.0,
            tail: int = 0) -> None:
        self.rounds.append(
            RoundRecord(
                int(scanned), int(updates), int(peeled), phase, sequential,
                bucket, float(g), int(tail),
            )
        )

    @property
    def total_work(self) -> float:
        return self.init_work + self.init_sequential + sum(
            r.work for r in self.rounds
        )
