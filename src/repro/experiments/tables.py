"""One harness per evaluation table (paper §6; DESIGN.md §6).

Every function returns ``list[dict]`` rows mirroring the paper's table
layout (plus our measured columns). Runtime tables price work/span logs
through ``repro.simmachine`` extrapolated to the paper's graph sizes;
density tables report algorithm outputs directly. Heavy runs are cached
per ``(dataset, scale, metric, system)`` within the process so runtime
and density tables share one peeling pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.baselines import (
    alenex_run,
    fwa_run,
    gbbs_run,
    kclist_run,
    pbbs_run,
    pkmc_run,
    spade_run,
)
from repro.core import by_name, peel_local
from repro.core.schedules import bucket, bucket_gpo, bucket_lpo, dupin, gpo, lpo
from repro.fraudsim import generate_stream, prevention_ratio
from repro.graphgen.datasets import DATASETS, load_dataset
from repro.simmachine import (
    EPYC_7742,
    TIME_LIMIT_S,
    X5650,
    MachineProfile,
    clique_exponent,
    extrapolate,
    simulate,
)

EDGE_METRICS = ("DG", "DW", "FD")
CLIQUE_METRICS = ("TDS", "kCLiDS")
KCLIDS_K = 4  # the paper's ablation uses k=4 for kCLiDS

EDGE_SYSTEMS = ("Spade", "GBBS", "PKMC", "FWA", "ALENEX", "Dupin")
CLIQUE_SYSTEMS = ("Spade", "kCLIST", "PBBS", "Dupin")


@dataclass
class RunSummary:
    """Cached result of one (dataset, metric, system) run."""

    density: float
    sim_s: float  # simulated seconds at paper scale, X5650 profile
    sim_epyc_s: float


def _round_growth(system: str, metric_name: str) -> str:
    """How a system's parallel-round count scales with |V| (DESIGN.md §5)."""
    if system in ("GBBS", "PBBS"):
        return "sqrt" if metric_name == "DG" else "linear"
    return "log"


def _simulate_paper_scale(
    result, graph, metric, system: str, paper_v: int, paper_e: int,
    profile: MachineProfile,
) -> float:
    """Seconds for ``result``'s WorkLog extrapolated to a paper graph."""
    ag = extrapolate(
        result.worklog,
        synth_v=graph.n,
        synth_e=graph.m,
        paper_v=paper_v,
        paper_e=paper_e,
        round_growth=_round_growth(system, metric.name),
        clique_k=metric.k if metric.kind == "clique" else None,
    )
    return simulate(ag, profile)


def _spade_ops(sres, graph, metric, paper_e: int) -> float:
    """Spade's span-bound operations at paper scale.

    Spade's reported number is the average per-batch incremental cost
    (sequential suffix re-peel); clique metrics additionally pay the
    span-bound initial clique counting (the paper's TLEs).
    """
    e_ratio = paper_e / max(graph.m, 1)
    init_exp = clique_exponent(metric.k if metric.kind == "clique" else None)
    return (sres.avg_batch_work * e_ratio
            + sres.result.worklog.init_sequential * e_ratio**init_exp)


RUNNERS = {  # every compared system but Spade: a run priced by its WorkLog
    "Dupin": lambda g, m: peel_local(g, m, dupin(0.1)),
    "DupinGPO": lambda g, m: peel_local(g, m, gpo(0.1)),
    "DupinLPO": lambda g, m: peel_local(g, m, lpo(0.1)),
    "GBBS": gbbs_run,
    "PBBS": pbbs_run,
    "kCLIST": kclist_run,
    "PKMC": pkmc_run,
    "FWA": fwa_run,
    "ALENEX": alenex_run,
}


@lru_cache(maxsize=1024)
def run_system(
    dataset: str, scale: float, metric_name: str, system: str
) -> RunSummary:
    """Run ``system`` on ``dataset`` under ``metric`` and price the log."""
    graph = load_dataset(dataset, scale)
    metric = by_name(metric_name, KCLIDS_K)
    spec = DATASETS[dataset]
    if system == "Spade":
        sres = spade_run(graph, metric)
        ops = _spade_ops(sres, graph, metric, spec.paper_e)
        return RunSummary(
            density=sres.result.best_density,
            sim_s=ops / X5650.seq_rate,
            sim_epyc_s=ops / EPYC_7742.seq_rate,
        )
    res = RUNNERS[system](graph, metric)  # KeyError for an unknown system

    def sim(profile: MachineProfile) -> float:
        return _simulate_paper_scale(
            res, graph, metric, system, spec.paper_v, spec.paper_e, profile
        )

    return RunSummary(
        density=res.best_density, sim_s=sim(X5650), sim_epyc_s=sim(EPYC_7742)
    )


def _fmt_time(t: float) -> str:
    return "TLE" if t >= TIME_LIMIT_S else f"{t:.2f}"


# ---------------------------------------------------------------- Table 2
def table2() -> list[dict]:
    """Capability matrix (qualitative)."""
    rows = [
        {"System": "Spade", "Metrics": "DG, DW, FD, TDS, kCLiDS",
         "Parallel": "Sequential", "Weighted": "Yes", "Pruning": "No"},
        {"System": "GBBS", "Metrics": "DG, DW, FD", "Parallel": "Parallel",
         "Weighted": "No", "Pruning": "No"},
        {"System": "PKMC", "Metrics": "DG, DW, FD", "Parallel": "Parallel",
         "Weighted": "No", "Pruning": "No"},
        {"System": "FWA", "Metrics": "DG, DW, FD", "Parallel": "Parallel",
         "Weighted": "No", "Pruning": "No"},
        {"System": "ALENEX", "Metrics": "DG, DW, FD", "Parallel": "Parallel",
         "Weighted": "No", "Pruning": "No"},
        {"System": "kCLIST", "Metrics": "TDS, kCLiDS", "Parallel": "Parallel",
         "Weighted": "No", "Pruning": "No"},
        {"System": "PBBS", "Metrics": "TDS, kCLiDS", "Parallel": "Parallel",
         "Weighted": "No", "Pruning": "No"},
        {"System": "Dupin", "Metrics": "DG, DW, FD, TDS, kCLiDS",
         "Parallel": "Parallel", "Weighted": "Yes", "Pruning": "Yes"},
    ]
    return rows


# ---------------------------------------------------------------- Table 3
def table3(dataset: str = "la", scale: float = 1.0, eps: float = 0.1) -> list[dict]:
    """GPO/LPO impact on peeling rounds (bucket-granularity regime).

    The paper's round counts on la (17k–150k) exceed the Lemma 4.1 bound
    for threshold rounds by orders of magnitude, so its production
    engine's "iteration" is a min-weight bucket; we therefore measure the
    base engine at bucket granularity and layer GPO/LPO on it
    (EXPERIMENTS.md discusses this interpretation).
    """
    graph = load_dataset(dataset, scale)
    rows = []
    for mname in EDGE_METRICS:
        metric = by_name(mname)
        base = peel_local(graph, metric, bucket())
        with_gpo = peel_local(graph, metric, bucket_gpo(eps))
        with_lpo = peel_local(graph, metric, bucket_lpo(eps))
        lpo_rounds = with_lpo.n_rounds + with_lpo.n_trim_rounds
        rows.append(
            {
                "Metric": mname,
                "Rounds without GPO": base.n_rounds,
                "Rounds with GPO": with_gpo.n_rounds,
                "Long-tail vertices": with_gpo.long_tail_peeled,
                "% Reduction (GPO)": round(
                    100.0 * (1 - with_gpo.n_rounds / base.n_rounds), 2
                ),
                "Rounds with LPO": lpo_rounds,
                "Sparse vertices": with_lpo.sparse_trimmed,
                "% Reduction (LPO)": round(
                    100.0 * (1 - lpo_rounds / base.n_rounds), 2
                ),
            }
        )
    return rows


# ---------------------------------------------------------------- Table 4
def table4(scale: float = 1.0) -> list[dict]:
    """Dataset statistics: synthetic analogue vs paper original."""
    rows = []
    for name, spec in DATASETS.items():
        g = load_dataset(name, scale)
        rows.append(
            {
                "Dataset": name,
                "|V| (synth)": g.n,
                "|E| (synth)": g.m,
                "avg deg (synth)": round(2 * g.m / g.n, 1),
                "|V| (paper)": spec.paper_v,
                "|E| (paper)": spec.paper_e,
                "avg deg (paper)": round(2 * spec.paper_e / spec.paper_v, 1),
            }
        )
    return rows


# ---------------------------------------------------------------- Table 5
def table5(scale: float = 1.0, datasets: tuple[str, ...] | None = None) -> list[dict]:
    """Runtime (simulated seconds at paper scale, 128 threads) — DG/DW/FD."""
    datasets = datasets or tuple(DATASETS)
    rows = []
    for ds in datasets:
        for system in EDGE_SYSTEMS:
            row = {"Dataset": ds, "Method": system}
            for mname in EDGE_METRICS:
                row[mname] = _fmt_time(run_system(ds, scale, mname, system).sim_s)
            rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 6
def table6(scale: float = 0.25, datasets: tuple[str, ...] | None = None) -> list[dict]:
    """Runtime (simulated seconds at paper scale) — TDS / kCLiDS."""
    datasets = datasets or tuple(DATASETS)
    rows = []
    for ds in datasets:
        for system in CLIQUE_SYSTEMS:
            row = {"Dataset": ds, "Method": system}
            for mname in CLIQUE_METRICS:
                row[mname] = _fmt_time(run_system(ds, scale, mname, system).sim_s)
            rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 7
def table7(scale: float = 1.0, datasets: tuple[str, ...] | None = None) -> list[dict]:
    """Density of the detected subgraph — DG/DW/FD."""
    datasets = datasets or tuple(DATASETS)
    rows = []
    for ds in datasets:
        for system in EDGE_SYSTEMS:
            row = {"Dataset": ds, "Method": system}
            for mname in EDGE_METRICS:
                row[mname] = round(run_system(ds, scale, mname, system).density, 2)
            rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 8
def table8(scale: float = 0.25, datasets: tuple[str, ...] | None = None) -> list[dict]:
    """Density of the detected subgraph — TDS / kCLiDS."""
    datasets = datasets or tuple(DATASETS)
    rows = []
    for ds in datasets:
        for system in CLIQUE_SYSTEMS:
            row = {"Dataset": ds, "Method": system}
            for mname in CLIQUE_METRICS:
                row[mname] = round(run_system(ds, scale, mname, system).density, 2)
            rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 9
GRAB_CASE_V = 80_000_000  # case-study Grab graph: |E| = 2B (paper §6.4)
GRAB_CASE_E = 2_000_000_000


def table9(scale: float = 1.0) -> list[dict]:
    """Latency vs prevention ratio on the 2B-edge case-study graph.

    Latencies: gfg-analogue work logs extrapolated to the case-study
    graph size; prevention ratios: the fraud-burst stream simulator
    (``repro.fraudsim``) evaluated at each latency.
    """
    stream = generate_stream(seed=42)
    graph = load_dataset("gfg", scale)
    # The production graph has triangles (the paper reports a TDS row);
    # our gfg analogue is strictly bipartite (zero triangles), so the
    # clique-metric latency sample uses the social analogue instead.
    cs_graph = load_dataset("soc", 0.25)
    spec_v, spec_e = GRAB_CASE_V, GRAB_CASE_E

    # GBBS imports precomputed peeling weights (its Table 5 protocol
    # excludes that offline pass); a production deployment cannot, so the
    # case-study latency charges the sequential materialization pass:
    # ~12 ops/edge for degree-only DG, ~75 ops/edge for weighted DW/FD
    # (hashing + log evaluation + bucket injection; calibrated once
    # against the paper's GBBS-DG case latency).
    GBBS_PRECOMPUTE_OPS = {"DG": 12.0, "DW": 75.0, "FD": 75.0}

    def latency(system: str, mname: str) -> float:
        metric = by_name(mname)
        g = cs_graph if metric.kind == "clique" else graph
        extra = 0.0
        if system == "Dupin":
            res = peel_local(g, metric, gpo(0.1))
        elif system == "GBBS":
            if metric.kind == "clique":
                return float("inf")  # GBBS lacks clique metrics ('-')
            res = gbbs_run(g, metric)
            extra = spec_e * GBBS_PRECOMPUTE_OPS[mname] / X5650.seq_rate
        elif system == "Spade":
            sres = spade_run(g, metric)
            return _spade_ops(sres, g, metric, spec_e) / X5650.seq_rate
        else:
            raise KeyError(system)
        return _simulate_paper_scale(
            res, g, metric, system, spec_v, spec_e, X5650
        ) + extra

    rows = []
    for system in ("Dupin", "Spade", "GBBS"):
        row: dict = {"Method": system}
        for mname in ("DG", "DW", "FD", "TDS"):
            lat = latency(system, mname)
            if lat == float("inf"):
                row[f"{mname} L(s)"], row[f"{mname} R"] = "-", "-"
            elif lat >= TIME_LIMIT_S:
                row[f"{mname} L(s)"], row[f"{mname} R"] = "TLE", "TLE"
            else:
                ratio = prevention_ratio(stream, lat)
                row[f"{mname} L(s)"] = round(lat, 2)
                row[f"{mname} R"] = f"{100 * ratio:.1f}%"
        rows.append(row)
    return rows


# --------------------------------------------------------------- Table 10
def table10(scale: float = 1.0) -> list[dict]:
    """X5650 vs EPYC 7742 runtimes on soc (simulated profiles)."""
    rows = []
    ds = "soc"
    for system in ("Spade", "FWA", "GBBS", "PBBS", "Dupin"):
        row: dict = {"System": system}
        for mname in EDGE_METRICS + CLIQUE_METRICS:
            metric = by_name(mname, KCLIDS_K)
            supported = (
                (system in ("Spade", "FWA", "GBBS") and metric.kind == "edge")
                or (system == "PBBS" and metric.kind == "clique")
                or system == "Dupin"
            )
            if not supported:
                row[f"{mname} X5650"] = "-"
                row[f"{mname} EPYC"] = "-"
                continue
            use_scale = scale if metric.kind == "edge" else min(scale, 0.25)
            s = run_system(ds, use_scale, mname, system)
            row[f"{mname} X5650"] = _fmt_time(s.sim_s)
            row[f"{mname} EPYC"] = _fmt_time(s.sim_epyc_s)
        rows.append(row)
    return rows
