"""The three detection workloads: inputs, reference, detection, checks, layers.

Each workload builds its input graph and reference result once per
set-up (``prepare``), then runs detections in a closed loop, one client:
the next detection starts when the previous one returns. ``detect``
returns the list of problems its output check found; an empty list is a
correct detection. In a traced run ``layers`` then calls each layer's
public functions once on the workload's graph, each call in its own
span, and ``per_layer`` turns the spans and the event log into
per-layer metrics.

``--seed`` relabels the vertices of the generated graph (a random
permutation of ids). The graph stays isomorphic, so the peel decisions,
rounds and densities are those of the registered dataset, while the row
order Spark and NumPy see changes with the seed. ``gfg-dw`` calls the job
entry point with a dataset name, so its input is the registered graph
for every seed.
"""
from __future__ import annotations

import hashlib
import time
from collections import Counter

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

import jobs.dupin_detect as dupin_detect
from repro.cliques import enumerate_cliques
from repro.core import DW, TDS, LocalGraph, from_edges, peel_local, peel_spark
from repro.core.schedules import bucket, dupin, gpo, lpo
from repro.core.spark_engine import cliques_df, clique_weights_df, edge_weights_df
from repro.graphgen import load_dataset

from eventlog import COUNTS

EPS = 0.1  # ε of every Dupin schedule here: the job's and the API's default
REL_TOL = 1e-9  # densities: engines sum floats in different orders


def fresh(g: LocalGraph) -> LocalGraph:
    """The same arrays in a new LocalGraph, with no CSR or cliques cached."""
    return LocalGraph(g.n, g.src, g.dst, g.edge_weight, g.vertex_weight, g.labels)


def relabel(g: LocalGraph, seed: int) -> tuple[LocalGraph, np.ndarray]:
    """``g`` with vertex ``i`` renamed ``perm[i]``; returns ``(graph, perm)``."""
    perm = np.random.default_rng(seed).permutation(g.n)
    inv = np.argsort(perm)
    h = from_edges(
        g.n,
        perm[g.src],
        perm[g.dst],
        g.edge_weight,
        vertex_weight=g.vertex_weight[inv],
        labels={k: v[inv] for k, v in g.labels.items()},
    )
    return h, perm


def stamp_digest(stamp: np.ndarray, perm: np.ndarray) -> str:
    """sha256 of the peel stamps in the registered dataset's vertex ids."""
    return hashlib.sha256(np.ascontiguousarray(stamp[perm], dtype="<i8").tobytes()).hexdigest()


def fraud_overlap(g: LocalGraph, best: np.ndarray) -> dict[str, float]:
    """Recall and precision of ``best`` against the planted fraud labels."""
    fraud = g.labels["fraud_community"] >= 0
    hit = int(fraud[best].sum())
    return {
        "quality.fraud_recall": hit / max(1, int(fraud.sum())),
        "quality.fraud_precision": hit / max(1, best.size),
    }


def require(ok: bool, what: str) -> None:
    """Fail the run when a layer call's own output is wrong."""
    if not ok:
        raise RuntimeError(f"layer output check failed: {what}")


def density_problem(what: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= REL_TOL * abs(want):
        return []
    return [f"{what}: best_density {got!r} != {want!r}"]


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def spark_frames(spark, n: int, a: np.ndarray, src, dst, c):
    """Vertex and edge frames in the engine's schema, checkpointed so a
    traced layer call measures only its own work."""
    v = spark.createDataFrame(pd.DataFrame({"vid": np.arange(n, dtype=np.int64), "a": a}))
    e = spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst, "c": c}))
    return v.localCheckpoint(eager=True), e.localCheckpoint(eager=True)


def group_totals(spans, groups) -> list:
    """Event-log counters of each span's job group (zero when it ran no job)."""
    return [groups.get(s.group, Counter()) for s in spans]


def count_drift(what: str, totals: list, keys) -> list[str]:
    """Counts must repeat exactly across the detections of one run."""
    seen = {tuple(t[k] for k in keys) for t in totals}
    if len(seen) > 1:
        return [f"count drift in {what} {tuple(keys)}: {sorted(seen)}"]
    return []


def spark_layer_metrics(tr, groups, out: dict) -> None:
    """Metrics of the standalone Spark layer calls made by ``layers``."""
    for name in ("core.graph.to_spark", "core.spark_engine.weights"):
        spans = tr.named(name)
        if spans:
            out[f"{name}_s"] = spans[0].seconds
            out[f"{name}_jobs"] = group_totals(spans, groups)[0]["jobs"]
    spans = tr.named("core.spark_engine.cliques")
    if spans:
        out["core.spark_engine.cliques_s"] = spans[0].seconds
        out["core.spark_engine.cliques_shuffle_bytes"] = group_totals(spans, groups)[0][
            "shuffle_write_bytes"
        ]


def spark_peel_metrics(peels, groups, out: dict) -> list[str]:
    """Per-layer metrics of the traced ``peel_spark`` calls: times of the
    first, counts checked across all; returns any count drift."""
    totals = group_totals(peels, groups)
    res = peels[0].result
    steps = res.n_rounds + res.n_trim_rounds
    peel_s = peels[0].seconds
    first = totals[0]
    out.update(
        {
            "core.spark_engine.peel_s": peel_s,
            "core.spark_engine.jobs": first["jobs"],
            "core.spark_engine.stages": first["stages"],
            "core.spark_engine.tasks": first["tasks"],
            "core.spark_engine.jobs_per_step": first["jobs"] / steps,
            "core.spark_engine.s_per_step": peel_s / steps,
            "core.spark_engine.shuffle_write_bytes": first["shuffle_write_bytes"],
            "core.spark_engine.shuffle_read_bytes": first["shuffle_read_bytes"],
            "core.spark_engine.executor_run_s": first["executor_run_ms"] / 1e3,
            "core.spark_engine.job_wall_s": first["job_wall_ms"] / 1e3,
            "core.spark_engine.driver_gap_s": peel_s - first["job_wall_ms"] / 1e3,
        }
    )
    out.update(schedule_metrics(res))
    return count_drift("core.spark_engine.peel", totals, COUNTS) + count_drift(
        "core.schedules", [schedule_metrics(s.result) for s in peels], SCHEDULE_KEYS
    )


SCHEDULE_KEYS = ("core.schedules.rounds", "core.schedules.trim_rounds", "core.schedules.steps")


def schedule_metrics(res) -> dict:
    return dict(
        zip(SCHEDULE_KEYS, (res.n_rounds, res.n_trim_rounds, res.n_rounds + res.n_trim_rounds))
    )


class GfgDw:
    """DupinLPO through the job entry point on the Grab-analogue graph."""

    name = "gfg-dw"
    uses_spark = True
    dataset, scale = "gfg", 1.0

    def __init__(self, seed: int):
        self.seed = seed  # the job loads the registered graph by name

    def prepare(self) -> dict[str, float]:
        load_dataset.cache_clear()
        self.graph, gen_s = timed(load_dataset, self.dataset, self.scale)
        self.ref, ref_s = timed(peel_local, fresh(self.graph), DW, lpo(EPS))
        return {"graphgen.gen_s": gen_s, "reference_s": ref_s}

    def detect(self, spark, tr) -> list[str]:
        with tr.wrap(dupin_detect, "peel_spark", "core.spark_engine.peel"):
            rows = dupin_detect.run(spark, self.dataset, self.scale, "DW", EPS).collect()
        vids = np.sort(np.asarray([r["vid"] for r in rows], dtype=np.int64))
        problems = []
        if not np.array_equal(vids, self.ref.best_set):
            problems.append(f"best_set of {vids.size} vertices differs from the reference")
        else:
            comm = self.graph.labels["fraud_community"]
            if any(r["fraud_community"] != comm[r["vid"]] for r in rows):
                problems.append("fraud_community labels differ from the graph's")
        for d in {r["density"] for r in rows}:
            problems += density_problem(self.name, d, self.ref.best_density)
        if tr.on:
            res = tr.named("core.spark_engine.peel")[-1].result
            if not np.array_equal(res.peel_stamp, self.ref.peel_stamp):
                problems.append("peel_stamp differs from the reference")
        self.best = vids
        self.density = rows[0]["density"] if rows else float("nan")
        return problems

    def layers(self, spark, tr) -> None:
        g = self.graph
        with tr.span("core.graph.to_spark"):
            v, e = g.to_spark(spark)
            counts = (v.count(), e.count())
        require(counts == (g.n, g.m), f"to_spark counts {counts}")
        with tr.span("core.metrics.build"):
            ew = DW.build(g)
        v, e = spark_frames(spark, g.n, ew.a, g.src, g.dst, ew.c)
        with tr.span("core.spark_engine.weights"):
            row = edge_weights_df(v, e).agg(F.sum("w"), F.count(F.lit(1))).first()
        want = float(ew.a.sum() + 2.0 * ew.c.sum())
        require(row[1] == g.n and abs(row[0] - want) <= REL_TOL * want, f"weights {row} vs {want}")

    def per_layer(self, tr, groups, prep) -> tuple[dict, list[str]]:
        out = {"graphgen.gen_s": prep["graphgen.gen_s"]}
        out["core.metrics.build_s"] = tr.named("core.metrics.build")[0].seconds
        spark_layer_metrics(tr, groups, out)
        detects = tr.named("detect")
        peels = [tr.children(d, "core.spark_engine.peel")[0] for d in detects]
        drift = spark_peel_metrics(peels, groups, out)
        out["jobs.dupin_detect.output_s"] = detects[0].seconds - peels[0].seconds
        out.update(fraud_overlap(self.graph, self.best))
        return out, drift


class SocTds:
    """DupinGPO with the triangle metric on the Spark engine, where the
    clique self-joins carry the time.

    GPO, not LPO: each step re-lists every triangle and costs a few
    seconds, and LPO's seven trim steps would nearly double a run.
    """

    name = "soc-tds"
    uses_spark = True
    dataset, scale = "soc", 0.25

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> dict[str, float]:
        load_dataset.cache_clear()
        t0 = time.perf_counter()
        self.graph, self.perm = relabel(load_dataset(self.dataset, self.scale), self.seed)
        gen_s = time.perf_counter() - t0
        self.ref, ref_s = timed(peel_local, fresh(self.graph), TDS, gpo(EPS))
        return {"graphgen.gen_s": gen_s, "reference_s": ref_s}

    def detect(self, spark, tr) -> list[str]:
        with tr.span("core.spark_engine.peel") as s:
            res = peel_spark(spark, fresh(self.graph), TDS, gpo(EPS))
        if s is not None:
            s.result = res
        self.best, self.density = res.best_set, res.best_density
        problems = density_problem(self.name, res.best_density, self.ref.best_density)
        if not np.array_equal(res.peel_stamp, self.ref.peel_stamp):
            problems.append("peel_stamp differs from the reference")
        return problems

    def layers(self, spark, tr) -> None:
        g = self.graph
        with tr.span("core.graph.to_spark"):
            v, e = g.to_spark(spark)
            counts = (v.count(), e.count())
        require(counts == (g.n, g.m), f"to_spark counts {counts}")
        with tr.span("cliques.enumerate"):
            n_tri = enumerate_cliques(fresh(g), 3).shape[0]
        v, e = spark_frames(spark, g.n, g.vertex_weight, g.src, g.dst, g.edge_weight)
        with tr.span("core.spark_engine.cliques"):
            listed = cliques_df(e, 3).count()
        with tr.span("core.spark_engine.weights"):
            row = clique_weights_df(v, e, 3).agg(F.sum("w"), F.count(F.lit(1))).first()
        require(
            listed == n_tri and row[0] == 3 * n_tri and row[1] == g.n,
            f"{listed} cliques listed, weights {row}, {n_tri} triangles enumerated",
        )

    def per_layer(self, tr, groups, prep) -> tuple[dict, list[str]]:
        out = {"graphgen.gen_s": prep["graphgen.gen_s"]}
        out["cliques.enumerate_s"] = tr.named("cliques.enumerate")[0].seconds
        spark_layer_metrics(tr, groups, out)
        drift = spark_peel_metrics(tr.named("core.spark_engine.peel"), groups, out)
        out.update(fraud_overlap(self.graph, self.best))
        return out, drift


# Seed values of peel_local on la x1, DW, in the registered vertex ids:
# best_density and sha256 of the peel stamps, per schedule.
LA_EXPECTED = {
    "dupin": (
        2446.4340605169104,
        "14a4557bb87ffb61af066c0b832f52aaabb7020089140111ae4faeaf06e08fcb",
    ),
    "dupin-gpo": (
        2446.4340605169104,
        "14a4557bb87ffb61af066c0b832f52aaabb7020089140111ae4faeaf06e08fcb",
    ),
    "dupin-lpo": (
        2731.6054621369494,
        "affdbf8376d993ce0f6351dbe4bbb6c721a46149ccff8424ec73df4502ad6b70",
    ),
    "bucket": (
        2926.5312700024983,
        "64c9adb11b75a758ce76d78e8c440cea3aba5c99ff68e873c6c1c1cb4acc75f7",
    ),
}


class LaLocal:
    """The NumPy/CSR reference engine on the largest graph, four schedules
    in sequence on a graph with nothing cached, as a first call pays."""

    name = "la-local"
    uses_spark = False
    dataset, scale = "la", 1.0
    schedules = (dupin(EPS), gpo(EPS), lpo(EPS), bucket())

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> dict[str, float]:
        load_dataset.cache_clear()
        t0 = time.perf_counter()
        self.graph, self.perm = relabel(load_dataset(self.dataset, self.scale), self.seed)
        return {"graphgen.gen_s": time.perf_counter() - t0}

    def detect(self, spark, tr) -> list[str]:
        g = fresh(self.graph)
        with tr.span("core.graph.csr"):
            g.csr()
        problems = []
        self.results = {}
        for sched in self.schedules:
            layer = "bucket" if sched.mode == "bucket" else "threshold"
            with tr.span(f"core.local_engine.{layer}"):
                res = peel_local(g, DW, sched)
            want_g, want_digest = LA_EXPECTED[sched.name]
            problems += density_problem(f"{self.name} {sched.name}", res.best_density, want_g)
            if stamp_digest(res.peel_stamp, self.perm) != want_digest:
                problems.append(f"{sched.name}: peel_stamp differs from the seed values")
            self.results[sched.name] = res
        self.density = self.results["dupin-lpo"].best_density
        return problems

    def layers(self, spark, tr) -> None:
        with tr.span("core.metrics.build"):
            DW.build(fresh(self.graph))

    def per_layer(self, tr, groups, prep) -> tuple[dict, list[str]]:
        first = tr.named("detect")[0]

        def per_detect(name):
            return sum(s.seconds for s in tr.children(first, name))

        lpo_res = self.results["dupin-lpo"]
        out = {
            "graphgen.gen_s": prep["graphgen.gen_s"],
            "core.metrics.build_s": tr.named("core.metrics.build")[0].seconds,
            "core.graph.csr_s": per_detect("core.graph.csr"),
            "core.local_engine.threshold_s": per_detect("core.local_engine.threshold"),
            "core.local_engine.bucket_s": per_detect("core.local_engine.bucket"),
            "core.local_engine.bucket_rounds": self.results["bucket"].n_rounds,
            **schedule_metrics(lpo_res),
            **fraud_overlap(self.graph, lpo_res.best_set),
        }
        return out, []


WORKLOADS = {w.name: w for w in (GfgDw, SocTds, LaLocal)}
