"""Spans around the benchmark's calls into the program's layers.

A span records a layer name, its wall interval, the span that caused it
and, with Spark, a job group of its own, so the event log can charge each
Spark job to exactly one span. Spans stay in memory until the run ends.
Nothing here reaches inside the program: ``wrap`` only replaces a public
name in a module's namespace for the duration of a ``with`` block.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Span:
    name: str
    group: str  # Spark job group, unique per span
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    result: Any = field(default=None, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when ``on``; otherwise every method is a no-op.

    ``sc`` is the SparkContext whose job group follows the innermost open
    span, or None when the workload runs without Spark.
    """

    def __init__(self, on: bool, sc=None):
        self.on = on
        self.sc = sc
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _set_group(self, span: Span | None) -> None:
        if self.sc is None:
            return
        if span is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(span.group, span.name)

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield None
            return
        parent = self._open[-1] if self._open else None
        s = Span(name, f"{name}#{len(self.spans)}", 0.0, parent=parent)
        self.spans.append(s)
        self._open.append(s)
        self._set_group(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self._set_group(parent)

    @contextmanager
    def wrap(self, module, attr: str, name: str):
        """Run every call of ``module.attr`` inside a span called ``name``
        that keeps the call's return value."""
        if not self.on:
            yield
            return
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                s.result = original(*args, **kwargs)
            return s.result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, parent: Span, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is parent and s.name == name]
