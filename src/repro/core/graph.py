"""Graph containers shared by the local (NumPy/CSR) and Spark engines.

A :class:`LocalGraph` stores an undirected weighted graph once per edge
(``src < dst``) plus a CSR adjacency over *half-edges* so peeling-weight
updates vectorize. Vertex ids are dense ``0..n-1`` ints. The same arrays
feed ``to_spark`` so both engines peel bit-identical inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class LocalGraph:
    """Undirected weighted graph with optional per-vertex attributes.

    Attributes
    ----------
    n : number of vertices (ids are ``0..n-1``)
    src, dst : int64 arrays, one entry per undirected edge with ``src < dst``
    edge_weight : float64 per-edge weight (transaction amount etc.)
    vertex_weight : float64 per-vertex prior suspiciousness (``a_i``)
    labels : optional per-vertex metadata (e.g. fraud flags) for fraudsim
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    edge_weight: np.ndarray
    vertex_weight: np.ndarray
    labels: dict = field(default_factory=dict)

    # CSR over half-edges, built lazily
    _indptr: np.ndarray | None = None
    _nbr: np.ndarray | None = None
    _eid: np.ndarray | None = None
    # per-graph clique-enumeration cache: k -> (C, k) array
    _clique_cache: dict = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.src.size)

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Half-edge CSR ``(indptr, nbr, eid)``.

        ``nbr[indptr[u]:indptr[u+1]]`` are the neighbours of ``u``;
        ``eid`` maps each half-edge back to its undirected edge index.
        """
        if self._indptr is None:
            heads = np.concatenate([self.src, self.dst])
            tails = np.concatenate([self.dst, self.src])
            eids = np.concatenate([np.arange(self.m), np.arange(self.m)])
            order = np.argsort(heads, kind="stable")
            heads, tails, eids = heads[order], tails[order], eids[order]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.add.at(indptr, heads + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._indptr, self._nbr, self._eid = indptr, tails.astype(np.int64), eids
        return self._indptr, self._nbr, self._eid

    def degrees(self) -> np.ndarray:
        """Vertex degrees in the full graph."""
        d = np.zeros(self.n, dtype=np.int64)
        np.add.at(d, self.src, 1)
        np.add.at(d, self.dst, 1)
        return d

    def to_pandas(self) -> tuple[pd.DataFrame, pd.DataFrame]:
        """``(vertices, edges)`` pandas frames — also the oracle input."""
        verts = pd.DataFrame(
            {"vid": np.arange(self.n, dtype=np.int64), "a": self.vertex_weight}
        )
        edges = pd.DataFrame(
            {"src": self.src, "dst": self.dst, "c": self.edge_weight}
        )
        return verts, edges

    def to_spark(self, spark):
        """``(vertices, edges)`` Spark DataFrames for a ``SparkSession``,
        built by the engine's own ingest from Arrow tables, so no Python
        worker reads them; imported here so the local path needs no
        ``pyspark``."""
        from repro.core.spark_engine import ingest

        return ingest(spark, self.vertex_weight, self.src, self.dst, self.edge_weight)


def from_edges(
    n: int,
    src,
    dst,
    edge_weight=None,
    vertex_weight=None,
    labels: dict | None = None,
) -> LocalGraph:
    """Build a :class:`LocalGraph`, normalizing and merging parallel edges.

    Self-loops are dropped; ``(u, v)`` and ``(v, u)`` duplicates are merged
    by *summing* their weights (parallel transactions accumulate, matching
    the transaction-network semantics in the paper's use case). Raises
    ``ValueError`` for an id outside ``[0, n)``, for ``src``, ``dst`` and
    ``edge_weight`` of unequal length, and for a ``vertex_weight`` that is
    not of length ``n``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if edge_weight is None:
        edge_weight = np.ones(src.size, dtype=np.float64)
    edge_weight = np.asarray(edge_weight, dtype=np.float64)
    if not src.size == dst.size == edge_weight.size:
        raise ValueError(
            "src, dst and edge_weight differ in length: "
            f"{src.size}, {dst.size}, {edge_weight.size}"
        )
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"vertex ids must lie in [0, {n})")
    if vertex_weight is not None and np.size(vertex_weight) != n:
        raise ValueError(
            f"vertex_weight has {np.size(vertex_weight)} entries, not n = {n}"
        )
    keep = src != dst
    src, dst, edge_weight = src[keep], dst[keep], edge_weight[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = lo * np.int64(n) + hi
    order = np.argsort(key, kind="stable")
    key, lo, hi, edge_weight = key[order], lo[order], hi[order], edge_weight[order]
    uniq, start = np.unique(key, return_index=True)
    w = np.add.reduceat(edge_weight, start) if key.size else edge_weight
    lo, hi = lo[start], hi[start]
    if vertex_weight is None:
        vertex_weight = np.zeros(n, dtype=np.float64)
    return LocalGraph(
        n=n,
        src=lo,
        dst=hi,
        edge_weight=np.asarray(w, dtype=np.float64),
        vertex_weight=np.asarray(vertex_weight, dtype=np.float64),
        labels=labels or {},
    )


def induced_f_edge(g: LocalGraph, members: np.ndarray) -> float:
    """``f(S)`` for an edge-based metric: Σ a_i + Σ c_ij over ``G[S]``."""
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    inside = mask[g.src] & mask[g.dst]
    return float(g.vertex_weight[members].sum() + g.edge_weight[inside].sum())
