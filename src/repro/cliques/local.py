"""Local (driver-side) triangle and k-clique enumeration.

This is the reproduction's stand-in for the kCLIST listing library the
paper relies on for TDS / kCLiDS peeling weights. Enumeration follows the
standard ordered-DAG approach: orient every edge from lower to higher
*degeneracy-ish* rank (degree, then id), then extend cliques only along
out-neighbours, so each clique is produced exactly once.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # repro.core imports this module, so no import at run time
    from repro.core.graph import LocalGraph


def _oriented_adj(g: LocalGraph) -> list[np.ndarray]:
    """Out-neighbour lists under a (degree, id) total order.

    Orienting by increasing degree keeps out-degrees near the arboricity,
    which is what bounds the k-clique search (Chiba–Nishizeki).
    """
    deg = g.degrees()
    rank = np.lexsort((np.arange(g.n), deg))  # vertex order: low degree first
    pos = np.empty(g.n, dtype=np.int64)
    pos[rank] = np.arange(g.n)
    lo_first = pos[g.src] < pos[g.dst]
    heads = np.where(lo_first, g.src, g.dst)
    tails = np.where(lo_first, g.dst, g.src)
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * g.n
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    bounds = np.searchsorted(heads, np.arange(g.n + 1))
    for u in range(g.n):
        nbrs = tails[bounds[u] : bounds[u + 1]]
        out[u] = np.sort(nbrs)
    return out


def enumerate_cliques(g: LocalGraph, k: int) -> np.ndarray:
    """All k-cliques as a ``(C, k)`` int64 array, each listed exactly once.

    ``k >= 2``; ``k == 2`` returns the edge list. Complexity follows the
    ordered extension: for each (k-1)-clique, intersect the out-neighbour
    sets of its members. Results are memoized on the graph object (every
    system peeling the same graph shares one enumeration).
    """
    if k < 2:
        raise ValueError("k-cliques need k >= 2")
    if k == 2:
        return np.stack([g.src, g.dst], axis=1).astype(np.int64)
    if k in g._clique_cache:
        return g._clique_cache[k]
    out = _oriented_adj(g)
    # Start from oriented edges, extend one vertex at a time.
    cliques: list[tuple] = []
    for u in range(g.n):
        ou = out[u]
        if ou.size == 0:
            continue
        for v in ou:
            common = np.intersect1d(ou, out[v], assume_unique=True)
            _extend(out, (int(u), int(v)), common, k, cliques)
    out_arr = (
        np.asarray(cliques, dtype=np.int64)
        if cliques
        else np.empty((0, k), dtype=np.int64)
    )
    g._clique_cache[k] = out_arr
    return out_arr


def _extend(out, prefix: tuple, cand: np.ndarray, k: int, acc: list) -> None:
    """Depth-first clique extension along the orientation."""
    if len(prefix) == k:
        acc.append(prefix)
        return
    if len(prefix) + 1 == k:
        for w in cand:
            acc.append(prefix + (int(w),))
        return
    for w in cand:
        nxt = np.intersect1d(cand, out[int(w)], assume_unique=True)
        if nxt.size or len(prefix) + 1 == k:
            _extend(out, prefix + (int(w),), nxt, k, acc)


def count_per_vertex(n: int, cliques: np.ndarray) -> np.ndarray:
    """Number of listed cliques containing each vertex (the peeling weight)."""
    counts = np.zeros(n, dtype=np.int64)
    if cliques.size:
        np.add.at(counts, cliques.ravel(), 1)
    return counts
