"""Scan graph with per-edge relative motions and confidences.

Graphs are immutable snapshots: every mutation-like operation returns a new
graph, so concurrent readers need no locking. Edges are stored once per
unordered pair with i < j; the reverse direction is derived on demand from
the compatibility relations R_ji = R_ij^T, t_ji = -R_ij^T t_ij.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DuplicateEdge, EmptyResiduals, IndexOutOfRange
from .geometry import RigidMotion, invert
from .pairwise import PairwiseResult, mad_scale

CAUCHY_MAD_TO_SIGMA = 1.482


@dataclass(frozen=True, eq=False)
class Edge:
    """Relative motion measurement between scans i and j (stored with i < j).

    The motion maps frame-i coordinates into frame j. Confidences live in
    [0, 1]; pruned edges keep their data but are excluded from synchronization.
    """

    i: int
    j: int
    motion: RigidMotion
    c_local: float
    c_global: float = 1.0
    c_fused: float | None = None
    active: bool = True

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"edge endpoints must satisfy 0 <= i < j, got ({self.i}, {self.j})")
        if self.c_fused is None:
            object.__setattr__(self, "c_fused", self.c_local)
        for name in ("c_local", "c_global", "c_fused"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True, eq=False)
class PoseGraph:
    """Nodes 0..n-1 plus at most one measurement edge per unordered pair."""

    node_count: int
    edges: tuple[Edge, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("a pose graph needs at least 2 nodes")
        edges = tuple(self.edges)
        index = {}
        for k, e in enumerate(edges):
            if e.j >= self.node_count:
                raise IndexOutOfRange(
                    f"edge ({e.i}, {e.j}) references a node >= node_count {self.node_count}"
                )
            if (e.i, e.j) in index:
                raise DuplicateEdge(f"edge ({e.i}, {e.j}) supplied more than once")
            index[(e.i, e.j)] = k
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_index", index)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._index

    def edge(self, i: int, j: int) -> Edge:
        """Edge record for the unordered pair {i, j}."""
        key = (min(i, j), max(i, j))
        if key not in self._index:
            raise KeyError(f"no edge between {i} and {j}")
        return self.edges[self._index[key]]

    def relative_motion(self, i: int, j: int) -> RigidMotion:
        """Measured motion mapping frame-i coordinates into frame j."""
        e = self.edge(i, j)
        return e.motion if (i, j) == (e.i, e.j) else invert(e.motion)

    def active_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.active)

    def with_edges(self, edges) -> "PoseGraph":
        return PoseGraph(self.node_count, tuple(edges))


def build_graph(pairwise: list[tuple[int, int, PairwiseResult]], n: int) -> PoseGraph:
    """Graph from pairwise results; input pairs are canonicalized to i < j.

    Initial confidences follow the first-iteration rule: the fused confidence
    is the local one, and the global confidence starts at 1.
    """
    edges = []
    seen = set()
    for i, j, result in pairwise:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"pair ({i}, {j}) out of range for {n} nodes")
        if i == j:
            raise IndexOutOfRange(f"self-loop ({i}, {j}) is not a valid edge")
        motion = result.motion
        if i > j:
            i, j = j, i
            motion = invert(motion)
        if (i, j) in seen:
            raise DuplicateEdge(f"pair ({i}, {j}) supplied more than once")
        seen.add((i, j))
        edges.append(
            Edge(i, j, motion, c_local=result.local_confidence, c_global=1.0,
                 c_fused=result.local_confidence, active=True)
        )
    return PoseGraph(n, tuple(edges))


def cauchy_scale(residual_values, gamma: float) -> float:
    """Robust scale b = 1.482 * gamma * med(|r - med(r)|), floored at 1e-9."""
    r = np.asarray(residual_values, dtype=np.float64)
    if r.size == 0:
        raise EmptyResiduals("cannot estimate a scale from zero residuals")
    return float(mad_scale(r.ravel(), CAUCHY_MAD_TO_SIGMA * gamma)[0])


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def cauchy_global_confidence(edge_residual, b: float):
    """Cauchy weight 1 / (1 + r/b) of consistency residuals at scale b.

    Element-wise on arrays; a scalar residual gives a float.
    """
    if b <= 0.0:
        raise ValueError("scale b must be positive")
    r = np.asarray(edge_residual, dtype=np.float64)
    if np.any(r < 0.0):
        raise ValueError("edge residual must be non-negative")
    return _scalar_or_array(1.0 / (1.0 + r / b))


def harmonic_fuse(c_local, c_global, beta: float):
    """Weighted harmonic mean (1 + b^2) c_g c_l / (b^2 c_g + c_l).

    beta balances the two terms; beta = 1 is the plain harmonic mean. The
    result is 0 where both confidences vanish. Element-wise on arrays; scalar
    confidences give a float.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    c_local = np.asarray(c_local, dtype=np.float64)
    c_global = np.asarray(c_global, dtype=np.float64)
    denom = beta**2 * c_global + c_local
    vanished = denom == 0.0
    fused = (1.0 + beta**2) * c_global * c_local / np.where(vanished, 1.0, denom)
    return _scalar_or_array(np.where(vanished, 0.0, fused))


def prune_edges(g: PoseGraph, tau: float) -> PoseGraph:
    """Deactivate edges whose fused confidence fell below tau.

    Edges are never deleted, only flagged inactive, so earlier state can be
    reported after a pruning collapse. Already-inactive edges stay inactive.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    edges = tuple(
        replace(e, active=False) if e.active and e.c_fused < tau else e for e in g.edges
    )
    return g.with_edges(edges)


def is_connected(g: PoseGraph) -> bool:
    """True when the active edges connect all nodes (breadth-first search)."""
    adjacency = [[] for _ in range(g.node_count)]
    for e in g.active_edges():
        adjacency[e.i].append(e.j)
        adjacency[e.j].append(e.i)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.node_count
