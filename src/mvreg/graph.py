"""Scan graph with per-edge relative motions and confidences.

A PoseGraph keeps one row per edge in read-only arrays, validated once when
it is built: `pairs` (m x 2, i < j), `motions` (m x 4 x 4, mapping frame-i
coordinates into frame j), `c_local`, `c_global` and `c_fused` in [0, 1],
and the `active` mask. Graphs are immutable snapshots: each update returns a
new graph, and pruned edges keep their rows. Edge is a row as a record;
PoseGraph.from_edges takes records, and `edges` and `active_edges()` give
them back, built on first use. Reverse directions follow from
R_ji = R_ij^T, t_ji = -R_ij^T t_ij.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DuplicateEdge, EmptyResiduals, IndexOutOfRange
from .geometry import RigidMotion, motion_stack, non_rotations
from .pairwise import PairwiseFits, mad_scale

CAUCHY_MAD_TO_SIGMA = 1.482
_CONFIDENCES = ("c_local", "c_global", "c_fused")
# an Edge record's fields after i, j and motion
_SCALARS = (*_CONFIDENCES, "active")


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
        if not isinstance(self.motion, RigidMotion):
            raise ValueError(f"edge motion must be a RigidMotion, got {type(self.motion).__name__}")
        if not 0 <= self.i < self.j:
            raise ValueError(f"edge endpoints must satisfy 0 <= i < j, got ({self.i}, {self.j})")
        if self.c_fused is None:
            object.__setattr__(self, "c_fused", self.c_local)
        for name in _CONFIDENCES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _column(values, dtype, shape, name) -> np.ndarray:
    """A read-only copy of values in dtype and shape; another kind, such as float indices, fails."""
    column = np.asarray(values)
    if column.size and not np.can_cast(column.dtype, dtype, "same_kind"):
        raise ValueError(f"{name} must hold {np.dtype(dtype)} values, got {column.dtype}")
    column = np.array(column, dtype=dtype)
    if column.size == 0 == shape[0]:
        column = column.reshape(shape)
    if column.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {column.shape}")
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class PoseGraph:
    """Nodes 0..node_count-1 and at most one edge per unordered pair, a row each."""

    node_count: int
    pairs: np.ndarray
    motions: np.ndarray
    c_local: np.ndarray
    c_global: np.ndarray
    c_fused: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        n = self.node_count
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"a pose graph needs an integer node count of at least 2, got {n!r}")
        m = len(self.pairs) if np.ndim(self.pairs) else -1
        columns = {"node_count": int(n), "pairs": _column(self.pairs, np.intp, (m, 2), "pairs"),
                   "motions": _column(self.motions, np.float64, (m, 4, 4), "motions"),
                   "active": _column(self.active, bool, (m,), "active")}
        i, j = columns["pairs"].T
        motions = columns["motions"]
        rigid = (np.isfinite(motions).all(axis=(1, 2)) & ~non_rotations(motions[:, :3, :3])
                 & (motions[:, 3] == (0.0, 0.0, 0.0, 1.0)).all(axis=1))
        repeated = np.ones(m, dtype=bool)
        repeated[np.unique(i * n + j, return_index=True)[1]] = False
        checks = [((i < 0) | (i == j) | (j >= n), IndexOutOfRange, f"is a loop or leaves 0..{n - 1}"),
                  (i > j, ValueError, "must be stored with i < j"),
                  (repeated, DuplicateEdge, "is supplied more than once"),
                  (~rigid, ValueError, "has a motion that is not a finite rigid 4x4 matrix")]
        for name in _CONFIDENCES:
            columns[name] = c = _column(getattr(self, name), np.float64, (m,), name)
            checks.append((~((c >= 0.0) & (c <= 1.0)), ValueError, f"has {name} outside [0, 1]"))
        for bad, error, what in checks:
            if bad.any():
                k = int(np.argmax(bad))
                raise error(f"edge ({i[k]}, {j[k]}) {what}")
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "PoseGraph":
        """Graph of Edge records, one row each in the order given."""
        edges = tuple(edges)
        return cls(node_count, [(e.i, e.j) for e in edges], [e.motion.matrix for e in edges],
                   *([getattr(e, name) for e in edges] for name in _SCALARS))

    def with_rows(self, rows, **columns) -> "PoseGraph":
        """A new graph with the given rows of each named array overwritten."""
        changed = {name: getattr(self, name).copy() for name in columns}
        for name, values in columns.items():
            changed[name][rows] = values
        return replace(self, **changed)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every row as an Edge record, in storage order."""
        motions = motion_stack(self.motions[:, :3, :3], self.motions[:, :3, 3])
        scalars = (getattr(self, name).tolist() for name in _SCALARS)
        return tuple(Edge(*row) for row in zip(*self.pairs.T.tolist(), motions, *scalars))

    def active_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.active)


def build_graph(n: int, pairs, fits: PairwiseFits) -> PoseGraph:
    """Graph on n nodes of the pairs (i, j), i < j, and their fits, one row each.

    Initial confidences follow the first-iteration rule: the fused confidence
    is the local one, and the global confidence starts at 1. Every row of
    fits must be fitted, as register_batch returns them.
    """
    if not np.all(fits.fitted):
        raise ValueError("every pair needs a fitted motion")
    ones = np.ones(len(fits))
    c_local = fits.local_confidence
    return PoseGraph(n, pairs, fits.motions, c_local, ones, c_local, ones.astype(bool))


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
    return replace(g, active=g.active & ~(g.c_fused < tau))


def search_tree(n: int, pairs, roots=(0,), key=None) -> tuple[list[int], list[int]]:
    """Breadth-first search over the edges `pairs` (m x 2).

    A search starts from each node of `roots` in turn that no earlier search
    reached. Each node's neighbours are visited in edge order, or in the
    order of `key` when it is given. Returns the nodes reached, in visiting
    order, and each node's parent in the search forest: a root is its own
    parent, and a node not reached has -1. An edge is the only one between
    its two nodes, so a node and its parent name its tree edge.
    """
    adjacency = [[] for _ in range(n)]
    for i, j in np.asarray(pairs).tolist():
        adjacency[i].append(j)
        adjacency[j].append(i)
    if key is not None:
        for a in adjacency:
            a.sort(key=key)
    parent = [-1] * n
    order = []
    head = 0
    for root in roots:
        if parent[root] < 0:
            parent[root] = root
            order.append(root)
        # order is also the queue
        while head < len(order):
            u = order[head]
            head += 1
            for v in adjacency[u]:
                if parent[v] < 0:
                    parent[v] = u
                    order.append(v)
    return order, parent


def is_connected(g: PoseGraph) -> bool:
    """True when the active edges connect all nodes."""
    return len(search_tree(g.node_count, g.pairs[g.active])[0]) == g.node_count
