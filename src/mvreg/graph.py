"""Scan graph with per-edge relative motions and confidences.

A PoseGraph keeps one row per edge in read-only arrays: `pairs` (m x 2,
i < j), `motions` (m x 4 x 4, mapping frame-i coordinates into frame j),
`c_local`, `c_global` and `c_fused` in [0, 1], and the `active` mask. The
last three default to the first iteration's values: c_global 1, c_fused =
c_local, every row active. A graph is checked once, when the constructor
builds it. Graphs are immutable snapshots: the solver's own updates
(synchronization and pruning) each return a new graph and are not checked
again, and pruned edges keep their rows. A graph is built from
arrays only; Edge is a read-only view of one row, and `edges` and
`active_edges()` give the rows as views, built on first use. Reverse
directions follow from R_ji = R_ij^T, t_ji = -R_ij^T t_ij.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DuplicateEdge, EmptyResiduals, IndexOutOfRange
from .geometry import RigidMotion, motion_stack, non_rotations
from .pairwise import PairwiseFits, mad_scale

CAUCHY_MAD_TO_SIGMA = 1.482
# the global confidence's Cauchy scale in robust sigmas, and its fusion weight
GAMMA = 3.0
BETA = 1.0
# an active edge is pruned when its c_global is below this share of the
# active edges' median c_global
PRUNE_RATIO = 0.25
_CONFIDENCES = ("c_local", "c_global", "c_fused")
# the columns after pairs and motions, and an Edge record's fields after i, j and motion
_SCALARS = (*_CONFIDENCES, "active")


@dataclass(frozen=True, eq=False)
class Edge:
    """One row of a PoseGraph as a record: the relative motion between scans
    i < j, mapping frame-i coordinates into frame j, its confidences and
    whether it is active. Built by PoseGraph.edges from validated rows."""

    i: int
    j: int
    motion: RigidMotion
    c_local: float
    c_global: float
    c_fused: float
    active: bool


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
    """Nodes 0..node_count-1 and at most one edge per unordered pair, a row each.

    c_global, c_fused and active left as None take the first iteration's
    values: all ones, c_local, and all true.
    """

    node_count: int
    pairs: np.ndarray
    motions: np.ndarray
    c_local: np.ndarray
    c_global: np.ndarray | None = None
    c_fused: np.ndarray | None = None
    active: np.ndarray | None = None

    def __post_init__(self):
        n = self.node_count
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"a pose graph needs an integer node count of at least 2, got {n!r}")
        m = len(self.pairs) if np.ndim(self.pairs) else -1
        columns = {"node_count": int(n), "pairs": _column(self.pairs, np.intp, (m, 2), "pairs"),
                   "motions": _column(self.motions, np.float64, (m, 4, 4), "motions")}
        # the first iteration's values of the columns left as None
        first = {"c_local": None, "c_global": np.ones(m), "c_fused": self.c_local,
                 "active": np.ones(m, dtype=bool)}
        given = {name: first[name] if getattr(self, name) is None else getattr(self, name)
                 for name in _SCALARS}
        columns["active"] = _column(given["active"], bool, (m,), "active")
        for name in _CONFIDENCES:
            columns[name] = _column(given[name], np.float64, (m,), name)
        pairs, motions = columns["pairs"], columns["motions"]
        i, j = pairs.T
        repeated = np.ones(m, dtype=bool)
        repeated[np.unique(i * n + j, return_index=True)[1]] = False
        rigid = (np.isfinite(motions).all(axis=(1, 2)) & ~non_rotations(motions[:, :3, :3])
                 & (motions[:, 3] == (0.0, 0.0, 0.0, 1.0)).all(axis=1))
        # (bad rows, error, what): the first failing check raises, naming its first bad edge
        checks = [((i < 0) | (i == j) | (j >= n), IndexOutOfRange,
                   f"is a loop or leaves 0..{n - 1}"),
                  (i > j, ValueError, "must be stored with i < j"),
                  (repeated, DuplicateEdge, "is supplied more than once"),
                  (~rigid, ValueError, "has a motion that is not a finite rigid 4x4 matrix"),
                  *((~((columns[name] >= 0.0) & (columns[name] <= 1.0)), ValueError,
                     f"has {name} outside [0, 1]") for name in _CONFIDENCES)]
        for bad, error, what in checks:
            if bad.any():
                raise error(f"edge {tuple(pairs[int(np.argmax(bad))].tolist())} {what}")
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    def _with_rows(self, rows, **columns) -> "PoseGraph":
        """A new graph with the given rows of each named column overwritten.

        For the solver's own updates: the new columns are frozen, not checked.
        """
        new = object.__new__(PoseGraph)
        for f in fields(self):
            object.__setattr__(new, f.name, getattr(self, f.name))
        for name, values in columns.items():
            column = getattr(self, name).copy()
            column[rows] = values
            column.setflags(write=False)
            object.__setattr__(new, name, column)
        return new

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every row as an Edge record, in storage order."""
        motions = motion_stack(self.motions)
        scalars = (getattr(self, name).tolist() for name in _SCALARS)
        return tuple(Edge(*row) for row in zip(*self.pairs.T.tolist(), motions, *scalars))

    def active_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.active)


def build_graph(n: int, pairs, fits: PairwiseFits) -> PoseGraph:
    """Graph on n nodes of the pairs (i, j), i < j, and their fits from
    register_batch, one row each, with PoseGraph's first-iteration confidences.
    """
    return PoseGraph(n, pairs, fits.motions, fits.local_confidence)


def cauchy_scale(residual_values, gamma: float) -> float:
    """Robust scale b = 1.482 * gamma * med(|r - med(r)|), floored at 1e-9."""
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
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
    if not 0.0 < b < np.inf:
        raise ValueError("scale b must be positive and finite")
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
    if not 0.0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    c_local = np.asarray(c_local, dtype=np.float64)
    c_global = np.asarray(c_global, dtype=np.float64)
    denom = beta**2 * c_global + c_local
    vanished = denom == 0.0
    fused = (1.0 + beta**2) * c_global * c_local / np.where(vanished, 1.0, denom)
    return _scalar_or_array(np.where(vanished, 0.0, fused))


def prune_edges(g: PoseGraph) -> PoseGraph:
    """Deactivate every active edge whose global confidence is below
    PRUNE_RATIO times the median c_global of the active edges.

    c_global = 1 / (1 + r/b) is not centred on the median residual, so one
    fixed threshold cannot fit both a clean graph and a corrupted one. Edges
    are only flagged inactive, never deleted, and never reactivated.
    """
    c_global = g.c_global[g.active]
    if c_global.size == 0:
        return g
    return g._with_rows(g.active & (g.c_global < PRUNE_RATIO * np.median(c_global)), active=False)


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
