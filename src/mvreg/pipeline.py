"""The outer loop: pairwise registration of all pairs in one batch,
then pose-graph synchronization alternating with pruning of the edges that
the cycles find inconsistent, until an iteration prunes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig, is_integer
from .errors import DisconnectedInput, DuplicateEdge, IndexOutOfRange, TooFewClouds
from .geometry import PointCloud, RigidMotion, motion_stack
from .graph import PoseGraph, build_graph, is_connected, prune_edges, search_tree

# harmonic_fuse, local_confidence, register_correspondences, wls_transform,
# residuals and robust_reweight are not called in this module. They are
# imported because the benchmark's span tracer (bench/spans.py) rebinds them
# by name here.
from .graph import harmonic_fuse  # noqa: F401
from .pairwise import (  # noqa: F401
    CorrespondenceSet,
    build_correspondences,
    local_confidence,
    register_batch,
    register_correspondences,
    residuals,
    robust_reweight,
    wls_transform,
)
from .sync import SyncResult, transf_sync

# at most this many synchronize-and-prune iterations
OUTER_ITERATIONS = 4


@dataclass(frozen=True, eq=False)
class IterationStats:
    """State after one outer iteration: active edges after pruning, whether
    pruning disconnected the graph, and the sync's read-only (n, 4, 4) poses."""

    iteration: int
    active_edges: int
    disconnected: bool
    poses: np.ndarray


@dataclass(frozen=True, eq=False)
class PipelineTrace:
    """The scan pairs, their measured motions (the graph's read-only (m, 4, 4)
    motions, a row per pair), each iteration's state and why the loop
    stopped: `converged` (an iteration pruned nothing), `pruning_collapse`
    (pruning disconnected the graph) or `completed` (every outer iteration
    ran and pruned). It holds no errors: score poses with
    motion_errors(relative_motions(poses, pairs), ...).
    """

    pairs: tuple[tuple[int, int], ...]
    motions: np.ndarray
    iterations: tuple[IterationStats, ...]
    stop_reason: str


def pairwise_chain_absolute(graph: PoseGraph) -> tuple[RigidMotion, ...]:
    """Pairwise-only baseline: chain measured motions along a search tree.

    The tree is search_tree's over the active edges from node 0. Each node's
    pose composes its parent's pose with the inverted measured relative, so
    errors accumulate along tree paths with no synchronization.
    """
    n = graph.node_count
    pairs = graph.pairs[graph.active]
    order, parent = search_tree(n, pairs)
    if len(order) < n:
        raise DisconnectedInput("active edges do not connect all nodes")
    # the motions row of each active edge (i, j), keyed by i * n + j
    row = dict(zip((pairs @ (n, 1)).tolist(), np.flatnonzero(graph.active).tolist()))
    poses = np.tile(np.eye(4), (n, 1, 1))
    for v in order[1:]:
        u = parent[v]
        motion = graph.motions[row[min(u, v) * n + max(u, v)]]
        rot, trans = motion[:3, :3], motion[:3, 3]
        if u < v:
            # the motion maps u -> v, so M_v = M_u . M_uv^-1; else it is M_vu = M_uv^-1
            rot, trans = rot.T, -rot.T @ trans
        poses[v, :3, :3] = poses[u, :3, :3] @ rot
        poses[v, :3, 3] = poses[u, :3, :3] @ trans + poses[u, :3, 3]
    return tuple(motion_stack(poses))


def canonical_pairs(connectivity, n: int) -> tuple[tuple[int, int], ...]:
    """Scan pairs as (min, max) tuples; every pair i < j when connectivity is None.

    Raises IndexOutOfRange for a self-loop or an index outside 0..n-1, and
    DuplicateEdge when two entries name the same unordered pair.
    """
    if connectivity is None:
        return tuple((i, j) for i in range(n) for j in range(i + 1, n))
    # each canonical pair -> the entry that named it first
    pairs = {}
    for i, j in connectivity:
        pair = (min(i, j), max(i, j))
        if not 0 <= pair[0] < pair[1] < n:
            raise IndexOutOfRange(f"connectivity pair ({i}, {j}) invalid for {n} clouds")
        if pair in pairs:
            raise DuplicateEdge(f"connectivity pair ({i}, {j}) repeats {pairs[pair]}")
        pairs[pair] = (i, j)
    return tuple(pairs)


def _is_index_pair(key) -> bool:
    return (isinstance(key, tuple) and len(key) == 2
            and all(map(is_integer, key)))


def run_multiview_from_correspondences(
    correspondences: dict[tuple[int, int], CorrespondenceSet],
    n: int,
    cfg: PipelineConfig | None = None,
) -> tuple[SyncResult, PipelineTrace]:
    """Full pipeline on prebuilt correspondence sets, one per scan pair.

    Keys must be distinct pairs (i, j) with i < j. See run_multiview for the
    iteration structure; this entry point exists so callers can supply their
    own correspondences (e.g. from external descriptors or with controlled
    corruption). The keys are the scan pairs: cfg.connectivity and
    cfg.temperature, which only run_multiview reads, have no effect here.
    """
    cfg = cfg or PipelineConfig()
    # checked before the IRLS runs, like the keys below: a float n would only fail in PoseGraph
    if not is_integer(n):
        raise ValueError(f"scan count must be an integer, got {n!r}")
    if n < 3:
        raise TooFewClouds(f"need at least 3 clouds, got {n}")
    for key in correspondences:
        # checked before the IRLS runs: a float index would only fail in build_graph
        if not (_is_index_pair(key) and 0 <= key[0] < key[1] < n):
            raise IndexOutOfRange(f"correspondence key {key!r} is not an integer pair with 0 <= i < j < {n}")
    pairs = tuple(sorted(correspondences))
    graph = build_graph(n, pairs, register_batch([correspondences[p] for p in pairs], cfg))
    if not is_connected(graph):
        raise DisconnectedInput("measurement pairs do not connect all clouds")

    stats = []
    stop = "completed"
    for k in range(1, OUTER_ITERATIONS + 1):
        result = transf_sync(graph)
        graph = prune_edges(result.graph)
        active = int(graph.active.sum())
        if active == int(result.graph.active.sum()):
            stop = "converged"
        elif not is_connected(graph):
            stop = "pruning_collapse"
        stats.append(IterationStats(k, active, stop == "pruning_collapse", result.poses))
        if stop != "completed":
            break

    final = replace(result, graph=graph, disconnected=stop == "pruning_collapse")
    return final, PipelineTrace(pairs, graph.motions, tuple(stats), stop)


def run_multiview(
    clouds: list[PointCloud],
    cfg: PipelineConfig | None = None,
) -> tuple[SyncResult, PipelineTrace]:
    """Register n feature-bearing clouds into a common frame.

    Registers every pair (or the pairs listed in cfg.connectivity), builds the
    pose graph, then iterates: synchronize, which refreshes each edge's global
    confidence from its cycle-consistency residual, and prune the edges whose
    global confidence falls below graph.PRUNE_RATIO times the active edges'
    median. The pairwise fits are not redone. Stops at the first iteration
    that prunes nothing, and returns that synchronization; if pruning
    disconnects the graph, stops and returns the last synchronization, made
    on the connected graph, with `disconnected` set; otherwise stops after
    OUTER_ITERATIONS iterations, each a transf_sync of its default rounds.
    """
    cfg = cfg or PipelineConfig()
    n = len(clouds)
    if n < 3:
        raise TooFewClouds(f"need at least 3 clouds, got {n}")
    correspondences = {
        (i, j): build_correspondences(clouds[i], clouds[j], cfg.temperature)
        for i, j in canonical_pairs(cfg.connectivity, n)
    }
    return run_multiview_from_correspondences(correspondences, n, cfg)
