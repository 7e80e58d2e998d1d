"""Outer refinement loop: pairwise registration of all pairs in one batch,
pose-graph synchronization, pre-alignment feedback (one batched refit of the
active edges per iteration), confidence fusion, and pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig, is_integer
from .errors import DisconnectedInput, DuplicateEdge, IndexOutOfRange, TooFewClouds
from .geometry import PointCloud, RigidMotion, motion_stack, relative_motions
from .graph import BETA, PoseGraph, build_graph, harmonic_fuse, is_connected, prune_edges, search_tree

# register_correspondences, wls_transform, residuals, robust_reweight and
# local_confidence are not called in this module. They are imported because
# the benchmark's span tracer (bench/spans.py) rebinds them by name here.
from .pairwise import (  # noqa: F401
    CorrespondenceSet,
    _irls_edges,
    build_correspondences,
    local_confidence,
    register_batch,
    register_correspondences,
    residuals,
    robust_reweight,
    wls_transform,
)
from .sync import SyncResult, transf_sync


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
    """The scan pairs, their measured motions (the initial graph's read-only
    (m, 4, 4) motions, a row per pair) and each iteration's state. It holds no
    errors: score poses with motion_errors(relative_motions(poses, pairs), ...).
    """

    pairs: tuple[tuple[int, int], ...]
    motions: np.ndarray
    iterations: tuple[IterationStats, ...]

    @property
    def disconnected(self) -> bool:
        return any(s.disconnected for s in self.iterations)


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


def _feedback(graph, poses, sets, weights, cfg, first: bool) -> PoseGraph:
    """One IRLS step per active edge, started from the synchronized relative motion.

    _irls_edges(sets, weights, cfg, 1, start) on the active rows reweights
    each edge's correspondences from their aligned residuals and re-fits its
    motion and local confidence, which is then fused with the global
    confidence. An edge whose weights collapse keeps its previous fit.
    sets and weights hold one entry per edge; weights is updated in place.
    """
    active = np.flatnonzero(graph.active)
    start = relative_motions(poses, graph.pairs[active])
    fits = _irls_edges([sets[k] for k in active], [weights[k] for k in active], cfg, 1, start)[0]
    # inactive edges, and bad edges whose weights collapsed, keep their fit
    rows = active[fits.fitted]
    for row in np.flatnonzero(fits.fitted):
        weights[active[row]] = fits.weights[row]
    c_local = fits.local_confidence[fits.fitted]
    # the first pass takes c_fused = c_local and drops the c_global that transf_sync
    # has just computed over its rounds, so pruning sees c_local alone (ROADMAP item 1)
    c_fused = c_local if first else np.clip(
        harmonic_fuse(c_local, graph.c_global[rows], BETA), 0.0, 1.0
    )
    return graph._with_rows(rows, motions=fits.motions[fits.fitted], c_local=c_local,
                            c_fused=c_fused)


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
    sets = [correspondences[p] for p in pairs]

    fits = register_batch(sets, cfg)
    graph = build_graph(n, pairs, fits)
    weights = list(fits.weights)
    if not is_connected(graph):
        raise DisconnectedInput("measurement pairs do not connect all clouds")
    measured = graph.motions

    stats = []
    for k in range(1, cfg.outer_iterations + 1):
        result = transf_sync(graph, rounds=cfg.sync_rounds)
        graph = _feedback(result.graph, result.poses, sets, weights, cfg, k == 1)
        graph = prune_edges(graph, cfg.tau_p)

        connected = is_connected(graph)
        stats.append(IterationStats(k, int(graph.active.sum()), not connected, result.poses))
        if not connected:
            break

    final = replace(result, graph=graph, disconnected=not connected)
    return final, PipelineTrace(pairs, measured, tuple(stats))


def run_multiview(
    clouds: list[PointCloud],
    cfg: PipelineConfig | None = None,
) -> tuple[SyncResult, PipelineTrace]:
    """Register n feature-bearing clouds into a common frame.

    Registers every pair (or the pairs listed in cfg.connectivity), builds the
    pose graph, then iterates: synchronize, pre-align each pair with the
    synchronized relative motion, reweight correspondences from the aligned
    residuals, re-fit pair motions and confidences, fuse with the global
    confidences, and prune weak edges. Stops early and returns the last valid
    synchronization if pruning disconnects the graph.
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
