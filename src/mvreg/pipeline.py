"""Outer refinement loop: pairwise registration of all pairs, pose-graph
synchronization, pre-alignment feedback, confidence fusion, and pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig
from .errors import DisconnectedInput, IndexOutOfRange, TooFewClouds
from .geometry import (
    PointCloud,
    RigidMotion,
    compose,
    invert,
    relative_motions,
    transform_points,
)
from .graph import PoseGraph, build_graph, harmonic_fuse, is_connected, prune_edges
from .metrics import motion_errors

# register_correspondences, wls_transform, residuals, robust_reweight and
# local_confidence are not called in this module. They are imported because
# the benchmark's span tracer (bench/spans.py) rebinds them by name here.
from .pairwise import (  # noqa: F401
    CorrespondenceSet,
    build_correspondences,
    local_confidence,
    refit_batch,
    register_batch,
    register_correspondences,
    residuals,
    robust_reweight,
    wls_transform,
)
from .sync import SyncResult, transf_sync


@dataclass(frozen=True, eq=False)
class IterationStats:
    """Diagnostics recorded after one outer iteration."""

    iteration: int
    active_edges: int
    disconnected: bool
    mean_rotation_deg: float = math.nan
    median_rotation_deg: float = math.nan
    mean_translation_m: float = math.nan
    median_translation_m: float = math.nan
    rotation_errors_deg: np.ndarray | None = None
    translation_errors_m: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class PipelineTrace:
    """Per-iteration history plus the direct pairwise baseline errors."""

    pairs: tuple[tuple[int, int], ...]
    iterations: tuple[IterationStats, ...] = ()
    pairwise_rotation_errors_deg: np.ndarray | None = None
    pairwise_translation_errors_m: np.ndarray | None = None

    @property
    def disconnected(self) -> bool:
        return any(s.disconnected for s in self.iterations)


def pre_align(c: CorrespondenceSet, m: RigidMotion) -> CorrespondenceSet:
    """Move the target side of a correspondence set by m."""
    return CorrespondenceSet(c.source_pts, transform_points(m, c.target_pts), c.weights, c.residuals)


def _matrices(motions) -> np.ndarray:
    return np.stack([m.matrix for m in motions])


def _stats(iteration, graph, disconnected, pairs, absolute, truth_relatives) -> IterationStats:
    """Diagnostics; errors of the synchronized relatives when the truth is known."""
    active = len(graph.active_edges())
    if truth_relatives is None:
        return IterationStats(iteration, active, disconnected)
    rot, trans = motion_errors(relative_motions(_matrices(absolute), pairs), truth_relatives)
    return IterationStats(
        iteration,
        active,
        disconnected,
        mean_rotation_deg=float(rot.mean()),
        median_rotation_deg=float(np.median(rot)),
        mean_translation_m=float(trans.mean()),
        median_translation_m=float(np.median(trans)),
        rotation_errors_deg=rot,
        translation_errors_m=trans,
    )


def pairwise_chain_absolute(graph: PoseGraph) -> tuple[RigidMotion, ...]:
    """Pairwise-only baseline: chain measured motions along a search tree.

    Breadth-first from node 0; each new node's absolute pose composes the
    parent's pose with the inverted measured relative, so errors accumulate
    along tree paths with no synchronization.
    """
    if not is_connected(graph):
        raise DisconnectedInput("active edges do not connect all nodes")
    adjacency = [[] for _ in range(graph.node_count)]
    for e in graph.active_edges():
        adjacency[e.i].append(e.j)
        adjacency[e.j].append(e.i)
    absolute: list[RigidMotion | None] = [None] * graph.node_count
    absolute[0] = RigidMotion.identity()
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in adjacency[u]:
            if absolute[v] is None:
                # motion maps u -> v, so M_v = M_u . M_uv^-1
                absolute[v] = compose(absolute[u], invert(graph.relative_motion(u, v)))
                queue.append(v)
    return tuple(absolute)


def _register_all(correspondences, pairs, n, cfg) -> tuple[PoseGraph, dict]:
    """Batched IRLS fits of all pairs: the pose graph and each pair's weights.

    Only the weights are carried on, so the fits' residual arrays are freed
    when this returns.
    """
    results = register_batch([correspondences[p] for p in pairs], cfg)
    graph = build_graph([(i, j, res) for (i, j), res in zip(pairs, results)], n)
    return graph, {p: res.weights for p, res in zip(pairs, results)}


def _feedback(graph, absolute, correspondences, weights, cfg, first: bool) -> PoseGraph:
    """One IRLS step per active pair, started from the synchronized relative motion.

    Reweights each pair from its aligned residuals, re-fits its motion and
    local confidence, and fuses that with the global confidence. An edge
    whose weights collapse keeps its previous fit. Updates weights in place.
    """
    active = [(e.i, e.j) for e in graph.edges if e.active]
    refits = refit_batch(
        [correspondences[p] for p in active],
        [weights[p] for p in active],
        relative_motions(_matrices(absolute), active),
        cfg,
    )
    refitted = {p: res for p, res in zip(active, refits) if res is not None}
    new_edges = []
    for e in graph.edges:
        res = refitted.get((e.i, e.j))
        if res is None:
            # inactive, or weight collapse on a bad edge: keep the previous fit
            new_edges.append(e)
            continue
        weights[(e.i, e.j)] = res.weights
        c_local = res.local_confidence
        if first:
            # no trustworthy global evidence yet: confidence is local only
            c_fused = c_local
        else:
            c_fused = min(max(harmonic_fuse(c_local, e.c_global, cfg.beta), 0.0), 1.0)
        new_edges.append(replace(e, motion=res.motion, c_local=c_local, c_fused=c_fused))
    return graph.with_edges(new_edges)


def canonical_pairs(connectivity, n: int) -> tuple[tuple[int, int], ...]:
    """Scan pairs as (min, max) tuples; every pair i < j when connectivity is None.

    Raises IndexOutOfRange for a self-loop or an index outside 0..n-1.
    """
    if connectivity is None:
        return tuple((i, j) for i in range(n) for j in range(i + 1, n))
    pairs = []
    for i, j in connectivity:
        if not 0 <= min(i, j) < max(i, j) < n:
            raise IndexOutOfRange(f"connectivity pair ({i}, {j}) invalid for {n} clouds")
        pairs.append((min(i, j), max(i, j)))
    return tuple(pairs)


def run_multiview_from_correspondences(
    correspondences: dict[tuple[int, int], CorrespondenceSet],
    n: int,
    cfg: PipelineConfig | None = None,
    ground_truth: list[RigidMotion] | None = None,
) -> tuple[SyncResult, PipelineTrace]:
    """Full pipeline on prebuilt correspondence sets, one per scan pair.

    Keys must be distinct pairs (i, j) with i < j. See run_multiview for the
    iteration structure; this entry point exists so callers can supply their
    own correspondences (e.g. from external descriptors or with controlled
    corruption).
    """
    cfg = cfg or PipelineConfig()
    if n < 3:
        raise TooFewClouds(f"need at least 3 clouds, got {n}")
    pairs = []
    for i, j in correspondences:
        if not (0 <= i < j < n):
            raise IndexOutOfRange(f"correspondence key ({i}, {j}) is not a pair with 0 <= i < j < {n}")
        pairs.append((i, j))
    pairs = tuple(sorted(pairs))

    graph, weights = _register_all(correspondences, pairs, n, cfg)
    if not is_connected(graph):
        raise DisconnectedInput("measurement pairs do not connect all clouds")

    trace = PipelineTrace(pairs=pairs)
    truth_relatives = None
    if ground_truth is not None:
        if len(ground_truth) != n:
            raise ValueError(f"ground truth length {len(ground_truth)} != {n} clouds")
        truth_relatives = relative_motions(_matrices(ground_truth), pairs)
        measured = _matrices(graph.relative_motion(i, j) for i, j in pairs)
        rot, trans = motion_errors(measured, truth_relatives)
        trace = replace(trace, pairwise_rotation_errors_deg=rot, pairwise_translation_errors_m=trans)

    stats = []
    result: SyncResult | None = None
    stopped = False
    for k in range(1, cfg.outer_iterations + 1):
        result = transf_sync(graph, rounds=cfg.sync_rounds, gamma=cfg.gamma, beta=cfg.beta)
        graph = _feedback(result.graph, result.absolute, correspondences, weights, cfg, k == 1)
        graph = prune_edges(graph, cfg.tau_p)

        connected = is_connected(graph)
        stats.append(_stats(k, graph, not connected, pairs, result.absolute, truth_relatives))
        if not connected:
            stopped = True
            break

    final = replace(result, graph=graph, disconnected=stopped)
    return final, replace(trace, iterations=tuple(stats))


def run_multiview(
    clouds: list[PointCloud],
    cfg: PipelineConfig | None = None,
    ground_truth: list[RigidMotion] | None = None,
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
    return run_multiview_from_correspondences(correspondences, n, cfg, ground_truth)
