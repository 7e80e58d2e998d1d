"""Outer refinement loop: pairwise registration of all pairs, pose-graph
synchronization, pre-alignment feedback, confidence fusion, and pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig
from .errors import (
    DegenerateConfiguration,
    DisconnectedInput,
    IndexOutOfRange,
    TooFewClouds,
    ZeroWeightSum,
)
from .geometry import (
    PointCloud,
    RigidMotion,
    compose,
    invert,
    relative_from_absolute,
    relative_motions,
    transform_points,
)
from .graph import PoseGraph, build_graph, harmonic_fuse, is_connected, prune_edges
from .metrics import motion_errors
from .pairwise import (
    CorrespondenceSet,
    build_correspondences,
    local_confidence,
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

    results = [(i, j, register_correspondences(correspondences[(i, j)], cfg)) for i, j in pairs]
    graph = build_graph(results, n)
    if not is_connected(graph):
        raise DisconnectedInput("measurement pairs do not connect all clouds")
    weights = {(i, j): res.weights for i, j, res in results}

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
        graph = result.graph

        # feedback: pre-align each active pair with the synchronized relative,
        # reweight from the aligned residuals, and re-fit the pair motion
        new_edges = []
        for e in graph.edges:
            if not e.active:
                new_edges.append(e)
                continue
            corr = correspondences[(e.i, e.j)]
            to_source = relative_from_absolute(result.absolute[e.j], result.absolute[e.i])
            aligned = pre_align(corr, to_source)
            r = residuals(aligned, RigidMotion.identity())
            w = robust_reweight(r, weights[(e.i, e.j)], cfg.blend)
            try:
                motion = wls_transform(corr.with_weights(w))
            except (DegenerateConfiguration, ZeroWeightSum):
                # weight collapse on a bad edge: keep the previous fit
                new_edges.append(e)
                continue
            weights[(e.i, e.j)] = w
            r_new = residuals(corr, motion)
            delta = float(np.mean(w > cfg.w_thresh))
            c_local = local_confidence(delta, float(np.median(r_new)), cfg)
            if k == 1:
                # no trustworthy global evidence yet: confidence is local only
                c_fused = c_local
            else:
                c_fused = min(max(harmonic_fuse(c_local, e.c_global, cfg.beta), 0.0), 1.0)
            new_edges.append(replace(e, motion=motion, c_local=c_local, c_fused=c_fused))
        graph = prune_edges(graph.with_edges(new_edges), cfg.tau_p)

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
    if cfg.connectivity is not None:
        pairs = []
        for i, j in cfg.connectivity:
            if not 0 <= min(i, j) < max(i, j) < n:
                raise IndexOutOfRange(f"connectivity pair ({i}, {j}) invalid for {n} clouds")
            pairs.append((min(i, j), max(i, j)))
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    correspondences = {
        (i, j): build_correspondences(clouds[i], clouds[j], cfg.temperature) for i, j in pairs
    }
    return run_multiview_from_correspondences(correspondences, n, cfg, ground_truth)
