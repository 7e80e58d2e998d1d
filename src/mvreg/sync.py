"""Transformation synchronization: closed-form recovery of absolute poses
from relative measurements on a pose graph.

Rotations come from a spectral relaxation: the three eigenvectors of the
smallest eigenvalues of a block Laplacian built from the weighted relative
rotations, projected block-wise back to SO(3). Translations come from the
weighted least-squares problem that asks the relative translations rebuilt
from the absolutes to match the measured ones; its normal equations are the
scalar weighted graph Laplacian with one right-hand side per coordinate,
solved with node 0 anchored at the origin. Node 0 carries the identity.

The solvers work on edge arrays (endpoints, relative rotations and
translations, confidences) taken once from the graph's active edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DisconnectedGraph, EigenSolverFailure
from .geometry import RigidMotion, Rotation3, nearest_rotations, relative_motions
from .graph import (
    PoseGraph,
    cauchy_global_confidence,
    cauchy_scale,
    harmonic_fuse,
    is_connected,
)


@dataclass(frozen=True, eq=False)
class SyncResult:
    """Absolute motions (node 0 = identity) plus solver diagnostics."""

    absolute: tuple[RigidMotion, ...]
    rotation_eigengap: float
    translation_rank_deficiency: int
    graph: PoseGraph
    rounds_completed: int = 1
    disconnected: bool = False


def _active_arrays(g: PoseGraph):
    """Endpoint pairs (m x 2), measured relative motions (m x 4 x 4) and fused
    confidences of the active edges of a connected graph."""
    if not is_connected(g):
        raise DisconnectedGraph("active edges do not connect all nodes")
    edges = g.active_edges()
    pairs = np.array([(e.i, e.j) for e in edges], dtype=np.intp)
    motions = np.array([e.motion.matrix for e in edges])
    c_fused = np.array([e.c_fused for e in edges])
    return pairs, motions, c_fused


def _degrees(n: int, pairs, c) -> np.ndarray:
    """Weighted node degrees, accumulated edge by edge in edge order."""
    return np.bincount(pairs.ravel(), np.repeat(c, 2), minlength=n)


def _rotations(n: int, pairs, rot, c) -> tuple[np.ndarray, float]:
    """Synchronized rotations (n x 3 x 3) and the eigengap lambda_4 - lambda_3."""
    i, j = pairs.T
    lap = np.zeros((n, 3, n, 3))
    # off-diagonal blocks carry c * R^T / c * R so that the stack of
    # R_i^T blocks spans the nullspace for consistent measurements
    weighted = c[:, None, None] * rot
    lap[i, :, j, :] = -np.swapaxes(weighted, 1, 2)
    lap[j, :, i, :] = -weighted
    lap = lap.reshape(3 * n, 3 * n)
    lap[np.diag_indices(3 * n)] = np.repeat(_degrees(n, pairs, c), 3)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"symmetric eigendecomposition failed: {exc}") from exc
    eigengap = float(eigenvalues[3] - eigenvalues[2])
    blocks = eigenvectors[:, :3].reshape(n, 3, 3)
    # eigenvectors are sign-ambiguous; pick the global sign under which most
    # blocks are nearer to rotations than to reflections
    if 2 * np.sum(np.linalg.det(blocks) < 0.0) > n:
        blocks = -blocks
    projected = nearest_rotations(blocks)
    return projected[0] @ np.swapaxes(projected, 1, 2), eigengap


def _translations(n: int, pairs, trans, c, rotations) -> tuple[np.ndarray, int]:
    """Least-squares translations (n x 3, t_0 = 0) given synchronized rotations,
    and the rank deficiency of the normal equations.

    Minimizes sum_e c_e |R_j^T (t_i - t_j) - t_e|^2 over the absolute
    translations with the rotations held fixed. The normal equations are
    L T = B with L the scalar weighted graph Laplacian acting on each
    coordinate. L annihilates global shifts, so fixing t_0 = 0 leaves
    L[1:, 1:] T[1:] = B[1:]; row 0 then holds too, because the rows of L, and
    those of B, add up to zero. A connected graph leaves exactly the 3 shift
    directions undetermined.
    """
    i, j = pairs.T
    lap = np.zeros((n, n))
    lap[i, j] = -c
    lap[j, i] = -c
    lap[np.diag_indices(n)] = _degrees(n, pairs, c)
    projected = c[:, None] * np.einsum("kab,kb->ka", rotations[j], trans)
    rhs = np.zeros((n, 3))
    np.add.at(rhs, pairs.ravel(), np.stack((projected, -projected), axis=1).reshape(-1, 3))
    solution, _, rank, _ = np.linalg.lstsq(lap[1:, 1:], rhs[1:], rcond=None)
    return np.vstack((np.zeros(3), solution)), 3 * (n - int(rank))


def rotation_sync(g: PoseGraph) -> list[Rotation3]:
    """Absolute rotations from the spectral relaxation, node 0 = identity."""
    pairs, motions, c = _active_arrays(g)
    return [Rotation3(r) for r in _rotations(g.node_count, pairs, motions[:, :3, :3], c)[0]]


def translation_sync(g: PoseGraph, rotations: list[Rotation3]) -> list[np.ndarray]:
    """Absolute translations (node 0 = zero) given synchronized rotations."""
    pairs, motions, c = _active_arrays(g)
    rotations = np.array([r.m for r in rotations])
    return list(_translations(g.node_count, pairs, motions[:, :3, 3], c, rotations)[0])


def translation_objective(g: PoseGraph, rotations: list[Rotation3], translations) -> float:
    """Weighted squared mismatch minimized by translation_sync.

    Exposed so solutions can be checked by finite differences.
    """
    translations = np.asarray(translations, dtype=np.float64).reshape(g.node_count, 3)
    total = 0.0
    for e in g.active_edges():
        rebuilt = rotations[e.j].m.T @ (translations[e.i] - translations[e.j])
        diff = rebuilt - e.motion.translation
        total += e.c_fused * float(diff @ diff)
    return total


def _consistency_residuals(pairs, motions, rotations, translations) -> np.ndarray:
    """Per-edge Frobenius gap between the measured relative motions and those
    rebuilt from the absolutes."""
    absolute = np.zeros((len(rotations), 4, 4))
    absolute[:, :3, :3] = rotations
    absolute[:, :3, 3] = translations
    absolute[:, 3, 3] = 1.0
    return np.linalg.norm(motions - relative_motions(absolute, pairs), axis=(1, 2))


def transf_sync(
    g: PoseGraph, rounds: int = 4, gamma: float = 3.0, beta: float = 1.0
) -> SyncResult:
    """Alternate synchronization and confidence reweighting for `rounds` rounds.

    Each round synchronizes rotations and translations, rebuilds the relative
    motions, and refreshes the global/fused confidences with a Cauchy weight
    at a MAD-derived scale. Local confidences are held fixed here; the outer
    pipeline owns them. Rounds only reweight edges, never deactivate them, so
    connectivity is checked once, up front.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = g.node_count
    pairs, motions, c_fused = _active_arrays(g)
    c_local = np.array([e.c_local for e in g.active_edges()])
    for _ in range(rounds):
        rotations, eigengap = _rotations(n, pairs, motions[:, :3, :3], c_fused)
        translations, deficiency = _translations(n, pairs, motions[:, :3, 3], c_fused, rotations)
        residuals = _consistency_residuals(pairs, motions, rotations, translations)
        c_global = cauchy_global_confidence(residuals, cauchy_scale(residuals, gamma))
        c_fused = np.clip(harmonic_fuse(c_local, c_global, beta), 0.0, 1.0)

    refreshed = iter(zip(c_global.tolist(), c_fused.tolist()))
    edges = []
    for e in g.edges:
        if e.active:
            cg, cf = next(refreshed)
            e = replace(e, c_global=cg, c_fused=cf)
        edges.append(e)
    return SyncResult(
        absolute=tuple(RigidMotion(Rotation3(r), t) for r, t in zip(rotations, translations)),
        rotation_eigengap=eigengap,
        translation_rank_deficiency=deficiency,
        graph=g.with_edges(edges),
        rounds_completed=rounds,
    )
