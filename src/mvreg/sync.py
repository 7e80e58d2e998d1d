"""Transformation synchronization: closed-form recovery of absolute poses
from relative measurements on a pose graph.

Rotations come from a spectral relaxation: the three eigenvectors of the
smallest eigenvalues of a block Laplacian built from the weighted relative
rotations, projected block-wise back to SO(3). Translations come from the
weighted least-squares problem that asks the relative translations rebuilt
from the absolutes to match the measured ones; its normal equations are the
scalar weighted graph Laplacian with one right-hand side per coordinate,
solved with node 0 anchored at the origin. Node 0 carries the identity.

Only the 4 smallest eigenpairs of the 3n x 3n rotation Laplacian are used
(the fourth eigenvalue gives the eigengap). Up to DENSE_MAX_SIZE rows a full
np.linalg.eigh finds them. Larger Laplacians go through shift-invert subspace
iteration: one Cholesky factorization of L + sigma I, then sweeps of blocked
triangular solves, QR and Rayleigh-Ritz on a fixed-seed panel of PANEL
columns, until the 4 wanted Ritz residuals fall below RESIDUAL_TOL * |L|.
When the observed convergence rate cannot get there within MAX_SWEEPS
sweeps, as on stars and complete graphs whose eigenvalues cluster at
lambda_4, the full eigh runs after all. numpy is the only dependency.

The solvers work on edge arrays (endpoints, relative rotations and
translations, confidences) taken once from the graph's active edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DisconnectedGraph, EigenSolverFailure
from .geometry import (
    RigidMotion,
    Rotation3,
    nearest_rotations,
    relative_motions,
    rotation_stack,
)
from .graph import (
    PoseGraph,
    cauchy_global_confidence,
    cauchy_scale,
    harmonic_fuse,
    is_connected,
)

# Laplacians of at most this many rows (3n) take the full eigh: below about
# 3n = 300 it is faster than the iterative path on a 2-vCPU x86 box, and
# slower-converging graphs (a 2-d grid needs ~17 sweeps) move the break-even up
DENSE_MAX_SIZE = 450
# columns of the subspace-iteration panel; 4 are wanted
PANEL = 16
# shift sigma of the factored L + sigma I, relative to |L|, the largest
# absolute row sum of L: far above the Cholesky rounding, far below lambda_4
SHIFT = 1e-10
# converged when every wanted Ritz residual |L x - theta x| <= RESIDUAL_TOL |L|
RESIDUAL_TOL = 1e-12
# sweeps before falling back to the full eigh
MAX_SWEEPS = 30
# rows per diagonal block of the blocked triangular solves
SOLVE_BLOCK = 128
_WANTED = 4


@dataclass(frozen=True, eq=False)
class SyncResult:
    """Absolute motions (node 0 = identity) plus solver diagnostics."""

    absolute: tuple[RigidMotion, ...]
    rotation_eigengap: float
    translation_rank_deficiency: int
    graph: PoseGraph
    rounds_completed: int = 1
    disconnected: bool = False


def _active_arrays(g: PoseGraph, rounds: int = 1):
    """Endpoint pairs (m x 2), measured relative motions (m x 4 x 4) and fused
    confidences of the active edges.

    Raises DisconnectedGraph unless the active edges of positive weight
    connect all nodes: a zero-weight edge adds nothing to the Laplacians, so
    a graph that only such edges hold together has too large a null space.
    An edge's weight is its c_fused in the first round; later rounds fuse it
    from c_local, which makes it zero wherever c_local is, so with rounds > 1
    both must be positive.
    """
    def weighted(e):
        return e.c_fused > 0.0 and (rounds == 1 or e.c_local > 0.0)

    support = g
    if not all(weighted(e) for e in g.active_edges()):
        support = g.with_edges(e if weighted(e) else replace(e, active=False) for e in g.edges)
    if not is_connected(support):
        raise DisconnectedGraph("active edges of positive confidence do not connect all nodes")
    edges = g.active_edges()
    pairs = np.array([(e.i, e.j) for e in edges], dtype=np.intp)
    motions = np.array([e.motion.matrix for e in edges])
    c_fused = np.array([e.c_fused for e in edges])
    return pairs, motions, c_fused


def _degrees(n: int, pairs, c) -> np.ndarray:
    """Weighted node degrees, accumulated edge by edge in edge order."""
    return np.bincount(pairs.ravel(), np.repeat(c, 2), minlength=n)


def _shift_invert(lap: np.ndarray, shift: float):
    """x -> (L + shift I)^-1 x for n x k panels, from one Cholesky factor.

    numpy has no triangular solve, so the forward and back substitutions run
    over blocks of SOLVE_BLOCK rows: each block applies the inverse of its
    diagonal block of the factor to its right-hand side, after subtracting
    the part already solved (one matmul). The shift goes onto L's diagonal
    in place for the factorization and is taken off again exactly.
    """
    size = lap.shape[0]
    diagonal = lap.diagonal().copy()
    lap[np.diag_indices(size)] += shift
    try:
        low = np.linalg.cholesky(lap)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"Cholesky factorization failed: {exc}") from exc
    finally:
        lap[np.diag_indices(size)] = diagonal
    bounds = [(s, min(s + SOLVE_BLOCK, size)) for s in range(0, size, SOLVE_BLOCK)]
    inverses = [np.linalg.inv(low[s:e, s:e]) for s, e in bounds]

    def solve(x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        for (s, e), inv in zip(bounds, inverses):
            y[s:e] = inv @ (x[s:e] - low[s:e, :s] @ y[:s])
        for (s, e), inv in zip(reversed(bounds), reversed(inverses)):
            y[s:e] = inv.T @ (y[s:e] - low[e:, s:e].T @ y[e:])
        return y

    return solve


def _subspace_iteration(lap: np.ndarray):
    """The 4 smallest eigenvalues and eigenvectors of a PSD matrix by
    shift-invert subspace iteration, or None when it would not converge
    within MAX_SWEEPS sweeps.

    A sweep applies (L + sigma I)^-1 to the panel, orthonormalizes it (QR)
    and rotates it onto its Ritz vectors (eigh of the PANEL x PANEL
    projection). The residual of the k-th Ritz pair shrinks by about
    (theta_k + sigma) / (theta_PANEL + sigma) a sweep, so once the fourth
    pair's rate, extrapolated from its residual, cannot reach RESIDUAL_TOL
    within MAX_SWEEPS, this gives up at once instead of at the cap.
    """
    size = lap.shape[0]
    norm = float(np.linalg.norm(lap, np.inf))
    shift = SHIFT * norm
    solve = _shift_invert(lap, shift)
    # a fixed seed: the same Laplacian always gives the same panel and result
    panel = np.random.default_rng(0).standard_normal((size, PANEL))
    for sweep in range(1, MAX_SWEEPS + 1):
        basis, _ = np.linalg.qr(solve(panel))
        lap_basis = lap @ basis
        ritz, rotation = np.linalg.eigh(basis.T @ lap_basis)
        panel = basis @ rotation
        wanted = panel[:, :_WANTED]
        residual = np.linalg.norm(
            lap_basis @ rotation[:, :_WANTED] - wanted * ritz[:_WANTED], axis=0
        ).max()
        if residual <= RESIDUAL_TOL * norm:
            return ritz[:_WANTED], wanted
        rate = (ritz[_WANTED - 1] + shift) / (ritz[-1] + shift)
        if rate >= 1.0:
            return None
        if sweep + math.log(RESIDUAL_TOL * norm / residual) / math.log(rate) > MAX_SWEEPS:
            return None
    return None


def _smallest_eigenpairs(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 4 smallest eigenvalues (ascending) of the symmetric PSD matrix lap
    and their eigenvectors as columns: iterative above DENSE_MAX_SIZE rows
    unless it stalls, else from the full eigh."""
    if lap.shape[0] > DENSE_MAX_SIZE:
        found = _subspace_iteration(lap)
        if found is not None:
            return found
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"symmetric eigendecomposition failed: {exc}") from exc
    return eigenvalues[:_WANTED], eigenvectors[:, :_WANTED]


def _rotations(n: int, pairs, rot, c) -> tuple[np.ndarray, float]:
    """Synchronized rotations (n x 3 x 3) and the eigengap lambda_4 - lambda_3.

    The eigenpairs come from _smallest_eigenpairs: the full eigh when
    3n <= DENSE_MAX_SIZE or when the subspace iteration stalls, the
    shift-invert subspace iteration otherwise. Either way only the span of
    the first three eigenvectors enters the result.
    """
    i, j = pairs.T
    lap = np.zeros((n, 3, n, 3))
    # off-diagonal blocks carry c * R^T / c * R so that the stack of
    # R_i^T blocks spans the nullspace for consistent measurements
    weighted = c[:, None, None] * rot
    lap[i, :, j, :] = -np.swapaxes(weighted, 1, 2)
    lap[j, :, i, :] = -weighted
    lap = lap.reshape(3 * n, 3 * n)
    lap[np.diag_indices(3 * n)] = np.repeat(_degrees(n, pairs, c), 3)
    eigenvalues, eigenvectors = _smallest_eigenpairs(lap)
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
    return rotation_stack(_rotations(g.node_count, pairs, motions[:, :3, :3], c)[0])


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
    pairs, motions, c_fused = _active_arrays(g, rounds)
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
        absolute=tuple(map(RigidMotion, rotation_stack(rotations), translations)),
        rotation_eigengap=eigengap,
        translation_rank_deficiency=deficiency,
        graph=g.with_edges(edges),
        rounds_completed=rounds,
    )
