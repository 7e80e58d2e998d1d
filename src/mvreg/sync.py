"""Transformation synchronization: closed-form recovery of absolute poses
from relative measurements on a pose graph.

Rotations come from a spectral relaxation: the three eigenvectors of the
smallest eigenvalues of a block Laplacian built from the weighted relative
rotations, projected block-wise back to SO(3). Translations come from the
weighted least-squares problem that asks the relative translations rebuilt
from the absolutes to match the measured ones; its normal equations are the
scalar weighted graph Laplacian with one right-hand side per coordinate.
With node 0 anchored at the origin that Laplacian is symmetric positive
definite on every graph the solvers accept, and one Cholesky factor on the
band below solves it. Node 0 carries the identity.

Only the 4 smallest eigenpairs of the 3n x 3n rotation Laplacian are used
(the fourth eigenvalue gives the eigengap). The nodes are put in reverse
Cuthill-McKee order once per call; if every edge then joins nodes at most w
places apart, L is block tridiagonal in blocks of at least 3w rows, and it
is built straight from the edge arrays as those blocks only: the diagonal
blocks and the blocks below them. A ring of 400 nodes, each linked to the
next 3, has w = 8: 50 blocks of 24 rows instead of one 1200 x 1200 matrix.
A graph whose band spans more than half the nodes, such as a star or a
complete graph, has one block, the dense matrix in that order. Up to
DENSE_MAX_SIZE rows a full np.linalg.eigh finds the eigenpairs, on a dense
matrix put together from the blocks in node order, entry for entry the one
an edge-by-edge fill gives. Larger Laplacians go through shift-invert
subspace iteration on the blocks, and no dense matrix is built unless it
falls back to the eigh. L + sigma I is factored block by block with
Cholesky, and each sweep applies its inverse by forward and back
substitution over the same blocks, then L itself in three batched block
products, then QR and Rayleigh-Ritz on a panel of PANEL columns, until the 4
wanted Ritz residuals fall below RESIDUAL_TOL * |L|. The first round of
transf_sync starts from a fixed-seed panel; later rounds change only the
edge weights and start from the previous round's Ritz panel, so on that ring
(benchmark seeds 7 and 21) the 4 rounds take 10, 7, 5 and 4 sweeps instead
of 10 each. When the observed convergence rate cannot reach the tolerance
within MAX_SWEEPS sweeps, as on stars and complete graphs whose eigenvalues
cluster at lambda_4, and on most rings with a fifth of their edges
corrupted, the full eigh runs after all. The translations factor their
scalar Laplacian on the same band, with 1 x 1 node blocks and no shift.
numpy is the only dependency.

The solvers work on the graph's edge arrays (endpoints, relative rotations
and translations, confidences), restricted once to the active rows, and
return arrays: rotation_sync the n x 3 x 3 rotations, translation_sync the
n x 3 translations for them, and transf_sync a SyncResult holding the
n x 4 x 4 poses. Only SyncResult.absolute builds RigidMotion records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .config import is_integer
from .errors import DegenerateMatrix, DisconnectedGraph, EigenSolverFailure
from .geometry import RigidMotion, motion_stack, nearest_rotations, relative_motions
from .graph import (
    BETA,
    GAMMA,
    PoseGraph,
    cauchy_global_confidence,
    cauchy_scale,
    harmonic_fuse,
    is_connected,
    search_tree,
)

# Laplacians of at most this many rows (3n) take the full eigh. On noisy
# rings on a 2-vCPU x86 box the band iteration breaks even with it near
# 3n = 240 and takes half its time at 450; slower-converging graphs (a 2-d
# grid needs ~17 sweeps) move the break-even up
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
_WANTED = 4


@dataclass(frozen=True, eq=False)
class SyncResult:
    """Absolute poses (node 0 = exactly the identity) plus solver diagnostics.

    poses is a read-only (n, 4, 4) array whose row i is the absolute motion
    M_i; `absolute` gives the same rows as RigidMotion records, built on
    first use.

    translation_rank_deficiency, a class constant, is the number of
    translation unknowns the normal equations leave undetermined. It is 3,
    the global shifts that anchoring node 0 removes: transf_sync checks up
    front that the edges of positive weight connect all nodes, and rejects
    every other graph.
    """

    poses: np.ndarray
    rotation_eigengap: float
    graph: PoseGraph
    rounds_completed: int = 1
    disconnected: bool = False
    translation_rank_deficiency: ClassVar[int] = 3

    @cached_property
    def absolute(self) -> tuple[RigidMotion, ...]:
        return tuple(motion_stack(self.poses))


def _active_arrays(g: PoseGraph, rounds: int = 1):
    """The active rows of the graph's pairs, motions and c_fused.

    Raises DisconnectedGraph unless the active edges of positive weight
    connect all nodes: a zero-weight edge adds nothing to the Laplacians, so
    a graph that only such edges hold together has too large a null space.
    An edge's weight is its c_fused in the first round; later rounds fuse it
    from c_local, so with rounds > 1 both must be positive.
    """
    weighted = g.active & (g.c_fused > 0.0) & ((g.c_local > 0.0) | (rounds == 1))
    if not is_connected(g._with_rows(~weighted, active=False)):
        raise DisconnectedGraph("active edges of positive confidence do not connect all nodes")
    return g.pairs[g.active], g.motions[g.active], g.c_fused[g.active]


def _degrees(n: int, pairs, c) -> np.ndarray:
    """Weighted node degrees, accumulated edge by edge in edge order."""
    return np.bincount(pairs.ravel(), np.repeat(c, 2), minlength=n)


def _band(n: int, pairs) -> tuple[np.ndarray, int]:
    """The rows of the 3n x 3n rotation Laplacian in reverse Cuthill-McKee
    order of the nodes, and the rows per block of the block-tridiagonal form
    that order gives it.

    Cuthill-McKee is a breadth-first search from a node of least degree that
    visits each node's neighbours by increasing degree; every tie goes to the
    lower node index, so the order depends on the edges alone. A node the
    search has not reached starts a new search. If every edge then joins
    nodes at most `width` places apart, blocks of at least `width`
    consecutive nodes couple only to their neighbouring blocks. The blocks
    hold ceil(n / (n // width)) nodes each, the last one possibly fewer
    (_band_laplacian pads it), so there are at most n // width of them,
    and a graph whose band spans more than half the nodes gets one dense
    block.
    """
    degree = np.bincount(pairs.ravel(), minlength=n).tolist()

    def key(v):
        return degree[v], v

    order, _ = search_tree(n, pairs, sorted(range(n), key=key), key)
    order = np.array(order[::-1], dtype=np.intp)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    width = int(np.abs(np.diff(position[pairs], axis=1)).max(initial=1))
    count = n // width
    return (3 * order[:, None] + np.arange(3)).ravel(), 3 * -(-n // count)


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by recursive halving: with
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]] it costs a few
    matmuls, about a quarter of np.linalg.inv's time at 1200 rows."""
    size = low.shape[0]
    if size <= 128:
        return np.linalg.inv(low)
    half = size // 2
    top = _lower_inverse(low[:half, :half])
    bottom = _lower_inverse(low[half:, half:])
    inverse = np.zeros_like(low)
    inverse[:half, :half] = top
    inverse[half:, half:] = bottom
    inverse[half:, :half] = -(bottom @ low[half:, :half]) @ top
    return inverse


@dataclass(frozen=True, eq=False)
class _BandLaplacian:
    """A Laplacian with d x d node blocks (the 3n x 3n rotation one, or the
    scalar one of the translations) as the blocks of its block-tridiagonal
    form: rows and columns in the band order of _band, cut into equal blocks
    of b rows, the last one padded with the identity's rows and columns.

    rows[p] is the Laplacian row at band position p. diagonal (nb, b, b)
    holds the diagonal blocks and lower (nb - 1, b, b) the blocks below them:
    lower[k] couples block k + 1 (its rows) to block k (its columns), and its
    transpose is the block above. A panel in band order is an (nb * b, k)
    array whose padding rows are zero; they stay zero under every operation
    here, because the padding rows and columns of L are the identity's.
    """

    rows: np.ndarray
    diagonal: np.ndarray
    lower: np.ndarray

    @property
    def size(self) -> int:
        """Rows of the Laplacian, d n."""
        return len(self.rows)

    def to_band(self, x: np.ndarray) -> np.ndarray:
        """The d n x k panel x in band order, padded."""
        count, block, _ = self.diagonal.shape
        y = np.zeros((count * block, x.shape[1]))
        y[: self.size] = x[self.rows]
        return y

    def from_band(self, y: np.ndarray) -> np.ndarray:
        """The panel y in band order back in node order, without the padding."""
        x = np.empty((self.size, y.shape[1]))
        x[self.rows] = y[: self.size]
        return x

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        """L y for a panel y in band order, in three batched block products."""
        count, block, _ = self.diagonal.shape
        y = y.reshape(count, block, -1)
        out = self.diagonal @ y
        out[1:] += self.lower @ y[:-1]
        out[:-1] += np.swapaxes(self.lower, 1, 2) @ y[1:]
        return out.reshape(count * block, -1)

    def norm(self) -> float:
        """|L|, the largest absolute row sum outside the padding."""
        sums = np.abs(self.diagonal).sum(axis=2)
        lower = np.abs(self.lower)
        sums[1:] += lower.sum(axis=2)
        sums[:-1] += lower.sum(axis=1)
        return float(sums.ravel()[: self.size].max())

    def dense(self) -> np.ndarray:
        """L as one d n x d n array in node order, for np.linalg.eigh."""
        count, block, _ = self.diagonal.shape
        full = np.zeros((count, block, count, block))
        k = np.arange(count)
        full[k, :, k, :] = self.diagonal
        full[k[1:], :, k[:-1], :] = self.lower
        full[k[:-1], :, k[1:], :] = np.swapaxes(self.lower, 1, 2)
        full = full.reshape(count * block, count * block)
        lap = np.empty((self.size, self.size))
        lap[np.ix_(self.rows, self.rows)] = full[: self.size, : self.size]
        return lap


def _band_laplacian(n: int, pairs, blocks, degrees, band) -> _BandLaplacian:
    """The weighted Laplacian with d x d node blocks, as the blocks of its
    block-tridiagonal form in the node order of band = _band(n, pairs).

    Edge e = (i, j) puts -blocks[e] (d x d) into block row j, column i and
    its transpose into block row i, column j; node i's diagonal block is
    degrees[i] I. Each block goes into the diagonal block that holds both
    band positions of its nodes, or into the block below it when they fall
    into consecutive blocks, which is as far apart as _band lets them fall.
    """
    rows, block = band
    nodes = block // 3
    d = blocks.shape[1]
    block = d * nodes
    count = -(-n // nodes)
    order = rows[::3] // 3
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    first, second = position[pairs].T
    # each edge's block in the row of its later node in the band order
    coupling = np.where((second > first)[:, None, None], -blocks, -np.swapaxes(blocks, 1, 2))
    row_block, row_node = np.divmod(np.maximum(first, second), nodes)
    column_block, column_node = np.divmod(np.minimum(first, second), nodes)
    inside = row_block == column_block
    diagonal = np.zeros((count, nodes, d, nodes, d))
    diagonal[row_block[inside], row_node[inside], :, column_node[inside], :] = coupling[inside]
    diagonal[row_block[inside], column_node[inside], :, row_node[inside], :] = np.swapaxes(
        coupling[inside], 1, 2
    )
    lower = np.zeros((count - 1, nodes, d, nodes, d))
    lower[column_block[~inside], row_node[~inside], :, column_node[~inside], :] = coupling[~inside]
    diagonal = diagonal.reshape(count, block, block)
    padded = np.ones(count * nodes)
    padded[:n] = degrees[order]
    diagonal[:, np.arange(block), np.arange(block)] = np.repeat(padded, d).reshape(count, block)
    rows = (d * order[:, None] + np.arange(d)).ravel()
    return _BandLaplacian(rows, diagonal, lower.reshape(count - 1, block, block))


def _shift_invert(lap: _BandLaplacian, shift: float):
    """y -> (L + shift I)^-1 y for panels in band order, from one Cholesky factor.

    The factor of the block-tridiagonal L + shift I is block bidiagonal:
    each diagonal block is the Cholesky factor of the shifted diagonal block
    of L less the part its coupling to the previous block already accounts
    for. numpy has no triangular solve, so each diagonal block of the factor
    is inverted, and the forward and back substitutions walk the same blocks:
    subtract the coupling to the block solved before (one matmul), then apply
    the inverse. L itself is not modified.
    """
    count, block, _ = lap.diagonal.shape
    inverses = np.empty_like(lap.diagonal)
    # couplings[k] is the block of the factor below diagonal block k
    couplings = np.empty_like(lap.lower)
    for k in range(count):
        diagonal = lap.diagonal[k].copy()
        diagonal[np.diag_indices(block)] += shift
        if k:
            diagonal -= couplings[k - 1] @ couplings[k - 1].T
        try:
            low = np.linalg.cholesky(diagonal)
        except np.linalg.LinAlgError as exc:
            raise EigenSolverFailure(f"Cholesky factorization failed: {exc}") from exc
        inverses[k] = _lower_inverse(low)
        if k + 1 < count:
            couplings[k] = lap.lower[k] @ inverses[k].T

    def solve(x: np.ndarray) -> np.ndarray:
        y = x.reshape(count, block, -1).copy()
        for k in range(count):
            if k:
                y[k] -= couplings[k - 1] @ y[k - 1]
            y[k] = inverses[k] @ y[k]
        for k in reversed(range(count)):
            if k + 1 < count:
                y[k] -= couplings[k].T @ y[k + 1]
            y[k] = inverses[k].T @ y[k]
        return y.reshape(count * block, -1)

    return solve


def _subspace_iteration(lap: _BandLaplacian, start=None):
    """The 4 smallest eigenvalues and eigenvectors of a PSD matrix by
    shift-invert subspace iteration, plus the final Ritz panel, or None when
    it would not converge within MAX_SWEEPS sweeps.

    The iteration runs in band order. A sweep applies (L + sigma I)^-1 to the
    panel (through the band factor of _shift_invert), orthonormalizes it (QR)
    and rotates it onto its Ritz vectors (eigh of the PANEL x PANEL
    projection). The panel starts from `start` when given, else from a fixed
    seed; both, and the results, are in node order. The residual of the k-th
    Ritz pair shrinks by about (theta_k + sigma) / (theta_PANEL + sigma) a
    sweep, so once the fourth pair's rate, extrapolated from its residual,
    cannot reach RESIDUAL_TOL within MAX_SWEEPS, this gives up at once
    instead of at the cap.
    """
    norm = lap.norm()
    shift = SHIFT * norm
    solve = _shift_invert(lap, shift)
    # either way the start is a function of the inputs, so the same inputs
    # always give the same result
    if start is None:
        start = np.random.default_rng(0).standard_normal((lap.size, PANEL))
    panel = lap.to_band(start)
    for sweep in range(1, MAX_SWEEPS + 1):
        basis, _ = np.linalg.qr(solve(panel))
        lap_basis = lap @ basis
        ritz, rotation = np.linalg.eigh(basis.T @ lap_basis)
        panel = basis @ rotation
        residual = np.linalg.norm(
            lap_basis @ rotation[:, :_WANTED] - panel[:, :_WANTED] * ritz[:_WANTED], axis=0
        ).max()
        if residual <= RESIDUAL_TOL * norm:
            panel = lap.from_band(panel)
            return ritz[:_WANTED], panel[:, :_WANTED], panel
        rate = (ritz[_WANTED - 1] + shift) / (ritz[-1] + shift)
        if rate >= 1.0:
            return None
        if sweep + math.log(RESIDUAL_TOL * norm / residual) / math.log(rate) > MAX_SWEEPS:
            return None
    return None


def _smallest_eigenpairs(lap: _BandLaplacian, start=None):
    """The 4 smallest eigenvalues (ascending) of the symmetric PSD matrix lap,
    their eigenvectors as columns, and the Ritz panel of the PANEL smallest,
    all in node order: iterative above DENSE_MAX_SIZE rows unless it stalls,
    else from the full eigh of lap.dense(), whose panel is its first PANEL
    eigenvectors."""
    if lap.size > DENSE_MAX_SIZE:
        found = _subspace_iteration(lap, start)
        if found is not None:
            return found
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(lap.dense())
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"symmetric eigendecomposition failed: {exc}") from exc
    return eigenvalues[:_WANTED], eigenvectors[:, :_WANTED], eigenvectors[:, :PANEL].copy()


def _rotations(n: int, pairs, rot, c, band, start=None):
    """Synchronized rotations (n x 3 x 3), the eigengap lambda_4 - lambda_3,
    and the Ritz panel to start the next round from.

    The eigenpairs come from _smallest_eigenpairs: the full eigh when
    3n <= DENSE_MAX_SIZE or when the subspace iteration stalls, the
    shift-invert subspace iteration on the band of _band otherwise. Either
    way only the span of the first three eigenvectors enters the result.
    """
    # edge (i, j) puts -c R into block row j, column i, so that the stack of
    # R_i^T blocks spans the null space for consistent measurements
    lap = _band_laplacian(n, pairs, c[:, None, None] * rot, _degrees(n, pairs, c), band)
    eigenvalues, eigenvectors, panel = _smallest_eigenpairs(lap, start)
    eigengap = float(eigenvalues[3] - eigenvalues[2])
    blocks = eigenvectors[:, :3].reshape(n, 3, 3)
    # eigenvectors are sign-ambiguous; pick the global sign under which most
    # blocks are nearer to rotations than to reflections
    if 2 * np.sum(np.linalg.det(blocks) < 0.0) > n:
        blocks = -blocks
    projected = nearest_rotations(blocks)
    rotations = projected[0] @ np.swapaxes(projected, 1, 2)
    # row 0 is R_0 R_0^T, the identity only to rounding; node 0 is the anchor
    rotations[0] = np.eye(3)
    return rotations, eigengap, panel


def _translations(n: int, pairs, trans, c, rotations, band) -> np.ndarray:
    """Least-squares translations (n x 3, t_0 = 0) given synchronized rotations.

    Minimizes sum_e c_e |R_j^T (t_i - t_j) - t_e|^2 over the absolute
    translations with the rotations held fixed. The normal equations are
    L T = B with L the scalar weighted graph Laplacian acting on each
    coordinate. L annihilates global shifts, so fixing t_0 = 0 leaves
    L[1:, 1:] T[1:] = B[1:]; row 0 then holds too, because the rows of L, and
    those of B, add up to zero. With node 0's row and column of L made the
    identity's and B's row 0 zero, one block Cholesky factor on
    band = _band(n, pairs) solves it. That matrix is positive definite when
    the edges of positive weight connect all nodes, as every caller checks
    first; a failed factorization raises DegenerateMatrix.
    """
    i, j = pairs.T
    projected = c[:, None] * np.einsum("kab,kb->ka", rotations[j], trans)
    rhs = np.zeros((n, 3))
    np.add.at(rhs, pairs.ravel(), np.stack((projected, -projected), axis=1).reshape(-1, 3))
    rhs[0] = 0.0
    degrees = _degrees(n, pairs, c)
    degrees[0] = 1.0
    free = np.where((pairs != 0).all(axis=1), c, 0.0)
    lap = _band_laplacian(n, pairs, free[:, None, None], degrees, band)
    try:
        solve = _shift_invert(lap, 0.0)
    except EigenSolverFailure as exc:
        raise DegenerateMatrix(f"anchored translation Laplacian is singular: {exc}") from exc
    return lap.from_band(solve(lap.to_band(rhs)))


def rotation_sync(g: PoseGraph) -> np.ndarray:
    """Absolute rotations (n x 3 x 3) from the spectral relaxation, node 0 = identity.

    Equal, bit for bit, to the rotations of transf_sync(g, rounds=1); the
    benchmark times it on its own as sync.rotation_s, so it stays public.
    """
    pairs, motions, c = _active_arrays(g)
    n = g.node_count
    return _rotations(n, pairs, motions[:, :3, :3], c, _band(n, pairs))[0]


def _rotation_array(g: PoseGraph, rotations) -> np.ndarray:
    """rotations as a float array, checked to hold one 3 x 3 matrix per node."""
    rotations = np.asarray(rotations, dtype=np.float64)
    if rotations.shape != (g.node_count, 3, 3):
        raise ValueError(f"expected {g.node_count} x 3 x 3 rotations, got {rotations.shape}")
    return rotations


def translation_sync(g: PoseGraph, rotations) -> np.ndarray:
    """Absolute translations (n x 3, node 0 = zero) given the n x 3 x 3
    synchronized rotations.

    Equal, bit for bit, to the translations of transf_sync(g, rounds=1) given
    rotation_sync(g); the benchmark times it as sync.translation_s.
    """
    rotations = _rotation_array(g, rotations)
    pairs, motions, c = _active_arrays(g)
    n = g.node_count
    return _translations(n, pairs, motions[:, :3, 3], c, rotations, _band(n, pairs))


def translation_objective(g: PoseGraph, rotations, translations) -> float:
    """Weighted squared mismatch minimized by translation_sync, for n x 3 x 3
    rotations and n x 3 translations (or their 3n entries in one row).

    Exposed so solutions can be checked by finite differences.
    """
    rotations = _rotation_array(g, rotations)
    translations = np.asarray(translations, dtype=np.float64).reshape(g.node_count, 3)
    pairs, motions, c = g.pairs[g.active], g.motions[g.active], g.c_fused[g.active]
    i, j = pairs.T
    rebuilt = np.einsum("kba,kb->ka", rotations[j], translations[i] - translations[j])
    return float(c @ np.sum((rebuilt - motions[:, :3, 3]) ** 2, axis=1))


def transf_sync(g: PoseGraph, rounds: int = 4) -> SyncResult:
    """Alternate synchronization and confidence reweighting for `rounds` rounds.

    Each round synchronizes rotations and translations, rebuilds the relative
    motions, and refreshes the global confidences with a Cauchy weight at a
    MAD-derived scale (graph.GAMMA) and the fused ones with harmonic_fuse at
    graph.BETA; local confidences are only read. Rounds only reweight edges,
    never deactivate them, so connectivity is checked once, and the band
    order computed once, up front. Each round after the first starts its
    eigensolver from the previous round's Ritz panel.
    """
    if not is_integer(rounds) or rounds < 1:
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    n = g.node_count
    pairs, motions, c_fused = _active_arrays(g, rounds)
    c_local = g.c_local[g.active]
    band = _band(n, pairs)
    panel = None
    for _ in range(rounds):
        rotations, eigengap, panel = _rotations(
            n, pairs, motions[:, :3, :3], c_fused, band, panel
        )
        poses = np.zeros((n, 4, 4))
        poses[:, :3, :3] = rotations
        poses[:, :3, 3] = _translations(n, pairs, motions[:, :3, 3], c_fused, rotations, band)
        poses[:, 3, 3] = 1.0
        # per edge, the Frobenius gap between the measured and the rebuilt relative motion
        residuals = np.linalg.norm(motions - relative_motions(poses, pairs), axis=(1, 2))
        c_global = cauchy_global_confidence(residuals, cauchy_scale(residuals, GAMMA))
        c_fused = np.clip(harmonic_fuse(c_local, c_global, BETA), 0.0, 1.0)

    poses.setflags(write=False)
    return SyncResult(
        poses=poses,
        rotation_eigengap=eigengap,
        graph=g._with_rows(g.active, c_global=c_global, c_fused=c_fused),
        rounds_completed=int(rounds),
    )
