"""Pairwise rigid alignment: soft correspondences of the mutual nearest
neighbours in descriptor space, weighted closed-form least squares, and
iteratively reweighted refinement. The IRLS fits many sets at once:
register_batch returns one PairwiseFits for all of them.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    MissingFeatures,
    RegistrationError,
    ZeroWeightSum,
)
from .geometry import PointCloud, RigidMotion, Rotation3

MAD_FLOOR = 1e-9
MAD_TO_SIGMA = 1.4826
# distances per row block of the correspondence kernel: 1 MiB of float64
BLOCK_CELLS = 1 << 17
# a kernel block skips the softmax shift while every row's nearest feature
# distance is at most this many temperatures: each row's largest weight then
# stays at or above e^-SHIFT_FREE, far from underflow
SHIFT_FREE = 64.0
# threads of the correspondence kernel: one per usable CPU
if hasattr(os, "sched_getaffinity"):
    _THREADS = len(os.sched_getaffinity(0))
else:
    _THREADS = os.cpu_count() or 1
# (process id, worker count) and the ThreadPoolExecutor of _pool
_POOL = None
# correspondences per batch of the IRLS kernel: each coordinate-major
# (b, 3, n) temporary of a batch stays near 200 KB, however many sets are
# registered. Larger batches make fewer, longer passes; at 16384 the peak RSS
# of a 30x2048 synthetic solve rose by 1-2.5 MB, at 8192 it did not
BATCH_CORRESPONDENCES = 8192
# IRLS steps of register_batch, and the weight above which a correspondence is an inlier
IRLS_ITERATIONS = 5
INLIER_WEIGHT = 0.5
# fit status of one row of _fit_stack; _fit_error maps a failure to its error
_FIT_OK, _TOO_FEW, _ZERO_WEIGHT, _COLLINEAR = range(4)
# local_confidence: logistic steepness and midpoint on the inlier ratio, and
# the residual scale (meters) at which the damping factor halves
CONF_STEEPNESS = 10.0
CONF_MIDPOINT = 0.3
CONF_RESIDUAL_SCALE = 0.05


@dataclass(frozen=True, eq=False, init=False)
class CorrespondenceSet:
    """Paired source/target coordinates (N, 3) with per-pair weights in [0, 1].

    Stores read-only copies; constant weights, such as the unit weights a
    built set starts from, as one element viewed N times (stride 0). The
    optional residuals are checked (length N, finite, non-negative) and
    dropped: no fit reads them, and the set has no residuals attribute.
    """

    source_pts: np.ndarray
    target_pts: np.ndarray
    weights: np.ndarray

    def __init__(self, source_pts, target_pts, weights, residuals=None):
        src = np.array(source_pts, dtype=np.float64)
        dst = np.array(target_pts, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        n = src.shape[0]
        r = np.zeros(n) if residuals is None else np.asarray(residuals, dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 3 or n < 1:
            raise ValueError(f"source_pts must be N x 3 with N >= 1, got {src.shape}")
        if dst.shape != src.shape:
            raise ValueError(f"target_pts shape {dst.shape} != source shape {src.shape}")
        if w.shape != (n,) or r.shape != (n,):
            raise ValueError("weights and residuals must be length-N vectors")
        # NaN and +-inf carry through min and max
        w_lo, w_hi, r_lo, r_hi = w.min(), w.max(), r.min(), r.max()
        finite = (np.isfinite(src).all(), np.isfinite(dst).all(),
                  -np.inf < w_lo <= w_hi < np.inf, -np.inf < r_lo <= r_hi < np.inf)
        for name, ok in zip(("source_pts", "target_pts", "weights", "residuals"), finite):
            if not ok:
                raise ValueError(f"{name} must be finite")
        if w_lo < 0.0 or w_hi > 1.0:
            raise ValueError("weights must lie in [0, 1]")
        if r_lo < 0.0:
            raise ValueError("residuals must be non-negative")
        w = np.ndarray((n,), np.float64, w[:1].copy(), strides=(0,)) if w_lo == w_hi else np.array(w)
        for name, arr in (("source_pts", src), ("target_pts", dst), ("weights", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.source_pts.shape[0]


@dataclass(frozen=True, eq=False)
class PairwiseResult:
    """Outcome of registering one scan pair. The residuals under the final
    motion are residuals(corr, result.motion)."""

    motion: RigidMotion
    weights: np.ndarray
    inlier_ratio: float
    local_confidence: float


@dataclass(frozen=True, eq=False)
class PairwiseFits:
    """Fits of m correspondence sets, one row per set in input order.

    motions (m, 4, 4), each set's final weights, inlier_ratio and
    local_confidence (m,). register_batch returns one only when every fit
    succeeded.
    """

    motions: np.ndarray
    weights: tuple
    inlier_ratio: np.ndarray
    local_confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.motions)


def _distance_blocks(query_features, target_features, visit, thread_state):
    """Squared feature distances |q - t|^2 of every query row to every
    target, one row block at a time, on the kernel threads.

    Each block of about BLOCK_CELLS distances is written in place into its
    thread's buffer by one GEMM of depth D + 2, [q, |q|^2, 1] [-2 t, 1, |t|^2]^T,
    and handed to visit(start, stop, d, state), which may overwrite d.
    Each thread makes its state once, by thread_state(rows), rows the most
    rows a block holds; the states of all threads are returned. Extra
    memory is O(block + N + M) per thread, not N x M.

    The blocks are shared out over _THREADS threads, one per usable CPU:
    the caller's thread and the persistent workers of _pool each take the
    next unclaimed block until none is left, so a thread that other load
    slows down takes fewer blocks. numpy releases the interpreter lock in
    its ufuncs and GEMMs, so the threads overlap. A block's distances do
    not depend on which thread computes it. The GEMM is tiled by
    _matmul_tiles, which keeps each BLAS call single-threaded. An error in
    any block is raised once every thread has stopped.
    """
    (n, depth), m = query_features.shape, target_features.shape[0]
    rows = max(1, BLOCK_CELLS // m)
    query_sq = np.sum(query_features**2, axis=1)
    # [-2 T^T; 1; |t|^2]: scaling by -2 is exact, so q (-2 t) equals -2 q.t
    target_aug = np.empty((depth + 2, m))
    np.multiply(target_features.T, -2.0, out=target_aug[:depth])
    target_aug[depth] = 1.0
    np.sum(target_features**2, axis=1, out=target_aug[depth + 1])
    starts = range(0, n, rows)
    threads = min(_THREADS, len(starts))
    unclaimed, claim = iter(starts), threading.Lock()

    def run_blocks():
        buf = np.empty((min(rows, n), m))
        state = thread_state(len(buf))
        query_aug = np.empty((min(rows, n), depth + 2))
        query_aug[:, depth + 1] = 1.0
        while True:
            with claim:
                start = next(unclaimed, None)
            if start is None:
                return state
            stop = min(start + rows, n)
            d, aug = buf[: stop - start], query_aug[: stop - start]
            aug[:, :depth] = query_features[start:stop]
            aug[:, depth] = query_sq[start:stop]
            _matmul_tiles(aug, target_aug, d)
            visit(start, stop, d, state)

    # with one thread the list is empty and no worker is started
    workers = [_pool(threads - 1).submit(run_blocks) for _ in range(threads - 1)]
    try:
        states = [run_blocks()]
    finally:
        # no worker may still write into the caller's arrays once this call has returned
        for w in workers:
            w.exception()
    return states + [w.result() for w in workers]


def _reciprocal_rows(query_features, target_features) -> np.ndarray:
    """Indices of the query rows that are mutual nearest neighbours, sorted.

    Row k is kept when its smallest squared distance d_kj, at its first
    nearest target j, is no larger than column j's smallest: k is then a
    nearest query of j. Each block records its rows' argmin and minimum;
    each thread keeps a running column minimum, and the threads' minima are
    combined with np.minimum. Min is exact, so the kept rows do not depend
    on the thread count or block order. Rows tied at a column's minimum are
    all kept. The row holding the smallest distance of all is always kept,
    so at least one row is. A squared distance that rounding made negative
    counts as 0, as in _soft_targets.
    """
    n, m = query_features.shape[0], target_features.shape[0]
    nearest, row_min = np.empty(n, dtype=np.intp), np.empty(n)

    def visit(start, stop, d, col_min):
        arg = d.argmin(axis=1)
        nearest[start:stop] = arg
        row_min[start:stop] = d[np.arange(stop - start), arg]
        np.minimum(col_min, d.min(axis=0), out=col_min)

    col_min = np.minimum.reduce(_distance_blocks(
        query_features, target_features, visit, lambda rows: np.full(m, np.inf)))
    kept = np.maximum(row_min, 0.0) <= np.maximum(col_min, 0.0)[nearest]
    return np.flatnonzero(kept)


def _soft_targets(query_features, target_features, target_points, temperature: float) -> np.ndarray:
    """Softmax-weighted target point for every query row, (N, 3).

    Row k weights target l by exp(-d_kl / t), normalized over l, where d_kl
    is the Euclidean feature distance and t > 0 is finite, as
    build_correspondences checks. Each block of squared distances from
    _distance_blocks takes sqrt, a product with -1/t and exp in place, and
    one tail GEMM with [P, 1], the target points and a column of ones,
    which gives each row's weighted point sum and its weight sum, the
    softmax normalizer, together. Only the sqrt uses the hardware divider.
    -1/t is rounded once per call, as if t were off by at most half an ulp,
    and each product rounds once, as the division did. Two passes run only
    in a block that needs them:
    - clamping at 0, when rounding made a squared distance of coincident
      descriptors negative (the block's minimum is taken before the sqrt);
    - shifting each row by its nearest distance d_min, when some row's
      d_min exceeds SHIFT_FREE * t. Without the shift the row's largest
      weight would fall below e^-SHIFT_FREE and underflow at small t; with
      d_min <= SHIFT_FREE * t it stays far above, and each exponent's
      rounding error stays below SHIFT_FREE ulp. The shift cancels in the
      normalization. d_min is the sqrt of the squared minimum, which equals
      the minimum of the sqrt'ed row because sqrt is monotone and correctly
      rounded.

    Threads write disjoint rows of the result. Every block runs the same
    numpy calls whichever thread runs it, and both branches depend on the
    block's contents only, so the targets are bit-identical for any thread
    count. The tail GEMM takes at most 4 * BLOCK_CELLS = 2^19
    multiply-adds, a size OpenBLAS runs on the calling thread, so it is one
    call.
    """
    scale = -1.0 / temperature
    # [P, 1]: the tail GEMM's last column is each row's weight sum
    points_aug = np.empty((target_points.shape[0], target_points.shape[1] + 1))
    points_aug[:, :-1] = target_points
    points_aug[:, -1] = 1.0
    out = np.empty((query_features.shape[0], target_points.shape[1]))

    def visit(start, stop, d, acc_buf):
        acc = acc_buf[: stop - start]
        nearest = d.min(axis=1, keepdims=True)
        if nearest.min() < 0.0:
            np.maximum(d, 0.0, out=d)
            np.maximum(nearest, 0.0, out=nearest)
        np.sqrt(d, out=d)
        np.sqrt(nearest, out=nearest)
        if nearest.max() > SHIFT_FREE * temperature:
            d -= nearest
        d *= scale
        np.exp(d, out=d)
        np.matmul(d, points_aug, out=acc)
        np.divide(acc[:, :-1], acc[:, -1:], out=out[start:stop])

    _distance_blocks(query_features, target_features, visit,
                     lambda rows: np.empty((rows, points_aug.shape[1])))
    return out


def _matmul_tiles(a, b, out) -> None:
    """out = a @ b in GEMM calls of at most 3 * BLOCK_CELLS multiply-adds.

    OpenBLAS runs a GEMM of more than about 2^19 multiply-adds on several
    threads, whose spin-wait steals the core the kernel's other thread runs
    on; below that it runs on the calling thread. Split along columns when
    a has fewer rows than b has columns, otherwise along rows. A kernel
    block holds at most BLOCK_CELLS cells, so its distance GEMM of depth
    D + 2 takes about (D + 2) / 3 calls, and at least one.
    """
    r, depth = a.shape
    c = b.shape[1]
    cap = 3 * BLOCK_CELLS
    if r < c:
        step = max(1, cap // (r * depth))
        for first in range(0, c, step):
            np.matmul(a, b[:, first : first + step], out=out[:, first : first + step])
    else:
        step = max(1, cap // (c * depth))
        for first in range(0, r, step):
            np.matmul(a[first : first + step], b, out=out[first : first + step])


def _pool(size: int):
    """The persistent kernel workers of this process, size threads.

    Created on first use and kept, so a call does not pay for thread start.
    A forked child gets its own: the parent's threads do not exist there,
    and work submitted to them would never run.
    """
    global _POOL
    key = (os.getpid(), size)
    if _POOL is None or _POOL[0] != key:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = (key, ThreadPoolExecutor(size, thread_name_prefix="mvreg-kernel"))
    return _POOL[1]


def build_correspondences(p: PointCloud, q: PointCloud, temperature: float) -> CorrespondenceSet:
    """One soft correspondence in q per reciprocal point of p.

    A point of p is reciprocal when its nearest point of q in descriptor
    space has it as a nearest point of p (_reciprocal_rows); at least one
    is. Its target is the softmax-weighted point of q (_soft_targets). The
    set's rows are p's reciprocal points in p's order. Weights start at 1,
    stored as one element; the set carries no residuals.
    """
    if not 0.0 < temperature < np.inf:  # also rejects NaN
        raise ValueError("temperature must be positive and finite")
    if p.features is None or q.features is None:
        raise MissingFeatures("both clouds must carry per-point features")
    if p.features.shape[1] != q.features.shape[1]:
        raise DimensionMismatch(
            f"feature dimensions differ: {p.features.shape[1]} vs {q.features.shape[1]}"
        )
    kept = _reciprocal_rows(p.features, q.features)
    targets = _soft_targets(p.features[kept], q.features, q.points, temperature)
    return CorrespondenceSet(p.points[kept], targets, np.ones(len(kept)))


def _fit_error(status: int, count: int) -> RegistrationError:
    """The typed error of a failed fit status from _fit_stack."""
    if status == _TOO_FEW:
        return DegenerateConfiguration(f"need at least 3 correspondences, got {count}")
    if status == _ZERO_WEIGHT:
        return ZeroWeightSum("all correspondence weights are zero")
    return DegenerateConfiguration(
        "weighted support is collinear or coincident; rotation undetermined"
    )


def _fit_stack(src, dst, w):
    """Weighted closed-form rigid fits of m equal-length correspondence sets.

    src and dst are coordinate-major (m, 3, n) stacks, w is (m, n). Each row
    minimizes sum_l w_l |R p_l + t - q_l|^2: weighted centroids src @ w,
    coordinates centred along the last axis, cross-covariance
    S = P~ W Q~^T, SVD S = U S V^T, R = V diag(1, 1, det(VU^T)) U^T,
    t = q_bar - R p_bar. Returns rotations (m, 3, 3), translations (m, 3)
    and a fit status per row; the motion of a failed row is finite but
    meaningless.
    """
    m, n = w.shape
    status = np.full(m, _FIT_OK, dtype=np.int8)
    if n < 3:
        status[:] = _TOO_FEW
        return np.zeros((m, 3, 3)), np.zeros((m, 3)), status
    sw = w.sum(axis=1)
    status[sw <= 0.0] = _ZERO_WEIGHT
    # a unit divisor keeps zero-weight rows finite, so one SVD serves all rows
    sw = np.where(sw > 0.0, sw, 1.0)[:, None]
    p_bar = (src @ w[:, :, None])[:, :, 0] / sw
    q_bar = (dst @ w[:, :, None])[:, :, 0] / sw
    p_c = src - p_bar[:, :, None]
    q_c = dst - q_bar[:, :, None]
    q_c *= w[:, None, :]
    cov = p_c @ np.swapaxes(q_c, 1, 2)
    u, s, vt = np.linalg.svd(cov)
    collinear = (s[:, 0] == 0.0) | (s[:, 1] <= 1e-12 * s[:, 0])
    status[collinear & (status == _FIT_OK)] = _COLLINEAR
    v = np.swapaxes(vt, 1, 2)
    ut = np.swapaxes(u, 1, 2)
    # V diag(1, 1, d): scale the last column of V by d
    v[..., 2] *= np.sign(np.linalg.det(v @ ut))[:, None]
    rot = v @ ut
    return rot, q_bar - (rot @ p_bar[:, :, None])[:, :, 0], status


def _residual_stack(rot, trans, src, dst):
    """|R p_l + t - q_l| for every correspondence of every row, (m, n).

    src and dst are coordinate-major (m, 3, n) stacks.
    """
    moved = rot @ src
    moved += trans[:, :, None]
    moved -= dst
    # x^2 + y^2, then + z^2: the order np.linalg.norm adds in over the
    # coordinate axis, so the norms are bit-equal to it, without its
    # squared copy
    sq = np.square(moved, out=moved)
    norm = sq[:, 0] + sq[:, 1]
    norm += sq[:, 2]
    return np.sqrt(norm, out=norm)


def _row_median(a, keepdims: bool = False):
    """np.median(a, axis=-1), bit for bit, from one sort per row.

    The middle element for odd n, (s[h-1] + s[h]) / 2 for even n, as
    np.median's mean of the two. NaN sorts last, so a row whose last
    sorted element is NaN returns that NaN, as np.median does. numpy's
    vectorised sort beats np.median's partition at the IRLS row lengths.
    """
    s = np.sort(a, axis=-1)
    h = s.shape[-1] // 2
    med = s[..., h] if s.shape[-1] % 2 else (s[..., h - 1] + s[..., h]) / 2
    last = s[..., -1]
    nan = np.isnan(last)
    if nan.any():
        med = np.where(nan, last, med)
    # [()] makes a 0-d result a scalar, as np.median returns for 1-d input
    return med[..., None] if keepdims else med[()]


def mad_scale(r, factor):
    """Robust scale factor * med(|r - med(r)|) of each row of r (along its
    last axis, kept as a length-1 axis), floored at MAD_FLOOR so identical
    residuals do not give a zero scale."""
    med = _row_median(r, keepdims=True)
    mad = _row_median(np.abs(r - med), keepdims=True)
    return np.maximum(factor * mad, MAD_FLOOR)


def _reweight_stack(r, prev, blend: float):
    """robust_reweight applied to each row of (m, n) residuals and weights."""
    scale = mad_scale(r, MAD_TO_SIGMA)
    kernel = 1.0 / (1.0 + (r / scale) ** 2)
    return np.clip(blend * kernel + (1.0 - blend) * prev, 0.0, 1.0)


def _irls_stack(src, dst, w, blend: float):
    """The inner IRLS loop on m equal-length correspondence sets at once.

    src and dst are coordinate-major (m, 3, n) stacks. Starts from the
    weighted fit of w, then runs IRLS_ITERATIONS steps, each of which
    reweights every row from its residuals and re-fits it. A row's status
    stays failed once a fit of it failed. Returns the rotations,
    translations, final weights and fit status of each row.
    """
    rot, trans, status = _fit_stack(src, dst, w)
    for _ in range(IRLS_ITERATIONS):
        w = _reweight_stack(_residual_stack(rot, trans, src, dst), w, blend)
        rot, trans, fit = _fit_stack(src, dst, w)
        status = np.where(status == _FIT_OK, fit, status)
    return rot, trans, w, status


def wls_transform(c: CorrespondenceSet) -> RigidMotion:
    """Weighted least-squares rigid motion minimizing sum_l w_l |R p_l + t - q_l|^2.

    Closed form: weighted centroids, centered coordinates, cross-covariance
    S = P~^T W Q~, SVD S = U S V^T, R = V diag(1, 1, det(VU^T)) U^T,
    t = q_bar - R p_bar.
    """
    # a contiguous copy of constant weights keeps matmul on its BLAS path
    w = np.ascontiguousarray(c.weights)[None]
    rot, trans, status = _fit_stack(c.source_pts.T[None], c.target_pts.T[None], w)
    if status[0] != _FIT_OK:
        raise _fit_error(status[0], len(c))
    return RigidMotion(Rotation3(rot[0]), trans[0])


def residuals(c: CorrespondenceSet, m: RigidMotion) -> np.ndarray:
    """Per-correspondence distance |R p_l + t - q_l|."""
    return _residual_stack(
        m.rotation.m[None], m.translation[None], c.source_pts.T[None], c.target_pts.T[None]
    )[0]


def robust_reweight(residual_values, prev_weights, blend: float) -> np.ndarray:
    """Cauchy-kernel weights at a MAD-derived scale, blended with the old ones.

    Scale s = 1.4826 * med(|r - med(r)|), floored at 1e-9 m so identical
    residuals do not divide by zero; kernel 1 / (1 + (r/s)^2).
    """
    r = np.asarray(residual_values, dtype=np.float64)
    prev = np.asarray(prev_weights, dtype=np.float64)
    if r.shape != prev.shape:
        raise ValueError(f"residuals shape {r.shape} != weights shape {prev.shape}")
    if not 0.0 <= blend <= 1.0:
        raise ValueError("blend must lie in [0, 1]")
    return _reweight_stack(r.reshape(1, -1), prev.reshape(1, -1), blend).reshape(r.shape)


def local_confidence(inlier_ratio, median_residual):
    """Analytic per-pair confidence in [0, 1].

    Logistic in the inlier ratio (midpoint delta_0 = CONF_MIDPOINT, steepness
    k = CONF_STEEPNESS), damped by the median residual relative to a length
    scale rho = CONF_RESIDUAL_SCALE: confidence halves when the median
    residual reaches rho. Element-wise on arrays; scalar inputs give a float.
    """
    gate = 1.0 / (1.0 + np.exp(-CONF_STEEPNESS * (inlier_ratio - CONF_MIDPOINT)))
    damp = 1.0 / (1.0 + median_residual / CONF_RESIDUAL_SCALE)
    value = gate * damp
    return float(value) if np.ndim(value) == 0 else value


def register_batch(sets, cfg: PipelineConfig | None = None) -> PairwiseFits:
    """register_correspondences on many correspondence sets at once.

    Each set starts from its own weights. Sets are grouped by
    correspondence count, and each group is walked in batches of at most
    BATCH_CORRESPONDENCES correspondences (at least one set), so the extra
    memory does not grow with the number of sets. A batch stacks its sets'
    transposed points once, into the (b, 3, n) stacks _irls_stack takes.
    Nothing is checked again: sets are checked when built, and
    _reweight_stack clips every later weight. Rows come in input order.
    When fits fail, the error of the first failing set in input order is
    raised, as a loop over the sets would.
    """
    cfg = cfg or PipelineConfig()
    m = len(sets)
    groups: dict[int, list[int]] = {}
    for k, c in enumerate(sets):
        groups.setdefault(len(c), []).append(k)
    motions = np.tile(np.eye(4), (m, 1, 1))
    status = np.empty(m, dtype=np.int8)
    inlier, conf = np.empty(m), np.empty(m)
    w_out = [None] * m
    for count, members in groups.items():
        step = max(1, BATCH_CORRESPONDENCES // count)
        for first in range(0, len(members), step):
            idx = np.array(members[first : first + step])
            src = np.stack([sets[k].source_pts.T for k in idx])
            dst = np.stack([sets[k].target_pts.T for k in idx])
            w = np.stack([sets[k].weights for k in idx])
            rot, trans, w, status[idx] = _irls_stack(src, dst, w, cfg.blend)
            motions[idx, :3, :3], motions[idx, :3, 3] = rot, trans
            inlier[idx] = np.mean(w > INLIER_WEIGHT, axis=1)
            conf[idx] = local_confidence(inlier[idx], _row_median(_residual_stack(rot, trans, src, dst)))
            for row, k in enumerate(idx):
                w_out[k] = w[row]
    failed = np.flatnonzero(status != _FIT_OK)
    if failed.size:
        raise _fit_error(status[failed[0]], len(sets[failed[0]]))
    return PairwiseFits(motions, tuple(w_out), inlier, conf)


def register_correspondences(corr: CorrespondenceSet, cfg: PipelineConfig | None = None) -> PairwiseResult:
    """Run the inner IRLS loop on an existing correspondence set."""
    fits = register_batch([corr], cfg)
    motion = RigidMotion.from_matrix(fits.motions[0])
    return PairwiseResult(motion, fits.weights[0], float(fits.inlier_ratio[0]),
                          float(fits.local_confidence[0]))


def register_pair(p: PointCloud, q: PointCloud, cfg: PipelineConfig | None = None) -> PairwiseResult:
    """One soft correspondence per reciprocal point of p (build_correspondences),
    followed by IRLS-refined weighted alignment; the inlier ratio is over
    those points."""
    cfg = cfg or PipelineConfig()
    corr = build_correspondences(p, q, cfg.temperature)
    return register_correspondences(corr, cfg)
