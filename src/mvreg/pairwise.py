"""Pairwise rigid alignment: soft correspondences, weighted closed-form
least squares, and iteratively reweighted refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    EmptyTarget,
    MissingFeatures,
    ZeroWeightSum,
)
from .geometry import PointCloud, RigidMotion, Rotation3, transform_points

MOTION_CHANGE_TOL = 1e-8
MAD_FLOOR = 1e-9
MAD_TO_SIGMA = 1.4826
# distances per row block of the correspondence kernel: 1 MiB of float64
BLOCK_CELLS = 1 << 17


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Paired source/target coordinates with per-pair weights and residuals."""

    source_pts: np.ndarray
    target_pts: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        src = np.array(self.source_pts, dtype=np.float64)
        dst = np.array(self.target_pts, dtype=np.float64)
        w = np.array(self.weights, dtype=np.float64)
        r = np.array(self.residuals, dtype=np.float64)
        n = src.shape[0]
        if src.ndim != 2 or src.shape[1] != 3 or n < 1:
            raise ValueError(f"source_pts must be N x 3 with N >= 1, got {src.shape}")
        if dst.shape != src.shape:
            raise ValueError(f"target_pts shape {dst.shape} != source shape {src.shape}")
        if w.shape != (n,) or r.shape != (n,):
            raise ValueError("weights and residuals must be length-N vectors")
        for name, arr in (("source_pts", src), ("target_pts", dst), ("weights", w), ("residuals", r)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if np.any(r < 0.0):
            raise ValueError("residuals must be non-negative")
        for name, arr in (("source_pts", src), ("target_pts", dst), ("weights", w), ("residuals", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.source_pts.shape[0]

    def with_weights(self, weights) -> "CorrespondenceSet":
        return CorrespondenceSet(self.source_pts, self.target_pts, weights, self.residuals)

    def with_residuals(self, residuals) -> "CorrespondenceSet":
        return CorrespondenceSet(self.source_pts, self.target_pts, self.weights, residuals)


@dataclass(frozen=True, eq=False)
class PairwiseResult:
    """Outcome of registering one scan pair."""

    motion: RigidMotion
    weights: np.ndarray
    residuals: np.ndarray
    inlier_ratio: float
    local_confidence: float
    converged: bool = field(default=True)


def _soft_targets(query_features, target_features, target_points, temperature: float) -> np.ndarray:
    """Softmax-weighted target point for every query row, (N, 3).

    Row k weights target l by exp((d_min - d_kl) / t), normalized over l,
    where d_kl is the Euclidean feature distance and d_min the row minimum,
    so no exponent is positive and nothing overflows at small t. Query rows
    are processed in blocks of about BLOCK_CELLS distances, all written in
    place into one buffer: extra memory is O(block + N + M), not N x M.
    """
    n, m = query_features.shape[0], target_features.shape[0]
    rows = max(1, BLOCK_CELLS // m)
    query_sq = np.sum(query_features**2, axis=1)
    target_sq = np.sum(target_features**2, axis=1)
    # scaling by -2 is exact, so Q (-2 T)^T equals -2 Q T^T
    target_t = -2.0 * target_features.T
    buf = np.empty((min(rows, n), m))
    out = np.empty((n, target_points.shape[1]))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        d = buf[: stop - start]
        np.matmul(query_features[start:stop], target_t, out=d)
        d += query_sq[start:stop, None]
        d += target_sq
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d -= d.min(axis=1, keepdims=True)
        d /= -temperature
        np.exp(d, out=d)
        out[start:stop] = (d @ target_points) / d.sum(axis=1, keepdims=True)
    return out


def soft_assign(query_feature, target_features, target_points, temperature: float) -> np.ndarray:
    """Softmax-weighted target coordinate for one query descriptor.

    Weights are exp(-d_l / t) normalized over the targets, where d_l is the
    Euclidean feature distance; as t -> 0 this converges to the hard nearest
    neighbor. The max-shifted softmax avoids overflow at small temperatures.
    """
    target_features = np.asarray(target_features, dtype=np.float64)
    target_points = np.asarray(target_points, dtype=np.float64)
    if target_features.shape[0] == 0:
        raise EmptyTarget("soft assignment needs at least one target point")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    query = np.asarray(query_feature, dtype=np.float64)[None, :]
    return _soft_targets(query, target_features, target_points, temperature)[0]


def build_correspondences(p: PointCloud, q: PointCloud, temperature: float) -> CorrespondenceSet:
    """One soft correspondence in q for every point of p.

    Weights start at 1 and residuals at 0; the IRLS loop fills them in.
    """
    if p.features is None or q.features is None:
        raise MissingFeatures("both clouds must carry per-point features")
    if p.features.shape[1] != q.features.shape[1]:
        raise DimensionMismatch(
            f"feature dimensions differ: {p.features.shape[1]} vs {q.features.shape[1]}"
        )
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    targets = _soft_targets(p.features, q.features, q.points, temperature)
    n = len(p)
    return CorrespondenceSet(p.points, targets, np.ones(n), np.zeros(n))


def wls_transform(c: CorrespondenceSet) -> RigidMotion:
    """Weighted least-squares rigid motion minimizing sum_l w_l |R p_l + t - q_l|^2.

    Closed form: weighted centroids, centered coordinates, cross-covariance
    S = P~^T W Q~, SVD S = U S V^T, R = V diag(1, 1, det(VU^T)) U^T,
    t = q_bar - R p_bar.
    """
    if len(c) < 3:
        raise DegenerateConfiguration(f"need at least 3 correspondences, got {len(c)}")
    w = c.weights
    sw = w.sum()
    if sw <= 0.0:
        raise ZeroWeightSum("all correspondence weights are zero")
    p_bar = w @ c.source_pts / sw
    q_bar = w @ c.target_pts / sw
    p_c = c.source_pts - p_bar
    q_c = c.target_pts - q_bar
    cov = p_c.T @ (w[:, None] * q_c)
    u, s, vt = np.linalg.svd(cov)
    if s[0] == 0.0 or s[1] <= 1e-12 * s[0]:
        raise DegenerateConfiguration(
            "weighted support is collinear or coincident; rotation undetermined"
        )
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rot = v @ np.diag([1.0, 1.0, d]) @ u.T
    rotation = Rotation3(rot)
    return RigidMotion(rotation, q_bar - rot @ p_bar)


def residuals(c: CorrespondenceSet, m: RigidMotion) -> np.ndarray:
    """Per-correspondence distance |R p_l + t - q_l|."""
    moved = transform_points(m, c.source_pts)
    return np.linalg.norm(moved - c.target_pts, axis=1)


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
    s = max(MAD_TO_SIGMA * float(np.median(np.abs(r - np.median(r)))), MAD_FLOOR)
    kernel = 1.0 / (1.0 + (r / s) ** 2)
    return np.clip(blend * kernel + (1.0 - blend) * prev, 0.0, 1.0)


def local_confidence(inlier_ratio: float, median_residual: float, cfg: PipelineConfig | None = None) -> float:
    """Analytic per-pair confidence in [0, 1].

    Logistic in the inlier ratio (midpoint delta_0, steepness k), damped by
    the median residual relative to a length scale rho: confidence halves
    when the median residual reaches rho.
    """
    cfg = cfg or PipelineConfig()
    gate = 1.0 / (1.0 + np.exp(-cfg.conf_steepness * (inlier_ratio - cfg.conf_midpoint)))
    damp = 1.0 / (1.0 + median_residual / cfg.conf_residual_scale)
    return float(gate * damp)


def register_correspondences(corr: CorrespondenceSet, cfg: PipelineConfig | None = None) -> PairwiseResult:
    """Run the inner IRLS loop on an existing correspondence set."""
    cfg = cfg or PipelineConfig()
    motion = wls_transform(corr)
    weights = corr.weights
    converged = cfg.inner_irls == 0
    for _ in range(cfg.inner_irls):
        r = residuals(corr, motion)
        weights = robust_reweight(r, weights, cfg.blend)
        new_motion = wls_transform(corr.with_weights(weights))
        change = np.linalg.norm(new_motion.matrix - motion.matrix)
        motion = new_motion
        if change < MOTION_CHANGE_TOL:
            converged = True
            break
    final_residuals = residuals(corr, motion)
    inlier_ratio = float(np.mean(weights > cfg.w_thresh))
    conf = local_confidence(inlier_ratio, float(np.median(final_residuals)), cfg)
    return PairwiseResult(motion, weights, final_residuals, inlier_ratio, conf, converged)


def register_pair(p: PointCloud, q: PointCloud, cfg: PipelineConfig | None = None) -> PairwiseResult:
    """Soft correspondences followed by IRLS-refined weighted alignment."""
    cfg = cfg or PipelineConfig()
    corr = build_correspondences(p, q, cfg.temperature)
    return register_correspondences(corr, cfg)
