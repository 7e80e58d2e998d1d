"""Evaluation metrics: angular/translation errors, ECDF curves, recall, and
the gauge-invariant pairwise synchronization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyErrors, EmptyPairs, LengthMismatch
from .geometry import RigidMotion, geodesic_angle, relative_motions, transform_points

ROTATION_ECDF_THRESHOLDS_DEG = (3.0, 5.0, 10.0, 30.0, 45.0)
TRANSLATION_ECDF_THRESHOLDS_M = (0.05, 0.1, 0.25, 0.5, 0.75)
DEFAULT_RECALL_RMSE_M = 0.2


def angular_error(a, b) -> float:
    """Geodesic angle between two rotations, in degrees."""
    return math.degrees(geodesic_angle(a, b))


def motion_errors(est, ref) -> tuple[np.ndarray, np.ndarray]:
    """Rotation error (deg, geodesic) and translation error (m, Euclidean) of
    each stacked 4x4 motion est[k] against ref[k]."""
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    product = np.swapaxes(est[:, :3, :3], 1, 2) @ ref[:, :3, :3]
    cos_angle = (np.trace(product, axis1=1, axis2=2) - 1.0) / 2.0
    rot = np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0)))
    trans = np.linalg.norm(est[:, :3, 3] - ref[:, :3, 3], axis=1)
    return rot, trans


def ecdf(errors, thresholds) -> list[float]:
    """Fraction of errors at or below each threshold (thresholds ascending)."""
    values = np.asarray(errors, dtype=np.float64)
    if values.size == 0:
        raise EmptyErrors("ECDF of an empty error list is undefined")
    thr = np.asarray(thresholds, dtype=np.float64)
    if np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be sorted ascending")
    return [float(np.mean(values <= t)) for t in thr]


def registration_recall(pairs, rmse_thresh: float = DEFAULT_RECALL_RMSE_M) -> float:
    """Fraction of pairs whose estimate puts the reference correspondences
    within an RMSE threshold.

    Each pair is (motion_est, motion_gt, correspondences) where the
    correspondences are (source_points, target_points) arrays; a pair
    succeeds when sqrt(mean |est(p) - q|^2) < rmse_thresh.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyPairs("recall of an empty pair list is undefined")
    successes = 0
    for motion_est, _motion_gt, correspondences in pairs:
        src, dst = correspondences
        src = np.asarray(src, dtype=np.float64)
        dst = np.asarray(dst, dtype=np.float64)
        if src.shape[0] < 1 or src.shape != dst.shape:
            raise ValueError("each pair needs at least one (source, target) correspondence")
        gap = transform_points(motion_est, src) - dst
        rmse = math.sqrt(float(np.mean(np.sum(gap**2, axis=1))))
        if rmse < rmse_thresh:
            successes += 1
    return successes / len(pairs)


def _pose_array(motions) -> np.ndarray:
    return np.array([m.matrix for m in motions]).reshape(-1, 4, 4)


def sync_pair_error(est, gt: list[RigidMotion]) -> tuple[float, float]:
    """Mean Frobenius rotation gap and translation gap over all relative pairs.

    Compares relative motions, so the result is invariant to the global gauge
    of either pose set. `est` may be a SyncResult, whose poses array is read,
    or a list of motions.
    """
    est_poses = est.poses if hasattr(est, "poses") else _pose_array(est)
    if len(est_poses) != len(gt):
        raise LengthMismatch(f"{len(est_poses)} estimated poses vs {len(gt)} reference poses")
    n = len(gt)
    if n < 2:
        raise LengthMismatch("need at least 2 poses to compare relative motions")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gap = relative_motions(est_poses, pairs) - relative_motions(_pose_array(gt), pairs)
    rot = np.linalg.norm(gap[:, :3, :3], axis=(1, 2))
    trans = np.linalg.norm(gap[:, :3, 3], axis=1)
    return float(rot.mean()), float(trans.mean())


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-edge errors with their ECDF values and summary statistics."""

    rotation_errors_deg: np.ndarray
    translation_errors_m: np.ndarray
    rotation_thresholds_deg: tuple[float, ...]
    translation_thresholds_m: tuple[float, ...]
    ecdf_rotation: tuple[float, ...]
    ecdf_translation: tuple[float, ...]
    mean_rotation_deg: float
    median_rotation_deg: float
    mean_translation_m: float
    median_translation_m: float

    @staticmethod
    def from_errors(
        rotation_errors_deg,
        translation_errors_m,
        rotation_thresholds_deg=ROTATION_ECDF_THRESHOLDS_DEG,
        translation_thresholds_m=TRANSLATION_ECDF_THRESHOLDS_M,
    ) -> "ErrorReport":
        rot = np.asarray(rotation_errors_deg, dtype=np.float64)
        trans = np.asarray(translation_errors_m, dtype=np.float64)
        return ErrorReport(
            rotation_errors_deg=rot,
            translation_errors_m=trans,
            rotation_thresholds_deg=tuple(rotation_thresholds_deg),
            translation_thresholds_m=tuple(translation_thresholds_m),
            ecdf_rotation=tuple(ecdf(rot, rotation_thresholds_deg)),
            ecdf_translation=tuple(ecdf(trans, translation_thresholds_m)),
            mean_rotation_deg=float(rot.mean()),
            median_rotation_deg=float(np.median(rot)),
            mean_translation_m=float(trans.mean()),
            median_translation_m=float(np.median(trans)),
        )
