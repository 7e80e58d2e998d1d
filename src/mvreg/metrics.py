"""Evaluation metrics: rotation/translation errors of stacked motions, ECDF
curves, and their summary report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyErrors

ROTATION_ECDF_THRESHOLDS_DEG = (3.0, 5.0, 10.0, 30.0, 45.0)
TRANSLATION_ECDF_THRESHOLDS_M = (0.05, 0.1, 0.25, 0.5, 0.75)


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
    # NaN compares false, so it would pass the ascending check on its own
    if thr.size == 0 or np.isnan(thr).any() or np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be non-empty, not NaN and sorted ascending")
    return [float(np.mean(values <= t)) for t in thr]


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """ECDF values and summary statistics of per-edge errors."""

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
            rotation_thresholds_deg=tuple(rotation_thresholds_deg),
            translation_thresholds_m=tuple(translation_thresholds_m),
            ecdf_rotation=tuple(ecdf(rot, rotation_thresholds_deg)),
            ecdf_translation=tuple(ecdf(trans, translation_thresholds_m)),
            mean_rotation_deg=float(rot.mean()),
            median_rotation_deg=float(np.median(rot)),
            mean_translation_m=float(trans.mean()),
            median_translation_m=float(np.median(trans)),
        )
