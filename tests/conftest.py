import numpy as np
import pytest

from mvreg import PointCloud, PoseGraph, RigidMotion, random_motion, random_rotation


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_motion(rng, translation_scale=1.0) -> RigidMotion:
    return random_motion(rng, translation_scale)


def make_rotation(rng):
    return random_rotation(rng)


def make_feature_cloud(rng, n=50, noise=0.0) -> PointCloud:
    """Cloud with coordinates-as-features so matching is unambiguous."""
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    feats = pts + noise * rng.normal(size=pts.shape)
    return PointCloud(pts, feats)


def rebuilt(g: PoseGraph, rows, **columns) -> PoseGraph:
    """g rebuilt through the PoseGraph constructor, and so checked, with the
    given rows of each named column (motions, confidences, active) replaced."""
    arrays = {name: getattr(g, name).copy()
              for name in ("motions", "c_local", "c_global", "c_fused", "active")}
    for name, values in columns.items():
        arrays[name][rows] = values
    return PoseGraph(g.node_count, g.pairs, **arrays)


def motions_close(a: RigidMotion, b: RigidMotion, tol=1e-9) -> bool:
    return bool(np.linalg.norm(a.matrix - b.matrix) <= tol)


def rotation_gap_deg(a, b) -> float:
    """Angle between rotations via 2*arcsin(|a - b|_F / (2*sqrt(2))).

    Identical to the geodesic angle but well conditioned near zero, where
    the arccos form cannot resolve below ~1.2e-6 degrees in float64.
    """
    ma = a.m if hasattr(a, "m") else np.asarray(a)
    mb = b.m if hasattr(b, "m") else np.asarray(b)
    s = np.linalg.norm(ma - mb) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(min(1.0, s))))
