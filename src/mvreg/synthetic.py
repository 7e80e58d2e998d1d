"""Ground-truthed synthetic scenes: a room-scale box scanned from a ring of
viewpoints, with configurable point noise, descriptor noise, and a fraction
of deliberately corrupted pair measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, RigidMotion, Rotation3, invert, transform_points
from .pairwise import CorrespondenceSet, build_correspondences

# each scan sees a wedge spanning this many ring steps, so nearby scans
# overlap strongly and the pose graph keeps redundant cycles
VISIBILITY_HORIZON = 6
# a pair of scans sharing at least this fraction of their points is an edge
MIN_OVERLAP = 0.3
BASE_POINT_MARGIN = 1.35
BOX_EXTENTS = (1.0, 1.0, 0.5)


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """Scans with known poses plus labels for corrupted pair measurements."""

    clouds: tuple[PointCloud, ...]
    ground_truth: tuple[RigidMotion, ...]
    edges: tuple[tuple[int, int], ...]
    edge_labels: dict
    corruptions: dict
    base_points: np.ndarray
    base_indices: tuple[np.ndarray, ...]
    seed: int = 0


def random_rotation(rng: np.random.Generator) -> Rotation3:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return Rotation3(
        np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
    )


def rotation_about_axis(axis, angle: float) -> Rotation3:
    """Rodrigues rotation by `angle` radians about a (non-zero) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return Rotation3(np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k))


def random_motion(rng: np.random.Generator, translation_scale: float = 1.0) -> RigidMotion:
    return RigidMotion(random_rotation(rng), rng.uniform(-translation_scale, translation_scale, 3))


def _corruption_motion(rng: np.random.Generator) -> RigidMotion:
    """Large wrong-but-rigid motion: rotation in [90, 180] deg, offset 0.5-1.5 m."""
    axis = rng.normal(size=3)
    angle = rng.uniform(math.pi / 2.0, math.pi)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    magnitude = rng.uniform(0.5, 1.5)
    return RigidMotion(rotation_about_axis(axis, angle), magnitude * direction)


def _box_surface_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Points sampled on the surface of an axis-aligned box centered at 0."""
    ex, ey, ez = BOX_EXTENTS
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    pts = np.empty((count, 3))
    for face in range(6):
        mask = faces == face
        axis = face // 2
        sign = 1.0 if face % 2 == 0 else -1.0
        extents = np.array(BOX_EXTENTS)
        coords = np.zeros((int(mask.sum()), 3))
        others = [a for a in range(3) if a != axis]
        coords[:, axis] = sign * extents[axis] / 2.0
        coords[:, others[0]] = u[mask] * extents[others[0]]
        coords[:, others[1]] = v[mask] * extents[others[1]]
        pts[mask] = coords
    return pts


def _circular_distance(a: np.ndarray, b: float) -> np.ndarray:
    d = np.abs(a - b) % (2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def generate_scene(
    n_scans: int,
    pts_per_scan: int,
    noise_sigma: float,
    outlier_edge_fraction: float,
    seed: int,
    descriptor_noise: float = 0.01,
) -> SyntheticScene:
    """Deterministic scene with ground-truth poses and labeled edges.

    Each scan samples pts_per_scan points from the wedge of the box surface
    visible from its ring position, expressed in its own frame with Gaussian
    noise sigma. Descriptors are the canonical (world-frame) coordinates plus
    independent per-scan noise, so feature matching is informative without
    being trivially exact. Pairs sharing at least MIN_OVERLAP of their points
    become edges; for the requested fraction of edges the pair measurement is
    corrupted by a large rigid motion and labeled "outlier".
    """
    if n_scans < 3:
        raise ValueError("need at least 3 scans")
    if not 0.0 <= outlier_edge_fraction <= 1.0:
        raise ValueError("outlier_edge_fraction must lie in [0, 1]")
    if pts_per_scan < 3:
        raise ValueError("need at least 3 points per scan")
    rng = np.random.default_rng(seed)

    wedge = min(2.0 * math.pi * VISIBILITY_HORIZON / n_scans, 2.0 * math.pi)
    visible_fraction = wedge / (2.0 * math.pi)
    base_count = int(math.ceil(BASE_POINT_MARGIN * pts_per_scan / visible_fraction))
    base_points = _box_surface_points(rng, base_count)
    azimuths = np.arctan2(base_points[:, 1], base_points[:, 0])

    ground_truth = tuple(random_motion(rng, translation_scale=0.5) for _ in range(n_scans))

    clouds = []
    base_indices = []
    for i in range(n_scans):
        center = 2.0 * math.pi * i / n_scans
        distance = _circular_distance(azimuths, center)
        visible = np.flatnonzero(distance <= wedge / 2.0)
        if visible.size >= pts_per_scan:
            chosen = rng.choice(visible, size=pts_per_scan, replace=False)
        else:
            # wedge undersampled: take everything visible and top up with the
            # nearest points just outside it
            visible_set = set(visible.tolist())
            extra = [k for k in np.argsort(distance) if k not in visible_set]
            chosen = np.concatenate([visible, extra[: pts_per_scan - visible.size]])
        chosen = np.sort(chosen)
        world = base_points[chosen]
        local = transform_points(invert(ground_truth[i]), world)
        local = local + noise_sigma * rng.normal(size=local.shape)
        feats = world + descriptor_noise * rng.normal(size=world.shape)
        clouds.append(PointCloud(local, feats))
        base_indices.append(chosen)

    edges = []
    for i in range(n_scans):
        set_i = set(base_indices[i].tolist())
        for j in range(i + 1, n_scans):
            shared = len(set_i.intersection(base_indices[j].tolist()))
            if shared / pts_per_scan >= MIN_OVERLAP:
                edges.append((i, j))
    edges = tuple(edges)

    n_outliers = int(round(outlier_edge_fraction * len(edges)))
    outlier_positions = set(
        rng.choice(len(edges), size=n_outliers, replace=False).tolist()
    ) if n_outliers else set()
    edge_labels = {}
    corruptions = {}
    for k, pair in enumerate(edges):
        if k in outlier_positions:
            edge_labels[pair] = "outlier"
            corruptions[pair] = _corruption_motion(rng)
        else:
            edge_labels[pair] = "inlier"

    return SyntheticScene(
        clouds=tuple(clouds),
        ground_truth=ground_truth,
        edges=edges,
        edge_labels=edge_labels,
        corruptions=corruptions,
        base_points=base_points,
        base_indices=tuple(base_indices),
        seed=seed,
    )


def scene_correspondences(
    scene: SyntheticScene, temperature: float
) -> dict[tuple[int, int], CorrespondenceSet]:
    """Correspondence sets for every scene edge.

    Edges labeled "outlier" model a failed matching stage: the target rows
    are permuted so no correspondence is real, then displaced by the scene's
    drawn corruption motion. The fitted pair measurement comes out as a
    random large motion while the pair's own statistics (weights, inlier
    ratio) reflect the failure, as they would for a real mismatched pair.
    """
    out = {}
    for pair in scene.edges:
        i, j = pair
        corr = build_correspondences(scene.clouds[i], scene.clouds[j], temperature)
        if pair in scene.corruptions:
            rng = np.random.default_rng([scene.seed, i, j])
            perm = rng.permutation(len(corr))
            moved = transform_points(scene.corruptions[pair], corr.target_pts[perm])
            corr = CorrespondenceSet(corr.source_pts, moved, corr.weights, corr.residuals)
        out[pair] = corr
    return out
