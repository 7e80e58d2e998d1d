"""Rigid-motion primitives: rotations, SE(3) elements, point clouds, and the
stack-form SE(3) math the solver runs on (k, 4, 4) and (..., 3, 3) arrays.

Frame convention used throughout the package: the absolute motion M_i maps
scan-i coordinates into the world frame, and the relative motion M_ij maps
scan-i coordinates into scan-j's frame, so M_ij = M_j^-1 * M_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMatrix

ORTHONORMALITY_TOL = 1e-9


def _frozen_array(values, shape, name):
    arr = np.array(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Rotation3:
    """Element of SO(3): orthonormal 3x3 matrix with determinant +1."""

    m: np.ndarray

    def __post_init__(self):
        m = _frozen_array(self.m, (3, 3), "rotation matrix")
        err = np.linalg.norm(m.T @ m - np.eye(3))
        if err > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix is not orthonormal (|R^T R - I|_F = {err:.3e})")
        det = np.linalg.det(m)
        if abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix determinant is {det:.12f}, not +1")
        object.__setattr__(self, "m", m)

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(np.eye(3))


def non_rotations(stack: np.ndarray) -> np.ndarray:
    """Mask of the 3x3 blocks of a (k, 3, 3) array that fail Rotation3's
    checks, vectorized; NaN compares false, so non-finite blocks fail too."""
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.linalg.norm(np.swapaxes(stack, 1, 2) @ stack - np.eye(3), axis=(1, 2))
        det = np.linalg.det(stack)
    return ~((err <= ORTHONORMALITY_TOL) & (np.abs(det - 1.0) <= ORTHONORMALITY_TOL))


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """SE(3) element: rotation plus translation, acting as x -> R x + t."""

    rotation: Rotation3
    translation: np.ndarray

    def __post_init__(self):
        t = _frozen_array(self.translation, (3,), "translation")
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidMotion":
        return RigidMotion(Rotation3.identity(), np.zeros(3))

    @staticmethod
    def from_matrix(mat) -> "RigidMotion":
        """Build from a 4x4 homogeneous matrix (bottom row must be 0 0 0 1)."""
        mat = np.asarray(mat, dtype=np.float64)
        if mat.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {mat.shape}")
        if np.linalg.norm(mat[3] - np.array([0.0, 0.0, 0.0, 1.0])) > ORTHONORMALITY_TOL:
            raise ValueError("bottom row of homogeneous matrix must be (0, 0, 0, 1)")
        return RigidMotion(Rotation3(mat[:3, :3]), mat[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous form [[R, t], [0, 1]]."""
        mat = np.eye(4)
        mat[:3, :3] = self.rotation.m
        mat[:3, 3] = self.translation
        return mat


def motion_stack(matrices) -> list[RigidMotion]:
    """One RigidMotion per row of a (k, 4, 4) stack of rigid motions.

    The stack is copied once, read-only, and each record's rotation and
    translation are views of that copy. Nothing is checked: the package
    passes only stacks it has checked already. RigidMotion.from_matrix is
    the checked way to build records from outside matrices.
    """
    stack = np.array(matrices, dtype=np.float64)
    stack.setflags(write=False)
    out = []
    for mat in stack:
        rotation = object.__new__(Rotation3)
        object.__setattr__(rotation, "m", mat[:3, :3])
        m = object.__new__(RigidMotion)
        object.__setattr__(m, "rotation", rotation)
        object.__setattr__(m, "translation", mat[:3, 3])
        out.append(m)
    return out


@dataclass(frozen=True, eq=False)
class PointCloud:
    """N points in meters, optionally with one descriptor row per point."""

    points: np.ndarray
    features: np.ndarray | None = field(default=None)

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must be an N x 3 array with N >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.features is not None:
            feats = np.array(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != pts.shape[0] or feats.shape[1] < 1:
                raise ValueError(f"features must have one row of at least one column per point, "
                                 f"got {feats.shape} for {pts.shape[0]} points")
            if not np.all(np.isfinite(feats)):
                raise ValueError("features must be finite")
            feats.setflags(write=False)
            object.__setattr__(self, "features", feats)

    def __len__(self) -> int:
        return self.points.shape[0]


def invert(m: RigidMotion) -> RigidMotion:
    return RigidMotion(Rotation3(m.rotation.m.T), -m.rotation.m.T @ m.translation)


def transform_points(m: RigidMotion, points: np.ndarray) -> np.ndarray:
    """Apply x -> R x + t to each row of an N x 3 array."""
    return np.asarray(points, dtype=np.float64) @ m.rotation.m.T + m.translation


def nearest_rotations(m) -> np.ndarray:
    """Nearest rotation, under the Frobenius norm, to each 3x3 block of a
    (..., 3, 3) array.

    From the SVD m = U S V^T the projection is U diag(1, 1, det(VU^T)) V^T;
    the determinant factor forces a proper rotation instead of a reflection.
    Raises DegenerateMatrix when a block has rank < 2 (two vanishing
    singular values), where the nearest rotation is not unique.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise DegenerateMatrix("matrix has non-finite entries")
    u, s, vt = np.linalg.svd(m)
    if np.any(s[..., 1] <= 1e-12 * s[..., 0]):
        raise DegenerateMatrix("two singular values vanish; nearest rotation undefined")
    # u diag(1, 1, d): scale the last column of u by d
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def relative_motions(absolute, pairs) -> np.ndarray:
    """The 4x4 relative M_j^-1 M_i, which takes frame-i coordinates to frame-j
    coordinates, of n x 4 x 4 absolute motions for each pair (i, j) of an
    m x 2 index array."""
    a = np.asarray(absolute, dtype=np.float64)
    i, j = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    inv_rot = np.swapaxes(a[j, :3, :3], 1, 2)
    rel = np.zeros((len(i), 4, 4))
    rel[:, :3, :3] = inv_rot @ a[i, :3, :3]
    rel[:, :3, 3:] = inv_rot @ (a[i, :3, 3:] - a[j, :3, 3:])
    rel[:, 3, 3] = 1.0
    return rel
