"""Rigid transforms and point clouds.

Rotations are 3x3 row-major matrices acting on column vectors, translations
are applied after rotation: p' = R p + t.  Point clouds keep their input
order everywhere; downstream stages rely on the row index as a stable
point identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, EmptyScan, ShapeMismatch


@dataclass
class RigidTransform:
    """Proper rigid motion of 3-space.

    Attributes:
        rotation: (3, 3) rotation matrix, det +1.
        translation: (3,) offset in meters.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.rotation.shape != (3, 3):
            raise ShapeMismatch(f"rotation must be 3x3, got {self.rotation.shape}")
        if self.translation.shape != (3,):
            raise ShapeMismatch(
                f"translation must have 3 entries, got {self.translation.shape}"
            )

    def matrix(self) -> np.ndarray:
        """Return the 3x4 [R | t] matrix."""
        return np.hstack([self.rotation, self.translation[:, None]])


@dataclass
class PointCloud:
    """Ordered point set with per-point intensity.

    Attributes:
        xyz: (N, 3) coordinates in meters.
        intensity: (N,) returns in [0, 1].
    """

    xyz: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ShapeMismatch(f"xyz must be (N, 3), got {self.xyz.shape}")
        if len(self.xyz) == 0:
            raise EmptyScan("point cloud has no points")
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        if self.intensity.shape != (len(self.xyz),):
            raise ShapeMismatch("intensity length does not match xyz")
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("non-finite coordinate in point cloud")
        if not (self.intensity.min() >= 0.0 and self.intensity.max() <= 1.0):
            raise ValueError("intensity outside [0, 1]")  # NaN fails too

    def __len__(self) -> int:
        return len(self.xyz)


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Return the transform applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def apply(t: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Transform every point, preserving order and intensity."""
    return PointCloud(apply_points(t, cloud.xyz), cloud.intensity.copy())


def apply_points(t: RigidTransform, xyz: np.ndarray) -> np.ndarray:
    out = np.asarray(xyz, dtype=np.float64) @ t.rotation.T
    out += t.translation
    return out


def orthonormalize(t: RigidTransform) -> RigidTransform:
    """Snap a drifted rotation back to SO(3) via polar decomposition.

    The polar factor U V^T is the nearest orthogonal matrix in the
    Frobenius sense; the determinant correction keeps it a proper rotation.
    """
    u, _, vt = np.linalg.svd(t.rotation)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return RigidTransform(r, t.translation.copy())


def rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation by angle (rad) about a unit axis."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise DegenerateInput("rotation axis has zero length")
    x, y, z = axis / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def yaw(angle: float) -> RigidTransform:
    """Pure rotation about +z by angle (rad)."""
    c, s = np.cos(angle), np.sin(angle)
    return RigidTransform(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                          np.zeros(3))


def rotation_angle_deg(r: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, in degrees.

    The trace argument is clamped so accumulated rounding near 0 and pi
    cannot push arccos out of domain.
    """
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
