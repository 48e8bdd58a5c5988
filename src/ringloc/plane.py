"""Ground-plane fitting and planar rectification.

A scan is rectified by rotating the dominant plane's normal onto +z and
shifting the plane itself to z = 0.  Rectification removes the sensor's
pitch, roll, and height above ground, leaving yaw as the only unknown
rotation for the later pose solve.  The plane search runs
`pose_solve.consensus`; one squared point-plane distance scores its
hypotheses and picks the least-squares refit's inliers.  A `PlaneModel`
holds the plane's rules: a unit normal, turned to face up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateInput
from .keys import Section, key
from .pose_solve import ITERATIONS_BOUND, consensus
from .se3 import PointCloud, RigidTransform, apply, rotation_about

EZ = np.array([0.0, 0.0, 1.0])


@dataclass
class PlaneModel:
    """Plane {p : normal . p + d = 0} with a unit normal.

    (n, d) and (-n, -d) are one plane; construction keeps the normal
    that faces up (positive z, else y, else x when earlier components
    vanish), so equal planes compare equal whatever the fitting path.
    """

    normal: np.ndarray  # (3,) unit vector
    d: float  # m, signed offset

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=np.float64)
        n = np.linalg.norm(self.normal)
        if not np.isfinite(n) or abs(n - 1.0) > 1e-9:
            raise DegenerateInput("plane normal must be unit length")
        a, b, c = self.normal
        if c < 0.0 or (c == 0.0 and (b < 0.0 or (b == 0.0 and a < 0.0))):
            self.normal, self.d = -self.normal, -self.d


@dataclass
class RansacPlaneParams(Section):
    iterations: int = key(200, "ground-plane RANSAC hypothesis cap", ge=1,
                          le=ITERATIONS_BOUND)
    threshold: float = key(0.1, "ground-plane inlier distance (m)",
                           gt=0.0, le=1e3)
    min_inliers: int = key(50, "minimum ground consensus size", ge=3)
    seed: int = 0  # not a config key: callers derive it from the run seed


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v over the last axis, by the products and differences np.cross
    forms, so the bits match (signed zeros too), without its moveaxis."""
    (u0, u1, u2), (v0, v1, v2) = u.T, v.T
    out = np.empty(u.shape)
    out.T[...] = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    return out


def fit_plane_ransac(cloud: PointCloud, params: RansacPlaneParams
                     ) -> Tuple[PlaneModel, np.ndarray]:
    """Fit the dominant plane by RANSAC with a least-squares refit.

    `pose_solve.consensus` searches planes through point triples, scored
    by squared point-plane distance; the plane is then refit by least
    squares on the winner's inliers, and the same squared distance
    against threshold^2 picks the refit's inliers.

    Returns:
        (plane, inlier_indices) with indices ascending into the cloud.

    Raises:
        DegenerateInput: the best consensus set (none when every sampled
            triple is collinear) is smaller than min_inliers.
    """
    pts = cloud.xyz
    if len(pts) < 3:
        raise DegenerateInput("plane fit needs at least 3 points")

    def fit(triples):  # unit normals and offsets; collinear ones invalid
        p = pts[triples]
        normals = _cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        lengths = np.linalg.norm(normals, axis=1)
        valid = lengths > 1e-12
        normals[valid] /= lengths[valid, None]
        return normals, -np.einsum("ij,ij->i", normals, p[:, 0]), valid

    def squared_distances(normals, offsets):  # one (K, n) table, in place
        r = normals @ pts.T
        r += offsets[:, None]
        r *= r
        return r

    count, best = consensus(len(pts), params, fit, squared_distances)
    if count < params.min_inliers:
        raise DegenerateInput(
            f"best plane has {count} inliers, need {params.min_inliers}")
    plane = _least_squares_plane(pts.take(best[1], axis=0))
    d2 = squared_distances(plane.normal[None], np.array([plane.d]))[0]
    inliers = np.flatnonzero(d2 <= params.threshold ** 2)
    if len(inliers) < params.min_inliers:
        raise DegenerateInput("refit plane lost its consensus set")
    return plane, inliers


def _least_squares_plane(pts: np.ndarray) -> PlaneModel:
    centroid = pts.mean(axis=0)
    _, svals, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    if svals[1] <= 1e-12 * max(svals[0], 1e-300):
        raise DegenerateInput("inlier set is collinear")
    return PlaneModel(vt[2], -vt[2] @ centroid)


def build_plane_transform(plane: PlaneModel) -> RigidTransform:
    """Rigid motion sending the plane to z = 0.

    The minimal rotation taking the normal onto +z turns by
    arccos(n . e_z) about n x e_z (the identity for n = e_z, the one
    parallel case of a normal that faces up).  Every plane point then
    sits at height n . p = -d, so translating by d along z lands it on 0.
    """
    n = plane.normal
    axis = _cross(n, EZ)
    s = np.linalg.norm(axis)
    c = float(np.clip(n @ EZ, -1.0, 1.0))
    rotation = (np.eye(3) if s < 1e-12
                else rotation_about(axis / s, np.arccos(c)))
    return RigidTransform(rotation, plane.d * EZ)


def rectify(cloud: PointCloud, params: RansacPlaneParams
            ) -> Tuple[PointCloud, RigidTransform]:
    """Fit the ground plane and move the cloud into the rectified frame.

    Returns the transformed cloud and the raw-to-rectified transform that
    produced it.
    """
    plane, _ = fit_plane_ransac(cloud, params)
    t_plane = build_plane_transform(plane)
    return apply(t_plane, cloud), t_plane
