"""Rigid-transform algebra and point-cloud container checks."""

import math

import numpy as np
import pytest

from ringloc.errors import EmptyScan
from ringloc.se3 import (PointCloud, RigidTransform, apply, apply_points,
                         compose, identity, invert, orthonormalize,
                         rotation_about, rotation_angle_deg, yaw)

from helpers import cloud_of


def cloud(*pts):
    return cloud_of(np.array(pts, dtype=np.float64))


def test_identity_roundtrip():
    c = cloud((1.0, 2.0, 3.0), (-4.0, 0.5, 0.0))
    out = apply(identity(), c)
    np.testing.assert_array_equal(out.xyz, c.xyz)


def test_compose_two_quarter_yaws():
    # Multiplying the two rotation matrices by hand gives the half turn.
    t = compose(yaw(math.pi / 2), yaw(math.pi / 2))
    np.testing.assert_allclose(t.rotation, yaw(math.pi).rotation, atol=1e-15)


def test_invert_identity():
    t = invert(identity())
    np.testing.assert_array_equal(t.rotation, np.eye(3))
    np.testing.assert_array_equal(t.translation, np.zeros(3))


def test_invert_translation():
    t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(invert(t).translation, [-1.0, -2.0, -3.0])


def test_invert_composes_to_identity():
    t = RigidTransform(yaw(math.pi / 2).rotation, np.array([1.0, 0.0, 0.0]))
    back = compose(t, invert(t))
    np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(back.translation, np.zeros(3), atol=1e-15)


def test_apply_translation():
    out = apply(RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0])),
                cloud((0.0, 0.0, 0.0)))
    np.testing.assert_allclose(out.xyz, [[0.0, 0.0, 1.0]])


def test_apply_quarter_yaw():
    out = apply(yaw(math.pi / 2), cloud((1.0, 0.0, 0.0)))
    np.testing.assert_allclose(out.xyz, [[0.0, 1.0, 0.0]], atol=1e-15)


def test_apply_preserves_order_and_intensity():
    c = PointCloud(np.random.default_rng(0).normal(size=(5, 3)),
                   np.linspace(0.0, 1.0, 5))
    out = apply(yaw(0.3), c)
    np.testing.assert_array_equal(out.intensity, c.intensity)
    np.testing.assert_allclose(np.linalg.norm(out.xyz, axis=1),
                               np.linalg.norm(c.xyz, axis=1), atol=1e-12)


def test_orthonormalize_snaps_drift():
    rng = np.random.default_rng(1)
    drifted = yaw(0.7).rotation + 1e-6 * rng.normal(size=(3, 3))
    t = orthonormalize(RigidTransform(drifted, np.zeros(3)))
    np.testing.assert_allclose(t.rotation.T @ t.rotation, np.eye(3),
                               atol=1e-12)
    assert abs(np.linalg.det(t.rotation) - 1.0) <= 1e-12
    np.testing.assert_allclose(t.rotation, yaw(0.7).rotation, atol=1e-5)


def test_orthonormalize_keeps_proper_rotation():
    flipped = np.diag([1.0, 1.0, -1.0])
    t = orthonormalize(RigidTransform(flipped, np.zeros(3)))
    assert np.linalg.det(t.rotation) > 0.0


def test_rotation_about_unit_axis_matches_yaw():
    r = rotation_about(np.array([0.0, 0.0, 1.0]), 0.4)
    np.testing.assert_allclose(r, yaw(0.4).rotation, atol=1e-15)


def test_rotation_angle_half_turn_is_exact():
    assert rotation_angle_deg(yaw(math.pi).rotation) == 180.0
    assert rotation_angle_deg(np.eye(3)) == 0.0


def test_rotation_angle_quarter_turn():
    assert abs(rotation_angle_deg(yaw(math.pi / 2).rotation) - 90.0) < 1e-9


def test_empty_cloud_rejected():
    with pytest.raises(EmptyScan):
        cloud_of(np.zeros((0, 3)))


def test_nonfinite_cloud_rejected():
    with pytest.raises(ValueError):
        cloud((0.0, 0.0, float("nan")))


def test_bad_intensity_rejected():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), np.array([1.5]))


def test_nan_intensity_rejected():
    with pytest.raises(ValueError, match="intensity outside"):
        PointCloud(np.zeros((2, 3)), np.array([0.5, np.nan]))


def test_pairwise_distances_invariant_under_apply():
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=5.0, size=(20, 3))
    t = RigidTransform(rotation_about(np.array([1.0, 2.0, 2.0]) / 3.0, 0.9),
                       rng.normal(size=3))
    moved = apply_points(t, pts)
    d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
    np.testing.assert_allclose(d1, d0, atol=1e-9)


def test_apply_points_matches_matrix_form():
    rng = np.random.default_rng(2)
    t = RigidTransform(yaw(1.1).rotation, rng.normal(size=3))
    pts = rng.normal(size=(7, 3))
    want = (t.matrix() @ np.hstack([pts, np.ones((7, 1))]).T).T[:, :3]
    np.testing.assert_allclose(apply_points(t, pts), want, atol=1e-12)
