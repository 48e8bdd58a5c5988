"""Ground-plane fitting, the upward plane normal, and rectification."""

import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from ringloc import plane as plane_mod
from ringloc.errors import DegenerateInput
from ringloc.io import COORD_BOUND
from ringloc.plane import (PlaneModel, RansacPlaneParams,
                           _least_squares_plane, build_plane_transform,
                           fit_plane_ransac, rectify)
from ringloc.pose_solve import (CONFIDENCE, FIRST_BLOCK, SCORE_BLOCK,
                                distinct_samples)
from ringloc.se3 import apply, apply_points, rotation_about, rotation_angle_deg

from helpers import cloud_of, reference_stop, spy_consensus

STD = RansacPlaneParams()  # the standard ground-plane search, at seed 0


def flat_cloud(n=1000, z=0.0, seed=0, extent=20.0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-extent, extent, size=(n, 2))
    return np.column_stack([xy, np.full(n, z)])


def test_three_point_plane_exact():
    c = cloud_of(np.array([[0.0, 0.0, 0.0],
                           [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0]]))
    plane, inliers = fit_plane_ransac(c, RansacPlaneParams(min_inliers=3))
    np.testing.assert_array_equal(plane.normal, [0.0, 0.0, 1.0])
    assert plane.d == 0.0
    assert len(inliers) == 3


def test_plane_through_outliers():
    rng = np.random.default_rng(1)
    pts = np.vstack([flat_cloud(1000), rng.uniform(-20, 20, size=(100, 3))])
    plane, inliers = fit_plane_ransac(cloud_of(pts), STD)
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-3)
    assert abs(plane.d) < 1e-3
    assert len(inliers) >= 990


def test_offset_plane_signed_d():
    plane, _ = fit_plane_ransac(cloud_of(flat_cloud(500, z=0.5)), STD)
    assert abs(plane.d - (-0.5)) < 1e-3


def test_normal_is_canonically_oriented():
    # Fitting the same wall from either side must give one orientation.
    pts = flat_cloud(300, seed=2)[:, [2, 0, 1]]  # x = 0 plane
    plane, _ = fit_plane_ransac(cloud_of(pts), STD)
    np.testing.assert_allclose(plane.normal, [1.0, 0.0, 0.0], atol=1e-6)


@pytest.fixture
def rows(monkeypatch):
    """Hypotheses fit_plane_ransac's consensus search fits and scores, one
    entry per call."""
    return spy_consensus(monkeypatch, plane_mod)


def test_collinear_points_rejected(rows):
    # Every triple is degenerate, so w = 0: the search never stops early,
    # scores every sample, and raises without a warning.
    line = np.column_stack([np.linspace(0, 1, 60),
                            np.zeros(60), np.zeros(60)])
    params = RansacPlaneParams(min_inliers=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInput):
            fit_plane_ransac(cloud_of(line), params)
    # The first block, then the other 192 fitted in one call and scored
    # in six full blocks.
    assert params.iterations == 200
    assert rows["fitted"] == [FIRST_BLOCK, 192]
    assert rows["scored"] == [FIRST_BLOCK] + [SCORE_BLOCK] * 6


def test_planar_cloud_fits_one_block(rows):
    # w = 1, where the bound's log(1 - w^3) would be log(0).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plane, inliers = fit_plane_ransac(cloud_of(flat_cloud(1000, z=0.5)),
                                          STD)
    assert rows["fitted"] == rows["scored"] == [FIRST_BLOCK]
    np.testing.assert_array_equal(plane.normal, [0.0, 0.0, 1.0])
    assert plane.d == -0.5
    np.testing.assert_array_equal(inliers, np.arange(1000))


def test_scoring_memory_stays_within_a_few_blocks():
    # 27.5k points, a quarter of them ground: w stays near 0.25, where the
    # stop bound exceeds the 200-hypothesis cap, so every block is scored.
    # A (200, n) distance table would take 44 MB; one block takes 7 MB.
    n = 27_500
    ground = flat_cloud(n // 4, seed=15)
    clutter = np.random.default_rng(15).uniform(-20.0, 20.0,
                                                (n - len(ground), 3))
    cloud = cloud_of(np.vstack([ground, clutter]))
    params = STD
    bound = 2.5 * SCORE_BLOCK * n * 8  # bytes
    tracemalloc.start()
    try:
        plane, inliers = fit_plane_ransac(cloud, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w = len(inliers) / n
    assert (math.log(1.0 - CONFIDENCE) / math.log(1.0 - w ** 3)
            > params.iterations)
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-4)
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_too_few_inliers_rejected():
    with pytest.raises(DegenerateInput):
        fit_plane_ransac(cloud_of(flat_cloud(20)),
                         RansacPlaneParams(min_inliers=50))


def test_fit_is_deterministic_per_seed():
    c = cloud_of(np.vstack([
        flat_cloud(400, seed=3),
        np.random.default_rng(4).uniform(-20, 20, size=(80, 3)),
    ]))
    a, ia = fit_plane_ransac(c, RansacPlaneParams(seed=9))
    b, ib = fit_plane_ransac(c, RansacPlaneParams(seed=9))
    np.testing.assert_array_equal(a.normal, b.normal)
    assert a.d == b.d
    np.testing.assert_array_equal(ia, ib)


def reference_fit_plane(cloud, params):
    """fit_plane_ransac scoring every hypothesis in one (iterations, N)
    squared-distance table, then cut to the hypotheses the stop rule
    scores, with a per-candidate sum-of-squares tie-break loop; the refit's
    inliers are chosen by squared distance against threshold^2."""
    pts = cloud.xyz
    rng = np.random.default_rng(params.seed)
    triples = distinct_samples(rng, len(pts), params.iterations, 3)
    p0 = pts[triples[:, 0]]
    normals = np.cross(pts[triples[:, 1]] - p0, pts[triples[:, 2]] - p0)
    lengths = np.linalg.norm(normals, axis=1)
    valid = lengths > 1e-12
    normals[valid] /= lengths[valid, None]
    offsets = -np.einsum("ij,ij->i", normals, p0)
    d2 = (normals @ pts.T + offsets[:, None]) ** 2
    inlier_mask = d2 <= params.threshold ** 2
    counts = np.where(valid, inlier_mask.sum(axis=1), 0)
    counts = counts[:reference_stop(counts, len(pts))]
    if counts.max() < params.min_inliers:
        raise DegenerateInput("too few inliers")
    tied = np.flatnonzero(counts == counts.max())
    ss = [d2[c, inlier_mask[c]].sum() for c in tied]
    best = tied[int(np.argmin(ss))]  # argmin: earliest draw on equal sums
    plane = _least_squares_plane(pts[inlier_mask[best]])
    refit_d2 = (pts @ plane.normal + plane.d) ** 2
    inliers = np.flatnonzero(refit_d2 <= params.threshold ** 2)
    if len(inliers) < params.min_inliers:
        raise DegenerateInput("refit plane lost its consensus set")
    return plane, inliers


@pytest.mark.parametrize("iterations",
                         [1, FIRST_BLOCK - 1, FIRST_BLOCK, FIRST_BLOCK + 1,
                          SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 300])
def test_blocked_scoring_matches_reference(iterations):
    rng = np.random.default_rng(12)
    ground = flat_cloud(600, seed=12)
    ground[:, 2] += rng.normal(0.0, 0.05, len(ground))
    t = np.linspace(-5.0, 5.0, 400)
    line = np.column_stack([t, 0.5 * t, 2.0 + 0.1 * t])  # collinear triples
    clutter = rng.uniform(-20.0, 20.0, (200, 3))
    cloud = cloud_of(np.vstack([ground, line, clutter]))
    for seed in range(4):
        params = RansacPlaneParams(iterations=iterations, seed=seed,
                                   min_inliers=10)
        try:
            want_plane, want_inliers = reference_fit_plane(cloud, params)
        except DegenerateInput:
            with pytest.raises(DegenerateInput):
                fit_plane_ransac(cloud, params)
            continue
        plane, inliers = fit_plane_ransac(cloud, params)
        np.testing.assert_array_equal(plane.normal, want_plane.normal)
        assert plane.d == want_plane.d
        np.testing.assert_array_equal(inliers, want_inliers)
        assert inliers.dtype == want_inliers.dtype


def test_unit_normal_enforced():
    with pytest.raises(DegenerateInput):
        PlaneModel(np.array([0.0, 0.0, 2.0]), 0.0)


# The written-out cross product must match np.cross bit for bit.


def cross_pairs():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(3, 64, 3)) * 10.0
    t = rng.uniform(-2.0, 2.0, size=(64, 1))
    signed = np.array(list(product([-0.0, 0.0, 1.0, -2.5], repeat=3)))
    far = 1e12 + rng.uniform(-1.0, 1.0, size=(3, 64, 3))
    return {
        "random": (p[1] - p[0], p[2] - p[0]),
        "collinear": (p[1] - p[0], t * (p[1] - p[0])),
        "signed_zeros": (np.repeat(signed, len(signed), axis=0),
                         np.tile(signed, (len(signed), 1))),
        "at_1e12": (far[1] - far[0], far[2] - far[0]),
        "raw_1e12": (far[0], far[1]),
    }


@pytest.mark.parametrize("case", ["random", "collinear", "signed_zeros",
                                  "at_1e12", "raw_1e12"])
def test_cross_matches_numpy_bit_for_bit(case):
    u, v = cross_pairs()[case]
    got = plane_mod._cross(u, v)
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert got.tobytes() == np.cross(u, v).tobytes()
    # one vector at a time, as build_plane_transform calls it
    for a, b in zip(u, v):
        assert plane_mod._cross(a, b).tobytes() == np.cross(a, b).tobytes()
        assert (plane_mod._cross(a, plane_mod.EZ).tobytes()
                == np.cross(a, plane_mod.EZ).tobytes())


# (n, d) and (-n, -d) are one plane: PlaneModel keeps the upward normal.


def unit_normals():
    rng = np.random.default_rng(5)
    random = rng.normal(size=(50, 3))
    return {
        "axes": np.vstack([np.eye(3), -np.eye(3)]),
        "signed_zeros": np.array([[-0.0, -0.0, 1.0], [0.0, -0.0, -1.0],
                                  [-0.0, 1.0, -0.0], [-0.0, -1.0, 0.0],
                                  [1.0, -0.0, -0.0], [-1.0, 0.0, -0.0]]),
        "random": random / np.linalg.norm(random, axis=1, keepdims=True),
    }


@pytest.mark.parametrize("case", ["axes", "signed_zeros", "random"])
def test_plane_and_its_negation_are_one_plane(case):
    for n, d in zip(unit_normals()[case], (0.0, -0.0, 0.5, -2.0) * 13):
        p, q = PlaneModel(n, d), PlaneModel(-n, -d)
        assert p.normal.tobytes() == q.normal.tobytes()
        assert np.float64(p.d).tobytes() == np.float64(q.d).tobytes()
        a, b, c = p.normal
        assert c > 0.0 or (c == 0.0 and (b > 0.0 or (b == 0.0 and a > 0.0)))
        assert (build_plane_transform(p).matrix().tobytes()
                == build_plane_transform(q).matrix().tobytes())


def test_build_plane_transform_x_axis():
    r = build_plane_transform(PlaneModel(np.array([1.0, 0.0, 0.0]),
                                         0.0)).rotation
    np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                               atol=1e-12)
    # 90 degrees about -y, written out as a Rodrigues evaluation
    want = rotation_about(np.array([0.0, -1.0, 0.0]), math.pi / 2)
    np.testing.assert_allclose(r, want, atol=1e-12)


def test_align_normal_identity_and_antiparallel():
    # +z needs no turn; -z is the same plane as +z with d negated, so
    # PlaneModel turns it up and no half turn is ever built.
    up = build_plane_transform(PlaneModel(np.array([0.0, 0.0, 1.0]), -0.5))
    np.testing.assert_array_equal(up.rotation, np.eye(3))
    down = build_plane_transform(PlaneModel(np.array([0.0, 0.0, -1.0]), 0.5))
    np.testing.assert_array_equal(down.rotation, np.eye(3))
    assert down.matrix().tobytes() == up.matrix().tobytes()
    np.testing.assert_allclose(
        apply_points(down, np.array([[3.0, 4.0, 0.5]])), [[3.0, 4.0, 0.0]],
        atol=1e-12)


def test_build_plane_transform_random_unit_normals():
    for n in unit_normals()["random"]:
        plane = PlaneModel(n, 0.0)
        r = build_plane_transform(plane).rotation
        np.testing.assert_allclose(r @ plane.normal, [0.0, 0.0, 1.0],
                                   atol=1e-9)
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_build_plane_transform_ground_is_identity():
    t = build_plane_transform(PlaneModel(np.array([0.0, 0.0, 1.0]), 0.0))
    np.testing.assert_array_equal(t.rotation, np.eye(3))
    np.testing.assert_array_equal(t.translation, np.zeros(3))


def test_build_plane_transform_lifts_offset_plane():
    t = build_plane_transform(PlaneModel(np.array([0.0, 0.0, 1.0]), -0.5))
    np.testing.assert_allclose(apply_points(t, np.array([[3.0, 4.0, 0.5]])),
                               [[3.0, 4.0, 0.0]], atol=1e-9)


def test_build_plane_transform_vertical_plane():
    t = build_plane_transform(PlaneModel(np.array([1.0, 0.0, 0.0]), 0.0))
    out = apply_points(t, np.array([[0.0, 7.0, 2.0]]))
    assert abs(out[0, 2]) < 1e-9


def test_rectify_horizontal_scene_near_identity():
    cloud = cloud_of(np.vstack([
        flat_cloud(800, seed=6),
        np.array([[1.0, 2.0, 3.0], [4.0, -1.0, 2.0], [0.0, 5.0, 4.0]]),
    ]))
    rect, t_plane = rectify(cloud, STD)
    assert rotation_angle_deg(t_plane.rotation) < 0.1
    assert abs(rect.xyz[:800, 2]).max() < 1e-6


def test_rectify_tilted_scene():
    tilt = rotation_about(np.array([1.0, 0.0, 0.0]), math.radians(10.0))
    base = np.vstack([flat_cloud(800, seed=7),
                      np.random.default_rng(8).uniform(-5, 5, (100, 3)) +
                      np.array([0.0, 0.0, 6.0])])
    tilted = cloud_of(base @ tilt.T)
    rect, t_plane = rectify(tilted, STD)
    # Ground landed back on z = 0, so its normal is z to within 0.1 deg.
    plane, _ = fit_plane_ransac(rect, STD)
    angle = math.degrees(math.acos(np.clip(plane.normal @ [0, 0, 1], -1, 1)))
    assert angle < 0.1
    assert abs(plane.d) < 0.01


def test_rectify_applies_returned_transform():
    cloud = cloud_of(np.vstack([flat_cloud(500, seed=9),
                                np.array([[2.0, 2.0, 5.0]])]))
    rect, t_plane = rectify(cloud, STD)
    np.testing.assert_allclose(rect.xyz, apply(t_plane, cloud).xyz,
                               atol=1e-12)


B = COORD_BOUND


@pytest.mark.parametrize("far", [(B, 0.0, B), (3.0, -2.0, B), (-B, B, -B)])
def test_rectify_a_cloud_with_a_point_far_out(far):
    # A point off the ground at the bound every file row is read under:
    # each triple through it, and each plane's squared distance to it,
    # stays finite, so the fit rejects it without a warning, under a
    # budget that samples such triples.
    pts = np.vstack([flat_cloud(60, seed=10), [far]])
    params = RansacPlaneParams(iterations=400, min_inliers=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rect, _ = rectify(cloud_of(pts), params)
        plane, inliers = fit_plane_ransac(cloud_of(pts), params)
    np.testing.assert_array_equal(inliers, np.arange(60))
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-12)
    assert np.abs(rect.xyz[:60, 2]).max() < 1e-9
