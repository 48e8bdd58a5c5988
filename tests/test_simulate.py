"""Synthetic world, ray casting, perturbations, and the oracle predictor."""
import dataclasses
import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from ringloc.config import TrajectoryConfig
from ringloc.errors import EmptyScan, ShapeMismatch
from ringloc.pipeline import (SEED_ORACLE, SEED_PERTURB, SEED_PLANE, SEED_POSE,
                              SEED_SCAN, perturb_frame, simulate_trajectory)
from ringloc.se3 import (PointCloud, RigidTransform, apply_points, compose,
                         identity)
from ringloc.simulate import (BOX_HEIGHT, BOX_RING, CLASS_AMBIGUOUS,
                              CLASS_RELIABLE, CYLINDER_BAND, EXTENT,
                              GROUND_INTENSITY, KEEPOUT_MARGIN,
                              MAGNITUDES, RAY_BLOCK, Box, OracleSpec,
                              Perturbation, Scan, SensorSpec, SyntheticWorld,
                              WorldSpec, _ray_directions, effective_truth,
                              generate_world, loop_trajectory, oracle_predict,
                              perturb_scan, scan_seed, simulate_scan,
                              simulate_scans)

# The values the stages' dropped defaults gave, which these tests keep.
SPEC = WorldSpec(12, 14, 15.0)
BARE = WorldSpec(0, 0, 15.0)
LOOP = loop_trajectory(100, 15.0, 1.5)
SENSOR = SensorSpec()
ORACLE = OracleSpec()


# ------------------------------------------------------------------- world


def test_world_is_seed_stable():
    a = generate_world(SPEC, seed=7)
    b = generate_world(SPEC, seed=7)
    assert len(a.boxes) == len(b.boxes) == 12
    assert len(a.cylinders) == len(b.cylinders) == 14
    for ba, bb in zip(a.boxes, b.boxes):
        assert np.array_equal(ba.lo, bb.lo) and np.array_equal(ba.hi, bb.hi)
        assert ba.intensity == bb.intensity
    for ca, cb in zip(a.cylinders, b.cylinders):
        assert np.array_equal(ca.center, cb.center)
        assert (ca.radius, ca.height, ca.intensity) == \
            (cb.radius, cb.height, cb.intensity)


def test_world_layout_respects_spec_bands():
    spec = SPEC
    world = generate_world(spec, seed=3)
    for box in world.boxes:
        center = (box.lo[:2] + box.hi[:2]) / 2.0
        assert BOX_RING[0] <= np.linalg.norm(center) <= BOX_RING[1]
        assert box.lo[2] == 0.0
        assert BOX_HEIGHT[0] <= box.hi[2] <= BOX_HEIGHT[1]
    for cyl in world.cylinders:
        r = np.linalg.norm(cyl.center)
        assert CYLINDER_BAND[0] <= r <= CYLINDER_BAND[1]
        assert abs(r - spec.keepout_radius) >= KEEPOUT_MARGIN


def test_trajectory_rides_the_loop():
    poses = loop_trajectory(n_poses=25, radius=15.0, height=1.5)
    assert len(poses) == 25
    for t in poses:
        assert np.linalg.norm(t.translation[:2]) == pytest.approx(15.0)
        assert abs(t.translation[2] - 1.5) <= 0.2 + 1e-12
        assert np.allclose(t.rotation @ t.rotation.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0)


# ---------------------------------------------------------------- scanning


def nadir_sensor():
    return SensorSpec(n_azimuth=1, n_elevation=1, elevation_min_deg=-90.0,
                      elevation_max_deg=-90.0, range_noise=0.0)


def test_single_downward_ray_measures_height():
    world = generate_world(BARE, seed=0)
    pose = RigidTransform(np.eye(3), np.array([3.0, -2.0, 1.0]))
    scan = simulate_scan(world, pose, nadir_sensor(), 0)
    assert len(scan.cloud) == 1
    assert np.linalg.norm(scan.cloud.xyz[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(scan.gt_world[0], [3.0, -2.0, 0.0], atol=1e-12)
    assert scan.classes[0] == CLASS_AMBIGUOUS
    assert scan.cloud.intensity[0] == GROUND_INTENSITY


def test_noiseless_scan_matches_truth_under_pose():
    world = generate_world(SPEC, seed=1)
    pose = LOOP[13]
    sensor = SensorSpec(range_noise=0.0)
    scan = simulate_scan(world, pose, sensor, seed=5)
    assert np.allclose(apply_points(pose, scan.cloud.xyz), scan.gt_world,
                       atol=1e-9)


def test_scan_is_seed_stable():
    world = generate_world(SPEC, seed=1)
    pose = LOOP[0]
    a = simulate_scan(world, pose, SENSOR, seed=9)
    b = simulate_scan(world, pose, SENSOR, seed=9)
    assert np.array_equal(a.cloud.xyz, b.cloud.xyz)
    assert np.array_equal(a.classes, b.classes)
    assert np.array_equal(a.gt_world, b.gt_world)
    c = simulate_scan(world, pose, SENSOR, seed=10)
    assert not np.array_equal(a.cloud.xyz, c.cloud.xyz)


def test_scan_sees_both_classes():
    world = generate_world(SPEC, seed=1)
    scan = simulate_scan(world, LOOP[0], SENSOR, 0)
    assert np.any(scan.classes == CLASS_RELIABLE)
    assert np.any(scan.classes == CLASS_AMBIGUOUS)
    assert set(np.unique(scan.classes)) <= {CLASS_AMBIGUOUS, CLASS_RELIABLE}


def test_empty_world_yields_only_ground():
    world = generate_world(BARE, seed=0)
    scan = simulate_scan(world, LOOP[0], SENSOR, 0)
    assert np.all(scan.classes == CLASS_AMBIGUOUS)
    assert np.allclose(scan.gt_world[:, 2], 0.0, atol=0.1)


def test_upward_rays_over_bare_ground_hit_nothing():
    world = generate_world(BARE, seed=0)
    sensor = SensorSpec(n_elevation=4, elevation_min_deg=5.0,
                        elevation_max_deg=10.0)
    with pytest.raises(EmptyScan):
        simulate_scan(world, LOOP[0], sensor, 0)


def test_range_gate_drops_far_hits():
    world = generate_world(BARE, seed=0)
    pose = LOOP[0]
    ungated = simulate_scan(world, pose, SensorSpec(range_noise=0.0), 0)
    assert np.linalg.norm(ungated.cloud.xyz, axis=1).max() > 30.0
    sensor = SensorSpec(range_noise=0.0, max_range=30.0)
    scan = simulate_scan(world, pose, sensor, 0)
    assert np.all(np.linalg.norm(scan.cloud.xyz, axis=1) <= 30.0 + 1e-9)


# A reference caster: each object's hit time over the (n, 3) direction
# rows, stacked into one objects x rays table, the nearest picked by
# argmin (the first object on a tie).  simulate_scan must match it bit
# for bit.


def reference_ground(origin, dirs):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -origin[2] / dirs[:, 2]
        hit_xy = origin[:2] + t[:, None] * dirs[:, :2]
    ok = (dirs[:, 2] < 0.0) & (t > 0.0) & \
        (np.abs(hit_xy) <= EXTENT).all(axis=1)
    return np.where(ok, t, np.inf)


def reference_box(box, origin, dirs):
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (box.lo - origin) / dirs
        t1 = (box.hi - origin) / dirs
    near = np.nanmax(np.minimum(t0, t1), axis=1)
    far = np.nanmin(np.maximum(t0, t1), axis=1)
    ok = (near <= far) & (near > 0.0)
    return np.where(ok, near, np.inf)


def reference_cylinder(cyl, origin, dirs):
    rel = origin[:2] - cyl.center
    a = (dirs[:, :2] ** 2).sum(axis=1)
    b = 2.0 * dirs[:, :2] @ rel
    c = rel @ rel - cyl.radius ** 2
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
        roots = np.stack([(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)])
        z = origin[2] + roots * dirs[:, 2]
    ok = (disc >= 0.0) & (a > 0.0) & (roots > 0.0) & \
        (z >= 0.0) & (z <= cyl.height)
    return np.where(ok, roots, np.inf).min(axis=0)


def reference_scan(world, pose, sensor, seed):
    dirs_s = _ray_directions(sensor)
    dirs_w = dirs_s @ pose.rotation.T
    origin = pose.translation
    t_stack = np.vstack(
        [reference_ground(origin, dirs_w)]
        + [reference_box(b, origin, dirs_w) for b in world.boxes]
        + [reference_cylinder(c, origin, dirs_w) for c in world.cylinders])
    class_of = np.repeat([CLASS_AMBIGUOUS, CLASS_RELIABLE, CLASS_AMBIGUOUS],
                         [1, len(world.boxes), len(world.cylinders)])
    intensity_of = np.array([GROUND_INTENSITY] + [
        o.intensity for o in world.boxes + world.cylinders])
    winner = np.argmin(t_stack, axis=0)
    t_hit = t_stack[winner, np.arange(t_stack.shape[1])]
    keep = np.isfinite(t_hit) & (t_hit <= sensor.max_range)
    winner, t_hit = winner[keep], t_hit[keep]
    noise = np.random.default_rng(seed).normal(0.0, sensor.range_noise,
                                               len(t_hit))
    return (dirs_s[keep] * (t_hit + noise)[:, None], intensity_of[winner],
            class_of[winner], origin + dirs_w[keep] * t_hit[:, None])


def assert_scan_matches_reference(world, pose, sensor, seed=0):
    scan = simulate_scan(world, pose, sensor, seed)
    want = reference_scan(world, pose, sensor, seed)
    got = (scan.cloud.xyz, scan.cloud.intensity, scan.classes, scan.gt_world)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    return scan


@pytest.mark.parametrize("world_seed", [0, 7])
@pytest.mark.parametrize("sensor", [
    SensorSpec(),
    SensorSpec(n_azimuth=90, n_elevation=19, elevation_min_deg=-90.0,
               elevation_max_deg=90.0),
], ids=["standard", "pole_to_pole"])
def test_scan_matches_reference_caster(world_seed, sensor):
    # The pole-to-pole grid casts straight up and down (a = dx^2 + dy^2
    # is about 1e-33 there) and level rays (dz = 0 exactly).
    world = generate_world(SPEC, seed=world_seed)
    for i in range(0, 100, 9):
        assert_scan_matches_reference(world, LOOP[i], sensor, i)


def test_dense_scan_matches_reference_caster():
    sensor = SensorSpec(n_azimuth=1024, n_elevation=32)
    world = generate_world(SPEC, seed=3)
    for i in (0, 50):
        assert_scan_matches_reference(world, LOOP[i], sensor, i)


def test_coincident_boxes_go_to_the_earlier_one():
    lo, hi = np.array([8.0, -3.0, 0.0]), np.array([12.0, 3.0, 6.0])
    world = SyntheticWorld([Box(lo, hi, 0.5), Box(lo.copy(), hi.copy(), 0.8)],
                           [])
    pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.5]))
    scan = assert_scan_matches_reference(world, pose, SensorSpec(), 1)
    on_box = scan.classes == CLASS_RELIABLE
    assert on_box.any()
    assert np.all(scan.cloud.intensity[on_box] == 0.5)


def test_level_ray_at_a_box_top_grazes_it():
    # A level ray from the height of a box top has 0/0 = NaN as its z
    # slab time; the x and y slabs alone then decide, and it hits.
    box = Box(np.array([10.0, -2.0, 0.0]), np.array([14.0, 2.0, 5.0]), 0.7)
    pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 5.0]))
    sensor = SensorSpec(n_azimuth=8, n_elevation=2, elevation_min_deg=-10.0,
                        elevation_max_deg=0.0, range_noise=0.0)
    scan = assert_scan_matches_reference(SyntheticWorld([box], []), pose,
                                         sensor)
    level = scan.gt_world[:, 2] == 5.0
    np.testing.assert_array_equal(scan.gt_world[level], [[10.0, 0.0, 5.0]])
    assert scan.classes[level] == CLASS_RELIABLE


# A trajectory is cast in blocks of whole poses; every scan must be bit
# for bit the scan its pose gives cast alone.


def assert_same_scan(got, want):
    for g, w in ((got.cloud.xyz, want.cloud.xyz),
                 (got.cloud.intensity, want.cloud.intensity),
                 (got.classes, want.classes), (got.gt_world, want.gt_world)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def assert_batch_matches_lone(world, poses, sensor, seeds):
    scans = list(simulate_scans(world, poses, sensor, seeds))
    assert len(scans) == len(poses)
    for scan, pose, seed in zip(scans, poses, seeds):
        assert_same_scan(scan, simulate_scan(world, pose, sensor, seed))


def test_trajectory_matches_lone_casts(std_cfg, sim):
    world, poses, scans = sim
    assert len(scans) == 100
    for i, (pose, scan) in enumerate(zip(poses, scans)):
        seed = scan_seed(scan_seed(0, i), SEED_SCAN)
        assert_same_scan(scan, simulate_scan(world, pose, std_cfg.sensor,
                                             seed))
    frames = [8, 0, 99]
    _, got_poses, got = simulate_trajectory(std_cfg, 0, frames)
    for i, pose, scan in zip(frames, got_poses, got):
        seed = scan_seed(scan_seed(0, i), SEED_SCAN)
        assert_same_scan(scan, simulate_scan(world, pose, std_cfg.sensor,
                                             seed))


def test_partial_last_block_matches_lone_casts():
    sensor = SensorSpec()
    per_block = RAY_BLOCK // (sensor.n_azimuth * sensor.n_elevation)
    n = 2 * per_block + 3
    assert per_block > 1
    assert_batch_matches_lone(generate_world(SPEC, seed=5), LOOP[:n],
                              sensor, list(range(n)))


def test_dense_poses_cast_alone_match():
    # 1024 x 32 rays outnumber a block, so each pose is its own block.
    sensor = SensorSpec(n_azimuth=1024, n_elevation=32)
    assert sensor.n_azimuth * sensor.n_elevation > RAY_BLOCK
    assert_batch_matches_lone(generate_world(SPEC, seed=3),
                              [LOOP[0], LOOP[50]], sensor, [0, 50])


def test_pole_to_pole_batch_matches_lone_casts_without_warnings():
    # Level rays divide by zero in the ground and slab tests; the casts
    # must keep that inside their errstate.
    sensor = SensorSpec(n_azimuth=90, n_elevation=19, elevation_min_deg=-90.0,
                        elevation_max_deg=90.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_batch_matches_lone(generate_world(SPEC, seed=7),
                                  LOOP[::9], sensor,
                                  list(range(12)))


def test_empty_pose_names_its_frame_and_the_limit():
    world = generate_world(SPEC, seed=0)
    sensor = SensorSpec(max_range=0.5)
    poses = LOOP[:3]
    with pytest.raises(EmptyScan, match=r"^frame 7: .*max_range = 0\.5 m$"):
        list(simulate_scans(world, poses, sensor, [0, 1, 2], frames=[7, 8, 9]))


def test_batched_cast_memory_stays_bounded():
    # The block, not the pose count, sets the working set over the scans
    # kept: 1.5 MB at 8,192 rays here, where 65,536-ray blocks took 8.7 MB.
    world = generate_world(SPEC, seed=0)
    tracemalloc.start()
    try:
        scans = list(simulate_scans(world, LOOP[:64], SensorSpec(),
                                    list(range(64))))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scans) == 64 and peak - kept <= 3e6


def test_scan_memory_stays_bounded():
    # One 1024 x 32 scan: no objects x rays table.  The stacked caster
    # peaked at 16 MB here.
    world = generate_world(SPEC, seed=0)
    pose = LOOP[3]
    sensor = SensorSpec(n_azimuth=1024, n_elevation=32)
    tracemalloc.start()
    try:
        simulate_scan(world, pose, sensor, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


# ----------------------------------------------------------- perturbations


def test_perturbation_validation():
    for bad in [("wobble", 1.0), ("dropout", 2.0), ("dropout", -0.1),
                ("pitch_roll", 20.0), ("gaussian_noise", -1.0),
                ("gaussian_noise", 1000.5), ("fov_limit", 0.0),
                ("fov_limit", 400.0)]:
        with pytest.raises(ValueError):
            Perturbation(*bad)
    Perturbation("yaw", 180.0)
    Perturbation("dropout", 0.9)
    Perturbation("fov_limit", 360.0)
    Perturbation("gaussian_noise", 1000.0)


@pytest.mark.parametrize("kind", MAGNITUDES)
def test_non_finite_magnitude_rejected(kind):
    for magnitude in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Perturbation(kind, magnitude)


def scan_of(xyz, intensity):
    return Scan(PointCloud(xyz, intensity),
                np.zeros(len(xyz), dtype=np.int64), xyz.copy())


def sample_scan(seed=0, n=500):
    rng = np.random.default_rng(seed)
    return scan_of(rng.uniform(-20.0, 20.0, (n, 3)), rng.uniform(0.0, 1.0, n))


def perturbed_cloud(scan, p, seed=0):
    out, _ = perturb_scan(scan, p, seed=seed)
    return out.cloud


def applied_rotation(p, seed=0):
    return perturb_scan(sample_scan(n=10), p, seed=seed)[1]


def test_zero_dropout_is_identity():
    scan = sample_scan()
    cloud = scan.cloud
    out = perturbed_cloud(scan, Perturbation("dropout", 0.0), seed=3)
    assert np.array_equal(out.xyz, cloud.xyz)
    assert np.array_equal(out.intensity, cloud.intensity)


def test_dropout_removes_about_the_stated_share():
    out = perturbed_cloud(sample_scan(n=10000), Perturbation("dropout", 0.5),
                          seed=1)
    assert 4700 <= len(out) <= 5300


def test_yaw_half_turn_preserves_geometry():
    scan = sample_scan(n=100)
    cloud = scan.cloud
    out = perturbed_cloud(scan, Perturbation("yaw", 180.0))
    assert len(out) == len(cloud)
    d0 = np.linalg.norm(cloud.xyz[:, None] - cloud.xyz[None, :], axis=2)
    d1 = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=2)
    assert np.allclose(d0, d1, atol=1e-9)
    assert np.allclose(out.xyz[:, 2], cloud.xyz[:, 2], atol=1e-12)
    assert np.allclose(out.xyz[:, :2], -cloud.xyz[:, :2], atol=1e-9)


def test_random_yaw_rotation_comes_from_seed():
    p = Perturbation("random_yaw")
    t1 = applied_rotation(p, seed=4)
    t2 = applied_rotation(p, seed=4)
    t3 = applied_rotation(p, seed=5)
    assert np.array_equal(t1.rotation, t2.rotation)
    assert not np.array_equal(t1.rotation, t3.rotation)
    assert np.allclose(t1.rotation[2], [0.0, 0.0, 1.0], atol=1e-12)


def test_gaussian_noise_magnitude():
    # mean offset norm of isotropic 3d noise is sigma * sqrt(8 / pi)
    scan = sample_scan(n=100000)
    cloud = scan.cloud
    out = perturbed_cloud(scan, Perturbation("gaussian_noise", 0.05), seed=2)
    mean_norm = np.linalg.norm(out.xyz - cloud.xyz, axis=1).mean()
    want = 0.05 * math.sqrt(8.0 / math.pi)
    assert abs(mean_norm - want) <= 0.05 * want


def test_fov_limit_keeps_the_front_wedge():
    scan = sample_scan(n=2000)
    cloud = scan.cloud
    out = perturbed_cloud(scan, Perturbation("fov_limit", 90.0))
    az = np.degrees(np.arctan2(out.xyz[:, 1], out.xyz[:, 0]))
    assert np.all(np.abs(az) <= 45.0 + 1e-9)
    assert 0 < len(out) < len(cloud)


def test_fov_limit_can_empty_a_cloud():
    behind = scan_of(np.array([[-5.0, 0.0, 0.0], [-3.0, 0.1, 1.0]]),
                     np.array([0.5, 0.5]))
    with pytest.raises(EmptyScan):
        perturb_scan(behind, Perturbation("fov_limit", 10.0), 0)


def test_perturb_scan_keeps_rows_aligned():
    world = generate_world(SPEC, seed=1)
    scan = simulate_scan(world, LOOP[0], SENSOR, 0)
    out, applied = perturb_scan(scan, Perturbation("dropout", 0.4), seed=6)
    assert np.array_equal(applied.rotation, np.eye(3))
    kept = [int(np.flatnonzero(
        np.all(np.isclose(scan.cloud.xyz, row, atol=1e-12), axis=1))[0])
        for row in out.cloud.xyz[:20]]
    assert np.array_equal(out.classes[:20], scan.classes[kept])
    assert np.allclose(out.gt_world[:20], scan.gt_world[kept], atol=1e-12)


def test_effective_truth_explains_rotated_cloud():
    world = generate_world(SPEC, seed=1)
    pose = LOOP[7]
    scan = simulate_scan(world, pose, SensorSpec(range_noise=0.0), 0)
    for kind, mag in [("yaw", 180.0), ("pitch_roll", 10.0), ("random_yaw", 0.0)]:
        out, applied = perturb_scan(scan, Perturbation(kind, mag), seed=8)
        truth = effective_truth(pose, applied)
        assert np.allclose(apply_points(truth, out.cloud.xyz), out.gt_world,
                           atol=1e-9)


def test_effective_truth_with_identity_is_the_pose():
    pose = LOOP[3]
    truth = effective_truth(pose, identity())
    assert np.array_equal(truth.rotation, pose.rotation)
    assert np.array_equal(truth.translation, pose.translation)
    # and composing back recovers the pose
    p = Perturbation("yaw", 90.0)
    applied = applied_rotation(p)
    again = compose(effective_truth(pose, applied), applied)
    assert np.allclose(again.rotation, pose.rotation, atol=1e-12)
    assert np.allclose(again.translation, pose.translation, atol=1e-12)


def test_stacked_perturbations_fold_their_truth():
    # yaw:30 then yaw:60 is yaw:90, for the cloud and for the truth that
    # explains it; no perturbation leaves both as they were.
    world = generate_world(SPEC, seed=1)
    pose = LOOP[7]
    scan = simulate_scan(world, pose, SensorSpec(range_noise=0.0), 0)
    twice = perturb_frame(scan, pose, [Perturbation("yaw", 30.0),
                                       Perturbation("yaw", 60.0)], 4)
    once = perturb_frame(scan, pose, [Perturbation("yaw", 90.0)], 4)
    assert np.allclose(twice[0].cloud.xyz, once[0].cloud.xyz, atol=1e-12)
    for a, b in [(twice[1].rotation, once[1].rotation),
                 (twice[1].translation, once[1].translation)]:
        assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(apply_points(twice[1], twice[0].cloud.xyz),
                       scan.gt_world, atol=1e-9)
    same_scan, same_truth = perturb_frame(scan, pose, [], 4)
    assert same_scan is scan and same_truth is pose


def test_pitch_roll_tilt_stays_within_the_bound():
    # magnitude bounds each axis draw, so the combined tilt is under 2x it
    from ringloc.se3 import rotation_angle_deg
    angles = [rotation_angle_deg(applied_rotation(
        Perturbation("pitch_roll", 10.0), seed=s).rotation) for s in range(20)]
    assert all(0.0 < a <= 20.0 for a in angles)
    assert max(angles) > 5.0  # the band is actually used
    assert len(set(angles)) == 20


# ------------------------------------------------------------------ oracle


def test_oracle_exact_when_noise_free_and_reliable():
    rng = np.random.default_rng(0)
    gt = rng.uniform(-30.0, 30.0, (200, 3))
    classes = np.full(200, CLASS_RELIABLE)
    coords, u = oracle_predict(gt, classes, OracleSpec(sigma_reliable=0.0),
                               seed=1)
    assert np.array_equal(coords, gt)
    assert np.all((u >= 2.0) & (u <= 10.0))


def test_oracle_class_statistics():
    rng = np.random.default_rng(1)
    gt = rng.uniform(-30.0, 30.0, (1000, 3))
    classes = (np.arange(1000) % 2 == 0).astype(np.int64)
    coords, u = oracle_predict(gt, classes, ORACLE, seed=2)
    rel = classes == CLASS_RELIABLE
    assert np.all(np.abs(coords[rel] - gt[rel]) <= 0.05 * 6.0)
    assert np.all(np.abs(coords[~rel] - gt[~rel]) <= 20.0)
    assert np.max(np.abs(coords[~rel] - gt[~rel])) > 1.0  # actually scattered
    assert np.all((u[rel] >= 2.0) & (u[rel] <= 10.0))
    assert np.all((u[~rel] >= -10.0) & (u[~rel] <= -2.0))


def test_oracle_rows_are_independent_of_class_mix():
    rng = np.random.default_rng(2)
    gt = rng.uniform(-10.0, 10.0, (50, 3))
    classes = np.zeros(50, dtype=np.int64)
    flipped = classes.copy()
    flipped[17] = CLASS_RELIABLE
    ca, ua = oracle_predict(gt, classes, ORACLE, seed=3)
    cb, ub = oracle_predict(gt, flipped, ORACLE, seed=3)
    mask = np.arange(50) != 17
    assert np.array_equal(ca[mask], cb[mask])
    assert np.array_equal(ua[mask], ub[mask])
    assert not np.array_equal(ca[17], cb[17])


def test_oracle_is_seed_stable():
    rng = np.random.default_rng(3)
    gt = rng.uniform(-10.0, 10.0, (64, 3))
    classes = rng.integers(0, 2, 64)
    a = oracle_predict(gt, classes, ORACLE, seed=4)
    b = oracle_predict(gt, classes, ORACLE, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = oracle_predict(gt, classes, ORACLE, seed=5)
    assert not np.array_equal(a[0], c[0])


def test_oracle_matches_the_where_form():
    scan = simulate_scan(generate_world(SPEC, seed=2), LOOP[40], SENSOR, 0)
    gt, classes, oracle = scan.gt_world, scan.classes, ORACLE
    coords, u = oracle_predict(gt, classes, oracle, seed=6)
    rng = np.random.default_rng(6)
    n = len(gt)
    jitter = rng.normal(0.0, oracle.sigma_reliable, (n, 3))
    scatter = rng.uniform(-oracle.outlier_box / 2.0, oracle.outlier_box / 2.0,
                          (n, 3))
    u_rel = rng.uniform(*oracle.u_reliable, n)
    u_amb = rng.uniform(*oracle.u_ambiguous, n)
    reliable = (classes == CLASS_RELIABLE)[:, None]
    assert coords.tobytes() == np.where(reliable, gt + jitter,
                                        gt + scatter).tobytes()
    assert u.tobytes() == np.where(reliable[:, 0], u_rel, u_amb).tobytes()


def test_oracle_rejects_misaligned_classes():
    with pytest.raises(ShapeMismatch):
        oracle_predict(np.zeros((4, 3)), np.zeros(5, dtype=np.int64),
                       ORACLE, 0)


# ------------------------------------------------------------------- seeds


def test_scan_seed_is_stable_and_spread():
    assert scan_seed(0, 0) == scan_seed(0, 0)
    want = int(np.random.SeedSequence([3, 11]).generate_state(1)[0])
    assert scan_seed(3, 11) == want
    seeds = {scan_seed(0, i) for i in range(100)} | \
        {scan_seed(1, i) for i in range(100)}
    assert len(seeds) == 200


def test_scan_seed_memo_holds_a_bench_working_set():
    # trajectory_scans derives every frame's frame seed and scan seed
    # before the walk, and in it each condition asks again for the frame's
    # four other stage seeds (test_cli.py counts the standard bench's
    # 3,100 requests of 600 keys).  A walk per condition
    # (run_perturbed_trajectory, as the criteria call it) asks for every
    # frame's seeds again; an LRU memo smaller than the six seeds of every
    # frame misses on nearly every lookup of such a walk.
    n_poses = {f.name: f for f in dataclasses.fields(TrajectoryConfig)}[
        "n_poses"]
    stages = (SEED_SCAN, SEED_PLANE, SEED_ORACLE, SEED_POSE, SEED_PERTURB)
    assert (scan_seed.cache_info().maxsize
            >= (1 + len(stages)) * n_poses.metadata["high"])


@pytest.mark.parametrize("numpy_first", [False, True])
def test_scan_seed_matches_seed_sequence_for_any_int_type(numpy_first):
    # The cache treats equal Python and numpy ints as one key, so either
    # may fill it; both must give the SeedSequence value.
    values = [0, 1, 2**32, 2**63]
    scan_seed.cache_clear()
    for a, b in product(values, values):
        want = int(np.random.SeedSequence([a, b]).generate_state(1)[0])
        as_numpy = (np.uint64(a), np.uint64(b))
        for args in ((as_numpy, (a, b)) if numpy_first
                     else ((a, b), as_numpy)):
            got = scan_seed(*args)
            assert type(got) is int and got == want
    assert scan_seed(np.int64(2**32), np.int32(7)) == int(
        np.random.SeedSequence([2**32, 7]).generate_state(1)[0])
