"""Cylindrical projection, voxel quantization, recovery."""

import math
import warnings

import numpy as np
import pytest

from ringloc.errors import EmptyGrid, OriginPoint
from ringloc.projection import (INDEX_BOUND, ProjectionConfig, VoxelCloud,
                                project_cylindrical, recover_cartesian,
                                voxelize)
from ringloc.se3 import PointCloud, apply, yaw

from helpers import cloud_of

CFG64 = ProjectionConfig(voxel_size=0.2, ring_cells=64)


def project(pts, cfg=CFG64):
    return project_cylindrical(cloud_of(np.asarray(pts, dtype=np.float64)),
                               cfg)


def test_scale_closes_the_ring():
    # One full turn of the cylinder is exactly ring_cells cells long.
    assert abs(2.0 * math.pi * CFG64.scale - 64 * 0.2) < 1e-12


def test_axis_directions():
    out = project([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)])
    s = CFG64.scale
    np.testing.assert_allclose(out.xyz[0], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.xyz[1], [s * math.pi / 2, 1.0, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(out.xyz[2], [s * math.pi, 1.0, 0.0],
                               atol=1e-12)


def test_diagonal_point_lands_on_closed_form():
    # s * pi/4 = ring_cells * delta / 8 = 1.6 for this grid.
    out = project([(1.0, 1.0, 0.5)])
    np.testing.assert_allclose(out.xyz[0],
                               [1.6, math.sqrt(2.0), 0.5], atol=1e-12)


def test_arc_range_covers_all_quadrants():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 3)) * [10.0, 10.0, 2.0]
    out = project(pts)
    assert out.xyz[:, 0].min() >= 0.0
    assert out.xyz[:, 0].max() < 2.0 * math.pi * CFG64.scale
    np.testing.assert_allclose(out.xyz[:, 1], np.hypot(pts[:, 0], pts[:, 1]))


def test_origin_point_rejected():
    with pytest.raises(OriginPoint):
        project([(0.0, 0.0, 3.0)])


def test_projection_preserves_order_and_intensity():
    c = PointCloud(np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 1.0]]),
                   np.array([0.25, 0.75]))
    out = project_cylindrical(c, CFG64)
    np.testing.assert_array_equal(out.intensity, [0.25, 0.75])


def test_voxelize_floor_arithmetic():
    v = voxelize(cloud_of(np.array([[0.05, 1.31, -0.39]])), CFG64)
    np.testing.assert_array_equal(v.indices, [[0, 6, -2]])


def test_voxelize_keeps_first_representative():
    pts = np.array([[0.05, 1.31, 0.0],
                    [0.06, 1.32, 0.0],   # same cell as the first
                    [0.45, 1.31, 0.0]])
    v = voxelize(PointCloud(pts, np.array([0.1, 0.2, 0.3])), CFG64)
    assert len(v) == 2
    np.testing.assert_array_equal(v.source_index, [0, 2])
    np.testing.assert_array_equal(v.intensity, [0.1, 0.3])
    np.testing.assert_array_equal(v.points[0], pts[0])


def test_voxelize_last_ring_cell():
    cfg = ProjectionConfig(voxel_size=0.2, ring_cells=1024)
    # 2 pi s = 204.8, so 204.79 sits in the final cell of the turn.
    v = voxelize(cloud_of(np.array([[204.79, 5.0, 0.0]])), cfg)
    assert v.indices[0, 0] == 1023


def test_voxelize_float_edge_wraps_to_zero():
    cfg = ProjectionConfig(voxel_size=0.2, ring_cells=1024)
    # An arc whose quotient reaches exactly ring_cells must wrap, not
    # produce an out-of-range cell.
    assert 204.8 / 0.2 == 1024.0
    v = voxelize(cloud_of(np.array([[204.8, 5.0, 0.0]])), cfg)
    assert v.indices[0, 0] == 0


def test_voxelize_drops_cells_past_the_index_bound():
    edge = INDEX_BOUND * 0.2  # first height whose cell is out of range
    pts = np.array([[0.05, 1.31, 0.0],
                    [0.05, 1e6, 0.0],          # radius 5e6 cells out
                    [0.05, 1.31, edge - 0.1],  # last cell in range
                    [0.05, 1.31, edge],
                    [0.05, 1.31, -edge],       # lowest cell in range
                    [0.05, 1.31, -edge - 0.1]])
    v = voxelize(cloud_of(pts), CFG64)
    np.testing.assert_array_equal(v.source_index, [0, 2, 4])
    np.testing.assert_array_equal(v.indices[:, 2],
                                  [0, INDEX_BOUND - 1, -INDEX_BOUND])


def test_voxelize_of_only_dropped_points_is_no_grid():
    pts = np.array([[0.05, 1.31, INDEX_BOUND * 0.2], [0.05, 1e6, 0.0]])
    with pytest.raises(EmptyGrid, match="voxel grid has no occupied cell"):
        voxelize(cloud_of(pts), CFG64)


@pytest.mark.parametrize("height, kept", [
    (INDEX_BOUND * 0.2 - 0.1, True), (INDEX_BOUND * 0.2, False),
    (-INDEX_BOUND * 0.2, True), (-INDEX_BOUND * 0.2 - 0.1, False)])
def test_voxelize_range_check_at_each_bound(height, kept):
    # One extreme cell beside an ordinary one: the single min/max check
    # must send exactly the out-of-range cells to the dropping path.
    pts = np.array([[0.05, 1.31, 0.0], [0.05, 1.31, height]])
    v = voxelize(cloud_of(pts), CFG64)
    np.testing.assert_array_equal(v.source_index, [0, 1] if kept else [0])


@pytest.mark.parametrize("far", [(1e300, 0.0, 0.0), (1.0, 0.0, -1e300),
                                 (-1e300, 1e300, 1e300), (1e308, 0.0, 1e308)])
def test_voxelize_ignores_a_point_far_out(far):
    # A cell of 5e300 fits no int64 (and 1e308 / 0.2 no float): the range
    # check runs on the floats, so the point is dropped before any cast,
    # without a warning, and the other points keep their cells.
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(1, 20, 80), rng.uniform(-20, 20, 80),
                           rng.uniform(-2, 8, 80)])
    base = voxelize(project(pts), CFG64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = voxelize(project(np.insert(pts, 7, far, axis=0)), CFG64)
    np.testing.assert_array_equal(v.indices, base.indices)
    np.testing.assert_array_equal(v.points, base.points)
    np.testing.assert_array_equal(
        v.source_index, base.source_index + (base.source_index >= 7))


def test_voxel_order_is_ascending_source_index():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0, 64 * 0.2, 200),
                           rng.uniform(1, 10, 200),
                           rng.uniform(-2, 2, 200)])
    v = voxelize(cloud_of(pts), CFG64)
    assert np.all(np.diff(v.source_index) > 0)


def voxelize_by_rows(projected, config):
    """voxelize with the row-wise np.unique(axis=0) dedupe it used before
    cells were packed into keys."""
    idx = np.floor(projected.xyz / config.voxel_size).astype(np.int64)
    idx[:, 0] %= config.ring_cells
    inside = np.flatnonzero(np.all((idx >= -INDEX_BOUND)
                                   & (idx < INDEX_BOUND), axis=1))
    _, first = np.unique(idx[inside], axis=0, return_index=True)
    first = inside[np.sort(first)]
    return idx[first], first


@pytest.mark.parametrize("seed", range(6))
def test_packed_key_voxelize_matches_row_unique(seed):
    # Few distinct cells (many repeats), negative heights and radii, and
    # some points past the index bound.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    cells = rng.integers(-6, 6, size=(n, 3))
    cells[:, 0] += 32
    pts = (cells + rng.uniform(0.0, 1.0, size=(n, 3))) * CFG64.voxel_size
    far = rng.random(n) < 0.05
    pts[far, 2] = rng.choice([-1.0, 1.0], far.sum()) * INDEX_BOUND * 0.3
    cloud = PointCloud(pts, rng.uniform(0, 1, n))
    v = voxelize(cloud, CFG64)
    want_idx, want_first = voxelize_by_rows(cloud, CFG64)
    assert len(want_first) < n  # repeats were present
    np.testing.assert_array_equal(v.indices, want_idx)
    np.testing.assert_array_equal(v.source_index, want_first)
    np.testing.assert_array_equal(v.points, pts[want_first])


@pytest.mark.parametrize("lo, hi, full_turn", [
    (0.0, 12.8, False), (0.0, 12.8, True), (-12.8, 0.0, False),
    (-12.8, 12.8, True), (12.8, 38.4, False)])
def test_ring_wrap_matches_always_modulo_reference(lo, hi, full_turn):
    # voxelize reduces the ring index only when some index is out of
    # range; the reference always does.  A full turn is arc 12.8 on CFG64.
    rng = np.random.default_rng(int(hi - lo))
    pts = np.column_stack([rng.uniform(lo, hi, 300), rng.uniform(1, 3, 300),
                           rng.uniform(-1, 1, 300)])
    if full_turn:
        pts[::50, 0] = CFG64.ring_cells * CFG64.voxel_size
    v = voxelize(cloud_of(pts), CFG64)
    want_idx, want_first = voxelize_by_rows(cloud_of(pts), CFG64)
    np.testing.assert_array_equal(v.indices, want_idx)
    np.testing.assert_array_equal(v.source_index, want_first)
    np.testing.assert_array_equal(v.points, pts[want_first])


def test_recover_zero_angle():
    v = VoxelCloud(np.array([[0, 9, 4]]), np.zeros((1, 3)), np.zeros(1),
                   np.zeros(1), ring_cells=64, voxel_size=0.2)
    out = recover_cartesian(v, CFG64)
    # Center of cell 0 is half a cell past angle zero.
    r, ang = 9.5 * 0.2, 0.5 * 0.2 / CFG64.scale
    np.testing.assert_allclose(out.xyz[0],
                               [r * math.cos(ang), r * math.sin(ang), 0.9],
                               atol=1e-12)


def test_recover_quarter_turn():
    # Cell 8 of a 32-cell ring starts at the quarter turn and is centered
    # half a cell past it, at angle (8.5/32) * 2 pi; cell 2 at voxel size
    # 0.8 is centered at radius 2.
    cfg = ProjectionConfig(voxel_size=0.8, ring_cells=32)
    v = VoxelCloud(np.array([[8, 2, 0]]), np.zeros((1, 3)), np.zeros(1),
                   np.zeros(1), ring_cells=32, voxel_size=0.8)
    out = recover_cartesian(v, cfg)
    ang = 8.5 / 32 * 2.0 * math.pi
    np.testing.assert_allclose(
        out.xyz[0], [2.0 * math.cos(ang), 2.0 * math.sin(ang), 0.4],
        atol=1e-9)


def test_recover_empty_rejected():
    # No grid without a cell is built, so recover_cartesian never gets one.
    with pytest.raises(EmptyGrid, match="voxel grid has no occupied cell"):
        VoxelCloud(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)),
                   np.zeros(0), np.zeros(0, dtype=np.int64),
                   ring_cells=16, voxel_size=0.2)


@pytest.mark.parametrize("ring", [0, 8, 24, 1000, -16])
def test_ring_off_the_encoder_grid_is_no_grid(ring):
    # The encoder halves the ring four times: a config and a voxel grid
    # both need a positive multiple of 16 cells.
    with pytest.raises(ValueError, match="ring_cells must be"):
        ProjectionConfig(ring_cells=ring)
    with pytest.raises(ValueError, match="ring_cells must be"):
        VoxelCloud(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0),
                   np.zeros(0), ring_cells=ring, voxel_size=0.2)


B = INDEX_BOUND


@pytest.mark.parametrize("cell, rule", [
    ((-1, 0, 0), "ring index"), ((64, 0, 0), "ring index"),
    ((0, -B - 1, 0), "voxel index"), ((0, B, 0), "voxel index"),
    ((0, 0, -B - 1), "voxel index"), ((0, 0, B), "voxel index"),
    ((63, -B, B - 1), None), ((0, B - 1, -B), None),
])
def test_voxel_cloud_holds_both_index_rules(cell, rule):
    # The ring index lies in [0, ring_cells) and the other two in
    # [-INDEX_BOUND, INDEX_BOUND), so every cell of a grid packs.
    cells = np.array([[5, 1, 0], cell])
    args = (np.zeros((2, 3)), np.zeros(2), np.arange(2), 64, 0.2)
    if rule is None:
        assert VoxelCloud(cells, *args).indices.tolist() == cells.tolist()
    else:
        with pytest.raises(ValueError, match=rule + " outside"):
            VoxelCloud(cells, *args)


def test_round_trip_respects_quantization_bound():
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-30, 30, (400, 2)),
                           rng.uniform(-2, 8, 400)])
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1.0]
    cloud = cloud_of(pts)
    cfg = ProjectionConfig(voxel_size=0.2, ring_cells=1024)
    proj = project_cylindrical(cloud, cfg)
    vox = voxelize(proj, cfg)
    rec = recover_cartesian(vox, cfg)
    reps = pts[vox.source_index]
    err = np.linalg.norm(rec.xyz - reps, axis=1)
    radius = proj.xyz[vox.source_index, 1]
    bound = math.sqrt(3.0) * cfg.voxel_size * np.maximum(
        1.0, radius / cfg.voxel_size)
    assert np.all(err <= bound)


def test_on_grid_shift_permutes_voxels():
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(-20, 20, (300, 2)),
                           rng.uniform(0, 5, 300)])
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1.0]
    cfg = ProjectionConfig(voxel_size=0.2, ring_cells=1024)
    base = voxelize(project_cylindrical(cloud_of(pts), cfg), cfg)
    for delta in (1, 16, 512, 1000):
        turned = apply(yaw(delta * 2.0 * math.pi / cfg.ring_cells),
                       cloud_of(pts))
        moved = voxelize(project_cylindrical(turned, cfg), cfg)
        assert len(moved) == len(base)
        np.testing.assert_array_equal(
            moved.indices[:, 0], (base.indices[:, 0] + delta) % 1024)
        np.testing.assert_array_equal(moved.indices[:, 1:], base.indices[:, 1:])
        np.testing.assert_allclose(moved.points[:, 1:], base.points[:, 1:],
                                   atol=1e-9)
        np.testing.assert_array_equal(moved.source_index, base.source_index)


def test_off_grid_rotation_matches_rotated_recovery():
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-25, 25, (600, 2)),
                           rng.uniform(0, 4, 600)])
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 2.0]
    cfg = ProjectionConfig(voxel_size=0.2, ring_cells=1024)
    t = yaw(0.3137)  # deliberately far from any grid multiple
    rec_base = recover_cartesian(
        voxelize(project_cylindrical(cloud_of(pts), cfg), cfg), cfg)
    rec_turned = recover_cartesian(
        voxelize(project_cylindrical(apply(t, cloud_of(pts)), cfg), cfg),
        cfg)
    want = apply(t, rec_base)
    d, _ = cKDTree(rec_turned.xyz).query(want.xyz)
    assert d.mean() <= 2.0 * cfg.voxel_size


def test_recovered_spacing_grows_with_radius():
    from scipy.spatial import cKDTree

    # One 256-ray sweep per radius: the sweep occupies every 4th ring
    # cell regardless of radius, so recovered spacing is radius times a
    # fixed angle and must scale linearly.
    angles = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    cfg = ProjectionConfig(voxel_size=0.2, ring_cells=1024)
    radii = [5.1, 15.1, 30.1]  # radial cell centers, so one row per ring
    means = []
    for k, r in enumerate(radii):
        pts = np.column_stack([r * np.cos(angles), r * np.sin(angles),
                               np.full(256, 10.0 * k)])
        rec = recover_cartesian(
            voxelize(project_cylindrical(cloud_of(pts), cfg), cfg), cfg)
        d, _ = cKDTree(rec.xyz).query(rec.xyz, k=2)
        means.append(d[:, 1].mean())
    assert means[0] < means[1] < means[2]
    assert means[2] / means[0] == pytest.approx(radii[2] / radii[0], rel=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(voxel_size=0.0)
    with pytest.raises(ValueError):
        ProjectionConfig(ring_cells=7)
    with pytest.raises(ValueError):
        ProjectionConfig(ring_cells=6)
