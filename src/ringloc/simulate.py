"""Synthetic LiDAR scenes with analytic ray casting.

A world is a flat ground plane, a ring of box-shaped buildings, and a
scatter of thin vertical cylinders standing in for poles and trunks.
Buildings are geometrically distinctive (class 1, reliable); ground and
cylinders look alike from every azimuth (class 0, ambiguous).  Scans are
ray grids intersected analytically, with optional range noise, so every
point carries its exact ground-truth world hit alongside.  The caster
builds each sensor's ray grid once and casts a trajectory's poses in
blocks of whole poses, up to RAY_BLOCK rays, each yielded before the next
is cast; it reads the directions one axis column at a time and keeps each
ray's nearest hit over the objects in turn, never an objects x rays table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import EmptyScan, ShapeMismatch
from .keys import Section, check, key
from .se3 import PointCloud, RigidTransform, compose, invert, rotation_about, yaw

CLASS_AMBIGUOUS = 0
CLASS_RELIABLE = 1

# Each perturbation kind's magnitude, declared as a config key is; a bare
# kind means magnitude 0, the only one random_yaw takes.
MAGNITUDES = {
    "yaw": key(0.0, "rotation about the sensor's z axis (deg)"),
    "random_yaw": key(0.0, "none: the yaw is drawn from the seed",
                      ge=0.0, le=0.0),
    "fov_limit": key(0.0, "kept field of view (deg)", gt=0.0, le=360.0),
    "dropout": key(0.0, "per-point removal probability", ge=0.0, le=0.9),
    "gaussian_noise": key(0.0, "1-sigma point jitter (m)", ge=0.0, le=1e3),
    "pitch_roll": key(0.0, "pitch and roll bound (deg)", ge=0.0, le=15.0),
}


@dataclass
class Box:
    lo: np.ndarray  # (3,) m
    hi: np.ndarray  # (3,) m
    intensity: float


@dataclass
class Cylinder:
    center: np.ndarray  # (2,) m, axis position in the ground plane
    radius: float  # m
    height: float  # m, from the ground up
    intensity: float


# World layout in meters; (low, high) pairs are uniform draw bands.
EXTENT = 50.0  # ground half-extent
BOX_RING = (24.0, 42.0)  # box center radius
BOX_FOOTPRINT = (4.0, 10.0)  # box side
BOX_HEIGHT = (5.0, 14.0)
CYLINDER_BAND = (7.0, 45.0)  # cylinder axis radius
CYLINDER_RADIUS = (0.12, 0.3)
CYLINDER_HEIGHT = (2.0, 4.0)
KEEPOUT_MARGIN = 3.0  # cylinders keep this far from the trajectory ring
GROUND_INTENSITY = 0.3

# Rays cast at once: whole poses up to this many, so a trajectory's
# standard 64 x 16 poses go eight at a time; a wider pose goes alone.
RAY_BLOCK = 8192


@dataclass
class WorldSpec:
    """Object counts and the trajectory ring that cylinders keep clear of."""

    n_boxes: int
    n_cylinders: int
    keepout_radius: float  # m


@dataclass
class SyntheticWorld:
    boxes: List[Box]
    cylinders: List[Cylinder]


@dataclass
class SensorSpec(Section):
    n_azimuth: int = key(64, "rays per sweep row", ge=1, le=4096)
    n_elevation: int = key(16, "sweep rows", ge=1, le=128)
    elevation_min_deg: float = key(-25.0, "lowest ray elevation (deg)",
                                   ge=-90.0, le=90.0)
    elevation_max_deg: float = key(10.0, "highest ray elevation (deg)",
                                   ge=-90.0, le=90.0)
    max_range: float = key(80.0, "maximum returned range (m)",
                           gt=0.0, le=1e4)
    range_noise: float = key(0.02, "1-sigma range noise along the ray (m)",
                             ge=0.0, le=1e3)

    def __post_init__(self):
        super().__post_init__()
        if self.elevation_min_deg > self.elevation_max_deg:
            raise ValueError("elevation_min_deg must not exceed "
                             "elevation_max_deg")


@dataclass
class Scan:
    """One simulated sweep in the sensor frame.

    gt_world holds the noiseless world-frame hit of each point; rows of
    cloud, classes, and gt_world are the same points throughout.
    """

    cloud: PointCloud
    classes: np.ndarray  # (n,) int
    gt_world: np.ndarray  # (n, 3) m


@dataclass
class Perturbation:
    """A named corruption; MAGNITUDES declares each kind's magnitude."""

    kind: str
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in MAGNITUDES:
            raise ValueError(f"unknown perturbation kind '{self.kind}'")
        if not np.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")
        check(MAGNITUDES[self.kind], f"{self.kind} magnitude", self.magnitude)


@lru_cache(maxsize=8192)
def scan_seed(global_seed: int, scan_index: int) -> int:
    """Stable per-scan seed derived from the run seed and frame index.

    Memoized.  `trajectory_scans` derives every frame's frame seed and
    scan seed before the walk; the walk asks for each frame seed again,
    and each condition for the frame's four other stage seeds: the
    standard bench's 3,100 requests of 600 keys.  A walk per condition
    (`run_perturbed_trajectory`) asks for them all again, so the memo
    holds six seeds a frame at the n_poses bound (6,000 keys); a smaller
    LRU memo misses on nearly every lookup of such a walk.
    """
    return int(np.random.SeedSequence([global_seed, scan_index])
               .generate_state(1)[0])


def generate_world(spec: WorldSpec, seed: int) -> SyntheticWorld:
    """Draw a world layout deterministically from the seed."""
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(spec.n_boxes):
        radius = rng.uniform(*BOX_RING)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        center = np.array([radius * np.cos(angle), radius * np.sin(angle)])
        half = rng.uniform(*BOX_FOOTPRINT, size=2) / 2.0
        height = rng.uniform(*BOX_HEIGHT)
        lo = np.array([center[0] - half[0], center[1] - half[1], 0.0])
        hi = np.array([center[0] + half[0], center[1] + half[1], height])
        boxes.append(Box(lo, hi, float(rng.uniform(0.5, 0.9))))
    cylinders = []
    while len(cylinders) < spec.n_cylinders:
        pos = rng.uniform(-CYLINDER_BAND[1], CYLINDER_BAND[1], size=2)
        r = np.linalg.norm(pos)
        if not CYLINDER_BAND[0] <= r <= CYLINDER_BAND[1]:
            continue
        if abs(r - spec.keepout_radius) < KEEPOUT_MARGIN:
            continue
        cylinders.append(Cylinder(pos, float(rng.uniform(*CYLINDER_RADIUS)),
                                  float(rng.uniform(*CYLINDER_HEIGHT)),
                                  float(rng.uniform(0.1, 0.25))))
    return SyntheticWorld(boxes, cylinders)


def loop_trajectory(n_poses: int, radius: float, height: float
                    ) -> List[RigidTransform]:
    """Sensor poses on a closed loop, tangent-facing with gentle wobble."""
    poses = []
    for i in range(n_poses):
        phi = 2.0 * np.pi * i / n_poses
        pos = np.array([radius * np.cos(phi), radius * np.sin(phi),
                        height + 0.2 * np.sin(3.0 * phi)])
        heading = yaw(phi + np.pi / 2.0 + 0.25 * np.sin(2.0 * phi))
        poses.append(RigidTransform(heading.rotation, pos))
    return poses


def _ray_directions(sensor: SensorSpec) -> np.ndarray:
    """The sensor's unit ray grid, azimuth-major, read-only and built once
    per grid geometry."""
    return _ray_grid(sensor.n_azimuth, sensor.n_elevation,
                     sensor.elevation_min_deg, sensor.elevation_max_deg)


@lru_cache(maxsize=8)
def _ray_grid(n_azimuth: int, n_elevation: int, elevation_min_deg: float,
              elevation_max_deg: float) -> np.ndarray:
    az = np.linspace(0.0, 2.0 * np.pi, n_azimuth, endpoint=False)
    el = np.deg2rad(np.linspace(elevation_min_deg, elevation_max_deg,
                                n_elevation))
    azg, elg = np.meshgrid(az, el, indexing="ij")
    dirs = np.column_stack([
        (np.cos(elg) * np.cos(azg)).ravel(),
        (np.cos(elg) * np.sin(azg)).ravel(),
        np.sin(elg).ravel(),
    ])
    dirs.flags.writeable = False
    return dirs


def _intersect_ground(origin, dx, dy, dz) -> np.ndarray:
    # A level ray has t = +-inf, and t * 0 = NaN along a world axis: no hit.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = -origin[2] / dz
        ok = (dz < 0.0) & (t > 0.0) & (np.abs(origin[0] + t * dx) <= EXTENT) \
            & (np.abs(origin[1] + t * dy) <= EXTENT)
    return np.where(ok, t, np.inf)


def _intersect_box(box: Box, origin, columns) -> np.ndarray:
    """Slab test (Kay & Kajiya 1986), one direction column per axis; fmax
    and fmin fold the axes and skip NaN, the 0/0 of a ray in a face plane,
    so the other axes decide (Williams et al., JGT 2005)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t0 = [(lo - o) / d for lo, o, d in zip(box.lo, origin, columns)]
        t1 = [(hi - o) / d for hi, o, d in zip(box.hi, origin, columns)]
    near = reduce(np.fmax, map(np.minimum, t0, t1))
    far = reduce(np.fmin, map(np.maximum, t0, t1))
    ok = (near <= far) & (near > 0.0)
    return np.where(ok, near, np.inf)


def _intersect_cylinder(cyl: Cylinder, origins, two_dxy, dz, a
                        ) -> np.ndarray:
    # a = dx^2 + dy^2 and 2 (dx, dy) are the same for every cylinder.  b is
    # one BLAS gemv per pose and c one dot per pose, as for a lone pose;
    # the hits are indexed in flat (pose, ray) order.
    rel = origins[:, :2] - cyl.center
    b = np.matmul(two_dxy, rel[:, :, None]).reshape(a.shape)
    c = np.matmul(rel[:, None], rel[:, :, None]).ravel() - cyl.radius ** 2
    disc = b * b - 4.0 * a * c[:, None]
    t = np.full(a.size, np.inf)
    rays = np.flatnonzero((disc >= 0.0) & (a > 0.0))
    b, sq, den = b.take(rays), np.sqrt(disc.take(rays)), 2.0 * a.take(rays)
    z0, dz = origins[:, 2].take(rays // a.shape[1]), dz.take(rays)
    for root in ((-b - sq) / den, (-b + sq) / den):
        z = z0 + root * dz
        ok = (root > 0.0) & (z >= 0.0) & (z <= cyl.height)
        t[rays[ok]] = np.minimum(t[rays[ok]], root[ok])
    return t.reshape(a.shape)


def _cast_block(world: SyntheticWorld, poses: Sequence[RigidTransform],
                dirs_s: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Each ray's nearest hit time and object index from each pose.

    Returns (t_hit, winner, dirs_w), the first two (poses, rays) with
    winner 0 for the ground, 1.. for boxes then cylinders, and inf where
    a ray hits nothing; dirs_w holds the world directions.
    """
    origins = np.stack([p.translation for p in poses])
    dirs_w = dirs_s @ np.stack([p.rotation for p in poses]).transpose(0, 2, 1)
    columns = np.ascontiguousarray(np.moveaxis(dirs_w, 2, 0))
    dx, dy, dz = columns
    a = dx ** 2 + dy ** 2
    two_dxy = 2.0 * dirs_w[..., :2]
    origin = origins.T[:, :, None]  # per axis, one value per pose

    t_hit = _intersect_ground(origin, dx, dy, dz)
    winner = np.zeros(t_hit.shape, dtype=np.int64)
    for k, obj in enumerate(world.boxes + world.cylinders, start=1):
        t = (_intersect_box(obj, origin, columns) if isinstance(obj, Box)
             else _intersect_cylinder(obj, origins, two_dxy, dz, a))
        nearer = t < t_hit
        np.copyto(t_hit, t, where=nearer)
        np.copyto(winner, k, where=nearer)
    return t_hit, winner, dirs_w


def simulate_scans(world: SyntheticWorld, poses: Sequence[RigidTransform],
                   sensor: SensorSpec, seeds: Sequence[int],
                   frames: Optional[Sequence[int]] = None) -> Iterator[Scan]:
    """Cast the sensor's ray grid from each pose and yield its hits.

    Points are range-limited, carry the surface's class and intensity,
    and are jittered along the ray by the sensor's range noise, drawn
    from `seeds[i]` for pose i.  Ray order (azimuth-major) is preserved
    for the surviving rays.  Each ray keeps its nearest hit over the
    ground, every box and every cylinder in turn; a later object takes
    it only when strictly nearer.  Poses are cast in blocks of whole
    poses up to RAY_BLOCK rays, a block when its first scan is read; each
    scan is bit for bit the one its pose gives cast alone.

    Raises:
        EmptyScan: a pose has no hit within sensor.max_range; the message
            names it by `frames` (default: its position in `poses`).
    """
    frames = range(len(poses)) if frames is None else frames
    dirs_s = _ray_directions(sensor)
    class_of = np.repeat(np.array([CLASS_AMBIGUOUS, CLASS_RELIABLE,
                                   CLASS_AMBIGUOUS], dtype=np.int64),
                         [1, len(world.boxes), len(world.cylinders)])
    intensity_of = np.array([GROUND_INTENSITY] + [
        o.intensity for o in world.boxes + world.cylinders])
    per_block = max(1, RAY_BLOCK // len(dirs_s))
    for first in range(0, len(poses), per_block):
        block = poses[first:first + per_block]
        t_hits, winners, dirs_w = _cast_block(world, block, dirs_s)
        for k, pose in enumerate(block):
            i = first + k
            rows = np.flatnonzero(np.isfinite(t_hits[k])
                                  & (t_hits[k] <= sensor.max_range))
            if len(rows) == 0:
                raise EmptyScan(f"frame {frames[i]}: no ray hit anything "
                                f"within sensor.max_range = "
                                f"{sensor.max_range:g} m")
            winner = winners[k].take(rows)
            t_hit = t_hits[k].take(rows)
            rng = np.random.default_rng(seeds[i])
            noise = rng.normal(0.0, sensor.range_noise, len(t_hit))
            xyz_s = dirs_s.take(rows, axis=0) * (t_hit + noise)[:, None]
            gt_world = pose.translation \
                + dirs_w[k].take(rows, axis=0) * t_hit[:, None]
            yield Scan(PointCloud(xyz_s, intensity_of[winner]),
                       class_of[winner], gt_world)


def simulate_scan(world: SyntheticWorld, pose: RigidTransform,
                  sensor: SensorSpec, seed: int) -> Scan:
    """One pose's scan: `simulate_scans` of that pose alone."""
    return next(simulate_scans(world, [pose], sensor, [seed]))


def perturb_scan(scan: Scan, p: Perturbation,
                 seed: Union[int, np.random.Generator]
                 ) -> Tuple[Scan, RigidTransform]:
    """Perturb a scan, keeping classes and ground truth row-aligned.

    Rotation kinds rotate the cloud, subset kinds drop rows, and
    gaussian_noise jitters every point.  Each kind draws only from
    `np.random.default_rng(seed)`, so a perturbation is reproducible from
    (p, seed); `pipeline.perturb_frame` stacks several on one Generator.

    Returns the new scan and the applied rotation (identity for the
    kinds that do not rotate); a pose that explains the perturbed cloud
    is the original pose composed with the inverse of that rotation.
    """
    rng = np.random.default_rng(seed)
    xyz = scan.cloud.xyz
    kept = np.arange(len(xyz))
    rotation = np.eye(3)
    if p.kind == "yaw":
        rotation = yaw(np.deg2rad(p.magnitude)).rotation
    elif p.kind == "random_yaw":
        rotation = yaw(rng.uniform(0.0, 2.0 * np.pi)).rotation
    elif p.kind == "pitch_roll":
        m = np.deg2rad(p.magnitude)
        roll = rotation_about(np.array([1.0, 0.0, 0.0]), rng.uniform(-m, m))
        pitch = rotation_about(np.array([0.0, 1.0, 0.0]), rng.uniform(-m, m))
        rotation = pitch @ roll
    elif p.kind == "fov_limit":
        az = np.arctan2(xyz[:, 1], xyz[:, 0])
        kept = np.flatnonzero(np.abs(az) <= np.deg2rad(p.magnitude) / 2.0)
    elif p.kind == "dropout":
        kept = np.flatnonzero(rng.random(len(xyz)) >= p.magnitude)
    elif p.kind == "gaussian_noise":
        xyz = xyz + rng.normal(0.0, p.magnitude, xyz.shape)
    if len(kept) == 0:
        raise EmptyScan("perturbation removed every point")
    cloud = PointCloud(xyz.take(kept, axis=0) @ rotation.T,
                       scan.cloud.intensity[kept])
    return (Scan(cloud, scan.classes[kept], scan.gt_world.take(kept, axis=0)),
            RigidTransform(rotation, np.zeros(3)))


def effective_truth(pose: RigidTransform, applied: RigidTransform
                    ) -> RigidTransform:
    """Ground-truth pose for a cloud rotated in the sensor frame."""
    return compose(pose, invert(applied))


@dataclass
class OracleSpec(Section):
    """Stand-in predictor statistics.

    Reliable points get near-exact coordinates and high scores;
    ambiguous points get coordinates scattered uniformly in a cube of
    side outlier_box around the truth and low scores.
    """

    sigma_reliable: float = key(0.05, "oracle jitter on reliable points (m)",
                                ge=0.0, le=1e3)
    outlier_box: float = key(40.0, "oracle scatter cube side (m)",
                             ge=0.0, le=1e3)
    u_reliable: Tuple[float, float] = key(
        (2.0, 10.0), "oracle score range, reliable points: low,high",
        ge=-1e3, le=1e3)
    u_ambiguous: Tuple[float, float] = key(
        (-10.0, -2.0), "oracle score range, ambiguous points: low,high",
        ge=-1e3, le=1e3)

    def __post_init__(self):
        super().__post_init__()
        for name in ("u_reliable", "u_ambiguous"):
            lo_hi = getattr(self, name)
            if len(lo_hi) != 2 or lo_hi[0] > lo_hi[1]:
                raise ValueError(f"{name} must be two values, low <= high")


def oracle_predict(gt_world: np.ndarray, classes: np.ndarray,
                   oracle: OracleSpec, seed: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted (coords, u) per point, drawn from the class statistics.

    All random draws happen for every point regardless of class, so a
    point's prediction depends only on its row and the seed, not on the
    class mix around it.
    """
    gt_world = np.asarray(gt_world, dtype=np.float64)
    classes = np.asarray(classes)
    if len(gt_world) != len(classes):
        raise ShapeMismatch("classes must align with ground-truth points")
    rng = np.random.default_rng(seed)
    n = len(gt_world)
    jitter = rng.normal(0.0, oracle.sigma_reliable, (n, 3))
    scatter = rng.uniform(-oracle.outlier_box / 2.0, oracle.outlier_box / 2.0,
                          (n, 3))
    u_rel = rng.uniform(*oracle.u_reliable, n)
    u_amb = rng.uniform(*oracle.u_ambiguous, n)
    reliable = classes == CLASS_RELIABLE
    np.copyto(scatter, jitter, where=reliable[:, None])  # each row's noise
    scatter += gt_world
    return scatter, np.where(reliable, u_rel, u_amb)
