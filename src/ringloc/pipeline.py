"""End-to-end localization and the synthetic benchmark loop.

One frame runs: ground rectification, cylindrical projection and
voxelization, per-voxel coordinate prediction (simulation oracle or the
trained regressor), reliability selection, robust pose search, and
finally compensation of the rectification, yielding the raw-sensor to
world motion.  One seam splits a frame: `predict_frame` gives one
correspondence per voxel, and `solve_frame` does the rest from there.

Every stage draws from a seed derived from (run seed, frame, stage), so
a whole benchmark is a pure function of its config and seed; a stage
takes both from its caller, and the one default the criteria pin is
`estimate_pose_ransac`'s params, which criterion 5 leaves out.  Stage
seeds are derived here alone, the CLI's too (`perturb_frame`,
`rectify_frame`).  A bench runs every condition on a frame before it casts
the next one.  Frames that fail (degenerate plane, no consensus,
emptied scan, a voxel grid with no cell) are recorded with their error
name and skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .encoder import encode_sites
from .errors import NoConsensus, RinglocError
from .io import Weights
from .metrics import TrajectoryResult
from .plane import rectify
from .pose_solve import PoseEstimate, compensate, estimate_pose_ransac, \
    select_reliable
from .projection import VoxelCloud, project_cylindrical, recover_cartesian, \
    voxelize
from .regressor import regress
from .se3 import PointCloud, RigidTransform, invert
from .simulate import Perturbation, Scan, SyntheticWorld, WorldSpec, \
    effective_truth, generate_world, loop_trajectory, oracle_predict, \
    perturb_scan, scan_seed, simulate_scans

# Stage tags for per-frame seed derivation.
SEED_SCAN = 0
SEED_PLANE = 1
SEED_ORACLE = 2
SEED_POSE = 3
SEED_PERTURB = 4

Prediction = Tuple[RigidTransform, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class LocalizationResult:
    transform: RigidTransform  # raw sensor frame -> world
    pose: PoseEstimate  # consensus in the rectified frame
    n_selected: int  # correspondences the pose search ran on


def world_spec_from(cfg: PipelineConfig) -> WorldSpec:
    return WorldSpec(n_boxes=cfg.world.n_boxes,
                     n_cylinders=cfg.world.n_cylinders,
                     keepout_radius=cfg.trajectory.radius)


def perturb_frame(scan: Scan, truth: RigidTransform,
                  perturbations: Sequence[Perturbation], frame_seed: int
                  ) -> Tuple[Scan, RigidTransform]:
    """A frame's scan and ground truth under each perturbation in turn,
    all drawing from one generator seeded by the frame's SEED_PERTURB."""
    rng = np.random.default_rng(scan_seed(frame_seed, SEED_PERTURB))
    for p in perturbations:
        scan, applied = perturb_scan(scan, p, rng)
        truth = effective_truth(truth, applied)
    return scan, truth


def rectify_frame(cloud: PointCloud, cfg: PipelineConfig, frame_seed: int
                  ) -> Tuple[PointCloud, RigidTransform]:
    """`rectify` under the frame's plane seed."""
    return rectify(cloud, replace(cfg.plane,
                                  seed=scan_seed(frame_seed, SEED_PLANE)))


def rectified_voxels(scan: Scan, cfg: PipelineConfig, frame_seed: int
                     ) -> Tuple[PointCloud, RigidTransform, VoxelCloud]:
    """Front end of one frame: level the scan, unroll it, voxelize it.

    Returns the rectified cloud, the raw-to-rectified transform, and
    the voxel grid built from the rectified cloud.
    """
    rect_cloud, t_plane = rectify_frame(scan.cloud, cfg, frame_seed)
    projected = project_cylindrical(rect_cloud, cfg.projection)
    return rect_cloud, t_plane, voxelize(projected, cfg.projection)


def predict_frame(scan: Scan, cfg: PipelineConfig, frame_seed: int,
                  predictor: str = "oracle",
                  encoder_weights: Optional[Weights] = None,
                  regressor_weights: Optional[Weights] = None) -> Prediction:
    """One scan's (t_plane, local, pred, u): one correspondence per voxel.

    The oracle predictor scores every source point from its simulated
    ground truth, and each voxel inherits its representative's
    prediction; the local side of a correspondence is the
    representative's exact rectified coordinate.  The regressor
    predictor regresses each distinct coarse encoder site once, hands
    every voxel its site's prediction, and pairs them with the voxel
    centers mapped back to Cartesian space, since the grid is all it
    sees.  A call passes "oracle" and no weights (the default, as the
    dense-scan workload runs it) or "regressor" and both weight sets.
    """
    rect_cloud, t_plane, voxels = rectified_voxels(scan, cfg, frame_seed)
    src = voxels.source_index

    if predictor == "oracle":
        coords, scores = oracle_predict(
            scan.gt_world, scan.classes, cfg.oracle,
            seed=scan_seed(frame_seed, SEED_ORACLE))
        local = rect_cloud.xyz.take(src, axis=0)
        pred = coords.take(src, axis=0)
        u = scores[src]
    else:
        site_feats, rows = encode_sites(voxels, encoder_weights)
        pred, u = regress(site_feats, regressor_weights)
        pred, u = pred[rows], u[rows]
        local = recover_cartesian(voxels, cfg.projection).xyz
    return t_plane, local, pred, u


def solve_frame(prediction: Prediction, cfg: PipelineConfig, frame_seed: int
                ) -> LocalizationResult:
    """Select, search the pose under the frame's SEED_POSE, compensate."""
    t_plane, local, pred, u = prediction
    if not (np.isfinite(pred).all() and np.isfinite(u).all()):
        k = np.count_nonzero(~np.isfinite(pred).all(axis=1) | ~np.isfinite(u))
        raise NoConsensus(f"{k} of {len(u)} predictions are not finite")
    selected = select_reliable(u, cfg.selection)
    estimate = estimate_pose_ransac(
        local.take(selected, axis=0), pred.take(selected, axis=0),
        replace(cfg.pose, seed=scan_seed(frame_seed, SEED_POSE)))
    transform = compensate(estimate.transform, invert(t_plane))
    return LocalizationResult(transform, estimate, len(selected))


def localize_scan(scan: Scan, cfg: PipelineConfig, frame_seed: int,
                  predictor: str = "oracle",
                  encoder_weights: Optional[Weights] = None,
                  regressor_weights: Optional[Weights] = None
                  ) -> LocalizationResult:
    """Localize one scan against the world."""
    return solve_frame(predict_frame(scan, cfg, frame_seed, predictor,
                                     encoder_weights, regressor_weights),
                       cfg, frame_seed)


@dataclass
class BenchRow:
    """One perturbation's trajectory outcome."""

    label: str
    result: TrajectoryResult
    failures: List[Tuple[int, str]]


def trajectory_scans(cfg: PipelineConfig, run_seed: int,
                     frames: Optional[Sequence[int]] = None
                     ) -> Tuple[SyntheticWorld, List[RigidTransform],
                                Iterator[Scan]]:
    """World, and the pose and unperturbed scan of each frame index in
    `frames` (default: the bench's, every frame), cast as they are read."""
    world = generate_world(world_spec_from(cfg), cfg.world.seed)
    poses = loop_trajectory(cfg.trajectory.n_poses, cfg.trajectory.radius,
                            cfg.trajectory.height)
    frames = range(len(poses)) if frames is None else frames
    poses = [poses[i] for i in frames]
    seeds = [scan_seed(scan_seed(run_seed, i), SEED_SCAN) for i in frames]
    return world, poses, simulate_scans(world, poses, cfg.sensor, seeds,
                                        frames)


def simulate_trajectory(cfg: PipelineConfig, run_seed: int,
                        frames: Optional[Sequence[int]] = None
                        ) -> Tuple[SyntheticWorld, List[RigidTransform],
                                   List[Scan]]:
    """`trajectory_scans` with every scan cast and held."""
    world, poses, scans = trajectory_scans(cfg, run_seed, frames)
    return world, poses, list(scans)


def run_conditions(cfg: PipelineConfig, run_seed: int,
                   poses: Sequence[RigidTransform], scans: Iterable[Scan],
                   conditions: Sequence[Optional[Perturbation]],
                   predictor: str = "oracle", encoder_weights=None,
                   regressor_weights=None) -> List[BenchRow]:
    """One row per condition (a perturbation, or None for baseline): each
    frame runs under every condition before the next scan is read.  Each
    label gives its magnitude exactly: repr's digits, less a trailing .0."""
    rows = [BenchRow("baseline" if p is None else
                     f"{p.kind}:{str(float(p.magnitude)).removesuffix('.0')}",
                     TrajectoryResult(), []) for p in conditions]
    for i, (scan, truth) in enumerate(zip(scans, poses)):
        frame_seed = scan_seed(run_seed, i)
        for p, row in zip(conditions, rows):
            try:
                seen, seen_truth = perturb_frame(
                    scan, truth, [] if p is None else [p], frame_seed)
                res = localize_scan(seen, cfg, frame_seed, predictor,
                                    encoder_weights, regressor_weights)
            except RinglocError as exc:
                row.failures.append((i, type(exc).__name__))
                continue
            row.result.add(i, res.transform, seen_truth)
    return rows


def run_perturbed_trajectory(cfg: PipelineConfig, run_seed: int,
                             poses: List[RigidTransform], scans: List[Scan],
                             perturbation: Optional[Perturbation]
                             ) -> BenchRow:
    """Localize every frame with the oracle under one perturbation (None
    for baseline), as criteria 1, 6 and 7 run it."""
    return run_conditions(cfg, run_seed, poses, scans, [perturbation])[0]
