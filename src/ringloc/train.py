"""Toy training of the coordinate regressor on frozen encoder features.

The encoder stays fixed at its random initialization; only the
regressor trains, by full-batch gradient descent with a per-epoch
multiplicative step decay.  Scenes make the reliability signal
structural: the encoder's features ignore the ring coordinate, so
ground and pole points look the same from every azimuth while their
world targets disagree, and no regressor can fit them.  Building
points carry distinctive geometry and can be learned.  The
reliability-weighted loss should therefore learn to rank building
points above ground, which is what the quartile evaluation checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import PipelineConfig
from .encoder import encode
from .errors import EmptyScan
from .io import Weights
from . import losses
from .pipeline import rectified_voxels, simulate_trajectory
from .regressor import backward, forward, init_regressor_weights, regress
from .simulate import scan_seed

LOSSES = {"trr": losses.reliability_loss, "mean": losses.mean_distance_loss,
          "matching": losses.matching_loss}
LOSS_KINDS = tuple(LOSSES)
N_QUARTILES = 4  # reliability buckets the evaluation reports


@dataclass
class TrainingSet:
    """Per-voxel features and targets pooled over the training frames."""

    features: np.ndarray  # (P, N) frozen encoder outputs
    targets: np.ndarray  # (P, 3) world-frame ground truth
    classes: np.ndarray  # (P,) surface class per point
    scan_ids: np.ndarray  # (P,) originating frame

    def scan_slices(self) -> List[np.ndarray]:
        return [np.flatnonzero(self.scan_ids == s)
                for s in np.unique(self.scan_ids)]


@dataclass
class EpochStats:
    epoch: int
    loss: float  # mean per-frame loss
    lr: float  # step size used this epoch
    n_clamped: int  # points whose score left the clamp band


def build_training_set(cfg: PipelineConfig, encoder_weights: Weights,
                       run_seed: int) -> TrainingSet:
    """Simulate, rectify, voxelize, and encode the training frames.

    Uses every cfg.train.scan_stride-th frame of the standard loop and a
    seeded voxel subsample of each, with targets taken per representative
    point.  A set with fewer points than reliability quartiles raises
    EmptyScan here, before any training, since no quartile evaluation
    could rank it.
    """
    frames = range(0, cfg.trajectory.n_poses, cfg.train.scan_stride)
    _, _, scans = simulate_trajectory(cfg, run_seed, frames)
    rng = np.random.default_rng(cfg.train.seed)
    feats, targets, classes, scan_ids = [], [], [], []
    for i, scan in zip(frames, scans):
        _, _, voxels = rectified_voxels(scan, cfg, scan_seed(run_seed, i))
        f = encode(voxels, encoder_weights)
        src = voxels.source_index
        take = np.arange(len(voxels))
        if len(take) > cfg.train.points_per_scan:
            take = np.sort(rng.choice(len(take), cfg.train.points_per_scan,
                                      replace=False))
        feats.append(f[take])
        targets.append(scan.gt_world[src[take]])
        classes.append(scan.classes[src[take]])
        scan_ids.append(np.full(len(take), i, dtype=np.int64))
    n_points = sum(map(len, feats))
    if n_points < N_QUARTILES:
        raise EmptyScan(f"training set too small: {n_points} of the "
                        f"{N_QUARTILES} points its reliability quartiles "
                        f"need")
    return TrainingSet(np.vstack(feats), np.vstack(targets),
                       np.concatenate(classes), np.concatenate(scan_ids))


def train_regressor(tset: TrainingSet, cfg: PipelineConfig, loss_kind: str,
                    epochs: Optional[int] = None
                    ) -> Tuple[Weights, List[EpochStats]]:
    """Gradient descent over the pooled frames.

    Losses normalize their weights within a frame, so gradients are
    computed frame by frame and averaged: one regressor forward pass per
    frame, whose cache the loss's gradients flow back through.  The
    regressor takes the encoder's output_width; epochs=0 returns its
    seeded initialization untouched.  epochs defaults to cfg.train.epochs,
    as the CLI trains.
    """
    if loss_kind not in LOSSES:
        raise ValueError(f"loss kind must be one of {LOSS_KINDS}")
    loss_fn = LOSSES[loss_kind]
    epochs = cfg.train.epochs if epochs is None else epochs
    reg = replace(cfg.regressor, width=cfg.encoder.output_width)
    weights = init_regressor_weights(reg, seed=cfg.train.seed)
    slices = tset.scan_slices()
    telemetry: List[EpochStats] = []
    lr = cfg.train.lr
    for epoch in range(epochs):
        total = 0.0
        clamped = 0
        accum: Dict[str, np.ndarray] = {
            name: np.zeros_like(t) for name, t in weights.tensors.items()}
        for rows in slices:
            out, cache = forward(tset.features[rows], weights)
            loss = loss_fn(out[:, :3], tset.targets[rows], out[:, 3])
            grads, _ = backward(weights, cache, loss.grad_pred, loss.grad_u)
            for name, g in grads.items():
                accum[name] += g
            total += loss.total
            clamped += loss.n_clamped
        scale = lr / len(slices)
        for name in weights.tensors:
            weights.tensors[name] -= scale * accum[name]
        telemetry.append(EpochStats(epoch, total / len(slices), lr, clamped))
        lr *= cfg.train.decay
    return weights, telemetry


def quartile_errors(u: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Mean error per predicted-reliability quartile, most reliable first."""
    order = np.argsort(-np.asarray(u, dtype=np.float64), kind="stable")
    buckets = np.array_split(order, N_QUARTILES)
    return np.array([float(np.mean(errors[b])) for b in buckets])


def evaluate_quartiles(tset: TrainingSet, weights: Weights
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted scores, per-point errors, and the quartile means."""
    pred, u = regress(tset.features, weights)
    errors = losses.distance_residuals(pred, tset.targets)
    return u, errors, quartile_errors(u, errors)
