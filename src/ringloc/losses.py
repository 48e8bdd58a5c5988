"""Training losses for the coordinate regressor.

The reliability-weighted loss turns each point's raw score u into a
softmax weight through a squashed, truncated calibration:

    u_scale = arctan(u) * K,   u_cut = arctan(clamp(u, +-10pi)) * K

with K = ln(10)/pi.  Numerator exponents take the elementwise max of the
two calibrations, denominator exponents the min.  Inside the clamp band
the two coincide and the weights form a plain softmax whose dynamic
range is capped: arctan spans (-pi/2, pi/2), so exponents span one
natural-log decade and no weight can exceed another by more than 10x.
Outside the band the branches split on purpose: the frozen branch pins
one side of the ratio while the live branch keeps growing, so the total
keeps increasing and the gradient never dies, which is what pushes
scores back toward the band.

Two baselines are included: the unweighted mean distance, and a
matching-style loss whose weights fall linearly with a sigma score.
Every loss is a function (pred, gt, u) -> LossBreakdown that computes
its value and its exact gradients in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import EmptyScan, ShapeMismatch

# ln(10)/pi: calibrated scores span one decade of softmax weight.
K_SCALE = math.log(10.0) / math.pi
CLAMP = 10.0 * math.pi
MATCHING_FLOOR = 0.01
SIGMA_MAX = 1.0  # matching weights reach the floor at this sigma


@dataclass
class LossBreakdown:
    """One loss evaluation over one cloud's predictions.

    Attributes:
        total: the loss value.
        weights: (n,) weight of each point's distance in the total; the
            TRR weights sum to 1 when all scores are in the clamp band.
        grad_pred: (n, 3) gradient of the total in the predictions.
        grad_u: (n,) gradient of the total in the scores.
        n_clamped: how many scores sat outside the clamp band (TRR only).
    """

    total: float
    weights: np.ndarray
    grad_pred: np.ndarray
    grad_u: np.ndarray
    n_clamped: int = 0


def _check(pred: np.ndarray, gt: np.ndarray, u: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate one loss's inputs; return (pred - gt, distances, u)."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[1] != 3 or gt.ndim != 2 or gt.shape[1] != 3:
        raise ShapeMismatch("pred and gt must both be (n, 3)")
    if len(gt) != len(pred) or u.shape != (len(pred),):
        raise ShapeMismatch("pred, gt and scores must have one row per point")
    if len(pred) == 0:
        raise EmptyScan("loss over zero points")
    diff = pred - gt
    return diff, np.linalg.norm(diff, axis=1), u


def distance_residuals(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-point Euclidean distance to the target coordinates."""
    return np.linalg.norm(np.asarray(pred, dtype=np.float64)
                          - np.asarray(gt, dtype=np.float64), axis=1)


def _weighted_grad_pred(weights: np.ndarray, raw: np.ndarray,
                        diff: np.ndarray) -> np.ndarray:
    """Gradient of weights @ raw in pred: each weight times the unit vector
    toward its prediction, zero for a point sitting on its target."""
    safe = np.where(raw > 0.0, raw, 1.0)
    return (weights / safe * (raw > 0.0))[:, None] * diff


def calibrate_scores(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return (u_scale, u_cut) for raw scores u."""
    u = np.asarray(u, dtype=np.float64)
    return (np.arctan(u) * K_SCALE,
            np.arctan(np.clip(u, -CLAMP, CLAMP)) * K_SCALE)


def _split_softmax(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(weights, denominator shares) of the split-branch softmax."""
    u_scale, u_cut = calibrate_scores(u)
    hi = np.maximum(u_scale, u_cut)
    lo = np.minimum(u_scale, u_cut)
    # Shifting both exponent sets by the same constant leaves the ratio
    # untouched; using the denominator max keeps every exponent <= 0.
    shift = lo.max()
    denom = np.exp(lo - shift).sum()
    return np.exp(hi - shift) / denom, np.exp(lo - shift) / denom


def reliability_weights(u: np.ndarray) -> np.ndarray:
    """Softmax-style weights with split numerator/denominator branches."""
    return _split_softmax(u)[0]


def reliability_loss(pred: np.ndarray, gt: np.ndarray, u: np.ndarray
                     ) -> LossBreakdown:
    """Weighted distance loss over one cloud's predictions.

    The score gradient splits into the numerator term (live max branch)
    and the shared-denominator term (live min branch); whichever branch
    is frozen by the clamp simply drops out.
    """
    diff, raw, u = _check(pred, gt, u)
    weights, denom_share = _split_softmax(u)
    total = weights @ raw
    datan = K_SCALE / (1.0 + u * u)
    d_hi = np.where(u < -CLAMP, 0.0, datan)
    d_lo = np.where(u > CLAMP, 0.0, datan)
    grad_u = weights * d_hi * raw - total * denom_share * d_lo
    return LossBreakdown(float(total), weights,
                         _weighted_grad_pred(weights, raw, diff), grad_u,
                         int(np.count_nonzero(np.abs(u) > CLAMP)))


def reliability_loss_gradients(pred: np.ndarray, gt: np.ndarray, u: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """(grad_pred, grad_u) of `reliability_loss`."""
    b = reliability_loss(pred, gt, u)
    return b.grad_pred, b.grad_u


def mean_distance_loss(pred: np.ndarray, gt: np.ndarray, u: np.ndarray
                       ) -> LossBreakdown:
    """Plain mean Euclidean distance; scores get a zero gradient."""
    diff, raw, u = _check(pred, gt, u)
    n = len(raw)
    safe = np.where(raw > 0.0, raw, 1.0)
    grad_pred = ((raw > 0.0) / (safe * n))[:, None] * diff
    return LossBreakdown(float(raw.mean()), np.full(n, 1.0 / n), grad_pred,
                         np.zeros_like(u))


def matching_loss(pred: np.ndarray, gt: np.ndarray, sigma: np.ndarray
                  ) -> LossBreakdown:
    """Distance loss with weights falling linearly with sigma, floored."""
    diff, raw, sigma = _check(pred, gt, sigma)
    pre = np.maximum(SIGMA_MAX - sigma, MATCHING_FLOOR)
    total_w = pre.sum()
    weights = pre / total_w
    total = weights @ raw
    # d pre / d sigma is -1 on the linear branch, 0 once the floor binds.
    live = (SIGMA_MAX - sigma) > MATCHING_FLOOR
    grad_sigma = np.where(live, -(raw - total) / total_w, 0.0)
    return LossBreakdown(float(total), weights,
                         _weighted_grad_pred(weights, raw, diff), grad_sigma)
