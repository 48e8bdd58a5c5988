"""Reliability filtering, point-set alignment, and robust pose search.

The solver consumes per-point correspondences (local coordinates in the
rectified scan frame, predicted world coordinates) plus reliability
scores.  A fixed fraction of the most reliable points is kept, RANSAC
over pre-drawn minimal samples finds a consensus rigid motion, and the
final motion is compensated for the rectification applied earlier.

`consensus`, the one RANSAC loop, serves this pose search and the
ground-plane fit in `plane.py`: it scores a first block of FIRST_BLOCK
hypotheses, then blocks of at most SCORE_BLOCK, holding one block x n
table.  One stop bound, that of Fischler & Bolles (CACM 1981) under its
cap, ends every block and the search.
`_fit_minimal`, the one Kabsch (Acta Cryst. 1976), fits every
hypothesis, and `kabsch`, its one-sample form, is the refit; one squared
residual scores both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DegenerateInput, NoConsensus, ShapeMismatch
from .keys import Section, key
from .se3 import RigidTransform, compose, invert

SAMPLE_SIZE = 3  # points per minimal sample of a rigid or plane fit
FIRST_BLOCK = 8  # scored before the stop bound is known; <= SCORE_BLOCK
SCORE_BLOCK = 32  # most hypotheses scored per later block
CONFIDENCE = 0.999  # RANSAC stops once an all-inlier sample is this sure
ITERATIONS_BOUND = 100_000  # top of each cap; a pose search at it peaks ~60 MB


@dataclass
class SelectionPolicy(Section):
    top_fraction: float = key(0.25, "share of points kept by reliability",
                              gt=0.0, le=1.0)
    min_count: int = key(50, "keep everything below this count", ge=1)


@dataclass
class RansacPoseParams(Section):
    iterations: int = key(300, "pose RANSAC hypothesis cap", ge=1,
                          le=ITERATIONS_BOUND)
    threshold: float = key(0.5, "pose inlier residual (m)", gt=0.0, le=1e3)
    seed: int = 0  # not a config key: callers derive it from the run seed


@dataclass
class PoseEstimate:
    transform: RigidTransform
    inliers: np.ndarray  # ascending indices into the correspondence arrays
    rms_residual: float  # m, over the inliers under the final transform


def select_reliable(u: np.ndarray, policy: SelectionPolicy) -> np.ndarray:
    """Indices of the ceil(top_fraction * n) highest scores, ascending.

    When that count would fall below min_count the whole index range is
    returned instead.  A selection, not a sort: `np.partition`
    (introselect, O(n)) finds the k-th highest score, every higher score
    is kept, and the lowest-index scores equal to it fill the rest, so
    equal scores (+0.0 and -0.0 among them) are broken toward the lower
    index.  NaN ranks below every number, -inf included.
    """
    u = np.asarray(u, dtype=np.float64)
    n = len(u)
    k = int(np.ceil(policy.top_fraction * n))
    if k < policy.min_count:
        return np.arange(n, dtype=np.int64)
    neg = -u  # ascending order of neg is descending score, NaN last
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):  # every number is kept, then the first NaNs
        ties = np.isnan(neg)
        keep = ~ties
    else:
        keep, ties = neg < kth, neg == kth
    keep[np.flatnonzero(ties)[:k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def kabsch(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid motion taking src points onto dst points.

    `_fit_minimal` on one sample: the SVD solution of the orthogonal
    Procrustes problem, with the determinant corrected through the
    smallest singular direction so planar sets give a proper rotation.

    Raises:
        ShapeMismatch: different point counts.
        DegenerateInput: fewer than 3 points, or a collinear source set,
            which leaves a rotation about the line unconstrained.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape:
        raise ShapeMismatch("src and dst must have matching shapes")
    if src.ndim != 2 or src.shape[1] != 3 or len(src) < 3:
        raise DegenerateInput("alignment needs at least 3 points")
    rot, trans, valid = _fit_minimal(src[None], dst[None])
    if not valid[0]:
        raise DegenerateInput("source points are collinear")
    return RigidTransform(rot[0], trans[0])


def distinct_samples(rng: np.random.Generator, n: int, count: int,
                     size: int) -> np.ndarray:
    """(count, size) index samples without replacement, fully vectorized."""
    out = np.empty((count, size), dtype=np.int64)
    for j in range(size):
        r = rng.integers(0, n - j, count)
        prev = np.sort(out[:, :j], axis=1)
        for m in range(j):
            r = r + (r >= prev[:, m])
        out[:, j] = r
    return out


def consensus(n: int, params, fit: Callable, squared_residuals: Callable
              ) -> Tuple[int, Optional[tuple]]:
    """Best hypothesis of a seeded RANSAC search over n data points.

    `params` gives the cap (`iterations`), `threshold` and `seed`; every
    sample of SAMPLE_SIZE indices is drawn up front.  `fit(samples)`
    returns `(*models, valid)`, one row per sample, and
    `squared_residuals(*block)` a block's (K, n) table.  Blocks are scored
    in draw order, holding one table: a first of FIRST_BLOCK, then blocks
    of up to SCORE_BLOCK.  One stop bound, log(1 - CONFIDENCE) /
    log(1 - w^3) rounded up and capped at `iterations`, w the best inlier
    ratio so far, ends every block and the search (w = 1 stops after the
    first block, w = 0 never early).  The winner has the most inliers,
    then the least inlier sum of squares, then the earliest draw.
    Returns (best_count, (best_model, inliers)), the winner's model rows
    and ascending inlier indices, or (0, None) if no hypothesis has one.
    """
    rng = np.random.default_rng(params.seed)
    cap = params.iterations
    samples = distinct_samples(rng, n, cap, SAMPLE_SIZE)
    gate = params.threshold ** 2
    best_count, best_ss, best = 0, np.inf, None
    start, fitted, bound = 0, 0, min(FIRST_BLOCK, cap)
    while start < bound:
        if start == fitted:
            # Fit up to the bound in one call: the bound only falls as w
            # grows, so no later block reaches further.
            fitted, first = bound, start
            *models, valid = fit(samples[first:fitted])
        end = min(start + SCORE_BLOCK, bound)
        rows = slice(start - first, end - first)
        block = [m[rows] for m in models]
        d2 = squared_residuals(*block)
        inlier_mask = d2 <= gate
        counts = np.where(valid[rows], inlier_mask.sum(axis=1), 0)
        top = int(counts.max())
        if top and top >= best_count:
            # Ties share one inlier count: least sum of squares is least
            # RMS, and an earlier block keeps an equal one.
            candidates = np.flatnonzero(counts == top)
            cand_ss = np.where(inlier_mask[candidates], d2[candidates],
                               0.0).sum(axis=1)
            i = int(np.argmin(cand_ss))
            if top > best_count or cand_ss[i] < best_ss:
                c = candidates[i]
                best_count, best_ss = top, cand_ss[i]
                best = (tuple(m[c] for m in block),
                        np.flatnonzero(inlier_mask[c]))
        start = end
        bound = math.ceil(min(_hypotheses_needed(best_count / n), cap))
    return best_count, best


def estimate_pose_ransac(local: np.ndarray, pred: np.ndarray,
                         params: Optional[RansacPoseParams] = None
                         ) -> PoseEstimate:
    """Consensus rigid motion from noisy correspondences.

    `consensus` searches minimal-sample Kabsch fits scored by squared
    residual |R x + t - y|^2.  `kabsch` refits the winner's inliers (a
    collinear set keeps the winning sample's motion), and the same
    squared residual against threshold^2 picks the final inliers and
    their RMS.  params defaults to the
    standard RansacPoseParams, which criterion 5 solves under.

    Raises:
        NoConsensus: fewer correspondences than a minimal sample, or the
            best hypothesis's inliers would not even fill one.
    """
    params = params or RansacPoseParams()
    local = np.asarray(local, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if local.shape != pred.shape:
        raise ShapeMismatch("local and predicted point counts differ")
    n = len(local)
    if n < SAMPLE_SIZE:
        raise NoConsensus(f"{n} correspondences cannot fill a sample of "
                          f"{SAMPLE_SIZE}")
    best_count, best = consensus(
        n, params, lambda s: _fit_minimal(local[s], pred[s]),
        lambda rot, trans: _squared_residuals(rot, trans, local, pred))
    if best_count < SAMPLE_SIZE:
        raise NoConsensus(f"best hypothesis holds {best_count} inliers, "
                          f"need {SAMPLE_SIZE}")
    model, inliers = best
    try:
        motion = kabsch(local[inliers], pred[inliers])
    except DegenerateInput:  # collinear inliers keep the minimal-sample motion
        motion = RigidTransform(*model)
    d2 = _squared_residuals(motion.rotation[None], motion.translation[None],
                            local, pred)[0]
    inliers = np.flatnonzero(d2 <= params.threshold ** 2)
    if len(inliers) < SAMPLE_SIZE:
        raise NoConsensus("refit collapsed the consensus set")
    rms = float(np.sqrt(np.mean(d2[inliers])))
    return PoseEstimate(motion, inliers.astype(np.int64), rms)


def _hypotheses_needed(w: float) -> float:
    """Hypotheses to score for some sample to be all inliers with
    probability CONFIDENCE, at inlier ratio w (Fischler & Bolles 1981)."""
    q = w ** SAMPLE_SIZE  # chance that one sample is all inliers
    if q >= 1.0:
        return 0.0
    if q <= 0.0:
        return math.inf
    return math.log(1.0 - CONFIDENCE) / math.log1p(-q)


def _squared_residuals(rot: np.ndarray, trans: np.ndarray, local: np.ndarray,
                       pred: np.ndarray) -> np.ndarray:
    """(K, n) table of |R_k x + t_k - y|^2 for one block of hypotheses."""
    # One matrix product; row 3k + i of it is R_k[i] . x.
    r = (rot.reshape(-1, 3) @ local.T).reshape(-1, 3, len(local))
    r += trans[:, :, None]
    r -= pred.T
    r *= r
    return r[:, 0] + r[:, 1] + r[:, 2]


def _fit_minimal(src: np.ndarray, dst: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Kabsch over (K, s, 3) sample blocks; flags degenerate ones."""
    sc = src.mean(axis=1, keepdims=True)
    dc = dst.mean(axis=1, keepdims=True)
    h = np.einsum("kpi,kpj->kij", src - sc, dst - dc)
    u, svals, vt = np.linalg.svd(h)
    valid = svals[:, 1] > 1e-12 * np.maximum(svals[:, 0], 1e-300)
    v = vt.transpose(0, 2, 1)
    det = np.linalg.det(v @ u.transpose(0, 2, 1))
    v[det < 0.0, :, 2] *= -1.0
    rot = v @ u.transpose(0, 2, 1)
    trans = dc[:, 0, :] - np.einsum("kij,kj->ki", rot, sc[:, 0, :])
    return rot, trans, valid


def compensate(t_star: RigidTransform, t_plane: RigidTransform
               ) -> RigidTransform:
    """Strip a prior alignment from an estimated motion: t_star o t_plane^-1.

    If t_star maps frame B to the world and t_plane maps B to the sensor
    frame A (for the pose pipeline: rectified back to raw), the result
    maps A to the world.
    """
    return compose(t_star, invert(t_plane))
