"""Helpers shared by several test modules."""

import math
from pathlib import Path

import numpy as np

from ringloc.pose_solve import CONFIDENCE, FIRST_BLOCK, SCORE_BLOCK, consensus
from ringloc.se3 import PointCloud, RigidTransform


def cloud_of(xyz) -> PointCloud:
    """A cloud of the points xyz, every intensity 0."""
    return PointCloud(xyz, np.zeros(len(xyz)))


def read_pose(path) -> RigidTransform:
    """The transform in a pose file that `ringloc.io.write_pose` wrote."""
    cells = [float(t) for t in Path(path).read_text().split()]
    mat = np.array(cells).reshape(3, 4)
    return RigidTransform(mat[:, :3], mat[:, 3])


def reference_stop(counts, n):
    """Hypotheses the RANSAC stop rule scores: a first block of
    FIRST_BLOCK, then blocks of up to SCORE_BLOCK that end no later than
    log(1 - p) / log(1 - w^3), with w the best inlier ratio so far, until
    the count scored reaches that bound, or every hypothesis drawn."""
    end, bound = 0, math.inf
    while end < len(counts):
        step = SCORE_BLOCK if end else FIRST_BLOCK
        end = min(end + step, len(counts))
        if bound < end:  # a bound between blocks ends the block early
            end = math.ceil(bound)
        w = counts[:end].max() / n
        if w == 1.0:
            return end
        if w > 0.0:
            bound = math.log(1.0 - CONFIDENCE) / math.log(1.0 - w ** 3)
            if end >= bound:
                return end
    return len(counts)


def spy_consensus(monkeypatch, module):
    """Hypotheses that `module`'s calls of `consensus` fit and score, one
    entry per call of `fit` and of `squared_residuals`, and each search's
    best inlier count and point count."""
    seen = {"fitted": [], "scored": [], "best": []}

    def spy(n, params, fit, squared_residuals):
        def fit_spy(samples):
            seen["fitted"].append(len(samples))
            return fit(samples)

        def score_spy(*block):
            seen["scored"].append(len(block[0]))
            return squared_residuals(*block)

        count, best = consensus(n, params, fit_spy, score_spy)
        seen["best"].append((count, n))
        return count, best

    monkeypatch.setattr(module, "consensus", spy)
    return seen
