"""Helpers shared by several test modules."""

import math
from pathlib import Path

import numpy as np

from ringloc.pose_solve import CONFIDENCE, SCORE_BLOCK
from ringloc.se3 import RigidTransform


def read_pose(path) -> RigidTransform:
    """The transform in a pose file that `ringloc.io.write_pose` wrote."""
    cells = [float(t) for t in Path(path).read_text().split()]
    mat = np.array(cells).reshape(3, 4)
    return RigidTransform(mat[:, :3], mat[:, 3])


def reference_stop(counts, n):
    """Hypotheses the RANSAC stop rule scores: whole blocks, until the
    count scored reaches log(1 - p) / log(1 - w^3), with w the best inlier
    ratio so far, or every hypothesis drawn."""
    for end in range(SCORE_BLOCK, len(counts), SCORE_BLOCK):
        w = counts[:end].max() / n
        if w == 1.0 or (w > 0.0 and end >= math.log(1.0 - CONFIDENCE)
                        / math.log(1.0 - w ** 3)):
            return end
    return len(counts)
