"""Helpers shared by several test modules."""

from pathlib import Path

import numpy as np

from ringloc.se3 import RigidTransform


def read_pose(path) -> RigidTransform:
    """The transform in a pose file that `ringloc.io.write_pose` wrote."""
    cells = [float(t) for t in Path(path).read_text().split()]
    mat = np.array(cells).reshape(3, 4)
    return RigidTransform(mat[:, :3], mat[:, 3])
