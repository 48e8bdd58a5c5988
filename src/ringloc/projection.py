"""Cylindrical projection, voxelization, and the circular seam.

Points are unrolled onto a cylinder around the sensor's vertical axis:
x becomes arc length s*theta along the ring, y the horizontal radius,
z stays height.  A full turn maps to exactly ring_cells voxels along x,
so a yaw of the input is a circular shift of the grid and convolution
can wrap around the seam instead of truncating it.  A `VoxelCloud` holds
a grid's rules (a valid config, at least one cell, ring indices in [0,
ring_cells), every cell packs), so no stage that reads one re-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, OriginPoint, ShapeMismatch
from .keys import Section, key
from .se3 import PointCloud

# Voxel indices lie in [-INDEX_BOUND, INDEX_BOUND) on every axis, the
# range `_pack` folds into one int64 key per cell; voxelize drops points
# whose cell falls outside it.
INDEX_BOUND = 1 << 20
RING_MULTIPLE = 16  # the encoder halves the ring in four stride-2 stages


def _pack(coords: np.ndarray) -> np.ndarray:
    """Fold (..., 3) cells (ix, iy, iz) into one int64 key each.

    Keys ascend in the lexicographic order of the cells, and a key plus
    `_pack(offset) - _pack(0)` is the key of the offset cell while every
    axis stays in range.  Every axis must lie in [-INDEX_BOUND,
    INDEX_BOUND), as every VoxelCloud's cells do; this is not checked.
    """
    c = coords + INDEX_BOUND
    return (c[..., 0] << 42) | (c[..., 1] << 21) | c[..., 2]


@dataclass
class ProjectionConfig(Section):
    """Grid geometry for the unrolled cylinder."""

    voxel_size: float = key(0.2, "cell edge of the cylindrical grid (m)",
                            gt=0.0, le=1e3)
    ring_cells: int = key(1024, f"cells per full turn; a multiple of "
                          f"{RING_MULTIPLE}", ge=RING_MULTIPLE, le=INDEX_BOUND)

    def __post_init__(self):
        super().__post_init__()
        if self.ring_cells % RING_MULTIPLE != 0:
            raise ValueError(f"ring_cells must be a multiple of "
                             f"{RING_MULTIPLE}, got {self.ring_cells!r}")

    @property
    def scale(self) -> float:
        """Cylinder radius s that makes one turn exactly ring_cells cells."""
        return self.ring_cells * self.voxel_size / (2.0 * np.pi)


@dataclass
class VoxelCloud:
    """M >= 1 occupied voxels (else EmptyGrid), one representative point each.

    Attributes:
        indices: (M, 3) integer cells (ix, iy, iz); ix in [0, ring_cells),
            iy and iz in [-INDEX_BOUND, INDEX_BOUND), else ValueError.
        points: (M, 3) representative coordinates in projected space (m).
        intensity: (M,) representative intensities.
        source_index: (M,) row of each representative in the source cloud.
        ring_cells: cells per turn the grid was built with.
        voxel_size: cell edge (m).
    """

    indices: np.ndarray
    points: np.ndarray
    intensity: np.ndarray
    source_index: np.ndarray
    ring_cells: int
    voxel_size: float

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.points = np.asarray(self.points, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        self.source_index = np.asarray(self.source_index, dtype=np.int64)
        m = len(self.indices)
        if self.indices.shape != (m, 3) or self.points.shape != (m, 3):
            raise ShapeMismatch("indices and points must both be (M, 3)")
        if self.intensity.shape != (m,) or self.source_index.shape != (m,):
            raise ShapeMismatch("per-voxel arrays must have length M")
        ProjectionConfig(self.voxel_size, self.ring_cells)  # a valid grid
        if m == 0:
            raise EmptyGrid("voxel grid has no occupied cell")
        cells, ring = self.indices, self.indices[:, 0]
        if ring.min() < 0 or ring.max() >= self.ring_cells:
            raise ValueError("ring index outside [0, ring_cells)")
        # Every axis: ix is in range by now, and [:, 1:] reduces 15x slower.
        if cells.min() < -INDEX_BOUND or cells.max() >= INDEX_BOUND:
            raise ValueError("voxel index outside [-INDEX_BOUND, INDEX_BOUND)")

    def __len__(self) -> int:
        return len(self.indices)


def project_cylindrical(cloud: PointCloud,
                        config: ProjectionConfig) -> PointCloud:
    """Unroll a cloud onto the cylinder.

    Output coordinates are (arc, radius, height); intensity and point
    order carry over unchanged.

    Raises:
        OriginPoint: some point lies on the vertical sensor axis, where
            azimuth is undefined.
    """
    x, y, z = cloud.xyz.T
    radius = np.hypot(x, y)
    if np.any(radius == 0.0):
        raise OriginPoint("point on the sensor axis has no azimuth")
    theta = np.arctan2(y, x)
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    arc = config.scale * theta
    return PointCloud(np.column_stack([arc, radius, z]), cloud.intensity.copy())


def voxelize(projected: PointCloud, config: ProjectionConfig) -> VoxelCloud:
    """Quantize a projected cloud, keeping the first point per cell.

    Cells are floor(coord / voxel_size); the ring index is reduced modulo
    ring_cells, only when some index is outside [0, ring_cells), so an
    arc that rounds up to the full turn, or a negative one, stays in range.
    Points whose cell lies outside [-INDEX_BOUND, INDEX_BOUND) on any axis
    (about 209 km out at 0.2 m cells) are dropped.  Both steps run on the
    floored floats, so no cell is cast to int64 before it is known to fit.
    One min and max over the cells decide whether any is outside: if none
    is, as in every simulated scan, the cells are packed as they are,
    without a mask or a gather.  Voxels are ordered by their
    representative's position in the input; dropping every point leaves
    no cell, which VoxelCloud rejects.
    """
    with np.errstate(over="ignore"):  # a cell past float max is inf
        cells = np.floor(projected.xyz / config.voxel_size)
    ring = cells[:, 0]
    if ring.min() < 0 or ring.max() >= config.ring_cells:
        ring %= config.ring_cells
    rows = None
    if cells.min() < -INDEX_BOUND or cells.max() >= INDEX_BOUND:
        rows = np.flatnonzero(np.all((cells >= -INDEX_BOUND)
                                     & (cells < INDEX_BOUND), axis=1))
        cells = cells.take(rows, axis=0)
    idx = cells.astype(np.int64)
    _, first = np.unique(_pack(idx), return_index=True)
    first = np.sort(first)
    source = first if rows is None else rows.take(first)
    return VoxelCloud(idx.take(first, axis=0),
                      projected.xyz.take(source, axis=0),
                      projected.intensity[source], source,
                      config.ring_cells, config.voxel_size)


def recover_cartesian(v: VoxelCloud, config: ProjectionConfig) -> PointCloud:
    """Map voxel centers back to Cartesian sensor coordinates.

    Uses the cell center (i + 1/2) * voxel_size on every axis, then folds
    the arc back into an angle.  Output order matches the voxel order.
    """
    centers = (v.indices + 0.5) * config.voxel_size
    angle = centers[:, 0] / config.scale
    xyz = np.column_stack([
        centers[:, 1] * np.cos(angle),
        centers[:, 1] * np.sin(angle),
        centers[:, 2],
    ])
    return PointCloud(xyz, v.intensity.copy())
