"""Sparse convolutional encoder on the cylindrical voxel grid.

The grid's x axis is circular: ring index lookups wrap modulo the current
ring size, which is equivalent to cyclic padding followed by stripping
the clones.  Because a whole-ring rotation is an integer shift of the
ring index, features are exactly equivariant to yaws that are multiples
of one cell, and the four stride-2 stages keep that property for shifts
in multiples of 16 cells.

Convolutions are computed sparsely: occupied sites are the only outputs,
absent neighbors contribute zero, and each layer is one gather (im2col
over the kernel's offsets) plus one matmul.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import EmptyGrid, ShapeMismatch, WidthMismatch
from .io import read_tensors, write_tensors
from .projection import VoxelCloud

LEAKY_SLOPE = 0.01
_PACK_BASE = 1 << 20  # per-axis coordinate bound for key packing
DOWNSAMPLE_FACTOR = 16  # product of the four stride-2 stages


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, LEAKY_SLOPE * x)


def _pack(coords: np.ndarray) -> np.ndarray:
    """Fold (ix, iy, iz) into one sortable int64 key per site."""
    c = coords + _PACK_BASE
    if np.any(c < 0) or np.any(c >= 2 * _PACK_BASE):
        raise ValueError("voxel coordinate outside packable range")
    return (c[:, 0] << 42) | (c[:, 1] << 21) | c[:, 2]


@dataclass
class SparseGrid:
    """Active sites with features, kept sorted by packed coordinate key.

    Attributes:
        coords: (M, 3) active sites; ring index in [0, ring_cells).
        feats: (M, C) features.
        ring_cells: circumference of the grid at this resolution.
    """

    coords: np.ndarray
    feats: np.ndarray
    ring_cells: int
    keys: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.feats = np.asarray(self.feats, dtype=np.float64)
        if len(self.coords) != len(self.feats):
            raise ShapeMismatch("coords and feats must have equal length")
        if self.keys is None:
            keys = _pack(self.coords)
            order = np.argsort(keys)
            self.coords = self.coords[order]
            self.feats = self.feats[order]
            self.keys = keys[order]

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def width(self) -> int:
        return self.feats.shape[1]

    def lookup(self, coords: np.ndarray) -> np.ndarray:
        """Row of each query site, or -1 where the site is inactive."""
        q = _pack(np.asarray(coords, dtype=np.int64))
        pos = np.searchsorted(self.keys, q)
        pos = np.minimum(pos, len(self.keys) - 1)
        hit = self.keys[pos] == q
        return np.where(hit, pos, -1)


@dataclass
class ConvSpec:
    """One sparse convolution layer.

    Attributes:
        kernel_extent: cells per axis (2 or odd).
        stride: 1, or 2 for the kernel-2 downsampling form.
        dilation: neighbor offsets are multiplied by this.
        transposed: kernel-2 stride-1 form reaching offsets {0, -1}.
        weights: (V, C_in, C_out) with V = kernel_extent**3, offset-major
            in the order of `offsets()`.
        bias: (C_out,).
    """

    kernel_extent: int
    stride: int
    dilation: int
    weights: np.ndarray
    bias: np.ndarray
    transposed: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        v = self.kernel_extent ** 3
        if self.weights.ndim != 3 or self.weights.shape[0] != v:
            raise ShapeMismatch(
                f"weights must be ({v}, C_in, C_out), got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[2],):
            raise ShapeMismatch("bias length must equal C_out")
        if self.stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        if self.stride == 2 and self.kernel_extent != 2:
            raise ValueError("stride 2 requires kernel extent 2")

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[2]

    def offsets(self) -> np.ndarray:
        """Kernel offsets, (V, 3), in fixed lexicographic order."""
        if self.kernel_extent == 2:
            per_axis = (0, -1) if self.transposed else (0, 1)
        else:
            e = (self.kernel_extent - 1) // 2
            per_axis = tuple(range(-e, e + 1))
        offs = np.array(list(product(per_axis, repeat=3)), dtype=np.int64)
        return offs * self.dilation


def _gather_stack(grid: SparseGrid, neighbor_rows: np.ndarray) -> np.ndarray:
    """im2col: (M, V*C) feature block, zeros where neighbors are absent."""
    v, m = neighbor_rows.shape
    block = grid.feats[neighbor_rows.clip(min=0)]
    block[neighbor_rows < 0] = 0.0
    return block.transpose(1, 0, 2).reshape(m, v * grid.width)


def _neighbors(grid: SparseGrid, centers: np.ndarray,
               offsets: np.ndarray) -> np.ndarray:
    """(V, M) grid row of each center's offset neighbor; ring axis wraps."""
    rows = np.empty((len(offsets), len(centers)), dtype=np.int64)
    for k, off in enumerate(offsets):
        nb = centers + off
        nb[:, 0] %= grid.ring_cells
        rows[k] = grid.lookup(nb)
    return rows


def cyclic_conv(grid: SparseGrid, spec: ConvSpec,
                neighbor_rows: Optional[np.ndarray] = None) -> SparseGrid:
    """Run one sparse convolution over the circular grid.

    Stride 1 keeps the active set; stride 2 emits every parent site
    floor(child / 2) on a ring of half the size.  A precomputed
    neighbor_rows table (from a previous stride-1 layer on the same
    sites and offsets) can be passed to skip the lookups.
    """
    if grid.width != spec.in_width:
        raise WidthMismatch(
            f"grid width {grid.width} vs weights expecting {spec.in_width}")
    if len(grid) == 0:
        raise EmptyGrid("convolution over an empty grid")
    w2d = spec.weights.reshape(-1, spec.out_width)

    if spec.stride == 1:
        if neighbor_rows is None:
            neighbor_rows = _neighbors(grid, grid.coords, spec.offsets())
        block = _gather_stack(grid, neighbor_rows)
        return SparseGrid(grid.coords, block @ w2d + spec.bias,
                          grid.ring_cells, keys=grid.keys)

    if grid.ring_cells % 2 != 0:
        raise ValueError("cannot halve an odd ring")
    parents, _ = _parent_sites(grid)
    block = _gather_stack(grid, _neighbors(grid, parents * 2, spec.offsets()))
    return SparseGrid(parents, block @ w2d + spec.bias, grid.ring_cells // 2)


def _parent_sites(grid: SparseGrid) -> Tuple[np.ndarray, np.ndarray]:
    """Unique floor(child/2) sites plus each child's parent row.

    Parents come out in packed-key order, matching SparseGrid's canonical
    ordering, and the inverse array maps each child row to its parent row.
    """
    child_parent = grid.coords >> 1  # arithmetic shift: floor halving
    _, first, inverse = np.unique(_pack(child_parent),
                                  return_index=True, return_inverse=True)
    return child_parent[first], inverse


def max_pool2(grid: SparseGrid) -> SparseGrid:
    """Stride-2 max pool; each parent takes the max over present children."""
    if len(grid) == 0:
        raise EmptyGrid("pooling an empty grid")
    parents, inverse = _parent_sites(grid)
    pooled = np.full((len(parents), grid.width), -np.inf)
    np.maximum.at(pooled, inverse, grid.feats)
    return SparseGrid(parents, pooled, grid.ring_cells // 2)


@dataclass
class EncoderConfig:
    """Widths of the encoder pyramid.

    stage_widths lists the five stage output widths; output_width is the
    fused full-resolution feature size.
    """

    stem_width: int = 16
    stage_widths: Tuple[int, ...] = (4, 8, 16, 32, 48)
    output_width: int = 64

    def __post_init__(self):
        self.stage_widths = tuple(int(w) for w in self.stage_widths)
        if len(self.stage_widths) != 5:
            raise ValueError("exactly five stage widths required")


@dataclass
class EncoderWeights:
    config: EncoderConfig
    tensors: Dict[str, np.ndarray]

    def conv(self, name: str, kernel_extent: int, stride: int = 1,
             dilation: int = 1, transposed: bool = False) -> ConvSpec:
        return ConvSpec(kernel_extent, stride, dilation,
                        self.tensors[name + ".w"], self.tensors[name + ".b"],
                        transposed=transposed)


def _encoder_layout(cfg: EncoderConfig) -> List[Tuple[str, Tuple[int, ...]]]:
    """Tensor names and shapes in creation order."""
    w1, w2, w3, w4, w5 = cfg.stage_widths
    layout: List[Tuple[str, Tuple[int, ...]]] = [
        ("stem.proj.w", (3, cfg.stem_width)),
        ("stem.proj.b", (cfg.stem_width,)),
        ("stem.skip.w", (3, cfg.stem_width)),
        ("stem.out.w", (cfg.stem_width, w1)),
        ("stem.out.b", (w1,)),
    ]
    prev = w1
    for i, wid in enumerate((w1, w2, w3, w4), start=1):
        src = prev if i > 1 else w1
        layout += [
            (f"stage{i}.down.w", (8, src, wid)),
            (f"stage{i}.down.b", (wid,)),
            (f"stage{i}.a.w", (27, wid + src, wid)),
            (f"stage{i}.a.b", (wid,)),
            (f"stage{i}.b.w", (27, wid, wid)),
            (f"stage{i}.b.b", (wid,)),
        ]
        prev = wid
    layout += [
        ("stage5.a.w", (27, w4, w5)),
        ("stage5.a.b", (w5,)),
        ("stage5.b.w", (27, w5, w5)),
        ("stage5.b.b", (w5,)),
        ("stage6.up.w", (8, w5, w5)),
        ("stage6.up.b", (w5,)),
        ("stage6.fuse.w", (w5 + w4, cfg.output_width)),
        ("stage6.fuse.b", (cfg.output_width,)),
        ("stage6.a.w", (27, cfg.output_width, cfg.output_width)),
        ("stage6.a.b", (cfg.output_width,)),
        ("stage6.b.w", (27, cfg.output_width, cfg.output_width)),
        ("stage6.b.b", (cfg.output_width,)),
    ]
    return layout


def init_encoder_weights(config: Optional[EncoderConfig] = None,
                         seed: int = 0) -> EncoderWeights:
    """Draw all tensors from U[-1/sqrt(fan_in), 1/sqrt(fan_in)].

    fan_in counts every kernel tap times the input width.  Tensors are
    drawn in layout order from one seeded generator, so a seed pins the
    whole network.
    """
    config = config or EncoderConfig()
    rng = np.random.default_rng(seed)
    tensors: Dict[str, np.ndarray] = {}
    fans: Dict[str, float] = {}
    for name, shape in _encoder_layout(config):
        if name.endswith(".w"):
            fan_in = int(np.prod(shape[:-1]))
            fans[name[:-2]] = fan_in
        else:
            fan_in = fans[name[:-2]]
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = rng.uniform(-bound, bound, size=shape)
    return EncoderWeights(config, tensors)


def save_encoder_weights(path, weights: EncoderWeights) -> None:
    write_tensors(path, [(n, weights.tensors[n])
                         for n, _ in _encoder_layout(weights.config)])


def load_encoder_weights(path) -> EncoderWeights:
    tensors = read_tensors(path)
    stem_width = tensors["stem.proj.w"].shape[1]
    stage_widths = tuple(tensors[f"stage{i}.down.w"].shape[2] for i in range(1, 5))
    stage_widths += (tensors["stage5.a.w"].shape[2],)
    config = EncoderConfig(stem_width, stage_widths,
                           tensors["stage6.fuse.w"].shape[1])
    expected = {n: s for n, s in _encoder_layout(config)}
    got = {n: t.shape for n, t in tensors.items()}
    if expected != got:
        raise ValueError("weight file shapes do not form a valid encoder")
    return EncoderWeights(config, tensors)


def initial_features(v: VoxelCloud) -> np.ndarray:
    """Per-voxel input features: radius, height (m), and intensity.

    The arc coordinate is deliberately left out; dropping it is what
    makes the features independent of where the scan starts on the ring.
    """
    metric = v.indices[:, 1:] * v.voxel_size
    return np.column_stack([metric, v.intensity])


def encode(v: VoxelCloud, weights: EncoderWeights) -> np.ndarray:
    """Full encoder pass; returns (len(v), output_width) features.

    The voxel grid is downsampled 16x through four stride-2 stages, run
    through two dilated stages at the coarsest ring, and each input voxel
    reads back the fused feature of its coarse ancestor, so rows align
    with the input voxel order.
    """
    if len(v) == 0:
        raise EmptyGrid("cannot encode an empty voxel grid")
    if v.ring_cells % DOWNSAMPLE_FACTOR != 0:
        raise ValueError(f"ring_cells must be divisible by {DOWNSAMPLE_FACTOR}")
    t = weights.tensors

    feats = initial_features(v)
    h = leaky_relu(feats @ t["stem.proj.w"] + t["stem.proj.b"]
                   + feats @ t["stem.skip.w"])
    h = leaky_relu(h @ t["stem.out.w"] + t["stem.out.b"])
    grid = SparseGrid(v.indices, h, v.ring_cells)

    skip4 = None
    for i in range(1, 5):
        down = cyclic_conv(grid, weights.conv(f"stage{i}.down", 2, stride=2))
        pooled = max_pool2(grid)
        grid = SparseGrid(down.coords,
                          np.hstack([leaky_relu(down.feats), pooled.feats]),
                          down.ring_cells, keys=down.keys)
        grid = _conv_pair(grid, weights.conv(f"stage{i}.a", 3),
                          weights.conv(f"stage{i}.b", 3))
        if i == 4:
            skip4 = grid

    grid = _conv_pair(grid, weights.conv("stage5.a", 3, dilation=2),
                      weights.conv("stage5.b", 3, dilation=2))

    up = cyclic_conv(grid, weights.conv("stage6.up", 2, transposed=True))
    fused = np.hstack([leaky_relu(up.feats), skip4.feats])
    fused = leaky_relu(fused @ t["stage6.fuse.w"] + t["stage6.fuse.b"])
    grid = SparseGrid(up.coords, fused, up.ring_cells, keys=up.keys)
    grid = _conv_pair(grid, weights.conv("stage6.a", 3, dilation=2),
                      weights.conv("stage6.b", 3, dilation=2))

    ancestors = v.indices >> 4  # arithmetic shift: floor division by 16
    rows = grid.lookup(ancestors)
    if np.any(rows < 0):
        raise EmptyGrid("input voxel lost its coarse ancestor")
    return grid.feats[rows]


def _conv_pair(grid: SparseGrid, a: ConvSpec, b: ConvSpec) -> SparseGrid:
    """Two stride-1 convs sharing one neighbor table."""
    table = _neighbors(grid, grid.coords, a.offsets())
    out = cyclic_conv(grid, a, neighbor_rows=table)
    out = SparseGrid(out.coords, leaky_relu(out.feats), out.ring_cells,
                     keys=out.keys)
    out = cyclic_conv(out, b, neighbor_rows=table)
    return SparseGrid(out.coords, leaky_relu(out.feats), out.ring_cells,
                      keys=out.keys)
