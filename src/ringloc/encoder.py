"""Sparse convolutional encoder on the cylindrical voxel grid.

The grid's x axis is circular: ring index lookups wrap modulo the current
ring size, which is equivalent to cyclic padding followed by stripping
the clones.  Because a whole-ring rotation is an integer shift of the
ring index, features are exactly equivariant to yaws that are multiples
of one cell, and the four stride-2 stages keep that property for shifts
in multiples of 16 cells.

Geometry is built once and features flow through it as plain arrays.
The geometry is a pyramid of five `Level`s, the occupied sites at each
resolution.  `Level.halve` yields each child's parent row, which the
stride-2 conv, the max pool and the read-back of each voxel's feature
share.  Every conv layer is one `sparse_conv` over a (kernel offset,
site) neighbor table: per offset, the sites whose neighbor is present
gather it and accumulate one small matmul, so absent neighbors cost
nothing.  A table is built once per (level, offsets): a stage's two
3x3x3 convs share one, and the dilated stages 5 and 6 share another.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import EmptyGrid, ParseError
from .io import read_tensors, write_tensors
from .projection import INDEX_BOUND, VoxelCloud

LEAKY_SLOPE = 0.01
DOWNSAMPLE_FACTOR = 16  # product of the four stride-2 stages

# Kernel offsets, (V, 3), in lexicographic order; conv weights are
# (V, C_in, C_out), offset-major in the same order.
CUBE = np.array(list(product((-1, 0, 1), repeat=3)), dtype=np.int64)
DOWN = np.array(list(product((0, 1), repeat=3)), dtype=np.int64)
UP = -DOWN  # the kernel-2 stride-1 form that reaches offsets {0, -1}


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, LEAKY_SLOPE * x)


def _pack(coords: np.ndarray) -> np.ndarray:
    """Fold (..., 3) sites (ix, iy, iz) into one sortable int64 key each.

    A site outside [-INDEX_BOUND, INDEX_BOUND) on any axis is a parse
    error.  Lookups from in-range sites stay in range: a stride-2 conv
    reads only a parent's own children, and the coarser levels span half
    the range or less.
    """
    c = coords + INDEX_BOUND
    if np.any(c < 0) or np.any(c >= 2 * INDEX_BOUND):
        raise ParseError(f"voxel coordinate outside the packable range "
                         f"[-{INDEX_BOUND}, {INDEX_BOUND - 1}]")
    return (c[..., 0] << 42) | (c[..., 1] << 21) | c[..., 2]


@dataclass
class Level:
    """Occupied sites at one resolution of the pyramid.

    Attributes:
        coords: (M, 3) distinct sites in ascending key order; ring index
            in [0, ring_cells).
        keys: (M,) ascending packed keys of coords.
        ring_cells: circumference of the grid at this resolution.
    """

    coords: np.ndarray
    keys: np.ndarray
    ring_cells: int

    @classmethod
    def of(cls, coords: np.ndarray, ring_cells: int
           ) -> Tuple["Level", np.ndarray]:
        """The level of the distinct sites in coords, and each row's site."""
        keys, first, site = np.unique(_pack(coords), return_index=True,
                                      return_inverse=True)
        return cls(coords[first], keys, ring_cells), site

    def halve(self) -> Tuple["Level", np.ndarray]:
        """The level of floor(site / 2) parents, and each site's parent row."""
        return Level.of(self.coords >> 1, self.ring_cells // 2)

    def neighbors(self, centers: np.ndarray, offsets: np.ndarray
                  ) -> np.ndarray:
        """(V, M) row of each center's offset neighbor, -1 where absent."""
        axes = np.ascontiguousarray(centers.T)
        nb = axes[:, None, :] + offsets.T[:, :, None]  # (3, V, M)
        nb[0] %= self.ring_cells
        q = _pack(nb.transpose(1, 2, 0))
        pos = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        return np.where(self.keys[pos] == q, pos, -1)


def sparse_conv(feats: np.ndarray, neighbor_rows: np.ndarray,
                weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """One sparse conv layer; returns (M, C_out) features.

    neighbor_rows is a (V, M) table from `Level.neighbors` into the rows
    of feats, weights is (V, C_in, C_out) and bias is (C_out,).  Each
    offset k is a kernel map: the outputs whose neighbor is present add
    that neighbor's features times weights[k], offsets in table order,
    and the bias comes last.  An output has at most one neighbor per
    offset, so the scattered adds never collide.
    """
    out = np.zeros((neighbor_rows.shape[1], weights.shape[2]))
    for rows, w in zip(neighbor_rows, weights):
        present = rows >= 0
        if present.all():
            out += feats[rows] @ w
        elif present.any():
            out_rows = np.flatnonzero(present)
            out[out_rows] += feats[rows[out_rows]] @ w
    return out + bias


def max_pool2(feats: np.ndarray, parent_rows: np.ndarray,
              n_parents: int) -> np.ndarray:
    """Stride-2 max pool; each parent takes the max over its children."""
    pooled = np.full((n_parents, feats.shape[1]), -np.inf)
    np.maximum.at(pooled, parent_rows, feats)
    return pooled


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
        layout += [
            (f"stage{i}.down.w", (8, prev, wid)),
            (f"stage{i}.down.b", (wid,)),
            (f"stage{i}.a.w", (27, wid + prev, wid)),
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
    try:
        stem_width = tensors["stem.proj.w"].shape[1]
        stage_widths = tuple(tensors[f"stage{i}.down.w"].shape[2]
                             for i in range(1, 5))
        stage_widths += (tensors["stage5.a.w"].shape[2],)
        config = EncoderConfig(stem_width, stage_widths,
                               tensors["stage6.fuse.w"].shape[1])
    except (KeyError, IndexError) as exc:
        raise ParseError(f"{path}: not an encoder weight file "
                         f"({type(exc).__name__}: {exc})") from exc
    expected = {n: s for n, s in _encoder_layout(config)}
    got = {n: t.shape for n, t in tensors.items()}
    if expected != got:
        raise ParseError(f"{path}: weight file shapes do not form a valid "
                         f"encoder")
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

    Rows align with the input voxel order: each voxel reads back the
    fused feature of its coarse ancestor, so voxels that share an
    ancestor get identical rows.
    """
    site_feats, voxel_rows = encode_sites(v, weights)
    return site_feats[voxel_rows]


def encode_sites(v: VoxelCloud, weights: EncoderWeights
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Full encoder pass at the coarsest sites, and each voxel's site row.

    The voxel grid is downsampled 16x through four stride-2 stages and
    run through two dilated stages at the coarsest ring.  Returns the
    (S, output_width) features of the S distinct coarse sites and the
    (len(v),) row of each voxel's ancestor, so `encode` is
    site_feats[voxel_rows].  Voxels that repeat an index share one
    site, which takes the stem features of one of them.
    """
    if len(v) == 0:
        raise EmptyGrid("cannot encode an empty voxel grid")
    if v.ring_cells % DOWNSAMPLE_FACTOR != 0:
        raise ParseError(f"ring_cells must be divisible by {DOWNSAMPLE_FACTOR}")
    t = weights.tensors

    def conv(name: str, x: np.ndarray, table: np.ndarray) -> np.ndarray:
        return sparse_conv(x, table, t[name + ".w"], t[name + ".b"])

    def conv_pair(stage: str, x: np.ndarray, table: np.ndarray) -> np.ndarray:
        x = leaky_relu(conv(stage + ".a", x, table))
        return leaky_relu(conv(stage + ".b", x, table))

    feats = initial_features(v)
    h = leaky_relu(feats @ t["stem.proj.w"] + t["stem.proj.b"]
                   + feats @ t["stem.skip.w"])
    h = leaky_relu(h @ t["stem.out.w"] + t["stem.out.b"])
    level, voxel_rows = Level.of(v.indices, v.ring_cells)
    x = np.empty((len(level.coords), h.shape[1]))
    x[voxel_rows] = h

    for i in range(1, 5):
        child, (level, parent_rows) = level, level.halve()
        down = conv(f"stage{i}.down", x,
                    child.neighbors(2 * level.coords, DOWN))
        x = np.hstack([leaky_relu(down),
                       max_pool2(x, parent_rows, len(level.coords))])
        x = conv_pair(f"stage{i}", x, level.neighbors(level.coords, CUBE))
        voxel_rows = parent_rows[voxel_rows]

    skip4 = x
    dilated = level.neighbors(level.coords, 2 * CUBE)
    x = conv_pair("stage5", x, dilated)
    up = conv("stage6.up", x, level.neighbors(level.coords, UP))
    x = leaky_relu(np.hstack([leaky_relu(up), skip4]) @ t["stage6.fuse.w"]
                   + t["stage6.fuse.b"])
    return conv_pair("stage6", x, dilated), voxel_rows
