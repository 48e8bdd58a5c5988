"""Sparse convolutional encoder on the cylindrical voxel grid.

The grid's x axis is circular: ring index lookups wrap modulo the current
ring size, which is equivalent to cyclic padding followed by stripping
the clones.  Because a whole-ring rotation is an integer shift of the
ring index, features are exactly equivariant to yaws that are multiples
of one cell, and the four stride-2 stages keep that property for shifts
in multiples of 16 cells.

Geometry is built once and features flow through it as plain arrays.
The geometry is a pyramid of five `Level`s, the occupied sites at each
resolution, each kept as ascending packed keys.  Every conv layer is one
`sparse_conv` over a `KernelMap`: per kernel offset, the output rows
whose neighbor is present and the input rows they read, so absent
neighbors cost nothing (the kernel maps of MinkowskiEngine, Choy et al.,
CVPR 2019).  A stride-1 map comes from `Level.neighbors`, which looks up
each site's key plus the offset's key delta; the stride-2 map comes from
`Level.halve`, whose parent rows and octant codes already say which
child feeds which parent through which tap.  Each map is built once and
read by every conv that shares it: a stage's two 3x3x3 convs, and the
four dilated convs of stages 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .io import Weights, init_weights
from .keys import Section, key
from .projection import VoxelCloud, _pack

LEAKY_SLOPE = 0.01

# Kernel offsets, (V, 3), in lexicographic order; conv weights are
# (V, C_in, C_out), offset-major in the same order.
CUBE = np.array(list(product((-1, 0, 1), repeat=3)), dtype=np.int64)
DOWN = np.array(list(product((0, 1), repeat=3)), dtype=np.int64)
UP = -DOWN  # the kernel-2 stride-1 form that reaches offsets {0, -1}


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """Rectify x in place: x where x > 0, else LEAKY_SLOPE * x; returns x."""
    return np.maximum(x, LEAKY_SLOPE * x, out=x)


class KernelMap(NamedTuple):
    """Which input row feeds which output row through each kernel tap.

    pairs[k] is (out_rows, in_rows) for offset k: output out_rows[i]
    reads input in_rows[i], out_rows ascending.  out_rows is None only
    for a full stride-1 tap, whose in_rows has one row per output.
    """

    n_out: int
    pairs: List[Tuple[Optional[np.ndarray], np.ndarray]]


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

    def halve(self) -> Tuple["Level", np.ndarray, KernelMap]:
        """The level of floor(site / 2) parents, each site's parent row,
        and the stride-2 `DOWN` map from these sites to their parents.

        A site's tap is its octant code (coords & 1) in `DOWN` order.
        Siblings ascend in key order as their codes do, so each tap's
        children, taken in row order, have ascending parent rows.
        """
        parent, parent_rows = Level.of(self.coords >> 1, self.ring_cells // 2)
        code = (self.coords & 1) @ np.array([4, 2, 1])
        pairs = []
        for k in range(len(DOWN)):
            in_rows = np.flatnonzero(code == k)
            pairs.append((parent_rows[in_rows], in_rows))
        return parent, parent_rows, KernelMap(len(parent.keys), pairs)

    def neighbors(self, offsets: np.ndarray) -> KernelMap:
        """The stride-1 map of these sites onto themselves over offsets.

        A neighbor's key is the site's key plus the offset's key delta,
        less the whole turns its ring index (ring + dx) // ring_cells
        went round, so the ring axis wraps modulo ring_cells for any
        step, also one wider than the ring.  Every neighbor must pack;
        this is not checked, as the halved levels `encode_sites` passes
        hold it: their y and z lie within +-2^19, +-2 taps stay inside
        +-2^20, and a ring is at most 2^19 wide.
        """
        n, cells = len(self.keys), self.ring_cells
        turn = np.int64(cells) << 42
        base = {dx: self.keys - (self.coords[:, 0] + dx) // cells * turn
                for dx in np.unique(offsets[:, 0]).tolist()}
        deltas = _pack(offsets) - _pack(np.zeros(3, dtype=np.int64))
        pairs = []
        for dx, delta in zip(offsets[:, 0].tolist(), deltas):
            q = base[dx] + delta
            pos = np.searchsorted(self.keys, q)
            np.minimum(pos, n - 1, out=pos)
            out_rows = np.flatnonzero(self.keys[pos] == q)
            pairs.append((None if len(out_rows) == n else out_rows,
                          pos[out_rows]))
        return KernelMap(n, pairs)


def sparse_conv(feats: np.ndarray, kmap: KernelMap, weights: np.ndarray,
                bias: np.ndarray) -> np.ndarray:
    """One sparse conv layer; returns (kmap.n_out, C_out) features.

    weights is (V, C_in, C_out) in the offset order of kmap and bias is
    (C_out,).  Per offset, the outputs whose neighbor is present add that
    neighbor's features times weights[k], offsets in map order, and the
    bias comes last.  An output has at most one neighbor per offset, so
    the scattered adds never collide.
    """
    out = np.zeros((kmap.n_out, weights.shape[2]))
    for (out_rows, in_rows), w in zip(kmap.pairs, weights):
        if out_rows is None:
            out += feats.take(in_rows, axis=0) @ w
        elif len(out_rows):
            out[out_rows] += feats.take(in_rows, axis=0) @ w
    out += bias
    return out


def max_pool2(feats: np.ndarray, down: KernelMap) -> np.ndarray:
    """Stride-2 max pool over the `DOWN` map of `Level.halve`, which
    lists every tap's rows: each parent takes the max over its children."""
    pooled = np.full((down.n_out, feats.shape[1]), -np.inf)
    for out_rows, in_rows in down.pairs:
        pooled[out_rows] = np.maximum(pooled[out_rows],
                                      feats.take(in_rows, axis=0))
    return pooled


@dataclass
class EncoderConfig(Section):
    """Widths of the encoder pyramid.

    stage_widths lists the five stage output widths; output_width is the
    fused full-resolution feature size.
    """

    stem_width: int = key(16, "width of the stem's hidden projection",
                          ge=1, le=256)
    stage_widths: Tuple[int, ...] = key((4, 8, 16, 32, 48),
                                        "five encoder stage widths",
                                        ge=1, le=256)
    output_width: int = key(64, "fused full-resolution feature width",
                            ge=1, le=256)

    def __post_init__(self):
        self.stage_widths = tuple(int(w) for w in self.stage_widths)
        super().__post_init__()
        if len(self.stage_widths) != 5:
            raise ValueError("exactly five stage widths required")

    @classmethod
    def from_tensors(cls, tensors: Dict[str, np.ndarray]) -> "EncoderConfig":
        """The widths a weight set's tensor shapes name."""
        widths = [tensors[f"stage{i}.down.w"].shape[2] for i in range(1, 5)]
        return cls(tensors["stem.proj.w"].shape[1],
                   (*widths, tensors["stage5.a.w"].shape[2]),
                   tensors["stage6.fuse.w"].shape[1])

    def layout(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """Tensor names and shapes in creation order."""
        w1, w2, w3, w4, w5 = self.stage_widths
        layout: List[Tuple[str, Tuple[int, ...]]] = [
            ("stem.proj.w", (3, self.stem_width)),
            ("stem.proj.b", (self.stem_width,)),
            ("stem.skip.w", (3, self.stem_width)),
            ("stem.out.w", (self.stem_width, w1)),
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
        return layout + [
            ("stage5.a.w", (27, w4, w5)),
            ("stage5.a.b", (w5,)),
            ("stage5.b.w", (27, w5, w5)),
            ("stage5.b.b", (w5,)),
            ("stage6.up.w", (8, w5, w5)),
            ("stage6.up.b", (w5,)),
            ("stage6.fuse.w", (w5 + w4, self.output_width)),
            ("stage6.fuse.b", (self.output_width,)),
            ("stage6.a.w", (27, self.output_width, self.output_width)),
            ("stage6.a.b", (self.output_width,)),
            ("stage6.b.w", (27, self.output_width, self.output_width)),
            ("stage6.b.b", (self.output_width,)),
        ]


@lru_cache(maxsize=4)
def _seeded_draw(widths: Tuple, seed: int) -> Dict[str, np.ndarray]:
    tensors = init_weights(EncoderConfig(*widths), seed).tensors
    for t in tensors.values():
        t.flags.writeable = False  # shared by every caller of this key
    return tensors


def init_encoder_weights(config: EncoderConfig, seed: int) -> Weights:
    """`init_weights` of config.

    The draw is made once per (widths, seed) and its tensors are shared
    read-only; each call gets its own dict, so a caller rebinds a tensor
    or copies it before editing."""
    return Weights(config, dict(_seeded_draw(
        (config.stem_width, config.stage_widths, config.output_width), seed)))


def initial_features(v: VoxelCloud) -> np.ndarray:
    """Per-voxel input features: radius, height (m), and intensity.

    The arc coordinate is deliberately left out; dropping it is what
    makes the features independent of where the scan starts on the ring.
    """
    metric = v.indices[:, 1:] * v.voxel_size
    return np.column_stack([metric, v.intensity])


def encode(v: VoxelCloud, weights: Weights) -> np.ndarray:
    """Full encoder pass; returns (len(v), output_width) features.

    Rows align with the input voxel order: each voxel reads back the
    fused feature of its coarse ancestor, so voxels that share an
    ancestor get identical rows.
    """
    site_feats, voxel_rows = encode_sites(v, weights)
    return site_feats[voxel_rows]


def encode_sites(v: VoxelCloud, weights: Weights
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Full encoder pass at the coarsest sites, and each voxel's site row.

    The voxel grid is downsampled 16x through four stride-2 stages and
    run through two dilated stages at the coarsest ring.  Returns the
    (S, output_width) features of the S distinct coarse sites and the
    (len(v),) row of each voxel's ancestor, so `encode` is
    site_feats[voxel_rows].  Voxels that repeat an index share one
    site, which takes the stem features of one of them.
    """
    t = weights.tensors

    def conv(name: str, x: np.ndarray, kmap: KernelMap) -> np.ndarray:
        return leaky_relu(sparse_conv(x, kmap, t[name + ".w"], t[name + ".b"]))

    def conv_pair(stage: str, x: np.ndarray, kmap: KernelMap) -> np.ndarray:
        return conv(stage + ".b", conv(stage + ".a", x, kmap), kmap)

    feats = initial_features(v)
    h = feats @ t["stem.proj.w"]
    h += t["stem.proj.b"]
    h += feats @ t["stem.skip.w"]
    h = leaky_relu(h) @ t["stem.out.w"]
    h += t["stem.out.b"]
    level, voxel_rows = Level.of(v.indices, v.ring_cells)
    x = np.empty((len(level.coords), h.shape[1]))
    x[voxel_rows] = leaky_relu(h)

    for i in range(1, 5):
        level, parent_rows, down = level.halve()
        x = np.hstack([conv(f"stage{i}.down", x, down),
                       max_pool2(x, down)])
        x = conv_pair(f"stage{i}", x, level.neighbors(CUBE))
        voxel_rows = parent_rows[voxel_rows]

    skip4 = x
    dilated = level.neighbors(2 * CUBE)
    x = conv_pair("stage5", x, dilated)
    x = np.hstack([conv("stage6.up", x, level.neighbors(UP)), skip4]
                  ) @ t["stage6.fuse.w"]
    x += t["stage6.fuse.b"]
    return conv_pair("stage6", leaky_relu(x), dilated), voxel_rows
