"""Per-voxel coordinate and reliability regressor.

A stack of multi-head max layers: each layer projects the feature to
`heads` candidate vectors and keeps the elementwise max across heads,
followed by layer normalization and a leaky rectifier.  A final affine
layer emits four numbers per voxel: the predicted world coordinate and a
raw reliability score u.

Forward and backward passes are written out by hand, all plain batched
matmuls.  Inference takes the plain max over heads and keeps nothing
for a backward pass.  Training's forward pass also records the winning
head, the lowest on exact ties, and backward scatters the max's
gradient to that head alone; neither pass selects through a mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .encoder import LEAKY_SLOPE, leaky_relu
from .errors import ShapeMismatch
from .io import Weights, init_weights, load_weights, save_weights
from .keys import Section, key

LN_EPS = 1e-5
N_OUTPUTS = 4  # x, y, z, reliability
# The rectifier's slope indexed by whether its output is positive.
SLOPES = np.array([LEAKY_SLOPE, 1.0])


@dataclass
class RegressorConfig(Section):
    width: int = 64  # not a config key: training takes encoder.output_width
    heads: int = key(4, "candidate vectors per max layer", ge=1, le=64)
    layers: int = key(5, "stacked max layers", ge=1, le=64)

    @classmethod
    def from_tensors(cls, tensors: Dict[str, np.ndarray]) -> "RegressorConfig":
        """The widths and depth a weight set's tensor shapes name."""
        width, kn = tensors["mhm1.w"].shape
        layers = sum(n.startswith("mhm") and n.endswith(".w") for n in tensors)
        return cls(width, kn // width, layers)

    def layout(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """Tensor names and shapes in creation order."""
        layout: List[Tuple[str, Tuple[int, ...]]] = []
        for i in range(1, self.layers + 1):
            layout += [
                (f"mhm{i}.w", (self.width, self.heads * self.width)),
                (f"mhm{i}.b", (self.heads * self.width,)),
                (f"ln{i}.g", (self.width,)),
                (f"ln{i}.b", (self.width,)),
            ]
        return layout + [("head.w", (self.width, N_OUTPUTS)),
                         ("head.b", (N_OUTPUTS,))]


def init_regressor_weights(config: RegressorConfig, seed: int) -> Weights:
    """The seeded `init_weights` draw of config."""
    return init_weights(config, seed)


def load_regressor_weights(path) -> Weights:
    return load_weights(path, "regressor", RegressorConfig.from_tensors)


save_regressor_weights = save_weights


def regress(features: np.ndarray, weights: Weights
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Predict (coords (M, 3), reliability u (M,)) from (M, N) features."""
    out, _ = forward(features, weights, keep_cache=False)
    return out[:, :3].copy(), out[:, 3].copy()


def regress_backward(features: np.ndarray, weights: Weights,
                     grad_coords: np.ndarray, grad_u: np.ndarray
                     ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Gradients of sum(grad_coords * coords) + sum(grad_u * u).

    Returns per-tensor gradients (same names and shapes as the weights)
    and the gradient with respect to the input features.
    """
    _, cache = forward(features, weights)
    return backward(weights, cache, grad_coords, grad_u)


def head_max(z: np.ndarray, heads: int, keep_winner: bool
             ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Running elementwise max over z's `heads` column blocks, and its winner.

    With keep_winner each output's winning head, a small unsigned int, is
    the running maximum of k times `zk > mx`: every earlier winner is
    below k, so it moves to k exactly where head k is strictly greater,
    NaN included, and ties keep the lowest head, as `np.argmax` does on
    finite values.  Otherwise the winner is None.
    """
    n = z.shape[1] // heads
    mx = z[:, :n].copy()
    win = (np.zeros(mx.shape, dtype=np.min_scalar_type(heads - 1))
           if keep_winner else None)
    for k in range(1, heads):
        zk = z[:, k * n:(k + 1) * n]
        if win is not None:
            np.maximum(win, np.multiply(zk > mx, k, dtype=win.dtype),
                       out=win)
        np.maximum(mx, zk, out=mx)
    return mx, win


def forward(features: np.ndarray, weights: Weights,
            keep_cache: bool = True):
    """(M, 4) outputs, coords then u, and the cache `backward` reads.

    Each max layer keeps the elementwise max over heads (`head_max`).
    Bias adds, layer norm and the rectifier write into arrays this call
    made, never into features or the weights.  With keep_cache each
    layer keeps its input, its winning head per output and the
    layer-norm intermediates for `backward`; without it the cache is
    None and no winner is computed.
    """
    cfg = weights.config
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != cfg.width:
        raise ShapeMismatch(
            f"features must be (M, {cfg.width}), got {features.shape}")
    t = weights.tensors
    h = features
    layers = []
    for i in range(1, cfg.layers + 1):
        z = h @ t[f"mhm{i}.w"]
        z += t[f"mhm{i}.b"]
        mx, win = head_max(z, cfg.heads, keep_cache)

        # Layer norm over the feature axis turns mx into xhat in place.
        mx -= mx.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt((mx * mx).mean(axis=1, keepdims=True) + LN_EPS)
        mx *= inv
        if keep_cache:
            layers.append((h, win, mx, inv))
        y = mx * t[f"ln{i}.g"]
        y += t[f"ln{i}.b"]
        h = leaky_relu(y)
    out = h @ t["head.w"]
    out += t["head.b"]
    return out, ((layers, h) if keep_cache else None)


def backward(weights: Weights, cache, grad_coords, grad_u):
    """`regress_backward` on the cache of a `forward` already run.

    Each max layer routes its gradient to the winning head only, by one
    scatter into zeros at column win * width + j of each row.  A layer's
    rectifier passes the gradient where its output, the next layer's
    input, is positive: exactly where its input was.
    """
    cfg = weights.config
    t = weights.tensors
    layers, last = cache
    g_out = np.hstack([np.asarray(grad_coords, dtype=np.float64),
                       np.asarray(grad_u, dtype=np.float64)[:, None]])
    grads: Dict[str, np.ndarray] = {
        "head.w": last.T @ g_out,
        "head.b": g_out.sum(axis=0),
    }
    g_h = g_out @ t["head.w"].T
    a = last
    # Flat offset of (row, head 0, j) in each layer's (M, heads * width)
    # gradient; the winner's block adds win * width.
    row_cols = (np.arange(len(last))[:, None] * (cfg.heads * cfg.width)
                + np.arange(cfg.width))
    for i in range(cfg.layers, 0, -1):
        h, win, xhat, inv = layers[i - 1]
        g_y = g_h * SLOPES.take(a > 0.0)
        a = h

        grads[f"ln{i}.g"] = (g_y * xhat).sum(axis=0)
        grads[f"ln{i}.b"] = g_y.sum(axis=0)
        g_xhat = g_y * t[f"ln{i}.g"]
        # Standard layer-norm backward: remove the mean and the xhat
        # component, both introduced by normalizing over the feature axis.
        g_mx = inv * (g_xhat - g_xhat.mean(axis=1, keepdims=True)
                      - xhat * (g_xhat * xhat).mean(axis=1, keepdims=True))

        cols = np.multiply(win, cfg.width, dtype=np.intp)
        cols += row_cols
        g_z = np.zeros((len(h), cfg.heads * cfg.width))
        g_z.ravel()[cols] = g_mx
        grads[f"mhm{i}.w"] = h.T @ g_z
        grads[f"mhm{i}.b"] = g_z.sum(axis=0)
        g_h = g_z @ t[f"mhm{i}.w"].T
    return grads, g_h
