"""Per-voxel coordinate and reliability regressor.

A stack of multi-head max layers: each layer projects the feature to
`heads` candidate vectors and keeps the elementwise max across heads,
followed by layer normalization and a leaky rectifier.  A final affine
layer emits four numbers per voxel: the predicted world coordinate and a
raw reliability score u.

Forward and backward passes are written out by hand, all plain batched
matmuls.  Inference takes the plain max over heads and keeps nothing
for a backward pass.  Training's forward pass also records the winning
head inside the running max, where a head replaces the max only when it
is strictly greater, so exact ties keep the lowest head; the max routes
gradient to that head alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .encoder import LEAKY_SLOPE, leaky_relu
from .errors import ParseError, ShapeMismatch
from .io import read_tensors, write_tensors
from .keys import Section, key

LN_EPS = 1e-5
N_OUTPUTS = 4  # x, y, z, reliability


@dataclass
class RegressorConfig(Section):
    width: int = key(64, "feature width carried between layers", ge=1)
    heads: int = key(4, "candidate vectors per max layer", ge=1)
    layers: int = key(5, "stacked max layers", ge=1)


@dataclass
class RegressorWeights:
    config: RegressorConfig
    tensors: Dict[str, np.ndarray]


def _regressor_layout(cfg: RegressorConfig) -> List[Tuple[str, Tuple[int, ...]]]:
    layout: List[Tuple[str, Tuple[int, ...]]] = []
    for i in range(1, cfg.layers + 1):
        layout += [
            (f"mhm{i}.w", (cfg.width, cfg.heads * cfg.width)),
            (f"mhm{i}.b", (cfg.heads * cfg.width,)),
            (f"ln{i}.g", (cfg.width,)),
            (f"ln{i}.b", (cfg.width,)),
        ]
    layout += [("head.w", (cfg.width, N_OUTPUTS)), ("head.b", (N_OUTPUTS,))]
    return layout


def init_regressor_weights(config: Optional[RegressorConfig] = None,
                           seed: int = 0) -> RegressorWeights:
    """Uniform +-1/sqrt(fan_in) for affine tensors; norms start at (1, 0)."""
    config = config or RegressorConfig()
    rng = np.random.default_rng(seed)
    tensors: Dict[str, np.ndarray] = {}
    for name, shape in _regressor_layout(config):
        if name.startswith("ln"):
            tensors[name] = (np.ones(shape) if name.endswith(".g")
                             else np.zeros(shape))
            continue
        bound = 1.0 / np.sqrt(config.width)
        tensors[name] = rng.uniform(-bound, bound, size=shape)
    return RegressorWeights(config, tensors)


def save_regressor_weights(path, weights: RegressorWeights) -> None:
    write_tensors(path, [(n, weights.tensors[n])
                         for n, _ in _regressor_layout(weights.config)])


def load_regressor_weights(path) -> RegressorWeights:
    tensors = read_tensors(path)
    layers = sum(1 for n in tensors if n.startswith("mhm") and n.endswith(".w"))
    try:
        width, kn = tensors["mhm1.w"].shape
        config = RegressorConfig(width, kn // width, layers)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: not a regressor weight file "
                         f"({type(exc).__name__}: {exc})") from exc
    expected = {n: s for n, s in _regressor_layout(config)}
    if expected != {n: t.shape for n, t in tensors.items()}:
        raise ParseError(f"{path}: weight file shapes do not form a valid "
                         f"regressor")
    return RegressorWeights(config, tensors)


def regress(features: np.ndarray, weights: RegressorWeights
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Predict (coords (M, 3), reliability u (M,)) from (M, N) features."""
    out, _ = forward(features, weights, keep_cache=False)
    return out[:, :3].copy(), out[:, 3].copy()


def regress_backward(features: np.ndarray, weights: RegressorWeights,
                     grad_coords: np.ndarray, grad_u: np.ndarray
                     ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Gradients of sum(grad_coords * coords) + sum(grad_u * u).

    Returns per-tensor gradients (same names and shapes as the weights)
    and the gradient with respect to the input features.
    """
    _, cache = forward(features, weights)
    return backward(weights, cache, grad_coords, grad_u)


def forward(features: np.ndarray, weights: RegressorWeights,
            keep_cache: bool = True):
    """(M, 4) outputs, coords then u, and the cache `backward` reads.

    Each max layer keeps the plain elementwise max over heads, a running
    maximum over the heads' column blocks.  Bias adds, layer norm and the
    rectifier write into arrays this call made, never into features or
    the weights.  With keep_cache each layer keeps its input, its
    winning head per output and the layer-norm intermediates for
    `backward`; without it the cache is None and no winner is computed.
    The winner, one small unsigned integer per output, is recorded as
    the running max moves, so for finite values it is the head
    `np.argmax` over heads picks: the lowest on ties.
    """
    cfg = weights.config
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != cfg.width:
        raise ShapeMismatch(
            f"features must be (M, {cfg.width}), got {features.shape}")
    t = weights.tensors
    n = cfg.width
    h = features
    layers = []
    for i in range(1, cfg.layers + 1):
        z = h @ t[f"mhm{i}.w"]
        z += t[f"mhm{i}.b"]
        mx = z[:, :n].copy()
        if keep_cache:
            win = np.zeros(mx.shape, dtype=np.min_scalar_type(cfg.heads - 1))
        for k in range(1, cfg.heads):
            zk = z[:, k * n:(k + 1) * n]
            if keep_cache:  # strict: a tie keeps the lower head
                np.copyto(win, k, where=zk > mx)
            np.maximum(mx, zk, out=mx)

        # Layer norm over the feature axis turns mx into xhat in place.
        mx -= mx.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt((mx * mx).mean(axis=1, keepdims=True) + LN_EPS)
        mx *= inv
        if keep_cache:
            layers.append((h, win, mx, inv))
        y = mx * t[f"ln{i}.g"]
        y += t[f"ln{i}.b"]
        h = leaky_relu(y, out=y)
    out = h @ t["head.w"]
    out += t["head.b"]
    return out, ((layers, h) if keep_cache else None)


def backward(weights: RegressorWeights, cache, grad_coords, grad_u):
    """`regress_backward` on the cache of a `forward` already run.

    Each max layer routes its gradient to the winning head only, by one
    masked copy into each head's column block of zeros.  A layer's
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
    for i in range(cfg.layers, 0, -1):
        h, win, xhat, inv = layers[i - 1]
        g_y = g_h * np.where(a > 0.0, 1.0, LEAKY_SLOPE)
        a = h

        grads[f"ln{i}.g"] = (g_y * xhat).sum(axis=0)
        grads[f"ln{i}.b"] = g_y.sum(axis=0)
        g_xhat = g_y * t[f"ln{i}.g"]
        # Standard layer-norm backward: remove the mean and the xhat
        # component, both introduced by normalizing over the feature axis.
        g_mx = inv * (g_xhat - g_xhat.mean(axis=1, keepdims=True)
                      - xhat * (g_xhat * xhat).mean(axis=1, keepdims=True))

        g_z = np.zeros((len(h), cfg.heads * cfg.width))
        for k in range(cfg.heads):
            np.copyto(g_z[:, k * cfg.width:(k + 1) * cfg.width], g_mx,
                      where=win == k)
        grads[f"mhm{i}.w"] = h.T @ g_z
        grads[f"mhm{i}.b"] = g_z.sum(axis=0)
        g_h = g_z @ t[f"mhm{i}.w"].T
    return grads, g_h
