"""Max-head regressor forward pass and hand-derived gradients."""

from dataclasses import replace

import numpy as np
import pytest

from ringloc.encoder import LEAKY_SLOPE, encode
from ringloc.errors import ShapeMismatch
from ringloc.pipeline import SEED_POSE, localize_scan, rectified_voxels
from ringloc.pose_solve import compensate, estimate_pose_ransac, \
    select_reliable
from ringloc.projection import recover_cartesian
from ringloc.regressor import (LN_EPS, SLOPES, RegressorConfig, backward,
                               forward, head_max, init_regressor_weights,
                               load_regressor_weights, regress,
                               regress_backward, save_regressor_weights)
from ringloc.se3 import invert
from ringloc.simulate import scan_seed


def scalar_loss(feats, weights, gc, gu):
    coords, u = regress(feats, weights)
    return float((gc * coords).sum() + (gu * u).sum())


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_zero_weights_zero_outputs():
    cfg = RegressorConfig(width=8, heads=2, layers=2)
    w = init_regressor_weights(cfg, seed=0)
    for name in w.tensors:
        w.tensors[name] = np.zeros_like(w.tensors[name])
    coords, u = regress(np.random.default_rng(0).normal(size=(5, 8)), w)
    np.testing.assert_array_equal(coords, np.zeros((5, 3)))
    np.testing.assert_array_equal(u, np.zeros(5))


def test_fixed_seed_is_bit_stable():
    cfg = RegressorConfig(width=16, heads=4, layers=3)
    f = np.random.default_rng(1).normal(size=(7, 16))
    a = regress(f, init_regressor_weights(cfg, seed=5))
    b = regress(f, init_regressor_weights(cfg, seed=5))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_head_max_hand_case():
    # Pre-activations [1, 2, 3, 0] split into heads [1, 2] and [3, 0];
    # the elementwise max is [3, 2].
    cfg = RegressorConfig(width=2, heads=2, layers=1)
    w = init_regressor_weights(cfg, seed=0)
    w.tensors["mhm1.w"] = np.array([[1.0, 2.0, 3.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.0]])
    w.tensors["mhm1.b"] = np.zeros(4)
    w.tensors["ln1.g"] = np.ones(2)
    w.tensors["ln1.b"] = np.zeros(2)
    w.tensors["head.w"] = np.array([[1.0, 0.0, 0.0, 0.0],
                                    [0.0, 1.0, 0.0, 0.0]])
    w.tensors["head.b"] = np.zeros(4)
    coords, u = regress(np.array([[1.0, 0.0]]), w)
    mx = np.array([3.0, 2.0])
    xc = mx - mx.mean()
    xhat = xc / np.sqrt((xc * xc).mean() + LN_EPS)
    want = np.where(xhat > 0, xhat, 0.01 * xhat)
    np.testing.assert_allclose(coords[0, :2], want, atol=1e-12)


def test_tied_heads_route_gradient_to_the_lower_head():
    # Two heads with identical weights tie on every output; the max
    # routes the gradient to head 0 only, and inference, which keeps no
    # cache, gives exactly the training forward pass's outputs.
    cfg = RegressorConfig(width=6, heads=2, layers=2)
    w = init_regressor_weights(cfg, seed=10)
    for i in (1, 2):
        w.tensors[f"mhm{i}.w"][:, 6:] = w.tensors[f"mhm{i}.w"][:, :6]
        w.tensors[f"mhm{i}.b"][6:] = w.tensors[f"mhm{i}.b"][:6]
    rng = np.random.default_rng(10)
    f = rng.normal(size=(5, 6))
    grads, _ = regress_backward(f, w, rng.normal(size=(5, 3)),
                                rng.normal(size=5))
    for i in (1, 2):
        assert np.all(grads[f"mhm{i}.b"][:6] != 0.0)
        assert not np.any(grads[f"mhm{i}.w"][:, 6:])
        assert not np.any(grads[f"mhm{i}.b"][6:])
    out, cache = forward(f, w)
    assert cache is not None
    coords, u = regress(f, w)
    assert np.column_stack([coords, u]).tobytes() == out.tobytes()


def winner_cases():
    """(weights, features) with random values, and with exact ties."""
    rng = np.random.default_rng(23)
    for heads in (1, 2, 3, 5):
        cfg = RegressorConfig(width=6, heads=heads, layers=3)
        yield init_regressor_weights(cfg, seed=heads), \
            rng.normal(size=(40, 6))
        # Small integers tie exactly and often across heads.
        w = init_regressor_weights(cfg, seed=heads)
        for name, t in w.tensors.items():
            if name.startswith("mhm"):
                w.tensors[name] = rng.integers(-2, 3, t.shape).astype(float)
        yield w, rng.integers(-2, 3, (40, 6)).astype(float)
    # Heads 1 and 2 copy each other, so their ties fall after head 0.
    cfg = RegressorConfig(width=6, heads=3, layers=2)
    w = init_regressor_weights(cfg, seed=4)
    for i in (1, 2):
        w.tensors[f"mhm{i}.w"][:, 12:] = w.tensors[f"mhm{i}.w"][:, 6:12]
        w.tensors[f"mhm{i}.b"][12:] = w.tensors[f"mhm{i}.b"][6:12]
    yield w, rng.normal(size=(40, 6))
    # Zero affine tensors tie every head everywhere.
    w = init_regressor_weights(cfg, seed=5)
    for name in w.tensors:
        if name.startswith("mhm"):
            w.tensors[name] = np.zeros_like(w.tensors[name])
    yield w, rng.normal(size=(40, 6))


def test_recorded_winner_is_the_lowest_argmax():
    for w, f in winner_cases():
        cfg, t = w.config, w.tensors
        _, (layers, _) = forward(f, w)
        for i, (h, win, _, _) in enumerate(layers, start=1):
            z = h @ t[f"mhm{i}.w"] + t[f"mhm{i}.b"]
            want = np.argmax(z.reshape(len(h), cfg.heads, cfg.width), axis=1)
            assert win.dtype.itemsize == 1
            np.testing.assert_array_equal(win, want)


def copyto_head_max(z, heads):
    """`head_max` recording the winner by a masked copy of k wherever head
    k is strictly greater, as forward did before its running maximum."""
    n = z.shape[1] // heads
    mx = z[:, :n].copy()
    win = np.zeros(mx.shape, dtype=np.min_scalar_type(heads - 1))
    for k in range(1, heads):
        zk = z[:, k * n:(k + 1) * n]
        np.copyto(win, k, where=zk > mx)
        np.maximum(mx, zk, out=mx)
    return mx, win


def route_put_along_axis(g_mx, win, heads):
    """Each output's gradient put along the head axis of an (M, heads,
    width) scratch of zeros."""
    m, width = g_mx.shape
    g_zr = np.zeros((m, heads, width))
    np.put_along_axis(g_zr, win[:, None, :].astype(np.int64),
                      g_mx[:, None, :], axis=1)
    return g_zr.reshape(m, heads * width)


def route_copyto(g_mx, win, heads):
    """One masked copy of the gradient into each head's block of zeros."""
    m, width = g_mx.shape
    g_z = np.zeros((m, heads * width))
    for k in range(heads):
        np.copyto(g_z[:, k * width:(k + 1) * width], g_mx, where=win == k)
    return g_z


def reference_backward(weights, cache, grad_coords, grad_u,
                       route=route_put_along_axis):
    """`backward` as it was before its scatter and slope table: the slope
    by np.where, and each max layer's gradient routed by `route`, one of
    the two routings it used before (put_along_axis, then copyto)."""
    cfg, t = weights.config, weights.tensors
    layers, last = cache
    g_out = np.hstack([grad_coords, grad_u[:, None]])
    grads = {"head.w": last.T @ g_out, "head.b": g_out.sum(axis=0)}
    g_h = g_out @ t["head.w"].T
    a = last
    for i in range(cfg.layers, 0, -1):
        h, win, xhat, inv = layers[i - 1]
        g_y = g_h * np.where(a > 0.0, 1.0, LEAKY_SLOPE)
        a = h
        grads[f"ln{i}.g"] = (g_y * xhat).sum(axis=0)
        grads[f"ln{i}.b"] = g_y.sum(axis=0)
        g_xhat = g_y * t[f"ln{i}.g"]
        g_mx = inv * (g_xhat - g_xhat.mean(axis=1, keepdims=True)
                      - xhat * (g_xhat * xhat).mean(axis=1, keepdims=True))
        g_z = route(g_mx, win, cfg.heads)
        grads[f"mhm{i}.w"] = h.T @ g_z
        grads[f"mhm{i}.b"] = g_z.sum(axis=0)
        g_h = g_z @ t[f"mhm{i}.w"].T
    return grads, g_h


def test_backward_matches_put_along_axis_routing():
    rng = np.random.default_rng(29)
    for w, f in winner_cases():
        gc, gu = rng.normal(size=(len(f), 3)), rng.normal(size=len(f))
        _, cache = forward(f, w)
        grads, g_f = backward(w, cache, gc, gu)
        want, want_f = reference_backward(w, cache, gc, gu)
        assert grads.keys() == want.keys()
        for name in grads:
            assert grads[name].tobytes() == want[name].tobytes(), name
        assert g_f.tobytes() == want_f.tobytes()


# NaN of both signs, infinities, signed zeros and subnormals.
SPECIAL = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                    -5e-324, 2.2e-308, -1e-310])
# Head counts and widths past the small cases: 5 x 64 puts winner columns
# past 255 (a uint8 win * width would wrap), and 64 heads is the bound of
# regressor.heads.  head_max alone also takes 257 heads, whose winner
# needs a uint16.
WIDE = ((1, 3), (3, 4), (5, 64), (64, 2))


def sprinkle(rng, x, share=0.15):
    """x with about `share` of its entries replaced by SPECIAL values."""
    x = x.copy()
    hit = rng.random(x.shape) < share
    x[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return x


def special_z(rng, heads, width, m=24):
    """Head pre-activations: small integers that tie, SPECIAL values, and
    rows rising head by head, so the last head wins every output of row
    0 and ties the one before it on row 1."""
    z = sprinkle(rng, rng.integers(-2, 3, (m, heads * width)).astype(float),
                 share=0.4)
    z[:2] = np.repeat(np.arange(heads, dtype=float), width)
    z[1, (heads - 1) * width:] = heads - 2
    return z


def test_head_max_matches_copyto_winner_on_special_values():
    rng = np.random.default_rng(37)
    for heads, width in WIDE:
        for z in (special_z(rng, heads, width),
                  rng.normal(size=(24, heads * width))):
            with np.errstate(invalid="ignore"):
                mx, win = head_max(z, heads, keep_winner=True)
                plain, none = head_max(z, heads, keep_winner=False)
                want_mx, want = copyto_head_max(z, heads)
            assert win.dtype == want.dtype
            assert win.tobytes() == want.tobytes(), (heads, width)
            assert mx.tobytes() == want_mx.tobytes() == plain.tobytes()
            assert none is None
        assert win.dtype == np.min_scalar_type(heads - 1)
    # The rising rows reach the last head: winner 256 fits only in uint16.
    _, win = head_max(special_z(rng, 257, 2), 257, keep_winner=True)
    assert win.dtype == np.uint16
    assert np.all(win[0] == 256) and np.all(win[1] == 255)


def test_backward_matches_copyto_routing_on_special_values():
    # Caches built by hand put SPECIAL values in every array backward
    # reads, and winners in every head, the last one included.
    rng = np.random.default_rng(41)
    for heads, width in WIDE:
        cfg = RegressorConfig(width=width, heads=heads, layers=2)
        w = init_regressor_weights(cfg, seed=heads)
        m = 12

        def values(*shape):
            return sprinkle(rng, rng.normal(size=shape))

        layers = []
        for _ in range(cfg.layers):
            win = rng.integers(0, heads, (m, width)).astype(
                np.min_scalar_type(heads - 1))
            win[0] = heads - 1
            layers.append((values(m, width), win, values(m, width),
                           values(m, 1)))
        cache = (layers, values(m, width))
        gc, gu = values(m, 3), values(m)
        with np.errstate(all="ignore"):
            grads, g_f = backward(w, cache, gc, gu)
            for route in (route_copyto, route_put_along_axis):
                want, want_f = reference_backward(w, cache, gc, gu, route)
                assert grads.keys() == want.keys()
                for name in grads:
                    assert grads[name].tobytes() == want[name].tobytes(), \
                        (heads, width, route.__name__, name)
                assert g_f.tobytes() == want_f.tobytes()


def special_cases():
    """(weights, features) at WIDE sizes, with features carrying SPECIAL
    values, both for random weights and for small-integer ones that tie."""
    rng = np.random.default_rng(43)
    for heads, width in WIDE:
        cfg = RegressorConfig(width=width, heads=heads, layers=2)
        yield (init_regressor_weights(cfg, seed=heads),
               sprinkle(rng, rng.normal(size=(30, width)), share=0.05))
        w = init_regressor_weights(cfg, seed=heads)
        for name, t in w.tensors.items():
            if name.startswith("mhm"):
                w.tensors[name] = rng.integers(-2, 3, t.shape).astype(float)
        yield w, sprinkle(rng, rng.integers(-2, 3, (30, width)).astype(float),
                          share=0.05)


def test_training_pass_matches_copyto_references():
    # Through forward's own caches: each layer's winner equals the masked
    # copy's on its pre-activations, and backward's gradients equal the
    # copyto routing's, byte for byte.
    rng = np.random.default_rng(47)
    for w, f in [*winner_cases(), *special_cases()]:
        cfg, t = w.config, w.tensors
        gc = sprinkle(rng, rng.normal(size=(len(f), 3)), share=0.05)
        gu = sprinkle(rng, rng.normal(size=len(f)), share=0.05)
        with np.errstate(all="ignore"):
            _, cache = forward(f, w)
            for i, (h, win, _, _) in enumerate(cache[0], start=1):
                _, want = copyto_head_max(h @ t[f"mhm{i}.w"]
                                          + t[f"mhm{i}.b"], cfg.heads)
                assert win.dtype == want.dtype
                assert win.tobytes() == want.tobytes()
            grads, g_f = backward(w, cache, gc, gu)
            want, want_f = reference_backward(w, cache, gc, gu, route_copyto)
        for name in grads:
            assert grads[name].tobytes() == want[name].tobytes(), name
        assert g_f.tobytes() == want_f.tobytes()


def test_slope_table_matches_where_on_special_values():
    # The rectifier's slope, read from SLOPES by a > 0, scales g_h to the
    # same bytes as np.where's choice of 1 or LEAKY_SLOPE.
    a_vals = np.concatenate([SPECIAL, [1.0, -1.0, 1e300, -1e300]])
    g_vals = np.concatenate([SPECIAL, [0.5, -3.0, 1e-300]])
    a, g_h = np.meshgrid(a_vals, g_vals)
    with np.errstate(all="ignore"):
        got = g_h * SLOPES.take(a > 0.0)
        want = g_h * np.where(a > 0.0, 1.0, LEAKY_SLOPE)
    assert got.tobytes() == want.tobytes()


def test_single_head_degenerates_to_affine():
    # With one head the max step passes the affine map through untouched.
    cfg = RegressorConfig(width=3, heads=1, layers=1)
    w = init_regressor_weights(cfg, seed=2)
    f = np.random.default_rng(2).normal(size=(4, 3))
    t = w.tensors
    z = f @ t["mhm1.w"] + t["mhm1.b"]
    mu = z.mean(axis=1, keepdims=True)
    xc = z - mu
    xhat = xc / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + LN_EPS)
    y = xhat * t["ln1.g"] + t["ln1.b"]
    a = np.where(y > 0, y, 0.01 * y)
    want = a @ t["head.w"] + t["head.b"]
    coords, u = regress(f, w)
    np.testing.assert_allclose(np.column_stack([coords, u]), want, atol=1e-12)


def test_single_point_hand_computed_vector():
    # One layer, two heads, width two, every weight written out by hand.
    # The expected vector was evaluated independently from the layer
    # definition (affine, head max, layer norm, leaky, affine head).
    cfg = RegressorConfig(width=2, heads=2, layers=1)
    w = init_regressor_weights(cfg, seed=0)
    w.tensors["mhm1.w"] = np.array([[0.3, -0.2, 0.5, 0.1],
                                    [0.4, 0.6, -0.1, 0.2]])
    w.tensors["mhm1.b"] = np.array([0.05, -0.1, 0.0, 0.2])
    w.tensors["ln1.g"] = np.array([1.5, 0.8])
    w.tensors["ln1.b"] = np.array([0.1, -0.3])
    w.tensors["head.w"] = np.array([[1.0, 0.0, -1.0, 2.0],
                                    [0.5, -0.5, 1.0, 0.0]])
    w.tensors["head.b"] = np.array([0.1, 0.2, 0.3, 0.4])
    coords, u = regress(np.array([[1.0, -0.5]]), w)
    want = [1.6942558149008469, 0.20549934709866538,
            -1.3107538561968428, 3.599510323999024]
    np.testing.assert_allclose(np.append(coords[0], u[0]), want, atol=1e-12)


def test_constant_head_shift_is_invisible():
    # Adding one constant to every head's bias shifts the max by that
    # constant, which the layer norm then removes.
    cfg = RegressorConfig(width=6, heads=3, layers=2)
    w = init_regressor_weights(cfg, seed=3)
    f = np.random.default_rng(3).normal(size=(5, 6))
    base = regress(f, w)
    w.tensors["mhm1.b"] = w.tensors["mhm1.b"] + 2.5
    shifted = regress(f, w)
    np.testing.assert_allclose(shifted[0], base[0], atol=1e-9)
    np.testing.assert_allclose(shifted[1], base[1], atol=1e-9)


def test_permutation_equivariance():
    cfg = RegressorConfig(width=8, heads=2, layers=2)
    w = init_regressor_weights(cfg, seed=4)
    f = np.random.default_rng(4).normal(size=(9, 8))
    perm = np.random.default_rng(5).permutation(9)
    coords, u = regress(f, w)
    pc, pu = regress(f[perm], w)
    np.testing.assert_array_equal(pc, coords[perm])
    np.testing.assert_array_equal(pu, u[perm])


def test_wrong_width_rejected():
    w = init_regressor_weights(RegressorConfig(width=8, heads=2, layers=1),
                               seed=0)
    with pytest.raises(ShapeMismatch):
        regress(np.zeros((3, 5)), w)


def test_zero_upstream_gradient_zeroes_parameters():
    cfg = RegressorConfig(width=6, heads=2, layers=2)
    w = init_regressor_weights(cfg, seed=6)
    f = np.random.default_rng(6).normal(size=(4, 6))
    grads, gf = regress_backward(f, w, np.zeros((4, 3)), np.zeros(4))
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))
    np.testing.assert_array_equal(gf, np.zeros_like(f))


def test_gradcheck_every_parameter_seed0():
    # Central differences at eps=1e-5 against the analytic backward pass,
    # every single parameter of a small seed-0 network.
    cfg = RegressorConfig(width=6, heads=3, layers=2)
    w = init_regressor_weights(cfg, seed=0)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(4, 6))
    gc = rng.normal(size=(4, 3))
    gu = rng.normal(size=4)
    grads, _ = regress_backward(f, w, gc, gu)
    eps = 1e-5
    worst = 0.0
    for name, tensor in w.tensors.items():
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            keep = tensor[i]
            tensor[i] = keep + eps
            hi = scalar_loss(f, w, gc, gu)
            tensor[i] = keep - eps
            lo = scalar_loss(f, w, gc, gu)
            tensor[i] = keep
            worst = max(worst, rel_err(grads[name][i], (hi - lo) / (2 * eps)))
    assert worst <= 1e-4


def test_gradcheck_features_seed0():
    cfg = RegressorConfig(width=5, heads=2, layers=2)
    w = init_regressor_weights(cfg, seed=7)
    rng = np.random.default_rng(7)
    f = rng.normal(size=(3, 5))
    gc = rng.normal(size=(3, 3))
    gu = rng.normal(size=3)
    _, gf = regress_backward(f, w, gc, gu)
    eps = 1e-5
    worst = 0.0
    for i in np.ndindex(f.shape):
        keep = f[i]
        f[i] = keep + eps
        hi = scalar_loss(f, w, gc, gu)
        f[i] = keep - eps
        lo = scalar_loss(f, w, gc, gu)
        f[i] = keep
        worst = max(worst, rel_err(gf[i], (hi - lo) / (2 * eps)))
    assert worst <= 1e-4


def test_gradcheck_100_random_configurations():
    # One random direction per configuration: the directional derivative
    # from central differences must match the analytic gradient dotted
    # with the direction.
    rng = np.random.default_rng(8)
    eps = 1e-6
    worst = 0.0
    for trial in range(100):
        cfg = RegressorConfig(width=int(rng.integers(4, 9)),
                              heads=int(rng.integers(1, 5)),
                              layers=int(rng.integers(1, 4)))
        w = init_regressor_weights(cfg, seed=trial)
        n = int(rng.integers(1, 5))
        f = rng.normal(size=(n, cfg.width))
        gc = rng.normal(size=(n, 3))
        gu = rng.normal(size=n)
        grads, _ = regress_backward(f, w, gc, gu)
        direction = {name: rng.normal(size=t.shape)
                     for name, t in w.tensors.items()}
        analytic = sum(float((grads[name] * d).sum())
                       for name, d in direction.items())
        for name, d in direction.items():
            w.tensors[name] = w.tensors[name] + eps * d
        hi = scalar_loss(f, w, gc, gu)
        for name, d in direction.items():
            w.tensors[name] = w.tensors[name] - 2 * eps * d
        lo = scalar_loss(f, w, gc, gu)
        for name, d in direction.items():
            w.tensors[name] = w.tensors[name] + eps * d
        worst = max(worst, rel_err(analytic, (hi - lo) / (2 * eps)))
    assert worst <= 1e-4


def test_forward_leaves_inputs_unchanged_and_matches_regress():
    cfg = RegressorConfig(width=16, heads=3, layers=3)
    w = init_regressor_weights(cfg, seed=8)
    f = np.random.default_rng(8).normal(size=(40, 16))
    f_before = f.copy()
    tensors = {name: t.copy() for name, t in w.tensors.items()}
    coords, u = regress(f, w)
    train_out, _ = forward(f, w, keep_cache=True)
    infer_out, cache = forward(f, w, keep_cache=False)
    assert cache is None
    assert train_out[:, :3].tobytes() == coords.tobytes()
    assert train_out[:, 3].tobytes() == u.tobytes()
    assert infer_out.tobytes() == train_out.tobytes()
    np.testing.assert_array_equal(f, f_before)
    for name, t in tensors.items():
        np.testing.assert_array_equal(w.tensors[name], t)


def test_weights_save_load_round_trip(tmp_path):
    cfg = RegressorConfig(width=12, heads=3, layers=2)
    w = init_regressor_weights(cfg, seed=9)
    p = tmp_path / "reg.bin"
    save_regressor_weights(p, w)
    back = load_regressor_weights(p)
    assert back.config == cfg
    for name, t in w.tensors.items():
        np.testing.assert_array_equal(back.tensors[name],
                                      t.astype("<f4").astype(np.float64))


def test_localize_regresses_sites_like_every_voxel(std_cfg, sim, enc_weights,
                                                  training):
    # localize_scan regresses each coarse site once and gathers back;
    # regressing every voxel row must give the same frame bit for bit.
    _, _, scans = sim
    weights = training[1][0]
    for i in (0, 33, 66):
        frame_seed = scan_seed(0, i)
        got = localize_scan(scans[i], std_cfg, frame_seed, "regressor",
                            enc_weights, weights)
        _, t_plane, voxels = rectified_voxels(scans[i], std_cfg, frame_seed)
        pred, u = regress(encode(voxels, enc_weights), weights)
        local = recover_cartesian(voxels, std_cfg.projection).xyz
        selected = select_reliable(u, std_cfg.selection)
        est = estimate_pose_ransac(
            local[selected], pred[selected],
            replace(std_cfg.pose, seed=scan_seed(frame_seed, SEED_POSE)))
        want = compensate(est.transform, invert(t_plane))
        assert got.n_selected == len(selected)
        assert np.array_equal(got.pose.inliers, est.inliers)
        assert got.transform.rotation.tobytes() == want.rotation.tobytes()
        assert (got.transform.translation.tobytes()
                == want.translation.tobytes())
