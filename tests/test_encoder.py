"""Cyclic sparse convolution and the toy encoder stack."""

from itertools import product

import numpy as np
import pytest

from ringloc.encoder import (CUBE, DOWN, UP, EncoderConfig, Level, encode,
                             init_encoder_weights, initial_features,
                             leaky_relu, load_encoder_weights, max_pool2,
                             save_encoder_weights, sparse_conv)
from ringloc.errors import EmptyGrid, ParseError
from ringloc.projection import INDEX_BOUND, VoxelCloud


def make_level(coords, feats, ring):
    """Level of the given distinct sites plus their features in row order."""
    level, site = Level.of(np.asarray(coords, dtype=np.int64), ring)
    x = np.empty((len(level.coords), np.shape(feats)[1]))
    x[site] = feats
    return level, x


def random_grid(ring=16, n=40, cin=3, seed=0, y_range=(0, 12), z_range=(-4, 6)):
    rng = np.random.default_rng(seed)
    seen = set()
    coords = []
    while len(coords) < n:
        c = (int(rng.integers(0, ring)),
             int(rng.integers(*y_range)), int(rng.integers(*z_range)))
        if c not in seen:
            seen.add(c)
            coords.append(c)
    feats = rng.normal(size=(n, cin))
    return make_level(coords, feats, ring)


def stride1(level, x, offsets, weights, bias):
    return sparse_conv(x, level.neighbors(level.coords, offsets), weights, bias)


def conv_oracle(level, x, offsets, weights, bias):
    """Per-site sum over offset neighbors, ring axis wrapped modulo."""
    table = {tuple(c): f for c, f in zip(level.coords, x)}
    out = np.tile(bias, (len(x), 1)).astype(np.float64)
    for r, c in enumerate(level.coords):
        for v, off in enumerate(offsets):
            nb = ((int(c[0] + off[0])) % level.ring_cells,
                  int(c[1] + off[1]), int(c[2] + off[2]))
            f = table.get(nb)
            if f is not None:
                out[r] += f @ weights[v]
    return out


def make_voxels(indices, intensity=None, ring=64, delta=0.2):
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indices)
    if intensity is None:
        intensity = np.zeros(n)
    return VoxelCloud(indices, np.zeros((n, 3)), np.asarray(intensity),
                      np.arange(n), ring_cells=ring, voxel_size=delta)


def test_level_sorts_canonically_and_looks_up():
    level, site = Level.of(np.array([[3, 0, 0], [0, 1, -2], [0, 1, 5]]), 8)
    assert level.coords.tolist() == [[0, 1, -2], [0, 1, 5], [3, 0, 0]]
    assert site.tolist() == [2, 0, 1]
    queries = np.array([[3, 0, 0], [7, 7, 7], [8, 1, 5]])  # 8 wraps to 0
    assert level.neighbors(queries, np.zeros((1, 3), dtype=np.int64)
                           ).tolist() == [[2, -1, 1]]


def test_offsets_orderings():
    assert CUBE[0].tolist() == [-1, -1, -1]
    assert CUBE[13].tolist() == [0, 0, 0]
    assert CUBE[26].tolist() == [1, 1, 1]
    assert DOWN.tolist() == list(list(t) for t in product((0, 1), repeat=3))
    assert UP.tolist() == list(list(t) for t in product((0, -1), repeat=3))
    assert (2 * CUBE)[0].tolist() == [-2, -2, -2]


def test_identity_kernel_is_identity():
    level, x = random_grid(seed=1, cin=4)
    w = np.zeros((27, 4, 4))
    w[13] = np.eye(4)
    np.testing.assert_array_equal(stride1(level, x, CUBE, w, np.zeros(4)), x)


def test_seam_neighbor_contributes_across_wrap():
    # A voxel in the last ring cell must see one in cell 0 as a neighbor.
    level, x = make_level([[0, 2, 3], [15, 2, 3]], [[27.0], [0.0]], 16)
    w = np.full((27, 1, 1), 1.0 / 27.0)
    out = stride1(level, x, CUBE, w, np.zeros(1))
    row_last = int(np.flatnonzero(level.coords[:, 0] == 15)[0])
    assert out[row_last, 0] == pytest.approx(1.0)


def test_pointwise_kernel_hand_case():
    level, x = make_level([[1, 0, 0], [5, 2, 1]], [[1.0, 2.0], [-0.5, 0.25]], 8)
    w = np.array([[[0.5, -1.0], [2.0, 0.0]]])  # (1, 2, 2)
    b = np.array([0.1, -0.2])
    out = stride1(level, x, np.zeros((1, 3), dtype=np.int64), w, b)
    np.testing.assert_allclose(out, x @ w[0] + b, atol=1e-15)


def test_stride1_matches_dense_reference():
    rng = np.random.default_rng(2)
    level, x = random_grid(seed=2, cin=3)
    w, b = rng.normal(size=(27, 3, 5)), rng.normal(size=5)
    np.testing.assert_allclose(stride1(level, x, CUBE, w, b),
                               conv_oracle(level, x, CUBE, w, b), atol=1e-12)


def test_dilated_matches_dense_reference():
    rng = np.random.default_rng(3)
    level, x = random_grid(seed=3, cin=2, ring=16)
    w, b = rng.normal(size=(27, 2, 2)), rng.normal(size=2)
    np.testing.assert_allclose(stride1(level, x, 2 * CUBE, w, b),
                               conv_oracle(level, x, 2 * CUBE, w, b),
                               atol=1e-12)


def test_transposed_k2_matches_dense_reference():
    rng = np.random.default_rng(4)
    level, x = random_grid(seed=4, cin=3, ring=16)
    w, b = rng.normal(size=(8, 3, 3)), rng.normal(size=3)
    np.testing.assert_allclose(stride1(level, x, UP, w, b),
                               conv_oracle(level, x, UP, w, b), atol=1e-12)


def test_stride2_matches_dense_reference():
    rng = np.random.default_rng(5)
    child, x = random_grid(seed=5, cin=3, ring=16)
    w, b = rng.normal(size=(8, 3, 4)), rng.normal(size=4)
    parent, _ = child.halve()
    assert parent.ring_cells == 8
    out = sparse_conv(x, child.neighbors(2 * parent.coords, DOWN), w, b)

    table = {tuple(c): f for c, f in zip(child.coords, x)}
    parents = sorted({(c[0] >> 1, c[1] >> 1, c[2] >> 1)
                      for c in map(tuple, child.coords)})
    want = np.tile(b, (len(parents), 1)).astype(np.float64)
    for r, p in enumerate(parents):
        for v, off in enumerate(DOWN):
            c = (2 * p[0] + off[0], 2 * p[1] + off[1], 2 * p[2] + off[2])
            f = table.get(c)
            if f is not None:
                want[r] += f @ w[v]
    np.testing.assert_array_equal(parent.coords, np.array(parents))
    np.testing.assert_allclose(out, want, atol=1e-12)


def im2col_conv(feats, neighbor_rows, weights, bias):
    """The earlier sparse conv: gather every (offset, site) slot into one
    dense block, zeros where the neighbor is absent, and one matmul."""
    v, m = neighbor_rows.shape
    block = feats[neighbor_rows.clip(min=0)]
    block[neighbor_rows < 0] = 0.0
    block = block.transpose(1, 0, 2).reshape(m, v * feats.shape[1])
    return block @ weights.reshape(-1, weights.shape[2]) + bias


def seam_and_isolated_grid(seed, ring=32, cin=5):
    """A random grid plus a wall across the ring seam and two lone sites."""
    level, x = random_grid(ring=ring, n=60, cin=cin, seed=seed)
    extra = [[ring - 1, 20, 0], [0, 20, 0], [1, 20, 0], [ring - 1, 21, 1],
             [ring // 2, 40, 30], [3, -30, -20]]
    rng = np.random.default_rng(seed + 100)
    return make_level(np.vstack([level.coords, extra]),
                      np.vstack([x, rng.normal(size=(len(extra), cin))]), ring)


@pytest.mark.parametrize("offsets, stride",
                         [(CUBE, 1), (2 * CUBE, 1), (DOWN, 2), (UP, 1)],
                         ids=["CUBE", "2*CUBE", "DOWN", "UP"])
def test_kernel_map_conv_matches_im2col(offsets, stride):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        level, x = seam_and_isolated_grid(seed)
        centers = level.coords if stride == 1 else 2 * level.halve()[0].coords
        table = level.neighbors(centers, offsets)
        assert np.any(table < 0) and np.any(table >= 0)
        w, b = rng.normal(size=(len(offsets), 5, 7)), rng.normal(size=7)
        want = im2col_conv(x, table, w, b)
        got = sparse_conv(x, table, w, b)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stride2_site_rule():
    # Parent sites are exactly the floor-halved child sites, so negative
    # heights round toward minus infinity.
    child, _ = Level.of(np.array([[3, 1, -1], [2, 0, -2]]), 8)
    parent, parent_rows = child.halve()
    assert parent.coords.tolist() == [[1, 0, -1]]
    assert parent_rows.tolist() == [0, 0]


def test_conv_linearity_at_zero_bias():
    rng = np.random.default_rng(6)
    level, x = random_grid(seed=6, cin=3)
    w = rng.normal(size=(27, 3, 3))
    np.testing.assert_allclose(stride1(level, 2.0 * x, CUBE, w, np.zeros(3)),
                               2.0 * stride1(level, x, CUBE, w, np.zeros(3)),
                               atol=1e-9)


def test_conv_ignores_absolute_height():
    level, x = random_grid(seed=7, cin=3)
    shifted, xs = make_level(level.coords + [0, 0, 7], x, level.ring_cells)
    rng = np.random.default_rng(7)
    w, b = rng.normal(size=(27, 3, 3)), rng.normal(size=3)
    np.testing.assert_array_equal(stride1(level, x, CUBE, w, b),
                                  stride1(shifted, xs, CUBE, w, b))


def test_empty_grid_rejected():
    with pytest.raises(EmptyGrid):
        encode(make_voxels(np.zeros((0, 3))), init_encoder_weights(seed=0))


def test_sites_at_the_index_bound_encode():
    # The bound that io.read_voxel_csv enforces is exactly what packs.
    edge = [[0, INDEX_BOUND - 1, -INDEX_BOUND], [5, 1, 0]]
    feats = encode(make_voxels(edge), init_encoder_weights(seed=0))
    assert feats.shape == (2, 64) and np.all(np.isfinite(feats))
    with pytest.raises(ParseError):
        encode(make_voxels([[0, INDEX_BOUND, 0]]), init_encoder_weights(seed=0))


def test_max_pool_matches_reference():
    child, x = random_grid(seed=9, cin=3, ring=16)
    parent, parent_rows = child.halve()
    out = max_pool2(x, parent_rows, len(parent.coords))
    assert parent.ring_cells == 8
    groups = {}
    for c, f in zip(child.coords, x):
        groups.setdefault((c[0] >> 1, c[1] >> 1, c[2] >> 1), []).append(f)
    parents = sorted(groups)
    want = np.array([np.max(groups[p], axis=0) for p in parents])
    np.testing.assert_array_equal(parent.coords, np.array(parents))
    np.testing.assert_array_equal(out, want)


def test_initial_features_drop_the_ring_coordinate():
    v = make_voxels([[5, 6, -2]], intensity=[0.3])
    np.testing.assert_allclose(initial_features(v), [[1.2, -0.4, 0.3]])
    a = make_voxels([[5, 6, -2], [41, 6, -2]], intensity=[0.3, 0.3])
    f = initial_features(a)
    np.testing.assert_array_equal(f[0], f[1])


def test_encode_zero_weights_zero_output():
    cfg = EncoderConfig()
    w = init_encoder_weights(cfg, seed=0)
    for name in w.tensors:
        w.tensors[name] = np.zeros_like(w.tensors[name])
    v = make_voxels([[0, 10, 2]], intensity=[0.5])
    out = encode(v, w)
    assert out.shape == (1, cfg.output_width)
    np.testing.assert_array_equal(out, np.zeros((1, cfg.output_width)))


def test_encode_deterministic():
    w = init_encoder_weights(seed=0)
    idx = np.unique(np.random.default_rng(10).integers(0, 30, (30, 3))
                    % [64, 30, 8], axis=0)
    v = make_voxels(idx, intensity=np.full(len(idx), 0.5))
    a = encode(v, w)
    b = encode(v, init_encoder_weights(seed=0))
    np.testing.assert_array_equal(a, b)


def test_encode_rejects_bad_ring_and_padding():
    w = init_encoder_weights(seed=0)
    with pytest.raises(ParseError):
        encode(make_voxels([[0, 1, 1]], ring=24), w)


def test_encode_rows_follow_input_order():
    rng = np.random.default_rng(11)
    idx = np.unique(np.column_stack([rng.integers(0, 64, 50),
                                     rng.integers(0, 30, 50),
                                     rng.integers(0, 8, 50)]), axis=0)
    inten = rng.uniform(0, 1, len(idx))
    v = make_voxels(idx, inten)
    w = init_encoder_weights(seed=1)
    base = encode(v, w)
    perm = rng.permutation(len(idx))
    vp = VoxelCloud(idx[perm], np.zeros((len(idx), 3)), inten[perm],
                    np.arange(len(idx)), ring_cells=64, voxel_size=0.2)
    np.testing.assert_array_equal(encode(vp, w), base[perm])


def test_encode_shift_equivariance_on_grid():
    rng = np.random.default_rng(12)
    idx = np.unique(np.column_stack([rng.integers(0, 64, 60),
                                     rng.integers(5, 35, 60),
                                     rng.integers(-3, 9, 60)]), axis=0)
    inten = rng.uniform(0, 1, len(idx))
    w = init_encoder_weights(seed=2)
    base = encode(make_voxels(idx, inten), w)
    for delta in (16, 32, 48):
        shifted = idx.copy()
        shifted[:, 0] = (shifted[:, 0] + delta) % 64
        moved = encode(make_voxels(shifted, inten), w)
        assert np.abs(moved - base).max() <= 1e-5


def test_encode_seam_straddle_equals_rotated_copy():
    # The same three-cell wall, once across the seam and once in the
    # middle of the ring, must encode identically.
    idx = np.array([[63, 10, 2], [0, 10, 2], [1, 10, 2],
                    [63, 11, 2], [0, 11, 3]])
    inten = np.linspace(0.1, 0.9, len(idx))
    w = init_encoder_weights(seed=3)
    at_seam = encode(make_voxels(idx, inten), w)
    moved_idx = idx.copy()
    moved_idx[:, 0] = (moved_idx[:, 0] + 16) % 64
    away = encode(make_voxels(moved_idx, inten), w)
    assert np.abs(at_seam - away).max() <= 1e-5


def test_weights_save_load_round_trip(tmp_path):
    w = init_encoder_weights(seed=4)
    p = tmp_path / "enc.bin"
    save_encoder_weights(p, w)
    back = load_encoder_weights(p)
    assert back.config == w.config
    for name, t in w.tensors.items():
        np.testing.assert_array_equal(back.tensors[name],
                                      t.astype("<f4").astype(np.float64))


def test_init_respects_fan_in_bound():
    w = init_encoder_weights(seed=5)
    assert np.abs(w.tensors["stage1.a.w"]).max() <= 1.0 / np.sqrt(27 * 8)
    assert np.abs(w.tensors["stem.proj.w"]).max() <= 1.0 / np.sqrt(3)
    again = init_encoder_weights(seed=5)
    np.testing.assert_array_equal(w.tensors["stage3.b.w"],
                                  again.tensors["stage3.b.w"])


def test_leaky_slope():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(leaky_relu(x), [-0.02, 0.0, 3.0])
