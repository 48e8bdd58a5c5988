"""Cyclic sparse convolution and the toy encoder stack."""

from itertools import product

import numpy as np
import pytest

from ringloc.encoder import (CUBE, DOWN, UP, EncoderConfig, KernelMap, Level,
                             encode, encode_sites, init_encoder_weights,
                             initial_features, leaky_relu, max_pool2,
                             sparse_conv)
from ringloc.errors import EmptyGrid, ParseError
from ringloc.io import init_weights, load_weights, save_weights
from ringloc.projection import INDEX_BOUND, VoxelCloud
from ringloc.regressor import RegressorConfig, init_regressor_weights

STD = EncoderConfig()  # the standard widths


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
    return sparse_conv(x, level.neighbors(offsets), weights, bias)


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
    # The site itself, then one step forward and one back across the seam.
    kmap = level.neighbors(np.array([[0, 0, 0], [5, 1, -2], [-5, -1, 2]]))
    assert kmap.n_out == 3
    (same_out, same_in), (fwd_out, fwd_in), (back_out, back_in) = kmap.pairs
    assert same_out is None and same_in.tolist() == [0, 1, 2]
    assert (fwd_out.tolist(), fwd_in.tolist()) == ([2], [0])  # 3+5 -> 0
    assert (back_out.tolist(), back_in.tolist()) == ([0], [2])  # 0-5 -> 3


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
    parent, _, down = child.halve()
    assert parent.ring_cells == 8
    out = sparse_conv(x, down, w, b)

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


def dense_table(kmap):
    """The (V, n_out) input row of each output per offset, -1 if absent."""
    table = np.full((len(kmap.pairs), kmap.n_out), -1)
    for k, (out_rows, in_rows) in enumerate(kmap.pairs):
        table[k, slice(None) if out_rows is None else out_rows] = in_rows
    return table


def brute_force_table(level, offsets, stride):
    """(V, n_out) table by dict lookup: the outputs are the level's own
    sites (stride 1, ring wrapped modulo) or its halved parents (stride
    2, reading child 2 * parent + offset)."""
    rows = {tuple(c): r for r, c in enumerate(level.coords.tolist())}
    if stride == 1:
        centers = level.coords.tolist()
    else:
        centers = sorted({(x >> 1, y >> 1, z >> 1)
                          for x, y, z in level.coords.tolist()})
    table = np.full((len(offsets), len(centers)), -1)
    for k, (dx, dy, dz) in enumerate(offsets.tolist()):
        for r, (x, y, z) in enumerate(centers):
            if stride == 2:
                nb = (2 * x + dx, 2 * y + dy, 2 * z + dz)
            else:
                nb = ((x + dx) % level.ring_cells, y + dy, z + dz)
            table[k, r] = rows.get(nb, -1)
    return table


def kernel_map(level, offsets, stride):
    return level.neighbors(offsets) if stride == 1 else level.halve()[2]


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
    extra = [[ring - 2, 20, 0], [ring - 1, 20, 0], [0, 20, 0], [1, 20, 0],
             [ring - 1, 21, 1],
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
        table = brute_force_table(level, offsets, stride)
        assert np.any(table < 0) and np.any(table >= 0)
        w, b = rng.normal(size=(len(offsets), 5, 7)), rng.normal(size=7)
        want = im2col_conv(x, table, w, b)
        got = sparse_conv(x, kernel_map(level, offsets, stride), w, b)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("offsets, stride",
                         [(CUBE, 1), (2 * CUBE, 1), (DOWN, 2), (UP, 1)],
                         ids=["CUBE", "2*CUBE", "DOWN", "UP"])
def test_kernel_map_equals_brute_force_lookup(offsets, stride):
    # Rings of 16 and 32, each halved down to one cell: rings of 2 and
    # 1 are narrower than the dilated +-2 steps.
    levels = []
    for seed in range(4):
        level, _ = seam_and_isolated_grid(seed, ring=16 << seed % 2)
        levels.append(level)
        while level.ring_cells > 1:
            level = level.halve()[0]
            levels.append(level)
    for level in levels:
        kmap = kernel_map(level, offsets, stride)
        want = brute_force_table(level, offsets, stride)
        np.testing.assert_array_equal(dense_table(kmap), want)
        for (out_rows, in_rows), rows in zip(kmap.pairs, want):
            assert (out_rows is None) == bool(np.all(rows >= 0))
            if out_rows is not None:
                assert np.all(np.diff(out_rows) > 0)
                assert len(in_rows) == len(out_rows)


def test_dilated_map_wraps_both_ways_across_the_seam():
    level, _ = make_level([[14, 3, 0], [15, 3, 0], [0, 3, 0], [1, 3, 0]],
                          np.zeros((4, 1)), 16)
    rows = {tuple(c): r for r, c in enumerate(level.coords.tolist())}
    table = dense_table(level.neighbors(np.array([[2, 0, 0], [-2, 0, 0]])))
    assert table[0, rows[14, 3, 0]] == rows[0, 3, 0]
    assert table[0, rows[15, 3, 0]] == rows[1, 3, 0]
    assert table[1, rows[0, 3, 0]] == rows[14, 3, 0]
    assert table[1, rows[1, 3, 0]] == rows[15, 3, 0]


def brute_force_neighbors(level, offsets):
    """Level.neighbors by dict lookup, ring wrapped modulo."""
    table = brute_force_table(level, offsets, 1)
    pairs = []
    for rows in table:
        out_rows = np.flatnonzero(rows >= 0)
        pairs.append((None if len(out_rows) == len(rows) else out_rows,
                      rows[out_rows]))
    return KernelMap(len(level.keys), pairs)


def test_encode_at_the_narrowest_ring_matches_dict_lookup(monkeypatch):
    # At ring_cells = 16 the coarsest ring is one cell, so every ring
    # step of the dilated stages goes round the whole ring.
    rng = np.random.default_rng(14)
    idx = np.unique(np.column_stack([rng.integers(0, 16, 60),
                                     rng.integers(0, 40, 60),
                                     rng.integers(-6, 10, 60)]), axis=0)
    v = make_voxels(idx, rng.uniform(0, 1, len(idx)), ring=16)
    w = init_encoder_weights(STD, seed=7)
    got = encode(v, w)
    monkeypatch.setattr(Level, "neighbors", brute_force_neighbors)
    np.testing.assert_array_equal(got, encode(v, w))


def test_stride2_site_rule():
    # Parent sites are exactly the floor-halved child sites, so negative
    # heights round toward minus infinity.
    child, _ = Level.of(np.array([[3, 1, -1], [2, 0, -2]]), 8)
    parent, parent_rows, _ = child.halve()
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
        encode(make_voxels(np.zeros((0, 3))),
               init_encoder_weights(STD, seed=0))


def test_sites_at_the_index_bound_encode():
    # The bound that io.read_voxel_csv enforces is exactly what packs.
    edge = [[0, INDEX_BOUND - 1, -INDEX_BOUND], [5, 1, 0]]
    weights = init_encoder_weights(STD, seed=0)
    feats = encode(make_voxels(edge), weights)
    assert feats.shape == (2, 64) and np.all(np.isfinite(feats))
    with pytest.raises(ParseError):
        encode(make_voxels([[0, INDEX_BOUND, 0]]), weights)


B = INDEX_BOUND


@pytest.mark.parametrize("coords, ring, offsets", [
    ([[0, B - 1, 0], [3, 0, 0]], 64, UP),
    ([[5, 0, 0], [9, 1, 1]], 1 << 22, CUBE),
    ([[B - 1, 0, 0]], 1 << 22, UP),
], ids=["y-top-up", "no-wrap", "x-top-up"])
def test_neighbor_table_at_the_range_edge(coords, ring, offsets):
    # Every neighbor stays in the packable range, the precondition of
    # Level.neighbors, which it does not check.
    level, _ = Level.of(np.array(coords), ring)
    np.testing.assert_array_equal(dense_table(level.neighbors(offsets)),
                                  brute_force_table(level, offsets, 1))


def test_max_pool_matches_reference():
    child, x = random_grid(seed=9, cin=3, ring=16)
    parent, _, down = child.halve()
    out = max_pool2(x, down)
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
    w = init_encoder_weights(STD, seed=0)
    idx = np.unique(np.random.default_rng(10).integers(0, 30, (30, 3))
                    % [64, 30, 8], axis=0)
    v = make_voxels(idx, intensity=np.full(len(idx), 0.5))
    a = encode(v, w)
    b = encode(v, init_encoder_weights(STD, seed=0))
    np.testing.assert_array_equal(a, b)


def test_encode_rejects_bad_ring_and_padding():
    # A ring the four stride-2 stages cannot halve is no voxel grid, so
    # the encoder never sees one.
    with pytest.raises(ValueError, match="multiple of 16"):
        make_voxels([[0, 1, 1]], ring=24)


def test_encode_rows_follow_input_order():
    rng = np.random.default_rng(11)
    idx = np.unique(np.column_stack([rng.integers(0, 64, 50),
                                     rng.integers(0, 30, 50),
                                     rng.integers(0, 8, 50)]), axis=0)
    inten = rng.uniform(0, 1, len(idx))
    v = make_voxels(idx, inten)
    w = init_encoder_weights(STD, seed=1)
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
    w = init_encoder_weights(STD, seed=2)
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
    w = init_encoder_weights(STD, seed=3)
    at_seam = encode(make_voxels(idx, inten), w)
    moved_idx = idx.copy()
    moved_idx[:, 0] = (moved_idx[:, 0] + 16) % 64
    away = encode(make_voxels(moved_idx, inten), w)
    assert np.abs(at_seam - away).max() <= 1e-5


def test_encode_leaves_its_inputs_and_weights_unchanged():
    rng = np.random.default_rng(13)
    idx = np.column_stack([rng.integers(0, 64, 80), rng.integers(-5, 30, 80),
                           rng.integers(-4, 9, 80)])
    v = make_voxels(idx, rng.uniform(0, 1, len(idx)))
    w = init_encoder_weights(STD, seed=6)
    before = [a.copy() for a in (v.indices, v.points, v.intensity,
                                 v.source_index)]
    tensors = {name: t.copy() for name, t in w.tensors.items()}
    site_feats, rows = encode_sites(v, w)
    np.testing.assert_array_equal(encode(v, w), site_feats[rows])
    for got, want in zip((v.indices, v.points, v.intensity, v.source_index),
                         before):
        np.testing.assert_array_equal(got, want)
    for name, t in tensors.items():
        np.testing.assert_array_equal(w.tensors[name], t)


def test_weights_save_load_round_trip(tmp_path):
    w = init_encoder_weights(STD, seed=4)
    p = tmp_path / "enc.bin"
    save_weights(p, w)
    back = load_weights(p, "encoder", EncoderConfig.from_tensors)
    assert back.config == w.config
    for name, t in w.tensors.items():
        np.testing.assert_array_equal(back.tensors[name],
                                      t.astype("<f4").astype(np.float64))


def test_init_respects_fan_in_bound():
    w = init_encoder_weights(STD, seed=5)
    assert np.abs(w.tensors["stage1.a.w"]).max() <= 1.0 / np.sqrt(27 * 8)
    assert np.abs(w.tensors["stem.proj.w"]).max() <= 1.0 / np.sqrt(3)
    again = init_encoder_weights(STD, seed=5)
    np.testing.assert_array_equal(w.tensors["stage3.b.w"],
                                  again.tensors["stage3.b.w"])


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("widths", [(), (8, (2, 4, 6, 8, 10), 12)],
                         ids=["standard", "narrow"])
def test_init_encoder_weights_is_the_unmemoized_draw(widths, seed):
    # The first call may draw or hit the memo; the second surely hits it.
    cfg = EncoderConfig(*widths)
    want = init_weights(cfg, seed).tensors
    for _ in range(2):
        got = init_encoder_weights(cfg, seed)
        assert got.config is cfg
        assert list(got.tensors) == list(want)
        for name, t in want.items():
            assert got.tensors[name].tobytes() == t.tobytes(), name


def test_memoized_encoder_tensors_are_read_only():
    w = init_encoder_weights(STD, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        w.tensors["stem.proj.w"][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        w.tensors["stage1.a.b"] += 1.0


def test_rebinding_a_tensor_changes_only_that_callers_weights():
    w = init_encoder_weights(STD, seed=0)
    before = w.tensors["stem.proj.w"].copy()
    w.tensors["stem.proj.w"] = np.zeros_like(before)
    again = init_encoder_weights(STD, seed=0).tensors["stem.proj.w"]
    assert again.tobytes() == before.tobytes()


def test_regressor_init_stays_writeable():
    # Training updates the regressor's tensors in place, so its draw is
    # not memoized.
    w = init_regressor_weights(RegressorConfig(), seed=0)
    assert all(t.flags.writeable for t in w.tensors.values())


def test_leaky_slope():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(leaky_relu(x), [-0.02, 0.0, 3.0])
