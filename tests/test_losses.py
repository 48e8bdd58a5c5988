"""Reliability-weighted loss, its gradients, and the comparison losses."""

import math

import numpy as np
import pytest

from ringloc.errors import ShapeMismatch
from ringloc.losses import (CLAMP, K_SCALE, MATCHING_FLOOR, calibrate_scores,
                            distance_residuals, matching_loss,
                            mean_distance_loss, reliability_loss,
                            reliability_loss_gradients, reliability_weights)


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_scale_constants_are_the_stated_expressions():
    assert K_SCALE == math.log(10.0) / math.pi
    assert CLAMP == 10.0 * math.pi


def test_residual_basics():
    assert distance_residuals(np.array([[1.0, 2.0, 3.0]]),
                              np.array([[1.0, 2.0, 3.0]]))[0] == 0.0
    assert distance_residuals(np.array([[3.0, 4.0, 0.0]]),
                              np.zeros((1, 3)))[0] == 5.0


def test_residual_matches_componentwise_norm():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
    d = a - b
    want = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)
    np.testing.assert_allclose(distance_residuals(a, b), want, atol=1e-12)


def test_calibrate_zero_and_one():
    us, uc = calibrate_scores(np.array([0.0, 1.0]))
    assert us[0] == 0.0 and uc[0] == 0.0
    assert us[1] == pytest.approx(math.log(10.0) / 4.0, abs=1e-15)
    assert us[1] == uc[1]


def test_calibrate_beyond_clamp():
    us, uc = calibrate_scores(np.array([100.0]))
    assert us[0] == pytest.approx(1.1439634348054375, abs=1e-12)
    assert uc[0] == pytest.approx(1.1279703564369987, abs=1e-12)
    assert us[0] > uc[0]


def test_calibrate_equal_inside_clamp_only():
    u = np.array([-CLAMP, -5.0, 0.0, 5.0, CLAMP, CLAMP + 1.0, -CLAMP - 1.0])
    us, uc = calibrate_scores(u)
    inside = np.abs(u) <= CLAMP
    np.testing.assert_array_equal(us[inside], uc[inside])
    assert np.all(us[~inside] != uc[~inside])


def test_uniform_scores_give_uniform_weights():
    w = reliability_weights(np.full(8, 2.5))
    np.testing.assert_allclose(w, np.full(8, 0.125), atol=1e-12)


def test_extreme_pair_ratio_stays_under_ten():
    w = reliability_weights(np.array([CLAMP, -CLAMP]))
    ratio = w[0] / w[1]
    assert ratio == pytest.approx(9.544267503728872, abs=1e-10)
    assert ratio < 10.0


def test_weight_ratio_bound_over_random_vectors():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-CLAMP, CLAMP, size=100)
        w = reliability_weights(u)
        worst = max(worst, w.max() / w.min())
        assert abs(w.sum() - 1.0) <= 1e-9
    assert worst <= 10.0


def test_weights_sum_above_one_past_clamp():
    # A score beyond the clamp inflates its numerator while the
    # denominator stays frozen at the clamped value.
    w = reliability_weights(np.array([11.0 * math.pi, 0.0]))
    assert w.sum() > 1.0


def test_total_reduces_to_mean_for_equal_scores():
    rng = np.random.default_rng(2)
    pred, gt = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    b = reliability_loss(pred, gt, np.full(6, 1.3))
    assert b.total == pytest.approx(
        mean_distance_loss(pred, gt, np.zeros(6)).total, abs=1e-12)


def test_unit_residuals_total_equals_weight_sum():
    pred = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    gt = np.zeros((2, 3))
    u = np.array([3.0, -40.0])
    b = reliability_loss(pred, gt, u)
    assert b.total == pytest.approx(float(b.weights.sum()), abs=1e-12)


def test_three_point_hand_case():
    # Frozen from an independent evaluation of the weight and total
    # formulas; the third score sits past the clamp on purpose.
    pred = np.array([[3.0, 4.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
    gt = np.zeros((3, 3))
    u = np.array([0.5, -2.0, 40.0])
    b = reliability_loss(pred, gt, u)
    np.testing.assert_allclose(
        b.weights,
        [0.28445099656810585, 0.08995130318599535, 0.6287351665559272],
        atol=1e-9)
    assert b.total == pytest.approx(2.9181008582902304, abs=1e-9)
    assert b.n_clamped == 1


def test_length_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        reliability_loss(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        reliability_loss(np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        mean_distance_loss(np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        matching_loss(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(4))


def test_total_strictly_increases_past_clamp():
    pred = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]])
    gt = np.zeros((3, 3))
    totals = []
    for bump in (0.0, 0.5, 2.0, 8.0, 30.0):
        u = np.array([0.3, -0.7, CLAMP + bump])
        totals.append(reliability_loss(pred, gt, u).total)
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_gradients_match_central_differences():
    # 200 seeded instances; scores drawn wide enough to land on both
    # sides of the clamp, then nudged off the clamp kink and the zero
    # kink so the finite differences stay on one branch.
    rng = np.random.default_rng(3)
    eps = 1e-6
    worst = 0.0
    saw_outside = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pred = rng.normal(scale=2.0, size=(n, 3))
        gt = rng.normal(scale=2.0, size=(n, 3))
        near = distance_residuals(pred, gt) < 1e-3
        pred[near] += 0.5
        u = rng.uniform(-40.0, 40.0, size=n)
        at_kink = np.abs(np.abs(u) - CLAMP) < 1e-2
        u[at_kink] += 0.05
        saw_outside += int(np.any(np.abs(u) > CLAMP))
        g_pred, g_u = reliability_loss_gradients(pred, gt, u)

        def total(p=pred, s=u):
            return reliability_loss(p, gt, s).total

        for i in np.ndindex(pred.shape):
            keep = pred[i]
            pred[i] = keep + eps
            hi = total()
            pred[i] = keep - eps
            lo = total()
            pred[i] = keep
            worst = max(worst, rel_err(g_pred[i], (hi - lo) / (2 * eps)))
        for i in range(n):
            keep = u[i]
            u[i] = keep + eps
            hi = total()
            u[i] = keep - eps
            lo = total()
            u[i] = keep
            worst = max(worst, rel_err(g_u[i], (hi - lo) / (2 * eps)))
    assert worst <= 1e-4
    assert saw_outside > 50  # the clamp region was actually exercised


def test_below_average_point_wants_more_reliability():
    pred = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0]])
    gt = np.zeros((2, 3))
    g_u = reliability_loss(pred, gt, np.zeros(2)).grad_u
    assert g_u[0] < 0.0  # raising u of the low-loss point lowers the total
    assert g_u[1] > 0.0


def test_gradient_survives_far_past_clamp():
    pred = np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.0]])
    gt = np.zeros((2, 3))
    for sign in (1.0, -1.0):
        u = np.array([sign * 2.0 * CLAMP, 0.0])
        g_u = reliability_loss(pred, gt, u).grad_u
        assert abs(g_u[0]) > 0.0


def test_zero_distance_subgradient_is_zero():
    pred = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
    gt = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    g_pred = reliability_loss(pred, gt, np.zeros(2)).grad_pred
    np.testing.assert_array_equal(g_pred[0], np.zeros(3))
    assert np.linalg.norm(g_pred[1]) > 0.0


def test_one_score_step_rebalances_toward_low_loss():
    pred = np.array([[0.2, 0.0, 0.0], [2.0, 0.0, 0.0]])
    gt = np.zeros((2, 3))
    u = np.zeros(2)
    w0 = reliability_weights(u)
    g_u = reliability_loss(pred, gt, u).grad_u
    w1 = reliability_weights(u - 0.1 * g_u)
    assert w1[0] > w0[0]
    assert w1[1] < w0[1]


def test_mean_loss_basics_and_gradients():
    rng = np.random.default_rng(4)
    pred, gt = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    u = np.zeros(5)

    def total(p):
        return mean_distance_loss(p, gt, u).total

    assert total(gt) == 0.0
    single = mean_distance_loss(pred[:1], gt[:1], u[:1]).total
    assert single == pytest.approx(distance_residuals(pred[:1], gt[:1])[0])
    assert total(pred) == pytest.approx(
        float(distance_residuals(pred, gt).mean()), abs=1e-12)

    b = mean_distance_loss(pred, gt, u)
    g_pred = b.grad_pred
    np.testing.assert_array_equal(b.grad_u, np.zeros(5))
    np.testing.assert_allclose(b.weights, np.full(5, 0.2), atol=1e-15)
    eps = 1e-6
    for i in np.ndindex(pred.shape):
        keep = pred[i]
        pred[i] = keep + eps
        hi = total(pred)
        pred[i] = keep - eps
        lo = total(pred)
        pred[i] = keep
        assert rel_err(g_pred[i], (hi - lo) / (2 * eps)) <= 1e-4


def test_matching_weights_floor_and_uniform():
    def weights(sigma):
        n = len(sigma)
        return matching_loss(np.ones((n, 3)), np.zeros((n, 3)), sigma).weights

    w = weights(np.zeros(4))
    np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-12)
    # sigma at the cap falls back to the 0.01 floor before normalizing.
    w = weights(np.array([0.0, 1.0]))
    np.testing.assert_allclose(w * (1.0 + MATCHING_FLOOR), [1.0, 0.01],
                               atol=1e-12)


def test_matching_sigma_zero_reduces_to_mean():
    rng = np.random.default_rng(5)
    pred, gt = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    assert matching_loss(pred, gt, np.zeros(6)).total == pytest.approx(
        mean_distance_loss(pred, gt, np.zeros(6)).total, abs=1e-12)


def test_matching_three_point_hand_case():
    pred = np.array([[3.0, 4.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
    gt = np.zeros((3, 3))
    total = matching_loss(pred, gt, np.array([0.0, 0.5, 1.0])).total
    assert total == pytest.approx(3.6571925031622503, abs=1e-9)


def test_matching_gradients_match_central_differences():
    rng = np.random.default_rng(6)
    eps = 1e-6
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        pred = rng.normal(scale=2.0, size=(n, 3))
        gt = rng.normal(scale=2.0, size=(n, 3))
        near = distance_residuals(pred, gt) < 1e-3
        pred[near] += 0.5
        sigma = rng.uniform(-0.5, 1.5, size=n)
        # stay off the weight-floor kink at SIGMA_MAX - sigma = 0.01
        at_kink = np.abs(1.0 - sigma - MATCHING_FLOOR) < 1e-2
        sigma[at_kink] -= 0.05
        b = matching_loss(pred, gt, sigma)
        g_pred, g_sigma = b.grad_pred, b.grad_u

        for i in np.ndindex(pred.shape):
            keep = pred[i]
            pred[i] = keep + eps
            hi = matching_loss(pred, gt, sigma).total
            pred[i] = keep - eps
            lo = matching_loss(pred, gt, sigma).total
            pred[i] = keep
            worst = max(worst, rel_err(g_pred[i], (hi - lo) / (2 * eps)))
        for i in range(n):
            keep = sigma[i]
            sigma[i] = keep + eps
            hi = matching_loss(pred, gt, sigma).total
            sigma[i] = keep - eps
            lo = matching_loss(pred, gt, sigma).total
            sigma[i] = keep
            worst = max(worst, rel_err(g_sigma[i], (hi - lo) / (2 * eps)))
    assert worst <= 1e-4
