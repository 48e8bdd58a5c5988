"""Reliability selection, Kabsch fits, and the RANSAC pose loop."""
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ringloc import plane, pose_solve
from ringloc.config import standard_bench_config
from ringloc.errors import DegenerateInput, NoConsensus, ShapeMismatch
from ringloc.pose_solve import (FIRST_BLOCK, SAMPLE_SIZE, SCORE_BLOCK,
                                PoseEstimate, RansacPoseParams,
                                SelectionPolicy, _fit_minimal,
                                _hypotheses_needed, _squared_residuals,
                                compensate,
                                distinct_samples, estimate_pose_ransac, kabsch,
                                select_reliable)
from ringloc.pipeline import localize_scan, simulate_trajectory
from ringloc.se3 import (RigidTransform, apply_points, compose, identity,
                         invert, orthonormalize, rotation_about, yaw)

from helpers import reference_stop, spy_consensus


def random_transform(rng) -> RigidTransform:
    raw = RigidTransform(np.eye(3) + 0.5 * rng.standard_normal((3, 3)),
                         rng.uniform(-20.0, 20.0, 3))
    return orthonormalize(raw)


# ---------------------------------------------------------------- selection


def test_small_set_kept_whole():
    u = np.arange(40, dtype=np.float64)
    # ceil(0.25 * 40) = 10 < min_count 50
    got = select_reliable(u, SelectionPolicy())
    assert np.array_equal(got, np.arange(40))


def test_top_quarter_of_large_set():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(400)
    got = select_reliable(u, SelectionPolicy())
    assert len(got) == 100
    assert np.all(np.diff(got) > 0)  # ascending, no repeats
    outside = np.setdiff1d(np.arange(400), got)
    assert u[got].min() >= u[outside].max()


def test_ties_break_toward_lower_index():
    u = np.array([5.0, 3.0, 5.0, 3.0, 5.0])
    got = select_reliable(u, SelectionPolicy(top_fraction=0.4, min_count=1))
    assert np.array_equal(got, [0, 2])


def test_count_is_ceiling_of_fraction():
    u = np.arange(10, dtype=np.float64)
    got = select_reliable(u, SelectionPolicy(top_fraction=0.25, min_count=1))
    assert len(got) == 3  # ceil(2.5)
    assert np.array_equal(got, [7, 8, 9])


def test_empty_scores_give_empty_selection():
    assert len(select_reliable(np.empty(0), SelectionPolicy())) == 0


def reference_select(u, policy):
    """The stable-sort rule select_reliable's selection replaced."""
    u = np.asarray(u, dtype=np.float64)
    n = len(u)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k = int(np.ceil(policy.top_fraction * n))
    if k < policy.min_count:
        return np.arange(n, dtype=np.int64)
    return np.sort(np.argsort(-u, kind="stable")[:k]).astype(np.int64)


SPECIAL_SCORES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])


def selection_cases():
    rng = np.random.default_rng(19)
    for n in (1, 2, 7, 60, 333, 4096, 30_000):
        yield "ties", rng.integers(0, 5, n).astype(np.float64)
        yield "special", rng.choice(SPECIAL_SCORES, n)
        yield "normal", rng.standard_normal(n)
    yield "all nan", np.full(500, np.nan)
    yield "signed zeros", np.tile([0.0, -0.0], 300)
    yield "zeros and nan", np.tile([-0.0, np.nan, 0.0], 200)


@pytest.mark.parametrize("policy", [
    SelectionPolicy(top_fraction=0.25, min_count=1),
    SelectionPolicy(top_fraction=1.0, min_count=1),
    SelectionPolicy(top_fraction=1e-9, min_count=1),  # k = 1
    SelectionPolicy(top_fraction=0.5, min_count=1),
    SelectionPolicy(),  # min_count 50: sets below 200 are kept whole
], ids=["quarter", "all", "k1", "half", "standard"])
def test_selection_matches_the_stable_sort(policy):
    for name, u in selection_cases():
        got = select_reliable(u, policy)
        want = reference_select(u, policy)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), (name, len(u))


def test_policy_validation():
    with pytest.raises(ValueError):
        SelectionPolicy(top_fraction=0.0)
    with pytest.raises(ValueError):
        SelectionPolicy(top_fraction=1.5)
    with pytest.raises(ValueError):
        SelectionPolicy(min_count=0)


# ------------------------------------------------------------------ kabsch


def test_kabsch_identity_when_aligned():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-10.0, 10.0, (30, 3))
    t = kabsch(pts, pts)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(t.translation, 0.0, atol=1e-9)


def test_kabsch_recovers_yaw_and_shift():
    src = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                    [0.0, 0.0, 3.0], [1.0, 1.0, 1.0]])
    truth = RigidTransform(rotation_about([0.0, 0.0, 1.0], np.pi / 2),
                           np.array([1.0, 2.0, 3.0]))
    t = kabsch(src, apply_points(truth, src))
    assert np.allclose(t.rotation, truth.rotation, atol=1e-9)
    assert np.allclose(t.translation, truth.translation, atol=1e-9)


def test_kabsch_planar_points_stay_proper():
    # rank-2 cross covariance: the determinant fix must kick in
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                    [2.0, 3.0, 0.0]])
    truth = RigidTransform(rotation_about([1.0, 0.0, 0.0], 0.4),
                           np.array([-2.0, 0.5, 1.0]))
    t = kabsch(src, apply_points(truth, src))
    assert np.linalg.det(t.rotation) > 0.0
    assert np.allclose(t.rotation, truth.rotation, atol=1e-9)
    assert np.allclose(t.translation, truth.translation, atol=1e-9)


def test_kabsch_random_rigid_motions():
    rng = np.random.default_rng(3)
    for _ in range(20):
        src = rng.uniform(-50.0, 50.0, (12, 3))
        truth = random_transform(rng)
        t = kabsch(src, apply_points(truth, src))
        assert np.allclose(t.rotation, truth.rotation, atol=1e-9)
        assert np.allclose(t.translation, truth.translation, atol=1e-9)


def test_kabsch_beats_random_rotations():
    # least-squares optimality spot check against candidate rotations
    rng = np.random.default_rng(4)
    src = rng.uniform(-5.0, 5.0, (6, 3))
    dst = src + 0.3 * rng.standard_normal((6, 3))
    t = kabsch(src, dst)
    best = np.sum((apply_points(t, src) - dst) ** 2)
    sc, dc = src - src.mean(axis=0), dst - dst.mean(axis=0)
    for _ in range(200):
        r = random_transform(rng).rotation
        assert best <= np.sum((sc @ r.T - dc) ** 2) + 1e-9


def test_kabsch_rejects_collinear_source():
    src = np.outer(np.arange(5.0), [1.0, 2.0, 0.5])
    dst = src + 1.0
    with pytest.raises(DegenerateInput):
        kabsch(src, dst)


def test_kabsch_rejects_tiny_sets():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateInput):
        kabsch(pts, pts)


def test_kabsch_rejects_count_mismatch():
    rng = np.random.default_rng(5)
    with pytest.raises(ShapeMismatch):
        kabsch(rng.standard_normal((4, 3)), rng.standard_normal((5, 3)))


def classic_kabsch(src, dst):
    """The textbook Kabsch on one (n, 3) pair: a (3, 3) cross-covariance
    and its SVD, the determinant corrected through the smallest singular
    direction."""
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = (src - sc).T @ (dst - dc)
    u, svals, vt = np.linalg.svd(h)
    if svals[1] <= 1e-12 * max(svals[0], 1e-300):
        raise DegenerateInput("source points are collinear")
    v = vt.T
    if np.linalg.det(v @ u.T) < 0.0:
        v[:, 2] = -v[:, 2]
    r = v @ u.T
    return RigidTransform(r, dc - r @ sc)


def kabsch_cases():
    """(src, dst) pairs: noisy rigid motions, planar sources, and mirror
    images, whose best orthogonal map is a reflection that the
    determinant correction must turn into a rotation."""
    rng = np.random.default_rng(15)
    mirror = np.diag([1.0, 1.0, -1.0])
    for _ in range(10):
        src = rng.uniform(-10.0, 10.0, (int(rng.integers(3, 40)), 3))
        truth = random_transform(rng)
        yield src, apply_points(truth, src) + 0.1 * rng.standard_normal(
            src.shape)
        planar = src.copy()
        planar[:, 2] = 0.0
        yield planar, apply_points(truth, planar)
        yield src, apply_points(truth, src @ mirror)


def test_kabsch_matches_the_classic_solution():
    for src, dst in kabsch_cases():
        got, want = kabsch(src, dst), classic_kabsch(src, dst)
        np.testing.assert_allclose(got.rotation, want.rotation,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.translation, want.translation,
                                   rtol=0, atol=1e-12)
        assert np.linalg.det(got.rotation) > 0.0


# ------------------------------------------------------------------ ransac


def clean_instance(seed, n=50):
    rng = np.random.default_rng(seed)
    local = rng.uniform(-30.0, 30.0, (n, 3))
    truth = random_transform(rng)
    return local, apply_points(truth, local), truth, rng


def corrupt(pred, rng, count):
    """Displace the last `count` rows well past the inlier threshold."""
    off = rng.standard_normal((count, 3))
    off *= (rng.uniform(5.0, 40.0, count) / np.linalg.norm(off, axis=1))[:, None]
    out = pred.copy()
    out[-count:] += off
    return out


def test_ransac_noiseless_is_exact():
    local, pred, truth, _ = clean_instance(0)
    est = estimate_pose_ransac(local, pred)
    assert isinstance(est, PoseEstimate)
    assert np.allclose(est.transform.rotation, truth.rotation, atol=1e-9)
    assert np.allclose(est.transform.translation, truth.translation, atol=1e-9)
    assert np.array_equal(est.inliers, np.arange(50))
    assert est.rms_residual <= 1e-9


def test_ransac_rejects_outliers():
    local, pred, truth, rng = clean_instance(1, n=100)
    pred = corrupt(pred, rng, 20)
    est = estimate_pose_ransac(local, pred)
    assert np.allclose(est.transform.rotation, truth.rotation, atol=1e-6)
    assert np.allclose(est.transform.translation, truth.translation, atol=1e-6)
    assert np.array_equal(est.inliers, np.arange(80))


def test_ransac_threshold_is_inclusive_boundary():
    # a displacement under 2x threshold can be split by a compromise fit,
    # so the clearly-outside point sits far past that
    local, pred, truth, _ = clean_instance(2, n=60)
    pred[0] += [0.4999, 0.0, 0.0]  # just inside the 0.5 m gate
    pred[1] += [3.0, 0.0, 0.0]
    est = estimate_pose_ransac(local, pred)
    assert 0 in est.inliers
    assert 1 not in est.inliers


def test_ransac_rms_matches_recomputation():
    local, pred, truth, rng = clean_instance(3, n=80)
    pred += 0.05 * rng.standard_normal(pred.shape)
    est = estimate_pose_ransac(local, pred)
    res = np.linalg.norm(apply_points(est.transform, local) - pred, axis=1)
    assert np.all(res[est.inliers] <= 0.5)
    want = float(np.sqrt(np.mean(res[est.inliers] ** 2)))
    assert est.rms_residual == pytest.approx(want, abs=1e-12)


def test_ransac_too_few_correspondences():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(NoConsensus):
        estimate_pose_ransac(pts, pts)


def test_ransac_deterministic_per_seed():
    local, pred, _, rng = clean_instance(4, n=100)
    pred = corrupt(pred, rng, 40)
    a = estimate_pose_ransac(local, pred)
    b = estimate_pose_ransac(local, pred)
    assert np.array_equal(a.transform.rotation, b.transform.rotation)
    assert np.array_equal(a.transform.translation, b.transform.translation)
    assert np.array_equal(a.inliers, b.inliers)
    assert a.rms_residual == b.rms_residual


def test_ransac_heavy_outliers_twenty_trials():
    # 40 of 100 correspondences displaced by 5 to 40 m
    for seed in range(20):
        local, pred, truth, rng = clean_instance(100 + seed, n=100)
        pred = corrupt(pred, rng, 40)
        est = estimate_pose_ransac(local, pred)
        assert np.linalg.norm(est.transform.translation
                              - truth.translation) <= 1e-4
        assert np.allclose(est.transform.rotation, truth.rotation, atol=1e-6)
        assert np.array_equal(est.inliers, np.arange(60))


def test_ransac_length_mismatch():
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeMismatch):
        estimate_pose_ransac(rng.standard_normal((5, 3)),
                             rng.standard_normal((6, 3)))


# ------------------------------------------- blocked scoring vs reference


def reference_scores(local, pred, params):
    """Hypotheses, (K, n) residual norms, inlier mask and counts, scored
    over one (K, n, 3) residual tensor in a single pass, then cut to the
    hypotheses the stop rule scores."""
    rng = np.random.default_rng(params.seed)
    samples = distinct_samples(rng, len(local), params.iterations, SAMPLE_SIZE)
    rot, trans, valid = _fit_minimal(local[samples], pred[samples])
    resid = np.einsum("kij,nj->kni", rot, local) + trans[:, None, :] - pred
    resid = np.linalg.norm(resid, axis=2)
    inlier_mask = resid <= params.threshold
    counts = np.where(valid, inlier_mask.sum(axis=1), 0)
    end = reference_stop(counts, len(local))
    return rot[:end], trans[:end], resid[:end], inlier_mask[:end], counts[:end]


def reference_pose_ransac(local, pred, params):
    """estimate_pose_ransac with whole-table scoring, the stop rule applied
    to the whole table afterwards, and a per-candidate RMS tie-break loop;
    the winner is refit on one sample and its inliers are re-chosen by
    squared residual against threshold^2."""
    rot, trans, resid, inlier_mask, counts = reference_scores(local, pred,
                                                              params)
    best_count = counts.max()
    if best_count < SAMPLE_SIZE:
        raise NoConsensus("too few inliers")
    candidates = np.flatnonzero(counts == best_count)
    cand_rms = [
        float(np.sqrt(np.mean(resid[c, inlier_mask[c]] ** 2)))
        for c in candidates
    ]
    best = int(candidates[int(np.argmin(cand_rms))])
    rot, trans = rot[best], trans[best]
    inliers = np.flatnonzero(inlier_mask[best])
    r, t, ok = _fit_minimal(local[None, inliers], pred[None, inliers])
    if ok[0]:
        rot, trans = r[0], t[0]
    refit_d2 = _squared_residuals(rot[None], trans[None], local, pred)[0]
    inliers = np.flatnonzero(refit_d2 <= params.threshold ** 2)
    if len(inliers) < SAMPLE_SIZE:
        raise NoConsensus("refit collapsed the consensus set")
    rms = float(np.sqrt(np.mean(refit_d2[inliers])))
    return PoseEstimate(RigidTransform(rot, trans), inliers.astype(np.int64),
                        rms)


def noisy_instance(seed, n, outliers, sigma):
    local, pred, _, rng = clean_instance(seed, n=n)
    pred = corrupt(pred + sigma * rng.standard_normal(pred.shape), rng,
                   outliers)
    return local, pred


def tie_break_decides(local, pred, params):
    """True when the lowest-RMS hypothesis among those tied at the top
    inlier count keeps other inliers than the first one drawn."""
    _, _, resid, inlier_mask, counts = reference_scores(local, pred, params)
    tied = np.flatnonzero(counts == counts.max())
    rms = [np.sqrt(np.mean(resid[c, inlier_mask[c]] ** 2)) for c in tied]
    winner = tied[int(np.argmin(rms))]
    return not np.array_equal(inlier_mask[winner], inlier_mask[tied[0]])


def assert_same_estimate(local, pred, params):
    try:
        want = reference_pose_ransac(local, pred, params)
    except NoConsensus:
        with pytest.raises(NoConsensus):
            estimate_pose_ransac(local, pred, params)
        return
    got = estimate_pose_ransac(local, pred, params)
    assert np.array_equal(got.transform.rotation, want.transform.rotation)
    assert np.array_equal(got.transform.translation,
                          want.transform.translation)
    assert np.array_equal(got.inliers, want.inliers)
    assert got.inliers.dtype == want.inliers.dtype
    assert got.rms_residual == want.rms_residual


ITERATION_COUNTS = [1, FIRST_BLOCK - 1, FIRST_BLOCK, FIRST_BLOCK + 1,
                    SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 300]


@pytest.mark.parametrize("iterations", ITERATION_COUNTS)
def test_blocked_scoring_matches_reference(iterations):
    # The 46-outlier instances often find their first inliers after the
    # first block, so the bound falls below what was fitted ahead, and a
    # search that scored past it could pick a later winner.
    instances = [(200 + seed, 120, 40, 0.2, seed) for seed in range(6)]
    instances += [(seed, 100, 46, 0.1, seed) for seed in range(60)]
    for instance, n, outliers, sigma, seed in instances:
        local, pred = noisy_instance(instance, n=n, outliers=outliers,
                                     sigma=sigma)
        params = RansacPoseParams(iterations=iterations, seed=seed)
        assert_same_estimate(local, pred, params)


@pytest.mark.parametrize("iterations", ITERATION_COUNTS)
def test_blocked_tie_break_matches_reference(iterations):
    # 70 % outliers and noise near the gate: hypotheses tied at the top
    # inlier count keep different inlier sets, so the tie-break decides
    # which set the winner is refit over.
    local, pred = noisy_instance(0, n=100, outliers=70, sigma=0.25)
    assert tie_break_decides(local, pred, RansacPoseParams(iterations=300))
    assert_same_estimate(local, pred, RansacPoseParams(iterations=iterations))


def test_collinear_inliers_keep_the_minimal_sample_motion():
    # 50 points on the x axis predicted exactly and 5 off it predicted
    # 1.1 m off in y.  Only a sample with an off-axis point is valid, yet
    # the winner's inliers all lie on the axis: Kabsch cannot refit a
    # line, so the search keeps the winning sample's motion.
    local = np.zeros((55, 3))
    local[:50, 0] = np.linspace(-10.0, 10.0, 50)
    local[50:] = [(-8, 1, 0.5), (-3, 1, -0.5), (2, 1, 0.7), (6, 1, -0.2),
                  (9, 1, 0.1)]
    pred = local.copy()
    pred[50:, 1] += 1.1
    est = estimate_pose_ransac(local, pred)
    assert len(est.inliers) == 40 and est.inliers.max() < 50
    with pytest.raises(DegenerateInput):
        kabsch(local[est.inliers], pred[est.inliers])
    assert_same_estimate(local, pred, RansacPoseParams())


# ----------------------------------------------------------- early stop


@pytest.fixture
def fitted_rows(monkeypatch):
    """Samples passed to _fit_minimal, one entry per call: the hypothesis
    blocks, then the winner's one-sample refit."""
    rows = []

    def spy(src, dst):
        rows.append(len(src))
        return _fit_minimal(src, dst)

    monkeypatch.setattr(pose_solve, "_fit_minimal", spy)
    return rows


def outlier_instance(seed, n):
    """Predictions drawn apart from the local points, a hundred times
    farther out, so no rigid motion puts any of them inside the gate."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-30.0, 30.0, (n, 3)),
            rng.uniform(-3000.0, 3000.0, (n, 3)))


def test_clean_input_fits_one_block(fitted_rows):
    # w = 0.95 after the first block: the bound is about 3.5 hypotheses.
    local, pred, truth, rng = clean_instance(10, n=100)
    pred = corrupt(pred, rng, 5)
    est = estimate_pose_ransac(local, pred)
    assert fitted_rows == [FIRST_BLOCK, 1]
    assert np.array_equal(est.inliers, np.arange(95))
    assert np.allclose(est.transform.rotation, truth.rotation, atol=1e-9)


def test_noiseless_input_stops_without_a_warning(fitted_rows):
    # w = 1, where the bound's log(1 - w^3) would be log(0).
    local, pred, truth, _ = clean_instance(11, n=60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_pose_ransac(local, pred)
    assert fitted_rows == [FIRST_BLOCK, 1]
    assert np.array_equal(est.inliers, np.arange(60))


def test_all_outliers_fit_every_hypothesis(fitted_rows):
    # w = 0, where the bound's log(1 - w^3) would be 0: never stop early,
    # and fit everything after the first block in one call.
    local, pred = outlier_instance(12, n=80)
    params = RansacPoseParams()
    assert reference_scores(local, pred, params)[4].max() == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConsensus):
            estimate_pose_ransac(local, pred, params)
    assert fitted_rows == [FIRST_BLOCK, params.iterations - FIRST_BLOCK]


def test_bound_between_blocks_ends_a_block_at_the_bound(monkeypatch,
                                                        fitted_rows):
    # Instance 13 has half its correspondences outliers, and the first
    # block finds w = 0.5: the bound is 51.7 hypotheses, so the search
    # fits up to 52 in one call and scores a full block, then one that
    # ends at 52.  Instance 1 (46 outliers) finds no inlier in the first
    # block, so the search fits up to the cap; the second block finds
    # w = 0.54, whose bound of 40.3 ends the third after one hypothesis.
    for instance, outliers, sigma, seed, first_best, fitted, last in [
            (13, 50, 0.0, 0, 50, 52, 12), (1, 46, 0.1, 1, 0, 300, 1)]:
        local, pred = noisy_instance(instance, n=100, outliers=outliers,
                                     sigma=sigma)
        params = RansacPoseParams(seed=seed)
        counts = reference_scores(local, pred, params)[4]
        assert counts[:FIRST_BLOCK].max() == first_best
        assert len(counts) == FIRST_BLOCK + SCORE_BLOCK + last
        fitted_rows.clear()
        seen = spy_consensus(monkeypatch, pose_solve)
        assert_same_estimate(local, pred, params)
        assert fitted_rows == [FIRST_BLOCK, fitted - FIRST_BLOCK, 1]
        assert seen["scored"] == [FIRST_BLOCK, SCORE_BLOCK, last]


def test_three_quarters_inliers_score_to_the_bound(monkeypatch):
    # w = 0.75 after the first block: the bound is 12.6 hypotheses, so
    # the search scores 8 and then 5, where one block of 32 scored 32.
    seen = spy_consensus(monkeypatch, pose_solve)
    local, pred = noisy_instance(16, n=100, outliers=25, sigma=0.0)
    est = estimate_pose_ransac(local, pred)
    assert seen["scored"] == [FIRST_BLOCK, 5]
    assert seen["best"] == [(75, 100)]
    assert np.array_equal(est.inliers, np.arange(75))


@pytest.mark.parametrize("first, block", [(1, 1), (32, 32), (300, 300)])
def test_block_sizes_leave_a_full_search_unchanged(monkeypatch, first,
                                                    block):
    # At w = 0.12 the bound exceeds the 300-hypothesis cap, so every
    # hypothesis is scored, and the tie-break decides the winner; the
    # winner rule does not see where one block ends.
    local, pred = noisy_instance(2, n=100, outliers=78, sigma=0.15)
    assert tie_break_decides(local, pred, RansacPoseParams())
    seen = spy_consensus(monkeypatch, pose_solve)
    want = estimate_pose_ransac(local, pred)
    assert seen["scored"] == [FIRST_BLOCK] + [SCORE_BLOCK] * 9 + [4]
    monkeypatch.setattr(pose_solve, "FIRST_BLOCK", first)
    monkeypatch.setattr(pose_solve, "SCORE_BLOCK", block)
    got = estimate_pose_ransac(local, pred)
    assert np.array_equal(got.transform.rotation, want.transform.rotation)
    assert np.array_equal(got.transform.translation,
                          want.transform.translation)
    assert np.array_equal(got.inliers, want.inliers)
    assert got.rms_residual == want.rms_residual


def test_dense_oracle_frame_scores_only_what_the_bound_asks(monkeypatch):
    # One 1024x32 frame: the plane search (w = 0.74) and the pose search
    # (w = 1) each stop at the first block end that reaches the bound,
    # where a first block of SCORE_BLOCK scored 32 each.
    cfg = standard_bench_config()
    cfg = replace(cfg, sensor=replace(cfg.sensor, n_azimuth=1024,
                                      n_elevation=32))
    scan = simulate_trajectory(cfg, 0, [0])[2][0]
    searches = {"plane": spy_consensus(monkeypatch, plane),
                "pose": spy_consensus(monkeypatch, pose_solve)}
    localize_scan(scan, cfg, 0)
    for name, seen in searches.items():
        [(count, n)] = seen["best"]
        bound = math.ceil(_hypotheses_needed(count / n))
        assert sum(seen["scored"]) <= max(FIRST_BLOCK, bound), name
        assert sum(seen["scored"]) < SCORE_BLOCK, name


def test_scoring_memory_stays_within_a_few_blocks():
    # 27.5k all-outlier correspondences score every block; the (300, n)
    # table of every hypothesis alone would take 66 MB.
    local, pred = outlier_instance(14, n=27_500)
    bound = 8 * SCORE_BLOCK * len(local) * 8  # bytes
    tracemalloc.start()
    try:
        with pytest.raises(NoConsensus):
            estimate_pose_ransac(local, pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


# -------------------------------------------------------------- compensate


def test_compensate_identity_prior_is_noop():
    rng = np.random.default_rng(7)
    t_star = random_transform(rng)
    got = compensate(t_star, identity())
    assert np.allclose(got.rotation, t_star.rotation, atol=1e-12)
    assert np.allclose(got.translation, t_star.translation, atol=1e-12)


def test_compensate_cancels_the_prior():
    rng = np.random.default_rng(8)
    for _ in range(10):
        t_star = random_transform(rng)
        t_plane = random_transform(rng)
        got = compensate(t_star, t_plane)
        back = compose(got, t_plane)
        assert np.allclose(back.rotation, t_star.rotation, atol=1e-9)
        assert np.allclose(back.translation, t_star.translation, atol=1e-9)


def test_compensate_round_trips_a_rectified_estimate():
    # estimate fit in a rectified frame, then mapped back to the raw frame
    rng = np.random.default_rng(9)
    t_plane = RigidTransform(rotation_about([0.0, 1.0, 0.0], 0.1),
                             np.array([0.0, 0.0, 1.5]))
    t_raw_to_world = random_transform(rng)
    local = rng.uniform(-20.0, 20.0, (40, 3))
    rectified = apply_points(t_plane, local)
    world = apply_points(t_raw_to_world, local)
    t_star = kabsch(rectified, world)  # world from rectified
    got = compensate(t_star, invert(t_plane))  # back onto rectified input
    assert np.allclose(apply_points(compose(got, invert(t_plane)), rectified),
                       world, atol=1e-9)
    final = compose(t_star, t_plane)
    assert np.allclose(apply_points(final, local), world, atol=1e-9)


def test_compensate_with_pure_yaw_prior():
    t_star = yaw(np.pi / 3)
    t_plane = yaw(np.pi / 6)
    got = compensate(t_star, t_plane)
    assert np.allclose(got.rotation, yaw(np.pi / 6).rotation, atol=1e-12)
    assert np.allclose(got.translation, 0.0, atol=1e-12)
