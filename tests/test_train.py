"""Toy training loop: descent mechanics, telemetry, quartile ranking."""
import numpy as np
import pytest

from ringloc import pipeline
from ringloc.config import PipelineConfig
from ringloc.encoder import init_encoder_weights
from ringloc.errors import EmptyScan
from ringloc.losses import distance_residuals
from ringloc.regressor import RegressorConfig, init_regressor_weights, \
    regress, regress_backward
from ringloc.pipeline import simulate_trajectory
from ringloc.simulate import CLASS_AMBIGUOUS, CLASS_RELIABLE, simulate_scans
from ringloc.train import (LOSS_KINDS, LOSSES, N_QUARTILES, TrainingSet,
                           build_training_set, evaluate_quartiles,
                           quartile_errors, train_regressor)


def tiny_set(seed=0, n=40, width=64):
    rng = np.random.default_rng(seed)
    return TrainingSet(
        features=rng.standard_normal((n, width)),
        targets=rng.uniform(-5.0, 5.0, (n, 3)),
        classes=rng.integers(0, 2, n),
        scan_ids=np.repeat([0, 1], n // 2),
    )


def weights_equal(a, b):
    return all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)


def test_zero_learning_rate_leaves_weights_alone():
    cfg = PipelineConfig()
    cfg.train.lr = 0.0
    w, tel = train_regressor(tiny_set(), cfg, "trr", epochs=3)
    init = init_regressor_weights(cfg.regressor, seed=cfg.train.seed)
    assert weights_equal(w, init)
    assert len(tel) == 3
    assert tel[0].loss == tel[1].loss == tel[2].loss


def test_zero_epochs_returns_seeded_init():
    cfg = PipelineConfig()
    w, tel = train_regressor(tiny_set(), cfg, "mean", epochs=0)
    assert weights_equal(w, init_regressor_weights(cfg.regressor,
                                                   seed=cfg.train.seed))
    assert tel == []


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_one_step_reduces_every_loss(kind):
    cfg = PipelineConfig()
    cfg.train.lr = 0.0005
    cfg.train.decay = 1.0
    _, tel = train_regressor(tiny_set(), cfg, kind, epochs=2)
    assert tel[1].loss < tel[0].loss


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_step_matches_two_call_reference(kind):
    # The reference runs regress, the loss and regress_backward, which
    # redoes the forward pass: one forward per step must not change a bit.
    cfg, tset = PipelineConfig(), tiny_set()
    got, tel = train_regressor(tset, cfg, kind, epochs=2)

    ref = init_regressor_weights(cfg.regressor, seed=cfg.train.seed)
    lr, want = cfg.train.lr, []
    for epoch in range(2):
        total, clamped = 0.0, 0
        accum = {k: np.zeros_like(t) for k, t in ref.tensors.items()}
        slices = tset.scan_slices()
        for rows in slices:
            pred, u = regress(tset.features[rows], ref)
            loss = LOSSES[kind](pred, tset.targets[rows], u)
            grads, _ = regress_backward(tset.features[rows], ref,
                                        loss.grad_pred, loss.grad_u)
            for k, g in grads.items():
                accum[k] += g
            total += loss.total
            clamped += loss.n_clamped
        for k in ref.tensors:
            ref.tensors[k] -= lr / len(slices) * accum[k]
        want.append((epoch, total / len(slices), lr, clamped))
        lr *= cfg.train.decay
    assert [(s.epoch, s.loss, s.lr, s.n_clamped) for s in tel] == want
    assert all(got.tensors[k].tobytes() == ref.tensors[k].tobytes()
               for k in ref.tensors)


def test_telemetry_rows_and_decay_schedule():
    cfg = PipelineConfig()
    cfg.train.lr = 0.01
    cfg.train.decay = 0.5
    _, tel = train_regressor(tiny_set(), cfg, "trr", epochs=4)
    assert [s.epoch for s in tel] == [0, 1, 2, 3]
    assert [s.lr for s in tel] == [0.01, 0.005, 0.0025, 0.00125]
    assert all(isinstance(s.n_clamped, int) and s.n_clamped >= 0 for s in tel)
    assert all(np.isfinite(s.loss) for s in tel)


def test_training_is_deterministic():
    cfg = PipelineConfig()
    a, tel_a = train_regressor(tiny_set(), cfg, "trr", epochs=3)
    b, tel_b = train_regressor(tiny_set(), cfg, "trr", epochs=3)
    assert weights_equal(a, b)
    assert [s.loss for s in tel_a] == [s.loss for s in tel_b]


def test_unknown_loss_kind_rejected():
    with pytest.raises(ValueError):
        train_regressor(tiny_set(), PipelineConfig(), "huber")


def test_quartile_errors_by_hand():
    u = np.array([4.0, 3.0, 2.0, 1.0, 8.0, 7.0, 6.0, 5.0])
    errors = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    # descending u: rows 4,5,6,7,0,1,2,3 -> pairs per quartile
    want = [(0.5 + 0.6) / 2, (0.7 + 0.8) / 2, (0.1 + 0.2) / 2,
            (0.3 + 0.4) / 2]
    assert np.allclose(quartile_errors(u, errors), want, atol=1e-15)


def test_quartile_ties_keep_input_order():
    u = np.zeros(8)
    errors = np.arange(8.0)
    got = quartile_errors(u, errors)
    assert np.array_equal(got, [0.5, 2.5, 4.5, 6.5])


def test_quartile_split_handles_ragged_counts():
    u = np.arange(10.0)
    got = quartile_errors(u, np.ones(10))
    assert len(got) == 4
    assert np.allclose(got, 1.0)


def test_evaluate_quartiles_wiring():
    tset = tiny_set(seed=3)
    weights = init_regressor_weights(RegressorConfig(), seed=1)
    u, errors, quartiles = evaluate_quartiles(tset, weights)
    pred, u_direct = regress(tset.features, weights)
    assert np.array_equal(u, u_direct)
    assert np.allclose(errors, distance_residuals(pred, tset.targets),
                       atol=1e-15)
    assert np.allclose(quartiles, quartile_errors(u, errors), atol=1e-15)


# ------------------------------------------- full toy run (session fixtures)


def test_training_set_shape_and_provenance(training):
    tset, _, _ = training
    p = len(tset.features)
    assert tset.features.shape == (p, 64)
    assert tset.targets.shape == (p, 3)
    assert tset.classes.shape == (p,)
    assert set(np.unique(tset.classes)) <= {CLASS_AMBIGUOUS, CLASS_RELIABLE}
    assert len(np.unique(tset.scan_ids)) > 1
    slices = tset.scan_slices()
    assert sum(len(s) for s in slices) == p
    assert np.array_equal(np.sort(np.concatenate(slices)), np.arange(p))


def test_trajectory_frames_match_the_full_run(std_cfg, sim):
    _, poses, scans = sim
    frames = [8, 0, 99]
    _, got_poses, got_scans = simulate_trajectory(std_cfg, 0, frames)
    for i, pose, scan in zip(frames, got_poses, got_scans):
        assert np.array_equal(pose.rotation, poses[i].rotation)
        assert np.array_equal(pose.translation, poses[i].translation)
        for a, b in ((scan.cloud.xyz, scans[i].cloud.xyz),
                     (scan.cloud.intensity, scans[i].cloud.intensity),
                     (scan.classes, scans[i].classes),
                     (scan.gt_world, scans[i].gt_world)):
            assert a.tobytes() == b.tobytes()


def test_training_set_simulates_only_its_frames(monkeypatch):
    cfg = PipelineConfig()
    cfg.trajectory.n_poses = 10
    cfg.train.scan_stride = 4
    cfg.train.points_per_scan = 64
    simulated = []

    def spy(world, poses, sensor, seeds, frames):
        simulated.extend(seeds)
        return simulate_scans(world, poses, sensor, seeds, frames)

    monkeypatch.setattr(pipeline, "simulate_scans", spy)
    tset = build_training_set(cfg, init_encoder_weights(cfg.encoder, seed=0),
                              run_seed=0)
    assert len(simulated) == 3
    assert np.array_equal(np.unique(tset.scan_ids), [0, 4, 8])


def test_training_set_needs_a_point_per_quartile():
    # Three poses at stride 8 give one training frame, frame 0.
    cfg = PipelineConfig()
    cfg.trajectory.n_poses = 3
    enc = init_encoder_weights(cfg.encoder, seed=0)
    cfg.train.points_per_scan = N_QUARTILES - 1
    with pytest.raises(EmptyScan, match="training set too small"):
        build_training_set(cfg, enc, run_seed=0)
    cfg.train.points_per_scan = N_QUARTILES
    tset = build_training_set(cfg, enc, run_seed=0)
    assert len(tset.features) == N_QUARTILES
    weights, _ = train_regressor(tset, cfg, "trr", epochs=1)
    assert np.all(np.isfinite(evaluate_quartiles(tset, weights)[2]))


def test_training_set_is_seed_stable(std_cfg, enc_weights, training):
    tset, _, _ = training
    again = build_training_set(std_cfg, enc_weights, run_seed=0)
    assert np.array_equal(again.features, tset.features)
    assert np.array_equal(again.targets, tset.targets)
    assert np.array_equal(again.scan_ids, tset.scan_ids)


def test_toy_losses_descend_over_the_run(training):
    _, (_, trr_tel), (_, mean_tel) = training
    assert trr_tel[-1].loss < trr_tel[0].loss
    assert mean_tel[-1].loss < mean_tel[0].loss
    assert len(trr_tel) == 60


def test_toy_quartiles_rank_error(training):
    tset, (trr_w, _), _ = training
    _, _, quartiles = evaluate_quartiles(tset, trr_w)
    assert quartiles[0] < quartiles[-1]
