"""Session fixtures shared across the suite.

The expensive artifacts (synthetic trajectory, benchmark rows, toy
training runs) are computed once per session; tests must treat them as
read-only and copy before mutating.
"""

import pytest

from ringloc.config import parse_perturbation_list, standard_bench_config
from ringloc.encoder import init_encoder_weights
from ringloc.pipeline import run_perturbed_trajectory, simulate_trajectory
from ringloc.train import build_training_set, train_regressor

RUN_SEED = 0


@pytest.fixture(scope="session")
def std_cfg():
    return standard_bench_config()


@pytest.fixture(scope="session")
def sim(std_cfg):
    """(world, poses, scans) of the standard 100-frame benchmark."""
    return simulate_trajectory(std_cfg, RUN_SEED)


@pytest.fixture(scope="session")
def bench_rows(std_cfg, sim):
    """Baseline plus every standard perturbation, oracle predictor."""
    _, poses, scans = sim
    perts = parse_perturbation_list(std_cfg.bench.perturbations)
    return [run_perturbed_trajectory(std_cfg, RUN_SEED, poses, scans, p)
            for p in [None] + perts]


@pytest.fixture(scope="session")
def baseline_row(bench_rows):
    return bench_rows[0]


@pytest.fixture(scope="session")
def enc_weights(std_cfg):
    return init_encoder_weights(std_cfg.encoder, seed=0)


@pytest.fixture(scope="session")
def training(std_cfg, enc_weights):
    """Training set plus one TRR run and one mean-loss run on it."""
    tset = build_training_set(std_cfg, enc_weights, run_seed=RUN_SEED)
    trr = train_regressor(tset, std_cfg, "trr")
    mean = train_regressor(tset, std_cfg, "mean")
    return tset, trr, mean
