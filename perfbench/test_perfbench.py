"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q      # from the checkout root, ~6 min

Every test starts `perfbench/run.py` as its own process, as a user would.
The checks: counts and computed metrics repeat exactly between two traced
runs, the traced replays reproduce `localize_scan` and `train_regressor`
bit for bit, a second seed changes the inputs and still passes every
correctness check, and a directory without `src/` gives no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle-bench", "regressor-stream", "train-toy", "dense-scan")
# Per-layer metrics that are counts or computed from shapes and indices.
EXACT = ("simulate.points", "plane.table_mb", "projection.voxels",
         "projection.voxels_per_point", "encoder.sites.l0",
         "encoder.sites.l1", "encoder.sites.l2", "encoder.sites.l3",
         "encoder.sites.l4", "encoder.slot_occupancy",
         "encoder.gathered_macs", "encoder.useful_macs",
         "regressor.macs_per_row", "losses.n_clamped",
         "pose_solve.correspondences", "pose_solve.inlier_ratio",
         "pose_solve.score_mb", "pose_solve.no_consensus")

_runs = {}


def run(workload, seed, trace, repeat=0, root=ROOT):
    """(last-line result, earlier stdout lines) of one benchmark run."""
    key = (workload, seed, trace, repeat)
    if key not in _runs:
        out = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=600, check=True)
        lines = out.stdout.strip().splitlines()
        _runs[key] = json.loads(lines[-1]), lines[:-1]
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, _ = run(workload, 0, 1)
    second, _ = run(workload, 0, 1, repeat=1)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert any(first["metrics"][n]["value"] > 0 for n in EXACT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_replay_matches_the_pipeline(workload):
    result, lines = run(workload, 0, 1)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] > 0
    assert any("replayed" in line for line in lines)
    assert not any("differ" in line for line in lines), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_inputs_and_passes(workload):
    digests = []
    for seed in (0, 11):
        result, lines = run(workload, seed, 0)
        assert result["correct"] and result["failed"] == 0, lines
        assert set(result["metrics"]) == {
            "setup_s", "frames_per_s", "frame_ms_p50", "frame_ms_p90",
            "peak_rss_mb"}
        digests += [line for line in lines if "inputs digest" in line]
    assert len(digests) == 2 and digests[0] != digests[1]


def test_directory_without_sources_gives_no_result():
    bare = HERE / "_runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-scan",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
