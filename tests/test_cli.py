"""CLI subcommands: outputs, reruns across BLAS thread counts, and exit
codes, in-process unless a test needs a fresh interpreter.  Plain reruns
of each subcommand are criterion 10's."""
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ringloc
from ringloc import io
from ringloc.cli import build_parser, main
from ringloc.config import (PipelineConfig, config_keys, format_value,
                            parse_perturbation_list, read_config,
                            write_config)
from ringloc.encoder import EncoderConfig, encode, init_encoder_weights
from ringloc.errors import ParseError, RinglocError
from ringloc.metrics import (orientation_errors_deg, position_errors,
                             report_schema, summarize)
from ringloc.pipeline import (SEED_PERTURB, localize_scan, rectified_voxels,
                              run_conditions, run_perturbed_trajectory,
                              simulate_trajectory)
from ringloc.projection import project_cylindrical, voxelize
from ringloc.regressor import (RegressorConfig, init_regressor_weights,
                               load_regressor_weights, save_regressor_weights)
from ringloc.se3 import apply_points, rotation_angle_deg
from ringloc.simulate import (MAGNITUDES, Perturbation, Scan, perturb_scan,
                              scan_seed)

from helpers import read_pose


def trimmed_config() -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.trajectory.n_poses = 10
    cfg.train.epochs = 2
    cfg.train.scan_stride = 4
    cfg.train.points_per_scan = 64
    cfg.bench.perturbations = "yaw:180"
    cfg.pose.iterations = 200
    return cfg


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a trimmed config and one simulated scan on disk."""
    root = tmp_path_factory.mktemp("cli")
    cfg = trimmed_config()
    cfg_path = root / "trim.cfg"
    write_config(cfg_path, cfg)
    _, poses, scans = simulate_trajectory(cfg, run_seed=0)
    scan_path = root / "scan0.csv"
    io.write_scan_csv(scan_path, scans[0].cloud, scans[0].classes,
                      scans[0].gt_world)
    cloud_path = root / "cloud0.csv"
    io.write_cloud_csv(cloud_path, scans[0].cloud)
    return {"root": root, "cfg": cfg, "cfg_path": cfg_path,
            "scan": scans[0], "pose0": poses[0], "scan_path": scan_path,
            "cloud_path": cloud_path}


def run(ws, cmd, *extra, out):
    argv = [cmd, *extra, "--config", str(ws["cfg_path"]), "--out", str(out)]
    return main(argv)


# Every config key's standard value, in declaration order.
STANDARD = {key: value for key, _, value in config_keys(PipelineConfig())}

# A key's valid range as --help states it: "in [1, inf)", "each in (0, 1]".
RANGE = re.compile(r"; (?:each )?in ([\[(])(\S+), (\S+)([\])]); standard ")


def help_lines():
    return {line.split()[0]: line
            for line in build_parser().format_help().splitlines()
            if line.startswith("  ") and line.split()}


def in_stated_range(line, value):
    lo_bracket, lo, hi, hi_bracket = RANGE.search(line).groups()
    lo, hi = float(lo), float(hi)
    return ((value >= lo if lo_bracket == "[" else value > lo)
            and (value <= hi if hi_bracket == "]" else value < hi))


def test_help_documents_every_config_key():
    lines = help_lines()
    for key, value in STANDARD.items():
        assert lines[key].endswith(f"; standard {format_value(value)}"), key
        if isinstance(value, str):
            assert all(kind in lines[key] for kind in MAGNITUDES)
        else:
            assert RANGE.search(lines[key]), key
            elements = value if isinstance(value, tuple) else (value,)
            assert all(in_stated_range(lines[key], v) for v in elements), key
    assert lines["pose.iterations"].endswith("standard 300")
    assert len(STANDARD) == 38


# A ranged perturbation kind as the bench.perturbations line states it.
KIND_RANGE = re.compile(r"(\w+) in ([\[(])([^,]+), ([^\])]+)([\])])")


def test_help_states_each_perturbation_range_that_perturbation_checks():
    ranges = KIND_RANGE.findall(help_lines()["bench.perturbations"])
    assert [r[0] for r in ranges] == ["random_yaw", "fov_limit", "dropout",
                                      "gaussian_noise", "pitch_roll"]
    for kind, lo_bracket, lo, hi, hi_bracket in ranges:
        lo, hi = float(lo), float(hi)
        assert hi_bracket == "]"
        Perturbation(kind, hi)
        if lo_bracket == "[":
            Perturbation(kind, lo)
        else:
            with pytest.raises(ValueError):
                Perturbation(kind, lo)
        for past in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
            with pytest.raises(ValueError, match=f"{kind} magnitude"):
                Perturbation(kind, float(past))


# Count keys that allocate or loop, each bounded so a run at the bound
# finishes; bound + 1 is rejected at load.
COUNT_BOUNDS = {
    "sensor.n_azimuth": 4096, "sensor.n_elevation": 128,
    "trajectory.n_poses": 1000, "world.n_boxes": 1000,
    "world.n_cylinders": 1000, "encoder.stem_width": 256,
    "encoder.stage_widths": 256, "encoder.output_width": 256,
    "regressor.heads": 64, "regressor.layers": 64,
}


@pytest.mark.parametrize("key, bound", COUNT_BOUNDS.items())
def test_count_key_past_its_bound_is_rejected_at_load(key, bound, tmp_path):
    section = key.split(".")[0]
    standard = STANDARD[key]
    assert help_lines()[key].endswith(
        f", {bound}]; standard {format_value(standard)}")

    def load(value):
        if isinstance(standard, tuple):
            value = format_value(standard[:-1] + (value,))
        path = tmp_path / f"{value}.cfg"
        path.write_text(f"config_version = 1\n{key} = {value}\n")
        return read_config(path)

    load(bound)
    with pytest.raises(ParseError, match=f"section '{section}'"):
        load(bound + 1)


def test_help_states_the_ring_rule():
    assert help_lines()["projection.ring_cells"].endswith(
        "cells per full turn; a multiple of 16; in [16, 1048576]; "
        "standard 1024")


HOSTILE = ("nan", "inf", "-inf", "-1", "0", "-0", "1e300")
LEARNED = ("train.", "encoder.", "regressor.")


def numeric_slots():
    """(key, element index or None) for every number a config sets."""
    for key, value in STANDARD.items():
        if isinstance(value, tuple):
            yield from (pytest.param(key, i, id=f"{key}[{i}]")
                        for i in range(len(value)))
        elif not isinstance(value, str):
            yield pytest.param(key, None, id=key)


@pytest.mark.parametrize("key, index", list(numeric_slots()))
def test_hostile_value_is_rejected_or_runs_clean(key, index, tmp_path,
                                                  capsys):
    # Each value either fails at load (exit 2, one error line) or runs a
    # 2-pose bench (a tiny train-toy for the learned keys) to exit 0 or a
    # pipeline code, with no traceback and no warning.
    learned = key.startswith(LEARNED)
    base = {"trajectory.n_poses": "2"}
    base.update({"train.epochs": "1", "train.points_per_scan": "32"}
                if learned else {"bench.perturbations": "yaw:90"})
    standard = STANDARD[key]
    line = help_lines()[key]
    for raw in HOSTILE:
        if index is None:
            text = raw
        else:
            parts = [format_value(v) for v in standard]
            parts[index] = raw
            text = ",".join(parts)
        cfg_path = tmp_path / f"{raw}.cfg"
        cfg_path.write_text("config_version = 1\n" + "".join(
            f"{k} = {v}\n" for k, v in {**base, key: text}.items()))
        try:
            read_config(cfg_path)
            loads = True
        except ParseError:
            loads = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train-toy" if learned else "bench", "--config",
                         str(cfg_path), "--out", str(tmp_path / raw)])
        err = capsys.readouterr().err.splitlines()
        if loads:
            assert in_stated_range(line, float(raw)), (key, raw)
            assert code in (0, 3, 4, 5), (key, raw, code, err)
        else:
            assert code == 2, (key, raw, code)
            assert len(err) == 1 and err[0].startswith("ringloc: error: "), \
                (key, raw, err)


def test_rectify_levels_the_cloud(ws, tmp_path):
    out = tmp_path / "o"
    assert run(ws, "rectify", str(ws["cloud_path"]), out=out) == 0
    t_plane = read_pose(out / "t_plane.txt")
    rect = io.read_cloud_csv(out / "rectified.csv")
    src = io.read_cloud_csv(ws["cloud_path"])
    assert np.array_equal(rect.xyz, apply_points(t_plane, src.xyz))
    # most points are ground; after leveling they sit near one height
    z = np.sort(rect.xyz[:, 2])
    ground = z[:int(0.5 * len(z))]
    assert np.std(ground) < 0.2


def test_rectify_levels_the_scan_as_localize_does(ws, tmp_path):
    # On this scan, plane RANSAC seeded with 5 itself finds another
    # consensus set than the per-stage seed localize derives from 5.
    out = tmp_path / "o"
    assert run(ws, "rectify", str(ws["cloud_path"]), "--seed", "5",
               out=out) == 0
    io.write_pose(tmp_path / "want.txt",
                  rectified_voxels(ws["scan"], ws["cfg"], 5)[1])
    assert ((out / "t_plane.txt").read_bytes()
            == (tmp_path / "want.txt").read_bytes())


def test_project_matches_library_path(ws, tmp_path):
    out = tmp_path / "o"
    assert run(ws, "project", str(ws["cloud_path"]), "--recover",
               out=out) == 0
    cfg = ws["cfg"]
    want = voxelize(project_cylindrical(io.read_cloud_csv(ws["cloud_path"]),
                                        cfg.projection), cfg.projection)
    got = io.read_voxel_csv(out / "voxels.csv", cfg.projection)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.intensity, want.intensity)
    recovered = io.read_cloud_csv(out / "recovered.csv")
    assert len(recovered) == len(want.indices)


def test_encode_writes_feature_rows(ws, tmp_path):
    out = tmp_path / "o"
    vox_out = tmp_path / "v"
    assert run(ws, "project", str(ws["cloud_path"]), out=vox_out) == 0
    assert run(ws, "encode", str(vox_out / "voxels.csv"), out=out) == 0
    cfg = ws["cfg"]
    voxels = io.read_voxel_csv(vox_out / "voxels.csv", cfg.projection)
    weights = init_encoder_weights(cfg.encoder, seed=0)  # bench.seed default
    want = encode(voxels, weights)
    lines = (out / "features.csv").read_text().strip().split("\n")
    assert lines[0] == "ix,iy,iz," + ",".join(f"f{i}" for i in range(64))
    assert len(lines) == len(voxels.indices) + 1
    first = np.array([float(v) for v in lines[1].split(",")[3:]])
    assert np.array_equal(first, want[0])
    # Every row, over several write blocks, reads back bit for bit.
    assert len(want) > 2 * io.WRITE_BLOCK
    data, _ = io._parse_rows(out / "features.csv", lines, lines[0])
    assert data[:, :3].astype(np.int64).tobytes() == voxels.indices.tobytes()
    assert data[:, 3:].tobytes() == want.tobytes()


def test_localize_recovers_the_pose(ws, tmp_path):
    out = tmp_path / "o"
    assert run(ws, "localize", str(ws["scan_path"]), out=out) == 0
    est = read_pose(out / "pose.txt")
    truth = ws["pose0"]
    assert np.linalg.norm(est.translation - truth.translation) <= 0.05
    assert rotation_angle_deg(est.rotation.T @ truth.rotation) <= 0.5
    sidecar = json.loads((out / "pose.json").read_text())
    assert set(sidecar) == {"inlier_count", "rms_residual", "seed"}
    assert sidecar["seed"] == 0
    assert sidecar["inlier_count"] >= 3


def test_localize_with_yaw_flip_still_localizes(ws, tmp_path):
    out = tmp_path / "o"
    assert run(ws, "localize", str(ws["scan_path"]), "--perturb", "yaw=180",
               out=out) == 0
    est = read_pose(out / "pose.txt")
    truth = ws["pose0"]
    # the scan was flipped in the sensor frame, so the recovered pose
    # differs from the unperturbed truth by about a half turn
    assert rotation_angle_deg(est.rotation.T @ truth.rotation) > 170.0
    assert np.linalg.norm(est.translation - truth.translation) <= 0.05


def test_localize_perturb_none_is_no_perturbation(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(ws, "localize", str(ws["scan_path"]), out=a) == 0
    assert run(ws, "localize", str(ws["scan_path"]), "--perturb", "none",
               out=b) == 0
    for name in ("pose.txt", "pose.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("perturbs", [["random_yaw", "random_yaw"],
                                      ["dropout=0.5", "dropout=0.5"],
                                      ["random_yaw", "dropout=0.5"]],
                         ids=["yaw-yaw", "dropout-dropout", "yaw-dropout"])
def test_repeated_perturb_draws_from_one_stream(ws, tmp_path, perturbs):
    # Every --perturb draws in turn from one generator seeded by the run
    # seed: a second random_yaw turns by a fresh angle, not the first
    # one again, and a second dropout draws fresh uniforms.
    extra = [arg for p in perturbs for arg in ("--perturb", p)]
    assert run(ws, "localize", str(ws["scan_path"]), *extra,
               "--seed", "3", out=tmp_path / "o") == 0
    cloud, classes, gt = io.read_scan_csv(ws["scan_path"])
    scan = Scan(cloud, classes, gt)
    rng = np.random.default_rng(scan_seed(3, SEED_PERTURB))
    for p in parse_perturbation_list(",".join(perturbs)):
        scan, _ = perturb_scan(scan, p, rng)
    io.write_pose(tmp_path / "want.txt",
                  localize_scan(scan, ws["cfg"], 3).transform)
    assert ((tmp_path / "o" / "pose.txt").read_bytes()
            == (tmp_path / "want.txt").read_bytes())


def test_one_process_localizes_each_call_by_its_own_seed_and_flags(ws,
                                                                   tmp_path):
    # main shares one parser across calls and init_encoder_weights one draw
    # per (widths, seed): each call must still draw its own seed's encoder,
    # and an append flag (--perturb) must not carry over to the next parse.
    cfg = ws["cfg"]
    weights = tmp_path / "reg.bin"
    save_regressor_weights(weights, init_regressor_weights(cfg.regressor,
                                                           seed=1))
    for k, (seed, perturbs) in enumerate([(1, []), (2, ["yaw=90"]),
                                          (1, [])]):
        out = tmp_path / str(k)
        extra = [arg for p in perturbs for arg in ("--perturb", p)]
        assert run(ws, "localize", str(ws["scan_path"]), "--predictor",
                   "regressor", "--regressor-weights", str(weights),
                   "--seed", str(seed), *extra, out=out) == 0
        scan = Scan(*io.read_scan_csv(ws["scan_path"]))
        rng = np.random.default_rng(scan_seed(seed, SEED_PERTURB))
        for p in parse_perturbation_list(",".join(perturbs)):
            scan, _ = perturb_scan(scan, p, rng)
        result = localize_scan(scan, cfg, seed, "regressor",
                               io.init_weights(cfg.encoder, seed),
                               load_regressor_weights(weights))
        io.write_pose(tmp_path / "want.txt", result.transform)
        assert ((out / "pose.txt").read_bytes()
                == (tmp_path / "want.txt").read_bytes()), k
        assert json.loads((out / "pose.json").read_text()) == {
            "inlier_count": len(result.pose.inliers),
            "rms_residual": result.pose.rms_residual, "seed": seed}, k


def run_with_blas_threads(threads, *argv):
    """`python *argv` in a fresh interpreter whose BLAS runs `threads`
    threads; OpenBLAS reads the count only when numpy loads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(ringloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, timeout=300,
                          capture_output=True, text=True)


# The regressor outputs `localize_scan` selects from, written whole.
REGRESS_SCRIPT = """
import sys
from ringloc import io
from ringloc.config import read_config
from ringloc.encoder import encode_sites, init_encoder_weights
from ringloc.pipeline import rectified_voxels
from ringloc.regressor import load_regressor_weights, regress
from ringloc.simulate import Scan
cfg_path, scan_path, weights_path, out = sys.argv[1:]
cfg = read_config(cfg_path)
voxels = rectified_voxels(Scan(*io.read_scan_csv(scan_path)), cfg, 0)[2]
feats, rows = encode_sites(voxels, init_encoder_weights(cfg.encoder, seed=0))
coords, u = regress(feats, load_regressor_weights(weights_path))
io.write_tensors(out, {"coords": coords, "u": u, "rows": rows})
"""


def written(out):
    """Every file under `out`, by relative path, with its bytes."""
    return {str(f.relative_to(out)): f.read_bytes()
            for f in sorted(Path(out).rglob("*")) if f.is_file()}


@pytest.mark.parametrize("cmd", ["encode", "localize", "regress"])
def test_learned_path_is_byte_identical_across_blas_threads(ws, tmp_path,
                                                            cmd):
    # Random-init weights need not reach a consensus, so localize may exit
    # 4; the exit code, stderr and every file written must still agree.
    weights = tmp_path / "reg.bin"
    save_regressor_weights(weights, init_regressor_weights(
        ws["cfg"].regressor, seed=0))
    if cmd == "encode":
        assert run(ws, "project", str(ws["cloud_path"]), out=tmp_path) == 0
        extra = [str(tmp_path / "voxels.csv")]
    elif cmd == "localize":
        extra = [str(ws["scan_path"]), "--predictor", "regressor",
                 "--regressor-weights", str(weights)]
    runs = {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
        if cmd == "regress":
            out.mkdir()
            argv = ["-c", REGRESS_SCRIPT, str(ws["cfg_path"]),
                    str(ws["scan_path"]), str(weights), str(out / "t.bin")]
        else:
            argv = ["-m", "ringloc.cli", cmd, *extra,
                    "--config", str(ws["cfg_path"]), "--out", str(out)]
        proc = run_with_blas_threads(threads, *argv)
        runs[threads] = proc.returncode, proc.stderr, written(out)
    assert runs[1] == runs[2]
    code, err, files = runs[1]
    if cmd == "localize":
        assert code in (0, 4), err
    else:
        assert code == 0 and files, err


def test_bench_outputs_and_schema(ws, tmp_path):
    out = tmp_path / "o"
    assert run(ws, "bench", out=out) == 0
    table = (out / "perturbations.csv").read_text().strip().split("\n")
    assert table[0] == "label,frames_ok,frames_failed,mpe_m,moe_deg,success@0.5"
    labels = [row.split(",")[0] for row in table[1:]]
    assert labels == ["baseline", "yaw:180"]
    for row in table[1:]:
        fields = row.split(",")
        assert fields[1] == "10" and fields[2] == "0"
        assert float(fields[5]) == 1.0
    summary = json.loads((out / "baseline_summary.json").read_text())
    jsonschema.validate(summary, report_schema())
    assert summary["frames"] == 10
    frames = (out / "baseline_frames.csv").read_text().strip().split("\n")
    assert frames[0] == "frame,pos_err_m,ori_err_deg"
    assert len(frames) == 11
    assert (out / "failures.csv").read_text() == "label,frame,error\n"
    # The baseline files hold exactly the library's errors and summary.
    cfg = read_config(ws["cfg_path"])
    _, poses, scans = simulate_trajectory(cfg, 0)
    baseline = run_perturbed_trajectory(cfg, 0, poses, scans, None).result
    cells = [row.split(",") for row in frames[1:]]
    assert [int(c[0]) for c in cells] == baseline.frames
    assert [float(c[1]) for c in cells] == list(position_errors(baseline))
    assert ([float(c[2]) for c in cells]
            == list(orientation_errors_deg(baseline)))
    assert summary == summarize(baseline)


def test_bench_walk_matches_a_walk_per_condition(tmp_path):
    # The bench runs every condition on a frame before it casts the next;
    # each condition's row must be what a walk of that condition alone
    # gives, dropout, random-yaw and noise draws included.
    cfg = PipelineConfig()
    cfg.trajectory.n_poses = 10
    cfg_path, out = tmp_path / "ten.cfg", tmp_path / "o"
    write_config(cfg_path, cfg)
    assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = (out / "perturbations.csv").read_text().splitlines()
    stats = table[0].split(",")[3:]
    conditions = [None] + parse_perturbation_list(cfg.bench.perturbations)
    assert len(conditions) == 7 and len(table) == 1 + len(conditions)
    _, poses, scans = simulate_trajectory(cfg, 0)
    for line, p in zip(table[1:], conditions):
        row = run_perturbed_trajectory(cfg, 0, poses, scans, p)
        summary = summarize(row.result)
        assert line.split(",") == [
            row.label, str(len(row.result)), str(len(row.failures)),
            *(str(float(summary.get(k, np.nan))) for k in stats)]


def test_bench_cli_perturb_overrides_config(ws, tmp_path):
    out = tmp_path / "o"
    assert run(ws, "bench", "--perturb", "dropout=0.3", out=out) == 0
    table = (out / "perturbations.csv").read_text().strip().split("\n")
    assert [r.split(",")[0] for r in table[1:]] == ["baseline", "dropout:0.3"]


def test_bench_labels_tell_apart_magnitudes_that_agree_to_6_digits(ws,
                                                                  tmp_path):
    out = tmp_path / "o"
    assert run(ws, "bench", "--perturb", "yaw=0.1234567",
               "--perturb", "yaw=0.1234568", out=out) == 0
    table = (out / "perturbations.csv").read_text().splitlines()
    labels = [r.split(",")[0] for r in table[1:]]
    assert labels == ["baseline", "yaw:0.1234567", "yaw:0.1234568"]
    assert [float(label.split(":")[1]) for label in labels[1:]] == [
        0.1234567, 0.1234568]


@pytest.mark.parametrize("token, label", [
    ("yaw:180", "yaw:180"), ("random_yaw", "random_yaw:0"),
    ("fov_limit:180", "fov_limit:180"), ("dropout:0.5", "dropout:0.5"),
    ("gaussian_noise:0.05", "gaussian_noise:0.05"),
    ("pitch_roll:10", "pitch_roll:10"), ("yaw:-0", "yaw:-0"),
    ("yaw:123456789", "yaw:123456789"), ("yaw:1e-300", "yaw:1e-300"),
    ("yaw:1e300", "yaw:1e+300")])
def test_a_condition_label_names_its_magnitude_exactly(token, label):
    # The standard labels read as they always have; any magnitude parses
    # back from its label.
    p = parse_perturbation_list(token)[0]
    row = run_conditions(PipelineConfig(), 0, [], [], [p])[0]
    assert row.label == label
    assert float(label.split(":")[1]) == p.magnitude


def test_random_yaw_with_a_magnitude_exits_2_at_load(ws, tmp_path, capsys):
    # random_yaw draws its yaw from the seed; a magnitude would only give
    # the same condition a second label.
    out = tmp_path / "o"
    assert run(ws, "bench", "--perturb", "random_yaw=5", out=out) == 2
    assert capsys.readouterr().err == (
        "ringloc: error: --perturb: section 'bench': bad perturbation "
        "'random_yaw=5': random_yaw magnitude must be in [0, 0], got 5.0\n")
    assert not out.exists()


def test_train_toy_outputs(ws, tmp_path):
    out = tmp_path / "o"
    assert run(ws, "train-toy", "--epochs", "2", out=out) == 0
    tel = (out / "telemetry.csv").read_text().strip().split("\n")
    assert tel[0] == "epoch,loss,lr,n_clamped"
    assert len(tel) == 3
    assert tel[1].split(",")[0] == "0"
    quart = (out / "quartiles.csv").read_text().strip().split("\n")
    assert quart[0] == "quartile,mean_err_m"
    assert len(quart) == 5
    weights = load_regressor_weights(out / "regressor_weights.bin")
    assert weights.tensors  # loadable, non-empty
    assert (out / "encoder_weights.bin").exists()


# -------------------------------------------------------------- exit codes


def _text_file(path, text):
    path.write_text(text)
    return str(path)


def _tensor_file(path, **tensors):
    io.write_tensors(path, tensors)
    return str(path)


def _voxel_file(ws, d):
    proj = ws["cfg"].projection
    path = d / "voxels.csv"
    io.write_voxel_csv(path, voxelize(project_cylindrical(ws["scan"].cloud,
                                                          proj), proj))
    return str(path)


def std_encoder():
    """The standard encoder's weights at seed 0."""
    return init_encoder_weights(EncoderConfig(), seed=0)


def std_regressor():
    """The standard regressor's weights at seed 0."""
    return init_regressor_weights(RegressorConfig(), seed=0)


def _misshapen_encoder(path):
    tensors = dict(std_encoder().tensors)
    tensors["stem.skip.w"] = np.zeros((4, 16))
    return _tensor_file(path, **tensors)


def _zero_width_encoder(path):
    tensors = dict(std_encoder().tensors)
    tensors["stem.proj.w"] = np.zeros((3, 0))
    return _tensor_file(path, **tensors)


def _twice(path, tensors, name):
    """The weight set with tensor `name` written again at the end, zeroed.
    write_tensors takes a mapping, which names a tensor once, so the
    second header line and payload are spliced in by hand."""
    io.write_tensors(path, tensors)
    header, payload = path.read_bytes().split(b"\ndata\n", 1)
    shape = " ".join(str(d) for d in tensors[name].shape)
    path.write_bytes(header + f"\n{name} {shape}\ndata\n".encode() + payload
                     + np.zeros(tensors[name].size, "<f4").tobytes())
    return str(path)


def _nan_weights(path, tensors):
    """The weight set with a NaN in its first tensor."""
    tensors = {name: arr.copy() for name, arr in tensors.items()}
    next(iter(tensors.values())).flat[0] = np.nan
    return _tensor_file(path, **tensors)


def _scan_cell(ws, d, column, value):
    """The workspace scan with one cell of its first point replaced."""
    lines = ws["scan_path"].read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = value
    lines[1] = ",".join(cells)
    return _text_file(d / "scan.csv", "\n".join(lines) + "\n")


# Each case writes one malformed input under d and returns the arguments.
MALFORMED = {
    "csv-header": lambda ws, d: [
        "rectify", _text_file(d / "bad.csv", "a,b\n1,2\n")],
    "voxel-out-of-range": lambda ws, d: [
        "encode", _text_file(d / "vox.csv", io.VOXEL_HEADER
                             + "\n0,5000000,0,0,0,0,0.5,0\n")],
    "voxel-fractional-index": lambda ws, d: [
        "encode", _text_file(d / "vox.csv", io.VOXEL_HEADER
                             + "\n0,3,1,0,0,0,0.5,0\n1.5,3,1,0,0,0,0.5,1\n")],
    "voxel-ring-index-past-the-ring": lambda ws, d: [
        "encode", _text_file(d / "vox.csv", io.VOXEL_HEADER
                             + "\n0,3,1,0,0,0,0.5,0\n"
                             + f"{ws['cfg'].projection.ring_cells}"
                             + ",3,1,0,0,0,0.5,1\n")],
    "voxel-source-index-inf": lambda ws, d: [
        "encode", _text_file(d / "vox.csv", io.VOXEL_HEADER
                             + "\n0,3,1,0,0,0,0.5,inf\n")],
    "voxel-source-index-1e30": lambda ws, d: [
        "encode", _text_file(d / "vox.csv", io.VOXEL_HEADER
                             + "\n0,3,1,0,0,0,0.5,1e30\n")],
    "voxel-repeated-index": lambda ws, d: [
        "encode", _text_file(d / "vox.csv", io.VOXEL_HEADER
                             + "\n0,3,1,0,0,0,0.5,0\n5,3,1,0,0,0,0.5,1"
                             + "\n0,3,1,0,0,0,0.7,2\n")],
    "encoder-weights-directory": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights", str(d)],
    "encoder-weights-no-data-marker": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _text_file(d / "enc.bin", io.TENSOR_MAGIC + "\nstem.proj.w 4 16\n")],
    "encoder-weights-blank-header-line": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _text_file(d / "enc.bin",
                   io.TENSOR_MAGIC + "\n\nstem.proj.w 4 16\ndata\n")],
    "encoder-weights-non-integer-dims": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _text_file(d / "enc.bin",
                   io.TENSOR_MAGIC + "\nstem.proj.w 4 1.5\ndata\n")],
    "encoder-weights-foreign": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _tensor_file(d / "foo.bin", foo=np.zeros(3))],
    "encoder-weights-misshapen": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _misshapen_encoder(d / "enc.bin")],
    "encoder-weights-zero-width": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _zero_width_encoder(d / "enc.bin")],
    "encoder-weights-dims-overflow": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _text_file(d / "enc.bin", io.TENSOR_MAGIC
                   + "\nstem.proj.w 4294967296 4294967296\ndata\n")],
    "encoder-weights-name-twice": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _twice(d / "enc.bin", std_encoder().tensors,
               "stem.proj.b")],
    "encoder-weights-given-regressor": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _tensor_file(d / "reg.bin", **std_regressor().tensors)],
    "encoder-weights-nan": lambda ws, d: [
        "encode", _voxel_file(ws, d), "--encoder-weights",
        _nan_weights(d / "enc.bin", std_encoder().tensors)],
    "regressor-weights-nan": lambda ws, d: [
        "localize", str(ws["scan_path"]), "--predictor", "regressor",
        "--regressor-weights",
        _nan_weights(d / "reg.bin", std_regressor().tensors)],
    "scan-nan-gt": lambda ws, d: ["localize", _scan_cell(ws, d, 5, "nan")],
    "scan-class-7": lambda ws, d: ["localize", _scan_cell(ws, d, 4, "7")],
    "scan-class-inf": lambda ws, d: ["localize", _scan_cell(ws, d, 4, "inf")],
    "regressor-weights-foreign": lambda ws, d: [
        "localize", str(ws["scan_path"]), "--predictor", "regressor",
        "--regressor-weights", _tensor_file(d / "foo.bin", foo=np.zeros(3))],
    "regressor-weights-given-encoder": lambda ws, d: [
        "localize", str(ws["scan_path"]), "--predictor", "regressor",
        "--regressor-weights",
        _tensor_file(d / "enc.bin", **std_encoder().tensors)],
    "localize-oracle-regressor-weights": lambda ws, d: [
        "localize", str(ws["scan_path"]), "--regressor-weights",
        str(d / "reg.bin")],
    "bench-oracle-encoder-weights": lambda ws, d: [
        "bench", "--predictor", "oracle", "--encoder-weights",
        str(d / "enc.bin")],
    "regressor-weights-no-heads": lambda ws, d: [
        "localize", str(ws["scan_path"]), "--predictor", "regressor",
        "--regressor-weights",
        _tensor_file(d / "reg.bin", **{"mhm1.w": np.zeros((4, 3))})],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(ws, tmp_path, capsys, case):
    out = tmp_path / "o"
    rc = run(ws, *MALFORMED[case](ws, tmp_path), out=out)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ringloc: error:")
    # Every case's error names the malformed file it wrote under tmp_path.
    assert str(tmp_path) in err[0]
    assert not out.exists()


def _signalling_nan_weights(path, tensors):
    """The weight set with a signalling NaN (float32 word 0x7f800001) as
    its first payload value: numpy warns when it casts one to float64."""
    _tensor_file(path, **tensors)
    raw = bytearray(path.read_bytes())
    start = raw.index(b"\ndata\n") + len(b"\ndata\n")
    raw[start:start + 4] = (0x7f800001).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    return str(path)


@pytest.mark.parametrize("cmd", ["encode", "localize"])
def test_signalling_nan_in_weights_exits_2_on_one_line(ws, tmp_path, capsys,
                                                       cmd):
    tensors = (std_encoder() if cmd == "encode" else std_regressor()).tensors
    path = _signalling_nan_weights(tmp_path / "w.bin", tensors)
    argv = (["encode", _voxel_file(ws, tmp_path), "--encoder-weights", path]
            if cmd == "encode" else
            ["localize", str(ws["scan_path"]), "--predictor", "regressor",
             "--regressor-weights", path])
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(ws, *argv, out=out) == 2
    assert capsys.readouterr().err == (
        f"ringloc: error: {path}: tensor '{next(iter(tensors))}' holds a "
        "non-finite value\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["cloud", "voxels", "config"])
def test_a_file_not_in_utf8_exits_2_naming_it(ws, tmp_path, capsys, kind):
    # The writers encode UTF-8; a 0xff byte cannot start a UTF-8 character.
    header = {"cloud": io.CLOUD_HEADER, "voxels": io.VOXEL_HEADER,
              "config": "config_version = 1"}[kind]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(header.encode() + b"\n0,\xff\n")
    out = tmp_path / "o"
    if kind == "config":
        rc = main(["bench", "--config", str(bad), "--out", str(out)])
    else:
        rc = run(ws, "rectify" if kind == "cloud" else "encode", str(bad),
                 out=out)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    offset = len(header) + 3
    assert err == [f"ringloc: error: {bad}: not UTF-8 text at byte offset "
                   f"{offset}"]


@pytest.mark.parametrize("body", [b"x,y,z\n1,2,3\n",
                                  io.CLOUD_HEADER.encode() + b"\n0,\xff\n"],
                         ids=["wrong-header", "not-utf8"])
def test_rectify_of_a_rejected_cloud_leaves_no_out(ws, tmp_path, body):
    # --out is made by the first write, and a rejected input writes none.
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    out = tmp_path / "o"
    assert run(ws, "rectify", str(bad), out=out) == 2
    assert not out.exists()


@pytest.mark.parametrize("case, flag", [
    ("localize-oracle-regressor-weights", "--regressor-weights"),
    ("bench-oracle-encoder-weights", "--encoder-weights")])
def test_weights_with_the_oracle_exit_2_naming_the_flag(ws, tmp_path, capsys,
                                                        case, flag):
    assert run(ws, *MALFORMED[case](ws, tmp_path), out=tmp_path / "o") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and flag in err[0]


@pytest.mark.parametrize("case, line", [
    ("voxel-out-of-range", 2), ("voxel-source-index-inf", 2),
    ("voxel-source-index-1e30", 2), ("voxel-repeated-index", 4),
    ("voxel-fractional-index", 3), ("voxel-ring-index-past-the-ring", 3)])
def test_voxel_row_error_names_its_line(ws, tmp_path, capsys, case, line):
    assert run(ws, *MALFORMED[case](ws, tmp_path), out=tmp_path / "o") == 2
    assert f"{tmp_path / 'vox.csv'}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["localize", "bench"])
def test_unknown_perturbation_exits_2(ws, tmp_path, capsys, cmd):
    extra = [str(ws["scan_path"])] if cmd == "localize" else []
    rc = run(ws, cmd, *extra, "--perturb", "jitterbug=3", out=tmp_path / "o")
    assert rc == 2
    assert "jitterbug" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["localize-yaw-nan", "localize-noise-inf",
                                  "bench-config-yaw-nan"])
def test_non_finite_perturbation_exits_2(ws, tmp_path, capsys, case):
    out = tmp_path / "o"
    if case == "bench-config-yaw-nan":
        cfg = _text_file(tmp_path / "nan.cfg", "config_version = 1\n"
                         "trajectory.n_poses = 10\n"
                         "bench.perturbations = yaw:nan\n")
        rc = main(["bench", "--config", cfg, "--out", str(out)])
    else:
        perturb = {"localize-yaw-nan": "yaw=nan",
                   "localize-noise-inf": "gaussian_noise=inf"}[case]
        rc = run(ws, "localize", str(ws["scan_path"]), "--perturb", perturb,
                 out=out)
    assert rc == 2
    assert "magnitude must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["localize", "bench"])
def test_noise_past_1000_m_exits_2_on_one_line(ws, tmp_path, capsys, cmd):
    if cmd == "bench":
        cfg = _text_file(tmp_path / "noise.cfg", "config_version = 1\n"
                         "bench.perturbations = gaussian_noise:1001\n")
        rc = main(["bench", "--config", cfg, "--out", str(tmp_path / "o")])
    else:
        rc = run(ws, "localize", str(ws["scan_path"]), "--perturb",
                 "gaussian_noise=1001", out=tmp_path / "o")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and ("gaussian_noise magnitude must be in [0, 1000], "
                              "got 1001.0") in err[0]


def assert_flag_error_before_out(capsys, out, flag, section):
    """One error line naming the flag and the section of the key it sets,
    and no --out: the flag is checked before anything is written."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"ringloc: error: {flag}: section '{section}': ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["rectify", "localize", "bench"])
def test_negative_seed_exits_2(ws, tmp_path, capsys, cmd):
    extra = {"rectify": [str(ws["cloud_path"])],
             "localize": [str(ws["scan_path"])], "bench": []}[cmd]
    rc = run(ws, cmd, *extra, "--seed", "-1", out=tmp_path / "o")
    assert rc == 2
    assert_flag_error_before_out(capsys, tmp_path / "o", "--seed", "bench")


def test_out_below_a_file_exits_2(ws, tmp_path, capsys):
    blocker = tmp_path / "some_file"
    blocker.write_text("not a directory\n")
    rc = run(ws, "project", str(ws["cloud_path"]), out=blocker / "sub")
    assert rc == 2
    assert "some_file" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, name", [("localize", "pose.txt"),
                                       ("bench", "perturbations.csv")])
def test_unwritable_output_exits_2_leaving_no_temp_file(ws, tmp_path, capsys,
                                                        cmd, name):
    # A directory where an output file goes: the rename onto it fails.
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    extra = [str(ws["scan_path"])] if cmd == "localize" else []
    assert run(ws, cmd, *extra, out=out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"ringloc: error: cannot write {out / name}: ")
    assert list(out.glob("*.tmp")) == []


@pytest.mark.parametrize("cmd, flag, name", [
    ("localize", "--predictor", "nearest"), ("train-toy", "--loss", "huber")])
def test_unknown_choice_exits_2_from_the_parser(ws, tmp_path, capsys, cmd,
                                                flag, name):
    # The parser is the one check of each name the CLI offers as a choice.
    out = tmp_path / "o"
    extra = [str(ws["scan_path"])] if cmd == "localize" else []
    with pytest.raises(SystemExit) as exc:
        run(ws, cmd, *extra, flag, name, out=out)
    assert exc.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err
    assert not out.exists()


# Two points past the voxel index range, inside io's bound: they voxelize
# to a grid with no cell.
FAR_CLOUD = (f"{io.CLOUD_HEADER}\n1000000000.0,0.0,0.0,0.5\n"
             "1000000000.0,1.0,0.0,0.5\n")


def test_failing_project_recover_leaves_no_out(ws, tmp_path, capsys):
    # voxelize fails before voxels.csv or recovered.csv is written.
    far = tmp_path / "far.csv"
    far.write_text(FAR_CLOUD)
    out = tmp_path / "o"
    assert run(ws, "project", str(far), "--recover", out=out) == 5
    assert capsys.readouterr().err == (
        "ringloc: error: voxel grid has no occupied cell\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def far_scan_path(ws):
    """The workspace scan plus one point 1000 km out, past the voxel
    index range."""
    path = ws["root"] / "far.csv"
    path.write_text(ws["scan_path"].read_text()
                    + "1000000.0,0.0,0.0,0.5,0,1000000.0,0.0,0.0\n")
    return path


def test_far_point_regressor_localize_does_not_reject_the_scan(
        ws, far_scan_path, tmp_path):
    weights = tmp_path / "reg.bin"
    save_regressor_weights(weights, init_regressor_weights(
        ws["cfg"].regressor, seed=0))
    rc = run(ws, "localize", str(far_scan_path), "--predictor", "regressor",
             "--regressor-weights", str(weights), out=tmp_path / "o")
    assert rc in (0, 3, 4, 5)


def test_far_point_project_then_encode(ws, far_scan_path, tmp_path):
    vox = tmp_path / "v"
    assert run(ws, "project", str(far_scan_path), out=vox) == 0
    assert run(ws, "encode", str(vox / "voxels.csv"), out=tmp_path / "e") == 0


# Each reads the workspace scan plus the rows a test appends.
READERS = {
    "project": ["project", "--recover"],
    "rectify": ["rectify"],
    "localize": ["localize"],
    "localize-pitch-roll": ["localize", "--perturb", "pitch_roll=10"],
}


def _scan_plus(ws, path, rows):
    """The workspace scan with rows appended; returns the path and the
    line number of the first appended row."""
    text = ws["scan_path"].read_text()
    path.write_text(text + "".join(row + "\n" for row in rows))
    return str(path), text.count("\n") + 1


def _run_as_errors(ws, reader, path, out):
    """Run a READERS command on path with warnings as errors."""
    cmd, *extra = READERS[reader]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(ws, cmd, path, *extra, out=out)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_points_on_the_coordinate_bound_run_clean(ws, tmp_path, reader):
    corners = [",".join(map(repr, [*c, 0.5, 0, *c]))
               for c in product((-io.COORD_BOUND, io.COORD_BOUND), repeat=3)]
    path, _ = _scan_plus(ws, tmp_path / "edge.csv", corners)
    assert _run_as_errors(ws, reader, path, tmp_path / "o") in (0, 3, 4, 5)


@pytest.mark.parametrize("row, rule", [
    ("1.7e308,1.7e308,1.7e308,0.5,0,1.0,1.0,1.0",
     "coordinate outside [-1e+12, 1e+12] m"),
    ("1.0,2.0,0.5,nan,0,1.0,2.0,0.5", "intensity outside [0, 1]"),
    ("1.0,2.0,0.5,2.0,0,1.0,2.0,0.5", "intensity outside [0, 1]"),
], ids=["far", "nan-intensity", "intensity-2"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_bad_point_row_exits_2_naming_its_line(ws, tmp_path, capsys, reader,
                                                row, rule):
    path, line = _scan_plus(ws, tmp_path / "bad.csv", [row])
    assert _run_as_errors(ws, reader, path, tmp_path / "o") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"ringloc: error: {path}:{line}: {rule}"]


def test_localize_needs_scan_format(ws, tmp_path):
    rc = run(ws, "localize", str(ws["cloud_path"]), out=tmp_path / "o")
    assert rc == 2


def test_regressor_predictor_needs_weights(ws, tmp_path):
    rc = run(ws, "localize", str(ws["scan_path"]), "--predictor", "regressor",
             out=tmp_path / "o")
    assert rc == 2


@pytest.mark.parametrize("cmd", ["localize", "bench"])
def test_regressor_width_off_the_encoder_exits_2_at_load(ws, tmp_path, capsys,
                                                         monkeypatch, cmd):
    weights = tmp_path / "narrow.bin"
    save_regressor_weights(weights, init_regressor_weights(
        RegressorConfig(width=32), seed=0))
    reached = []
    monkeypatch.setattr(ringloc.cli, "localize_scan",
                        lambda *a, **k: reached.append("localize_scan"))
    monkeypatch.setattr(ringloc.cli, "run_conditions",
                        lambda *a, **k: reached.append("bench frames"))
    extra = [str(ws["scan_path"])] if cmd == "localize" else []
    rc = run(ws, cmd, *extra, "--predictor", "regressor",
             "--regressor-weights", str(weights), out=tmp_path / "o")
    assert rc == 2 and reached == []
    err = capsys.readouterr().err
    assert "width 32" in err and "output_width 64" in err
    assert not (tmp_path / "o").exists()


def test_pipeline_error_exits_1_on_one_line(ws, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RinglocError("stage gave up")

    monkeypatch.setattr(ringloc.cli, "rectify_frame", fail)
    rc = run(ws, "rectify", str(ws["cloud_path"]), out=tmp_path / "o")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["ringloc: error: stage gave up"]
    assert "Traceback" not in err


def test_train_toy_builds_the_regressor_at_the_encoder_width(tmp_path):
    cfg = _text_file(tmp_path / "w32.cfg", "config_version = 1\n"
                     "trajectory.n_poses = 2\ntrain.epochs = 1\n"
                     "train.points_per_scan = 32\nencoder.output_width = 32\n")
    out = tmp_path / "o"
    assert main(["train-toy", "--config", cfg, "--out", str(out)]) == 0
    weights = load_regressor_weights(out / "regressor_weights.bin")
    assert weights.config.width == 32


def test_train_toy_negative_epochs_exits_2(ws, tmp_path, capsys):
    rc = run(ws, "train-toy", "--epochs", "-1", out=tmp_path / "o")
    assert rc == 2
    assert_flag_error_before_out(capsys, tmp_path / "o", "--epochs", "train")


def test_bench_perturb_past_its_range_exits_2(ws, tmp_path, capsys):
    rc = run(ws, "bench", "--perturb", "dropout=2", out=tmp_path / "o")
    assert rc == 2
    assert_flag_error_before_out(capsys, tmp_path / "o", "--perturb", "bench")


@pytest.mark.parametrize("perturb, why", [
    ("fov_limit=0", "fov_limit magnitude must be in (0, 360], got 0.0"),
    ("bogus=1", "unknown perturbation kind 'bogus'")],
    ids=["fov_limit-0", "bogus"])
def test_localize_bad_perturb_exits_2_before_out(ws, tmp_path, capsys,
                                                 perturb, why):
    out = tmp_path / "o"
    rc = run(ws, "localize", str(ws["scan_path"]), "--perturb", perturb,
             out=out)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"ringloc: error: bad perturbation '{perturb}': {why}\n")
    assert not out.exists()


# -0 equals 0, but numpy's draws read its sign; a range closed at 0 rejects
# it at load, so these exit 2 where they ended in a numpy ValueError.  A
# dotted name is a config key set for bench, a bare one a localize
# --perturb magnitude.
@pytest.mark.parametrize("name, why", [
    ("sensor.range_noise",
     "section 'sensor': range_noise must be in [0, 1000], got -0.0"),
    ("oracle.sigma_reliable",
     "section 'oracle': sigma_reliable must be in [0, 1000], got -0.0"),
    ("oracle.outlier_box",
     "section 'oracle': outlier_box must be in [0, 1000], got -0.0"),
    ("gaussian_noise", "bad perturbation 'gaussian_noise=-0': "
     "gaussian_noise magnitude must be in [0, 1000], got -0.0"),
    ("pitch_roll", "bad perturbation 'pitch_roll=-0': "
     "pitch_roll magnitude must be in [0, 15], got -0.0"),
], ids=["range_noise", "sigma_reliable", "outlier_box", "gaussian_noise",
        "pitch_roll"])
def test_negative_zero_in_a_range_closed_at_0_exits_2(ws, tmp_path, capsys,
                                                      name, why):
    out = tmp_path / "o"
    if "." in name:
        cfg = _text_file(tmp_path / "negzero.cfg",
                         f"config_version = 1\n{name} = -0\n")
        argv = ["bench", "--config", cfg, "--out", str(out)]
        why = f"{cfg}: {why}"
    else:
        argv = ["localize", str(ws["scan_path"]), "--perturb", f"{name}=-0",
                "--config", str(ws["cfg_path"]), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == f"ringloc: error: {why}\n"
    assert not out.exists()


def test_train_toy_under_four_points_exits_5_on_one_line(tmp_path):
    # Three poses at stride 8 train on frame 0 alone, one point from it:
    # too few for four reliability quartiles, so train-toy stops before
    # the epochs instead of writing nan quartiles (a warning, and under
    # -W error a traceback).
    cfg = _text_file(tmp_path / "tiny.cfg", "config_version = 1\n"
                     "trajectory.n_poses = 3\ntrain.points_per_scan = 1\n")
    out = tmp_path / "o"
    proc = run_with_blas_threads(1, "-W", "error", "-m", "ringloc.cli",
                                 "train-toy", "--config", cfg,
                                 "--out", str(out))
    assert proc.returncode == 5
    assert proc.stderr.startswith("ringloc: error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_degenerate_geometry_exits_3(ws, tmp_path):
    line = tmp_path / "line.csv"
    t = np.linspace(0.0, 1.0, 50)
    xyz = np.column_stack([t, 2.0 * t, 0.5 * t]) + 1.0
    io.write_cloud_csv(line, __import__("ringloc.se3", fromlist=["PointCloud"])
                       .PointCloud(xyz, np.full(50, 0.5)))
    rc = run(ws, "rectify", str(line), out=tmp_path / "o")
    assert rc == 3


def test_rectify_of_two_points_exits_3_leaving_no_out(ws, tmp_path, capsys):
    cloud = _text_file(tmp_path / "two.csv", f"{io.CLOUD_HEADER}\n"
                       "1.0,0.0,0.0,0.5\n0.0,1.0,0.0,0.5\n")
    out = tmp_path / "o"
    assert run(ws, "rectify", cloud, out=out) == 3
    assert capsys.readouterr().err == (
        "ringloc: error: plane fit needs at least 3 points\n")
    assert not out.exists()


def test_no_consensus_exits_4(ws, tmp_path):
    cfg = trimmed_config()
    cfg.pose.threshold = 1e-300  # nothing can agree this tightly
    cfg_path = tmp_path / "strict.cfg"
    write_config(cfg_path, cfg)
    rc = main(["localize", str(ws["scan_path"]), "--config", str(cfg_path),
               "--out", str(tmp_path / "o")])
    assert rc == 4


def test_bench_with_no_localized_baseline_frame_completes(tmp_path):
    cfg = _text_file(tmp_path / "strict.cfg", "config_version = 1\n"
                     "trajectory.n_poses = 3\npose.threshold = 1e-300\n"
                     "bench.perturbations = yaw:90\n")
    out = tmp_path / "o"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    assert ((out / "baseline_frames.csv").read_text()
            == "frame,pos_err_m,ori_err_deg\n")
    summary = json.loads((out / "baseline_summary.json").read_text())
    assert summary == {"schema_version": 1, "frames": 0}
    jsonschema.validate(summary, report_schema())
    assert (out / "perturbations.csv").read_text().splitlines()[1:] == [
        "baseline,0,3,nan,nan,nan", "yaw:90,0,3,nan,nan,nan"]
    assert (out / "failures.csv").read_text().splitlines()[1:] == [
        f"{label},{frame},NoConsensus"
        for label in ("baseline", "yaw:90") for frame in range(3)]


@pytest.mark.parametrize("cmd", ["bench", "train-toy"])
def test_nothing_in_range_exits_5_naming_frame_and_limit(tmp_path, capsys,
                                                         cmd):
    # No ray reaches the ground within 0.5 m of a sensor 1.3 m up or more.
    cfg = _text_file(tmp_path / "near.cfg",
                     "config_version = 1\nsensor.max_range = 0.5\n")
    out = tmp_path / "o"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 5
    assert capsys.readouterr().err.splitlines() == [
        "ringloc: error: frame 0: no ray hit anything within "
        "sensor.max_range = 0.5 m"]
    assert not out.exists()


def test_bench_derives_each_seed_once(tmp_path, monkeypatch):
    # 100 frames x (frame, scan, plane, oracle, pose, perturbation seed)
    # are 600 distinct seeds; the 7 conditions ask for them 3,100 times.
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    scan_seed.cache_clear()
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    assert main(["bench", "--out", str(tmp_path / "o")]) == 0
    assert 0 < len(built) <= 600


def test_bench_memory_does_not_grow_with_the_pose_count(tmp_path):
    # One walk: every condition runs on a frame before the next scan is
    # cast, so a bench holds one block of scans, not the trajectory.
    # Holding every scan peaked at 2.3 MB at 20 poses and 5.9 MB at 80;
    # the one walk peaks at 2.0 and 2.2 MB.
    peaks = []
    for k, n_poses in enumerate((20, 20, 80)):  # the first run warms up
        cfg = _text_file(tmp_path / f"{k}.cfg", "config_version = 1\n"
                         f"trajectory.n_poses = {n_poses}\n"
                         "bench.perturbations = none\n")
        tracemalloc.start()
        try:
            assert main(["bench", "--config", cfg,
                         "--out", str(tmp_path / f"o{k}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) <= 1e6, peaks


def far_plane_scan(n=80):
    """A scan of n coplanar points near x = 1e9 m: it rectifies, then
    voxelizes to a grid with no cell."""
    xy = np.random.default_rng(0).uniform(-10.0, 10.0, (n, 2)) + [1e9, 0.0]
    return io.SCAN_HEADER + "\n" + "".join(
        f"{x!r},{y!r},0.0,0.5,0,{x!r},{y!r},0.0\n" for x, y in xy.tolist())


@pytest.mark.parametrize("cmd, text", [
    ("rectify", io.CLOUD_HEADER + "\n"),
    ("project", FAR_CLOUD),
    ("localize", far_plane_scan()),
    ("encode", io.VOXEL_HEADER + "\n"),
], ids=["rectify", "project", "localize", "encode"])
def test_empty_input_exits_5(ws, tmp_path, capsys, cmd, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    out = tmp_path / "o"
    assert run(ws, cmd, str(path), out=out) == 5
    err = capsys.readouterr().err
    assert err.startswith("ringloc: error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["train-toy", "bench"])
def test_ring_cells_off_the_encoder_grid_exits_2(tmp_path, capsys, cmd):
    cfg = trimmed_config()
    cfg.projection.ring_cells = 1000  # even, but not divisible by 16
    cfg_path = tmp_path / "ring.cfg"
    write_config(cfg_path, cfg)
    rc = main([cmd, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ringloc: error:") and err.count("\n") == 1
    assert "section 'projection': ring_cells must be a multiple of 16" in err


@pytest.mark.parametrize("cmd, line, named", [
    ("encode", "encoder.stage_widths = 4,0,16,32,48", "section 'encoder'"),
    ("bench", "sensor.n_azimuth = 0", "section 'sensor'"),
    ("bench", "oracle.u_reliable = nan,10.0", "section 'oracle'"),
    ("localize", "projection.voxel_size = inf", "section 'projection'"),
    ("train-toy", "train.lr = nan", "section 'train'"),
    ("localize", "pose.refit_on_inliers = false",
     "unknown key 'pose.refit_on_inliers'"),
    ("rectify", "bench.perturbations = jitterbug:3", "section 'bench'"),
    ("bench", "projection.ring_cells = 8", "section 'projection'"),
    ("localize", "projection.ring_cells = 24", "section 'projection'"),
    ("train-toy", "projection.ring_cells = 1000", "section 'projection'"),
    ("localize", "pose.iterations = 100001", "section 'pose'"),
    ("rectify", "plane.iterations = 100001", "section 'plane'"),
    ("train-toy", "regressor.width = 32", "unknown key 'regressor.width'"),
    ("bench", "sensor.n_azimuth = 1000000000000", "section 'sensor'"),
    ("encode", "encoder.output_width = 1000000", "section 'encoder'"),
    ("bench", "bench.seed 3", "bad.cfg:2: expected 'key = value'"),
    ("bench", "config_version = 2", "bad.cfg:2: unsupported config version"),
])
def test_invalid_config_value_exits_2_on_one_line(ws, tmp_path, capsys, cmd,
                                                 line, named):
    cfg = _text_file(tmp_path / "bad.cfg", f"config_version = 1\n{line}\n")
    extra = {"encode": [str(ws["cloud_path"])],
             "rectify": [str(ws["cloud_path"])],
             "localize": [str(ws["scan_path"])]}.get(cmd, [])
    rc = main([cmd, *extra, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ringloc: error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert named in err
    assert not (tmp_path / "o").exists()


def test_missing_file_exits_2(ws, tmp_path):
    rc = run(ws, "rectify", str(tmp_path / "nope.csv"), out=tmp_path / "o")
    assert rc == 2


def test_config_round_trip_through_cli_path(ws, tmp_path):
    # the config the workspace wrote parses back to the same values
    cfg = read_config(ws["cfg_path"])
    assert cfg.trajectory.n_poses == 10
    assert cfg.bench.perturbations == "yaw:180"
    assert cfg.pose.iterations == 200
