"""Command-line front end.

Subcommands map to pipeline stages (rectify, project, encode, localize)
plus the synthetic benchmark (bench) and the toy training run
(train-toy).  All outputs are written atomically under --out with fixed
names and shortest round-trip number formatting, so a rerun with the
same inputs and seed is byte-identical.

Exit codes: 2 malformed input, 3 degenerate geometry, 4 no consensus,
5 empty scan or grid (or a training set under 4 points), 1 other
pipeline errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from . import io
from .encoder import encode, init_encoder_weights, load_encoder_weights, \
    save_encoder_weights
from .errors import ParseError, RinglocError
from .keys import describe
from .metrics import orientation_errors_deg, position_errors, summarize
from .pipeline import SEED_PERTURB, SEED_PLANE, localize_scan, \
    run_perturbed_trajectory, simulate_trajectory
from .plane import rectify
from .projection import project_cylindrical, recover_cartesian, voxelize
from .regressor import load_regressor_weights, save_regressor_weights
from .simulate import Scan, perturb_scan, scan_seed
from .train import build_training_set, evaluate_quartiles, train_regressor
from . import train as trainmod


def _config_epilog() -> str:
    lines = ["config keys (key = value per line, '#' comments), each with "
             "its valid range and standard value; a value outside the range "
             "exits 2:"]
    for key, f, value in cfgmod.config_keys(cfgmod.PipelineConfig()):
        lines.append(f"  {key:28s} {describe(f)}; "
                     f"standard {cfgmod.format_value(value)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringloc",
        description="Yaw-robust LiDAR relocalization on a cylindrical grid.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        if needs_input:
            p.add_argument("input", help="input file")
        p.add_argument("--config", type=Path, default=None,
                       help="config file: config_version = 1 plus the keys it "
                       "changes (default: the standard config)")
        p.add_argument("--seed", type=int, default=None,
                       help="run seed, >= 0 (default: bench.seed from the config)")
        p.add_argument("--out", type=Path, required=True,
                       help="output directory")

    p = sub.add_parser("rectify", help="fit the ground plane and level a cloud")
    common(p, needs_input=True)

    p = sub.add_parser("project", help="cylindrical projection + voxel grid")
    common(p, needs_input=True)
    p.add_argument("--recover", action="store_true",
                   help="also write voxel centers mapped back to Cartesian")

    p = sub.add_parser("encode", help="run the sparse encoder over a voxel csv")
    common(p, needs_input=True)
    p.add_argument("--encoder-weights", type=Path, default=None,
                   help="weight file (default: seeded random init)")

    def predicting(p, perturb_help):
        p.add_argument("--predictor", choices=("oracle", "regressor"),
                       default="oracle")
        p.add_argument("--perturb", action="append", default=[],
                       metavar="KIND=VALUE", help=perturb_help)
        p.add_argument("--encoder-weights", type=Path, default=None)
        p.add_argument("--regressor-weights", type=Path, default=None)

    p = sub.add_parser("localize", help="full pose estimate for one scan")
    common(p, needs_input=True)
    predicting(p, "corrupt the scan first (KIND:VALUE also accepted)")

    p = sub.add_parser("bench", help="run the synthetic benchmark")
    common(p)
    predicting(p, "override the config's perturbation list")

    p = sub.add_parser("train-toy", help="train the regressor at toy scale")
    common(p)
    p.add_argument("--loss", choices=trainmod.LOSS_KINDS, default="trr")
    p.add_argument("--epochs", type=int, default=None,
                   help="override train.epochs (>= 0; 0 keeps the init)")
    return parser


def _read_scan(path) -> Scan:
    cloud, classes, gt = io.read_scan_csv(path)
    if classes is None:
        raise ParseError(f"{path}: localize needs the simulated scan format "
                         f"('{io.SCAN_HEADER}')")
    return Scan(cloud, classes, gt)


def cmd_rectify(args, cfg, out) -> int:
    cloud = io.read_cloud_csv(args.input)
    rect_cloud, t_plane = rectify(
        cloud, replace(cfg.plane, seed=scan_seed(args.seed, SEED_PLANE)))
    io.write_cloud_csv(out / "rectified.csv", rect_cloud)
    io.write_pose(out / "t_plane.txt", t_plane)
    return 0


def cmd_project(args, cfg, out) -> int:
    cloud = io.read_cloud_csv(args.input)
    voxels = voxelize(project_cylindrical(cloud, cfg.projection),
                      cfg.projection)
    io.write_voxel_csv(out / "voxels.csv", voxels)
    if args.recover:
        io.write_cloud_csv(out / "recovered.csv",
                           recover_cartesian(voxels, cfg.projection))
    return 0


def _encoder_weights(args, cfg):
    """--encoder-weights if given, else the run seed's random init."""
    if args.encoder_weights is not None:
        return load_encoder_weights(args.encoder_weights)
    return init_encoder_weights(cfg.encoder, seed=args.seed)


def cmd_encode(args, cfg, out) -> int:
    voxels = io.read_voxel_csv(args.input, cfg.projection)
    feats = encode(voxels, _encoder_weights(args, cfg))
    header = "ix,iy,iz," + ",".join(f"f{i}" for i in range(feats.shape[1]))
    rows = ((*idx, *row) for idx, row
            in zip(voxels.indices.tolist(), feats.tolist()))
    io.write_csv(out / "features.csv", header, rows)
    return 0


def _predictor_weights(args, cfg):
    """Both weight sets of the regressor predictor, checked to fit."""
    if args.predictor != "regressor":
        return None, None
    enc = _encoder_weights(args, cfg)
    if args.regressor_weights is None:
        raise ParseError("--predictor regressor needs --regressor-weights")
    reg = load_regressor_weights(args.regressor_weights)
    if reg.config.width != enc.config.output_width:
        raise ParseError(f"{args.regressor_weights}: regressor width "
                         f"{reg.config.width} does not match the encoder's "
                         f"output_width {enc.config.output_width}")
    return enc, reg


def cmd_localize(args, cfg, out) -> int:
    scan = _read_scan(args.input)
    enc_w, reg_w = _predictor_weights(args, cfg)
    # every --perturb draws in turn from one generator, not a fresh copy
    rng = np.random.default_rng(scan_seed(args.seed, SEED_PERTURB))
    for p in cfgmod.parse_perturbation_list(",".join(args.perturb)):
        scan, _ = perturb_scan(scan, p, rng)
    result = localize_scan(scan, cfg, args.seed, args.predictor, enc_w, reg_w)
    io.write_pose(out / "pose.txt", result.transform)
    sidecar = {
        "inlier_count": int(len(result.pose.inliers)),
        "rms_residual": float(result.pose.rms_residual),
        "seed": int(args.seed),
    }
    io.atomic_write_text(out / "pose.json", json.dumps(sidecar, indent=2) + "\n")
    return 0


def cmd_bench(args, cfg, out) -> int:
    enc_w, reg_w = _predictor_weights(args, cfg)
    text = ",".join(args.perturb) if args.perturb else cfg.bench.perturbations
    perturbations = cfgmod.parse_perturbation_list(text)
    _, poses, scans = simulate_trajectory(cfg, args.seed)
    rows = [run_perturbed_trajectory(cfg, args.seed, poses, scans, p,
                                     args.predictor, enc_w, reg_w)
            for p in [None] + perturbations]

    baseline = rows[0].result
    io.write_csv(out / "baseline_frames.csv", "frame,pos_err_m,ori_err_deg",
                 zip(baseline.frames, position_errors(baseline),
                     orientation_errors_deg(baseline)))
    summaries = [summarize(row.result) if len(row.result) else {}
                 for row in rows]
    io.atomic_write_text(out / "baseline_summary.json",
                         json.dumps(summaries[0], indent=2) + "\n")

    stats = ("mpe_m", "moe_deg", "success@0.5")  # summary keys per condition
    table, failures = [], []
    for row, s in zip(rows, summaries):
        table.append([row.label, len(row.result), len(row.failures)]
                     + [s.get(key, math.nan) for key in stats])
        for frame, err in row.failures:
            failures.append((row.label, frame, err))
    io.write_csv(out / "perturbations.csv",
                 ",".join(("label", "frames_ok", "frames_failed") + stats),
                 table)
    io.write_csv(out / "failures.csv", "label,frame,error", failures)
    return 0


def cmd_train_toy(args, cfg, out) -> int:
    if args.epochs is not None and args.epochs < 0:
        raise ParseError(f"--epochs must be at least 0, got {args.epochs}")
    enc_weights = init_encoder_weights(cfg.encoder, seed=args.seed)
    tset = build_training_set(cfg, enc_weights, run_seed=args.seed)
    weights, telemetry = train_regressor(tset, cfg, args.loss,
                                         epochs=args.epochs)
    _, _, quartiles = evaluate_quartiles(tset, weights)
    io.write_csv(out / "telemetry.csv", "epoch,loss,lr,n_clamped",
                 ((e.epoch, e.loss, e.lr, e.n_clamped) for e in telemetry))
    io.write_csv(out / "quartiles.csv", "quartile,mean_err_m",
                 enumerate(quartiles, start=1))
    save_encoder_weights(out / "encoder_weights.bin", enc_weights)
    save_regressor_weights(out / "regressor_weights.bin", weights)
    return 0


COMMANDS = {
    "rectify": cmd_rectify,
    "project": cmd_project,
    "encode": cmd_encode,
    "localize": cmd_localize,
    "bench": cmd_bench,
    "train-toy": cmd_train_toy,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (cfgmod.read_config(args.config) if args.config is not None
               else cfgmod.PipelineConfig())
        if args.seed is None:
            args.seed = cfg.bench.seed
        if args.seed < 0:
            raise ParseError(f"--seed must be at least 0, got {args.seed}")
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParseError(f"cannot create --out {args.out}: {exc}") from exc
        return COMMANDS[args.command](args, cfg, args.out)
    except RinglocError as exc:
        print(f"ringloc: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
