"""Command-line front end.

Subcommands map to pipeline stages (rectify, project, encode, localize)
plus the synthetic benchmark (bench) and the toy training run
(train-toy); each leaves every seed and perturbation rule to the
pipeline.  Outputs are written atomically under --out, which the first
write creates, with fixed names and shortest round-trip number
formatting, so a rerun with the same inputs and seed is byte-identical.

Exit codes: 2 malformed input or an output that cannot be written,
3 degenerate geometry, 4 no consensus, 5 empty scan or grid (or a
training set under 4 points), 1 other pipeline errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from . import io
from .encoder import EncoderConfig, encode, init_encoder_weights
from .errors import ParseError, RinglocError
from .keys import describe
from .metrics import orientation_errors_deg, position_errors, summarize
from .pipeline import localize_scan, perturb_frame, rectify_frame, \
    run_conditions, trajectory_scans
from .projection import project_cylindrical, recover_cartesian, voxelize
from .regressor import load_regressor_weights
from .se3 import identity
from .simulate import Scan
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


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no
    state in it, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="ringloc",
        description="Yaw-robust LiDAR relocalization on a cylindrical grid.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, needs_input=False):
        p.set_defaults(run=run)
        if needs_input:
            p.add_argument("input", help="input file")
        p.add_argument("--config", type=Path, default=None,
                       help="config file: config_version = 1 plus the keys it "
                       "changes (default: the standard config)")
        p.add_argument("--seed", type=int, default=None,
                       help="set bench.seed, the run seed")
        p.add_argument("--out", type=Path, required=True,
                       help="output directory")

    p = sub.add_parser("rectify", help="fit the ground plane and level a cloud")
    common(p, cmd_rectify, needs_input=True)

    p = sub.add_parser("project", help="cylindrical projection + voxel grid")
    common(p, cmd_project, needs_input=True)
    p.add_argument("--recover", action="store_true",
                   help="also write voxel centers mapped back to Cartesian")

    p = sub.add_parser("encode", help="run the sparse encoder over a voxel csv")
    common(p, cmd_encode, needs_input=True)
    p.add_argument("--encoder-weights", type=Path, default=None,
                   help="weight file (default: seeded random init)")

    def predicting(p, perturb_dest, perturb_help):
        p.add_argument("--predictor", choices=("oracle", "regressor"),
                       default="oracle")
        p.add_argument("--perturb", action="append", dest=perturb_dest,
                       metavar="KIND=VALUE", help=perturb_help)
        p.add_argument("--encoder-weights", type=Path, default=None)
        p.add_argument("--regressor-weights", type=Path, default=None)

    p = sub.add_parser("localize", help="full pose estimate for one scan")
    common(p, cmd_localize, needs_input=True)
    predicting(p, "perturb", "corrupt the scan first (or KIND:VALUE)")

    p = sub.add_parser("bench", help="run the synthetic benchmark")
    common(p, cmd_bench)
    predicting(p, "perturbations", "set bench.perturbations, one per flag")

    p = sub.add_parser("train-toy", help="train the regressor at toy scale")
    common(p, cmd_train_toy)
    p.add_argument("--loss", choices=trainmod.LOSSES, default="trr")
    p.add_argument("--epochs", type=int, default=None,
                   help="set train.epochs (0 keeps the init)")
    return parser


def _read_scan(path) -> Scan:
    cloud, classes, gt = io.read_scan_csv(path)
    if classes is None:
        raise ParseError(f"{path}: localize needs the simulated scan format "
                         f"('{io.SCAN_HEADER}')")
    return Scan(cloud, classes, gt)


def cmd_rectify(args, cfg, out) -> int:
    rect_cloud, t_plane = rectify_frame(io.read_cloud_csv(args.input), cfg,
                                        cfg.bench.seed)
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
        return io.load_weights(args.encoder_weights, "encoder",
                               EncoderConfig.from_tensors)
    return init_encoder_weights(cfg.encoder, seed=cfg.bench.seed)


def cmd_encode(args, cfg, out) -> int:
    voxels = io.read_voxel_csv(args.input, cfg.projection)
    feats = encode(voxels, _encoder_weights(args, cfg))
    if not np.isfinite(feats).all():  # the seeded init cannot overflow
        raise ParseError(f"{args.encoder_weights}: encoder features overflow")
    header = "ix,iy,iz," + ",".join(f"f{i}" for i in range(feats.shape[1]))
    io.write_csv(out / "features.csv", header, [voxels.indices, feats])
    return 0


def _predictor_weights(args, cfg):
    """`localize_scan`'s weights: none for "oracle", where a weight file
    is an error, and both sets, checked to fit, for "regressor"."""
    if args.predictor != "regressor":
        for flag, path in (("--encoder-weights", args.encoder_weights),
                           ("--regressor-weights", args.regressor_weights)):
            if path is not None:
                raise ParseError(f"{path}: {flag} is read only with "
                                 "--predictor regressor")
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
    perturbations = cfgmod.parse_perturbation_list(",".join(args.perturb or ()))
    scan = _read_scan(args.input)
    enc_w, reg_w = _predictor_weights(args, cfg)
    seed = cfg.bench.seed
    scan, _ = perturb_frame(scan, identity(), perturbations, seed)
    result = localize_scan(scan, cfg, seed, args.predictor, enc_w, reg_w)
    io.write_pose(out / "pose.txt", result.transform)
    sidecar = {
        "inlier_count": int(len(result.pose.inliers)),
        "rms_residual": float(result.pose.rms_residual),
        "seed": seed,
    }
    io.atomic_write_text(out / "pose.json", json.dumps(sidecar, indent=2) + "\n")
    return 0


def cmd_bench(args, cfg, out) -> int:
    enc_w, reg_w = _predictor_weights(args, cfg)
    perturbations = cfgmod.parse_perturbation_list(cfg.bench.perturbations)
    _, poses, scans = trajectory_scans(cfg, cfg.bench.seed)
    rows = run_conditions(cfg, cfg.bench.seed, poses, scans,
                          [None] + perturbations, args.predictor, enc_w, reg_w)

    baseline = rows[0].result  # empty when every baseline frame failed
    io.write_csv(out / "baseline_frames.csv", "frame,pos_err_m,ori_err_deg",
                 [baseline.frames, position_errors(baseline),
                  orientation_errors_deg(baseline)] if len(baseline) else [])
    summaries = [summarize(row.result) for row in rows]
    io.atomic_write_text(out / "baseline_summary.json",
                         json.dumps(summaries[0], indent=2) + "\n")

    stats = ("mpe_m", "moe_deg", "success@0.5")  # summary keys per condition
    io.write_csv(out / "perturbations.csv",
                 ",".join(("label", "frames_ok", "frames_failed") + stats),
                 [[row.label for row in rows],
                  [len(row.result) for row in rows],
                  [len(row.failures) for row in rows]]
                 + [[s.get(key, math.nan) for s in summaries] for key in stats])
    failures = [(row.label, frame, err)
                for row in rows for frame, err in row.failures]
    io.write_csv(out / "failures.csv", "label,frame,error", list(zip(*failures)))
    return 0


def cmd_train_toy(args, cfg, out) -> int:
    enc_weights = init_encoder_weights(cfg.encoder, seed=cfg.bench.seed)
    tset = build_training_set(cfg, enc_weights, run_seed=cfg.bench.seed)
    weights, telemetry = train_regressor(tset, cfg, args.loss)
    _, _, quartiles = evaluate_quartiles(tset, weights)
    fields = ("epoch", "loss", "lr", "n_clamped")
    io.write_csv(out / "telemetry.csv", ",".join(fields),
                 [[getattr(e, f) for e in telemetry] for f in fields])
    io.write_csv(out / "quartiles.csv", "quartile,mean_err_m",
                 [range(1, len(quartiles) + 1), quartiles])
    io.save_weights(out / "encoder_weights.bin", enc_weights)
    io.save_weights(out / "regressor_weights.bin", weights)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (cfgmod.read_config(args.config) if args.config is not None
               else cfgmod.PipelineConfig())
        # each flag that sets a key is checked by that key's range
        perturbations = getattr(args, "perturbations", None)
        for flag, section, name, value in (
                ("--seed", "bench", "seed", args.seed),
                ("--epochs", "train", "epochs", getattr(args, "epochs", None)),
                ("--perturb", "bench", "perturbations",
                 perturbations and ",".join(perturbations))):
            if value is not None:
                cfg = cfgmod.set_keys(cfg, {section: {name: value}}, flag)
        return args.run(args, cfg, args.out)
    except RinglocError as exc:
        print(f"ringloc: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
