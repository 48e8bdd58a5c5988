"""Command-line front end.

Subcommands map to pipeline stages (rectify, project, encode, localize)
plus the synthetic benchmark (bench) and the toy training run
(train-toy).  All outputs are written atomically under --out with fixed
names and shortest round-trip number formatting, so a rerun with the
same inputs and seed is byte-identical.

Exit codes: 2 malformed input, 3 degenerate geometry, 4 no consensus,
5 empty scan or grid, 1 other pipeline errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from . import config as cfgmod
from . import io
from .encoder import encode, init_encoder_weights, load_encoder_weights, \
    save_encoder_weights
from .errors import ParseError, RinglocError
from .metrics import emit_report, summarize
from .pipeline import SEED_PERTURB, localize_scan, run_bench
from .plane import rectify
from .projection import project_cylindrical, recover_cartesian, voxelize
from .regressor import load_regressor_weights, save_regressor_weights
from .simulate import Perturbation, Scan, perturb_scan, scan_seed
from .train import build_training_set, evaluate_quartiles, train_regressor
from . import train as trainmod


def _config_epilog() -> str:
    lines = ["config keys (key = value per line, '#' comments):"]
    for key, doc in cfgmod.KEY_DOCS.items():
        lines.append(f"  {key:28s} {doc}")
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
                       help="config file (default: shipped benchmark config)")
        p.add_argument("--seed", type=int, default=None,
                       help="run seed (default: bench.seed from the config)")
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

    p = sub.add_parser("localize", help="full pose estimate for one scan")
    common(p, needs_input=True)
    p.add_argument("--predictor", choices=("oracle", "regressor"),
                   default="oracle")
    p.add_argument("--perturb", action="append", default=[],
                   metavar="KIND=VALUE", help="corrupt the scan first")
    p.add_argument("--encoder-weights", type=Path, default=None)
    p.add_argument("--regressor-weights", type=Path, default=None)

    p = sub.add_parser("bench", help="run the synthetic benchmark")
    common(p)
    p.add_argument("--predictor", choices=("oracle", "regressor"),
                   default="oracle")
    p.add_argument("--perturb", action="append", default=[],
                   metavar="KIND=VALUE",
                   help="override the config's perturbation list")
    p.add_argument("--encoder-weights", type=Path, default=None)
    p.add_argument("--regressor-weights", type=Path, default=None)

    p = sub.add_parser("train-toy", help="train the regressor at toy scale")
    common(p)
    p.add_argument("--loss", choices=trainmod.LOSS_KINDS, default="trr")
    p.add_argument("--epochs", type=int, default=None,
                   help="override train.epochs (>= 0; 0 keeps the init)")
    return parser


def _load_config(args) -> cfgmod.PipelineConfig:
    if args.config is not None:
        return cfgmod.read_config(args.config)
    return cfgmod.standard_bench_config()


def _run_seed(args, cfg) -> int:
    return cfg.bench.seed if args.seed is None else args.seed


def _parse_cli_perturb(tokens: List[str]) -> List[Optional[Perturbation]]:
    out = []
    for tok in tokens:
        kind, _, value = tok.partition("=")
        try:
            out.append(Perturbation(kind.strip(),
                                    float(value) if value else 0.0))
        except ValueError as exc:
            raise ParseError(f"bad --perturb '{tok}': {exc}") from exc
    return out


def _outdir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _read_scan(path) -> Scan:
    cloud, classes, gt = io.read_scan_csv(path)
    if classes is None:
        raise ParseError(f"{path}: localize needs the simulated scan format "
                         f"('{io.SCAN_HEADER}')")
    return Scan(cloud, classes, gt)


def cmd_rectify(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    cloud = io.read_cloud_csv(args.input)
    seed = _run_seed(args, cfg)
    rect_cloud, t_plane = rectify(cloud, replace(cfg.plane, seed=seed))
    io.write_cloud_csv(out / "rectified.csv", rect_cloud)
    io.write_pose(out / "t_plane.txt", t_plane)
    return 0


def cmd_project(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    cloud = io.read_cloud_csv(args.input)
    voxels = voxelize(project_cylindrical(cloud, cfg.projection),
                      cfg.projection)
    io.write_voxel_csv(out / "voxels.csv", voxels)
    if args.recover:
        io.write_cloud_csv(out / "recovered.csv",
                           recover_cartesian(voxels, cfg.projection))
    return 0


def cmd_encode(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    voxels = io.read_voxel_csv(args.input, cfg.projection)
    if args.encoder_weights is not None:
        weights = load_encoder_weights(args.encoder_weights)
    else:
        weights = init_encoder_weights(cfg.encoder, seed=_run_seed(args, cfg))
    feats = encode(voxels, weights)
    header = "ix,iy,iz," + ",".join(f"f{i}" for i in range(feats.shape[1]))
    lines = [header]
    for (ix, iy, iz), row in zip(voxels.indices, feats):
        lines.append(f"{ix},{iy},{iz},"
                     + ",".join(repr(float(x)) for x in row))
    io.atomic_write_text(out / "features.csv", "\n".join(lines) + "\n")
    return 0


def _predictor_weights(args, cfg, seed):
    if args.predictor != "regressor":
        return None, None
    enc = (load_encoder_weights(args.encoder_weights)
           if args.encoder_weights is not None
           else init_encoder_weights(cfg.encoder, seed=seed))
    if args.regressor_weights is None:
        raise ParseError("--predictor regressor needs --regressor-weights")
    return enc, load_regressor_weights(args.regressor_weights)


def cmd_localize(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    scan = _read_scan(args.input)
    seed = _run_seed(args, cfg)
    enc_w, reg_w = _predictor_weights(args, cfg, seed)
    for p in _parse_cli_perturb(args.perturb):
        scan, _ = perturb_scan(scan, p, scan_seed(seed, SEED_PERTURB))
    result = localize_scan(scan, cfg, seed, args.predictor, enc_w, reg_w)
    io.write_pose(out / "pose.txt", result.transform)
    sidecar = {
        "inlier_count": int(len(result.pose.inliers)),
        "rms_residual": float(result.pose.rms_residual),
        "seed": int(seed),
    }
    io.atomic_write_text(out / "pose.json", json.dumps(sidecar, indent=2) + "\n")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    seed = _run_seed(args, cfg)
    enc_w, reg_w = _predictor_weights(args, cfg, seed)
    if args.perturb:
        perturbations = _parse_cli_perturb(args.perturb)
    else:
        perturbations = cfgmod.parse_perturbation_list(cfg.bench.perturbations)
    rows = run_bench(cfg, seed, perturbations, args.predictor, enc_w, reg_w)

    emit_report(rows[0].result, out / "baseline_frames.csv", fmt="csv")
    emit_report(rows[0].result, out / "baseline_summary.json", fmt="json")

    table = ["label,frames_ok,frames_failed,mpe_m,moe_deg,success@0.5"]
    fail_lines = ["label,frame,error"]
    for row in rows:
        s = summarize(row.result) if len(row.result) else None
        table.append(",".join([
            row.label, str(len(row.result)), str(len(row.failures)),
            repr(s["mpe_m"]) if s else "nan",
            repr(s["moe_deg"]) if s else "nan",
            repr(s["success@0.5"]) if s else "nan",
        ]))
        for frame, err in row.failures:
            fail_lines.append(f"{row.label},{frame},{err}")
    io.atomic_write_text(out / "perturbations.csv", "\n".join(table) + "\n")
    io.atomic_write_text(out / "failures.csv", "\n".join(fail_lines) + "\n")
    return 0


def cmd_train_toy(args) -> int:
    if args.epochs is not None and args.epochs < 0:
        raise ParseError(f"--epochs must be at least 0, got {args.epochs}")
    cfg = _load_config(args)
    out = _outdir(args)
    seed = _run_seed(args, cfg)
    enc_weights = init_encoder_weights(cfg.encoder, seed=seed)
    tset = build_training_set(cfg, enc_weights, run_seed=seed)
    weights, telemetry = train_regressor(tset, cfg, args.loss,
                                         epochs=args.epochs)
    u, errors, quartiles = evaluate_quartiles(tset, weights)

    lines = ["epoch,loss,lr,n_clamped"]
    for e in telemetry:
        lines.append(f"{e.epoch},{repr(e.loss)},{repr(e.lr)},{e.n_clamped}")
    io.atomic_write_text(out / "telemetry.csv", "\n".join(lines) + "\n")

    qlines = ["quartile,mean_err_m"]
    for q, val in enumerate(quartiles, start=1):
        qlines.append(f"{q},{repr(float(val))}")
    io.atomic_write_text(out / "quartiles.csv", "\n".join(qlines) + "\n")

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
        return COMMANDS[args.command](args)
    except RinglocError as exc:
        print(f"ringloc: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
