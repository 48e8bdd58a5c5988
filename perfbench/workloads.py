"""The four benchmark workloads, their correctness checks and traced replays.

Each workload builds its inputs from the workload seed in `setup`, runs
one operation per `op` call (the timed unit), checks what the operations
produced in `check`, and in `replay` repeats the work with a span around
every call into a ringloc layer.  Seed 0 reproduces the standard config.

oracle-bench     one in-process `ringloc bench`: 7 conditions x 100 frames
regressor-stream one in-process `ringloc localize --predictor regressor`
                 per standard-trajectory scan, closed loop, one client
train-toy        one in-process `ringloc train-toy`
dense-scan       one `pipeline.localize_scan` per 1024x32-sensor scan,
                 closed loop, one client
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from ringloc import cli
from ringloc import io as rio
from ringloc.config import parse_perturbation_list, standard_bench_config
from ringloc.encoder import encode, init_encoder_weights
from ringloc.errors import RinglocError
from ringloc.losses import reliability_loss, reliability_loss_gradients
from ringloc.pipeline import SEED_ORACLE, SEED_PERTURB, SEED_PLANE, \
    SEED_POSE, SEED_SCAN, localize_scan, simulate_trajectory, \
    world_spec_from
from ringloc.plane import rectify
from ringloc.pose_solve import compensate, estimate_pose_ransac, \
    select_reliable
from ringloc.projection import project_cylindrical, recover_cartesian, \
    voxelize
from ringloc.regressor import init_regressor_weights, \
    load_regressor_weights, regress, regress_backward, save_regressor_weights
from ringloc.se3 import PointCloud, invert, yaw
from ringloc.simulate import Scan, effective_truth, generate_world, \
    loop_trajectory, oracle_predict, perturb_scan, scan_seed, simulate_scan
from ringloc.train import build_training_set, train_regressor

from spans import NullTracer, encoder_work, regressor_macs_per_row

# Acceptance gates (criteria 6 and 7) and the equivariance tolerance.
MPE_GATE_M = 0.05
MOE_GATE_DEG = 0.5
SUCCESS_M = 0.5
DROPOUT_FACTOR = 2.0
EQUIVARIANCE_TOL = 1e-5
EQUIVARIANCE_SHIFT = 16  # ring cells: one cell of the coarsest stage

DENSE_AZIMUTH = 1024
DENSE_ELEVATION = 32
DENSE_POOL = 8  # dense frames simulated per run and cycled through
EPOCH_PAIRS = 4  # plain/traced one-epoch pairs that time the tracing
REGRESSOR_EXIT_CODES = {0, 3, 4, 5}  # success or a typed pipeline outcome

# Every per-layer metric the traced run reports, in report order.
LAYER_METRICS = {
    "simulate.scan_ms": "ms", "simulate.perturb_ms": "ms",
    "simulate.oracle_ms": "ms", "simulate.points": "count",
    "plane.rectify_ms": "ms", "plane.table_mb": "MB",
    "projection.project_ms": "ms", "projection.voxelize_ms": "ms",
    "projection.recover_ms": "ms", "projection.voxels": "count",
    "projection.voxels_per_point": "ratio",
    "encoder.encode_ms": "ms", "encoder.init_ms": "ms",
    "encoder.sites.l0": "count", "encoder.sites.l1": "count",
    "encoder.sites.l2": "count", "encoder.sites.l3": "count",
    "encoder.sites.l4": "count", "encoder.slot_occupancy": "ratio",
    "encoder.gathered_macs": "MAC", "encoder.useful_macs": "MAC",
    "regressor.regress_ms": "ms", "regressor.backward_ms": "ms",
    "regressor.macs_per_row": "MAC",
    "losses.trr_ms": "ms", "losses.n_clamped": "count",
    "pose_solve.select_ms": "ms", "pose_solve.ransac_ms": "ms",
    "pose_solve.correspondences": "count", "pose_solve.inlier_ratio": "ratio",
    "pose_solve.score_mb": "MB", "pose_solve.no_consensus": "count",
    "pipeline.localize_ms": "ms", "pipeline.self_ms": "ms",
    "io.read_scan_ms": "ms", "io.load_weights_ms": "ms",
    "cli.self_ms": "ms",
    "train.build_set_s": "s", "train.regressor_s": "s",
    "train.epoch_ms": "ms",
    "trace.overhead_pct": "%",
}

# Mean duration of each span name, reported as the metric of the same stem.
SPAN_METRICS = {
    "simulate.scan": "simulate.scan_ms", "simulate.perturb": "simulate.perturb_ms",
    "simulate.oracle": "simulate.oracle_ms", "plane.rectify": "plane.rectify_ms",
    "projection.project": "projection.project_ms",
    "projection.voxelize": "projection.voxelize_ms",
    "projection.recover": "projection.recover_ms",
    "encoder.encode": "encoder.encode_ms", "encoder.init": "encoder.init_ms",
    "regressor.regress": "regressor.regress_ms",
    "regressor.backward": "regressor.backward_ms",
    "losses.trr": "losses.trr_ms",
    "pose_solve.select": "pose_solve.select_ms",
    "pose_solve.ransac": "pose_solve.ransac_ms",
    "pipeline.localize": "pipeline.localize_ms",
    "io.read_scan": "io.read_scan_ms", "io.load_weights": "io.load_weights_ms",
}

# Per-frame counts, reported as their mean over the frames that have them.
COUNT_METRICS = (
    "simulate.points", "plane.table_mb", "projection.voxels",
    "projection.voxels_per_point", "encoder.sites.l0", "encoder.sites.l1",
    "encoder.sites.l2", "encoder.sites.l3", "encoder.sites.l4",
    "encoder.slot_occupancy", "encoder.gathered_macs", "encoder.useful_macs",
    "pose_solve.correspondences", "pose_solve.inlier_ratio",
    "pose_solve.score_mb",
)


def sha16(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def pose_errors(est, truth) -> Tuple[float, float]:
    """Position error (m) and rotation angle between two poses (deg)."""
    pos = float(np.linalg.norm(est.translation - truth.translation))
    c = (np.trace(truth.rotation.T @ est.rotation) - 1.0) / 2.0
    return pos, math.degrees(math.acos(min(1.0, max(-1.0, c))))


def same_bits(a, b) -> bool:
    return (a.rotation.tobytes() == b.rotation.tobytes()
            and a.translation.tobytes() == b.translation.tobytes())


def is_rigid_pose(mat: np.ndarray) -> bool:
    """A finite 3x4 [R|t] whose R is a proper rotation."""
    if mat.shape != (3, 4) or not np.all(np.isfinite(mat)):
        return False
    r = mat[:, :3]
    return (np.allclose(r.T @ r, np.eye(3), atol=1e-6)
            and abs(np.linalg.det(r) - 1.0) < 1e-6)


def read_rows(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def call_cli(argv: List[str]):
    """Exit code of one in-process CLI call, or the traceback it raised.

    The CLI's one-line error reports are kept off the terminal.
    """
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crash
        return traceback.format_exc()


def trajectory_scans(tr, cfg, seed: int, frames):
    """({frame: scan} for the given frames, every trajectory pose).

    Scans are seeded as `ringloc bench` seeds them.
    """
    world = generate_world(world_spec_from(cfg), cfg.world.seed)
    poses = loop_trajectory(cfg.trajectory.n_poses, cfg.trajectory.radius,
                            cfg.trajectory.height)
    scans = {}
    for i in frames:
        with tr.span("simulate.scan", i):
            scans[i] = simulate_scan(world, poses[i], cfg.sensor,
                                     seed=scan_seed(scan_seed(seed, i), SEED_SCAN))
        tr.count("simulate.points", len(scans[i].cloud))
    return scans, poses


def replay_localize(tr, scan: Scan, cfg, frame_seed: int, frame: int,
                    enc_w, reg_w, keep):
    """`localize_scan`'s stages in its order, one span per layer call.

    Uses the oracle predictor unless both weight sets are given.  The
    voxel grid is left in `keep["voxels"]` for counting after the spans.
    """
    with tr.span("plane.rectify", frame):
        rect, t_plane = rectify(scan.cloud, replace(
            cfg.plane, seed=scan_seed(frame_seed, SEED_PLANE)))
    with tr.span("projection.project", frame):
        projected = project_cylindrical(rect, cfg.projection)
    with tr.span("projection.voxelize", frame):
        voxels = voxelize(projected, cfg.projection)
    keep["voxels"] = voxels
    src = voxels.source_index
    if reg_w is None:
        with tr.span("simulate.oracle", frame):
            coords, scores = oracle_predict(
                scan.gt_world, scan.classes, cfg.oracle,
                seed=scan_seed(frame_seed, SEED_ORACLE))
        local, pred, u = rect.xyz[src], coords[src], scores[src]
    else:
        with tr.span("encoder.encode", frame):
            feats = encode(voxels, enc_w)
        with tr.span("regressor.regress", frame):
            pred, u = regress(feats, reg_w)
        with tr.span("projection.recover", frame):
            local = recover_cartesian(voxels, cfg.projection).xyz
    with tr.span("pose_solve.select", frame):
        selected = select_reliable(u, cfg.selection)
    tr.count("pose_solve.correspondences", len(selected))
    tr.count("pose_solve.score_mb", cfg.pose.iterations * len(selected) * 3 * 8 / 1e6)
    with tr.span("pose_solve.ransac", frame):
        estimate = estimate_pose_ransac(
            local[selected], pred[selected],
            replace(cfg.pose, seed=scan_seed(frame_seed, SEED_POSE)))
    tr.count("pose_solve.inlier_ratio", len(estimate.inliers) / len(selected))
    with tr.span("pose_solve.compensate", frame):
        transform = compensate(estimate.transform, invert(t_plane))
    return transform


def count_grid(tr, cfg, n_points: int, voxels, enc_w=None) -> None:
    """Per-frame counts of the plane table, the voxel grid and the encoder."""
    tr.count("plane.table_mb", cfg.plane.iterations * n_points * 8 / 1e6)
    tr.count("projection.voxels", len(voxels))
    tr.count("projection.voxels_per_point", len(voxels) / n_points)
    if enc_w is not None:
        for name, value in encoder_work(voxels.indices, voxels.ring_cells,
                                        enc_w.tensors).items():
            tr.count(name, value)


class FrameReplay:
    """Per-frame replay bookkeeping: outcomes, mismatches, paired timings."""

    def __init__(self, tr):
        self.tr = tr
        self.frames = 0
        self.mismatches = 0
        self.outcomes: Dict[str, int] = {}
        self.plain_ms = 0.0
        self.traced_ms = 0.0
        self.self_ms: List[float] = []

    def frame(self, scan, cfg, frame_seed, frame, enc_w=None, reg_w=None):
        """Plain `localize_scan` and the traced replay of its stages.

        Returns (transform or error class name, exit code, agree), where
        agree says the replay reproduced the plain outcome bit for bit.
        """
        tr = self.tr
        predictor = "oracle" if reg_w is None else "regressor"
        keep = {}

        def plain():
            with tr.span("pipeline.localize", frame) as sid:
                try:
                    return (localize_scan(scan, cfg, frame_seed, predictor,
                                          enc_w, reg_w).transform, 0), sid
                except RinglocError as exc:
                    return (type(exc).__name__, exc.exit_code), sid

        def replayed():
            with tr.span("replay.frame", frame) as sid:
                try:
                    return replay_localize(tr, scan, cfg, frame_seed, frame,
                                           enc_w, reg_w, keep), sid
                except RinglocError as exc:
                    return type(exc).__name__, sid

        # Alternate which runs first, so warm caches favour neither side.
        order = (plain, replayed) if self.frames % 2 == 0 else (replayed, plain)
        out = {step: step() for step in order}
        ((result, exit_code), plain_sid), (replay, replay_sid) = \
            out[plain], out[replayed]
        if "voxels" in keep:
            count_grid(tr, cfg, len(scan.cloud), keep["voxels"], enc_w)
        self.last_plain_ms = tr.span_ms(plain_sid)
        self.plain_ms += self.last_plain_ms
        self.traced_ms += tr.span_ms(replay_sid)
        self.self_ms.append(self.last_plain_ms - tr.children_ms(replay_sid))
        self.frames += 1
        outcome = "localized" if exit_code == 0 else result
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if isinstance(result, str) or isinstance(replay, str):
            agree = result == replay
        else:
            agree = same_bits(result, replay)
        self.mismatches += not agree
        return result, exit_code, agree

    def metrics(self) -> Dict[str, float]:
        return {
            "pipeline.self_ms": float(np.mean(self.self_ms)),
            "pose_solve.no_consensus": float(self.outcomes.get("NoConsensus", 0)),
            "trace.overhead_pct": overhead_pct(self.plain_ms, self.traced_ms),
        }


def overhead_pct(plain_ms: float, traced_ms: float) -> float:
    """Frames/s lost to tracing: 1 - traced fps / untraced fps, in %."""
    return 100.0 * (1.0 - plain_ms / traced_ms)


def layer_metrics(tr, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; layers a workload never calls read 0."""
    out = {name: 0.0 for name in LAYER_METRICS}
    for span, name in SPAN_METRICS.items():
        out[name] = tr.mean_ms(span)
    for name in COUNT_METRICS:
        out[name] = tr.mean_count(name)
    out.update(extra)
    return out


class Workload:
    """One workload: inputs from a seed, a timed operation, checks, replay."""

    name = ""
    frames_per_op = 1

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tr = tracer or NullTracer()
        self.cfg = standard_bench_config()
        self.notes: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, records) -> Tuple[int, int]:
        """(operations attempted, operations failed)."""
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def replay(self) -> Tuple[int, int, Dict[str, float]]:
        """Traced repeat of the work: (attempted, failed, layer metrics)."""
        raise NotImplementedError

    def note(self, text: str) -> None:
        self.notes.append(text)


def gate_failures(stats: Dict[str, Tuple[float, float, float]]) -> List[str]:
    """Criterion-6/7 gates over {label: (mpe_m, moe_deg, success@0.5)}."""
    bad = []
    mpe, moe, success = stats["baseline"]
    if not mpe <= MPE_GATE_M:
        bad.append(f"baseline MPE {mpe} > {MPE_GATE_M}")
    if not moe <= MOE_GATE_DEG:
        bad.append(f"baseline MOE {moe} > {MOE_GATE_DEG}")
    if success != 1.0:
        bad.append(f"baseline success@0.5 {success} != 1")
    dropout = [v[0] for k, v in stats.items() if k.startswith("dropout")]
    if any(not d <= DROPOUT_FACTOR * mpe for d in dropout):
        bad.append(f"dropout MPE {dropout} > {DROPOUT_FACTOR} x baseline")
    return bad


class OracleBench(Workload):
    name = "oracle-bench"

    def setup(self):
        self.perturbations = parse_perturbation_list(self.cfg.bench.perturbations)
        n = self.cfg.trajectory.n_poses
        self.frames_per_op = n * (1 + len(self.perturbations))

    def op(self, i):
        out = self.workdir / f"bench{i}"
        return out, call_cli(["bench", "--out", str(out), "--seed", str(self.seed)])

    def check(self, records):
        failed = sum(self._failed_frames(out, rc) for out, rc in records)
        return self.frames_per_op * len(records), failed

    def _failed_frames(self, out: Path, rc) -> int:
        """Frames in failures.csv; every frame when a gate or the exit fails."""
        if rc != 0:
            self.note(f"{out.name}: exit {rc!r}")
            return self.frames_per_op
        rows = read_rows(out / "perturbations.csv")
        stats = {r["label"]: (float(r["mpe_m"]), float(r["moe_deg"]),
                              float(r["success@0.5"])) for r in rows}
        bad = gate_failures(stats)
        if len(rows) != 1 + len(self.perturbations):
            bad.append(f"{len(rows)} conditions in perturbations.csv")
        if bad:
            self.note(f"{out.name}: " + "; ".join(bad))
            return self.frames_per_op
        failures = read_rows(out / "failures.csv")
        missing = sum(self.cfg.trajectory.n_poses - int(r["frames_ok"])
                      for r in rows)
        self.note(f"{out.name}: baseline MPE {stats['baseline'][0]:.6f} m, "
                  f"MOE {stats['baseline'][1]:.6f} deg, "
                  f"{len(failures)} failed frames")
        return max(len(failures), missing)

    def digest(self):
        return sha16((self.workdir / "bench0" / "perturbations.csv").read_bytes())

    def replay(self):
        tr, cfg, seed = self.tr, self.cfg, self.seed
        n = cfg.trajectory.n_poses
        scans, poses = trajectory_scans(tr, cfg, seed, range(n))
        _, _, ref = simulate_trajectory(cfg, seed)
        if any(ref[i].cloud.xyz.tobytes() != scans[i].cloud.xyz.tobytes()
               for i in range(n)):
            self.note("replayed scans differ from simulate_trajectory's")
            return 1, 1, layer_metrics(tr, {})
        fr = FrameReplay(tr)
        stats, failed = {}, 0
        for p in [None] + [p for p in self.perturbations if p is not None]:
            label = "baseline" if p is None else f"{p.kind}:{p.magnitude:g}"
            errors = []
            for i in range(n):
                frame_seed = scan_seed(seed, i)
                scan, truth = scans[i], poses[i]
                if p is not None:
                    with tr.span("simulate.perturb", i):
                        scan, applied = perturb_scan(
                            scan, p, scan_seed(frame_seed, SEED_PERTURB))
                    truth = effective_truth(truth, applied)
                result, code, agree = fr.frame(scan, cfg, frame_seed, i)
                failed += code != 0 or not agree
                if code == 0:
                    errors.append(pose_errors(result, truth))
            e = np.array(errors or [(math.inf, math.inf)])
            stats[label] = (e[:, 0].mean(), e[:, 1].mean(),
                            float(np.mean(e[:, 0] <= SUCCESS_M)))
        bad = gate_failures(stats)
        if bad:
            self.note("replay gates: " + "; ".join(bad))
        if fr.mismatches:
            self.note(f"{fr.mismatches} replayed frames differ from localize_scan")
        self.note(f"replayed {fr.frames} frames; outcomes {fr.outcomes}; "
                  f"baseline MPE {stats['baseline'][0]:.6f} m")
        return fr.frames, fr.frames if bad else failed, layer_metrics(tr, fr.metrics())


class RegressorStream(Workload):
    name = "regressor-stream"

    def setup(self):
        cfg = self.cfg
        n = cfg.trajectory.n_poses
        self.scans, _ = trajectory_scans(self.tr, cfg, self.seed, range(n))
        self.paths = []
        for i in range(n):
            path = self.workdir / f"scan{i:03d}.csv"
            scan = self.scans[i]
            rio.write_scan_csv(path, scan.cloud, scan.classes, scan.gt_world)
            self.paths.append(path)
        self.weights = self.workdir / "regressor_weights.bin"
        save_regressor_weights(self.weights, init_regressor_weights(
            cfg.regressor, seed=cfg.train.seed))

    def argv(self, k: int) -> List[str]:
        return ["localize", str(self.paths[k]), "--predictor", "regressor",
                "--regressor-weights", str(self.weights),
                "--seed", str(self.seed),
                "--out", str(self.workdir / f"pose{k:03d}")]

    def op(self, i):
        k = i % len(self.paths)
        return k, call_cli(self.argv(k))

    def check(self, records):
        failed = 0
        seen: Dict[int, object] = {}
        for k, rc in records:
            bad = rc not in REGRESSOR_EXIT_CODES
            if not bad and rc == 0:
                pose = np.loadtxt(self.workdir / f"pose{k:03d}" / "pose.txt")
                bad = not is_rigid_pose(np.atleast_2d(pose))
            if seen.setdefault(k, rc) != rc:
                bad = True  # the same scan must give the same outcome
            if bad:
                failed += 1
                self.note(f"scan {k}: exit {rc!r}")
        codes = sorted(set(rc for _, rc in records if isinstance(rc, int)))
        self.note("calls per exit code: " + ", ".join(
            f"{c}: {sum(1 for _, rc in records if rc == c)}" for c in codes))
        worst = self.equivariance()
        self.note(f"encoder ring-roll equivariance: max diff {worst:.3e} "
                  f"(<= {EQUIVARIANCE_TOL})")
        if not worst <= EQUIVARIANCE_TOL:
            failed += 1
        return len(records) + 1, failed

    def equivariance(self) -> float:
        """Max feature change when scan 0 is rolled by 16 ring cells."""
        cfg = self.cfg
        weights = init_encoder_weights(cfg.encoder, seed=self.seed)
        rect, _ = rectify(self.scans[0].cloud, cfg.plane)
        ring = cfg.projection.ring_cells
        rolled = PointCloud(
            rect.xyz @ yaw(2.0 * math.pi * EQUIVARIANCE_SHIFT / ring).rotation.T,
            rect.intensity)
        base = voxelize(project_cylindrical(rect, cfg.projection), cfg.projection)
        vox = voxelize(project_cylindrical(rolled, cfg.projection), cfg.projection)
        if len(vox) != len(base):
            return math.inf
        lookup = {tuple(idx): r for r, idx in enumerate(base.indices)}
        src = [lookup.get(((ix - EQUIVARIANCE_SHIFT) % ring, iy, iz))
               for ix, iy, iz in vox.indices]
        if any(r is None for r in src):
            return math.inf
        return float(np.max(np.abs(encode(vox, weights)
                                   - encode(base, weights)[src])))

    def digest(self):
        return sha16(*(p.read_bytes() for p in self.paths))

    def replay(self):
        tr, cfg, seed = self.tr, self.cfg, self.seed
        fr = FrameReplay(tr)
        cli_self, failed = [], 0
        for k, path in enumerate(self.paths):
            with tr.span("cli.localize", k) as cli_sid:
                rc = call_cli(self.argv(k))
            with tr.span("io.read_scan", k):
                cloud, classes, gt = rio.read_scan_csv(path)
            with tr.span("encoder.init", k):
                enc_w = init_encoder_weights(cfg.encoder, seed=seed)
            with tr.span("io.load_weights", k):
                reg_w = load_regressor_weights(self.weights)
            result, code, agree = fr.frame(Scan(cloud, classes, gt), cfg,
                                           seed, k, enc_w, reg_w)
            cli_self.append(tr.span_ms(cli_sid) - fr.last_plain_ms)
            if code == 0 and rc == 0:
                pose = np.loadtxt(self.workdir / f"pose{k:03d}" / "pose.txt")
                agree = agree and pose.tobytes() == result.matrix().tobytes()
            failed += rc != code or not agree
        if failed:
            self.note(f"{failed} frames where the CLI, localize_scan and "
                      "the replay disagree")
        if fr.mismatches:
            self.note(f"{fr.mismatches} replayed frames differ from localize_scan")
        self.note(f"replayed {fr.frames} frames; outcomes {fr.outcomes}")
        extra = fr.metrics()
        extra["cli.self_ms"] = float(np.mean(cli_self))
        extra["regressor.macs_per_row"] = regressor_macs_per_row(reg_w.tensors)
        return fr.frames, failed, layer_metrics(tr, extra)


class TrainToy(Workload):
    name = "train-toy"

    def setup(self):
        t = self.cfg.train
        self.train_frames = len(range(0, self.cfg.trajectory.n_poses, t.scan_stride))
        self.frames_per_op = self.train_frames * t.epochs

    def op(self, i):
        out = self.workdir / f"train{i}"
        return out, call_cli(["train-toy", "--out", str(out),
                              "--seed", str(self.seed)])

    def check(self, records):
        failed = 0
        for out, rc in records:
            bad = [f"exit {rc!r}"] if rc != 0 else self._check_output(out)
            if bad:
                failed += 1
                self.note(f"train-toy {out.name}: " + "; ".join(bad))
        return len(records), failed

    def _check_output(self, out: Path) -> List[str]:
        tel = read_rows(out / "telemetry.csv")
        loss = np.array([float(r["loss"]) for r in tel])
        quart = np.array([float(r["mean_err_m"])
                          for r in read_rows(out / "quartiles.csv")])
        bad = []
        if len(tel) != self.cfg.train.epochs or not np.all(np.isfinite(loss)):
            bad.append("telemetry not finite or incomplete")
        elif not loss[-1] < loss[0]:
            bad.append(f"loss rose {loss[0]} -> {loss[-1]}")
        if len(quart) != 4 or not quart[0] < quart[-1]:
            bad.append(f"quartile errors {quart.tolist()} not ranked")
        else:
            self.note(f"loss {loss[0]:.4f} -> {loss[-1]:.4f}; quartile error "
                      f"{quart[0]:.2f} m (top) vs {quart[-1]:.2f} m (bottom)")
        return bad

    def digest(self):
        return sha16((self.workdir / "train0" / "telemetry.csv").read_bytes())

    def replay(self):
        tr, cfg, seed = self.tr, self.cfg, self.seed
        with tr.span("encoder.init"):
            enc_w = init_encoder_weights(cfg.encoder, seed=seed)
        with tr.span("train.build_set") as plain_build:
            tset = build_training_set(cfg, enc_w, run_seed=seed)
        grids = []
        with tr.span("replay.build_set"):
            replayed = self._replay_set(enc_w, grids)
        for n_points, voxels in grids:
            count_grid(tr, cfg, n_points, voxels, enc_w)
        set_ok = all(a.tobytes() == b.tobytes() for a, b in zip(
            replayed, (tset.features, tset.targets, tset.classes, tset.scan_ids)))
        with tr.span("train.regressor") as plain_train:
            weights, telemetry = train_regressor(tset, cfg, "trr")
        with tr.span("replay.train"):
            r_weights, r_losses, r_clamped = self._replay_epochs(
                tset, cfg.train.epochs)
        plain_ms, traced_ms, bad_pairs = self._epoch_pairs(tset, r_losses[0])

        bad_epochs = sum(1 for e, r, c in zip(telemetry, r_losses, r_clamped)
                         if e.loss != r or e.n_clamped != c)
        bad_epochs += len(telemetry) != len(r_losses)
        if bad_pairs:
            bad_epochs += 1
            self.note("train_regressor(epochs=1) loss differs from the replay")
        if any(weights.tensors[k].tobytes() != r_weights.tensors[k].tobytes()
               for k in weights.tensors):
            bad_epochs += 1
            self.note("replayed final weights differ from train_regressor's")
        if not set_ok:
            self.note("replayed training set differs from build_training_set's")
        self.note(f"replayed {self.train_frames} set frames and "
                  f"{len(r_losses)} epochs; loss {r_losses[0]!r} -> {r_losses[-1]!r}")

        extra = {
            "train.build_set_s": tr.span_ms(plain_build) / 1e3,
            "train.regressor_s": tr.span_ms(plain_train) / 1e3,
            "train.epoch_ms": tr.span_ms(plain_train) / max(1, len(telemetry)),
            "losses.n_clamped": float(sum(e.n_clamped for e in telemetry)),
            "regressor.macs_per_row": regressor_macs_per_row(weights.tensors),
            "trace.overhead_pct": overhead_pct(plain_ms, traced_ms),
        }
        attempted = self.train_frames + len(telemetry)
        failed = min(attempted, bad_epochs + (0 if set_ok else self.train_frames))
        return attempted, failed, layer_metrics(tr, extra)

    def _replay_set(self, enc_w, grids):
        """`build_training_set`'s frames, one span per layer call.

        Each frame's (point count, voxel grid) is appended to `grids` for
        counting after the spans.
        """
        tr, cfg, seed = self.tr, self.cfg, self.seed
        scans, _ = trajectory_scans(tr, cfg, seed, range(cfg.trajectory.n_poses))
        rng = np.random.default_rng(cfg.train.seed)
        parts = ([], [], [], [])
        for i in range(0, len(scans), cfg.train.scan_stride):
            scan = scans[i]
            with tr.span("plane.rectify", i):
                rect, _ = rectify(scan.cloud, replace(
                    cfg.plane, seed=scan_seed(scan_seed(seed, i), SEED_PLANE)))
            with tr.span("projection.project", i):
                projected = project_cylindrical(rect, cfg.projection)
            with tr.span("projection.voxelize", i):
                voxels = voxelize(projected, cfg.projection)
            with tr.span("encoder.encode", i):
                f = encode(voxels, enc_w)
            grids.append((len(scan.cloud), voxels))
            take = np.arange(len(voxels))
            if len(take) > cfg.train.points_per_scan:
                take = np.sort(rng.choice(len(take), cfg.train.points_per_scan,
                                          replace=False))
            src = voxels.source_index[take]
            for part, value in zip(parts, (f[take], scan.gt_world[src],
                                           scan.classes[src],
                                           np.full(len(take), i, dtype=np.int64))):
                part.append(value)
        return (np.vstack(parts[0]), np.vstack(parts[1]),
                np.concatenate(parts[2]), np.concatenate(parts[3]))

    def _epoch_pairs(self, tset, first_loss: float):
        """Plain and traced one-epoch trainings, alternating which runs first.

        Returns (plain ms, traced ms, runs whose loss is not first_loss).
        """
        tr, cfg = self.tr, self.cfg
        plain_ms = traced_ms = 0.0
        bad = 0
        for pair in range(EPOCH_PAIRS):
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                with tr.span("replay.epoch" if traced else "train.epoch1") as sid:
                    if traced:
                        loss = self._replay_epochs(tset, 1)[1][0]
                    else:
                        loss = train_regressor(tset, cfg, "trr", epochs=1)[1][0].loss
                if traced:
                    traced_ms += tr.span_ms(sid)
                else:
                    plain_ms += tr.span_ms(sid)
                bad += loss != first_loss
        return plain_ms, traced_ms, bad

    def _replay_epochs(self, tset, epochs: int):
        """`train_regressor`'s TRR epochs, one span per layer call."""
        tr, cfg = self.tr, self.cfg
        weights = init_regressor_weights(cfg.regressor, seed=cfg.train.seed)
        slices = tset.scan_slices()
        lr = cfg.train.lr
        losses, clamped = [], []
        for epoch in range(epochs):
            total, n_cl = 0.0, 0
            accum = {k: np.zeros_like(t) for k, t in weights.tensors.items()}
            with tr.span("train.epoch", epoch):
                for rows in slices:
                    feats, tgt = tset.features[rows], tset.targets[rows]
                    with tr.span("regressor.regress", epoch):
                        pred, u = regress(feats, weights)
                    with tr.span("losses.trr", epoch):
                        loss = reliability_loss(pred, tgt, u)
                        g_pred, g_u = reliability_loss_gradients(pred, tgt, u)
                    with tr.span("regressor.backward", epoch):
                        grads, _ = regress_backward(feats, weights, g_pred, g_u)
                    for k, g in grads.items():
                        accum[k] += g
                    total += loss.total
                    n_cl += loss.n_clamped
                scale = lr / len(slices)
                for k in weights.tensors:
                    weights.tensors[k] -= scale * accum[k]
            losses.append(total / len(slices))
            clamped.append(n_cl)
            lr *= cfg.train.decay
        return weights, losses, clamped


class DenseScan(Workload):
    name = "dense-scan"

    def setup(self):
        cfg = self.cfg
        self.cfg = cfg = replace(cfg, sensor=replace(
            cfg.sensor, n_azimuth=DENSE_AZIMUTH, n_elevation=DENSE_ELEVATION))
        rng = np.random.default_rng(self.seed)
        self.pool = sorted(int(i) for i in rng.choice(
            cfg.trajectory.n_poses, DENSE_POOL, replace=False))
        self.scans, self.poses = trajectory_scans(self.tr, cfg, self.seed,
                                                  self.pool)

    def op(self, i):
        k = self.pool[i % len(self.pool)]
        try:
            return k, localize_scan(self.scans[k], self.cfg,
                                    scan_seed(self.seed, k)).transform
        except Exception:
            return k, traceback.format_exc()

    def check(self, records):
        failed, errors = 0, []
        for k, result in records:
            if isinstance(result, str):
                failed += 1
                self.note(f"frame {k}: {result.strip().splitlines()[-1]}")
                continue
            pos, rot = pose_errors(result, self.poses[k])
            errors.append((pos, rot))
            if not pos <= SUCCESS_M:
                failed += 1
                self.note(f"frame {k}: position error {pos} m")
        if errors:
            mpe, moe = np.mean(errors, axis=0)
            self.note(f"MPE {mpe:.6f} m, MOE {moe:.6f} deg over {len(errors)} frames")
            if not (mpe <= MPE_GATE_M and moe <= MOE_GATE_DEG):
                failed = len(records)
        return len(records), failed

    def digest(self):
        return sha16(*(self.scans[k].cloud.xyz.tobytes() for k in self.pool))

    def replay(self):
        fr = FrameReplay(self.tr)
        failed = 0
        for k in self.pool:
            result, code, agree = fr.frame(self.scans[k], self.cfg,
                                           scan_seed(self.seed, k), k)
            failed += (code != 0 or not agree
                       or not pose_errors(result, self.poses[k])[0] <= SUCCESS_M)
        if fr.mismatches:
            self.note(f"{fr.mismatches} replayed frames differ from localize_scan")
        self.note(f"replayed {fr.frames} frames; outcomes {fr.outcomes}")
        return fr.frames, failed, layer_metrics(self.tr, fr.metrics())


WORKLOADS = {w.name: w for w in (OracleBench, RegressorStream, TrainToy, DenseScan)}
