"""Pipeline configuration: typed sections, key=value files, round-trip.

The dataclass defaults are the standard configuration, the one
``ringloc bench`` runs.  A config file is plain ``section.key = value``
lines with ``#`` comments and a mandatory ``config_version`` guard; it
lists only the keys it changes.  Values are typed from the defaults
(int, float, str, or comma-joined tuples of int or float), and
serialization uses shortest round-trip formatting, so write(read(x))
reproduces x.  Each changed section is rebuilt with
``dataclasses.replace``, so its own ``__post_init__`` validates it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .encoder import DOWNSAMPLE_FACTOR, EncoderConfig
from .errors import ParseError
from .io import atomic_write_text, read_text
from .plane import RansacPlaneParams
from .pose_solve import RansacPoseParams, SelectionPolicy
from .projection import ProjectionConfig
from .regressor import RegressorConfig
from .simulate import OracleSpec, Perturbation, SensorSpec

CONFIG_VERSION = 1


@dataclass
class WorldConfig:
    seed: int = 7
    n_boxes: int = 12
    n_cylinders: int = 14

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be at least 0")


@dataclass
class TrajectoryConfig:
    n_poses: int = 100
    radius: float = 15.0  # m
    height: float = 1.5  # m


@dataclass
class TrainConfig:
    epochs: int = 60
    lr: float = 0.001  # step size at epoch 0
    decay: float = 0.9  # multiplicative per-epoch step decay
    scan_stride: int = 8  # train on every stride-th trajectory frame
    points_per_scan: int = 320  # voxel subsample per training frame
    seed: int = 3

    def __post_init__(self):
        if self.scan_stride < 1 or self.points_per_scan < 1:
            raise ValueError("scan_stride and points_per_scan must be at "
                             "least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be at least 0")
        if not (math.isfinite(self.lr) and math.isfinite(self.decay)):
            raise ValueError("lr and decay must be finite")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")


@dataclass
class BenchConfig:
    seed: int = 0  # base seed for per-frame derivation
    perturbations: str = ("yaw:180,random_yaw,fov_limit:180,"
                          "dropout:0.5,gaussian_noise:0.05,pitch_roll:10")

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be at least 0")


@dataclass
class PipelineConfig:
    projection: ProjectionConfig = dataclasses.field(default_factory=ProjectionConfig)
    plane: RansacPlaneParams = dataclasses.field(default_factory=RansacPlaneParams)
    pose: RansacPoseParams = dataclasses.field(default_factory=RansacPoseParams)
    selection: SelectionPolicy = dataclasses.field(default_factory=SelectionPolicy)
    sensor: SensorSpec = dataclasses.field(default_factory=SensorSpec)
    oracle: OracleSpec = dataclasses.field(default_factory=OracleSpec)
    encoder: EncoderConfig = dataclasses.field(default_factory=EncoderConfig)
    regressor: RegressorConfig = dataclasses.field(default_factory=RegressorConfig)
    world: WorldConfig = dataclasses.field(default_factory=WorldConfig)
    trajectory: TrajectoryConfig = dataclasses.field(default_factory=TrajectoryConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    bench: BenchConfig = dataclasses.field(default_factory=BenchConfig)


KEY_DOCS: Dict[str, str] = {
    "projection.voxel_size": "cell edge of the cylindrical grid (m, > 0, finite)",
    "projection.ring_cells": "cells per full turn; even, divisible by 16",
    "plane.iterations": "ground-plane RANSAC hypothesis count (>= 1)",
    "plane.threshold": "ground-plane inlier distance (m, > 0, finite)",
    "plane.min_inliers": "minimum ground consensus size",
    "plane.seed": "unused: every ground-plane RANSAC seed derives from --seed",
    "pose.iterations": "pose RANSAC hypothesis count (>= 1)",
    "pose.threshold": "pose inlier residual (m, > 0, finite)",
    "pose.seed": "unused: every pose RANSAC seed derives from --seed",
    "selection.top_fraction": "share of points kept by reliability",
    "selection.min_count": "keep everything below this count",
    "sensor.n_azimuth": "rays per sweep row (>= 1)",
    "sensor.n_elevation": "sweep rows (>= 1)",
    "sensor.elevation_min_deg": "lowest ray elevation (deg)",
    "sensor.elevation_max_deg": "highest ray elevation (deg)",
    "sensor.max_range": "maximum returned range (m)",
    "sensor.range_noise": "1-sigma range noise along the ray (m, >= 0, finite)",
    "oracle.sigma_reliable": "oracle jitter on reliable points (m, >= 0, finite)",
    "oracle.outlier_box": "oracle scatter cube side (m, >= 0, finite)",
    "oracle.u_reliable": "oracle score range, reliable points: finite low,high",
    "oracle.u_ambiguous": "oracle score range, ambiguous points: finite low,high",
    "encoder.stem_width": "width of the stem's hidden projection (>= 1)",
    "encoder.stage_widths": "five encoder stage widths (each >= 1)",
    "encoder.output_width": "fused full-resolution feature width (>= 1)",
    "regressor.width": "regressor feature width",
    "regressor.heads": "candidate vectors per max layer",
    "regressor.layers": "stacked max layers",
    "world.seed": "world layout seed (>= 0)",
    "world.n_boxes": "building count",
    "world.n_cylinders": "pole/trunk count",
    "trajectory.n_poses": "frames on the loop",
    "trajectory.radius": "loop radius (m)",
    "trajectory.height": "sensor height above ground (m)",
    "train.epochs": "gradient-descent epochs (>= 0)",
    "train.lr": "step size at epoch 0 (finite)",
    "train.decay": "per-epoch multiplicative step decay (finite)",
    "train.scan_stride": "train on every stride-th frame (>= 1)",
    "train.points_per_scan": "voxel subsample per training frame (>= 1)",
    "train.seed": "weight init and subsample seed (>= 0)",
    "bench.seed": "base seed for per-frame derivation (>= 0)",
    "bench.perturbations": "comma list of kind[:magnitude] entries",
}

def config_items(cfg: PipelineConfig) -> List[Tuple[str, object]]:
    """Flat (dotted key, value) pairs in declaration order."""
    items: List[Tuple[str, object]] = []
    for s in dataclasses.fields(PipelineConfig):
        section = getattr(cfg, s.name)
        for f in dataclasses.fields(section):
            items.append((f"{s.name}.{f.name}", getattr(section, f.name)))
    return items


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def _parse_value(text: str, template) -> object:
    """text as the type of template; int() and float() ignore spaces."""
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    if isinstance(template, tuple):
        return tuple(_parse_value(part, template[0])
                     for part in text.split(","))
    return text


def config_to_text(cfg: PipelineConfig) -> str:
    lines = [f"config_version = {CONFIG_VERSION}"]
    current = None
    for key, value in config_items(cfg):
        section = key.split(".")[0]
        if section != current:
            lines.append("")
            current = section
        lines.append(f"{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    """Parse key=value lines over the defaults; unknown keys are errors."""
    defaults = PipelineConfig()
    lookup = dict(config_items(defaults))
    changes: Dict[str, Dict[str, object]] = {}
    saw_version = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"{source}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key == "config_version":
            if raw != str(CONFIG_VERSION):
                raise ParseError(f"{source}:{lineno}: unsupported config "
                                 f"version '{raw}'")
            saw_version = True
            continue
        if key not in lookup:
            raise ParseError(f"{source}:{lineno}: unknown key '{key}'")
        section_name, field_name = key.split(".", 1)
        try:
            value = _parse_value(raw, lookup[key])
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: key '{key}': {exc}") from exc
        changes.setdefault(section_name, {})[field_name] = value
    if not saw_version:
        raise ParseError(f"{source}: missing config_version")

    sections = {}
    for section_name, fields in changes.items():
        try:
            sections[section_name] = dataclasses.replace(
                getattr(defaults, section_name), **fields)
        except ValueError as exc:
            raise ParseError(f"{source}: section '{section_name}': {exc}") from exc
    cfg = dataclasses.replace(defaults, **sections)
    if cfg.projection.ring_cells % DOWNSAMPLE_FACTOR != 0:
        raise ParseError(f"{source}: projection.ring_cells must be divisible "
                         f"by {DOWNSAMPLE_FACTOR}, the encoder's downsampling")
    return cfg


def read_config(path) -> PipelineConfig:
    return parse_config_text(read_text(path), source=str(path))


def write_config(path, cfg: PipelineConfig) -> None:
    atomic_write_text(path, config_to_text(cfg))


def standard_bench_config() -> PipelineConfig:
    """The standard benchmark configuration: every default."""
    return PipelineConfig()


def parse_perturbation(token: str) -> Optional[Perturbation]:
    """'kind:magnitude', 'kind=magnitude' or bare 'kind'; 'none' means no
    perturbation."""
    token = token.strip()
    if token in ("", "none", "baseline"):
        return None
    kind, _, mag = token.replace("=", ":").partition(":")
    try:
        magnitude = float(mag) if mag else 0.0
        return Perturbation(kind.strip(), magnitude)
    except ValueError as exc:
        raise ParseError(f"bad perturbation '{token}': {exc}") from exc


def parse_perturbation_list(text: str) -> List[Perturbation]:
    """Comma-separated perturbations, leaving out 'none'/'baseline' entries."""
    perturbations = []
    for token in text.split(","):
        p = parse_perturbation(token)
        if p is not None:
            perturbations.append(p)
    return perturbations
