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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .encoder import EncoderConfig
from .errors import ParseError
from .io import atomic_write_text, read_text
from .keys import Section, is_key, key, range_text
from .plane import RansacPlaneParams
from .pose_solve import RansacPoseParams, SelectionPolicy
from .projection import ProjectionConfig
from .regressor import RegressorConfig
from .simulate import MAGNITUDES, OracleSpec, Perturbation, SensorSpec

CONFIG_VERSION = 1


@dataclass
class WorldConfig(Section):
    seed: int = key(7, "world layout seed", ge=0)
    n_boxes: int = key(12, "building count", ge=1, le=1000)
    n_cylinders: int = key(14, "pole/trunk count", ge=0, le=1000)


@dataclass
class TrajectoryConfig(Section):
    n_poses: int = key(100, "frames on the loop", ge=1, le=1000)
    radius: float = key(15.0, "loop radius (m)", ge=0.0, le=1e3)
    height: float = key(1.5, "sensor height above ground (m)",
                        gt=0.0, le=1e3)


@dataclass
class TrainConfig(Section):
    epochs: int = key(60, "gradient-descent epochs", ge=0)
    lr: float = key(0.001, "step size at epoch 0", gt=0.0, le=1.0)
    decay: float = key(0.9, "per-epoch multiplicative step decay",
                       ge=0.0, le=1.0)
    scan_stride: int = key(8, "train on every stride-th frame", ge=1)
    points_per_scan: int = key(320, "voxel subsample per training frame",
                               ge=1)
    seed: int = key(3, "weight init and subsample seed", ge=0)


@dataclass
class BenchConfig(Section):
    seed: int = key(0, "base seed for per-frame derivation", ge=0)
    perturbations: str = key(
        "yaw:180,random_yaw,fov_limit:180,dropout:0.5,gaussian_noise:0.05,"
        "pitch_roll:10", "comma list of kind[:magnitude], kind one of "
        + ", ".join(f"{kind} {range_text(f)}".strip()
                    for kind, f in MAGNITUDES.items()))

    def __post_init__(self):
        super().__post_init__()
        try:
            parse_perturbation_list(self.perturbations)
        except ParseError as exc:
            raise ValueError(str(exc)) from exc


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


def config_keys(cfg: PipelineConfig
                ) -> List[Tuple[str, dataclasses.Field, object]]:
    """(dotted key, field, value) for every field declared with key(),
    in declaration order; plain section fields are not config keys."""
    keys = []
    for s in dataclasses.fields(PipelineConfig):
        section = getattr(cfg, s.name)
        keys += [(f"{s.name}.{f.name}", f, getattr(section, f.name))
                 for f in dataclasses.fields(section) if is_key(f)]
    return keys


def format_value(value) -> str:
    """A value as config text: `str` of it, of each item for a tuple."""
    return ",".join(map(str, value if isinstance(value, tuple) else (value,)))


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
    for key, _, value in config_keys(cfg):
        section = key.split(".")[0]
        if section != current:
            lines.append("")
            current = section
        lines.append(f"{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    """Parse key=value lines over the defaults; unknown keys are errors."""
    defaults = PipelineConfig()
    lookup = {key: value for key, _, value in config_keys(defaults)}
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
    return set_keys(defaults, changes, source)


def set_keys(cfg: PipelineConfig, changes: Dict[str, Dict[str, object]],
             source: str) -> PipelineConfig:
    """cfg with {section: {key: value}} changes, each section rebuilt so
    its check runs; a rejected value is a ParseError naming source."""
    sections = {}
    for section_name, fields in changes.items():
        try:
            sections[section_name] = dataclasses.replace(
                getattr(cfg, section_name), **fields)
        except ValueError as exc:
            raise ParseError(f"{source}: section '{section_name}': {exc}") from exc
    return dataclasses.replace(cfg, **sections)


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
    parsed = (parse_perturbation(token) for token in text.split(","))
    return [p for p in parsed if p is not None]
