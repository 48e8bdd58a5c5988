"""Trajectory error metrics, percentiles, and summaries.

Position error is the Euclidean distance between estimated and true
translation; orientation error is the geodesic angle of the relative
rotation.  Summaries follow a fixed JSON schema shipped with the
package so downstream tooling can validate reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Sequence, Union

import numpy as np

from .errors import EmptyScan
from .se3 import RigidTransform, rotation_angle_deg

SCHEMA_VERSION = 1
SUCCESS_THRESHOLDS = (0.5, 1.0, 5.0)  # m


@dataclass
class TrajectoryResult:
    """Estimated and ground-truth poses, one pair per frame: a record
    starts empty and grows only through `add`, so the lists align."""

    frames: List[int] = field(default_factory=list, init=False)
    estimates: List[RigidTransform] = field(default_factory=list, init=False)
    truths: List[RigidTransform] = field(default_factory=list, init=False)

    def __len__(self) -> int:
        return len(self.frames)

    def add(self, frame: int, estimate: RigidTransform,
            truth: RigidTransform) -> None:
        self.frames.append(frame)
        self.estimates.append(estimate)
        self.truths.append(truth)

    def require_nonempty(self) -> "TrajectoryResult":
        if len(self) == 0:
            raise EmptyScan("no frames to summarize")
        return self


def position_errors(result: TrajectoryResult) -> np.ndarray:
    result.require_nonempty()
    return np.array([
        float(np.linalg.norm(e.translation - t.translation))
        for e, t in zip(result.estimates, result.truths)
    ])


def orientation_errors_deg(result: TrajectoryResult) -> np.ndarray:
    result.require_nonempty()
    return np.array([
        rotation_angle_deg(e.rotation.T @ t.rotation)
        for e, t in zip(result.estimates, result.truths)
    ])


def mpe(result: TrajectoryResult) -> float:
    """Mean position error (m)."""
    return float(position_errors(result).mean())


def moe(result: TrajectoryResult) -> float:
    """Mean orientation error (deg)."""
    return float(orientation_errors_deg(result).mean())


def success_at(result: TrajectoryResult, threshold: float) -> float:
    """Fraction of frames with position error <= threshold meters."""
    errs = position_errors(result)
    return float(np.count_nonzero(errs <= threshold) / len(errs))


def percentile(values: Sequence[float], p: float) -> float:
    """p-th percentile with linear interpolation between order statistics."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise EmptyScan("percentile of an empty sample")
    return float(np.percentile(values, p, method="linear"))


def summarize(result: TrajectoryResult) -> Dict[str, Union[int, float]]:
    """Summary dict matching the shipped report schema."""
    summary: Dict[str, Union[int, float]] = {
        "schema_version": SCHEMA_VERSION, "frames": len(result)}
    if len(result) == 0:  # no error to summarize: the count alone
        return summary
    pos = position_errors(result)
    summary.update(mpe_m=float(pos.mean()), moe_deg=moe(result),
                   medpe_m=percentile(pos, 50.0), p99_m=percentile(pos, 99.0))
    for t in SUCCESS_THRESHOLDS:  # success_at, from the errors above
        summary[f"success@{t:g}"] = float(
            np.count_nonzero(pos <= t) / len(pos))
    return summary


def report_schema() -> dict:
    """The JSON schema summaries are validated against."""
    text = resources.files("ringloc.data").joinpath(
        "report.schema.json").read_text()
    return json.loads(text)

