"""Trajectory metrics against brute-force recomputation."""
import math

import jsonschema
import numpy as np
import pytest

from ringloc.errors import EmptyScan
from ringloc.metrics import (TrajectoryResult, moe, mpe,
                             orientation_errors_deg, percentile,
                             position_errors, report_schema, success_at,
                             summarize)
from ringloc.se3 import RigidTransform, identity, orthonormalize, yaw


def random_result(seed, n=1000):
    rng = np.random.default_rng(seed)
    out = TrajectoryResult()
    for i in range(n):
        est = orthonormalize(RigidTransform(
            np.eye(3) + 0.4 * rng.standard_normal((3, 3)),
            rng.uniform(-30.0, 30.0, 3)))
        tru = orthonormalize(RigidTransform(
            np.eye(3) + 0.4 * rng.standard_normal((3, 3)),
            rng.uniform(-30.0, 30.0, 3)))
        out.add(i, est, tru)
    return out


def brute_percentile(values, p):
    """Linear interpolation between order statistics, written longhand."""
    v = sorted(float(x) for x in values)
    if len(v) == 1:
        return v[0]
    rank = p / 100.0 * (len(v) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(v) - 1)
    frac = rank - lo
    return v[lo] + frac * (v[hi] - v[lo])


def test_errors_match_brute_force_on_random_frames():
    result = random_result(0)
    pos = position_errors(result)
    ori = orientation_errors_deg(result)
    for i, (e, t) in enumerate(zip(result.estimates, result.truths)):
        d = e.translation - t.translation
        want_pos = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        rel = e.rotation.T @ t.rotation
        c = (rel[0, 0] + rel[1, 1] + rel[2, 2] - 1.0) / 2.0
        want_ori = math.degrees(math.acos(max(-1.0, min(1.0, c))))
        assert abs(pos[i] - want_pos) <= 1e-12
        assert abs(ori[i] - want_ori) <= 1e-12
    assert abs(mpe(result) - math.fsum(pos) / len(pos)) <= 1e-12
    assert abs(moe(result) - math.fsum(ori) / len(ori)) <= 1e-12
    for p in [0.0, 12.5, 50.0, 90.0, 99.0, 100.0]:
        assert abs(percentile(pos, p) - brute_percentile(pos, p)) <= 1e-12


def test_moe_identity_is_exact_zero():
    result = TrajectoryResult()
    t = yaw(0.7)
    result.add(0, t, t)
    assert moe(result) == 0.0
    assert mpe(result) == 0.0


def test_moe_half_turn_is_exact_180():
    result = TrajectoryResult()
    result.add(0, identity(), yaw(np.pi))
    flip = RigidTransform(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))
    result.add(1, identity(), flip)
    assert moe(result) == 180.0


def test_quarter_turn_is_ninety_degrees():
    result = TrajectoryResult()
    result.add(0, identity(), yaw(np.pi / 2.0))
    assert moe(result) == pytest.approx(90.0, abs=1e-9)


def test_single_frame_pythagorean_error():
    result = TrajectoryResult()
    result.add(4, identity(),
               RigidTransform(np.eye(3), np.array([0.0, 3.0, 4.0])))
    assert position_errors(result)[0] == 5.0
    assert mpe(result) == 5.0
    assert success_at(result, 5.0) == 1.0  # threshold is inclusive
    assert success_at(result, 4.999) == 0.0


def test_success_fraction():
    result = TrajectoryResult()
    for i, err in enumerate([0.1, 0.9, 2.0]):
        result.add(i, identity(),
                   RigidTransform(np.eye(3), np.array([err, 0.0, 0.0])))
    assert success_at(result, 1.0) == pytest.approx(2.0 / 3.0)
    assert success_at(result, 0.05) == 0.0
    assert success_at(result, 3.0) == 1.0


def test_summary_matches_schema():
    result = random_result(1, n=50)
    summary = summarize(result)
    assert set(summary) == {"schema_version", "frames", "mpe_m", "moe_deg",
                            "medpe_m", "p99_m", "success@0.5", "success@1",
                            "success@5"}
    jsonschema.validate(summary, report_schema())
    assert summary["frames"] == 50
    assert summary["mpe_m"] == pytest.approx(mpe(result))
    assert summary["medpe_m"] == pytest.approx(
        percentile(position_errors(result), 50.0))


def test_empty_result_is_rejected_everywhere():
    empty = TrajectoryResult()
    for fn in [mpe, moe, position_errors, orientation_errors_deg]:
        with pytest.raises(EmptyScan):
            fn(empty)
    with pytest.raises(EmptyScan):
        percentile([], 50.0)
    # A condition with no localized frame still reports, by count alone.
    summary = summarize(empty)
    assert summary == {"schema_version": 1, "frames": 0}
    jsonschema.validate(summary, report_schema())


def test_misaligned_constructor_rejected():
    with pytest.raises(TypeError):
        TrajectoryResult(frames=[0], estimates=[identity()], truths=[])


def test_add_keeps_frames_aligned():
    result = TrajectoryResult()
    result.add(3, identity(), yaw(0.1))
    result.add(9, yaw(0.2), yaw(0.2))
    assert len(result) == 2
    assert result.frames == [3, 9]
