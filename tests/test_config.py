"""Config text format, key coverage, and perturbation parsing."""

import dataclasses

import pytest

from ringloc.config import (KEY_DOCS, PipelineConfig, config_items,
                            config_to_text, parse_config_text,
                            parse_perturbation, parse_perturbation_list,
                            read_config, standard_bench_config, write_config)
from ringloc.errors import ParseError


def test_default_round_trip():
    cfg = PipelineConfig()
    back = parse_config_text(config_to_text(cfg))
    assert config_items(back) == config_items(cfg)


def test_file_round_trip(tmp_path):
    cfg = standard_bench_config()
    p = tmp_path / "run.cfg"
    write_config(p, cfg)
    assert config_items(read_config(p)) == config_items(cfg)


def test_write_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    write_config(a, standard_bench_config())
    write_config(b, standard_bench_config())
    assert a.read_bytes() == b.read_bytes()


def test_every_key_is_documented():
    keys = {k for k, _ in config_items(PipelineConfig())}
    assert keys == set(KEY_DOCS)


def test_values_parse_back_typed():
    cfg = standard_bench_config()
    text = config_to_text(cfg).replace("pose.iterations = 300",
                                       "pose.iterations = 123")
    back = parse_config_text(text)
    assert back.pose.iterations == 123
    assert isinstance(back.pose.iterations, int)
    assert isinstance(back.projection.voxel_size, float)
    assert isinstance(back.pose.refit_on_inliers, bool)
    assert isinstance(back.encoder.stage_widths, tuple)


def test_unknown_key_rejected():
    text = config_to_text(PipelineConfig()) + "\nnope.key = 1\n"
    with pytest.raises(ParseError):
        parse_config_text(text)


def test_missing_version_rejected():
    text = config_to_text(PipelineConfig())
    text = "\n".join(l for l in text.splitlines()
                     if not l.startswith("config_version"))
    with pytest.raises(ParseError):
        parse_config_text(text)


def test_bad_value_rejected():
    text = config_to_text(PipelineConfig()).replace(
        "trajectory.n_poses = 100", "trajectory.n_poses = lots")
    with pytest.raises(ParseError):
        parse_config_text(text)


@pytest.mark.parametrize("key, value", [
    ("projection.voxel_size", "-1.0"),
    ("plane.iterations", "0"),
    ("pose.iterations", "0"),
    ("train.scan_stride", "0"),
    ("train.points_per_scan", "0"),
    ("train.epochs", "-2"),
    ("oracle.u_reliable", "1.0"),
    ("oracle.u_reliable", "1.0,2.0,3.0"),
    ("oracle.u_ambiguous", "-2.0,-10.0"),
    ("world.seed", "-1"),
    ("train.seed", "-1"),
    ("bench.seed", "-1"),
    ("pose.threshold", "0.0"),
    ("pose.threshold", "-0.5"),
    ("pose.threshold", "inf"),
    ("pose.threshold", "nan"),
    ("plane.threshold", "0.0"),
    ("plane.threshold", "-0.1"),
    ("plane.threshold", "inf"),
    ("plane.threshold", "nan"),
], ids=["voxel_size", "plane_iterations", "pose_iterations", "scan_stride",
        "points_per_scan", "epochs", "u_one_value", "u_three_values",
        "u_reversed", "world_seed", "train_seed", "bench_seed",
        "pose_threshold_zero", "pose_threshold_negative", "pose_threshold_inf",
        "pose_threshold_nan", "plane_threshold_zero",
        "plane_threshold_negative", "plane_threshold_inf",
        "plane_threshold_nan"])
def test_invalid_section_value_rejected(key, value):
    # Parses as the key's type but violates the section's own validation.
    lines = [f"{key} = {value}" if line.startswith(key + " = ") else line
             for line in config_to_text(PipelineConfig()).splitlines()]
    with pytest.raises(ParseError):
        parse_config_text("\n".join(lines))


def test_standard_config_pins_pose_iterations():
    assert standard_bench_config().pose.iterations == 300


def test_version_line_alone_is_the_standard_config():
    assert (parse_config_text("config_version = 1\n") == PipelineConfig()
            == standard_bench_config())


def test_parse_perturbation_forms():
    p = parse_perturbation("yaw:180")
    assert p.kind == "yaw" and p.magnitude == 180.0
    assert parse_perturbation("none") is None
    assert parse_perturbation("baseline") is None
    q = parse_perturbation("random_yaw")
    assert q.kind == "random_yaw"
    assert parse_perturbation("yaw=180") == p


def test_parse_perturbation_list():
    ps = parse_perturbation_list("yaw:180,none,dropout:0.5,baseline")
    assert [p.kind for p in ps] == ["yaw", "dropout"]
    assert ps[1].magnitude == 0.5


def test_parse_perturbation_rejects_unknown():
    with pytest.raises(ParseError):
        parse_perturbation("jitterbug:3")


def test_parse_perturbation_rejects_bad_magnitude():
    with pytest.raises(ParseError):
        parse_perturbation("dropout:2.0")


def test_sections_are_independent_instances():
    a, b = standard_bench_config(), standard_bench_config()
    a.trajectory = dataclasses.replace(a.trajectory, n_poses=3)
    assert b.trajectory.n_poses == 100
