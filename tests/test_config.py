"""Config text format, key coverage, and perturbation parsing."""

import dataclasses
import inspect

import pytest

from ringloc import encoder, io, plane, pose_solve, regressor, simulate, train

from ringloc.config import (BenchConfig, PipelineConfig,
                            TrainConfig, TrajectoryConfig, WorldConfig,
                            config_keys, config_to_text, parse_config_text,
                            parse_perturbation, parse_perturbation_list,
                            read_config, standard_bench_config, write_config)
from ringloc.encoder import EncoderConfig
from ringloc.errors import ParseError
from ringloc.plane import RansacPlaneParams
from ringloc.pose_solve import RansacPoseParams, SelectionPolicy
from ringloc.projection import ProjectionConfig
from ringloc.regressor import RegressorConfig
from ringloc.se3 import PointCloud
from ringloc.simulate import OracleSpec, SensorSpec, WorldSpec


def test_default_round_trip():
    cfg = PipelineConfig()
    back = parse_config_text(config_to_text(cfg))
    assert config_keys(back) == config_keys(cfg)


def test_file_round_trip(tmp_path):
    cfg = standard_bench_config()
    p = tmp_path / "run.cfg"
    write_config(p, cfg)
    assert config_keys(read_config(p)) == config_keys(cfg)


def test_every_key_round_trips_at_a_non_default_value(tmp_path):
    cfg = PipelineConfig(
        projection=ProjectionConfig(voxel_size=0.3, ring_cells=512),
        plane=RansacPlaneParams(iterations=150, threshold=0.125,
                                min_inliers=40),
        pose=RansacPoseParams(iterations=250, threshold=0.375),
        selection=SelectionPolicy(top_fraction=0.35, min_count=45),
        sensor=SensorSpec(n_azimuth=48, n_elevation=13,
                          elevation_min_deg=-20.5, elevation_max_deg=11.25,
                          max_range=61.0, range_noise=0.0125),
        oracle=OracleSpec(sigma_reliable=0.04, outlier_box=30.5,
                          u_reliable=(3.0, 9.5), u_ambiguous=(-9.5, -3.0)),
        encoder=EncoderConfig(stem_width=14, stage_widths=(5, 9, 17, 33, 49),
                              output_width=56),
        regressor=RegressorConfig(heads=3, layers=4),
        world=WorldConfig(seed=8, n_boxes=10, n_cylinders=11),
        trajectory=TrajectoryConfig(n_poses=50, radius=12.75, height=1.7),
        train=TrainConfig(epochs=30, lr=0.002, decay=0.95, scan_stride=6,
                          points_per_scan=256, seed=5),
        bench=BenchConfig(seed=7, perturbations="yaw:90,dropout:0.25"))
    items = [(key, value) for key, _, value in config_keys(cfg)]
    defaults = {key: value
                for key, _, value in config_keys(PipelineConfig())}
    assert all(value != defaults[key] for key, value in items)
    assert len({value for _, value in items}) == len(items)
    p = tmp_path / "every_key.cfg"
    write_config(p, cfg)
    back = read_config(p)
    assert back == cfg
    # repr tells 3 from 3.0, inside tuples too
    assert repr(config_keys(back)) == repr(config_keys(cfg))


def test_write_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    write_config(a, standard_bench_config())
    write_config(b, standard_bench_config())
    assert a.read_bytes() == b.read_bytes()


def test_values_parse_back_typed():
    cfg = standard_bench_config()
    text = config_to_text(cfg).replace("pose.iterations = 300",
                                       "pose.iterations = 123")
    back = parse_config_text(text)
    assert back.pose.iterations == 123
    assert isinstance(back.pose.iterations, int)
    assert isinstance(back.projection.voxel_size, float)
    assert isinstance(back.encoder.stage_widths, tuple)


def test_unknown_key_rejected():
    text = config_to_text(PipelineConfig()) + "\nnope.key = 1\n"
    with pytest.raises(ParseError):
        parse_config_text(text)


@pytest.mark.parametrize("key", ["plane.seed", "pose.seed"])
def test_ransac_seed_is_not_a_key(key):
    # Both RANSAC seeds derive from the run seed; a file cannot set them.
    assert key not in [name for name, _, _ in config_keys(PipelineConfig())]
    with pytest.raises(ParseError, match=f"unknown key '{key}'"):
        parse_config_text(f"config_version = 1\n{key} = 5\n")


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
    ("encoder.stem_width", "0"),
    ("encoder.output_width", "-1"),
    ("encoder.stage_widths", "4,0,16,32,48"),
    ("sensor.n_elevation", "-1"),
    ("sensor.n_azimuth", "0"),
    ("sensor.range_noise", "-0.1"),
    ("oracle.sigma_reliable", "-0.1"),
    ("oracle.outlier_box", "-1.0"),
    ("oracle.u_reliable", "nan,10.0"),
    ("oracle.u_ambiguous", "-inf,-2.0"),
    ("projection.voxel_size", "nan"),
    ("projection.voxel_size", "inf"),
    ("train.lr", "nan"),
    ("train.decay", "inf"),
    ("trajectory.height", "nan"),
    ("trajectory.radius", "nan"),
    ("sensor.max_range", "nan"),
    ("sensor.elevation_min_deg", "nan"),
    ("sensor.elevation_min_deg", "20.0"),
    ("world.n_cylinders", "-3"),
    ("world.n_boxes", "-1"),
    ("pose.threshold", "1e300"),
    ("bench.perturbations", "jitterbug:3"),
], ids=["voxel_size", "plane_iterations", "pose_iterations", "scan_stride",
        "points_per_scan", "epochs", "u_one_value", "u_three_values",
        "u_reversed", "world_seed", "train_seed", "bench_seed",
        "pose_threshold_zero", "pose_threshold_negative", "pose_threshold_inf",
        "pose_threshold_nan", "plane_threshold_zero",
        "plane_threshold_negative", "plane_threshold_inf",
        "plane_threshold_nan", "stem_width_zero", "output_width_negative",
        "stage_width_zero", "n_elevation_negative", "n_azimuth_zero",
        "range_noise_negative", "sigma_reliable_negative",
        "outlier_box_negative", "u_reliable_nan", "u_ambiguous_inf",
        "voxel_size_nan", "voxel_size_inf", "lr_nan", "decay_inf",
        "height_nan", "radius_nan", "max_range_nan", "elevation_min_nan",
        "elevation_min_above_max", "n_cylinders_negative",
        "n_boxes_negative", "pose_threshold_overflow",
        "perturbation_kind_unknown"])
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


# Each stage's config and seed parameters: the standard values are
# declared once, on the config fields, and the caller passes them.
STAGE_ARGUMENTS = [
    (simulate.generate_world, ("spec", "seed")),
    (simulate.loop_trajectory, ("n_poses", "radius", "height")),
    (simulate.simulate_scans, ("sensor", "seeds")),
    (simulate.simulate_scan, ("sensor", "seed")),
    (simulate.perturb_scan, ("p", "seed")),
    (simulate.oracle_predict, ("oracle", "seed")),
    (plane.fit_plane_ransac, ("params",)),
    (plane.rectify, ("params",)),
    (pose_solve.select_reliable, ("policy",)),
    (encoder.init_encoder_weights, ("config", "seed")),
    (regressor.init_regressor_weights, ("config", "seed")),
    (io.init_weights, ("config", "seed")),
    (train.build_training_set, ("cfg", "run_seed")),
]


def test_stages_take_their_config_and_seed_from_the_caller():
    defaulted = [f"{fn.__name__}({name})" for fn, names in STAGE_ARGUMENTS
                 for name in names
                 if inspect.signature(fn).parameters[name].default
                 is not inspect.Parameter.empty]
    defaulted += [f"{cls.__name__}.{f.name}" for cls in (WorldSpec, PointCloud)
                  for f in dataclasses.fields(cls)
                  if f.default is not dataclasses.MISSING]
    assert defaulted == []
