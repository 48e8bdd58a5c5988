"""File formats: CSV clouds and scans, pose text, voxel CSV, tensors, and
the weight-set init rule."""

import math
import os
import re
import stat
import sys
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from ringloc import io
from ringloc.config import PipelineConfig, config_keys, config_to_text
from ringloc.encoder import EncoderConfig
from ringloc.errors import ParseError
from ringloc.io import (CLOUD_HEADER, COORD_BOUND, SCAN_HEADER, TENSOR_MAGIC,
                        VOXEL_HEADER, WRITE_BLOCK, _parse_rows,
                        atomic_write_text, init_weights, read_cloud_csv,
                        read_scan_csv, read_tensors, read_voxel_csv,
                        write_cloud_csv, write_csv, write_pose,
                        write_scan_csv, write_tensors, write_voxel_csv)
from ringloc.projection import (INDEX_BOUND, ProjectionConfig, VoxelCloud,
                                voxelize)
from ringloc.regressor import RegressorConfig
from ringloc.se3 import PointCloud, RigidTransform, yaw

from helpers import read_pose

CFG64 = ProjectionConfig(voxel_size=0.2, ring_cells=64)


def random_cloud(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-50, 50, size=(n, 3)),
                      rng.uniform(0, 1, n))


def test_write_csv_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(6)
    floats = [0.1, 1.0 / 3.0, -2.5e-300, 1e16, float("nan"),
              np.float64(rng.normal()), np.float32(rng.normal())]
    rows = [(i, np.int64(7 * i), "label", x) for i, x in enumerate(floats)]
    columns = [list(column) for column in zip(*rows)]
    p = tmp_path / "t.csv"
    write_csv(p, "i,j,name,value", columns)
    text = p.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    assert lines[0] == "i,j,name,value"
    assert len(lines) == len(rows) + 1
    for line, (i, j, name, x) in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[:3] == [str(i), str(int(j)), name]
        back = float(cells[3])
        assert back == float(x) or (math.isnan(back) and math.isnan(x))
    first = p.read_bytes()
    write_csv(p, "i,j,name,value", columns)
    assert p.read_bytes() == first


def _cell(x) -> str:
    """The reference number rule, which `str` of each Python value that
    the writers write must match: the shortest round-trip repr of a float
    (Python or numpy), `str` of anything else."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def reference_csv(header, rows) -> bytes:
    """The row-at-a-time writer that `write_csv` replaced: `_cell` of
    each cell, comma-joined, one line per row, a trailing newline."""
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


F64_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
             -1e16, 1e-5, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2, 1.7976931348623157e308,
             math.nan, math.inf, -math.inf]
F32_EDGES = [0.0, -0.0, 1e-45, 1.17549435e-38, 1e16, 1e-5, 0.1,
             3.4028235e38, math.nan, math.inf, -math.inf]
I64_EDGES = [2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63), 0, -1]
STRINGS = ["baseline", "yaw:90", "", "NoConsensus", "two words", "üñí"]


def edge_table(n, seed):
    """(header, columns, rows): n rows over every cell type the writers
    pass, the named edge values first, then random float64 and float32
    bit patterns (subnormals, NaN payloads and infinities among them) and
    random int64s.  Columns hold arrays, a 2-D array, Python numbers,
    numpy scalars and strings; rows hold each cell as `_cell` got it."""
    rng = np.random.default_rng(seed)
    f64 = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    f64[:len(F64_EDGES)] = F64_EDGES[:n]
    f32 = rng.integers(0, 2 ** 32, n, dtype=np.uint32).view(np.float32)
    f32[:len(F32_EDGES)] = np.array(F32_EDGES[:n], dtype=np.float32)
    i64 = rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64)
    i64[:len(I64_EDGES)] = I64_EDGES[:n]
    pair = rng.permutation(np.concatenate([f64, f64[::-1]])).reshape(n, 2)
    words = [STRINGS[k] for k in rng.integers(0, len(STRINGS), n)]
    f64_scalars, f32_scalars, i64_scalars = list(f64), list(f32), list(i64)
    columns = [f64, f32, i64, pair, f64.tolist(), i64.tolist(), f64_scalars,
               f32_scalars, i64_scalars, words]
    rows = list(zip(f64, f32, i64, pair[:, 0], pair[:, 1], f64.tolist(),
                    i64.tolist(), f64_scalars, f32_scalars, i64_scalars,
                    words))
    header = ",".join(f"c{k}" for k in range(11))
    return header, columns, rows


@pytest.mark.parametrize("seed", range(4))
def test_write_csv_bytes_match_cell_formatting(tmp_path, seed):
    header, columns, rows = edge_table(2 * WRITE_BLOCK + 37, seed)
    p = tmp_path / "edge.csv"
    write_csv(p, header, columns)
    assert p.read_bytes() == reference_csv(header, rows)


# Python floats read back from float32, as a float32 weight or cloud gives.
F32_BACK = [float(np.float32(x)) for x in (0.1, 1.0 / 3.0, -2.7, 1e-5)]


def test_write_pose_bytes_match_cell_formatting(tmp_path):
    rng = np.random.default_rng(4)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 1.0 / 3.0,
             *F32_BACK]
    mats = [np.array(edges).reshape(3, 4),
            np.array(edges[::-1]).reshape(3, 4),
            rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64),
            rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4))]
    for k, mat in enumerate(mats):
        t, p = RigidTransform(mat[:, :3], mat[:, 3]), tmp_path / f"{k}.txt"
        write_pose(p, t)
        want = "".join("  ".join(map(_cell, row)) + "\n" for row in t.matrix())
        assert p.read_bytes() == want.encode("utf-8")


def test_config_text_bytes_match_cell_formatting():
    f32, std = F32_BACK, PipelineConfig()
    cfg = replace(
        std,
        projection=replace(std.projection, voxel_size=1e-5),
        plane=replace(std.plane, threshold=5e-324),
        pose=replace(std.pose, threshold=f32[0]),
        selection=replace(std.selection, top_fraction=1.0 / 3.0),
        sensor=replace(std.sensor, elevation_min_deg=f32[2] * 10.0,
                       elevation_max_deg=-0.0, range_noise=0.0),
        oracle=replace(std.oracle, sigma_reliable=f32[3],
                       u_reliable=(5e-324, f32[1]),
                       u_ambiguous=(-999.9999999999999, -0.0)),
        trajectory=replace(std.trajectory, radius=0.0, height=f32[1]),
        train=replace(std.train, lr=f32[0] / 100.0))
    lines = [line for line in config_to_text(cfg).splitlines()
             if line and not line.startswith("config_version")]
    want = [f"{key} = " + (",".join(map(_cell, value))
                           if isinstance(value, tuple) else _cell(value))
            for key, _, value in config_keys(cfg)]
    assert lines == want
    assert "pose.threshold = 0.10000000149011612" in lines
    assert "sensor.elevation_max_deg = -0.0" in lines


def test_write_csv_blocks_join_to_one_block(tmp_path, monkeypatch):
    n = 2 * WRITE_BLOCK + 1
    header, columns, rows = edge_table(n, 9)
    blocked, whole = tmp_path / "blocked.csv", tmp_path / "whole.csv"
    write_csv(blocked, header, columns)
    monkeypatch.setattr(io, "WRITE_BLOCK", n)
    write_csv(whole, header, columns)
    assert blocked.read_bytes() == whole.read_bytes()
    assert len(blocked.read_bytes().splitlines()) == n + 1


@pytest.mark.parametrize("columns", [[], [[], []], [np.zeros((0, 3))]])
def test_write_csv_of_no_row_is_its_header(tmp_path, columns):
    p = tmp_path / "t.csv"
    write_csv(p, "a,b,c", columns)
    assert p.read_bytes() == b"a,b,c\n"


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    p = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv(p, "a,b", [np.zeros(3), np.zeros(2)])
    assert not p.exists()


def test_write_csv_memory_is_bounded_by_its_block(tmp_path):
    """A 27,000 x 67 table (3 int columns, 64 float ones) writes in
    memory that one block of rows bounds, far under the file's size.

    One block holds at once: every column's `.tolist()` numbers for its
    WRITE_BLOCK rows, and at most three copies of its formatted text (the
    lines, the joined block with its newline, and the encoded bytes).  A
    cell's text is at most 25 characters (the longest float repr, 24,
    and a comma); each line and block is one str object."""
    n, width = 27_000, 67
    rng = np.random.default_rng(0)
    ints = rng.integers(-2 ** 31, 2 ** 31, (n, 3))
    floats = rng.normal(size=(n, 64))
    p = tmp_path / "wide.csv"
    number = max(sys.getsizeof(-2.2250738585072014e-308),
                 sys.getsizeof(-2 ** 31)) + 8  # object and its list slot
    block_text = WRITE_BLOCK * (sys.getsizeof("") + width * 25)
    bound = WRITE_BLOCK * width * number + 3 * block_text
    tracemalloc.start()
    try:
        write_csv(p, ",".join(f"c{k}" for k in range(width)), [ints, floats])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert bound < p.stat().st_size / 10


def test_cloud_round_trip_is_exact(tmp_path):
    c = random_cloud()
    p = tmp_path / "cloud.csv"
    write_cloud_csv(p, c)
    back = read_cloud_csv(p)
    np.testing.assert_array_equal(back.xyz, c.xyz)
    np.testing.assert_array_equal(back.intensity, c.intensity)


def test_cloud_write_is_byte_stable(tmp_path):
    c = random_cloud(seed=1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cloud_csv(a, c)
    write_cloud_csv(b, c)
    assert a.read_bytes() == b.read_bytes()


def test_scan_round_trip(tmp_path):
    c = random_cloud(seed=2)
    classes = np.arange(len(c)) % 2
    gt = np.random.default_rng(3).normal(size=(len(c), 3))
    p = tmp_path / "scan.csv"
    write_scan_csv(p, c, classes, gt)
    cloud, cls, gt_back = read_scan_csv(p)
    np.testing.assert_array_equal(cloud.xyz, c.xyz)
    np.testing.assert_array_equal(cls, classes)
    np.testing.assert_array_equal(gt_back, gt)


def test_plain_cloud_has_no_extras(tmp_path):
    p = tmp_path / "c.csv"
    write_cloud_csv(p, random_cloud(seed=4))
    _, cls, gt = read_scan_csv(p)
    assert cls is None and gt is None


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        read_cloud_csv(tmp_path / "absent.csv")


def test_bad_header_is_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        read_cloud_csv(p)


def test_bad_cell_is_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z,intensity\n1,2,three,0.5\n")
    with pytest.raises(ParseError):
        read_cloud_csv(p)


def reference_parse_rows(path, lines, expected_header):
    """The per-row `float` parser `_parse_rows` falls back to."""
    if not lines or lines[0].strip() != expected_header:
        raise ParseError(f"{path}: expected header '{expected_header}'")
    width = expected_header.count(",") + 1
    rows, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        linenos.append(lineno)
    return np.array(rows, dtype=np.float64).reshape(-1, width), linenos


# Cells `float` reads and np.loadtxt rejects, cells both reject, and
# cells both read; each goes into the first field of a second data row.
CELL_CORPUS = ["1_0", "0_1", "\u0661", "\u0663.\u0665", "1__0", "_1", "1_",
               "", " ", "1 2", "0x1p3", "1d3", "True", "1j", "--1", "1\x00",
               "nan", "-nan", "+nan", "inf", "-Infinity", "1e500", "-1e500",
               "4.9e-324", "1e-400", "-0", " 1.5 ", "\t2\t", "\xa01", ".5",
               "5.", "+.5", "1E3", "01"]
BODY_CORPUS = [[], [""], ["", "  "], ["   "], ["1,2,3,4", "   "],
               ["1,2,3,4", "", "5,6,7,8", ""], ["\u2000"], ["1,2,3"],
               ["1,2,3", "4,5,6"], ["1,2,3,4,"], ["1,,3,4"], ["1,2,3,4,5"],
               ["1,2,3,4", "1,2,3"], ["1,2,3,4", "5,6,7,8,9"]]


def parse_outcome(parse, lines):
    try:
        data, linenos = parse("scan.csv", lines, "x,y,z,intensity")
    except ParseError as exc:
        return "error", str(exc)
    return data.dtype, data.shape, data.tobytes(), linenos


@pytest.mark.parametrize("body", [["0.5,1,2,0.25", f"{c},1,2,0.5"]
                                  for c in CELL_CORPUS] + BODY_CORPUS)
def test_parse_rows_matches_the_per_row_parser(body):
    lines = ["x,y,z,intensity"] + body
    assert parse_outcome(_parse_rows, lines) == \
        parse_outcome(reference_parse_rows, lines)


def test_out_of_range_intensity_is_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z,intensity\n1,2,3,1.5\n")
    with pytest.raises(ParseError):
        read_cloud_csv(p)


# Per format: two good rows, then which columns hold coordinates and
# which the intensity.
POINT_FORMATS = {
    "cloud": (CLOUD_HEADER, ["1,2,3,0.5", "4,5,6,0.25"], (0, 1, 2), 3),
    "scan": (SCAN_HEADER, ["1,2,3,0.5,0,1,2,3", "4,5,6,0.25,1,4,5,6"],
             (0, 1, 2, 5, 6, 7), 3),
    "voxel": (VOXEL_HEADER, ["0,1,1,1,2,3,0.5,0", "1,1,1,4,5,6,0.25,1"],
              (3, 4, 5), 6),
}
BAD_COORDS = ("nan", "inf", "1.7e308", "-1.7e308", "1.000001e12")
BAD_INTENSITIES = ("nan", "-0.5", "2")
COORD_RULE = "coordinate outside [-1e+12, 1e+12] m"
INTENSITY_RULE = "intensity outside [0, 1]"


def read_points(kind, path):
    return read_voxel_csv(path, CFG64) if kind == "voxel" else \
        read_scan_csv(path)


def point_row_cases():
    for kind, (_, _, coord_columns, intensity_column) in POINT_FORMATS.items():
        for column, value in product(coord_columns, BAD_COORDS):
            yield pytest.param(kind, column, value, COORD_RULE,
                               id=f"{kind}-col{column}-{value}")
        for value in BAD_INTENSITIES:
            yield pytest.param(kind, intensity_column, value, INTENSITY_RULE,
                               id=f"{kind}-intensity-{value}")


@pytest.mark.parametrize("kind, column, value, rule", list(point_row_cases()))
def test_point_row_rule_names_its_line(tmp_path, kind, column, value, rule):
    header, (first, second), _, _ = POINT_FORMATS[kind]
    cells = second.split(",")
    cells[column] = value
    p = tmp_path / f"{kind}.csv"
    p.write_text(f"{header}\n{first}\n\n{','.join(cells)}\n")
    with pytest.raises(ParseError,
                       match=f"^{re.escape(str(p))}:4: {re.escape(rule)}$"):
        read_points(kind, p)


@pytest.mark.parametrize("kind", sorted(POINT_FORMATS))
def test_point_rows_on_the_bound_read(tmp_path, kind):
    header, (first, second), coord_columns, intensity_column = \
        POINT_FORMATS[kind]
    cells = second.split(",")
    for sign, column in zip((1, -1, 1, -1, 1, -1), coord_columns):
        cells[column] = repr(sign * COORD_BOUND)
    cells[intensity_column] = "1"
    p = tmp_path / f"{kind}.csv"
    p.write_text(f"{header}\n{first}\n{','.join(cells)}\n")
    read_points(kind, p)


def test_pose_round_trip(tmp_path):
    t = RigidTransform(yaw(0.37).rotation, np.array([1.25, -3.5, 0.125]))
    p = tmp_path / "pose.txt"
    write_pose(p, t)
    back = read_pose(p)
    np.testing.assert_array_equal(back.rotation, t.rotation)
    np.testing.assert_array_equal(back.translation, t.translation)


def test_voxel_round_trip(tmp_path):
    cfg = ProjectionConfig(voxel_size=0.2, ring_cells=64)
    rng = np.random.default_rng(5)
    proj = PointCloud(np.column_stack([
        rng.uniform(0, cfg.ring_cells * cfg.voxel_size, 40),
        rng.uniform(1, 8, 40), rng.uniform(-2, 2, 40)]),
        rng.uniform(0, 1, 40))
    v = voxelize(proj, cfg)
    p = tmp_path / "vox.csv"
    write_voxel_csv(p, v)
    back = read_voxel_csv(p, cfg)
    np.testing.assert_array_equal(back.indices, v.indices)
    np.testing.assert_array_equal(back.points, v.points)
    np.testing.assert_array_equal(back.source_index, v.source_index)


def test_voxel_rejects_fractional_index(tmp_path):
    p = tmp_path / "vox.csv"
    p.write_text("ix,iy,iz,px,py,pz,intensity,source_index\n"
                 "0.5,1,1,0.0,0.0,0.0,0.0,0\n")
    with pytest.raises(ParseError):
        read_voxel_csv(p, ProjectionConfig(voxel_size=0.2, ring_cells=64))


@pytest.mark.parametrize("cells, rule", [
    ("1.5,1,1", "voxel indices must be integers"),
    ("0,nan,1", "voxel indices must be integers"),
    ("-1,1,1", "ring index outside [0, 63]"),
    ("64,1,1", "ring index outside [0, 63]"),
    ("1,1,-1048577", "voxel index outside [-1048576, 1048575]"),
    ("1,inf,1", "voxel index outside [-1048576, 1048575]")])
def test_voxel_row_rule_names_its_line(tmp_path, cells, rule):
    p = tmp_path / "vox.csv"
    p.write_text("ix,iy,iz,px,py,pz,intensity,source_index\n"
                 "0,1,1,0.0,0.0,0.0,0.0,0\n"
                 f"{cells},0.0,0.0,0.0,0.0,1\n")
    with pytest.raises(ParseError,
                       match=f"^{re.escape(str(p))}:3: {re.escape(rule)}$"):
        read_voxel_csv(p, CFG64)


@pytest.mark.parametrize("src", ["inf", "1e30", "9.3e18", "-1", "nan", "2.5"])
def test_voxel_rejects_source_index_int64_cannot_hold(tmp_path, src):
    p = tmp_path / "vox.csv"
    p.write_text("ix,iy,iz,px,py,pz,intensity,source_index\n"
                 "0,1,1,0.0,0.0,0.0,0.0,0\n"
                 f"1,1,1,0.0,0.0,0.0,0.0,{src}\n")
    with pytest.raises(ParseError,
                       match=f"^{re.escape(str(p))}:3: source_index"):
        read_voxel_csv(p, CFG64)


def first_repeat_by_rows(cells):
    """(row, earlier row) of the first repeated index, found with the
    row-wise np.unique(axis=0) read_voxel_csv used before packed keys."""
    _, first, site = np.unique(cells, axis=0, return_index=True,
                               return_inverse=True)
    earlier = first[site.reshape(-1)]
    repeats = np.flatnonzero(earlier != np.arange(len(cells)))
    return (repeats[0], earlier[repeats[0]]) if len(repeats) else None


@pytest.mark.parametrize("seed", range(8))
def test_voxel_repeat_check_matches_row_unique(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    span = int(rng.choice([2, 4, 40]))  # small spans repeat, large rarely
    cells = np.column_stack([rng.integers(0, 64, n),
                             rng.integers(-span, span, (n, 2))])
    p = tmp_path / "vox.csv"
    write_csv(p, "ix,iy,iz,px,py,pz,intensity,source_index",
              [cells, np.zeros((n, 3)), np.full(n, 0.5), np.arange(n)])
    want = first_repeat_by_rows(cells)
    if want is None:
        np.testing.assert_array_equal(read_voxel_csv(p, CFG64).indices, cells)
        return
    row, earlier = want  # data row r sits on line r + 2, under the header
    with pytest.raises(ParseError) as err:
        read_voxel_csv(p, CFG64)
    assert str(err.value) == (f"{p}:{row + 2}: repeats the voxel index of "
                              f"line {earlier + 2}")


def test_tensor_round_trip_and_f32_quantization(tmp_path):
    rng = np.random.default_rng(6)
    tensors = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    p = tmp_path / "t.bin"
    write_tensors(p, tensors)
    back = read_tensors(p)
    assert list(back) == ["a.w", "b"]
    for name, arr in tensors.items():
        # Storage is f32; values come back rounded to that precision.
        np.testing.assert_array_equal(back[name],
                                      arr.astype("<f4").astype(np.float64))


def test_tensor_bad_magic(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"not-tensors\ndata\n")
    with pytest.raises(ParseError):
        read_tensors(p)


def test_tensor_truncated_payload(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, {"x": np.ones((2, 2))})
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(ParseError):
        read_tensors(p)


def test_tensor_trailing_garbage(tmp_path):
    p = tmp_path / "t.bin"
    write_tensors(p, {"x": np.ones(3)})
    p.write_bytes(p.read_bytes() + b"\x00\x00")
    with pytest.raises(ParseError):
        read_tensors(p)


@pytest.mark.parametrize("header, payload", [
    # dims whose product is 2^64, which wraps to 0 in int64
    ("x 4294967296 4294967296", b""),
    ("x 0 4611686018427387904", b""),
    ("x -1 -3", bytes(12)),
    ("x 2\nx 2", bytes(16)),
])
def test_tensor_bad_header_names_the_file(tmp_path, header, payload):
    p = tmp_path / "t.bin"
    p.write_bytes(f"{TENSOR_MAGIC}\n{header}\ndata\n".encode() + payload)
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: "):
        read_tensors(p)


def encoder_draw(config, seed):
    """The encoder's draw loop from before the shared init rule."""
    rng = np.random.default_rng(seed)
    tensors, fans = {}, {}
    for name, shape in config.layout():
        if name.endswith(".w"):
            fan_in = int(np.prod(shape[:-1]))
            fans[name[:-2]] = fan_in
        else:
            fan_in = fans[name[:-2]]
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = rng.uniform(-bound, bound, size=shape)
    return tensors


def regressor_draw(config, seed):
    """The regressor's draw loop from before the shared init rule."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in config.layout():
        if name.startswith("ln"):
            tensors[name] = (np.ones(shape) if name.endswith(".g")
                             else np.zeros(shape))
            continue
        bound = 1.0 / np.sqrt(config.width)
        tensors[name] = rng.uniform(-bound, bound, size=shape)
    return tensors


WEIGHT_CONFIGS = [(cfg, encoder_draw) for cfg in (
    EncoderConfig(), EncoderConfig(1, (1, 1, 1, 1, 1), 1),
    EncoderConfig(3, (5, 2, 9, 1, 4), 6),
    EncoderConfig(8, (16, 4, 4, 2, 3), 5))
] + [(RegressorConfig(width, heads, layers), regressor_draw)
     for heads, layers, width in product((1, 4, 7), (1, 5), (1, 3, 64))]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_init_weights_matches_each_models_own_draw(seed):
    for cfg, draw in WEIGHT_CONFIGS:
        got, want = init_weights(cfg, seed).tensors, draw(cfg, seed)
        assert list(got) == list(want) == [n for n, _ in cfg.layout()]
        for name, t in want.items():
            assert got[name].tobytes() == t.tobytes(), (cfg, name)


def test_atomic_write_replaces_whole_file(tmp_path):
    p = tmp_path / "f.txt"
    atomic_write_text(p, "long old content\n")
    atomic_write_text(p, "new\n")
    assert p.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [p]  # no temp files left behind


def test_write_to_a_taken_temp_name_fails_leaving_it_alone(tmp_path,
                                                           monkeypatch):
    # The temp file must be new, so a file already at its name is kept as
    # it was, and the write creates nothing.
    monkeypatch.setattr(io.secrets, "token_hex", lambda n: "taken")
    taken = tmp_path / "f.txt.taken.tmp"
    taken.write_text("someone else's\n")
    with pytest.raises(ParseError, match=re.escape(f"cannot write "
                                                   f"{tmp_path / 'f.txt'}: ")):
        atomic_write_text(tmp_path / "f.txt", "new\n")
    assert taken.read_text() == "someone else's\n"
    assert list(tmp_path.iterdir()) == [taken]


def finite_bits(rng, shape, bound):
    """Random float64s of every exponent up to `bound` in magnitude, with
    -0.0, 0.0 and the smallest subnormal among them."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 12, shape)
    x = np.clip(x, -bound, bound)
    x.flat[:3] = [-0.0, 0.0, 5e-324]
    return x


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_each_numeric_writer_reads_back_bit_for_bit(tmp_path, seed):
    """Cloud, scan and voxel files of more than two write blocks give
    back every bit of every value through io's readers."""
    n = 2 * WRITE_BLOCK + 1
    rng = np.random.default_rng(seed)
    intensity = np.abs(finite_bits(rng, n, 1.0))
    intensity[3] = 1.0
    cloud = PointCloud(finite_bits(rng, (n, 3), COORD_BOUND), intensity)
    write_cloud_csv(tmp_path / "cloud.csv", cloud)
    back = read_cloud_csv(tmp_path / "cloud.csv")
    same_bits(back.xyz, cloud.xyz)
    same_bits(back.intensity, cloud.intensity)

    classes = rng.integers(0, 2, n)
    gt = finite_bits(rng, (n, 3), COORD_BOUND)
    write_scan_csv(tmp_path / "scan.csv", cloud, classes, gt)
    back, cls, gt_back = read_scan_csv(tmp_path / "scan.csv")
    same_bits(back.xyz, cloud.xyz)
    same_bits(back.intensity, cloud.intensity)
    same_bits(cls, classes.astype(np.int64))
    same_bits(gt_back, gt)

    cells = np.column_stack([rng.integers(0, CFG64.ring_cells, n),
                             rng.permutation(n) - n // 2,
                             rng.integers(-INDEX_BOUND, INDEX_BOUND, n)])
    cells[:2, 1:] = [[-INDEX_BOUND, INDEX_BOUND - 1],
                     [INDEX_BOUND - 1, -INDEX_BOUND]]
    v = VoxelCloud(cells, finite_bits(rng, (n, 3), COORD_BOUND), intensity,
                   rng.integers(0, 2 ** 53, n), CFG64.ring_cells,
                   CFG64.voxel_size)
    write_voxel_csv(tmp_path / "vox.csv", v)
    back = read_voxel_csv(tmp_path / "vox.csv", CFG64)
    for name in ("indices", "points", "intensity", "source_index"):
        same_bits(getattr(back, name), getattr(v, name))


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_take_the_mode_open_gives(tmp_path, umask):
    """Every write ends as 0o666 less the umask, as a plain open() makes
    a file, whatever mode its temp file was made with."""
    old = os.umask(umask)
    try:
        (tmp_path / "plain").write_text("")
        write_csv(tmp_path / "t.csv", "a", [[1]])
        atomic_write_text(tmp_path / "t.txt", "x\n")
        write_tensors(tmp_path / "t.bin", {"w": np.zeros(2)})
    finally:
        os.umask(old)
    for p in tmp_path.iterdir():
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask, p.name

