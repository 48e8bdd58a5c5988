"""File formats and atomic writes.

Formats:
    cloud CSV   header ``x,y,z,intensity``; simulated scans append
                ``cls,gt_x,gt_y,gt_z`` (surface class and the noiseless
                world-frame hit per point).
    pose file   12 whitespace-separated numbers, the 3x4 [R | t] matrix
                in row-major order.
    voxel CSV   header ``ix,iy,iz,px,py,pz,intensity,source_index``.
    tensors     text header naming each array and its shape, then packed
                little-endian float32 payloads in header order.

Writes go to a temp file in the target directory followed by an atomic
rename, so readers never observe a half-written file, and a failed write
is a ParseError naming its file that leaves no temp file.  Every CSV goes
through `write_csv`, and every float (CSV, pose or config) is written
with shortest round-trip repr (`_cell`), so reruns are byte-identical.
CSV rows are read by `np.loadtxt` in one call (`_parse_rows`), with a
per-row `float` parser as the fallback; a row it rejects, or one that
breaks a format's rule (`_check_rows`), is a ParseError naming its line.
Point rows are checked here, once (`_check_points`), so no later stage
meets a coordinate whose square overflows.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ParseError
from .projection import INDEX_BOUND, ProjectionConfig, VoxelCloud, _pack
from .se3 import PointCloud, RigidTransform

PathLike = Union[str, Path]

CLOUD_HEADER = "x,y,z,intensity"
SCAN_HEADER = "x,y,z,intensity,cls,gt_x,gt_y,gt_z"
VOXEL_HEADER = "ix,iy,iz,px,py,pz,intensity,source_index"
TENSOR_MAGIC = "ringloc-tensors 1"
# Beyond every grid a config can build (2^20 cells of at most 1e3 m) and
# far enough below float max that no square a fit takes can overflow.
COORD_BOUND = 1e12  # m


def _cell(x) -> str:
    """Shortest round-trip repr for a float (Python or numpy), str otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: PathLike, header: str, rows: Iterable[Sequence]) -> None:
    """Write the header line, then one comma-joined line per row, with a
    trailing newline, atomically."""
    lines = [header]
    for row in rows:
        lines.append(",".join(map(_cell, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path: PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: PathLike, payload: bytes) -> None:
    path, tmp = Path(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def read_text(path: PathLike) -> str:
    """A file's text, decoded as UTF-8 as the writers encode it; a file
    that cannot be read or decoded is a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte offset "
                         f"{exc.start}") from exc


def _parse_rows(path: Path, lines: List[str], expected_header: str
                ) -> Tuple[np.ndarray, List[int]]:
    """The numeric rows under the header, and each row's line number.

    Blank lines are skipped.  `np.loadtxt` parses the body, unless the
    body is empty or loadtxt raises or gives another shape (a short row,
    a cell such as ``1_0`` that only `float` reads, a whitespace-only
    line); then `float` parses it row by row and names the first bad
    line.
    """
    if not lines or lines[0].strip() != expected_header:
        raise ParseError(f"{path}: expected header '{expected_header}'")
    width = expected_header.count(",") + 1
    linenos = [i for i, line in enumerate(lines[1:], start=2) if line.strip()]
    if linenos:
        try:
            data = np.loadtxt(lines[1:], delimiter=",", comments=None,
                              ndmin=2, dtype=np.float64)
        except ValueError:
            data = None
        if data is not None and data.shape == (len(linenos), width):
            return data, linenos
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


def _check_rows(path: Path, linenos: List[int], bad: np.ndarray,
                rule: str) -> None:
    """Raise a ParseError naming the line of the first row flagged bad."""
    rows = np.flatnonzero(bad)
    if len(rows):
        raise ParseError(f"{path}:{linenos[rows[0]]}: {rule}")


def _check_points(path: Path, linenos: List[int], xyz: np.ndarray,
                  intensity: np.ndarray) -> None:
    """Every coordinate of a cloud, scan (gt_x,gt_y,gt_z too) or voxel row
    within +-COORD_BOUND and its intensity in [0, 1]; NaN breaks either."""
    _check_rows(path, linenos, ~np.all(np.abs(xyz) <= COORD_BOUND, axis=1),
                f"coordinate outside [-{COORD_BOUND:g}, {COORD_BOUND:g}] m")
    _check_rows(path, linenos, ~((intensity >= 0.0) & (intensity <= 1.0)),
                "intensity outside [0, 1]")


def read_cloud_csv(path: PathLike) -> PointCloud:
    """Read a cloud, accepting either the plain or the simulated header."""
    cloud, _, _ = read_scan_csv(path)
    return cloud


def read_scan_csv(path: PathLike
                  ) -> Tuple[PointCloud, Optional[np.ndarray], Optional[np.ndarray]]:
    """Read a cloud plus optional class labels and ground-truth hits.

    Returns (cloud, classes, gt_world); the extras are None for plain
    cloud files.
    """
    path = Path(path)
    lines = read_text(path).splitlines()
    scan = bool(lines) and lines[0].strip() == SCAN_HEADER
    data, linenos = _parse_rows(path, lines,
                                SCAN_HEADER if scan else CLOUD_HEADER)
    xyz = data[:, [0, 1, 2, 5, 6, 7]] if scan else data[:, :3]
    _check_points(path, linenos, xyz, data[:, 3])
    cloud = PointCloud(data[:, :3], data[:, 3])
    if not scan:
        return cloud, None, None
    _check_rows(path, linenos, ~np.isin(data[:, 4], (0.0, 1.0)),
                "cls must be 0 or 1")
    return cloud, data[:, 4].astype(np.int64), data[:, 5:8]


def write_cloud_csv(path: PathLike, cloud: PointCloud) -> None:
    write_csv(path, CLOUD_HEADER,
              np.column_stack([cloud.xyz, cloud.intensity]).tolist())


def write_scan_csv(path: PathLike, cloud: PointCloud,
                   classes: np.ndarray, gt_world: np.ndarray) -> None:
    rows = ((*xyz, i, int(c), *g) for xyz, i, c, g
            in zip(cloud.xyz.tolist(), cloud.intensity.tolist(),
                   classes.tolist(), gt_world.tolist()))
    write_csv(path, SCAN_HEADER, rows)


def write_pose(path: PathLike, t: RigidTransform) -> None:
    rows = ["  ".join(_cell(v) for v in row) for row in t.matrix()]
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_voxel_csv(path: PathLike, config: ProjectionConfig) -> VoxelCloud:
    """Read a voxel grid: checked points, integer indices, each at most once,
    the ring index in [0, ring_cells), the others in [-INDEX_BOUND,
    INDEX_BOUND), source_index in [0, 2^63); a row error names its line."""
    path = Path(path)
    lines = read_text(path).splitlines()
    data, linenos = _parse_rows(path, lines, VOXEL_HEADER)
    idx, src = data[:, :3], data[:, 7]
    _check_points(path, linenos, data[:, 3:6], data[:, 6])
    _check_rows(path, linenos, np.any(idx != np.round(idx), axis=1),
                "voxel indices must be integers")
    _check_rows(path, linenos, (idx[:, 0] < 0)
                | (idx[:, 0] >= config.ring_cells),
                f"ring index outside [0, {config.ring_cells - 1}]")
    _check_rows(path, linenos, np.any((idx[:, 1:] < -INDEX_BOUND)
                                      | (idx[:, 1:] >= INDEX_BOUND), axis=1),
                f"voxel index outside [-{INDEX_BOUND}, {INDEX_BOUND - 1}]")
    _check_rows(path, linenos, (src != np.round(src)) | (src < 0)
                | (src >= 2.0 ** 63),
                "source_index must be an integer in [0, 2^63)")
    cells = idx.astype(np.int64)
    _, first, site = np.unique(_pack(cells), return_index=True,
                               return_inverse=True)
    earlier = first[site]
    repeats = np.flatnonzero(earlier != np.arange(len(cells)))
    if len(repeats):
        row = repeats[0]
        raise ParseError(f"{path}:{linenos[row]}: repeats the voxel index of "
                         f"line {linenos[earlier[row]]}")
    return VoxelCloud(cells, data[:, 3:6], data[:, 6], src.astype(np.int64),
                      config.ring_cells, config.voxel_size)


def write_voxel_csv(path: PathLike, v: VoxelCloud) -> None:
    rows = ((*idx, *pt, inten, src) for idx, pt, inten, src
            in zip(v.indices.tolist(), v.points.tolist(),
                   v.intensity.tolist(), v.source_index.tolist()))
    write_csv(path, VOXEL_HEADER, rows)


def write_tensors(path: PathLike, tensors: Dict[str, np.ndarray]) -> None:
    """Serialize name -> float array, in order: text header, f32 payload."""
    header = [TENSOR_MAGIC]
    blobs: List[bytes] = []
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        header.append(name + " " + " ".join(str(d) for d in arr.shape))
        blobs.append(arr.astype("<f4").tobytes())
    payload = ("\n".join(header) + "\ndata\n").encode("ascii") + b"".join(blobs)
    atomic_write_bytes(path, payload)


def read_tensors(path: PathLike) -> Dict[str, np.ndarray]:
    """Read a tensor file into an ordered name -> float64 array dict."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    marker = b"\ndata\n"
    split = raw.find(marker)
    if split < 0:
        raise ParseError(f"{path}: missing tensor data marker")
    header_lines = raw[:split].decode("ascii", errors="replace").splitlines()
    if not header_lines or header_lines[0] != TENSOR_MAGIC:
        raise ParseError(f"{path}: bad tensor file magic")
    out: Dict[str, np.ndarray] = {}
    cursor = split + len(marker)
    for line in header_lines[1:]:
        parts = line.split()
        if not parts:
            raise ParseError(f"{path}: blank tensor header line")
        name, dims = parts[0], parts[1:]
        if name in out:
            raise ParseError(f"{path}: tensor '{name}' given twice")
        try:
            shape = tuple(int(d) for d in dims)
        except ValueError as exc:
            raise ParseError(f"{path}: bad shape for tensor '{name}'") from exc
        if any(d < 0 for d in shape):
            raise ParseError(f"{path}: negative dimension for tensor '{name}'")
        nbytes = math.prod(shape) * 4
        chunk = raw[cursor:cursor + nbytes]
        if len(chunk) != nbytes:
            raise ParseError(f"{path}: truncated payload for tensor '{name}'")
        try:
            # An empty payload can still name a shape numpy cannot hold.
            out[name] = np.frombuffer(chunk, dtype="<f4").astype(
                np.float64).reshape(shape)
        except ValueError as exc:
            raise ParseError(f"{path}: bad shape for tensor '{name}'") from exc
        if not np.all(np.isfinite(out[name])):
            raise ParseError(f"{path}: tensor '{name}' holds a non-finite value")
        cursor += nbytes
    if cursor != len(raw):
        raise ParseError(f"{path}: trailing bytes after last tensor")
    return out


@dataclass
class Weights:
    """One model's weight set: its config, whose ``layout()`` lists each
    tensor's name and shape in draw and file order, and the tensors."""

    config: Any
    tensors: Dict[str, np.ndarray]


def init_weights(config, seed: int) -> Weights:
    """A model's tensors, drawn in layout order from one seeded generator:
    each X.w and the X.b after it from U[-1/sqrt(fan_in), 1/sqrt(fan_in)],
    fan_in being the product of every axis of X.w but the last (kernel
    taps times input width); a norm's X.g starts at 1 and its X.b at 0."""
    rng = np.random.default_rng(seed)
    tensors: Dict[str, np.ndarray] = {}
    bounds: Dict[str, float] = {}
    for name, shape in config.layout():
        layer, kind = name.rsplit(".", 1)
        if kind == "w":
            bounds[layer] = 1.0 / np.sqrt(math.prod(shape[:-1]))
        if kind == "g":
            tensors[name] = np.ones(shape)
        elif layer in bounds:
            tensors[name] = rng.uniform(-bounds[layer], bounds[layer],
                                        size=shape)
        else:
            tensors[name] = np.zeros(shape)
    return Weights(config, tensors)


def save_weights(path: PathLike, weights: Weights) -> None:
    write_tensors(path, {n: weights.tensors[n]
                         for n, _ in weights.config.layout()})


def load_weights(path: PathLike, model: str, config_of) -> Weights:
    """Read a tensor file as the weight set of `model`: config_of(tensors)
    reads the config from their shapes, whose layout they must then be."""
    tensors = read_tensors(path)
    try:
        config = config_of(tensors)
    except (KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: not a weight file of the {model} "
                         f"({type(exc).__name__}: {exc})") from exc
    if dict(config.layout()) != {n: t.shape for n, t in tensors.items()}:
        raise ParseError(f"{path}: weight file shapes do not form a valid "
                         f"{model}")
    return Weights(config, tensors)
