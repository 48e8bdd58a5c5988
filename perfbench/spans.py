"""In-memory span tracer and the computed work counts of the traced run.

A span records a name, its start and end (perf_counter_ns), the span
open around it, and the frame it belongs to.  Spans stay in memory until
the run ends and are then written out with the run record.  Counts are
kept per name as one value per frame and reported as their mean, so a
count repeats exactly between two runs of the same seed.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional

import numpy as np


class Tracer:
    """Spans and per-frame counts of one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, frame]
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, frame: Optional[int] = None) -> Iterator[int]:
        sid = len(self.spans)
        record = [name, 0, 0, self._open[-1] if self._open else None, frame]
        self.spans.append(record)
        self._open.append(sid)
        record[1] = time.perf_counter_ns()
        try:
            yield sid
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def durations_ms(self, name: str) -> List[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def mean_ms(self, name: str) -> float:
        d = self.durations_ms(name)
        return float(np.mean(d)) if d else 0.0

    def span_ms(self, sid: int) -> float:
        s = self.spans[sid]
        return (s[2] - s[1]) / 1e6

    def children_ms(self, sid: int) -> float:
        """Time covered by the direct children of one span."""
        return sum((s[2] - s[1]) / 1e6 for s in self.spans if s[3] == sid)

    def mean_count(self, name: str) -> float:
        v = self.counts.get(name)
        return float(np.mean(v)) if v else 0.0

    def records(self) -> List[dict]:
        return [{"id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2],
                 "parent": s[3], "frame": s[4]}
                for i, s in enumerate(self.spans)]


class NullTracer:
    """Stand-in used with tracing off: spans and counts cost nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, frame: Optional[int] = None):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


# ------------------------------------------------------ computed counts

_KEY_BASE = 1 << 16  # per-axis bound for the key packing below


def _keys(coords: np.ndarray) -> np.ndarray:
    c = coords.astype(np.int64) + _KEY_BASE
    if np.any(c < 0) or np.any(c >= 2 * _KEY_BASE):
        raise ValueError("voxel coordinate outside the packable range")
    return (c[:, 0] * (2 * _KEY_BASE) + c[:, 1]) * (2 * _KEY_BASE) + c[:, 2]


def _offsets(per_axis, dilation: int = 1) -> np.ndarray:
    a = np.array(per_axis, dtype=np.int64)
    grid = np.stack(np.meshgrid(a, a, a, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3) * dilation


_CUBE = (-1, 0, 1)


def _occupied(queries: np.ndarray, sites: np.ndarray, offsets: np.ndarray,
              ring: Optional[int]) -> int:
    """Neighbour slots of `queries` that land on an active site."""
    site_keys = np.sort(_keys(sites))
    hits = 0
    for off in offsets:
        nb = queries + off
        if ring is not None:
            nb[:, 0] %= ring
        hits += int(np.count_nonzero(np.isin(_keys(nb), site_keys,
                                             assume_unique=False)))
    return hits


def encoder_work(indices: np.ndarray, ring_cells: int,
                 tensors: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Sites per resolution and the slot and MAC counts of every sparse conv.

    Mirrors the encoder's geometry: four stride-2 stages that halve the
    ring, two stride-1 3x3x3 convs per stage, the dilated stage 5, the
    kernel-2 transposed conv and the dilated stage 6.  A dense im2col
    gathers every kernel slot of every output site ("gathered"); only
    the slots holding an active neighbour do useful work ("useful").
    """
    levels = [(np.asarray(indices, dtype=np.int64), ring_cells)]
    for _ in range(4):
        coords, ring = levels[-1]
        levels.append((np.unique(coords >> 1, axis=0), ring // 2))

    convs = []  # (name, queries, sites, offsets, ring or None)
    for i in range(1, 5):
        child, _ = levels[i - 1]
        sites, ring = levels[i]
        convs.append((f"stage{i}.down", sites * 2, child,
                      _offsets((0, 1)), None))
        convs.append((f"stage{i}.a", sites, sites, _offsets(_CUBE), ring))
        convs.append((f"stage{i}.b", sites, sites, _offsets(_CUBE), ring))
    coarse, ring = levels[4]
    for name in ("stage5.a", "stage5.b"):
        convs.append((name, coarse, coarse, _offsets(_CUBE, 2), ring))
    convs.append(("stage6.up", coarse, coarse, _offsets((0, -1)), ring))
    for name in ("stage6.a", "stage6.b"):
        convs.append((name, coarse, coarse, _offsets(_CUBE, 2), ring))

    gathered = useful = slots = occupied = 0
    for name, queries, sites, offs, ring in convs:
        _, c_in, c_out = tensors[name + ".w"].shape
        hit = _occupied(queries, sites, offs, ring)
        slots += len(offs) * len(queries)
        occupied += hit
        gathered += len(offs) * len(queries) * c_in * c_out
        useful += hit * c_in * c_out

    work = {f"encoder.sites.l{k}": float(len(c))
            for k, (c, _) in enumerate(levels)}
    work["encoder.slot_occupancy"] = occupied / slots
    work["encoder.gathered_macs"] = float(gathered)
    work["encoder.useful_macs"] = float(useful)
    return work


def regressor_macs_per_row(tensors: Dict[str, np.ndarray]) -> float:
    """Multiply-adds per input row: one per weight of every affine layer."""
    return float(sum(t.shape[0] * t.shape[1] for name, t in tensors.items()
                     if name.endswith(".w") and t.ndim == 2))
