"""Error types shared across the pipeline, with CLI exit codes attached."""


class RinglocError(Exception):
    """Base class for pipeline failures; exit_code drives the CLI."""

    exit_code = 1


class ParseError(RinglocError):
    """Malformed input file (CSV, pose, config, weights)."""

    exit_code = 2


class DegenerateInput(RinglocError):
    """Geometry too degenerate to proceed (collinear samples, bad rotation)."""

    exit_code = 3


class NoConsensus(RinglocError):
    """RANSAC found no hypothesis with enough inliers."""

    exit_code = 4


class EmptyScan(RinglocError):
    """A scan, cloud or training set with fewer points than required."""

    exit_code = 5


class EmptyGrid(EmptyScan):
    """A voxel grid with no occupied sites."""


class OriginPoint(DegenerateInput):
    """A point on the sensor axis has no defined azimuth."""


class ShapeMismatch(RinglocError):
    """Array arguments whose shapes cannot be combined."""


class LengthMismatch(RinglocError):
    """Parallel arrays of unequal length."""
