"""Config keys declared once: each key's default, doc and valid range sit
on its dataclass field, where the config file, ``--help`` and the Section
check all read them.  The same rule covers the command-line flags that
set a key (``--seed``, ``--epochs``, bench's ``--perturb``) and each
perturbation kind's magnitude, which is declared with key() too.  NaN
fails every comparison, so it lies outside every range, a finite bound
also rejects the infinity on its side, and -0 lies below a bound of 0."""

from __future__ import annotations

import dataclasses
import math


def key(default, doc: str, *, ge=None, gt=None, le=None):
    """A config key: a dataclass field with its doc and valid range.  A key
    without a lower bound (a text key, a yaw angle) has no range."""
    low = (ge, "[") if gt is None else (gt, "(")
    return dataclasses.field(default=default,
                             metadata={"doc": doc, "low": low, "high": le})


def range_text(f: dataclasses.Field) -> str:
    """The valid range in interval notation, '' for a key without one."""
    (low, bracket), high = f.metadata["low"], f.metadata["high"]
    if low is None:
        return ""
    hi = "inf)" if high is None else f"{high:.12g}]"
    each = "each " if isinstance(f.default, tuple) else ""
    return f"{each}in {bracket}{low:.12g}, {hi}"


def is_key(f: dataclasses.Field) -> bool:
    return "doc" in f.metadata


def describe(f: dataclasses.Field) -> str:
    """Doc and range of a key, as ``ringloc --help`` shows it."""
    return "; ".join(filter(None, (f.metadata["doc"], range_text(f))))


def check(f: dataclasses.Field, name: str, value) -> None:
    """Raise ValueError naming `name` if value, or an element of a tuple
    value, lies outside f's range."""
    low, bracket = f.metadata.get("low", (None, None))
    if low is None:
        return
    high = f.metadata["high"]
    for v in value if isinstance(value, tuple) else (value,):
        if not ((v >= low if bracket == "[" else v > low)
                and (high is None or v <= high)) or (
                    v == low == 0 and math.copysign(1.0, v) < 0):
            raise ValueError(f"{name} must be {range_text(f)}, got {v!r}")


class Section:
    """Base of a config section: construction checks every key's range."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check(f, f.name, getattr(self, f.name))
