"""Config keys declared once: each key's default, doc and valid range sit
on its dataclass field, where the config file, ``--help`` and the Section
check all read them.  NaN fails every comparison, so it lies outside
every range, and a finite bound also rejects the infinity on its side."""

from __future__ import annotations

import dataclasses


def key(default, doc: str, *, ge=None, gt=None, le=None):
    """A config key: a dataclass field with its doc and valid range.  A key
    without a lower bound (a text key) has no range."""
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


class Section:
    """Base of a config section: construction checks each key's range,
    element by element for tuples, and raises ValueError naming the first
    key outside it."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            low, bracket = f.metadata.get("low", (None, None))
            if low is None:
                continue
            high, value = f.metadata["high"], getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if not ((v >= low if bracket == "[" else v > low)
                        and (high is None or v <= high)):
                    raise ValueError(f"{f.name} must be {range_text(f)}, "
                                     f"got {v!r}")
