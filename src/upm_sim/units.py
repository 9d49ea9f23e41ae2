"""Unit parsing and formatting for profile documents.

Profile files are line-oriented ``dotted.key = value`` pairs. Values may
carry a unit suffix; which suffixes are legal depends on the dimension of
the key (bytes, rate, time), so parsing is driven by a per-key dimension
tag supplied by the caller.
"""

from __future__ import annotations

import math

# Dimension tags for profile keys.
BYTES = "bytes"
RATE = "rate"          # bytes/s
TIME_NS = "time_ns"
TIME_US = "time_us"
COUNT = "count"
FLAG = "flag"
SCALAR = "scalar"      # dimensionless

# Each numeric dimension: its suffixes, scaled to the field's unit; its
# error noun; and, for a whole-number dimension, the message that rejects
# a fraction (else None).
_DIMENSIONS = {
    BYTES: ({"kib": 1024, "mib": 1024**2, "gib": 1024**3, "b": 1},
            "byte value", "byte value must be a whole number of bytes"),
    RATE: ({"gbps": 1e9, "tbps": 1e12}, "rate value", None),
    TIME_NS: ({"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}, "latency value",
              None),
    TIME_US: ({"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}, "time value",
              None),
    COUNT: ({}, "count", "count must be integral"),
    SCALAR: ({}, "scalar", None),
}


class UnitError(ValueError):
    pass


def _split_suffix(text: str) -> tuple[str, str]:
    """Split a value into (numeric part, lowercase suffix part)."""
    i = len(text)
    while i > 0 and (text[i - 1].isalpha()):
        i -= 1
    return text[:i].strip(), text[i:].strip().lower()


def parse_value(text: str, dimension: str):
    """Parse one profile value according to its dimension.

    Returns int where the dimension is integral (bytes, counts), float
    otherwise. Raises UnitError on malformed input, a number that is not
    finite, a suffix that does not fit the dimension, or a byte value or
    count that is not a whole number.
    """
    text = text.strip()
    if dimension == FLAG:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UnitError(f"expected flag value, got {text!r}")

    num, suffix = _split_suffix(text)
    if not num:
        raise UnitError(f"missing numeric part in {text!r}")
    try:
        value = float(num)
    except ValueError as exc:
        raise UnitError(f"bad number {num!r}") from exc
    if not math.isfinite(value):
        raise UnitError(f"number {num!r} is not finite")
    if dimension not in _DIMENSIONS:
        raise UnitError(f"unknown dimension {dimension!r}")
    suffixes, noun, whole = _DIMENSIONS[dimension]
    scale = suffixes.get(suffix) if suffix else 1
    if scale is None:
        raise UnitError(f"suffix {suffix!r} not valid for a {noun}")
    value *= scale
    if whole is None:
        return value
    if value != int(value):
        raise UnitError(f"{whole}, got {text!r}")
    return int(value)


def format_value(value, dimension: str) -> str:
    """Format a profile value for serialization. Inverse of parse_value."""
    if dimension == FLAG:
        return "1" if value else "0"
    if _DIMENSIONS[dimension][2]:
        return str(int(value))
    return repr(float(value))
