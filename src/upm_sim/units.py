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

_BYTE_SUFFIXES = {"kib": 1024, "mib": 1024**2, "gib": 1024**3, "b": 1}
_RATE_SUFFIXES = {"gbps": 1e9, "tbps": 1e12}
# Time suffixes normalised to the field's own unit.
_TIME_NS_SUFFIXES = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
_TIME_US_SUFFIXES = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


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
    finite or a suffix that does not fit the dimension.
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

    if dimension == BYTES:
        scale = _BYTE_SUFFIXES.get(suffix, None) if suffix else 1
        if scale is None:
            raise UnitError(f"suffix {suffix!r} not valid for a byte value")
        return int(round(value * scale))
    if dimension == RATE:
        scale = _RATE_SUFFIXES.get(suffix, None) if suffix else 1
        if scale is None:
            raise UnitError(f"suffix {suffix!r} not valid for a rate value")
        return value * scale
    if dimension == TIME_NS:
        scale = _TIME_NS_SUFFIXES.get(suffix, None) if suffix else 1
        if scale is None:
            raise UnitError(f"suffix {suffix!r} not valid for a latency value")
        return value * scale
    if dimension == TIME_US:
        scale = _TIME_US_SUFFIXES.get(suffix, None) if suffix else 1
        if scale is None:
            raise UnitError(f"suffix {suffix!r} not valid for a time value")
        return value * scale
    if dimension == COUNT:
        if suffix:
            raise UnitError(f"suffix {suffix!r} not valid for a count")
        if value != int(value):
            raise UnitError(f"count must be integral, got {text!r}")
        return int(value)
    if dimension == SCALAR:
        if suffix:
            raise UnitError(f"suffix {suffix!r} not valid for a scalar")
        return value
    raise UnitError(f"unknown dimension {dimension!r}")


def format_value(value, dimension: str) -> str:
    """Format a profile value for serialization. Inverse of parse_value."""
    if dimension == FLAG:
        return "1" if value else "0"
    if dimension in (BYTES, COUNT):
        return str(int(value))
    return repr(float(value))
