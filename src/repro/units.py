"""Time-unit helpers and human-readable formatting.

The paper mixes units freely: platform MTBFs are quoted in years, downtimes
in hours, checkpoint costs in seconds, and error rates in 1/seconds.  All
library internals work in **seconds** (and 1/seconds for rates); this module
provides the conversion constants and a few formatting helpers used by the
experiment reports.
"""

from __future__ import annotations

import math

__all__ = [
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_YEAR",
    "minutes",
    "hours",
    "days",
    "years",
    "format_duration",
    "format_si",
]

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
#: Julian year (365.25 days), the convention used for "a one-century MTBF".
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY


def minutes(x: float) -> float:
    """Convert *x* minutes to seconds."""
    return x * SECONDS_PER_MINUTE


def hours(x: float) -> float:
    """Convert *x* hours to seconds."""
    return x * SECONDS_PER_HOUR


def days(x: float) -> float:
    """Convert *x* days to seconds."""
    return x * SECONDS_PER_DAY


def years(x: float) -> float:
    """Convert *x* Julian years to seconds."""
    return x * SECONDS_PER_YEAR


def format_duration(seconds: float) -> str:
    """Render a duration with the most natural unit.

    >>> format_duration(90)
    '90.0 s'
    >>> format_duration(7200)
    '2.00 h'
    """
    if not math.isfinite(seconds):
        return str(seconds)
    a = abs(seconds)
    if a < 1e-3:
        return f"{seconds * 1e6:.3g} us"
    if a < 1.0:
        return f"{seconds * 1e3:.3g} ms"
    if a < 600.0:
        return f"{seconds:.1f} s"
    if a < 2.0 * SECONDS_PER_HOUR:
        return f"{seconds / SECONDS_PER_MINUTE:.1f} min"
    if a < 2.0 * SECONDS_PER_DAY:
        return f"{seconds / SECONDS_PER_HOUR:.2f} h"
    if a < 2.0 * SECONDS_PER_YEAR:
        return f"{seconds / SECONDS_PER_DAY:.2f} d"
    return f"{seconds / SECONDS_PER_YEAR:.2f} y"


def format_si(value: float, digits: int = 3) -> str:
    """Format a number with an SI suffix (k, M, G, ...).

    Used by reports for large processor counts, e.g. ``1.2M`` processors.
    """
    if value == 0 or not math.isfinite(value):
        return f"{value:.{digits}g}"
    suffixes = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")]
    a = abs(value)
    for factor, suffix in suffixes:
        if a >= factor:
            return f"{value / factor:.{digits}g}{suffix}"
    return f"{value:.{digits}g}"
