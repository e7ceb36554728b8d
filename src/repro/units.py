"""Time units and formatting helpers.

The canonical simulated-time unit throughout :mod:`repro` is the
**microsecond**, stored as a ``float``.  The paper reports collective
latencies in microseconds, daemon service times in milliseconds, and
co-scheduler periods in seconds; these helpers keep call sites legible
(``ms(10)`` instead of ``10_000.0``) and make unit mistakes greppable.
"""

from __future__ import annotations

__all__ = [
    "USEC",
    "MSEC",
    "SEC",
    "us",
    "ms",
    "s",
    "format_time",
]

#: One microsecond expressed in canonical units (identity).
USEC: float = 1.0
#: One millisecond expressed in canonical units.
MSEC: float = 1_000.0
#: One second expressed in canonical units.
SEC: float = 1_000_000.0


def us(value: float) -> float:
    """Return *value* microseconds in canonical units (identity, for symmetry)."""
    return float(value)


def ms(value: float) -> float:
    """Return *value* milliseconds in canonical units (microseconds)."""
    return float(value) * MSEC


def s(value: float) -> float:
    """Return *value* seconds in canonical units (microseconds)."""
    return float(value) * SEC


def format_time(value_us: float) -> str:
    """Render a canonical time compactly with an appropriate unit.

    >>> format_time(350.0)
    '350.0us'
    >>> format_time(2_240.0)
    '2.240ms'
    >>> format_time(5_000_000.0)
    '5.000s'
    """
    if value_us < 0:
        return "-" + format_time(-value_us)
    if value_us < MSEC:
        return f"{value_us:.1f}us"
    if value_us < SEC:
        return f"{value_us / MSEC:.3f}ms"
    return f"{value_us / SEC:.3f}s"
