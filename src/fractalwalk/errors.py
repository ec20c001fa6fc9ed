"""Exception types, and the one declaration of each argument rule that every public entry point checks through.

Each validator returns the value coerced to its type or raises :class:`ConfigurationError`; bools never
pass as numbers, nor NaN or an infinity as finite, and a ``None`` bound leaves that end open.
"""

from __future__ import annotations

import math
import numbers
import operator

__all__ = ["ConfigurationError", "IntervalError", "SequenceFormatError", "SamplingBudgetError"]


class ConfigurationError(ValueError):
    """A parameter object or CLI flag violates a documented invariant."""


class IntervalError(ConfigurationError, IndexError):
    """An interval does not fit its declared length or the sequence it is used on."""


class SequenceFormatError(ValueError):
    """A serialized sequence file is malformed or has the wrong magic/version."""


class SamplingBudgetError(RuntimeError):
    """Rejection sampling exhausted its trial budget before producing a sample."""


def _span(lo, hi, bounds: str) -> str:
    """``" in [lo, hi)"``, ``" >= lo"`` or ``" <= hi"``, each end closed or open as ``bounds`` says."""
    if lo is not None and hi is not None:
        return f" in {bounds[0]}{lo}, {hi}{bounds[1]}"
    if lo is not None:
        return f" >{'=' if bounds[0] == '[' else ''} {lo}"
    return "" if hi is None else f" <{'=' if bounds[1] == ']' else ''} {hi}"


def _integer(value, name: str, lo: int | None = 1, hi: int | None = None) -> int:
    """``value`` as an ``int`` in ``[lo, hi]``; Python and numpy integers pass."""
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or isinstance(value, bool) or (lo is not None and v < lo) or (hi is not None and v > hi):
        raise ConfigurationError(f"{name} must be an integer{_span(lo, hi, '[]')}, got {value!r}")
    return v


def _power_of_two(value, name: str, hi: int) -> int:
    """``value`` as an ``int`` power of two no larger than ``hi``."""
    v = _integer(value, name, 1, hi)
    if v & (v - 1):
        raise ConfigurationError(f"{name} must be a power of two up to {hi}, got {value!r}")
    return v


def _real(value, name: str, lo: float | None = None, hi: float | None = None, bounds: str = "[]") -> float:
    """``value`` as a finite ``float`` from ``lo`` to ``hi``, each end closed (``[``, ``]``)
    or open (``(``, ``)``) as ``bounds`` says; numpy's reals and fractions pass."""
    try:
        v = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int beyond float range
        v = math.inf
    below = lo is not None and (v < lo if bounds[0] == "[" else v <= lo)
    above = hi is not None and (v > hi if bounds[1] == "]" else v >= hi)
    if not math.isfinite(v) or below or above:
        span = _span(lo, hi, bounds)
        raise ConfigurationError(f"{name} must be finite{' and' + span if span else ''}, got {value!r}")
    return v


def _instance(value, name: str, types: tuple[type, ...]):
    """``value`` itself when it is an instance of one of ``types``."""
    if not isinstance(value, types):
        kinds = " or ".join(t.__name__ for t in types)
        raise ConfigurationError(f"{name} must be a {kinds}, got {type(value).__name__}")
    return value


def _enum(cls, value, name: str):
    """``cls(value)``: a member of the enum ``cls`` given as itself or as its value."""
    try:
        return cls(value)
    except ValueError:
        choices = ", ".join(str(m.value) for m in cls)
        raise ConfigurationError(f"{name} must be one of {choices}; got {value!r}") from None
