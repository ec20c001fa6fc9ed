"""Deterministic self-similar sequences with a prescribed inversion ratio.

A sequence of exact height ``h`` is assembled as ``s1 || invert(s2) || s1``
where ``s1`` has height ``a`` and ``s2`` has height ``c ~= alpha*h``, so every
scale carries an opposite-sign excursion of relative size ``alpha``.  The
deviation of the result grows like ``t**theta`` where ``theta`` solves

    2*((1+alpha)/2)**(1/theta) + alpha**(1/theta) = 1

which :func:`solve_theta` computes by bisection.  :func:`fractal_length`
evaluates the length recurrence without materializing anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, _instance, _integer, _real
from .sequences import MAX_TOTAL_LEN, BitSequence

__all__ = [
    "ALPHA_MAX",
    "BASE_HEIGHT",
    "FractalParams",
    "solve_theta",
    "theta_residual",
    "build_fractal",
    "fractal_length",
    "split_points",
    "measured_exponent",
]

ALPHA_MAX = 0.5
BASE_HEIGHT = 4
_THETA_TOL = 1e-10


def _exponent_equation(alpha: float, x: float) -> float:
    """Left side minus right side of the exponent equation in ``x = 1/theta``."""
    return 2.0 * ((1.0 + alpha) / 2.0) ** x + alpha**x - 1.0


def theta_residual(alpha: float, theta: float) -> float:
    """Value of ``2*((1+alpha)/2)**(1/theta) + alpha**(1/theta) - 1``."""
    return _exponent_equation(_real(alpha, "alpha", 0, ALPHA_MAX), 1.0 / _real(theta, "theta", 0, None, "(]"))


def solve_theta(alpha: float) -> float:
    """Deviation exponent for inversion ratio ``alpha``.

    The defining equation has a unique root because the left side is strictly
    decreasing in ``1/theta``; we bisect on ``x = 1/theta`` over [1, 64],
    which brackets the root for every ``alpha <= 1/2``.
    """
    alpha = _real(alpha, "alpha", 0, ALPHA_MAX)
    if alpha == 0.0:
        return 1.0
    lo, hi = 1.0, 64.0
    assert _exponent_equation(alpha, lo) >= 0.0 and _exponent_equation(alpha, hi) < 0.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _exponent_equation(alpha, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    theta = 1.0 / x
    assert abs(theta_residual(alpha, theta)) < _THETA_TOL
    return theta


@dataclass(frozen=True)
class FractalParams:
    """Inversion ratio and target height; ``theta``, the deviation exponent, is
    not an argument but always ``solve_theta(alpha)``."""

    alpha: float
    target_height: int
    theta: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", 0, ALPHA_MAX, "(]"))
        object.__setattr__(self, "target_height", _integer(self.target_height, "target_height"))
        object.__setattr__(self, "theta", solve_theta(self.alpha))


def _parts(height: int, alpha: float) -> tuple[int, int]:
    """Heights ``(a, c)`` of the outer copies and the inverted middle part.

    ``c`` is ``ceil(alpha*height)`` lifted to the parity of ``height`` so
    that the outer parts can be identical: the total is ``2a - c = height``
    exactly, with ``0 < c < a < height``.  Requires ``height > BASE_HEIGHT``
    and ``alpha`` in ``(0, ALPHA_MAX]``, which the callers have checked.
    """
    c = math.ceil(alpha * height)
    if (height + c) % 2:
        c += 1
    return (height + c) // 2, c


def _render(height: int, alpha: float, cache: dict[int, np.ndarray]) -> np.ndarray:
    got = cache.get(height)
    if got is not None:
        return got
    if height <= BASE_HEIGHT:
        arr = np.ones(height, dtype=np.int8)
    else:
        a, c = _parts(height, alpha)
        s1 = _render(a, alpha, cache)
        s2 = _render(c, alpha, cache)
        arr = np.concatenate([s1, -s2, s1])
    cache[height] = arr
    return arr


def build_fractal(params: FractalParams) -> BitSequence:
    """Materialize the fractal sequence of exact height ``params.target_height``.

    The length is checked against ``MAX_TOTAL_LEN`` before anything is rendered.
    """
    length = fractal_length(params)
    if length > MAX_TOTAL_LEN:
        raise ConfigurationError(
            f"fractal of height {params.target_height} has length {length}, above {MAX_TOTAL_LEN}"
        )
    seq = BitSequence(_render(params.target_height, params.alpha, {}))
    assert seq.height() == params.target_height
    return seq


def _length(height: int, alpha: float, memo: dict[int, int]) -> int:
    """Length of the height-``height`` fractal via the recurrence L(h) = 2L(a) + L(c)."""
    if height <= BASE_HEIGHT:
        return height
    got = memo.get(height)
    if got is None:
        a, c = _parts(height, alpha)
        got = memo[height] = 2 * _length(a, alpha, memo) + _length(c, alpha, memo)
    return got


def fractal_length(params: FractalParams) -> int:
    """Length of :func:`build_fractal` output, without materializing anything."""
    return _length(_instance(params, "params", (FractalParams,)).target_height, params.alpha, {})


def split_points(params: FractalParams) -> tuple[int, int] | None:
    """Top-level boundaries ``(i, j)``: ``seq[:i]`` and ``seq[j:]`` are the identical
    outer copies, ``seq[i:j]`` the inverted middle.  ``None`` below the base threshold."""
    h = _instance(params, "params", (FractalParams,)).target_height
    if h <= BASE_HEIGHT:
        return None
    a, c = _parts(h, params.alpha)
    memo: dict[int, int] = {}
    la = _length(a, params.alpha, memo)
    return la, la + _length(c, params.alpha, memo)


def measured_exponent(params: FractalParams) -> float:
    """``log L / log h`` for the built length; approaches ``1/theta`` for large heights."""
    _integer(params.target_height, "measured_exponent's target_height", 2)
    return math.log(fractal_length(params)) / math.log(params.target_height)
