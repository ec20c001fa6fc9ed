"""The exact laws the estimators are checked against.

Closed forms (:func:`afrw_moment_oracle`, :func:`upper_bound_rms`), the exact
law of a sampled height (:func:`exact_height_law`), and two exact enumerations
of the idealized recursion, with the moment and distance that compare them.

The oracles stay independent of the samplers they check: this module takes
nothing from :mod:`~fractalwalk.generators` but the spec types (``Family``,
``FlipMode``, ``GeneratorSpec``), and loads no estimator.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, _instance, _integer, _power_of_two, _real
from .generators import Family, FlipMode, GeneratorSpec
from .sequences import MAX_TOTAL_LEN

__all__ = [
    "afrw_moment_oracle",
    "exact_height_law",
    "upper_bound_rms",
    "ideal_height_distribution",
    "decomposition_height_distribution",
    "distribution_moment",
    "total_variation",
]


def afrw_moment_oracle(delta: float, l: int, depth_i: int) -> float:
    """Exact second moment ``(1 + (1+delta)^2)^i * l`` of the augmented walk's height."""
    delta = _real(delta, "delta", 0, 1, "[)")
    return (1.0 + (1.0 + delta) ** 2) ** _integer(depth_i, "depth_i", 0) * _integer(l, "l")


# Largest law exact_height_law convolves; a level costs the square of its size.
_LAW_MAX_SUPPORT = 1 << 15


def exact_height_law(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the height that :func:`~fractalwalk.generators.simulate_heights` samples.

    Returns ``(heights, probabilities)``, heights in steps of 2.  Covers
    ``uniform`` (a binomial law) and ``afrw``/``aofrw`` in ``exact_count``
    mode, whose merge changes the height by exactly twice its rounded budget
    ``b``: ``h1 + h2 + 2 sign(h1) (floor(b) + Bernoulli(b - floor(b)))``.
    Each level shifts the first half's law by that step, with ``b`` computed
    as the sampler computes it, and convolves the result with the law of the
    second half.  Probabilities are float64 and sum to 1 up to rounding.
    """
    fam = _instance(spec, "spec", (GeneratorSpec,)).family
    if not (fam is Family.UNIFORM or (fam in (Family.AFRW, Family.AOFRW)
                                      and spec.flip_mode is FlipMode.EXACT_COUNT)):
        raise ConfigurationError(
            f"exact_height_law covers uniform, and afrw/aofrw in exact_count mode; "
            f"got {fam.value} in {spec.flip_mode.value} mode"
        )
    T = spec.total_len
    l = T if fam is Family.UNIFORM else spec.base_len

    def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if max(a.size, b.size) > _LAW_MAX_SUPPORT:
            raise ConfigurationError(f"the height law outgrew {_LAW_MAX_SUPPORT} points; use a smaller T")
        return np.convolve(a, b)

    # A law is (lo, p): height lo + 2i has probability p[i].
    lo, p = -1, np.array([0.5, 0.5])
    n = 1
    while n < l:
        lo, p = 2 * lo, convolve(p, p)
        n *= 2
    while n < T:
        h = lo + 2 * np.arange(p.size)
        if fam is Family.AFRW:
            budget = np.abs(h, dtype=np.float64)
            budget *= spec.delta
            budget /= 2.0
        else:
            budget = np.where(h != 0, spec.delta * math.sqrt(n) / 2.0, 0.0)
        whole = np.floor(budget)
        frac = budget - whole
        stay = h + 2 * np.sign(h) * whole.astype(np.int64)
        move = stay + 2 * np.sign(h)
        first = min(stay.min(), move.min())
        shifted = np.bincount(
            np.concatenate([stay - first, move - first]) // 2,
            weights=np.concatenate([p * (1.0 - frac), p * frac]),
        )
        lo, p = first + lo, convolve(shifted, p)
        nz = np.flatnonzero(p)
        lo, p = lo + 2 * int(nz[0]), p[nz[0] : nz[-1] + 1]
        n *= 2
    return lo + 2 * np.arange(p.size), p


def upper_bound_rms(delta: float, T: int) -> float:
    """RMS ceiling ``sqrt(T) * (1 + delta/2 * log2 T)`` under *conditional* delta-unpredictability,
    ``|E[h(I) | history]| <= delta * sqrt(|I|)``: a linear program kept the optimum below it at
    T = 4 and 8.  The averaged reading's optimum exceeds it there (README, criterion 6)."""
    T = _power_of_two(T, "T", MAX_TOTAL_LEN)
    return math.sqrt(T) * (1.0 + 0.5 * _real(delta, "delta", 0) * math.log2(T))


# ---------------------------------------------------------------------------
# Exact enumeration of the idealized augmented recursion (base length 1)


def ideal_height_distribution(delta: Fraction | float, depth: int) -> dict[Fraction, Fraction]:
    """Exact law of the idealized recursion ``h' = (1+delta) h1 + h2`` after
    ``depth`` doublings from a single +-1 bit; rational arithmetic throughout.
    Capped at depth 5: a doubling pairs all values (7576 at depth 5 for delta 1/4)."""
    depth = _integer(depth, "depth", 0, 5)
    _real(delta, "delta", 0, 1, "[)")
    r = 1 + Fraction(delta)
    dist: dict[Fraction, Fraction] = {Fraction(1): Fraction(1, 2), Fraction(-1): Fraction(1, 2)}
    for _ in range(depth):
        new: dict[Fraction, Fraction] = {}
        for a, pa in dist.items():
            ra = r * a
            for b, pb in dist.items():
                key = ra + b
                new[key] = new.get(key, Fraction(0)) + pa * pb
        dist = new
    return dist


def decomposition_height_distribution(delta: Fraction | float, depth: int) -> dict[Fraction, Fraction]:
    """Same law via the closed-form expansion: block ``j`` of the ``2^depth``
    base bits enters with coefficient ``(1+delta)^(depth - popcount(j))``,
    enumerated over all sign assignments, of which depth 4 has 2^16."""
    depth = _integer(depth, "depth", 0, 4)
    _real(delta, "delta", 0, 1, "[)")
    r = 1 + Fraction(delta)
    n = 1 << depth
    scale = r.denominator**depth
    coeffs = np.array(
        [int(r**(depth - bin(j).count("1")) * scale) for j in range(n)], dtype=np.int64
    )
    assigns = np.arange(1 << n, dtype=np.int64)
    signs = (((assigns[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int64)
    heights = signs @ coeffs
    values, counts = np.unique(heights, return_counts=True)
    total = 1 << n
    return {Fraction(int(v), scale): Fraction(int(c), total) for v, c in zip(values, counts)}


def distribution_moment(dist: dict[Fraction, Fraction], order: int) -> Fraction:
    """Exact raw moment of a rational distribution."""
    order = _integer(order, "order", 0)
    return sum((v**order * p for v, p in dist.items()), start=Fraction(0))


def total_variation(d1: dict[Fraction, Fraction], d2: dict[Fraction, Fraction]) -> Fraction:
    """Exact total-variation distance between two rational distributions."""
    keys = set(_instance(d1, "d1", (Mapping,))) | set(_instance(d2, "d2", (Mapping,)))
    gap = sum((abs(d1.get(k, Fraction(0)) - d2.get(k, Fraction(0))) for k in keys), start=Fraction(0))
    return gap / 2
