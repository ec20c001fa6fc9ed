"""Estimators of sequence statistics, over sampled rows.

Covers four families of questions about a sequence distribution:

* how far it wanders (:func:`deviation_stats`),
* how predictable it is (:func:`estimate_delta`),
* how reliably climbs are punctuated by opposite-direction excursions
  (:func:`inversion_ratio`, :func:`alpha_q_estimate`,
  :func:`certify_inversion`),
* exact brute-force references used to pin the fast paths
  (:func:`inversion_ratio_naive_batch`).

The exact laws the estimators are checked against live in :mod:`~fractalwalk.laws`.

Estimators accept a :class:`~fractalwalk.generators.GeneratorSpec` plus trial
counts and derive their own generator from the spec seed and a label, so the
spec fixes every number reported from it and any of them can be replayed
exactly.  A trial count whose kept per-row values would pass the samplers'
entry cap is refused before anything is drawn.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _enum, _instance, _integer, _real
from .generators import (
    GeneratorSpec,
    _MERGE_FAMILIES,
    _check_entries,
    _check_heights,
    _map_batches,
    _map_streams,
    iter_generate_batches,  # callers still import it from here
    simulate_heights,
)
from .laws import afrw_moment_oracle  # perfbench reads it from here
from .predictors import _bettor_limits, _bettor_stages, _sign_bets
from .seeding import derive_rng
from .sequences import DEFAULT_MIN_LEN, BitSequence, IntSequence, Interval, _row_blocks, _sum_dtype

__all__ = [
    "DeviationRow",
    "DeviationReport",
    "deviation_stats",
    "MomentChecks",
    "height_moment_checks",
    "InversionReport",
    "inversion_ratio",
    "inversion_ratio_naive_batch",
    "alpha_q_estimate",
    "EstimationMode",
    "UnpredictabilityRow",
    "UnpredictabilityReport",
    "estimate_delta",
    "CertificationReport",
    "certify_inversion",
]

EXHAUSTIVE_SCAN_LIMIT = 1 << 14

# Bootstrap resamples behind estimate_delta's interval, the size of alpha_q_estimate's first
# pass, and the fewest trials deviation_stats (stable quantiles) and the two estimators take.
_BOOTSTRAP = 200
_FIRST_PASS_TRIALS = 1000
_MIN_DEVIATION_TRIALS = 100
_MIN_ESTIMATOR_TRIALS = 1000


# ---------------------------------------------------------------------------
# Deviation statistics


@dataclass(frozen=True)
class DeviationRow:
    total_len: int
    mean_dev: float
    median_dev: float
    rms_dev: float
    trials: int


@dataclass(frozen=True)
class DeviationReport:
    spec: GeneratorSpec
    rows: tuple[DeviationRow, ...]
    fitted_exponent: float | None
    exponent_stderr: float | None


def deviation_stats(
    spec: GeneratorSpec,
    T_list: list[int],
    trials: int,
) -> DeviationReport:
    """Monte Carlo mean/median/RMS of |height| per length, with a power-law fit.

    The exponent is the least-squares slope of ``log(median_dev)`` against
    ``log(T)``.  Lengths get independent derived seeds, so extending
    ``T_list`` never perturbs other rows, and they run concurrently on the
    cores (:func:`~fractalwalk.generators._map_streams`) with the same report.
    Every length is checked before any is drawn.
    """
    spec = _instance(spec, "spec", (GeneratorSpec,))
    trials = _integer(trials, "trials", _MIN_DEVIATION_TRIALS)
    if not T_list:
        raise ConfigurationError("T_list must not be empty")
    if len(set(T_list)) != len(T_list):
        raise ConfigurationError(f"T_list must not repeat a length, got {T_list}")
    cells = [spec.with_total_len(T) for T in T_list]
    for cell in cells:
        _check_heights(cell, trials)

    def row(cell: GeneratorSpec) -> DeviationRow:
        rng = derive_rng(spec.seed, "deviation", cell.total_len)
        dev = np.abs(simulate_heights(cell, trials, rng)).astype(np.float64)
        mean = float(dev.mean())
        rms = float(np.sqrt(np.mean(dev**2)))
        assert mean <= rms * (1.0 + 1e-12)
        return DeviationRow(cell.total_len, mean, float(np.median(dev)), rms, trials)

    rows = _map_streams(row, cells, lambda cell: cell.total_len)
    exponent = stderr = None
    if len(rows) >= 2:
        exponent, stderr = _ols(
            np.log([r.total_len for r in rows]), np.log([max(r.median_dev, 1e-12) for r in rows])
        )
    return DeviationReport(spec, tuple(rows), exponent, stderr)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ``y`` on ``x`` and the slope's standard error.

    The ``x`` values must be distinct.  The order of operations is part of
    the contract: population covariances from ``np.cov``, the correlation
    clamped to [-1, 1] before it enters the standard error, and a standard
    error of 0 for two points.  Reordering them moves fitted exponents in the
    last bits, which changes the bytes of ``stats`` outputs.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    if len(x) == 2:
        return float(slope), 0.0
    if ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return float(slope), float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)))


# ---------------------------------------------------------------------------
# Moment inequality checks


@dataclass(frozen=True)
class MomentChecks:
    mean_abs: float
    second: float
    fourth: float
    cauchy_schwarz_floor: float  # (E h^2)^2 / (E h^4)^(3/4), never above E|h|
    fourth_moment_ratio: float  # E h^4 / (E h^2)^2
    anti_concentration: float  # P(|h| >= 0.25 E|h|)

    @property
    def cauchy_schwarz_ok(self) -> bool:
        return self.mean_abs >= self.cauchy_schwarz_floor * (1.0 - 1e-9)


def height_moment_checks(heights: np.ndarray) -> MomentChecks:
    """Sample-moment diagnostics; the Cauchy-Schwarz floor holds for *any*
    empirical distribution, so a violation means an arithmetic bug, not noise."""
    _integer(np.size(heights), "number of heights")
    a = np.abs(heights).astype(np.float64)
    mean_abs = float(a.mean())
    m2 = float(np.mean(a**2))
    m4 = float(np.mean(a**4))
    floor = m2**2 / m4**0.75 if m4 > 0 else 0.0
    ratio = m4 / m2**2 if m2 > 0 else float("nan")
    anti = float(np.mean(a >= 0.25 * mean_abs)) if mean_abs > 0 else 1.0
    return MomentChecks(mean_abs, m2, m4, floor, ratio, anti)


# ---------------------------------------------------------------------------
# Inversion ratio


@dataclass(frozen=True)
class InversionReport:
    min_len: int
    dyadic_only: bool
    n_intervals: int
    overall_ratio: float
    x_interval: Interval | None = None
    y_interval: Interval | None = None
    x_height: int = 0
    y_height: int = 0

    def __post_init__(self) -> None:
        assert self.overall_ratio >= 0.0
        if self.overall_ratio > 0.0 and self.y_interval is not None:
            assert self.x_height * self.y_height < 0


def _segment_extremes(pref2d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (height, max subinterval height, min subinterval height) from
    rows of prefix sums ``P[0..x]``; clamped so "no such subinterval" reads 0."""
    mins = np.minimum.accumulate(pref2d[:, :-1], axis=1)
    maxs = np.maximum.accumulate(pref2d[:, :-1], axis=1)
    best_pos = np.max(pref2d[:, 1:] - mins, axis=1)
    best_neg = np.min(pref2d[:, 1:] - maxs, axis=1)
    h = pref2d[:, -1] - pref2d[:, 0]
    return h, np.maximum(best_pos, 0), np.minimum(best_neg, 0)


# Below this many rows a vector step per column costs more in call overhead
# than it saves.  Timing both paths on the same windows, the column sweep
# overtook one prefix pass per row block between 128 and 192 rows for x = 256
# and 1024, and between 256 and 384 rows for x = 4096 to 65536 (int8 and
# int64 rows); from 384 rows on it was faster at every width measured.
_SWEEP_MIN_ROWS = 384


def _opposite_falls(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``window``: its height ``h`` and the size of its largest
    subinterval of sign opposite to ``h``, 0 where there is none or ``h == 0``.

    Each row is multiplied by ``sign(h)``, so the opposite excursion is always
    the largest drop below a running maximum of the prefix sums (Bentley
    1984).  From ``_SWEEP_MIN_ROWS`` rows on, a column sweep takes one vector
    step per column over all rows, carrying each row's drop ``d = max(d - v,
    0)``; columns are copied out in transposed tiles of
    :func:`~fractalwalk.sequences._row_blocks` columns, so memory is one tile
    plus a few vectors.  Fewer rows take one prefix pass per row block.
    Values are kept in ``_sum_dtype(window, 2x)`` for rows of length ``x``,
    wide enough for any difference of two prefix sums.
    """
    n, x = window.shape
    dtype = _sum_dtype(window, 2 * x)
    h = window.sum(axis=1, dtype=dtype)
    sign = np.sign(h)[:, None]
    if n < _SWEEP_MIN_ROWS:
        fall = np.empty(n, dtype=dtype)
        for rows in _row_blocks(n, x):
            pref = np.cumsum(np.multiply(window[rows], sign[rows], dtype=dtype), axis=1)
            top = np.maximum(np.maximum.accumulate(pref, axis=1), 0)  # 0: the empty prefix
            fall[rows] = (top - pref).max(axis=1)
        return h, fall
    d, fall, zero = np.zeros((3, n), dtype=dtype)
    for cols in _row_blocks(x, n):
        tile = np.multiply(window[:, cols], sign, dtype=dtype).T.copy()  # contiguous columns
        for v in tile:
            np.subtract(d, v, out=d)
            np.maximum(d, zero, out=d)
            np.maximum(fall, d, out=fall)
    return h, fall


def _recover_witness(prefix: np.ndarray, lo: int, hi: int, want_positive: bool) -> tuple[int, int, int]:
    """Endpoints and height of the extreme subinterval of the requested sign in [lo, hi)."""
    # A fall of ``prefix`` is a rise of ``-prefix``; first-index ties match either way.
    seg = prefix[lo : hi + 1] if want_positive else -prefix[lo : hi + 1]
    j = int(np.argmax(seg[1:] - np.minimum.accumulate(seg[:-1])))
    u = lo + int(np.argmin(seg[: j + 1]))
    v = lo + j + 1
    return u, v, int(prefix[v] - prefix[u])


def _scalar_witness(points: list[int], lo: int, hi: int, want_positive: bool) -> tuple[int, int, int]:
    """:func:`_recover_witness` walked over ``points``, the prefix as Python
    ints: the first end of the extreme subinterval, then its first start."""
    sign = 1 if want_positive else -1
    gain, low, at, u, v = -math.inf, sign * points[lo], lo, lo, lo
    for end in range(lo + 1, hi + 1):
        p = sign * points[end]
        if p - low > gain:
            gain, u, v = p - low, at, end
        if p < low:
            low, at = p, end
    return u, v, points[v] - points[u]


def _live_pair_count(prefix: np.ndarray, min_len: int) -> int:
    """Number of intervals with ``hi - lo >= min_len`` and ``P[hi] != P[lo]``.

    All such pairs, less those with equal prefix values, which one stable sort
    counts: after it, ``(value rank, position)`` keys are sorted, and each entry
    has as many equal partners ``min_len`` or more positions back as there are
    keys of its group at or below its own key minus ``min_len``.
    """
    n = prefix.shape[0] - min_len
    order = np.argsort(prefix, kind="stable")
    vals = prefix[order]
    rank = np.zeros(order.shape[0], dtype=np.int64)
    np.cumsum(vals[1:] != vals[:-1], out=rank[1:])
    key = rank * prefix.shape[0] + order
    first = np.searchsorted(key, rank * prefix.shape[0])
    back = np.searchsorted(key, key - min_len, side="right")
    return n * (n + 1) // 2 - int(np.maximum(back - first, 0).sum())


# Up to _ONE_PASS_ENTRIES entries in its (points, starts, 2) block, the
# exhaustive scan covers every length in one pass, and no sweep step runs.
# Both paths were timed on the same sequences, alternating in one process.
# On random +-1 rows the sweep, which prunes most starts, caught up between
# 15k and 18k entries at min_len 1 and 4; at min_len 8 and 16 the one pass
# won up to 20k entries, and on sorted rows, where nothing is pruned, at
# every size.  Past about 22k entries its cost per entry nearly doubled
# (T = 108, min_len <= 8: 0.46-0.53 ms, against 0.21-0.32 ms swept).
# Longer sequences are swept one point per step from each start's first point
# (the timings above are against a sweep with a heavier start, not re-run).  The
# sweep checks pruning every _PRUNE_EVERY steps, a fraction of a step's cost.
_ONE_PASS_ENTRIES = 20 << 10
_PRUNE_EVERY = 8

# A scan of at most _SCALAR_STEPS steps, start lo walking the points P[lo+1 ..
# T], runs in Python (_scalar_scan) and never reaches numpy: on rows this
# short numpy's fixed cost per call, not the summary, is the scan's cost.
# Whole inversion_ratio calls were timed in both regimes, alternating in one
# process on random and sorted +-1 rows at min_len 1 and 8.  The walk won up
# to 225 steps (T = 22 at min_len 8: 33 against 38 us), broke even near 250
# to 270, and lost from 300 on (T = 24 at min_len 1: 50-58 against 44-49 us).
# Criterion 12's rows (T = 12, min_len 8) take 50 steps: about 12 us, from 32.
_SCALAR_STEPS = 200


def _scalar_steps(T: int, min_len: int) -> int:
    """The steps of :func:`_scalar_scan` over ``T`` entries."""
    n = T - min_len + 1
    return n * T - n * (n - 1) // 2


def _scalar_scan(points: list[int], min_len: int) -> tuple[float, tuple[int, int] | None, int]:
    """:func:`_exhaustive_scan`'s result, walked start by start over
    ``points``, the prefix as Python ints.

    Each start carries the same summary as the numpy paths: the running
    minimum and maximum of ``P`` and the largest rise and drop.  A flat
    interval is skipped, and only a strictly smaller ratio replaces the best,
    so the first minimiser in ``(lo, hi)`` order is kept.  Python divides two
    ints in one correctly rounded step, which is numpy's float64 quotient
    whenever both lie below 2**53 in magnitude.  The switch admits at most
    ``_SCALAR_STEPS`` entries (at ``min_len == T``), each below 2**39
    (``sequences._MAX_ENTRY``), so every prefix sum stays below 2**47.
    """
    T = len(points) - 1
    best, best_x, live = math.inf, None, 0
    for lo in range(T - min_len + 1):
        base = low = top = points[lo]
        rise = drop = 0
        for hi in range(lo + 1, T + 1):
            p = points[hi]
            if p < low:
                low = p
            elif p - low > rise:
                rise = p - low
            if p > top:
                top = p
            elif top - p > drop:
                drop = top - p
            if hi - lo < min_len:
                continue
            h = p - base
            if h > 0:
                r = drop / h
            elif h < 0:
                r = rise / -h
            else:
                continue
            live += 1
            if r < best:
                best, best_x = r, (lo, hi)
    return best, best_x, live


def _exhaustive_scan(prefix: np.ndarray, min_len: int) -> tuple[float, tuple[int, int] | None, int]:
    """Smallest ratio over the intervals of length ``>= min_len`` that have a
    nonzero height, its first minimiser ``(lo, hi)``, and the number of such
    intervals; with none, ``(inf, None, 0)``.

    Each start carries the max-subarray summary of its points ``P[lo ..
    lo+k-1]``: the minimum of ``P`` and of ``-P``, and the largest rise and
    drop (Bentley 1984), so one more point updates it in O(1).  The ratio is
    ``opp / |h|`` in float64, and ``h == 0`` yields ``nan`` or ``inf``, which
    ``fmin`` never keeps below a live ratio.

    It runs the second and third of three regimes.  Rows of at most
    ``_SCALAR_STEPS`` (200) scan steps, T <= 20 at ``min_len`` 8, never reach
    it: :func:`inversion_ratio` walks them in :func:`_scalar_scan`, which
    returns the same result.

    A block of at most ``_ONE_PASS_ENTRIES`` (20k) entries, T <= 104 at
    ``min_len`` 8, is summarised at every length at once, from sliding
    windows over ``P``: ``fmin`` reduces each start's ratios over increasing
    lengths, as the sweep does, and the first minimiser and the live count
    come from the same block.

    Longer sequences are swept over the length ``k`` for all starts at once,
    one point per step, each start's summary beginning at its own first point;
    ``best[lo]`` is the smallest ratio of start ``lo`` so far.  Every
    few steps a start is dropped once ``min(rise, drop) / hmax`` exceeds the
    best ratio so far, ``hmax`` being the largest ``|P[hi] - P[lo]|`` still
    ahead of it: no longer interval of that start can then reach that ratio,
    because rounding is monotone.  So a dropped start's entry may lie above
    its own minimum, but an entry equal to the overall minimum is exact, and
    the first such entry is the first minimising start.  Starts are swept as
    dense slices until pruning has removed at least half of them, and as a
    compacted index set after that.  The live count comes from
    :func:`_live_pair_count`.
    """
    T = prefix.shape[0] - 1
    # Columns P and -P, padded with P[T]: a compacted start may step past T,
    # and a repeated last point changes neither its summary nor its ratio.
    q = np.empty((2 * T + 1, 2), dtype=np.int64)
    q[: T + 1, 0] = prefix
    q[T + 1 :, 0] = prefix[-1]
    np.negative(q[:, 0], out=q[:, 1])
    n = T - min_len + 1
    if 2 * (T + 1) * n <= _ONE_PASS_ENTRIES:
        # Every start's points at every length k = 0..T; past T they repeat P[T].
        win = np.ndarray((T + 1, n, 2), q.dtype, q, strides=(q.strides[0], *q.strides))
        gain = np.maximum.accumulate(win - np.minimum.accumulate(win, axis=0), axis=0)[min_len:]
        base_hi = win[0] - win[min_len:]
        # Start lo's last lo lengths run past T, each at height P[lo] - P[T].
        live = int(np.count_nonzero(base_hi[:, :, 0]) - (prefix[:n] != prefix[T]).nonzero()[0].sum())
        if not live:
            return math.inf, None, 0
        with np.errstate(divide="ignore", invalid="ignore"):
            r = gain / base_hi
        ratios = np.maximum(r[:, :, 0], r[:, :, 1])
        best = np.fmin.reduce(ratios, axis=0, initial=math.inf)
        lo = int(np.argmin(best))
        k = min_len + int(np.argmax(ratios[:, lo] == best[lo]))
        return float(best[lo]), (lo, lo + k), live
    live = _live_pair_count(prefix, min_len)
    if not live:
        return math.inf, None, 0
    ahead = np.maximum.accumulate(q[::-1], axis=0)[::-1]  # suffix max of P and -P
    low = q[: T + 1].copy()  # min of P and of -P over each start's points
    gain = np.zeros_like(low)  # largest rise and largest drop among them
    best = np.full(T - min_len + 1, math.inf)
    starts = None  # the compacted active starts; None while the sweep is dense
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, T + 1):
            if starts is None:
                n = T - k + 1
                hi, base, lw, gn, bst = q[k : k + n], q[:n], low[:n], gain[:n], best[:n]
            else:
                hi = q[starts + k]
            np.maximum(gn, hi - lw, out=gn)
            np.minimum(lw, hi, out=lw)
            if k < min_len:
                continue
            # (rise / -h, drop / h): the one that is not negative is opp / |h|.
            r = gn / (base - hi)
            np.fmin(bst, np.maximum(r[:, 0], r[:, 1]), out=bst)
            if (k - min_len + 1) % _PRUNE_EVERY:
                continue
            gbest = min(best.min(), bst.min())
            hmax = (ahead[k + 1 : k + 1 + n] if starts is None else ahead[starts + k + 1]) - base
            keep = ~(np.minimum(gn[:, 0], gn[:, 1]) / np.maximum(hmax[:, 0], hmax[:, 1]) > gbest)
            if starts is None:
                if 2 * np.count_nonzero(keep) > n:
                    continue
                starts = np.flatnonzero(keep)
                base, lw, gn, bst = q[starts], lw[starts], gn[starts], best[starts]
            else:
                keep &= starts + k < T
                best[starts] = bst
                starts, base, lw, gn, bst = starts[keep], base[keep], lw[keep], gn[keep], bst[keep]
            if not starts.size:
                break
        if starts is not None:
            best[starts] = bst
        lo = int(np.argmin(best))
        # The first length that attains it: the start's ratio at every length,
        # with the same arithmetic.
        seg = q[lo : T + 1]
        r = np.maximum.accumulate(seg - np.minimum.accumulate(seg, axis=0), axis=0) / (seg[0] - seg)
        k = min_len + int(np.argmax(np.maximum(r[min_len:, 0], r[min_len:, 1]) == best[lo]))
    return float(best[lo]), (lo, lo + k), live


def _dyadic_scan(prefix: np.ndarray, min_len: int) -> tuple[float, tuple[int, int] | None, int]:
    """Best ratio, its first aligned interval and the live count over aligned
    intervals of length ``>= min_len``.

    Each block carries its height, the minimum of ``P`` and of ``-P`` over its
    points, and its largest rise and drop.  The smallest blocks get theirs in
    one pass, and each level above merges pairs in O(1) per block, so the
    whole scan is O(T).
    """
    size = 1
    while size < min_len:
        size <<= 1
    best_ratio, best_x, scanned = math.inf, None, 0
    T = prefix.shape[0] - 1
    if size > T:
        return best_ratio, best_x, scanned
    pts = np.lib.stride_tricks.sliding_window_view(prefix, size + 1)[: T // size * size : size]
    h, rise, neg = _segment_extremes(pts)
    gain = np.column_stack([rise, -neg])
    low = np.column_stack([pts.min(axis=1), -pts.max(axis=1)])
    while h.shape[0]:
        live = h != 0
        scanned += int(np.count_nonzero(live))
        if live.any():
            opp = np.where(h > 0, gain[:, 1], gain[:, 0]).astype(np.float64)
            ratios = np.where(live, opp / np.abs(np.where(live, h, 1)), math.inf)
            i = int(np.argmin(ratios))
            if ratios[i] < best_ratio:
                best_ratio, best_x = float(ratios[i]), (i * size, (i + 1) * size)
        a, b = slice(0, h.shape[0] - 1, 2), slice(1, h.shape[0], 2)
        # A's points precede B's, so the cross rise is max B - min A, the cross drop max A - min B.
        gain = np.maximum(np.maximum(gain[a], gain[b]), -(low[b, ::-1] + low[a]))
        low = np.minimum(low[a], low[b])
        h = h[a] + h[b]
        size <<= 1
    return best_ratio, best_x, scanned


def inversion_ratio(
    seq: BitSequence | IntSequence, min_len: int = DEFAULT_MIN_LEN, dyadic_only: bool = False
) -> InversionReport:
    """Worst-case opposite-excursion ratio over interval choices.

    For every interval X with ``|X| >= min_len`` and nonzero height, the best
    opposite-sign subinterval height is divided by ``|h(X)|``; the report
    carries the minimum and its witness pair, the first minimiser in
    ``(lo, hi)`` order.  Exhaustive mode scans all O(T^2) intervals (length
    capped at 2^14) in one of three regimes, each with the same report: up to
    ``_SCALAR_STEPS`` (200) steps, T <= 20 at ``min_len`` 8, a Python walk
    over the prefix (:func:`_scalar_scan`); up to ``_ONE_PASS_ENTRIES`` (20k)
    block entries, T <= 104, one numpy pass over every length; above that, a
    pruned sweep over lengths (both :func:`_exhaustive_scan`).
    ``dyadic_only`` restricts X to aligned intervals, which scales to the
    fractal builder's output sizes.
    """
    prefix = _instance(seq, "seq", (BitSequence, IntSequence)).prefix
    min_len = _integer(min_len, "min_len")
    T = prefix.shape[0] - 1
    if T < min_len:
        raise ConfigurationError(f"sequence of length {T} has no interval of length {min_len}")
    if not dyadic_only and T > EXHAUSTIVE_SCAN_LIMIT:
        raise ConfigurationError(
            f"length {T} exceeds the exhaustive-scan cap {EXHAUSTIVE_SCAN_LIMIT}; use dyadic_only"
        )

    if dyadic_only:
        points, scan, witness = prefix, _dyadic_scan, _recover_witness
    elif _scalar_steps(T, min_len) <= _SCALAR_STEPS:
        points, scan, witness = prefix.tolist(), _scalar_scan, _scalar_witness
    else:
        points, scan, witness = prefix, _exhaustive_scan, _recover_witness
    best_ratio, best_x, scanned = scan(points, min_len)

    if best_x is None:
        return InversionReport(min_len, dyadic_only, scanned, 0.0)
    lo, hi = best_x
    hx = int(points[hi] - points[lo])
    if best_ratio == 0.0:  # no opposite-sign subinterval, so no witness
        return InversionReport(min_len, dyadic_only, scanned, 0.0, Interval(lo, hi, T), None, hx)
    # A positive ratio has an opposite-sign subinterval, and the witness is its largest.
    u, v, hy = witness(points, lo, hi, want_positive=hx < 0)
    return InversionReport(min_len, dyadic_only, scanned, best_ratio, Interval(lo, hi, T), Interval(u, v, T), hx, hy)


def inversion_ratio_naive_batch(values: np.ndarray, min_len: int) -> np.ndarray:
    """Quadruple-loop reference ratios, vectorized only across sequences.

    Deliberately O(T^4) per sequence; exists to pin :func:`inversion_ratio`.
    """
    min_len = _integer(min_len, "min_len")
    B, T = values.shape
    prefix = np.zeros((B, T + 1), dtype=np.int64)
    np.cumsum(values, axis=1, dtype=np.int64, out=prefix[:, 1:])
    best = np.full(B, np.inf)
    for lo in range(0, T - min_len + 1):
        for hi in range(lo + min_len, T + 1):
            h = prefix[:, hi] - prefix[:, lo]
            best_pos = np.zeros(B, dtype=np.int64)
            best_neg = np.zeros(B, dtype=np.int64)
            for u in range(lo, hi):
                for v in range(u + 1, hi + 1):
                    sub = prefix[:, v] - prefix[:, u]
                    np.maximum(best_pos, sub, out=best_pos)
                    np.minimum(best_neg, sub, out=best_neg)
            live = h != 0
            opp = np.where(h > 0, -best_neg, best_pos).astype(np.float64)
            ratios = np.where(live, opp / np.abs(np.where(live, h, 1)), np.inf)
            np.minimum(best, ratios, out=best)
    return np.where(np.isfinite(best), best, 0.0)


def inversion_ratio_dp_batch(values: np.ndarray, min_len: int) -> np.ndarray:
    """Interval-DP reference ratios, equal to :func:`inversion_ratio_naive_batch`.

    The best rise on ``[lo, hi]`` is the largest of the best rises on
    ``[lo+1, hi]`` and ``[lo, hi-1]`` and of ``P[hi] - P[lo]``, and the best
    drop likewise, so one pass over interval lengths, vectorized across
    sequences and starts, fills all O(T^2) intervals.  It shares no code with
    the scan it checks.
    """
    B, T = values.shape
    prefix = np.zeros((B, T + 1), dtype=np.int64)
    np.cumsum(values, axis=1, dtype=np.int64, out=prefix[:, 1:])
    rise = np.zeros((B, T + 1), dtype=np.int64)  # length-0 intervals [lo, lo]
    drop = np.zeros((B, T + 1), dtype=np.int64)
    best = np.full(B, np.inf)
    for length in range(1, T + 1):
        h = prefix[:, length:] - prefix[:, :-length]
        rise = np.maximum(np.maximum(rise[:, 1:], rise[:, :-1]), h)
        drop = np.minimum(np.minimum(drop[:, 1:], drop[:, :-1]), h)
        if length < min_len:
            continue
        live = h != 0
        opp = np.where(h > 0, -drop, rise).astype(np.float64)
        ratios = np.where(live, opp / np.abs(np.where(live, h, 1)), np.inf)
        np.minimum(best, ratios.min(axis=1), out=best)
    return np.where(np.isfinite(best), best, 0.0)


# ---------------------------------------------------------------------------
# (alpha, q)-inversion estimation


def alpha_q_estimate(
    spec: GeneratorSpec,
    interval: Interval,
    alpha: float,
    trials: int,
) -> float:
    """Probability that a window carries an opposite-sign excursion of relative
    size ``alpha`` against its typical deviation.

    A first, independent pass estimates the window's median deviation Delta;
    the second pass reports the fraction of fresh samples whose window holds a
    subinterval of sign opposite to ``h(X)`` with ``|h(Y)| >= alpha * Delta``.
    Windows with zero height count as failures.  The second pass scans each
    chunk's windows by a column sweep (:func:`_opposite_falls`; a chunk of
    fewer than ``_SWEEP_MIN_ROWS`` rows takes prefix passes per row block), in
    memory of O(rows + one tile) rather than a prefix matrix of the window.
    """
    trials = _check_entries(_integer(trials, "trials", _MIN_ESTIMATOR_TRIALS), 1)
    alpha = _real(alpha, "alpha", 0)
    spec, interval = _instance(spec, "spec", (GeneratorSpec,)), _instance(interval, "interval", (Interval,))
    if interval.total_len != spec.total_len:
        raise ConfigurationError("interval ambient length must match spec.total_len")
    rng = derive_rng(spec.seed, "alpha_q", interval.lo, interval.hi)
    lo, hi = interval.lo, interval.hi
    x = len(interval)

    def window_heights(chunk: np.ndarray) -> tuple[np.ndarray]:
        return (np.abs(chunk[:, lo:hi].sum(axis=1, dtype=_sum_dtype(chunk, x))),)

    (first,) = _map_batches(spec, _FIRST_PASS_TRIALS, rng, window_heights)
    delta_median = float(np.median(first))
    floor = spec.delta * math.sqrt(x)
    if delta_median < floor:
        raise ConfigurationError(
            f"threshold not met: median deviation {delta_median} of the window is below "
            f"the floor {floor}; the inversion scale is not resolvable here"
        )

    threshold = alpha * delta_median

    def window_hits(chunk: np.ndarray) -> tuple[np.ndarray]:
        h, fall = _opposite_falls(chunk[:, lo:hi])
        return ((h != 0) & (fall >= threshold),)

    (hits,) = _map_batches(spec, trials, rng, window_hits)
    return int(np.count_nonzero(hits)) / trials


# ---------------------------------------------------------------------------
# Unpredictability estimation


class EstimationMode(str, enum.Enum):
    STRICT = "strict"
    WEAK_AVERAGED = "weak_averaged"


@dataclass(frozen=True)
class UnpredictabilityRow:
    window: int
    interval_lo: int
    interval_len: int
    mean_payoff: float
    normalized_payoff: float
    trials: int


@dataclass(frozen=True)
class UnpredictabilityReport:
    spec: GeneratorSpec
    mode: EstimationMode
    rows: tuple[UnpredictabilityRow, ...]
    delta_hat: float
    ci_low: float
    ci_high: float
    trials: int
    caveat: str = (
        "delta_hat maximizes over a finite sign-of-prefix family and therefore "
        "lower-bounds the true unpredictability constant"
    )


def _prefix_at(mat: np.ndarray, cols: list[int]) -> np.ndarray:
    """Each row's int64 prefix sum at the sorted, distinct columns ``cols``, built
    as running int64 sums of the slices between them, each slice summed in
    :func:`~fractalwalk.sequences._sum_dtype`."""
    out = np.empty((mat.shape[0], len(cols)), dtype=np.int64)
    prev, acc = 0, np.zeros(mat.shape[0], dtype=np.int64)
    for i, c in enumerate(cols):
        acc += mat[:, prev:c].sum(axis=1, dtype=_sum_dtype(mat, c - prev))
        out[:, i] = acc
        prev = c
    return out


def _dyadic_range(lo: int, hi: int) -> list[int]:
    out = []
    v = 1
    while v < lo:
        v <<= 1
    while v <= hi:
        out.append(v)
        v <<= 1
    return out


def _strict_prefix_lengths(spec: GeneratorSpec, min_x: int) -> list[int]:
    """Planted prefix lengths for strict mode: dyadic, covering whole base blocks."""
    start = max(spec.base_len, min_x) if spec.family in _MERGE_FAMILIES else min_x
    return _dyadic_range(start, spec.total_len // 2)


def estimate_delta(
    spec: GeneratorSpec,
    mode: EstimationMode | str,
    trials: int,
) -> UnpredictabilityReport:
    """Estimate the unpredictability constant with the sign-of-prefix family.

    Strict mode forces an all-+1 history of each feasible dyadic length
    (assembled directly, which is the conditional law given that worst-case
    history) and measures the mean payoff of betting +1 on each following
    aligned dyadic interval.  Weak mode averages the sign-of-prefix bet over
    naturally generated histories with the interval pinned at the sequence
    end.  Either way ``delta_hat`` is the largest interval-normalized mean
    payoff over the family, with a bootstrap interval for the winning cell.

    A spec with no cell raises ``ConfigurationError`` before any draw.  In strict
    mode that is a merge-family spec with ``base_len > T/2`` (frw and afrw at
    their default base length up to T = 2048); it is never measured weakly instead.
    """
    mode = _enum(EstimationMode, mode, "mode")
    trials = _integer(trials, "trials", _MIN_ESTIMATOR_TRIALS)
    T = _instance(spec, "spec", (GeneratorSpec,)).total_len
    rng = derive_rng(spec.seed, "estimate_delta", mode.value)

    # (window, interval lo, interval len) cells grouped by planted prefix.  A cell
    # bets the sign of its window's height; strict windows are all +1.
    if mode is EstimationMode.STRICT:
        groups = [(p, [(p, p, x) for x in _dyadic_range(DEFAULT_MIN_LEN, p)])
                  for p in _strict_prefix_lengths(spec, DEFAULT_MIN_LEN)]
    else:
        wins = _dyadic_range(1, T // 2)
        xs = _dyadic_range(DEFAULT_MIN_LEN, T // 2)
        groups = [(0, [(w, T - x, x) for x in xs for w in wins])]
    if not any(group for _, group in groups):
        raise ConfigurationError(f"no cell to estimate in {mode.value} mode at T={T}, base_len={spec.base_len}: a "
                                 f"cell needs a dyadic interval of {DEFAULT_MIN_LEN} to T/2 entries, and in strict "
                                 f"mode a dyadic prefix of whole base blocks up to T/2 before it")
    _check_entries(trials, sum(len(group) for _, group in groups))

    cells, payoffs = [], []
    for planted, group in groups:
        cols = sorted({c for w, p, x in group for c in (p - w, p, p + x)})
        at = {c: i for i, c in enumerate(cols)}
        (P,) = _map_batches(spec, trials, rng, lambda part: (_prefix_at(part, cols),), planted)
        cells += group
        payoffs += [_sign_bets(P[:, at[p]] - P[:, at[p - w]], P[:, at[p + x]] - P[:, at[p]])
                    for w, p, x in group]

    means = [float(pay.mean()) for pay in payoffs]
    rows = [UnpredictabilityRow(w, p, x, m, m / math.sqrt(x), trials)
            for (w, p, x), m in zip(cells, means)]
    best = int(np.argmax([r.normalized_payoff for r in rows]))
    delta_hat = max(0.0, rows[best].normalized_payoff)
    pay = payoffs[best].astype(np.float64)
    x = cells[best][2]
    boots = np.empty(_BOOTSTRAP)
    for b in range(_BOOTSTRAP):
        boots[b] = pay[rng.integers(0, trials, size=trials)].mean() / math.sqrt(x)
    ci_low, ci_high = (float(v) for v in np.percentile(boots, [2.5, 97.5]))
    return UnpredictabilityReport(spec, mode, tuple(rows), delta_hat, ci_low, ci_high, trials)


# ---------------------------------------------------------------------------
# Staged inversion certification


@dataclass(frozen=True)
class CertificationReport:
    spec: GeneratorSpec
    interval: Interval
    theta: int
    alpha: float
    s_iterations: int
    trials: int
    stage_lower_rate: tuple[float, ...]
    stage_upper_rate: tuple[float, ...]
    stage_reached_rate: tuple[float, ...]
    p_high: float
    p_no_inversion_and_high: float
    p_no_inversion_given_high: float


def certify_inversion(
    spec: GeneratorSpec,
    interval: Interval,
    theta: int,
    s_iterations: int,
    trials: int,
    alpha: float = 0.5,
) -> CertificationReport:
    """Run the staged +1 bettor and measure how often a height-``theta`` climb
    escapes without any stage detecting an opposite excursion.

    Each stage stops at running payoff ``-ceil(alpha*theta/s)`` (an inversion
    witness) or ``+ceil(2*alpha*theta/s)``, the limits of
    :func:`~fractalwalk.predictors._bettor_limits`; the next stage starts immediately
    after.  The headline number is the frequency of final height >= theta
    with no stage having hit its lower limit.
    """
    theta, s_iterations = _integer(theta, "theta"), _integer(s_iterations, "s_iterations")
    trials, alpha = _integer(trials, "trials"), _real(alpha, "alpha", 0)
    lower, upper = _bettor_limits(theta, alpha, s_iterations)
    if alpha * theta / s_iterations < 1.0:
        raise ConfigurationError(
            f"per-stage limits degenerate: need alpha*theta/s >= 1, got "
            f"alpha={alpha}, theta={theta}, s={s_iterations}"
        )
    spec, interval = _instance(spec, "spec", (GeneratorSpec,)), _instance(interval, "interval", (Interval,))
    if interval.total_len != spec.total_len:
        raise ConfigurationError("interval ambient length must match spec.total_len")
    _check_entries(trials, 2 * s_iterations + 1)
    rng = derive_rng(spec.seed, "certify", theta, s_iterations)

    lo, hi = interval.lo, interval.hi
    stops, payoffs, sums = _map_batches(
        spec, trials, rng, lambda part: _bettor_stages(part[:, lo:hi], lower, upper, s_iterations)
    )
    stopped = stops >= 0
    low = stopped & (payoffs <= lower)
    lower_hits = np.count_nonzero(low, axis=0)
    upper_hits = np.count_nonzero(stopped & ~low, axis=0)
    # A stage starts when the one before it stopped short of the last position.
    started = np.count_nonzero(stopped[:, :-1] & (stops[:, :-1] < hi - lo - 1), axis=0)
    reached = np.concatenate([[trials], started])
    high = sums >= theta
    n_high = int(np.count_nonzero(high))
    n_no_inv_high = int(np.count_nonzero(high & ~low.any(axis=1)))
    p_high = n_high / trials
    p_joint = n_no_inv_high / trials
    return CertificationReport(
        spec,
        interval,
        theta,
        alpha,
        s_iterations,
        trials,
        tuple(lower_hits / trials),
        tuple(upper_hits / trials),
        tuple(reached / trials),
        p_high,
        p_joint,
        (p_joint / p_high) if n_high else float("nan"),
    )
