"""Core sequence and interval types.

A sequence of +1/-1 entries (or odd integers, for the augmented generator
families) is stored together with its prefix-sum array so that the height of
any half-open interval is an O(1) difference of two prefix values.  Intervals
are 0-based and half-open throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntervalError, _integer, _power_of_two

__all__ = [
    "Interval",
    "BitSequence",
    "IntSequence",
    "aligned_decompose",
    "ALIGNED_SQRT_SUM_FACTOR",
]

# Greedy aligned decomposition keeps sum(sqrt(|part|)) within this factor of
# sqrt(|interval|):  sqrt(2) / (sqrt(2) - 1).
ALIGNED_SQRT_SUM_FACTOR = float(np.sqrt(2.0) / (np.sqrt(2.0) - 1.0))

# Overflow guard: prefix sums are int64 and augmented entries stay polynomial
# in the sequence length, so lengths up to 2**24 are safe by a wide margin.
MAX_TOTAL_LEN = 1 << 24

# The shortest interval the inversion scans consider unless asked otherwise.
DEFAULT_MIN_LEN = 8


# Entries per row block of a (trials, T) reduction: a block's int64 and float64
# temporaries then stay in cache.
_BLOCK_ENTRIES = 1 << 16


def _sum_dtype(values: np.ndarray, n: int) -> type:
    """The narrowest exact accumulator for sums of up to ``n`` entries of ``values``.

    The package's int8 rows hold only +-1, so such a sum stays within ``[-n, n]``:
    int16 below 2**15 entries, int32 up to ``MAX_TOTAL_LEN``.  Every other dtype,
    the augmented families' int64 included, keeps int64.
    """
    if values.dtype != np.int8:
        return np.int64
    return np.int16 if n < 1 << 15 else np.int32


def _row_blocks(n_rows: int, cols: int):
    """Consecutive row slices covering ``n_rows`` rows of ``cols`` entries each,
    with ``max(1, _BLOCK_ENTRIES // cols)`` rows per slice."""
    step = max(1, _BLOCK_ENTRIES // cols)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


@dataclass(frozen=True)
class Interval:
    """Half-open index interval ``[lo, hi)`` inside a sequence of length ``total_len``."""

    lo: int
    hi: int
    total_len: int

    def __post_init__(self) -> None:
        try:
            hi = _integer(self.hi, "hi", 1, _integer(self.total_len, "total_len"))
            _integer(self.lo, "lo", 0, hi - 1)
        except ConfigurationError as exc:
            raise IntervalError(f"interval [{self.lo}, {self.hi}) of length {self.total_len}: {exc}") from None

    def __len__(self) -> int:
        return self.hi - self.lo

    def is_aligned(self) -> bool:
        """True when the length is a power of two and ``lo`` is a multiple of it."""
        size = len(self)
        return not size & (size - 1) and self.lo % size == 0

    def whole(self) -> bool:
        return self.lo == 0 and self.hi == self.total_len


class _PrefixSummed:
    """Shared storage and height queries for bit and integer sequences."""

    __slots__ = ("values", "prefix")

    values: np.ndarray
    prefix: np.ndarray

    def _init_storage(self, values: np.ndarray) -> None:
        prefix = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(values, dtype=np.int64, out=prefix[1:])
        values.flags.writeable = False
        prefix.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "prefix", prefix)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def interval(self) -> Interval:
        return Interval(0, len(self), len(self))

    def height(self, interval: Interval | None = None) -> int:
        """Sum of the entries over ``interval`` (whole sequence when omitted)."""
        if interval is None:
            return int(self.prefix[-1])
        if interval.total_len != len(self):
            raise IntervalError(
                f"interval declared for length {interval.total_len}, sequence has {len(self)}"
            )
        return int(self.prefix[interval.hi] - self.prefix[interval.lo])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.values.tobytes()))

    def __repr__(self) -> str:
        n = len(self)
        return f"{type(self).__name__}(len={n}, height={self.height()})"


def _entries(values, dtype) -> np.ndarray:
    """A fresh 1-d ``dtype`` copy of ``values``, of 1 to ``MAX_TOTAL_LEN`` entries."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ConfigurationError(f"a sequence must be a 1-d array, got shape {arr.shape}")
    _integer(len(arr), "sequence length", 1, MAX_TOTAL_LEN)
    return arr.astype(dtype, copy=True)


class BitSequence(_PrefixSummed):
    """Immutable sequence of +1/-1 entries with O(1) interval heights."""

    def __init__(self, bits: np.ndarray | list[int]) -> None:
        arr = _entries(bits, np.int8)
        if not np.all(np.abs(arr) == 1):
            raise ConfigurationError("bit sequence entries must be +1 or -1")
        self._init_storage(arr)

    @property
    def bits(self) -> np.ndarray:
        return self.values


class IntSequence(_PrefixSummed):
    """Immutable sequence of odd integers (augmented walk output)."""

    def __init__(self, entries: np.ndarray | list[int]) -> None:
        arr = _entries(entries, np.int64)
        if not np.all(arr & 1):
            raise ConfigurationError("integer sequence entries must be odd")
        # Polynomial-in-length bound on augmented entries; rules out overflow
        # in the int64 prefix sums.
        if np.abs(arr).max() >= (1 << 40):
            raise ConfigurationError("integer sequence entry magnitude must stay below 2**40")
        self._init_storage(arr)


def _largest_aligned_inside(lo: int, hi: int) -> tuple[int, int] | None:
    """(start, size) of the largest aligned interval in ``[lo, hi)``; leftmost on ties."""
    span = hi - lo
    if span <= 0:
        return None
    size = 1 << (span.bit_length() - 1)
    while size >= 1:
        start = -(-lo // size) * size  # first multiple of size at or after lo
        if start + size <= hi:
            return start, size
        size >>= 1
    return None


def aligned_decompose(interval: Interval) -> list[Interval]:
    """Greedy decomposition of an interval into disjoint aligned intervals.

    Repeatedly removes the largest aligned interval contained in what is
    left (leftmost on ties) and recurses on the two remainders.  The result
    is sorted, covers the input exactly, and has at most ``2*log2(total_len)``
    parts.

    Args:
        interval: target interval; ``total_len`` must be a power of two.

    Returns:
        List of aligned ``Interval`` parts in increasing position order.
    """
    total = _power_of_two(interval.total_len, "aligned decomposition's total_len", MAX_TOTAL_LEN)
    parts: list[Interval] = []

    def extract(lo: int, hi: int) -> None:
        got = _largest_aligned_inside(lo, hi)
        if got is None:
            return
        start, size = got
        extract(lo, start)
        parts.append(Interval(start, start + size, total))
        extract(start + size, hi)

    extract(interval.lo, interval.hi)
    assert parts and parts[0].lo == interval.lo and parts[-1].hi == interval.hi
    assert all(a.hi == b.lo for a, b in zip(parts, parts[1:]))
    assert len(parts) <= 2 * max(1, total.bit_length() - 1)
    return parts
