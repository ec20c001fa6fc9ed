"""Core sequence and interval types.

A sequence of +1/-1 entries (or odd integers, for the augmented generator
families) is stored together with its prefix-sum array so that the height of
any half-open interval is an O(1) difference of two prefix values.  Intervals
are 0-based and half-open throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntervalError, _integer

__all__ = [
    "Interval",
    "BitSequence",
    "IntSequence",
]

# The longest sequence.  An integer entry stays below 2**63 / MAX_TOTAL_LEN = 2**39
# in magnitude, so no int64 prefix sum can wrap; generated entries stay within
# generators._height_bound, about 3.5e11 at most (afrw, l=1, T=2**24, delta 0.99).
MAX_TOTAL_LEN = 1 << 24
_MAX_ENTRY = (1 << 63) // MAX_TOTAL_LEN

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
    """A fresh 1-d ``dtype`` copy of ``values``, of 1 to ``MAX_TOTAL_LEN`` entries.

    Entries the cast would change, such as fractions or integers outside
    ``dtype``, are refused rather than wrapped or truncated.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ConfigurationError(f"a sequence must be a 1-d array, got shape {arr.shape}")
    _integer(len(arr), "sequence length", 1, MAX_TOTAL_LEN)
    if arr.dtype.kind not in "iufO":
        raise ConfigurationError(f"sequence entries must be real numbers, got dtype {arr.dtype}")
    try:
        with np.errstate(invalid="ignore"):
            out = arr.astype(dtype, copy=True)
    except (OverflowError, TypeError, ValueError):
        out = None
    if out is None or not (np.can_cast(arr.dtype, dtype) or np.array_equal(out, arr)):
        raise ConfigurationError(f"sequence entries must be integers that fit {np.dtype(dtype)}")
    return out


class BitSequence(_PrefixSummed):
    """Immutable sequence of +1/-1 entries with O(1) interval heights."""

    def __init__(self, bits: np.ndarray | list[int]) -> None:
        arr = _entries(bits, np.int8)
        if not np.all(np.abs(arr) == 1):
            raise ConfigurationError("bit sequence entries must be +1 or -1")
        self._init_storage(arr)


class IntSequence(_PrefixSummed):
    """Immutable sequence of odd integers (augmented walk output)."""

    def __init__(self, entries: np.ndarray | list[int]) -> None:
        arr = _entries(entries, np.int64)
        if not np.all(arr & 1):
            raise ConfigurationError("integer sequence entries must be odd")
        if np.abs(arr).max() >= _MAX_ENTRY:
            raise ConfigurationError(f"integer sequence entry magnitude must stay below {_MAX_ENTRY}")
        self._init_storage(arr)
