"""Summary statistics, output fingerprints and import-time parsing.

Imports nothing outside the standard library, so the runner can use it
before it knows whether the package under test is present.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import statistics

# Tail percentiles tried from the highest down; the first one with at least
# TAIL_BEYOND samples above its rank is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` for the highest ladder percentile
    that leaves at least ``TAIL_BEYOND`` samples above its nearest-rank position.

    With too few samples for any ladder step the maximum is returned as
    percentile 100 with 0 samples beyond it.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n) in integers
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100.0, 0


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def fingerprint(obj) -> str:
    """Digest of a job output: arrays by dtype, shape and bytes; dataclasses by
    field; floats by ``repr`` so NaN equals NaN.  Used only to compare two runs
    of the same code, never against a stored value."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        h.update(f"A{obj.dtype.str}{getattr(obj, 'shape', ())}".encode())
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"D{type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, enum.Enum):
        h.update(f"E{obj.value}".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)}".encode())
        for v in obj:
            _feed(h, v)
    elif isinstance(obj, dict):
        h.update(f"M{len(obj)}".encode())
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"B%d:" % len(obj))
        h.update(obj)
    elif isinstance(obj, float):
        h.update(f"F{obj!r}".encode())
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def importtime_ms(stderr: str) -> tuple[float, float]:
    """``(fractalwalk import ms, scipy ms)`` from ``python -X importtime`` output.

    The fractalwalk figure is the cumulative time of its top-level line; the scipy
    figure sums the self time of every ``scipy`` module, wherever it nests.
    """
    total_us = math.nan
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if not parts[0].isdigit():
            continue  # header line
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2]
        if name == "fractalwalk":
            total_us = cum_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return total_us / 1000.0, scipy_us / 1000.0
