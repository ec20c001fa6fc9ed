"""Random streams: seed derivation, PCG64 offsets, and the pools that run independent streams on the cores.

The samplers take a ``numpy.random.Generator`` or an integer seed; everything
built on them derives its own generator from the spec seed and a label, so the
spec alone fixes every number reported from it.  Sweep cells hash the master
seed with their coordinates, so adding or reordering cells perturbs no other.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import threading

import numpy as np

from .errors import _integer

__all__ = ["make_rng", "derive_seed", "derive_rng"]

_SEED_MAX = (1 << 64) - 1


def make_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """A Generator: ``seed_or_rng`` itself, one seeded by an unsigned 64-bit integer, or fresh for ``None``."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(None if seed_or_rng is None else _integer(seed_or_rng, "seed", 0, _SEED_MAX))


def derive_seed(master_seed: int, *coordinates: object) -> int:
    """Hash ``master_seed`` with a coordinate tuple into a stable 64-bit seed.

    Coordinates are rendered with ``repr`` so that e.g. ``0.1`` and ``"0.1"``
    stay distinct.  The digest is independent of the order in which other
    cells are enumerated.
    """
    key = "|".join([str(_integer(master_seed, "master_seed", 0, _SEED_MAX))] + [repr(c) for c in coordinates])
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(master_seed: int, *coordinates: object) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, *coordinates))


# ---------------------------------------------------------------------------
# PCG64 offsets


def _buffered(state: dict) -> tuple[int, int]:
    """``(has_uint32, uinteger)``: whether a PCG64 ``state`` buffers a 32-bit half, and that half."""
    return state["has_uint32"], state["uinteger"]


def _seek(bg: np.random.PCG64, state: dict, n: int = 0, half: tuple[int, int] | None = None) -> None:
    """Set ``bg`` to ``n`` outputs past ``state`` (mod 2**128, so ``n`` may be negative), with
    the buffered half ``half`` (as :func:`_buffered` gives it) or ``state``'s own: ``advance``
    clears the buffer, and 64-bit draws such as doubles never touch it."""
    bg.state = state
    bg.advance(n)
    end = bg.state
    end["has_uint32"], end["uinteger"] = _buffered(state) if half is None else half
    bg.state = end


# ---------------------------------------------------------------------------
# Independent streams on the cores


def _cores() -> int:
    """The cores this process may run on: its affinity mask where the OS keeps one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _glibc():
    """The C library through ``ctypes`` when it is glibc (it has ``malloc_trim``), else None."""
    if sys.platform != "linux":
        return None
    import ctypes

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "malloc_trim"):
        return None
    libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return libc


# glibc's mallopt parameters: the most malloc arenas a process may make, the
# size from which a block is mmapped, and the free heap top kept untrimmed.
_M_ARENA_MAX = -8
_M_MMAP_THRESHOLD = -3
_M_TRIM_THRESHOLD = -1

# _map_streams runs its items inline while their summed size, in inversion-table
# doubles (see generators._height_draws), is below this: below it, two threads
# mostly take a row range's short numpy calls in turns, and a pool's start-up
# is not repaid.  The walls that set it, rows split in two and lengths on
# threads against inline on a 2-core machine, are BENCH_35.json's
# floor_row_split_ms and floor_length_threads_ms.
_POOL_FLOOR = 1_000_000

_pool_thread = threading.local()  # .inside: set by _enter_pool


def _enter_pool() -> None:
    """Mark the calling thread as a pool's worker, on which :func:`_map_streams` runs
    inline.  It is the initializer of ``_map_streams``' threads and of the sweep's
    worker processes, each of which runs its tasks on the main thread, which ran it."""
    _pool_thread.inside = True


def _workers(requested: int, items: int) -> int:
    """The workers a pool of ``items`` items starts: ``requested``, but no more than
    there are items or cores, since a pool starts every worker up front."""
    return min(requested, items, _cores())


def _pool_workers(items: int, size: int) -> int:
    """The threads :func:`_map_streams` gives ``items`` items of summed ``size``:
    one per item as :func:`_workers` allows, or 1 (inline) below :data:`_POOL_FLOOR`
    or on a pool's thread, whose cores the pool already keeps busy."""
    if size < _POOL_FLOOR or getattr(_pool_thread, "inside", False):
        return 1
    return _workers(items, items)


def _map_streams(fn, items: list, size) -> list:
    """``[fn(item) for item in items]``, computed on :func:`_pool_workers` threads.

    Each call must draw only from a generator of its own, so no result depends
    on which thread ran it or when.  ``size(item)`` is the item's work in
    inversion-table doubles (see ``generators._height_draws``).  Items are
    submitted largest first and read back in the given order, so an error is
    the first failing item's.  One thread runs inline, with no pool.  numpy's
    samplers and ufuncs release the GIL, so the threads overlap in long calls.

    Before a pool starts, glibc is held to one malloc arena for the rest of the
    process, with its mmap and trim thresholds fixed at the ceilings it raises
    them to: each thread would otherwise keep the heap it freed in an arena of
    its own, and threads sharing one trim its top and fault it back in (peak
    RSS in ``BENCH_34.json``, page faults in ``BENCH_35.json``).
    """
    sizes = [size(item) for item in items]
    workers = _pool_workers(len(items), sum(sizes))
    if workers < 2:
        return [fn(item) for item in items]
    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_ARENA_MAX, 1)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers, initializer=_enter_pool) as pool:
        order = sorted(range(len(items)), key=sizes.__getitem__, reverse=True)
        futures = {i: pool.submit(fn, items[i]) for i in order}
        return [futures[i].result() for i in range(len(items))]
