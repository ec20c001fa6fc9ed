"""Deterministic seed derivation.

The samplers (``simulate_heights``, ``generate_batch``, ``iter_generate_batches``,
the fBm samplers and ``weighted_majority_run``) take a ``numpy.random.Generator``
or an integer seed.  Everything built on them derives its own generator from the
spec seed and a label, so the spec alone fixes every number reported from it.
Sweep cells derive their seeds by hashing the master seed together with the cell
coordinates, so adding or reordering cells never perturbs existing cells.
"""

from __future__ import annotations

import hashlib

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
