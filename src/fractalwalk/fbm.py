"""Exact fractional Brownian motion sampling on a unit grid, plus the
sign-predictor payoff that links FBM smoothness to sequence predictability.

Paths are drawn by Cholesky factorization of the exact covariance
``cov(t, s) = (|t|^{2H} + |s|^{2H} - |t-s|^{2H}) / 2`` on the grid ``1..n``;
at the sizes this package targets (n <= 4096) exactness beats the fancier
spectral samplers.  The predictor of interest observes the process height at
time ``s*x`` and bets on its sign for the increment over ``(s*x, (s+1)*x]``;
its expected payoff has the closed form implemented in
:func:`sign_predictor_closed_form`.

Memory: normals are drawn and multiplied by the Cholesky factor one row block
at a time, so a call holds O(block * grid_len) working memory besides its
result (a block has ``max(grid_len, 2**16 // grid_len)`` rows at most).
Returned paths take O(trials * grid_len); the sign payoff and the columns
asked for by ``times`` keep O(trials) per column read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, _integer, _real
from .generators import _check_entries
from .predictors import _sign_bets
from .seeding import _SEED_MAX, make_rng
from .sequences import _BLOCK_ENTRIES

__all__ = [
    "MAX_GRID_LEN",
    "FbmParams",
    "fbm_cov",
    "fbm_cov_matrix",
    "fbm_sample_batch",
    "sign_predictor_closed_form",
    "fbm_sign_predictor_payoff",
]

MAX_GRID_LEN = 4096


@dataclass(frozen=True)
class FbmParams:
    hurst: float
    grid_len: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hurst", _real(self.hurst, "hurst", 0, 1, "()"))
        object.__setattr__(self, "grid_len", _integer(self.grid_len, "grid_len", 1, MAX_GRID_LEN))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, _SEED_MAX))


def fbm_cov(t: float, s: float, hurst: float) -> float:
    """Covariance of fractional Brownian motion at times ``t`` and ``s``, which may be broadcasting arrays."""
    h2 = 2.0 * _real(hurst, "hurst", 0, 1, "()")
    return 0.5 * (abs(t) ** h2 + abs(s) ** h2 - abs(t - s) ** h2)


def fbm_cov_matrix(hurst: float, grid_len: int) -> np.ndarray:
    """Covariance matrix on the unit grid ``1..grid_len``, equal to :func:`fbm_cov`
    on the grid entry for entry.

    It takes the ``grid_len + 1`` powers ``d**(2H)``, ``d = 0..grid_len``, once:
    the ``|t-s|`` term is a Toeplitz view of them, not ``grid_len**2`` powers.
    """
    n = _integer(grid_len, "grid_len", 1, MAX_GRID_LEN)
    powers = np.arange(n + 1, dtype=np.float64) ** (2.0 * _real(hurst, "hurst", 0, 1, "()"))
    # lags[k] = |k - (n-1)| ** 2H, so row i of the reversed window view is |j - i| ** 2H.
    lags = np.concatenate((powers[n - 1 : 0 : -1], powers[:n]))
    cov = powers[1:, None] + powers[None, 1:]
    cov -= sliding_window_view(lags, n)[::-1]
    cov *= 0.5
    return cov


@functools.lru_cache(maxsize=8)
def _cholesky(hurst: float, grid_len: int) -> np.ndarray:
    """The covariance's Cholesky factor, refused where float64 has none (hurst near 1)."""
    try:
        return np.linalg.cholesky(fbm_cov_matrix(hurst, grid_len))
    except np.linalg.LinAlgError:
        raise ConfigurationError(f"the fBm covariance at hurst={hurst}, grid_len={grid_len} "
                                 f"has no Cholesky factor in float64") from None


def _even_blocks(trials: int, grid_len: int) -> list[slice]:
    """Row slices of one batch: as few blocks of at most
    ``max(grid_len, _BLOCK_ENTRIES // grid_len)`` rows as cover ``trials``, split evenly.

    Blocks shorter than ``grid_len`` rows would repack the factor per block, and
    a trailing one-row block goes through another BLAS kernel.  With these
    blocks, the product equalled the one-shot ``z @ chol.T`` bit for bit at
    every multiple of 8 up to 1104 and at 4096 on OpenBLAS 0.3.31
    (``tests/test_fbm.py`` pins 1, 32, 256 and 2048).  At other lengths above
    about 180 points, BLAS rounds the last ``grid_len % 8`` columns differently
    with the number of rows it is given, in the one-shot product too.
    """
    count = -(-trials // max(grid_len, _BLOCK_ENTRIES // grid_len))
    edges = [trials * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def fbm_sample_batch(
    params: FbmParams,
    trials: int,
    rng: int | np.random.Generator | None = None,
    times: tuple[int, ...] | None = None,
) -> np.ndarray:
    """``trials`` independent paths, one per row, columns = times ``1..grid_len``;
    with ``times``, only the columns of those grid times, in their order.

    The normals are drawn from the same stream and multiplied by the whole
    factor one row block at a time (:func:`_even_blocks`), so ``times`` picks
    which columns are kept, never their values.  A batch above the generators'
    matrix-entry cap at ``grid_len`` columns is refused before any draw,
    whatever ``times`` keeps.
    """
    n = params.grid_len
    trials = _check_entries(trials, n)
    cols = None if times is None else [_integer(t, "times", 1, n) - 1 for t in times]
    rng = make_rng(rng if rng is not None else params.seed)
    chol_t = _cholesky(params.hurst, n).T
    out = np.empty((trials, n if cols is None else len(cols)))
    for rows in _even_blocks(trials, n):
        z = rng.standard_normal((rows.stop - rows.start, n))
        if cols is None:
            np.matmul(z, chol_t, out=out[rows])
        else:
            out[rows] = (z @ chol_t)[:, cols]
    return out


def sign_predictor_closed_form(hurst: float, window: int, lag_ratio: float) -> float:
    """Exact ``E[sign(B(s*x)) * (B((s+1)x) - B(s*x))]`` for window ``x``, ratio ``s``.

    Conditioning the Gaussian increment on the observed height gives a linear
    regression coefficient; multiplying by the half-normal mean of the height
    yields ``((1+1/s)^{2H} - 1 - s^{-2H})/2 * sqrt(2/pi) * (s*x)^H``.
    """
    h2 = 2.0 * _real(hurst, "hurst", 0, 1, "()")
    window, s = _integer(window, "window"), _real(lag_ratio, "lag_ratio", 0, None, "(]")
    coeff = 0.5 * ((1.0 + 1.0 / s) ** h2 - 1.0 - s**-h2)
    return coeff * math.sqrt(2.0 / math.pi) * (s * window) ** hurst


def fbm_sign_predictor_payoff(
    params: FbmParams,
    window: int,
    lag_ratio: int,
    trials: int = 10_000,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Monte Carlo estimate matching :func:`sign_predictor_closed_form`.

    Requires the grid to reach ``(lag_ratio + 1) * window``.  Zero observed
    height (probability zero for Gaussians) would count as a +1 bet.
    """
    window, lag_ratio = _integer(window, "window"), _integer(lag_ratio, "lag_ratio")
    t_mid = lag_ratio * window
    t_end = (lag_ratio + 1) * window
    if t_end > params.grid_len:
        raise ConfigurationError(
            f"grid_len {params.grid_len} too short for lag_ratio {lag_ratio} x window {window}"
        )
    ends = fbm_sample_batch(params, trials, rng, times=(t_mid, t_end))
    mid = ends[:, 0]
    return float(np.mean(_sign_bets(mid, ends[:, 1] - mid)))
