"""Tests for the fractional Brownian motion sampler and sign predictor."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from fractalwalk import (
    ConfigurationError,
    FbmParams,
    fbm_cov,
    fbm_cov_matrix,
    fbm_sample_batch,
    fbm_sign_predictor_payoff,
    sign_predictor_closed_form,
)
from fractalwalk import fbm, generators
from fractalwalk.predictors import _sign_bets


def one_shot_paths(params, trials, seed):
    """The unblocked sampler: every normal drawn at once, times the Cholesky factor."""
    z = np.random.default_rng(seed).standard_normal((trials, params.grid_len))
    return z @ fbm._cholesky(params.hurst, params.grid_len).T


def block_rows(grid_len):
    return max(grid_len, (1 << 16) // grid_len)


# Row counts around one block of the sampler at each grid length.  20001 rows
# are left out at grid_len 2048, where each of the three matrices would take
# 328 MB; block + 1 rows already span two blocks there.
BLOCK_CASES = [
    (n, trials)
    for n in (1, 32, 256, 2048)
    for trials in (1, block_rows(n) - 1, block_rows(n) + 1, 20_001)
    if (n, trials) != (2048, 20_001)
]


class TestCovariance:
    def test_hand_values(self):
        # H = 0.5 reduces to Brownian motion: cov(t, s) = min(t, s).
        assert fbm_cov(3.0, 5.0, 0.5) == pytest.approx(3.0)
        assert fbm_cov(7.0, 2.0, 0.5) == pytest.approx(2.0)
        # Generic H: cov(1, 2) = (1 + 2^{2H} - 1) / 2 = 2^{2H - 1}.
        assert fbm_cov(1.0, 2.0, 0.7) == pytest.approx(2.0 ** 0.4)
        # Variance at time t is t^{2H}.
        assert fbm_cov(4.0, 4.0, 0.6) == pytest.approx(4.0 ** 1.2)

    def test_matrix_agrees_with_scalar(self):
        mat = fbm_cov_matrix(0.6, 5)
        for i in range(5):
            for j in range(5):
                assert mat[i, j] == pytest.approx(fbm_cov(i + 1.0, j + 1.0, 0.6))

    @pytest.mark.parametrize("grid_len", [1, 2, 7, 256, 2048])
    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.6, 0.95])
    def test_matrix_equals_pairwise_covariance_exactly(self, hurst, grid_len):
        # The Toeplitz build takes grid_len + 1 powers; bound: equal bit for
        # bit to the grid_len**2 powers of the pairwise formula.
        t = np.arange(1, grid_len + 1, dtype=np.float64)
        assert np.array_equal(fbm_cov_matrix(hurst, grid_len), fbm_cov(t[:, None], t[None, :], hurst))

    def test_matrix_symmetric_psd(self):
        mat = fbm_cov_matrix(0.8, 64)
        assert np.allclose(mat, mat.T)
        eigenvalues = np.linalg.eigvalsh(mat)
        assert eigenvalues.min() > -1e-9


class TestParams:
    @pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_range(self, hurst):
        with pytest.raises(ConfigurationError, match="hurst"):
            FbmParams(hurst=hurst, grid_len=16)

    @pytest.mark.parametrize("grid_len", [0, -1, 5000])
    def test_grid_range(self, grid_len):
        with pytest.raises(ConfigurationError, match="grid_len"):
            FbmParams(hurst=0.5, grid_len=grid_len)

    def test_seed_validated(self):
        with pytest.raises(ConfigurationError, match="seed"):
            FbmParams(hurst=0.5, grid_len=16, seed=-1)


class TestSampling:
    def test_deterministic(self):
        params = FbmParams(hurst=0.7, grid_len=32, seed=5)
        assert np.array_equal(fbm_sample_batch(params, 1), fbm_sample_batch(params, 1))
        assert np.array_equal(fbm_sample_batch(params, 7), fbm_sample_batch(params, 7))

    def test_trials_positive(self):
        with pytest.raises(ConfigurationError, match="trials"):
            fbm_sample_batch(FbmParams(hurst=0.5, grid_len=8), 0)

    def test_batch_above_entry_cap_refused_before_drawing(self):
        # 2^40 paths x 256 times: far above the generators' cap of 2^28
        # entries, and too large for numpy to even try to allocate.
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="cap"):
            fbm_sample_batch(FbmParams(hurst=0.6, grid_len=256), 1 << 40, rng)
        assert rng.bit_generator.state == state

    def test_entry_cap_is_the_generators_cap(self, monkeypatch):
        monkeypatch.setattr(generators, "_MAX_MATRIX_ENTRIES", 100 * 64)
        params = FbmParams(hurst=0.6, grid_len=64)
        assert fbm_sample_batch(params, 100).shape == (100, 64)
        with pytest.raises(ConfigurationError, match="cap"):
            fbm_sample_batch(params, 101)

    @pytest.mark.parametrize("grid_len, trials", BLOCK_CASES)
    def test_blocks_equal_one_shot_product(self, grid_len, trials):
        # Bound: bit for bit, at 1, block - 1, block + 1 and 20001 rows.
        params = FbmParams(hurst=0.6, grid_len=grid_len)
        paths = fbm_sample_batch(params, trials, np.random.default_rng(8))
        assert np.array_equal(paths, one_shot_paths(params, trials, 8))

    def test_times_keep_the_same_columns(self):
        # Bound: bit for bit, over three blocks.
        params = FbmParams(hurst=0.7, grid_len=256, seed=4)
        times = (256, 1, 64, 64)
        cols = fbm_sample_batch(params, 700, times=times)
        assert cols.shape == (700, 4)
        assert np.array_equal(cols, fbm_sample_batch(params, 700)[:, [t - 1 for t in times]])

    @pytest.mark.parametrize("times", [(0,), (65,), (1.5,)])
    def test_times_validated_before_drawing(self, times):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="times"):
            fbm_sample_batch(FbmParams(hurst=0.6, grid_len=64), 10, rng, times=times)
        assert rng.bit_generator.state == state

    def test_entry_cap_counts_the_whole_grid_with_times(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="cap"):
            fbm_sample_batch(FbmParams(hurst=0.6, grid_len=256), 1 << 40, rng, times=(1,))
        with pytest.raises(ConfigurationError, match="cap"):
            fbm_sign_predictor_payoff(FbmParams(hurst=0.6, grid_len=256), 16, 1, 1 << 40, rng)
        assert rng.bit_generator.state == state

    def test_brownian_increments_independent(self):
        # At H = 1/2 the increments are i.i.d. standard normals.
        params = FbmParams(hurst=0.5, grid_len=64, seed=9)
        paths = fbm_sample_batch(params, 20_000)
        increments = np.diff(paths, axis=1, prepend=0.0)
        cov = np.cov(increments[:, ::7].T)
        off_diagonal = cov - np.diag(np.diag(cov))
        assert np.abs(off_diagonal).max() < 0.05
        assert np.allclose(np.diag(cov), 1.0, atol=0.05)

    def test_sample_covariance_matches_exact(self):
        params = FbmParams(hurst=0.6, grid_len=64, seed=11)
        paths = fbm_sample_batch(params, 40_000)
        for t, s in [(8, 8), (16, 48), (64, 32)]:
            sample_cov = float(np.mean(paths[:, t - 1] * paths[:, s - 1]))
            assert sample_cov == pytest.approx(fbm_cov(t, s, 0.6), rel=0.05)

    def test_self_similar_variances(self):
        # var B(t) = t^{2H} exactly by construction; check the Cholesky rows.
        params = FbmParams(hurst=0.75, grid_len=128, seed=3)
        paths = fbm_sample_batch(params, 30_000)
        ratio = float(np.var(paths[:, 63]) / np.var(paths[:, 15]))
        assert ratio == pytest.approx(4.0 ** (2 * 0.75), rel=0.1)


class TestSignPredictor:
    def test_closed_form_anchor(self):
        # Frozen ((1 + 1/s)^{2H} - 1 - s^{-2H})/2 * sqrt(2/pi) * (s x)^H
        # at H = 0.6, x = 16, s = 1.
        value = sign_predictor_closed_form(0.6, 16, 1)
        expected = 0.5 * (2.0 ** 1.2 - 2.0) * math.sqrt(2.0 / math.pi) * 16 ** 0.6
        assert value == pytest.approx(expected)
        assert value == pytest.approx(0.6262, abs=2e-4)

    def test_closed_form_vanishes_for_brownian(self):
        # Independent increments carry no sign information.
        assert sign_predictor_closed_form(0.5, 32, 1) == pytest.approx(0.0, abs=1e-12)
        assert sign_predictor_closed_form(0.5, 32, 4) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_signs(self):
        # Persistent paths reward momentum; anti-persistent ones punish it.
        assert sign_predictor_closed_form(0.8, 16, 1) > 0
        assert sign_predictor_closed_form(0.3, 16, 1) < 0

    def test_monte_carlo_matches_closed_form(self):
        params = FbmParams(hurst=0.6, grid_len=64, seed=17)
        estimate = fbm_sign_predictor_payoff(params, window=16, lag_ratio=1, trials=60_000)
        assert estimate == pytest.approx(sign_predictor_closed_form(0.6, 16, 1), rel=0.05)

    def test_monte_carlo_matches_closed_form_lagged(self):
        params = FbmParams(hurst=0.7, grid_len=96, seed=19)
        estimate = fbm_sign_predictor_payoff(params, window=16, lag_ratio=3, trials=60_000)
        assert estimate == pytest.approx(sign_predictor_closed_form(0.7, 16, 3), rel=0.1)

    def test_adjacent_window_dominates(self):
        # The observation closest to the predicted increment is the most
        # informative: the closed form peaks at lag ratio 1.
        values = [sign_predictor_closed_form(0.6, 16, s) for s in range(1, 9)]
        assert values[0] == max(values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("window, lag_ratio", [(16, 0), (16, -1), (16, math.nan), (0, 1)])
    def test_closed_form_needs_positive_window_and_lag(self, window, lag_ratio):
        with pytest.raises(ConfigurationError, match="window|lag_ratio"):
            sign_predictor_closed_form(0.6, window, lag_ratio)

    def test_payoff_equals_mean_over_one_shot_paths(self):
        # Bound: the same float, bit for bit, over five blocks of 1024 rows.
        params = FbmParams(hurst=0.6, grid_len=64)
        paths = one_shot_paths(params, 5000, 21)
        want = float(np.mean(_sign_bets(paths[:, 31], paths[:, 47] - paths[:, 31])))
        assert fbm_sign_predictor_payoff(params, 16, 2, 5000, np.random.default_rng(21)) == want

    def test_payoff_memory_is_one_block(self):
        # 100k paths of 256 points: the one-shot sampler held two 205 MB
        # matrices and peaked near 410 MB.  Bound: below 32 MB, the block of
        # normals, its product and the two kept columns.
        params = FbmParams(hurst=0.6, grid_len=256)
        tracemalloc.start()
        try:
            fbm_sign_predictor_payoff(params, 16, 1, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_grid_too_short(self):
        params = FbmParams(hurst=0.6, grid_len=16)
        with pytest.raises(ConfigurationError, match="grid_len"):
            fbm_sign_predictor_payoff(params, window=16, lag_ratio=1)

    def test_window_validated(self):
        params = FbmParams(hurst=0.6, grid_len=64)
        with pytest.raises(ConfigurationError, match="window"):
            fbm_sign_predictor_payoff(params, window=0, lag_ratio=1)
