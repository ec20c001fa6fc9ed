"""Tests for the deterministic self-similar sequence constructor."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalwalk import (
    BASE_HEIGHT,
    ConfigurationError,
    FractalParams,
    build_fractal,
    fractal,
    fractal_length,
    measured_exponent,
    solve_theta,
    split_points,
    theta_residual,
)
from fractalwalk.fractal import _parts

ALPHA_GRID = [0.1, 0.2, 1.0 / 3.0, 0.5]


class TestThetaSolver:
    def test_alpha_zero_is_linear(self):
        assert solve_theta(0.0) == 1.0

    def test_alpha_one_third_is_exactly_half(self):
        # 2*(2/3)**2 + (1/3)**2 = 8/9 + 1/9 = 1, so x = 2 solves it exactly.
        assert solve_theta(1.0 / 3.0) == pytest.approx(0.5, abs=1e-12)

    def test_residual_vanishes_on_grid(self):
        for alpha in np.linspace(0.01, 0.5, 20):
            theta = solve_theta(float(alpha))
            assert abs(theta_residual(float(alpha), theta)) < 1e-10

    def test_theta_decreases_with_alpha(self):
        thetas = [solve_theta(a) for a in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))
        assert all(0.0 < t < 1.0 for t in thetas)

    @pytest.mark.parametrize("alpha", [-0.01, 0.51, 1.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            solve_theta(alpha)


class TestParams:
    def test_theta_derived_when_omitted(self):
        params = FractalParams(alpha=0.25, target_height=100)
        assert params.theta == pytest.approx(solve_theta(0.25))

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 0.6])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            FractalParams(alpha=alpha, target_height=10)

    @pytest.mark.parametrize("height", [0, -3, 4.0])
    def test_height_validated(self, height):
        with pytest.raises(ConfigurationError, match="target_height"):
            FractalParams(alpha=0.3, target_height=height)


class TestPartHeights:
    @pytest.mark.parametrize(
        "height,alpha,expected",
        [
            (10, 1.0 / 3.0, (7, 4)),   # ceil(10/3)=4, parity already matches
            (10, 0.25, (7, 4)),        # ceil(2.5)=3 lifted to 4
            (5, 1.0 / 3.0, (4, 3)),    # ceil(5/3)=2 lifted to odd
            (1024, 0.5, (768, 512)),
        ],
    )
    def test_hand_cases(self, height, alpha, expected):
        assert _parts(height, alpha) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        height=st.integers(min_value=BASE_HEIGHT + 1, max_value=3000),
        alpha=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_split_identity(self, height, alpha):
        a, c = _parts(height, alpha)
        assert 2 * a - c == height
        assert c >= math.ceil(alpha * height)
        assert c <= math.ceil(alpha * height) + 1
        assert 0 < c < height and 0 < a < height


class TestConstruction:
    def test_base_case_is_monotone_run(self):
        for h in range(1, BASE_HEIGHT + 1):
            seq = build_fractal(FractalParams(alpha=0.3, target_height=h))
            assert np.all(seq.values == 1)
            assert len(seq) == h

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("height", [6, 17, 64, 257])
    def test_height_and_length_exact(self, alpha, height):
        params = FractalParams(alpha=alpha, target_height=height)
        seq = build_fractal(params)
        assert seq.height() == height
        assert len(seq) == fractal_length(params)

    def test_large_height_exact(self):
        params = FractalParams(alpha=1.0 / 3.0, target_height=1024)
        seq = build_fractal(params)
        assert seq.height() == 1024
        assert len(seq) == 595300

    def test_outer_copies_and_inverted_middle(self):
        params = FractalParams(alpha=1.0 / 3.0, target_height=100)
        seq = build_fractal(params)
        i, j = split_points(params)
        bits = seq.values
        assert np.array_equal(bits[:i], bits[j:])
        a, c = _parts(100, params.alpha)
        outer = build_fractal(FractalParams(params.alpha, a))
        middle = build_fractal(FractalParams(params.alpha, c))
        assert np.array_equal(bits[:i], outer.values)
        assert np.array_equal(bits[i:j], -middle.values)

    def test_split_points_below_base(self):
        assert split_points(FractalParams(alpha=0.3, target_height=3)) is None

    def test_same_sign_runs_never_exceed_base(self):
        # Every monotone run comes from a base block, and every part boundary
        # changes sign, so no run can outgrow the base height.
        seq = build_fractal(FractalParams(alpha=1.0 / 3.0, target_height=512))
        bits = seq.values.astype(np.int64)
        boundaries = np.flatnonzero(np.diff(bits) != 0)
        run_lengths = np.diff(np.concatenate([[-1], boundaries, [len(bits) - 1]]))
        assert run_lengths.max() == BASE_HEIGHT

    def test_deterministic(self):
        params = FractalParams(alpha=0.2, target_height=300)
        assert build_fractal(params) == build_fractal(params)

    def test_length_cap_checked_before_rendering(self, monkeypatch):
        def no_render(*args):
            raise AssertionError("rendered a fractal above the length cap")

        monkeypatch.setattr(fractal, "_render", no_render)
        params = FractalParams(alpha=1.0 / 3.0, target_height=2**14)
        with pytest.raises(ConfigurationError, match="length"):
            build_fractal(params)


class TestLengthGrowth:
    def test_recurrence_matches_materialized_lengths(self):
        for alpha in ALPHA_GRID:
            for height in (5, 12, 33, 100):
                params = FractalParams(alpha=alpha, target_height=height)
                assert fractal_length(params) == len(build_fractal(params))

    @pytest.mark.parametrize("alpha,lo,hi", [(0.2, 0.5, 1.5), (1.0 / 3.0, 0.5, 1.5)])
    def test_length_tracks_power_law_central(self, alpha, lo, hi):
        theta = solve_theta(alpha)
        for exp in range(10, 15):
            h = 1 << exp
            ratio = fractal_length(FractalParams(alpha, h)) / h ** (1.0 / theta)
            assert lo < ratio < hi

    @pytest.mark.parametrize("alpha,lo,hi", [(0.1, 1.0, 1.66), (0.5, 0.33, 0.43)])
    def test_length_tracks_power_law_extremes(self, alpha, lo, hi):
        # The prefactor oscillates with the rounding of part heights; these
        # envelopes were measured over the dyadic grid and frozen.
        theta = solve_theta(alpha)
        for exp in range(10, 15):
            h = 1 << exp
            ratio = fractal_length(FractalParams(alpha, h)) / h ** (1.0 / theta)
            assert lo < ratio < hi

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_measured_exponent_approaches_limit(self, alpha):
        params = FractalParams(alpha=alpha, target_height=1 << 14)
        limit = 1.0 / params.theta
        assert measured_exponent(params) == pytest.approx(limit, rel=0.15)

    def test_exponent_needs_nontrivial_height(self):
        with pytest.raises(ConfigurationError, match="target_height"):
            measured_exponent(FractalParams(alpha=0.3, target_height=1))
