"""Tests for the estimators and their exact small-instance references."""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalwalk import (
    BitSequence,
    ConfigurationError,
    EstimationMode,
    Family,
    FractalParams,
    GeneratorSpec,
    IntSequence,
    Interval,
    StopCause,
    StopRule,
    adaptive_inversion_bettor,
    afrw_moment_oracle,
    alpha_q_estimate,
    build_fractal,
    certify_inversion,
    decomposition_height_distribution,
    derive_rng,
    deviation_stats,
    distribution_moment,
    estimate_delta,
    exact_height_law,
    generate_batch,
    height_moment_checks,
    ideal_height_distribution,
    inversion_ratio,
    inversion_ratio_naive_batch,
    simulate_heights,
    total_variation,
    upper_bound_rms,
)
from fractalwalk import analysis, generators, sequences
from fractalwalk.analysis import (
    DEFAULT_MIN_LEN,
    _ols,
    _opposite_falls,
    _prefix_at,
    _segment_extremes,
    inversion_ratio_dp_batch,
)
from test_predictors import staged_reference


# The memory tests' shape: 2048 trials of length 2^13, one 16 MB int8 chunk.
BIG = GeneratorSpec(family=Family.UNIFORM, total_len=1 << 13, seed=5)
BIG_WHOLE = Interval(0, 1 << 13, 1 << 13)


def traced_peak_mb(fn) -> float:
    """Peak traced allocation, in MB, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestDeviationStats:
    SPEC = GeneratorSpec(family=Family.UNIFORM, total_len=256, seed=17)

    def test_needs_enough_trials(self):
        with pytest.raises(ConfigurationError, match="trials"):
            deviation_stats(self.SPEC, [256], 50)

    def test_needs_lengths(self):
        with pytest.raises(ConfigurationError, match="T_list"):
            deviation_stats(self.SPEC, [], 200)

    def test_single_length_has_no_fit(self):
        report = deviation_stats(self.SPEC, [256], 200)
        assert report.fitted_exponent is None
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.mean_dev <= row.rms_dev
        assert row.trials == 200

    def test_uniform_exponent_near_half(self):
        report = deviation_stats(self.SPEC, [1 << e for e in range(8, 13)], 2000)
        assert 0.4 < report.fitted_exponent < 0.6
        assert report.exponent_stderr < 0.1

    def test_rejects_repeated_lengths(self):
        with pytest.raises(ConfigurationError, match="repeat"):
            deviation_stats(self.SPEC, [256, 512, 256], 200)

    def test_fit_hand_case(self):
        # Residuals -0.1, 0.3, -0.3, 0.1 about the slope-0.6 line; Sxx = 5.
        slope, stderr = _ols(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0, 2.0]))
        assert slope == pytest.approx(0.6)
        assert stderr == pytest.approx(math.sqrt(0.2 / 2 / 5))
        assert _ols(np.array([1.0, 2.0]), np.array([5.0, 3.0])) == (-2.0, 0.0)

    def test_fit_matches_scipy_linregress_bit_for_bit(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for i in range(400):
            n = 2 + i % 9
            x = np.log(np.sort(rng.choice(np.arange(1, 1 << 20), size=n, replace=False)))
            y = 0.5 * x + 1.0 if i % 5 == 0 else rng.normal(size=n) + 0.5 * x
            fit = stats.linregress(x, y)
            assert _ols(x, y) == (fit.slope, fit.stderr)

    def test_rows_stable_under_extension(self):
        # Each length draws from its own derived stream, so adding lengths
        # can never perturb the existing rows.
        short = deviation_stats(self.SPEC, [256, 512], 200)
        long = deviation_stats(self.SPEC, [256, 512, 1024], 200)
        assert short.rows == long.rows[:2]

    @pytest.mark.parametrize("T_list, trials, match", [
        ([1024, 3], 1000, "total_len must be a power of two"),
        ([1024, 24, 3], 1000, "got 24"),
        ([64, 1 << 16], 1 << 20, "exceed the cap"),
    ])
    def test_every_length_refused_before_any_draw(self, monkeypatch, T_list, trials, match):
        # The error is the first bad length's in T_list order, raised before the
        # good lengths ahead of it are simulated.
        calls = []
        monkeypatch.setattr(analysis, "simulate_heights", lambda *a, **k: calls.append(a))
        spec = GeneratorSpec("frw", 1024, delta=0.1, base_len=2, seed=3)
        with pytest.raises(ConfigurationError, match=match):
            deviation_stats(spec, T_list, trials)
        assert calls == []

    # One spec per family.  frw at base length 4 has its lengths build the
    # same l = 4 inversion table, on two threads at once when the table is new.
    FAMILY_SPECS = [
        GeneratorSpec("uniform", 1024, seed=1),
        GeneratorSpec("frw", 1024, delta=0.1, base_len=4, seed=2),
        GeneratorSpec("opt_frw", 1024, delta=0.1, seed=3),
        GeneratorSpec("afrw", 1024, delta=0.1, base_len=16, seed=4),
        GeneratorSpec("aofrw", 1024, delta=0.2, seed=5),
        GeneratorSpec("entropy_conditioned", 1024, k=1.0, seed=6),
    ]

    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda spec: spec.family.value)
    def test_same_report_on_one_core_and_on_threads(self, monkeypatch, spec):
        T_list = [64, 1024, 256, 128]
        monkeypatch.setattr(generators, "_cores", lambda: 1)
        inline = deviation_stats(spec, T_list, 300)
        monkeypatch.setattr(generators, "_cores", lambda: 2)
        monkeypatch.setattr(generators, "_inversion_tables", {})
        assert deviation_stats(spec, T_list, 300) == inline

    def test_threads_build_a_missing_inversion_table_once(self, monkeypatch):
        # Four threads on at most two cores, switching as often as the
        # interpreter allows: each base length's table is still built once,
        # and the report equals the inline one.
        spec = GeneratorSpec("frw", 1024, delta=0.1, base_len=4, seed=2)
        T_list = [64, 128, 256, 512]
        monkeypatch.setattr(generators, "_cores", lambda: 1)
        inline = deviation_stats(spec, T_list, 300)
        built = []
        build = generators._build_inversion_table
        monkeypatch.setattr(generators, "_build_inversion_table", lambda l: built.append(l) or build(l))
        monkeypatch.setattr(generators, "_inversion_tables", {})
        monkeypatch.setattr(generators, "_cores", lambda: 4)
        reports = []
        caller = threading.Thread(target=lambda: reports.append(deviation_stats(spec, T_list, 300)), daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert reports == [inline] and built == [4]

    def test_lengths_submitted_longest_first_and_read_in_order(self, monkeypatch):
        submitted, pools = [], []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, cell):
                submitted.append(cell.total_len)
                future = concurrent.futures.Future()
                future.set_result(fn(cell))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(generators, "_cores", lambda: 2)
        monkeypatch.setattr(generators, "_glibc", lambda: types.SimpleNamespace(mallopt=lambda *a: pools.append(a)))
        report = deviation_stats(self.SPEC, [256, 1024, 512], 200)
        # glibc is held to one malloc arena (M_ARENA_MAX is -8) before the pool starts.
        assert pools == [(-8, 1), 2] and submitted == [1024, 512, 256]
        assert [row.total_len for row in report.rows] == [256, 1024, 512]
        monkeypatch.setattr(generators, "_cores", lambda: 1)
        assert deviation_stats(self.SPEC, [256, 1024, 512], 200) == report

    def test_one_length_starts_no_thread(self, monkeypatch):
        # A sweep cell passes one length per call: it runs inline, with no pool.
        def refuse(*args, **kwargs):
            raise AssertionError("a one-length call started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(generators, "_glibc", refuse)
        monkeypatch.setattr(generators, "_cores", lambda: 2)
        threads = threading.active_count()
        assert deviation_stats(self.SPEC, [256], 200).rows[0].total_len == 256
        assert threading.active_count() == threads


class TestClosedFormReferences:
    def test_moment_oracle_unbiased_case(self):
        for depth in range(5):
            assert afrw_moment_oracle(0.0, 16, depth) == 16 * 2**depth

    def test_moment_oracle_anchor(self):
        # (1 + 1.1^2)^3 * 16 = 2.21^3 * 16.
        assert afrw_moment_oracle(0.1, 16, 3) == pytest.approx(172.701776, abs=1e-9)

    def test_moment_oracle_matches_simulation(self):
        spec = GeneratorSpec(family=Family.AFRW, total_len=128, delta=0.1, base_len=16, seed=23)
        heights = simulate_heights(spec, 40_000)
        m2 = float(np.mean(heights.astype(np.float64) ** 2))
        assert m2 == pytest.approx(afrw_moment_oracle(0.1, 16, 3), rel=0.04)

    def test_rms_ceiling_values(self):
        assert upper_bound_rms(0.0, 1 << 10) == pytest.approx(32.0)
        # sqrt(2^20) * (1 + 0.05 * 20) = 1024 * 2.
        assert upper_bound_rms(0.1, 1 << 20) == pytest.approx(2048.0)

    def test_rms_ceiling_needs_power_of_two(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            upper_bound_rms(0.1, 1000)


class TestExactEnumeration:
    DELTAS = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_two_routes_agree_exactly(self, delta, depth):
        a = ideal_height_distribution(delta, depth)
        b = decomposition_height_distribution(delta, depth)
        assert total_variation(a, b) == 0

    def test_depth_zero_is_a_fair_bit(self):
        assert ideal_height_distribution(Fraction(1, 4), 0) == {
            Fraction(1): Fraction(1, 2),
            Fraction(-1): Fraction(1, 2),
        }

    def test_depth_one_hand_enumeration(self):
        # h' = (3/2) a + b over a, b in {-1, +1}: +-5/2 and +-1/2, each 1/4.
        dist = ideal_height_distribution(Fraction(1, 2), 1)
        quarter = Fraction(1, 4)
        assert dist == {
            Fraction(5, 2): quarter,
            Fraction(-5, 2): quarter,
            Fraction(1, 2): quarter,
            Fraction(-1, 2): quarter,
        }

    @pytest.mark.parametrize("delta", DELTAS)
    def test_distribution_is_symmetric_and_normalized(self, delta):
        dist = ideal_height_distribution(delta, 3)
        assert sum(dist.values()) == 1
        for value, p in dist.items():
            assert dist[-value] == p

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_second_moment_closed_form_exact(self, delta, depth):
        # E h'^2 = (1 + (1+delta)^2) E h^2 at every doubling, exactly.
        dist = ideal_height_distribution(delta, depth)
        expected = (1 + (1 + delta) ** 2) ** depth
        assert distribution_moment(dist, 2) == expected

    def test_odd_moments_vanish(self):
        dist = ideal_height_distribution(Fraction(1, 4), 3)
        assert distribution_moment(dist, 1) == 0
        assert distribution_moment(dist, 3) == 0

    def test_total_variation_of_disjoint_is_one(self):
        a = {Fraction(1): Fraction(1)}
        b = {Fraction(2): Fraction(1)}
        assert total_variation(a, b) == 1

    def test_depth_validated(self):
        with pytest.raises(ConfigurationError, match="depth"):
            ideal_height_distribution(0.1, -1)
        with pytest.raises(ConfigurationError, match="depth"):
            decomposition_height_distribution(0.1, -1)


def _reference_height_law(spec: GeneratorSpec) -> dict[int, float]:
    """The exact law by enumeration: every base sign pattern, then every pair
    of half heights and both outcomes of each rounded budget."""
    l, delta = spec.base_len, spec.delta
    law: dict[int, float] = {}
    for signs in itertools.product((-1, 1), repeat=l):
        law[sum(signs)] = law.get(sum(signs), 0.0) + 0.5**l
    n = l
    while n < spec.total_len:
        new: dict[int, float] = {}
        for h1, p1 in law.items():
            if spec.family is Family.AFRW:
                budget = abs(h1) * delta / 2.0
            else:
                budget = delta * math.sqrt(n) / 2.0 if h1 else 0.0
            whole = math.floor(budget)
            sign = (h1 > 0) - (h1 < 0)
            for steps, ps in ((whole, 1.0 - (budget - whole)), (whole + 1, budget - whole)):
                for h2, p2 in law.items():
                    h = h1 + 2 * sign * steps + h2
                    new[h] = new.get(h, 0.0) + p1 * ps * p2
        law = new
        n *= 2
    return law


class TestExactHeightLaw:
    def test_uniform_is_the_binomial_law(self):
        heights, p = exact_height_law(GeneratorSpec(Family.UNIFORM, 64))
        assert np.array_equal(heights, np.arange(-64, 65, 2))
        want = np.array([math.comb(64, k) / 2**64 for k in range(65)])
        assert np.allclose(p, want, rtol=1e-12, atol=0)

    def test_zero_delta_afrw_is_uniform(self):
        a = exact_height_law(GeneratorSpec(Family.AFRW, 64, delta=0.0, base_len=4))
        b = exact_height_law(GeneratorSpec(Family.UNIFORM, 64))
        assert np.array_equal(a[0], b[0])
        assert np.allclose(a[1], b[1], rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize(
        "family, T, l, delta",
        [(Family.AFRW, 16, 1, 0.5), (Family.AFRW, 32, 4, 0.3), (Family.AOFRW, 32, 2, 0.3),
         (Family.AOFRW, 16, 1, 0.9)],
    )
    def test_matches_enumeration(self, family, T, l, delta):
        spec = GeneratorSpec(family, T, delta=delta, base_len=l)
        heights, p = exact_height_law(spec)
        want = _reference_height_law(spec)
        got = {int(h): float(q) for h, q in zip(heights, p) if q}
        assert got.keys() == {h for h, q in want.items() if q}
        for h, q in got.items():
            assert q == pytest.approx(want[h], rel=1e-12)

    @pytest.mark.parametrize(
        "family, T, l, delta",
        [(Family.AFRW, 1 << 14, 16, 0.1), (Family.AOFRW, 1 << 12, 8, 0.5), (Family.AFRW, 256, 1, 0.9)],
    )
    def test_normalized_with_the_parity_of_T(self, family, T, l, delta):
        heights, p = exact_height_law(GeneratorSpec(family, T, delta=delta, base_len=l))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0) and p[0] > 0 and p[-1] > 0
        assert np.all(np.diff(heights) == 2) and heights[0] % 2 == T % 2

    @pytest.mark.parametrize("delta, gap", [(0.05, 0.0100), (0.1, 0.0136)])
    def test_rms_above_idealised_recursion(self, delta, gap):
        # The rounded budget adds variance at every merge: at T=2^10, l=16
        # the integer process runs about 1% above the closed form.
        heights, p = exact_height_law(GeneratorSpec(Family.AFRW, 1 << 10, delta=delta, base_len=16))
        rms = math.sqrt(float(p @ heights.astype(np.float64) ** 2))
        assert rms / math.sqrt(afrw_moment_oracle(delta, 16, 6)) - 1 == pytest.approx(gap, abs=5e-5)

    @pytest.mark.parametrize(
        "family, T, l, delta, seed",
        [(Family.AFRW, 1 << 10, 16, 0.05, 123), (Family.AFRW, 1 << 10, 16, 0.1, 123),
         (Family.AOFRW, 1 << 10, 16, 0.1, 123), (Family.AFRW, 1 << 8, 4, 0.5, 123),
         (Family.AFRW, 1 << 8, 1, 0.5, 7), (Family.UNIFORM, 1 << 10, None, 0.0, 5)],
    )
    def test_sampled_second_moment_z_test(self, family, T, l, delta, seed):
        # One-sample z-test of the heights' second moment against the exact
        # law, at fixed seeds; a correct sampler stays within |z| <= 4.
        spec = GeneratorSpec(family, T, delta=delta, base_len=l, seed=seed)
        heights, p = exact_height_law(spec)
        h2 = heights.astype(np.float64) ** 2
        m2, m4 = float(p @ h2), float(p @ h2**2)
        trials = 40_000
        sample = simulate_heights(spec, trials).astype(np.float64) ** 2
        z = (sample.mean() - m2) / math.sqrt((m4 - m2**2) / trials)
        assert abs(z) <= 4.0

    @pytest.mark.parametrize(
        "kw",
        [dict(family=Family.FRW, delta=0.1), dict(family=Family.OPT_FRW, delta=0.1),
         dict(family=Family.AFRW, delta=0.1, flip_mode="bernoulli"),
         dict(family=Family.ENTROPY_CONDITIONED, k=1.0)],
    )
    def test_other_processes_rejected(self, kw):
        with pytest.raises(ConfigurationError, match="exact_height_law covers"):
            exact_height_law(GeneratorSpec(total_len=64, **kw))

    def test_support_cap(self):
        with pytest.raises(ConfigurationError, match="outgrew"):
            exact_height_law(GeneratorSpec(Family.UNIFORM, 1 << 20))


class TestMomentChecks:
    def test_hand_vector(self):
        checks = height_moment_checks(np.array([3, -1, 1, -3]))
        assert checks.mean_abs == pytest.approx(2.0)
        assert checks.second == pytest.approx(5.0)
        assert checks.fourth == pytest.approx(41.0)
        assert checks.cauchy_schwarz_floor == pytest.approx(25.0 / 41.0**0.75)
        assert checks.fourth_moment_ratio == pytest.approx(41.0 / 25.0)
        assert checks.anti_concentration == 1.0
        assert checks.cauchy_schwarz_ok

    def test_all_zero_heights(self):
        checks = height_moment_checks(np.zeros(8, dtype=np.int64))
        assert checks.mean_abs == 0.0
        assert checks.cauchy_schwarz_floor == 0.0
        assert checks.anti_concentration == 1.0
        assert checks.cauchy_schwarz_ok

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_floor_holds_for_any_empirical_distribution(self, values):
        # (E h^2)^2 <= E|h| * (E h^4)^(3/4) is an arithmetic fact, not a
        # statistical one; any violation is an implementation bug.
        assert height_moment_checks(np.array(values)).cauchy_schwarz_ok


class TestInversionRatio:
    def test_hand_example_whole_interval(self):
        seq = BitSequence([1, 1, 1, 1, -1, -1, 1, 1, 1, 1])
        report = inversion_ratio(seq, min_len=10)
        assert report.overall_ratio == pytest.approx(1.0 / 3.0)
        assert report.x_interval == Interval(0, 10, 10)
        assert report.x_height == 6
        assert report.y_interval == Interval(4, 6, 10)
        assert report.y_height == -2

    def test_hand_example_shorter_windows(self):
        seq = BitSequence([1, 1, 1, 1, -1, -1, 1, 1, 1, 1])
        report = inversion_ratio(seq, min_len=5)
        assert report.overall_ratio == pytest.approx(1.0 / 3.0)
        assert abs(report.y_height) / abs(report.x_height) == pytest.approx(report.overall_ratio)

    def test_monotone_sequence_has_no_inversion(self):
        report = inversion_ratio(BitSequence(np.ones(16, dtype=np.int8)), min_len=8)
        assert report.overall_ratio == 0.0
        assert report.y_interval is None
        # All 9 + 8 + ... + 1 windows of length >= 8 have nonzero height.
        assert report.n_intervals == 45

    def test_dyadic_mode_on_monotone(self):
        report = inversion_ratio(BitSequence(np.ones(16, dtype=np.int8)), min_len=4, dyadic_only=True)
        assert report.overall_ratio == 0.0
        assert report.n_intervals == 4 + 2 + 1

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(99)
        values = (2 * rng.integers(0, 2, size=(200, 16)) - 1).astype(np.int8)
        for min_len in (1, 4, 8):
            expected = inversion_ratio_naive_batch(values, min_len)
            for row, want in zip(values, expected):
                got = inversion_ratio(BitSequence(row), min_len=min_len).overall_ratio
                assert got == want

    def test_matches_naive_on_integer_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            values = (2 * rng.integers(-2, 3, size=12) + 1).astype(np.int64)
            seq = IntSequence(values)
            assert inversion_ratio(seq, min_len=4).overall_ratio == inversion_ratio_naive_batch(seq.values[None], 4)[0]

    def test_witnesses_are_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seq = BitSequence((2 * rng.integers(0, 2, size=64) - 1).astype(np.int8))
            report = inversion_ratio(seq, min_len=8)
            if report.y_interval is None:
                continue
            x, y = report.x_interval, report.y_interval
            assert x.lo <= y.lo < y.hi <= x.hi
            assert seq.height(x) == report.x_height
            assert seq.height(y) == report.y_height
            assert report.x_height * report.y_height < 0
            assert report.overall_ratio == pytest.approx(abs(report.y_height) / abs(report.x_height))

    def test_dyadic_never_below_exhaustive(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            seq = BitSequence((2 * rng.integers(0, 2, size=32) - 1).astype(np.int8))
            full = inversion_ratio(seq, min_len=4).overall_ratio
            dyadic = inversion_ratio(seq, min_len=4, dyadic_only=True).overall_ratio
            assert dyadic >= full - 1e-12

    def test_exhaustive_cap(self):
        seq = BitSequence(np.ones(1 << 15, dtype=np.int8))
        with pytest.raises(ConfigurationError, match="dyadic_only"):
            inversion_ratio(seq, min_len=8)
        assert inversion_ratio(seq, min_len=8, dyadic_only=True).overall_ratio == 0.0

    def test_min_len_validated(self):
        seq = BitSequence([1, -1, 1, 1])
        with pytest.raises(ConfigurationError, match="min_len"):
            inversion_ratio(seq, min_len=0)
        with pytest.raises(ConfigurationError, match="interval"):
            inversion_ratio(seq, min_len=8)


def _brute_ratio(prefix, lo, hi):
    """``opp / |h|`` of ``[lo, hi)`` from every pair of its points, or None when h == 0."""
    pts = [int(v) for v in prefix[lo : hi + 1]]
    h = pts[-1] - pts[0]
    if h == 0:
        return None
    rise = max(max(b - a for a, b in itertools.combinations(pts, 2)), 0)
    drop = max(max(a - b for a, b in itertools.combinations(pts, 2)), 0)
    return (drop if h > 0 else rise) / abs(h)


def _exhaustive_intervals(T, min_len):
    return [(lo, hi) for lo in range(T - min_len + 1) for hi in range(lo + min_len, T + 1)]


def _brute_scan(prefix, intervals):
    """Smallest ratio, its first interval in the given order, and the live count."""
    best, best_x, live = math.inf, None, 0
    for lo, hi in intervals:
        ratio = _brute_ratio(prefix, lo, hi)
        if ratio is None:
            continue
        live += 1
        if ratio < best:
            best, best_x = ratio, (lo, hi)
    return best, best_x, live


def _check_against_brute(seq, min_len, intervals, dyadic_only):
    T = len(seq)
    report = inversion_ratio(seq, min_len=min_len, dyadic_only=dyadic_only)
    best, best_x, live = _brute_scan(seq.prefix, intervals)
    assert report.n_intervals == live
    if best_x is None:
        assert (report.overall_ratio, report.x_interval) == (0.0, None)
    else:
        assert report.overall_ratio == best
        assert report.x_interval == Interval(*best_x, T)


# Inputs on which pruning removes few or no starts, so the exhaustive sweep
# stays dense from the first length to the last.
_PATTERNS = {
    "ones": [1],
    "alternating": [1, -1],
    "period3": [1, 1, -1],
}


@st.composite
def _short_sequences(draw):
    T = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["bits", "odd", *_PATTERNS]))
    if kind == "bits":
        seq = BitSequence(draw(st.lists(st.sampled_from([-1, 1]), min_size=T, max_size=T)))
    elif kind == "odd":
        seq = IntSequence([2 * v + 1 for v in draw(st.lists(st.integers(-4, 3), min_size=T, max_size=T))])
    else:
        sign = draw(st.sampled_from([-1, 1]))
        seq = BitSequence(np.resize(np.array(_PATTERNS[kind]) * sign, T))
    return seq, draw(st.integers(1, T))


# Pruning must keep a start whose bound only ties the best ratio so far: here
# a start dropped on a tie would move the first minimiser from lo=1 to lo=5.
_TIE = (IntSequence([3, -3, -3, 3, 1, -3, 1, -1, 1, 1, -1, -1, 3, -1, -3, -1, 3, -1, -3, 3, 1]), 7)

# (analysis._SCALAR_STEPS, analysis._ONE_PASS_ENTRIES) that force each
# exhaustive regime: both switches are patched, since a row under the scalar
# switch never reaches the one-pass switch.
_REGIMES = {"scalar": (1 << 30, 0), "one_pass": (-1, 1 << 30), "sweep": (-1, 0)}


@contextlib.contextmanager
def _switches(steps, entries):
    with mock.patch.object(analysis, "_SCALAR_STEPS", steps):
        with mock.patch.object(analysis, "_ONE_PASS_ENTRIES", entries):
            yield


@settings(max_examples=150, deadline=None)
@given(_short_sequences())
@example(_TIE)
def test_exhaustive_matches_naive_batch(case):
    seq, min_len = case
    want = inversion_ratio_naive_batch(seq.values[None, :], min_len)[0]
    for switches in _REGIMES.values():
        with _switches(*switches):
            assert inversion_ratio(seq, min_len=min_len).overall_ratio == want


def test_dp_reference_matches_naive_on_all_length_12_inputs():
    n = 12
    codes = np.arange(1 << n, dtype=np.int64)
    values = (((codes[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int8)
    for min_len in (1, DEFAULT_MIN_LEN):
        want = inversion_ratio_naive_batch(values, min_len)
        assert np.array_equal(inversion_ratio_dp_batch(values, min_len), want)


@settings(max_examples=150, deadline=None)
@given(_short_sequences())
@example(_TIE)
def test_dp_reference_matches_naive_batch(case):
    seq, min_len = case
    values = seq.values[None, :]
    got = inversion_ratio_dp_batch(values, min_len)
    assert np.array_equal(got, inversion_ratio_naive_batch(values, min_len))


@settings(max_examples=150, deadline=None)
@given(_short_sequences())
@example(_TIE)
def test_exhaustive_witness_and_count_match_brute_force(case):
    seq, min_len = case
    T = len(seq)
    intervals = _exhaustive_intervals(T, min_len)
    for switches in _REGIMES.values():
        with _switches(*switches):
            _check_against_brute(seq, min_len, intervals, dyadic_only=False)


@st.composite
def _steps_with_zeros(draw):
    steps = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=16))
    return steps, draw(st.integers(1, len(steps)))


@settings(max_examples=100, deadline=None)
@given(_steps_with_zeros())
@example(([0, 0, 1], 1))
def test_exhaustive_scan_skips_flat_intervals(case):
    # No sequence has a zero entry, but the scans take any prefix: a flat
    # interval's ratio is 0/0 = nan, which fmin must skip on both numpy
    # paths, and which the scalar walk must skip too.
    steps, min_len = case
    T = len(steps)
    prefix = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
    intervals = _exhaustive_intervals(T, min_len)
    want = _brute_scan(prefix, intervals)
    assert analysis._scalar_scan(prefix.tolist(), min_len) == want
    for regime in ("one_pass", "sweep"):
        with _switches(*_REGIMES[regime]):
            assert analysis._exhaustive_scan(prefix, min_len) == want


def _brute_report(seq, min_len):
    """The exhaustive report from pairs of points alone: the first minimiser
    in ``(lo, hi)`` order, and in it the opposite-sign subinterval of largest
    height, the first by end and then by start."""
    T = len(seq)
    prefix = [int(v) for v in seq.prefix]
    intervals = _exhaustive_intervals(T, min_len)
    best, best_x, live = _brute_scan(seq.prefix, intervals)
    if best_x is None:
        return analysis.InversionReport(min_len, False, live, 0.0)
    lo, hi = best_x
    hx = prefix[hi] - prefix[lo]
    if best == 0.0:
        return analysis.InversionReport(min_len, False, live, best, Interval(lo, hi, T), None, hx, 0)
    sign = 1 if hx < 0 else -1
    pairs = [(u, v) for v in range(lo + 1, hi + 1) for u in range(lo, v)]
    opp = max(sign * (prefix[v] - prefix[u]) for u, v in pairs)
    u, v = next((u, v) for u, v in pairs if sign * (prefix[v] - prefix[u]) == opp)
    return analysis.InversionReport(
        min_len, False, live, best, Interval(lo, hi, T), Interval(u, v, T), hx, prefix[v] - prefix[u]
    )


def _switch_rows(T, seed):
    """Random, sorted and patterned bit and odd-integer rows of length ``T``."""
    rng = np.random.default_rng(seed)
    bits = 2 * rng.integers(0, 2, size=(2, T)) - 1
    odd = 2 * rng.integers(-4, 4, size=(2, T)) + 1
    rows = [*bits, np.sort(bits[0]), *odd, np.sort(odd[0]), np.sort(odd[1])[::-1]]
    rows += [np.resize(np.array(p) * sign, T) for p in _PATTERNS.values() for sign in (1, -1)]
    return np.array(rows, dtype=np.int64)


def _as_sequence(row):
    return BitSequence(row.astype(np.int8)) if np.all(np.abs(row) == 1) else IntSequence(row)


# With these switches the scalar walk covers T <= 9, 9 and 12 at min_len 1, 2
# and 8, the one pass T <= 11, 12 and 15, and T in range(9, 19) crosses all
# three regimes.
_SMALL_SWITCHES = (50, 300)


@pytest.mark.parametrize("T", range(9, 19))
def test_exhaustive_report_matches_brute_force_across_the_switch(T):
    rows = _switch_rows(T, seed=T)
    for min_len in sorted({1, 2, DEFAULT_MIN_LEN, T}):
        want_ratios = inversion_ratio_naive_batch(rows, min_len)
        with _switches(*_SMALL_SWITCHES):
            reports = [inversion_ratio(_as_sequence(row), min_len=min_len) for row in rows]
        for row, got, ratio in zip(rows, reports, want_ratios):
            # repr pins every field, the ratio to its last bit and sign of zero.
            assert float.hex(got.overall_ratio) == float.hex(float(ratio))
            assert repr(got) == repr(_brute_report(_as_sequence(row), min_len))


def _agree_around(last, regimes):
    """From the T just below ``last``'s smallest value to just past its largest,
    every regime in ``regimes`` gives the default call's report and the DP
    reference's ratio, over bit and odd-integer rows."""
    for T in range(min(last.values()) - 2, max(last.values()) + 3):
        rows = _switch_rows(T, seed=T)
        for min_len in (1, 2, DEFAULT_MIN_LEN, T):
            want_ratios = inversion_ratio_dp_batch(rows, min_len)
            for row, ratio in zip(rows, want_ratios):
                seq = _as_sequence(row)
                got = repr(inversion_ratio(seq, min_len=min_len))
                for regime in regimes:
                    with _switches(*_REGIMES[regime]):
                        report = inversion_ratio(seq, min_len=min_len)
                    assert float.hex(report.overall_ratio) == float.hex(float(ratio))
                    assert repr(report) == got


def test_scalar_and_one_pass_agree_around_the_switch():
    # The last T on the scalar walk at min_len 1, 2 and 8, from the real switch.
    last = {
        m: max(T for T in range(m, 1 << 10) if analysis._scalar_steps(T, m) <= analysis._SCALAR_STEPS)
        for m in (1, 2, DEFAULT_MIN_LEN)
    }
    _agree_around(last, ("scalar", "one_pass"))


def test_one_pass_and_sweep_agree_around_the_switch():
    # The last T on the one pass at min_len 1, 2 and 8, from the real switch.
    last = {
        m: max(T for T in range(m, 1 << 10) if 2 * (T + 1) * (T - m + 1) <= analysis._ONE_PASS_ENTRIES)
        for m in (1, 2, DEFAULT_MIN_LEN)
    }
    _agree_around(last, ("one_pass", "sweep"))


def _long_rows(T, seed):
    """Random, sorted and period-3 bit rows, random odd integers, and a random
    bit row whose middle third is sorted: there pruning keeps a third of the
    starts, so the compacted sweep runs to the end."""
    rng = np.random.default_rng(seed)
    bits = 2 * rng.integers(0, 2, size=(2, T)) - 1
    middle = bits[1].copy()
    middle[T // 3 : 2 * T // 3].sort()
    return np.array([bits[0], np.sort(bits[0]), np.resize([1, 1, -1], T), 2 * rng.integers(-4, 4, T) + 1, middle])


# A row whose first minimiser, (85, 125) at min_len 8 with ratio 1/24, ends at
# T and is reached by a start the sweep has compacted.  Found by searching
# random rows against inversion_ratio_dp_batch: a compacted start dropped one
# step before T reads 1/23 at (84, 125) instead.
_LAST_POINT_ROW = ("--++++-+++-++++++----+-----+-+--+---++++--+--+++----+-+-+-+-+-++-++--++-----++"
                   "----+--++++++-++++-+++++++-+++-+-++-+++-+-+++++")


def test_sweep_keeps_a_compacted_start_to_the_last_point():
    row = np.array([1 if c == "+" else -1 for c in _LAST_POINT_ROW], dtype=np.int8)
    report = inversion_ratio(BitSequence(row), min_len=DEFAULT_MIN_LEN)
    want = inversion_ratio_dp_batch(row[None, :], DEFAULT_MIN_LEN)[0]
    assert float.hex(report.overall_ratio) == float.hex(float(want)) == float.hex(1 / 24)
    assert (report.x_interval.lo, report.x_interval.hi) == (85, 125)


@pytest.mark.parametrize("T", [512, 2048])
def test_sweep_matches_references_at_the_sizes_it_serves(T):
    rows = _long_rows(T, seed=T)
    for min_len in (1, DEFAULT_MIN_LEN, 64):
        want_ratios = inversion_ratio_dp_batch(rows, min_len)
        for row, ratio in zip(rows, want_ratios):
            seq = _as_sequence(row)
            report = inversion_ratio(seq, min_len=min_len)
            assert float.hex(report.overall_ratio) == float.hex(float(ratio))
            live = np.triu(seq.prefix[:, None] != seq.prefix[None, :], k=min_len)
            assert report.n_intervals == np.count_nonzero(live)
            if T == 512:
                with _switches(*_REGIMES["one_pass"]):
                    assert repr(inversion_ratio(seq, min_len=min_len)) == repr(report)


def _aligned_intervals(T, min_len):
    size = 1
    while size < min_len:
        size <<= 1
    out = []
    while size <= T:
        out += [(lo, lo + size) for lo in range(0, T - size + 1, size)]
        size <<= 1
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dyadic_matches_brute_force_over_aligned_intervals(data):
    T = data.draw(st.integers(1, 80))
    if data.draw(st.booleans()):
        seq = BitSequence(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=T, max_size=T)))
    else:
        seq = IntSequence([2 * v + 1 for v in data.draw(st.lists(st.integers(-4, 3), min_size=T, max_size=T))])
    min_len = data.draw(st.integers(1, T))
    _check_against_brute(seq, min_len, _aligned_intervals(T, min_len), dyadic_only=True)


@pytest.mark.parametrize("alpha,height", [(1.0 / 3.0, 24), (0.25, 16), (0.2, 24), (0.5, 8)])
def test_dyadic_matches_brute_force_on_fractal_builds(alpha, height):
    # The builder's lengths are not powers of two, so the top levels hold
    # fewer blocks than a power-of-two length would.
    seq = build_fractal(FractalParams(alpha, height))
    assert len(seq) & (len(seq) - 1)
    for min_len in (1, 4, 8):
        _check_against_brute(seq, min_len, _aligned_intervals(len(seq), min_len), dyadic_only=True)


class TestAlphaQ:
    SPEC = GeneratorSpec(family=Family.UNIFORM, total_len=1024, seed=31)
    WINDOW = Interval(768, 1024, 1024)

    def test_needs_enough_trials(self):
        with pytest.raises(ConfigurationError, match="trials"):
            alpha_q_estimate(self.SPEC, self.WINDOW, 0.3, 500)

    def test_interval_ambient_checked(self):
        with pytest.raises(ConfigurationError, match="ambient"):
            alpha_q_estimate(self.SPEC, Interval(0, 256, 512), 0.3, 2000)

    def test_alpha_non_negative(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            alpha_q_estimate(self.SPEC, self.WINDOW, -0.1, 2000)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            alpha_q_estimate(self.SPEC, self.WINDOW, alpha, 2000)

    def test_uniform_window_usually_inverts(self):
        q = alpha_q_estimate(self.SPEC, self.WINDOW, 0.2, 2000)
        assert q > 0.5

    def test_monotone_in_alpha(self):
        # The derived seed ignores alpha, so all three runs see the same
        # sequences and the hit sets are nested.
        qs = [alpha_q_estimate(self.SPEC, self.WINDOW, a, 2000) for a in (0.2, 1.0, 2.0)]
        assert qs[0] >= qs[1] >= qs[2]
        assert qs[2] < qs[0]

    def test_floor_guard_trips_when_demanded(self):
        # At delta 0.9 the floor 0.9 * sqrt(8) is above this window's median deviation.
        spec = GeneratorSpec(family=Family.OPT_FRW, total_len=1024, delta=0.9, seed=32)
        window = Interval(1016, 1024, 1024)
        with pytest.raises(ConfigurationError, match="threshold not met"):
            alpha_q_estimate(spec, window, 0.4, 1000)

    def test_deterministic(self):
        a = alpha_q_estimate(self.SPEC, self.WINDOW, 0.4, 1500)
        b = alpha_q_estimate(self.SPEC, self.WINDOW, 0.4, 1500)
        assert a == b

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_matches_the_prefix_rule_on_the_same_rows(self, alpha):
        # The estimator's own stream, replayed: the first pass, then a
        # 2048-row chunk (column sweep) and a 52-row one (prefix passes).  The
        # threshold is a multiple of the median height, an integer here, so
        # windows whose opposite excursion equals it change the count.
        lo, hi = self.WINDOW.lo, self.WINDOW.hi
        rng = derive_rng(self.SPEC.seed, "alpha_q", lo, hi)
        first = generators.iter_generate_batches(self.SPEC, analysis._FIRST_PASS_TRIALS, rng)
        threshold = alpha * float(np.median(np.abs(np.concatenate([c[:, lo:hi].sum(axis=1) for c in first]))))
        assert threshold == int(threshold)
        rows = np.concatenate([c[:, lo:hi] for c in generators.iter_generate_batches(self.SPEC, 2100, rng)])
        want = np.count_nonzero(_segment_hits(rows, threshold)) / 2100
        assert alpha_q_estimate(self.SPEC, self.WINDOW, alpha, 2100) == want

    def test_prefix_pass_walks_row_blocks(self):
        # A whole-chunk (2048, x+1) int64 prefix matrix and its running extremes
        # would take hundreds of MB here; the column sweep holds one tile.
        assert traced_peak_mb(lambda: alpha_q_estimate(BIG, BIG_WHOLE, 0.3, 2048)) < 40


def _segment_hits(rows: np.ndarray, threshold: float) -> np.ndarray:
    """The former hit rule of ``alpha_q_estimate``: int64 prefix rows and
    their running extremes, through ``_segment_extremes``."""
    pref = np.zeros((len(rows), rows.shape[1] + 1), dtype=np.int64)
    np.cumsum(rows, axis=1, out=pref[:, 1:])
    h, rise, drop = _segment_extremes(pref)
    return (h != 0) & (np.where(h > 0, -drop, rise) >= threshold)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_opposite_falls_match_segment_extremes(data):
    n = data.draw(st.integers(1, 6), label="rows")
    x = data.draw(st.integers(1, 48), label="x")
    if data.draw(st.booleans(), label="int8"):
        entries, dtype = st.sampled_from([-1, 1]), np.int8
    else:
        entries, dtype = st.integers(-9, 8).map(lambda v: 2 * v + 1), np.int64
    rows = np.array(data.draw(st.lists(entries, min_size=n * x, max_size=n * x)), dtype=dtype).reshape(n, x)
    # A row whose last half mirrors its first, negated, has height 0 at even x.
    mirror = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rows[mirror, x - x // 2 :] = -rows[mirror, : x // 2][:, ::-1]
    # Both paths: the column sweep at any row count, and prefix passes below
    # _SWEEP_MIN_ROWS.  Small blocks make tiles of a few columns or row
    # blocks of one row, so each path crosses block edges.
    sweep_min_rows = data.draw(st.sampled_from([1, analysis._SWEEP_MIN_ROWS]), label="sweep_min_rows")
    block = data.draw(st.one_of(st.none(), st.integers(1, 64)), label="block")
    with mock.patch.object(sequences, "_BLOCK_ENTRIES", block or sequences._BLOCK_ENTRIES), \
            mock.patch.object(analysis, "_SWEEP_MIN_ROWS", sweep_min_rows):
        h, fall = _opposite_falls(rows)
    assert h.dtype == fall.dtype == (np.int16 if dtype is np.int8 else np.int64)
    assert np.array_equal(h, rows.sum(axis=1))
    # Thresholds at every fall, hit exactly, and just above and below it.
    for threshold in {0.0, *fall.tolist(), *(fall + 0.5).tolist(), *(fall - 0.5).tolist()}:
        assert np.array_equal((h != 0) & (fall >= threshold), _segment_hits(rows, threshold))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prefix_at_matches_full_cumsum(data):
    dtype = data.draw(st.sampled_from([np.int8, np.int64]))
    info = np.iinfo(np.int8) if dtype is np.int8 else np.iinfo(np.int32)
    n = data.draw(st.integers(1, 4))
    T = data.draw(st.integers(1, 300))
    flat = data.draw(st.lists(st.integers(info.min, info.max), min_size=n * T, max_size=n * T))
    mat = np.array(flat, dtype=dtype).reshape(n, T)
    ends = data.draw(st.sets(st.sampled_from([0, T])))
    cols = sorted(data.draw(st.sets(st.integers(0, T), max_size=12)) | ends)
    full = np.zeros((n, T + 1), dtype=np.int64)
    np.cumsum(mat, axis=1, dtype=np.int64, out=full[:, 1:])
    got = _prefix_at(mat, cols)
    assert got.dtype == np.int64
    assert np.array_equal(got, full[:, cols])


class TestEstimateDelta:
    def test_needs_enough_trials(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=64, seed=1)
        with pytest.raises(ConfigurationError, match="trials"):
            estimate_delta(spec, "weak_averaged", 100)

    def test_uniform_weak_hat_is_small(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=256, seed=2)
        report = estimate_delta(spec, EstimationMode.WEAK_AVERAGED, 1500)
        assert report.mode is EstimationMode.WEAK_AVERAGED
        assert 0.0 <= report.delta_hat < 0.15
        assert report.ci_low <= report.ci_high

    def test_weak_rows_pin_interval_at_the_end(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=128, seed=3)
        report = estimate_delta(spec, "weak_averaged", 1000)
        assert {row.window for row in report.rows} == {1, 2, 4, 8, 16, 32, 64}
        for row in report.rows:
            assert row.interval_lo == 128 - row.interval_len
            assert row.window <= row.interval_lo
            assert row.normalized_payoff == pytest.approx(
                row.mean_payoff / math.sqrt(row.interval_len)
            )

    def test_no_cell_rejected_before_any_draw(self, monkeypatch):
        # T // 2 < DEFAULT_MIN_LEN leaves no interval length: the error comes before the
        # generator is touched, not from argmax over an empty cell list.
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=8, seed=5)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        monkeypatch.setattr(analysis, "derive_rng", lambda *key: rng)
        for mode in ("weak_averaged", "strict"):
            with pytest.raises(ConfigurationError, match="no cell"):
                estimate_delta(spec, mode, 1000)
        assert rng.bit_generator.state == state

    def test_strict_mode_sees_height_coupled_bias(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=256, delta=0.2, base_len=16, seed=5)
        report = estimate_delta(spec, EstimationMode.STRICT, 1500)
        assert report.mode is EstimationMode.STRICT
        for row in report.rows:
            assert row.window == row.interval_lo  # the planted prefix is the window
            assert row.interval_len <= row.interval_lo
            assert row.interval_lo % 16 == 0
        assert report.delta_hat > 2 * 0.2  # conditioning makes this family very exposed

    def test_strict_refuses_when_no_prefix_fits(self, monkeypatch):
        # One base block covers the whole sequence, so no planted prefix of whole
        # blocks leaves an interval to bet on: strict mode refuses before any draw
        # instead of measuring weak cells under the strict name.
        spec = GeneratorSpec("frw", 64, delta=0.1, base_len=64, seed=6)
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        monkeypatch.setattr(analysis, "derive_rng", lambda *key: rng)
        with pytest.raises(ConfigurationError, match=r"strict mode at T=64, base_len=64"):
            estimate_delta(spec, "strict", 1000)
        assert rng.bit_generator.state == state
        assert estimate_delta(spec, "weak_averaged", 1000).mode is EstimationMode.WEAK_AVERAGED

    @pytest.mark.parametrize("family", ["frw", "afrw"])
    def test_default_base_len_leaves_no_strict_prefix_up_to_2048(self, family):
        # default_base_len wants 100 log2 T entries per block, so up to T = 2048 one
        # block is the whole sequence; at 4096 the block is T/2 and one prefix fits.
        for T in (64, 256, 2048):
            assert GeneratorSpec(family, T, delta=0.1).base_len == T
            assert not analysis._strict_prefix_lengths(GeneratorSpec(family, T, delta=0.1), 8)
        assert analysis._strict_prefix_lengths(GeneratorSpec(family, 4096, delta=0.1), 8) == [2048]

    def test_deterministic(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=128, seed=7)
        a = estimate_delta(spec, "weak_averaged", 1000)
        b = estimate_delta(spec, "weak_averaged", 1000)
        assert a == b

    @pytest.mark.parametrize("mode", ["weak_averaged", "strict"])
    def test_runs_where_full_chunks_exceed_the_entry_cap(self, monkeypatch, mode):
        # With the cap at 300 rows of T=128 the batches shrink to 300 rows;
        # uniform rows read the stream row by row, so the report is unchanged.
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=128, seed=8)
        full = estimate_delta(spec, mode, 1000)
        monkeypatch.setattr(generators, "_MAX_MATRIX_ENTRIES", 300 * 128)
        with pytest.raises(ConfigurationError, match="entries"):
            generators.generate_batch(spec, 1000)
        assert estimate_delta(spec, mode, 1000) == full


class TestCertifyInversion:
    SPEC = GeneratorSpec(family=Family.UNIFORM, total_len=1024, seed=47)
    WHOLE = Interval(0, 1024, 1024)

    def test_stage_count_validated(self):
        with pytest.raises(ConfigurationError, match="s_iterations"):
            certify_inversion(self.SPEC, self.WHOLE, theta=32, s_iterations=0, trials=100)

    def test_degenerate_stage_limits_rejected(self):
        with pytest.raises(ConfigurationError, match="degenerate"):
            certify_inversion(self.SPEC, self.WHOLE, theta=4, s_iterations=1, trials=100, alpha=0.2)

    @pytest.mark.parametrize("theta, alpha", [(32, 1e308), (2**64, 0.5), (2**63, 1.0)])
    def test_limits_past_int64_refused(self, monkeypatch, theta, alpha):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        monkeypatch.setattr(analysis, "derive_rng", lambda *key: rng)
        with pytest.raises(ConfigurationError, match="too large"):
            certify_inversion(self.SPEC, self.WHOLE, theta=theta, s_iterations=1, trials=100, alpha=alpha)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_must_be_positive(self, monkeypatch, trials):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        monkeypatch.setattr(analysis, "derive_rng", lambda *key: rng)
        with pytest.raises(ConfigurationError, match="trials"):
            certify_inversion(self.SPEC, self.WHOLE, theta=32, s_iterations=1, trials=trials)
        assert rng.bit_generator.state == state  # rejected before any draw

    def test_stages_walk_row_blocks(self):
        # A whole-chunk int64 cumulative matrix alone would take 134 MB here.
        peak = traced_peak_mb(lambda: certify_inversion(BIG, BIG_WHOLE, 128, 2, 2048))
        assert peak < 40

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            certify_inversion(self.SPEC, self.WHOLE, theta=32, s_iterations=1, trials=100, alpha=alpha)

    def test_interval_ambient_checked(self):
        with pytest.raises(ConfigurationError, match="ambient"):
            certify_inversion(self.SPEC, Interval(0, 256, 256), theta=32, s_iterations=1, trials=100)

    def test_single_stage_reduces_to_the_bettor(self):
        theta, trials = 32, 1200
        report = certify_inversion(self.SPEC, self.WHOLE, theta, 1, trials, alpha=0.5)
        batch = generate_batch(self.SPEC, trials, rng=derive_rng(self.SPEC.seed, "certify", theta, 1))
        causes = [
            adaptive_inversion_bettor(BitSequence(row), self.WHOLE, theta, 0.5).stop_cause
            for row in batch
        ]
        lower = sum(c is StopCause.LOWER for c in causes) / trials
        upper = sum(c is StopCause.UPPER for c in causes) / trials
        assert report.stage_lower_rate == (lower,)
        assert report.stage_upper_rate == (upper,)
        assert report.stage_reached_rate == (1.0,)

    @pytest.mark.parametrize(
        "s_iterations, interval",
        [(1, WHOLE), (3, WHOLE), (8, WHOLE), (3, Interval(200, 900, 1024))],
    )
    def test_stages_match_chained_run_plan(self, s_iterations, interval):
        # Per-row oracle: the step-by-step staged bettor, each stage betting +1
        # from where the previous one stopped, with the per-stage limits.
        theta, trials, alpha = 48, 600, 0.5
        report = certify_inversion(self.SPEC, interval, theta, s_iterations, trials, alpha=alpha)
        rule = StopRule(-math.ceil(alpha * theta / s_iterations),
                        math.ceil(2 * alpha * theta / s_iterations))
        batch = generate_batch(
            self.SPEC, trials, rng=derive_rng(self.SPEC.seed, "certify", theta, s_iterations)
        )
        lower, upper, reached = [0] * s_iterations, [0] * s_iterations, [0] * s_iterations
        n_high = n_escaped = 0
        for row in batch:
            seg = row[interval.lo : interval.hi]
            stages = staged_reference(seg, rule.lower_limit, rule.upper_limit, s_iterations)
            saw_lower = False
            for stage, (started, stop, payoff) in enumerate(zip(*stages)):
                reached[stage] += started
                if stop < 0:
                    continue
                if payoff <= rule.lower_limit:
                    lower[stage] += 1
                    saw_lower = True
                else:
                    upper[stage] += 1
            high = int(seg.sum()) >= theta
            n_high += high
            n_escaped += high and not saw_lower
        assert report.stage_lower_rate == tuple(v / trials for v in lower)
        assert report.stage_upper_rate == tuple(v / trials for v in upper)
        assert report.stage_reached_rate == tuple(v / trials for v in reached)
        assert report.p_high == n_high / trials
        assert report.p_no_inversion_and_high == n_escaped / trials

    def test_staged_rates_are_coherent(self):
        report = certify_inversion(self.SPEC, self.WHOLE, theta=64, s_iterations=8, trials=600)
        reached = report.stage_reached_rate
        assert reached[0] == 1.0
        assert all(a >= b for a, b in zip(reached, reached[1:]))
        for stage in range(8):
            hits = report.stage_lower_rate[stage] + report.stage_upper_rate[stage]
            assert hits <= reached[stage] + 1e-12
        assert 0.0 <= report.p_no_inversion_and_high <= report.p_high <= 1.0
        if report.p_high > 0:
            assert report.p_no_inversion_given_high == pytest.approx(
                report.p_no_inversion_and_high / report.p_high
            )

    def test_more_stages_catch_more_inversions(self):
        # A single coarse stage can miss an early excursion that the staged
        # bettor flags after resetting; the escape probability must not rise.
        coarse = certify_inversion(self.SPEC, self.WHOLE, theta=64, s_iterations=1, trials=800)
        fine = certify_inversion(self.SPEC, self.WHOLE, theta=64, s_iterations=8, trials=800)
        assert fine.p_no_inversion_and_high <= coarse.p_no_inversion_and_high + 0.02

    def test_unreachable_height_yields_nan_rate(self):
        report = certify_inversion(self.SPEC, self.WHOLE, theta=1026, s_iterations=1, trials=200)
        assert report.p_high == 0.0
        assert math.isnan(report.p_no_inversion_given_high)

    def test_deterministic(self):
        a = certify_inversion(self.SPEC, self.WHOLE, theta=32, s_iterations=4, trials=400)
        b = certify_inversion(self.SPEC, self.WHOLE, theta=32, s_iterations=4, trials=400)
        assert a == b


# sha256 of each estimator's report repr with generate_batch capped at 300 rows
# of T=256, so its 1000 trials span four chunks.  A change that moves one of
# them changes a number the estimator reports.
_FRW = GeneratorSpec(family=Family.FRW, total_len=256, delta=0.2, base_len=8, seed=11)
_OPT = GeneratorSpec(family=Family.OPT_FRW, total_len=256, delta=0.2, seed=12)
_AFRW = GeneratorSpec(family=Family.AFRW, total_len=256, delta=0.3, base_len=4, seed=13)
_CHUNKED_REPORTS = {
    "estimate_delta-strict": (
        lambda: estimate_delta(_FRW, "strict", 1000),
        "d633de7039ac9b542bc5d9ce34cf157af9096f32f977276f94dcb78e6bcc7d84",
    ),
    "estimate_delta-weak": (
        lambda: estimate_delta(_FRW, "weak_averaged", 1000),
        "a8aaf41caa0b8839af6613eb15eb80cdd508f8da15476b1eca26b7cb31f9f869",
    ),
    "alpha_q_estimate": (
        lambda: alpha_q_estimate(_OPT, Interval(192, 256, 256), 0.3, 1000),
        "3a2c5391cb932f1c570806c914e5d2d4458699147d52d710a9d04c12c6193096",
    ),
    "certify_inversion": (
        lambda: certify_inversion(_AFRW, Interval(0, 256, 256), 24, 3, 1000, alpha=0.5),
        "3b13e634ca80d2fd6b9a43b0392616f632333e691e9c1489ac31e6f611b4ab67",
    ),
}


@pytest.mark.parametrize("name", sorted(_CHUNKED_REPORTS))
def test_chunked_reports_are_pinned(monkeypatch, name):
    estimate, digest = _CHUNKED_REPORTS[name]
    monkeypatch.setattr(generators, "_MAX_MATRIX_ENTRIES", 300 * 256)
    assert hashlib.sha256(repr(estimate()).encode()).hexdigest() == digest


class TestTrialCap:
    """An estimator joins any number of batches, so it refuses, before any draw, a trial
    count whose kept values (1 per row for alpha_q, one per cell for estimate_delta,
    2s + 1 for certify_inversion) would pass the samplers' entry cap."""

    SPEC = GeneratorSpec(family=Family.UNIFORM, total_len=128, seed=9)
    WHOLE = Interval(0, 128, 128)
    CAP = generators._MAX_MATRIX_ENTRIES

    def refused(self, monkeypatch, call):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        monkeypatch.setattr(analysis, "derive_rng", lambda *key: rng)
        with pytest.raises(ConfigurationError, match="entries exceed the cap"):
            call()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("trials", [CAP + 1, 99999999999999999999])
    def test_alpha_q(self, monkeypatch, trials):
        self.refused(monkeypatch, lambda: alpha_q_estimate(self.SPEC, self.WHOLE, 0.2, trials))

    @pytest.mark.parametrize("mode", ["weak_averaged", "strict"])
    def test_estimate_delta(self, monkeypatch, mode):
        cells = len(estimate_delta(self.SPEC, mode, 1000).rows)
        self.refused(monkeypatch, lambda: estimate_delta(self.SPEC, mode, self.CAP // cells + 1))

    @pytest.mark.parametrize("s", [1, 4])
    def test_certify_inversion(self, monkeypatch, s):
        trials = self.CAP // (2 * s + 1) + 1
        self.refused(monkeypatch, lambda: certify_inversion(self.SPEC, self.WHOLE, 32, s, trials))
