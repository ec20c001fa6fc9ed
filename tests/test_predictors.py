"""Tests for prediction plans, the payoff engine, and the betting strategies."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalwalk import (
    BitSequence,
    ConfigurationError,
    Family,
    GeneratorSpec,
    IntSequence,
    Interval,
    PayoffLedger,
    PredictionPlan,
    StopCause,
    StopRule,
    adaptive_inversion_bettor,
    block_momentum_payoff,
    constant_plan,
    generate_batch,
    run_plan,
    sign_of_prefix_plan,
    weighted_majority_expected_payoff,
    weighted_majority_guarantee,
    weighted_majority_rate,
    weighted_majority_run,
)
from fractalwalk import sequences
from fractalwalk.analysis import _prefix_at
from fractalwalk.predictors import (
    _bettor_limits,
    _bettor_payoffs,
    _bettor_stages,
    _block_momentum_payoffs,
    _sign_bets,
    _weighted_majority_payoffs,
)


def naive_run(values, preds, lo, rule):
    """Step-by-step reference for run_plan, straight from the definition."""
    payoff = 0
    for i, p in enumerate(preds):
        payoff += int(p) * int(values[lo + i])
        if rule is not None and (payoff <= rule.lower_limit or payoff >= rule.upper_limit):
            cause = StopCause.LOWER if payoff <= rule.lower_limit else StopCause.UPPER
            return payoff, i + 1, True, cause
    return payoff, len(preds), False, StopCause.EXHAUSTED


def staged_reference(row, lower, upper, stages):
    """Step-by-step staged +1 bettor, straight from the definition: per stage,
    whether it started, its stop column (-1 where it ran out or never started)
    and its payoff."""
    started, stops, payoffs, t = [], [], [], 0
    for _ in range(stages):
        started.append(t < len(row))
        payoff, stop = 0, -1
        while t < len(row):
            payoff += int(row[t])
            t += 1
            if payoff <= lower or payoff >= upper:
                stop = t - 1
                break
        stops.append(stop)
        payoffs.append(payoff)
    return started, stops, payoffs


class TestRunPlan:
    SEQ = BitSequence([1, -1, 1, 1])

    def test_full_interval_no_stop(self):
        ledger = run_plan(self.SEQ, constant_plan(1, Interval(0, 4, 4)))
        assert ledger == PayoffLedger(2, 4, StopCause.EXHAUSTED)

    def test_upper_stop(self):
        # Running payoff 1, 0, 1, 2 hits the +2 limit on the last step.
        rule = StopRule(lower_limit=-1, upper_limit=2)
        ledger = run_plan(self.SEQ, constant_plan(1, Interval(0, 4, 4), rule))
        assert ledger == PayoffLedger(2, 4, StopCause.UPPER)

    def test_lower_stop(self):
        seq = BitSequence([-1, -1, 1, 1])
        rule = StopRule(lower_limit=-2, upper_limit=1)
        ledger = run_plan(seq, constant_plan(1, Interval(0, 4, 4), rule))
        assert ledger == PayoffLedger(-2, 2, StopCause.LOWER)

    def test_mixed_predictions_on_subinterval(self):
        plan = PredictionPlan(Interval(1, 3, 4), np.array([-1, 1]))
        # Gains: (-1)*(-1) = 1, then 1*1 = 1.
        assert run_plan(self.SEQ, plan).payoff == 2

    def test_integer_valued_sequence(self):
        seq = IntSequence([3, -1, 1, -3])
        ledger = run_plan(seq, constant_plan(1, Interval(0, 4, 4)))
        assert ledger.payoff == 0

    def test_integer_entries_can_outgrow_the_steps(self):
        seq = IntSequence([5, 3, -1, 1])
        rule = StopRule(lower_limit=-2, upper_limit=6)
        ledger = run_plan(seq, constant_plan(1, Interval(0, 4, 4), rule))
        assert ledger == PayoffLedger(8, 2, StopCause.UPPER)

    def test_stop_limits_below_2_to_the_62(self):
        # The widest limits the rule allows, on the largest entries: neither is
        # reached.  One more in magnitude is refused, as _bettor_limits refuses it.
        seq = IntSequence(np.full(8, (1 << 39) - 1))
        rule = StopRule(1 - 2**62, 2**62 - 1)
        ledger = run_plan(seq, constant_plan(1, Interval(0, 8, 8), rule))
        assert ledger == PayoffLedger(8 * ((1 << 39) - 1), 8, StopCause.EXHAUSTED)
        for limits in ((-2**62, 1), (-1, 2**62)):
            with pytest.raises(ConfigurationError, match="stop rule"):
                StopRule(*limits)

    def test_interval_must_match_sequence(self):
        with pytest.raises(IndexError):
            run_plan(self.SEQ, constant_plan(1, Interval(0, 8, 8)))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            T = int(rng.integers(2, 64))
            values = (2 * rng.integers(0, 2, size=T) - 1).astype(np.int8)
            lo = int(rng.integers(0, T - 1))
            hi = int(rng.integers(lo + 1, T + 1))
            preds = (2 * rng.integers(0, 2, size=hi - lo) - 1).astype(np.int8)
            rule = None
            if rng.random() < 0.7:
                rule = StopRule(-int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            ledger = run_plan(BitSequence(values), PredictionPlan(Interval(lo, hi, T), preds, rule))
            expected = naive_run(values, preds, lo, rule)
            assert (ledger.payoff, ledger.steps_used, ledger.stopped_early, ledger.stop_cause) == expected


@st.composite
def value_rows(draw):
    """A ``(rows, T)`` batch of +-1 bits as int8, or odd integers as int64 (the
    augmented families' entries), and a row-block size in entries that cuts it
    into at least two row blocks (see :func:`row_blocks_of`)."""
    rows = draw(st.integers(2, 24))
    T = 1 << draw(st.integers(0, 6))
    odd = draw(st.booleans())
    choices = [-5, -3, -1, 1, 3, 5] if odd else [-1, 1]
    flat = draw(st.lists(st.sampled_from(choices), min_size=rows * T, max_size=rows * T))
    values = np.array(flat, dtype=np.int64 if odd else np.int8).reshape(rows, T)
    return values, draw(st.integers(1, (rows - 1) * T))


@contextlib.contextmanager
def row_blocks_of(entries):
    """Shrink the one row-block rule so that the kernels walk several blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_BLOCK_ENTRIES", entries)
        yield


@settings(max_examples=80, deadline=None)
@given(value_rows(), st.integers(-12, -1), st.integers(1, 12), st.integers(1, 4))
def test_bettor_stages_match_staged_reference(batch, lower, upper, stages):
    values, entries = batch
    with row_blocks_of(entries):
        stops, payoffs, sums = _bettor_stages(values, lower, upper, stages)
    want = [staged_reference(row, lower, upper, stages) for row in values]
    assert stops.tolist() == [w[1] for w in want]
    assert payoffs.tolist() == [w[2] for w in want]
    assert sums.tolist() == values.sum(axis=1, dtype=np.int64).tolist()


def _wrap(row):
    return IntSequence(row) if row.dtype == np.int64 else BitSequence(row)


@settings(max_examples=80, deadline=None)
@given(value_rows())
def test_weighted_majority_kernel_matches_row_formula(batch):
    values, entries = batch
    eta = math.sqrt(8.0 * math.log(2.0) / values.shape[1])
    want = []
    for row in values:
        before = np.concatenate([[0], np.cumsum(row, dtype=np.int64)[:-1]]).astype(np.float64)
        want.append(float(np.sum(row * np.tanh(0.5 * eta * before))))
    with row_blocks_of(entries):
        assert _weighted_majority_payoffs(values).tolist() == want


@settings(max_examples=80, deadline=None)
@given(value_rows(), st.data())
def test_block_momentum_kernel_matches_row_formula(batch, data):
    values, entries = batch
    T = values.shape[1]
    block_len = data.draw(st.sampled_from([b for b in (1, 2, 4, 8) if T % b == 0]))
    want = []
    for row in values:
        h = [int(row[i : i + block_len].sum()) for i in range(0, T, block_len)]
        want.append(sum((1 if a >= 0 else -1) * b for a, b in zip(h, h[1:])))
    with row_blocks_of(entries):
        assert _block_momentum_payoffs(values, block_len).tolist() == want


@settings(max_examples=80, deadline=None)
@given(value_rows(), st.data())
def test_sign_of_prefix_kernel_matches_run_plan(batch, data):
    values, _ = batch
    T = values.shape[1]
    assume(T >= 2)
    x = data.draw(st.integers(1, T - 1))
    w = data.draw(st.integers(1, T - x))
    P = _prefix_at(values, [T - x - w, T - x, T])
    target = Interval(T - x, T, T)
    want = [run_plan(_wrap(r), sign_of_prefix_plan(_wrap(r), w, target)).payoff for r in values]
    assert _sign_bets(P[:, 1] - P[:, 0], P[:, 2] - P[:, 1]).tolist() == want


@settings(max_examples=80, deadline=None)
@given(value_rows(), st.integers(1, 12), st.sampled_from([0.25, 0.5, 1.0]))
def test_bettor_kernel_matches_staged_reference(batch, theta, alpha):
    assume(2 * alpha * theta >= 1)
    values, entries = batch
    lower, upper = _bettor_limits(theta, alpha)
    with row_blocks_of(entries):
        payoffs = _bettor_payoffs(values, lower, upper)
    want = [staged_reference(row, lower, upper, 1) for row in values]
    assert payoffs.tolist() == [payoff for _, _, (payoff,) in want]
    # The payoff alone tells how the run ended.
    causes = np.where(payoffs <= lower, "LOWER", np.where(payoffs >= upper, "UPPER", "EXHAUSTED"))
    assert causes.tolist() == [
        "EXHAUSTED" if stop < 0 else "LOWER" if payoff <= lower else "UPPER" for _, (stop,), (payoff,) in want
    ]


def test_inversion_bettor_is_a_one_row_kernel_call():
    theta, alpha = 4, 0.5
    lower, upper = _bettor_limits(theta, alpha)  # -2, +4
    for row, cause in [([-1, 1, -1, -1, 1, 1], "LOWER"), ([1, 1, -1, 1, 1, 1], "UPPER"), ([1, -1, 1, -1], "EXHAUSTED")]:
        seq = BitSequence(row)
        ledger = adaptive_inversion_bettor(seq, Interval(0, len(row), len(row)), theta, alpha)
        assert ledger.payoff == _bettor_payoffs(seq.values[None, :], lower, upper)[0]
        assert ledger.stop_cause.name == cause


class TestPlanValidation:
    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="length"):
            PredictionPlan(Interval(0, 4, 4), np.array([1, -1]))

    def test_values_must_be_signs(self):
        with pytest.raises(ConfigurationError, match="predictions"):
            PredictionPlan(Interval(0, 2, 4), np.array([1, 0]))

    def test_plan_array_read_only(self):
        plan = constant_plan(1, Interval(0, 4, 4))
        with pytest.raises(ValueError):
            plan.per_position[0] = -1

    def test_constant_value_validated(self):
        with pytest.raises(ConfigurationError, match="constant"):
            constant_plan(0, Interval(0, 4, 4))

    @pytest.mark.parametrize("limits", [(0, 5), (-5, 0), (1, 5), (-5, -1)])
    def test_stop_rule_limits(self, limits):
        with pytest.raises(ConfigurationError, match="stop rule"):
            StopRule(*limits)


class TestSignOfPrefix:
    HISTORY = BitSequence([1, 1, -1, 1, -1, -1, 1, 1])

    def test_follows_prefix_sign(self):
        plan = sign_of_prefix_plan(self.HISTORY, window=2, target=Interval(2, 4, 8))
        assert np.all(plan.per_position == 1)  # bits 0..2 sum to +2
        plan = sign_of_prefix_plan(self.HISTORY, window=2, target=Interval(6, 8, 8))
        assert np.all(plan.per_position == -1)  # bits 4..6 sum to -2

    def test_zero_prefix_bets_plus(self):
        plan = sign_of_prefix_plan(self.HISTORY, window=4, target=Interval(4, 6, 8))
        assert np.all(plan.per_position == 1)  # bits 0..4 sum to 0

    def test_ignores_bits_inside_target(self):
        flipped = BitSequence(np.concatenate([self.HISTORY.values[:4], -self.HISTORY.values[4:]]))
        a = sign_of_prefix_plan(self.HISTORY, window=4, target=Interval(4, 8, 8))
        b = sign_of_prefix_plan(flipped, window=4, target=Interval(4, 8, 8))
        assert np.array_equal(a.per_position, b.per_position)

    def test_needs_enough_history(self):
        with pytest.raises(ConfigurationError, match="history"):
            sign_of_prefix_plan(self.HISTORY, window=4, target=Interval(2, 4, 8))
        with pytest.raises(ConfigurationError, match="window"):
            sign_of_prefix_plan(self.HISTORY, window=0, target=Interval(2, 4, 8))


class TestWeightedMajority:
    def test_rate_and_guarantee_values(self):
        assert weighted_majority_rate(1024) == pytest.approx(math.sqrt(8 * math.log(2) / 1024))
        assert weighted_majority_guarantee(1024) == pytest.approx(math.sqrt(2048 * math.log(2)))
        with pytest.raises(ConfigurationError):
            weighted_majority_rate(0)

    def test_tracks_constant_sequence(self):
        seq = BitSequence(np.ones(1024, dtype=np.int8))
        expected = weighted_majority_expected_payoff(seq)
        assert 1024 - weighted_majority_guarantee(1024) <= expected <= 1024

    def test_guarantee_holds_on_adversarial_sequences(self):
        T = 512
        cases = [
            np.ones(T, dtype=np.int8),
            -np.ones(T, dtype=np.int8),
            np.tile([1, -1], T // 2).astype(np.int8),
            np.concatenate([np.ones(T // 2), -np.ones(T // 2)]).astype(np.int8),
        ]
        rng = np.random.default_rng(7)
        cases += [(2 * rng.integers(0, 2, size=T) - 1).astype(np.int8) for _ in range(50)]
        slack = weighted_majority_guarantee(T)
        for bits in cases:
            seq = BitSequence(bits)
            payoff = weighted_majority_expected_payoff(seq)
            assert payoff >= abs(seq.height()) - slack - 1e-9

    def test_randomized_runs_average_to_expectation(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=512, delta=0.3, base_len=8, seed=40)
        seq = BitSequence(generate_batch(spec, 1)[0])
        expected = weighted_majority_expected_payoff(seq)
        runs = np.array([weighted_majority_run(seq, rng=i) for i in range(400)])
        # Each run deviates by at most sqrt(T) in standard deviation.
        assert abs(runs.mean() - expected) < 5 * math.sqrt(512) / math.sqrt(400)

    def test_alternation_costs_exactly_the_hedge(self):
        # On 1, -1, 1, -1, ... the height before every odd position is 1, so
        # each of those positions loses tanh(eta/2) in expectation and the
        # even positions are free: total is -(T/2) * tanh(eta/2).
        T = 512
        seq = BitSequence(np.tile([1, -1], T // 2).astype(np.int8))
        expected = -(T / 2) * math.tanh(weighted_majority_rate(T) / 2)
        assert weighted_majority_expected_payoff(seq) == pytest.approx(expected)
        assert expected >= abs(seq.height()) - weighted_majority_guarantee(T)


class TestBlockMomentum:
    def test_hand_trace(self):
        seq = BitSequence([1, 1, 1, -1, -1, -1, 1, 1])
        # Block heights 2, 0, -2, 2; bets +1, +1, -1 on the successors.
        assert block_momentum_payoff(seq, 2) == 0 + (-2) + (-2)

    def test_single_block_has_no_history(self):
        seq = BitSequence([1, -1, 1, 1])
        assert block_momentum_payoff(seq, 4) == 0

    def test_block_len_must_divide(self):
        seq = BitSequence([1, -1, 1, 1])
        with pytest.raises(ConfigurationError, match="block_len"):
            block_momentum_payoff(seq, 3)

    def test_momentum_pays_on_height_coupled_family(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=256, delta=0.3, base_len=8, seed=41)
        batch = generate_batch(spec, 300)
        payoffs = [block_momentum_payoff(BitSequence(row), 8) for row in batch]
        assert np.mean(payoffs) > 1.0


class TestAdaptiveInversionBettor:
    def test_limits_from_parameters(self):
        # theta=4, alpha=0.5: stop at -2 or +4.
        seq = BitSequence(np.ones(8, dtype=np.int8))
        ledger = adaptive_inversion_bettor(seq, Interval(0, 8, 8), theta=4, alpha=0.5)
        assert ledger == PayoffLedger(4, 4, StopCause.UPPER)

    def test_lower_stop_detects_opposite_excursion(self):
        seq = BitSequence([-1, 1, -1, -1, 1, 1, 1, 1])
        ledger = adaptive_inversion_bettor(seq, Interval(0, 8, 8), theta=4, alpha=0.5)
        assert ledger == PayoffLedger(-2, 4, StopCause.LOWER)

    def test_degenerate_limits_rejected(self):
        seq = BitSequence(np.ones(8, dtype=np.int8))
        with pytest.raises(ConfigurationError, match="limits"):
            adaptive_inversion_bettor(seq, Interval(0, 8, 8), theta=1, alpha=0.3)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        seq = BitSequence(np.ones(8, dtype=np.int8))
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            adaptive_inversion_bettor(seq, Interval(0, 8, 8), theta=4, alpha=alpha)

    @pytest.mark.parametrize("theta, alpha, match", [
        (8, 1e308, "too large"), (99999999999999999999, 0.25, "too large"), (2**64, 0.5, "too large"),
        (2**62, 1.0, "too large"), (10**400, 0.5, "theta must be finite"),
    ])
    def test_limits_past_int64_refused(self, theta, alpha, match):
        seq = BitSequence(np.ones(8, dtype=np.int8))
        with pytest.raises(ConfigurationError, match=match):
            adaptive_inversion_bettor(seq, Interval(0, 8, 8), theta=theta, alpha=alpha)

    def test_largest_limits_run(self):
        # The largest limits the rule allows, and a theta past float range that a
        # tiny alpha brings back: neither limit is reached, so the bet runs out.
        seq = IntSequence(np.full(8, (1 << 39) - 1))
        whole = Interval(0, 8, 8)
        assert _bettor_limits(2**61 - 2**9, 1.0) == (-(2**61 - 2**9), 2**62 - 2**10)
        ledger = adaptive_inversion_bettor(seq, whole, theta=2**61 - 2**9, alpha=1.0)
        assert ledger == PayoffLedger(8 * ((1 << 39) - 1), 8, StopCause.EXHAUSTED)
        assert _bettor_limits(2**1000, 2.0**-1000) == (-1, 2)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(theta=st.integers(1, 2**70), alpha=st.floats(0, 1e300), stages=st.integers(1, 64))
    def test_limits_are_the_ceilings_of_the_shares(self, theta, alpha, stages):
        # The one rule equals the bettor's (stages = 1) and the certifier's former
        # arithmetic wherever it returns, and refuses exactly where a limit is
        # below 1 or at least 2**62.
        upper = 2.0 * alpha * theta / stages
        if 1.0 <= upper < 2.0**62:
            assert _bettor_limits(theta, alpha, stages) == (-math.ceil(alpha * theta / stages), math.ceil(upper))
            if stages == 1:
                assert _bettor_limits(theta, alpha) == (-math.ceil(alpha * theta), math.ceil(2.0 * alpha * theta))
        else:
            with pytest.raises(ConfigurationError, match="limits"):
                _bettor_limits(theta, alpha, stages)

    def test_gamblers_ruin_on_uniform(self):
        # Limits -15/+30 on a symmetric walk: P(hit lower first) = 30/45 = 2/3.
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=8192, seed=43)
        batch = generate_batch(spec, 10_000)
        whole = Interval(0, 8192, 8192)
        causes = [
            adaptive_inversion_bettor(BitSequence(row), whole, theta=30, alpha=0.5).stop_cause
            for row in batch
        ]
        assert not any(c is StopCause.EXHAUSTED for c in causes)
        lower_share = np.mean([c is StopCause.LOWER for c in causes])
        assert 0.64 < lower_share < 0.69
