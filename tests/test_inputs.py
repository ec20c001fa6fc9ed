"""Every public callable refuses bad arguments with the package's typed errors.

``BAD_INPUTS`` holds, per public name, calls with a bad argument and the
typed error each must raise, with no warning on the way; ``NO_ARGUMENT_RULE``
names the callables none of the argument rules applies to, and why.  A public
callable in neither fails :func:`test_every_public_callable_is_listed`, so new
API comes with its bad inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import fractalwalk as fw
from fractalwalk import ConfigurationError, IntervalError, SequenceFormatError
from fractalwalk.errors import _real

SPEC = fw.GeneratorSpec("frw", 64, delta=0.1, base_len=8, seed=1)
SEQ = fw.BitSequence([1, -1, 1, 1, -1, 1, 1, 1])
WHOLE = fw.Interval(0, 64, 64)
FBM = fw.FbmParams(0.6, 64)
NAN = math.nan


def _written(tmp_path, name: str, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return path


# name -> calls on a temporary directory, each one bad argument away from a good
# call; a call must raise ConfigurationError, or the error paired with it.
BAD_INPUTS = {
    "make_rng": [lambda t: fw.make_rng(-1), lambda t: fw.make_rng(1.5), lambda t: fw.make_rng(1 << 64)],
    "derive_seed": [lambda t: fw.derive_seed(-1, "x"), lambda t: fw.derive_seed(1.5)],
    "derive_rng": [lambda t: fw.derive_rng(True)],
    "Interval": [(lambda t: fw.Interval(-1, 4, 8), IntervalError),
                 (lambda t: fw.Interval(0, 9, 8), IntervalError),
                 (lambda t: fw.Interval(2, 2, 4), IntervalError),
                 (lambda t: fw.Interval(0.5, 2, 4), IntervalError)],
    "BitSequence": [lambda t: fw.BitSequence([0, 1]), lambda t: fw.BitSequence([]),
                    lambda t: fw.BitSequence([257, -1]), lambda t: fw.BitSequence([1, -255]),
                    lambda t: fw.BitSequence([1.5, -1.0]), lambda t: fw.BitSequence([True, True]),
                    lambda t: fw.BitSequence(np.ones(4, bool)), lambda t: fw.BitSequence(np.array(["1", "-1"])),
                    lambda t: fw.BitSequence([True, 1]),
                    lambda t: fw.BitSequence(np.array([True, True], dtype=object)),
                    lambda t: fw.BitSequence(np.array([-128, 1], np.int8))],
    "IntSequence": [lambda t: fw.IntSequence([2, 1]), lambda t: fw.IntSequence([1.5, 3]),
                    lambda t: fw.IntSequence([2**64 + 1, 1]), lambda t: fw.IntSequence([1, 2**39 + 1]),
                    lambda t: fw.IntSequence([True, 3])],
    "atomic_write_bytes": [(lambda t: fw.atomic_write_bytes(t / "missing" / "x", b""), OSError)],
    "read_binary": [(lambda t: fw.read_binary(_written(t, "bad.fwsq", b"junk")), SequenceFormatError)],
    "read_csv": [(lambda t: fw.read_csv(_written(t, "bad.csv", b"1\nx\n")), SequenceFormatError),
                 (lambda t: fw.read_csv(_written(t, "big.csv", b"1\n99999999999999999999\n")), SequenceFormatError)],
    "loads": [(lambda t: fw.loads(b"FWSQ"), SequenceFormatError)],
    "dumps": [lambda t: fw.dumps(5), lambda t: fw.dumps(SEQ.values)],
    "GeneratorSpec": [
        lambda t: fw.GeneratorSpec("bogus", 64),
        lambda t: fw.GeneratorSpec("uniform", 24),
        lambda t: fw.GeneratorSpec("frw", 64, delta=NAN),
        lambda t: fw.GeneratorSpec("frw", 64, delta="0.1"),
        lambda t: fw.GeneratorSpec("frw", 64, base_len=3),
        lambda t: fw.GeneratorSpec("uniform", 64, flip_mode="bogus"),
        lambda t: fw.GeneratorSpec("entropy_conditioned", 64, k=math.inf),
        lambda t: fw.GeneratorSpec("uniform", 64, seed=-1),
        lambda t: fw.GeneratorSpec("entropy_conditioned", 64, k=1e308),
    ],
    "default_base_len": [lambda t: fw.default_base_len("bogus", 64),
                         lambda t: fw.default_base_len(fw.Family.FRW, 0)],
    "entropy_threshold": [lambda t: fw.entropy_threshold(NAN, 16),
                          lambda t: fw.entropy_threshold(1.0, 0),
                          lambda t: fw.entropy_threshold(1e308, 64)],
    "generate_batch": [lambda t: fw.generate_batch(SPEC, 2.0),
                       lambda t: fw.generate_batch(SPEC, 10, planted_prefix=64),
                       lambda t: fw.generate_batch(SPEC, 10, planted_prefix=3),
                       lambda t: fw.generate_batch(3, 4)],
    "generate": [lambda t: fw.generate(3)],
    "iter_generate_batches": [lambda t: fw.iter_generate_batches(SPEC, 10, chunk=-3),
                              lambda t: fw.iter_generate_batches(SPEC, 10, chunk=0),
                              lambda t: fw.iter_generate_batches(SPEC, 1.5),
                              lambda t: fw.iter_generate_batches(SPEC, 10, planted_prefix=3),
                              lambda t: fw.iter_generate_batches("frw", 10)],
    "simulate_heights": [lambda t: fw.simulate_heights(SPEC, 1.5),
                         lambda t: fw.simulate_heights(SPEC, 1 << 40),
                         lambda t: fw.simulate_heights(None, 10)],
    "FractalParams": [lambda t: fw.FractalParams(0.7, 10),
                      lambda t: fw.FractalParams(0.3, 4.0)],
    "solve_theta": [lambda t: fw.solve_theta(0.51), lambda t: fw.solve_theta(NAN)],
    "theta_residual": [lambda t: fw.theta_residual(0.2, 0.0),
                       lambda t: fw.theta_residual(NAN, 0.5)],
    "build_fractal": [lambda t: fw.build_fractal(fw.FractalParams(0.5, 1 << 20))],
    "fractal_length": [lambda t: fw.fractal_length(3)],
    "split_points": [lambda t: fw.split_points(3)],
    "measured_exponent": [lambda t: fw.measured_exponent(fw.FractalParams(0.3, 1))],
    "FbmParams": [lambda t: fw.FbmParams(0.5, 2.5),
                  lambda t: fw.FbmParams(1.0, 8),
                  lambda t: fw.FbmParams(0.5, 8, seed=-1)],
    "fbm_cov": [lambda t: fw.fbm_cov(1.0, 2.0, 1.5)],
    "fbm_cov_matrix": [lambda t: fw.fbm_cov_matrix(2.0, 8),
                       lambda t: fw.fbm_cov_matrix(0.5, 0)],
    "fbm_sample_batch": [lambda t: fw.fbm_sample_batch(FBM, 0),
                         lambda t: fw.fbm_sample_batch(FBM, 1 << 40),
                         lambda t: fw.fbm_sample_batch(FBM, 10, times=(65,)),
                         lambda t: fw.fbm_sample_batch(fw.FbmParams(1 - 1e-8, 1024), 10),
                         lambda t: fw.fbm_sample_batch(3, 10)],
    "sign_predictor_closed_form": [lambda t: fw.sign_predictor_closed_form(0.0, 16, 1.0),
                                   lambda t: fw.sign_predictor_closed_form(0.6, 0, 1.0),
                                   lambda t: fw.sign_predictor_closed_form(0.6, 16, NAN)],
    "fbm_sign_predictor_payoff": [lambda t: fw.fbm_sign_predictor_payoff(FBM, 0, 1),
                                  lambda t: fw.fbm_sign_predictor_payoff(FBM, 16, 1.5),
                                  lambda t: fw.fbm_sign_predictor_payoff(FBM, 16, 4),
                                  lambda t: fw.fbm_sign_predictor_payoff(3, 16, 1)],
    "StopRule": [lambda t: fw.StopRule(0, 5), lambda t: fw.StopRule(-1, 0.5), lambda t: fw.StopRule(-2**70, 5),
                 lambda t: fw.StopRule(-1, 2**63)],
    "PredictionPlan": [lambda t: fw.PredictionPlan(fw.Interval(0, 2, 4), np.array([1, 0])),
                       lambda t: fw.PredictionPlan(fw.Interval(0, 2, 4), np.array([257, -1])),
                       lambda t: fw.PredictionPlan(fw.Interval(0, 2, 4), np.array([1.5, -1.0])),
                       lambda t: fw.PredictionPlan(fw.Interval(0, 2, 4), [257, -1]),
                       lambda t: fw.PredictionPlan("1", [1]),
                       lambda t: fw.PredictionPlan(fw.Interval(0, 2, 4), [1, -1], stop_rule=(-1, 5))],
    "run_plan": [(lambda t: fw.run_plan(SEQ, fw.constant_plan(1, fw.Interval(0, 4, 4))), IntervalError)],
    "constant_plan": [lambda t: fw.constant_plan(0, WHOLE), lambda t: fw.constant_plan(True, WHOLE),
                      lambda t: fw.constant_plan(1, "1")],
    "sign_of_prefix_plan": [lambda t: fw.sign_of_prefix_plan(SEQ, 0, fw.Interval(4, 8, 8)),
                            lambda t: fw.sign_of_prefix_plan(SEQ, 5, fw.Interval(4, 8, 8))],
    "weighted_majority_rate": [lambda t: fw.weighted_majority_rate(0)],
    "weighted_majority_guarantee": [lambda t: fw.weighted_majority_guarantee(-1)],
    "weighted_majority_expected_payoff": [lambda t: fw.weighted_majority_expected_payoff([1, 1])],
    "weighted_majority_run": [lambda t: fw.weighted_majority_run(SEQ, rng=-1)],
    "block_momentum_payoff": [lambda t: fw.block_momentum_payoff(SEQ, 3),
                              lambda t: fw.block_momentum_payoff(SEQ, 0)],
    "adaptive_inversion_bettor": [
        lambda t: fw.adaptive_inversion_bettor(SEQ, fw.Interval(0, 8, 8), 1, 0.3),
        lambda t: fw.adaptive_inversion_bettor(SEQ, fw.Interval(0, 8, 8), 0, 0.5),
        lambda t: fw.adaptive_inversion_bettor(SEQ, fw.Interval(0, 8, 8), 4, NAN),
        lambda t: fw.adaptive_inversion_bettor(SEQ, fw.Interval(0, 8, 8), 2**64, 0.5),
        lambda t: fw.adaptive_inversion_bettor(SEQ, fw.Interval(0, 8, 8), 4, 1e308),
    ],
    "deviation_stats": [lambda t: fw.deviation_stats(SPEC, [64], 99),
                        lambda t: fw.deviation_stats(SPEC, [], 100),
                        lambda t: fw.deviation_stats(SPEC, [64, 64], 100),
                        lambda t: fw.deviation_stats(SPEC, [24], 100),
                        lambda t: fw.deviation_stats("frw", [64], 100)],
    "afrw_moment_oracle": [lambda t: fw.afrw_moment_oracle(0.1, -1, 2),
                           lambda t: fw.afrw_moment_oracle(1.5, 16, 2),
                           lambda t: fw.afrw_moment_oracle(0.1, 16, 2.5)],
    "exact_height_law": [lambda t: fw.exact_height_law(SPEC)],
    "upper_bound_rms": [lambda t: fw.upper_bound_rms(0.1, 2.0),
                        lambda t: fw.upper_bound_rms(0.1, 1000),
                        lambda t: fw.upper_bound_rms(NAN, 64)],
    "ideal_height_distribution": [lambda t: fw.ideal_height_distribution(0.1, -1),
                                  lambda t: fw.ideal_height_distribution(0.1, 6),
                                  lambda t: fw.ideal_height_distribution(1.5, 2)],
    "decomposition_height_distribution": [
        lambda t: fw.decomposition_height_distribution(Fraction(1, 4), 5),
        lambda t: fw.decomposition_height_distribution(NAN, 2),
    ],
    "total_variation": [lambda t: fw.total_variation(1, 2)],
    "distribution_moment": [lambda t: fw.distribution_moment({Fraction(1): Fraction(1)}, 1.5)],
    "height_moment_checks": [lambda t: fw.height_moment_checks(np.array([]))],
    "inversion_ratio": [lambda t: fw.inversion_ratio(SEQ, 0),
                        lambda t: fw.inversion_ratio(SEQ, 9),
                        lambda t: fw.inversion_ratio(fw.BitSequence(np.ones(1 << 15))),
                        lambda t: fw.inversion_ratio(5), lambda t: fw.inversion_ratio(SEQ.values)],
    "inversion_ratio_naive_batch": [lambda t: fw.inversion_ratio_naive_batch(SEQ.values[None, :], 0)],
    "alpha_q_estimate": [lambda t: fw.alpha_q_estimate(SPEC, WHOLE, 0.2, 999),
                         lambda t: fw.alpha_q_estimate(SPEC, WHOLE, NAN, 1000),
                         lambda t: fw.alpha_q_estimate(SPEC, fw.Interval(0, 8, 8), 0.2, 1000),
                         lambda t: fw.alpha_q_estimate(3, WHOLE, 0.2, 1000),
                         lambda t: fw.alpha_q_estimate(SPEC, (0, 64), 0.2, 1000)],
    "estimate_delta": [lambda t: fw.estimate_delta(SPEC, "bogus", 1000),
                       lambda t: fw.estimate_delta(SPEC, "strict", 999),
                       lambda t: fw.estimate_delta(fw.GeneratorSpec("frw", 64, delta=0.1, base_len=64), "strict",
                                                   1000),
                       lambda t: fw.estimate_delta("x", "strict", 1000)],
    "certify_inversion": [lambda t: fw.certify_inversion(SPEC, WHOLE, 0, 1, 100),
                          lambda t: fw.certify_inversion(SPEC, WHOLE, 32, 0, 100),
                          lambda t: fw.certify_inversion(SPEC, WHOLE, 32, 1, 1.5),
                          lambda t: fw.certify_inversion(SPEC, WHOLE, 32, 1, 100, alpha=NAN),
                          lambda t: fw.certify_inversion(SPEC, WHOLE, 4, 1, 100, alpha=0.2),
                          lambda t: fw.certify_inversion(SPEC, WHOLE, 32, 1, 100, alpha=1e308),
                          lambda t: fw.certify_inversion(SPEC, WHOLE, 2**64, 1, 100),
                          lambda t: fw.certify_inversion(None, WHOLE, 32, 1, 100),
                          lambda t: fw.certify_inversion(SPEC, range(64), 32, 1, 100)],
    "run_criterion": [lambda t: fw.run_criterion("bogus")],
    "run_all": [lambda t: fw.run_all(names=["bogus"])],
}

NO_ARGUMENT_RULE = {
    **dict.fromkeys(["ConfigurationError", "IntervalError", "SequenceFormatError", "SamplingBudgetError"],
                    "exception types"),
    **dict.fromkeys(["Family", "FlipMode", "StopCause", "EstimationMode"],
                    "enum types; the entry points coerce their values through errors._enum"),
    **dict.fromkeys(["MergeCounters", "Generated", "PayoffLedger", "DeviationRow", "DeviationReport",
                     "MomentChecks", "InversionReport", "UnpredictabilityRow", "UnpredictabilityReport",
                     "CertificationReport", "CriterionResult"], "result records the package builds"),
    "format_result": "formats a CriterionResult",
}

CASES = [(name, i, *(case if isinstance(case, tuple) else (case, ConfigurationError)))
         for name, calls in BAD_INPUTS.items() for i, case in enumerate(calls)]


def test_every_public_callable_is_listed():
    public = {name for name in fw.__all__ if callable(getattr(fw, name))}
    assert not set(BAD_INPUTS) & set(NO_ARGUMENT_RULE)
    assert set(BAD_INPUTS) | set(NO_ARGUMENT_RULE) == public


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, i, call, error", CASES, ids=[f"{name}-{i}" for name, i, _, _ in CASES])
def test_bad_input_raises_typed_error(tmp_path, name, i, call, error):
    with pytest.raises(error):
        call(tmp_path)


def test_an_int_beyond_float_range_is_not_finite():
    # float(10**400) overflows; the real-number rule reads it as an infinity.
    with pytest.raises(ConfigurationError, match="x must be finite, got 1000"):
        _real(10**400, "x")
