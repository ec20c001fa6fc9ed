"""Self-contained acceptance checks covering every headline property of the package.

Each check is a function returning ``(passed, detail)``; :func:`run_criterion`
wraps one in a timed :class:`CriterionResult` and :func:`run_all` executes the
full battery.  Checks are independent (no shared state), use fixed derived
seeds, and print one line each through :func:`format_result`.

``quick=True`` cuts Monte Carlo trial counts roughly tenfold, never below
1000 and never above the full count, and doubles the noise-bound tolerances
where a threshold is statistical rather than exact; the exact-arithmetic
checks and the cheap height-only criterion 5 are unchanged.  Quick mode is a
smoke test, not a substitute for the full battery.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analysis, fbm, fractal, laws, predictors
from .errors import ConfigurationError
from .generators import Family, GeneratorSpec, _map_batches, simulate_heights
from .seeding import derive_rng, derive_seed
from .sequences import MAX_TOTAL_LEN, BitSequence, Interval

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all", "format_result"]

ACCEPTANCE_SEED = 1729


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _spec(family: Family, total_len: int, label: str, **kw) -> GeneratorSpec:
    seed = derive_seed(ACCEPTANCE_SEED, label, family.value, total_len)
    return GeneratorSpec(family, total_len, seed=seed, **kw)


def _scale(trials: int, quick: bool) -> int:
    return min(trials, max(1000, trials // 10)) if quick else trials


# --- 1 -----------------------------------------------------------------------


def check_afrw_exact_moment(quick: bool = False) -> tuple[bool, str]:
    """Monte Carlo RMS of the augmented walk matches its closed-form second moment."""
    T, l = 1 << 14, 16
    depth = int(math.log2(T // l))
    trials = _scale(10_000, quick)
    tol = 0.06 if quick else 0.03
    worst = 0.0
    lines = []
    for delta in (0.05, 0.1):
        spec = _spec(Family.AFRW, T, "afrw-moment", delta=delta, base_len=l)
        h = simulate_heights(spec, trials)
        rms = float(np.sqrt(np.mean(h.astype(np.float64) ** 2)))
        target = math.sqrt(laws.afrw_moment_oracle(delta, l, depth))
        rel = abs(rms / target - 1.0)
        worst = max(worst, rel)
        lines.append(f"delta={delta}: rms={rms:.1f} target={target:.1f} rel={rel:.4f}")
    return worst <= tol, "; ".join(lines) + f" (tol {tol})"


# --- 2 -----------------------------------------------------------------------


def check_recursion_decomposition_equivalence(quick: bool = False) -> tuple[bool, str]:
    """Exact enumeration: merge recursion vs closed-form block decomposition."""
    max_depth = 3 if quick else 4
    worst_tv = Fraction(0)
    moment_ok = True
    for delta in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        for depth in range(1, max_depth + 1):
            via_recursion = laws.ideal_height_distribution(delta, depth)
            via_blocks = laws.decomposition_height_distribution(delta, depth)
            worst_tv = max(worst_tv, laws.total_variation(via_recursion, via_blocks))
            m2 = laws.distribution_moment(via_recursion, 2)
            oracle = laws.afrw_moment_oracle(float(delta), 1, depth)
            moment_ok = moment_ok and abs(float(m2) - oracle) <= 1e-9 * max(oracle, 1.0)
    passed = worst_tv <= Fraction(1, 10**9) and moment_ok
    detail = f"max TV={float(worst_tv):.2e} (exact), moments agree={moment_ok}, depth<= {max_depth}"
    return passed, detail


# --- 3 -----------------------------------------------------------------------


def check_uniform_null(quick: bool = False) -> tuple[bool, str]:
    """Uniform walk: square-root deviation exponent and no predictability signal."""
    trials = _scale(10_000, quick)
    exp_tol = 0.04 if quick else 0.02
    hat_tol = 0.10 if quick else 0.05
    T_list = [1 << k for k in range(10, 17)]
    spec = _spec(Family.UNIFORM, 1 << 16, "uniform-null")
    report = analysis.deviation_stats(spec, T_list, trials)
    exponent = report.fitted_exponent
    spec14 = _spec(Family.UNIFORM, 1 << 14, "uniform-null-delta")
    hats = {
        mode: analysis.estimate_delta(spec14, mode, trials).delta_hat
        for mode in ("weak_averaged", "strict")
    }
    passed = abs(exponent - 0.5) <= exp_tol and all(v <= hat_tol for v in hats.values())
    detail = (
        f"exponent={exponent:.4f} (want 0.50+-{exp_tol}); "
        + ", ".join(f"{m} delta_hat={v:.4f}" for m, v in hats.items())
        + f" (cap {hat_tol})"
    )
    return passed, detail


# --- 4 -----------------------------------------------------------------------


def check_frw_exponent_monotone(quick: bool = False) -> tuple[bool, str]:
    """Height-coupled flips push the deviation exponent strictly above 1/2."""
    trials = _scale(10_000, quick)
    T_list = [1 << k for k in range(10, 17)]
    exps = {}
    for delta in (0.0, 0.05, 0.1):
        spec = _spec(Family.FRW, 1 << 16, "frw-exponent", delta=delta)
        exps[delta] = analysis.deviation_stats(spec, T_list, trials).fitted_exponent
    gap = exps[0.1] - exps[0.0]
    passed = exps[0.0] < exps[0.05] < exps[0.1] and gap >= 0.02
    detail = ", ".join(f"delta={d}: {e:.4f}" for d, e in exps.items()) + f"; gap={gap:.4f} (>=0.02)"
    return passed, detail


# --- 5 -----------------------------------------------------------------------


def check_optfrw_deviation_growth(quick: bool = False) -> tuple[bool, str]:
    """Sqrt-budget flips grow median deviation faster than sqrt(T) by a log factor."""
    # Heights only, about 0.1 s at full trials: quick mode keeps them, because
    # its threshold is not loosened and 1000 trials fall short of it.
    del quick
    trials = 10_000
    T_list = [1 << k for k in range(10, 17)]
    spec = _spec(Family.OPT_FRW, 1 << 16, "optfrw-growth", delta=0.1)
    report = analysis.deviation_stats(spec, T_list, trials)
    y = np.array([r.median_dev / math.sqrt(r.total_len) for r in report.rows])
    x = np.log2([r.total_len for r in report.rows])
    slope, stderr = analysis._ols(x, y)
    sigmas = slope / stderr if stderr > 0 else math.inf
    passed = slope > 0 and sigmas >= 3.0
    detail = f"slope={slope:.4f} per doubling, {sigmas:.1f} sigma (need >0 at 3 sigma)"
    return passed, detail


# --- 6 -----------------------------------------------------------------------


def check_rms_upper_bound(quick: bool = False) -> tuple[bool, str]:
    """Measured RMS never exceeds the ceiling implied by measured unpredictability."""
    trials = _scale(10_000, quick)
    T_list = [1 << k for k in range(10, 17)]
    cells = [
        (Family.UNIFORM, 0.0),
        (Family.FRW, 0.0),
        (Family.FRW, 0.05),
        (Family.FRW, 0.1),
        (Family.OPT_FRW, 0.1),
    ]
    lines = []
    passed = True
    for family, delta in cells:
        kw = {"delta": delta} if family is not Family.UNIFORM else {}
        hat = analysis.estimate_delta(
            _spec(family, 1 << 14, "rms-bound-hat", **kw), "weak_averaged", trials
        ).delta_hat
        report = analysis.deviation_stats(_spec(family, 1 << 16, "rms-bound-dev", **kw), T_list, trials)
        slack = min(
            laws.upper_bound_rms(8.0 * hat + 0.05, r.total_len) / r.rms_dev for r in report.rows
        )
        passed = passed and slack >= 1.0
        lines.append(f"{family.value}(d={delta}): hat={hat:.3f} min bound/rms={slack:.2f}")
    return passed, "; ".join(lines)


# --- 7 -----------------------------------------------------------------------


def check_optfrw_unpredictability(quick: bool = False) -> tuple[bool, str]:
    """Worst-case-conditioned payoff of the sqrt-budget family stays O(delta)."""
    trials = _scale(10_000, quick)
    lines = []
    passed = True
    for delta in (0.02, 0.05, 0.1):
        spec = _spec(Family.OPT_FRW, 1 << 14, "optfrw-unpred", delta=delta)
        hat = analysis.estimate_delta(spec, "strict", trials).delta_hat
        ok = hat <= 8.0 * delta
        passed = passed and ok
        lines.append(f"delta={delta}: hat={hat:.4f} ({hat / delta:.2f}x, cap 8x)")
    return passed, "; ".join(lines)


# --- 8 -----------------------------------------------------------------------


def check_entropy_predictable(quick: bool = False) -> tuple[bool, str]:
    """Height-conditioned sampling is predictable: sign-of-first-half wins k*sqrt(T)-scale payoff."""
    T, k = 1 << 10, 2.0
    trials = _scale(10_000, quick)
    spec = _spec(Family.ENTROPY_CONDITIONED, T, "entropy-pred", k=k)
    report = analysis.estimate_delta(spec, "weak_averaged", trials)
    half = T // 2
    row = next(
        r for r in report.rows if r.window == half and r.interval_lo == half and r.interval_len == half
    )
    floor = 0.1 * k * math.sqrt(T)
    passed = row.mean_payoff >= floor
    detail = f"sign-of-first-half payoff={row.mean_payoff:.1f} (floor {floor:.1f})"
    return passed, detail


# --- 9 -----------------------------------------------------------------------


def check_frw_per_bit_payoff(quick: bool = False) -> tuple[bool, str]:
    """Weighted-majority payoff on singleton-block walks grows linearly in delta*T."""
    delta = 0.1
    trials = _scale(500, quick)
    T_list = [1 << 12, 1 << 13, 1 << 14]
    y = []
    for T in T_list:
        spec = _spec(Family.FRW, T, "frw-per-bit", delta=delta, base_len=1)
        (pay,) = _map_batches(spec, trials, derive_rng(spec.seed, "wm"),
                              lambda p: (predictors._weighted_majority_payoffs(p),))
        y.append(float(pay.sum()) / trials)
    f = np.array([delta * T for T in T_list])
    y = np.array(y)
    c = float((f @ y) / (f @ f))
    r2 = 1.0 - float(np.sum((y - c * f) ** 2) / np.sum(y**2))
    passed = c > 0 and r2 >= 0.9
    detail = (
        "payoffs=" + "/".join(f"{v:.0f}" for v in y) + f" at T=4096/8192/16384; c'={c:.3f}, R^2={r2:.3f}"
    )
    return passed, detail


# --- 10 ----------------------------------------------------------------------


def check_theta_solver(quick: bool = False) -> tuple[bool, str]:
    """Self-similarity exponent solver hits closed-form anchors and tiny residuals."""
    del quick
    a1 = abs(fractal.solve_theta(0.0) - 1.0)
    a2 = abs(fractal.solve_theta(1.0 / 3.0) - 0.5)
    grid = np.linspace(0.025, 0.5, 20)
    worst = max(abs(fractal.theta_residual(a, fractal.solve_theta(a))) for a in grid)
    passed = a1 <= 1e-9 and a2 <= 1e-9 and worst < 1e-10
    detail = f"anchor errors {a1:.1e}, {a2:.1e}; max grid residual {worst:.1e}"
    return passed, detail


# --- 11 ----------------------------------------------------------------------


def check_fractal_builder(quick: bool = False) -> tuple[bool, str]:
    """Deterministic fractal: exact heights, inverting on dyadic windows, length exponent ~ 1/theta."""
    del quick
    # Steeper alpha means length ~ h**(1/theta) with 1/theta ~ 2.9 at alpha=0.5,
    # so that column's grid stops at 2**8 to stay under the sequence-length cap.
    grid = {
        0.1: (1 << 6, 1 << 8, 1 << 10),
        0.2: (1 << 6, 1 << 8, 1 << 10),
        1.0 / 3.0: (1 << 6, 1 << 8, 1 << 10),
        0.5: (1 << 6, 1 << 7, 1 << 8),
    }
    exact = True
    cells = 0
    for alpha, heights in grid.items():
        for h in heights:
            p = fractal.FractalParams(alpha, h)
            expected_len = fractal.fractal_length(p)
            assert expected_len <= MAX_TOTAL_LEN
            seq = fractal.build_fractal(p)
            exact = exact and int(seq.values.sum()) == h and len(seq) == expected_len
            cells += 1

    params = fractal.FractalParams(1.0 / 3.0, 1 << 10)
    seq = fractal.build_fractal(params)
    ratio = analysis.inversion_ratio(seq, dyadic_only=True).overall_ratio
    ratio_ok = ratio >= 0.9 * (1.0 / 3.0)

    h_big = 1 << 14
    exp_ok = True
    exps = []
    for alpha in (0.1, 0.2, 1.0 / 3.0):
        p = fractal.FractalParams(alpha, h_big)
        measured = fractal.measured_exponent(p)
        target = 1.0 / p.theta
        exps.append(f"a={alpha:.2f}: {measured:.3f} vs {target:.3f}")
        exp_ok = exp_ok and abs(measured / target - 1.0) <= 0.15
    passed = exact and ratio_ok and exp_ok
    detail = (
        f"heights+lengths exact={exact} on {cells} cells; "
        f"dyadic ratio={ratio:.3f} (>=0.30); " + ", ".join(exps)
    )
    return passed, detail


# --- 12 ----------------------------------------------------------------------


def check_inversion_oracle(quick: bool = False) -> tuple[bool, str]:
    """Fast inversion scan is bit-for-bit equal to the interval-DP reference."""
    n = 12
    codes = np.arange(1 << n, dtype=np.int64)
    vals12 = (((codes[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int8)
    ref12 = analysis.inversion_ratio_dp_batch(vals12, analysis.DEFAULT_MIN_LEN)
    fast12 = np.array(
        [analysis.inversion_ratio(BitSequence(v)).overall_ratio for v in vals12]
    )
    eq12 = bool(np.all(fast12 == ref12))

    n_rand = 200 if quick else 1000
    rng = derive_rng(ACCEPTANCE_SEED, "inversion-oracle")
    vals64 = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_rand, 64))
    ref64 = analysis.inversion_ratio_dp_batch(vals64, analysis.DEFAULT_MIN_LEN)
    fast64 = np.array(
        [analysis.inversion_ratio(BitSequence(v)).overall_ratio for v in vals64]
    )
    eq64 = bool(np.all(fast64 == ref64))
    passed = eq12 and eq64
    detail = f"all 2^{n} length-{n}: {eq12}; {n_rand} random length-64: {eq64} (exact equality)"
    return passed, detail


# --- 13 ----------------------------------------------------------------------


def check_alpha_q_inversion(quick: bool = False) -> tuple[bool, str]:
    """Opposite-excursion probability is high, and climbs rarely escape the staged bettor."""
    trials = _scale(10_000, quick)
    T = 1 << 10
    window = Interval(T - 256, T, T)
    q_uniform = analysis.alpha_q_estimate(
        _spec(Family.UNIFORM, T, "alpha-q-uniform"), window, 0.2, trials
    )
    q_opt = analysis.alpha_q_estimate(
        _spec(Family.OPT_FRW, T, "alpha-q-opt", delta=0.1), window, 0.1, trials
    )

    spec = _spec(Family.OPT_FRW, T, "certify", delta=0.1)
    theta = int(np.median(np.abs(simulate_heights(spec, 2000, derive_rng(spec.seed, "median")))))
    cert = analysis.certify_inversion(
        spec, Interval(0, T, T), theta, s_iterations=4, trials=trials, alpha=0.4
    )
    escape = cert.p_no_inversion_given_high
    passed = q_uniform >= 0.5 and q_opt >= 0.5 and escape <= 0.25
    detail = (
        f"q(uniform,a=0.2)={q_uniform:.3f}, q(opt-frw,a=0.1)={q_opt:.3f} (>=0.5); "
        f"theta={theta}, s=4 escape-given-high={escape:.4f} (<=0.25)"
    )
    return passed, detail


# --- 14 ----------------------------------------------------------------------


def check_fbm(quick: bool = False) -> tuple[bool, str]:
    """Gaussian path covariance matches, and the sign bet earns its closed form, peaking at lag 1."""
    hurst, window = 0.6, 16
    cov_trials = _scale(20_000, quick)
    pay_trials = _scale(100_000, quick)
    cov_tol = 0.10 if quick else 0.05
    pay_tol = 0.20 if quick else 0.10

    params = fbm.FbmParams(hurst, 256, seed=derive_seed(ACCEPTANCE_SEED, "fbm"))
    times = (16, 64, 256)
    cols = fbm.fbm_sample_batch(params, cov_trials, derive_rng(params.seed, "cov"), times=times)
    worst_cov = 0.0
    for i, t in enumerate(times):
        for j, s in enumerate(times):
            emp = float(np.mean(cols[:, i] * cols[:, j]))
            worst_cov = max(worst_cov, abs(emp / fbm.fbm_cov(t, s, hurst) - 1.0))

    closed = fbm.sign_predictor_closed_form(hurst, window, 1)
    mc = fbm.fbm_sign_predictor_payoff(params, window, 1, pay_trials, derive_rng(params.seed, "pay"))
    pay_rel = abs(mc / closed - 1.0)
    lags = range(1, params.grid_len // window)
    argmax_lag = max(lags, key=lambda s: fbm.sign_predictor_closed_form(hurst, window, s))
    passed = worst_cov <= cov_tol and pay_rel <= pay_tol and argmax_lag == 1
    detail = (
        f"worst cov rel err={worst_cov:.3f} (<= {cov_tol}); payoff mc={mc:.3f} vs {closed:.3f} "
        f"(rel {pay_rel:.3f} <= {pay_tol}); best lag={argmax_lag} (want 1)"
    )
    return passed, detail


# --- 15 ----------------------------------------------------------------------


def check_moment_inequalities(quick: bool = False) -> tuple[bool, str]:
    """Cauchy-Schwarz floor, bounded kurtosis, anti-concentration on every family."""
    trials = _scale(10_000, quick)
    T = 1 << 12
    cells = [
        _spec(Family.UNIFORM, T, "moments"),
        _spec(Family.FRW, T, "moments", delta=0.1),
        _spec(Family.OPT_FRW, T, "moments", delta=0.1),
        _spec(Family.AFRW, T, "moments", delta=0.1),
        _spec(Family.AOFRW, T, "moments", delta=0.1),
        _spec(Family.ENTROPY_CONDITIONED, T, "moments", k=1.0),
    ]
    lines = []
    passed = True
    for spec in cells:
        checks = analysis.height_moment_checks(simulate_heights(spec, trials))
        ok = checks.cauchy_schwarz_ok and checks.fourth_moment_ratio <= 10.0 and checks.anti_concentration >= 0.1
        passed = passed and ok
        lines.append(
            f"{spec.family.value}: cs={checks.cauchy_schwarz_ok} "
            f"ratio={checks.fourth_moment_ratio:.2f} anti={checks.anti_concentration:.2f}"
        )
    return passed, "; ".join(lines)


# ---------------------------------------------------------------------------


CRITERIA: tuple[tuple[str, object], ...] = (
    ("afrw-exact-moment", check_afrw_exact_moment),
    ("recursion-decomposition-equivalence", check_recursion_decomposition_equivalence),
    ("uniform-null", check_uniform_null),
    ("frw-exponent-monotone", check_frw_exponent_monotone),
    ("optfrw-deviation-growth", check_optfrw_deviation_growth),
    ("rms-upper-bound", check_rms_upper_bound),
    ("optfrw-unpredictability", check_optfrw_unpredictability),
    ("entropy-predictable", check_entropy_predictable),
    ("frw-per-bit-payoff", check_frw_per_bit_payoff),
    ("theta-solver", check_theta_solver),
    ("fractal-builder", check_fractal_builder),
    ("inversion-oracle", check_inversion_oracle),
    ("alpha-q-inversion", check_alpha_q_inversion),
    ("fbm-checks", check_fbm),
    ("moment-inequalities", check_moment_inequalities),
)


def _check_named(name: str):
    """The check of the criterion ``name``, refused unless it is one of :data:`CRITERIA`'s names."""
    checks = dict(CRITERIA)
    if name not in checks:
        raise ConfigurationError(f"unknown criterion {name!r}; known: {list(checks)}")
    return checks[name]


def run_criterion(name: str, quick: bool = False) -> CriterionResult:
    fn = _check_named(name)
    start = time.perf_counter()
    passed, detail = fn(quick=quick)
    return CriterionResult(name, bool(passed), detail, time.perf_counter() - start)


def format_result(index: int, result: CriterionResult) -> str:
    flag = "PASS" if result.passed else "FAIL"
    return f"{flag}  {index:2d}. {result.name:<38s} [{result.elapsed:7.1f}s] {result.detail}"


def run_all(quick: bool = False, names: list[str] | None = None) -> list[CriterionResult]:
    for name in names or ():
        _check_named(name)
    results = []
    for i, (name, _fn) in enumerate(CRITERIA, start=1):
        if names is not None and name not in names:
            continue
        result = run_criterion(name, quick=quick)
        results.append(result)
        print(format_result(i, result))
    return results
