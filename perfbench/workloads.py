"""The benchmark's four workloads: seeded job lists and per-job output checks.

A workload is a closed loop with one client that runs a fixed, interleaved
job list.  The list is a number of rounds, each the same sequence of job kinds
with inputs drawn from the workload seed.  Rounds 0 and 1 share their inputs,
so every job kind of the in-process workloads is re-run once on the same seed
and must give an identical output; later rounds draw fresh inputs.  The CLI
workload pairs its jobs inside one round instead (repeated ``theta`` runs, the
``--from-manifest`` replays, and ``--parallelism`` 1 against 2).

Job shapes follow the acceptance battery (``fractalwalk.verify``), the
README and the timing table in ROADMAP.md; ``perfbench/README.md`` lists
the source of each and every job that runs a smaller size.  Statistical
checks use the battery's own closed forms and thresholds: a full-mode
tolerance only where the job runs at least the full trial count, and at the
quick-mode trial count only thresholds that quick mode does not relax.  Each was run on 80-200 seeds before it was kept.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Calls go through module attributes so that the traced pass, which patches
# the modules, sees them.
from fractalwalk import (
    BitSequence,
    FbmParams,
    FractalParams,
    GeneratorSpec,
    IntSequence,
    Interval,
    analysis,
    cli,
    fbm,
    fractal,
    generators,
    predictors,
    seqio,
)


@dataclass
class Job:
    """One unit of closed-loop work.

    ``run`` takes the worker context and returns the output that checks and
    determinism comparisons see.  ``check`` returns ``None`` or a failure
    message.  ``twin`` is the index of an earlier job in the plan that ran the
    same inputs and must have produced an identical output.
    """

    kind: str
    entries: int
    run: Callable[[object], object]
    check: Callable[[object], str | None] = lambda out: None
    twin: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    round_s: float  # nominal wall time of one round, sizes the plan to --seconds
    make_round: Callable[[dict, int, Path], list[Job]]
    setup: Callable[[int], dict] = lambda seed: {}


def derive(*parts: object) -> int:
    """Stable 64-bit seed from ``parts``; independent of the package's own derivation."""
    digest = hashlib.blake2b("|".join(map(repr, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def round_seed(seed: int, r: int) -> int:
    """Rounds 0 and 1 share their seed so that round 1 re-runs round 0."""
    return derive(seed, "round", max(r - 1, 0))


def plan(workload: Workload, seed: int, seconds: float, trace: int, out_dir: Path) -> tuple[list[Job], int]:
    """The workload's whole job list for a run of about ``seconds`` at baseline speed.

    A traced run does every job twice, so its round count is capped at half
    of the untraced one's; both caps keep the run inside ``WORK_BUDGET_S``.
    """
    cap = int(WORK_BUDGET_S // ((1 + trace) * workload.round_s))
    rounds = max(MIN_ROUNDS, min(round(seconds / workload.round_s), cap))
    state = workload.setup(seed)
    jobs: list[Job] = []
    for r in range(rounds):
        base = len(jobs)
        for i, job in enumerate(workload.make_round(state, round_seed(seed, r), out_dir / f"r{r}")):
            if job.twin is not None:
                job.twin += base
            elif r == 1:
                job.twin = i
            jobs.append(job)
    return jobs, rounds


# ---------------------------------------------------------------------------
# Shared checks


def _parity(heights: np.ndarray, T: int) -> str | None:
    bad = int(np.count_nonzero((heights - T) & 1))
    return f"{bad} heights with parity other than T={T}" if bad else None


def _first(*messages: str | None) -> str | None:
    return next((m for m in messages if m), None)


def _delta_job(kind: str, spec: GeneratorSpec, mode: str, trials: int, cap: float | None) -> Job:
    if mode == "strict":
        # One (trials, T) matrix per planted prefix length.
        entries = trials * spec.total_len * len(analysis._strict_prefix_lengths(spec, analysis.DEFAULT_MIN_LEN))
    else:
        entries = trials * spec.total_len

    def check(rep) -> str | None:
        if not rep.ci_low <= rep.ci_high:
            return f"bootstrap interval reversed: {rep.ci_low} > {rep.ci_high}"
        if cap is not None and rep.delta_hat > cap:
            return f"delta_hat {rep.delta_hat:.4f} above the battery cap {cap}"
        return None

    return Job(kind, entries, lambda ctx: analysis.estimate_delta(spec, mode, trials), check)


def _cli_in_process(kind: str, argv: list[str], out: Path, entries: int) -> Job:
    """A CLI command run through ``cli.run`` in the worker process."""

    def run(ctx) -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run([*argv, "--output-dir", str(out)])
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return (out / f"{argv[0]}.json").read_bytes()

    def check(data: bytes) -> str | None:
        payoff = json.loads(data)["mean_payoff"]
        return None if math.isfinite(payoff) else f"mean payoff {payoff}"

    return Job(kind, entries, run, check)


# ---------------------------------------------------------------------------
# mc_materialized


def _materialized_round(state: dict, s: int, out: Path) -> list[Job]:
    def spec(family, T, label, **kw):
        return GeneratorSpec(family, T, seed=derive(s, label), **kw)

    T14, T10 = 1 << 14, 1 << 10
    opt10 = spec("opt_frw", T10, "certify", delta=0.1)

    def certify(ctx):
        theta = int(np.median(np.abs(generators.simulate_heights(opt10, 2000, derive(s, "median")))))
        return analysis.certify_inversion(opt10, Interval(0, T10, T10), theta, 4, 1000, alpha=0.4)

    q_uniform = spec("uniform", T10, "alpha-q-uniform")
    q_opt = spec("opt_frw", T10, "alpha-q-opt", delta=0.1)
    window = Interval(T10 - 256, T10, T10)

    def alpha_q(ctx):
        # Criterion 13: both opposite-excursion probabilities, at its full trial count.
        return (analysis.alpha_q_estimate(q_uniform, window, 0.2, 10_000),
                analysis.alpha_q_estimate(q_opt, window, 0.1, 10_000))

    def alpha_q_check(qs) -> str | None:
        return None if min(qs) >= 0.5 else f"q_hat {qs} below 0.5"

    def wm_payoff(label, T, trials):
        # Criterion 9's shape: singleton-block frw walks scored by the exact
        # weighted-majority payoff over prefix sums.
        sp = spec("frw", T, label, delta=0.1, base_len=1)
        eta = predictors.weighted_majority_rate(T)

        def run(ctx):
            total, heights = 0.0, []
            for part in generators.iter_generate_batches(sp, trials, derive(s, label, "wm")):
                pref = np.zeros((part.shape[0], T + 1), dtype=np.int64)
                np.cumsum(part, axis=1, dtype=np.int64, out=pref[:, 1:])
                total += float((part * np.tanh(0.5 * eta * pref[:, :-1])).sum())
                heights.append(pref[:, -1])
            return total, np.concatenate(heights)

        return Job(label, trials * T, run, lambda out: _parity(out[1], T))

    afrw = spec("afrw", T10, "augment", delta=0.5, base_len=1)

    def augment_check(A) -> str | None:
        odd = int(np.count_nonzero((A & 1) == 0))
        return _first(f"{odd} even entries" if odd else None, _parity(A.sum(axis=1), T10))

    ent = spec("entropy_conditioned", T10, "entropy", k=2.0)

    def entropy_check(rep) -> str | None:
        half = T10 // 2
        row = next(r for r in rep.rows if r.window == half and r.interval_lo == half and r.interval_len == half)
        floor = 0.1 * 2.0 * math.sqrt(T10)
        return None if row.mean_payoff >= floor else f"sign-of-first-half payoff {row.mean_payoff:.1f} < {floor:.1f}"

    def escape_check(cert) -> str | None:
        e = cert.p_no_inversion_given_high
        return None if e <= 0.25 else f"escape-given-high {e:.4f} above 0.25"

    # The README's predict example, with a seed from the round.
    predict = ["predict", "--predictor", "weighted_majority", "--family", "frw", "--T", "8192", "--delta", "0.1",
               "--trials", "500", "--seed", str(derive(s, "wm"))]
    return [
        _delta_job("delta_strict_opt_frw", spec("opt_frw", T14, "strict-opt", delta=0.1), "strict", 1000, 0.8),
        Job("certify_inversion", 1000 * T10 + 2000 * T10, certify, escape_check),
        _cli_in_process("predict_weighted_majority", predict, out / "wm", 500 * 8192),
        wm_payoff("frw_bitwise_4k", 1 << 12, 500),
        _delta_job("delta_weak_uniform", spec("uniform", T14, "weak-uniform"), "weak_averaged", 1000, None),
        Job("afrw_augment", 200 * T10, lambda ctx: generators.generate_batch(afrw, 200), augment_check),
        # Each estimate runs a 1000-trial first pass before its 10k trials.
        Job("alpha_q", 2 * 11_000 * T10, alpha_q, alpha_q_check),
        _delta_job("delta_strict_uniform", spec("uniform", T14, "strict-uniform"), "strict", 1000, None),
        Job("entropy_weak", 1000 * T10,
            lambda ctx: analysis.estimate_delta(ent, "weak_averaged", 1000), entropy_check),
        wm_payoff("frw_bitwise_16k", 1 << 14, 100),
        _delta_job("delta_weak_opt_frw", spec("opt_frw", T14, "weak-opt", delta=0.1), "weak_averaged", 1000, None),
    ]


# ---------------------------------------------------------------------------
# mc_heights


def _heights_round(state: dict, s: int, out: Path) -> list[Job]:
    def spec(family, T, label, **kw):
        return GeneratorSpec(family, T, seed=derive(s, label), **kw)

    T12, T14 = 1 << 12, 1 << 14

    def heights(label, sp, trials, extra=None):
        def check(h) -> str | None:
            return _first(_parity(h, sp.total_len), extra(h) if extra else None)

        return Job(label, trials * sp.total_len, lambda ctx: generators.simulate_heights(sp, trials), check)

    def afrw_moment(label, T, delta, trials):
        # Criterion 1: RMS of the augmented walk against its closed form, with
        # the full-mode 0.03 tolerance.  At criterion 1's own T=2^14 the RMS
        # runs about 1.5% above the closed form, so the check is made at
        # T=2^10, where 40k trials keep it five standard errors from failing.
        sp = spec("afrw", T, label, delta=delta, base_len=16)
        target = math.sqrt(analysis.afrw_moment_oracle(delta, 16, int(math.log2(T // 16))))

        def extra(h):
            rel = abs(float(np.sqrt(np.mean(h.astype(np.float64) ** 2))) / target - 1.0)
            return None if rel <= 0.03 else f"rms off the oracle by {rel:.4f} > 0.03"

        return heights(label, sp, trials, extra)

    lengths = [1 << k for k in range(10, 17)]

    def devstats(label, family, deltas, check):
        specs = [spec(family, 1 << 16, label, delta=d) for d in deltas]
        entries = len(specs) * 10_000 * sum(lengths)
        return Job(label, entries, lambda ctx: [analysis.deviation_stats(sp, lengths, 10_000) for sp in specs], check)

    def rows_ok(reports) -> str | None:
        for rep in reports:
            for r in rep.rows:
                if not r.mean_dev <= r.rms_dev * (1 + 1e-12):
                    return f"mean {r.mean_dev} above rms {r.rms_dev} at T={r.total_len}"
        return None

    def uniform_exponent(reports) -> str | None:
        e = reports[0].fitted_exponent
        return _first(rows_ok(reports), None if abs(e - 0.5) <= 0.02 else f"uniform exponent {e:.4f} not 0.5+-0.02")

    def frw_monotone(reports) -> str | None:
        # Criterion 4: exponents strictly increase with delta, by 0.02 overall.
        e = [rep.fitted_exponent for rep in reports]
        ok = e[0] < e[1] < e[2] and e[2] - e[0] >= 0.02
        return _first(rows_ok(reports), None if ok else f"frw exponents {e} not increasing by 0.02")

    def moments(label, cells):
        specs = [spec(f, T12, label, **kw) for f, kw in cells]

        def run(ctx):
            return [analysis.height_moment_checks(generators.simulate_heights(sp, 10_000)) for sp in specs]

        def check(results) -> str | None:
            # Criterion 15 at its full trial count.
            for sp, c in zip(specs, results):
                if not (c.cauchy_schwarz_ok and c.fourth_moment_ratio <= 10.0 and c.anti_concentration >= 0.1):
                    return f"{sp.family.value}: cs={c.cauchy_schwarz_ok} ratio={c.fourth_moment_ratio:.2f} " \
                           f"anti={c.anti_concentration:.2f}"
            return None

        return Job(label, len(specs) * 10_000 * T12, run, check)

    # Criterion 8's spec.
    ent = spec("entropy_conditioned", 1 << 10, "entropy", k=2.0)
    thr = generators.entropy_threshold(2.0, 1 << 10)

    def above_threshold(h):
        low = int(np.count_nonzero(np.abs(h) < thr))
        return f"{low} heights below the threshold {thr}" if low else None

    return [
        afrw_moment("afrw_moment", 1 << 10, 0.05, 40_000),
        devstats("deviation_uniform", "uniform", [0.0], uniform_exponent),
        heights("heights_afrw_l1", spec("afrw", T12, "afrw-l1", delta=0.1, base_len=1), 1000),
        moments("moments_bit_families", [("uniform", {}), ("frw", {"delta": 0.1}), ("opt_frw", {"delta": 0.1})]),
        heights("heights_aofrw", spec("aofrw", T14, "aofrw", delta=0.1, base_len=16), 4000),
        heights("heights_entropy", ent, 10_000, above_threshold),
        heights("heights_afrw", spec("afrw", T14, "afrw", delta=0.1, base_len=16), 4000),
        devstats("deviation_frw", "frw", [0.0, 0.05, 0.1], frw_monotone),
        heights("heights_frw_l1", spec("frw", T12, "frw-l1", delta=0.1, base_len=1), 1000),
        moments("moments_other_families",
                [("afrw", {"delta": 0.1}), ("aofrw", {"delta": 0.1}), ("entropy_conditioned", {"k": 1.0})]),
        devstats("deviation_opt_frw", "opt_frw", [0.1], rows_ok),
        heights("heights_uniform", spec("uniform", 1 << 16, "uniform"), 10_000),
        heights("heights_opt_frw", spec("opt_frw", 1 << 16, "opt-frw", delta=0.1), 10_000),
    ]


# ---------------------------------------------------------------------------
# exact_kernels


def _exact_setup(seed: int) -> dict:
    # Integer sequences for the varint codec, as the augmented sampler emits them.
    sp = GeneratorSpec("afrw", 1 << 14, delta=0.1, seed=derive(seed, "afrw-pool"))
    return {"afrw": [IntSequence(row) for row in generators.generate_batch(sp, 4)]}


def _bits(s: int, label: str, shape) -> np.ndarray:
    rng = np.random.default_rng(derive(s, label))
    return (2 * rng.integers(0, 2, size=shape, dtype=np.int8) - 1).astype(np.int8)


def _exact_round(state: dict, s: int, out: Path) -> list[Job]:
    def scan(label, T):
        seq = BitSequence(_bits(s, label, T))

        def check(rep) -> str | None:
            if rep.y_interval is None:
                return None
            want = abs(rep.y_height) / abs(rep.x_height)
            return None if rep.overall_ratio == want else f"ratio {rep.overall_ratio} != |hY|/|hX| = {want}"

        return Job(label, T, lambda ctx: analysis.inversion_ratio(seq), check)

    def oracle(label, quarter):
        # Criterion 12: the fast scan, one call per length-12 input, against
        # the quadruple-loop reference.  Its 4096 inputs are split in four jobs.
        codes = np.arange(quarter << 10, (quarter + 1) << 10)
        vals = (((codes[:, None] >> np.arange(12)) & 1) * 2 - 1).astype(np.int8)
        n = len(vals)

        def run(ctx):
            fast = np.array([analysis.inversion_ratio(BitSequence(v)).overall_ratio for v in vals])
            return fast, analysis.inversion_ratio_naive_batch(vals, 8)

        def check(out) -> str | None:
            bad = int(np.count_nonzero(out[0] != out[1]))
            return f"{bad}/{n} fast ratios differ from the naive oracle" if bad else None

        return Job(label, 2 * n * 12, run, check)

    def fractal_dyadic(ctx):
        p = FractalParams(1.0 / 3.0, 1 << 10)
        seq = fractal.build_fractal(p)
        return seq.height(), len(seq), fractal.fractal_length(p), analysis.inversion_ratio(seq, dyadic_only=True).overall_ratio

    def fractal_dyadic_check(out) -> str | None:
        h, n, want_n, ratio = out
        return _first(None if (h, n) == (1 << 10, want_n) else f"height/length {h}/{n}, want {1 << 10}/{want_n}",
                      None if ratio >= 0.9 / 3.0 else f"dyadic ratio {ratio:.3f} below 0.30")

    grid = [(0.1, (1 << 6, 1 << 8, 1 << 10)), (0.2, (1 << 6, 1 << 8, 1 << 10)),
            (1.0 / 3.0, (1 << 6, 1 << 8, 1 << 10)), (0.5, (1 << 6, 1 << 7, 1 << 8))]
    cells = [FractalParams(a, h) for a, hs in grid for h in hs]

    def fractal_grid(ctx):
        return [(seq.height(), len(seq)) for seq in map(fractal.build_fractal, cells)]

    def fractal_grid_check(out) -> str | None:
        for p, (h, n) in zip(cells, out):
            if h != p.target_height or n != fractal.fractal_length(p):
                return f"alpha={p.alpha:.3f} h={p.target_height}: built height {h}, length {n}"
        return None

    # A fresh (hurst, grid_len) pair per round, so the first call factorises.
    rng = np.random.default_rng(derive(s, "hurst"))
    fresh = FbmParams(round(float(rng.uniform(0.3, 0.8)), 6), 2048, seed=derive(s, "fbm-fresh"))

    def fbm_cold(ctx):
        fbm._cholesky.cache_clear()
        return fbm.fbm_sample_batch(fresh, 200)

    def finite(paths) -> str | None:
        return None if np.all(np.isfinite(paths)) else "non-finite path values"

    cov_params = FbmParams(0.6, 256)
    times = np.array([16, 64, 256])

    def fbm_covariance(ctx):
        # Criterion 14's covariance check with its full-mode tolerance, over
        # five times its path count so that the check holds beyond one seed.
        rng = np.random.default_rng(derive(s, "fbm-cov-paths"))
        acc = np.zeros((3, 3))
        for _ in range(5):
            paths = fbm.fbm_sample_batch(cov_params, 20_000, rng)[:, times - 1]
            acc += paths.T @ paths
        return acc / 100_000

    def fbm_cov_check(emp) -> str | None:
        worst = max(abs(emp[i, j] / fbm.fbm_cov(t, u, 0.6) - 1.0) for i, t in enumerate(times) for j, u in enumerate(times))
        return None if worst <= 0.05 else f"worst covariance error {worst:.3f} above 0.05"

    closed = fbm.sign_predictor_closed_form(0.6, 16, 1)
    # The bet reads B(16) and B(32) only, so a 32-point grid has the same law
    # as criterion 14's 256; 5 x 100k paths keep the full-mode 0.10 tolerance
    # far (about 9 standard errors) from a false failure.
    pay_params = FbmParams(0.6, 32)

    def fbm_payoff(ctx):
        rng = np.random.default_rng(derive(s, "fbm-pay-paths"))
        return sum(fbm.fbm_sign_predictor_payoff(pay_params, 16, 1, 100_000, rng) for _ in range(5)) / 5

    def payoff_check(mc) -> str | None:
        rel = abs(mc / closed - 1.0)
        return None if rel <= 0.10 else f"sign payoff {mc:.3f} off the closed form {closed:.3f} by {rel:.3f}"

    bits = [BitSequence(b) for b in _bits(s, "seqio-bits", (4, 1 << 16))]
    ints = state["afrw"]

    def round_trip(seqs):
        def run(ctx):
            return [seqio.loads(seqio.dumps(q)) for q in seqs]

        def check(back) -> str | None:
            bad = sum(a != b for a, b in zip(seqs, back))
            return f"{bad} sequences changed in a dumps/loads round trip" if bad else None

        return run, check

    return [
        scan("scan_exhaustive_4k", 1 << 12),
        oracle("oracle_len12_a", 0),
        Job("fbm_cold_2048", 200 * 2048, fbm_cold, finite),
        Job("fractal_dyadic", 3 * (1 << 10), fractal_dyadic, fractal_dyadic_check),
        Job("seqio_bits", 2 * 4 * (1 << 16), *round_trip(bits)),
        Job("fbm_warm_2048", 2000 * 2048, lambda ctx: fbm.fbm_sample_batch(fresh, 2000, derive(s, "warm")), finite),
        scan("scan_exhaustive_8k", 1 << 13),
        oracle("oracle_len12_b", 1),
        Job("fbm_covariance", 100_000 * 256, fbm_covariance, fbm_cov_check),
        oracle("oracle_len12_c", 2),
        Job("fractal_grid", sum(fractal.fractal_length(p) for p in cells), fractal_grid, fractal_grid_check),
        Job("seqio_afrw", 2 * len(ints) * (1 << 14), *round_trip(ints)),
        oracle("oracle_len12_d", 3),
        Job("fbm_sign_payoff", 500_000 * 32, fbm_payoff, payoff_check),
    ]


# ---------------------------------------------------------------------------
# cli_sweep


SWEEP_FAMILIES, SWEEP_DELTAS, SWEEP_LENGTHS, SWEEP_TRIALS = ("uniform", "frw", "opt_frw"), ("0.05", "0.1"), (4096, 16384), 1000
SWEEP_CELLS = len(SWEEP_FAMILIES) * len(SWEEP_DELTAS) * len(SWEEP_LENGTHS)
# Each cell runs deviation_stats and weak-mode estimate_delta, trials x T entries each.
SWEEP_ENTRIES = len(SWEEP_FAMILIES) * len(SWEEP_DELTAS) * 2 * SWEEP_TRIALS * sum(SWEEP_LENGTHS)


def _cli_job(kind: str, argv: list[str], out: Path, files: list[str], entries: int, check=None) -> Job:
    """A fresh ``python -m fractalwalk`` process; its output is the bytes of ``files``."""

    def run(ctx) -> list[bytes]:
        rc = ctx.cli([*argv, "--output-dir", str(out)])
        if rc != 0:
            raise RuntimeError(f"fractalwalk {argv[0]} exited with {rc}")
        return [(out / f).read_bytes() for f in files]

    return Job(kind, entries, run, check or (lambda out: None))


def _theta_check(out) -> str | None:
    r = json.loads(out[0])["residual"]
    return None if abs(r) < 1e-10 else f"theta residual {r}"


def _sweep_pair(s: int, out: Path) -> list[Job]:
    argv = ["sweep", "--families", ",".join(SWEEP_FAMILIES), "--deltas", ",".join(SWEEP_DELTAS),
            "--T-list", ",".join(map(str, SWEEP_LENGTHS)), "--metrics", "deviation,delta_hat",
            "--trials", str(SWEEP_TRIALS), "--master-seed", str(derive(s, "sweep") >> 1)]

    def no_failures(files) -> str | None:
        failed = json.loads(files[1])
        return f"{len(failed)} sweep cells failed" if failed else None

    files = ["sweep.csv", "sweep-failures.json"]
    p1 = _cli_job("cli.sweep_p1", [*argv, "--parallelism", "1"], out / "sweep-p1", files, SWEEP_ENTRIES, no_failures)
    p2 = _cli_job("cli.sweep_p2", [*argv, "--parallelism", "2"], out / "sweep-p2", files, SWEEP_ENTRIES, no_failures)
    return [p1, p2]


def _theta(out: Path) -> Job:
    return _cli_job("cli.theta", ["theta", "--alpha", "0.2"], out, ["theta.json"], 0, _theta_check)


def _cli_round(state: dict, s: int, out: Path) -> list[Job]:
    T = 4096
    seed = derive(s, "generate") >> 1
    stem = f"afrw-T{T}-seed{seed}"
    gen_files = [f"{stem}.fwsq", f"{stem}.json"]
    jobs = [
        _theta(out / "theta-a"),
        _cli_job("cli.generate", ["generate", "--family", "afrw", "--T", str(T), "--delta", "0.1",
                                  "--seed", str(seed)], out / "gen", gen_files, T),
        _cli_job("cli.inversion", ["inversion", "--input", str(out / "gen" / gen_files[0])],
                 out / "inv", ["inversion.json"], T),
        _cli_job("cli.inversion_replay", ["--from-manifest", str(out / "inv" / "inversion-manifest.json")],
                 out / "inv-replay", ["inversion.json"], T),
        _cli_job("cli.generate_replay", ["--from-manifest", str(out / "gen" / "generate-manifest.json")],
                 out / "gen-replay", gen_files, T),
        _theta(out / "theta-b"),
        *_sweep_pair(s, out),
        _theta(out / "theta-c"),
        _theta(out / "theta-d"),
    ]
    for later, earlier in ((3, 2), (4, 1), (5, 0), (7, 6), (8, 0), (9, 0)):
        jobs[later].twin = earlier
    return jobs


# round_s is the wall time of one round on a shared 2-core VM at the commit
# that introduced the benchmark; it turns --seconds into a fixed round count.
# Every workload runs at least two rounds, so that each job kind is re-run on
# the same inputs; for cli_sweep that is 20 jobs, the fewest with a tail
# percentile that has 10 jobs beyond it.  The planned job time stays within
# WORK_BUDGET_S, which leaves room for set-up and the import probe inside the
# runner's deadline.
MIN_ROUNDS = 2
WORK_BUDGET_S = 100.0
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_materialized", round_s=4.2, make_round=_materialized_round),
        Workload("mc_heights", round_s=3.5, make_round=_heights_round),
        Workload("exact_kernels", round_s=4.6, make_round=_exact_round, setup=_exact_setup),
        Workload("cli_sweep", round_s=21.0, make_round=_cli_round),
    )
}
