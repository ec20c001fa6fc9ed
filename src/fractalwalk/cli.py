"""Command-line front end: generation, analysis, sweeps, and the acceptance battery.

Every command resolves its configuration, builds its outputs as one
``{name: payload}`` mapping and hands it to :func:`_publish`, the one place
outputs are written: it writes each of them into the output directory, then a
``<command>-manifest.json`` that echoes the resolved configuration and lists
exactly those names.  The command then prints a short human summary.  Outputs
are deterministic functions of the configuration (no timestamps, atomic
writes, no wall times), so re-running a command — directly or via
``--from-manifest`` — reproduces the bytes exactly.

Exit codes: 0 success, 1 analysis failure (failed criteria or sweep cells),
2 configuration error: an argument the library refuses, a NaN or infinite number, an unreadable
or malformed ``--input`` file, or a ``sweep`` input that no cell could take.
``FRACTALWALK_OUTPUT_DIR`` sets the default output directory; no other environment
variables are read.

Parsing needs only the generator spec's types, so the module imports no more than
that and the shared writers; each command imports the modules it runs, and a
fresh process pays for no other command's imports.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import enum
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, SamplingBudgetError, SequenceFormatError, _enum, _integer, _real
from .generators import _MAX_MATRIX_ENTRIES, Family, FlipMode, GeneratorSpec, generate, generate_batch
from .seeding import derive_rng, derive_seed
from .seqio import _csv_bytes, atomic_write_bytes, dumps, read_binary, read_csv
from .sequences import DEFAULT_MIN_LEN, Interval

__all__ = ["run", "build_parser"]


# ---------------------------------------------------------------------------
# Serialization helpers


def _jsonable(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _publish(args: argparse.Namespace, outputs: dict) -> Path:
    """Write every ``{name: payload}`` output, then the manifest listing exactly those names.

    Bytes are written as given; anything else as sorted, indented JSON.  Each
    write is atomic.  Returns the output directory.  A directory that cannot be
    made or written, such as a path at or below a file, is a configuration error.
    """
    out = Path(args.output_dir)
    config = {k: v for k, v in vars(args).items() if k != "from_manifest"}
    manifest = {
        "tool": "fractalwalk",
        "version": __version__,
        "command": args.command,
        "config": config,
        "outputs": sorted(outputs),
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in [*outputs.items(), (f"{args.command}-manifest.json", manifest)]:
            if not isinstance(payload, bytes):
                text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
                payload = text.encode("utf-8")
            atomic_write_bytes(out / name, payload)
    except OSError as exc:
        raise ConfigurationError(f"cannot write to --output-dir {out}: {exc}") from exc
    return out


def _sequence_file(stem: str, seq, fmt: str) -> tuple[str, bytes]:
    """File name and bytes of ``seq`` in the ``--format`` chosen."""
    if fmt == "csv":
        return f"{stem}.csv", _csv_bytes(seq)
    return f"{stem}.fwsq", dumps(seq)


_METRIC_FIELDS = ["family", "delta", "T", "metric", "value", "stderr", "trials", "seed"]


def _metric_row(spec: GeneratorSpec, T: int, trials: int, metric: str, value: float,
                stderr: float | None = None) -> list:
    """One row of the long-format metric table that ``stats`` and ``sweep`` write."""
    return [spec.family.value, spec.delta, T, metric, f"{value:.10g}",
            "" if stderr is None else f"{stderr:.10g}", trials, spec.seed]


def _deviation_rows(spec: GeneratorSpec, report) -> list[list]:
    return [
        _metric_row(spec, r.total_len, r.trials, metric, value)
        for r in report.rows
        for metric, value in (("mean_dev", r.mean_dev), ("median_dev", r.median_dev),
                              ("rms_dev", r.rms_dev))
    ]


def _csv_table(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _binomial_stderr(q: float, trials: int) -> float:
    return math.sqrt(max(q * (1 - q), 1e-12) / trials)


# ---------------------------------------------------------------------------
# Spec flags shared by the sampling commands


def _add_spec_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    """Generator spec flags; ``required=False`` suits commands that can read --input instead."""
    p.add_argument("--family", required=required, choices=[f.value for f in Family])
    p.add_argument("--T", "--total-len", dest="total_len", type=int, required=required,
                   help="sequence length (power of two)")
    p.add_argument("--delta", type=float, default=0.0, help="flip-budget coefficient in [0, 1)")
    p.add_argument("--base-len", dest="base_len", type=int, default=None,
                   help="merge-base block length (power of two; family default if omitted)")
    p.add_argument("--flip-mode", dest="flip_mode", choices=[m.value for m in FlipMode],
                   default=FlipMode.EXACT_COUNT.value)
    p.add_argument("--k", type=float, default=None,
                   help="height threshold coefficient (entropy_conditioned only)")
    p.add_argument("--seed", type=int, default=0)


def _spec_from_args(args: argparse.Namespace) -> GeneratorSpec:
    fields = dataclasses.fields(GeneratorSpec)
    return GeneratorSpec(**{f.name: getattr(args, f.name) for f in fields})


def _parse_list(text: str, parse=int, what: str = "integer") -> list:
    try:
        values = [parse(v) for v in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigurationError(f"expected a comma-separated {what} list, got {text!r}") from exc
    if not values:
        raise ConfigurationError(f"empty {what} list")
    return values


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = generate(spec)
    stem = f"{spec.family.value}-T{spec.total_len}-seed{spec.seed}"
    seq_file, seq_bytes = _sequence_file(stem, result.sequence, args.format)
    summary = {
        "spec": spec,
        "height": int(result.sequence.values.sum()),
        "length": int(result.sequence.values.shape[0]),
        "flip_records": result.counters.merges,
        "acceptance_rate": result.counters.acceptance_rate,
        "file": seq_file,
    }
    out = _publish(args, {seq_file: seq_bytes, f"{stem}.json": summary})
    print(f"wrote {out / seq_file} (height {summary['height']})")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from . import analysis

    spec = _spec_from_args(args)
    T_list = _parse_list(args.T_list)
    report = analysis.deviation_stats(spec, T_list, args.trials)
    _publish(args, {
        "stats.csv": _csv_table(_METRIC_FIELDS, _deviation_rows(spec, report)),
        "stats.json": report,
    })
    if report.fitted_exponent is not None:
        print(f"fitted exponent {report.fitted_exponent:.4f} +- {report.exponent_stderr:.4f}")
    else:
        print("single length; no exponent fit")
    return 0


def _check_predictor_flags(args: argparse.Namespace, T: int) -> None:
    from . import predictors

    if args.predictor == "sign_of_prefix":
        if args.window is None or args.x is None:
            raise ConfigurationError("sign_of_prefix requires --window and --x")
        window = _integer(args.window, "--window", 1, T - 1)
        _integer(args.x, "--x", 1, T - window)
    elif args.predictor == "block_momentum":
        if args.block_len is None:
            raise ConfigurationError("block_momentum requires --block-len")
        predictors._check_block_len(args.block_len, T, "--block-len")
    elif args.predictor == "adaptive_bettor":
        if args.theta is None:
            raise ConfigurationError("adaptive_bettor requires --theta")
        predictors._bettor_limits(args.theta, args.alpha)


def cmd_predict(args: argparse.Namespace) -> int:
    from . import analysis, predictors

    spec = _spec_from_args(args)
    T = spec.total_len
    _check_predictor_flags(args, T)
    stop_causes = None
    mat = generate_batch(spec, args.trials, derive_rng(spec.seed, "predict", args.predictor))
    if args.predictor == "weighted_majority":
        payoffs = predictors._weighted_majority_payoffs(mat)
    elif args.predictor == "sign_of_prefix":
        P = analysis._prefix_at(mat, [T - args.x - args.window, T - args.x, T])
        payoffs = predictors._sign_bets(P[:, 1] - P[:, 0], P[:, 2] - P[:, 1])
    elif args.predictor == "block_momentum":
        payoffs = predictors._block_momentum_payoffs(mat, args.block_len)
    else:  # adaptive_bettor
        lower, upper = predictors._bettor_limits(args.theta, args.alpha)
        payoffs = predictors._bettor_payoffs(mat, lower, upper)
        counts = np.bincount(np.digitize(payoffs, [lower + 1, upper]), minlength=3)
        stop_causes = {k: int(n) for k, n in zip(["LOWER", "EXHAUSTED", "UPPER"], counts) if n}
    arr = payoffs.astype(np.float64)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    _publish(args, {"predict.json": {
        "spec": spec, "predictor": args.predictor, "trials": args.trials, "mean_payoff": mean,
        "stderr": stderr, "normalized_by_sqrt_T": mean / math.sqrt(T), "stop_causes": stop_causes,
    }})
    print(f"{args.predictor}: mean payoff {mean:.3f} +- {stderr:.3f}")
    return 0


def cmd_inversion(args: argparse.Namespace) -> int:
    from . import analysis

    if args.input:
        path = Path(args.input)
        try:
            seq = read_csv(path) if path.suffix == ".csv" else read_binary(path)
        except OSError as exc:
            raise ConfigurationError(f"cannot read --input {path}: {exc}") from exc
    else:
        if args.family is None or args.total_len is None:
            raise ConfigurationError("provide --input FILE or a full generator spec")
        seq = generate(_spec_from_args(args)).sequence
    report = analysis.inversion_ratio(seq, min_len=args.min_len, dyadic_only=args.dyadic_only)
    _publish(args, {"inversion.json": report})
    wit = ""
    if report.y_interval is not None:
        wit = (f"; X=[{report.x_interval.lo},{report.x_interval.hi}) h={report.x_height}, "
               f"Y=[{report.y_interval.lo},{report.y_interval.hi}) h={report.y_height}")
    print(f"overall ratio {report.overall_ratio:.6f} over {report.n_intervals} intervals{wit}")
    return 0


def cmd_alphaq(args: argparse.Namespace) -> int:
    from . import analysis

    spec = _spec_from_args(args)
    x = _integer(args.x, "--x", 1, spec.total_len)
    window = Interval(spec.total_len - x, spec.total_len, spec.total_len)
    q_hat = analysis.alpha_q_estimate(spec, window, args.alpha, args.trials)
    _publish(args, {"alphaq.json": {
        "spec": spec, "alpha": args.alpha, "x": x, "trials": args.trials,
        "q_hat": q_hat, "stderr": _binomial_stderr(q_hat, args.trials),
    }})
    print(f"q_hat({args.alpha}) = {q_hat:.4f}")
    return 0


def cmd_theta(args: argparse.Namespace) -> int:
    from . import fractal

    theta = fractal.solve_theta(args.alpha)
    _publish(args, {"theta.json": {"alpha": args.alpha, "theta": theta,
                                   "residual": fractal.theta_residual(args.alpha, theta)}})
    print(f"theta({args.alpha}) = {theta:.12f}")
    return 0


def cmd_fractal(args: argparse.Namespace) -> int:
    from . import fractal

    params = fractal.FractalParams(args.alpha, args.height)
    seq = fractal.build_fractal(params)
    stem = f"fractal-a{args.alpha:g}-h{args.height}"
    seq_file, seq_bytes = _sequence_file(stem, seq, args.format)
    result = {
        "alpha": params.alpha, "target_height": params.target_height, "theta": params.theta,
        "length": int(seq.values.shape[0]), "height": int(seq.values.sum()),
        "measured_exponent": fractal.measured_exponent(params),
        "split_points": fractal.split_points(params), "file": seq_file,
    }
    _publish(args, {seq_file: seq_bytes, f"{stem}.json": result})
    print(f"length {result['length']}, height {result['height']}, "
          f"exponent {result['measured_exponent']:.4f} (1/theta = {1 / params.theta:.4f})")
    return 0


def cmd_fbm(args: argparse.Namespace) -> int:
    from . import fbm

    params = fbm.FbmParams(args.hurst, args.grid_len, seed=args.seed)
    result = {"params": params}
    outputs = {}
    if _integer(args.sample, "--sample", 0):
        paths = fbm.fbm_sample_batch(params, args.sample)
        outputs["fbm-paths.csv"] = _csv_table(
            [f"t{t}" for t in range(1, params.grid_len + 1)],
            ([f"{v:.10g}" for v in row] for row in paths),
        )
        result["sampled_paths"] = args.sample
    closed = fbm.sign_predictor_closed_form(params.hurst, args.window, args.lag_ratio)
    mc = fbm.fbm_sign_predictor_payoff(params, args.window, args.lag_ratio, args.trials)
    result.update({
        "window": args.window, "lag_ratio": args.lag_ratio, "trials": args.trials,
        "sign_predictor_closed_form": closed, "sign_predictor_monte_carlo": mc,
    })
    _publish(args, {**outputs, "fbm.json": result})
    print(f"sign predictor: closed form {closed:.4f}, monte carlo {mc:.4f}")
    return 0


# --- sweep -------------------------------------------------------------------


def _sweep_cell(payload: dict) -> dict:
    """One (family, delta, T) cell; returns rows or an error record (never raises).  The heap
    it freed then goes back to the OS: glibc would keep it, and a sweep's peak memory swung by
    12 MB with incidental allocation sizes, such as the length of ``--output-dir``."""
    from . import analysis

    try:
        spec = GeneratorSpec.from_json_dict(payload["spec"])
        trials = payload["trials"]
        T = spec.total_len
        rows = []
        if "deviation" in payload["metrics"]:
            rows += _deviation_rows(spec, analysis.deviation_stats(spec, [T], trials))
        if "delta_hat" in payload["metrics"]:
            rep = analysis.estimate_delta(spec, payload["mode"], trials)
            rows.append(_metric_row(spec, T, trials, "delta_hat", rep.delta_hat,
                                    (rep.ci_high - rep.ci_low) / 2.0))
        if "alpha_q" in payload["metrics"]:
            x = min(256, T // 4)
            q = analysis.alpha_q_estimate(spec, Interval(T - x, T, T), payload["alpha"], trials)
            rows.append(_metric_row(spec, T, trials, "alpha_q", q, _binomial_stderr(q, trials)))
        return {"ok": True, "rows": rows}
    except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "spec": payload["spec"]}
    finally:
        libc = ctypes.CDLL(None) if sys.platform == "linux" else None
        if hasattr(libc, "malloc_trim"):  # glibc
            libc.malloc_trim(0)


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import analysis

    min_trials = {"deviation": analysis._MIN_DEVIATION_TRIALS,
                  "delta_hat": analysis._MIN_ESTIMATOR_TRIALS, "alpha_q": analysis._MIN_ESTIMATOR_TRIALS}
    _integer(args.parallelism, "--parallelism")
    families = [_enum(Family, f, "--families item") for f in _parse_list(args.families, str, "family")]
    deltas = [_real(d, "--deltas item", 0, 1, "[)") for d in _parse_list(args.deltas, float, "number")]
    T_list = _parse_list(args.T_list)
    metrics = _parse_list(args.metrics, str, "metric")
    if not set(metrics) <= set(min_trials):
        raise ConfigurationError(f"metrics must be a subset of {sorted(min_trials)}, got {metrics}")
    # Every metric keeps a value per trial, so no cell takes more trials than the entry cap.
    _integer(args.trials, "--trials", max(min_trials[m] for m in metrics), _MAX_MATRIX_ENTRIES)

    cells = []
    for family in families:
        for delta in deltas:
            for T in T_list:
                # The spec itself is built inside the worker so that invalid
                # cells fail in isolation like any other per-cell error.
                flat = family in (Family.UNIFORM, Family.ENTROPY_CONDITIONED)
                spec_dict = {
                    "family": family.value,
                    "total_len": T,
                    "delta": 0.0 if flat else delta,
                    "k": args.k if family is Family.ENTROPY_CONDITIONED else None,
                    "seed": derive_seed(args.master_seed, family.value, delta, T),
                }
                cells.append({
                    "spec": spec_dict, "trials": args.trials, "metrics": metrics,
                    "mode": args.mode, "alpha": args.alpha,
                })

    # The pool starts all its workers up front, so it gets no more than there
    # are cells or cores.
    workers = min(args.parallelism, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_cell, cells))
    else:
        outcomes = [_sweep_cell(c) for c in cells]

    rows, failures = [], []
    for cell, outcome in zip(cells, outcomes):
        if outcome["ok"]:
            rows += outcome["rows"]
        else:
            failures.append({"spec": cell["spec"], "error": outcome["error"]})
    out = _publish(args, {
        "sweep.csv": _csv_table(_METRIC_FIELDS, rows),
        "sweep-failures.json": failures,
    })
    print(f"{len(cells) - len(failures)}/{len(cells)} cells ok -> {out / 'sweep.csv'}")
    for failure in failures:
        print(f"cell failed: {failure['spec']} -> {failure['error']}", file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    names = _parse_list(args.only, str, "criterion name") if args.only is not None else None
    results = verify.run_all(quick=args.quick, names=names)
    n_pass = sum(r.passed for r in results)
    all_passed = all(r.passed for r in results)
    # Wall times go to the printed lines only, so a replay reproduces the file.
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    _publish(args, {"verify.json": {"quick": args.quick, "all_passed": all_passed, "results": rows}})
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalwalk",
        description="Generate, predict, and analyze hard-to-predict +-1 walk distributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get("FRACTALWALK_OUTPUT_DIR", ".")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output-dir", default=default_out)
        p.add_argument("--from-manifest", dest="from_manifest", default=None,
                       help="re-run with the configuration recorded in a manifest file")

    p = sub.add_parser("generate", help="sample one sequence and write it to disk")
    _add_spec_flags(p)
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    common(p)

    p = sub.add_parser("stats", help="deviation statistics across lengths")
    _add_spec_flags(p)
    p.add_argument("--T-list", dest="T_list", required=True,
                   help="comma-separated lengths for the sweep rows")
    p.add_argument("--trials", type=int, default=10_000)
    common(p)

    p = sub.add_parser("predict", help="run a prediction strategy over sampled sequences")
    _add_spec_flags(p)
    p.add_argument("--predictor", required=True,
                   choices=["weighted_majority", "sign_of_prefix", "block_momentum", "adaptive_bettor"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--x", type=int, default=None, help="target interval length (at the sequence end)")
    p.add_argument("--block-len", dest="block_len", type=int, default=None)
    p.add_argument("--theta", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    common(p)

    p = sub.add_parser("inversion", help="worst opposite-excursion ratio of a sequence")
    _add_spec_flags(p, required=False)
    p.add_argument("--input", default=None, help="sequence file (.fwsq or .csv) instead of a spec")
    p.add_argument("--min-len", dest="min_len", type=int, default=DEFAULT_MIN_LEN)
    p.add_argument("--dyadic-only", dest="dyadic_only", action="store_true")
    common(p)

    p = sub.add_parser("alphaq", help="opposite-excursion probability estimate")
    _add_spec_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, default=256, help="window length (placed at the sequence end)")
    p.add_argument("--trials", type=int, default=10_000)
    common(p)

    p = sub.add_parser("theta", help="solve the self-similarity exponent equation")
    p.add_argument("--alpha", type=float, required=True)
    common(p)

    p = sub.add_parser("fractal", help="build the deterministic inverting profile")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    common(p)

    p = sub.add_parser("fbm", help="fractional Brownian paths and the sign-predictor payoff")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--grid-len", dest="grid_len", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--lag-ratio", dest="lag_ratio", type=int, default=1)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--sample", type=int, default=0, help="also write this many raw paths as CSV")
    common(p)

    p = sub.add_parser("sweep", help="grid of analysis cells -> one long-format CSV")
    p.add_argument("--families", required=True, help="comma-separated family names")
    p.add_argument("--deltas", default="0.0", help="comma-separated delta values")
    p.add_argument("--T-list", dest="T_list", required=True)
    p.add_argument("--metrics", default="deviation", help="subset of deviation,delta_hat,alpha_q")
    p.add_argument("--mode", choices=["strict", "weak_averaged"], default="weak_averaged")
    p.add_argument("--alpha", type=float, default=0.2, help="alpha for the alpha_q metric")
    p.add_argument("--k", type=float, default=1.0, help="k for entropy_conditioned cells")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--parallelism", type=int, default=os.cpu_count() or 1)
    p.add_argument("--master-seed", dest="master_seed", type=int, default=0)
    common(p)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true",
                   help="~10x fewer trials, doubled statistical tolerances (smoke test)")
    p.add_argument("--only", default=None, help="comma-separated criterion names")
    common(p)

    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "stats": cmd_stats,
    "predict": cmd_predict,
    "inversion": cmd_inversion,
    "alphaq": cmd_alphaq,
    "theta": cmd_theta,
    "fractal": cmd_fractal,
    "fbm": cmd_fbm,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def _namespace_from_manifest(argv: list[str]) -> argparse.Namespace:
    """Rebuild a full command namespace from a recorded manifest.

    The recorded configuration is turned back into a command line and parsed
    by :func:`build_parser`, so a manifest passes the same validation as the
    original invocation and must record exactly the command's fields.
    Replay is verbatim; the only flag honored alongside
    ``--from-manifest`` is ``--output-dir`` (so replays can land next to, not
    on top of, the original).
    """
    rest = list(argv)
    i = rest.index("--from-manifest")
    if i + 1 >= len(rest):
        raise ConfigurationError("--from-manifest needs a path")
    path = Path(rest[i + 1])
    del rest[i : i + 2]
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config", {}), dict):
        raise ConfigurationError(f"manifest {path} is not a JSON object with a config object")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigurationError(f"manifest names unknown command {command!r}")
    if rest and not rest[0].startswith("-"):
        if rest[0] != command:
            raise ConfigurationError(f"manifest records command {command!r}, not {rest[0]!r}")
        rest = rest[1:]
    config = manifest.get("config", {})
    replay_argv = [command]
    for key, value in config.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        replay_argv.append(flag if value is True else f"{flag}={value}")
    while rest:
        flag = rest.pop(0)
        if flag == "--output-dir" and rest:
            replay_argv.append(f"--output-dir={rest.pop(0)}")
        else:
            raise ConfigurationError(
                f"only --output-dir may accompany --from-manifest, got {flag!r}"
            )
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = build_parser().parse_args(replay_argv)
    except SystemExit:
        lines = err.getvalue().strip().splitlines()
        raise ConfigurationError(
            f"manifest {path} does not parse: {lines[-1] if lines else replay_argv}"
        ) from None
    parsed = vars(args)
    unknown = sorted(set(config) - set(parsed))
    missing = sorted(set(parsed) - set(config) - {"command", "from_manifest"})
    if unknown or missing:
        raise ConfigurationError(
            f"manifest {path} config has unknown fields {unknown}, lacks fields {missing}"
        )
    return args


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--from-manifest" in argv:
            args = _namespace_from_manifest(argv)
        else:
            args = build_parser().parse_args(argv)
        for key, value in vars(args).items():
            if isinstance(value, float):
                _real(value, "--" + key.replace("_", "-"))
        return _COMMANDS[args.command](args)
    except (ConfigurationError, SequenceFormatError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SamplingBudgetError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return 1
