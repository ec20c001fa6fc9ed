"""End-to-end tests of the command-line interface.

Everything goes through ``run(argv)`` so exit codes and file outputs are
exercised exactly as a shell user would see them; replay tests compare
bytes, not parsed content.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from fractalwalk import (
    Family,
    FlipMode,
    GeneratorSpec,
    deviation_stats,
    derive_seed,
    generate,
    inversion_ratio,
    read_binary,
    read_csv,
    sign_predictor_closed_form,
)
from fractalwalk import cli
from fractalwalk.cli import run
from fractalwalk.seqio import _csv_bytes


def run_in(tmp_path, *argv: str) -> int:
    return run([*argv, "--output-dir", str(tmp_path)])


def replay(manifest_path, dest) -> int:
    return run(["--from-manifest", str(manifest_path), "--output-dir", str(dest)])


def strict_json(path):
    """``path`` parsed as standard JSON: ``NaN`` and ``Infinity`` tokens are refused."""

    def refuse(token):
        raise ValueError(f"{path.name} holds the non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def outputs_of(manifest_path) -> list[str]:
    return strict_json(manifest_path)["outputs"]


# A small run of every command, in both formats where it has a --format.
EVERY_COMMAND = {
    "generate-binary": ["generate", "--family", "frw", "--T", "64", "--delta", "0.2",
                        "--base-len", "8"],
    "generate-csv": ["generate", "--family", "afrw", "--T", "64", "--delta", "0.5",
                     "--base-len", "1", "--format", "csv"],
    "stats": ["stats", "--family", "uniform", "--T", "64", "--T-list", "64,128", "--trials", "200"],
    "predict": ["predict", "--family", "frw", "--T", "64", "--delta", "0.2", "--base-len", "8",
                "--predictor", "weighted_majority", "--trials", "20"],
    "inversion": ["inversion", "--family", "uniform", "--T", "256"],
    "alphaq": ["alphaq", "--family", "uniform", "--T", "256", "--x", "64", "--alpha", "0.2",
               "--trials", "1000"],
    "theta": ["theta", "--alpha", "0.3"],
    "fractal-binary": ["fractal", "--alpha", "0.3", "--height", "50"],
    "fractal-csv": ["fractal", "--alpha", "0.3", "--height", "50", "--format", "csv"],
    "fbm": ["fbm", "--hurst", "0.7", "--grid-len", "64", "--trials", "200", "--sample", "2"],
    "sweep": ["sweep", "--families", "uniform", "--T-list", "64", "--trials", "1000",
              "--metrics", "deviation,alpha_q", "--parallelism", "1"],
    "verify": ["verify", "--only", "theta-solver"],
}


def test_every_command_is_covered():
    assert {argv[0] for argv in EVERY_COMMAND.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("name", sorted(EVERY_COMMAND))
def test_directory_holds_exactly_the_manifest_outputs(tmp_path, name):
    argv = EVERY_COMMAND[name]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_in(a, *argv) == 0
    manifest = a / f"{argv[0]}-manifest.json"
    outputs = outputs_of(manifest)
    assert sorted(p.name for p in a.iterdir()) == sorted([*outputs, manifest.name])
    for out in outputs:
        if out.endswith(".json"):
            strict_json(a / out)
    assert replay(manifest, b) == 0
    for out in outputs:
        assert (b / out).read_bytes() == (a / out).read_bytes()


SPEC_COMMANDS = ["generate", "stats", "predict", "inversion", "alphaq"]


class TestSpecFlags:
    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_every_field_has_a_spec_flag(self, command):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in sub.choices[command]._actions}
        assert {f.name for f in dataclasses.fields(GeneratorSpec)} <= dests

    def test_non_default_command_line_gives_the_spec(self):
        argv = ["generate", "--family", "entropy_conditioned", "--T", "64", "--delta", "0.3",
                "--base-len", "16", "--flip-mode", "bernoulli", "--k", "1.5", "--seed", "7"]
        want = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=64, delta=0.3,
                             base_len=16, flip_mode=FlipMode.BERNOULLI, k=1.5, seed=7)
        # Every field with a default is set away from it, so a field added to
        # the dataclass fails here until this command line sets it too.
        for f in dataclasses.fields(GeneratorSpec):
            assert getattr(want, f.name) != f.default, f.name
        spec = cli._spec_from_args(cli.build_parser().parse_args(argv))
        assert spec == want
        assert GeneratorSpec.from_json_dict(json.loads(json.dumps(cli._jsonable(spec)))) == spec


class TestGenerate:
    ARGS = ("generate", "--family", "frw", "--T", "64", "--delta", "0.2",
            "--base-len", "8", "--seed", "5")

    def test_writes_sequence_and_summary(self, tmp_path, capsys):
        assert run_in(tmp_path, *self.ARGS) == 0
        seq = read_binary(tmp_path / "frw-T64-seed5.fwsq")
        spec = GeneratorSpec(family=Family.FRW, total_len=64, delta=0.2, base_len=8, seed=5)
        assert seq == generate(spec).sequence
        summary = json.loads((tmp_path / "frw-T64-seed5.json").read_text())
        assert summary["length"] == 64
        assert summary["height"] == int(seq.values.sum())
        assert summary["spec"]["family"] == "frw"
        assert f"height {summary['height']}" in capsys.readouterr().out

    def test_csv_format(self, tmp_path):
        assert run_in(tmp_path, *self.ARGS, "--format", "csv") == 0
        seq = read_csv(tmp_path / "frw-T64-seed5.csv")
        assert len(seq) == 64

    def test_replay_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_in(a, *self.ARGS) == 0
        manifest = a / "generate-manifest.json"
        assert replay(manifest, b) == 0
        for name in outputs_of(manifest):
            assert (b / name).read_bytes() == (a / name).read_bytes()


class TestStats:
    ARGS = ("stats", "--family", "uniform", "--T", "64", "--seed", "3",
            "--T-list", "64,128", "--trials", "200")

    def test_csv_and_fit(self, tmp_path, capsys):
        assert run_in(tmp_path, *self.ARGS) == 0
        lines = (tmp_path / "stats.csv").read_text().splitlines()
        assert lines[0] == "family,delta,T,metric,value,stderr,trials,seed"
        assert len(lines) == 1 + 2 * 3  # two lengths x three metrics
        report = json.loads((tmp_path / "stats.json").read_text())
        assert len(report["rows"]) == 2
        assert "exponent" in capsys.readouterr().out

    def test_equal_medians_write_a_null_stderr(self, tmp_path, capsys):
        # median |h| is 2 at T = 2, 4 and 8, so the fitted line has no residual
        # spread: the slope's stderr is NaN, and the JSON writes it as null.
        argv = ("stats", "--family", "uniform", "--T", "8", "--T-list", "2,4,8", "--trials", "1000")
        assert run_in(tmp_path, *argv) == 0
        report = strict_json(tmp_path / "stats.json")
        assert [row["median_dev"] for row in report["rows"]] == [2.0, 2.0, 2.0]
        assert report["fitted_exponent"] == 0.0 and report["exponent_stderr"] is None
        assert "+- nan" in capsys.readouterr().out

    def test_single_length_prints_no_fit(self, tmp_path, capsys):
        argv = ("stats", "--family", "uniform", "--T", "64", "--T-list", "64", "--trials", "200")
        assert run_in(tmp_path, *argv) == 0
        assert "single length; no exponent fit" in capsys.readouterr().out
        assert strict_json(tmp_path / "stats.json")["fitted_exponent"] is None

    def test_replay_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_in(a, *self.ARGS) == 0
        manifest = a / "stats-manifest.json"
        assert replay(manifest, b) == 0
        for name in outputs_of(manifest):
            assert (b / name).read_bytes() == (a / name).read_bytes()


class TestPredict:
    def test_weighted_majority(self, tmp_path):
        assert run_in(
            tmp_path, "predict", "--family", "frw", "--T", "64", "--delta", "0.2",
            "--base-len", "8", "--predictor", "weighted_majority", "--trials", "50",
        ) == 0
        result = json.loads((tmp_path / "predict.json").read_text())
        assert result["trials"] == 50
        assert isinstance(result["mean_payoff"], float)
        assert result["stop_causes"] is None

    def test_adaptive_bettor_reports_stop_causes(self, tmp_path):
        assert run_in(
            tmp_path, "predict", "--family", "uniform", "--T", "256",
            "--predictor", "adaptive_bettor", "--theta", "8", "--trials", "40",
        ) == 0
        result = json.loads((tmp_path / "predict.json").read_text())
        assert sum(result["stop_causes"].values()) == 40

    def test_missing_predictor_flags_exit_2(self, tmp_path):
        assert run_in(
            tmp_path, "predict", "--family", "uniform", "--T", "64",
            "--predictor", "adaptive_bettor", "--trials", "10",
        ) == 2
        assert run_in(
            tmp_path, "predict", "--family", "uniform", "--T", "64",
            "--predictor", "sign_of_prefix", "--trials", "10",
        ) == 2
        assert run_in(
            tmp_path, "predict", "--family", "uniform", "--T", "64",
            "--predictor", "block_momentum", "--trials", "10",
        ) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--predictor", "sign_of_prefix", "--window", "4", "--x", "0"),
            ("--predictor", "sign_of_prefix", "--window", "4", "--x", "4096"),
            ("--predictor", "sign_of_prefix", "--window", "0", "--x", "64"),
            ("--predictor", "sign_of_prefix", "--window", "1000", "--x", "64"),
            ("--predictor", "block_momentum", "--block-len", "0"),
            ("--predictor", "block_momentum", "--block-len", "48"),
            ("--predictor", "adaptive_bettor", "--theta", "0"),
            ("--predictor", "adaptive_bettor", "--theta", "1", "--alpha", "0.1"),
            ("--predictor", "adaptive_bettor", "--theta", "8", "--alpha", "nan"),
            ("--predictor", "adaptive_bettor", "--theta", "8", "--alpha", "inf"),
            ("--predictor", "adaptive_bettor", "--theta", "8", "--alpha", "1e308"),
            ("--predictor", "adaptive_bettor", "--theta", "99999999999999999999", "--alpha", "0.25"),
        ],
    )
    def test_bad_predictor_flags_exit_2(self, tmp_path, capsys, flags):
        assert run_in(
            tmp_path, "predict", "--family", "uniform", "--T", "1024", "--trials", "10", *flags,
        ) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "Traceback" not in err
        assert not (tmp_path / "predict.json").exists()


class TestInversion:
    def test_from_spec(self, tmp_path):
        assert run_in(
            tmp_path, "inversion", "--family", "uniform", "--T", "256", "--seed", "9",
        ) == 0
        report = json.loads((tmp_path / "inversion.json").read_text())
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=256, seed=9)
        direct = inversion_ratio(generate(spec).sequence)
        assert report["overall_ratio"] == direct.overall_ratio
        assert report["min_len"] == 8

    def test_from_file(self, tmp_path):
        seq = generate(GeneratorSpec(family=Family.UNIFORM, total_len=128, seed=2)).sequence
        path = tmp_path / "input.csv"
        path.write_bytes(_csv_bytes(seq))
        assert run_in(tmp_path, "inversion", "--input", str(path), "--min-len", "16") == 0
        report = json.loads((tmp_path / "inversion.json").read_text())
        assert report["overall_ratio"] == inversion_ratio(seq, min_len=16).overall_ratio

    def test_dyadic_flag(self, tmp_path):
        assert run_in(
            tmp_path, "inversion", "--family", "uniform", "--T", "256", "--dyadic-only",
        ) == 0
        assert json.loads((tmp_path / "inversion.json").read_text())["dyadic_only"] is True

    def test_needs_spec_or_input(self, tmp_path):
        assert run_in(tmp_path, "inversion", "--min-len", "8") == 2

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert run_in(tmp_path, "inversion", "--input", str(tmp_path / "absent.fwsq")) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_csv_entry_outside_int64_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("1\n99999999999999999999\n")
        assert run_in(tmp_path, "inversion", "--input", str(path)) == 2
        assert "outside int64" in capsys.readouterr().err

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.fwsq"
        path.write_bytes(b"garbage")
        assert run_in(tmp_path, "inversion", "--input", str(path)) == 2
        assert "too short" in capsys.readouterr().err


class TestAlphaQ:
    def test_basic_estimate(self, tmp_path, capsys):
        assert run_in(
            tmp_path, "alphaq", "--family", "uniform", "--T", "512", "--alpha", "0.3",
            "--x", "128", "--trials", "1000",
        ) == 0
        result = json.loads((tmp_path / "alphaq.json").read_text())
        assert 0.0 <= result["q_hat"] <= 1.0
        assert "q_hat(0.3)" in capsys.readouterr().out

    def test_window_cannot_exceed_length(self, tmp_path):
        assert run_in(
            tmp_path, "alphaq", "--family", "uniform", "--T", "64", "--alpha", "0.3",
            "--x", "128", "--trials", "1000",
        ) == 2


    @pytest.mark.parametrize(
        "flags",
        [
            ("--alpha", "0.3", "--x", "0"),
            ("--alpha", "0.3", "--x", "-4"),
            ("--alpha", "nan", "--x", "16"),
            ("--alpha", "inf", "--x", "16"),
            ("--alpha", "0.2", "--x", "64", "--trials", "99999999999999999999"),
        ],
    )
    def test_bad_flags_exit_2(self, tmp_path, capsys, flags):
        assert run_in(
            tmp_path, "alphaq", "--family", "uniform", "--T", "64", "--trials", "1000", *flags,
        ) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "alphaq.json").exists()


class TestThetaAndFractal:
    def test_theta_output(self, tmp_path, capsys):
        assert run_in(tmp_path, "theta", "--alpha", "0.25") == 0
        result = json.loads((tmp_path / "theta.json").read_text())
        assert abs(result["residual"]) < 1e-10
        assert "theta(0.25)" in capsys.readouterr().out

    def test_theta_replay(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_in(a, "theta", "--alpha", "0.4") == 0
        assert replay(a / "theta-manifest.json", b) == 0
        assert (b / "theta.json").read_bytes() == (a / "theta.json").read_bytes()

    def test_fractal_build(self, tmp_path):
        assert run_in(
            tmp_path, "fractal", "--alpha", "0.3333333333333333", "--height", "100",
            "--format", "csv",
        ) == 0
        result = json.loads((tmp_path / "fractal-a0.333333-h100.json").read_text())
        seq = read_csv(tmp_path / result["file"])
        assert int(seq.values.sum()) == 100
        assert result["length"] == len(seq)
        assert result["split_points"] is not None

    def test_fractal_alpha_validated(self, tmp_path):
        assert run_in(tmp_path, "fractal", "--alpha", "0.9", "--height", "100") == 2


class TestFbm:
    def test_outputs_and_sampled_paths(self, tmp_path):
        assert run_in(
            tmp_path, "fbm", "--hurst", "0.6", "--grid-len", "64", "--window", "16",
            "--trials", "2000", "--sample", "3",
        ) == 0
        result = json.loads((tmp_path / "fbm.json").read_text())
        assert result["sign_predictor_closed_form"] == pytest.approx(
            sign_predictor_closed_form(0.6, 16, 1)
        )
        lines = (tmp_path / "fbm-paths.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0].startswith("t1,t2,")

    def test_grid_too_short_exit_2(self, tmp_path):
        assert run_in(
            tmp_path, "fbm", "--hurst", "0.6", "--grid-len", "16", "--window", "16",
        ) == 2

    def test_unfactorable_covariance_exit_2(self, tmp_path, capsys):
        assert run_in(tmp_path, "fbm", "--hurst", "0.99999999", "--grid-len", "1024", "--trials", "10") == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "hurst=0.99999999, grid_len=1024" in err
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("flags", [("--lag-ratio", "0"), ("--lag-ratio", "-2"), ("--window", "0")])
    def test_bad_flags_exit_2(self, tmp_path, capsys, flags):
        assert run_in(tmp_path, "fbm", "--hurst", "0.6", "--grid-len", "64", *flags) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "fbm.json").exists()


class TestSweep:
    ARGS = ("sweep", "--families", "uniform,frw", "--deltas", "0.0,0.1",
            "--T-list", "64", "--metrics", "deviation", "--trials", "200",
            "--parallelism", "1", "--master-seed", "11")

    def test_long_csv_layout(self, tmp_path):
        assert run_in(tmp_path, *self.ARGS) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "family,delta,T,metric,value,stderr,trials,seed"
        assert len(lines) == 1 + 4 * 3  # four cells x three deviation metrics
        assert json.loads((tmp_path / "sweep-failures.json").read_text()) == []

    def test_cell_matches_direct_call(self, tmp_path):
        assert run_in(tmp_path, *self.ARGS) == 0
        seed = derive_seed(11, "frw", 0.1, 64)
        spec = GeneratorSpec(family=Family.FRW, total_len=64, delta=0.1, seed=seed)
        report = deviation_stats(spec, [64], 200)
        wanted = f"{report.rows[0].median_dev:.10g}"
        rows = [
            line for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line.startswith("frw,0.1,64,median_dev,")
        ]
        assert rows == [f"frw,0.1,64,median_dev,{wanted},,200,{seed}"]

    def test_replay_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_in(a, *self.ARGS) == 0
        manifest = a / "sweep-manifest.json"
        assert replay(manifest, b) == 0
        for name in outputs_of(manifest):
            assert (b / name).read_bytes() == (a / name).read_bytes()

    def test_failing_cell_isolated_and_reported(self, tmp_path, capsys):
        # k = 40 demands heights above the length: that cell fails, the
        # uniform cell still lands in the CSV, exit code is 1.
        code = run_in(
            tmp_path, "sweep", "--families", "uniform,entropy_conditioned",
            "--deltas", "0.0", "--T-list", "64", "--metrics", "deviation",
            "--trials", "200", "--parallelism", "1", "--k", "40",
        )
        assert code == 1
        failures = json.loads((tmp_path / "sweep-failures.json").read_text())
        assert len(failures) == 1
        assert failures[0]["spec"]["family"] == "entropy_conditioned"
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert "cell failed" in capsys.readouterr().err

    def test_cell_without_estimator_cells_fails_typed(self, tmp_path, capsys):
        # At T=8 no interval length reaches DEFAULT_MIN_LEN (8): the cell
        # fails with the package's error, not numpy's, and the exit code is 1.
        code = run_in(
            tmp_path, "sweep", "--families", "uniform", "--T-list", "8",
            "--metrics", "delta_hat", "--parallelism", "1",
        )
        assert code == 1
        failures = json.loads((tmp_path / "sweep-failures.json").read_text())
        assert [f["error"].split(":")[0] for f in failures] == ["ConfigurationError"]
        assert "ConfigurationError" in capsys.readouterr().err

    def test_strict_cell_without_a_prefix_fails(self, tmp_path):
        # frw's default base length at T=64 is 64, so strict mode has no planted
        # prefix there: that cell fails, and no weak-mode number stands in for it.
        code = run_in(
            tmp_path, "sweep", "--families", "uniform,frw", "--deltas", "0.1", "--T-list", "64",
            "--metrics", "delta_hat", "--mode", "strict", "--trials", "1000", "--parallelism", "1",
        )
        assert code == 1
        failures = strict_json(tmp_path / "sweep-failures.json")
        assert [f["spec"]["family"] for f in failures] == ["frw"]
        assert failures[0]["error"].startswith(
            "ConfigurationError: no cell to estimate in strict mode at T=64, base_len=64")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["uniform"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallelism_below_one_exit_2(self, tmp_path, capsys, value):
        args = list(self.ARGS)
        args[args.index("--parallelism") + 1] = value
        assert run_in(tmp_path, *args) == 2
        assert "--parallelism" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (("--metrics", "deviation", "--trials", "99"), "--trials"),
            (("--metrics", "deviation,delta_hat", "--trials", "999"), "--trials"),
            (("--metrics", "alpha_q", "--trials", "999"), "--trials"),
            (("--trials", "0"), "--trials"),
            (("--deltas", "1.5"), "--deltas"),
            (("--deltas", "0.1,-0.1"), "--deltas"),
            (("--metrics", "delta_hat", "--trials", "99999999999999999999"), "--trials"),
        ],
    )
    def test_input_no_cell_takes_exit_2_before_any_cell(self, tmp_path, capsys, monkeypatch, flags, flag):
        ran = []
        monkeypatch.setattr(cli, "_sweep_cell", ran.append)
        assert run_in(tmp_path, "sweep", "--families", "frw", "--T-list", "64", "--parallelism", "1", *flags) == 2
        assert flag in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "parallelism, cpus, workers",
        [(64, 8, 4), (3, 8, 3), (64, 2, 2), (64, 1, None), (1, 8, None)],
    )
    def test_pool_sized_by_cells_and_cores(self, tmp_path, monkeypatch, parallelism, cpus, workers):
        # The pool forks every worker up front, so it must not ask for more
        # than there are cells (4 here) or cores.  The recording stand-in
        # runs the cells in-process; no real pool is started.
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        args = list(self.ARGS)
        args[args.index("--parallelism") + 1] = str(parallelism)
        assert run_in(tmp_path / "pool", *args) == 0
        assert started == ([] if workers is None else [workers])
        assert run_in(tmp_path / "serial", *self.ARGS) == 0
        for name in ("sweep.csv", "sweep-failures.json"):
            assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_infinite_k_cell_fails_typed(self):
        spec = {"family": "entropy_conditioned", "total_len": 64, "delta": 0.0, "k": float("inf"), "seed": 1}
        outcome = cli._sweep_cell({"spec": spec, "trials": 200, "metrics": ["deviation"],
                                   "mode": "weak_averaged", "alpha": 0.2})
        assert outcome == {
            "ok": False, "spec": spec,
            "error": "ConfigurationError: k must be finite and >= 0, got inf",
        }

    def test_each_cell_hands_freed_memory_back(self, monkeypatch):
        # glibc keeps a freed heap, and a sweep's peak memory swung by 12 MB with
        # incidental allocation sizes such as the length of --output-dir.
        trims = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(malloc_trim=trims.append))
        monkeypatch.setattr(cli.sys, "platform", "linux")
        for k in (1.0, float("inf")):  # a cell that succeeds, and one that fails
            spec = {"family": "entropy_conditioned", "total_len": 64, "delta": 0.0, "k": k, "seed": 1}
            cli._sweep_cell({"spec": spec, "trials": 200, "metrics": ["deviation"]})
        assert trims == [0, 0]

    @pytest.mark.parametrize("metrics", [",", " "], ids=["comma", "blank"])
    def test_empty_metric_list_exit_2(self, tmp_path, capsys, metrics):
        assert run_in(
            tmp_path, "sweep", "--families", "uniform", "--T-list", "64", "--metrics", metrics,
        ) == 2
        assert "empty metric list" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_metric_exit_2(self, tmp_path):
        assert run_in(
            tmp_path, "sweep", "--families", "uniform", "--T-list", "64",
            "--metrics", "bogus",
        ) == 2

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        assert run_in(tmp_path, "sweep", "--families", "bogus", "--T-list", "64") == 2
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_numeric_delta_exit_2(self, tmp_path, capsys):
        assert run_in(
            tmp_path, "sweep", "--families", "uniform", "--deltas", "abc", "--T-list", "64",
        ) == 2
        assert "abc" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestVerifyCommand:
    def test_single_criterion(self, tmp_path, capsys):
        assert run_in(tmp_path, "verify", "--only", "theta-solver") == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["all_passed"] is True
        assert [r["name"] for r in payload["results"]] == ["theta-solver"]
        assert set(payload["results"][0]) == {"name", "passed", "detail"}  # no wall time
        assert "1/1 criteria passed" in capsys.readouterr().out

    def test_unknown_criterion_exit_2(self, tmp_path):
        assert run_in(tmp_path, "verify", "--only", "nope") == 2

    @pytest.mark.parametrize("only", [",", ""], ids=["comma", "empty"])
    def test_empty_criterion_list_exit_2(self, tmp_path, capsys, only):
        assert run_in(tmp_path, "verify", "--only", only) == 2
        captured = capsys.readouterr()
        assert "empty criterion name list" in captured.err
        assert "criteria passed" not in captured.out
        assert not (tmp_path / "verify.json").exists()

    def test_quick_deviation_growth_passes(self, tmp_path):
        assert run_in(tmp_path, "verify", "--quick", "--only", "optfrw-deviation-growth") == 0


class TestExitCodes:
    def test_bad_delta_exit_2(self, tmp_path):
        assert run_in(
            tmp_path, "generate", "--family", "frw", "--T", "64", "--delta", "2.0",
        ) == 2

    def test_bad_length_exit_2(self, tmp_path):
        assert run_in(
            tmp_path, "stats", "--family", "uniform", "--T", "1000",
            "--T-list", "1000", "--trials", "200",
        ) == 2

    def test_repeated_lengths_exit_2(self, tmp_path):
        assert run_in(
            tmp_path, "stats", "--family", "uniform", "--T", "64",
            "--T-list", "64,64", "--trials", "200",
        ) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "--family", "frw", "--T", "1024", "--T-list", "1024,2048", "--delta", "0.1"),
            ("predict", "--predictor", "weighted_majority", "--family", "frw", "--T", "1024"),
            ("fbm", "--hurst", "0.6"),
            ("fbm", "--hurst", "0.6", "--sample", "1000000000"),
        ],
        ids=["stats", "predict", "fbm", "fbm-sample"],
    )
    def test_oversized_trials_exit_2_before_allocating(self, tmp_path, capsys, argv):
        tracemalloc.start()
        try:
            code = run_in(tmp_path, *argv, "--trials", "100000000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "cap" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_infinite_k_exit_2(self, tmp_path, capsys):
        assert run_in(
            tmp_path, "generate", "--family", "entropy_conditioned", "--T", "1024", "--k", "inf",
        ) == 2
        err = capsys.readouterr().err
        assert "--k must be finite, got inf" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--families", "uniform", "--T-list", "64", "--alpha", "nan"),
            ("sweep", "--families", "entropy_conditioned", "--T-list", "64", "--k", "inf"),
            ("sweep", "--families", "uniform", "--T-list", "64", "--deltas", "0.1,nan"),
            ("predict", "--predictor", "weighted_majority", "--family", "frw", "--T", "256",
             "--alpha", "nan"),
            ("generate", "--family", "frw", "--T", "64", "--delta=-inf"),
            ("fbm", "--hurst", "nan"),
            ("theta", "--alpha", "inf"),
            ("fractal", "--alpha", "nan", "--height", "50"),
        ],
        ids=["sweep-alpha", "sweep-k", "sweep-deltas", "predict-alpha", "generate-delta",
             "fbm-hurst", "theta-alpha", "fractal-alpha"],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, argv):
        assert run_in(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_exhausted_rejection_budget_exit_1(self, tmp_path, capsys):
        # No fair sequence of 1024 steps reaches |h| >= 320 within the draw budget.
        argv = ("stats", "--family", "entropy_conditioned", "--T", "1024", "--k", "10",
                "--T-list", "1024", "--trials", "100")
        assert run_in(tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert "analysis failure:" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_argparse_rejects_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit):
            run_in(tmp_path, "generate", "--family", "nope", "--T", "64")


class TestManifestReplay:
    def test_wrong_command_rejected(self, tmp_path):
        a = tmp_path / "a"
        assert run_in(a, "theta", "--alpha", "0.25") == 0
        assert run(["stats", "--from-manifest", str(a / "theta-manifest.json")]) == 2

    def test_extra_flags_rejected(self, tmp_path):
        a = tmp_path / "a"
        assert run_in(a, "theta", "--alpha", "0.25") == 0
        assert run([
            "--from-manifest", str(a / "theta-manifest.json"), "--alpha", "0.3",
        ]) == 2

    def test_matching_command_prefix_allowed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_in(a, "theta", "--alpha", "0.25") == 0
        assert run([
            "theta", "--from-manifest", str(a / "theta-manifest.json"),
            "--output-dir", str(b),
        ]) == 0
        assert (b / "theta.json").read_bytes() == (a / "theta.json").read_bytes()

    def test_missing_manifest_exit_2(self, tmp_path):
        assert run(["--from-manifest", str(tmp_path / "missing.json")]) == 2

    def test_dangling_flag_exit_2(self):
        assert run(["--from-manifest"]) == 2

    def test_empty_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "theta-manifest.json"
        path.write_text(json.dumps({"command": "theta", "config": {}}))
        assert run(["--from-manifest", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_non_finite_config_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a"
        assert run_in(a, "theta", "--alpha", "0.25") == 0
        manifest = json.loads((a / "theta-manifest.json").read_text())
        manifest["config"]["alpha"] = float("nan")
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(manifest))
        assert run(["--from-manifest", str(forged), "--output-dir", str(tmp_path / "b")]) == 2
        assert "--alpha must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", [["theta"], {"theta": 1}, 7, None])
    def test_command_not_a_string_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps({"command": command, "config": {"alpha": 0.25}}))
        assert run(["--from-manifest", str(path), "--output-dir", str(tmp_path / "b")]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a"
        assert run_in(a, "theta", "--alpha", "0.25") == 0
        manifest = json.loads((a / "theta-manifest.json").read_text())
        manifest["config"]["bogus"] = 1
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(manifest))
        assert run(["--from-manifest", str(forged), "--output-dir", str(tmp_path / "b")]) == 2
        assert "configuration error:" in capsys.readouterr().err


class TestEnvironment:
    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACTALWALK_OUTPUT_DIR", str(tmp_path / "from-env"))
        assert run(["theta", "--alpha", "0.3"]) == 0
        assert (tmp_path / "from-env" / "theta.json").exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    def test_output_dir_at_or_below_a_file_exit_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_bytes(b"kept")
        out = blocker / below if below else blocker
        assert run(["theta", "--alpha", "0.2", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write to --output-dir {out}:")
        assert len(err.splitlines()) == 1
        assert blocker.read_bytes() == b"kept"


def package_env() -> dict[str, str]:
    """The environment with this package's source directory first on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_exits_with_the_command_code(tmp_path):
    # ``python -m fractalwalk`` hands run's code to the shell, as the console script does.
    proc = subprocess.run([sys.executable, "-m", "fractalwalk", "theta", "--alpha", "nan",
                           "--output-dir", str(tmp_path)], env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def modules_loaded_by(tmp_path, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after ``run(argv)`` succeeds in it."""
    script = ("import sys\nfrom fractalwalk.cli import run\n"
              "code = run(sys.argv[1:])\nprint(code, *sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--output-dir", str(tmp_path)],
                          env=package_env(), capture_output=True, text=True, check=True)
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(modules)


class TestImports:
    """Each command loads only the modules it runs; a stray top-level import fails here."""

    @pytest.mark.parametrize(
        "argv, loaded, unloaded",
        [
            (["theta", "--alpha", "0.2"], {"fractal"}, {"analysis", "verify", "fbm", "predictors"}),
            (["generate", "--family", "afrw", "--T", "256", "--delta", "0.1"], {"generators"},
             {"analysis", "verify", "fbm", "predictors", "fractal"}),
            (["inversion", "--input", "{input}"], {"analysis"}, {"verify", "fbm", "fractal"}),
        ],
        ids=["theta", "generate", "inversion"],
    )
    def test_command_loads_only_its_modules(self, tmp_path, argv, loaded, unloaded):
        seq = generate(GeneratorSpec(family=Family.UNIFORM, total_len=64, seed=1)).sequence
        (tmp_path / "input.csv").write_bytes(_csv_bytes(seq))
        argv = [a.format(input=tmp_path / "input.csv") for a in argv]
        modules = modules_loaded_by(tmp_path / "out", *argv)
        assert {f"fractalwalk.{m}" for m in loaded} <= modules
        assert not {f"fractalwalk.{m}" for m in unloaded} & modules
        assert "concurrent.futures.process" not in modules
