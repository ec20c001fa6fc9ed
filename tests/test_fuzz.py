"""Fuzzed inputs end in the package's typed errors and exit codes, never a traceback.

Four properties, each with a fixed example budget and derandomized, so every
run tries the same cases:

* a command's recorded manifest with one value or key mutated replays through
  ``cli.run`` to exit code 0, 1 or 2;
* a ``.fwsq`` or CSV sequence file with a byte flipped, inserted or cut off is
  read back or refused with ``SequenceFormatError`` or ``ConfigurationError``;
* a numeric flag given a string that is not a finite number exits 2;
* the adaptive bettor's ``--theta`` and ``--alpha``, given finite extremes,
  exit 0 or 2.

The ``@example`` cases pin inputs that once escaped: a manifest whose command
is a list, a CSV entry outside int64, a varint wider than 64 bits, a
``--trials`` so large that a chunked estimator would have drawn without end,
and bettor limits that overflowed int64.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalwalk import ConfigurationError, IntSequence, SequenceFormatError, cli, dumps, loads, read_csv
from fractalwalk.seqio import _csv_bytes
from test_cli import EVERY_COMMAND

FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None)
HUGE = 99999999999999999999

# Values a mutation writes; None and False are absent because replay reads them
# as "flag omitted", and an omitted --only would run the whole battery.
VALUES = st.sampled_from([-1, 0, 1, 3, 1 << 64, HUGE, 1.5, "nan", "inf", "bogus", "", "1,2", True, [1], {"a": 1}])


def exit_code(argv: list[str]) -> int:
    """``cli.run(argv)``'s code, with argparse's ``SystemExit`` read as its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.run(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """Each command's manifest, recorded from a small run."""
    out = tmp_path_factory.mktemp("recorded")
    recorded = {}
    for argv in EVERY_COMMAND.values():
        assert cli.run([*argv, "--output-dir", str(out)]) == 0
        recorded[argv[0]] = json.loads((out / f"{argv[0]}-manifest.json").read_text())
    return recorded, tmp_path_factory.mktemp("replayed")


@settings(FUZZ, max_examples=100)
@given(command=st.sampled_from(sorted(cli._COMMANDS)), where=st.sampled_from(["config", "manifest"]),
       op=st.sampled_from(["set", "drop", "rename"]),
       key=st.sampled_from(sorted({"command", "config", "tool", "trials", "total_len", "alpha", "x", "seed",
                                   "T_list", "metrics", "only", "quick", "height", "sample", "input"})),
       value=VALUES)
@example(command="theta", where="manifest", op="set", key="command", value=["theta"])
@example(command="alphaq", where="config", op="set", key="trials", value=HUGE)
@example(command="sweep", where="config", op="set", key="trials", value=HUGE)
def test_mutated_manifest_exits_0_1_or_2(manifests, command, where, op, key, value):
    recorded, out = manifests
    manifest = json.loads(json.dumps(recorded[command]))
    target = manifest if where == "manifest" else manifest["config"]
    if op == "set":
        target[key] = value
    elif key in target:
        moved = target.pop(key)
        if op == "rename":
            target[key + "_renamed"] = moved
    path = out / "mutated-manifest.json"
    path.write_text(json.dumps(manifest))
    assert exit_code(["--from-manifest", str(path), "--output-dir", str(out)]) in (0, 1, 2)


SEQ = IntSequence([1, -3, 5, -1])
ORIGINALS = {"fwsq": dumps(SEQ), "csv": _csv_bytes(SEQ)}


@settings(FUZZ, max_examples=200)
@given(fmt=st.sampled_from(sorted(ORIGINALS)), edit=st.sampled_from(["flip", "insert", "cut"]),
       at=st.integers(0, 64), data=st.binary(min_size=1, max_size=12))
@example(fmt="csv", edit="insert", at=64, data=b"99999999999999999999\n")
@example(fmt="fwsq", edit="insert", at=14, data=b"\xff" * 9)
def test_mutated_sequence_file_reads_or_raises_a_typed_error(tmp_path_factory, fmt, edit, at, data):
    original = ORIGINALS[fmt]
    at = min(at, len(original) - (edit == "flip"))
    if edit == "flip":
        mutated = original[:at] + bytes([original[at] ^ (data[0] or 1)]) + original[at + 1:]
    elif edit == "insert":
        mutated = original[:at] + data + original[at:]
    else:
        mutated = original[:at]
    try:
        if fmt == "fwsq":
            loads(mutated)
        else:
            path = tmp_path_factory.getbasetemp() / "mutated.csv"
            path.write_bytes(mutated)
            read_csv(path)
    except (SequenceFormatError, ConfigurationError):
        pass


# (command line that runs, numeric flag appended to it); the appended flag wins.
NUMERIC_FLAGS = [
    *((["theta", "--alpha", "0.2"], f) for f in ["--alpha"]),
    *((["fractal", "--alpha", "0.25", "--height", "64"], f) for f in ["--alpha", "--height"]),
    *((["generate", "--family", "uniform", "--T", "64"], f) for f in ["--T", "--delta", "--base-len", "--k", "--seed"]),
    *((["stats", "--family", "uniform", "--T", "64", "--T-list", "64", "--trials", "200"], f) for f in ["--trials"]),
    *((["predict", "--family", "uniform", "--T", "64", "--predictor", "weighted_majority", "--trials", "20"], f)
      for f in ["--trials", "--window", "--x", "--block-len", "--theta", "--alpha"]),
    *((["inversion", "--family", "uniform", "--T", "64"], f) for f in ["--min-len"]),
    *((["alphaq", "--family", "uniform", "--T", "256", "--alpha", "0.2", "--x", "64", "--trials", "1000"], f)
      for f in ["--alpha", "--x", "--trials"]),
    *((["fbm", "--hurst", "0.6", "--grid-len", "32", "--window", "8", "--trials", "200"], f)
      for f in ["--hurst", "--grid-len", "--seed", "--window", "--lag-ratio", "--trials", "--sample"]),
    *((["sweep", "--families", "uniform", "--T-list", "64", "--trials", "200", "--parallelism", "1"], f)
      for f in ["--alpha", "--k", "--trials", "--parallelism", "--master-seed"]),
]


def not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


ODD = st.one_of(st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e999", "-1e999"]),
                st.text(max_size=8).filter(not_a_number))


@FUZZ
@given(case=st.sampled_from(NUMERIC_FLAGS), text=ODD)
def test_odd_numeric_flag_exits_2(manifests, case, text):
    argv, flag = case
    _, out = manifests
    assert exit_code([*argv, f"{flag}={text}", "--output-dir", str(out)]) == 2


BETTOR = ["predict", "--predictor", "adaptive_bettor", "--family", "opt_frw", "--T", "64", "--base-len", "8",
          "--trials", "10"]
EXTREMES = [0, -1, 8, 2**31, 2**63, 2**64, 1e308, -1e308, 5e-324, 0.25]


@settings(FUZZ, max_examples=100)
@given(theta=st.sampled_from(EXTREMES), alpha=st.sampled_from(EXTREMES))
@example(theta=8, alpha=1e308)
@example(theta=HUGE, alpha=0.25)
def test_bettor_flag_extremes_exit_0_or_2(manifests, theta, alpha):
    _, out = manifests
    assert exit_code([*BETTOR, f"--theta={theta}", f"--alpha={alpha}", "--output-dir", str(out)]) in (0, 2)
