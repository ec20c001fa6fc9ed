"""Tests for the package's public namespace."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fractalwalk

# The public names before ``__all__`` was built from the submodules' own lists.
EARLIER_NAMES = """
    ALPHA_MAX BASE_HEIGHT BitSequence CertificationReport
    ConfigurationError CriterionResult DeviationReport DeviationRow EstimationMode
    Family FbmParams FlipMode FractalParams Generated GeneratorSpec
    IntSequence Interval InversionReport MergeCounters MomentChecks PayoffLedger
    PredictionPlan SamplingBudgetError SequenceFormatError StopCause StopRule
    UnpredictabilityReport UnpredictabilityRow adaptive_inversion_bettor
    afrw_moment_oracle alpha_q_estimate block_momentum_payoff
    build_fractal certify_inversion constant_plan decomposition_height_distribution
    default_base_len derive_rng derive_seed deviation_stats distribution_moment dumps
    entropy_threshold estimate_delta exact_height_law fbm_cov fbm_cov_matrix
    fbm_sample_batch fbm_sign_predictor_payoff fractal_length generate generate_batch
    height_moment_checks ideal_height_distribution inversion_ratio
    inversion_ratio_naive_batch iter_generate_batches loads make_rng measured_exponent
    read_binary read_csv run_all run_criterion run_plan sign_of_prefix_plan
    sign_predictor_closed_form simulate_heights solve_theta split_points theta_residual
    total_variation upper_bound_rms weighted_majority_expected_payoff
    weighted_majority_guarantee weighted_majority_rate weighted_majority_run
""".split()


def test_every_public_name_resolves_once():
    names = fractalwalk.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(fractalwalk, name) for name in names)
    assert set(EARLIER_NAMES) <= set(names)
    assert len(EARLIER_NAMES) == 77


def test_every_public_name_is_used_or_documented():
    """Each public name is read by another module of the package or named in README.md."""
    root = Path(fractalwalk.__file__).parent
    readme = (root.parents[1] / "README.md").read_text("utf-8")
    texts = {path.stem: path.read_text("utf-8") for path in root.glob("*.py")}
    unused = []
    for source in fractalwalk._SOURCES:
        for name in getattr(fractalwalk, source).__all__:
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not word.search(readme) and not any(word.search(text) for stem, text in texts.items()
                                                   if stem not in (source, "__init__")):
                unused.append(f"{source}.{name}")
    assert not unused, f"public names no module uses and README.md does not name: {unused}"


def test_submodules_stay_attributes_of_the_package():
    for name in fractalwalk._SOURCES:
        assert getattr(fractalwalk, name).__name__ == f"fractalwalk.{name}"


def test_every_module_is_a_source():
    """Each module but the command line's adds its ``__all__`` to the package's."""
    modules = {path.stem for path in Path(fractalwalk.__file__).parent.glob("*.py")}
    assert modules - {"__init__", "__main__", "cli"} == set(fractalwalk._SOURCES)


def test_exact_laws_are_defined_in_laws_only():
    for name in fractalwalk.laws.__all__:
        assert getattr(fractalwalk, name) is getattr(fractalwalk.laws, name)
        assert getattr(fractalwalk, name).__module__ == "fractalwalk.laws"
        assert name not in fractalwalk.analysis.__all__
    assert fractalwalk.analysis.afrw_moment_oracle is fractalwalk.laws.afrw_moment_oracle


def fresh_interpreter(script: str) -> str:
    """Standard output of ``script`` run by a new interpreter that imports this package."""
    src = str(Path(fractalwalk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    if proc.returncode:
        pytest.fail(f"exit {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def test_import_loads_no_submodule_and_not_numpy():
    out = fresh_interpreter(
        "import sys, fractalwalk\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'fractalwalk')))"
    )
    assert out.split() == ["fractalwalk"]


def test_laws_load_no_estimator_module():
    # The oracles take only the spec types from generators, so they stay
    # independent of the estimators they check.
    out = fresh_interpreter("import sys, fractalwalk.laws\nprint(*sys.modules)")
    estimators = {f"fractalwalk.{m}" for m in ("analysis", "predictors", "verify", "fbm", "fractal", "seqio")}
    assert not estimators & set(out.split())


def test_streams_load_only_errors():
    # Seeds, offsets and pools sit under every other module.  Importing them
    # loads no other package module, no pool, and no module that numpy has not
    # loaded already (numpy loads ctypes itself), and opens no C library.
    out = fresh_interpreter(
        "import sys, numpy\nbefore = set(sys.modules)\nimport fractalwalk.streams as s\n"
        "print(s._glibc.cache_info().currsize, *(set(sys.modules) - before))"
    ).split()
    opened, added = out[0], set(out[1:])
    assert opened == "0"
    assert {m for m in added if m.startswith("fractalwalk")} == {
        "fractalwalk", "fractalwalk.errors", "fractalwalk.streams"}
    assert not {m for m in added if m.split(".")[0] in ("concurrent", "ctypes", "_ctypes")}


def test_readme_quick_start_runs_as_written():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = re.search(r"## Python quick start\n\n```python\n(.*?)```", readme, re.S)
    if block is None:
        pytest.fail("README.md has no Python quick start block")
    out = fresh_interpreter(block.group(1))
    assert "MergeCounters(merges=" in out
    assert "PayoffLedger(payoff=" in out


def test_dir_lists_every_public_name():
    assert set(fractalwalk.__all__) <= set(dir(fractalwalk))
    assert {"analysis", "cli", "verify", "__version__"} <= set(dir(fractalwalk))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fractalwalk.no_such_name
    assert not hasattr(fractalwalk, "__wrapped__")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fractalwalk import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fractalwalk.__all__)
