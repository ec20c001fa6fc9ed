"""Acceptance battery: every headline property of the package at full strength.

Each criterion runs as its own test so the suite prints one pass/fail line per
criterion; run with ``-s`` to also see the per-criterion detail summaries.
These use full trial counts and the stated tolerances — they are the slow,
authoritative checks, unlike the fast unit tests alongside them.
"""

from __future__ import annotations

import contextlib

import pytest

from fractalwalk import verify

CRITERION_NAMES = [name for name, _ in verify.CRITERIA]


def test_battery_is_complete():
    assert len(CRITERION_NAMES) == 15
    assert len(set(CRITERION_NAMES)) == 15


@pytest.mark.parametrize(
    "index,name", list(enumerate(CRITERION_NAMES, start=1)), ids=CRITERION_NAMES
)
def test_criterion(index, name):
    result = verify.run_criterion(name)
    print(verify.format_result(index, result))
    assert result.passed, f"{name}: {result.detail}"


class _Halt(Exception):
    pass


class _HaltOnUse:
    """Stands in for what a criterion computes with, so it stops at its first use."""

    def __getattr__(self, name):
        raise _Halt

    def __call__(self, *args, **kwargs):
        raise _Halt


def test_quick_mode_never_asks_for_more_trials(monkeypatch):
    asked = []
    scale = verify._scale

    def record(trials, quick):
        asked.append((trials, scale(trials, quick)))
        return asked[-1][1]

    monkeypatch.setattr(verify, "_scale", record)
    for name in ("analysis", "fbm", "fractal", "predictors", "simulate_heights", "_map_batches"):
        monkeypatch.setattr(verify, name, _HaltOnUse())
    for _name, check in verify.CRITERIA:
        with contextlib.suppress(_Halt):
            check(quick=True)
    assert len(asked) >= 10
    assert all(1 <= quick <= full for full, quick in asked), asked
