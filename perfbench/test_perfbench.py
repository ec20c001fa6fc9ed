"""Tests of the benchmark's own code: span arithmetic, tail picking, wrappers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fractalwalk import GeneratorSpec, analysis, cli, generators  # noqa: E402


def span(id, name, start, end, parent=None, **counts):
    return tracing.Span(id, name, start, end, parent, "job", counts)


class TestSelfTimes:
    def test_nested_tree(self):
        # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3).
        spans = [
            span(0, "root", 0.0, 10.0),
            span(1, "a", 1.0, 4.0, parent=0),
            span(2, "c", 2.0, 3.0, parent=1),
            span(3, "b", 5.0, 9.0, parent=0),
        ]
        assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}

    def test_overlapping_children_are_covered_once(self):
        spans = [span(0, "p", 0.0, 10.0), span(1, "x", 2.0, 6.0, parent=0), span(2, "y", 4.0, 8.0, parent=0)]
        assert tracing.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_overrunning_its_parent_is_clipped(self):
        spans = [span(0, "p", 0.0, 5.0), span(1, "x", 3.0, 7.0, parent=0)]
        assert tracing.self_times(spans)[0] == pytest.approx(3.0)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert (outer.name, outer.parent) == ("outer", None)
        assert (inner.name, inner.parent) == ("inner", outer.id)
        assert tracing.self_times(tracer.spans) == {outer.id: 2.0, inner.id: 1.0}

    def test_layer_metrics_count_entry_calls_and_self_time(self):
        spans = [
            span(0, "predictors.adaptive_inversion_bettor", 0.0, 4.0),
            span(1, "predictors.run_plan", 1.0, 2.0, parent=0),
            span(2, "generators.generate_batch", 5.0, 7.0, entries=8, bytes=8, merges=3, flip_steps=2,
                 augment_events=1, attempts=4, accepted=1),
        ]
        m = tracing.layer_metrics(spans)
        assert m["predictors.calls"] == 1
        assert m["predictors.self_s"] == pytest.approx(4.0)
        assert m["generators.generate_batch.self_s"] == pytest.approx(2.0)
        assert m["generators.accept_ratio"] == pytest.approx(0.25)


class TestTail:
    @pytest.mark.parametrize(
        "n, percentile, beyond",
        [(1000, 99.0, 10), (999, 95.0, 49), (200, 95.0, 10), (199, 90.0, 19), (100, 90.0, 10),
         (52, 75.0, 13), (40, 75.0, 10), (39, 50.0, 19), (20, 50.0, 10)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, percentile, beyond):
        values = [float(v) for v in range(1, n + 1)]
        value, p, got_beyond = measure.tail(values[::-1])
        assert (p, got_beyond) == (percentile, beyond)
        assert value == values[n - beyond - 1]
        assert sum(v > value for v in values) == beyond

    def test_too_few_samples_fall_back_to_the_maximum(self):
        assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


SPEC = GeneratorSpec("afrw", 1 << 8, delta=0.3, base_len=2, seed=11)
ENTROPY = GeneratorSpec("entropy_conditioned", 1 << 8, k=1.5, seed=5)


class TestWrapperTransparency:
    def test_generate_batch(self):
        want = generators.generate_batch(SPEC, 40, 7)
        want_entropy = generators.generate_batch(ENTROPY, 40, 7)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            got = generators.generate_batch(SPEC, 40, 7)
            got_entropy, counters = generators.generate_batch(ENTROPY, 40, 7, with_counters=True)
        finally:
            restore()
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert np.array_equal(got_entropy, want_entropy)
        assert counters.accepted == 40
        first = tracer.spans[0]
        assert first.name == "generators.generate_batch"
        assert first.counts["entries"] == 40 * SPEC.total_len
        assert first.counts["bytes"] == want.nbytes

    def test_simulate_heights(self):
        want, counters = generators.simulate_heights(SPEC, 500, 3, with_counters=True)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            got = generators.simulate_heights(SPEC, 500, 3)
            via_analysis = analysis.simulate_heights(SPEC, 500, 3)
        finally:
            restore()
        assert np.array_equal(got, want)
        assert np.array_equal(via_analysis, want)
        assert [s.name for s in tracer.spans] == ["generators.simulate_heights"] * 2
        assert tracer.spans[0].counts["merges"] == counters.merges
        assert tracer.spans[0].counts["entries"] == 500 * SPEC.total_len

    def test_iter_generate_batches(self):
        want = list(generators.iter_generate_batches(SPEC, 50, 9, chunk=16))
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            got = list(analysis.iter_generate_batches(SPEC, 50, 9, chunk=16))
        finally:
            restore()
        assert len(got) == len(want) == 4
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert [s.counts["entries"] for s in tracer.spans] == [16 * 256] * 3 + [2 * 256]

    def test_restore_puts_every_namespace_back(self):
        import fractalwalk

        originals = (generators.generate_batch, cli.generate_batch, fractalwalk.generate_batch,
                     analysis.simulate_heights, cli._COMMANDS["sweep"], cli.cmd_sweep)
        restore = tracing.install(tracing.Tracer())
        assert cli.generate_batch is not originals[1]
        assert cli._COMMANDS["sweep"] is not originals[4]
        restore()
        assert (generators.generate_batch, cli.generate_batch, fractalwalk.generate_batch,
                analysis.simulate_heights, cli._COMMANDS["sweep"], cli.cmd_sweep) == originals


class TestPlan:
    @pytest.mark.parametrize("trace", [0, 1])
    def test_long_runs_are_capped_to_the_work_budget(self, trace, tmp_path):
        wl = workloads.WORKLOADS["mc_heights"]
        _, rounds = workloads.plan(wl, 1, 10_000, trace, tmp_path)
        assert rounds > workloads.MIN_ROUNDS
        assert (1 + trace) * rounds * wl.round_s <= workloads.WORK_BUDGET_S
        assert (1 + trace) * (rounds + 1) * wl.round_s > workloads.WORK_BUDGET_S

    def test_short_runs_keep_two_rounds_and_rerun_round_zero(self, tmp_path):
        jobs, rounds = workloads.plan(workloads.WORKLOADS["mc_heights"], 1, 1, 0, tmp_path)
        assert rounds == workloads.MIN_ROUNDS
        n = len(jobs) // rounds
        assert [j.twin for j in jobs[:n]] == [None] * n
        assert [j.twin for j in jobs[n:]] == list(range(n))


class TestMeasure:
    def test_fingerprint_sees_dtype_and_values(self):
        a = np.arange(6, dtype=np.int8)
        assert measure.fingerprint(a) == measure.fingerprint(a.copy())
        assert measure.fingerprint(a) != measure.fingerprint(a.astype(np.int64))
        assert measure.fingerprint((1.0, float("nan"))) == measure.fingerprint((1.0, float("nan")))
        assert measure.fingerprint([a, b"x"]) != measure.fingerprint([a, b"y"])

    def test_importtime_parsing(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy.core",
            "import time:       300 |        500 |     scipy.special",
            "import time:       200 |        200 |   scipy",
            "import time:        50 |       1250 | fractalwalk",
        ])
        assert measure.importtime_ms(stderr) == (1.25, 0.5)
