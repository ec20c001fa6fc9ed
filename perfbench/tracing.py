"""Span recording around calls into fractalwalk's public functions.

The benchmark measures each layer from outside: :func:`install` replaces the
public functions listed in :data:`WRAPPED` with wrappers that record a span
(name, start, end, parent span, job id, counts) and returns a function that
restores the originals.  A function re-imported by another module is patched
in every ``fractalwalk`` namespace that holds it, including module-level
dicts such as the CLI's command table.

The ``generators`` wrappers ask for ``with_counters=True`` and drop the
counters before returning; that draws no random numbers, so traced results
are bit-identical to untraced ones.

Spans stay in memory; :meth:`Tracer.dump` writes them out when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread of control."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        rec = Span(self._next_id, name, self.clock(), 0.0, parent, self.job)
        self._next_id += 1
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._stack.pop()
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path, job: str | None = None, id_offset: int = 0) -> list[Span]:
    """Spans written by :meth:`Tracer.dump`, re-tagged with ``job`` and shifted ids."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    out = []
    for r in raw:
        parent = None if r["parent"] is None else r["parent"] + id_offset
        out.append(Span(r["id"] + id_offset, r["name"], r["start"], r["end"], parent, job, r["counts"]))
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# Wrappers


def _plain(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _with_counters(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, with_counters=False, **kwargs):
        with tracer.span(name) as rec:
            out, counters = fn(*args, with_counters=True, **kwargs)
            spec = args[0] if args else kwargs["spec"]
            rec.counts.update(
                entries=int(out.shape[0]) * spec.total_len,
                bytes=int(out.nbytes),
                merges=counters.merges,
                flip_steps=counters.flip_steps,
                augment_events=counters.augment_events,
                attempts=counters.attempts,
                accepted=counters.accepted,
            )
        return (out, counters) if with_counters else out

    return wrapper


def _inversion(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            report = fn(*args, **kwargs)
            rec.counts["intervals"] = report.n_intervals
        return report

    return wrapper


def _fbm_batch(tracer: Tracer, name: str, fn):
    from fractalwalk import fbm

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            misses = fbm._cholesky.cache_info().misses
            out = fn(*args, **kwargs)
            rec.counts["cold"] = int(fbm._cholesky.cache_info().misses > misses)
            rec.counts["entries"] = int(out.size)
        return out

    return wrapper


def _fractal(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            seq = fn(*args, **kwargs)
            rec.counts["entries"] = int(seq.values.shape[0])
        return seq

    return wrapper


def _dumps(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            data = fn(*args, **kwargs)
            rec.counts["bytes"] = len(data)
        return data

    return wrapper


def _loads(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(data, *args, **kwargs):
        with tracer.span(name) as rec:
            rec.counts["bytes"] = len(data)
            return fn(data, *args, **kwargs)

    return wrapper


# (module, function, span name, wrapper factory)
WRAPPED = (
    ("generators", "generate_batch", "generators.generate_batch", _with_counters),
    ("generators", "simulate_heights", "generators.simulate_heights", _with_counters),
    ("analysis", "estimate_delta", "analysis.estimate_delta", _plain),
    ("analysis", "certify_inversion", "analysis.certify_inversion", _plain),
    ("analysis", "alpha_q_estimate", "analysis.alpha_q_estimate", _plain),
    ("analysis", "deviation_stats", "analysis.deviation_stats", _plain),
    ("analysis", "height_moment_checks", "analysis.height_moment_checks", _plain),
    ("analysis", "inversion_ratio", "analysis.inversion_ratio", _inversion),
    ("analysis", "inversion_ratio_naive_batch", "analysis.inversion_ratio_naive_batch", _plain),
    ("predictors", "run_plan", "predictors.run_plan", _plain),
    ("predictors", "sign_of_prefix_plan", "predictors.sign_of_prefix_plan", _plain),
    ("predictors", "weighted_majority_expected_payoff", "predictors.weighted_majority_expected_payoff", _plain),
    ("predictors", "block_momentum_payoff", "predictors.block_momentum_payoff", _plain),
    ("predictors", "adaptive_inversion_bettor", "predictors.adaptive_inversion_bettor", _plain),
    ("fbm", "fbm_sample_batch", "fbm.fbm_sample_batch", _fbm_batch),
    ("fractal", "build_fractal", "fractal.build_fractal", _fractal),
    ("seqio", "dumps", "seqio.dumps", _dumps),
    ("seqio", "loads", "seqio.loads", _loads),
    ("cli", "cmd_sweep", "cli.sweep", _plain),
)


def install(tracer: Tracer):
    """Patch every namespace holding a wrapped function; return the undo callable."""
    undo = []
    for module, attr, name, factory in WRAPPED:
        orig = getattr(importlib.import_module(f"fractalwalk.{module}"), attr)
        wrapped = factory(tracer, name, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fractalwalk" or mod_name.startswith("fractalwalk.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((setattr, mod, key, orig))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapped
                            undo.append((dict.__setitem__, value, k, orig))

    def restore() -> None:
        for fn, target, key, orig in reversed(undo):
            fn(target, key, orig)

    return restore


# ---------------------------------------------------------------------------
# Per-layer aggregation


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over ``spans``; a layer that was never called reads 0."""
    st = self_times(spans)
    by_id = {s.id: s for s in spans}
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        layer, _, func = s.name.partition(".")
        own = st[s.id]
        c = s.counts
        if layer == "generators":
            m[f"{s.name}.self_s"] += own
            m[f"{s.name}.entries"] += c["entries"]
            for key in ("merges", "flip_steps", "augment_events", "attempts", "accepted"):
                m[f"generators.{key}"] += c[key]
            if func == "generate_batch":
                m[f"{s.name}.calls"] += 1
                m[f"{s.name}.bytes"] += c["bytes"]
        elif layer == "analysis":
            m[f"{s.name}.self_s"] += own
            if func == "inversion_ratio":
                m[f"{s.name}.calls"] += 1
                m[f"{s.name}.intervals"] += c["intervals"]
        elif layer == "predictors":
            m["predictors.self_s"] += own
            parent = by_id.get(s.parent)
            if parent is None or not parent.name.startswith("predictors."):
                m["predictors.calls"] += 1
        elif layer == "fbm":
            m["fbm.fbm_sample_batch.cold_s" if c["cold"] else "fbm.fbm_sample_batch.warm_self_s"] += own
            m["fbm.entries"] += c["entries"]
        elif layer == "fractal":
            m[f"{s.name}.self_s"] += own
            m["fractal.entries"] += c["entries"]
        elif layer == "seqio":
            m[f"{s.name}.self_s"] += own
            m["seqio.bytes"] += c["bytes"]
        elif layer == "cli":
            m["cli.sweep.self_s"] += own
    attempts = m.pop("generators.attempts", 0.0)
    accepted = m.pop("generators.accepted", 0.0)
    m["generators.accept_ratio"] = accepted / attempts if attempts else 0.0
    return dict(m)
