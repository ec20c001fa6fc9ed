"""One benchmark process: build a workload's job list, run it, report.

Started by ``run.py``, never directly.  It prints protocol lines prefixed
with ``@@perfbench`` on standard output: ``ready`` once the job list is built
(the end of set-up), then one ``result`` line with a JSON payload.  With
``--setup-only`` it stops after ``ready``.

Untraced (``--trace 0``) it runs the job list once and reports the job
latencies, throughput and peak RSS.  Traced (``--trace 1``) it runs the
list untraced, then again with every wrapped function recording spans, checks
that both passes produced identical outputs, and reports the per-layer totals
of the traced pass.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fractalwalk  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROTOCOL = "@@perfbench"
IMPORT_SAMPLES = 3


@dataclass
class Record:
    kind: str
    wall: float
    entries: int
    error: str | None
    digest: str | None


class Context:
    """What a job may use: CLI subprocesses, traced through the shim when tracing."""

    def __init__(self, env: dict, span_dir: Path):
        self.env = env
        self.span_dir = span_dir
        self.tracer: tracing.Tracer | None = None
        self.child_spans: list[tracing.Span] = []
        self.job: str | None = None
        self.child_runs = 0

    def cli(self, argv: list[str]) -> int:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fractalwalk", *argv]
        else:
            self.child_runs += 1
            span_file = self.span_dir / f"spans-{self.child_runs}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(span_file), *argv]
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        if self.tracer is not None and span_file.exists():
            # Each child numbers its spans from 0; shift them clear of this process's ids.
            self.child_spans.extend(tracing.load_spans(span_file, self.job, self.child_runs << 32))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return proc.returncode


def run_job(i: int, job: workloads.Job, ctx: Context) -> Record:
    """Run one job, timing ``job.run`` only; a failure is recorded, never raised."""
    ctx.job = f"{i}:{job.kind}"
    if ctx.tracer is not None:
        ctx.tracer.job = ctx.job
    error = out = None
    t0 = time.perf_counter()
    try:
        out = job.run(ctx)
    except Exception as exc:  # noqa: BLE001 - a failing job is counted, not raised
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if error is None:
        try:
            error = job.check(out)
        except Exception as exc:  # noqa: BLE001
            error = f"check raised {type(exc).__name__}: {exc}"
    digest = measure.fingerprint(out) if error is None else None
    return Record(job.kind, wall, job.entries, error, digest)


def check_twins(jobs: list[workloads.Job], records: list[Record]) -> None:
    for i, job in enumerate(jobs):
        twin = job.twin
        if twin is not None and records[i].error is None and records[i].digest != records[twin].digest:
            records[i].error = f"output differs from job {twin} ({jobs[twin].kind}) on the same inputs"


def run_pass(jobs: list[workloads.Job], ctx: Context) -> list[Record]:
    records = [run_job(i, job, ctx) for i, job in enumerate(jobs)]
    check_twins(jobs, records)
    return records


def peak_rss_kb() -> int:
    """Largest resident set so far of this process or of any child it has waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def scipy_version() -> str | None:
    """Read from the installed metadata, so that recording it imports nothing."""
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def kinds_summary(records: list[Record]) -> dict:
    out: dict[str, dict] = {}
    for r in records:
        k = out.setdefault(r.kind, {"samples": 0, "walls_ms": []})
        k["samples"] += 1
        k["walls_ms"].append(round(r.wall * 1000, 3))
    return out


def cli_metrics(records: list[Record]) -> dict[str, float]:
    """Cold start, sweep throughput and pool efficiency; 0 where the jobs did not run."""
    def med(kind):
        walls = [r.wall for r in records if r.kind == kind]
        return measure.median(walls) if walls else math.nan

    p1, p2 = med("cli.sweep_p1"), med("cli.sweep_p2")
    out = {
        "cli.cold_start_ms": med("cli.theta") * 1000.0,
        "cli.sweep_p1_cells_per_s": workloads.SWEEP_CELLS / p1,
        "cli.sweep_p2_cells_per_s": workloads.SWEEP_CELLS / p2,
        "cli.sweep.parallel_efficiency": p1 / (2.0 * p2),
    }
    return {k: 0.0 if math.isnan(v) else v for k, v in out.items()}


def untraced_result(records: list[Record]) -> dict:
    walls = [r.wall for r in records]
    tail_value, pct, beyond = measure.tail(walls)
    metrics = {
        "job_p50_ms": measure.median(walls) * 1000.0,
        "job_tail_ms": tail_value * 1000.0,
        "entries_per_s": sum(r.entries for r in records) / sum(walls),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }
    return {"metrics": metrics, "tail": {"percentile": pct, "beyond": beyond, "samples": len(walls)}}


def import_probe(env: dict) -> tuple[float, float]:
    totals, scipys = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fractalwalk"],
                              env=env, capture_output=True, text=True, timeout=60)
        total, sp = measure.importtime_ms(proc.stderr)
        totals.append(total)
        scipys.append(sp)
    return measure.median(totals), measure.median(scipys)


def traced_result(jobs, ctx: Context) -> tuple[list[Record], dict]:
    """Each job runs untraced and traced back to back, alternating which goes first,
    so that both see the same cache state and first-run costs fall on both sides."""
    tracer = tracing.Tracer()

    def run_traced(i, job):
        ctx.tracer = tracer
        restore = tracing.install(tracer)
        try:
            return run_job(i, job, ctx)
        finally:
            restore()
            ctx.tracer = None

    plain, traced = [], []
    for i, job in enumerate(jobs):
        if i % 2:
            traced.append(run_traced(i, job))
            plain.append(run_job(i, job, ctx))
        else:
            plain.append(run_job(i, job, ctx))
            traced.append(run_traced(i, job))
        if plain[i].error is None and traced[i].error is None and plain[i].digest != traced[i].digest:
            traced[i].error = "traced output differs from the untraced output"
    check_twins(jobs, plain)
    check_twins(jobs, traced)
    spans = tracer.spans + ctx.child_spans
    p1_jobs = {f"{i}:{j.kind}" for i, j in enumerate(jobs) if j.kind == "cli.sweep_p1"}
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(tracing.layer_metrics(spans))
    # The sweep's own time is read from --parallelism 1 only; at 2 the work
    # happens in pool workers whose spans are not collected.
    metrics["cli.sweep.self_s"] = tracing.layer_metrics([s for s in spans if s.job in p1_jobs]).get(
        "cli.sweep.self_s", 0.0)
    metrics.update(cli_metrics(plain))
    metrics["cli.import_ms"], metrics["cli.import.scipy_ms"] = import_probe(ctx.env)
    metrics["trace.overhead_ratio"] = sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1.0
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"layer metrics missing from the benchmark definition: {sorted(unknown)}")
    return plain + traced, {"metrics": metrics}


def _per_layer_names() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


PER_LAYER = _per_layer_names()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    jobs, rounds = workloads.plan(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, out_dir)
    print(PROTOCOL, "ready", flush=True)
    if args.setup_only:
        return 0

    span_dir = out_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(dict(os.environ), span_dir)
    if args.trace:
        records, payload = traced_result(jobs, ctx)
    else:
        records = run_pass(jobs, ctx)
        payload = untraced_result(records)
    failures = [f"job {i % len(jobs)} {r.kind}: {r.error}" for i, r in enumerate(records) if r.error]
    payload.update(
        attempted=len(records),
        failed=len(failures),
        failures=failures[:50],
        meta={
            "rounds": rounds,
            "jobs_per_pass": len(jobs),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy_version(),
            "fractalwalk": fractalwalk.__version__,
            "blas_threads": blas_threads(),
            "kinds": kinds_summary(records),
        },
    )
    print(PROTOCOL, "result", json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
