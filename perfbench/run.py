"""fractalwalk benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics.  A fuller record of the run
(metadata, tail percentile, per-job samples, failures) is written to
``perfbench/results/``.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
# A run must end within 180 s.  The worker sizes its job list to fit (see
# workloads.WORK_BUDGET_S); a run still going at the deadline is stopped.
DEADLINE_S = 170.0
PROTOCOL = "@@perfbench"

sys.path.insert(0, str(HERE))
import measure  # noqa: E402


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fractalwalk").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


class Worker:
    """A ``worker.py`` child; killed if the run passes its deadline."""

    def __init__(self, args: argparse.Namespace, env: dict, out_dir: Path, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)]
        if setup_only:
            cmd.append("--setup-only")
        self.start = time.perf_counter()
        self.timed_out = False
        # Its own process group, so that a kill at the deadline also stops
        # the CLI processes it may be waiting for.
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), self.kill)
        self.timer.start()

    def kill(self) -> None:
        self.timed_out = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def lines(self):
        for line in self.proc.stdout:
            if line.startswith(PROTOCOL):
                yield line[len(PROTOCOL):].strip()

    def close(self) -> int:
        self.proc.stdout.close()
        code = self.proc.wait()
        self.timer.cancel()
        return code


def run_workers(args: argparse.Namespace, env: dict, out_dir: Path) -> tuple[list[float], dict | None, str]:
    """Set-up samples and the result payload of the measuring worker."""
    deadline = time.perf_counter() + DEADLINE_S
    setup: list[float] = []
    samples = SETUP_SAMPLES if args.trace == 0 else 1
    for i in range(samples):
        worker = Worker(args, env, out_dir, deadline, setup_only=i < samples - 1)
        result = None
        try:
            for msg in worker.lines():
                if msg == "ready":
                    setup.append(time.perf_counter() - worker.start)
                elif msg.startswith("result "):
                    result = json.loads(msg[len("result "):])
        finally:
            code = worker.close()
        if worker.timed_out:
            return setup, None, (f"stopped at the {DEADLINE_S:.0f} s deadline; the machine ran this "
                                 "workload much slower than the job list was sized for")
        if code != 0:
            return setup, None, f"worker exited with code {code}"
    return setup, result, "" if result is not None else "worker printed no result"


def main(argv: list[str] | None = None) -> int:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            definition = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    ap = argparse.ArgumentParser(description="fractalwalk benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in definition["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "fractalwalk" / "__init__.py").is_file():
        return fail(f"no fractalwalk sources under {SRC}; run from the root of a fractalwalk checkout")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)

    out_dir = HERE / "out" / str(os.getpid())
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        setup, payload, error = run_workers(args, env, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if payload is None:
        return fail(error)

    metrics = payload["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = measure.median(setup)
    group = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in definition[group]}
    missing = sorted(k for k in units if not math.isfinite(metrics.get(k, math.nan)))
    if missing:
        return fail(f"run produced no finite value for {missing}")

    attempted, failed = payload["attempted"], payload["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": nproc,
        "platform": platform.platform(),
        "setup_samples_s": setup,
        "failed_ratio": failed / attempted,
        **{k: v for k, v in payload.items() if k != "metrics"},
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in payload["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    summary = {k: record[k] for k in ("workload", "seed", "git_commit", "source_digest", "nproc", "failed_ratio")}
    summary.update({k: v for k, v in payload["meta"].items() if k != "kinds"}, tail=payload.get("tail"))
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
