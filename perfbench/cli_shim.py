"""Run one ``fractalwalk`` CLI command with spans recorded, for the traced pass.

Usage: ``python cli_shim.py SPAN_FILE <fractalwalk arguments>``.  Installs the
benchmark's wrappers, runs ``fractalwalk.cli.run`` on the arguments, writes
the spans to SPAN_FILE and exits with the command's exit code.  Spans from
``sweep --parallelism 2`` pool workers are not collected.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from fractalwalk import cli  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.run(sys.argv[2:])
    finally:
        restore()
        tracer.dump(sys.argv[1])
    sys.exit(code)
