"""Line-coverage gate: every executable line of ``src/fractalwalk`` runs under the tier-1 tests.

Runs ``pytest tests`` in this process under a ``sys.settrace`` hook, and a
``threading.settrace`` one for the package's own thread pools, and exits 1 if
any executable line of the package did not run, outside :data:`ALLOWED`.  Code
that the tests run in a fresh interpreter or a worker process is not seen, so
each line it alone reaches is listed there with its reason.  ``coverage`` is
not a dependency; the executable lines are those the compiled code objects map
an instruction to.

    python checks/coverage.py            # from the repository root
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractalwalk"

# (file, stripped source line or None for the whole file) -> why tier-1 cannot run it in-process.
ALLOWED = {
    ("__main__.py", None): "only `python -m fractalwalk` runs it, and the tests do that in fresh interpreters",
    ("generators.py", 'raise AssertionError(f"family {fam} has no merge step")'):
        "the `# pragma: no cover` guard in _plan_level: its callers pass merge families only",
    ("streams.py", "return os.cpu_count() or 1"): "_cores' fallback where the OS keeps no affinity mask (not Linux)",
    ("streams.py", "return None"): "_glibc's two refusals: not Linux, or a C library without malloc_trim",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of ``path``'s compiled code maps to."""
    lines, stack = set(), [compile(path.read_text("utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def allowed_lines(path: Path, source: list[str]) -> set[int]:
    """The lines of ``path`` that :data:`ALLOWED` names; an entry that names none fails."""
    allowed = set()
    for (name, text), _ in ALLOWED.items():
        if name != path.name:
            continue
        hit = {i for i, line in enumerate(source, 1) if text is None or line.strip() == text}
        if not hit:
            sys.exit(f"ALLOWED names no line of {name}: {text!r}")
        allowed |= hit
    return allowed


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    seen: dict[str, set[int]] = defaultdict(set)

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in files:
            return None
        hits = seen[path]
        hits.add(frame.f_code.co_firstlineno)

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    sys.path[0] = str(ROOT / "src")  # the package, not this directory
    import pytest

    start = time.perf_counter()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for name, path in files.items():
        source = path.read_text("utf-8").splitlines()
        for n in sorted(executable_lines(path) - seen[name] - allowed_lines(path, source)):
            missed.append(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    print(f"\nline coverage of {len(files)} files under tier-1 in {time.perf_counter() - start:.0f} s: "
          f"{len(missed)} executable lines not run outside the allowlist")
    print(*missed, sep="\n")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
