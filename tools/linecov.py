"""List the lines of src/perov that a test run never executes.

    python tools/linecov.py [pytest arguments]    # default: tests

Runs pytest in this process under a standard-library line tracer
(sys.settrace) that records only frames of files under src/perov, then
prints, module by module, the executable lines (those of the compiled
code objects, by co_lines()) that never ran, and a total. Code run in a
subprocess, such as a CLI test's `python -m perov`, is not traced. Tracing
slows every perov call several times over, so a timing test can overrun its
bound; the tool reports lines, not test results, and exits 0 whatever the
tests did.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perov"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that carry bytecode in path's module and every code object in it."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: 3, 7-9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest

    src = str(ROOT / "src")
    sys.path.insert(0, src)  # and for the tests' subprocesses
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def tracer(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(argv or ["tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in files.items():
        lines = executable_lines(path)
        never = sorted(lines - ran[name])
        total, missed = total + len(lines), missed + len(never)
        if never:
            print(f"{path.relative_to(ROOT)}: {len(never)} of {len(lines)} lines never ran: {spans(never)}")
    print(f"src/perov: {missed} of {total} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
