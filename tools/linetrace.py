"""Line trace of the package source under a pytest run: which `src/` lines ran.

Runs pytest in this process under ``sys.settrace`` and records every line of
``src/epicast/*.py`` that executes.  A line is executable if the compiled
module maps at least one bytecode instruction to it (``co_lines`` of every code
object, nested ones included).  Prints executed / executable lines per file and
in total, then every unrun line with its source.  Uses the standard library
only; pytest is what the tests already need.

    python tools/linetrace.py                 # tier-1: every test under tests/
    python tools/linetrace.py tests/test_x.py # any pytest arguments

Only this process is traced: a test that runs the CLI in a child process adds
nothing.  A tracer can keep frames alive, so a test that counts cyclic garbage
may fail under it and pass untraced.  Such a test still runs; its outcome is
printed marked as one a tracer can change, and a failure of it does not set
the exit status.  The exit status is 1 if any other test fails, else 0.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "epicast"
# Tests whose outcome a tracer can change: they count garbage that live frames hold.
TRACER_SENSITIVE = {
    "tests/test_tape_lifetime.py::test_training_cycle_leaves_no_cyclic_garbage",
}


def executable_lines(path: Path) -> set[int]:
    """Every line the compiled module maps an instruction to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace(pytest_args: list[str]) -> tuple[dict[str, set[int]], dict[str, str]]:
    """Run pytest under the tracer; return the lines run per file and each
    test's outcome, "failed" if any of its phases failed."""
    prefix = str(SRC) + os.sep
    run: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # the def line's RESUME raises no line event of its own
        run.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    outcomes: dict[str, str] = {}

    class Outcomes:
        def pytest_runtest_logreport(self, report):
            if (report.when == "call" or report.failed) and outcomes.get(report.nodeid) != "failed":
                outcomes[report.nodeid] = report.outcome

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[Outcomes()])
    finally:
        sys.settrace(None)
    return run, outcomes


def main(argv: list[str]) -> int:
    run, outcomes = trace(argv)
    total_run = total = 0
    unrun: list[str] = []
    print()
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        hit = lines & run.get(str(path), set())
        total_run, total = total_run + len(hit), total + len(lines)
        print(f"{len(hit):6d} / {len(lines):6d}  {path.name}")
        source = path.read_text().splitlines()
        unrun += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}" for n in sorted(lines - hit)]
    print(f"{total_run:6d} / {total:6d}  total ({total - total_run} unrun)")
    if unrun:
        print("\nunrun lines:")
        print("\n".join(f"  {line}" for line in unrun))
    print()
    for nodeid in sorted(TRACER_SENSITIVE & set(outcomes)):
        print(f"{outcomes[nodeid]} under the tracer (a tracer artefact if failed; check untraced): {nodeid}")
    failed = sorted(n for n, outcome in outcomes.items() if outcome == "failed" and n not in TRACER_SENSITIVE)
    for nodeid in failed:
        print(f"FAILED {nodeid}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
