"""Trace the package source: which `src/` lines a pytest run runs, and which
`src/` functions the six commands enter.

Line mode runs pytest in this process under ``sys.settrace`` and records every
line of ``src/epicast/*.py`` that executes.  A line is executable if the
compiled module maps at least one bytecode instruction to it (``co_lines`` of
every code object, nested ones included).  Prints executed / executable lines
per file and in total, then every unrun line with its source.

Command mode runs ``synth``, ``train`` (synthetic with ``scale = true``, and
on the written CSVs with ``epsilon = 5`` and ``mean-l2-norm``), ``forecast``,
``evaluate``, ``ablate`` over all ten variants and ``report``, at 6 regions by
40 days, in this process with a call tracer set before ``epicast`` is
imported.  It prints every ``src/`` function (methods, nested functions and
lambdas too) that no command entered, each with its reason if ``EXEMPT`` lists
it.  The exit status is 1 if a command fails, an unentered function is not
exempt, or an exemption names a function that is gone or that a command
enters; else 0.  Only the package next to this file is traced, so a copy of
``src/`` and ``tools/`` checks the copy.  Uses the standard library only;
pytest is what the tests already need.

    python tools/linetrace.py                 # tier-1: every test under tests/
    python tools/linetrace.py tests/test_x.py # any pytest arguments
    python tools/linetrace.py --commands      # the functions no command enters (a few seconds)

Only this process is traced: a test that runs the CLI in a child process adds
nothing.  A tracer can keep frames alive, so a test that counts cyclic garbage
may fail under it and pass untraced.  Such a test still runs; its outcome is
printed marked as one a tracer can change, and a failure of it does not set
the exit status.  In line mode the exit status is 1 if any other test fails,
else 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "epicast"
# Tests whose outcome a tracer can change: they count garbage that live frames hold.
TRACER_SENSITIVE = {
    "tests/test_tape_lifetime.py::test_training_cycle_leaves_no_cyclic_garbage",
}
# `src/` functions that no command enters, by module and qualified name, each with why it stays
EXEMPT = {
    "trainer.TrainingDivergedError.__init__": "error path: a non-finite training loss (exit 5)",
    "forecaster.ForecastDivergedError.__init__": "error path: a non-finite forecast (exit 5)",
    "model.ModelState.working_set_keys": "error path: an epoch or forecast step that does not fit (exit 2)",
    "cli._synth_size_error": "error path: a synthetic series that does not fit (exit 2)",
    "model.backbone_hash": "bench/child.py reads it, so it moves only with a benchmark change",
    "tensor.Tensor._prev": "bench/tracing.py reads it, so it moves only with a benchmark change",
    "backbone.BackboneState.export_weights": "the only writer of the backbone.weights format README documents",
    "data.synth_sir": "tools/digests.py builds every ledger case with it",
}
# the config keys every command reads; then each command with its output directory and the keys it
# adds, where {data} is the directory synth writes and {out} the one holding every output directory
BASE_CONFIG = {
    "synth.regions": "6", "synth.days": "40", "w": "3", "horizon": "6", "split.test": "6", "split.val": "3",
    "backbone.depth": "1", "backbone.width": "8", "backbone.heads": "2", "train.max_epochs": "2",
    "train.patience": "1",
}  # fmt: skip
COMMANDS = [
    ("synth", "data", {}),
    ("train", "synthetic", {"scale": "true"}),
    ("train", "csv", {"data.cases": "{data}/cases.csv", "data.mobility": "{data}/mobility.csv", "epsilon": "5",
                      "train.loss_form": "mean-l2-norm"}),
    ("forecast", "synthetic", {"scale": "true"}),
    ("evaluate", "synthetic", {"scale": "true"}),
    ("ablate", "ablate", {}),
    ("report", "report", {"report.inputs": "{out}/synthetic/metrics.json,{out}/ablate/metrics.json"}),
]  # fmt: skip


def executable_lines(path: Path) -> set[int]:
    """Every line the compiled module maps an instruction to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def functions(path: Path) -> dict[tuple[str, int, str], str]:
    """Every function the module defines, nested ones and lambdas too, keyed as
    the tracer sees it, (file, first line, code name), and named by module and
    qualified name; class bodies and comprehensions are parts of their scope."""
    found: dict[tuple[str, int, str], str] = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        if code.co_name == "<lambda>" or (code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<")):
            found[str(path), code.co_firstlineno, code.co_name] = f"{path.stem}.{code.co_qualname}"
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def run_commands(workdir: Path) -> tuple[set[tuple[str, int, str]], list[str]]:
    """Run the six commands in `workdir` under a call tracer; return the (file,
    first line, name) of every `src/` code object entered, and a line per
    failed command."""
    prefix = str(SRC) + os.sep
    entered: set[tuple[str, int, str]] = set()

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(call)
    try:
        from epicast import cli

        if not cli.__file__.startswith(prefix):
            return entered, [f"imported {cli.__file__}, not the package under {SRC}"]
        failed = []
        for command, out, keys in COMMANDS:
            values = {k: v.format(data=workdir / "data", out=workdir) for k, v in {**BASE_CONFIG, **keys}.items()}
            cfg = workdir / f"{command}-{out}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main([command, "--config", str(cfg), "--out", str(workdir / out)])
            if code != 0:
                failed.append(f"{command} ({out}) exited {code}: {log.getvalue().strip()}")
    finally:
        sys.settrace(None)
    return entered, failed


def commands_main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        entered, failed = run_commands(Path(tmp))
    defined = {key: qualname for path in sorted(SRC.glob("*.py")) for key, qualname in functions(path).items()}
    unentered = [(f"{Path(file).relative_to(ROOT)}:{line}", defined[file, line, name])
                 for file, line, name in sorted(set(defined) - entered)]  # fmt: skip
    stale = sorted(set(EXEMPT) - {qualname for _, qualname in unentered})
    print(f"{len(unentered)} of {len(defined)} src/ functions entered by no command:")
    for where, qualname in unentered:
        print(f"  {where} {qualname}: {EXEMPT.get(qualname, 'NOT EXEMPT')}")
    for name in stale:
        print(f"stale exemption: {name} is gone or a command enters it")
    for line in failed:
        print(line)
    return 1 if failed or stale or any(qualname not in EXEMPT for _, qualname in unentered) else 0


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
    if argv == ["--commands"]:
        return commands_main()
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
