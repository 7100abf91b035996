"""epicast benchmark: one workload run, every metric printed by name with its unit.

    python3 bench/run.py --workload train_w7 --seed 1 --seconds 25 --trace 0

Each run executes in a fresh child process (bench/child.py), because
``ru_maxrss`` is process-wide.  ``--seconds`` sets the run length as a fixed
number of timed ops: seconds divided by the workload's nominal op time.
With ``--trace 0`` the last line of standard
output is one JSON object holding the end-to-end metrics; with ``--trace 1``
the run is made twice from the same seed, untraced and traced, for a fixed
number of ops, and the JSON holds the per-layer metrics, including the
tracing overhead (traced minus untraced ``op_s.p50``).  The lines before it
give each metric with its unit, the tail percentile and sample count, the
environment, and the correctness record.

See bench/README.md for the workloads, the metrics and what each layer metric
is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Per workload: the op time measured at the commit that added the benchmark,
# which turns --seconds into a fixed number of timed ops (the run length is then
# the same on every commit, and so are the GC cadence and the rank of every
# percentile), and the timed ops in each child of a traced run (fixed, so
# per-layer counts repeat exactly).
NOMINAL_OP_S = {"train_w7": 0.45, "train_long": 0.40, "forecast_8step": 0.90}
TRACE_OPS = {"train_w7": 12, "train_long": 12, "forecast_8step": 8}
# Fresh processes that only time set-ups.  Set-up is pure-Python heavy, and its
# speed differed by up to 1.8x between processes while staying steady within
# one, so setup_s pools the set-ups of several processes.
SETUP_PROCS = 4
RUN_BUDGET_S = 170.0  # the whole invocation, children included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RSS_CAVEAT = (
    "peak RSS depends on run length: every tape node's _bw closure captures its own output node, "
    "so tapes are freed only by the cyclic GC; peak_rss_mb is read at the end of the timed loop, "
    "whose length in ops is fixed by --seconds"
)


def child_env() -> dict:
    """Child environment: epicast from src/, single-threaded BLAS.

    One BLAS thread: at these shapes two threads were no faster on a 2-CPU
    machine, and their spinning competes with the interpreter's own thread,
    which makes timings noisier."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str], budget: float) -> dict:
    """Run bench/child.py and return its JSON record (status 'timeout' or
    'error' with no measurements if it printed none)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--budget", f"{budget:.0f}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=budget + 10)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"status": "timeout", "failures": ["child killed after its budget"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"status": "error", "failures": [f"child exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum (percentile 100) when there are fewer than 11."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0
    k = len(xs) - 10
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(rec: dict, setup_s: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one child record, and what qualifies them."""
    ops = rec["op_s"]
    tail_s, pct = tail(ops)
    metrics = {
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(ops) / rec["loop_s"], "1/s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    notes = {
        "op_s.tail": f"p{pct:.1f} of {len(ops)} ops",
        "ops_per_s": f"{len(ops)} ops in {rec['loop_s']:.2f} s",
        "peak_rss_mb": f"after the warm-up op and {rec['ops_run']} timed ops",
        "setup_s": f"median of {len(setup_s)} set-ups in {SETUP_PROCS + 1} processes",
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="nominal length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "epicast" / "__init__.py").is_file():
        print(f"error: epicast sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        ops = ["--ops", str(TRACE_OPS[args.workload])]
        spans = ROOT / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.jsonl"
        plain = run_child(base + ops, budget=(deadline - time.monotonic()) / 2 - 5)
        traced = run_child(base + ops + ["--traced", "--spans", str(spans)], budget=deadline - time.monotonic() - 10)
        records = [plain, traced]
    else:
        setups = [run_child(base + ["--setup-only"], budget=30) for _ in range(SETUP_PROCS)]
        ops = max(1, round(args.seconds / NOMINAL_OP_S[args.workload]))
        # on a machine much slower than nominal, the loop ends at 1.2 x --seconds
        loop = ["--ops", str(ops), "--max-loop-s", str(1.2 * args.seconds)]
        plain = run_child(base + loop, budget=deadline - time.monotonic() - 10)
        records = [plain]

    for rec in records:
        if "op_s" not in rec or not rec["op_s"]:
            print(f"error: {args.workload} seed {args.seed}: no op completed "
                  f"(status {rec['status']}: {rec.get('failures')})", file=sys.stderr)
            return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    setup_s = list(plain["setup_s"])
    if not args.trace:
        for rec in setups:  # a set-up process that failed counts as one failed op
            attempted += 1
            if rec["status"] != "ok":
                failed += 1
                failures.extend(rec["failures"])
            else:
                setup_s.extend(rec["setup_s"])
    metrics, notes = end_to_end(plain, setup_s)
    print(f"workload {args.workload}  seed {args.seed}  status {[r['status'] for r in records]}")
    if args.trace:
        bad = []
        if traced["digests"] != plain["digests"]:
            bad.append("traced losses or forecasts differ bitwise from the untraced run")
        if not traced["selfcheck"]["ok"]:
            bad.append(f"traced call counts differ from patch_grid: {traced['selfcheck']['mismatched']}")
        if bad:  # the traced run's numbers cannot be trusted: all its ops fail
            failures.extend(bad)
            failed += traced["attempted"] - traced["failed"]
        units = dict(tracing.per_layer_metric_names())
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = statistics.median(traced["op_s"]) - statistics.median(plain["op_s"])
        out = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        print(f"  traced: {len(traced['op_s'])} ops, spans in {spans.relative_to(ROOT)}")
        for name, m in out.items():
            print(f"  {name:<40} {m['value']:14.6g} {m['unit']}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:12.6g} {unit:<4} {notes.get(name, '')}")
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(f"  failed_ratio   {failed / attempted:12.6g}      {failed}/{attempted} ops failed; {failures[:5]}")
    detail = {
        "workload": args.workload, "seed": args.seed, "status": [r["status"] for r in records],
        "op_s.tail": notes["op_s.tail"], "samples": len(plain["op_s"]), "failed_ratio": failed / attempted,
        "env": plain.get("env"), "rss_caveat": RSS_CAVEAT,
    }  # fmt: skip
    print(json.dumps(detail))
    correct = failed == 0 and all(r["status"] == "ok" for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
