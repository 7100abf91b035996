"""One benchmark workload run, in this process, printed as one JSON line.

bench/run.py starts this script in a fresh process for every workload run,
because ``ru_maxrss`` is process-wide.  The process caps its own address space
and runs under a wall-clock budget; a ``MemoryError`` or an overrun ends the
run with status ``oom`` or ``timeout`` and fails the op it interrupted and
every check it skipped.

    python3 bench/child.py --workload train_w7 --seed 1 --ops 56
    python3 bench/child.py --workload train_w7 --seed 1 --ops 12 --traced
    python3 bench/child.py --workload train_w7 --seed 1 --setup-only
    python3 bench/child.py --record      # rewrite bench/reference.json

The seed seeds ``synth_sir`` and the forecast context draws; the model and
backbone seeds are fixed, so the program receives only generated inputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from epicast import backbone, data, evalharness, forecaster, model, trainer
from epicast.branches import patch_grid

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_out"

WIDTH, DEPTH, HEADS = 64, 2, 4
MODEL_SEED = 0  # projector, adapter and frozen-backbone weights: never the workload seed
REF_SEED = 0  # the reference replay's data seed
REF_EPOCHS = 3
REF_CONTEXT = 59  # forecast_8step: the reference request's context end
RTOL = 1e-6  # reference replay tolerance, relative (forecasts: to the largest value)
# address-space cap: 6 GiB, or 80% of physical memory on a smaller machine
MEM_CAP = min(6 << 30, int(0.8 * os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")))


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "forecast"
    N: int
    T: int
    w: int
    setup_reps: int  # set-ups made by each --setup-only process
    setup_epochs: int = 0  # forecast: training epochs inside each set-up
    steps: int = 0  # forecast: patches per request

    def contexts(self, seed: int, n: int) -> list[int]:
        """Forecast context ends: days that leave the full steps*w truth and
        exactly the same number of whole history patches (so every request
        does the same work); the seed picks the grid's phase."""
        last = self.T - self.steps * self.w
        first = (last // self.w) * self.w
        if first + self.w - 1 > last:
            first -= self.w
        rng = np.random.default_rng([seed, 1])
        return [int(c) for c in rng.integers(first, first + self.w, size=n)]


WORKLOADS = {
    "train_w7": Workload("train", N=34, T=120, w=7, setup_reps=3),
    "train_long": Workload("train", N=10, T=186, w=3, setup_reps=3),
    "forecast_8step": Workload("forecast", N=34, T=120, w=7, setup_reps=1, setup_epochs=2, steps=8),
}


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded("wall-clock budget exceeded")


@dataclass
class State:
    ds: data.EpidemicDataset
    splits: data.Splits
    model: model.ModelState
    opt: trainer.Adam
    cfg: trainer.TrainConfig
    backbone_hash: str
    setup_losses: list = field(default_factory=list)
    checkpoint_bytes: int = 0


def timed_setup(wl: Workload, seed: int, workdir: Path) -> tuple[State, float]:
    """setup() and its duration, with the cyclic GC paused.

    Set-up allocates about 10^5 objects, a number that depends on the seed.
    With the GC running, the collections they trigger would shift the GC
    schedule of the whole timed loop, and with it peak RSS, by seed; paused,
    a set-up adds one young collection when it ends."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        st = setup(wl, seed, workdir)
        return st, time.perf_counter() - t0
    finally:
        gc.enable()


def setup(wl: Workload, seed: int, workdir: Path) -> State:
    """Data synthesis and model build; in forecast workloads also the set-up
    training and a checkpoint round-trip (the served model is the loaded one)."""
    cases, mobility = data.synth_sir_tables(wl.N, wl.T, rng_seed=seed)
    ds = data.build_dataset(cases, mobility, w=wl.w)
    splits = data.split_dataset(ds, data.SplitSpec(test_len=wl.w, val_len=wl.w))
    m = model.build_model(
        model.ModelConfig(n_regions=wl.N, w=wl.w, width=WIDTH, seed=MODEL_SEED),
        backbone.BackboneConfig(depth=DEPTH, width=WIDTH, heads=HEADS, seed=MODEL_SEED),
    )
    cfg = trainer.TrainConfig()
    setup_losses, ckpt_bytes = [], 0
    if wl.kind == "forecast":
        m, report = trainer.train(m, ds, splits.train, splits.val, trainer.TrainConfig(max_epochs=wl.setup_epochs))
        setup_losses = [[a, b] for a, b in zip(report.train_losses, report.val_losses)]
        path = workdir / "model.bin"
        model.save_checkpoint(m, path)
        ckpt_bytes = sum(p.stat().st_size for p in workdir.iterdir())
        m = model.load_checkpoint(path)
    opt = trainer.Adam(m.trainable_parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    return State(ds, splits, m, opt, cfg, model.backbone_hash(m), setup_losses, ckpt_bytes)


# -- ops and their per-op correctness checks ------------------------------------------------


def train_epoch(st: State):
    """One full-batch epoch: train forward, backward, Adam step, validation."""
    loss = trainer.training_loss(st.model, st.ds, st.splits.train, st.cfg)
    st.model.zero_grad()
    loss.backward()
    st.opt.step()
    val = trainer.validation_loss(st.model, st.ds, st.splits.val, st.cfg)
    return float(loss.data), val


def check_epoch(st: State, out) -> list[str]:
    loss, val = out
    bad = []
    if not (math.isfinite(loss) and math.isfinite(val)):
        bad.append(f"non-finite loss {loss} / {val}")
    if model.backbone_hash(st.model) != st.backbone_hash:
        bad.append("frozen backbone changed during training")
    return bad


def forecast_request(st: State, wl: Workload, context_end: int):
    """One forecast request, scored against the truth and the four baselines."""
    fc = forecaster.forecast(st.model, st.ds, context_end, wl.steps)
    truth = st.ds.counts[context_end : context_end + fc.horizon]
    reports = [evalharness.metric_report(truth, fc.cases, "synthetic", fc.horizon, "epicast")]
    for kind in evalharness.BASELINES:
        pred = evalharness.baseline_predict(kind, st.ds, context_end, fc.horizon)
        reports.append(evalharness.metric_report(truth, pred, "synthetic", fc.horizon, kind))
    return fc, reports


def check_forecast(st: State, wl: Workload, out) -> list[str]:
    fc, reports = out
    bad = []
    if fc.cases.shape != (wl.steps * wl.w, wl.N):
        bad.append(f"forecast shape {fc.cases.shape}")
    elif not np.all(np.isfinite(fc.cases)):
        bad.append("non-finite forecast")
    elif np.any(fc.cases < 0):
        bad.append("negative forecast")
    if not all(math.isfinite(r.region_avg_rmse) and math.isfinite(r.region_avg_mae) for r in reports):
        bad.append("non-finite score")
    if model.backbone_hash(st.model) != st.backbone_hash:
        bad.append("frozen backbone changed while forecasting")
    return bad


def digest(wl: Workload, out) -> str:
    if wl.kind == "train":
        return "%s %s" % (out[0].hex(), out[1].hex())
    return hashlib.sha256(np.ascontiguousarray(out[0].cases).tobytes()).hexdigest()


# -- expected call counts for the traced self-check ------------------------------------------


def epoch_calls(wl: Workload, splits: data.Splits) -> dict[str, int]:
    p = len(patch_grid(splits.train.start, splits.train.stop, wl.w)) + len(patch_grid(0, splits.val.stop, wl.w))
    return {
        "trainer.training_loss": 1, "trainer.validation_loss": 1, "trainer.compute_loss": 2,
        "tensor.backward": 1, "trainer.Adam.step": 1,
        "branches.epi_tokenize": p, "prompts.build_prompted_graph": p, "branches.mob_tokenize": p,
        "branches.stack_tokens": 4, "backbone.backbone_forward": 4, "branches.epi_adapt": 2, "branches.mob_adapt": 2,
    }  # fmt: skip


def request_calls(wl: Workload, context_end: int) -> dict[str, int]:
    p = sum(len(patch_grid(0, context_end + s * wl.w, wl.w)) for s in range(wl.steps))
    return {
        "forecaster.forecast": 1, "branches.epi_tokenize": p, "prompts.build_prompted_graph": p,
        "branches.mob_tokenize": p, "branches.stack_tokens": 2 * wl.steps, "backbone.backbone_forward": 2 * wl.steps,
        "branches.epi_adapt": wl.steps, "branches.mob_adapt": wl.steps, "data.window_features": wl.steps,
        "evalharness.baseline_predict": len(evalharness.BASELINES),
        "evalharness.metric_report": 1 + len(evalharness.BASELINES),
    }  # fmt: skip


def expected_calls(wl: Workload, splits: data.Splits, ops: int, contexts: list[int]) -> dict[str, int]:
    """Calls a traced run must make: one set-up, then `ops` ops (warm-up included)."""
    total = {name: 0 for name, _, _ in tracing.TRACED}

    def add(counts, times=1):
        for k, v in counts.items():
            total[k] += v * times

    per_setup = {"data.synth_sir_tables": 1, "data.build_dataset": 1, "data.window_features": 1}
    if wl.kind == "forecast":
        per_setup.update({"model.save_checkpoint": 1, "model.load_checkpoint": 1})
        add(epoch_calls(wl, splits), wl.setup_epochs)
        for c in contexts[:ops]:
            add(request_calls(wl, c))
    else:
        add(epoch_calls(wl, splits), ops)
    add(per_setup)
    return total


# -- correctness checks outside the timed loop -------------------------------------------------


def _close(got, want, scale=None) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    atol = 0.0 if scale is None else RTOL * scale
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=RTOL, atol=atol))


def reference_run(wl: Workload, workdir: Path):
    """The reference replay: fixed seed, set-up, then a few ops.

    Training records a 1-step forecast after its epochs too: without scaling
    the mobility term dominates the loss, so the losses alone would hardly
    see a change to the epidemic branch."""
    st = setup(wl, REF_SEED, workdir)
    if wl.kind == "train":
        epochs = [list(train_epoch(st)) for _ in range(REF_EPOCHS)]
        fc = forecaster.forecast(st.model, st.ds, wl.T - wl.w, 1)
        return {"epochs": epochs, "forecast": fc.cases.tolist()}
    fc, _ = forecast_request(st, wl, REF_CONTEXT)
    return {"setup_losses": st.setup_losses, "forecast": fc.cases.tolist()}


def reference_check(wl: Workload, name: str, workdir: Path) -> tuple[int, list[str]]:
    """Replay the reference and compare with the values recorded in reference.json.

    Returns (ops attempted, failures)."""
    want = json.loads(REFERENCE.read_text())[name]
    got = reference_run(wl, workdir)
    ref = np.asarray(want["forecast"])
    forecast_ok = _close(got["forecast"], ref, scale=float(np.abs(ref).max()))
    if wl.kind == "train":
        bad = [
            f"reference epoch {i + 1}: losses {g} != recorded {r}"
            for i, (g, r) in enumerate(zip(got["epochs"], want["epochs"]))
            if not _close(g, r)
        ]
        if not forecast_ok and not bad:
            bad.append(f"reference epoch {REF_EPOCHS}: 1-step forecast differs from the recorded one")
        return REF_EPOCHS, bad
    bad = []
    if not _close(got["setup_losses"], want["setup_losses"]):
        bad.append(f"reference set-up losses {got['setup_losses']} != recorded {want['setup_losses']}")
    if not forecast_ok:
        bad.append("reference forecast differs from the recorded one")
    return 1, bad[:1]


def one_step_check(st: State, wl: Workload, context_end: int, eight_step: np.ndarray) -> list[str]:
    one = forecaster.forecast(st.model, st.ds, context_end, 1).cases
    if not np.array_equal(one, eight_step[: wl.w]):
        return ["1-step forecast is not bitwise equal to the 8-step forecast's first patch"]
    return []


# -- the run -------------------------------------------------------------------------------------


def environment(budget: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "gc_threshold": gc.get_threshold(),
        "mem_cap_mb": MEM_CAP >> 20,
        "budget_s": budget,
    }


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    out = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced, "status": "ok",
        "setup_s": [], "op_s": [], "loop_s": 0.0, "attempted": 0, "failed": 0, "failures": [],
        "digests": [], "peak_rss_mb": None, "ops_run": 0,
    }  # fmt: skip

    def fail(msgs, n=1):
        out["failed"] += n
        out["failures"].extend(msgs[: max(0, 10 - len(out["failures"]))])

    # ops of the untimed checks that follow the loop: reference replay, 1-step check
    unchecked = 0 if args.traced else (REF_EPOCHS if wl.kind == "train" else 2)
    contexts = wl.contexts(args.seed, 1 + args.ops) if wl.kind == "forecast" else []
    tracer = tracing.Tracer() if args.traced else None
    st = None
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)

        def one_op(i):
            out["attempted"] += 1
            if tracer:
                tracer.run_id = f"op{i}"
            try:
                t0 = time.perf_counter()
                res = train_epoch(st) if wl.kind == "train" else forecast_request(st, wl, contexts[i])
                dt = time.perf_counter() - t0
                bad = check_epoch(st, res) if wl.kind == "train" else check_forecast(st, wl, res)
            except (MemoryError, BudgetExceeded):
                out["failed"] += 1
                raise
            except Exception as exc:  # an op that raises fails; the run goes on
                fail([f"op {i}: {type(exc).__name__}: {exc}"])
                return None
            if bad:
                fail([f"op {i}: {m}" for m in bad])
            return res, dt

        try:
            if tracer:
                tracer.install()
            st, dt = timed_setup(wl, args.seed, workdir)
            out["setup_s"].append(dt)
            warm = one_op(0)  # untimed: lets allocations and lazy set-up settle
            loop_start = time.perf_counter()
            i = 0
            while i < args.ops and time.perf_counter() - loop_start < args.max_loop_s:
                i += 1
                res = one_op(i)
                if res is not None:
                    out["op_s"].append(res[1])
                    out["digests"].append(digest(wl, res[0]))
            out["loop_s"] = time.perf_counter() - loop_start
            out["ops_run"] = i
            out["peak_rss_mb"] = tracing.maxrss_mb()

            if tracer:
                tracer.uninstall()
                tracer.counters["model.checkpoint_bytes"] = st.checkpoint_bytes
                calls = tracer.calls()
                want = expected_calls(wl, st.splits, 1 + i, contexts)
                mismatched = {k: [calls[k], want[k]] for k in want if calls[k] != want[k]}
                out["layers"] = tracer.metrics()
                out["selfcheck"] = {"ok": not mismatched, "mismatched": mismatched}
                if args.spans:
                    tracer.write_spans(args.spans)
            else:
                if wl.kind == "forecast":
                    out["attempted"] += 1
                    unchecked -= 1
                    bad = one_step_check(st, wl, contexts[0], warm[0][0].cases) if warm else ["warm-up failed"]
                    if bad:
                        fail(bad)
                st = None  # the replay builds its own state
                n, bad = reference_check(wl, args.workload, workdir)
                out["attempted"] += n
                unchecked -= n
                if bad:
                    fail(bad, len(bad))
        except MemoryError:
            st = None
            out["status"] = "oom"
        except BudgetExceeded:
            st = None
            out["status"] = "timeout"
        finally:
            if tracer:
                tracer.uninstall()
    if out["status"] != "ok":
        # checks the guard skipped are failed, never dropped
        out["attempted"] += unchecked
        out["failed"] += unchecked
        out["failures"].append(f"run ended early: {out['status']}")
    return out


def setup_only(args) -> dict:
    """Time `setup_reps` set-ups in this fresh process (no ops, no checks)."""
    wl = WORKLOADS[args.workload]
    times = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for _ in range(wl.setup_reps):
            times.append(timed_setup(wl, args.seed, Path(tmp))[1])
    return {"status": "ok", "setup_s": times}


def record() -> None:
    """Rewrite reference.json from this commit's code (seed REF_SEED)."""
    WORK.mkdir(exist_ok=True)
    refs = {}
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            refs[name] = reference_run(wl, Path(tmp))
    REFERENCE.write_text(json.dumps(refs, indent=0) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=1, help="timed ops after the warm-up op")
    ap.add_argument("--max-loop-s", type=float, default=math.inf, help="end the timed loop early after this long")
    ap.add_argument("--traced", action="store_true", help="record spans around epicast's public functions")
    ap.add_argument("--spans", help="with --traced: write the spans here as JSON lines")
    ap.add_argument("--budget", type=float, default=150.0, help="wall-clock budget in seconds")
    ap.add_argument("--setup-only", action="store_true", help="only time the workload's set-ups")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json and exit")
    args = ap.parse_args(argv)
    if args.record:
        record()
        return 0
    if not args.workload:
        ap.error("--workload is required")
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP, MEM_CAP))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, args.budget)
    try:
        out = setup_only(args) if args.setup_only else run(args)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out["env"] = environment(args.budget)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
