"""Bitwise ledger: sha256 digests of what epicast computes at fixed shapes.

For each case (a backbone mode at a fixed synthetic shape, for three cases a
tokenizer or gating mode other than graph + gated, for one an adjacency
threshold above zero, and for one a forecast in each history adjacency
mode rather than the predicted mobility) the ledger holds the sha256 of

- ``train_losses``, ``gradients``, ``val_losses``: every epoch's training
  loss, every trainable gradient after its backward, and the validation loss
  after its Adam step, each epoch run by ``trainer.run_epoch`` as ``train``
  runs it;
- ``forecast``: the cases, mobility and adjacency of a multi-step forecast
  from the trained parameters;
- ``metrics``: the model's and the four baselines' metric reports on it;
- for the history case, ``forecast/<mode>`` and ``metrics/<mode>`` in place
  of those two, one pair per history adjacency mode, from one training run.

A change meant to keep every number bitwise unchanged must leave every digest
in place.  The digests hold for one numpy, one BLAS, one BLAS thread count and
one CPU core type that OpenBLAS picks its kernels for at run time (a GEMM's
last bits differ between kernels), which the file records; under another
environment ``--check`` says so instead of failing.

    python tools/digests.py --check    # compare with tools/digests.json; exit 1 if a digest moved
    python tools/digests.py --record   # rewrite tools/digests.json

``OPENBLAS_NUM_THREADS`` defaults to 1 here when it is unset.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads its BLAS

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from epicast.backbone import BackboneConfig  # noqa: E402
from epicast.data import SplitSpec, split_dataset, synth_sir  # noqa: E402
from epicast.evalharness import BASELINES, baseline_predict, horizon_truth, metric_report  # noqa: E402
from epicast.forecaster import forecast  # noqa: E402
from epicast.model import ModelConfig, build_model  # noqa: E402
from epicast.trainer import Adam, TrainConfig, run_epoch  # noqa: E402

LEDGER = HERE / "digests.json"
WIDTH, DEPTH, HEADS, SEED = 64, 2, 4, 0
MODES = ("frozen-transformer", "trainable-transformer", "mlp", "rnn")
# (N, T, w, scale, epochs, forecast steps)
SHAPES = ((34, 120, 7, False, 3, 8), (10, 186, 3, False, 3, 8), (12, 60, 3, True, 3, 8))
LARGE = ("frozen-transformer", (129, 120, 7, False, 1, 3))
# the tokenizer and gating modes besides graph + gated, each on the frozen
# transformer at N12-T60-w3, unscaled so that a change to how scales are fitted
# leaves them in place
TOKEN_SHAPE = (12, 60, 3, False, 3, 8)
TOKEN_MODES = ({"tokenizer_mode": "mlp"}, {"gating_mode": "average"}, {"gating_mode": "last"})
# an adjacency threshold, in raw flow units, that cuts about half of the
# nonzero flows at TOKEN_SHAPE; every other case runs at the default 0
EPSILON = 65.0
# the forecast adjacency modes besides "predicted" (the paper's Adj2Aver and
# Adj2Last), both forecast from one frozen transformer trained at TOKEN_SHAPE
HISTORY_MODES = ("window_average", "last")


def cases() -> dict[str, tuple]:
    """Case name -> (backbone mode, shape, ModelConfig keywords, epsilon[,
    history adjacency modes]), in ledger order."""
    out = {}
    plain = [(m, s, {}, 0.0) for s in SHAPES for m in MODES] + [(*LARGE, {}, 0.0)]
    tokens = [("frozen-transformer", TOKEN_SHAPE, kw, 0.0) for kw in TOKEN_MODES]
    threshold = [("frozen-transformer", TOKEN_SHAPE, {}, EPSILON)]
    history = [("frozen-transformer", TOKEN_SHAPE, {}, 0.0, HISTORY_MODES)]
    for case in plain + tokens + threshold + history:
        mode, (N, T, w, scale, _, _), model_kw, epsilon, *history_modes = case
        name = f"{mode}/N{N}-T{T}-w{w}{'-scaled' if scale else ''}"
        name += "".join(f"/{k.split('_')[0]}-{v}" for k, v in model_kw.items())
        name += f"/epsilon-{epsilon:g}" if epsilon else ""
        name += "".join(f"/adjacency-{'+'.join(modes)}" for modes in history_modes)
        out[name] = case
    return out


def openblas_core() -> str | None:
    """The core type whose kernels numpy's bundled OpenBLAS runs (the CPU's,
    or ``OPENBLAS_CORETYPE``'s), or None where that library or its
    ``scipy_openblas_get_corename64_`` is not found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_core": openblas_core(),
    }


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def digest_case(
    mode: str, shape: tuple, model_kw: dict, epsilon: float, history_modes: tuple[str, ...] = ()
) -> dict[str, str]:
    N, T, w, scale, epochs, steps = shape
    ds = synth_sir(N, T, rng_seed=SEED, w=w, scale=scale, epsilon=epsilon)
    splits = split_dataset(ds, SplitSpec(test_len=steps * w, val_len=2 * w))
    model = build_model(
        ModelConfig(n_regions=N, w=w, width=WIDTH, seed=SEED, **model_kw),
        BackboneConfig(mode=mode, depth=DEPTH, width=WIDTH, heads=HEADS, seed=SEED),
    )
    cfg = TrainConfig()
    trainables = model.trainable_parameters()
    opt = Adam(trainables, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    losses, grads, vals = [], [], []
    for epoch in range(1, epochs + 1):
        loss, val = run_epoch(model, ds, splits.train, splits.val, cfg, opt, epoch)
        losses.append(loss)
        grads.extend(p.grad.copy() for p in trainables)
        vals.append(val)

    out = {"train_losses": _sha(losses), "gradients": _sha(grads), "val_losses": _sha(vals)}
    context_end = splits.test.start
    for adjacency_mode in history_modes or ("predicted",):
        result = forecast(model, ds, context_end, steps, adjacency_mode)
        truth = horizon_truth(ds, context_end, result.horizon)
        reports = [metric_report(truth, result.cases, "synthetic", result.horizon, "model")]
        reports += [
            metric_report(truth, baseline_predict(k, ds, context_end, result.horizon), "synthetic", result.horizon, k)
            for k in BASELINES
        ]
        metrics = json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()
        suffix = f"/{adjacency_mode}" if history_modes else ""
        out["forecast" + suffix] = _sha([result.cases, result.mobility, result.adjacency])
        out["metrics" + suffix] = hashlib.sha256(metrics).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", action="store_true", help="rewrite the ledger")
    action.add_argument("--check", action="store_true", help="compare with the ledger")
    args = parser.parse_args(argv)
    table = cases()
    if args.record:
        doc = {"environment": environment(), "cases": {}}
        for name, case in table.items():
            doc["cases"][name] = digest_case(*case)
            print(f"recorded {name}", flush=True)
        LEDGER.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return 0

    doc = json.loads(LEDGER.read_text())
    env = environment()
    if doc["environment"] != env:
        print(f"environment differs: ledger {doc['environment']}, here {env}; nothing checked")
        return 0
    moved = []
    for name, case in table.items():
        got = digest_case(*case)
        here = [f"{name}:{key}" for key, want in doc["cases"][name].items() if got.get(key) != want]
        print(f"{name}: {'moved ' + ', '.join(here) if here else 'ok'}", flush=True)
        moved += here
    if moved:
        print("digests moved: " + ", ".join(moved))
        return 1
    print(f"all {len(table)} cases bitwise equal to the ledger")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
