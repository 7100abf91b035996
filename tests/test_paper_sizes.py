"""The paper's dataset sizes run without crashing or running out of memory.

Each case is one process under an address-space cap (``RLIMIT_AS``): a
synthetic SIR dataset of the paper's shape (34, 81, 105 or 129 regions over
120 days), one training epoch through ``trainer.run_epoch`` and an 8-step
forecast, at width 64, depth 2 and 4 heads.  Every backbone mode runs at the
heaviest shape, (129, 120, 3).  The forecast must be finite and nonnegative,
and the process's own peak RSS (``VmHWM``) must stay under a bound of about
three times the peak measured with one BLAS thread on a 2-CPU x86-64 box with
numpy 2.4 (given per case below).  This is a guard against crashes and memory blow-ups;
it claims nothing about speed.

A shortfall inside an epoch or a forecast step is a named config error (exit
2), not a crash: a CLI child at (129, 120, 3) caps its own address space,
once set-up is done, at what it has mapped plus a few MB, so the cap binds
on any machine.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE_CAP = 1 << 30  # bytes; the measured virtual peaks were 157-380 MB

# (N, T, w, backbone mode) -> (measured peak RSS, bound), in MB
CASES = {
    (34, 120, 7, "frozen-transformer"): (47, 160),
    (81, 120, 7, "frozen-transformer"): (67, 270),
    (105, 120, 3, "frozen-transformer"): (96, 450),
    (129, 120, 3, "frozen-transformer"): (116, 550),
    (129, 120, 3, "trainable-transformer"): (129, 720),
    (129, 120, 3, "rnn"): (115, 420),
    (129, 120, 3, "mlp"): (102, 480),
    (129, 120, 3, "identity"): (89, 370),
}

CHILD = """
import json, re, resource, sys
cap = int(sys.argv[5])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from epicast.backbone import BackboneConfig
from epicast.data import SplitSpec, build_dataset, split_dataset, synth_sir_tables
from epicast.forecaster import forecast
from epicast.model import ModelConfig, build_model
from epicast.trainer import Adam, TrainConfig, run_epoch

N, T, w, mode = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
ds = build_dataset(*synth_sir_tables(N, T, rng_seed=1), w=w)
splits = split_dataset(ds, SplitSpec(test_len=w, val_len=w))
model = build_model(
    ModelConfig(n_regions=N, w=w, width=64, seed=0),
    BackboneConfig(mode=mode, depth=2, width=64, heads=4, seed=0),
)
cfg = TrainConfig()
opt = Adam(model.trainable_parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
run_epoch(model, ds, splits.train, splits.val, cfg, opt, 1)  # raises on a non-finite loss
cases = forecast(model, ds, splits.test.start, 8).cases
print(json.dumps({
    "shape": list(cases.shape),
    "finite": bool(np.isfinite(cases).all()),
    "min": float(cases.min()),
    # the child's own peak: ru_maxrss would carry the launching process's peak across the exec
    "peak_rss_mb": int(re.search(r"VmHWM:\\s+(\\d+) kB", open("/proc/self/status").read()).group(1)) / 1024,
}))
"""


@pytest.mark.parametrize("shape", list(CASES), ids=[f"N{n}-T{t}-w{w}-{m}" for n, t, w, m in CASES])
def test_paper_size_trains_and_forecasts_within_memory(shape):
    N, T, w, mode = shape
    measured, bound = CASES[shape]
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(N), str(T), str(w), mode, str(ADDRESS_SPACE_CAP)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["shape"] == [8 * w, N]
    assert run["finite"] and run["min"] >= 0.0, run
    assert run["peak_rss_mb"] < bound, f"peak RSS {run['peak_rss_mb']:.0f} MB, measured {measured} MB, bound {bound} MB"


SHORTFALL_CHILD = """
import re, resource, sys
import numpy as np
from epicast import cli, forecaster, trainer

np.ones((64, 64)) @ np.ones((64, 64))  # OpenBLAS allocates its buffers at its first GEMM: before the cap
module = {"run_epoch": trainer, "backbone_forward": forecaster}[sys.argv[1]]
real = getattr(module, sys.argv[1])
calls = []

def capped(*args, **kwargs):
    if not calls:  # cap once, at the first call
        mapped = int(re.search(r"VmSize:\\s+(\\d+) kB", open("/proc/self/status").read()).group(1)) << 10
        resource.setrlimit(resource.RLIMIT_AS, (mapped + (4 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
    calls.append(1)
    return real(*args, **kwargs)

setattr(module, sys.argv[1], capped)
sys.exit(cli.main(sys.argv[2:]))
"""

PAPER_CONFIG = "synth.regions = 129\nsynth.days = 120\nw = 3\nhorizon = 24\nsplit.test = 3\nsplit.val = 3\ntrain.max_epochs = 1\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the mapped size from /proc")
@pytest.mark.parametrize(
    "command, capped, named",
    [
        ("train", "run_epoch", "epoch 1 does not fit in memory"),
        ("forecast", "backbone_forward", "forecast step 1 of 8 does not fit in memory"),
    ],
)
def test_a_memory_shortfall_inside_an_epoch_or_a_step_is_a_named_config_error(tmp_path, command, capped, named):
    """The child caps its address space when the first epoch, or the first
    forecast step's first backbone call, starts: the allocation that fails
    there exits 2 naming the epoch or step and the size keys, not exit 1."""
    config = tmp_path / "paper.cfg"
    config.write_text(PAPER_CONFIG)
    args = ["--config", str(config), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    if command == "forecast":  # serving needs a trained checkpoint
        trained = subprocess.run([sys.executable, "-m", "epicast", "train", *args], capture_output=True, text=True, env=env, timeout=300)
        assert trained.returncode == 0, trained.stderr
    proc = subprocess.run(
        [sys.executable, "-c", SHORTFALL_CHILD, capped, command, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 2, proc.stderr
    assert re.match(f"config error: {named} \\(.+\\); lower the size keys: w=3, backbone.width=64", proc.stderr), proc.stderr
