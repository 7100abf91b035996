"""Freed heap pages stay mapped: a steady training epoch faults in almost no page.

Each backward frees the tape.  With glibc's default thresholds, malloc returns
the top of the heap to the kernel then, and the next forward faults every page
of it back in: about 2.8k-4.7k minor faults per epoch at the ``train_long``
shape (10 regions, 186 days, w = 3, width 64).  ``epicast.tensor`` raises the
mmap and trim thresholds at import, and a steady epoch then takes 1-24 faults.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from epicast import tensor

FAULTS_PER_EPOCH = 250  # measured 1-24 with the thresholds raised, 2.8k-4.7k without

EPOCHS = """
import resource
from epicast import data, tensor, trainer
from epicast.backbone import BackboneConfig
from epicast.model import ModelConfig, build_model

cases, mobility = data.synth_sir_tables(10, 186, rng_seed=1)
ds = data.build_dataset(cases, mobility, w=3)
splits = data.split_dataset(ds, data.SplitSpec(test_len=3, val_len=3))
model = build_model(ModelConfig(n_regions=10, w=3, width=64), BackboneConfig(depth=2, width=64, heads=4))
cfg = trainer.TrainConfig()
opt = trainer.Adam(model.trainable_parameters(), lr=cfg.lr)

def epoch():
    loss = trainer.training_loss(model, ds, splits.train, cfg)
    model.zero_grad()
    loss.backward()
    opt.step()
    trainer.validation_loss(model, ds, splits.val, cfg)

for _ in range(2):  # warm-up: the heap grows to its steady size
    epoch()
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    epoch()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(tensor.MALLOPT, *faults)
"""


@pytest.mark.skipif(not tensor.MALLOPT, reason="libc has no mallopt")
def test_a_steady_training_epoch_faults_in_almost_no_page():
    src = str(Path(tensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", EPOCHS], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    mallopt, *faults = run.stdout.split()
    assert mallopt == "True"
    assert sum(map(int, faults)) / len(faults) < FAULTS_PER_EPOCH, faults
