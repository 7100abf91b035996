"""No peeking: nothing from the test range may reach training or inference.

Perturbing every count and flow on or after the first test day must leave
the training and validation losses, the checkpoint bytes and a forecast
whose context ends at that day bitwise unchanged.  Nearer in: perturbing
every day from the end of the training range on must leave the training loss
and its gradients bitwise unchanged at fixed parameters, since no training
input or target may cross that day.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, Verbosity, example, given, settings
from hypothesis import strategies as st

from epicast.backbone import MODES, BackboneConfig
from epicast.data import SirParams, SplitSpec, build_dataset, split_dataset, synth_sir_tables
from epicast.forecaster import forecast
from epicast.model import ModelConfig, build_model, save_checkpoint
from epicast.trainer import TrainConfig, train, training_loss

N, DAYS, W = 10, 60, 3
SPEC = SplitSpec(test_len=2 * W, val_len=2 * W)


def _run(cases, flows, scale):
    """Training and validation losses, checkpoint bytes and a forecast from the
    first test day, as bytes."""
    ds = build_dataset(cases, flows, w=W, scale=scale)
    splits = split_dataset(ds, SPEC)
    model = build_model(
        ModelConfig(n_regions=N, w=W, width=8, seed=0),
        BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2, seed=1),
    )
    model, report = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=2, patience=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_checkpoint(model, path)
        checkpoint = b"".join(p.read_bytes() for p in sorted(Path(tmp).iterdir()))
    fc = forecast(model, ds, context_end=splits.test.start, steps=2)
    losses = np.array(report.train_losses + report.val_losses).tobytes()
    return losses, checkpoint, fc.cases.tobytes() + fc.mobility.tobytes() + fc.adjacency.tobytes()


def _perturbed_from(day, cases, flows, perturb_seed, bump):
    """The case table and flows with every count and flow from `day` on perturbed."""
    rng = np.random.default_rng(perturb_seed)
    counts, flows = cases.counts.copy(), flows.copy()
    counts[day:] += rng.integers(1, bump + 1, size=counts[day:].shape)
    flows[day:] = rng.random(flows[day:].shape) * bump
    return dataclasses.replace(cases, counts=counts), flows


def _assert_no_peek(scale, data_seed, perturb_seed, bump):
    cases, flows = synth_sir_tables(N, DAYS, SirParams(beta=0.5, gamma_rec=0.2, population=5000), data_seed)
    first_test_day = split_dataset(DAYS, SPEC).test.start
    perturbed = _run(*_perturbed_from(first_test_day, cases, flows, perturb_seed, bump), scale)
    assert _run(cases, flows, scale) == perturbed


_perturbations = given(
    data_seed=st.integers(min_value=0, max_value=2**16),
    perturb_seed=st.integers(min_value=0, max_value=2**16),
    bump=st.integers(min_value=1, max_value=10**4),
)


@_perturbations
@settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.generate))
def test_test_range_data_reaches_no_loss_checkpoint_or_forecast(data_seed, perturb_seed, bump):
    _assert_no_peek(False, data_seed, perturb_seed, bump)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="scale = true divides by maxima over the whole series, test range included",
)
@_perturbations
# a small bump that moves no region's maximum and not the global flow maximum
# leaves every bit unchanged even when scaled; this one moves them on every run
@example(data_seed=0, perturb_seed=0, bump=10**4)
# quiet: the expected failure writes no falsifying-example report or patch file
@settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.generate), verbosity=Verbosity.quiet)
def test_scaled_test_range_data_reaches_no_loss_checkpoint_or_forecast(data_seed, perturb_seed, bump):
    _assert_no_peek(True, data_seed, perturb_seed, bump)


@given(
    n=st.integers(min_value=2, max_value=5),
    w=st.integers(min_value=1, max_value=4),
    patches=st.integers(min_value=2, max_value=6),
    mode=st.sampled_from(MODES),
    # days before the first patch (they fall off the end-aligned grid) and held out after it
    lead=st.integers(min_value=0, max_value=3),
    val_len=st.integers(min_value=1, max_value=5),
    test_len=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    bump=st.integers(min_value=1, max_value=10**4),
)
@settings(max_examples=30, deadline=None)
def test_days_from_train_stop_reach_no_training_loss_or_gradient(
    n, w, patches, mode, lead, val_len, test_len, seed, bump
):
    """Unscaled, at fixed parameters: perturbing every count and flow from
    ``train.stop`` on leaves the training loss and every gradient bitwise
    unchanged, in every backbone mode."""
    spec = SplitSpec(test_len=test_len, val_len=val_len)
    days = lead % w + patches * w + val_len + test_len
    cases, flows = synth_sir_tables(n, days, SirParams(beta=0.5, gamma_rec=0.2, population=5000), seed)
    train_stop = split_dataset(days, spec).train.stop

    def loss_and_grads(tables):
        ds = build_dataset(*tables, w=w)
        model = build_model(
            ModelConfig(n_regions=n, w=w, width=8, seed=seed % 7),
            BackboneConfig(mode=mode, depth=1, width=8, heads=2, seed=seed % 5),
        )
        loss = training_loss(model, ds, split_dataset(ds, spec).train, TrainConfig())
        loss.backward()
        return [np.asarray(loss.data).tobytes()] + [p.grad.tobytes() for p in model.trainable_parameters()]

    assert loss_and_grads((cases, flows)) == loss_and_grads(
        _perturbed_from(train_stop, cases, flows, seed + 1, bump)
    )
