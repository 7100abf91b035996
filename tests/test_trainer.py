"""Losses, the Adam update, early stopping, and the freezing contract."""

from dataclasses import replace

import numpy as np
import pytest
from composed_reference import compute_loss as composed_loss
from composed_reference import tsum
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epicast.trainer as trainer_mod
from epicast.backbone import BackboneConfig, backbone_forward
from epicast.branches import epi_adapt, epi_token_sequence, mob_adapt, mob_token_sequence, patch_grid
from epicast.data import ConfigError, SplitSpec, SirParams, split_dataset, synth_sir
from epicast.model import ModelConfig, backbone_hash, build_model
from epicast.tensor import Parameter, Tensor, constant, mul, no_grad
from epicast.trainer import (
    LOSS_FORMS,
    Adam,
    TrainConfig,
    TrainingDivergedError,
    TrainingRangeError,
    compute_loss,
    run_epoch,
    train,
    training_loss,
    validation_loss,
)


def _tiny_ds(n=4, days=24, w=3, seed=3):
    return synth_sir(n, days, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=seed, w=w, scale=True)


def _tiny_model(ds, width=8, mode="frozen-transformer", seed=0):
    mc = ModelConfig(n_regions=ds.N, w=ds.w, width=width, seed=seed)
    bc = BackboneConfig(mode=mode, depth=2, width=width, heads=2, seed=seed + 1)
    return build_model(mc, bc)


# -- loss ---------------------------------------------------------------------------


def test_loss_zero_when_predictions_match():
    x = np.random.default_rng(0).normal(size=(2, 3, 4))
    m = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 3))
    loss = compute_loss(Tensor(x), x, Tensor(m), m, mob_weight=1.0)
    assert float(loss.data) == 0.0


def test_loss_lambda_zero_drops_mobility_term():
    rng = np.random.default_rng(2)
    x_pred, x_true = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    m_pred, m_true = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3, 3))
    with_mob = compute_loss(Tensor(x_pred), x_true, Tensor(m_pred), m_true, mob_weight=0.0)
    without = compute_loss(Tensor(x_pred), x_true, None, None)
    assert float(with_mob.data) == pytest.approx(float(without.data))


def test_loss_l2_norm_hand_oracle():
    # single patch, single region, componentwise error (3, 4): mean L2 norm = 5
    pred = Tensor(np.array([[[3.0, 4.0]]]))
    true = np.zeros((1, 1, 2))
    loss = compute_loss(pred, true, None, None, loss_form="mean-l2-norm")
    assert float(loss.data) == pytest.approx(5.0, abs=1e-12)
    squared = compute_loss(pred, true, None, None, loss_form="mean-squared")
    assert float(squared.data) == pytest.approx(25.0, abs=1e-12)


def test_loss_rejects_bad_inputs():
    pred = Tensor(np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        compute_loss(pred, np.zeros((1, 2, 2)), None, None)
    with pytest.raises(ValueError):
        compute_loss(pred, np.zeros((1, 1, 2)), None, None, mob_weight=-1.0)
    with pytest.raises(ValueError):
        compute_loss(pred, np.zeros((1, 1, 2)), None, None, mob_weight=float("nan"))
    with pytest.raises(ValueError):
        compute_loss(pred, np.zeros((1, 1, 2)), None, None, loss_form="harmonic")


def _loss_and_grads(loss_fn, preds, trues, mob_weight, loss_form):
    """The loss `loss_fn` records over predictions `preds` ((data, trained)
    pairs, the mobility's None when absent), its data, and the gradient array
    each trained prediction is handed (None for a constant)."""
    tensors = [None if p is None else Parameter(p[0], name=f"p{i}", frozen=not p[1]) for i, p in enumerate(preds)]
    for t in tensors:
        if t is not None and t.requires_grad:
            t._node.grad = None  # so the leaf adopts the array the loss hands it
    loss = loss_fn(tensors[0], trues[0], tensors[1], trues[1], mob_weight, loss_form)
    if loss.requires_grad:
        loss.backward()
    return loss.data, [None if t is None else t.grad for t in tensors]


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 4)),
    mob_features=st.none() | st.integers(1, 3),
    loss_form=st.sampled_from(LOSS_FORMS),
    mob_weight=st.sampled_from([0.0, 1.0, None]) | st.floats(0.0, 10.0),  # None: one drawn from the seed
    trained=st.sampled_from([(True, True), (True, False), (False, True), (False, False)]),
    hits=st.sampled_from(["none", "some", "all"]),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# a trained mobility prediction at weight 2.5 over 6 tokens: 2.5 / 6 != 2.5 * (1.0 / 6), so
# these fail a backward that scales by the reciprocal of the token count, in either form
@example(shape=(3, 2, 2), mob_features=3, loss_form="mean-squared", mob_weight=2.5, trained=(True, True),
         hits="none", fortran=False, seed=1)  # fmt: skip
@example(shape=(3, 2, 2), mob_features=3, loss_form="mean-l2-norm", mob_weight=2.5, trained=(True, True),
         hits="none", fortran=False, seed=1)  # fmt: skip
def test_the_loss_node_is_bitwise_the_composed_loss(
    shape, mob_features, loss_form, mob_weight, trained, hits, fortran, seed
):
    """One node, the loss and the gradient array handed to each prediction (its
    bytes and strides) equal those of the per-op composition: over size-1 axes,
    a zero mobility weight, no mobility branch, a constant prediction, a
    non-C layout and exact hits (an error of zero, where the norm form's
    gradient rests on its shift)."""
    rng = np.random.default_rng(seed)
    mob_weight = rng.uniform(0.0, 10.0) if mob_weight is None else mob_weight
    preds, trues = [], []
    for features, live in zip((shape[2], mob_features), trained):
        pred = true = None
        if features is not None:
            pred = rng.normal(size=shape[:2] + (features,))
            true = rng.normal(size=pred.shape)
            hit = rng.random(shape[:2]) < {"none": 0.0, "some": 0.5, "all": 1.0}[hits]
            true[hit] = pred[hit]
            pred = (np.asfortranarray(pred) if fortran else pred, live)
        preds.append(pred)
        trues.append(true)
    fused, composed = (_loss_and_grads(f, preds, trues, mob_weight, loss_form) for f in (compute_loss, composed_loss))
    assert np.asarray(fused[0]).tobytes() == np.asarray(composed[0]).tobytes()
    for got, want in zip(fused[1], composed[1]):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
    with no_grad():
        unrecorded, _ = _loss_and_grads(compute_loss, preds, trues, mob_weight, loss_form)
    assert np.asarray(unrecorded).tobytes() == np.asarray(fused[0]).tobytes()


def test_a_loss_records_one_node_over_the_predictions():
    rng = np.random.default_rng(5)
    x, m = Parameter(rng.normal(size=(2, 3, 4)), name="x"), Parameter(rng.normal(size=(2, 3, 3)), name="m")
    for loss_form in LOSS_FORMS:
        loss = compute_loss(x, rng.normal(size=(2, 3, 4)), m, rng.normal(size=(2, 3, 3)), 0.5, loss_form)
        assert loss._prev == (x._node, m._node)


# -- Adam ----------------------------------------------------------------------------


def test_adam_single_step_matches_closed_form():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    p = Parameter(2.0, name="p")
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    loss = mul(p, 3.0)  # gradient is exactly 3
    loss.backward()
    opt.step()
    g = 3.0
    m_hat = ((1 - b1) * g) / (1 - b1)
    v_hat = ((1 - b2) * g * g) / (1 - b2)
    expected = 2.0 - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert float(p.data) == pytest.approx(expected, abs=1e-12)


def test_adam_two_steps_match_manual_recurrence():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = Parameter(1.0, name="p")
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    m = v = 0.0
    theta = 1.0
    for t in range(1, 3):
        loss = mul(tsum(mul(p, p)), 0.5)  # grad = p
        p.zero_grad()
        loss.backward()
        g = theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        opt.step()
        assert float(p.data) == pytest.approx(theta, abs=1e-12)


def test_adam_never_touches_frozen_params():
    frozen = Parameter(np.ones(3), name="w", frozen=True)
    live = Parameter(np.ones(3), name="v")
    opt = Adam([frozen, live], lr=0.1)
    assert opt.params == [live]


# -- training loop -------------------------------------------------------------------


def test_training_reduces_loss():
    ds = _tiny_ds()
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model, report = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=40, patience=100, lr=1e-2))
    assert report.train_losses[-1] < report.train_losses[0]
    assert report.stopped_epoch == 40
    assert report.best_val == min(report.val_losses)


def test_first_epoch_does_not_increase_loss():
    ds = _tiny_ds(seed=11)
    model = _tiny_model(ds, seed=4)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    _, report = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=2, patience=100, lr=1e-3))
    assert report.train_losses[1] <= report.train_losses[0]


def test_frozen_backbone_bytes_unchanged_by_training():
    ds = _tiny_ds()
    model = _tiny_model(ds)
    before = backbone_hash(model)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model, _ = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=25, patience=100, lr=1e-2))
    assert backbone_hash(model) == before


def test_frozen_backbone_holds_no_gradients_after_training():
    ds = _tiny_ds()
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model, _ = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=1))
    assert model.backbone.parameters()
    assert all(p.grad is None for p in model.backbone.parameters())
    assert all(p.grad is not None for p in model.trainable_parameters())


def test_early_stopping_rule(monkeypatch):
    ds = _tiny_ds()
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    fake_vals = iter([1.0, 2.0, 3.0, 4.0])
    monkeypatch.setattr(trainer_mod, "validation_loss", lambda *a, **k: next(fake_vals))
    _, report = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=50, patience=1))
    assert report.stopped_epoch == 2
    assert report.best_epoch == 1
    assert report.best_val == 1.0


def test_early_stopping_restores_best_epoch_params(monkeypatch):
    ds = _tiny_ds()
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    seen: list[list[np.ndarray]] = []
    vals = iter([3.0, 1.0, 2.0, 2.5, 2.6])

    def spy(model_arg, *a, **k):
        seen.append([p.data.copy() for p in model.trainable_parameters()])
        return next(vals)

    monkeypatch.setattr(trainer_mod, "validation_loss", spy)
    model, report = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=50, patience=3))
    assert report.best_epoch == 2
    assert report.stopped_epoch == 5
    for p, best in zip(model.trainable_parameters(), seen[1]):
        np.testing.assert_array_equal(p.data, best)


def test_divergence_reported_with_epoch(monkeypatch):
    ds = _tiny_ds()
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    bad = constant(np.array(np.nan))
    monkeypatch.setattr(trainer_mod, "training_loss", lambda *a, **k: bad)
    with pytest.raises(TrainingDivergedError) as exc:
        train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=5))
    assert exc.value.epoch == 1


def test_numpy_overflow_in_an_epoch_reported_with_epoch():
    ds = _tiny_ds()
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model.epi_adapter.W.data = np.full_like(model.epi_adapter.W.data, 1e308)  # the training forward overflows
    with pytest.raises(TrainingDivergedError, match=r"non-finite value \(numpy: overflow .*\) at epoch 1") as exc:
        train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=5))
    assert exc.value.epoch == 1


def test_nonfinite_validation_loss_reported_with_epoch():
    ds = _tiny_ds()
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    ds.X[splits.val.start :] = np.nan  # the training patches never read these days
    assert np.isfinite(training_loss(model, ds, splits.train, TrainConfig()).data)
    with pytest.raises(TrainingDivergedError, match="non-finite loss nan at epoch 1"):
        train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=5))


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"lr": 0.0}, id="bad0"),
        pytest.param({"lr": -1.0}, id="bad1"),
        pytest.param({"lr": float("nan")}, id="bad2"),
        pytest.param({"max_epochs": 0}, id="bad3"),
        pytest.param({"patience": 0}, id="bad4"),
        pytest.param({"mob_weight": -1.0}, id="bad5"),
        pytest.param({"loss_form": "harmonic"}, id="bad6"),
        pytest.param({"mob_weight": float("nan")}, id="bad9"),
        pytest.param({"mob_weight": float("inf")}, id="bad10"),
        # a count that is no integer fails here, not as a bare TypeError once training runs
        pytest.param({"max_epochs": 2.0}, id="bad11"),
        pytest.param({"patience": True}, id="bad12"),
        pytest.param({"lr": 10**400}, id="bad13"),  # an int no float holds
    ],
)
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


@pytest.mark.parametrize(
    "name, value", [("lr", "0.1"), ("mob_weight", None), ("lr", 1 + 0j), ("mob_weight", np.array([1.0, 2.0])), ("lr", True)]
)
def test_train_config_rejects_a_rate_or_weight_that_is_no_real_number(name, value):
    """A string, None, a complex, an array or a bool rate or weight is a
    ConfigError naming the field, not a bare TypeError from its range check,
    and a bool is not taken for 1."""
    with pytest.raises(ConfigError, match=f"^{name} must be a real number, got "):
        TrainConfig(**{name: value})


def test_float_fields_keep_the_python_float_a_number_holds():
    cfg = TrainConfig(lr=np.float32(0.5), mob_weight=2)
    params = SirParams(beta=np.int64(1), gamma_rec=np.float16(0.25))
    assert [(type(v), v) for v in (cfg.lr, cfg.mob_weight, params.beta, params.gamma_rec)] == [
        (float, 0.5), (float, 2.0), (float, 1.0), (float, 0.25)
    ]


def test_adam_constants_are_not_train_config_options():
    """No config key sets Adam's beta1, beta2 or eps: they are class constants,
    read from an instance, and not constructor arguments."""
    with pytest.raises(TypeError, match="beta1"):
        TrainConfig(beta1=0.5)
    cfg = TrainConfig()
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)


def test_too_short_training_range_rejected():
    ds = _tiny_ds()
    model = _tiny_model(ds)
    with pytest.raises(TrainingRangeError, match="4 days yields 1 patches"):  # a ValueError
        train(model, ds, range(0, 4), range(4, 8), TrainConfig())


def test_run_epoch_refuses_a_one_patch_training_range_before_it_steps():
    """The rule lives in ``training_loss``, so an epoch run on its own raises
    the same TrainingRangeError, not a divergence of the empty loss, and
    leaves every parameter as it was."""
    ds = _tiny_ds()
    model = _tiny_model(ds)
    before = [p.data.tobytes() for p in model.parameters()]
    opt = Adam(model.trainable_parameters())
    with pytest.raises(TrainingRangeError, match="^training range of 4 days yields 1 patches; need >= 2$"):
        run_epoch(model, ds, range(0, 4), range(4, 8), TrainConfig(), opt, 1)
    assert opt.t == 0 and [p.data.tobytes() for p in model.parameters()] == before


def test_training_deterministic():
    ds = _tiny_ds()
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    outs = []
    for _ in range(2):
        model = _tiny_model(ds)
        model, report = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=10, patience=100))
        outs.append((report.train_losses, [p.data.tobytes() for p in model.parameters()]))
    assert outs[0] == outs[1]


def test_validation_loss_uses_history_context():
    ds = _tiny_ds(days=30)
    model = _tiny_model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    v = validation_loss(model, ds, splits.val, TrainConfig())
    assert np.isfinite(v) and v >= 0
    t = float(training_loss(model, ds, splits.train, TrainConfig()).data)
    assert np.isfinite(t)


@no_grad()
def _validation_loss_oracle(model, ds, val_range, cfg):
    """Adapt every position of the history grid, then keep the targets that
    overlap the validation range."""
    grid = patch_grid(0, val_range.stop, ds.w)
    P = len(grid)
    first = P - 1 - min(sum(1 for s, e in grid if e > val_range.start), P - 1)
    windows = [ds.M[s:e] for s, e in grid]
    preds = backbone_forward(epi_token_sequence(model, ds.X, windows, ds.epsilon, ds.mob_scale, grid), model.backbone)
    x_pred = epi_adapt(preds[: P - 1], model.epi_adapter)[first:]
    x_true = np.stack([ds.X[e - 1] for s, e in grid[1:]])[first:]
    m_pred = m_true = None
    if model.config.mobility_enabled:
        mob_out = backbone_forward(mob_token_sequence(model, windows), model.backbone)
        m_pred = mob_adapt(mob_out[: P - 1], model.mob_adapter)[first:]
        m_true = np.stack([ds.M[e - 1] for s, e in grid[1:]])[first:]
    return float(compute_loss(x_pred, x_true, m_pred, m_true, cfg.mob_weight, cfg.loss_form).data)


@pytest.mark.parametrize("w, val_len", [(3, 3), (3, 4), (3, 7), (2, 1), (7, 7)])
@pytest.mark.parametrize("mobility", [True, False])
def test_validation_loss_equals_adapt_everything_then_slice_oracle(w, val_len, mobility):
    ds = _tiny_ds(n=5, days=40, w=w)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=val_len))
    model = _tiny_model(ds)
    model.config = replace(model.config, mobility_enabled=mobility)
    for loss_form in ("mean-squared", "mean-l2-norm"):
        cfg = TrainConfig(mob_weight=0.7, loss_form=loss_form)
        assert validation_loss(model, ds, splits.val, cfg) == _validation_loss_oracle(model, ds, splits.val, cfg)


def test_loss_decrease_over_500_epochs_tiny_dataset():
    ds = _tiny_ds(n=3, days=18, seed=9)
    model = _tiny_model(ds, width=8, seed=2)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model, report = train(
        model, ds, splits.train, splits.val, TrainConfig(max_epochs=500, patience=500, lr=1e-2)
    )
    assert report.train_losses[-1] < report.train_losses[0]
    assert min(report.train_losses) < 0.5 * report.train_losses[0]
