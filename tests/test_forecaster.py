"""Iterative multi-step forecasting: shapes, determinism, invariants."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicast import forecaster
from epicast.backbone import MODES, BackboneConfig, backbone_forward
from epicast.data import (
    CaseTable,
    ConfigError,
    SirParams,
    SplitSpec,
    build_dataset,
    split_dataset,
    synth_sir,
    synth_sir_tables,
    window_features,
)
from epicast.forecaster import ForecastDivergedError, InsufficientContextError, forecast
from epicast.model import ModelConfig, build_model
from epicast.prompts import PromptGraphError
from epicast.serialize import CheckpointError
from epicast.trainer import TrainConfig, train


def _ds(w=3, days=30, n=4, seed=5, scale=True, **kw):
    return synth_sir(n, days, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=seed, w=w, scale=scale, **kw)


def _model(ds, width=8, seed=0, mode="frozen-transformer", **cfg_kw):
    mc = ModelConfig(n_regions=ds.N, w=ds.w, width=width, seed=seed, **cfg_kw)
    bc = BackboneConfig(mode=mode, depth=2, width=width, heads=2, seed=seed + 1)
    return build_model(mc, bc)


def test_direct_forecast_shape():
    ds = _ds(w=3)
    model = _model(ds)
    res = forecast(model, ds, context_end=24, steps=1)
    assert res.cases.shape == (3, ds.N)
    assert res.horizon == 3
    assert res.steps == 1


@pytest.mark.parametrize("epsilon", [0.0, 40.0])
@pytest.mark.parametrize("adjacency_mode", forecaster.ADJACENCY_MODES)
def test_a_forecast_leaves_the_dataset_as_it_was_and_returns_its_own_arrays(adjacency_mode, epsilon):
    """The rollout reads the context's mobility through a view of ``ds.M``, and
    an unscaled ``ds.M`` is the caller's flows array itself: a forecast writes
    none of the dataset's arrays, and what it returns shares no memory with
    them, at a zero threshold (where the rule returns the mobility itself) and
    at a positive one."""
    cases, flows = synth_sir_tables(4, 30, rng_seed=3)
    ds = build_dataset(cases, flows, w=3, epsilon=epsilon, scale=False)
    assert ds.M is flows
    before = [a.tobytes() for a in (ds.M, ds.X, ds.counts)]
    res = forecast(_model(ds), ds, context_end=24, steps=3, adjacency_mode=adjacency_mode)
    assert [a.tobytes() for a in (ds.M, ds.X, ds.counts)] == before
    for out in (res.cases, res.mobility, res.adjacency):
        for held in (ds.M, ds.X, ds.counts):
            assert not np.shares_memory(out, held)


def test_two_step_w7_gives_14_days():
    ds = _ds(w=7, days=42)
    model = _model(ds)
    res = forecast(model, ds, context_end=28, steps=2)
    assert res.horizon == 14
    assert res.cases.shape == (14, ds.N)
    assert res.mobility.shape == (2, ds.N, ds.N)


@pytest.mark.parametrize("steps", [1, 2, 3, 5])
def test_horizon_is_steps_times_window(steps):
    ds = _ds(w=3)
    model = _model(ds)
    res = forecast(model, ds, context_end=24, steps=steps)
    assert res.horizon == steps * 3
    assert res.cases.shape == (steps * 3, ds.N)


def test_forecast_deterministic():
    ds = _ds()
    model = _model(ds)
    a = forecast(model, ds, context_end=24, steps=2)
    b = forecast(model, ds, context_end=24, steps=2)
    assert np.array_equal(a.cases, b.cases)
    assert np.array_equal(a.mobility, b.mobility)


def test_prefix_consistency_bitwise():
    ds = _ds()
    model = _model(ds)
    one = forecast(model, ds, context_end=24, steps=1)
    two = forecast(model, ds, context_end=24, steps=2)
    assert np.array_equal(one.cases, two.cases[: one.horizon])
    assert np.array_equal(one.mobility[0], two.mobility[0])


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    mode=st.sampled_from(MODES),
    adjacency_mode=st.sampled_from(forecaster.ADJACENCY_MODES),
    steps=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=2, unique=True).map(sorted),
)
@settings(max_examples=30, deadline=None)
def test_a_shorter_forecast_is_the_bitwise_prefix_of_a_longer_one(seed, mode, adjacency_mode, steps):
    """forecast(steps=j) is bitwise the first j patches of forecast(steps=k)
    for j < k, in every backbone and adjacency mode, and every output is
    finite and nonnegative."""
    ds = _ds(seed=seed)
    model = _model(ds, mode=mode)
    j, k = steps
    short, long = (forecast(model, ds, context_end=24, steps=n, adjacency_mode=adjacency_mode) for n in (j, k))
    assert short.cases.tobytes() == long.cases[: short.horizon].tobytes()
    assert short.mobility.tobytes() == long.mobility[:j].tobytes()
    assert short.adjacency.tobytes() == long.adjacency[:j].tobytes()
    for out in (long.cases, long.mobility, long.adjacency):
        assert np.all(np.isfinite(out)) and np.all(out >= 0)


def test_everything_nonnegative():
    ds = _ds()
    model = _model(ds, seed=7)
    res = forecast(model, ds, context_end=24, steps=4)
    assert (res.cases >= 0).all()
    assert (res.mobility >= 0).all()
    assert (res.adjacency >= 0).all()


def test_adjacency_matches_thresholded_mobility():
    ds = _ds(epsilon=5.0)
    model = _model(ds)
    res = forecast(model, ds, context_end=24, steps=3)
    for s in range(res.steps):
        np.testing.assert_array_equal(
            res.adjacency[s], np.where(res.mobility[s] > ds.epsilon, res.mobility[s], 0.0)
        )


def test_insufficient_context_rejected():
    ds = _ds(w=7, days=42)
    model = _model(ds)
    with pytest.raises(InsufficientContextError):
        forecast(model, ds, context_end=5, steps=1)
    with pytest.raises(InsufficientContextError):
        forecast(model, ds, context_end=100, steps=1)
    with pytest.raises(ValueError):
        forecast(model, ds, context_end=28, steps=0)


@pytest.mark.parametrize("name, value", [("steps", 2.0), ("steps", True), ("context_end", 24.0), ("context_end", True)])
def test_a_step_count_or_context_end_that_is_no_integer_is_refused(name, value):
    """A float or bool raises the error of the argument's range check, naming
    the value, not a bare TypeError from the rollout; a numpy integer is one."""
    ds = _ds()
    model = _model(ds)
    error = InsufficientContextError if name == "context_end" else ValueError
    with pytest.raises(error, match=f"^{name} must be an integer, got {value!r}$") as raised:
        forecast(model, ds, **{"context_end": 24, "steps": 2, name: value})
    assert (type(raised.value) is InsufficientContextError) == (name == "context_end")
    np.testing.assert_array_equal(forecast(model, ds, np.int64(24), np.int8(2)).cases, forecast(model, ds, 24, 2).cases)


def test_forecast_dates_continue_calendar():
    ds = _ds()
    model = _model(ds)
    res = forecast(model, ds, context_end=24, steps=1)
    assert res.dates[0] == ds.dates[23] + (ds.dates[1] - ds.dates[0])
    assert len(res.dates) == res.horizon


def test_forecast_in_raw_units_after_training():
    # trained on a scaled dataset, forecasts must come back in raw counts
    ds = _ds(days=36)
    model = _model(ds)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model, _ = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=60, patience=100, lr=1e-2))
    res = forecast(model, ds, splits.test.start, steps=1)
    truth = ds.counts[splits.test.start :].astype(float)
    assert res.cases.shape == truth.shape
    # same order of magnitude as the raw counts, not the scaled [0, 1] space
    assert res.cases.max() > 1.5 * ds.X.max()


def test_csv_and_json_deterministic(tmp_path):
    ds = _ds()
    model = _model(ds)
    res = forecast(model, ds, context_end=24, steps=2)
    res.write_csv(tmp_path / "a.csv")
    res.write_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    res.write_mobility_json(tmp_path / "m.json")
    assert (tmp_path / "m.json").stat().st_size > 0
    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header == "region_id,date,predicted_cases"


def test_window_average_and_last_adjacency_modes():
    ds = _ds()
    for mode in ("window_average", "last"):
        res = forecast(_model(ds), ds, context_end=24, steps=2, adjacency_mode=mode)
        assert res.meta["adjacency_mode"] == mode
        assert res.cases.shape == (6, ds.N)
        if mode == "last":
            np.testing.assert_allclose(res.mobility[0], ds.M[23] * ds.mob_scale)
        else:
            np.testing.assert_allclose(res.mobility[0], ds.M[21:24].mean(axis=0) * ds.mob_scale)


def test_unknown_adjacency_mode_is_a_config_error():
    ds = _ds()
    model = _model(ds)
    assert forecast(model, ds, context_end=24, steps=1).meta["adjacency_mode"] == "predicted"
    modes = r"\('predicted', 'window_average', 'last'\)"
    with pytest.raises(ConfigError, match=f"unknown adjacency mode 'historic'; choose from {modes}"):
        forecast(model, ds, context_end=24, steps=1, adjacency_mode="historic")


def test_divergence_reports_step_index():
    ds = _ds()
    model = _model(ds)
    # the case adapter overflows as the first block is generated, which the
    # forecast's own raising errstate turns into a named divergence
    model.epi_adapter.W.data = np.full_like(model.epi_adapter.W.data, 1e308)
    with pytest.raises(ForecastDivergedError, match="numpy: overflow") as exc:
        forecast(model, ds, context_end=24, steps=2)
    assert exc.value.step == 1


def test_mobility_divergence_reports_step_index():
    ds = _ds()
    model = _model(ds)
    model.mob_adapter.b.data = np.full_like(model.mob_adapter.b.data, np.inf)
    with pytest.raises(ForecastDivergedError, match="non-finite mobility prediction at forecast step 1"):
        forecast(model, ds, context_end=24, steps=2)


def test_case_divergence_reports_step_index():
    ds = _ds()
    model = _model(ds)
    model.epi_adapter.b.data = np.full_like(model.epi_adapter.b.data, np.inf)
    with pytest.raises(ForecastDivergedError, match="non-finite case prediction at forecast step 1") as exc:
        forecast(model, ds, context_end=24, steps=2)
    assert exc.value.step == 1


@pytest.mark.parametrize("mode", ["window_average", "last"])
def test_history_modes_carry_the_rolled_in_structure(mode):
    # from step 2 on, the last w days of the history all hold step 1's matrix
    ds = _ds(epsilon=5.0)
    res = forecast(_model(ds), ds, context_end=24, steps=4, adjacency_mode=mode)
    for s in range(1, res.steps):
        np.testing.assert_allclose(res.mobility[s], res.mobility[0], rtol=1e-12)
        np.testing.assert_allclose(res.adjacency[s], res.adjacency[0], rtol=1e-12)


def test_disabled_mobility_emits_zero_structures():
    ds = _ds()
    model = _model(ds, tokenizer_mode="mlp", mobility_enabled=False)
    res = forecast(model, ds, context_end=24, steps=2)
    assert (res.mobility == 0).all()
    assert (res.adjacency == 0).all()
    assert res.cases.shape == (6, ds.N)


@pytest.mark.parametrize("mode", ["frozen-transformer", "rnn"])
def test_incremental_decoding_matches_full_recompute(monkeypatch, mode):
    ds = _ds()
    model = _model(ds, mode=mode, seed=3)
    decoded = forecast(model, ds, context_end=24, steps=8)

    calls = []

    def full_recompute(tokens, state, cache):
        """The oracle: rerun every position, then return the ones the cache has not seen."""
        start, cache.length = cache.length, tokens.data.shape[0]
        calls.append((start, cache.length))
        return backbone_forward(tokens, state)[start:]

    monkeypatch.setattr(forecaster, "backbone_forward", full_recompute)
    oracle = forecast(model, ds, context_end=24, steps=8)
    # step 1 prefills the 8 context patches per branch, then one new position per step and branch
    assert calls == [(0, 8)] * 2 + [(p, p + 1) for p in range(8, 15) for _ in range(2)]
    assert decoded.cases[:3].tobytes() == oracle.cases[:3].tobytes()
    assert decoded.mobility[0].tobytes() == oracle.mobility[0].tobytes()
    for got, want in ((decoded.cases, oracle.cases), (decoded.mobility, oracle.mobility)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("w, context_end", [(1, 5), (3, 24), (3, 25), (7, 14)])
def test_features_are_the_full_rewindowed_history(monkeypatch, w, context_end):
    """Step t's feature rows are bitwise what windowing the whole rolled-out
    history up to day t gives, with one windowing call per step.  Unscaled,
    so the history is exactly the context counts and the forecast cases."""
    ds = synth_sir(4, 6 * w + 8, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=5, w=w)
    model = _model(ds, seed=2)
    seen, windowed = [], []
    original = forecaster.epi_token_sequence

    def spy(model, X, windows, epsilon, mob_scale, grid):
        seen.append(X.copy())
        return original(model, X, windows, epsilon, mob_scale, grid)

    monkeypatch.setattr(forecaster, "epi_token_sequence", spy)
    monkeypatch.setattr(forecaster, "window_features", lambda *a: windowed.append(a) or window_features(*a))
    res = forecast(model, ds, context_end=context_end, steps=4)
    history = np.concatenate([ds.counts[:context_end].astype(np.float64), res.cases])
    assert [len(X) for X in seen] == [context_end + s * w for s in range(4)]
    assert len(windowed) == 4  # one call per step
    for X in seen:
        assert X.tobytes() == window_features(history[: len(X)], w).tobytes()


_SERVED = _ds()
_PARAMETER_NAMES = [p.name for p in _model(_SERVED).parameters()]


@given(name=st.sampled_from(_PARAMETER_NAMES), value=st.floats(allow_nan=False, allow_infinity=False))
@example(name="epi_proj.l1.W", value=1e300)
@example(name="epi_proj.l1.W", value=1e154)
@settings(max_examples=60, deadline=None)
def test_a_bad_parameter_fails_by_name_or_forecasts_without_warning(name, value):
    """Any finite value in one checkpoint tensor either forecasts with no
    numpy warning or fails with a named error: ForecastDivergedError, or
    PromptGraphError for prompt weights that leave a degree non-positive."""
    model = _model(_SERVED)
    (param,) = [p for p in model.parameters() if p.name == name]
    param.data = np.full_like(param.data, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            forecast(model, _SERVED, context_end=24, steps=2)
        except (ForecastDivergedError, PromptGraphError):
            return
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]


# -- the served model space ------------------------------------------------------------


def _trained(ds):
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model, _ = train(_model(ds), ds, splits.train, splits.val, TrainConfig(max_epochs=1))
    return model


def test_a_model_trained_on_scaled_data_refuses_the_unscaled_twin():
    # served anyway, its forecast would come back in scaled units, hundreds of times too small
    model = _trained(_ds())
    assert model.served == _ds().served_space()
    with pytest.raises(CheckpointError, match=r"trained with case_scale=\[.*serves case_scale=\[1\.0, 1\.0"):
        forecast(model, _ds(scale=False), context_end=24, steps=1)


_TABLES = synth_sir_tables(4, 30, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=5)
_TRAINED = _trained(build_dataset(*_TABLES, w=3, epsilon=0.0, scale=True))


@given(
    order=st.permutations(range(4)),
    renamed=st.sampled_from([None, 0, 3]),
    count=st.integers(min_value=2, max_value=4),
    w=st.integers(min_value=1, max_value=4),
    epsilon=st.sampled_from([0.0, 1e-9, 50.0]),
    scale=st.booleans(),
)
@example(order=[0, 1, 2, 3], renamed=None, count=4, w=3, epsilon=0.0, scale=True)  # the trained dataset
@example(order=[3, 2, 1, 0], renamed=None, count=4, w=3, epsilon=0.0, scale=True)  # reversed regions
@settings(max_examples=40, deadline=None)
def test_a_trained_model_serves_only_its_training_space(order, renamed, count, w, epsilon, scale):
    """A model trained by `train` forecasts on a dataset only when its region ids,
    their order, w, epsilon and the scaling all equal the training dataset's;
    otherwise CheckpointError names the first field that differs.  A model with
    no served record forecasts on any dataset of its shape."""
    cases, flows = _TABLES
    keep = list(order)[:count]
    ids = [cases.regions[i] for i in keep]
    if renamed is not None and renamed < count:
        ids[renamed] = "X" + ids[renamed][1:]
    ds = build_dataset(
        CaseTable(dates=cases.dates, regions=ids, counts=cases.counts[:, keep]),
        flows[:, keep][:, :, keep],
        w=w,
        epsilon=epsilon,
        scale=scale,
    )
    differs = [
        key
        for key, same in [
            ("regions", ids == cases.regions),
            ("w", w == 3),
            ("epsilon", epsilon == 0.0),
            ("case_scale", scale),
        ]
        if not same
    ]
    if differs:
        with pytest.raises(CheckpointError, match=f"trained with {differs[0]}="):
            forecast(_TRAINED, ds, context_end=24, steps=1)
    else:
        trained = forecast(_TRAINED, ds, context_end=24, steps=1)
        assert np.all(np.isfinite(trained.cases))
    if count == 4 and w == 3:
        unchecked = forecast(replace(_TRAINED, served=None), ds, context_end=24, steps=1)
        assert unchecked.cases.shape == (3, 4)
