"""Iterative multi-step forecasting: shapes, determinism, invariants."""

import numpy as np
import pytest

from epicast import forecaster
from epicast.backbone import BackboneConfig, backbone_forward
from epicast.data import SirParams, SplitSpec, split_dataset, synth_sir
from epicast.forecaster import ForecastDivergedError, InsufficientContextError, forecast
from epicast.model import ModelConfig, build_model
from epicast.trainer import TrainConfig, train


def _ds(w=3, days=30, n=4, seed=5, **kw):
    return synth_sir(n, days, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=seed, w=w, scale=True, **kw)


def _model(ds, width=8, seed=0, mode="frozen-transformer", **cfg_kw):
    mc = ModelConfig(n_regions=ds.N, w=ds.w, width=width, seed=seed, epsilon=ds.epsilon, **cfg_kw)
    bc = BackboneConfig(mode=mode, depth=2, width=width, heads=2, seed=seed + 1)
    return build_model(mc, bc)


def test_direct_forecast_shape():
    ds = _ds(w=3)
    model = _model(ds)
    res = forecast(model, ds, context_end=24, steps=1)
    assert res.cases.shape == (3, ds.N)
    assert res.horizon == 3
    assert res.steps == 1


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
        model = _model(ds, adjacency_mode=mode)
        res = forecast(model, ds, context_end=24, steps=2)
        assert res.cases.shape == (6, ds.N)
        if mode == "last":
            np.testing.assert_allclose(res.mobility[0], ds.M[23] * ds.mob_scale)
        else:
            np.testing.assert_allclose(res.mobility[0], ds.M[21:24].mean(axis=0) * ds.mob_scale)


def test_divergence_reports_step_index():
    ds = _ds()
    model = _model(ds)
    # overflow the case adapter so the first generated block is non-finite
    model.epi_adapter.W.data = np.full_like(model.epi_adapter.W.data, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ForecastDivergedError) as exc:
            forecast(model, ds, context_end=24, steps=2)
    assert exc.value.step == 1


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
