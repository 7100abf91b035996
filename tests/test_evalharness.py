"""Metrics against brute-force oracles, baselines, ablations, reports."""

import csv
import math
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epicast.evalharness as evalharness
from epicast.backbone import BackboneConfig, build_backbone
from epicast.data import SirParams, SplitSpec, split_dataset, synth_sir
from epicast.evalharness import (
    ABLATION_VARIANTS,
    MetricReport,
    apply_variant,
    baseline_predict,
    emit_report,
    horizon_truth,
    load_reference_results,
    metric_report,
    reference_for,
    run_ablation,
)
from epicast.forecaster import forecast
from epicast.model import ModelConfig, build_model
from epicast.trainer import TrainConfig, train


# -- independent oracles: straight loops, no numpy vectorization ------------------------


def rmse_loop(y, y_hat):
    acc = 0.0
    for a, b in zip(y, y_hat):
        acc += (a - b) ** 2
    return math.sqrt(acc / len(y))


def mae_loop(y, y_hat):
    acc = 0.0
    for a, b in zip(y, y_hat):
        acc += abs(a - b)
    return acc / len(y)


def _metrics(y, y_hat):
    """(RMSE, MAE) of a whole series: the metrics of a one-region report."""
    rep = metric_report(np.reshape(y, (-1, 1)), np.reshape(y_hat, (-1, 1)), "synthetic", len(y), "model")
    assert rep.per_region_rmse == [rep.region_avg_rmse] and rep.per_region_mae == [rep.region_avg_mae]
    return rep.region_avg_rmse, rep.region_avg_mae


def test_metrics_identity():
    y = np.array([1.0, 2.0, 3.0])
    assert _metrics(y, y) == (0.0, 0.0)


def test_metrics_hand_oracle():
    r, m = _metrics(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert r == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert m == pytest.approx(3.5, abs=1e-12)


def test_metrics_single_point():
    assert _metrics([2.0], [5.0]) == pytest.approx((3.0, 3.0))


def test_metrics_match_loop_oracle_100_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        h = rng.integers(1, 30)
        y = rng.normal(size=h) * rng.uniform(0.1, 100)
        y_hat = rng.normal(size=h) * rng.uniform(0.1, 100)
        r, m = _metrics(y, y_hat)
        assert r == pytest.approx(rmse_loop(y, y_hat), rel=1e-9, abs=1e-9)
        assert m == pytest.approx(mae_loop(y, y_hat), rel=1e-9, abs=1e-9)
        assert r >= m - 1e-12


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=150, deadline=None)
def test_rmse_dominates_mae(y, seed):
    y = np.array(y)
    y_hat = y + np.random.default_rng(seed).normal(size=y.shape)
    r, m = _metrics(y, y_hat)
    assert r >= m - 1e-12


def test_metrics_reject_bad_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        _metrics([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="empty horizon"):
        _metrics([], [])


def test_metric_report_region_average():
    truth = np.array([[1.0, 10.0], [2.0, 20.0]])
    pred = np.array([[2.0, 10.0], [2.0, 24.0]])
    rep = metric_report(truth, pred, "synthetic", 2, "model")
    assert rep.region_avg_rmse == pytest.approx(np.mean(rep.per_region_rmse))
    assert rep.region_avg_mae == pytest.approx(np.mean(rep.per_region_mae))
    assert len(rep.per_region_rmse) == 2


@given(
    h=st.integers(min_value=1, max_value=300),
    n=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.floats(min_value=1e-3, max_value=1e6),
)
@settings(max_examples=150, deadline=None)
def test_metric_report_equals_column_metrics_bitwise(h, n, seed, scale):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(h, n)) * scale
    pred = rng.normal(size=(h, n)) * scale
    rep = metric_report(truth, pred, "synthetic", h, "model")
    alone = [metric_report(truth[:, [i]], pred[:, [i]], "synthetic", h, "model") for i in range(n)]
    assert rep.per_region_rmse == [r.region_avg_rmse for r in alone]
    assert rep.per_region_mae == [r.region_avg_mae for r in alone]
    assert rep.region_avg_rmse == float(np.mean(rep.per_region_rmse))
    assert rep.region_avg_mae == float(np.mean(rep.per_region_mae))


# -- baselines ----------------------------------------------------------------------------


def _history_ds(counts):
    """Wrap a (t, N) count matrix in the bits of EpidemicDataset the baselines read."""
    counts = np.asarray(counts)

    class Stub:
        pass

    ds = Stub()
    ds.counts = counts
    return ds


def test_last_day_definition():
    ds = _history_ds(np.array([[5.0], [7.0], [9.0]]))
    np.testing.assert_array_equal(baseline_predict("LAST_DAY", ds, 3, 2), [[9.0], [9.0]])


def test_avg_window_definition():
    ds = _history_ds(np.array([[1.0], [4.0], [6.0], [8.0]]))
    np.testing.assert_array_equal(baseline_predict("AVG_WINDOW", ds, 4, 2), [[7.0], [7.0]])


def test_lin_reg_exact_line():
    ds = _history_ds(np.array([[2.0], [4.0], [6.0]]))
    np.testing.assert_allclose(baseline_predict("LIN_REG", ds, 3, 2), [[8.0], [10.0]], atol=1e-9)


def test_avg_over_everything():
    ds = _history_ds(np.array([[2.0, 1.0], [4.0, 3.0]]))
    np.testing.assert_array_equal(baseline_predict("AVG", ds, 2, 3), np.tile([3.0, 2.0], (3, 1)))


def test_avg_equals_avg_window_at_full_context():
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 50, size=(12, 3)).astype(float)
    ds = _history_ds(counts)
    np.testing.assert_array_equal(
        baseline_predict("AVG", ds, 12, 12), baseline_predict("AVG_WINDOW", ds, 12, 12)
    )


def test_baselines_match_independent_reimplementations():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = int(rng.integers(3, 40))
        h = int(rng.integers(1, 10))
        hist = rng.uniform(0, 100, size=(t, 1))
        ds = _history_ds(hist)
        series = hist[:, 0]

        avg = sum(series) / len(series)
        np.testing.assert_allclose(baseline_predict("AVG", ds, t, h)[:, 0], [avg] * h, rtol=1e-12)

        wnd = series[-min(h, t):]
        np.testing.assert_allclose(
            baseline_predict("AVG_WINDOW", ds, t, h)[:, 0], [sum(wnd) / len(wnd)] * h, rtol=1e-12
        )

        np.testing.assert_allclose(
            baseline_predict("LAST_DAY", ds, t, h)[:, 0], [series[-1]] * h, rtol=1e-12
        )

        # closed-form simple linear regression
        xs = list(range(t))
        xbar, ybar = sum(xs) / t, sum(series) / t
        sxx = sum((x - xbar) ** 2 for x in xs)
        sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, series))
        slope = sxy / sxx
        inter = ybar - slope * xbar
        expected = [slope * (t + k) + inter for k in range(h)]
        np.testing.assert_allclose(baseline_predict("LIN_REG", ds, t, h)[:, 0], expected, atol=1e-9)


@pytest.mark.parametrize("t, n, h", [(2, 1, 1), (3, 5, 4), (40, 34, 56), (113, 129, 7)])
def test_lin_reg_matches_per_region_polyfit_loop(t, n, h):
    rng = np.random.default_rng(t * n)
    hist = rng.integers(0, 500, size=(t, n)).astype(float)
    future = np.arange(t, t + h, dtype=float)
    expected = np.zeros((h, n))
    for i in range(n):
        slope, intercept = np.polyfit(np.arange(t, dtype=float), hist[:, i], 1)
        expected[:, i] = slope * future + intercept
    got = baseline_predict("LIN_REG", _history_ds(hist), t, h)
    assert got.shape == (h, n)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_baseline_errors():
    ds = _history_ds(np.array([[1.0]]))
    with pytest.raises(ValueError):
        baseline_predict("PROPHET", ds, 1, 2)
    with pytest.raises(ValueError):
        baseline_predict("LIN_REG", ds, 1, 2)  # needs two context days
    with pytest.raises(ValueError):
        baseline_predict("AVG", ds, 1, 0)


# -- ablations ------------------------------------------------------------------------------


def test_variant_table_is_complete():
    assert set(ABLATION_VARIANTS) == {
        "full",
        "Graph2MLP",
        "Time2Aver",
        "Time2Last",
        "wo_LLM",
        "LLM2MLP",
        "LLM2RNN",
        "LLM2Trans",
        "Adj2Aver",
        "Adj2Last",
    }


def test_apply_variant_unknown_id():
    mc = ModelConfig(n_regions=3)
    bc = BackboneConfig()
    with pytest.raises(ValueError):
        apply_variant("LLM2Abacus", mc, bc)


def test_apply_variant_settings():
    mc = ModelConfig(n_regions=3)
    bc = BackboneConfig()
    mc2, bc2 = apply_variant("wo_LLM", mc, bc)
    assert bc2.mode == "identity"
    mc3, bc3 = apply_variant("Graph2MLP", mc, bc)
    assert mc3.tokenizer_mode == "mlp" and not mc3.mobility_enabled
    assert bc3.mode == bc.mode
    mc4, bc4 = apply_variant("Adj2Aver", mc, bc)
    assert ABLATION_VARIANTS["Adj2Aver"].adjacency_mode == "window_average"
    assert (mc4, bc4) == (mc, bc)  # the adjacency source is a forecast argument, not a model setting


def test_run_ablation_smoke():
    ds = synth_sir(4, 24, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=1, w=3, scale=True)
    [rep] = run_ablation(
        ["wo_LLM"],
        ds,
        SplitSpec(test_len=3, val_len=3),
        TrainConfig(max_epochs=3, patience=10),
        ModelConfig(n_regions=4, w=3, width=8, seed=0),
        BackboneConfig(depth=1, width=8, heads=2, seed=1),
        steps=1,
    )
    assert rep.model == "wo_LLM"
    assert rep.horizon == 3
    assert np.isfinite(rep.region_avg_rmse)


def test_adj2aver_matches_full_on_direct_forecast_with_constant_adjacency():
    # a predicted structure only enters the epidemic branch once a generated
    # patch rolls into the context, so on a direct forecast the averaged-
    # adjacency variant coincides with the full model; with all window
    # adjacencies equal, the substituted matrix is exactly that constant
    from epicast.data import CaseTable, MobilityTable, build_dataset
    from epicast.forecaster import forecast
    from epicast.model import build_model
    from epicast.trainer import train
    from epicast.data import split_dataset
    import datetime as dt

    rng = np.random.default_rng(3)
    days = 24
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=d) for d in range(days)]
    regions = [f"r{i}" for i in range(3)]
    counts = rng.integers(0, 40, size=(days, 3))
    cases = CaseTable(dates=dates, regions=regions, counts=counts)
    const_flow = np.zeros((3, 3))
    const_flow[0, 1], const_flow[1, 2], const_flow[2, 0], const_flow[0, 0] = 5.0, 2.0, 7.0, 9.0
    mobility = MobilityTable(dates=dates, regions=regions, flows=np.tile(const_flow, (days, 1, 1)))
    ds = build_dataset(cases, mobility, w=3)

    mc = ModelConfig(n_regions=3, w=3, width=8, seed=0)
    bc = BackboneConfig(depth=1, width=8, heads=2, seed=1)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model = build_model(mc, bc)
    model, _ = train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=2, patience=5))

    full = forecast(model, ds, splits.test.start, 1)
    averaged = forecast(model, ds, splits.test.start, 1, "window_average")
    np.testing.assert_array_equal(full.cases, averaged.cases)
    np.testing.assert_array_equal(averaged.mobility[0], ds.M[0])  # average of equal matrices


def _trained_once_per_variant(variant, ds, split, tc, mc, bc, steps, weights):
    """One build, train and forecast for one variant, as `ablate` ran each variant
    before models were shared: the oracle `run_ablation` must match bitwise."""
    spec = ABLATION_VARIANTS[variant]
    variant_mc, variant_bc = apply_variant(variant, mc, bc)
    key = (variant_mc, variant_bc, weights if spec.backbone_mode is None else None)
    splits = split_dataset(ds, split)
    model, _ = train(build_model(*key), ds, splits.train, splits.val, tc)
    result = forecast(model, ds, splits.test.start, steps, spec.adjacency_mode)
    truth = horizon_truth(ds, splits.test.start, steps * mc.w)
    config = {"variant": asdict(spec), "steps": steps}
    report = metric_report(truth, result.cases, "synthetic", steps * mc.w, variant, config)
    return key, model, report


@given(
    mode=st.sampled_from(["frozen-transformer", "trainable-transformer"]),
    variants=st.lists(st.sampled_from(list(ABLATION_VARIANTS)), min_size=1, max_size=4),
    with_weights=st.booleans(),
)
@example(mode="frozen-transformer", variants=["Adj2Last", "wo_LLM", "full", "Adj2Aver"], with_weights=False)
@example(mode="trainable-transformer", variants=["LLM2Trans", "Adj2Aver", "full"], with_weights=False)
@example(mode="trainable-transformer", variants=["full", "LLM2Trans", "Adj2Last"], with_weights=True)
@settings(max_examples=6, deadline=None)
def test_run_ablation_trains_each_distinct_model_once(mode, variants, with_weights):
    # a model is keyed by the variant's configs and the backbone weights it
    # loads; variants that share a key train bitwise-equal parameters, so one
    # training serves them all and every report is the per-variant report
    ds = synth_sir(3, 21, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=2, w=3, scale=True)
    split = SplitSpec(test_len=6, val_len=3)
    tc = TrainConfig(max_epochs=2, patience=5, lr=1e-2)
    mc = ModelConfig(n_regions=3, w=3, width=4, seed=0)
    bc = BackboneConfig(mode=mode, depth=1, width=4, heads=2, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        weights = None
        if with_weights:
            weights = Path(tmp) / "backbone.bin"
            build_backbone(replace(bc, seed=9)).export_weights(weights)
        oracle = [_trained_once_per_variant(v, ds, split, tc, mc, bc, 2, weights) for v in variants]
        with mock.patch.object(evalharness, "train", wraps=evalharness.train) as counted:
            reports = run_ablation(variants, ds, split, tc, mc, bc, steps=2, backbone_weights=weights)

    first = {}
    for key, model, _ in oracle:
        params = [p.data.tobytes() for p in model.parameters()]
        assert first.setdefault(key, params) == params
    assert counted.call_count == len(first)
    assert [repr(rep.to_dict()) for rep in reports] == [repr(rep.to_dict()) for _, _, rep in oracle]


# -- references and report emission --------------------------------------------------------


def test_reference_lookup_england_3day():
    ref = reference_for(load_reference_results(), "England", 3)
    assert ref == {"rmse": 5.41, "mae": 3.83}


def test_reference_lookup_spain_14day_multistep():
    ref = reference_for(load_reference_results(), "Spain", 14)
    assert ref["rmse"] == 56.85


def test_reference_region_counts():
    doc = load_reference_results()
    assert doc["region_counts"] == {"England": 129, "France": 81, "Italy": 105, "Spain": 34}
    assert doc["label"] == "reference, not reproduced"


def test_emit_report_rows_and_refs(tmp_path):
    rep = MetricReport(
        dataset="England",
        horizon=3,
        model="model",
        per_region_rmse=[1.0],
        per_region_mae=[0.5],
        region_avg_rmse=1.0,
        region_avg_mae=0.5,
    )
    csv_path, json_path = emit_report([rep], tmp_path)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["dataset"] == "England"
    assert float(rows[0]["ref_rmse"]) == 5.41
    assert float(rows[0]["ref_mae"]) == 3.83
    assert json_path.exists()


def test_emit_report_synthetic_has_blank_refs(tmp_path):
    rep = metric_report(np.ones((3, 2)), np.ones((3, 2)), "synthetic", 3, "AVG")
    csv_path, _ = emit_report([rep], tmp_path)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["ref_rmse"] == ""


def test_emit_report_reads_the_reference_file_once(tmp_path, monkeypatch):
    reads = []

    def counting():
        reads.append(1)
        return load_reference_results()

    monkeypatch.setattr(evalharness, "load_reference_results", counting)
    reports = [
        MetricReport(dataset=name, horizon=h, model="model", per_region_rmse=[1.0], per_region_mae=[0.5],
                     region_avg_rmse=1.0, region_avg_mae=0.5)
        for name, h in [("England", 3), ("Spain", 14), ("synthetic", 3)] * 4
    ]
    csv_path, _ = emit_report(reports, tmp_path)
    assert len(reads) == 1
    rows = list(csv.DictReader(open(csv_path)))
    assert [r["ref_rmse"] for r in rows[:3]] == ["5.41", "56.85", ""]


def test_emit_report_requires_reports(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)
