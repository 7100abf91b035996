"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import dataclasses
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from gradcheck import grad_check

from epicast.backbone import BackboneConfig, backbone_forward, build_backbone
from epicast.cli import cmd_evaluate, cmd_forecast, cmd_train, resolve_config
from epicast.data import SirParams, SplitSpec, load_cases, load_mobility, split_dataset, synth_sir
from epicast.evalharness import (
    ABLATION_VARIANTS,
    baseline_predict,
    emit_report,
    load_reference_results,
    metric_report,
    run_ablation,
)
from epicast.forecaster import forecast
from epicast.model import ModelConfig, backbone_hash, build_model, count_params
from epicast.prompts import init_prompts
from epicast.tensor import Tensor
from epicast.trainer import TrainConfig, train, training_loss


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def _sir(n, days, w, seed, **kw):
    return synth_sir(
        n, days, SirParams(beta=0.4, gamma_rec=0.2, population=5000), rng_seed=seed, w=w, scale=True, **kw
    )


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients match central differences within 1e-4"):
        import time

        t0 = time.time()
        ds = synth_sir(
            4, 24, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=5, w=3, scale=True
        )
        mc = ModelConfig(n_regions=4, w=3, width=8, seed=0)
        bc = BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=1)
        model = build_model(mc, bc)
        params = model.trainable_parameters()
        # zero-initialized biases put relu pre-activations exactly on the kink,
        # where the two-sided difference quotient is undefined; jitter to a
        # generic point first (the gradient identity holds almost everywhere)
        rng = np.random.default_rng(123)
        for p in params:
            p.data = np.asarray(p.data + rng.normal(scale=0.05, size=p.data.shape))
        cfg = TrainConfig()

        def loss():
            return training_loss(model, ds, range(0, 18), cfg)

        report = grad_check(loss, params, h=1e-6)
        elapsed = time.time() - t0
        assert report.max_rel_error < 1e-4, (
            f"max rel err {report.max_rel_error:.3e} on {report.worst_param}"
        )
        assert sum(p.data.size for p in params) >= 250  # every trainable parameter checked
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_2_frozen_backbone_contract():
    with criterion(2, "backbone bytes unchanged after 200 epochs; trainable ratio < 100%"):
        ds = _sir(4, 24, w=3, seed=3)
        mc = ModelConfig(n_regions=4, w=3, width=8, seed=0)
        bc = BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=1)
        model = build_model(mc, bc)
        before = backbone_hash(model)
        splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
        model, report = train(
            model, ds, splits.train, splits.val, TrainConfig(max_epochs=200, patience=200, lr=1e-2)
        )
        assert report.stopped_epoch == 200
        assert backbone_hash(model) == before
        counts = count_params(model)
        assert counts.trainable < counts.total
        assert report.trainable_ratio == counts.trainable / counts.total


def test_criterion_3_prompt_initialization():
    with criterion(3, "fresh prompts are exactly (forward 1.0, backward 0.5, gates 1.0)"):
        for w in (1, 3, 7):
            p = init_prompts(w)
            assert float(p.w_forward.data) == 1.0
            assert float(p.w_backward.data) == 0.5
            assert p.gamma.data.shape == (w,)
            assert (p.gamma.data == 1.0).all()


def test_criterion_4_metric_oracle_equivalence():
    with criterion(4, "rmse/mae agree with loop oracle to 1e-9; rmse >= mae on all pairs"):
        rng = np.random.default_rng(17)
        for _ in range(100):
            h = int(rng.integers(1, 40))
            scale = rng.uniform(0.1, 500)
            y = rng.normal(size=h) * scale
            y_hat = rng.normal(size=h) * scale

            acc_sq = 0.0
            acc_abs = 0.0
            for a, b in zip(y, y_hat):
                acc_sq += (a - b) ** 2
                acc_abs += abs(a - b)
            oracle_rmse = math.sqrt(acc_sq / h)
            oracle_mae = acc_abs / h

            rep = metric_report(y[:, None], y_hat[:, None], "synthetic", h, "model")  # one region: the whole series
            r, m = rep.region_avg_rmse, rep.region_avg_mae
            assert abs(r - oracle_rmse) <= 1e-9 * max(1.0, oracle_rmse)
            assert abs(m - oracle_mae) <= 1e-9 * max(1.0, oracle_mae)
            assert r >= m - 1e-12


def test_criterion_5_baseline_oracle_equivalence():
    with criterion(5, "AVG/AVG_WINDOW/LAST_DAY exact and LIN_REG to 1e-9 vs reimplementations"):
        rng = np.random.default_rng(23)

        class Stub:
            pass

        for _ in range(50):
            t = int(rng.integers(3, 50))
            h = int(rng.integers(1, 12))
            hist = rng.integers(0, 200, size=(t, 2)).astype(np.int64)
            ds = Stub()
            ds.counts = hist
            for col in range(2):
                series = [float(v) for v in hist[:, col]]
                assert list(baseline_predict("AVG", ds, t, h)[:, col]) == [sum(series) / t] * h
                wnd = series[-min(h, t) :]
                assert list(baseline_predict("AVG_WINDOW", ds, t, h)[:, col]) == [sum(wnd) / len(wnd)] * h
                assert list(baseline_predict("LAST_DAY", ds, t, h)[:, col]) == [series[-1]] * h

                xs = list(range(t))
                xbar, ybar = sum(xs) / t, sum(series) / t
                sxx = sum((x - xbar) ** 2 for x in xs)
                sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, series))
                slope = sxy / sxx
                inter = ybar - slope * xbar
                got = baseline_predict("LIN_REG", ds, t, h)[:, col]
                for k in range(h):
                    expected = slope * (t + k) + inter
                    assert abs(got[k] - expected) <= 1e-9 * max(1.0, abs(expected))


def test_criterion_6_causality_and_prefix_consistency():
    with criterion(6, "causal masking exact; first patch of a 2-step run is bitwise the 1-step run"):
        state = build_backbone(BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=3))
        base = Tensor(np.random.default_rng(1).normal(size=(6, 3, 8)))
        out_base = backbone_forward(base, state).data.copy()
        for p in range(1, 6):
            bumped = base.data.copy()
            bumped[p] += 5.0
            out = backbone_forward(Tensor(bumped), state).data
            assert np.array_equal(out[:p], out_base[:p])

        ds = _sir(5, 30, w=3, seed=9)
        model = build_model(
            ModelConfig(n_regions=5, w=3, width=8, seed=2),
            BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=3),
        )
        one = forecast(model, ds, context_end=24, steps=1)
        two = forecast(model, ds, context_end=24, steps=2)
        assert np.array_equal(one.cases, two.cases[: one.horizon])
        assert np.array_equal(one.mobility[0], two.mobility[0])
        assert np.array_equal(one.adjacency[0], two.adjacency[0])


def test_criterion_7_learning_sanity_beats_avg_baseline():
    with criterion(7, "direct-forecast validation RMSE beats the AVG baseline on seeded SIR data"):
        import time

        t0 = time.time()
        ds = _sir(10, 60, w=3, seed=0)
        splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
        model = build_model(
            ModelConfig(n_regions=10, w=3, width=32, seed=0),
            BackboneConfig(mode="frozen-transformer", depth=2, width=32, heads=4, seed=1),
        )
        model, report = train(
            model, ds, splits.train, splits.val, TrainConfig(max_epochs=500, patience=60, lr=1e-2)
        )
        assert report.stopped_epoch <= 500
        context_end = splits.val.start
        horizon = 3
        truth = ds.counts[context_end : context_end + horizon].astype(float)
        model_rmse = metric_report(
            truth, forecast(model, ds, context_end, 1).cases, "synthetic", horizon, "model"
        ).region_avg_rmse
        avg_rmse = metric_report(
            truth, baseline_predict("AVG", ds, context_end, horizon), "synthetic", horizon, "AVG"
        ).region_avg_rmse
        elapsed = time.time() - t0
        assert model_rmse < avg_rmse, f"model {model_rmse:.3f} vs AVG {avg_rmse:.3f}"
        assert elapsed < 600, f"took {elapsed:.1f}s"


def test_criterion_8_bitwise_determinism(tmp_path):
    with criterion(8, "identical config+seed gives bitwise-identical checkpoints and forecasts"):
        raw = {
            "synth.regions": "4",
            "synth.days": "24",
            "w": "3",
            "horizon": "3",
            "split.test": "3",
            "split.val": "3",
            "scale": "true",
            "backbone.width": "8",
            "backbone.heads": "2",
            "backbone.depth": "2",
            "train.max_epochs": "8",
            "train.patience": "20",
            "seed": "11",
        }
        outs = []
        for tag in ("a", "b"):
            cfg = resolve_config(dict(raw), out_override=str(tmp_path / tag))
            cmd_train(cfg)
            cmd_forecast(cfg)
            outs.append(tmp_path / tag)
        a, b = outs
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "checkpoint.bin.json").read_bytes() == (b / "checkpoint.bin.json").read_bytes()
        assert (a / "forecast.csv").read_bytes() == (b / "forecast.csv").read_bytes()


def test_criterion_9_split_arithmetic():
    with criterion(9, "temporal split boundaries match hand-computed values"):
        expected = {
            (61, 3, 3): 55,
            (61, 7, 7): 47,
            (61, 14, 7): 40,
            (79, 3, 3): 73,
            (79, 7, 7): 65,
            (79, 14, 7): 58,
        }
        for (T, test_len, val_len), train_days in expected.items():
            s = split_dataset(T, SplitSpec(test_len=test_len, val_len=val_len))
            assert s.train == range(0, train_days)
            assert s.val == range(train_days, train_days + val_len)
            assert s.test == range(T - test_len, T)
            assert list(s.train) + list(s.val) + list(s.test) == list(range(T))


def test_criterion_10_ablation_coverage(tmp_path):
    with criterion(10, "all ten variants run and report; wo_LLM differs; Time2Last == full at w=1"):
        ds = _sir(4, 30, w=3, seed=6)
        split = SplitSpec(test_len=6, val_len=3)
        tc = TrainConfig(max_epochs=2, patience=10, lr=1e-2)
        mc = ModelConfig(n_regions=4, w=3, width=8, seed=0)
        bc = BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2, seed=1)
        reports = run_ablation(list(ABLATION_VARIANTS), ds, split, tc, mc, bc, steps=2)
        assert [rep.model for rep in reports] == list(ABLATION_VARIANTS)
        for rep in reports:
            assert np.isfinite(rep.region_avg_rmse) and np.isfinite(rep.region_avg_mae)
        csv_path, json_path = emit_report(reports, tmp_path)
        assert csv_path.exists() and json_path.exists()
        assert len(reports) == 10

        # wo_LLM and the full model disagree on generic data
        def trained_forecast(variant_mc, variant_bc):
            model = build_model(variant_mc, variant_bc)
            splits = split_dataset(ds, split)
            model, _ = train(model, ds, splits.train, splits.val, tc)
            return forecast(model, ds, splits.test.start, 1).cases

        full_cases = trained_forecast(mc, bc)
        wo_cases = trained_forecast(mc, dataclasses.replace(bc, mode="identity"))
        assert not np.array_equal(full_cases, wo_cases)

        # at a one-day window the last-slice variant is the full model, exactly
        ds1 = _sir(4, 30, w=1, seed=6)
        splits1 = split_dataset(ds1, SplitSpec(test_len=3, val_len=3))
        mc1 = ModelConfig(n_regions=4, w=1, width=8, seed=0)
        cases = {}
        for gating in ("gated", "last"):
            model = build_model(dataclasses.replace(mc1, gating_mode=gating), bc)
            model, _ = train(model, ds1, splits1.train, splits1.val, tc)
            cases[gating] = forecast(model, ds1, splits1.test.start, 1).cases
        assert np.array_equal(cases["gated"], cases["last"])


def test_criterion_11_real_data_smoke(tmp_path):
    data_dir = os.environ.get("EPICAST_DATA_DIR")
    if not data_dir:
        pytest.skip("EPICAST_DATA_DIR not set; real COVID CSVs not supplied")
    with criterion(11, "real-data ingestion reproduces region counts; end-to-end run is finite"):
        region_counts = load_reference_results()["region_counts"]
        data_dir = Path(data_dir)
        for name, expected_regions in region_counts.items():
            cases_path = data_dir / f"{name}_cases.csv"
            mobility_path = data_dir / f"{name}_mobility.csv"
            if not cases_path.exists():
                pytest.skip(f"{cases_path} missing")
            cases = load_cases(cases_path)
            assert cases.n_regions == expected_regions, name
            load_mobility(mobility_path, dates=cases.dates)

        england = data_dir / "England_cases.csv"
        raw = {
            "data.cases": str(england),
            "data.mobility": str(data_dir / "England_mobility.csv"),
            "dataset.name": "England",
            "w": "3",
            "horizon": "3",
            "split.test": "3",
            "split.val": "3",
            "scale": "true",
            "backbone.width": "16",
            "backbone.heads": "2",
            "backbone.depth": "1",
            "train.max_epochs": "3",
            "seed": "0",
        }
        cfg = resolve_config(raw, out_override=str(tmp_path / "real"))
        cmd_train(cfg)
        out = cmd_evaluate(cfg)
        doc = json.loads((out / "metrics.json").read_text())
        for row in doc["rows"]:
            assert np.isfinite(float(row["region_avg_rmse"]))
        model_rows = [r for r in doc["rows"] if r["model"] == "model"]
        assert model_rows and model_rows[0]["ref_rmse"] == 5.41
