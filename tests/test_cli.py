"""Config parsing, command plumbing, exit codes, determinism of artifacts."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import epicast.cli as cli_mod
import epicast.data as data_mod
import epicast.forecaster as forecaster_mod
import epicast.trainer as trainer_mod
from epicast.cli import (
    ConfigError,
    cmd_ablate,
    cmd_evaluate,
    cmd_forecast,
    cmd_report,
    cmd_synth,
    cmd_train,
    main,
    parse_config_file,
    resolve_config,
)
from epicast.backbone import BackboneConfig, build_backbone, parameter_count
from epicast.model import ModelConfig, _branch_parameter_count, load_checkpoint, save_checkpoint
from epicast.serialize import load_tensors, save_tensors

ROOT = Path(__file__).resolve().parent.parent
FAST = {
    "synth.regions": "4",
    "synth.days": "24",
    "w": "3",
    "horizon": "3",
    "split.test": "3",
    "split.val": "3",
    "scale": "true",
    "backbone.width": "8",
    "backbone.heads": "2",
    "backbone.depth": "1",
    "train.max_epochs": "5",
    "train.patience": "10",
    "seed": "7",
}


def _cfg(out, extra=None):
    raw = dict(FAST)
    if extra:
        raw.update(extra)
    return resolve_config(raw, out_override=str(out))


# -- config handling -------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    text = """
    # a comment
    w = 3
    horizon = 6   # trailing comment
    seed = 11
    """
    path = tmp_path / "run.cfg"
    path.write_text(text)
    raw = parse_config_file(path)
    assert raw == {"w": "3", "horizon": "6", "seed": "11"}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"window": "3"})


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"w": "three"})
    with pytest.raises(ConfigError):
        resolve_config({"scale": "maybe"})


def test_horizon_divisibility():
    cfg = resolve_config({"w": "3", "horizon": "6"})
    assert cfg.steps == 2
    with pytest.raises(ConfigError):
        resolve_config({"w": "3", "horizon": "5"})


def test_seed_and_out_overrides(tmp_path):
    cfg = resolve_config({"seed": "1"}, seed_override=9, out_override=str(tmp_path))
    assert cfg["seed"] == 9
    assert cfg["out"] == str(tmp_path)
    assert cfg["backbone.seed"] == 9


def test_paired_data_keys_required(tmp_path):
    (tmp_path / "c.csv").write_text("date,region_id,new_cases\n")
    with pytest.raises(ConfigError):
        resolve_config({"data.cases": str(tmp_path / "c.csv")})


def test_missing_data_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config({"data.cases": "/nope/c.csv", "data.mobility": "/nope/m.csv"})


# -- commands ------------------------------------------------------------------------------


def test_synth_writes_dataset(tmp_path):
    out = cmd_synth(_cfg(tmp_path / "s"))
    assert (out / "cases.csv").exists()
    assert (out / "mobility.csv").exists()
    assert (out / "config_synth.json").exists()
    with open(out / "cases.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 24


def test_train_then_forecast_and_config_echo(tmp_path):
    out = cmd_train(_cfg(tmp_path / "run"))
    assert (out / "checkpoint.bin").exists()
    assert (out / "checkpoint.bin.json").exists()
    report = json.loads((out / "train_report.json").read_text())
    assert set(report) == {
        "train_losses",
        "val_losses",
        "stopped_epoch",
        "best_epoch",
        "best_val",
        "prompts",
        "trainable_params",
        "total_params",
        "trainable_ratio",
    }
    assert report["stopped_epoch"] >= 1
    assert 0 < report["trainable_ratio"] < 1
    assert report["prompts"]["gamma"]
    prompts = json.loads((out / "prompts.json").read_text())
    assert set(prompts) == {"forward_edge", "backward_edge", "gamma", "gate"}
    assert len(prompts["gate"]) == 3

    out2 = cmd_forecast(_cfg(tmp_path / "run"))
    assert (out2 / "forecast.csv").exists()
    assert (out2 / "forecast_mobility.json").exists()
    echo = json.loads((out2 / "config_forecast.json").read_text())
    assert echo["command"] == "forecast"
    assert echo["config"]["w"] == 3


def test_train_forecast_bitwise_determinism(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = cmd_train(_cfg(tmp_path / tag))
        cmd_forecast(_cfg(tmp_path / tag))
        paths.append(out)
    a, b = paths
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "forecast.csv").read_bytes() == (b / "forecast.csv").read_bytes()


def test_evaluate_reports_model_and_baselines(tmp_path):
    cmd_train(_cfg(tmp_path / "run"))
    out = cmd_evaluate(_cfg(tmp_path / "run"))
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    models = {r["model"] for r in rows}
    assert models == {"model", "AVG", "AVG_WINDOW", "LAST_DAY", "LIN_REG"}
    assert all(float(r["region_avg_rmse"]) >= 0 for r in rows)


def test_ablate_subset(tmp_path):
    cfg = _cfg(tmp_path / "run", extra={"ablate.variants": "full,wo_LLM", "train.max_epochs": "2"})
    out = cmd_ablate(cfg)
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["model"] for r in rows} == {"full", "wo_LLM"}


def test_report_merges_metric_files(tmp_path):
    cmd_train(_cfg(tmp_path / "run"))
    cmd_evaluate(_cfg(tmp_path / "run"))
    cfg = _cfg(tmp_path / "combined", extra={"report.inputs": str(tmp_path / "run" / "metrics.json")})
    out = cmd_report(cfg)
    assert (out / "metrics.csv").exists()


def test_commands_do_not_touch_input_files(tmp_path):
    synth_out = cmd_synth(_cfg(tmp_path / "data"))
    cases, mob = synth_out / "cases.csv", synth_out / "mobility.csv"
    before = (cases.read_bytes(), mob.read_bytes())
    cfg = _cfg(
        tmp_path / "run",
        extra={"data.cases": str(cases), "data.mobility": str(mob), "train.max_epochs": "2"},
    )
    cmd_train(cfg)
    assert (cases.read_bytes(), mob.read_bytes()) == before


# -- exit codes ------------------------------------------------------------------------------


def test_exit_zero_on_success(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in FAST.items()) + "\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0


def test_exit_two_on_config_error(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("w = 3\nhorizon = 5\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2


def test_exit_two_on_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("wth = 3\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "line",
    [
        "train.patience = 0",
        "train.lr = -1",
        "train.lr = inf",
        "model.mob_hidden = -2",
        "train.lambda = nan",
        "train.lambda = inf",
        "epsilon = nan",
        "epsilon = inf",
        "backbone.seed = -5",
        "backbone.max_positions = -1",
        "split.test = 0",
        "split.val = 0",
    ],
)
def test_exit_two_on_out_of_range_config_value(tmp_path, capsys, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in FAST.items()) + f"\n{line}\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "seed", "-1"),
        ("train", "epsilon", "nan"),
        ("forecast", "epsilon", "nan"),
        ("evaluate", "epsilon", "nan"),
        ("forecast", "split.test", "0"),
    ],
)
def test_exit_two_on_out_of_range_config_value_with_csv_data(tmp_path, capsys, command, key, value):
    synth_out = cmd_synth(_cfg(tmp_path / "data"))
    data = {"data.cases": str(synth_out / "cases.csv"), "data.mobility": str(synth_out / "mobility.csv")}
    out = tmp_path / "out"
    if command != "train":  # serving commands need a trained checkpoint
        assert main(["train", "--config", str(_write_cfg(tmp_path / "ok.cfg", data)), "--out", str(out)]) == 0
    bad = _write_cfg(tmp_path / "bad.cfg", {**data, key: value})
    capsys.readouterr()
    assert main([command, "--config", str(bad), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize(
    "line, message",
    [
        ("synth.regions = 0", "at least one region and one day"),
        ("synth.days = 0", "at least one region and one day"),
        ("synth.population = 0", "population must be positive"),
        ("synth.beta = -1", "beta must be >= 0"),
        ("synth.gamma_rec = 1.5", "gamma_rec must lie in (0, 1)"),
        ("synth.seed_region = 9", "seed_region 9 outside 0..3"),
    ],
)
def test_exit_two_on_out_of_range_synth_value(tmp_path, capsys, command, line, message):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"synth.regions = 4\nsynth.days = 40\n{line}\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: synth:" in err and message in err, err


def test_exit_five_on_negative_prompt_degree(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in FAST.items()) + "\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    model = load_checkpoint(out / "checkpoint.bin")
    model.prompts.w_backward.data = np.array(-3.0)
    save_checkpoint(model, out / "checkpoint.bin")
    assert main(["forecast", "--config", str(cfg_file), "--out", str(out)]) == 5


@pytest.mark.parametrize("value", [1e300, 1e154])
def test_exit_five_on_a_numeric_overflow(tmp_path, capsys, value):
    """Epidemic tokens near 1e301 (or 1e155) overflow when LayerNorm squares
    them: a named divergence at the step, not a warning and a finite forecast."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text((ROOT / "configs" / "synthetic.cfg").read_text() + "train.max_epochs = 3\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    named, meta = load_tensors(out / "checkpoint.bin")
    named["epi_proj.l1.W"][...] = value
    save_tensors(named, out / "checkpoint.bin", meta=meta)
    capsys.readouterr()
    assert main(["forecast", "--config", str(cfg_file), "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert "diverged: non-finite value (numpy: overflow encountered" in err and "at forecast step 1" in err, err
    assert not (out / "forecast.csv").exists()


def test_exit_three_on_bad_data(tmp_path):
    cases = tmp_path / "c.csv"
    cases.write_text("date,region_id,new_cases\n2020-03-10,a,1\n2020-03-10,a,2\n")
    mob = tmp_path / "m.csv"
    mob.write_text("date,src_region,dst_region,weight\n")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"data.cases = {cases}\ndata.mobility = {mob}\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 3


def test_exit_four_on_missing_checkpoint(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in FAST.items()) + "\n")
    assert main(["forecast", "--config", str(cfg_file), "--out", str(tmp_path / "fresh")]) == 4


def test_exit_two_on_history_longer_than_max_positions(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    extra = {"synth.days": "80", "w": "1"}
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in {**FAST, **extra}.items()) + "\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "74 patches" in err and "backbone.max_positions=64" in err and "larger w" in err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


@pytest.mark.parametrize(
    "line, sizes",
    [
        ("model.mob_hidden = 100000000000", "mob_hidden=100000000000"),
        ("backbone.max_positions = 100000000000", "max_positions=100000000000"),
        ("model.mob_hidden = 1000000000000000000", "mob_hidden=1000000000000000000"),  # past 2**63 bytes
        ("backbone.max_positions = 1000000000000000000", "max_positions=1000000000000000000"),
        # layers allocate one by one; width 512 makes it 25 TB, past any machine's memory
        ("backbone.depth = 1000000\nbackbone.width = 512", "backbone.depth=1000000"),
        # the region count comes from the dataset, not from a model key
        ("backbone.width = 100000000000", "backbone.width=100000000000"),
    ],
)
def test_exit_two_on_parameters_too_large_to_allocate(tmp_path, capsys, monkeypatch, line, sizes):
    """The error names only keys a config sets, and the dataset's region count."""
    monkeypatch.setattr("epicast.model.build_backbone", _no_backbone)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in FAST.items()) + f"\n{line}\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: model parameters do not fit in memory" in err and sizes in err, err
    assert "the dataset's region count (4)" in err and "ffn_mult" not in err, err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


def _no_backbone(*args, **kwargs):
    raise AssertionError("backbone parameters allocated before the size check")


def test_exit_two_when_gradients_and_adam_moments_do_not_fit(tmp_path, capsys, monkeypatch):
    """Training holds a gradient and Adam's two moments for every trainable
    parameter: a trainable backbone whose parameters alone fit in memory, but
    not four times over, exits 2 naming the size keys.  The depth is worked
    out from the parameter count; nothing that size is allocated."""
    monkeypatch.setattr("epicast.model.build_backbone", _no_backbone)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    model_cfg = ModelConfig(n_regions=4, w=3, width=8)

    def nbytes(depth):
        backbone_cfg = BackboneConfig("trainable-transformer", depth=depth, width=8, heads=2)
        return 8 * (_branch_parameter_count(model_cfg) + parameter_count(backbone_cfg))

    depth = memory // 2 // (nbytes(1) - nbytes(0))
    assert nbytes(depth) < memory <= 4 * nbytes(depth)  # under a bound on the parameters alone
    cfg_file = tmp_path / "big.cfg"
    extra = {"backbone.mode": "trainable-transformer", "backbone.depth": str(depth)}
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in {**FAST, **extra}.items()) + "\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: model parameters do not fit in memory" in err and f"backbone.depth={depth}" in err, err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


# Sizes whose arrays are larger than the 128 TiB user address space, so the
# allocation fails at once on any machine, whatever its overcommit setting.
@pytest.mark.parametrize(
    "command, extra, named",
    [
        ("synth", {"synth.days": str(10**13)}, "synth.days = 10000000000000"),
        ("train", {"synth.regions": str(10**7)}, "synth.regions = 10000000"),
        ("forecast", {"horizon": str(3 * 10**13)}, "horizon of 30000000000000 days"),
        ("forecast", {"horizon": str(3 * 10**18)}, "horizon of 3000000000000000000 days"),  # past 2**63 bytes
        ("train", {"w": str(10**13), "horizon": str(10**13)}, "w=10000000000000"),
        ("synth", {"synth.days": str(10**17)}, "synth.regions = 4 and synth.days = 100000000000000000"),  # past 2**63 bytes
        ("train", {"synth.regions": str(10**20)}, "synth.regions = 100000000000000000000 and synth.days = 24"),
    ],
)
def test_exit_two_on_sizes_too_large_to_allocate(tmp_path, capsys, command, extra, named):
    out = tmp_path / "out"
    if command == "forecast":  # serving needs a trained checkpoint
        assert main(["train", "--config", str(_write_cfg(tmp_path / "ok.cfg")), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(_write_cfg(tmp_path / "bad.cfg", extra)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and named in err, err


@pytest.mark.parametrize(
    "command, module, name, named",
    [
        ("train", trainer_mod, "training_loss", "epoch 1 does not fit in memory"),
        ("forecast", forecaster_mod, "backbone_forward", "forecast step 1 of 1 does not fit in memory"),
    ],
)
def test_exit_two_when_an_epoch_or_a_forecast_step_does_not_fit(tmp_path, capsys, monkeypatch, command, module, name, named):
    out = tmp_path / "out"
    if command == "forecast":  # serving needs a trained checkpoint
        assert main(["train", "--config", str(_write_cfg(tmp_path / "ok.cfg")), "--out", str(out)]) == 0

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 PiB")

    monkeypatch.setattr(module, name, too_large)
    capsys.readouterr()
    assert main([command, "--config", str(_write_cfg(tmp_path / "run.cfg")), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: {named} (Unable to allocate 1.00 PiB); lower the size keys: w=3, backbone.width=8, "
        "backbone.depth=1, backbone.heads=2, model.mob_hidden=0, or the dataset's size (4 regions, "
    ), err


@pytest.mark.parametrize("synthetic", [True, False])
def test_dataset_too_large_to_build_is_a_config_error_only_for_synthetic_data(
    tmp_path, capsys, monkeypatch, synthetic
):
    extra = {}
    if not synthetic:
        data = cmd_synth(_cfg(tmp_path / "data"))
        extra = {"data.cases": str(data / "cases.csv"), "data.mobility": str(data / "mobility.csv")}

    cfg_file = _write_cfg(tmp_path / "run.cfg", extra)
    # a bare MemoryError says nothing, so the message says what ran out
    for error, why in ((MemoryError("Unable to allocate 1.00 PiB"), "Unable to allocate 1.00 PiB"),
                       (MemoryError(), "out of memory building the synthetic dataset" if synthetic else
                        "out of memory building the dataset")):  # fmt: skip

        def too_large(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_mod, "build_dataset", too_large)
        code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if synthetic:
            assert code == 2 and "config error: synth.regions = 4 and synth.days = 24" in err, err
        else:  # a data file too large to hold is a data error naming the files
            named = f"data error: {extra['data.cases']} with {extra['data.mobility']} is too large to hold"
            assert code == 3 and err.startswith(named), err
        assert f"({why})" in err, err


@pytest.mark.parametrize("loader, name", [("load_cases", "cases.csv"), ("load_mobility", "mobility.csv")])
def test_a_data_file_too_large_to_hold_is_a_data_error_naming_it(tmp_path, capsys, monkeypatch, loader, name):
    data = cmd_synth(_cfg(tmp_path / "data"))
    extra = {"data.cases": str(data / "cases.csv"), "data.mobility": str(data / "mobility.csv")}

    cfg_file = _write_cfg(tmp_path / "run.cfg", extra)
    # a bare MemoryError says nothing, so the message says what ran out
    for error, why in ((MemoryError("Unable to allocate 1.00 PiB"), "Unable to allocate 1.00 PiB"),
                       (MemoryError(), "out of memory parsing the file")):  # fmt: skip

        def too_large(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_mod, loader, too_large)
        code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith(f"data error: {data / name} is too large to hold ({why})"), err


def test_a_value_error_outside_the_config_checks_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr(cli_mod, "build_dataset", broken)
    code = main(["train", "--config", str(_write_cfg(tmp_path / "run.cfg")), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and "config error" not in err and "a bug" in err, err


@pytest.mark.parametrize("command", ["synth", "train"])
def test_a_huge_synth_beta_exits_zero(tmp_path, command):
    cfg_file = _write_cfg(tmp_path / "run.cfg", {"synth.beta": "1e300", "train.max_epochs": "1"})
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("synthetic", [True, False])
def test_windows_too_large_to_allocate_name_w(tmp_path, capsys, monkeypatch, synthetic):
    extra = {}
    if not synthetic:
        data = cmd_synth(_cfg(tmp_path / "data"))
        extra = {"data.cases": str(data / "cases.csv"), "data.mobility": str(data / "mobility.csv")}

    def too_large(counts, w):
        raise MemoryError("Unable to allocate 1.00 PiB")

    monkeypatch.setattr(data_mod, "window_features", too_large)
    code = main(["train", "--config", str(_write_cfg(tmp_path / "run.cfg", extra)), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and "config error: window length w=3 over 24 days" in err, err


def test_exit_two_on_training_range_shorter_than_two_patches(tmp_path, capsys):
    cfg_file = _write_cfg(tmp_path / "run.cfg", {"synth.days": "20", "w": "7", "horizon": "7",
                                                 "split.val": "7", "split.test": "7"})
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: training range of 6 days yields 0 patches" in err, err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda text: text[: len(text) // 2], "broken sidecar: JSONDecodeError"),
        (lambda text: "[]", "broken sidecar: AttributeError"),
        (lambda text: text.replace('"total_bytes"', '"total_byte"'), "broken sidecar: KeyError('total_bytes')"),
        (lambda text: text.replace('"mob_hidden"', '"mob_hiden"'), "unexpected keyword argument 'mob_hiden'"),
        (lambda text: text.replace('"w": 3', '"w": 0'), "must all be positive"),
        (
            lambda text: text.replace('"mob_hidden": 0', '"mob_hidden": 100000000000'),
            "do not fit in memory",
        ),
        (  # width 512 makes it 25 TB, past any machine's memory
            lambda text: text.replace('"depth": 1', '"depth": 1000000').replace('"width": 8', '"width": 512'),
            "backbone.depth=1000000",
        ),
        (  # older checkpoints stored the forecast's adjacency source; serving it as "predicted" could move the forecast
            lambda text: text.replace('"gating_mode": "gated"', '"adjacency_mode": "last", "gating_mode": "gated"'),
            "unexpected keyword argument 'adjacency_mode'",
        ),
        (  # checkpoints written before served records have none
            lambda text: text.replace('"served": {', '"unserved": {'),
            "meta.served is missing or not an object",
        ),
        (  # a served record is an object, or null for an untrained model
            lambda text: text.replace('"served": {', '"served": 4, "unserved": {'),
            "meta.served is missing or not an object",
        ),
    ],
    ids=[
        "truncated-json", "json-list", "no-total-bytes", "unknown-config-key", "w-zero", "mob-hidden-huge",
        "depth-huge", "retired-adjacency-mode", "no-served-record", "served-not-a-record",
    ],
)
def test_exit_four_on_broken_checkpoint_sidecar(tmp_path, capsys, monkeypatch, corrupt, message):
    cfg_file = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    monkeypatch.setattr("epicast.model.build_backbone", _no_backbone)
    side = out / "checkpoint.bin.json"
    text = side.read_text()
    broken = corrupt(text)
    assert broken != text
    side.write_text(broken)
    capsys.readouterr()
    assert main(["forecast", "--config", str(cfg_file), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err and "checkpoint.bin" in err and message in err, err
    assert not (out / "forecast.csv").exists()


def _write_cfg(path, extra=None):
    path.write_text("\n".join(f"{k} = {v}" for k, v in {**FAST, **(extra or {})}.items()) + "\n")
    return path


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
@pytest.mark.parametrize(
    "served, named",
    [
        ({"w": "1"}, ["w=3", "w=1"]),
        ({"synth.regions": "5"}, ["regions=['R000', 'R001', 'R002', 'R003']", "regions=['R000', 'R001', 'R002', 'R003', 'R004']"]),
        ({"epsilon": "1000000"}, ["epsilon=0.0", "epsilon=1000000.0"]),
        ({"scale": "false"}, ["trained with case_scale=[", "serves case_scale=[1.0, 1.0, 1.0, 1.0]"]),
    ],
)
def test_exit_four_on_checkpoint_served_in_another_model_space(tmp_path, capsys, command, served, named):
    out = tmp_path / "out"
    assert main(["train", "--config", str(_write_cfg(tmp_path / "train.cfg")), "--out", str(out)]) == 0
    capsys.readouterr()
    serve_cfg = _write_cfg(tmp_path / "serve.cfg", served)
    assert main([command, "--config", str(serve_cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err and all(part in err for part in named), err
    assert not (out / "forecast.csv").exists() and not (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_exit_four_on_a_checkpoint_served_on_renamed_regions(tmp_path, capsys, command):
    # same region count, window, threshold and scaling; only the id R003 is X003
    data = cmd_synth(_cfg(tmp_path / "data"))
    paths = {"data.cases": str(data / "cases.csv"), "data.mobility": str(data / "mobility.csv")}
    out = tmp_path / "out"
    assert main(["train", "--config", str(_write_cfg(tmp_path / "train.cfg", paths)), "--out", str(out)]) == 0
    for name in ("cases.csv", "mobility.csv"):
        (data / name).write_text((data / name).read_text().replace("R003", "X003"))
    capsys.readouterr()
    assert main([command, "--config", str(_write_cfg(tmp_path / "serve.cfg", paths)), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err and "'R003']" in err and "'X003']" in err, err
    assert not (out / "forecast.csv").exists() and not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "context_end, message", [(500, "beyond dataset length 24"), (1, "at least one full patch")]
)
def test_exit_two_on_out_of_range_context_end(tmp_path, capsys, context_end, message):
    out = tmp_path / "out"
    assert main(["train", "--config", str(_write_cfg(tmp_path / "train.cfg")), "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = _write_cfg(tmp_path / "serve.cfg", {"forecast.context_end": str(context_end)})
    assert main(["forecast", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err, err


def _drop_first_tensor(named):
    del named[next(iter(named))]


def _reshape_first_tensor(named):
    name = next(iter(named))
    named[name] = named[name].reshape(-1)[:-1]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_first_tensor, "checkpoint missing tensor"),
        (_reshape_first_tensor, "expected ("),
        (None, "sidecar expects"),
    ],
    ids=["missing-tensor", "wrong-shape", "blob-size"],
)
def test_exit_four_on_checkpoint_tensors_that_disagree_with_the_model(tmp_path, capsys, corrupt, message):
    cfg_file = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    ckpt = out / "checkpoint.bin"
    if corrupt is None:  # one float short of what the sidecar indexes
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
    else:
        named, meta = load_tensors(ckpt)
        corrupt(named)
        save_tensors(named, ckpt, meta=meta)
    capsys.readouterr()
    assert main(["forecast", "--config", str(cfg_file), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err and message in err, err
    assert not (out / "forecast.csv").exists()


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
@pytest.mark.parametrize(
    "name, value", [("epi_adapter.W", np.nan), ("backbone.layer0.attn.q.W", np.inf)], ids=["nan-adapter", "inf-backbone"]
)
def test_exit_four_on_non_finite_checkpoint_tensor(tmp_path, capsys, command, name, value):
    cfg_file = _write_cfg(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    ckpt = out / "checkpoint.bin"
    named, meta = load_tensors(ckpt)
    named[name].flat[0] = value
    save_tensors(named, ckpt, meta=meta)
    capsys.readouterr()
    assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err and "checkpoint.bin" in err and f"tensor {name!r}" in err, err
    assert "non-finite" in err and not (out / "forecast.csv").exists() and not (out / "metrics.csv").exists()


def test_exit_four_on_non_finite_backbone_weight_file(tmp_path, capsys):
    weights = tmp_path / "backbone.bin"
    build_backbone(BackboneConfig(depth=1, width=8, heads=2, seed=123)).export_weights(weights)
    named, meta = load_tensors(weights)
    named["layer0.ffn.1.W"].flat[3] = np.nan
    save_tensors(named, weights, meta=meta)
    out = tmp_path / "out"
    cfg_file = _write_cfg(tmp_path / "run.cfg", {"backbone.weights": str(weights)})
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err and "backbone.bin" in err and "tensor 'layer0.ffn.1.W'" in err, err
    assert not (out / "checkpoint.bin").exists()


def test_exit_two_on_unknown_ablation_variant(tmp_path, capsys):
    cfg_file = _write_cfg(tmp_path / "run.cfg", {"ablate.variants": "full,Bogus"})
    assert main(["ablate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown ablation variants ['Bogus']" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variants", ["", ",", " , ,"])
def test_exit_two_on_empty_ablation_variants(tmp_path, capsys, variants):
    cfg_file = _write_cfg(tmp_path / "run.cfg", {"ablate.variants": variants})
    assert main(["ablate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: ablate.variants names no variant" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_exit_two_on_horizon_longer_than_test_range(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    assert main(["train", "--config", str(_write_cfg(tmp_path / "train.cfg")), "--out", str(out)]) == 0
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the horizon was checked")

    monkeypatch.setattr("epicast.evalharness.train", no_training)
    cfg = _write_cfg(tmp_path / "score.cfg", {"horizon": "6"})
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: horizon 6 does not fit in the test range of 3 days" in err, err
    assert not (out / "metrics.csv").exists()


def test_ablate_full_loads_backbone_weights_like_train(tmp_path):
    weights = tmp_path / "backbone.bin"
    build_backbone(BackboneConfig(depth=1, width=8, heads=2, seed=123)).export_weights(weights)
    run = tmp_path / "run"
    cfg = _write_cfg(tmp_path / "run.cfg", {"backbone.weights": str(weights), "ablate.variants": "full,LLM2Trans"})
    seeded = _write_cfg(tmp_path / "seeded.cfg", {"ablate.variants": "LLM2Trans"})
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ablate")]) == 0
    assert main(["ablate", "--config", str(seeded), "--out", str(tmp_path / "seeded")]) == 0

    def rows(out):
        return {r["model"]: r["per_region_rmse"] for r in json.loads((out / "metrics.json").read_text())["reports"]}

    ablated = rows(tmp_path / "ablate")
    assert ablated["full"] == rows(run)["model"]
    # a variant that swaps the backbone builds it from the seed, weights or not
    assert ablated["LLM2Trans"] == rows(tmp_path / "seeded")["LLM2Trans"]


@pytest.mark.parametrize(
    "content, message",
    [
        ("{not json", "Expecting property name"),
        ('{"reports": [{"dataset": "x", "horizon": 3, "bogus": 1}]}', "unexpected keyword argument 'bogus'"),
        ("[]", "'list' object has no attribute 'get'"),
        (None, "Is a directory"),
    ],
    ids=["not-json", "unknown-key", "json-list", "directory"],
)
def test_exit_two_on_report_input_that_is_not_a_metrics_file(tmp_path, capsys, content, message):
    bad = tmp_path / "metrics.json"
    if content is None:
        bad.mkdir()
    else:
        bad.write_text(content)
    cfg = _write_cfg(tmp_path / "report.cfg", {"report.inputs": str(bad)})
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: report input" in err and message in err, err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_exit_two_on_report_without_inputs(tmp_path, capsys):
    assert main(["report", "--config", str(_write_cfg(tmp_path / "report.cfg")), "--out", str(tmp_path / "out")]) == 2
    assert "config error: report.inputs must list metrics.json files" in capsys.readouterr().err


def test_unset_out_writes_a_stamped_run_directory_under_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--config", str(_write_cfg(tmp_path / "run.cfg"))]) == 0
    (run,) = (tmp_path / "runs").iterdir()
    assert re.fullmatch(r"\d{8}-\d{6}-seed7", run.name), run.name
    assert json.loads((run / "config_synth.json").read_text())["command"] == "synth"
    assert (run / "cases.csv").is_file()


@pytest.mark.parametrize("command", ["train", "synth", "ablate"])
def test_negative_seed_with_synthetic_data_names_the_seed(tmp_path, capsys, command):
    cfg_file = _write_cfg(tmp_path / "bad.cfg", {"seed": "-1"})
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert "config error: synth: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv")) and not (tmp_path / "out" / "checkpoint.bin").exists()
