"""Config parsing, command plumbing, exit codes, determinism of artifacts."""

import csv
import json

import numpy as np
import pytest

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
from epicast.model import load_checkpoint, save_checkpoint

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


@pytest.mark.parametrize("line", ["train.patience = 0", "train.lr = -1", "model.mob_hidden = -2"])
def test_exit_two_on_out_of_range_config_value(tmp_path, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in FAST.items()) + f"\n{line}\n")
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


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


def _write_cfg(path, extra=None):
    path.write_text("\n".join(f"{k} = {v}" for k, v in {**FAST, **(extra or {})}.items()) + "\n")
    return path


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
@pytest.mark.parametrize(
    "served, named",
    [({"w": "1"}, ["w=3", "w=1"]), ({"synth.regions": "5"}, ["4 regions", "has 5"])],
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
