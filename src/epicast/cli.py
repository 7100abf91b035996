"""Config-driven command line: synth, train, forecast, evaluate, ablate, report.

A run is described by one flat key=value text file (see CONFIG_SCHEMA for the
full key list); every command writes the fully resolved config into its
output directory so a run can be reproduced from its artifacts alone.  All
commands are deterministic given the same config and seed at a fixed BLAS
thread count: OpenBLAS splits long GEMM reductions by thread, so a different
``OPENBLAS_NUM_THREADS`` can move the last bits (ROADMAP item 4).

Exit codes:

- 0: success.
- 1: anything else.
- 2: config error, ``ConfigError`` and its subclasses, a missing data file among them.
- 3: data error, a ``DataError``: a data file that is a directory, unreadable,
  not UTF-8, malformed or too large to hold.
- 4: checkpoint error, a ``CheckpointError``: among them a checkpoint served on a
  dataset whose served record (region ids in order, ``w``, ``epsilon``, scales)
  differs from the one ``train`` stored, and a checkpoint with no served record.
- 5: diverged, a non-finite loss or prediction, a numeric overflow or a prompt graph
  without a positive degree.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import BackboneConfig
from .data import (
    CaseTable,
    ConfigError,
    DataError,
    EpidemicDataset,
    MobilityTable,
    SirParams,
    SplitSpec,
    build_dataset,
    load_cases,
    load_mobility,
    read_file,
    split_dataset,
    synth_sir_tables,
    write_cases_csv,
    write_mobility_csv,
)
from .evalharness import (
    ABLATION_VARIANTS,
    BASELINES,
    MetricReport,
    baseline_predict,
    emit_report,
    horizon_truth,
    metric_report,
    run_ablation,
)
from .forecaster import ForecastDivergedError, forecast
from .model import (
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .prompts import PromptGraphError
from .serialize import CheckpointError
from .trainer import TrainConfig, TrainingDivergedError, train


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# key -> (parser, default); None default means "unset".  A key that feeds a
# config dataclass field takes that field's default.
CONFIG_SCHEMA: dict = {
    "dataset.name": (str, "synthetic"),
    "data.cases": (str, None),
    "data.mobility": (str, None),
    "synth.regions": (int, 10),
    "synth.days": (int, 60),
    "synth.beta": (float, SirParams.beta),
    "synth.gamma_rec": (float, SirParams.gamma_rec),
    "synth.seed_region": (int, SirParams.seed_region),
    "synth.population": (int, SirParams.population),
    "w": (int, ModelConfig.w),
    "horizon": (int, 3),
    "epsilon": (float, 0.0),
    "scale": (_parse_bool, False),
    "split.test": (int, 3),
    "split.val": (int, 3),
    "backbone.mode": (str, BackboneConfig.mode),
    "backbone.depth": (int, BackboneConfig.depth),
    "backbone.width": (int, BackboneConfig.width),
    "backbone.heads": (int, BackboneConfig.heads),
    "backbone.max_positions": (int, BackboneConfig.max_positions),
    "backbone.seed": (int, None),
    "backbone.weights": (str, None),
    "model.mob_hidden": (int, ModelConfig.mob_hidden),
    "train.lambda": (float, TrainConfig.mob_weight),
    "train.lr": (float, TrainConfig.lr),
    "train.max_epochs": (int, TrainConfig.max_epochs),
    "train.patience": (int, TrainConfig.patience),
    "train.loss_form": (str, TrainConfig.loss_form),
    "seed": (int, ModelConfig.seed),
    "checkpoint": (str, None),
    "forecast.context_end": (int, None),
    "ablate.variants": (str, ",".join(ABLATION_VARIANTS)),
    "report.inputs": (str, None),
    "out": (str, None),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def steps(self) -> int:
        return self.values["horizon"] // self.values["w"]

    @property
    def split(self) -> SplitSpec:
        return SplitSpec(test_len=self.values["split.test"], val_len=self.values["split.val"])

    @property
    def variants(self) -> list[str]:
        return [v.strip() for v in self.values["ablate.variants"].split(",") if v.strip()]

    def resolved(self) -> dict:
        return dict(sorted(self.values.items(), key=lambda kv: kv[0]))


def parse_config_file(path) -> dict:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(read_file(path, ConfigError, "config file").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def resolve_config(raw: dict, seed_override=None, out_override=None) -> RunConfig:
    unknown = set(raw) - set(CONFIG_SCHEMA)
    if unknown:
        raise ConfigError(f"invalid config keys: {sorted(unknown)}")
    values: dict = {}
    for key, (parse, default) in CONFIG_SCHEMA.items():
        if key in raw:
            try:
                values[key] = parse(raw[key])
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r}") from exc
        else:
            values[key] = default
    if seed_override is not None:
        values["seed"] = int(seed_override)
    if out_override is not None:
        values["out"] = str(out_override)
    if values["backbone.seed"] is None:
        values["backbone.seed"] = values["seed"]

    w, horizon = values["w"], values["horizon"]
    if w < 1 or horizon < 1:
        raise ConfigError(f"w and horizon must be positive, got w={w} horizon={horizon}")
    if horizon % w != 0:
        raise ConfigError(f"horizon {horizon} must be a multiple of the token window w={w}")
    if (values["data.cases"] is None) != (values["data.mobility"] is None):
        raise ConfigError("data.cases and data.mobility must be given together")
    for key in ("data.cases", "data.mobility", "backbone.weights"):  # before any output is written
        if values[key] is not None and not (values[key] and Path(values[key]).exists()):  # Path("") is "."
            raise ConfigError(f"{key} points at a missing file: {values[key]!r}")
    cfg = RunConfig(values=values)
    if not cfg.variants:
        raise ConfigError(f"ablate.variants names no variant; choose from {sorted(ABLATION_VARIANTS)}")
    unknown = [v for v in cfg.variants if v not in ABLATION_VARIANTS]
    if unknown:
        raise ConfigError(f"unknown ablation variants {unknown}; choose from {sorted(ABLATION_VARIANTS)}")
    return cfg


def _start(cfg: RunConfig, command: str) -> Path:
    """Make the run's output directory and echo the resolved config into it as
    ``config_<command>.json``; returns the directory."""
    out = cfg["out"]
    if out is None:
        stamp = dt.datetime.now().strftime("%Y%m%d-%H%M%S")
        out = f"runs/{stamp}-seed{cfg['seed']}"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file, a path under a file, no permission, a NUL byte
        raise ConfigError(f"out {out!r} cannot be made a directory: {exc}") from exc
    with open(path / f"config_{command}.json", "w") as fh:
        json.dump({"command": command, "config": cfg.resolved()}, fh, indent=1, sort_keys=True)
    return path


def _synth_size_error(cfg: RunConfig, exc: MemoryError) -> ConfigError:
    """A synthetic series too large to allocate, as a config error naming its size keys."""
    return ConfigError(
        f"synth.regions = {cfg['synth.regions']} and synth.days = {cfg['synth.days']} "
        f"do not fit in memory ({str(exc) or 'out of memory building the synthetic dataset'})"
    )


def _synth_tables(cfg: RunConfig) -> tuple[CaseTable, MobilityTable]:
    """The synthetic SIR tables the `synth.*` keys describe; a series too
    large to allocate is a config error."""
    try:
        params = SirParams(
            beta=cfg["synth.beta"],
            gamma_rec=cfg["synth.gamma_rec"],
            seed_region=cfg["synth.seed_region"],
            population=cfg["synth.population"],
        )
        return synth_sir_tables(cfg["synth.regions"], cfg["synth.days"], params, rng_seed=cfg["seed"])
    except ConfigError as exc:
        raise ConfigError(f"synth: {exc}") from exc
    except MemoryError as exc:
        raise _synth_size_error(cfg, exc) from exc


def _held(loader, path: str, **kwargs):
    """``loader(path, **kwargs)``; a file too large to hold is a data error naming it."""
    try:
        return loader(path, **kwargs)
    except MemoryError as exc:
        # a bare MemoryError says nothing, so say what ran out
        raise DataError(f"{path} is too large to hold ({str(exc) or 'out of memory parsing the file'})") from exc


def _load_dataset(cfg: RunConfig) -> EpidemicDataset:
    synthetic = cfg["data.cases"] is None
    if synthetic:
        cases, mobility = _synth_tables(cfg)
    else:
        cases = _held(load_cases, cfg["data.cases"])
        mobility = _held(load_mobility, cfg["data.mobility"], dates=cases.dates)
    try:
        return build_dataset(cases, mobility, w=cfg["w"], epsilon=cfg["epsilon"], scale=cfg["scale"])
    except MemoryError as exc:
        if not synthetic:  # a data file too large to hold is not a config error
            why = str(exc) or "out of memory building the dataset"
            raise DataError(f"{cfg['data.cases']} with {cfg['data.mobility']} is too large to hold ({why})") from exc
        raise _synth_size_error(cfg, exc) from exc


def _configs(cfg: RunConfig, ds: EpidemicDataset) -> tuple[ModelConfig, BackboneConfig, TrainConfig]:
    model_cfg = ModelConfig(
        n_regions=ds.N,
        w=cfg["w"],
        width=cfg["backbone.width"],
        mob_hidden=cfg["model.mob_hidden"],
        seed=cfg["seed"],
    )
    backbone_cfg = BackboneConfig(
        mode=cfg["backbone.mode"],
        depth=cfg["backbone.depth"],
        width=cfg["backbone.width"],
        heads=cfg["backbone.heads"],
        seed=cfg["backbone.seed"],
        max_positions=cfg["backbone.max_positions"],
    )
    train_cfg = TrainConfig(
        mob_weight=cfg["train.lambda"],
        lr=cfg["train.lr"],
        max_epochs=cfg["train.max_epochs"],
        patience=cfg["train.patience"],
        loss_form=cfg["train.loss_form"],
    )
    return model_cfg, backbone_cfg, train_cfg


def _checkpoint_path(cfg: RunConfig, out: Path) -> Path:
    if cfg["checkpoint"] is not None:
        return Path(cfg["checkpoint"])
    return out / "checkpoint.bin"


# -- commands -------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig) -> Path:
    out = _start(cfg, "synth")
    cases, mobility = _synth_tables(cfg)
    write_cases_csv(cases, out / "cases.csv")
    write_mobility_csv(mobility, out / "mobility.csv")
    print(f"synth: wrote {out/'cases.csv'} and {out/'mobility.csv'} "
          f"({cases.n_regions} regions x {cases.n_days} days)")
    return out


def cmd_train(cfg: RunConfig) -> Path:
    out = _start(cfg, "train")
    ds = _load_dataset(cfg)
    splits = split_dataset(ds, cfg.split)
    model_cfg, backbone_cfg, train_cfg = _configs(cfg, ds)
    model = build_model(model_cfg, backbone_cfg, backbone_weights=cfg["backbone.weights"])
    model, report = train(model, ds, splits.train, splits.val, train_cfg)
    ckpt = _checkpoint_path(cfg, out)
    save_checkpoint(model, ckpt)
    with open(out / "train_report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
    with open(out / "prompts.json", "w") as fh:
        json.dump(report.prompt_summary, fh, indent=1, sort_keys=True)
    print(
        f"train: stopped at epoch {report.stopped_epoch} (best val {report.best_val:.6g} "
        f"at epoch {report.best_epoch}); trainable {report.trainable_params}/{report.total_params} "
        f"({100 * report.trainable_ratio:.2f}%); checkpoint -> {ckpt}"
    )
    return out


def cmd_forecast(cfg: RunConfig) -> Path:
    out = _start(cfg, "forecast")
    model = load_checkpoint(_checkpoint_path(cfg, out))
    ds = _load_dataset(cfg)
    context_end = cfg["forecast.context_end"]
    if context_end is None:
        context_end = ds.T - cfg.split.test_len
    result = forecast(model, ds, context_end, cfg.steps)
    result.write_csv(out / "forecast.csv")
    result.write_mobility_json(out / "forecast_mobility.json")
    print(
        f"forecast: {result.horizon} days ({result.steps} step(s)) from day {context_end} "
        f"-> {out/'forecast.csv'}"
    )
    return out


def cmd_evaluate(cfg: RunConfig) -> Path:
    out = _start(cfg, "evaluate")
    model = load_checkpoint(_checkpoint_path(cfg, out))
    ds = _load_dataset(cfg)
    horizon = cfg["horizon"]
    context_end = ds.T - cfg.split.test_len
    truth = horizon_truth(ds, context_end, horizon)
    name = cfg["dataset.name"]
    reports = []
    result = forecast(model, ds, context_end, cfg.steps)
    reports.append(metric_report(truth, result.cases, name, horizon, "model", cfg.resolved()))
    for kind in BASELINES:
        pred = baseline_predict(kind, ds, context_end, horizon)
        reports.append(metric_report(truth, pred, name, horizon, kind))
    csv_path, json_path = emit_report(reports, out)
    for rep in reports:
        print(
            f"evaluate [{rep.model:>10s}] rmse={rep.region_avg_rmse:.4f} mae={rep.region_avg_mae:.4f}"
        )
    print(f"evaluate: wrote {csv_path} and {json_path}")
    return out


def cmd_ablate(cfg: RunConfig) -> Path:
    out = _start(cfg, "ablate")
    ds = _load_dataset(cfg)
    model_cfg, backbone_cfg, train_cfg = _configs(cfg, ds)
    reports = run_ablation(
        cfg.variants,
        ds,
        cfg.split,
        train_cfg,
        model_cfg,
        backbone_cfg,
        steps=cfg.steps,
        dataset_name=cfg["dataset.name"],
        backbone_weights=cfg["backbone.weights"],
    )
    for rep in reports:
        print(f"ablate [{rep.model:>10s}] rmse={rep.region_avg_rmse:.4f} mae={rep.region_avg_mae:.4f}")
    csv_path, json_path = emit_report(reports, out)
    print(f"ablate: wrote {csv_path} and {json_path}")
    return out


def cmd_report(cfg: RunConfig) -> Path:
    out = _start(cfg, "report")
    if cfg["report.inputs"] is None:
        raise ConfigError("report.inputs must list metrics.json files (comma separated)")
    reports: list[MetricReport] = []
    for part in cfg["report.inputs"].split(","):
        path = part.strip()
        text = read_file(path, ConfigError, "report input")
        try:  # not JSON or nested too deeply, not an object, no reports, or an entry with a bad key
            entries = json.loads(text).get("reports")
            if not entries:
                raise ValueError("its field 'reports' is missing or empty")
            reports.extend(MetricReport.from_dict(entry) for entry in entries)
        except (AttributeError, RecursionError, TypeError, ValueError) as exc:
            raise ConfigError(f"report input {path} is not a metrics file: {exc}") from exc
    csv_path, json_path = emit_report(reports, out)
    print(f"report: combined {len(reports)} reports -> {csv_path}")
    return out


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epicast",
        description="Spatio-temporal epidemic forecasting over case counts and mobility graphs.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=str, default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        raw = parse_config_file(args.config) if args.config else {}
        cfg = resolve_config(raw, seed_override=args.seed, out_override=args.out)
        COMMANDS[args.command](cfg)
        return 0
    except ConfigError as exc:  # before DataError: an InvalidSplitError is both
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    except (TrainingDivergedError, ForecastDivergedError, PromptGraphError) as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # pragma: no cover - last resort
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
