"""Metrics, statistical baselines, ablation variants, and report emission.

RMSE and MAE are computed per region over the horizon, in one reduction over
the (N, h) errors, and then averaged with an unweighted mean across regions;
the baselines are whole-array expressions too.  Published reference numbers
for the four public COVID datasets ship as a static JSON file and are only
ever displayed next to fresh results, clearly labeled, never asserted.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig
from .data import ConfigError, EpidemicDataset, SplitSpec, split_dataset
from .forecaster import forecast
from .model import ModelConfig, build_model
from .trainer import TrainConfig, train

BASELINES = ("AVG", "AVG_WINDOW", "LAST_DAY", "LIN_REG")


class HorizonRangeError(ConfigError):
    """A forecast horizon longer than the test range it is scored on."""


# -- metrics -----------------------------------------------------------------------


def _errors(y, y_hat) -> np.ndarray:
    """y - y_hat in float64, once both are checked to be equal-shaped and non-empty."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("empty horizon")
    return y - y_hat


@dataclass
class MetricReport:
    dataset: str
    horizon: int
    model: str
    per_region_rmse: list[float]
    per_region_mae: list[float]
    region_avg_rmse: float
    region_avg_mae: float
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, entry: dict) -> "MetricReport":
        """The report `to_dict` gave; TypeError on a missing, unknown or mistyped field."""
        report = cls(**entry)
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(report, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                expected = " or ".join(kind.__name__ for kind in kinds)
                raise TypeError(f"field {name!r} is a {type(value).__name__}, expected {expected}")
        return report


_FIELD_TYPES = {
    "dataset": (str,), "horizon": (int,), "model": (str,), "per_region_rmse": (list,), "per_region_mae": (list,),
    "region_avg_rmse": (int, float), "region_avg_mae": (int, float), "config": (dict,),
}  # fmt: skip


def metric_report(
    truth: np.ndarray, pred: np.ndarray, dataset: str, horizon: int, model: str, config: dict | None = None
) -> MetricReport:
    """Per-region metrics over an (h, N) truth/prediction pair, region-averaged;
    a region is one contiguous row of the (N, h) errors, so it reduces exactly as
    that region's errors alone would, and a one-region report gives the whole-array metric."""
    err = np.ascontiguousarray(_errors(truth, pred).T)
    r = np.sqrt(np.mean(err**2, axis=1))
    m = np.mean(np.abs(err), axis=1)
    return MetricReport(
        dataset=dataset,
        horizon=horizon,
        model=model,
        per_region_rmse=r.tolist(),
        per_region_mae=m.tolist(),
        region_avg_rmse=float(np.mean(r)),
        region_avg_mae=float(np.mean(m)),
        config=config or {},
    )


def horizon_truth(ds: EpidemicDataset, context_end: int, horizon: int) -> np.ndarray:
    """The (horizon, N) raw counts a forecast from `context_end` is scored against."""
    if context_end + horizon > ds.T:
        raise HorizonRangeError(
            f"horizon {horizon} does not fit in the test range of {ds.T - context_end} days"
        )
    return ds.counts[context_end : context_end + horizon].astype(np.float64)


# -- statistical baselines ------------------------------------------------------------


def baseline_predict(kind: str, ds: EpidemicDataset, context_end: int, h: int) -> np.ndarray:
    """Per-region h-day predictions from raw counts observed before context_end."""
    if kind not in BASELINES:
        raise ValueError(f"unknown baseline {kind!r}; choose from {BASELINES}")
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    min_ctx = 2 if kind == "LIN_REG" else 1
    if context_end < min_ctx:
        raise ValueError(f"{kind} needs at least {min_ctx} context days, got {context_end}")
    hist = ds.counts[:context_end].astype(np.float64)  # (t, N)
    if kind == "LIN_REG":  # one least-squares line per region, extrapolated
        slope, intercept = np.polyfit(np.arange(context_end, dtype=np.float64), hist, 1)
        return np.outer(np.arange(context_end, context_end + h, dtype=np.float64), slope) + intercept
    if kind == "AVG":
        level = hist.mean(axis=0)
    elif kind == "AVG_WINDOW":
        level = hist[-min(h, context_end) :].mean(axis=0)
    else:  # LAST_DAY
        level = hist[-1]
    return np.tile(level, (h, 1))


# -- ablation variants -------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    description: str
    tokenizer_mode: str = "graph"
    gating_mode: str = "gated"
    backbone_mode: str | None = None  # None -> keep configured backbone
    adjacency_mode: str = "predicted"  # read only by the forecast, so it never changes the trained model
    mobility_enabled: bool = True


ABLATION_VARIANTS: dict[str, VariantSpec] = {
    "full": VariantSpec("complete model"),
    "Graph2MLP": VariantSpec(
        "cases-only feedforward tokenizer; mobility branch disabled",
        tokenizer_mode="mlp",
        mobility_enabled=False,
    ),
    "Time2Aver": VariantSpec("slice embeddings averaged instead of gated", gating_mode="average"),
    "Time2Last": VariantSpec("only the final slice embedding is kept", gating_mode="last"),
    "wo_LLM": VariantSpec("tokens bypass the backbone (identity)", backbone_mode="identity"),
    "LLM2MLP": VariantSpec("trainable position-wise feedforward backbone", backbone_mode="mlp"),
    "LLM2RNN": VariantSpec("trainable gated recurrent backbone", backbone_mode="rnn"),
    "LLM2Trans": VariantSpec("trainable transformer backbone", backbone_mode="trainable-transformer"),
    "Adj2Aver": VariantSpec(
        "inference reuses window-averaged historical adjacency", adjacency_mode="window_average"
    ),
    "Adj2Last": VariantSpec(
        "inference reuses the previous step's adjacency", adjacency_mode="last"
    ),
}


def apply_variant(
    variant: str, model_cfg: ModelConfig, backbone_cfg: BackboneConfig
) -> tuple[ModelConfig, BackboneConfig]:
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}; choose from {sorted(ABLATION_VARIANTS)}")
    spec = ABLATION_VARIANTS[variant]
    model_cfg = replace(
        model_cfg,
        tokenizer_mode=spec.tokenizer_mode,
        gating_mode=spec.gating_mode,
        mobility_enabled=spec.mobility_enabled,
    )
    if spec.backbone_mode is not None:
        backbone_cfg = replace(backbone_cfg, mode=spec.backbone_mode)
    return model_cfg, backbone_cfg


def run_ablation(
    variants: list[str],
    ds: EpidemicDataset,
    split: SplitSpec,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    backbone_cfg: BackboneConfig,
    steps: int = 1,
    dataset_name: str = "synthetic",
    backbone_weights=None,
) -> list[MetricReport]:
    """Train each distinct model once, forecast the test range once per
    variant, and score it; the reports follow `variants`.

    A model is keyed by what training reads: the variant's configs and the
    backbone weights it loads, which only variants that keep the configured
    backbone do (the swaps build theirs from its seed).  So the `Adj2*`
    variants, which change only the forecast's adjacency source, share the
    full model's training."""
    resolved = [apply_variant(variant, model_cfg, backbone_cfg) for variant in variants]
    splits = split_dataset(ds, split)
    horizon = steps * model_cfg.w
    context_end = splits.test.start
    truth = horizon_truth(ds, context_end, horizon)
    trained, reports = {}, []
    for variant, configs in zip(variants, resolved):
        spec = ABLATION_VARIANTS[variant]
        key = (*configs, backbone_weights if spec.backbone_mode is None else None)
        if key not in trained:
            trained[key], _report = train(build_model(*key), ds, splits.train, splits.val, train_cfg)
        result = forecast(trained[key], ds, context_end, steps, spec.adjacency_mode)
        config = {"variant": asdict(spec), "steps": steps}
        reports.append(metric_report(truth, result.cases, dataset_name, horizon, variant, config))
    return reports


# -- reference numbers and report emission --------------------------------------------------


REFERENCE_BACKBONE = "GPT2"


def load_reference_results() -> dict:
    with resources.files("epicast").joinpath("reference_results.json").open() as fh:
        return json.load(fh)


def reference_for(refdoc: dict, dataset: str, horizon: int, backbone: str = REFERENCE_BACKBONE) -> dict | None:
    """The published row of `refdoc` (see load_reference_results) for a dataset and horizon, or None."""
    refs = refdoc["results"]
    try:
        return refs[dataset][str(horizon)][backbone]
    except KeyError:
        return None


def emit_report(reports: list[MetricReport], out_dir) -> tuple[Path, Path]:
    """Write the side-by-side CSV and a full JSON document; returns both paths."""
    if not reports:
        raise ValueError("emit_report needs at least one MetricReport")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    refdoc = load_reference_results()
    csv_path = out_dir / "metrics.csv"
    json_path = out_dir / "metrics.json"
    rows = []
    for rep in reports:
        ref = reference_for(refdoc, rep.dataset, rep.horizon)
        rows.append(
            {
                "dataset": rep.dataset,
                "horizon": rep.horizon,
                "model": rep.model,
                "region_avg_rmse": rep.region_avg_rmse,
                "region_avg_mae": rep.region_avg_mae,
                "ref_rmse": "" if ref is None else ref["rmse"],
                "ref_mae": "" if ref is None else ref["mae"],
            }
        )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["dataset", "horizon", "model", "region_avg_rmse", "region_avg_mae", "ref_rmse", "ref_mae"],
        )
        writer.writeheader()
        writer.writerows(rows)
    doc = {
        "reference_label": refdoc["label"],
        "reference_backbone": REFERENCE_BACKBONE,
        "rows": rows,
        "reports": [rep.to_dict() for rep in reports],
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return csv_path, json_path
