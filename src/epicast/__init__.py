"""Spatio-temporal epidemic forecasting over case counts and mobility graphs.

Dual-branch tokenization (graph message passing for cases, feedforward for
mobility), next-token prediction through a frozen causal sequence backbone,
learnable spatio-temporal graph prompts, and iterative multi-step joint
forecasting, with a data pipeline, statistical baselines, and an evaluation
harness around them.
"""

from .backbone import BackboneConfig, BackboneState, backbone_forward, build_backbone
from .branches import (
    Adapter,
    Projector,
    epi_adapt,
    epi_tokenize,
    mob_adapt,
    mob_tokenize,
    patch_grid,
)
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
    split_dataset,
    synth_sir,
    window_features,
)
from .evalharness import (
    ABLATION_VARIANTS,
    MetricReport,
    baseline_predict,
    emit_report,
    metric_report,
    run_ablation,
)
from .forecaster import ForecastResult, forecast
from .model import ModelConfig, ModelState, build_model, count_params, load_checkpoint, save_checkpoint
from .prompts import PromptGraphError, PromptParams, build_prompted_graph, init_prompts
from .tensor import Parameter, Tensor
from .trainer import Adam, TrainConfig, TrainReport, compute_loss, train

__version__ = "0.1.0"
