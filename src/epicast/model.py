"""Model assembly: the full parameter set, its trainable/frozen partition,
parameter accounting, and flat-file checkpoints."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .backbone import BackboneConfig, BackboneState, build_backbone
from .backbone import parameter_count as backbone_parameter_count
from .branches import (
    Adapter,
    GATING_MODES,
    Projector,
    TOKENIZER_MODES,
    init_adapter,
    init_projector,
)
from .data import ConfigError, check_field_types
from .prompts import PromptParams, init_prompts
from .serialize import CheckpointError, assign_tensors, load_tensors, save_tensors
from .tensor import Parameter


class EmptyModelError(ValueError):
    """Parameter accounting on a model with no parameters at all."""


class ModelSizeError(ConfigError):
    """Size keys that ask for more parameter memory than can be allocated."""


@dataclass(frozen=True)
class ModelConfig:
    n_regions: int
    w: int = 3
    width: int = 64
    mob_hidden: int = 0  # 0 -> use width
    tokenizer_mode: str = "graph"
    gating_mode: str = "gated"
    mobility_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_regions < 1 or self.w < 1 or self.width < 1:
            raise ConfigError("n_regions, w, and width must all be positive")
        if self.mob_hidden < 0:
            raise ConfigError(f"mob_hidden must be >= 0 (0 means width), got {self.mob_hidden}")
        if self.tokenizer_mode not in TOKENIZER_MODES:
            raise ConfigError(f"unknown tokenizer mode {self.tokenizer_mode!r}")
        if self.gating_mode not in GATING_MODES:
            raise ConfigError(f"unknown gating mode {self.gating_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ModelState:
    config: ModelConfig
    epi_proj: Projector
    mob_proj: Projector
    epi_adapter: Adapter
    mob_adapter: Adapter
    prompts: PromptParams
    backbone: BackboneState
    served: dict | None = None  # the training dataset's served_space(); None until trained

    def parameters(self) -> list[Parameter]:
        out = (
            self.epi_proj.parameters()
            + self.mob_proj.parameters()
            + self.epi_adapter.parameters()
            + self.mob_adapter.parameters()
            + self.prompts.parameters()
            + self.backbone.parameters()
        )
        return out

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if not p.frozen]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def working_set_keys(self, days: int) -> str:
        """The size keys, with their values, of what an epoch or a forecast
        step over `days` days of history allocates, for an error message."""
        cfg, bb = self.config, self.backbone.config
        return (
            f"w={cfg.w}, backbone.width={bb.width}, backbone.depth={bb.depth}, backbone.heads={bb.heads}, "
            f"model.mob_hidden={cfg.mob_hidden}, or the dataset's size ({cfg.n_regions} regions, {days} days)"
        )


def build_model(cfg: ModelConfig, backbone_cfg: BackboneConfig, backbone_weights=None) -> ModelState:
    """Construct all branch parameters (seeded) around a built backbone.

    Raises ModelSizeError, naming the size keys, when what training allocates
    for the parameters does not fit in memory: each parameter, and for each
    trainable one its gradient and Adam's two moments."""
    if backbone_cfg.mode != "identity" and backbone_cfg.width != cfg.width:
        raise ValueError(f"model width {cfg.width} does not match backbone width {backbone_cfg.width}")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    D = cfg.width
    backbone = backbone_parameter_count(backbone_cfg)
    # a trainable parameter comes with its gradient and Adam's two moments
    nbytes = 8 * (4 * _branch_parameter_count(cfg) + (1 if backbone_cfg.frozen else 4) * backbone)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        if nbytes >= memory:  # layers allocate one by one, so no single allocation fails first
            raise MemoryError(
                f"{nbytes} bytes of float64 parameters, gradients and Adam moments, physical memory {memory}"
            )
        return ModelState(
            config=cfg,
            epi_proj=init_projector(rng, cfg.w, D, D, "epi_proj"),
            mob_proj=init_projector(rng, cfg.n_regions, cfg.mob_hidden or D, D, "mob_proj"),
            epi_adapter=init_adapter(rng, D=D, out=cfg.w, name="epi_adapter"),
            mob_adapter=init_adapter(rng, D=D, out=cfg.n_regions, name="mob_adapter"),
            prompts=init_prompts(cfg.w),
            backbone=build_backbone(backbone_cfg, weights_path=backbone_weights),
        )
    except MemoryError as exc:
        raise ModelSizeError(
            f"model parameters do not fit in memory ({str(exc) or 'out of memory allocating the parameters'}); "
            f"lower the size keys: w={cfg.w}, backbone.width={cfg.width}, model.mob_hidden={cfg.mob_hidden}, "
            f"backbone.depth={backbone_cfg.depth}, backbone.max_positions={backbone_cfg.max_positions}, "
            f"or the dataset's region count ({cfg.n_regions})"
        ) from exc


def _branch_parameter_count(cfg: ModelConfig) -> int:
    """The parameters of the projectors (w -> D -> D, N -> H -> D), the
    adapters (D -> w, D -> N), and the prompts' two edge weights and w gates."""
    N, w, D, H = cfg.n_regions, cfg.w, cfg.width, cfg.mob_hidden or cfg.width
    return (w + 1) * D + (D + 1) * D + (N + 1) * H + (H + 1) * D + (D + 1) * (w + N) + 2 + w


@dataclass(frozen=True)
class ParamCount:
    trainable: int
    total: int


def count_params(model: ModelState) -> ParamCount:
    trainable = sum(p.data.size for p in model.parameters() if not p.frozen)
    total = sum(p.data.size for p in model.parameters())
    if total == 0:
        raise EmptyModelError("model has no parameters; ratio undefined")
    return ParamCount(trainable=trainable, total=total)


def backbone_hash(model: ModelState) -> str:
    """Order-stable byte hash of every backbone parameter."""
    import hashlib

    h = hashlib.sha256()
    for p in model.backbone.parameters():
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()


def save_checkpoint(model: ModelState, path) -> None:
    named = {p.name: p.data for p in model.parameters()}
    meta = {
        "kind": "model-checkpoint",
        "model_config": asdict(model.config),
        "backbone_config": asdict(model.backbone.config),
        "served": model.served,
    }
    save_tensors(named, path, meta=meta)


def load_checkpoint(path) -> ModelState:
    tensors, meta = load_tensors(path)
    if meta.get("kind") != "model-checkpoint":
        raise CheckpointError(f"{path} is not a model checkpoint")
    # checkpoints written before served records have none, and are refused
    if not isinstance(served := meta.get("served", ()), (dict, type(None))):
        raise CheckpointError(f"{path}: meta.served is missing or not an object; retrain the model")
    try:  # unknown keys raise TypeError, out-of-range values ValueError
        cfg = ModelConfig(**meta["model_config"])
        backbone_cfg = BackboneConfig(**meta["backbone_config"])
        model = build_model(cfg, backbone_cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model or backbone config: {exc}") from exc
    assign_tensors(model.parameters(), tensors, "checkpoint", CheckpointError)
    model.served = served
    return model
