"""Dual-branch autoregressive training with Adam and early stopping.

Every epoch runs full-batch next-token prediction over the training patches:
each branch's token sequence goes through the (possibly frozen) backbone, the
per-patch predictions are adapted back to case blocks / mobility rows, and the
token-wise losses are combined as epidemic + weight * mobility.  Each branch's
loss is the mean over tokens of a token's squared L2 error, or of the norm
itself (``loss_form``).  The combined loss is one tape node
(``compute_loss``) with a hand-written backward, bitwise equal to the same
loss composed from primitive ops.  Validation loss is the same objective
restricted to patches inside the validation range, with the full preceding
history as context.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .backbone import backbone_forward
from .branches import epi_adapt, epi_token_sequence, mob_adapt, mob_token_sequence, patch_grid
from .data import ConfigError, EpidemicDataset, check_field_types
from .model import ModelState, count_params
from .tensor import Tensor, _accumulate, _input_nodes, no_grad

LOSS_FORMS = ("mean-squared", "mean-l2-norm")


class TrainingRangeError(ConfigError):
    """A training range too short to hold the two patches next-token training needs."""


class TrainingMemoryError(ConfigError, MemoryError):
    """An epoch whose working set does not fit in memory: a config error
    naming the size keys, and a MemoryError to whoever catches those."""


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, what: str):
        super().__init__(f"non-finite {what} at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    mob_weight: float = 1.0  # weight on the mobility-branch loss
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 10
    loss_form: str = "mean-squared"
    # Adam's constants: no config key sets them
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        check_field_types(self)
        if not (np.isfinite(self.mob_weight) and self.mob_weight >= 0):
            raise ConfigError(f"mobility loss weight must be finite and >= 0, got {self.mob_weight}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.loss_form not in LOSS_FORMS:
            raise ConfigError(f"unknown loss form {self.loss_form!r}; choose from {LOSS_FORMS}")


def compute_loss(
    x_pred: Tensor,
    x_true: np.ndarray,
    m_pred: Tensor | None,
    m_true: np.ndarray | None,
    mob_weight: float = 1.0,
    loss_form: str = "mean-squared",
) -> Tensor:
    """Combined token-wise loss, epidemic branch + mob_weight * mobility branch.

    Each branch's term is the mean over tokens of a token's squared L2 error
    or, in the "mean-l2-norm" form, of the norm itself.  One tape node over
    the predictions that require a gradient (x first, then m), which keeps
    each branch's error and, in the norm form, its per-token norms.  Forward
    and gradients run the numpy ops of the composed form (difference, square,
    sum over the last axis, optional shifted square root, mean, weighted sum)
    in the same order, so both are bitwise equal to it.
    """
    if not (np.isfinite(mob_weight) and mob_weight >= 0):
        raise ValueError(f"mobility loss weight must be finite and >= 0, got {mob_weight}")
    if loss_form not in LOSS_FORMS:
        raise ValueError(f"unknown loss form {loss_form!r}")
    branches = [(x_pred, x_true, None)]
    if m_pred is not None:
        branches.append((m_pred, m_true, mob_weight))
    kept = []
    for pred, true, weight in branches:
        true = np.asarray(true, dtype=np.float64)
        if pred.data.shape != true.shape:
            raise ValueError(f"prediction shape {pred.data.shape} != target shape {true.shape}")
        diff = pred.data - true
        per = (diff * diff).sum(axis=-1)
        norms = None
        if loss_form == "mean-l2-norm":
            # tiny shift keeps the norm differentiable at an exact hit;
            # invisible at double precision for any nonzero error
            per = norms = np.sqrt(per + 1e-24)
        loss = per.mean() if weight is None else loss + per.mean() * weight
        kept.append((diff, norms, weight))
    nodes = _input_nodes(*[pred for pred, _, _ in branches])
    if nodes is None:
        return Tensor._result(loss, (), None)
    # only the branches whose prediction requires a gradient keep their arrays
    kept = [(node, *saved) for node, saved in zip(nodes, kept) if node is not None]

    def _bw(g):
        for node, diff, norms, weight in kept:
            shape = diff.shape[:-1]
            gp = np.broadcast_to(g if weight is None else g * weight, shape) / math.prod(shape)
            if norms is not None:
                gp = gp / (2.0 * norms)
            _accumulate(node, 2.0 * diff * np.broadcast_to(np.expand_dims(gp, -1), diff.shape))

    return Tensor._result(loss, nodes, _bw)


# -- sequence forward ---------------------------------------------------------------


def sequence_loss(
    model: ModelState, ds: EpidemicDataset, grid, cfg: TrainConfig, target_tail: int | None = None
) -> Tensor:
    """Next-token training loss over a patch grid of `ds`.

    Position p's backbone output is the prediction for patch p+1, so targets
    are patches 1..P-1 (0-indexed), read at their last days.  `target_tail`
    restricts the loss to the last k targets (used for validation-range
    scoring): only the positions that predict them are adapted.
    """
    P = len(grid)
    first = 0 if target_tail is None else P - 1 - min(target_tail, P - 1)
    ends = [e - 1 for _, e in grid[first + 1 :]]
    windows = [ds.M[s:e] for s, e in grid]
    preds = backbone_forward(epi_token_sequence(model, ds.X, windows, ds.epsilon, ds.mob_scale, grid), model.backbone)
    x_pred = epi_adapt(preds[first : P - 1], model.epi_adapter)
    m_pred = m_true = None
    if model.config.mobility_enabled:
        mob_out = backbone_forward(mob_token_sequence(model, windows), model.backbone)
        m_pred = mob_adapt(mob_out[first : P - 1], model.mob_adapter)
        m_true = ds.M[ends]
    return compute_loss(x_pred, ds.X[ends], m_pred, m_true, cfg.mob_weight, cfg.loss_form)


def training_loss(model: ModelState, ds: EpidemicDataset, train_range: range, cfg: TrainConfig) -> Tensor:
    """Next-token loss over the patches of `train_range`; raises
    TrainingRangeError when the range holds fewer than the two patches it needs."""
    grid = patch_grid(train_range.start, train_range.stop, model.config.w)
    if len(grid) < 2:
        raise TrainingRangeError(f"training range of {len(train_range)} days yields {len(grid)} patches; need >= 2")
    return sequence_loss(model, ds, grid, cfg)


@no_grad()
def validation_loss(model: ModelState, ds: EpidemicDataset, val_range: range, cfg: TrainConfig) -> float:
    """Objective on patches overlapping the validation range, full history as
    context; records no tape."""
    grid = patch_grid(0, val_range.stop, model.config.w)
    tail = sum(1 for s, e in grid if e > val_range.start)
    loss = sequence_loss(model, ds, grid, cfg, target_tail=tail)
    return float(loss.data)


# -- optimizer ------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over the given tensors that require a
    gradient: a frozen parameter requires none, has no ``grad`` to step on, and
    is dropped up front, so the update loop touches trainables only."""

    def __init__(self, params, lr=TrainConfig.lr, beta1=TrainConfig.beta1, beta2=TrainConfig.beta2, eps=TrainConfig.eps):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            # asarray keeps 0-d parameters as true arrays (numpy arithmetic
            # would otherwise degrade them to immutable scalars)
            p.data = np.asarray(p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


# -- training loop ----------------------------------------------------------------------


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    best_val: float = float("inf")
    prompt_summary: dict = field(default_factory=dict)
    trainable_params: int = 0
    total_params: int = 0

    @property
    def trainable_ratio(self) -> float:
        return self.trainable_params / self.total_params

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["prompts"] = doc.pop("prompt_summary")
        return {**doc, "trainable_ratio": self.trainable_ratio}


@np.errstate(over="raise", invalid="raise", divide="raise")
def run_epoch(
    model: ModelState, ds: EpidemicDataset, train_range: range, val_range: range, cfg: TrainConfig, opt: Adam, epoch: int
) -> tuple[float, float]:
    """One full-batch epoch: the training loss, its backward into freshly
    zeroed gradients, one Adam step, then the validation loss.  Returns both
    losses; a non-finite one, or a numpy overflow, division by zero or
    invalid value anywhere in the epoch, raises TrainingDivergedError naming
    `epoch`, and an allocation that fails raises TrainingMemoryError naming
    `epoch` and the size keys.  The gradients stay in place after the step,
    which reads them only."""
    try:
        loss = training_loss(model, ds, train_range, cfg)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(epoch, f"loss {loss_value}")
        model.zero_grad()
        loss.backward()
        opt.step()
        val_value = validation_loss(model, ds, val_range, cfg)
        if not np.isfinite(val_value):
            raise TrainingDivergedError(epoch, f"loss {val_value}")
    except FloatingPointError as exc:
        raise TrainingDivergedError(epoch, f"value (numpy: {exc})") from exc
    except MemoryError as exc:
        raise TrainingMemoryError(
            f"epoch {epoch} does not fit in memory ({str(exc) or 'out of memory running the epoch'}); "
            f"lower the size keys: {model.working_set_keys(val_range.stop)}"
        ) from exc
    return loss_value, val_value


def train(
    model: ModelState,
    ds: EpidemicDataset,
    train_range: range,
    val_range: range,
    cfg: TrainConfig,
) -> tuple[ModelState, TrainReport]:
    """Full-batch Adam over the trainable parameters with early stopping.

    Stops once validation loss has failed to improve for `patience` epochs
    and restores the parameters of the best validation epoch.  Stores
    ``ds.served_space()`` as ``model.served``, so that `forecast` serves the
    trained model only on datasets with the same regions, window, threshold
    and scales.
    """
    trainables = model.trainable_parameters()
    opt = Adam(trainables, lr=cfg.lr)
    report = TrainReport()
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        loss_value, val_value = run_epoch(model, ds, train_range, val_range, cfg, opt, epoch)
        report.train_losses.append(loss_value)
        report.val_losses.append(val_value)
        report.stopped_epoch = epoch
        # run_epoch raises on a non-finite loss, so epoch 1 always beats the
        # initial inf and sets best_snapshot before anything reads it
        if val_value < report.best_val:
            report.best_val = val_value
            report.best_epoch = epoch
            best_snapshot = [p.data.copy() for p in trainables]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    for p, saved in zip(trainables, best_snapshot):
        p.data = saved
        p.zero_grad()

    model.served = ds.served_space()
    counts = count_params(model)
    report.prompt_summary = model.prompts.summary()
    report.trainable_params = counts.trainable
    report.total_params = counts.total
    return model, report
