"""Dual-branch autoregressive training with Adam and early stopping.

Every epoch runs full-batch next-token prediction over the training patches:
each branch's token sequence goes through the (possibly frozen) backbone, the
per-patch predictions are adapted back to case blocks / mobility rows, and the
token-wise losses are combined as epidemic + weight * mobility.  Validation
loss is the same objective restricted to patches inside the validation range,
with the full preceding history as context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import backbone_forward
from .branches import epi_adapt, epi_token_sequence, mob_adapt, mob_token_sequence, patch_grid
from .data import ConfigError, EpidemicDataset
from .model import ModelState, count_params
from .tensor import Tensor, add, constant, mul, no_grad, sqrt, square, sub, tmean, tsum

LOSS_FORMS = ("mean-squared", "mean-l2-norm")


class TrainingRangeError(ConfigError):
    """A training range too short to hold the two patches next-token training needs."""


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite loss {value} at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    mob_weight: float = 1.0  # weight on the mobility-branch loss
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 10
    loss_form: str = "mean-squared"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.mob_weight) and self.mob_weight >= 0):
            raise ConfigError(f"mobility loss weight must be finite and >= 0, got {self.mob_weight}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if self.loss_form not in LOSS_FORMS:
            raise ConfigError(f"unknown loss form {self.loss_form!r}; choose from {LOSS_FORMS}")


def _token_discrepancy(pred: Tensor, true: np.ndarray, loss_form: str) -> Tensor:
    """Mean over tokens of the per-token discrepancy (squared or plain L2 norm)."""
    if pred.data.shape != true.shape:
        raise ValueError(f"prediction shape {pred.data.shape} != target shape {true.shape}")
    diff = sub(pred, constant(true))
    sumsq = tsum(square(diff), axis=-1)
    if loss_form == "mean-squared":
        return tmean(sumsq)
    # tiny shift keeps the norm differentiable at an exact hit; invisible at
    # double precision for any nonzero error
    return tmean(sqrt(add(sumsq, 1e-24)))


def compute_loss(
    x_pred: Tensor,
    x_true: np.ndarray,
    m_pred: Tensor | None,
    m_true: np.ndarray | None,
    mob_weight: float = 1.0,
    loss_form: str = "mean-squared",
) -> Tensor:
    """Combined token-wise loss: epidemic branch + mob_weight * mobility branch."""
    if not (np.isfinite(mob_weight) and mob_weight >= 0):
        raise ValueError(f"mobility loss weight must be finite and >= 0, got {mob_weight}")
    if loss_form not in LOSS_FORMS:
        raise ValueError(f"unknown loss form {loss_form!r}")
    loss = _token_discrepancy(x_pred, np.asarray(x_true, dtype=np.float64), loss_form)
    if m_pred is not None:
        mob = _token_discrepancy(m_pred, np.asarray(m_true, dtype=np.float64), loss_form)
        loss = add(loss, mul(mob, mob_weight))
    return loss


# -- sequence forward ---------------------------------------------------------------


def sequence_loss(
    model: ModelState,
    X: np.ndarray,
    A: np.ndarray,
    M: np.ndarray,
    grid,
    cfg: TrainConfig,
    target_tail: int | None = None,
) -> Tensor:
    """Next-token training loss over a patch grid.

    Position p's backbone output is the prediction for patch p+1, so targets
    are patches 1..P-1 (0-indexed), read at their last days.  `target_tail`
    restricts the loss to the last k targets (used for validation-range
    scoring): only the positions that predict them are adapted.
    """
    P = len(grid)
    if P < 2:
        raise ValueError(f"need at least 2 patches for next-token training, got {P}")
    first = 0 if target_tail is None else P - 1 - min(target_tail, P - 1)
    ends = [e - 1 for _, e in grid[first + 1 :]]
    preds = backbone_forward(epi_token_sequence(model, X, A, grid), model.backbone)
    x_pred = epi_adapt(preds[first : P - 1], model.epi_adapter)
    m_pred = m_true = None
    if model.config.mobility_enabled:
        mob_out = backbone_forward(mob_token_sequence(model, M, grid), model.backbone)
        m_pred = mob_adapt(mob_out[first : P - 1], model.mob_adapter)
        m_true = M[ends]
    return compute_loss(x_pred, X[ends], m_pred, m_true, cfg.mob_weight, cfg.loss_form)


def training_loss(model: ModelState, ds: EpidemicDataset, train_range: range, cfg: TrainConfig) -> Tensor:
    grid = patch_grid(train_range.start, train_range.stop, model.config.w)
    return sequence_loss(model, ds.X, ds.A, ds.M, grid, cfg)


@no_grad()
def validation_loss(model: ModelState, ds: EpidemicDataset, val_range: range, cfg: TrainConfig) -> float:
    """Objective on patches overlapping the validation range, full history as
    context; records no tape."""
    grid = patch_grid(0, val_range.stop, model.config.w)
    tail = sum(1 for s, e in grid if e > val_range.start)
    loss = sequence_loss(model, ds.X, ds.A, ds.M, grid, cfg, target_tail=tail)
    return float(loss.data)


# -- optimizer ------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over the given tensors that require a
    gradient: a frozen parameter requires none, has no ``grad`` to step on, and
    is dropped up front, so the update loop touches trainables only."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
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
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "stopped_epoch": self.stopped_epoch,
            "best_epoch": self.best_epoch,
            "best_val": self.best_val,
            "prompts": self.prompt_summary,
            "trainable_params": self.trainable_params,
            "total_params": self.total_params,
            "trainable_ratio": self.trainable_ratio,
        }


def run_epoch(
    model: ModelState, ds: EpidemicDataset, train_range: range, val_range: range, cfg: TrainConfig, opt: Adam, epoch: int
) -> tuple[float, float]:
    """One full-batch epoch: the training loss, its backward into freshly
    zeroed gradients, one Adam step, then the validation loss.  Returns both
    losses; a non-finite one raises TrainingDivergedError naming `epoch`.
    The gradients stay in place after the step, which reads them only."""
    loss = training_loss(model, ds, train_range, cfg)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise TrainingDivergedError(epoch, loss_value)
    model.zero_grad()
    loss.backward()
    opt.step()
    val_value = validation_loss(model, ds, val_range, cfg)
    if not np.isfinite(val_value):
        raise TrainingDivergedError(epoch, val_value)
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
    and restores the parameters of the best validation epoch.
    """
    grid = patch_grid(train_range.start, train_range.stop, model.config.w)
    if len(grid) < 2:
        raise TrainingRangeError(
            f"training range of {len(train_range)} days yields {len(grid)} patches; need >= 2"
        )
    trainables = model.trainable_parameters()
    opt = Adam(trainables, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    report = TrainReport()
    best_snapshot = [p.data.copy() for p in trainables]
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        loss_value, val_value = run_epoch(model, ds, train_range, val_range, cfg, opt, epoch)
        report.train_losses.append(loss_value)
        report.val_losses.append(val_value)
        report.stopped_epoch = epoch
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

    counts = count_params(model)
    report.prompt_summary = model.prompts.summary()
    report.trainable_params = counts.trainable
    report.total_params = counts.total
    return model, report
