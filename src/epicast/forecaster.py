"""Direct and iterative multi-step forecasting joining the two branches.

Each step first advances the mobility branch to get the next patch's flow
matrix, then advances the epidemic branch to get the next w-day case block.
The generated patch (cases + structure) is rolled into the context, so later
steps condition on earlier predictions: one step is direct forecasting,
several steps is multi-step forecasting.

The rollout keeps only what it generates: counts (end, N), where end is the
context end plus steps * w days, and one predicted flow matrix per generated
patch, (steps, N, N); no threshold mask is kept.  The context counts are
copied in.  The rollout's mobility is a list of (w, N, N) windows, one per
patch of the grid: it starts as the context grid's views of the dataset's
``M``, never copied, and each step appends its generated matrix broadcast
over its w days.  The patch grid is aligned backward from each step's day t,
which is the context end plus whole patches, so it only grows at its end and
stays one patch per window.  Step t windows the counts of its first t days
into feature rows, reads each patch's adjacency from its window by the
dataset's one rule (``data.adjacency`` at its ``epsilon`` and
``mob_scale``), and writes its own patch's counts into rows t .. t+w and its
matrix into the buffer.  So context and generated rows are thresholded alike.
The returned cases are the generated counts, the mobility the buffer and the
adjacency the buffer read by the same rule, each mapped back to raw units
into a new array, so none shares memory with the dataset.

Both backbone passes decode incrementally: step 1 prefills the context grid,
and each later step runs the backbone on the one position it appended (see
``backbone.DecodeCache``).  The grid only grows at its end, because its first
day stays fixed as the context advances by whole patches.  So an 8-step
forecast from 8 context patches runs 30 backbone positions over its two
branches (8 + 7 each), where a full recompute at every step runs 184
(8 + 9 + ... + 15 each).  Step 1 is bitwise a full recompute; later steps agree
with one to within 1e-12 of their largest value, not bitwise, because their
matrix products run over other shapes and may sum in another order.  Tokens
are still recomputed over the whole grid at every step, because the
benchmark's traced self-check pins one tokenizer call per patch and step; a
token cache waits until that check counts patches tokenized instead of calls.

Feature rows for generated days are built by the same windowing code used at
ingestion, so training and inference see identically constructed inputs.

Which mobility structure a step rolls in is a forecast argument, not part of
the model: training never reads it, so one trained model serves every
``ADJACENCY_MODES`` entry (the paper's Adj2Aver and Adj2Last ablations).
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field

import numpy as np

from .backbone import DecodeCache, backbone_forward
from .branches import epi_adapt, epi_token_sequence, mob_adapt, mob_token_sequence, patch_grid
from .data import ConfigError, EpidemicDataset, adjacency, window_features
from .model import ModelState
from .serialize import CheckpointError
from .tensor import no_grad

ADJACENCY_MODES = ("predicted", "window_average", "last")


class InsufficientContextError(ConfigError):
    pass


class ForecastSizeError(ConfigError, MemoryError):
    """A forecast whose rollout history, or one step's working set, does not
    fit in memory: a config error naming the size keys, and a MemoryError to
    whoever catches those."""


class ForecastDivergedError(RuntimeError):
    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at forecast step {step}")
        self.step = step


@dataclass
class ForecastResult:
    """Predicted case blocks and mobility structures, in raw data units."""

    cases: np.ndarray  # (h, N) daily predicted new cases
    mobility: np.ndarray  # (steps, N, N) one predicted flow matrix per generated patch
    adjacency: np.ndarray  # (steps, N, N) thresholded mobility
    steps: int
    horizon: int
    context_end: int
    dates: list
    region_names: list[str]
    meta: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["region_id", "date", "predicted_cases"])
            for t, day in enumerate(self.dates):
                for i, region in enumerate(self.region_names):
                    writer.writerow([region, day.isoformat(), f"{self.cases[t, i]:.10g}"])

    def mobility_summary(self) -> dict:
        per_step = []
        for s in range(self.steps):
            M = self.mobility[s]
            per_step.append(
                {
                    "step": s + 1,
                    "total_flow": float(M.sum()),
                    "max_flow": float(M.max()),
                    "edges": int((self.adjacency[s] > 0).sum()),
                }
            )
        return {"steps": self.steps, "horizon": self.horizon, "per_step": per_step, **self.meta}

    def write_mobility_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.mobility_summary(), fh, indent=1, sort_keys=True)


@no_grad()
@np.errstate(over="raise", invalid="raise", divide="raise")
def forecast(
    model: ModelState, ds: EpidemicDataset, context_end: int, steps: int, adjacency_mode: str = "predicted"
) -> ForecastResult:
    """Generate `steps` future patches (steps * w days) after day `context_end`;
    records no tape.  Each step rolls in the mobility the model predicts, or
    with `adjacency_mode` "window_average" the mean of the last w days' flows
    and with "last" the last day's.  Raises ForecastSizeError when the rollout
    history or a step's working set does not fit in memory, naming the step
    and the size keys for the latter, and ForecastDivergedError naming the step
    when a prediction is non-finite or numpy overflows, divides by zero or
    makes an invalid value.  A trained model serves only the dataset space it
    was trained in: when ``ds.served_space()`` differs from ``model.served``,
    CheckpointError names the first field that differs.  A model with no
    served record (never trained by `train`) serves any dataset.  `steps` and
    `context_end` are integers (a numpy integer is one, a bool is not); any
    other value raises what the range check of each raises, ValueError or
    InsufficientContextError."""
    if model.served is not None:
        for key, value in ds.served_space().items():
            if (trained := model.served.get(key)) != value:
                raise CheckpointError(f"model was trained with {key}={trained}, but this dataset serves {key}={value}")
    cfg = model.config
    w = cfg.w
    if adjacency_mode not in ADJACENCY_MODES:
        raise ConfigError(f"unknown adjacency mode {adjacency_mode!r}; choose from {ADJACENCY_MODES}")
    for name, value, error in (("steps", steps, ValueError), ("context_end", context_end, InsufficientContextError)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):  # a numpy integer is one
            raise error(f"{name} must be an integer, got {value!r}")
    steps, context_end = int(steps), int(context_end)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if context_end > ds.T:
        raise InsufficientContextError(f"context_end {context_end} beyond dataset length {ds.T}")
    if context_end < w:
        raise InsufficientContextError(
            f"need at least one full patch ({w} days) of context, got {context_end}"
        )

    horizon = steps * w
    end = context_end + horizon
    try:
        counts = np.empty((end, ds.N))  # model space
        generated = np.empty((steps, ds.N, ds.N))  # model space, one matrix per generated patch
    except (MemoryError, ValueError) as exc:  # past 2**63 bytes numpy raises ValueError
        raise ForecastSizeError(
            f"a horizon of {horizon} days ({steps} steps of w={w}) from day {context_end} "
            f"does not fit in memory ({str(exc) or 'out of memory allocating the rollout history'})"
        ) from exc
    counts[:context_end] = ds.counts[:context_end] / ds.case_scale
    windows = [ds.M[s:e] for s, e in patch_grid(0, context_end, w)]
    mob_cache, epi_cache = DecodeCache(), DecodeCache()

    try:
        for step, t in enumerate(range(context_end, end, w), start=1):
            grid = patch_grid(0, t, w)

            if cfg.mobility_enabled and adjacency_mode == "predicted":
                mob_out = backbone_forward(mob_token_sequence(model, windows), model.backbone, mob_cache)
                M_next = mob_adapt(mob_out[-1], model.mob_adapter).data
            elif adjacency_mode == "window_average":
                M_next = windows[-1].mean(axis=0)
            elif adjacency_mode == "last":
                M_next = windows[-1][-1]
            else:  # mobility branch disabled entirely
                M_next = np.zeros((ds.N, ds.N))
            if not np.all(np.isfinite(M_next)):
                raise ForecastDivergedError(step, "mobility prediction")

            X = window_features(counts[:t], w)
            epi_out = backbone_forward(epi_token_sequence(model, X, windows, ds.epsilon, ds.mob_scale, grid), model.backbone, epi_cache)
            block = epi_adapt(epi_out[-1], model.epi_adapter).data
            if not np.all(np.isfinite(block)):
                raise ForecastDivergedError(step, "case prediction")

            counts[t : t + w] = np.maximum(block, 0.0).T  # block column k is day k of the new patch
            generated[step - 1] = M_next
            windows.append(np.broadcast_to(generated[step - 1], (w, ds.N, ds.N)))

        mobility = generated * ds.mob_scale
        A = adjacency(generated, ds.epsilon, ds.mob_scale) * ds.mob_scale
        cases = counts[context_end:] * ds.case_scale
    except FloatingPointError as exc:  # numpy raises on an overflow, an invalid value or a division by zero
        raise ForecastDivergedError(step, f"value (numpy: {exc})") from exc
    except MemoryError as exc:
        raise ForecastSizeError(
            f"forecast step {step} of {steps} does not fit in memory ({str(exc) or 'out of memory running the step'}); "
            f"lower the size keys: {model.working_set_keys(end)}"
        ) from exc
    base_date = ds.dates[context_end - 1]
    dates = [base_date + dt.timedelta(days=k + 1) for k in range(horizon)]
    return ForecastResult(
        cases=cases,
        mobility=mobility,
        adjacency=A,
        steps=steps,
        horizon=horizon,
        context_end=context_end,
        dates=dates,
        region_names=list(ds.region_names),
        meta={
            "w": w,
            "adjacency_mode": adjacency_mode,
            "tokenizer_mode": cfg.tokenizer_mode,
            "gating_mode": cfg.gating_mode,
        },
    )
