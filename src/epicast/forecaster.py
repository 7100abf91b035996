"""Direct and iterative multi-step forecasting joining the two branches.

Each step first advances the mobility branch to get the next patch's flow
matrix and its thresholded adjacency, then advances the epidemic branch to
get the next w-day case block.  The generated patch (cases + structure) is
rolled into the context, so later steps condition on earlier predictions:
one step is direct forecasting, several steps is multi-step forecasting.

Both backbone passes decode incrementally: step 1 prefills the context grid,
and each later step runs the backbone on the one position it appended (see
``backbone.DecodeCache``).  The grid only grows at its end, because its first
day stays fixed as the context advances by whole patches.  Tokens are still
recomputed over the whole grid at every step, because the benchmark's traced
self-check pins one tokenizer call per patch and step.

Feature rows for generated days are built by the same windowing code used at
ingestion, so training and inference see identically constructed inputs.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field

import numpy as np

from .backbone import DecodeCache, backbone_forward
from .branches import epi_adapt, mob_adapt, patch_grid
from .data import EpidemicDataset, window_features
from .model import ModelState
from .tensor import no_grad
from .trainer import epi_token_sequence, mob_token_sequence


class InsufficientContextError(ValueError):
    pass


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
                    "max_flow": float(M.max()) if M.size else 0.0,
                    "edges": int((self.adjacency[s] > 0).sum()),
                }
            )
        return {"steps": self.steps, "horizon": self.horizon, "per_step": per_step, **self.meta}

    def write_mobility_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.mobility_summary(), fh, indent=1, sort_keys=True)


@no_grad()
def forecast(model: ModelState, ds: EpidemicDataset, context_end: int, steps: int) -> ForecastResult:
    """Generate `steps` future patches (steps * w days) after day `context_end`;
    records no tape."""
    cfg = model.config
    w = cfg.w
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if context_end > ds.T:
        raise InsufficientContextError(f"context_end {context_end} beyond dataset length {ds.T}")
    if context_end < w:
        raise InsufficientContextError(
            f"need at least one full patch ({w} days) of context, got {context_end}"
        )

    counts = ds.counts_model()[:context_end]  # (t, N) model space
    A_ctx = ds.A[:context_end].copy()
    M_ctx = ds.M[:context_end].copy()
    t_cur = context_end

    blocks: list[np.ndarray] = []
    mob_steps: list[np.ndarray] = []
    adj_steps: list[np.ndarray] = []
    mob_cache, epi_cache = DecodeCache(), DecodeCache()

    for step in range(1, steps + 1):
        grid = patch_grid(0, t_cur, w)

        if cfg.mobility_enabled and cfg.adjacency_mode == "predicted":
            mob_seq = mob_token_sequence(model, M_ctx, grid)
            mob_out = backbone_forward(mob_seq.tokens, model.backbone, mob_cache)
            M_next = mob_adapt(mob_out[-1], model.mob_adapter).data
        elif cfg.adjacency_mode == "window_average":
            M_next = M_ctx[t_cur - w : t_cur].mean(axis=0)
        elif cfg.adjacency_mode == "last":
            M_next = M_ctx[t_cur - 1].copy()
        else:  # mobility branch disabled entirely
            M_next = np.zeros((ds.N, ds.N))
        if not np.all(np.isfinite(M_next)):
            raise ForecastDivergedError(step, "mobility prediction")
        M_next_raw = M_next * ds.mob_scale
        A_next = np.where(M_next_raw > ds.epsilon, M_next, 0.0)

        X_feats = window_features(counts, w)
        epi_seq = epi_token_sequence(model, X_feats, A_ctx, grid)
        epi_out = backbone_forward(epi_seq.tokens, model.backbone, epi_cache)
        block = epi_adapt(epi_out[-1], model.epi_adapter).data
        if not np.all(np.isfinite(block)):
            raise ForecastDivergedError(step, "case prediction")
        block = np.maximum(block, 0.0)  # (N, w): column k is day k of the new patch

        counts = np.concatenate([counts, block.T], axis=0)
        A_ctx = np.concatenate([A_ctx, np.repeat(A_next[None], w, axis=0)], axis=0)
        M_ctx = np.concatenate([M_ctx, np.repeat(M_next[None], w, axis=0)], axis=0)
        t_cur += w

        blocks.append(block.T)  # (w, N)
        mob_steps.append(M_next_raw)
        adj_steps.append(np.where(M_next_raw > ds.epsilon, M_next_raw, 0.0))

    horizon = steps * w
    cases_model = np.concatenate(blocks, axis=0)  # (h, N)
    cases_raw = cases_model * ds.case_scale[None, :]
    base_date = ds.dates[context_end - 1]
    dates = [base_date + dt.timedelta(days=k + 1) for k in range(horizon)]
    return ForecastResult(
        cases=cases_raw,
        mobility=np.stack(mob_steps),
        adjacency=np.stack(adj_steps),
        steps=steps,
        horizon=horizon,
        context_end=context_end,
        dates=dates,
        region_names=list(ds.region_names),
        meta={
            "w": w,
            "adjacency_mode": cfg.adjacency_mode,
            "tokenizer_mode": cfg.tokenizer_mode,
            "gating_mode": cfg.gating_mode,
        },
    )
