"""Dual-branch tokenization and the adapters mapping back to raw spaces.

Epidemic branch: message passing over the prompted block graph of a token
window, followed by gated blending of the per-slice embeddings into one
backbone-width token per region.  Mobility branch: a two-layer feedforward
map from a region's outflow row to a token.  Each branch has its own adapter
(token -> case block, token -> mobility row); the two share no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prompts import PromptParams, build_prompted_graph
from .tensor import (
    Parameter,
    Tensor,
    add,
    concat,
    constant,
    div,
    linear,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    sqrt,
    transpose,
    tsum,
)

GATING_MODES = ("gated", "average", "last")
TOKENIZER_MODES = ("graph", "mlp")


class PromptGraphError(RuntimeError):
    """Learned prompt edge weights left a block-graph node without a positive degree."""


def _init_linear(rng: np.random.Generator, fan_in: int, fan_out: int, name: str, frozen=False):
    W = Parameter(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)), name=f"{name}.W", frozen=frozen)
    b = Parameter(np.zeros(fan_out), name=f"{name}.b", frozen=frozen)
    return W, b


@dataclass
class EpiProjector:
    """Two message-passing layers taking feature rows to backbone width."""

    W1: Parameter  # (F, D)
    b1: Parameter
    W2: Parameter  # (D, D)
    b2: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.W1, self.b1, self.W2, self.b2]


@dataclass
class MobProjector:
    """Two-layer feedforward map from mobility rows (length N) to width D."""

    W1: Parameter  # (N, H)
    b1: Parameter
    W2: Parameter  # (H, D)
    b2: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.W1, self.b1, self.W2, self.b2]


@dataclass
class Adapter:
    """Affine map from backbone width back to an output space."""

    W: Parameter  # (D, out)
    b: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]


def init_epi_projector(rng: np.random.Generator, F: int, D: int) -> EpiProjector:
    W1, b1 = _init_linear(rng, F, D, "epi_proj.l1")
    W2, b2 = _init_linear(rng, D, D, "epi_proj.l2")
    return EpiProjector(W1, b1, W2, b2)


def init_mob_projector(rng: np.random.Generator, N: int, hidden: int, D: int) -> MobProjector:
    W1, b1 = _init_linear(rng, N, hidden, "mob_proj.l1")
    W2, b2 = _init_linear(rng, hidden, D, "mob_proj.l2")
    return MobProjector(W1, b1, W2, b2)


def init_adapter(rng: np.random.Generator, D: int, out: int, name: str) -> Adapter:
    W, b = _init_linear(rng, D, out, name)
    return Adapter(W, b)


def _propagation_matrix(block: Tensor) -> Tensor:
    """Self-looped, degree-normalized message matrix for the block graph.

    Messages travel along edge direction: entry (i, j) of the transposed,
    self-looped adjacency weights how much node j contributes to node i.
    Self-loops keep every degree >= 1 while the edge weights are
    nonnegative.  Negative learned prompt edge weights can break that; the
    degree is then rejected, never clipped, so a valid state's numbers stay
    exactly those of the plain normalization.
    """
    size = block.data.shape[0]
    hat = add(block, constant(np.eye(size)))
    # transpose so that rows index the receiving node
    incoming = transpose(hat, (1, 0))
    deg = tsum(incoming, axis=1, keepdims=True)
    if np.any(deg.data <= 0):
        raise PromptGraphError(
            f"the prompt edge weights (prompts.forward, prompts.backward) leave a block-graph "
            f"node with degree {deg.data.min():.6g}; degrees must stay positive"
        )
    inv_sqrt = div(constant(np.ones((size, 1))), sqrt(deg))
    return mul(mul(incoming, inv_sqrt), transpose(inv_sqrt, (1, 0)))


def _gate_blend(slices: list[Tensor], prompts: PromptParams, gating_mode: str) -> Tensor:
    """Blend per-slice embeddings (each N x D) into one token per region."""
    w = len(slices)
    if gating_mode == "gated":
        gates = sigmoid(prompts.gamma)
        out = mul(gates[0], slices[0])
        for k in range(1, w):
            out = add(out, mul(gates[k], slices[k]))
        return out
    if gating_mode == "average":
        out = slices[0]
        for k in range(1, w):
            out = add(out, slices[k])
        return mul(out, 1.0 / w)
    if gating_mode == "last":
        # keep the last slice's gate so a window of one day degenerates to
        # the gated form exactly
        gates = sigmoid(prompts.gamma)
        return mul(gates[w - 1], slices[w - 1])
    raise ValueError(f"unknown gating mode {gating_mode!r}")


def epi_tokenize(
    X_window: np.ndarray,
    A_window: np.ndarray,
    prompts: PromptParams,
    proj: EpiProjector,
    gating_mode: str = "gated",
    tokenizer_mode: str = "graph",
) -> Tensor:
    """One epidemic token (N, D) from a w-day window of features and graphs.

    In "graph" mode the features of all w*N (slice, region) nodes are pushed
    through two message-passing layers over the prompted block graph; in
    "mlp" mode the adjacency is ignored and the same weights act as a plain
    per-node feedforward.
    """
    X_window = np.asarray(X_window, dtype=np.float64)
    A_window = np.asarray(A_window, dtype=np.float64)
    if X_window.ndim != 3:
        raise ValueError(f"expected (w, N, F) features, got {X_window.shape}")
    w, n, F = X_window.shape
    if proj.W1.data.shape[0] != F:
        raise ValueError(f"projector expects F={proj.W1.data.shape[0]}, features have F={F}")
    if tokenizer_mode == "graph":
        if A_window.shape != (w, n, n):
            raise ValueError(f"adjacency stack {A_window.shape} does not match features {X_window.shape}")
        graph = build_prompted_graph(A_window, prompts)
        prop = _propagation_matrix(graph.block_adjacency)
        H0 = constant(X_window.reshape(w * n, F))
        H1 = relu(linear(matmul(prop, H0), proj.W1, proj.b1))
        H2 = linear(matmul(prop, H1), proj.W2, proj.b2)
        slices = [H2[k * n : (k + 1) * n] for k in range(w)]
    elif tokenizer_mode == "mlp":
        H0 = constant(X_window.reshape(w * n, F))
        H1 = relu(linear(H0, proj.W1, proj.b1))
        H2 = linear(H1, proj.W2, proj.b2)
        slices = [H2[k * n : (k + 1) * n] for k in range(w)]
    else:
        raise ValueError(f"unknown tokenizer mode {tokenizer_mode!r}")
    return _gate_blend(slices, prompts, gating_mode)


def mob_tokenize(M_t: np.ndarray, proj: MobProjector) -> Tensor:
    """One mobility token (N, D): each region's outflow row through the MLP."""
    M_t = np.asarray(M_t, dtype=np.float64)
    if M_t.ndim != 2 or M_t.shape[0] != M_t.shape[1]:
        raise ValueError(f"expected square mobility matrix, got {M_t.shape}")
    if proj.W1.data.shape[0] != M_t.shape[0]:
        raise ValueError(f"projector expects N={proj.W1.data.shape[0]}, matrix has N={M_t.shape[0]}")
    H1 = relu(linear(constant(M_t), proj.W1, proj.b1))
    return linear(H1, proj.W2, proj.b2)


def epi_adapt(tokens: Tensor, adapter: Adapter) -> Tensor:
    """Backbone output -> case-block space; raw (clamping happens at inference)."""
    return linear(tokens, adapter.W, adapter.b)


def mob_adapt(tokens: Tensor, adapter: Adapter) -> Tensor:
    """Backbone output -> mobility rows, clamped at zero (flows are nonnegative)."""
    return relu(linear(tokens, adapter.W, adapter.b))


# -- patch grid and token sequences -----------------------------------------------------


def patch_grid(t_start: int, t_end: int, w: int) -> list[tuple[int, int]]:
    """Consecutive non-overlapping w-day blocks, aligned backward from t_end.

    Aligning on the end keeps the most recent days (the ones adjacent to the
    forecast horizon) inside the grid; at most w-1 days at the start fall off.
    """
    n = (t_end - t_start) // w
    first = t_end - n * w
    return [(first + p * w, first + (p + 1) * w) for p in range(n)]


@dataclass
class TokenSequence:
    tokens: Tensor  # (P, N, D)
    patch_days: list[tuple[int, int]]

    @property
    def n_patches(self) -> int:
        return len(self.patch_days)


def stack_tokens(tokens: list[Tensor], patch_days: list[tuple[int, int]]) -> TokenSequence:
    n, d = tokens[0].data.shape
    stacked = concat([reshape(t, (1, n, d)) for t in tokens], axis=0)
    return TokenSequence(tokens=stacked, patch_days=list(patch_days))
