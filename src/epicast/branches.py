"""Dual-branch tokenization and the adapters mapping back to raw spaces.

Epidemic branch: message passing over the prompted block graph of a token
window, blockwise over its per-day slices, followed by gated blending of the
per-slice embeddings into one backbone-width token per region.  Mobility
branch: a two-layer feedforward map from a region's outflow row to a token.
Each branch has its own adapter (token -> case block, token -> mobility row);
the two share no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prompts import PromptedGraph, PromptParams, build_prompted_graph
from .tensor import (
    Parameter,
    Tensor,
    _accumulate,
    _input_nodes,
    concat,
    constant,
    linear,
    mul,
    relu,
    reshape,
    sigmoid,
    tmean,
    tsum,
)

GATING_MODES = ("gated", "average", "last")
TOKENIZER_MODES = ("graph", "mlp")


class PromptGraphError(RuntimeError):
    """Learned prompt edge weights left a block-graph node without a positive degree."""


def _init_linear(rng: np.random.Generator, fan_in: int, fan_out: int, name: str):
    W = Parameter(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)), name=f"{name}.W")
    b = Parameter(np.zeros(fan_out), name=f"{name}.b")
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


def propagate(graph: PromptedGraph, H: Tensor) -> Tensor:
    """One message-passing step ``D^-1/2 (B + I)^T D^-1/2 H`` over the block graph.

    B is the graph's (w*N)^2 block adjacency and H its node features, laid
    out as (w, N, F).  Messages travel along edge direction, so node (k, i)
    receives ``A_k[j, i]`` from (k, j), its own features through the
    self-loop, ``w_forward`` from (k-1, i) and ``w_backward`` from (k+1, i).
    The degree follows in closed form (Kipf & Welling symmetric
    normalization, applied blockwise):
    ``deg_k = 1 + colsum(A_k) + w_forward [k > 0] + w_backward [k < w-1]``.

    One tape node over (H, w_forward, w_backward) with a hand-written
    backward; B itself is never built.  Self-loops keep every degree >= 1
    while the edge weights are nonnegative.  Negative learned prompt edge
    weights can break that; the degree is then rejected, never clipped, so
    a valid state's numbers are those of the plain normalization.
    """
    A, wf, wb = graph.slices, graph.w_forward, graph.w_backward
    deg = 1.0 + A.sum(axis=1)  # (w, N): in-strength of every node
    deg[1:] += wf.data
    deg[:-1] += wb.data
    if np.any(deg <= 0):
        raise PromptGraphError(
            f"the prompt edge weights (prompts.forward, prompts.backward) leave a block-graph "
            f"node with degree {deg.min():.6g}; degrees must stay positive"
        )
    s = (1.0 / np.sqrt(deg))[:, :, None]
    Z = s * H.data
    U = np.swapaxes(A, 1, 2) @ Z
    U += Z
    U[1:] += wf.data * Z[:-1]
    U[:-1] += wb.data * Z[1:]
    out = s * U
    nodes = _input_nodes(H, wf, wb)
    if nodes is None:
        return Tensor._result(out, (), None)
    nH, nwf, nwb = nodes
    wf_data, wb_data = wf.data, wb.data
    # only the edge-weight gradients read H and the output
    H_data, out_data = (H.data, out) if nwf is not None or nwb is not None else (None, None)

    def _bw(g):
        # Z is recomputed and U never kept, so the closure holds no array
        # beyond s, H and the output
        dU = s * g
        dZ = A @ dU
        dZ += dU
        dZ[:-1] += wf_data * dU[1:]
        dZ[1:] += wb_data * dU[:-1]
        if nH is not None:
            _accumulate(nH, s * dZ)
        if nwf is not None or nwb is not None:
            Z = s * H_data
            # s = deg^-1/2 enters as out = s * U and Z = s * H, so
            # dL/ds = sum_F(g * U + dZ * H) and dL/ddeg = -s^3 / 2 * dL/ds;
            # one factor s turns g * U into g * out and dZ * H into dZ * Z
            ds_scaled = (g * out_data).sum(axis=-1, keepdims=True) + (dZ * Z).sum(axis=-1, keepdims=True)
            ddeg = -0.5 * (s * s) * ds_scaled
            if nwf is not None:
                _accumulate(nwf, np.asarray((dU[1:] * Z[:-1]).sum() + ddeg[1:].sum()))
            if nwb is not None:
                _accumulate(nwb, np.asarray((dU[:-1] * Z[1:]).sum() + ddeg[:-1].sum()))

    return Tensor._result(out, nodes, _bw)


def _gate_blend(H: Tensor, prompts: PromptParams, gating_mode: str) -> Tensor:
    """Blend per-slice embeddings H (w, N, D) into one token (N, D) per region."""
    w = H.data.shape[0]
    if gating_mode == "gated":
        return tsum(mul(reshape(sigmoid(prompts.gamma), (w, 1, 1)), H), axis=0)
    if gating_mode == "average":
        return tmean(H, axis=0)
    if gating_mode == "last":
        # keep the last slice's gate so a window of one day degenerates to
        # the gated form exactly
        return mul(sigmoid(prompts.gamma)[w - 1], H[w - 1])
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
    through two message-passing layers over the prompted block graph, each
    one blockwise ``propagate`` node over the (w, N, N) slices with the
    closed-form degree; the dense block adjacency is never built.  In "mlp"
    mode the adjacency is ignored and the same weights act as a plain
    per-node feedforward.  Either way the (w, N, D) output is blended over
    the slices into the token.
    """
    X_window = np.asarray(X_window, dtype=np.float64)
    A_window = np.asarray(A_window, dtype=np.float64)
    if X_window.ndim != 3:
        raise ValueError(f"expected (w, N, F) features, got {X_window.shape}")
    w, n, F = X_window.shape
    if proj.W1.data.shape[0] != F:
        raise ValueError(f"projector expects F={proj.W1.data.shape[0]}, features have F={F}")
    H0 = constant(X_window)
    if tokenizer_mode == "graph":
        if A_window.shape != (w, n, n):
            raise ValueError(f"adjacency stack {A_window.shape} does not match features {X_window.shape}")
        graph = build_prompted_graph(A_window, prompts)
        H1 = relu(linear(propagate(graph, H0), proj.W1, proj.b1))
        H2 = linear(propagate(graph, H1), proj.W2, proj.b2)
    elif tokenizer_mode == "mlp":
        H1 = relu(linear(H0, proj.W1, proj.b1))
        H2 = linear(H1, proj.W2, proj.b2)
    else:
        raise ValueError(f"unknown tokenizer mode {tokenizer_mode!r}")
    return _gate_blend(H2, prompts, gating_mode)


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


def stack_tokens(tokens: list[Tensor]) -> Tensor:
    """P per-patch (N, D) tokens -> one (P, N, D) sequence."""
    n, d = tokens[0].data.shape
    return concat([reshape(t, (1, n, d)) for t in tokens], axis=0)
