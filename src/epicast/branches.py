"""Dual-branch tokenization and the adapters mapping back to raw spaces.

Epidemic branch: message passing over the prompted block graph of a token
window, blockwise over its per-day slices and normalized by
``prompts.build_prompted_graph``, followed by gated blending of the per-slice
embeddings into one backbone-width token per region.  Each message-passing
layer is one batched matmul over the (w, N, N) slices plus the two shifted
cross-day terms.  Mobility branch: a two-layer feedforward map from a
region's outflow row to a token.  Each branch has its own adapter (token ->
case block, token -> mobility row); the two share no parameters.
``epi_token_sequence`` and ``mob_token_sequence`` tokenize every patch of a
patch grid and stack the tokens into the (P, N, D) sequence that training and
forecasting both hand to the backbone.

Each tokenizer call is one fused tape node with a hand-written backward, and
there is one node for both tokenizers (``_projector_node``): a mobility token
is that node's feedforward ("mlp") mode over a window of one slice, its
matrix, averaged.  The node records the parameters its mode reads: the four
projector weights, plus the two prompt edge weights in the graph mode and the
gates unless blending averages.  It keeps only its first propagated map and
the degree scale, or in the feedforward mode only its window; its backward
rebuilds the hidden layer and the pre-blend slices with one GEMM each, and
the second propagated map from the hidden layer.  Tokens and gradients are
bitwise those of the same tokenizers composed from primitive tape ops, which
the tests keep as their reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import adjacency
from .prompts import PromptParams, build_prompted_graph
from .tensor import (
    Parameter,
    Tensor,
    _accumulate,
    _affine,
    _affine_grads,
    _input_nodes,
    _select,
    _sigmoid,
    _unbroadcast,
    concat,
    linear,
    relu,
    reshape,
)

GATING_MODES = ("gated", "average", "last")
TOKENIZER_MODES = ("graph", "mlp")


def _init_linear(rng: np.random.Generator, fan_in: int, fan_out: int, name: str):
    W = Parameter(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)), name=f"{name}.W")
    b = Parameter(np.zeros(fan_out), name=f"{name}.b")
    return W, b


@dataclass
class Projector:
    """Two layers taking n_in features to backbone width D through a hidden
    width: message passing for the epidemic branch, a feedforward map for the
    mobility branch."""

    W1: Parameter  # (n_in, hidden)
    b1: Parameter
    W2: Parameter  # (hidden, D)
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


def init_projector(rng: np.random.Generator, n_in: int, hidden: int, D: int, name: str) -> Projector:
    W1, b1 = _init_linear(rng, n_in, hidden, f"{name}.l1")
    W2, b2 = _init_linear(rng, hidden, D, f"{name}.l2")
    return Projector(W1, b1, W2, b2)


def init_adapter(rng: np.random.Generator, D: int, out: int, name: str) -> Adapter:
    W, b = _init_linear(rng, D, out, name)
    return Adapter(W, b)


def _propagate(A: np.ndarray, s: np.ndarray, wf, wb, H: np.ndarray) -> np.ndarray:
    """One message-passing step ``D^-1/2 (B + I)^T D^-1/2 H`` over the block graph.

    B is the (w*N)^2 block adjacency of the slices A (w, N, N) and H its node
    features, laid out as (w, N, F); s is its ``deg^-1/2``
    (``prompts.build_prompted_graph``).  Messages travel
    along edge direction, so node (k, i) receives ``A_k[j, i]`` from (k, j),
    its own features through the self-loop, ``wf`` from (k-1, i) and ``wb``
    from (k+1, i).  B itself is never built.
    """
    Z = s * H
    U = np.swapaxes(A, 1, 2) @ Z
    U += Z
    U[1:] += wf * Z[:-1]
    U[:-1] += wb * Z[1:]
    return s * U


def _propagate_backward(A: np.ndarray, s: np.ndarray, wf, wb, H, out, g, edge_nodes) -> np.ndarray:
    """H's gradient for an output gradient g of ``out = _propagate(A, s, wf, wb, H)``.
    Accumulates the edge weights' gradients into edge_nodes, the nodes of
    (w_forward, w_backward), None for a constant."""
    dU = s * g
    dZ = A @ dU
    dZ += dU
    dZ[:-1] += wf * dU[1:]
    dZ[1:] += wb * dU[:-1]
    nwf, nwb = edge_nodes
    if nwf is not None or nwb is not None:
        Z = s * H
        # s = deg^-1/2 enters as out = s * U and Z = s * H, so
        # dL/ds = sum_F(g * U + dZ * H) and dL/ddeg = -s^3 / 2 * dL/ds;
        # one factor s turns g * U into g * out and dZ * H into dZ * Z
        ds_scaled = (g * out).sum(axis=-1, keepdims=True) + (dZ * Z).sum(axis=-1, keepdims=True)
        ddeg = -0.5 * (s * s) * ds_scaled
        if nwf is not None:
            _accumulate(nwf, np.asarray((dU[1:] * Z[:-1]).sum() + ddeg[1:].sum()))
        if nwb is not None:
            _accumulate(nwb, np.asarray((dU[:-1] * Z[1:]).sum() + ddeg[:-1].sum()))
    return s * dZ


def _blend(H: np.ndarray, sg: np.ndarray | None, gating_mode: str) -> np.ndarray:
    """Blend per-slice embeddings H (w, N, D) into one token (N, D) per region,
    with sg the gates ``sigmoid(gamma)`` (None in the average mode)."""
    if gating_mode == "gated":
        return (sg.reshape(-1, 1, 1) * H).sum(axis=0)
    if gating_mode == "average":
        # H.mean(axis=0) bitwise, without its wrapper; one slice, as in a
        # mobility token, is returned as it is (the mean would turn -0.0 into 0.0)
        return H[0] if len(H) == 1 else H.sum(axis=0) / len(H)
    # keep the last slice's gate so a window of one day degenerates to the
    # gated form exactly
    return sg[-1] * H[-1]


def _blend_backward(g, shape, sg, gating_mode, H, ngamma) -> np.ndarray:
    """The gradient of the blended slices for a token gradient g.  Accumulates
    gamma's gradient into ngamma, None when gamma is a constant; only that
    gradient reads H, the slices themselves."""
    w = shape[0]
    if gating_mode == "average":
        return np.full(shape, g / w)
    if gating_mode == "gated":
        g = np.broadcast_to(np.expand_dims(g, 0), shape)
        if ngamma is not None:
            dsg = _unbroadcast(g * H, (w, 1, 1)).reshape(w)
            _accumulate(ngamma, dsg * sg * (1.0 - sg))
        return g * sg.reshape(w, 1, 1)
    if ngamma is not None:
        dsg = np.zeros(w)
        dsg[-1] += _unbroadcast(g * H[-1], ())
        _accumulate(ngamma, dsg * sg * (1.0 - sg))
    dH = np.zeros(shape)
    dH[-1] += g * sg[-1]
    return dH


def _projector_node(X_window, A_window, prompts, proj: Projector, gating_mode: str, tokenizer_mode: str) -> Tensor:
    """One token (N, D) from a w-slice window of features (w, N, F): the one
    node for both tokenizers.

    In "graph" mode the features of all w*N (slice, region) nodes are pushed
    through two message-passing layers over the prompted block graph,
    ``H1 = relu(P1 @ W1 + b1)`` with ``P1 = prop(X)`` and
    ``H2 = P2 @ W2 + b2`` with ``P2 = prop(H1)``, each ``prop`` blockwise
    over the (w, N, N) slices with the closed-form degree; the dense block
    adjacency is never built.  In "mlp" mode the adjacency is not read and the
    same weights act as a plain per-node feedforward (P1 is X, P2 is H1).
    Either way the (w, N, D) output H2 is blended over the slices into the
    token.  `A_window` and `prompts` may be None where the modes read
    neither: "mlp" mode, averaged.

    One tape node per call, over the parameters the modes read.  It keeps
    P1 and the degree scale, or in "mlp" mode only the window.  Its backward
    rebuilds H1 and H2 with one GEMM each and P2 from H1, then runs the
    backward of the composed ops (blend, linear, prop, relu, linear, prop) in
    their order, so the token and every gradient are bitwise those of that
    composition.
    """
    X_window = np.asarray(X_window, dtype=np.float64)
    w, n, F = X_window.shape
    W1, b1, W2, b2 = (p.data for p in proj.parameters())
    if W1.shape[0] != F:
        raise ValueError(f"projector expects F={W1.shape[0]}, features have F={F}")
    graph_mode = tokenizer_mode == "graph"
    if graph_mode:
        A_window = np.asarray(A_window, dtype=np.float64)
        if A_window.shape != (w, n, n):
            raise ValueError(f"adjacency stack {A_window.shape} does not match features {X_window.shape}")
        s, wf, wb = build_prompted_graph(A_window, prompts), prompts.w_forward.data, prompts.w_backward.data
        P1 = _propagate(A_window, s, wf, wb, X_window)
        edges = (prompts.w_forward, prompts.w_backward)
    else:
        A_window = s = wf = wb = None  # the backward reads none of them
        P1, edges = X_window, ()
    pre = _affine(P1, W1, b1)
    H1 = _select(pre > 0, pre)
    gated = gating_mode != "average"
    sg = _sigmoid(prompts.gamma.data) if gated else None
    x2 = _propagate(A_window, s, wf, wb, H1) if graph_mode else H1  # P2, or H1 in "mlp" mode
    token = _blend(_affine(x2, W2, b2), sg, gating_mode)
    nodes = _input_nodes(*proj.parameters(), *edges, *((prompts.gamma,) if gated else ()))
    if nodes is None:
        return Tensor._result(token, (), None)
    nW1, nb1, nW2, nb2 = nodes[:4]
    edge_nodes = nodes[4 : 4 + len(edges)]
    ngamma = nodes[-1] if gated else None
    learn_edges = any(node is not None for node in edge_nodes)
    shape = (w, n, W2.shape[1])

    def _bw(g):
        pre = _affine(P1, W1, b1)
        mask = pre > 0
        H1 = _select(mask, pre)
        x2 = _propagate(A_window, s, wf, wb, H1) if graph_mode else H1
        # blend, then the second linear layer
        g2 = _blend_backward(g, shape, sg, gating_mode, None if ngamma is None else _affine(x2, W2, b2), ngamma)
        _affine_grads(g2, x2, nW2, nb2, b2.shape)
        # the second propagation, relu and the first linear layer
        g1 = g2 @ W2.T
        if graph_mode:
            g1 = _propagate_backward(A_window, s, wf, wb, H1, x2, g1, edge_nodes)
        g1 = _select(mask, g1)
        _affine_grads(g1, P1, nW1, nb1, b1.shape)
        if learn_edges:  # the first propagation, of the window
            _propagate_backward(A_window, s, wf, wb, X_window, P1, g1 @ W1.T, edge_nodes)

    return Tensor._result(token, nodes, _bw)


def epi_tokenize(
    X_window: np.ndarray,
    A_window: np.ndarray,
    prompts: PromptParams,
    proj: Projector,
    gating_mode: str = "gated",
    tokenizer_mode: str = "graph",
) -> Tensor:
    """One epidemic token (N, D) from a w-day window of features (w, N, F) and
    graphs (w, N, N): the projector node (``_projector_node``)."""
    return _projector_node(X_window, A_window, prompts, proj, gating_mode, tokenizer_mode)


def mob_tokenize(M_t: np.ndarray, proj: Projector) -> Tensor:
    """One mobility token (N, D): each region's outflow row through the MLP
    ``relu(M_t @ W1 + b1) @ W2 + b2``, which is the projector node's "mlp"
    mode over a window of the one slice M_t, averaged (a slice's average is
    the slice).  Its node keeps nothing but the matrix."""
    return _projector_node(M_t[None], None, None, proj, "average", "mlp")


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
    """P per-patch (N, D) tokens -> one (P, N, D) sequence: two tape nodes, a
    concat along the region axis into (P*N, D) and a reshape that splits it."""
    n, d = tokens[0].data.shape
    return reshape(concat(tokens, axis=0), (len(tokens), n, d))


def epi_token_sequence(model, X: np.ndarray, windows, epsilon: float, mob_scale: float, grid) -> Tensor:
    """(P, N, D) epidemic tokens of a ``model.ModelState``, one per patch of
    `grid`, each over the ``data.adjacency`` of its (w, N, N) model-space
    mobility window from `windows` at threshold `epsilon` and scale
    `mob_scale`; raises ValueError when `windows` and `grid` differ in length."""
    cfg = model.config
    tokens = [
        epi_tokenize(
            X[s:e],
            adjacency(window, epsilon, mob_scale),
            model.prompts,
            model.epi_proj,
            gating_mode=cfg.gating_mode,
            tokenizer_mode=cfg.tokenizer_mode,
        )
        for (s, e), window in zip(grid, windows, strict=True)
    ]
    return stack_tokens(tokens)


def mob_token_sequence(model, windows) -> Tensor:
    """(P, N, D) mobility tokens of a ``model.ModelState``, one per (w, N, N)
    mobility window of `windows`, from its last day."""
    return stack_tokens([mob_tokenize(window[-1], model.mob_proj) for window in windows])
