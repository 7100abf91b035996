"""The per-op composed forms of the fused epidemic and mobility tokenizers, and
the dense block graph: references the tests hold ``epicast`` to.

``epi_tokenize`` and ``mob_tokenize`` here build the tokens from primitive
tape ops, one node per op and per message-passing layer (``propagate``);
the single fused nodes of ``epicast.branches`` must match them bit for bit,
tokens and gradients.
``block_adjacency`` assembles the dense (w*N)^2 prompted block matrix that
``epicast`` never builds, the oracle ``propagate`` is checked against.
``thresholded_adjacency`` is the adjacency as a second array, which
``epicast`` reads from the mobility on demand instead (``data.adjacency``).
``attention_sublayer`` composes one attention sublayer of the backbone from
``layer_norm``, ``linear``, head reshapes and ``attention_weights``, one node
each; ``epicast.backbone.attention_sublayer`` must match it plus a residual
``add`` bit for bit.  ``ffn_sublayer`` composes one feedforward sublayer from
``layer_norm`` (when given LN2's gain and bias), ``linear``, ``gelu`` and
``linear``; ``epicast.backbone.ffn_sublayer`` must match it plus a residual
``add`` bit for bit, with LN2 and without (the `mlp` backbone).
``softmax`` is the primitive op that ``attention_weights`` composes to, and
``gelu`` the one that ``ffn_sublayer`` composes to; epicast keeps only their
kernels (``tensor._exp_normalize``, ``tensor._softmax_backward``,
``tensor._gelu``).  Both softmax references exponentiate every entry, -inf
included, where ``tensor._exp_normalize`` skips the masked ones.
``sub``, ``square``, ``sqrt``, ``tsum`` and ``tmean`` (with ``_sum_grad``, the
rule of both reductions) are primitive ops that no ``epicast`` path records;
the tests compose references and test losses from them.  ``compute_loss``
composes the training loss from them, one node per op;
``epicast.trainer.compute_loss``, one node, must match it bit for bit, loss
and gradients.
"""

import numpy as np

from epicast.backbone import DecodeCache
from epicast.prompts import PromptParams, build_prompted_graph
from epicast.tensor import (
    Tensor,
    _accumulate,
    _gelu,
    _input_nodes,
    _record,
    _softmax_backward,
    _unbroadcast,
    add,
    astensor,
    constant,
    layer_norm,
    linear,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    transpose,
)


def div(a, b) -> Tensor:
    """Elementwise quotient with numpy broadcasting, for composed references."""
    a, b = astensor(a), astensor(b)
    out = a.data / b.data
    nodes = _input_nodes(a, b)
    if nodes is None:
        return Tensor._result(out, (), None)
    na, nb = nodes
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data, b_data = (a.data if nb is not None else None), b.data

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g / b_data, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(-g * a_data / (b_data * b_data), b_shape))

    return Tensor._result(out, nodes, _bw)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    return _record(a.data - b.data, (a, b), (lambda g: _unbroadcast(g, a_shape), lambda g: -_unbroadcast(g, b_shape)))


def square(a) -> Tensor:
    a = astensor(a)
    x = a.data
    return _record(x * x, (a,), (lambda g: 2.0 * x * g,))


def sqrt(a) -> Tensor:
    a = astensor(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt of negative input")
    root = np.sqrt(a.data)
    return _record(root, (a,), (lambda g: g / (2.0 * root),))


def _sum_grad(g: np.ndarray, axis, keepdims: bool, shape: tuple) -> np.ndarray:
    """The gradient of an array of `shape` summed over `axis`, for the sum's
    gradient g: g broadcast back to `shape`."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    a_shape = a.data.shape
    return _record(a.data.sum(axis=axis, keepdims=keepdims), (a,), (lambda g: _sum_grad(g, axis, keepdims, a_shape),))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    mean = a.data.mean(axis=axis, keepdims=keepdims)
    a_shape, count = a.data.shape, a.data.size / mean.size
    return _record(mean, (a,), (lambda g: _sum_grad(g, axis, keepdims, a_shape) / count,))


def token_discrepancy(pred: Tensor, true: np.ndarray, loss_form: str) -> Tensor:
    """Mean over tokens of the per-token discrepancy (squared or plain L2 norm), composed."""
    diff = sub(pred, constant(true))
    sumsq = tsum(square(diff), axis=-1)
    if loss_form == "mean-squared":
        return tmean(sumsq)
    return tmean(sqrt(add(sumsq, 1e-24)))


def compute_loss(x_pred, x_true, m_pred, m_true, mob_weight=1.0, loss_form="mean-squared") -> Tensor:
    """The training loss, epidemic branch + mob_weight * mobility branch,
    composed: one node per op."""
    loss = token_discrepancy(x_pred, np.asarray(x_true, dtype=np.float64), loss_form)
    if m_pred is not None:
        mob = token_discrepancy(m_pred, np.asarray(m_true, dtype=np.float64), loss_form)
        loss = add(loss, mul(mob, mob_weight))
    return loss


def cross_slice_masks(w: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit edges from each node to the same region one slice later (forward)
    and one slice earlier (backward): the diagonals n above and below."""
    return np.eye(w * n, k=n), np.eye(w * n, k=-n)


def slice_offsets(A_window: np.ndarray) -> list[range]:
    """Node-index range of each slice in the block adjacency of (w, N, N) slices."""
    w, n, _ = A_window.shape
    return [range(k * n, (k + 1) * n) for k in range(w)]


def thresholded_adjacency(raw: np.ndarray, M: np.ndarray, epsilon: float) -> np.ndarray:
    """The adjacency of mobility `M` whose raw-unit flows are `raw`: each flow
    whose raw value exceeds `epsilon`, and 0 elsewhere."""
    return np.where(raw > epsilon, M, 0.0)


def block_adjacency(A_window: np.ndarray, prompts: PromptParams) -> Tensor:
    """The dense (w*N, w*N) prompted block matrix of the slices A_window,
    differentiable w.r.t. the prompt scalars."""
    w, n, _ = A_window.shape
    size = w * n
    base = np.zeros((size, size))
    for k in range(w):
        base[k * n : (k + 1) * n, k * n : (k + 1) * n] = A_window[k]
    fwd_mask, bwd_mask = cross_slice_masks(w, n)
    return add(
        add(constant(base), mul(prompts.w_forward, constant(fwd_mask))),
        mul(prompts.w_backward, constant(bwd_mask)),
    )


def propagate(A: np.ndarray, prompts: PromptParams, H: Tensor) -> Tensor:
    """One message-passing step ``D^-1/2 (B + I)^T D^-1/2 H`` over the block graph.

    B is the (w*N)^2 prompted block adjacency of the slices A (w, N, N) and H
    its node features, laid out as (w, N, F).  Messages travel along edge
    direction, so node (k, i) receives ``A_k[j, i]`` from (k, j), its own
    features through the self-loop, ``w_forward`` from (k-1, i) and
    ``w_backward`` from (k+1, i).  ``D^-1/2`` is epicast's closed-form
    ``build_prompted_graph``, which raises on a non-positive degree.

    One tape node over (H, w_forward, w_backward) with a hand-written
    backward; B itself is never built.
    """
    wf, wb = prompts.w_forward, prompts.w_backward
    s = build_prompted_graph(A, prompts)
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
    return mul(sigmoid(prompts.gamma)[w - 1], H[w - 1])


def epi_tokenize(X_window, A_window, prompts: PromptParams, proj, gating_mode="gated", tokenizer_mode="graph"):
    """One epidemic token (N, D), composed: in "graph" mode two ``propagate``
    layers over the prompted block graph, in "mlp" mode none, then the blend."""
    H0 = constant(X_window)
    if tokenizer_mode == "graph":
        H1 = relu(linear(propagate(A_window, prompts, H0), proj.W1, proj.b1))
        H2 = linear(propagate(A_window, prompts, H1), proj.W2, proj.b2)
    else:
        H1 = relu(linear(H0, proj.W1, proj.b1))
        H2 = linear(H1, proj.W2, proj.b2)
    return _gate_blend(H2, prompts, gating_mode)


def mob_tokenize(M_t, proj):
    """One mobility token (N, D), composed: each outflow row through the MLP."""
    return linear(relu(linear(constant(M_t), proj.W1, proj.b1)), proj.W2, proj.b2)


def _exp(shifted: np.ndarray) -> np.ndarray:
    """Softmax of rows already shifted by their max, in place, every entry
    exponentiated: the plain form ``tensor._exp_normalize`` must match."""
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def softmax(a) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction.

    -inf entries (e.g. causal masking) come out as exactly zero weight.
    """
    a = astensor(a)
    x = a.data
    s = _exp(x - np.max(x, axis=-1, keepdims=True))
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(s, (), None)
    (na,) = nodes

    def _bw(g):
        _accumulate(na, _softmax_backward(np.array(g), s))

    return Tensor._result(s, nodes, _bw)


def attention_weights(q, k, mask: np.ndarray, scale: float) -> Tensor:
    """``softmax(q @ kᵀ * scale + mask)`` over the last axis, as one node.

    q is (..., P, dh) and k (..., S, dh) with the same leading axes; `mask`
    is an additive array broadcast to (..., P, S), -inf where a query must not
    see a key.  Only the weights are kept for the backward, which pushes the
    softmax gradient through the scale into q and k.  Forward and gradients
    are bitwise those of the composed primitive ops.
    """
    q, k = astensor(q), astensor(k)
    if q.data.shape[:-2] != k.data.shape[:-2]:
        raise ValueError(f"query {q.data.shape} and key {k.data.shape} batch axes differ")
    s = q.data @ np.swapaxes(k.data, -1, -2)
    s *= scale
    s += mask
    s -= s.max(axis=-1, keepdims=True)
    _exp(s)
    nodes = _input_nodes(q, k)
    if nodes is None:
        return Tensor._result(s, (), None)
    nq, nk = nodes
    q_data = q.data if nk is not None else None
    k_data = k.data if nq is not None else None

    def _bw(g):
        gs = _softmax_backward(np.array(g), s)
        gs *= scale
        if nq is not None:
            _accumulate(nq, gs @ k_data)
        if nk is not None:
            _accumulate(nk, np.swapaxes(np.swapaxes(q_data, -1, -2) @ gs, -1, -2))

    return Tensor._result(s, nodes, _bw)


def attention_sublayer(x, state, layer: int, mask: np.ndarray, cache: DecodeCache | None = None) -> Tensor:
    """One attention sublayer, composed: LN1, the q/k/v projections, the
    per-head weights, the mix, the head merge and the output projection."""
    x = astensor(x)
    N, P, D = x.data.shape
    H = state.config.heads
    dh = D // H
    p = state.params
    a = layer_norm(x, p[f"layer{layer}.ln1.g"], p[f"layer{layer}.ln1.b"])

    def proj(nm):
        return linear(a, p[f"layer{layer}.attn.{nm}.W"], p[f"layer{layer}.attn.{nm}.b"])

    def split(t):  # (N, P, D) -> (N, H, P, dh)
        return transpose(reshape(t, (N, P, H, dh)), (0, 2, 1, 3))

    q, k, v = split(proj("q")), split(proj("k")), split(proj("v"))
    if cache is not None:
        if layer < len(cache.kv):  # decode: attend to the cached positions too
            # joined as the backbone joins them: the cached positions, then
            # this call's, in one (N, S, D) buffer read through its head view,
            # so the mix multiplies values laid out as the backbone's
            joined = []
            for kept, new in zip(cache.kv[layer], (k, v)):
                past = kept.shape[2]
                buffer = np.empty((N, past + P, D))
                buffer[:, :past] = kept.transpose(0, 2, 1, 3).reshape(N, past, D)
                buffer[:, past:] = new.data.transpose(0, 2, 1, 3).reshape(N, P, D)
                joined.append(constant(buffer.reshape(N, past + P, H, dh).transpose(0, 2, 1, 3)))
            k, v = joined
            cache.kv[layer] = (k.data, v.data)
        else:  # prefill
            cache.kv.append((k.data, v.data))
    weights = attention_weights(q, k, mask, 1.0 / np.sqrt(dh))
    mixed = matmul(weights, v)  # (N, H, P, dh)
    merged = reshape(transpose(mixed, (0, 2, 1, 3)), (N, P, D))
    return linear(merged, p[f"layer{layer}.attn.o.W"], p[f"layer{layer}.attn.o.b"])


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation, smooth everywhere).

    Forward: ``0.5 * x * (1 + t)`` with ``t = tanh(c * (x + 0.044715 * x * x * x))``;
    backward: ``g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x))``.
    The node keeps only the derivative, from ``_gelu``, and multiplies g into it.
    """
    a = astensor(a)
    nodes = _input_nodes(a)
    out, deriv = _gelu(a.data, derivative=nodes is not None)
    if nodes is None:
        return Tensor._result(out, (), None)
    (na,) = nodes

    def _bw(g):
        _accumulate(na, np.multiply(deriv, g, out=deriv))

    return Tensor._result(out, nodes, _bw)


def ffn_sublayer(x, params) -> Tensor:
    """One feedforward sublayer, composed: LN2 when `params` starts with its
    gain and bias (``[ln2.g, ln2.b, W1, b1, W2, b2]``, else ``[W1, b1, W2,
    b2]``), the first linear layer, the GELU and the second linear layer."""
    *ln2, W1, b1, W2, b2 = params
    a = layer_norm(x, *ln2) if ln2 else x
    return linear(gelu(linear(a, W1, b1)), W2, b2)
