"""Swappable sequence backbone performing next-token prediction over patches.

The default is a randomly initialized, frozen, pre-norm causal transformer:
every parameter is a constant (frozen=True) that holds no gradient and that no
optimizer step ever touches, while gradients still flow through its layers to
the projectors and prompts.  Variants for ablations: the same transformer
trainable, a position-wise feedforward block (the transformer's residual
feedforward node without LN2), a single gated recurrent layer, and a pure
identity.

Each region's patch-token sequence is processed as an independent batch item;
causal masking guarantees the output at position p depends only on positions
<= p, and that output is read as the prediction for patch p+1.

Each residual sublayer is one tape node that returns its residual sum
``x + f(x)``, in training, validation and cached decoding alike:
``attention_sublayer`` (LN1, the q/k/v projections, the weights
``softmax(q kᵀ / sqrt(dh) + mask)``, the mix, the head merge and the output
projection) and ``ffn_sublayer`` (LN2, ``ffn.1``, the GELU and ``ffn.2``; the
`mlp` backbone is that node without LN2: ``mlp.1``, the GELU, ``mlp.2``).
The causal mask is a plain array, -inf above the diagonal, cut to the rows of
the positions run, and no masked score is exponentiated.  A node keeps only
its LayerNorm's normalized input and std, or without LN2 its input, and
rebuilds the rest in its backward, recomputing attention instead of storing
it as activation checkpointing does (Chen et al., arXiv 1604.06174;
FlashAttention, arXiv 2205.14135; selective recomputation, Korthikanti et
al., arXiv 2205.05198).  So no q, k, v, attention weights, hidden layer or
GELU output reaches the tape.

The block rule: past its input, a sublayer runs one block of whole
sequences (regions) at a time, in the forward (LayerNorm, the projections,
the weights and mix or the hidden layer, the output projection and the
residual sum) and in the backward (the rebuilt LayerNorm output, the same
recomputation, LayerNorm's input gradient and the residual's ``g + dx``).
``_row_blocks`` sizes a block by a row's whole working set, about 1 MiB a
block and two sequences at least (chunked attention, Rabe and Staats, arXiv
2112.05682; chunked feedforward, Reformer, arXiv 2001.04451).  Each block
writes its rows with ``out=`` into the kept normalized input and std, the
output, a decode cache's joined keys and values, and x's gradient, so no
input-sized temporary and no (N, heads, P, S) or (N, P, ffn_mult * D) array
is built.  An array is gathered for every sequence only where a weight, bias
or LayerNorm gain that reads it trains, so each parameter gradient stays one
GEMM or one reduction; the frozen default gathers none.  Blocks split N
only, each sequence runs the GEMMs it runs unblocked, each array keeps the
memory layout the composed ops give it, and every result is bitwise the
composition's (``tests/composed_reference.py`` plus a residual ``add``).

Inference decodes incrementally, the way language models serve next-token
prediction.  A ``DecodeCache`` remembers how many positions of a growing
sequence have run and what later positions need from them: each transformer
layer's keys and values, or the recurrent hidden state.  The first call
prefills the whole context, computing exactly what a call without a cache
computes; each later call runs only the positions appended since.  Positions
stay absolute (``pos_emb[p]``), so a cached prefix is valid only while the
sequence grows at its end.  Cached arrays have no tape behind them, so
passing a cache while gradients are recorded raises ``DecodeCacheError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ConfigError
from .serialize import assign_tensors, load_tensors, save_tensors
from .tensor import (
    Parameter,
    Tensor,
    _accumulate,
    _affine,
    _affine_grads,
    _exp_normalize,
    _gelu,
    _input_nodes,
    _layer_norm,
    _layer_norm_grads,
    _layer_norm_input_grad,
    _row_blocks,
    _softmax_backward,
    add,
    concat,
    constant,
    grad_enabled,
    layer_norm,
    matmul,
    mul,
    sigmoid,
    tanh,
    transpose,
)

MODES = ("frozen-transformer", "trainable-transformer", "mlp", "rnn", "identity")


class BackboneConfigError(ConfigError):
    pass


class DecodeCacheError(RuntimeError):
    """A decode cache used while the tape records, or with no new position to run."""


@dataclass(frozen=True)
class BackboneConfig:
    mode: str = "frozen-transformer"
    depth: int = 2
    width: int = 64
    heads: int = 4
    seed: int = 0
    max_positions: int = 64
    ffn_mult: int = 4

    def __post_init__(self):
        if self.mode not in MODES:
            raise BackboneConfigError(f"unknown backbone mode {self.mode!r}; choose from {MODES}")
        if self.width < 1 or self.depth < 0:
            raise BackboneConfigError(f"bad width/depth: {self.width}/{self.depth}")
        if self.seed < 0:
            raise BackboneConfigError(f"backbone seed must be >= 0, got {self.seed}")
        if self.max_positions < 1:
            raise BackboneConfigError(f"max_positions must be >= 1, got {self.max_positions}")
        if "transformer" in self.mode:
            if self.heads < 1 or self.width % self.heads != 0:
                raise BackboneConfigError(
                    f"width {self.width} must be divisible by heads {self.heads}"
                )

    @property
    def frozen(self) -> bool:
        return self.mode == "frozen-transformer"


@dataclass
class BackboneState:
    config: BackboneConfig
    params: dict[str, Parameter] = field(default_factory=dict)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def export_weights(self, path) -> None:
        save_tensors(
            {name: p.data for name, p in self.params.items()},
            path,
            meta={"kind": "backbone", "config": self.config.__dict__},
        )


@dataclass
class DecodeCache:
    """Incremental-decoding state of one growing (P, N, D) token sequence.

    `length` positions have run.  Transformers keep each layer's keys and
    values, each (N, heads, length, width // heads); `rnn` keeps its last
    hidden state (N, 1, width); `mlp` and `identity` need nothing more.
    """

    length: int = 0
    kv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    h: np.ndarray | None = None


def _param(state: BackboneState, name: str, data: np.ndarray) -> Parameter:
    p = Parameter(data, name=f"backbone.{name}", frozen=state.config.frozen)
    state.params[name] = p
    return p


def build_backbone(cfg: BackboneConfig, weights_path=None) -> BackboneState:
    """Deterministically construct backbone weights from the config seed.

    `weights_path` optionally points at a flat weight file whose tensors
    replace the seeded ones (names and shapes must match): one that
    `export_weights` wrote, with short names, or a model checkpoint, with
    ``backbone.<name>`` names.
    """
    rng = np.random.default_rng(cfg.seed)
    state = BackboneState(config=cfg)
    D = cfg.width

    def lin(name, fan_in, fan_out):
        _param(state, f"{name}.W", rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
        _param(state, f"{name}.b", np.zeros(fan_out))

    if cfg.mode in ("frozen-transformer", "trainable-transformer"):
        _param(state, "pos_emb", rng.normal(0.0, 0.1, size=(cfg.max_positions, D)))
        for layer in range(cfg.depth):
            pre = f"layer{layer}"
            _param(state, f"{pre}.ln1.g", np.ones(D))
            _param(state, f"{pre}.ln1.b", np.zeros(D))
            for nm in ("q", "k", "v", "o"):
                lin(f"{pre}.attn.{nm}", D, D)
            _param(state, f"{pre}.ln2.g", np.ones(D))
            _param(state, f"{pre}.ln2.b", np.zeros(D))
            lin(f"{pre}.ffn.1", D, cfg.ffn_mult * D)
            lin(f"{pre}.ffn.2", cfg.ffn_mult * D, D)
        _param(state, "ln_f.g", np.ones(D))
        _param(state, "ln_f.b", np.zeros(D))
    elif cfg.mode == "mlp":
        lin("mlp.1", D, cfg.ffn_mult * D)
        lin("mlp.2", cfg.ffn_mult * D, D)
    elif cfg.mode == "rnn":
        for gate in ("z", "r", "h"):
            _param(state, f"rnn.W{gate}", rng.normal(0.0, 1.0 / np.sqrt(D), size=(D, D)))
            _param(state, f"rnn.U{gate}", rng.normal(0.0, 1.0 / np.sqrt(D), size=(D, D)))
            _param(state, f"rnn.b{gate}", np.zeros(D))
    elif cfg.mode == "identity":
        pass

    if weights_path is not None:
        tensors, _meta = load_tensors(weights_path)
        # `export_weights` writes short names, a checkpoint full ones; a full name wins
        tensors = {**{f"backbone.{name}": arr for name, arr in tensors.items()}, **tensors}
        assign_tensors(state.parameters(), tensors, "weight file", BackboneConfigError)
    return state


def parameter_count(cfg: BackboneConfig) -> int:
    """The number of parameters `build_backbone` allocates for `cfg`."""
    D, f = cfg.width, cfg.ffn_mult
    ffn = (D + 1) * f * D + (f * D + 1) * D  # two linears, D -> fD -> D
    if cfg.mode in ("frozen-transformer", "trainable-transformer"):
        # position table, final LayerNorm, and per layer two LayerNorms,
        # four D x D attention linears and the feedforward
        return cfg.max_positions * D + 2 * D + cfg.depth * (4 * D + 4 * (D + 1) * D + ffn)
    if cfg.mode == "mlp":
        return ffn
    if cfg.mode == "rnn":
        return 3 * (2 * D + 1) * D  # W, U and b of three gates
    return 0  # identity


def _causal_mask(start: int, P: int) -> np.ndarray:
    """The additive mask of the queries at positions start..P-1 over the keys
    0..P-1: -inf where a key comes after its query, 0 elsewhere."""
    return np.where(np.arange(P) > np.arange(start, P)[:, None], -np.inf, 0.0)


# the parameters of one attention sublayer, in the order its node records them
_ATTENTION = ("ln1.g", "ln1.b", *(f"attn.{nm}.{wb}" for nm in "qkvo" for wb in "Wb"))


def _heads(t: np.ndarray, H: int) -> np.ndarray:
    """(n, P, D) -> (n, H, P, D // H), a view."""
    n, P, D = t.shape
    return t.reshape(n, P, H, D // H).transpose(0, 2, 1, 3)


def _merge(t: np.ndarray) -> np.ndarray:
    """(n, H, P, dh) -> (n, P, H * dh), the heads side by side."""
    n, H, P, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(n, P, H * dh)


def _merge_keys(t: np.ndarray) -> np.ndarray:
    """(n, H, dh, P) -> (n, P, H * dh): k's gradient, made as qᵀ ds, merged."""
    return _merge(np.swapaxes(t, -1, -2))


def _attention_weights(q: np.ndarray, k: np.ndarray, mask: np.ndarray, scale: float) -> np.ndarray:
    """``softmax(q @ kᵀ * scale + mask)`` over the last axis, in one new array;
    no masked score is exponentiated (``_exp_normalize``)."""
    s = q @ np.swapaxes(k, -1, -2)
    s *= scale
    s += mask
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    return _exp_normalize(s, np.isneginf(mask))


def _ln_output(normed: np.ndarray, gain, bias, rows: slice = slice(None)) -> np.ndarray:
    """The rows of LayerNorm's output, rebuilt from its normalized input:
    the input rows themselves when there is no LayerNorm (`gain` None)."""
    if gain is None:
        return normed[rows]
    a = normed[rows] * gain
    a += bias
    return a


def _residual_input_grad(dx: np.ndarray, rows: slice, g: np.ndarray, da: np.ndarray, normed, std, gain) -> None:
    """Write the rows of x's gradient in ``x + f(LN(x))``: the output gradient
    g plus LayerNorm's input gradient for the gradient `da` of its output (da
    itself when there is no LayerNorm)."""
    if gain is None:
        np.add(g[rows], da, out=dx[rows])
    else:
        _layer_norm_input_grad(da, normed[rows], std[rows], gain, out=dx[rows])
        dx[rows] += g[rows]


def attention_sublayer(
    x: Tensor, state: BackboneState, layer: int, mask: np.ndarray, cache: DecodeCache | None = None
) -> Tensor:
    """One residual attention sublayer, ``x + o(attend(LN1(x)))`` for (N, P, D)
    x, as one tape node.

    It runs LN1, the q/k/v projections, the weights
    ``softmax(q kᵀ / sqrt(dh) + mask)`` of each head, the mix, the head merge,
    the output projection and the residual sum, with the numpy ops of their
    composition in the same order, one block of whole sequences at a time
    (``_row_blocks``).  `mask` is the additive (P, S) causal mask.  With a
    `cache`, the keys and values of the cached positions join this call's (a
    decode step), and the cache keeps the joined arrays.

    The node keeps only LN1's normalized input and std.  Its backward
    rebuilds, for each block of sequences, LN1's output, q, k and v (one GEMM
    each), the weights and the softmax backward, then the block's gradient of
    LN1's output and its rows of x's gradient, the residual's included.  It
    gathers LN1's output, the mix, q's, k's or v's gradient, or the gradient
    of LN1's output for every sequence only when a weight or gain that reads
    it trains, so each parameter gradient stays one GEMM or one reduction.
    The output and every gradient are bitwise the composition's.
    """
    N, P, D = x.data.shape
    H = state.config.heads
    dh = D // H
    scale = 1.0 / np.sqrt(dh)
    params = [state.params[f"layer{layer}.{name}"] for name in _ATTENTION]
    gain, bias, Wq, bq, Wk, bk, Wv, bv, Wo, bo = (t.data for t in params)
    past = cache.kv[layer][0].shape[2] if cache is not None and layer < len(cache.kv) else 0
    S = past + P
    # a sequence's working set at the backward's peak: three (H, P, S) arrays
    # (the weights, their gradient and the softmax backward's product) and
    # eight (P, D) or (S, D) ones
    blocks = _row_blocks(N, P * (3 * H * S + 8 * D))

    normed = np.empty_like(x.data)  # in x's layout, as LN1 would make it
    std = np.empty_like(normed[..., :1])
    out = np.empty((N, P, D))
    # a cache's keys and values for every sequence, the cached positions first
    joined = None if cache is None else [np.empty((N, S, D)) for _ in range(2)]
    if past:
        for j, kept in zip(joined, cache.kv[layer]):
            j[:, :past] = _merge(kept)
    for rows in blocks:
        a = _layer_norm(x.data[rows], gain, bias, normed=normed[rows], std=std[rows])[0]
        q = _heads(_affine(a, Wq, bq), H)
        if joined is None:
            k, v = (_heads(_affine(a, W, b), H) for W, b in ((Wk, bk), (Wv, bv)))
        else:
            for W, b, j in zip((Wk, Wv), (bk, bv), joined):
                _affine(a, W, b, out=j[rows, past:])
            k, v = (_heads(j[rows], H) for j in joined)
        del a
        weights = _attention_weights(q, k, mask, scale)
        del q, k
        mixed = weights @ v
        del weights, v
        _affine(_merge(mixed), Wo, bo, out=out[rows])
        del mixed
        out[rows] += x.data[rows]
    if cache is not None:
        kv = tuple(_heads(j, H) for j in joined)
        if past:
            cache.kv[layer] = kv
        else:
            cache.kv.append(kv)
    nodes = _input_nodes(x, *params)
    if nodes is None:
        return Tensor._result(out, (), None)
    nx, ngain, nbias = nodes[:3]
    projections = tuple(zip(nodes[3:9:2], nodes[4:9:2], (Wq, Wk, Wv), (bq, bk, bv)))
    nWo, nbo = nodes[9:]

    def _bw(g):
        # LN1's output for every sequence only for a projection weight that trains
        a = _ln_output(normed, gain, bias) if any(nW is not None for nW, _, _, _ in projections) else None
        mixed = None if nWo is None else np.empty((N, H, P, dh))
        # q's, k's and v's gradient for every sequence, kept for a projection
        # that trains, laid out as the matmuls that make them lay them out
        # (k's as qᵀ ds), so each merges into the composition's layout
        shapes = ((N, H, P, dh), (N, H, dh, P), (N, H, P, dh))
        gathered = [None if nW is None and nb is None else np.empty(s) for (nW, nb, _, _), s in zip(projections, shapes)]
        da = None if ngain is None and nbias is None else np.empty((N, P, D))
        dx = None if nx is None else np.empty((N, P, D))
        for rows in blocks:
            a_rows = _ln_output(normed, gain, bias, rows) if a is None else a[rows]
            q, k, v = (_heads(_affine(a_rows, W, b), H) for _, _, W, b in projections)
            del a_rows
            weights = _attention_weights(q, k, mask, scale)
            if mixed is not None:
                np.matmul(weights, v, out=mixed[rows])
            dmixed = _heads(g[rows] @ Wo.T, H)
            ds = dmixed @ np.swapaxes(v, -1, -2)
            del v
            _softmax_backward(ds, weights)
            ds *= scale
            factors = ((ds, k), (np.swapaxes(q, -1, -2), ds), (np.swapaxes(weights, -1, -2), dmixed))
            dq, dkT, dv = (np.matmul(*f, out=None if w is None else w[rows]) for f, w in zip(factors, gathered))
            del factors, ds, q, k, weights, dmixed
            # summed as (dq Wqᵀ + dk Wkᵀ) + dv Wvᵀ, the composition's order
            da_rows = np.matmul(_merge(dq), Wq.T, out=None if da is None else da[rows])
            del dq
            da_rows += _merge_keys(dkT) @ Wk.T
            del dkT
            da_rows += _merge(dv) @ Wv.T
            del dv
            if dx is not None:
                _residual_input_grad(dx, rows, g, da_rows, normed, std, gain)
            del da_rows
        _affine_grads(g, None if mixed is None else _merge(mixed), nWo, nbo, bo.shape)
        mixed = None
        for (nW, nb, _, b), d, merge in zip(projections, gathered, (_merge, _merge_keys, _merge)):
            _affine_grads(None if d is None else merge(d), a, nW, nb, b.shape)
        a = gathered = None
        if dx is not None:
            _accumulate(nx, dx)
            dx = None
        if da is not None:
            _layer_norm_grads(da, normed, std, gain, bias.shape, (None, ngain, nbias))

    return Tensor._result(out, nodes, _bw)


# the parameters of one transformer feedforward sublayer, in the order its node records them
_FFN = ("ln2.g", "ln2.b", "ffn.1.W", "ffn.1.b", "ffn.2.W", "ffn.2.b")


def ffn_sublayer(x: Tensor, params: list) -> Tensor:
    """One residual feedforward sublayer, ``x + gelu(LN2(x) @ W1 + b1) @ W2 + b2``
    for (N, P, D) x, as one tape node.

    `params` is ``[ln2.g, ln2.b, W1, b1, W2, b2]``, or ``[W1, b1, W2, b2]`` for
    a block without LN2 (the `mlp` backbone).  It runs LN2, the first linear
    layer, the GELU, the second linear layer and the residual sum with the
    numpy ops of their composition in the same order, one block of whole
    sequences at a time (``_row_blocks``), and computes no GELU derivative in
    the forward.  The node keeps only LN2's normalized input and std, or x
    itself without LN2.  Its backward rebuilds, for each block of sequences,
    LN2's output, the hidden layer (one GEMM) and the GELU derivative, then
    the block's gradient of LN2's output and its rows of x's gradient, the
    residual's included.  It gathers LN2's output, the GELU output, the
    hidden layer's gradient or the gradient of LN2's output for every
    sequence only when a weight, bias or gain that reads it trains, so each
    parameter gradient stays one GEMM or one reduction.  The output and every
    gradient are bitwise the composition's.
    """
    *ln2, W1, b1, W2, b2 = (t.data for t in params)
    gain, bias = ln2 or (None, None)
    N, P, D = x.data.shape
    F = W1.shape[1]
    # a sequence's working set at the backward's peak: four (P, F) arrays (the
    # GELU derivative, its temporaries and W2's product) and four (P, D) ones
    blocks = _row_blocks(N, P * (4 * F + 4 * D))
    # without LN2, x stands in for the normalized input the node keeps
    normed, std = (x.data, None) if gain is None else (np.empty_like(x.data), np.empty_like(x.data[..., :1]))
    out = np.empty((N, P, D))
    for rows in blocks:
        a = x.data[rows] if gain is None else _layer_norm(x.data[rows], gain, bias, normed=normed[rows], std=std[rows])[0]
        _affine(_gelu(_affine(a, W1, b1))[0], W2, b2, out=out[rows])
        del a
        out[rows] += x.data[rows]
    nodes = _input_nodes(x, *params)
    if nodes is None:
        return Tensor._result(out, (), None)
    nx, *ln2_nodes, nW1, nb1, nW2, nb2 = nodes
    ngain, nbias = ln2_nodes or (None, None)

    def _bw(g):
        # LN2's output for every sequence only when W1 trains
        a = None if nW1 is None else _ln_output(normed, gain, bias)
        hidden = None if nW2 is None else np.empty((N, P, F))
        dh = None if nW1 is None and nb1 is None else np.empty((N, P, F))
        da = None if ngain is None and nbias is None else np.empty((N, P, D))
        dx = None if nx is None else np.empty((N, P, D))
        for rows in blocks:
            h = _affine(_ln_output(normed, gain, bias, rows) if a is None else a[rows], W1, b1)
            gelu, deriv = _gelu(h, output=hidden is not None, derivative=True)
            del h
            if hidden is not None:
                hidden[rows] = gelu
            del gelu
            d = np.multiply(deriv, g[rows] @ W2.T, out=deriv if dh is None else dh[rows])
            del deriv
            if dx is not None or da is not None:
                da_rows = np.matmul(d, W1.T, out=None if da is None else da[rows])
                if dx is not None:
                    _residual_input_grad(dx, rows, g, da_rows, normed, std, gain)
                del da_rows
            del d
        _affine_grads(g, hidden, nW2, nb2, b2.shape)
        hidden = None
        _affine_grads(dh, a, nW1, nb1, b1.shape)
        a = dh = None
        if dx is not None:
            _accumulate(nx, dx)
            dx = None
        if da is not None:
            _layer_norm_grads(da, normed, std, gain, bias.shape, (None, ngain, nbias))

    return Tensor._result(out, nodes, _bw)


def backbone_forward(tokens: Tensor, state: BackboneState, cache: DecodeCache | None = None) -> Tensor:
    """(P, N, D) tokens -> (P, N, D) predictions; output p predicts patch p+1.

    With a `cache` (inference only, under no_grad), only positions
    cache.length .. P-1 run: their (P - cache.length, N, D) outputs are
    returned and the cache advances to P.
    """
    cfg = state.config
    P, N, D = tokens.data.shape
    if cfg.mode != "identity" and D != cfg.width:
        raise ValueError(f"token width {D} does not match backbone width {cfg.width}")
    if "transformer" in cfg.mode and P > cfg.max_positions:
        raise BackboneConfigError(
            f"sequence of {P} patches exceeds backbone.max_positions={cfg.max_positions}; "
            "use a shorter history, a larger w (days per patch) or a larger backbone.max_positions"
        )
    start = 0
    if cache is not None:
        if grad_enabled():
            raise DecodeCacheError(
                "a decode cache is for inference only: call backbone_forward under no_grad()"
            )
        start = cache.length
        if start >= P:
            raise DecodeCacheError(f"the cache already holds {start} positions of a {P}-patch sequence")
        tokens = tokens[start:]
        cache.length = P

    if cfg.mode == "identity":
        return tokens

    p = state.params
    x = transpose(tokens, (1, 0, 2))  # (N, P - start, D): one sequence per region

    if cfg.mode in ("frozen-transformer", "trainable-transformer"):
        x = add(x, p["pos_emb"][start:P])
        mask = _causal_mask(start, P)
        for layer in range(cfg.depth):
            x = attention_sublayer(x, state, layer, mask, cache)
            x = ffn_sublayer(x, [p[f"layer{layer}.{name}"] for name in _FFN])
        x = layer_norm(x, p["ln_f.g"], p["ln_f.b"])
    elif cfg.mode == "mlp":
        x = ffn_sublayer(x, [p["mlp.1.W"], p["mlp.1.b"], p["mlp.2.W"], p["mlp.2.b"]])
    elif cfg.mode == "rnn":
        h = constant(np.zeros((N, 1, D)) if cache is None or cache.h is None else cache.h)
        outs = []
        for t in range(P - start):
            xt = x[:, t : t + 1, :]
            z = sigmoid(add(add(matmul(xt, p["rnn.Wz"]), matmul(h, p["rnn.Uz"])), p["rnn.bz"]))
            r = sigmoid(add(add(matmul(xt, p["rnn.Wr"]), matmul(h, p["rnn.Ur"])), p["rnn.br"]))
            cand = tanh(add(add(matmul(xt, p["rnn.Wh"]), matmul(mul(r, h), p["rnn.Uh"])), p["rnn.bh"]))
            one_minus_z = add(mul(z, -1.0), 1.0)
            h = add(mul(one_minus_z, h), mul(z, cand))
            outs.append(h)
        if cache is not None:
            cache.h = h.data
        x = concat(outs, axis=1)

    return transpose(x, (1, 0, 2))
