"""Swappable sequence backbone performing next-token prediction over patches.

The default is a randomly initialized, frozen, pre-norm causal transformer:
every parameter is a constant (frozen=True) that holds no gradient and that no
optimizer step ever touches, while gradients still flow through its layers to
the projectors and prompts.  Variants for ablations: the same transformer
trainable, a position-wise feedforward block (the transformer's feedforward
node without LN2, plus the residual), a single gated recurrent layer, and a
pure identity.

Each region's patch-token sequence is processed as an independent batch item;
causal masking guarantees the output at position p depends only on positions
<= p, and that output is read as the prediction for patch p+1.  Each
attention sublayer (LN1, the q/k/v projections, the weights
``softmax(q kᵀ / sqrt(dh) + mask)``, the mix, the head merge and the output
projection) is one tape node, ``attention_sublayer``, in training,
validation and cached decoding alike.  It keeps only LN1's normalized input
and rebuilds the rest in its backward, recomputing attention instead of
storing it as activation checkpointing does (Chen et al., arXiv 1604.06174;
FlashAttention, arXiv 2205.14135), so no q, k, v or (N, heads, P, P) weights
reach the tape.  The causal mask is a plain array, -inf above the diagonal,
cut to the rows of the positions run.  Each feedforward sublayer (LN2,
``ffn.1``, the GELU and ``ffn.2``) is one node too, ``ffn_sublayer``, and the
`mlp` backbone is that node without LN2 (``mlp.1``, the GELU, ``mlp.2``).  It
keeps only LN2's normalized input, or without LN2 its input, and rebuilds the
hidden layer, the GELU derivative and, when the second linear layer trains,
the GELU output in its backward (selective recomputation, Korthikanti et al.,
arXiv 2205.05198), so no (N, P, ffn_mult * D) array reaches the tape.

Past LN1 and LN2, both nodes build their wide arrays one block of whole
sequences (regions) at a time, about 32,768 elements a block, in the forward
and in the backward: the (N, heads, P, S) weights and the (N, P,
ffn_mult * D) hidden layer are never built in full (chunked attention, Rabe
and Staats, arXiv 2112.05682; chunked feedforward, Reformer, arXiv
2001.04451).  Each block's result is written into its rows of the whole
with ``out=``.  Blocks split N only, so each sequence runs the same GEMMs it
runs unblocked, and every result is bitwise unchanged.

Inference decodes incrementally, the way language models serve next-token
prediction.  A ``DecodeCache`` remembers how many positions of a growing
sequence have run and what later positions need from them: each transformer
layer's keys and values, or the recurrent hidden state.  The first call
prefills the whole context, computing exactly what a call without a cache
computes; each later call runs only the positions appended since.  Positions
stay absolute (``pos_emb[p]``), so a cached prefix is valid only while the
sequence grows at its end.  Cached arrays have no tape behind them, so a
cache is refused while gradients are recorded.
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
    """``softmax(q @ kᵀ * scale + mask)`` over the last axis, in one new array."""
    s = q @ np.swapaxes(k, -1, -2)
    s *= scale
    s += mask
    s -= s.max(axis=-1, keepdims=True)
    return _exp_normalize(s)


def attention_sublayer(
    x: Tensor, state: BackboneState, layer: int, mask: np.ndarray, cache: DecodeCache | None = None
) -> Tensor:
    """One attention sublayer, ``o(attend(LN1(x)))`` for (N, P, D) x, as one tape node.

    It runs LN1, the q/k/v projections, the weights
    ``softmax(q kᵀ / sqrt(dh) + mask)`` of each head, the mix, the head merge
    and the output projection, with the numpy ops of their composition in the
    same order.  `mask` is the additive (P, S) causal mask.  With a `cache`,
    the keys and values of the cached positions join this call's (a decode
    step), and the cache keeps the joined arrays.  The weights and the mix
    run one block of whole sequences at a time (``_row_blocks``), so no
    (N, heads, P, S) array is built.

    The node keeps only LN1's normalized input and std.  Its backward rebuilds
    LN1's output, then for each block of sequences q, k and v (one GEMM
    each), the weights and the softmax backward, and writes the block's rows
    of the gradient of LN1's output.  It keeps the mix, or q's, k's or v's
    gradient, for every sequence only when the output projection, or that
    projection, trains, so each weight gradient stays one GEMM.  The output
    and every gradient are bitwise the composition's.
    """
    N, P, D = x.data.shape
    H = state.config.heads
    dh = D // H
    scale = 1.0 / np.sqrt(dh)
    params = [state.params[f"layer{layer}.{name}"] for name in _ATTENTION]
    gain, bias, Wq, bq, Wk, bk, Wv, bv, Wo, bo = (t.data for t in params)

    a, normed, std = _layer_norm(x.data, gain, bias)
    q, k, v = (_heads(_affine(a, W, b), H) for W, b in ((Wq, bq), (Wk, bk), (Wv, bv)))
    del a
    if cache is not None:
        if layer < len(cache.kv):  # decode: attend to the cached positions too
            k_past, v_past = cache.kv[layer]
            k, v = np.concatenate([k_past, k], axis=2), np.concatenate([v_past, v], axis=2)
            cache.kv[layer] = (k, v)
        else:  # prefill
            cache.kv.append((k, v))
    blocks = _row_blocks(N, H * P * k.shape[2])
    mixed = np.empty(q.shape)
    for rows in blocks:
        np.matmul(_attention_weights(q[rows], k[rows], mask, scale), v[rows], out=mixed[rows])
    out = _affine(_merge(mixed), Wo, bo)
    del mixed
    nodes = _input_nodes(x, *params)
    if nodes is None:
        return Tensor._result(out, (), None)
    projections = tuple(zip(nodes[3:9:2], nodes[4:9:2], (Wq, Wk, Wv), (bq, bk, bv)))
    nWo, nbo = nodes[9:]

    def _bw(g):
        a = normed * gain
        a += bias
        mixed = None if nWo is None else np.empty((N, H, P, dh))
        # q's, k's and v's gradient for every sequence, kept for a projection
        # that trains, laid out as the matmuls that make them lay them out
        # (k's as qᵀ ds), so each merges into the composition's layout
        shapes = ((N, H, P, dh), (N, H, dh, P), (N, H, P, dh))
        gathered = [None if nW is None and nb is None else np.empty(s) for (nW, nb, _, _), s in zip(projections, shapes)]
        da = np.empty((N, P, D))
        for rows in blocks:
            q, k, v = (_heads(_affine(a[rows], W, b), H) for _, _, W, b in projections)
            weights = _attention_weights(q, k, mask, scale)
            if mixed is not None:
                np.matmul(weights, v, out=mixed[rows])
            dmixed = _heads(g[rows] @ Wo.T, H)
            ds = dmixed @ np.swapaxes(v, -1, -2)
            v = None
            _softmax_backward(ds, weights)
            ds *= scale
            factors = ((ds, k), (np.swapaxes(q, -1, -2), ds), (np.swapaxes(weights, -1, -2), dmixed))
            dq, dkT, dv = (np.matmul(*f, out=None if w is None else w[rows]) for f, w in zip(factors, gathered))
            factors = ds = q = k = weights = dmixed = None
            # summed as (dq Wqᵀ + dk Wkᵀ) + dv Wvᵀ, the composition's order
            da_rows = np.matmul(_merge(dq), Wq.T, out=da[rows])
            da_rows += _merge_keys(dkT) @ Wk.T
            da_rows += _merge(dv) @ Wv.T
        _affine_grads(g, None if mixed is None else _merge(mixed), nWo, nbo, bo.shape)
        mixed = None
        for (nW, nb, _, b), d, merge in zip(projections, gathered, (_merge, _merge_keys, _merge)):
            _affine_grads(None if d is None else merge(d), a, nW, nb, b.shape)
        a = gathered = None
        _layer_norm_grads(da, normed, std, gain, bias.shape, nodes[:3])

    return Tensor._result(out, nodes, _bw)


# the parameters of one transformer feedforward sublayer, in the order its node records them
_FFN = ("ln2.g", "ln2.b", "ffn.1.W", "ffn.1.b", "ffn.2.W", "ffn.2.b")


def ffn_sublayer(x: Tensor, params: list) -> Tensor:
    """One feedforward sublayer, ``gelu(LN2(x) @ W1 + b1) @ W2 + b2`` for (N, P, D)
    x, as one tape node.

    `params` is ``[ln2.g, ln2.b, W1, b1, W2, b2]``, or ``[W1, b1, W2, b2]`` for
    a block without LN2 (the `mlp` backbone).  It runs LN2, the first linear
    layer, the GELU and the second linear layer with the numpy ops of their
    composition in the same order, one block of whole sequences at a time
    (``_row_blocks``) past LN2, so no (N, P, ffn_mult * D) array is built, and
    computes no GELU derivative in the forward.  The node keeps only LN2's
    normalized input and std, or x itself without LN2.  Its backward rebuilds
    LN2's output, then for each block of sequences the hidden layer (one
    GEMM), the GELU derivative and the block's gradient of LN2's output.  It
    gathers the GELU output over every sequence only when W2 needs a
    gradient, and the hidden layer's gradient only when W1 or b1 does, so
    each weight gradient stays one GEMM.  The output and every gradient are
    bitwise the composition's.
    """
    *ln2, W1, b1, W2, b2 = (t.data for t in params)
    gain, bias = ln2 or (None, None)
    # without LN2, x stands in for the normalized input the node keeps
    a, normed, std = (x.data, x.data, None) if gain is None else _layer_norm(x.data, gain, bias)
    N, P, D = a.shape
    F = W1.shape[1]
    blocks = _row_blocks(N, P * F)
    out = np.empty((N, P, D))
    for rows in blocks:
        _affine(_gelu(_affine(a[rows], W1, b1))[0], W2, b2, out=out[rows])
    del a
    nodes = _input_nodes(x, *params)
    if nodes is None:
        return Tensor._result(out, (), None)
    nW1, nb1, nW2, nb2 = nodes[-4:]

    def _bw(g):
        if gain is None:
            a = normed
        else:
            a = normed * gain
            a += bias
        hidden = None if nW2 is None else np.empty((N, P, F))
        dh = None if nW1 is None and nb1 is None else np.empty((N, P, F))
        da = np.empty((N, P, D))
        for rows in blocks:
            h = _affine(a[rows], W1, b1)
            gelu, deriv = _gelu(h, output=hidden is not None, derivative=True)
            h = None
            if hidden is not None:
                hidden[rows] = gelu
            gelu = None
            d = np.multiply(deriv, g[rows] @ W2.T, out=deriv if dh is None else dh[rows])
            np.matmul(d, W1.T, out=da[rows])
            d = deriv = None
        _affine_grads(g, hidden, nW2, nb2, b2.shape)
        hidden = None
        _affine_grads(dh, a, nW1, nb1, b1.shape)
        a = dh = None
        if gain is not None:
            _layer_norm_grads(da, normed, std, gain, bias.shape, nodes[:3])
        elif nodes[0] is not None:
            _accumulate(nodes[0], da)

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
            x = add(x, attention_sublayer(x, state, layer, mask, cache))
            x = add(x, ffn_sublayer(x, [p[f"layer{layer}.{name}"] for name in _FFN]))
        x = layer_norm(x, p["ln_f.g"], p["ln_f.b"])
    elif cfg.mode == "mlp":
        x = add(x, ffn_sublayer(x, [p["mlp.1.W"], p["mlp.1.b"], p["mlp.2.W"], p["mlp.2.b"]]))
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
