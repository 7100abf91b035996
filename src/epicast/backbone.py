"""Swappable sequence backbone performing next-token prediction over patches.

The default is a randomly initialized, frozen, pre-norm causal transformer:
every parameter is a constant (frozen=True) that holds no gradient and that no
optimizer step ever touches, while gradients still flow through its layers to
the projectors and prompts.  Variants for ablations: the same transformer
trainable, a position-wise feedforward block, a single gated recurrent layer,
and a pure identity.

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
cut to the rows of the positions run.

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
from .serialize import load_tensors, save_tensors
from .tensor import (
    Parameter,
    Tensor,
    _affine,
    _affine_grads,
    _exp_normalize,
    _input_nodes,
    _layer_norm,
    _layer_norm_grads,
    _softmax_backward,
    add,
    concat,
    constant,
    gelu,
    grad_enabled,
    layer_norm,
    linear,
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

    def n_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

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

    `weights_path` optionally points at an exported flat weight file whose
    tensors replace the seeded ones (names and shapes must match).
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
        for name, param in state.params.items():
            full = f"backbone.{name}"
            if full not in tensors and name not in tensors:
                raise BackboneConfigError(f"weight file missing tensor {full!r}")
            arr = tensors.get(full, tensors.get(name))
            if arr.shape != param.data.shape:
                raise BackboneConfigError(
                    f"weight {full!r} has shape {arr.shape}, expected {param.data.shape}"
                )
            param.data = arr.astype(np.float64)
    return state


def _causal_mask(start: int, P: int) -> np.ndarray:
    """The additive mask of the queries at positions start..P-1 over the keys
    0..P-1: -inf where a key comes after its query, 0 elsewhere."""
    return np.where(np.arange(P) > np.arange(start, P)[:, None], -np.inf, 0.0)


# the parameters of one attention sublayer, in the order its node records them
_ATTENTION = ("ln1.g", "ln1.b", *(f"attn.{nm}.{wb}" for nm in "qkvo" for wb in "Wb"))


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
    step), and the cache keeps the joined arrays.

    The node keeps only LN1's normalized input and std.  Its backward rebuilds
    LN1's output, q, k and v (one GEMM each) and the weights, and the merged
    heads only when the output projection's weight needs a gradient, then
    runs the composed ops' backward expressions, freeing each rebuilt array
    once read, so the output and every gradient are bitwise the composition's.
    """
    N, P, D = x.data.shape
    H = state.config.heads
    dh = D // H
    scale = 1.0 / np.sqrt(dh)
    params = [state.params[f"layer{layer}.{name}"] for name in _ATTENTION]
    gain, bias, Wq, bq, Wk, bk, Wv, bv, Wo, bo = (t.data for t in params)

    def heads(t):  # (N, P, D) -> (N, H, P, dh)
        return t.reshape(N, P, H, dh).transpose(0, 2, 1, 3)

    def merge(t):  # (N, H, P, dh) -> (N, P, D)
        return t.transpose(0, 2, 1, 3).reshape(N, P, D)

    a, normed, std = _layer_norm(x.data, gain, bias)
    q, k, v = (heads(_affine(a, W, b)) for W, b in ((Wq, bq), (Wk, bk), (Wv, bv)))
    del a
    if cache is not None:
        if layer < len(cache.kv):  # decode: attend to the cached positions too
            k_past, v_past = cache.kv[layer]
            k, v = np.concatenate([k_past, k], axis=2), np.concatenate([v_past, v], axis=2)
            cache.kv[layer] = (k, v)
        else:  # prefill
            cache.kv.append((k, v))
    out = _affine(merge(_attention_weights(q, k, mask, scale) @ v), Wo, bo)
    nodes = _input_nodes(x, *params)
    if nodes is None:
        return Tensor._result(out, (), None)
    projections = tuple(zip(nodes[3:9:2], nodes[4:9:2], (Wq, Wk, Wv), (bq, bk, bv)))
    nWo, nbo = nodes[9:]

    def _bw(g):
        a = normed * gain
        a += bias
        q, k, v = (heads(_affine(a, W, b)) for _, _, W, b in projections)
        if all(nW is None for nW, _, _, _ in projections):
            a = None
        weights = _attention_weights(q, k, mask, scale)
        _affine_grads(g, None if nWo is None else merge(weights @ v), nWo, nbo, bo.shape)
        dmixed = heads(g @ Wo.T)
        dv = merge(np.swapaxes(weights, -1, -2) @ dmixed)
        ds = dmixed @ np.swapaxes(v, -1, -2)
        dmixed = v = None
        _softmax_backward(ds, weights)
        weights = None
        ds *= scale
        dq = merge(ds @ k)
        dk = merge(np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2))
        ds = q = k = None
        da = None
        for (nW, nb, W, b), d in zip(projections, (dq, dk, dv)):
            _affine_grads(d, a, nW, nb, b.shape)
            # summed as (dq Wqᵀ + dk Wkᵀ) + dv Wvᵀ, the composition's order
            da = d @ W.T if da is None else np.add(da, d @ W.T, out=da)
        _layer_norm_grads(da, normed, std, gain, bias.shape, nodes[:3])

    return Tensor._result(out, nodes, _bw)


def backbone_forward(tokens: Tensor, state: BackboneState, cache: DecodeCache | None = None) -> Tensor:
    """(P, N, D) tokens -> (P, N, D) predictions; output p predicts patch p+1.

    With a `cache` (inference only, under no_grad), only positions
    cache.length .. P-1 run: their (P - cache.length, N, D) outputs are
    returned and the cache advances to P.
    """
    cfg = state.config
    if tokens.data.ndim != 3:
        raise ValueError(f"expected (P, N, D) tokens, got shape {tokens.data.shape}")
    P, N, D = tokens.data.shape
    if P < 1:
        raise ValueError("need at least one patch")
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
            ffn_in = layer_norm(x, p[f"layer{layer}.ln2.g"], p[f"layer{layer}.ln2.b"])
            h = gelu(linear(ffn_in, p[f"layer{layer}.ffn.1.W"], p[f"layer{layer}.ffn.1.b"]))
            h = linear(h, p[f"layer{layer}.ffn.2.W"], p[f"layer{layer}.ffn.2.b"])
            x = add(x, h)
        x = layer_norm(x, p["ln_f.g"], p["ln_f.b"])
    elif cfg.mode == "mlp":
        h = gelu(linear(x, p["mlp.1.W"], p["mlp.1.b"]))
        x = add(x, linear(h, p["mlp.2.W"], p["mlp.2.b"]))
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
