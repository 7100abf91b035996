"""Swappable sequence backbone performing next-token prediction over patches.

The default is a randomly initialized, frozen, pre-norm causal transformer:
every parameter carries frozen=True, so gradients flow through it to the
projectors and prompts but no optimizer step ever touches it.  Variants for
ablations: the same transformer trainable, a position-wise feedforward block,
a single gated recurrent layer, and a pure identity.

Each region's patch-token sequence is processed as an independent batch item;
causal masking guarantees the output at position p depends only on positions
<= p, and that output is read as the prediction for patch p+1.

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

from .serialize import load_tensors, save_tensors
from .tensor import (
    Parameter,
    Tensor,
    add,
    concat,
    constant,
    gelu,
    grad_enabled,
    layer_norm,
    linear,
    matmul,
    mul,
    reshape,
    sigmoid,
    softmax,
    tanh,
    transpose,
)

MODES = ("frozen-transformer", "trainable-transformer", "mlp", "rnn", "identity")


class BackboneConfigError(ValueError):
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
            param.zero_grad()
    return state


def _causal_mask(P: int) -> np.ndarray:
    mask = np.zeros((P, P))
    mask[np.triu_indices(P, k=1)] = -np.inf
    return mask


def _attention(
    x: Tensor, state: BackboneState, layer: int, mask: Tensor, cache: DecodeCache | None
) -> Tensor:
    cfg = state.config
    N, P, D = x.data.shape
    H = cfg.heads
    dh = D // H
    p = state.params

    def proj(nm):
        return linear(x, p[f"layer{layer}.attn.{nm}.W"], p[f"layer{layer}.attn.{nm}.b"])

    def split(t):  # (N, P, D) -> (N, H, P, dh)
        return transpose(reshape(t, (N, P, H, dh)), (0, 2, 1, 3))

    q, k, v = split(proj("q")), split(proj("k")), split(proj("v"))
    if cache is not None:
        if layer < len(cache.kv):  # decode: attend to the cached positions too
            k_past, v_past = cache.kv[layer]
            k = constant(np.concatenate([k_past, k.data], axis=2))
            v = constant(np.concatenate([v_past, v.data], axis=2))
            cache.kv[layer] = (k.data, v.data)
        else:  # prefill
            cache.kv.append((k.data, v.data))
    scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    weights = softmax(add(scores, mask))
    mixed = matmul(weights, v)  # (N, H, P, dh)
    merged = reshape(transpose(mixed, (0, 2, 1, 3)), (N, P, D))
    return linear(merged, p[f"layer{layer}.attn.o.W"], p[f"layer{layer}.attn.o.b"])


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
        mask = constant(_causal_mask(P)[start:])
        for layer in range(cfg.depth):
            attn_in = layer_norm(x, p[f"layer{layer}.ln1.g"], p[f"layer{layer}.ln1.b"])
            x = add(x, _attention(attn_in, state, layer, mask, cache))
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
