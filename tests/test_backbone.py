"""Backbone modes: determinism, causality, freezing, weight files."""

import tracemalloc

import numpy as np
import pytest
from composed_reference import attention_sublayer as composed_attention_sublayer
from composed_reference import ffn_sublayer as composed_ffn_sublayer
from gradcheck import grad_check
from hypothesis import given, settings
from hypothesis import strategies as st

import epicast.backbone as backbone_mod
from epicast.backbone import (
    MODES,
    BackboneConfig,
    BackboneConfigError,
    DecodeCache,
    DecodeCacheError,
    _ATTENTION,
    _FFN,
    _causal_mask,
    attention_sublayer,
    backbone_forward,
    build_backbone,
    ffn_sublayer,
)
from epicast.model import ModelConfig, build_model, save_checkpoint
from epicast.tensor import Parameter, Tensor, _row_blocks, add, constant, mul, no_grad, tsum


def _tokens(P=5, N=3, D=8, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(P, N, D)))


def test_identity_mode_returns_input():
    cfg = BackboneConfig(mode="identity")
    state = build_backbone(cfg)
    tokens = _tokens()
    out = backbone_forward(tokens, state)
    np.testing.assert_array_equal(out.data, tokens.data)
    assert sum(p.data.size for p in state.parameters()) == 0


@pytest.mark.parametrize("P", [1, 2, 5, 16])
def test_causal_mask_builds_only_the_rows_that_run(P):
    """The mask of the queries from `start` on is those rows of the full P x P
    mask, bit for bit: 0 up to the query's own position, -inf after it."""
    full = np.triu(np.full((P, P), -np.inf), k=1)
    for start in range(P):
        assert _causal_mask(start, P).tobytes() == full[start:].tobytes()
        assert _causal_mask(start, P).shape == (P - start, P)


@pytest.mark.parametrize("mode", ["frozen-transformer", "trainable-transformer", "mlp", "rnn"])
def test_causal_masking_is_exact(mode):
    cfg = BackboneConfig(mode=mode, depth=2, width=8, heads=2, seed=3)
    state = build_backbone(cfg)
    base = _tokens(P=6, N=2, D=8, seed=1)
    out_base = backbone_forward(base, state).data.copy()
    for p in range(1, 6):
        bumped = base.data.copy()
        bumped[p] += 10.0
        out = backbone_forward(Tensor(bumped), state).data
        assert np.array_equal(out[:p], out_base[:p]), f"{mode}: leak into positions < {p}"
        assert not np.array_equal(out[p:], out_base[p:])


def test_single_patch_shape():
    cfg = BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2)
    out = backbone_forward(_tokens(P=1, N=4, D=8), build_backbone(cfg))
    assert out.data.shape == (1, 4, 8)


def test_same_seed_same_bytes():
    cfg = BackboneConfig(mode="frozen-transformer", depth=2, width=16, heads=4, seed=9)
    a = build_backbone(cfg)
    b = build_backbone(cfg)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert pa.data.tobytes() == pb.data.tobytes()


def test_frozen_mode_has_zero_trainable():
    state = build_backbone(BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2))
    assert all(p.frozen for p in state.parameters())
    trainable = sum(p.data.size for p in state.parameters() if not p.frozen)
    assert trainable == 0


@pytest.mark.parametrize("mode", ["trainable-transformer", "mlp", "rnn"])
def test_other_modes_are_trainable(mode):
    state = build_backbone(BackboneConfig(mode=mode, depth=1, width=8, heads=2))
    assert all(not p.frozen for p in state.parameters())
    assert sum(p.data.size for p in state.parameters()) > 0


def test_width_sweep_grows_param_count():
    configs = [BackboneConfig(mode="frozen-transformer", depth=2, width=w, heads=4) for w in (64, 128, 256)]
    counts = [sum(p.data.size for p in build_backbone(cfg).parameters()) for cfg in configs]
    assert counts[0] < counts[1] < counts[2]


def test_invalid_heads_width_combo():
    with pytest.raises(BackboneConfigError):
        BackboneConfig(mode="frozen-transformer", width=10, heads=4)
    with pytest.raises(BackboneConfigError):
        BackboneConfig(mode="rocket-ship")


@pytest.mark.parametrize("bad", [{"seed": -5}, {"max_positions": 0}, {"max_positions": -1}])
def test_backbone_config_rejects_out_of_range_seed_and_positions(bad):
    with pytest.raises(BackboneConfigError):
        BackboneConfig(**bad)


def test_gradients_flow_through_frozen_layers():
    C = constant(np.random.default_rng(3).normal(size=(4, 3, 8)))
    states, grads = {}, {}
    for mode in ("frozen-transformer", "trainable-transformer"):  # same seed, same weights
        states[mode] = build_backbone(BackboneConfig(mode=mode, depth=2, width=8, heads=2, seed=5))
        upstream = Parameter(np.random.default_rng(2).normal(size=(4, 3, 8)), name="upstream")
        tsum(mul(backbone_forward(upstream, states[mode]), C)).backward()
        grads[mode] = upstream.grad
    # frozen weights are constants: they hold no gradient, yet pass the upstream
    # gradient through exactly as the same weights trainable do
    frozen = states["frozen-transformer"].parameters()
    assert frozen and all(p.frozen and p.grad is None for p in frozen)
    assert all(p.grad is not None for p in states["trainable-transformer"].parameters())
    assert np.any(grads["frozen-transformer"] != 0)
    assert grads["frozen-transformer"].tobytes() == grads["trainable-transformer"].tobytes()


def test_sequence_longer_than_positions_rejected():
    cfg = BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2, max_positions=4)
    with pytest.raises(BackboneConfigError, match="5 patches exceeds backbone.max_positions=4"):
        backbone_forward(_tokens(P=5), build_backbone(cfg))


def test_width_mismatch_rejected():
    cfg = BackboneConfig(mode="mlp", width=16)
    with pytest.raises(ValueError):
        backbone_forward(_tokens(P=3, D=8), build_backbone(cfg))


@pytest.mark.parametrize("mode", ["trainable-transformer", "mlp", "rnn"])
def test_backbone_gradient_matches_finite_differences(mode):
    cfg = BackboneConfig(mode=mode, depth=1, width=4, heads=2, seed=7)
    state = build_backbone(cfg)
    tokens = Parameter(np.random.default_rng(4).normal(size=(3, 2, 4)), name="tokens")
    C = constant(np.random.default_rng(5).normal(size=(3, 2, 4)))
    params = [tokens] + state.parameters()

    def loss():
        return tsum(mul(backbone_forward(tokens, state), C))

    report = grad_check(loss, params)
    assert report.max_rel_error < 1e-4, report.per_param


def test_weight_file_round_trip(tmp_path):
    cfg = BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=11)
    state = build_backbone(cfg)
    tokens = _tokens(P=4, N=2, D=8, seed=6)
    out_before = backbone_forward(tokens, state).data
    exported, checkpoint = tmp_path / "weights.bin", tmp_path / "checkpoint.bin"
    state.export_weights(exported)  # short tensor names
    save_checkpoint(build_model(ModelConfig(n_regions=2, width=8), cfg), checkpoint)  # backbone.<name>

    for path in (exported, checkpoint):
        rebuilt = build_backbone(BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=999), weights_path=path)
        for p, q in zip(state.parameters(), rebuilt.parameters(), strict=True):
            assert p.name == q.name
            np.testing.assert_array_equal(p.data, q.data)
        out_after = backbone_forward(tokens, rebuilt).data
        np.testing.assert_array_equal(out_before, out_after)


def test_weight_file_shape_mismatch(tmp_path):
    state = build_backbone(BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2))
    path = tmp_path / "weights.bin"
    state.export_weights(path)
    with pytest.raises(BackboneConfigError):
        build_backbone(BackboneConfig(mode="frozen-transformer", depth=1, width=16, heads=2), weights_path=path)


# -- incremental decoding --------------------------------------------------------------------


def _decode(tokens, state, cuts):
    """Run `tokens` through one cache, one call per prefix end in `cuts`; concatenate the outputs."""
    cache = DecodeCache()
    with no_grad():
        outs = [backbone_forward(Tensor(tokens.data[:end]), state, cache).data for end in cuts]
    assert cache.length == cuts[-1]
    return outs


def _assert_close_to_largest(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), np.max(np.abs(got - want))


@pytest.mark.parametrize("mode", MODES)
def test_prefill_then_decode_matches_full_forward(mode):
    state = build_backbone(BackboneConfig(mode=mode, depth=2, width=8, heads=2, seed=3))
    context, steps = 5, 8
    tokens = _tokens(P=context + steps, N=3, D=8, seed=2)
    outs = _decode(tokens, state, list(range(context, context + steps + 1)))
    full = backbone_forward(tokens, state).data
    assert [o.shape[0] for o in outs] == [context] + [1] * steps
    prefix = backbone_forward(Tensor(tokens.data[:context]), state).data
    assert outs[0].tobytes() == prefix.tobytes()  # the prefill is the no-cache forward
    decoded = np.concatenate(outs, axis=0)
    if mode in ("rnn", "identity"):
        assert decoded.tobytes() == full.tobytes()
    else:
        _assert_close_to_largest(decoded, full)


@given(
    mode=st.sampled_from(MODES),
    n=st.integers(min_value=1, max_value=3),
    chunks=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_causal_prefix_property(mode, n, chunks, seed):
    """Outputs at positions < p depend only on tokens < p, so a cached prefix stays valid."""
    state = build_backbone(BackboneConfig(mode=mode, depth=2, width=4, heads=2, seed=seed % 5))
    cuts = list(np.cumsum(chunks))
    tokens = _tokens(P=cuts[-1], N=n, D=4, seed=seed)
    full = backbone_forward(tokens, state).data
    for end in cuts:  # a no-cache forward over any prefix is that prefix of the full forward
        _assert_close_to_largest(backbone_forward(Tensor(tokens.data[:end]), state).data, full[:end])
    decoded = np.concatenate(_decode(tokens, state, cuts), axis=0)
    _assert_close_to_largest(decoded, full)
    if mode in ("rnn", "identity"):
        assert decoded.tobytes() == full.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_cache_refused_while_the_tape_records(mode):
    state = build_backbone(BackboneConfig(mode=mode, depth=1, width=8, heads=2))
    cache = DecodeCache()
    with pytest.raises(DecodeCacheError, match="inference only"):
        backbone_forward(_tokens(P=3, D=8), state, cache)
    assert cache == DecodeCache()


def test_cache_with_no_new_position_refused():
    state = build_backbone(BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2))
    cache = DecodeCache()
    with no_grad():
        backbone_forward(_tokens(P=3, D=8), state, cache)
        with pytest.raises(DecodeCacheError, match="already holds 3 positions of a 3-patch"):
            backbone_forward(_tokens(P=3, D=8), state, cache)


def test_decode_past_max_positions_rejected():
    cfg = BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2, max_positions=4)
    state = build_backbone(cfg)
    tokens = _tokens(P=5, D=8)
    cache = DecodeCache()
    with no_grad():
        backbone_forward(Tensor(tokens.data[:4]), state, cache)
        with pytest.raises(BackboneConfigError, match="5 patches exceeds backbone.max_positions=4"):
            backbone_forward(tokens, state, cache)


def _blocks_of(rows):
    """A ``_row_blocks`` that cuts `rows` sequences a block, whatever their size."""
    return lambda n, row_size: [slice(i, i + rows) for i in range(0, n, rows)]


def _residual(sublayer):
    """``x + sublayer(x, ...)`` composed with an ``add`` node."""
    return lambda x, *args: add(x, sublayer(x, *args))


def _random_backbone(mode, width, heads, positions, rng, ffn_mult=4):
    """A one-layer transformer with every parameter drawn, gains and biases too."""
    cfg = BackboneConfig(mode=mode, depth=1, width=width, heads=heads, max_positions=positions, ffn_mult=ffn_mult)
    state = build_backbone(cfg)
    for p in state.parameters():
        p.data = rng.normal(size=p.data.shape)
    return state


@given(
    trainable=st.booleans(),
    n=st.integers(min_value=1, max_value=4),
    positions=st.integers(min_value=1, max_value=7),
    heads=st.integers(min_value=1, max_value=3),
    dh=st.integers(min_value=1, max_value=4),
    transposed=st.booleans(),
    magnitude=st.floats(min_value=1e-3, max_value=1e3),
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_attention_sublayer_is_bitwise_the_composed_ops(
    trainable, n, positions, heads, dh, transposed, magnitude, rows, seed
):
    """The fused residual sublayer's output, x's gradient and, when trainable,
    the gradients of ln1.g, ln1.b and the q/k/v/o weights and biases are
    bitwise those of LN1, the projections, attention_weights, the mix, the
    merge and the residual add composed from one tape node each, run `rows`
    sequences at a time: one block when rows >= n, else several, the last one
    ragged when rows does not divide n."""
    rng = np.random.default_rng(seed)
    mode = "trainable-transformer" if trainable else "frozen-transformer"
    width = heads * dh
    x_data = rng.normal(size=(positions, n, width)) * magnitude
    x_data = x_data.transpose(1, 0, 2) if transposed else np.ascontiguousarray(x_data.transpose(1, 0, 2))
    g = rng.normal(size=(n, positions, width))
    params_rng = rng.bit_generator.state

    def run(sublayer):
        rng.bit_generator.state = params_rng
        state = _random_backbone(mode, width, heads, positions, rng)
        x = Parameter(x_data, name="x")
        out = sublayer(x, state, 0, _causal_mask(0, positions))
        tsum(mul(out, constant(g))).backward()
        return [out.data, x.grad] + [state.params[f"layer0.{name}"].grad for name in _ATTENTION if trainable]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backbone_mod, "_row_blocks", _blocks_of(rows))
        fused = run(attention_sublayer)
    composed = run(_residual(composed_attention_sublayer))
    for got, want in zip(fused, composed):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(
    trainable=st.booleans(),
    ln2=st.booleans(),
    n=st.integers(min_value=1, max_value=4),
    positions=st.integers(min_value=1, max_value=7),
    width=st.integers(min_value=1, max_value=9),
    ffn_mult=st.integers(min_value=1, max_value=4),
    transposed=st.booleans(),
    magnitude=st.floats(min_value=1e-3, max_value=1e3),
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_ffn_sublayer_is_bitwise_the_composed_ops(
    trainable, ln2, n, positions, width, ffn_mult, transposed, magnitude, rows, seed
):
    """The fused residual sublayer's output, x's gradient and, when trainable,
    the gradients of ln2.g and ln2.b (with LN2) and of both linear layers'
    weights and biases are bitwise those of LN2 (with LN2; the `mlp` backbone
    has none), linear, gelu, linear and the residual add composed from one
    tape node each, run `rows` sequences at a time: one block when rows >= n,
    else several, the last one ragged when rows does not divide n."""
    rng = np.random.default_rng(seed)
    mode = "trainable-transformer" if trainable else "frozen-transformer"
    names = _FFN if ln2 else _FFN[2:]
    x_data = rng.normal(size=(positions, n, width)) * magnitude
    x_data = x_data.transpose(1, 0, 2) if transposed else np.ascontiguousarray(x_data.transpose(1, 0, 2))
    g = rng.normal(size=(n, positions, width))
    params_rng = rng.bit_generator.state

    def run(sublayer):
        rng.bit_generator.state = params_rng
        state = _random_backbone(mode, width, 1, positions, rng, ffn_mult)
        params = [state.params[f"layer0.{name}"] for name in names]
        x = Parameter(x_data, name="x")
        out = sublayer(x, params)
        tsum(mul(out, constant(g))).backward()
        return [out.data, x.grad] + [p.grad for p in params if trainable]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backbone_mod, "_row_blocks", _blocks_of(rows))
        fused = run(ffn_sublayer)
    composed = run(_residual(composed_ffn_sublayer))
    assert len(fused) == len(composed) == 2 + (len(names) if trainable else 0)
    for got, want in zip(fused, composed):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(
    n=st.integers(min_value=1, max_value=3),
    chunks=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4),
    heads=st.integers(min_value=1, max_value=3),
    dh=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_attention_sublayer_decodes_bitwise_as_the_composed_ops(n, chunks, heads, dh, rows, seed):
    """A prefill and decode steps through a DecodeCache: every output and the
    cached keys and values are bitwise the composed residual sublayer's, the
    fused one run `rows` sequences at a time, so each block writes its rows
    of the joined keys and values."""
    rng = np.random.default_rng(seed)
    width, cuts = heads * dh, [0, *np.cumsum(chunks)]
    state = _random_backbone("frozen-transformer", width, heads, cuts[-1], rng)
    x = rng.normal(size=(n, cuts[-1], width))
    caches = DecodeCache(), DecodeCache()
    with no_grad(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(backbone_mod, "_row_blocks", _blocks_of(rows))
        for start, end in zip(cuts[:-1], cuts[1:]):
            outs = [
                sublayer(Tensor(x[:, start:end]), state, 0, _causal_mask(start, end), cache).data
                for sublayer, cache in zip((attention_sublayer, _residual(composed_attention_sublayer)), caches)
            ]
            assert outs[0].tobytes() == outs[1].tobytes()
            for fused, composed in zip(caches[0].kv[0], caches[1].kv[0]):
                assert fused.tobytes() == composed.tobytes()


def _peak_rise(run) -> int:
    """The most bytes held, as tracemalloc counts them, while `run()` runs,
    above what was held when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sublayer", ["attention", "ffn"])
def test_a_frozen_sublayer_never_holds_a_full_wide_array(sublayer, monkeypatch):
    """Forward plus backward of a frozen residual sublayer, at a shape of many
    blocks of sequences: the most memory held stays under four (N, P, D)
    arrays (the kept normalized input, the output, the input gradient and one
    more), so neither LN's output, q, k, v, the mix nor their gradients are
    built for every sequence, nor one (N, heads, P, P) weights array or one
    (N, P, ffn_mult * D) hidden layer."""
    N, P, D, heads, ffn_mult = 1024, 32, 8, 4, 32
    full = N * P * D * 8
    wide = N * P * (heads * P if sublayer == "attention" else ffn_mult * D) * 8
    rng = np.random.default_rng(0)
    state = _random_backbone("frozen-transformer", D, heads, P, rng, ffn_mult)
    x = Parameter(rng.normal(size=(N, P, D)), name="x")
    g = constant(rng.normal(size=(N, P, D)))
    cuts = []
    monkeypatch.setattr(backbone_mod, "_row_blocks", lambda n, size: cuts.append(_row_blocks(n, size)) or cuts[-1])

    def run():
        if sublayer == "attention":
            out = attention_sublayer(x, state, 0, _causal_mask(0, P))
        else:
            out = ffn_sublayer(x, [state.params[f"layer0.{name}"] for name in _FFN])
        loss = tsum(mul(out, g))
        del out  # the caller's output dies with the forward, as in the backbone
        loss.backward()

    peak = _peak_rise(run)
    assert len(cuts) == 1 and len(cuts[0]) >= 64  # many blocks of sequences
    assert peak < 4 * full < wide, f"peak {peak / 2**20:.2f} MB, four (N, P, D) arrays {4 * full / 2**20:.2f} MB"
