"""Backbone modes: determinism, causality, freezing, weight files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.backbone import (
    MODES,
    BackboneConfig,
    BackboneConfigError,
    DecodeCache,
    DecodeCacheError,
    backbone_forward,
    build_backbone,
)
from epicast.gradcheck import grad_check
from epicast.tensor import Parameter, Tensor, constant, mul, no_grad, tsum


def _tokens(P=5, N=3, D=8, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(P, N, D)))


def test_identity_mode_returns_input():
    cfg = BackboneConfig(mode="identity")
    state = build_backbone(cfg)
    tokens = _tokens()
    out = backbone_forward(tokens, state)
    np.testing.assert_array_equal(out.data, tokens.data)
    assert state.n_params() == 0


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
    assert state.n_params() > 0


def test_width_sweep_grows_param_count():
    counts = [
        build_backbone(BackboneConfig(mode="frozen-transformer", depth=2, width=w, heads=4)).n_params()
        for w in (64, 128, 256)
    ]
    assert counts[0] < counts[1] < counts[2]


def test_invalid_heads_width_combo():
    with pytest.raises(BackboneConfigError):
        BackboneConfig(mode="frozen-transformer", width=10, heads=4)
    with pytest.raises(BackboneConfigError):
        BackboneConfig(mode="rocket-ship")


def test_gradients_flow_through_frozen_layers():
    cfg = BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=5)
    state = build_backbone(cfg)
    upstream = Parameter(np.random.default_rng(2).normal(size=(4, 3, 8)), name="upstream")
    C = constant(np.random.default_rng(3).normal(size=(4, 3, 8)))
    loss = tsum(mul(backbone_forward(upstream, state), C))
    loss.backward()
    assert np.any(upstream.grad != 0)
    # frozen weights also accumulate grads (pass-through), they are just not updatable
    attn_w = state.params["layer0.attn.q.W"]
    assert np.any(attn_w.grad != 0)
    assert attn_w.frozen


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
    path = tmp_path / "weights.bin"
    state.export_weights(path)

    rebuilt = build_backbone(BackboneConfig(mode="frozen-transformer", depth=2, width=8, heads=2, seed=999), weights_path=path)
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
