"""Backbone modes: determinism, causality, freezing, weight files."""

import numpy as np
import pytest

from epicast.backbone import BackboneConfig, BackboneConfigError, backbone_forward, build_backbone
from epicast.gradcheck import grad_check
from epicast.tensor import Parameter, Tensor, constant, mul, tsum


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
