"""Dual-branch tokenizers, adapters, and the patch grid."""

import sys

import composed_reference as composed
import numpy as np
import pytest
from gradcheck import grad_check
from hypothesis import given, settings
from hypothesis import strategies as st

import epicast
from epicast.backbone import BackboneConfig
from epicast.branches import (
    GATING_MODES,
    TOKENIZER_MODES,
    Projector,
    epi_adapt,
    epi_tokenize,
    init_adapter,
    init_projector,
    mob_adapt,
    mob_tokenize,
    patch_grid,
    stack_tokens,
)
from epicast.data import SirParams, SplitSpec, split_dataset, synth_sir
from epicast.forecaster import forecast
from epicast.model import ModelConfig, build_model
from epicast.prompts import PromptGraphError, PromptParams, init_prompts
from epicast.tensor import Parameter, Tensor, add, constant, matmul, mul, reshape, sqrt, transpose, tsum
from epicast.trainer import TrainConfig, training_loss, validation_loss


@pytest.fixture
def setup():
    rng = np.random.default_rng(0)
    w, n, d = 3, 4, 8
    proj = init_projector(rng, w, d, d, "epi_proj")
    mob = init_projector(rng, n, d, d, "mob_proj")
    prompts = init_prompts(w)
    X = np.random.default_rng(1).uniform(0, 1, size=(w, n, w))
    A = np.random.default_rng(2).uniform(0, 1, size=(w, n, n))
    return w, n, d, proj, mob, prompts, X, A


def test_epi_token_shape(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    Z = epi_tokenize(X, A, prompts, proj)
    assert Z.data.shape == (n, d)


def test_gates_to_minus_inf_annihilate_token(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    prompts.gamma.data = np.full(w, -1e4)
    Z = epi_tokenize(X, A, prompts, proj)
    np.testing.assert_array_equal(Z.data, np.zeros((n, d)))


def test_zero_features_zero_bias_give_zero_token(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    Z = epi_tokenize(np.zeros_like(X), A, prompts, proj)
    np.testing.assert_array_equal(Z.data, np.zeros((n, d)))


def test_mob_token_shape(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    H = mob_tokenize(np.random.default_rng(3).uniform(0, 1, size=(n, n)), mob)
    assert H.data.shape == (n, d)


def test_zero_mobility_zero_bias_gives_zero_token(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    H = mob_tokenize(np.zeros((n, n)), mob)
    np.testing.assert_array_equal(H.data, np.zeros((n, d)))


def test_mob_tokenize_is_row_wise(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    M = np.random.default_rng(4).uniform(0, 1, size=(n, n))
    perm = np.array([2, 0, 3, 1])
    H = mob_tokenize(M, mob).data
    H_perm = mob_tokenize(M[perm], mob).data
    np.testing.assert_array_equal(H_perm, H[perm])


def test_adapters_shapes_and_zero(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    rng = np.random.default_rng(5)
    epi_ad = init_adapter(rng, D=d, out=w, name="epi_adapter")
    mob_ad = init_adapter(rng, D=d, out=n, name="mob_adapter")
    Z = Tensor(rng.normal(size=(n, d)))
    assert epi_adapt(Z, epi_ad).data.shape == (n, w)
    assert mob_adapt(Z, mob_ad).data.shape == (n, n)
    zero = Tensor(np.zeros((n, d)))
    np.testing.assert_array_equal(epi_adapt(zero, epi_ad).data, np.zeros((n, w)))
    np.testing.assert_array_equal(mob_adapt(zero, mob_ad).data, np.zeros((n, n)))


def test_mob_adapt_clamps_negative_rows():
    rng = np.random.default_rng(6)
    mob_ad = init_adapter(rng, D=4, out=3, name="mob_adapter")
    mob_ad.b.data = np.array([-0.7, 0.2, -0.1])
    out = mob_adapt(Tensor(np.zeros((3, 4))), mob_ad).data
    np.testing.assert_array_equal(out, np.tile([0.0, 0.2, 0.0], (3, 1)))


def test_epi_adapt_keeps_raw_negative_values():
    rng = np.random.default_rng(7)
    epi_ad = init_adapter(rng, D=4, out=2, name="epi_adapter")
    epi_ad.b.data = np.array([-0.7, 0.3])
    out = epi_adapt(Tensor(np.zeros((2, 4))), epi_ad).data
    np.testing.assert_array_equal(out, np.tile([-0.7, 0.3], (2, 1)))


def test_gating_modes(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    gated = epi_tokenize(X, A, prompts, proj, gating_mode="gated").data
    avg = epi_tokenize(X, A, prompts, proj, gating_mode="average").data
    last = epi_tokenize(X, A, prompts, proj, gating_mode="last").data
    assert not np.array_equal(gated, avg)
    assert not np.array_equal(gated, last)
    sig1 = 1 / (1 + np.exp(-1.0))
    # at init all gates equal sigmoid(1), so gated = w * sig1 * average
    np.testing.assert_allclose(gated, w * sig1 * avg, rtol=1e-12)


def test_last_gating_equals_gated_at_w1():
    rng = np.random.default_rng(8)
    proj = init_projector(rng, 1, 6, 6, "epi_proj")
    prompts = init_prompts(1)
    prompts.gamma.data = np.array([0.37])  # arbitrary, must not matter
    X = np.random.default_rng(9).uniform(0, 1, size=(1, 5, 1))
    A = np.random.default_rng(10).uniform(0, 1, size=(1, 5, 5))
    gated = epi_tokenize(X, A, prompts, proj, gating_mode="gated").data
    last = epi_tokenize(X, A, prompts, proj, gating_mode="last").data
    np.testing.assert_array_equal(gated, last)


def test_mlp_tokenizer_ignores_adjacency(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    t1 = epi_tokenize(X, A, prompts, proj, tokenizer_mode="mlp").data
    t2 = epi_tokenize(X, np.zeros_like(A), prompts, proj, tokenizer_mode="mlp").data
    np.testing.assert_array_equal(t1, t2)
    t3 = epi_tokenize(X, A, prompts, proj, tokenizer_mode="graph").data
    assert not np.array_equal(t1, t3)


def test_branch_decoupling(setup):
    # wiping the mobility branch must not change any epidemic forward value
    w, n, d, proj, mob, prompts, X, A = setup
    before = epi_tokenize(X, A, prompts, proj).data.copy()
    for p in mob.parameters():
        p.data = np.zeros_like(p.data)
    after = epi_tokenize(X, A, prompts, proj).data
    np.testing.assert_array_equal(before, after)


def test_token_gradients_flow_to_every_parameter(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    rng = np.random.default_rng(11)
    epi_ad = init_adapter(rng, D=d, out=w, name="epi_adapter")
    C = rng.normal(size=(n, w))
    params = proj.parameters() + epi_ad.parameters() + prompts.parameters()

    def loss():
        Z = epi_tokenize(X, A, prompts, proj)
        return tsum(mul(epi_adapt(Z, epi_ad), constant(C)))

    loss().backward()
    for p in params:
        assert p.grad is not None and np.any(p.grad != 0), f"dead branch: {p.name}"
    for p in params:
        p.zero_grad()
    report = grad_check(loss, params)
    assert report.max_rel_error < 1e-4, report.per_param


def test_negative_prompt_degree_raises_named_error(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    prompts.w_backward.data = np.array(-3.0)
    with pytest.raises(PromptGraphError, match="prompt edge weights"):
        epi_tokenize(X, A, prompts, proj)


# -- the fused tokenizers against the composed primitive ops ---------------------------

PARAMETER_NAMES = ("W1", "b1", "W2", "b2", "mob.W1", "mob.b1", "mob.W2", "mob.b2", "forward", "backward", "gamma")


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(1, 5),
    n=st.integers(1, 7),
    F=st.integers(1, 4),
    D=st.integers(1, 6),
    patches=st.integers(1, 3),
    tokenizer_mode=st.sampled_from(TOKENIZER_MODES),
    gating_mode=st.sampled_from(GATING_MODES),
    # each weight stays above -1/2, so every degree stays above 0
    w_forward=st.floats(-0.45, 3.0),
    w_backward=st.floats(-0.45, 3.0),
    gamma_scale=st.floats(0.0, 4.0),
    frozen=st.sets(st.sampled_from(PARAMETER_NAMES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_tokenizers_are_bitwise_the_composed_ops(
    w, n, F, D, patches, tokenizer_mode, gating_mode, w_forward, w_backward, gamma_scale, frozen, seed
):
    """Tokens of a few patches, stacked and weighted into one loss: every token
    and every parameter gradient of the fused tokenizers equals the composed
    form's bit for bit, in every tokenizer and gating mode and with any subset
    of the parameters frozen."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(patches, w, n, F))
    A = rng.uniform(0.0, 2.0, size=(patches, w, n, n)) * (rng.uniform(size=(patches, w, n, n)) < 0.6)
    M = rng.uniform(0.0, 1.0, size=(patches, n, n))
    C = rng.normal(size=(2, patches, n, D))
    shapes = [(F, D), (D,), (D, D), (D,), (n, 5), (5,), (5, D), (D,)]
    data = dict(zip(PARAMETER_NAMES, [rng.normal(size=shape) for shape in shapes]))
    data.update(forward=np.array(w_forward), backward=np.array(w_backward), gamma=gamma_scale * rng.normal(size=w))

    def run(epi, mob):
        p = {name: Parameter(value, name=name, frozen=name in frozen) for name, value in data.items()}
        proj = Projector(p["W1"], p["b1"], p["W2"], p["b2"])
        mob_proj = Projector(p["mob.W1"], p["mob.b1"], p["mob.W2"], p["mob.b2"])
        prompts = PromptParams(p["forward"], p["backward"], p["gamma"])
        epi_tokens = [epi(X[k], A[k], prompts, proj, gating_mode, tokenizer_mode) for k in range(patches)]
        mob_tokens = [mob(M[k], mob_proj) for k in range(patches)]
        loss = add(
            tsum(mul(stack_tokens(epi_tokens), constant(C[0]))), tsum(mul(stack_tokens(mob_tokens), constant(C[1])))
        )
        if loss.requires_grad:
            loss.backward()
        tokens = [t.data.tobytes() for t in epi_tokens + mob_tokens]
        return tokens, [None if t.grad is None else t.grad.tobytes() for t in p.values()]

    fused, reference = run(epi_tokenize, mob_tokenize), run(composed.epi_tokenize, composed.mob_tokenize)
    assert fused[0] == reference[0]
    for name, got, want in zip(PARAMETER_NAMES, fused[1], reference[1]):
        assert got == want, name


# -- blockwise propagation against the dense block graph ------------------------------


def _dense_propagation_matrix(block: Tensor) -> Tensor:
    """Oracle: the self-looped, symmetrically normalized, transposed block
    adjacency, built densely over all w*N nodes."""
    size = block.data.shape[0]
    incoming = transpose(add(block, constant(np.eye(size))), (1, 0))
    deg = tsum(incoming, axis=1, keepdims=True)
    inv_sqrt = composed.div(constant(np.ones((size, 1))), sqrt(deg))
    return mul(mul(incoming, inv_sqrt), transpose(inv_sqrt, (1, 0)))


def _dense_propagate(A, prompts, H: Tensor) -> Tensor:
    w, n, F = H.data.shape
    prop = _dense_propagation_matrix(composed.block_adjacency(A, prompts))
    return reshape(matmul(prop, reshape(H, (w * n, F))), (w, n, F))


def _max_rel(got, want) -> float:
    scale = np.abs(want).max() if np.size(want) else 0.0
    return float(np.abs(got - want).max() / scale) if scale > 0 else float(np.abs(got).max())


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(1, 7),
    n=st.integers(1, 12),
    F=st.integers(1, 8),
    density=st.floats(0.0, 1.0),
    # each weight stays above -1/2, so every degree stays above 0
    w_forward=st.floats(-0.45, 3.0),
    w_backward=st.floats(-0.45, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_matches_dense_oracle(w, n, F, density, w_forward, w_backward, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 2.0, size=(w, n, n)) * (rng.uniform(size=(w, n, n)) < density)
    X = rng.normal(size=(w, n, F))
    C = rng.normal(size=(w, n, F))
    results = []
    for fn in (composed.propagate, _dense_propagate):
        prompts = init_prompts(w)
        prompts.w_forward.data = np.array(w_forward)
        prompts.w_backward.data = np.array(w_backward)
        H = Parameter(X, name="H")
        Y = fn(A, prompts, H)
        tsum(mul(Y, constant(C))).backward()
        results.append((Y.data, H.grad, prompts.w_forward.grad, prompts.w_backward.grad))
    (Y, dH, dwf, dwb), (Y_ref, dH_ref, dwf_ref, dwb_ref) = results
    assert _max_rel(Y, Y_ref) <= 1e-12
    assert _max_rel(dH, dH_ref) <= 1e-10
    for got, want in ((dwf, dwf_ref), (dwb, dwb_ref)):
        assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def test_hot_paths_never_build_the_dense_block():
    """The dense block matrix lives in the tests' reference only: no epicast
    module can build it, and training, validation and forecasting run and
    still give the prompt edge weights a gradient."""
    modules = [m for name, m in sys.modules.items() if name == "epicast" or name.startswith("epicast.")]
    assert epicast.prompts in modules and epicast.branches in modules
    for mod in modules:
        for name in ("block_adjacency", "slice_offsets", "_cross_slice_masks", "div"):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    ds = synth_sir(4, 30, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=5, w=3, scale=True)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model = build_model(
        ModelConfig(n_regions=4, w=3, width=8, seed=0),
        BackboneConfig(mode="frozen-transformer", depth=1, width=8, heads=2, seed=1),
    )
    cfg = TrainConfig()
    loss = training_loss(model, ds, splits.train, cfg)
    loss.backward()
    assert model.prompts.w_forward.grad is not None and model.prompts.w_forward.grad != 0
    assert np.isfinite(validation_loss(model, ds, splits.val, cfg))
    result = forecast(model, ds, splits.test.start, steps=2)
    assert result.cases.shape == (2 * ds.w, ds.N)


def test_shape_validation(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    with pytest.raises(ValueError):
        epi_tokenize(X[:, :, :2], A, prompts, proj)  # F mismatch
    with pytest.raises(ValueError):
        epi_tokenize(X, A[:, :2, :], prompts, proj)
    with pytest.raises(ValueError):
        mob_tokenize(np.zeros((n + 1, n + 1)), mob)


# -- patch grid ------------------------------------------------------------------------


def test_patch_grid_end_aligned():
    assert patch_grid(0, 9, 3) == [(0, 3), (3, 6), (6, 9)]
    assert patch_grid(0, 10, 3) == [(1, 4), (4, 7), (7, 10)]
    assert patch_grid(0, 2, 3) == []


def test_patch_grid_partition_properties():
    for t_end in range(1, 40):
        for w in (1, 2, 3, 7):
            grid = patch_grid(0, t_end, w)
            assert len(grid) == t_end // w
            covered = [d for s, e in grid for d in range(s, e)]
            assert len(covered) == len(set(covered))  # no overlaps
            assert len(covered) == len(grid) * w
            if grid:
                assert grid[-1][1] == t_end


def test_stack_tokens(setup):
    w, n, d, proj, mob, prompts, X, A = setup
    t1 = epi_tokenize(X, A, prompts, proj)
    t2 = epi_tokenize(X * 0.5, A, prompts, proj)
    seq = stack_tokens([t1, t2])
    assert seq.data.shape == (2, n, d)
    np.testing.assert_array_equal(seq.data[0], t1.data)
    np.testing.assert_array_equal(seq.data[1], t2.data)
