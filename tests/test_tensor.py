"""Autodiff core: op correctness, per-op gradient checks, tape semantics."""

import math
import zlib

import numpy as np
import pytest
from composed_reference import attention_weights, div, gelu, propagate, softmax, sqrt, square, sub, tmean, tsum
from gradcheck import grad_check, relative_error
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.backbone import _ATTENTION, BackboneConfig, BackboneState, attention_sublayer, ffn_sublayer
from epicast.branches import Projector, _projector_node, epi_tokenize, mob_tokenize
from epicast.prompts import PromptParams
from epicast.tensor import (
    AutodiffError,
    Parameter,
    _BLOCK,
    Tensor,
    _exp_normalize,
    _gelu,
    _layout,
    _row_blocks,
    _select,
    _zeros,
    add,
    concat,
    constant,
    getitem,
    layer_norm,
    linear,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    tanh,
    transpose,
)
from epicast.trainer import compute_loss


def test_sigmoid_symmetry_point():
    assert float(sigmoid(Tensor(0.0)).data) == 0.5


def test_softmax_of_constant_vector():
    out = softmax(Tensor([2.0, 2.0, 2.0, 2.0]))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 5))
    out = matmul(Tensor(np.eye(3)), Tensor(X))
    np.testing.assert_array_equal(out.data, X)


def test_softmax_with_masked_entries_is_exactly_zero():
    mask = constant([0.0, -np.inf, 0.0])
    out = softmax(add(Tensor([1.0, 50.0, 2.0]), mask))
    assert out.data[1] == 0.0
    assert out.data.sum() == pytest.approx(1.0)


def test_nonfinite_leaf_rejected():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])


def test_square_backward():
    p = Parameter(3.0, name="p")
    loss = square(p)
    loss.backward()
    assert p.grad == pytest.approx(6.0)


def test_unrelated_parameter_gets_zero_grad():
    p = Parameter(2.0, name="p")
    q = Parameter(5.0, name="q")
    loss = square(q)
    loss.backward()
    assert p.grad == 0.0


def test_sigmoid_at_zero_grad_quarter():
    p = Parameter(np.zeros(7), name="p")
    loss = tsum(sigmoid(p))
    loss.backward()
    np.testing.assert_allclose(p.grad, np.full(7, 0.25))


def test_backward_requires_scalar():
    p = Parameter(np.ones(3), name="p")
    with pytest.raises(AutodiffError):
        mul(p, 2.0).backward()


def test_backward_on_a_constant_raises():
    with pytest.raises(AutodiffError, match="backward on a tensor with no recorded inputs"):
        constant(np.array(2.0)).backward()


def test_sqrt_of_a_negative_input_raises():
    with pytest.raises(ValueError, match="sqrt of negative input"):
        sqrt(Parameter(np.array([4.0, -1.0]), name="p"))


def test_backward_twice_raises():
    p = Parameter(1.5, name="p")
    loss = square(p)
    loss.backward()
    with pytest.raises(AutodiffError):
        loss.backward()


def test_grad_accumulation_is_additive():
    p = Parameter(np.array([1.0, -2.0]), name="p")
    tsum(square(p)).backward()
    tsum(mul(p, 3.0)).backward()
    expected = 2.0 * p.data + 3.0

    q = Parameter(np.array([1.0, -2.0]), name="q")
    add(tsum(square(q)), tsum(mul(q, 3.0))).backward()
    np.testing.assert_allclose(p.grad, expected)
    np.testing.assert_allclose(p.grad, q.grad)


def test_broadcast_add_backward_sums_over_broadcast_axes():
    a = Parameter(np.ones((4, 3)), name="a")
    b = Parameter(np.ones(3), name="b")
    tsum(add(a, b)).backward()
    np.testing.assert_allclose(a.grad, np.ones((4, 3)))
    np.testing.assert_allclose(b.grad, np.full(3, 4.0))


# -- finite-difference property test, one case per op ---------------------------------


def _fd_check(make_loss, params, tol=1e-4, h=1e-6):
    report = grad_check(make_loss, params, h=h)
    assert report.max_rel_error < tol, (
        f"worst {report.max_rel_error:.3e} on {report.worst_param}: {report.per_param}"
    )


def _p(rng, shape, name, away_from_zero=False):
    data = rng.normal(size=shape)
    if away_from_zero:
        data = np.sign(data) * (np.abs(data) + 0.2)
    return Parameter(data, name=name)


# a 3-slice window of 2 regions, one edge absent
_SLICES = np.array([[[0.0, 0.5], [1.0, 0.2]], [[0.3, 0.0], [0.7, 0.4]], [[0.9, 0.1], [0.0, 0.6]]])

# features of that window, and a 3-region mobility matrix
_WINDOW = np.array(
    [[[0.4, -1.2, 0.3, 0.9], [1.1, 0.2, -0.7, 0.5]], [[0.2, 0.8, -0.4, 0.1], [-0.6, 1.3, 0.5, -0.2]],
     [[-0.9, 0.3, 0.6, 1.4], [0.7, -0.5, -1.1, 0.3]]]
)  # fmt: skip
_MOBILITY = np.array([[0.0, 0.8, 0.3], [0.5, 0.1, 0.0], [0.9, 0.4, 0.2]])

# 3 positions, each query hiding the keys after it; decode-shaped: its last 2 queries
_CAUSAL_MASK = np.triu(np.full((3, 3), -np.inf), k=1)
_DECODE_MASK = _CAUSAL_MASK[1:]


def _one_layer(names, tensors) -> BackboneState:
    """A one-layer, two-head backbone of width 4 whose parameters `names` are
    `tensors`."""
    cfg = BackboneConfig(mode="trainable-transformer", depth=1, width=4, heads=2)
    return BackboneState(cfg, {f"layer0.{name}": t for name, t in zip(names, tensors)})


def _square(a, b):
    """A (4, 4) matrix of b's rows and a's first row."""
    return concat([b, getitem(a, slice(0, 1))], axis=0)


def _attention_case(a, b):
    """An attention sublayer over one region's 3 positions, features a."""
    sq, (r0, r1, r2) = _square(a, b), (getitem(b, i) for i in range(3))
    tensors = (r0, r1, sq, r2, transpose(sq, (1, 0)), r1, square(sq), r0, matmul(sq, sq), tsum(b, axis=0))
    return attention_sublayer(reshape(a, (1, 3, 4)), _one_layer(_ATTENTION, tensors), 0, _CAUSAL_MASK)


def _ffn_case(a, b, ln2=True):
    """A feedforward sublayer over one region's 3 positions, features a; with
    LN2 or, as in the `mlp` backbone, without."""
    sq, (r0, r1, r2) = _square(a, b), (getitem(b, i) for i in range(3))
    W1 = concat([sq, transpose(sq, (1, 0))], axis=1)
    params = [r0, r1, W1, concat([r1, r2]), transpose(W1, (1, 0)), r2]
    return ffn_sublayer(reshape(a, (1, 3, 4)), params if ln2 else params[2:])


OP_CASES = {
    "add": lambda a, b: add(a, b),
    "sub": lambda a, b: sub(a, b),
    "mul": lambda a, b: mul(a, b),
    "scalar_mul": lambda a, b: mul(a, 2.5),
    "div": lambda a, b: div(a, add(square(b), 0.5)),
    "square": lambda a, b: square(a),
    "sqrt": lambda a, b: sqrt(add(square(a), 0.1)),
    "matmul": lambda a, b: matmul(a, transpose(b, (1, 0))),
    "relu": lambda a, b: relu(a),
    "sigmoid": lambda a, b: sigmoid(a),
    "tanh": lambda a, b: tanh(a),
    "gelu": lambda a, b: gelu(a),
    "softmax": lambda a, b: softmax(a),
    "sum": lambda a, b: tsum(a, axis=1, keepdims=True),
    "sum_all": lambda a, b: tsum(a),
    "mean": lambda a, b: tmean(a, axis=0),
    "concat": lambda a, b: concat([a, b], axis=1),
    "getitem": lambda a, b: getitem(a, (slice(1, 3), slice(None))),
    "reshape": lambda a, b: reshape(a, (12,)),
    "transpose": lambda a, b: transpose(a, (1, 0)),
    "linear": lambda a, b: linear(a, transpose(b, (1, 0)), tsum(b, axis=1)),
    "layer_norm": lambda a, b: layer_norm(a, getitem(b, 0), getitem(b, 1)),
    "attention_weights": lambda a, b: attention_weights(
        reshape(getitem(a, slice(0, 2)), (1, 2, 2, 2)), reshape(b, (1, 2, 3, 2)), _DECODE_MASK, 0.7
    ),
    # prompt weights drawn from b: forward >= -0.3 keeps every degree positive
    "propagate": lambda a, b: propagate(
        _SLICES,
        PromptParams(sub(square(getitem(b, (0, 0))), 0.3), square(getitem(b, (1, 1))), constant(np.ones(3))),
        reshape(a, (3, 2, 2)),
    ),
    # a 3-day window of 2 regions with 4 features, tokens of width 3
    "epi_tokenize": lambda a, b: epi_tokenize(
        _WINDOW,
        _SLICES,
        PromptParams(sub(square(getitem(b, (0, 0))), 0.3), square(getitem(b, (1, 1))), getitem(a, (slice(None), 0))),
        Projector(
            transpose(a, (1, 0)), getitem(b, (slice(None), 3)), getitem(b, (slice(None), slice(0, 3))), tsum(a, axis=1)
        ),
    ),
    # 3 regions, hidden width 4, tokens of width 3
    "mob_tokenize": lambda a, b: mob_tokenize(
        _MOBILITY, Projector(a, getitem(b, 0), transpose(b, (1, 0)), tsum(a, axis=1))
    ),
    # the node both tokenizers run, in the mobility form: a window of one slice,
    # feedforward, averaged
    "projector_node": lambda a, b: _projector_node(
        _MOBILITY[None],
        None,
        None,
        Projector(a, tsum(b, axis=0), transpose(b, (1, 0)), getitem(a, (slice(None), 0))),
        "average",
        "mlp",
    ),
    "attention_sublayer": _attention_case,
    "ffn_sublayer": _ffn_case,
    "ffn_sublayer_without_ln2": lambda a, b: _ffn_case(a, b, ln2=False),
    # the training loss: epidemic predictions a and mobility predictions b,
    # 3 tokens of 4 features each, against rows of the window
    "loss_mean_squared": lambda a, b: compute_loss(a, _WINDOW[:, 0], b, _WINDOW[:, 1], 0.7, "mean-squared"),
    "loss_mean_l2_norm": lambda a, b: compute_loss(a, _WINDOW[:, 0], b, _WINDOW[:, 1], 0.7, "mean-l2-norm"),
}


# the cases whose output depends on both a and b
TWO_INPUT_CASES = (
    "add", "sub", "mul", "div", "matmul", "concat", "linear", "layer_norm", "attention_weights", "propagate",
    "epi_tokenize", "mob_tokenize", "projector_node", "attention_sublayer", "ffn_sublayer", "ffn_sublayer_without_ln2",
    "loss_mean_squared", "loss_mean_l2_norm",
)


@pytest.mark.parametrize("frozen", ["a", "b"])
@pytest.mark.parametrize("name", TWO_INPUT_CASES)
def test_frozen_input_gets_no_grad_and_leaves_the_other_bitwise(name, frozen):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # adding a case re-seeds no other
    data = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
    weights = rng.normal(size=OP_CASES[name](Tensor(data["a"]), Tensor(data["b"])).data.shape)

    def grads(frozen_name):
        p = {k: Parameter(v, name=k, frozen=k == frozen_name) for k, v in data.items()}
        tsum(mul(OP_CASES[name](p["a"], p["b"]), constant(weights))).backward()
        return {k: t.grad for k, t in p.items()}

    live = "b" if frozen == "a" else "a"
    both, one = grads(None), grads(frozen)
    assert np.any(both["a"] != 0) and np.any(both["b"] != 0)  # the case reads both inputs
    assert one[frozen] is None
    assert one[live].tobytes() == both[live].tobytes()


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # stable across processes, unlike hash()
    a = _p(rng, (3, 4), "a", away_from_zero=(name == "relu"))
    b = _p(rng, (3, 4), "b")
    weights = rng.normal(size=OP_CASES[name](a, b).data.shape)

    def loss():
        return tsum(mul(OP_CASES[name](a, b), constant(weights)))

    _fd_check(loss, [a, b])


def test_batched_matmul_gradient():
    rng = np.random.default_rng(7)
    a = Parameter(rng.normal(size=(2, 3, 4)), name="a")
    b = Parameter(rng.normal(size=(4, 5)), name="b")
    weights = rng.normal(size=(2, 3, 5))

    def loss():
        return tsum(mul(matmul(a, b), constant(weights)))

    _fd_check(loss, [a, b])


def test_layer_norm_gradient():
    rng = np.random.default_rng(11)
    x = Parameter(rng.normal(size=(5, 6)), name="x")
    g = Parameter(rng.normal(size=6) + 1.0, name="g")
    bias = Parameter(rng.normal(size=6), name="bias")
    weights = rng.normal(size=(5, 6))

    def loss():
        return tsum(mul(layer_norm(x, g, bias), constant(weights)))

    _fd_check(loss, [x, g, bias])


def test_layer_norm_normalizes():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 8)) * 5 + 2)
    out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_frozen_parameter_receives_no_grad():
    frozen = Parameter(np.ones(3), name="w", frozen=True)
    live = Parameter(np.full(3, 2.0), name="v")
    assert frozen.frozen and not frozen.requires_grad and frozen.grad is None
    assert not live.frozen and live.requires_grad
    loss = tsum(mul(frozen, live))
    loss.backward()
    assert frozen.grad is None
    np.testing.assert_array_equal(live.grad, frozen.data)
    frozen.zero_grad()
    assert frozen.grad is None
    with pytest.raises(AttributeError):  # one stored bit: `frozen` is read-only
        frozen.frozen = False


def test_relative_error_zero_when_both_zero():
    assert relative_error(0.0, 0.0) == 0.0


@pytest.mark.parametrize(
    "idx",
    [1, np.int64(2), (slice(1, 3), 0), (0, slice(None, None, 2))],
    ids=["int", "np-int", "slice-int", "int-step"],
)
def test_getitem_backward_matches_add_at(idx):
    rng = np.random.default_rng(5)
    a = Parameter(rng.normal(size=(3, 4)), name="a")
    weights = rng.normal(size=a.data[idx].shape)
    tsum(mul(getitem(a, idx), constant(weights))).backward()
    expected = np.zeros((3, 4))
    np.add.at(expected, idx, weights)
    np.testing.assert_array_equal(a.grad, expected)


@given(shape=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_getitem_gradient_is_laid_out_as_zeros_like(shape, data):
    """The zeros getitem's gradient rule builds for its input, from the shape
    and layout it recorded, have np.zeros_like(input)'s strides for any view
    (C or F order, transposed, strided, reversed, broadcast), so every later
    sum over the gradient runs in the same order."""
    x = np.zeros(shape, order=data.draw(st.sampled_from("CF")))
    x = x.transpose(data.draw(st.permutations(range(len(shape)))))
    steps = data.draw(st.lists(st.sampled_from([1, 2, -1]), min_size=x.ndim, max_size=x.ndim))
    x = x[tuple(slice(None, None, step) for step in steps)]
    if data.draw(st.booleans()):
        x = np.broadcast_to(x[..., :1], x.shape)  # zero stride on the last axis
    grad = _zeros(x.shape, _layout(x))
    assert grad.shape == x.shape and grad.strides == np.zeros_like(x).strides


@pytest.mark.parametrize("shape", [(3, 1, 4), (1, 3, 4), (2, 1, 1, 3)])
def test_an_f_ordered_gradient_is_laid_out_as_zeros_like(shape):
    """numpy lays out an F-contiguous array's zeros_like in F order; ordering
    the axes by stride alone would move a length-1 axis, and with it a stride."""
    x = np.zeros(shape, order="F")
    assert _zeros(shape, _layout(x)).strides == np.zeros_like(x).strides


def test_getitem_refuses_an_advanced_index():
    """Only an int, a slice or a tuple of them is taken, before any forward: an
    advanced index may hit one element twice, which ``grad[idx] += g`` in the
    backward would count once."""
    a = Parameter(np.zeros((4, 3)), name="a")
    for idx in ([1, 1, 1, 3], np.array([0, 2]), a.data > 0, True, None, Ellipsis, (0, [1, 2]), (slice(1), None)):
        with pytest.raises(TypeError, match="getitem takes an int, a slice or a tuple of them"):
            getitem(a, idx)
        with pytest.raises(TypeError), no_grad():
            getitem(a, idx)


# -- fused kernels against their composition from primitive ops --------------------------------


def _linear_composed(x, W, b):
    return add(matmul(x, W), b)


def _layer_norm_composed(x, gain, bias, eps=1e-5):
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(square(centered), axis=-1, keepdims=True)
    std = sqrt(add(var, eps))
    return add(mul(div(centered, std), gain), bias)


def _assert_rel_close(actual, expected, scale, rel=1e-12):
    """max |actual - expected| within `rel` of `scale`, the size of the terms summed."""
    assert np.max(np.abs(actual - expected)) <= rel * scale


def _forward_backward(op, arrays, weights):
    params = [Parameter(a, name=f"p{i}") for i, a in enumerate(arrays)]
    out = op(*params)
    tsum(mul(out, constant(weights))).backward()
    return out.data, [p.grad for p in params]


_lead = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=2)


@given(
    lead=_lead,
    n_in=st.integers(min_value=1, max_value=7),
    n_out=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**16),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=40, deadline=None)
def test_linear_equals_composed_form(lead, n_in, n_out, seed, scale):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(*lead, n_in)) * scale, rng.normal(size=(n_in, n_out)), rng.normal(size=n_out)]
    weights = rng.normal(size=(*lead, n_out))
    out, grads = _forward_backward(linear, arrays, weights)
    ref, ref_grads = _forward_backward(_linear_composed, arrays, weights)
    np.testing.assert_array_equal(out, ref)
    # the W gradient sums x * g over all rows, in a different order than the reference
    rows = np.abs(arrays[0].reshape(-1, n_in)).T @ np.abs(weights.reshape(-1, n_out))
    scales = [np.max(np.abs(ref_grads[0])), np.max(rows), np.max(np.abs(ref_grads[2]))]
    for g, r, sc in zip(grads, ref_grads, scales):
        _assert_rel_close(g, r, sc)


@given(
    lead=_lead,
    d=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**16),
    scale=st.floats(min_value=1e-2, max_value=1e3),
)
@settings(max_examples=40, deadline=None)
def test_layer_norm_equals_composed_form(lead, d, seed, scale):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(*lead, d)) * scale, rng.normal(size=d), rng.normal(size=d)]
    weights = rng.normal(size=(*lead, d))
    out, grads = _forward_backward(layer_norm, arrays, weights)
    ref, ref_grads = _forward_backward(_layer_norm_composed, arrays, weights)
    np.testing.assert_array_equal(out, ref)
    # the x gradient is a difference of terms of size |g * gain| / std that
    # cancel on short rows (d = 2 makes it nearly zero), so both evaluations
    # are accurate relative to that size, not to the result's
    std = np.sqrt(arrays[0].var(axis=-1, keepdims=True) + 1e-5)
    scales = [np.max(np.abs(weights * arrays[1]) / std)] + [np.max(np.abs(r)) for r in ref_grads[1:]]
    for g, r, sc in zip(grads, ref_grads, scales):
        _assert_rel_close(g, r, sc)


def test_gelu_matches_power_formula():
    x = np.linspace(-10.0, 10.0, 20001)
    c = np.sqrt(2.0 / np.pi)
    expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))
    np.testing.assert_allclose(gelu(Tensor(x)).data, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("op", ["linear", "layer_norm"])
def test_fused_ops_pass_gradients_to_frozen_parameters(op):
    """Frozen W/b (or gain/bias) get no gradient; x gets bitwise the same one as
    with them trainable."""
    rng = np.random.default_rng(8)
    x_data = rng.normal(size=(2, 3, 4))
    shapes = {"linear": ((4, 5), (5,)), "layer_norm": ((4,), (4,))}[op]
    W_data, b_data = (rng.normal(size=s) for s in shapes)
    weights = rng.normal(size=(2, 3, shapes[1][0]))
    grads = {}
    for frozen in (False, True):
        x = Parameter(x_data, name="x")
        W = Parameter(W_data, name="W", frozen=frozen)
        b = Parameter(b_data, name="b", frozen=frozen)
        out = linear(x, W, b) if op == "linear" else layer_norm(x, W, b)
        tsum(mul(out, constant(weights))).backward()
        assert all((p.grad is None) == frozen for p in (W, b))
        grads[frozen] = x.grad
    assert np.any(grads[True] != 0)
    assert grads[True].tobytes() == grads[False].tobytes()


def test_fused_ops_record_nothing_under_no_grad():
    rng = np.random.default_rng(9)
    x = Parameter(rng.normal(size=(3, 4)), name="x")
    W = Parameter(rng.normal(size=(4, 2)), name="W")
    b = Parameter(rng.normal(size=2), name="b")
    gain = Parameter(np.ones(4), name="gain")
    bias = Parameter(np.zeros(4), name="bias")
    with no_grad():
        outs = [linear(x, W, b), layer_norm(x, gain, bias)]
    for out in outs:
        assert not out.requires_grad
        assert out._node is None and out._prev == ()


# -- in-place kernels against the composed numpy expressions they replaced ----------------


def _gelu_composed(x, g):
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    dinner = c * (1.0 + 3 * 0.044715 * x * x)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def _softmax_composed(x, g):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return s, (g - (g * s).sum(axis=-1, keepdims=True)) * s


def _layer_norm_composed_numpy(x, gain, bias, g, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered / std
    out = normed * gain
    out += bias
    gn = g * gain
    dx = gn - gn.mean(axis=-1, keepdims=True)
    dx -= normed * (gn * normed).mean(axis=-1, keepdims=True)
    dx /= std
    if x.ndim == 1:  # nothing to sum over
        return out, dx, g * normed, g
    lead = tuple(range(x.ndim - 1))
    return out, dx, (g * normed).sum(axis=lead), g.sum(axis=lead)


def _node_grads(out, g, inputs):
    """The arrays the backward of `out`'s tape node hands each input (trainable
    leaves) for upstream gradient g: each leaf's node starts with no gradient,
    so it adopts the array handed to it."""
    for t in inputs:
        t._node.grad = None
    out._node._backward(g)
    return [t.grad for t in inputs]


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def _kernel_inputs(draw, min_dims=1):
    """Arrays of magnitude 1e-150 .. 1e3 with some exact zeros, C-ordered or not."""
    shape = tuple(draw(st.lists(st.integers(min_value=1, max_value=6), min_size=min_dims, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    scale = 10.0 ** draw(st.integers(min_value=-150, max_value=3))
    x = np.asarray(rng.normal(size=shape) * scale)
    x[rng.random(shape) < 0.2] = 0.0
    g = np.asarray(rng.normal(size=shape))
    if draw(st.booleans()) and x.ndim:  # not C-ordered, as the backbone's residual stream is not
        x = np.asfortranarray(x)
    return x, g


@given(_kernel_inputs(min_dims=0))
@settings(max_examples=60, deadline=None)
def test_gelu_is_bitwise_the_composed_expression(inputs):
    x, g = inputs
    a = Parameter(x, name="a")
    out = gelu(a)
    ref_out, ref_grad = _gelu_composed(x, g)
    _assert_bitwise(out.data, ref_out)
    _assert_bitwise(_node_grads(out, g, [a])[0], ref_grad)


def test_row_blocks_cut_whole_rows_of_about_a_block_and_two_at_least():
    assert _row_blocks(10, _BLOCK // 3) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)]
    assert _row_blocks(5, 10 * _BLOCK) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert _row_blocks(1, 1) == [slice(0, _BLOCK)]


@given(_kernel_inputs(min_dims=0))
@settings(max_examples=30, deadline=None)
def test_gelu_derivative_alone_is_written_over_its_input(inputs):
    """Asked for the derivative only, ``_gelu`` writes it over its input, which
    is its last reader: the same bytes it makes next to the output."""
    x, _ = inputs
    _, want = _gelu(x.copy(), derivative=True)
    h = x.copy()
    out, deriv = _gelu(h, output=False, derivative=True)
    assert out is None and deriv is h
    _assert_bitwise(deriv, want)


@given(_kernel_inputs(min_dims=2), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_exp_normalize_skips_masked_scores_bitwise(inputs, k):
    """Masked scores zeroed around the exp, not exponentiated: the bytes of
    the plain softmax, which takes exp(-inf) = 0."""
    x, _ = inputs
    masked = np.triu(np.ones(x.shape[-2:], dtype=bool), k=k)  # -inf above a diagonal, as a causal mask
    shifted = x + np.where(masked, -np.inf, 0.0)
    shifted -= shifted.max(axis=-1, keepdims=True)
    want = np.exp(shifted)
    want /= want.sum(axis=-1, keepdims=True)
    _assert_bitwise(_exp_normalize(shifted, masked), want)


@given(_kernel_inputs())
@settings(max_examples=60, deadline=None)
def test_softmax_is_bitwise_the_composed_expression(inputs):
    x, g = inputs
    a = Parameter(x, name="a")
    out = softmax(a)
    ref_out, ref_grad = _softmax_composed(x, g)
    _assert_bitwise(out.data, ref_out)
    _assert_bitwise(_node_grads(out, g, [a])[0], ref_grad)


@given(_kernel_inputs(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_layer_norm_is_bitwise_the_composed_expression(inputs, seed):
    x, g = inputs
    rng = np.random.default_rng(seed)
    gain, bias = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
    params = [Parameter(x, name="x"), Parameter(gain, name="gain"), Parameter(bias, name="bias")]
    out = layer_norm(*params)
    ref_out, *ref_grads = _layer_norm_composed_numpy(x, gain, bias, g)
    _assert_bitwise(out.data, ref_out)
    for grad, ref in zip(_node_grads(out, g, params), ref_grads):
        _assert_bitwise(grad, ref)


_SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -2.5]
_SPECIAL.append(np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0])  # a NaN with a payload


@given(
    values=st.lists(st.sampled_from(_SPECIAL) | st.floats(width=64), min_size=1, max_size=60),
    cols=st.integers(min_value=1, max_value=4),
    mask_seed=st.integers(min_value=0, max_value=2**16),
    sign_mask=st.booleans(),
    layout=st.sampled_from(["C", "F", "reversed", "transposed", "broadcast", "0-d"]),
)
@settings(max_examples=100, deadline=None)
def test_select_is_bitwise_np_where(values, cols, mask_seed, sign_mask, layout):
    """relu's select writes np.where(mask, x, 0.0)'s bytes, laid out the same,
    for arrays of signed zeros, NaNs, infinities and subnormals in any layout."""
    rows = -(-len(values) // cols)
    x = np.resize(np.array(values, dtype=np.float64), (rows, cols))
    x = {
        "C": x, "F": np.asfortranarray(x), "reversed": x[::-1], "transposed": x.T,
        "broadcast": np.broadcast_to(x[:1], x.shape), "0-d": np.array(x[0, 0]),
    }[layout]  # fmt: skip
    mask = x > 0 if sign_mask else np.random.default_rng(mask_seed).random(x.shape) < 0.5
    out, ref = _select(mask, x), np.where(mask, x, 0.0)
    assert out.dtype == np.float64 and out.strides == ref.strides
    _assert_bitwise(out, ref)


def test_sigmoid_is_bitwise_the_three_exponential_expression():
    x = np.concatenate([np.linspace(-750.0, 750.0, 3001), [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7]])
    expected = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    _assert_bitwise(sigmoid(Tensor(x)).data, expected)


@given(
    n=st.integers(min_value=1, max_value=3),
    heads=st.integers(min_value=1, max_value=3),
    queries=st.integers(min_value=1, max_value=6),
    extra_keys=st.integers(min_value=0, max_value=4),
    dh=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    magnitude=st.floats(min_value=1e-3, max_value=30.0),
    hidden=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_attention_weights_are_bitwise_the_composed_ops(n, heads, queries, extra_keys, dh, seed, magnitude, hidden):
    """P' queries over S = P' + extra_keys keys: a causal mask cut to its last P'
    rows (a decode step when extra_keys > 0) plus random -inf entries, one key
    per query always left visible."""
    keys = queries + extra_keys
    rng = np.random.default_rng(seed)
    q_data = rng.normal(size=(n, heads, queries, dh)) * magnitude
    k_data = rng.normal(size=(n, heads, keys, dh)) * magnitude
    mask = np.triu(np.full((keys, keys), -np.inf), k=1)[extra_keys:]
    mask[rng.random(mask.shape) < hidden] = -np.inf
    mask[np.arange(queries), extra_keys + np.arange(queries)] = rng.normal(size=queries)
    scale = 1.0 / np.sqrt(dh)
    g = rng.normal(size=(n, heads, queries, keys))

    def run(op):
        q, k = Parameter(q_data, name="q"), Parameter(k_data, name="k")
        out = op(q, k)
        q._node.grad = k._node.grad = None
        tsum(mul(out, constant(g))).backward()
        return out.data, q.grad, k.grad

    fused = run(lambda q, k: attention_weights(q, k, mask, scale))
    composed = run(lambda q, k: softmax(add(mul(matmul(q, transpose(k, (0, 1, 3, 2))), scale), constant(mask))))
    for actual, expected in zip(fused, composed):
        _assert_bitwise(actual, expected)


def test_attention_weights_reject_mismatched_batch_axes():
    with pytest.raises(ValueError, match="batch axes differ"):
        attention_weights(Tensor(np.ones((2, 1, 3, 4))), Tensor(np.ones((1, 1, 3, 4))), np.zeros((3, 3)), 1.0)
