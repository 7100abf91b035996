"""Tape lifetime: lazy interior gradients, release after backward, no_grad."""

import gc
import types
import weakref

import numpy as np
import pytest
from composed_reference import gelu, square, sub, tsum
from hypothesis import given, settings
from hypothesis import strategies as st

import epicast.backbone as backbone_mod
import epicast.branches as branches_mod
import epicast.forecaster as forecaster_mod
import epicast.trainer as trainer_mod
from epicast.backbone import MODES, BackboneConfig
from epicast.branches import GATING_MODES, TOKENIZER_MODES, init_projector, patch_grid
from epicast.data import SirParams, SplitSpec, split_dataset, synth_sir
from epicast.forecaster import forecast
from epicast.model import ModelConfig, build_model
from epicast.prompts import init_prompts
from epicast.tensor import (
    AutodiffError,
    Parameter,
    Tensor,
    _Node,
    add,
    concat,
    constant,
    matmul,
    mul,
    no_grad,
)
from epicast.trainer import TrainConfig, sequence_loss, train, training_loss, validation_loss


def _ds(n=4, days=30, w=3, seed=5):
    return synth_sir(n, days, SirParams(beta=0.5, gamma_rec=0.2, population=2000), rng_seed=seed, w=w, scale=True)


def _model(ds, width=8, seed=0, mode="frozen-transformer"):
    mc = ModelConfig(n_regions=ds.N, w=ds.w, width=width, seed=seed)
    bc = BackboneConfig(mode=mode, depth=2, width=width, heads=2, seed=seed + 1)
    return build_model(mc, bc)


# -- lazy gradients and release ----------------------------------------------------------


def test_interior_gradients_are_lazy_and_leaves_eager():
    p = Parameter(np.ones(3), name="p")
    h = mul(p, 2.0)
    assert h.grad is None
    np.testing.assert_array_equal(p.grad, np.zeros(3))


def test_backward_releases_the_tape():
    p = Parameter(np.array([1.0, 2.0]), name="p")
    h = square(p)
    loss = tsum(h)
    nodes = [t._node for t in (h, loss)]
    loss.backward()
    for node in nodes:  # released: _prev None marks it
        assert node._prev is None and node._backward is None and node.grad is None
    assert p._node._prev == () and p._node._backward is None  # a leaf's node is never released
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])


def test_backward_through_a_released_node_raises():
    p = Parameter(np.ones(2), name="p")
    shared = square(p)
    tsum(shared).backward()
    with pytest.raises(AutodiffError):
        tsum(mul(shared, 3.0)).backward()


def test_leaf_backward_can_repeat():
    p = Parameter(2.0, name="p")
    p.backward()
    p.backward()
    assert p.grad == 2.0


def test_shared_gradient_arrays_are_never_written_in_place():
    # add hands the same array to both inputs: u adopts it from the outer add,
    # then takes a second gradient from s, while v adopts that same array
    p = Parameter(np.ones(3), name="p")
    q = Parameter(np.ones(3), name="q")
    u = mul(p, 2.0)
    v = mul(q, 3.0)
    s = add(u, v)
    tsum(add(s, u)).backward()
    np.testing.assert_array_equal(p.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(q.grad, np.full(3, 3.0))


def test_read_only_broadcast_gradients_accumulate():
    # tsum passes a read-only broadcast view; h adopts it and must not add into it
    p = Parameter(np.ones((2, 3)), name="p")
    h = mul(p, 1.0)
    add(tsum(h), add(tsum(h), tsum(h))).backward()
    np.testing.assert_array_equal(p.grad, np.full((2, 3), 3.0))


def test_training_cycle_leaves_no_cyclic_garbage():
    ds = _ds(n=10, days=40)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model = _model(ds)
    gc.collect()
    gc.disable()
    try:
        train(model, ds, splits.train, splits.val, TrainConfig(max_epochs=2, patience=10))
        forecast(model, ds, context_end=ds.T - 6, steps=2)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- one kind of node ----------------------------------------------------------------------


def test_a_tensor_is_its_data_and_one_optional_node():
    assert Tensor.__slots__ == ("data", "_node")
    assert not any(hasattr(Tensor, name) for name in ("_backward", "_backward_done", "_owns_grad"))
    with pytest.raises(TypeError):
        Tensor(np.ones(2), requires_grad=True)
    live, frozen = Parameter(np.ones(2), name="live"), Parameter(np.ones(2), name="frozen", frozen=True)
    assert isinstance(live._node, _Node) and live._node._prev == () and live._node._backward is None
    assert frozen._node is None
    for t in (live, frozen, mul(live, 2.0)):
        for view in ("requires_grad", "grad", "frozen"):
            if hasattr(t, view):
                with pytest.raises(AttributeError):
                    setattr(t, view, getattr(t, view))


def test_a_training_tape_holds_only_nodes():
    """Walking `_prev` from a training loss reaches only tape nodes: each
    trainable parameter through its own leaf node, never the tensor itself."""
    ds, splits, model, _ = _train_setup()
    loss = training_loss(model, ds, splits.train, TrainConfig())
    seen, stack = {}, list(loss._prev)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._prev)
    assert all(type(node) is _Node for node in seen.values())
    leaves = {id(node) for node in seen.values() if node._backward is None}
    assert leaves == {id(p._node) for p in model.trainable_parameters()}


# -- no_grad ---------------------------------------------------------------------------------


def test_no_grad_nests_and_restores_on_raise():
    p = Parameter(1.0, name="p")
    with no_grad():
        with no_grad():
            assert not mul(p, 2.0).requires_grad
        assert not mul(p, 2.0).requires_grad
    assert mul(p, 2.0).requires_grad
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("body failed")
    out = mul(p, 2.0)
    assert out.requires_grad and out._prev


def _spy(monkeypatch, module, name):
    """Record every tensor `module.name` returns."""
    seen = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(module, name, spy)
    return seen


def _poisoned_grads(model):
    """Put a random gradient on every trainable parameter's node; return a copy
    of every parameter's gradient, None for a frozen one."""
    rng = np.random.default_rng(9)
    for p in model.trainable_parameters():
        p._node.grad = rng.normal(size=p.data.shape)
    return [None if p.grad is None else p.grad.copy() for p in model.parameters()]


def _assert_grads_kept(model, before):
    for p, saved in zip(model.parameters(), before):
        if saved is None:
            assert p.grad is None
        else:
            np.testing.assert_array_equal(p.grad, saved)


def test_validation_loss_records_no_tape_and_keeps_grads(monkeypatch):
    ds = _ds()
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model = _model(ds)
    before = _poisoned_grads(model)
    losses = _spy(monkeypatch, trainer_mod, "sequence_loss")
    value = validation_loss(model, ds, splits.val, TrainConfig())
    assert isinstance(value, float)
    assert len(losses) == 1 and not losses[0].requires_grad and losses[0]._prev == ()
    _assert_grads_kept(model, before)


def test_forecast_records_no_tape_and_keeps_grads(monkeypatch):
    ds = _ds()
    model = _model(ds)
    before = _poisoned_grads(model)
    outputs = _spy(monkeypatch, forecaster_mod, "backbone_forward")
    forecast(model, ds, context_end=24, steps=2)
    assert len(outputs) == 4
    assert all(not t.requires_grad and t._prev == () for t in outputs)
    _assert_grads_kept(model, before)


@given(
    n=st.integers(min_value=2, max_value=5),
    w=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_forward_under_no_grad_is_bitwise_equal(n, w, seed):
    ds = _ds(n=n, days=6 * w + 6, w=w, seed=seed)
    model = _model(ds, seed=seed % 7)
    grid = patch_grid(0, ds.T, w)
    with_grad = sequence_loss(model, ds, grid, TrainConfig())
    with no_grad():
        without = sequence_loss(model, ds, grid, TrainConfig())
    assert with_grad.requires_grad and not without.requires_grad
    assert np.asarray(with_grad.data).tobytes() == np.asarray(without.data).tobytes()


def test_training_loss_still_records_after_validation():
    ds = _ds()
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model = _model(ds)
    validation_loss(model, ds, splits.val, TrainConfig())
    loss = training_loss(model, ds, splits.train, TrainConfig())
    assert loss.requires_grad
    loss.backward()
    assert any(p.grad is not None and np.any(p.grad != 0) for p in model.trainable_parameters())


# -- what a training tape keeps ----------------------------------------------------------


def _arrays_in(value, seen):
    """The ndarrays in `value`, nested tuples and lists included, and those in
    the closures and defaults of the functions met, each function entered
    once (`seen` holds their ids).  A tape keeps no Tensor: fails on one."""
    assert not isinstance(value, Tensor), "a backward closure keeps a Tensor alive, and with it its array"
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays_in(item, seen)
    elif isinstance(value, types.FunctionType) and id(value) not in seen:
        seen.add(id(value))
        cells = [cell.cell_contents for cell in value.__closure__ or ()]
        yield from _arrays_in(cells + list(value.__defaults__ or ()), seen)


def _closure_arrays(node):
    """The ndarrays a node's backward closure keeps: in its cells, nested
    tuples and lists, and the closures of the functions in them included."""
    yield from _arrays_in(node._backward, set())


def _kept_arrays(loss):
    """Every ndarray a tape keeps alive for its backward: the closure arrays
    of every node reachable from `loss`."""
    arrays, seen, stack = {}, set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._prev)
        arrays.update((id(a), a) for a in _closure_arrays(node))
    return list(arrays.values())


def _train_setup(mode="frozen-transformer"):
    ds = _ds(n=5, days=40, w=3)
    splits = split_dataset(ds, SplitSpec(test_len=3, val_len=3))
    model = _model(ds, width=8, mode=mode)  # 2 layers, 2 heads of width 4, ffn width 4 * 8
    P = len(patch_grid(splits.train.start, splits.train.stop, ds.w))
    assert P not in (4, 8, 32, ds.N)
    return ds, splits, model, P


@pytest.mark.parametrize("mode", ["frozen-transformer", "trainable-transformer"])
def test_an_attention_node_keeps_only_its_normalized_input(monkeypatch, mode):
    """Each attention sublayer is one node.  Besides parameters, it keeps LN1's
    normalized input (N, P, D), its std (N, P, 1) and the causal mask (P, P):
    no LN1 output, q, k, v, merged heads or (N, H, P, P) weights, which no
    node of the tape keeps."""
    ds, splits, model, P = _train_setup(mode)
    attention = _spy(monkeypatch, backbone_mod, "attention_sublayer")
    loss = training_loss(model, ds, splits.train, TrainConfig())
    assert len(attention) == 2 * 2  # one per layer, per branch
    params = {id(p.data) for p in model.parameters()}
    for out in attention:
        own = [a for a in _closure_arrays(out._node) if id(a) not in params]
        assert sorted(a.shape for a in own) == sorted([(ds.N, P, 8), (ds.N, P, 1), (P, P)])
    kept = [a.shape for a in _kept_arrays(loss)]
    assert (ds.N, 2, P, P) not in kept
    if mode == "frozen-transformer":  # LN1's, LN2's and ln_f's normalized inputs, per branch
        assert kept.count((ds.N, P, 8)) == 2 * (2 * 2 + 1)


@pytest.mark.parametrize("mode", ["frozen-transformer", "trainable-transformer", "mlp"])
def test_an_ffn_node_keeps_only_its_normalized_input(monkeypatch, mode):
    """Each feedforward sublayer is one node.  Besides parameters, it keeps
    LN2's normalized input (N, P, D) and its std (N, P, 1), or in the `mlp`
    backbone, which has no LN2, its input (N, P, D) alone: no LN2 output,
    hidden layer, GELU output or GELU derivative, and no node of the tape
    keeps an (N, P, 4 * D) array, whether or not the second layer's weight
    trains."""
    ds, splits, model, P = _train_setup(mode)
    ffn = _spy(monkeypatch, backbone_mod, "ffn_sublayer")
    loss = training_loss(model, ds, splits.train, TrainConfig())
    layers, kept = (1, [(ds.N, P, 8)]) if mode == "mlp" else (2, [(ds.N, P, 8), (ds.N, P, 1)])
    assert len(ffn) == layers * 2  # one per layer, per branch
    params = {id(p.data) for p in model.parameters()}
    for out in ffn:
        own = [a for a in _closure_arrays(out._node) if id(a) not in params]
        assert sorted(a.shape for a in own) == sorted(kept)
    assert not [a for a in _kept_arrays(loss) if a.shape == (ds.N, P, 4 * 8)]


def _tokenizer_tape(monkeypatch):
    """A training loss and the epidemic and mobility tokens it was built from."""
    ds, splits, model, P = _train_setup()
    epi = _spy(monkeypatch, branches_mod, "epi_tokenize")
    mob = _spy(monkeypatch, branches_mod, "mob_tokenize")
    loss = training_loss(model, ds, splits.train, TrainConfig())
    assert len(epi) == len(mob) == P
    return ds, model, loss, epi, mob


def test_a_training_tape_holds_one_node_per_tokenizer_call(monkeypatch):
    """Each tokenizer call records one node, whose inputs are the trainable
    parameters it reads, directly: seven for the graph tokenizer with gated
    blending, four for the mobility MLP."""
    ds, model, loss, epi, mob = _tokenizer_tape(monkeypatch)
    leaves = {id(p._node) for p in model.trainable_parameters()}
    for tokens, inputs in ((epi, 7), (mob, 4)):
        for token in tokens:
            assert len(token._prev) == inputs and all(id(node) in leaves for node in token._prev)


def test_a_token_sequence_is_one_concat_and_one_reshape(monkeypatch):
    """Each branch's (P, N, D) sequence is two nodes over its P tokenizer nodes:
    a reshape whose one input is a concat of the tokens in patch order, with
    no node per token in between."""
    sequences = _spy(monkeypatch, branches_mod, "stack_tokens")
    ds, model, loss, epi, mob = _tokenizer_tape(monkeypatch)
    assert [seq.data.shape for seq in sequences] == [(len(epi), ds.N, 8)] * 2
    for seq, tokens in zip(sequences, (epi, mob)):
        (stacked,) = seq._prev
        assert len(stacked._prev) == len(tokens)
        assert all(node is token._node for node, token in zip(stacked._prev, tokens))


def test_a_tokenizer_node_keeps_only_its_first_propagated_map(monkeypatch):
    """Besides parameters and views of the dataset, an epidemic tokenizer node
    keeps the first propagated map P1 (w, N, F) and arrays no larger than
    (w, N): no second map P2, hidden layer H1, pre-blend H2 or relu mask.  A
    mobility tokenizer node keeps nothing of its own."""
    ds, model, loss, epi, mob = _tokenizer_tape(monkeypatch)
    params = {id(p.data) for p in model.parameters()}

    def own(token):
        views = (ds.X, ds.M)
        arrays = _closure_arrays(token._node)
        return [a for a in arrays if id(a) not in params and not any(np.shares_memory(a, v) for v in views)]

    w, N, F = ds.w, ds.N, ds.X.shape[-1]
    assert F > 1  # so P1 is larger than a (w, N) array
    for token in epi:
        arrays = own(token)
        assert [a.shape for a in arrays if a.size > w * N] == [(w, N, F)]
        assert all(a.dtype == np.float64 for a in arrays)
    assert all(own(token) == [] for token in mob)


def _empty_cells(fn):
    """The free variables of function `fn` whose closure cell was never bound."""
    empty = []
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        try:
            cell.cell_contents
        except ValueError:
            empty.append(name)
    return empty


@pytest.mark.parametrize(
    "tokenizer_mode, gating_mode",
    [(t, g) for t in TOKENIZER_MODES for g in GATING_MODES] + [("mobility", "average")],  # a mobility token averages
)
def test_every_tokenizer_node_is_bound_and_keeps_only_what_it_names(tokenizer_mode, gating_mode):
    """The projector node of either tokenizer, in every mode, binds every name
    its backward reads.  Besides parameters and its inputs it keeps P1 (w, N, F)
    and the degree scale (w, N, 1) in "graph" mode, nothing input-sized in
    "mlp" mode, whose P1 is the window itself, and no array larger than the
    (w,) gates.  Only "graph" mode keeps the adjacency."""
    w, N, F, D = 3, 4, 5, 6
    rng = np.random.default_rng(11)
    prompts = init_prompts(w)
    if tokenizer_mode == "mobility":
        X, A = rng.uniform(size=(N, N)), None
        proj = init_projector(rng, N, 7, D, "mob")
        token = branches_mod.mob_tokenize(X, proj)
    else:
        X, A = rng.normal(size=(w, N, F)), rng.uniform(size=(w, N, N))
        proj = init_projector(rng, F, 7, D, "epi")
        token = branches_mod.epi_tokenize(X, A, prompts, proj, gating_mode, tokenizer_mode)
    assert _empty_cells(token._node._backward) == []
    params = {id(p.data) for p in proj.parameters() + prompts.parameters()}
    arrays = [a for a in _closure_arrays(token._node) if id(a) not in params]
    inputs = {"X": X} if A is None else {"X": X, "A": A}
    kept = [name for name, v in inputs.items() if any(np.shares_memory(a, v) for a in arrays)]
    assert kept == (["X", "A"] if tokenizer_mode == "graph" else ["X"])
    own = [a for a in arrays if not any(np.shares_memory(a, v) for v in inputs.values())]
    assert sorted(a.shape for a in own if a.size > w) == ([(w, N, 1), (w, N, F)] if tokenizer_mode == "graph" else [])


@pytest.mark.parametrize("mode", MODES)
def test_no_training_tape_keeps_a_tensor(mode):
    """No backward closure, nor any function it holds, keeps a Tensor: only
    arrays, shapes and nodes (``_arrays_in`` fails on a Tensor)."""
    ds, splits, model, _ = _train_setup(mode)
    assert _kept_arrays(training_loss(model, ds, splits.train, TrainConfig()))


def _constant_and_trained():
    """A constant and an op output that requires a gradient, both (3, 3)."""
    return constant(np.full((3, 3), 2.0)), add(Parameter(np.ones((3, 3)), name="p"), 1.0)


@pytest.mark.parametrize("trained_first", [True, False])
@pytest.mark.parametrize("op", [mul, matmul])
def test_a_product_keeps_only_the_constant_operand(op, trained_first):
    """The trained input's gradient reads the constant's array, which the node
    keeps; only the constant's gradient would read the op output's array, so
    the node does not keep that array."""
    c, h = _constant_and_trained()
    out = op(h, c) if trained_first else op(c, h)
    assert [a is c.data for a in _closure_arrays(out._node)] == [True]


@pytest.mark.parametrize("trained_first", [True, False])
@pytest.mark.parametrize("op", [add, sub, lambda a, b: concat([a, b], axis=1)])
def test_sums_and_concats_keep_no_array(op, trained_first):
    c, h = _constant_and_trained()
    out = op(h, c) if trained_first else op(c, h)
    assert list(_closure_arrays(out._node)) == []


def test_gelu_hands_its_input_the_derivative_it_saved():
    """GELU's backward multiplies g into the derivative array it saved, in place,
    and hands its input that array: it allocates no input-sized array."""
    a = Parameter(np.linspace(-3.0, 3.0, 12).reshape(3, 4), name="a")
    out = gelu(a)
    saved = [c.cell_contents for c in out._node._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert len(saved) == 1 and saved[0].shape == a.data.shape
    a._node.grad = None  # so the leaf adopts the array handed to it
    out._node._backward(np.full((3, 4), 2.0))
    assert a.grad is saved[0]


def test_backbone_outputs_die_before_the_loss(monkeypatch):
    """No backward reads the backbone's output arrays, so the tape holds none of
    them: they are freed during the forward, while the loss lives on."""
    ds, splits, model, _ = _train_setup()
    outputs = _spy(monkeypatch, trainer_mod, "backbone_forward")
    loss = training_loss(model, ds, splits.train, TrainConfig())
    refs = [weakref.ref(t.data) for t in outputs]
    del outputs[:]
    assert len(refs) == 2 and all(ref() is None for ref in refs)
    loss.backward()
    assert any(np.any(p.grad != 0) for p in model.trainable_parameters())
