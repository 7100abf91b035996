"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor is an ndarray plus an optional tape node.  Every differentiable
tensor has exactly one node: the output of a recorded op has the node the op
recorded, and a trainable Parameter has a node with no inputs and no backward
that owns its gradient.  A constant has none.  ``requires_grad``, ``grad`` and
``Parameter.frozen`` are read-only views of the node.  Calling ``backward()``
on a scalar walks the recorded graph in reverse topological order and
accumulates ``grad`` on every node it reaches.  Parameters are named leaves.
A frozen parameter is a constant: it has no node, so it never holds a
``grad`` and no optimizer updates it.  Ops still push gradients *through* a
frozen layer to the inputs that require them; they just record no node whose
inputs are all constant and compute no gradient for a frozen weight.

The tape is kept apart from the data.  A recorded op gets a small node: a
gradient slot, its input nodes and a backward closure.  The closure captures
exactly the arrays its backward reads (``mul`` the *other* operand, ``linear``
its input only when the weight needs a gradient, ``add`` or ``reshape``
shapes only, the tokenizer node of ``branches`` its first propagated map, a
``backbone`` residual sublayer its normalized input and the loss node of
``trainer`` each branch's error, from which they rebuild the rest), and no
node ever holds its own output tensor.  So an intermediate array that no
backward reads (the backbone's output, the attention's q, k, v and weights,
the feedforward's hidden layer, GELU output and GELU derivative) is freed
during the forward as soon as the forward drops it.

The ten primitives (``add``, ``mul``, ``matmul``, ``transpose``,
``reshape``, ``concat``, ``getitem``, ``relu``, ``sigmoid``, ``tanh``) are
each a forward plus one gradient rule per input, a function of the output
gradient that captures arrays, shapes and axes, never a tensor.
``getitem``'s rule builds zeros of its input's shape and layout and adds the
output gradient at the index.  ``_record`` is the one place that builds their
node: it keeps the rules of the inputs that require a gradient, in input
order, and drops the others, so an array that only a constant input's rule
reads (``mul``'s trained operand, when the other is constant) is freed with
the forward.  Six nodes are built by hand from ``_input_nodes`` and
``Tensor._result`` instead, because one rule per input does not fit them:
``linear``, ``layer_norm``, the two fused sublayers of ``backbone``, the one
node for both tokenizers of ``branches`` and the loss node of ``trainer``
(``compute_loss``) share work or a gradient rule (``_affine_grads``,
``_layer_norm_grads``, the loss's one rule for both branches) across their
inputs.

A tape's lifetime follows reference counting alone:

- A node holds its input nodes and a backward closure over saved arrays,
  never over itself or a tensor, so a tape has no reference cycles and dies
  with its output.
- Gradients are lazy.  A trainable Parameter's node owns an eagerly zeroed
  ``grad``; an op's node has ``grad = None`` until its first accumulation,
  which adopts the incoming array without a copy.  That array may be shared
  with a sibling input or be a read-only broadcast view, so a node adds in
  place only into a gradient array it owns.
- ``backward()`` releases the tape as it walks it: once an op's node has
  pushed its gradient to its inputs, its inputs, closure and gradient are
  dropped, and ``_prev = None`` marks it released.  A second backward through
  a released node raises AutodiffError.
- Under ``with no_grad():`` ops record nothing and return constants; neither
  they nor ops whose inputs are all constant build a node or keep a closure
  (a primitive's rules are dropped unused; ``concat`` builds none).
  Validation and forecasting run this way.

Besides the primitive ops there are two fused ones, each a single tape node
with a hand-written backward: ``linear`` (``x @ W + b``) and ``layer_norm``.
The two tokenizers in ``branches``, the attention and feedforward sublayers
in ``backbone`` and the training loss in ``trainer`` are fused the same way,
the first four from the numpy kernels shared with these ops (``_affine``,
``_sigmoid``, ``_select``, ``_gelu``, ``_layer_norm``, ``_exp_normalize``,
``_softmax_backward``).  Each gradient rule has one home that every fused
node calls: ``_affine_grads`` accumulates the W and b gradients of
``x @ W + b`` (W's as one GEMM, ``_weight_grad``), and ``_layer_norm_grads``
LayerNorm's input (``_layer_norm_input_grad``, which the sublayers call one
block at a time), gain and bias gradients.  Their forwards are bitwise
equal to the same computation composed from primitive ops, and tests validate
both forwards and gradients against that composed form.  Ops that only such
compositions use (``sub``, ``square``, ``sqrt``, ``tsum``, ``tmean``,
``softmax``, ``gelu``) live with the tests, not here.

The kernels write into one or two arrays they own, with ``out=`` and in-place
ops, instead of a fresh input-sized temporary per numpy op: each temporary is
a new large allocation whose pages fault in on first touch, which costs more
than the arithmetic.  ``_layer_norm`` writes its normalized input and std,
``_layer_norm_input_grad`` its gradient, into arrays the caller passes, and
``_gelu`` asked for the derivative alone writes it over its input.  The
residual sublayers of ``backbone`` run every kernel past their input one
block of whole sequences at a time (``_row_blocks``; the block rule is
stated in ``backbone``), so a kernel's temporaries are one block big.
``_row_mean`` and ``_exp_normalize`` call numpy's reductions without the
Python wrappers of ``mean`` and ``sum``, which a kernel run once per block
would pay on every call, and ``_exp_normalize`` never exponentiates a masked
score.  ``_select`` is ``np.where(mask, x, 0.0)`` as a bitwise AND, free of
the branch per element that mispredicts on sign masks.  The kernels run the
composed form's numpy ops in the same order, so every result is bitwise
unchanged.

At import, ``mallopt`` raises glibc's mmap and trim thresholds, so arrays up
to 32 MiB come from the heap and freed heap pages stay mapped: otherwise
each backward frees the tape, glibc hands the heap top back to the kernel,
and the next forward faults it back in page by page.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True


def _keep_freed_pages_mapped() -> bool:
    """Have glibc's malloc serve arrays up to 32 MiB from its heap and keep up
    to 128 MiB of freed heap mapped; False where libc has no ``mallopt``.

    Both thresholds are set because setting either alone turns off glibc's
    dynamic thresholds.  Without them, every backward frees the tape, glibc
    returns the top of the heap to the kernel, and the next forward faults
    those pages back in.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(M_TRIM_THRESHOLD, 128 << 20) == 1


MALLOPT = _keep_freed_pages_mapped()


class AutodiffError(RuntimeError):
    """Misuse of the tape: backward on a non-scalar, repeated backward, etc."""


@contextmanager
def no_grad():
    """Record no tape inside the block; nests, and restores the mode on exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """Whether ops record a tape here: False inside ``no_grad``."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum away prepended axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over axes that were broadcast from size 1
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accumulate(node, g: np.ndarray) -> None:
    """Add `g` into node.grad, in place only if the node owns its gradient array."""
    if node.grad is None:
        node.grad, node._owns_grad = g, False
    elif node._owns_grad:
        node.grad += g
    else:
        node.grad, node._owns_grad = node.grad + g, True


def _layout(a: np.ndarray) -> tuple | None:
    """The axis order, slowest first, of ``np.zeros_like(a)``'s memory; None for C order.

    numpy lays out a C- (or 1-d) array's copy in C order, an F-contiguous
    one's in F order and any other's by decreasing absolute stride, ties in
    axis order.
    """
    if a.flags.c_contiguous or a.ndim <= 1:
        return None
    if a.flags.f_contiguous:
        return tuple(range(a.ndim - 1, -1, -1))
    return tuple(sorted(range(a.ndim), key=lambda i: -abs(a.strides[i])))


def _zeros(shape: tuple, layout: tuple | None) -> np.ndarray:
    """Zeros of `shape` laid out in memory as `layout` (from ``_layout``)."""
    if layout is None:
        return np.zeros(shape)
    return np.zeros([shape[i] for i in layout]).transpose(np.argsort(layout))


class _Node:
    """A differentiable tensor's one tape node: gradient slot, input nodes and
    backward closure (no inputs and no backward for a trainable Parameter's);
    ``_prev`` is None once backward has released it."""

    __slots__ = ("grad", "_owns_grad", "_prev", "_backward")

    def __init__(self, prev: tuple, backward):
        self.grad = None
        self._owns_grad = False
        self._prev = prev
        self._backward = backward


class Tensor:
    """An array plus its tape node: None for a constant."""

    __slots__ = ("data", "_node")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self._node = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _result(cls, data: np.ndarray, inputs: tuple, backward) -> "Tensor":
        """An op's output; skips the finiteness scan done for leaf tensors.

        With a `backward`, the tensor gets a new tape node, its one node, whose
        inputs are the nodes in `inputs` (from ``_input_nodes``; None marks a
        constant input) and `backward(g)` pushes the node's gradient `g` to
        them.  With None it is a constant.  The node keeps the closure, never
        `data`.
        """
        out = cls.__new__(cls)
        out.data = data
        if backward is None:
            out._node = None
        else:
            prev = inputs if None not in inputs else tuple([n for n in inputs if n is not None])
            out._node = _Node(prev, backward)
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @property
    def _prev(self) -> tuple | None:
        """The input nodes of this tensor's op: empty for a leaf or a constant,
        None once backward has released them."""
        return () if self._node is None else self._node._prev

    def zero_grad(self):
        node = self._node
        if node is not None:
            node.grad, node._owns_grad = np.zeros_like(self.data), True

    # -- backward pass --------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(x) into x.grad for every reachable tensor x,
        releasing each interior node once its gradient has been pushed on."""
        if self.data.size != 1:
            raise AutodiffError(f"backward requires a scalar, got shape {self.data.shape}")
        root = self._node
        if root is None:
            raise AutodiffError("backward on a tensor with no recorded inputs")
        topo: list = []
        visited: set[int] = set()
        stack: list = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._prev is None:
                raise AutodiffError("backward already ran through this graph; rebuild the graph")
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        _accumulate(root, np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._prev = node._backward = node.grad = None

    def __getitem__(self, idx):
        return getitem(self, idx)


class Parameter(Tensor):
    """Named leaf tensor.  Trainable unless `frozen`: a trainable one has a node
    with no inputs and no backward that owns its eagerly zeroed gradient; a
    frozen one is a constant, so it has ``grad = None`` for its whole life."""

    __slots__ = ("name",)

    def __init__(self, data, name: str, frozen: bool = False):
        super().__init__(data)
        self.name = name
        if not frozen:
            self._node = _Node((), None)
            self.zero_grad()

    @property
    def frozen(self) -> bool:
        return self._node is None


def _input_nodes(*tensors: Tensor) -> tuple | None:
    """The input nodes an op records, one per tensor (None for a constant), or
    None when the op records nothing: under no_grad, or when no input requires
    a gradient.  An op that builds its node by hand checks this before it
    builds its closure."""
    if not _grad_enabled:
        return None
    nodes = tuple([t._node for t in tensors])
    return None if nodes.count(None) == len(nodes) else nodes


def _record(out: np.ndarray, inputs, grads) -> Tensor:
    """A primitive op's output: `out`, with a tape node when the op records.

    `grads` holds one gradient rule per tensor of `inputs`: ``grads[i](g)`` is
    input i's gradient for the output gradient g.  Under no_grad, or when no
    input requires a gradient, the output is a constant.  Otherwise its node's
    inputs are the nodes of the inputs that require a gradient, and its
    backward accumulates their rules' gradients in input order.  The rules of
    constant inputs are dropped here, and with them any array only they read.
    """
    if _grad_enabled:
        pairs = [(t._node, grad) for t, grad in zip(inputs, grads) if t._node is not None]
        if pairs:

            def _bw(g):
                for node, grad in pairs:
                    _accumulate(node, grad(g))

            return Tensor._result(out, tuple([node for node, _ in pairs]), _bw)
    return Tensor._result(out, (), None)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    """Non-differentiable tensor that skips the finiteness scan.

    Wraps op inputs that no gradient reaches: windows, loss targets, cached
    keys and values, prompt masks.
    """
    return Tensor._result(np.asarray(data, dtype=np.float64), (), None)


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    return _record(a.data + b.data, (a, b), (lambda g: _unbroadcast(g, a_shape), lambda g: _unbroadcast(g, b_shape)))


def mul(a, b) -> Tensor:
    """Elementwise (and scalar) multiply with numpy broadcasting."""
    a, b = astensor(a), astensor(b)
    x, y = a.data, b.data
    x_shape, y_shape = x.shape, y.shape
    # each input's gradient reads the other operand
    return _record(x * y, (a, b), (lambda g: _unbroadcast(g * y, x_shape), lambda g: _unbroadcast(g * x, y_shape)))


# -- matrix ops ------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    x, y = a.data, b.data
    x_shape, y_shape = x.shape, y.shape
    return _record(
        x @ y,
        (a, b),
        (
            lambda g: _unbroadcast(g @ np.swapaxes(y, -1, -2), x_shape),
            lambda g: _unbroadcast(np.swapaxes(x, -1, -2) @ g, y_shape),
        ),
    )


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ W + b`` in one new array, or written into `out`."""
    out = np.matmul(x, W, out=out)
    out += b
    return out


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of W in ``x @ W + b`` for an output gradient g: one GEMM
    over all rows, not a batched matmul summed over the batch."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _affine_grads(g: np.ndarray, x: np.ndarray | None, nW, nb, b_shape: tuple) -> None:
    """Accumulate the gradients of W and b in ``x @ W + b`` for an output
    gradient g into their nodes nW and nb, None for a constant.  Only W's
    gradient reads x, which may be None when nW is."""
    if nW is not None:
        _accumulate(nW, _weight_grad(x, g))
    if nb is not None:
        _accumulate(nb, _unbroadcast(g, b_shape))


def linear(x, W, b) -> Tensor:
    """Affine map ``x @ W + b`` as one node: x is (..., in), W (in, out), b (out,)."""
    x, W, b = astensor(x), astensor(W), astensor(b)
    out = _affine(x.data, W.data, b.data)
    nodes = _input_nodes(x, W, b)
    if nodes is None:
        return Tensor._result(out, (), None)
    nx, nW, nb = nodes
    b_shape = b.data.shape
    x_data = x.data if nW is not None else None  # only W's gradient reads x
    W_data = W.data if nx is not None else None

    def _bw(g):
        if nx is not None:
            _accumulate(nx, g @ W_data.T)
        _affine_grads(g, x_data, nW, nb, b_shape)

    return Tensor._result(out, nodes, _bw)


def transpose(a, axes: tuple) -> Tensor:
    a = astensor(a)
    return _record(np.transpose(a.data, axes), (a,), (lambda g: np.transpose(g, np.argsort(axes)),))


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    a_shape = a.data.shape
    return _record(a.data.reshape(shape), (a,), (lambda g: g.reshape(a_shape),))


def _concat_grads(tensors: list, axis: int, ndim: int):
    """concat's gradient rules, one per input: its slice of g along axis, with
    bounds summed as Python ints.  A generator, so under no_grad, where
    ``_record`` never asks for them, none is built."""
    lead, hi = (slice(None),) * (axis % ndim), 0
    for t in tensors:
        lo, hi = hi, hi + t.data.shape[axis]
        yield lambda g, part=lead + (slice(lo, hi),): g[part]


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    return _record(out, tensors, _concat_grads(tensors, axis, out.ndim))


def getitem(a, idx) -> Tensor:
    """`a[idx]` for a basic index: an int, a slice or a tuple of them, so each
    element is hit at most once.  Any other index (an array, a list, a bool,
    None or Ellipsis) raises TypeError."""
    for i in idx if isinstance(idx, tuple) else (idx,):
        if not isinstance(i, (int, np.integer, slice)) or isinstance(i, bool):
            raise TypeError(f"getitem takes an int, a slice or a tuple of them, not {type(i).__name__}")
    a = astensor(a)
    # the gradient is g at idx in zeros laid out as np.zeros_like(a.data)
    # would be, so every later sum over it runs in the same order
    a_shape, a_layout = a.data.shape, _layout(a.data)

    def _grad(g):
        grad = _zeros(a_shape, a_layout)
        grad[idx] += g
        return grad

    return _record(a.data[idx], (a,), (_grad,))


# -- nonlinearities ----------------------------------------------------------------


def _select(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.where(mask, x, 0.0)`` byte for byte, -0.0, NaN and inf included,
    laid out the same, without a branch per element: x's bits ANDed with all
    ones where `mask` holds and with zeros elsewhere."""
    bits = np.array(mask, dtype=np.uint64)  # an array even for a 0-d mask, which compares to a scalar
    np.negative(bits, out=bits)
    return np.bitwise_and(x.view(np.uint64), bits, out=bits if bits.strides == x.strides else None).view(np.float64)


def relu(a) -> Tensor:
    a = astensor(a)
    mask = a.data > 0
    return _record(_select(mask, a.data), (a,), (lambda g: _select(mask, g),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign for overflow-free exponentials."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = astensor(a)
    s = _sigmoid(a.data)
    return _record(s, (a,), (lambda g: g * s * (1.0 - s),))


def tanh(a) -> Tensor:
    a = astensor(a)
    t = np.tanh(a.data)
    return _record(t, (a,), (lambda g: g * (1.0 - t * t),))


_GELU_C = math.sqrt(2.0 / math.pi)


_BLOCK = 1 << 17  # elements of working set per block of whole sequences (``_row_blocks``)


def _row_blocks(n: int, row_size: int) -> list[slice]:
    """Slices of whole leading-axis rows for running a kernel one block at a
    time, where `row_size` counts the elements a row's working set holds:
    about ``_BLOCK`` (1 MiB) of working set a slice, and never fewer than two
    rows, because each block pays a fixed cost of numpy calls (about 0.1 ms
    for a sublayer's forward and backward).  A block-sized temporary comes
    from memory the allocator already holds; an input-sized one is a fresh
    allocation whose pages fault in on first touch.  Elementwise results,
    and reductions over the last axis, do not depend on the blocking."""
    rows = max(2, _BLOCK // row_size)
    return [slice(i, i + rows) for i in range(0, n, rows)]


def _gelu(x: np.ndarray, output: bool = True, derivative: bool = False):
    """GELU's output ``0.5 * x * (1 + t)``, ``t = tanh(c * (x + 0.044715 * x * x * x))``,
    and, with `derivative`, its derivative
    ``0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x)``;
    None for one not asked for.  The output is one new array in x's layout.
    The derivative is one too, or, without the output, written over x, which
    it no longer needs.  t and the other temporaries are x's size, so a
    caller with a large x passes it one block at a time (``_row_blocks``).
    """
    out = np.empty_like(x) if output else None
    deriv = (np.empty_like(x) if output else x) if derivative else None
    # 1-d views of a 0-d x and its results: an op on 0-d arrays returns a
    # scalar, which takes no out=
    x, o, dd = (None if a is None else np.atleast_1d(a) for a in (x, out, deriv))
    # x * x * x, not x**3: numpy evaluates an integer power above 2 with a
    # per-element libm pow, tens of times slower than two multiplications
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    if derivative:
        b = t * t
        np.subtract(1.0, b, out=b)
        d = 0.5 * x
        d *= b
        np.multiply(x, 3 * 0.044715, out=b)
        b *= x
        b += 1.0
        b *= _GELU_C
        d *= b  # 0.5 * x * (1 - t * t) * dinner
    t += 1.0
    if output:
        np.multiply(0.5, x, out=o)
        o *= t
    if derivative:  # the last reader of x is done
        np.multiply(t, 0.5, out=dd)
        dd += d
    return out, deriv


def _row_mean(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` bit for bit, numpy's own sum and
    division, without the Python wrapper that a kernel run once per block
    pays on every call; written into `out` when given."""
    mean = np.add.reduce(x, axis=-1, keepdims=True, out=out)
    mean /= x.shape[-1]
    return mean


def _exp_normalize(shifted: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Softmax of rows already shifted by their max, in place in `shifted`.

    `masked`, broadcast against `shifted`, marks its -inf entries.  They are
    zeroed before the exp and after it instead of exponentiated, because
    numpy's exp of -inf takes a slow path: on a (10, 4, 60, 60) block whose
    causal half is -inf the exp took 1.4 times as long.  exp(-inf) is +0.0,
    so the result is bitwise the plain softmax's."""
    np.copyto(shifted, 0.0, where=masked)
    np.exp(shifted, out=shifted)
    np.copyto(shifted, 0.0, where=masked)
    shifted /= np.add.reduce(shifted, axis=-1, keepdims=True)
    return shifted


def _softmax_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``(g - (g * s).sum(-1)) * s``, the softmax backward, written over `g`,
    with one temporary of g's size."""
    g -= np.add.reduce(g * s, axis=-1, keepdims=True)
    g *= s
    return g


_LN_EPS = 1e-5  # added to LayerNorm's variance


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, normed=None, std=None):
    """LayerNorm's output ``normed * gain + bias``, its normalized input and
    the std it was divided by, running the numpy ops of the composition
    ``(x - mean) / sqrt(var + _LN_EPS) * gain + bias`` in the same order.  The
    normalized input and the std are new arrays in x's layout, or written
    into `normed` and `std` when given."""
    normed = np.subtract(x, _row_mean(x), out=normed)  # centered, until divided by std
    out = normed * normed
    std = _row_mean(out, out=std)
    std += _LN_EPS
    np.sqrt(std, out=std)
    normed /= std
    np.multiply(normed, gain, out=out)
    out += bias
    return out, normed, std


def _layer_norm_input_grad(g: np.ndarray, normed: np.ndarray, std: np.ndarray, gain: np.ndarray, out=None) -> np.ndarray:
    """LayerNorm's input gradient for an output gradient g, in one new array
    in g's layout or written into `out`, with one temporary of g's size.
    `normed` and `std` come from ``_layer_norm``."""
    gn = g * gain
    dx = np.subtract(gn, _row_mean(gn), out=out)
    gn *= normed
    np.multiply(normed, _row_mean(gn), out=gn)
    dx -= gn
    dx /= std
    return dx


def _layer_norm_grads(g: np.ndarray, normed, std: np.ndarray, gain: np.ndarray, bias_shape: tuple, nodes) -> None:
    """Accumulate LayerNorm's input, gain and bias gradients for an output
    gradient g into `nodes`, their three nodes, None for a constant.  `normed`
    and `std` come from ``_layer_norm``."""
    nx, ngain, nbias = nodes
    if nx is not None:
        _accumulate(nx, _layer_norm_input_grad(g, normed, std, gain))
    if ngain is not None:
        _accumulate(ngain, _unbroadcast(g * normed, gain.shape))
    if nbias is not None:
        _accumulate(nbias, _unbroadcast(g, bias_shape))


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One node; the forward runs the numpy ops of the composition
    ``(x - mean) / sqrt(var + _LN_EPS) * gain + bias`` in the same order, so the
    output is bitwise equal to it.
    """
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    out, normed, std = _layer_norm(x.data, gain.data, bias.data)
    nodes = _input_nodes(x, gain, bias)
    if nodes is None:
        return Tensor._result(out, (), None)
    bias_shape, gain_data = bias.data.shape, gain.data

    def _bw(g):
        _layer_norm_grads(g, normed, std, gain_data, bias_shape, nodes)

    return Tensor._result(out, nodes, _bw)
