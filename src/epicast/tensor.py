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
its input only when the weight needs a gradient, ``gelu`` its derivative,
computed in the forward over the tanh's buffer, ``add``, ``reshape`` or
``tsum`` shapes only, a ``branches`` tokenizer its propagated maps and a
``backbone`` attention sublayer its normalized input, from which they rebuild
the rest), and no node ever holds its own output tensor.  So an intermediate
array that no backward reads (a residual sum, a GELU input or output, the
attention's q, k, v and weights) is freed during the forward as soon as the
forward drops it.

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
  they nor ops whose inputs are all constant build a node or a closure.
  Validation and forecasting run this way.

Besides the primitive ops there are two fused ones, each a single tape node
with a hand-written backward: ``linear`` (``x @ W + b``) and ``layer_norm``.
The two tokenizers in ``branches`` and the attention sublayer in ``backbone``
are fused the same way, from the numpy kernels shared with these ops
(``_affine``, ``_sigmoid``, ``_select``, ``_layer_norm``, ``_exp_normalize``,
``_softmax_backward``).  Each gradient rule has one home that every fused
node calls: ``_affine_grads`` accumulates the W and b gradients of
``x @ W + b`` (W's as one GEMM, ``_weight_grad``), and ``_layer_norm_grads``
LayerNorm's input, gain and bias gradients.  Their forwards are bitwise
equal to the same computation composed from the primitives, and tests
validate both forwards and gradients against that composed form.

The kernels write into one or two arrays they own, with ``out=`` and in-place
ops, instead of a fresh input-sized temporary per numpy op: each temporary is
a new large allocation whose pages fault in on first touch, which costs more
than the arithmetic.  Where ``gelu`` or the softmax backward still needs a
temporary, it runs that part in blocks of whole leading-axis rows of about
32,768 elements (``_blocks``), so the temporary is one block big.  ``_select``
is ``np.where(mask, x, 0.0)`` as a bitwise AND, free of the branch per element
that mispredicts on sign masks.  The kernels run the composed form's numpy
ops in the same order, so every result is bitwise unchanged.

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


def _owned_grad(node, shape: tuple, layout: tuple | None) -> np.ndarray:
    """node.grad as an array the node owns, zeroed (laid out as `layout`) or
    copied on first need."""
    if node.grad is None:
        if layout is None:
            node.grad = np.zeros(shape)
        else:
            node.grad = np.zeros([shape[i] for i in layout]).transpose(np.argsort(layout))
    elif not node._owns_grad:
        node.grad = np.array(node.grad)
    node._owns_grad = True
    return node.grad


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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

    def __repr__(self):
        tag = "frozen" if self.frozen else "trainable"
        return f"Parameter({self.name!r}, shape={self.data.shape}, {tag})"


def _input_nodes(*tensors: Tensor) -> tuple | None:
    """The input nodes an op records, one per tensor (None for a constant), or
    None when the op records nothing: under no_grad, or when no input requires
    a gradient.  An op checks this before it builds its closure."""
    if not _grad_enabled:
        return None
    nodes = tuple([t._node for t in tensors])
    return None if nodes.count(None) == len(nodes) else nodes


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
    out = a.data + b.data
    nodes = _input_nodes(a, b)
    if nodes is None:
        return Tensor._result(out, (), None)
    na, nb = nodes
    a_shape, b_shape = a.data.shape, b.data.shape

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, b_shape))

    return Tensor._result(out, nodes, _bw)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data - b.data
    nodes = _input_nodes(a, b)
    if nodes is None:
        return Tensor._result(out, (), None)
    na, nb = nodes
    a_shape, b_shape = a.data.shape, b.data.shape

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g, a_shape))
        if nb is not None:
            _accumulate(nb, -_unbroadcast(g, b_shape))

    return Tensor._result(out, nodes, _bw)


def mul(a, b) -> Tensor:
    """Elementwise (and scalar) multiply with numpy broadcasting."""
    a, b = astensor(a), astensor(b)
    out = a.data * b.data
    nodes = _input_nodes(a, b)
    if nodes is None:
        return Tensor._result(out, (), None)
    na, nb = nodes
    a_shape, b_shape = a.data.shape, b.data.shape
    # each input's gradient reads the other operand
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * b_data, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * a_data, b_shape))

    return Tensor._result(out, nodes, _bw)


def square(a) -> Tensor:
    a = astensor(a)
    x = a.data
    out = x * x
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(out, (), None)
    (na,) = nodes

    def _bw(g):
        _accumulate(na, 2.0 * x * g)

    return Tensor._result(out, nodes, _bw)


def sqrt(a) -> Tensor:
    a = astensor(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt of negative input")
    root = np.sqrt(a.data)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(root, (), None)
    (na,) = nodes

    def _bw(g):
        _accumulate(na, g / (2.0 * root))

    return Tensor._result(root, nodes, _bw)


# -- matrix ops ------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.data.ndim < 1 or b.data.ndim < 1:
        raise ValueError("matmul requires at least 1-d operands")
    out = a.data @ b.data
    nodes = _input_nodes(a, b)
    if nodes is None:
        return Tensor._result(out, (), None)
    na, nb = nodes
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def _bw(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape))

    return Tensor._result(out, nodes, _bw)


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ W + b`` in one new array."""
    out = x @ W
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
    out = np.transpose(a.data, axes)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(out, (), None)
    (na,) = nodes
    inv = np.argsort(axes)

    def _bw(g):
        _accumulate(na, np.transpose(g, inv))

    return Tensor._result(out, nodes, _bw)


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    out = a.data.reshape(shape)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(out, (), None)
    (na,) = nodes
    a_shape = a.data.shape

    def _bw(g):
        _accumulate(na, g.reshape(a_shape))

    return Tensor._result(out, nodes, _bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = _input_nodes(*tensors)
    if nodes is None:
        return Tensor._result(out, (), None)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def _bw(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(node, g[tuple(idx)])

    return Tensor._result(out, nodes, _bw)


def _is_basic_index(idx) -> bool:
    """True for an int, a slice or a tuple of them: each element is hit once."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, (int, np.integer, slice)) and not isinstance(i, bool) for i in items)


def getitem(a, idx) -> Tensor:
    a = astensor(a)
    out = a.data[idx]
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(out, (), None)
    (na,) = nodes
    basic = _is_basic_index(idx)
    # the gradient keeps the memory layout np.zeros_like(a.data) would have,
    # so every later sum over it runs in the same order
    a_shape, a_layout = a.data.shape, _layout(a.data)

    def _bw(g):
        grad = _owned_grad(na, a_shape, a_layout)
        if basic:
            grad[idx] += g
        else:
            # advanced indices may repeat an element; add.at counts every hit
            np.add.at(grad, idx, g)

    return Tensor._result(out, nodes, _bw)


# -- reductions -------------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(out, (), None)
    (na,) = nodes
    a_shape = a.data.shape

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(na, np.broadcast_to(g, a_shape))

    return Tensor._result(out, nodes, _bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    mean = a.data.mean(axis=axis, keepdims=keepdims)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(mean, (), None)
    (na,) = nodes
    a_shape = a.data.shape
    count = a.data.size / mean.size

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(na, np.broadcast_to(g, a_shape) / count)

    return Tensor._result(mean, nodes, _bw)


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
    out = _select(mask, a.data)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(out, (), None)
    (na,) = nodes

    def _bw(g):
        _accumulate(na, _select(mask, g))

    return Tensor._result(out, nodes, _bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign for overflow-free exponentials."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = astensor(a)
    s = _sigmoid(a.data)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(s, (), None)
    (na,) = nodes

    def _bw(g):
        _accumulate(na, g * s * (1.0 - s))

    return Tensor._result(s, nodes, _bw)


def tanh(a) -> Tensor:
    a = astensor(a)
    t = np.tanh(a.data)
    nodes = _input_nodes(a)
    if nodes is None:
        return Tensor._result(t, (), None)
    (na,) = nodes

    def _bw(g):
        _accumulate(na, g * (1.0 - t * t))

    return Tensor._result(t, nodes, _bw)


_GELU_C = math.sqrt(2.0 / math.pi)


_BLOCK = 1 << 15  # elements per block of a blocked kernel


def _blocks(*arrays: np.ndarray):
    """Matching blocks of whole leading-axis rows of same-shape arrays, about
    ``_BLOCK`` elements each (one row if a row is larger), for running a
    kernel one block at a time.  A block-sized temporary comes from memory the
    allocator already holds; an input-sized one is a fresh allocation whose
    pages fault in on first touch.  Elementwise results, and reductions over
    the last axis, do not depend on the blocking."""
    views = [np.atleast_2d(a) for a in arrays]
    rows = max(1, _BLOCK // max(1, views[0][0].size))
    return (tuple(v[i : i + rows] for v in views) for i in range(0, len(views[0]), rows))


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation, smooth everywhere).

    Forward: ``0.5 * x * (1 + t)`` with ``t = tanh(c * (x + 0.044715 * x * x * x))``;
    backward: ``g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x))``.
    """
    a = astensor(a)
    x = a.data
    # x * x * x, not x**3: numpy evaluates an integer power above 2 with a
    # per-element libm pow, tens of times slower than two multiplications.
    # t and out are arrays in x's layout even for a 0-d x, whose x * x would
    # be a numpy scalar with no buffer to write into.
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(0.5, x, out=np.empty_like(x))
    nodes = _input_nodes(a)
    if nodes is None:
        for o, tt in _blocks(out, t):
            o *= 1.0 + tt
        return Tensor._result(out, (), None)
    (na,) = nodes
    # The backward reads only the derivative: write it over t, block by block,
    # finishing out from t + 1 on the way, and keep that one array, not x and t.
    for o, tt, xx in _blocks(out, t, x):
        b = tt * tt
        np.subtract(1.0, b, out=b)
        d = 0.5 * xx
        d *= b
        np.multiply(xx, 3 * 0.044715, out=b)
        b *= xx
        b += 1.0
        b *= _GELU_C
        d *= b  # 0.5 * x * (1 - t * t) * dinner
        tt += 1.0
        o *= tt
        tt *= 0.5
        tt += d
    deriv = t

    def _bw(g):
        _accumulate(na, np.multiply(deriv, g, out=deriv))

    return Tensor._result(out, nodes, _bw)


def _exp_normalize(shifted: np.ndarray) -> np.ndarray:
    """Softmax of rows already shifted by their max, in place in `shifted`."""
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def _softmax_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``(g - (g * s).sum(-1)) * s``, the softmax backward, written over `g`,
    with one block-sized temporary."""
    for gg, ss in _blocks(g, s):
        gg -= (gg * ss).sum(axis=-1, keepdims=True)
        gg *= ss
    return g


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """LayerNorm's output ``normed * gain + bias``, its normalized input and
    the std it was divided by, running the numpy ops of the composition
    ``(x - mean) / sqrt(var + eps) * gain + bias`` in the same order."""
    normed = x - x.mean(axis=-1, keepdims=True)  # centered, until divided by std
    out = normed * normed
    std = out.mean(axis=-1, keepdims=True)
    std += eps
    np.sqrt(std, out=std)
    normed /= std
    np.multiply(normed, gain, out=out)
    out += bias
    return out, normed, std


def _layer_norm_grads(g: np.ndarray, normed, std: np.ndarray, gain: np.ndarray, bias_shape: tuple, nodes) -> None:
    """Accumulate LayerNorm's input, gain and bias gradients for an output
    gradient g into `nodes`, their three nodes, None for a constant.  `normed`
    and `std` come from ``_layer_norm``; `normed` may be None when only the
    bias needs a gradient."""
    nx, ngain, nbias = nodes
    if nx is not None:
        gn = g * gain
        dx = gn - gn.mean(axis=-1, keepdims=True)
        gn *= normed
        np.multiply(normed, gn.mean(axis=-1, keepdims=True), out=gn)
        dx -= gn
        dx /= std
        del gn  # each input-sized array is freed before the next one is allocated
        _accumulate(nx, dx)
        del dx
    if ngain is not None:
        _accumulate(ngain, _unbroadcast(g * normed, gain.shape))
    if nbias is not None:
        _accumulate(nbias, _unbroadcast(g, bias_shape))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One node; the forward runs the numpy ops of the composition
    ``(x - mean) / sqrt(var + eps) * gain + bias`` in the same order, so the
    output is bitwise equal to it.
    """
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    out, normed, std = _layer_norm(x.data, gain.data, bias.data, eps)
    nodes = _input_nodes(x, gain, bias)
    if nodes is None:
        return Tensor._result(out, (), None)
    bias_shape, gain_data = bias.data.shape, gain.data
    if nodes[0] is None and nodes[1] is None:  # only the bias gradient, which reads no array
        normed = None

    def _bw(g):
        _layer_norm_grads(g, normed, std, gain_data, bias_shape, nodes)

    return Tensor._result(out, nodes, _bw)
