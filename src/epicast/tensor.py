"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray and, when it participates in a differentiable
computation, remembers how to push gradients back to its inputs.  Calling
``backward()`` on a scalar walks the recorded graph in reverse topological
order and accumulates ``grad`` on every tensor that requires it.  Parameters
are tensors with a name and a ``frozen`` flag: frozen parameters still
receive gradients (so gradients can flow *through* a frozen backbone) but
optimizers must never update them.

A tape's lifetime follows reference counting alone:

- A node holds its inputs and a backward closure over those inputs, never
  over itself, so a tape has no reference cycles and dies with its output.
- Gradients are lazy.  Leaves (Parameters included) own an eagerly zeroed
  ``grad``; an interior node has ``grad = None`` until its first
  accumulation, which adopts the incoming array without a copy.  That array
  may be shared with a sibling input or be a read-only broadcast view, so a
  node adds in place only into a gradient array it owns.
- ``backward()`` releases the tape as it walks it: once a node has pushed
  its gradient to its inputs, its inputs, closure and gradient are dropped.
  A second backward through a released node raises AutodiffError.
- Under ``with no_grad():`` ops record nothing and return tensors that do
  not require gradients.  Validation and forecasting run this way.

Besides the primitive ops there are two fused ones, each a single tape node
with a hand-written backward: ``linear`` (``x @ W + b``) and ``layer_norm``.
Their forwards are bitwise equal to the same computation composed from the
primitives, and tests validate both forwards and gradients against that
composed form.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True


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


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    """Add `g` into t.grad, in place only if t owns its gradient array."""
    if t.grad is None:
        t.grad, t._owns_grad = g, False
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad, t._owns_grad = t.grad + g, True


def _owned_grad(t: "Tensor") -> np.ndarray:
    """t.grad as an array t owns, zeroed or copied on first need."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif not t._owns_grad:
        t.grad = np.array(t.grad)
    t._owns_grad = True
    return t.grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_owns_grad", "_prev", "_backward", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._owns_grad = True
        self._prev: tuple = ()
        self._backward = None
        self._backward_done = False

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _result(cls, data: np.ndarray, prev: tuple, backward) -> "Tensor":
        """Interior node; skips the finiteness scan done for leaf tensors.

        `backward(g)` pushes the node's gradient `g` to the tensors in `prev`;
        it is kept only when some input requires a gradient and no_grad is off.
        """
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._owns_grad = False
        out._backward_done = False
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in prev)
        if out.requires_grad:
            out._prev = prev
            out._backward = backward
        else:
            out._prev = ()
            out._backward = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)
            self._owns_grad = True

    # -- backward pass --------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(x) into x.grad for every reachable tensor x,
        releasing each interior node once its gradient has been pushed on."""
        if self.data.size != 1:
            raise AutodiffError(f"backward requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise AutodiffError("backward on a tensor with no recorded inputs")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_done:
                raise AutodiffError("backward already ran through this graph; rebuild the graph")
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if child.requires_grad and id(child) not in visited:
                    stack.append((child, False))
        _accumulate(self, np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._prev, node._backward, node.grad = (), None, None
                node._backward_done = True

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


class Parameter(Tensor):
    """Named trainable tensor; frozen parameters are never updated in place."""

    __slots__ = ("name", "frozen")

    def __init__(self, data, name: str, frozen: bool = False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.frozen = bool(frozen)

    def __repr__(self):
        tag = "frozen" if self.frozen else "trainable"
        return f"Parameter({self.name!r}, shape={self.data.shape}, {tag})"


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    """Non-differentiable tensor that skips the finiteness scan.

    Exists for additive attention masks, which legitimately hold -inf.
    """
    return Tensor._result(np.asarray(data, dtype=np.float64), (), None)


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor._result(a.data + b.data, (a, b), _bw)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.data.shape))

    return Tensor._result(a.data - b.data, (a, b), _bw)


def mul(a, b) -> Tensor:
    """Elementwise (and scalar) multiply with numpy broadcasting."""
    a, b = astensor(a), astensor(b)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor._result(a.data * b.data, (a, b), _bw)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._result(a.data / b.data, (a, b), _bw)


def square(a) -> Tensor:
    a = astensor(a)

    def _bw(g):
        _accumulate(a, 2.0 * a.data * g)

    return Tensor._result(a.data * a.data, (a,), _bw)


def sqrt(a) -> Tensor:
    a = astensor(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt of negative input")
    root = np.sqrt(a.data)

    def _bw(g):
        _accumulate(a, g / (2.0 * root))

    return Tensor._result(root, (a,), _bw)


# -- matrix ops ------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.data.ndim < 1 or b.data.ndim < 1:
        raise ValueError("matmul requires at least 1-d operands")

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return Tensor._result(a.data @ b.data, (a, b), _bw)


def linear(x, W, b) -> Tensor:
    """Affine map ``x @ W + b`` as one node: x is (..., in), W (in, out), b (out,)."""
    x, W, b = astensor(x), astensor(W), astensor(b)
    out = x.data @ W.data
    out += b.data

    def _bw(g):
        if x.requires_grad:
            _accumulate(x, g @ W.data.T)
        if W.requires_grad:
            # one GEMM over all rows, not a batched matmul summed over the batch
            rows = x.data.reshape(-1, x.data.shape[-1])
            _accumulate(W, rows.T @ g.reshape(-1, g.shape[-1]))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor._result(out, (x, W, b), _bw)


def transpose(a, axes: tuple) -> Tensor:
    a = astensor(a)
    inv = np.argsort(axes)

    def _bw(g):
        _accumulate(a, np.transpose(g, inv))

    return Tensor._result(np.transpose(a.data, axes), (a,), _bw)


def reshape(a, shape) -> Tensor:
    a = astensor(a)

    def _bw(g):
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor._result(a.data.reshape(shape), (a,), _bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)])

    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), _bw)


def _is_basic_index(idx) -> bool:
    """True for an int, a slice or a tuple of them: each element is hit once."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, (int, np.integer, slice)) and not isinstance(i, bool) for i in items)


def getitem(a, idx) -> Tensor:
    a = astensor(a)
    basic = _is_basic_index(idx)

    def _bw(g):
        grad = _owned_grad(a)
        if basic:
            grad[idx] += g
        else:
            # advanced indices may repeat an element; add.at counts every hit
            np.add.at(grad, idx, g)

    return Tensor._result(a.data[idx], (a,), _bw)


# -- reductions -------------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), _bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    mean = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / mean.size

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape) / count)

    return Tensor._result(mean, (a,), _bw)


# -- nonlinearities ----------------------------------------------------------------


def relu(a) -> Tensor:
    a = astensor(a)
    mask = a.data > 0

    def _bw(g):
        _accumulate(a, np.where(mask, g, 0.0))

    return Tensor._result(np.where(mask, a.data, 0.0), (a,), _bw)


def sigmoid(a) -> Tensor:
    a = astensor(a)
    # split by sign for overflow-free exponentials
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def _bw(g):
        _accumulate(a, g * s * (1.0 - s))

    return Tensor._result(s, (a,), _bw)


def tanh(a) -> Tensor:
    a = astensor(a)
    t = np.tanh(a.data)

    def _bw(g):
        _accumulate(a, g * (1.0 - t * t))

    return Tensor._result(t, (a,), _bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation, smooth everywhere)."""
    a = astensor(a)
    x = a.data
    # x * x * x, not x**3: numpy evaluates an integer power above 2 with a
    # per-element libm pow, tens of times slower than two multiplications.  The
    # backward recomputes x * x: keeping it in the closure would hold one more
    # input-sized array per gelu on the tape.
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)

    def _bw(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        _accumulate(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner))

    return Tensor._result(0.5 * x * (1.0 + t), (a,), _bw)


def softmax(a) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction.

    -inf entries (e.g. causal masking) come out as exactly zero weight.
    """
    a = astensor(a)
    x = a.data
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        _accumulate(a, (g - (g * s).sum(axis=-1, keepdims=True)) * s)

    return Tensor._result(s, (a,), _bw)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One node; the forward runs the numpy ops of the composition
    ``(x - mean) / sqrt(var + eps) * gain + bias`` in the same order, so the
    output is bitwise equal to it.
    """
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered / std
    out = normed * gain.data
    out += bias.data

    def _bw(g):
        if x.requires_grad:
            gn = g * gain.data
            dx = gn - gn.mean(axis=-1, keepdims=True)
            dx -= normed * (gn * normed).mean(axis=-1, keepdims=True)
            dx /= std
            _accumulate(x, dx)
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * normed, gain.data.shape))
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))

    return Tensor._result(out, (x, gain, bias), _bw)
