"""Dense float64 tensors with reverse-mode automatic differentiation.

Every array in the library is a row-major float64 ``Tensor``.  Forward ops
record a tape: each output keeps links to its parents and a backward closure
``_backward(g)`` that receives the output's gradient ``g`` and accumulates the
parents' shares into their ``grad``.  A closure captures only its parents and
plain arrays, never its own output, so the tape is acyclic: reference counting
frees it as soon as nothing holds the loss, with no help from the cyclic
collector.

``Tensor.backward`` replays the tape in reverse topological order.  Leaves
with ``requires_grad=True`` keep their accumulated ``grad``; every interior
node's ``grad`` is released once its rule has run, so a second ``backward``
over the same graph adds exactly one more pass to the leaves.

Inside ``with no_grad():`` ops build no parent links and no closures; their
outputs are constants with the same values.  Tensors that take part in a tape
are never mutated in place; parameter updates happen on leaf ``data`` between
tapes.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_SQRT_2_OVER_PI = 0.7978845608028654  # sqrt(2/pi), for the tanh GELU form
_GELU_COEF = 0.044715


class Tensor:
    """A dense float64 array plus an optional gradient tape node."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._backward: Callable[[Array], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{req})"

    # -- graph plumbing ------------------------------------------------

    def detach(self) -> "Tensor":
        """Constant view of this tensor; shares data, drops the tape."""
        return Tensor(self.data)

    def _accumulate(self, g: Array) -> None:
        # Rebinding (never in-place add) keeps aliased upstream buffers safe.
        self.grad = g if self.grad is None else self.grad + g

    def backward(self, grad: Array | None = None) -> None:
        """Reverse-mode pass from this tensor.

        Without an explicit seed gradient the tensor must be scalar-sized.
        Gradients accumulate additively, so a leaf feeding several branches
        receives the sum of all branch contributions.  Interior nodes release
        their ``grad`` once their rule has run; only leaves keep theirs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError("seed gradient shape mismatch")

        # Iterative post-order DFS; recursion would overflow on long tapes.
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
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(g: Array, target_shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``target_shape``."""
    if g.shape == target_shape:
        return g
    while g.ndim > len(target_shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, target_shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no tape inside the block (a process-wide flag, not per thread).

    Nests, restores the previous state on exit or exception, and also works
    as a decorator: ``@no_grad()``.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: Array, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


# -- elementwise arithmetic ------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))
        out._backward = _bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data - b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data * b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))
        out._backward = _bw
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data / b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
        out._backward = _bw
    return out


def neg(a: Tensor) -> Tensor:
    out = _node(-a.data, (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(-g)
        out._backward = _bw
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    out = _node(a.data ** exponent, (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * exponent * a.data ** (exponent - 1.0))
        out._backward = _bw
    return out


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * y)
        out._backward = _bw
    return out


def log(a: Tensor) -> Tensor:
    out = _node(np.log(a.data), (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g / a.data)
        out._backward = _bw
    return out


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * 0.5 / y)
        out._backward = _bw
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * (1.0 - y * y))
        out._backward = _bw
    return out


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form); smoothness keeps finite differences honest."""
    x = a.data
    inner = _SQRT_2_OVER_PI * (x + _GELU_COEF * (x * x * x))
    t = np.tanh(inner)
    out = _node(0.5 * x * (1.0 + t), (a,))
    if out.requires_grad:
        def _bw(g):
            d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_COEF * x * x)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
            a._accumulate(g * local)
        out._backward = _bw
    return out


def maximum(a: Tensor, floor: float) -> Tensor:
    """Elementwise max against a scalar floor; gradient flows only above it."""
    mask = a.data > floor
    out = _node(np.where(mask, a.data, floor), (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * mask)
        out._backward = _bw
    return out


# -- shape ops ---------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = _node(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g.reshape(a.data.shape))
        out._backward = _bw
    return out


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = _node(np.transpose(a.data, axes), (a,))
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))
        def _bw(g):
            a._accumulate(np.transpose(g, inverse))
        out._backward = _bw
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _bw(g):
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(start, stop)
                    t._accumulate(g[tuple(index)])
        out._backward = _bw
    return out


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices along ``axis``; duplicate indices accumulate in backward."""
    idx = np.asarray(indices, dtype=np.intp)
    out = _node(np.take(a.data, idx, axis=axis), (a,))
    if out.requires_grad:
        def _bw(g):
            g_full = np.zeros_like(a.data)
            index = [slice(None)] * a.data.ndim
            index[axis] = idx
            np.add.at(g_full, tuple(index), g)
            a._accumulate(g_full)
        out._backward = _bw
    return out


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _node(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def _bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))
        out._backward = _bw
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


# -- linear algebra ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimension mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out = _node(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.data.shape))
        out._backward = _bw
    return out


# -- fused numerics ------------------------------------------------------------


def softmax_stable(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax over ``axis`` with max-subtraction so huge logits cannot overflow."""
    if not np.isfinite(a.data).all():
        raise ValueError("non-finite logits")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - dot))
        out._backward = _bw
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.isfinite(a.data).all():
        raise ValueError("non-finite logits")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = _node(shifted - log_z, (a,))
    if out.requires_grad:
        soft = np.exp(out.data)
        def _bw(g):
            a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))
        out._backward = _bw
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layer_norm gain/bias must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _node(xhat * gain.data + bias.data, (x, gain, bias))
    if out.requires_grad:
        def _bw(g):
            if gain.requires_grad:
                gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
            if bias.requires_grad:
                bias._accumulate(g.reshape(-1, d).sum(axis=0))
            if x.requires_grad:
                gx_hat = g * gain.data
                term = gx_hat - gx_hat.mean(axis=-1, keepdims=True) \
                    - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
                x._accumulate(term * inv)
        out._backward = _bw
    return out


# -- binary dump format ---------------------------------------------------------

_MAGIC = b"TDMP"


def save_tensor(path, array) -> None:
    """Write ``array`` in the dump format: magic, u32 rank, u64 dims, f64 payload."""
    arr = np.asarray(array.data if isinstance(array, Tensor) else array, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        if arr.ndim:
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8").tobytes())


def load_tensor(path) -> Array:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic, not a tensor dump")
    (rank,) = struct.unpack_from("<I", blob, 4)
    offset = 8
    dims = struct.unpack_from(f"<{rank}Q", blob, offset) if rank else ()
    offset += 8 * rank
    count = int(np.prod(dims)) if rank else 1
    payload = blob[offset:]
    if len(payload) != 8 * count:
        raise ValueError(f"{path}: payload size does not match header dims")
    return np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
