"""Dense float tensors with reverse-mode automatic differentiation.

A ``Tensor`` holds a row-major float32 or float64 array; anything else is
stored as float64.  An op computes in the dtype of its operands, and Python
scalars and plain arrays that meet a tensor in an arithmetic op are cast to
that tensor's dtype, so a float32 graph never widens silently.  The model
computes in float32; the finite-difference oracle certifies the same ops on
float64 modules.

Only the ops the program calls exist: ``+ * /`` with a tensor on the left,
basic slicing, and the functions below, which stand in for powers (``x * x``)
and for numpy's ``@``, ``.sum``, ``.mean``, ``.reshape`` and ``.swapaxes``.
The fused numerics at the end are one tape node each, with a hand-written
backward: softmax (over the last axis), the straight-through estimator
(one-hot rows forward, the identity backward), the negative log-likelihood,
layer norm, the two-layer GELU ``mlp``, and the two token-mixing ops every
block calls between its projections, multi-head ``attention`` (plain, as one
group, or grouped as divided space-time attention) and the language-aware
``cosine_gate``; the former computes its probabilities, key by query, before
it allocates its result, and writes that result through heads and group views.
Softmax, attention and the negative log-likelihood refuse non-finite logits
with ``FloatingPointError``.
One loop, ``_blockwise``, cuts their elementwise chains, attention's dS and
AdamW's update into blocks of at most ``BLOCK_VALUES`` values (but at least one
row, matrix or value), so the few arrays a chain touches stay in a core's L2
cache from one step to the next; each element sees the ops it would see over the
whole array, and every product and every row sum keeps its shape, so the bits
do not depend on the block size.

Forward ops record a tape: each output keeps links to its parents and a
backward closure ``_backward(g)`` that receives the output's gradient ``g``
and accumulates the parents' shares into their ``grad``.  A closure captures
only its parents and the arrays its rule reads, never its own output, so the
tape is acyclic: reference counting frees it as soon as nothing holds the
loss, with no help from the cyclic collector.

``Tensor.backward`` replays the tape in reverse topological order.  Leaves
with ``requires_grad=True`` keep their summed ``grad``, in their ``grad_slot``
(a view of an optimizer's vector) if set, which a weight's or bias's product
fills directly.  Each interior node drops its ``grad``, closure and parent
links once its rule has run, freeing activations as the pass moves toward the
inputs; a second ``backward`` through a used graph raises ``RuntimeError``.

Inside ``with no_grad():`` ops build no parent links and no closures; their
outputs are constants with the same values.  Tensors that take part in a tape
are never mutated in place; a model's parameters are views of one buffer that
the optimizer updates in place between tapes.

Importing this module (so importing glimpse) sets glibc's malloc trim and mmap
thresholds for the whole process, so the memory a freed tape held stays in the
heap for the next pass instead of going back to the kernel and being faulted
in again.  Under any other libc it changes nothing.
"""

from __future__ import annotations

import ctypes
import math
import operator
import platform
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_SQRT_2_OVER_PI = 0.7978845608028654  # sqrt(2/pi), for the tanh GELU form
_GELU_COEF = 0.044715
FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))

# Values in one block of ``_blockwise``: 2^16 float32 values are 256 KB, so the
# three to six arrays a chain touches at once fit a 2 MB per-core L2.  At 2^15
# the fixed cost per ufunc call of AdamW's update showed at bench geometry (a
# 17 ms update took 21 ms).
BLOCK_VALUES = 1 << 16


def _keep_freed_memory() -> None:
    """Under glibc, fix malloc's mmap threshold at the ceiling of its dynamic rule
    and trim only a heap top of 1 GiB or more.

    glibc raises its mmap threshold to the largest mmapped block freed so
    far, up to 32 MiB on 64-bit, with a trim threshold of twice that.  Left
    dynamic, the arrays a pass frees go back to the kernel, unmapped or
    trimmed off the top of the heap, and the next pass faults them in again.
    A backward pass frees the tape from its newest arrays down, so the free
    top of the heap grows toward a whole tape: at bench geometry, trimmed at
    64 MiB, a step faulted about 57 MB back in.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for name, option, value in (("M_TRIM_THRESHOLD", -1, 1 << 30),
                                ("M_MMAP_THRESHOLD", -3, 32 << 20)):
        if mallopt(option, value) == 0:
            raise RuntimeError(f"mallopt({name}, {value}) failed")


_keep_freed_memory()


class Tensor:
    """A dense float32 or float64 array plus an optional gradient tape node.

    Float32 and float64 arrays are kept as they are; any other input is
    converted to float64.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_slot", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in FLOAT_DTYPES else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.grad_slot: Array | None = None
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

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{req})"

    # -- graph plumbing ------------------------------------------------

    def _accumulate(self, g: Array) -> None:
        # Rebinding keeps aliased upstream buffers safe; a grad slot is written in place.
        if self.grad is None and self.grad_slot is not None:
            self.grad = self.grad_slot
            self.grad[...] = g
        elif self.grad is not None and self.grad is self.grad_slot:
            self.grad += g
        else:
            self.grad = g if self.grad is None else self.grad + g

    def _accumulate_product(self, left: Array, right: Array) -> None:
        """Accumulate ``left @ right``; a pass's first product is computed into the grad slot."""
        if self.grad is None and self.grad_slot is not None:
            self.grad = np.matmul(left, right, out=self.grad_slot)
        else:
            self._accumulate(left @ right)

    def backward(self) -> None:
        """Reverse-mode pass from this scalar-sized tensor, seeded with 1.

        Gradients accumulate additively, so a leaf feeding several branches
        receives the sum of all branch contributions.  Interior nodes release
        their ``grad``, closure and parent links once their rule has run, so a
        second pass through them raises ``RuntimeError``; leaves keep ``grad``.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")

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

        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _spent, ()

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __getitem__(self, key) -> "Tensor":
        return getitem(self, key)


def _spent(g: Array) -> None:
    raise RuntimeError("backward through a graph that an earlier backward already freed")


def _wrap(value, like: Tensor) -> Tensor:
    """``value`` as a tensor; a scalar or plain array takes the dtype of ``like``.

    Under NumPy's promotion rules a float32 array times a 0-d float64 array
    is float64, so a constant built in float64 would widen a float32 graph.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


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
            for t in (a, b):
                if t.requires_grad:
                    t._accumulate(_unbroadcast(g, t.data.shape))
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


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * 0.5 / y)
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


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes; negative axes count from the end."""
    out = _node(np.swapaxes(a.data, axis1, axis2), (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(np.swapaxes(g, axis1, axis2))
        out._backward = _bw
    return out


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Read-only broadcast view; the backward sums over the broadcast axes."""
    out = _node(np.broadcast_to(a.data, shape), (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(_unbroadcast(g, a.data.shape))
        out._backward = _bw
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
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


def getitem(a: Tensor, key) -> Tensor:
    """Basic slicing (ints, slices, ``...``); the backward assigns into a zero slab.

    Basic indexing never repeats an element, so the assignment needs no
    ``np.add.at``; gathers by index arrays go through ``take``.
    """
    parts = key if isinstance(key, tuple) else (key,)
    if not all(part is Ellipsis or isinstance(part, (int, np.integer, slice))
               for part in parts):
        raise TypeError(f"getitem takes ints, slices and ..., not {key!r}")
    out = _node(a.data[key], (a,))
    if out.requires_grad:
        def _bw(g):
            g_full = np.zeros_like(a.data)
            g_full[key] = g
            a._accumulate(g_full)
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


def _affine(a: Array, w: Array, *addends: Tensor | None) -> Array:
    """``a @ w`` plus the given addends, in order and in place: no partial sum is kept."""
    data = np.matmul(a, w)
    for t in addends:
        if t is not None:
            data += t.data
    return data


def _affine_grads(g: Array, a: Tensor, w: Tensor, *addends: Tensor | None) -> None:
    """Accumulate ``g``'s shares: addends, ``a``, ``w``; a bias's or 2-D weight's as one product."""
    rows = g.reshape(-1, g.shape[-1])
    for t in addends:
        if t is not None and t.requires_grad and t.data.shape == rows.shape[1:]:
            t._accumulate_product(np.ones(len(rows), g.dtype), rows)
        elif t is not None and t.requires_grad:
            t._accumulate(_unbroadcast(g, t.data.shape))
    if a.requires_grad:
        a._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(w.data, -1, -2)), a.data.shape))
    if w.requires_grad and w.ndim == 2:
        w._accumulate_product(a.data.reshape(-1, a.data.shape[-1]).T, rows)
    elif w.requires_grad:
        w._accumulate(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), w.data.shape))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None,
           residual: Tensor | None = None) -> Tensor:
    """``residual + (a @ b + bias)`` over the last two axes; leading (batch) axes broadcast.

    A stack ``(..., S, D) @ (D, E)`` runs one small product per batch entry,
    each the product that entry would get alone; the weight gradient is one
    product over the rows of all entries.  The bias and a block's skip are added
    inside this node.  The skip is the first parent, so the tape replays in
    the order of a separate ``residual + product`` add.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimension mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out = _node(_affine(a.data, b.data, bias, residual),
                tuple(t for t in (residual, a, b, bias) if t is not None))
    if out.requires_grad:
        out._backward = lambda g: _affine_grads(g, a, b, bias, residual)
    return out


def matmul_each(a: Tensor, tables: Sequence[Array]) -> Tensor:
    """``a[r] @ tables[r]`` per row: (R, K, N) by R constant (N, ...) arrays -> (R, K, ...).
    One 2-D product per row, as a batched ``matmul`` makes; the node keeps the tables, no copy."""
    flat = [t.reshape(len(t), -1) for t in tables]
    data = np.empty((len(flat), a.shape[-2], flat[0].shape[1]), a.dtype)
    for row, w, t in zip(data, a.data, flat, strict=True):
        np.matmul(w, t, out=row)
    out = _node(data.reshape(*data.shape[:2], *tables[0].shape[1:]), (a,))
    if out.requires_grad:
        def _bw(g):
            grad = np.empty(a.data.shape, a.dtype)
            for row, g_row, t in zip(grad, g.reshape(len(flat), a.shape[-2], -1), flat):
                np.matmul(g_row, t.T, out=row)
            a._accumulate(grad)
        out._backward = _bw
    return out


def _blockwise(chain: Callable[..., None], *arrays: Array) -> None:
    """Run ``chain`` over blocks of ``arrays``, which share the length of their leading
    axis: the one loop that cuts arrays into blocks.  A block holds at most
    ``BLOCK_VALUES`` values of the first array, but at least one entry of its leading
    axis.  ``chain`` works in place, so each array it writes is one its caller made or a
    view of one: rows from ``_rows``, matrices from ``_matrices``, a run of a vector."""
    n = len(arrays[0])
    step = BLOCK_VALUES * n // (arrays[0].size or 1) or 1   # entries per block
    for lo in range(0, n, step):
        chain(*map(operator.itemgetter(slice(lo, lo + step)), arrays))


def _rows(a: Array) -> Array:
    """(..., n) -> (N, n): a view of a row-major array's rows."""
    if not a.flags.c_contiguous:   # a reshape could copy, and writes to it would be lost
        raise ValueError("_rows needs a row-major array")
    return a.reshape(-1, a.shape[-1])


def _gelu(h: Array, grad: Array | None = None) -> Array:
    """GELU of ``h`` by in-place steps over row blocks, with the tanh it reads in a
    block-sized array.  Given ``grad``, the gradient of the output, it also turns
    ``grad`` in place into the gradient of ``h``, each block while its tanh is at hand."""
    def chain(y, h, g=None):
        t = h * h
        t *= h
        t *= _GELU_COEF
        t += h
        t *= _SQRT_2_OVER_PI
        np.tanh(t, out=t)             # tanh(sqrt(2/pi) * (h + c h^3))
        if g is not None:   # d gelu / dh: 0.5 h (1 - t^2) d inner / dh + 0.5 (1 + t)
            a = t * t
            np.subtract(1.0, a, out=a)
            a *= h
            a *= 0.5
            b = h * (3.0 * _GELU_COEF)
            b *= h
            b += 1.0
            b *= _SQRT_2_OVER_PI
            a *= b
        np.add(t, 1.0, out=y)
        if g is not None:
            a += np.multiply(y, 0.5, out=b)
            g *= a
        y *= h
        y *= 0.5
    y = np.empty_like(h)
    _blockwise(chain, *map(_rows, (y, h) if grad is None else (y, h, grad)))
    return y


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        residual: Tensor | None = None) -> Tensor:
    """``residual + (gelu(x @ w1 + b1) @ w2 + b2)``, one tape node.

    GELU is the smooth tanh form; smoothness keeps finite differences honest.
    The node keeps ``x`` and the pre-activation ``h`` only; its backward
    recomputes the GELU output with the forward's own steps, bit for bit, and
    in the same pass over row blocks multiplies the hidden gradient by GELU's
    slope in place.  The skip is the first parent, as in ``matmul``.
    """
    h = _affine(x.data, w1.data, b1)
    out = _node(_affine(_gelu(h), w2.data, b2, residual),
                tuple(t for t in (residual, x, w1, b1, w2, b2) if t is not None))
    if out.requires_grad:
        def _bw(g):
            g_h = np.matmul(g, np.swapaxes(w2.data, -1, -2))   # the share of gelu(h) ...
            y = _gelu(h, g_h)                                  # ... now the share of h
            _affine_grads(g, Tensor(y), w2, b2, residual)
            del y
            _affine_grads(g_h, x, w1, b1)
        out._backward = _bw
    return out


# -- fused numerics ------------------------------------------------------------


def softmax_stable(a: Tensor) -> Tensor:
    """Softmax over the last axis with max-subtraction so huge logits cannot overflow."""
    if not np.isfinite(a.data).all():
        raise FloatingPointError("non-finite logits")
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = _node(y, (a,))
    if out.requires_grad:
        def _bw(g):   # the softmax rule
            a._accumulate(y * (g - (g * y).sum(axis=-1, keepdims=True)))
        out._backward = _bw
    return out


def straight_through(soft: Tensor, hard: Array) -> Tensor:
    """The straight-through estimator (Bengio et al., arXiv:1308.3432) as one node:
    its value is ``hard``, and its backward hands the incoming gradient to ``soft``
    unchanged, as if the node were ``soft`` itself."""
    out = _node(hard, (soft,))
    if out.requires_grad:
        out._backward = soft._accumulate
    return out


def _row_sums(a: Array, weights: Array) -> Array:
    """(..., n * w) -> (..., n): sums of each run of w = len(weights) along the last
    axis, weighted, as one matrix-vector product over all rows of a row-major ``a``."""
    return (a.reshape(-1, weights.shape[0]) @ weights).reshape(a.shape[:-1] + (-1,))


def _head_rows(x: Array, heads: int) -> Array:
    """(..., S, D) -> (..., S, H, D/H); a view of a row-major ``x``."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))


def _heads(x: Array, heads: int) -> Array:
    """(..., S, D) -> (..., H, S, D/H); a view of a row-major ``x``."""
    return _head_rows(x, heads).swapaxes(-3, -2)


def _times_heads(x: Array, c: Array, heads: int) -> Array:
    """``_heads(x) * c`` for one factor per head and row, c (..., H, S, 1), multiplied
    and returned in the (..., S, D) layout, so no head merge copies the product."""
    product = _head_rows(x, heads) * c.swapaxes(-3, -2)
    return product.reshape(*product.shape[:-2], -1)


def _key_max(x: Array) -> Array:
    """``x.max(axis=-2, keepdims=True)`` up to the sign of a tied zero: the last half
    of the rows folded onto the first (sharing one row when the count is odd), in
    whole-row passes where numpy walks short rows; one column numpy reduces at once."""
    if x.shape[-1] == 1:
        return x.max(axis=-2, keepdims=True)
    while (n := x.shape[-2]) > 1:
        x = np.maximum(x[..., :n - n // 2, :], x[..., n // 2:, :])
    return x


def _matrices(a: Array) -> Array:
    """(..., m, n) -> (N, m, n): a view of a dense array's matrices in memory order."""
    if not a.flags.c_contiguous:   # leading axes in memory order
        a = a.transpose(*sorted(range(a.ndim - 2), key=a.strides.__getitem__, reverse=True),
                        -2, -1)
        if not a.flags.c_contiguous:   # a reshape would copy, and writes to it would be lost
            raise ValueError("_matrices needs a dense array")
    return a.reshape(-1, *a.shape[-2:])


def _key_probs(q: Array, k: Array, scale: Array) -> Array:
    """Key-by-query probabilities P = softmax over keys of ``k q^T * scale``, (..., Sk, Sq),
    summed over keys by a ones vector; BLAS reads P^T for the product ``P^T v``."""
    probs = np.matmul(k, q.swapaxes(-1, -2))
    probs *= scale
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite logits")
    probs -= _key_max(probs)
    np.exp(probs, out=probs)
    probs /= np.matmul(np.ones(probs.shape[-2], probs.dtype), probs)[..., None, :]
    return probs


def _attend_backward(g: Array, probs: Array, q: Array, k: Array, v: Array, scale: Array,
                     out: Sequence[Array | None] = (None, None, None)) -> tuple[Array, ...]:
    """Gradients of ``P^T v``, P = ``_key_probs(q, k, scale)``, for q, k and v, all key by
    query: dP = v g^T, dS = P * (dP - sum_keys(P * dP)), dq = dS^T k, dk = dS q and
    dv = P g; each is written into its array of ``out`` if one is given there."""
    ones = np.ones(probs.shape[-2], probs.dtype)

    def softmax_rule(s, p):   # dS in place in dP
        s -= np.matmul(ones, p * s)[..., None, :]
        s *= p
        s *= scale

    ds = np.matmul(v, g.swapaxes(-1, -2), out=np.empty_like(probs))
    _blockwise(softmax_rule, _matrices(ds), _matrices(probs))
    # One query row: dk and dv are outer products, as broadcast multiplies (same bits).
    outer = np.multiply if q.shape[-2] == 1 else np.matmul
    return (np.matmul(ds.swapaxes(-1, -2), k, out=out[0]), outer(ds, q, out=out[1]),
            outer(probs, g, out=out[2]))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              grid: tuple[int, int] | None = None, temporal: bool = False) -> Tensor:
    """Multi-head ``softmax(q k^T / sqrt(d)) v`` over (..., S, D) projections.

    Queries (..., Sq, D) attend over keys and values (..., Sk, D) in ``heads``
    slices of width d = D / heads, and the output is (..., Sq, D); leading
    axes broadcast.  With ``grid=(K, P)``, q, k and v hold [CLS, K*P body
    rows] with the body frame-major (TimeSformer's divided attention): row 0
    attends over every row, and a body row over its group only, the K rows
    of its spatial slot (``temporal``) or the P rows of its frame; plain
    attention is one group, so the grid adds only row 0's steps.

    One tape node.  The forward computes the probabilities P, key by query,
    then its result, writing each ``P^T v`` into the result's heads or group
    view.  It keeps P; the backward is the softmax rule dS = P * (dP -
    sum_keys(P * dP)), exactly zero over a single key, so no gradient leaks
    into the queries there.
    """
    scale = np.asarray(1.0 / math.sqrt(q.shape[-1] // heads), dtype=q.dtype)

    def group(x):   # (..., H, S, d) as a view of its groups: plain attention is one
        if grid is None:
            return x
        body = x[..., 1:, :].reshape(*x.shape[:-2], *grid, x.shape[-1])   # frame-major
        return body.swapaxes(-3, -2) if temporal else body   # (.., P, K, d) or (.., K, P, d)

    qh, kh, vh = (_heads(t.data, heads) for t in (q, k, v))
    probs = _key_probs(group(qh), group(kh), scale)
    probs_cls = None if grid is None else _key_probs(qh[..., :1, :], kh, scale)
    data = np.empty(np.broadcast(*(t.data[..., 0, 0] for t in (q, k, v))).shape
                    + q.shape[-2:], q.dtype)
    out_h = _heads(data, heads)
    np.matmul(probs.swapaxes(-1, -2), group(vh), out=group(out_h))
    if grid is not None:
        np.matmul(probs_cls.swapaxes(-1, -2), vh, out=out_h[..., :1, :])
    out = _node(data, (q, k, v))
    if out.requires_grad:
        def _bw(g):
            # The products are written into each gradient's (..., S, D) layout, so no head
            # merge or group placement copies them.
            gh = _heads(g, heads)
            grads = [np.empty(g.shape[:-2] + t.shape[-2:], g.dtype) for t in (q, k, v)]
            dq_h, dk_h, dv_h = [_heads(grad, heads) for grad in grads]
            _attend_backward(group(gh), probs, group(qh), group(kh), group(vh), scale,
                             out=[group(dq_h), group(dk_h), group(dv_h)])
            if grid is not None:
                _, *dkv_cls = _attend_backward(gh[..., :1, :], probs_cls, qh[..., :1, :], kh, vh,
                                               scale, out=(dq_h[..., :1, :], None, None))
                for grad_h, d_cls in zip((dk_h, dv_h), dkv_cls):   # row 0 reads every row
                    grad_h[..., :1, :] = d_cls[..., :1, :]
                    grad_h[..., 1:, :] += d_cls[..., 1:, :]
            for t, grad in zip((q, k, v), grads):
                if t.requires_grad:
                    t._accumulate(_unbroadcast(grad, t.data.shape))
        out._backward = _bw
    return out


def cosine_gate(q: Tensor, k: Tensor, v: Tensor, heads: int, floor: float) -> Tensor:
    """Language-aware gate over (..., S, D) projections.

    In each of ``heads`` slices, value row i of v (..., m, D) is scaled by
    the summed cosine of query row i of q (..., m, D) against every key row
    of k (..., L, D): ``v_i * sum_j q_i.k_j / (|q_i| |k_j|)``.  The output is
    (..., m, D); leading axes broadcast.  A norm is floored at ``floor`` (its
    square at ``floor**2``, so an all-zero row keeps a finite gradient), and
    a floored norm passes no gradient.  One tape node.
    """
    floor_sq = floor ** 2
    ones = np.ones(q.shape[-1] // heads, q.dtype)
    qh, kh = _heads(q.data, heads), _heads(k.data, heads)

    def norm(x):
        sq = _heads(_row_sums(x * x, ones), heads)      # (..., H, S, 1)
        live = sq > floor_sq
        return np.sqrt(np.where(live, sq, floor_sq)), live

    (qn, q_live), (kn, k_live) = norm(q.data), norm(k.data)   # (..., H, m | L, 1)
    kn_row = kn.swapaxes(-1, -2)                         # (..., H, 1, L)
    dots = np.matmul(qh, kh.swapaxes(-1, -2))            # (..., H, m, L)
    denom = qn * kn_row
    weight = _row_sums(dots / denom, np.ones(dots.shape[-1], q.dtype))   # (..., H, m, 1)
    out = _node(_times_heads(v.data, weight, heads), (q, k, v))
    if out.requires_grad:
        def _bw(g):
            g_cos = _heads(_row_sums(g * v.data, ones), heads)  # broadcast over the L keys
            g_dots = g_cos / denom
            g_denom = -g_cos * dots / (denom * denom)
            # dq = g_dots k + q * scale and dk = g_dots^T q + k * scale, each made in the
            # (..., S, D) layout of its input, so no head merge copies it
            dq, dk = (np.empty(g_dots.shape[:-3] + t.shape[-2:], t.dtype) for t in (q, k))
            np.matmul(g_dots, kh, out=_heads(dq, heads))
            np.matmul(g_dots.swapaxes(-1, -2), qh, out=_heads(dk, heads))
            dq, dk = _unbroadcast(dq, q.shape), _unbroadcast(dk, k.shape)
            dq += _times_heads(q.data, _unbroadcast(g_denom * kn_row, qn.shape) / qn * q_live,
                               heads)
            dk += _times_heads(k.data, _unbroadcast(g_denom * qn, kn_row.shape).swapaxes(-1, -2)
                               / kn * k_live, heads)
            for t, grad in zip((q, k, v), (dq, dk, _times_heads(g, weight, heads))):
                if t.requires_grad:
                    t._accumulate(_unbroadcast(grad, t.data.shape))
        out._backward = _bw
    return out


def nll(logits: Tensor, targets) -> Tensor:
    """Per-row negative log-likelihood of one target class, ``(R, C) -> (R,)``.

    Fused log-softmax and pick: the backward scatters ``-g`` into the target
    column of ``g * softmax`` by index, with no dense one-hot.
    """
    if logits.ndim != 2:
        raise ValueError("nll expects (rows, classes) logits")
    rows = np.arange(logits.data.shape[0])
    cols = np.asarray(targets, dtype=np.intp)
    if cols.shape != rows.shape:
        raise ValueError(f"nll: {cols.size} targets for {rows.size} rows")
    if not np.isfinite(logits.data).all():
        raise FloatingPointError("non-finite logits")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    out = _node(log_z - shifted[rows, cols], (logits,))
    if out.requires_grad:
        def _bw(g):
            grad = np.exp(shifted - log_z[:, None]) * g[:, None]
            grad[rows, cols] -= g
            logits._accumulate(grad)
        out._backward = _bw
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    Row means are matrix-vector products against a ``1/D`` vector, and the
    gain and bias gradients sum the rows with a ones vector: one BLAS call
    each instead of a strided reduction per row.  Those products take the
    whole array, since a product over fewer rows may round differently; the
    elementwise steps between them run in place over row blocks.
    """
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layer_norm gain/bias must match the last axis")
    mean_of = np.full(d, 1.0 / d, dtype=x.data.dtype)
    rows = x.data.reshape(-1, d)           # (N, d), only read: a copy would do
    mean = (rows @ mean_of)[:, None]
    xc = rows - mean
    inv = (1.0 / np.sqrt((xc * xc) @ mean_of + eps))[:, None]

    def affine(y, inv):           # xc * inv * gain + bias, in place in xc
        y *= inv
        y *= gain.data
        y += bias.data

    _blockwise(affine, xc, inv)
    out = _node(xc.reshape(x.data.shape), (x, gain, bias))
    if out.requires_grad:
        def normalized(xhat, g_xhat, g_x, g_x_xhat, xb, mb, ib, gb):
            # x-hat (recomputed: the node keeps row statistics only), g x-hat,
            # g gain and g gain x-hat
            np.subtract(xb, mb, out=xhat)
            xhat *= ib
            if gain.requires_grad:
                np.multiply(gb, xhat, out=g_xhat)
            if x.requires_grad:
                np.multiply(gb, gain.data, out=g_x)
                np.multiply(g_x, xhat, out=g_x_xhat)

        def term(t, sum1, sum2, xhat, ib):   # (g_x - sum1 - xhat sum2) inv, in place in g_x
            t -= sum1
            t -= xhat * sum2
            t *= ib

        def _bw(g):
            g_rows = g.reshape(-1, d)
            xhat, g_xhat, g_x, g_x_xhat = made = [np.empty(g_rows.shape, g.dtype) for _ in range(4)]
            _blockwise(normalized, *made, x.data.reshape(-1, d), mean, inv, g_rows)
            ones = np.ones(len(g_rows), dtype=g.dtype)
            if gain.requires_grad:
                gain._accumulate_product(ones, g_xhat)
            if bias.requires_grad:
                bias._accumulate_product(ones, g_rows)
            if x.requires_grad:
                _blockwise(term, g_x, (g_x @ mean_of)[:, None], (g_x_xhat @ mean_of)[:, None],
                           xhat, inv)
                x._accumulate(g_x.reshape(x.data.shape))
        out._backward = _bw
    return out

