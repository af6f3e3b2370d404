"""Parameter containers and transformer building blocks.

Every block maps (..., S, D) sequences to (..., S, D): the leading axes are a
batch of independent sequences, so one code path serves a single sequence
and a batch of them.  ``Block`` is the one pre-norm residual skeleton; the
sampler's and the refiner's blocks put their own stages in front of it.
Called with ``readout=True``, a block emits row 0 only, (..., 1, D): the last
block of a stack whose caller reads only the CLS row computes only that row
past its keys and values.  ``tensor.attention`` is the one attention core:
self and divided space-time (both ``SelfAttention``) and cross-attention are
four ``Linear`` projections around one call of it.  A stage adds its block's
skip (``residual=``) inside its last node, not in an add node.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .config import COMPUTE_DTYPE
from .tensor import Tensor


class Module:
    """Base class; collects tensors by attribute introspection.  A model's parameters
    are views of one buffer (``param_buffer``); ``train.AdamW`` packs those it updates
    into a vector of its own and updates them there in place, between tapes."""

    def named_tensors(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Every tensor of the module tree, trainable or frozen."""
        for key, value in vars(self).items():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_tensors(name)
            elif isinstance(value, list):  # a stack of blocks
                for i, block in enumerate(value):
                    yield from block.named_tensors(f"{name}.{i}")

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        return ((name, t) for name, t in self.named_tensors() if t.requires_grad)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: that of the parameters."""
        return next(self.named_parameters())[1].dtype

    def astype(self, dtype) -> "Module":
        """Round every tensor, frozen ones included, to ``dtype`` in place.

        Gradients are dropped.  The module computes in ``dtype`` from then
        on, because every constant that meets its tensors takes their dtype.
        Arrays already in ``dtype`` are kept, not copied; parameters that are
        cast are rounded into one new buffer of ``dtype`` (``param_buffer``).
        """
        if any(p.dtype != dtype for p in self.parameters()):
            param_buffer(self.parameters(), dtype)
        for _, t in self.named_tensors():
            t.data = t.data.astype(dtype, copy=False)
            t.grad = None
        return self


def param_buffer(params: Sequence[Tensor], dtype=None, copy: bool = True) -> np.ndarray:
    """A new vector that holds ``params`` back to back, in order, in ``dtype`` (default:
    the first one's), each ``p.data`` rebound to its C-contiguous view of it.  The
    values are rounded into it (``copy=False``: left unset, to be filled)."""
    dtype = np.dtype(params[0].dtype if dtype is None else dtype)
    buf = (np.concatenate([p.data.reshape(-1) for p in params], dtype=dtype) if copy
           else np.empty(sum(p.size for p in params), dtype))
    for p, view in zip(params, split_views(buf, [p.shape for p in params])):
        p.data = view
    return buf


def split_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of ``flat`` in ``shapes``, back to back from its start."""
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    return [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


def init_normal(rng: np.random.Generator | None, shape) -> Tensor:
    """A trainable tensor drawn from N(0, 0.02^2) in float64; for ``rng=None``, zeros
    in the compute dtype, drawing nothing."""
    data = np.zeros(shape, COMPUTE_DTYPE) if rng is None else rng.normal(0.0, 0.02, size=shape)
    return Tensor(data, requires_grad=True)


def widen_weights(module: "Module", rng: np.random.Generator) -> None:
    """Re-draw every projection matrix (``*.w``) from N(0, 0.25^2), in place.

    Positional tables, CLS tokens and norm parameters keep their init.  The
    training init (std 0.02) puts attention scores so close to uniform that
    key/query gradients sit at the 1e-8 scale, where central differences are
    pure roundoff, so finite-difference checks run at a better-conditioned random point.
    """
    for name, p in module.named_parameters():
        if name.endswith(".w"):
            p.data[...] = rng.normal(0.0, 0.25, size=p.data.shape)


class Linear(Module):
    """Dense projection ``x @ w (+ b) (+ residual)``, one ``tensor.matmul`` node
    with the bias and the skip folded in; weight shape (d_in, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = False):
        self.w = init_normal(rng, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        return T.matmul(x, self.w, self.b, residual)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class SelfAttention(Module):
    """Standard multi-head self-attention over (..., S, D) sequences, no biases.

    With ``readout=True`` only row 0 is queried: its query attends over the
    keys and values of every row, and the output is (..., 1, D), row 0 of
    the full output.  That is the one path for a row that reads a whole
    sequence.  ``grid`` and ``temporal`` make it a divided space-time stage
    (``tensor.attention``), except under ``readout``: row 0 reads every row.
    The four projections are also the parameter set of the text-conditioned
    gates, which call ``tensor.cosine_gate`` or ``tensor.attention`` between them.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads:
            raise ValueError("dimension mismatch: dim must divide by heads")
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)
        self.heads = heads

    def __call__(self, x: Tensor, readout: bool = False, residual: Tensor | None = None,
                 grid: tuple[int, int] | None = None, temporal: bool = False) -> Tensor:
        q = self.w_q(x[..., :1, :] if readout else x)
        return self.w_o(T.attention(q, self.w_k(x), self.w_v(x), self.heads,
                                    None if readout else grid, temporal), residual)


class Mlp(Module):
    """Two dense layers around a GELU, one ``tensor.mlp`` node."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, out_dim: int | None = None):
        self.fc1 = Linear(dim, hidden, rng, bias=True)
        self.fc2 = Linear(hidden, out_dim if out_dim is not None else dim, rng, bias=True)

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        return T.mlp(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b, residual)


class Block(Module):
    """Pre-norm residual block: self-attention, then MLP; the one block skeleton.

    With ``readout=True`` the block returns row 0 only, (..., 1, D): row 0
    queries the keys and values of every row, and the residual and the MLP
    run on that row alone.  ``grid`` passes through to ``SelfAttention``.

    Subclasses that add stages in front (``FsBlock``, ``VrBlock``) create
    their parameters before calling ``Block.__init__``, which keeps the draw
    order and the parameter names of the whole block.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        self.ln_attn = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.ln_mlp = LayerNorm(dim)
        self.mlp = Mlp(dim, 4 * dim, rng)

    def __call__(self, x: Tensor, readout: bool = False,
                 grid: tuple[int, int] | None = None) -> Tensor:
        x = self.attn(self.ln_attn(x), readout=readout,
                      residual=x[..., :1, :] if readout else x, grid=grid)
        return self.mlp(self.ln_mlp(x), residual=x)
