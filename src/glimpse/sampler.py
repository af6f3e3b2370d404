"""Differentiable sparse frame selection.

Frame CLS tokens get a temporal embedding, pass through stacked gate+attention
blocks, and are projected onto one logit row per selection slot.  Each row is
Gumbel-Softmax sampled by ``selection_rows``, the one path every caller takes.
``VideoQAModel.select`` applies the rows in one of three modes: ``sparse``
discretizes them with ``tensor.straight_through``, one tape node whose value
is the one-hot rows at each row's argmax, so the forward pass copies exact
frames, and whose backward hands its gradient to the soft distribution
unchanged; ``soft`` weights the frames by the rows themselves; and
``uniform``, the one configuration without a learned sampler, applies fixed
one-hot rows that pick an even grid (``uniform_indices``).  Every function
takes a leading batch axis: B text rows, each with its own Gumbel noise seed,
against one video per row, read in place.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import FrameBundle
from .gating import cross_attention_core, gate_core
from .nn import Block, LayerNorm, Linear, Module, SelfAttention, init_normal
from .tensor import Tensor

GUMBEL_EPS = 1e-10


class FsBlock(Block):
    """Pre-norm residual block: text-conditioned gate, then inter-frame attention."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, fusion: str):
        self.ln_gate = LayerNorm(dim)
        self.gate = SelfAttention(dim, heads, rng)
        super().__init__(dim, heads, rng)
        self.fusion = fusion

    def __call__(self, seq: Tensor, t_row: Tensor) -> Tensor:
        core = gate_core if self.fusion == "la_gate" else cross_attention_core
        return super().__call__(core(self.ln_gate(seq), t_row, self.gate, residual=seq))


class SamplerParams(Module):
    """Everything the selection stack owns; sizes are checked by ``RunConfig``."""

    def __init__(self, dim: int, heads: int, n_frames: int, k_select: int,
                 depth: int, rng: np.random.Generator, fusion: str, tau_g: float):
        self.temporal_table = init_normal(rng, (n_frames, dim))
        self.blocks = [FsBlock(dim, heads, rng, fusion) for _ in range(depth)]
        self.w_s = Linear(dim, k_select, rng)
        self.tau_g = tau_g


def gumbel_noise(shape, rng_seed: int) -> np.ndarray:
    """Standard Gumbel(0, 1) noise from a seeded generator."""
    rng = np.random.default_rng(rng_seed)
    u = rng.random(shape) * (1.0 - 2.0 * GUMBEL_EPS) + GUMBEL_EPS
    return -np.log(-np.log(u))


def gumbel_softmax(x: Tensor, tau_g: float, rng_seed) -> Tensor:
    """Softmax over perturbed logits (B, ..., N); rows are the last axis.

    ``rng_seed`` holds one seed per entry of the leading batch axis, and any
    other count, or a scalar, raises ``ValueError``.  Each entry draws the
    noise it would draw alone, so batching and row order cannot change a
    draw.  Each distinct seed is drawn once and shared by the entries that
    carry it.  The noise is drawn in float64 and rounded to the dtype of ``x``.
    ``softmax_stable`` refuses a non-finite perturbed logit.
    """
    if tau_g <= 0:
        raise ValueError("nonpositive temperature")
    rows = x.shape[0] if x.ndim > 1 else 0
    if np.ndim(rng_seed) != 1 or len(rng_seed) != rows:
        got = f"{len(rng_seed)} noise seeds" if np.ndim(rng_seed) == 1 else "a scalar noise seed"
        raise ValueError(f"{got} for {rows} batch rows; one seed per row is needed")
    slot = {seed: j for j, seed in enumerate(dict.fromkeys(rng_seed))}
    draws = np.stack([gumbel_noise(x.shape[1:], seed) for seed in slot])
    noise = draws[[slot[seed] for seed in rng_seed]]
    return T.softmax_stable((x + noise) * (1.0 / tau_g))


def selection_logits(v_cls: Tensor, t_row: Tensor, params: SamplerParams) -> Tensor:
    """Run the selection stack; returns one length-N logit row per slot, (..., K, N).

    The whole temporal table is added: ``VideoQAModel.represent`` admits only
    videos of the N frames it has rows for.
    """
    seq = v_cls + params.temporal_table
    for block in params.blocks:
        seq = block(seq, t_row)
    per_frame = params.w_s(seq)              # (..., N, K)
    return T.swapaxes(per_frame, -1, -2)     # (..., K, N)


def apply_mask(mask_rows: Tensor, bundles: list[FrameBundle]) -> Tensor:
    """Weight each row's frames by its mask rows: (B, K, N) -> (B, K, P, D).

    Row r reads the patches (N, P, D) of ``bundles[r]`` in place, in one tape
    node.  With one-hot rows the product is an exact frame copy, because
    1.0 * x == x and adding 0.0 * y leaves it untouched.  The frames are cast
    to the rows' dtype (no copy when they already match).
    """
    return T.matmul_each(mask_rows, [b.v_patch.astype(mask_rows.dtype, copy=False)
                                     for b in bundles])


def selection_rows(v_cls: np.ndarray, t_row: Tensor, params: SamplerParams,
                   rng_seed) -> Tensor:
    """Gumbel-Softmax rows over the N frames, one per slot, (B, K, N).

    ``v_cls`` holds the frame CLS tokens (B, N, D), or one (N, D) array per
    row, ``t_row`` the text conditions (B, 1, D), and ``rng_seed`` one noise
    seed per row (``gumbel_softmax`` checks the count).  The frame tokens are
    stacked and cast to the sampler's dtype.  Their count N is not checked
    here: ``VideoQAModel.represent`` checks it where the frames enter the model.
    """
    logits = selection_logits(Tensor(np.asarray(v_cls, dtype=params.dtype)), t_row, params)
    return gumbel_softmax(logits, params.tau_g, rng_seed)


def uniform_indices(n: int, k: int) -> np.ndarray:
    """Evenly spread frame indices with both endpoints included."""
    if k > n:
        raise ValueError("k must not exceed n")
    if k == 1:
        return np.array([n // 2])
    return np.array([int(np.floor(f * (n - 1) / (k - 1) + 0.5)) for f in range(k)])
