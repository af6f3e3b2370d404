"""Vision refinement over the selected frames.

A learnable video-level CLS token is prepended to the selected patch tokens;
stacked blocks then alternate text-conditioned gating with divided space-time
attention (patches attend across frames at the same spatial slot, then within
their own frame; the CLS token attends over everything in both stages).
``VrBlock`` puts a gate and a temporal stage in front of ``nn.Block``, which
runs the spatial stage and the MLP.  Only the final CLS token leaves the
module, so the last block computes that row alone once its spatial keys and
values are in hand.  ``PatchTokens`` (CLS token and positional tables) and
``assemble_refiner_input`` are shared with the plain joint-transformer
baseline, ``model.PlainFusion``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .gating import cross_attention_core, gate_core
from .nn import Block, LayerNorm, Module, SelfAttention, init_normal
from .tensor import Tensor


class VrBlock(Block):
    """Pre-norm residual block: text-conditioned gate and temporal attention in
    front of ``Block``, whose attention stage is the spatial one.

    With ``readout=True`` the block returns the CLS row only, (..., 1, D),
    row 0 of the full output in exact arithmetic.  The gate and the temporal
    stage still run on every row, since the spatial keys and values read them.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, fusion: str):
        self.ln_gate = LayerNorm(dim)
        self.gate = SelfAttention(dim, heads, rng)
        self.ln_temporal = LayerNorm(dim)
        self.attn_temporal = SelfAttention(dim, heads, rng)
        super().__init__(dim, heads, rng)
        self.fusion = fusion

    def __call__(self, seq: Tensor, t_row: Tensor, k: int, p: int,
                 readout: bool = False) -> Tensor:
        core = gate_core if self.fusion == "la_gate" else cross_attention_core
        seq = core(self.ln_gate(seq), t_row, self.gate, residual=seq)
        seq = self.attn_temporal(self.ln_temporal(seq), residual=seq, grid=(k, p), temporal=True)
        return super().__call__(seq, readout=readout, grid=(k, p))


class PatchTokens(Module):
    """CLS token and positional tables over K selected frames of P patches;
    subclasses draw their blocks after them."""

    def __init__(self, dim: int, k_select: int, n_patches: int, rng: np.random.Generator):
        self.cls_init = init_normal(rng, (dim,))
        self.spatial_table = init_normal(rng, (n_patches, dim))
        self.temporal_table_k = init_normal(rng, (k_select, dim))
        self.k_select = k_select
        self.n_patches = n_patches


class RefinerParams(PatchTokens):
    """CLS token, positional tables, and the refinement blocks."""

    def __init__(self, dim: int, heads: int, k_select: int, n_patches: int,
                 depth: int, rng: np.random.Generator, fusion: str):
        if depth < 1:
            raise ValueError("refiner depth must be >= 1")
        super().__init__(dim, k_select, n_patches, rng)
        self.blocks = [VrBlock(dim, heads, rng, fusion) for _ in range(depth)]


def assemble_refiner_input(v_patch_k: Tensor, params: PatchTokens, *middle: Tensor) -> Tensor:
    """Prepend the CLS token and add positional context to the patch tokens.

    Spatial and per-slot temporal embeddings are added once, here, at the
    input of the first block.  Selected patches (..., K, P, D) become a
    (..., 1 + K*P, D) sequence whose row 1 + k*P + p holds patch p of
    selected frame k.  ``middle`` tensors (..., L, D), such as the plain
    fusion's text rows, go between the CLS token and the patches.  The shapes
    are checked once, where the frames enter the model
    (``VideoQAModel.represent``).
    """
    *lead, k, p, d = v_patch_k.shape
    body = v_patch_k + params.spatial_table + T.reshape(params.temporal_table_k, (k, 1, d))
    body = T.reshape(body, (*lead, k * p, d))
    cls_rows = T.broadcast_to(params.cls_init, (*lead, 1, d))
    return T.concat([cls_rows, *middle, body], axis=-2)


def refine(v_patch_k: Tensor, t_cls: Tensor, params: RefinerParams) -> Tensor:
    """Run the full refinement stack and emit only the final CLS tokens, (..., D).

    ``v_patch_k`` holds the selected patches (..., K, P, D) and ``t_cls`` the
    text condition rows, (..., 1, D).  Every block but the last maps the whole
    sequence; the last one is called with ``readout`` and computes the CLS
    row alone past its spatial keys and values.
    """
    seq = assemble_refiner_input(v_patch_k, params)
    *body, last = params.blocks
    for block in body:
        seq = block(seq, t_cls, params.k_select, params.n_patches)
    return last(seq, t_cls, params.k_select, params.n_patches, readout=True)[..., 0, :]
