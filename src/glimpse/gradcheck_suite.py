"""The full finite-difference certification run.

Each target builds a fresh scalar loss at the configured desk sizes and
compares every reverse-mode gradient against central differences.  The
selection-to-refinement composite runs on the soft selection branch: the
straight-through estimator defines its gradient as the soft branch's, and a
piecewise-constant hard forward has no meaningful finite difference.  The
exact hard/soft gradient identity is covered by its own bitwise test.  The
composite runs over a batch of one row, and over two rows with their own
videos, texts and noise seeds, which certifies the batch-axis backward.
The plain joint transformer runs over [CLS, text rows, patches] with two
blocks, so that both the full block and the CLS-only last block are checked.

Every check loss carries a random linear tether ``sum_i c_i * theta_i`` with
coefficients bounded away from zero.  A handful of parameter elements always
land with true gradients many orders below the loss scale (sign
cancellations), where central differences are pure float64 roundoff; the
tether shifts every gradient to O(c) without touching the differentiation
rules under test, since a linear term is exact on both sides of the
comparison.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import RunConfig
from .data import FrameBundle
from .gating import cross_attention_core, gate_core
from .gradcheck import GradReport, grad_check
from .model import PlainFusion
from .nn import Linear, Mlp, SelfAttention, widen_weights
from .objectives import (
    MaskedText,
    contrastive_loss,
    vg_mlm_loss,
    vtm_loss,
)
from .refiner import RefinerParams, VrBlock, refine
from .sampler import FsBlock, SamplerParams, apply_mask, selection_rows
from .tensor import Tensor


def _readout(rng, shape) -> Tensor:
    return Tensor(rng.normal(size=shape))


def _tether_coefficients(rng, params) -> list[Tensor]:
    coefs = []
    for p in params:
        magnitude = rng.uniform(0.05, 0.2, size=p.data.shape)
        sign = np.where(rng.random(p.data.shape) < 0.5, -1.0, 1.0)
        coefs.append(Tensor(magnitude * sign))
    return coefs


def run_gradcheck(cfg: RunConfig, epsilon: float, tolerance: float) -> dict[str, GradReport]:
    """Oracle every differentiable surface; returns per-target reports."""
    cfg.validate()
    dim, heads = cfg.dim, cfg.heads
    n_patches = cfg.n_grid * cfg.n_grid
    rng = np.random.default_rng(cfg.seed + 1234)
    results: dict[str, GradReport] = {}

    def check(target: str, loss_fn, named_params):
        names = [name for name, _ in named_params]
        params = [p for _, p in named_params]
        coefs = _tether_coefficients(rng, params)

        def tethered():
            loss = loss_fn()
            for p, c in zip(params, coefs):
                loss = loss + T.tsum(p * c)
            return loss

        results[target] = grad_check(tethered, params, epsilon=epsilon,
                                     tolerance=tolerance, names=names)

    # the gate and its attention baseline, under the input skip their blocks add
    gate = SelfAttention(dim, heads, np.random.default_rng(cfg.seed))
    widen_weights(gate, rng)
    v = Tensor(rng.normal(size=(4, dim)), requires_grad=True)
    t1 = Tensor(rng.normal(size=(1, dim)), requires_grad=True)
    w_gate = _readout(rng, (4, dim))
    check("la_gate",
          lambda: T.tsum((v + gate_core(v, t1, gate)) * w_gate),
          [("v", v), ("t_cls", t1)] + list(gate.named_parameters()))

    xattn = SelfAttention(dim, heads, np.random.default_rng(cfg.seed + 1))
    widen_weights(xattn, rng)
    t2 = Tensor(rng.normal(size=(2, dim)), requires_grad=True)
    check("cross_attention_v2t",
          lambda: T.tsum((v + cross_attention_core(v, t2, xattn)) * w_gate),
          [("v", v), ("t_tokens", t2)] + list(xattn.named_parameters()))

    # one frame-sampling block over the dense frame sequence
    fsb = FsBlock(dim, heads, np.random.default_rng(cfg.seed + 2), fusion=cfg.fusion)
    widen_weights(fsb, rng)
    seq_fs = Tensor(rng.normal(size=(cfg.n_frames, dim)), requires_grad=True)
    t_fs = Tensor(rng.normal(size=(1, dim)), requires_grad=True)
    w_fs = _readout(rng, (cfg.n_frames, dim))
    check("fs_block",
          lambda: T.tsum(fsb(seq_fs, t_fs) * w_fs),
          [("seq", seq_fs), ("t_cls", t_fs)] + list(fsb.named_parameters()))

    # one vision-refinement block over [CLS, selected patches]
    vrb = VrBlock(dim, heads, np.random.default_rng(cfg.seed + 3), fusion=cfg.fusion)
    widen_weights(vrb, rng)
    seq_vr = Tensor(rng.normal(size=(1 + cfg.k_select * n_patches, dim)),
                    requires_grad=True)
    t_vr = Tensor(rng.normal(size=(1, dim)), requires_grad=True)
    w_vr = _readout(rng, (1 + cfg.k_select * n_patches, dim))
    check("vr_block",
          lambda: T.tsum(vrb(seq_vr, t_vr, cfg.k_select, n_patches) * w_vr),
          [("seq", seq_vr), ("t_cls", t_vr)] + list(vrb.named_parameters()))

    # selection through refinement, on the soft branch with frozen noise
    sampler = SamplerParams(dim, heads, cfg.n_frames, cfg.k_select, cfg.depth,
                            np.random.default_rng(cfg.seed + 4), fusion=cfg.fusion,
                            tau_g=cfg.tau_g)
    refiner = RefinerParams(dim, heads, cfg.k_select, n_patches, cfg.depth,
                            np.random.default_rng(cfg.seed + 5), fusion=cfg.fusion)
    widen_weights(sampler, rng)
    widen_weights(refiner, rng)
    bundle = FrameBundle(v_patch=rng.normal(size=(cfg.n_frames, n_patches, dim)),
                         v_cls=rng.normal(size=(cfg.n_frames, dim)))
    t_pipe = Tensor(rng.normal(size=(1, dim)), requires_grad=True)
    w_pipe = _readout(rng, (dim,))

    def composite(bundles, t_rows, seeds, w_rows):
        def loss():
            y_soft = selection_rows([b.v_cls for b in bundles], t_rows, sampler, rng_seed=seeds)
            return T.tsum(refine(apply_mask(y_soft, bundles), t_rows, refiner) * w_rows)
        return loss

    composite_params = ([("t_cls", t_pipe)]
                        + [("sampler." + n, p) for n, p in sampler.named_parameters()]
                        + [("refiner." + n, p) for n, p in refiner.named_parameters()])
    check("selection_refine", composite([bundle], t_pipe, [cfg.seed + 6], w_pipe), composite_params)

    # the three losses
    v_batch = Tensor(rng.normal(size=(3, dim)), requires_grad=True)
    t_batch = Tensor(rng.normal(size=(3, dim)), requires_grad=True)
    vtm_head = Linear(dim, 2, np.random.default_rng(cfg.seed + 7))
    widen_weights(vtm_head, rng)
    check("vtm_loss",
          lambda: vtm_loss(v_batch, [1, 0, 1], vtm_head),
          [("v_batch", v_batch)] + list(vtm_head.named_parameters()))

    check("contrastive_loss",
          lambda: contrastive_loss(v_batch, t_batch, [True, False, True], cfg.tau),
          [("v_batch", v_batch), ("t_batch", t_batch)])

    vocab_size = 10
    mlm_head = Mlp(2 * dim, 2 * dim, np.random.default_rng(cfg.seed + 8),
                   out_dim=vocab_size)
    widen_weights(mlm_head, rng)
    token_table = Tensor(rng.normal(size=(vocab_size, dim)), requires_grad=True)
    masked = [MaskedText(token_ids=[3, 1, 4, 5], mask_positions=[1, 3], original_ids=[2, 7]),
              MaskedText(token_ids=[6, 2, 8, 0], mask_positions=[0], original_ids=[9])]
    v_star = Tensor(rng.normal(size=(2, dim)), requires_grad=True)

    def mlm_loss():
        # Token encodings are stop-gradiented inside the loss, so the token
        # table is deliberately not among the checked parameters.
        return vg_mlm_loss(masked, lambda ids: T.take(token_table, ids),
                           v_star, mlm_head)

    check("vg_mlm_loss", mlm_loss,
          [("v_cls_star", v_star)] + list(mlm_head.named_parameters()))

    # the same composite over a batch of two rows, each with its own video,
    # text and noise seed: certifies the batch-axis backward
    videos = rng.normal(size=(2, cfg.n_frames, n_patches, dim))
    frame_cls = rng.normal(size=(2, cfg.n_frames, dim))
    rows = [FrameBundle(v_patch=v, v_cls=c) for v, c in zip(videos, frame_cls)]
    t_rows = Tensor(rng.normal(size=(2, 1, dim)), requires_grad=True)
    w_rows = _readout(rng, (2, dim))

    check("selection_refine_batch", composite(rows, t_rows, [cfg.seed + 6, cfg.seed + 7], w_rows),
          [("t_rows", t_rows)] + composite_params[1:])

    # the plain fusion baseline over [CLS, text rows, patches]
    plain = PlainFusion(dim, heads, cfg.k_select, n_patches, 2,
                        np.random.default_rng(cfg.seed + 9))
    widen_weights(plain, rng)
    patches = Tensor(rng.normal(size=(cfg.k_select, n_patches, dim)), requires_grad=True)
    text_rows = Tensor(rng.normal(size=(3, dim)), requires_grad=True)
    w_plain = _readout(rng, (dim,))
    check("plain_fusion",
          lambda: T.tsum(plain(patches, text_rows) * w_plain),
          [("v_patch_k", patches), ("text_rows", text_rows)] + list(plain.named_parameters()))
    return results
