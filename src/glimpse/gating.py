"""Text-conditioned gating of visual token sequences.

The gate rescales each visual token by its projected cosine similarity to a
text condition, so text steers which tokens survive without ever being mixed
into the visual stream.  Video-as-query cross-attention over the text, the
ablation baseline, has the same signature.  Both take their four projections
from a ``SelfAttention`` module without calling it, and both return the
update without the input skip: the blocks that use them add their own
residual.  Visual tokens are (..., m, D) and text rows (..., L, D); the
leading (batch) axes broadcast, so one text row per batch entry gates that
entry's tokens only.
"""

from __future__ import annotations

from . import tensor as T
from .nn import SelfAttention, attention, merge_heads, split_heads
from .tensor import Tensor

# Floor (not additive offset) on the projected norms: it guards all-zero
# padded tokens without perturbing the cosine of healthy ones, which keeps
# the gate exactly invariant to power-of-two rescaling of the text input.
NORM_FLOOR = 1e-8


def _guarded_norm(x: Tensor) -> Tensor:
    """Euclidean norm over the last axis, floored before the sqrt.

    Flooring the squared norm keeps the backward pass finite at exactly-zero
    tokens (sqrt'(0) would blow up) and leaves non-degenerate tokens untouched.
    """
    return T.sqrt(T.maximum(T.tsum(x * x, axis=-1, keepdims=True), NORM_FLOOR ** 2))


def _head_importance(v: Tensor, t_tokens: Tensor, params: SelfAttention) -> Tensor:
    """Summed per-head cosine of projected tokens against projected text, (..., H, m)."""
    q = split_heads(params.w_q(v), params.heads)          # (..., H, m, d)
    k = split_heads(params.w_k(t_tokens), params.heads)   # (..., H, L, d)
    dots = T.matmul(q, T.swapaxes(k, -1, -2))              # (..., H, m, L)
    qn = _guarded_norm(q)                                  # (..., H, m, 1)
    kn = T.swapaxes(_guarded_norm(k), -1, -2)              # (..., H, 1, L)
    cos = dots / (qn * kn)
    return T.tsum(cos, axis=-1)                            # (..., H, m)


def gate_core(v: Tensor, t_tokens: Tensor, params: SelfAttention) -> Tensor:
    """Gated value path without the input skip (blocks add their own residual).

    Shapes are not checked here: ``VideoQAModel.represent`` checks the frames
    where they enter the model, and the text encoder checks the texts.
    """
    dist = _head_importance(v, t_tokens, params)           # (..., H, m)
    values = split_heads(params.w_v(v), params.heads)      # (..., H, m, d)
    gated = values * T.reshape(dist, (*dist.shape, 1))
    return params.w_o(merge_heads(gated))


def cross_attention_core(v: Tensor, t_tokens: Tensor, params: SelfAttention) -> Tensor:
    """Video-as-query attention over text keys/values, without the skip.

    Unlike the gate, each output row mixes in text content and depends on
    every text token.
    """
    q = split_heads(params.w_q(v), params.heads)           # (..., H, m, d)
    k = split_heads(params.w_k(t_tokens), params.heads)    # (..., H, L, d)
    val = split_heads(params.w_v(t_tokens), params.heads)  # (..., H, L, d)
    return params.w_o(merge_heads(attention(q, k, val)))
