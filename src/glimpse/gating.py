"""Text-conditioned gating of visual token sequences.

The gate rescales each visual token by its projected cosine similarity to a
text condition, so text steers which tokens survive without ever being mixed
into the visual stream.  Video-as-query cross-attention over the text, the
ablation baseline, has the same signature.  Both take their four projections
from a ``SelfAttention`` module without calling it: each is those four
``Linear`` calls around one fused op, ``tensor.cosine_gate`` or
``tensor.attention``.  A block passes its skip connection as ``residual``,
which the output projection adds inside its node.  Visual tokens are
(..., m, D) and text rows (..., L, D); the leading (batch) axes broadcast, so
one text row per batch entry gates that entry's tokens only.
"""

from __future__ import annotations

from . import tensor as T
from .nn import SelfAttention
from .tensor import Tensor


def gate_core(v: Tensor, t_tokens: Tensor, params: SelfAttention,
              residual: Tensor | None = None) -> Tensor:
    """Gated value path, plus ``residual`` (the block's skip) if given.

    Per head, each projected value row is scaled by the summed cosine of its
    projected query against the projected text keys.  Shapes are not checked
    here: ``VideoQAModel.represent`` checks the frames where they enter the
    model, and the text encoder checks the texts.
    """
    q = params.w_q(v)
    key = params.w_k(t_tokens)
    return params.w_o(T.cosine_gate(q, key, params.w_v(v), params.heads), residual)


def cross_attention_core(v: Tensor, t_tokens: Tensor, params: SelfAttention,
                         residual: Tensor | None = None) -> Tensor:
    """Video-as-query attention over text keys/values, plus ``residual`` if given.

    Unlike the gate, each output row mixes in text content and depends on
    every text token.
    """
    q = params.w_q(v)
    key = params.w_k(t_tokens)
    return params.w_o(T.attention(q, key, params.w_v(t_tokens), params.heads), residual)
