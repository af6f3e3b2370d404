"""Pretraining losses, the annotation-exchange and token-masking procedures,
and the answer heads.

Matching loss: binary classification of matched vs exchanged pairs from the
video CLS alone.  Contrastive constraint: per-row softmax over cosine
similarities at a fixed temperature, counting only matched rows.  Masked-word
loss: predict masked tokens from the stop-gradiented masked-sentence tokens
combined with the video CLS, which makes the visual pathway carry the signal.
The annotation exchange is a permutation of a batch's rows: each row shows
another row's annotation or its own, and the matched rows are those that
show their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .data import Vocab
from .nn import Linear, Mlp
from .tensor import Tensor

UNMATCHED, MATCHED = 0, 1  # label convention for the matching head


def exchange_annotations(n: int, p: float, rng_seed: int) -> np.ndarray:
    """The row permutation ``order`` of one batch's annotation exchange.

    Row r shows row ``order[r]``'s annotation, and a row is matched where
    ``order[r] == r``.  Each of the ``n`` rows is flagged independently with
    probability ``p``; flagged rows are paired in shuffled order and swap
    annotations, so ``order`` is an involution.  A leftover odd row stays
    matched.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("exchange probability must be in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    chosen = np.flatnonzero(rng.random(n) < p)
    rng.shuffle(chosen)
    chosen = chosen[:len(chosen) // 2 * 2]
    first, second = chosen[0::2], chosen[1::2]
    order = np.arange(n)
    order[first], order[second] = second, first
    return order


def _nll(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of one target class per row of ``logits``."""
    return T.tsum(T.nll(logits, targets)) * (1.0 / len(targets))


def vtm_loss(v_cls_star_batch: Tensor, labels: Sequence[int], head: Linear) -> Tensor:
    """Mean negative log-likelihood of the match labels under the linear head."""
    if v_cls_star_batch.ndim != 2:
        raise ValueError("expected a (B, D) batch of video CLS tokens")
    return _nll(head(v_cls_star_batch), labels)          # logits (B, 2)


def _unit_rows(x: Tensor) -> Tensor:
    norm_sq = T.tsum(x * x, axis=-1)
    if not (norm_sq.data > 0.0).all():
        raise ValueError("zero-norm vector")
    return x / T.sqrt(norm_sq)


def contrastive_loss(v: Tensor, t: Tensor, matched: Sequence[bool], tau: float) -> Tensor:
    """Alignment constraint over matched pairs only.

    Each matched row i contributes -log softmax_j(cos(v_i, t_j)/tau) at j=i;
    exchanged rows are dropped from the outer sum but stay in every
    denominator.  With no matched rows the masked sum is zero, since there
    is nothing to align.
    """
    if tau <= 0:
        raise ValueError("nonpositive temperature")
    if v.shape != t.shape or v.ndim != 2:
        raise ValueError("contrastive_loss expects matching (B, D) batches")
    matched = np.asarray(matched, dtype=bool)
    sim = T.matmul(_unit_rows(v), T.swapaxes(_unit_rows(t), 0, 1)) * (1.0 / tau)
    per_row = T.nll(sim, np.arange(len(matched)))         # row i over all j, target i
    return T.tsum(per_row * matched)


@dataclass
class MaskedText:
    """A masked token sequence plus everything needed to score predictions."""

    token_ids: list[int]
    mask_positions: list[int]
    original_ids: list[int]


def mask_tokens(token_ids: Sequence[int], rng_seed: int, mask_rate: float, *,
                vocab: Vocab) -> MaskedText:
    """Standard masked-language masking with the 80/10/10 replacement split.

    Non-special tokens are masked independently at ``mask_rate``; if nothing
    is drawn one position is forced, so downstream losses always have a
    target.  Masked positions become the mask token 80% of the time, a random
    non-special vocab token 10%, and stay unchanged 10%.
    """
    if not token_ids:
        raise ValueError("cannot mask an empty sequence")
    rng = np.random.default_rng(rng_seed)
    maskable = [i for i, t in enumerate(token_ids) if t not in vocab.special_ids]
    if not maskable:
        raise ValueError("sequence has no maskable tokens")
    draws = rng.random(len(maskable)) < mask_rate
    positions = [pos for pos, hit in zip(maskable, draws) if hit]
    if not positions:
        positions = [maskable[int(rng.integers(len(maskable)))]]

    candidates = [i for i in range(len(vocab)) if i not in vocab.special_ids]
    new_ids = list(token_ids)
    originals = []
    for pos in positions:
        originals.append(int(token_ids[pos]))
        roll = rng.random()
        if roll < 0.8:
            new_ids[pos] = vocab.mask_id
        elif roll < 0.9:
            new_ids[pos] = candidates[int(rng.integers(len(candidates)))]
    return MaskedText(token_ids=new_ids, mask_positions=positions, original_ids=originals)


def vg_mlm_loss(masked: Sequence[MaskedText],
                encode_tokens: Callable[[Sequence[Sequence[int]]], Tensor],
                v_cls_star: Tensor, mlp_head: Mlp) -> Tensor:
    """Predict masked words from their stop-gradiented encodings plus the video CLS.

    ``masked`` holds B masked texts of one length M and ``v_cls_star`` their
    video CLS rows (B, D).  ``encode_tokens`` maps the B texts to per-token
    outputs (B, M, D) in one call, which records no tape: the masked-token
    rows are detached before the head, so the text encoder receives no
    gradient from this loss, while the video CLS (and the whole visual
    pipeline behind it) does.  The loss is the mean over texts of each
    text's mean over its masked positions.
    """
    if any(not m.mask_positions for m in masked):
        raise ValueError("mask_tokens must force >=1 masked position")
    if v_cls_star.shape != (len(masked), v_cls_star.shape[-1]):
        raise ValueError(f"{len(masked)} masked texts for video rows {v_cls_star.shape}")
    with T.no_grad():  # the stop-gradient: no tape for rows that get detached
        tokens = encode_tokens([m.token_ids for m in masked])             # (B, M, D)
    rows = np.concatenate([[j] * len(m.mask_positions) for j, m in enumerate(masked)])
    cols = np.concatenate([m.mask_positions for m in masked])
    w_masked = Tensor(tokens.data[rows, cols])                            # (I, D), detached
    v_tiled = T.take(v_cls_star, rows)                                    # (I, D)
    logits = mlp_head(T.concat([w_masked, v_tiled], axis=1))              # (I, V)
    per_text = np.array([len(m.mask_positions) for m in masked], dtype=np.float64)
    weights = 1.0 / (per_text[rows] * len(masked))
    targets = np.concatenate([m.original_ids for m in masked])
    return T.tsum(T.nll(logits, targets) * weights)


def answer_open_ended(v_cls_star: Tensor, mlp_head: Mlp) -> np.ndarray:
    """Answer index per video CLS row, (B, ..., D) -> (B, ...) array; ties
    resolve to the lowest index.

    No text embedding enters this head: the question can steer the answer only
    through the conditioning it already applied inside the visual pipeline.
    """
    return np.argmax(mlp_head(v_cls_star).data, axis=-1)


def answer_multichoice(candidate_v_cls_stars: Tensor, vtm_head: Linear) -> np.ndarray:
    """Pick the candidate whose matched logit is largest (lowest index on ties).

    (..., C, D) candidates give an array of one pick per leading entry.
    """
    if candidate_v_cls_stars.ndim < 2 or candidate_v_cls_stars.shape[-2] < 1:
        raise ValueError("expected a (..., C, D) candidate batch")
    return np.argmax(vtm_head(candidate_v_cls_stars).data[..., MATCHED], axis=-1)


def answer_cross_entropy(v_cls_star_batch: Tensor, answers: Sequence[int],
                         mlp_head: Mlp) -> Tensor:
    """Cross-entropy for training the open-ended head on a (B, D) batch."""
    return _nll(mlp_head(v_cls_star_batch), answers)
