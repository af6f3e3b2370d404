"""Training loop: decoupled-weight-decay Adam, linear warmup/decay schedule,
deterministic seeding, JSON-lines metrics, and bit-exact checkpoints."""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import tensor as T
from .config import RunConfig, derive_seed
from .data import Episode, Vocab
from .model import VideoQAModel, load_checkpoint, save_checkpoint
from .nn import param_buffer, split_views
from .objectives import (
    MATCHED,
    UNMATCHED,
    answer_cross_entropy,
    contrastive_loss,
    exchange_annotations,
    mask_tokens,
    vg_mlm_loss,
    vtm_loss,
)
from .tensor import Tensor


class NumericFailure(FloatingPointError):
    """Non-finite loss; carries the offending term and step for the exit path."""

    def __init__(self, term: str, step: int):
        super().__init__(f"non-finite loss term '{term}' at step {step}")
        self.term = term
        self.step = step


def episode_noise_seed(cfg_seed: int, episode_seed: int, step: int) -> int:
    """Selection-noise seed tied to the episode (xor), then mixed with the step,
    so batch parallelism or reordering cannot change any draw."""
    return derive_seed(cfg_seed ^ episode_seed, step)


class AdamW:
    """Adam with decoupled weight decay on the raw parameters.

    The optimizer packs the parameters it is given into a vector of its own
    (``nn.param_buffer``), so each ``p.data`` becomes its view there, and a step
    updates that vector in place between tapes, in the per-tensor rule's
    elementwise order, over each run of tensors with a grad, through the fused
    ops' block loop ``tensor._blockwise``; moments and grads are vectors laid out
    alike, and ``backward`` writes ``p.grad`` into its ``grad_slot`` there.  A
    tensor without a grad keeps its data and moments.
    A step raises ``ValueError``, naming the parameter, if one was rebound after
    the optimizer was built (its data is no longer its view of the vector) or
    its grad is not its ``grad_slot``.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params: Sequence[tuple[str, Tensor]], weight_decay: float):
        self.named_params = list(named_params)
        self.weight_decay = weight_decay
        self.t = 0
        params = [p for _, p in self.named_params]
        self.data = param_buffer(params)
        n, shapes = self.data.size, [p.shape for p in params]
        self._moments = np.zeros(2 * n, self.data.dtype)      # every m, then every v
        self.m, self.v, self.grads = self._moments[:n], self._moments[n:], np.empty_like(self.data)
        ends = list(itertools.accumulate((p.size for p in params), initial=0))
        self._slots = list(zip(self.named_params, [p.data for p in params],
                               split_views(self.grads, shapes), ends, ends[1:]))
        for (_, p), _, grad, _, _ in self._slots:
            p.grad_slot = grad

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def step(self, lr: float) -> None:
        runs = []                     # [start, stop) of tensors with a grad
        for (name, p), view, grad, start, stop in self._slots:
            if p.data is not view:
                raise ValueError(f"parameter {name} was rebound from its place in the buffer")
            if p.grad is not None:
                if p.grad is not grad:
                    raise ValueError(f"parameter {name} has a grad outside its grad_slot")
                if runs and runs[-1][1] == start:
                    runs[-1][1] = stop
                else:
                    runs.append([start, stop])
        self.t += 1
        c1, c2 = 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t
        b1, b2, decay = self.beta1, self.beta2, lr * self.weight_decay

        def update(p, m, v, g):
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            s = np.multiply(g, 1.0 - b1)
            np.add(np.multiply(m, b1, out=m), s, out=m)
            np.add(np.multiply(v, b2, out=v),
                   np.multiply(np.multiply(g, g, out=s), 1.0 - b2, out=s), out=v)
            # u = (m/c1) / (sqrt(v/c2) + eps);  p = (p - lr*u) - (lr*wd)*p
            np.add(np.sqrt(np.divide(v, c2, out=s), out=s), self.eps, out=s)
            u = np.divide(m, c1)
            np.divide(u, s, out=u)
            np.multiply(p, decay, out=s)
            np.subtract(np.subtract(p, np.multiply(u, lr, out=u), out=p), s, out=p)

        for start, stop in runs:
            T._blockwise(update, *(a[start:stop] for a in (self.data, self.m, self.v, self.grads)))

    @property
    def moments(self) -> dict:
        """Each parameter's name -> views of its (m, v) in the moment buffer."""
        views = split_views(self._moments, [p.shape for _, p in self.named_params] * 2)
        k = len(self.named_params)
        return dict(zip((name for name, _ in self.named_params), zip(views[:k], views[k:])))

    def state(self) -> dict:
        return {"t": self.t, "moments": self.moments}

    def load_state(self, state: dict) -> None:
        """Restore the step count and copy the moments of ``load_checkpoint`` (or of
        another ``state()``) into this optimizer's buffers."""
        self.t = state["t"]
        for name, pair in self.moments.items():
            for mine, saved in zip(pair, state["moments"][name]):
                np.copyto(mine, saved)


def lr_at(cfg: RunConfig, step: int) -> float:
    """Linear warmup to cfg.lr, then linear decay to zero at cfg.steps."""
    warm = max(1, int(round(cfg.warmup * cfg.steps)))
    if step < warm:
        return cfg.lr * (step + 1) / warm
    span = max(1, cfg.steps - warm)
    return cfg.lr * max(0.0, cfg.steps - step) / span


def train_step(model: VideoQAModel, optimizer: AdamW, episodes: Sequence[Episode],
               cfg: RunConfig, step: int) -> dict:
    """One optimization step; returns the metrics record for the step.

    B episodes are sampled and their annotations exchanged by the row
    permutation ``order`` (``exchange_annotations``): row r shows its own
    video against row ``order[r]``'s question and is matched where
    ``order[r] == r``.  The B rows go through one batched ``represent`` call,
    with each row's noise from its own ``episode_noise_seed``; the masked
    texts of the matched rows are encoded in one call.  One tape covers the
    whole step.  Which terms the step sums is known before the forward: each
    loss whose weight is non-zero and that has rows to read, in the order the
    total sums them (vtm, vgmlm, cl, qa).  ``terms`` holds them and then their
    weighted sum, ``total``; each is checked for finite values before the
    backward pass.  The record reports 0.0 for an entry that was not built:
    with no term, no forward runs, nothing is taped or backpropagated, and the
    optimizer still counts the step.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, 11, step))
    take = min(cfg.batch_size, len(episodes))
    rows = [episodes[i] for i in rng.choice(len(episodes), size=take, replace=False)]
    order = exchange_annotations(len(rows), cfg.exchange_prob, derive_seed(cfg.seed, 13, step))
    matched = order == np.arange(len(rows))
    matched_ids = np.flatnonzero(matched)

    # The terms the total sums, in its order; all but vtm read matched rows only.
    names = [name for name in ("vtm", "vgmlm", "cl", "qa")
             if getattr(cfg, f"w_{name}") and (name == "vtm" or len(matched_ids))]
    terms = {}
    try:
        if names:   # with nothing to sum, nothing runs forward
            rep = model.represent([ep.bundle for ep in rows],
                                  [rows[j].question_tokens for j in order],
                                  [episode_noise_seed(cfg.seed, ep.seed, step) for ep in rows])
            v_batch = rep["v_star"]                                # (B, D)
        if "vtm" in names:
            terms["vtm"] = vtm_loss(v_batch, np.where(matched, MATCHED, UNMATCHED),
                                    model.vtm_head)
        if "vgmlm" in names or "qa" in names:
            v_matched = T.take(v_batch, matched_ids)
        if "vgmlm" in names:
            masked = [mask_tokens(rows[j].question_tokens, derive_seed(cfg.seed, 19, step, j),
                                  cfg.mask_rate, vocab=model.vocab) for j in matched_ids]
            terms["vgmlm"] = vg_mlm_loss(masked, model.encode_text_tokens, v_matched,
                                         model.mlm_head)
        if "cl" in names:
            terms["cl"] = contrastive_loss(
                v_batch, T.reshape(rep["t_cls"], (len(rows), cfg.dim)), matched, cfg.tau)
        if "qa" in names:
            terms["qa"] = answer_cross_entropy(
                v_matched, [rows[j].answer for j in matched_ids], model.answer_head)
    except FloatingPointError as err:   # overflowed activations surface here
        raise NumericFailure("forward", step) from err

    weighted = [terms[name] * getattr(cfg, f"w_{name}") for name in names]
    if weighted:
        terms["total"] = sum(weighted[1:], weighted[0])
    for name, value in terms.items():
        if not np.isfinite(value.data).all():
            raise NumericFailure(name, step)

    lr = lr_at(cfg, step)
    optimizer.zero_grad()
    if weighted:
        terms["total"].backward()
    optimizer.step(lr)
    return {"step": step,
            **{f"l_{name}": float(terms[name].data) if name in terms else 0.0
               for name in ("vtm", "cl", "vgmlm", "qa", "total")},
            "lr": lr}


def train(cfg: RunConfig, episodes: Sequence[Episode], out_dir=None,
          metrics_stream: IO[str] | None = None, resume: str | Path | None = None,
          checkpoint_every: int = 0) -> tuple[VideoQAModel, AdamW, list[dict]]:
    """Run the configured number of steps over the episode pool.

    ``resume`` is a checkpoint directory: its model, AdamW moments and step
    (via ``load_checkpoint``) go on with the same seed streams, so a resumed
    run emits the same metrics as an uninterrupted one.  ``ValueError`` is raised
    for an empty pool, a negative ``checkpoint_every``, and a checkpoint of another
    config, naming every differing key.
    """
    if len(episodes) == 0:
        raise ValueError("no episodes to train on")
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0 (0: none), got {checkpoint_every}")
    if resume is None:
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(cfg.seed))
        start_step, opt_state = 0, None
    else:
        model, start_step, opt_state = load_checkpoint(resume)
        differ = [f.name for f in dataclasses.fields(RunConfig)
                  if getattr(model.cfg, f.name) != getattr(cfg, f.name)]
        if differ:
            raise ValueError("--resume checkpoint config differs from this run's config: "
                             + ", ".join(f"{key}={getattr(model.cfg, key)!r} vs "
                                         f"{getattr(cfg, key)!r}" for key in differ))
    optimizer = AdamW(list(model.named_parameters()), cfg.weight_decay)
    if opt_state is not None:
        optimizer.load_state(opt_state)

    records = []
    for step in range(start_step, cfg.steps):
        record = train_step(model, optimizer, episodes, cfg, step)
        records.append(record)
        if metrics_stream is not None:
            metrics_stream.write(json.dumps(record) + "\n")
        if out_dir and checkpoint_every and (step + 1) % checkpoint_every == 0:
            save_checkpoint(Path(out_dir), model, step + 1, optimizer.state())
    if out_dir:
        save_checkpoint(Path(out_dir), model, cfg.steps, optimizer.state())
    return model, optimizer, records
