"""Traced memory of the second bench-geometry train step.

Builds the bench geometry (dim 256, 7x7 grid, K=16 of N=100, heads 8, depth
2) at batch 2 on 16 episodes with seed 1, runs step 0 untraced, then step 1
under tracemalloc, and prints three numbers in MB: the memory live when
``Tensor.backward`` starts, the peak inside it, and the memory live when
``AdamW.step`` starts.  numpy reports its array buffers to tracemalloc, so
these count the tape, the gradients and the optimizer's vectors.

    PYTHONPATH=src python tests/step_memory.py

pytest does not collect this file; it takes a few seconds.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from glimpse import train as gtrain
from glimpse.config import desk_config
from glimpse.data import Vocab, gen_episode
from glimpse.model import VideoQAModel
from glimpse.tensor import Tensor

BENCH_GEOMETRY = dict(dim=256, n_grid=7, k_select=16, n_frames=100, heads=8, depth=2)
SEED, BATCH, POOL = 1, 2, 16


def main() -> dict:
    cfg = desk_config(**BENCH_GEOMETRY, seed=SEED, steps=2, batch_size=BATCH)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    seeds = np.random.SeedSequence(SEED).generate_state(POOL)
    pool = [gen_episode(int(s), cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in seeds]
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
    gtrain.train_step(model, optimizer, pool, cfg, 0)

    mb = {}
    backward, step = Tensor.backward, gtrain.AdamW.step

    def traced_backward(root, *args, **kwargs):
        mb["live at backward"] = tracemalloc.get_traced_memory()[0] / 1e6
        tracemalloc.reset_peak()
        backward(root, *args, **kwargs)
        mb["peak inside backward"] = tracemalloc.get_traced_memory()[1] / 1e6

    def traced_step(opt, *args, **kwargs):
        mb["live at AdamW.step"] = tracemalloc.get_traced_memory()[0] / 1e6
        step(opt, *args, **kwargs)

    Tensor.backward, gtrain.AdamW.step = traced_backward, traced_step
    tracemalloc.start()
    try:
        gtrain.train_step(model, optimizer, pool, cfg, 1)
    finally:
        tracemalloc.stop()
        Tensor.backward, gtrain.AdamW.step = backward, step
    return mb


if __name__ == "__main__":
    for name, value in main().items():
        print(f"{name}: {value:.1f} MB")
