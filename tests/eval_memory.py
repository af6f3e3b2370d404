"""Peak resident memory of an 8-episode bench-geometry blind-probe evaluation.

Builds the bench geometry (dim 256, 7x7 grid, K=16 of N=100, heads 8, depth
2) with seed 1 and an ``EpisodeSet`` of 8 episodes, prints the process's peak
resident set (``ru_maxrss``) in MB, runs ``evaluate_with_blind_probes`` with
the static and gaussian probes, and prints the peak again.  The second
reading is what ROADMAP item 10 bounds at 242 MB.

    PYTHONPATH=src python tests/eval_memory.py

pytest does not collect this file; it takes a few seconds.
"""

from __future__ import annotations

import resource

import numpy as np

from glimpse.config import desk_config
from glimpse.data import EpisodeSet, Vocab, episode_seeds
from glimpse.evaluate import evaluate_with_blind_probes
from glimpse.model import VideoQAModel

BENCH_GEOMETRY = dict(dim=256, n_grid=7, k_select=16, n_frames=100, heads=8, depth=2)
SEED, EPISODES = 1, 8


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux reports KiB


def main() -> None:
    cfg = desk_config(**BENCH_GEOMETRY, seed=SEED)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    episodes = EpisodeSet(episode_seeds(SEED, EPISODES), cfg.n_frames, cfg.n_grid, vocab)
    print(f"peak RSS before eval: {peak_mb():.1f} MB")
    evaluate_with_blind_probes(model, episodes, eval_seed=SEED, modes=("static", "gaussian"))
    print(f"peak RSS after eval: {peak_mb():.1f} MB")


if __name__ == "__main__":
    main()
