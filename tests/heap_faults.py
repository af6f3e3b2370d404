"""Wall time and minor page faults of each train step and eval call, in process.

Runs 16 desk-config blind-probe eval calls of 8 episodes each over a
64-episode pool, then 8 bench-geometry train steps (dim 256, 7x7 grid, K=16 of
N=100, heads 8, depth 2) at batch 2 on 16 episodes, all with seed 1: the
shapes of perfbench's desk-eval and bench-train workloads.  Prints each
operation's wall time and the minor faults (``ru_minflt``) it made, then the
fastest time and the most faults over the operations after the first of each
kind.  A pass that makes few faults after the first reuses the heap its
predecessor freed.

    PYTHONPATH=src python tests/heap_faults.py

pytest does not collect this file; it takes a few seconds.
"""

from __future__ import annotations

import resource
from time import perf_counter

import numpy as np

from glimpse import train as gtrain
from glimpse.config import desk_config
from glimpse.data import BLIND_MODES, Vocab, gen_episode
from glimpse.evaluate import evaluate_with_blind_probes
from glimpse.model import VideoQAModel

BENCH_GEOMETRY = dict(dim=256, n_grid=7, k_select=16, n_frames=100, heads=8, depth=2)
SEED = 1


def set_up(pool: int, **overrides):
    cfg = desk_config(**overrides, seed=SEED)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    seeds = np.random.SeedSequence(SEED).generate_state(pool)
    episodes = [gen_episode(int(s), cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in seeds]
    return cfg, episodes, VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))


def measure(label: str, ops) -> None:
    """Runs each operation of ``ops`` and prints its time and faults."""
    readings = []
    for i, op in enumerate(ops):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        op()
        ms = (perf_counter() - start) * 1e3
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        readings.append((ms, faults))
        print(f"{label} {i}: {ms:.1f} ms, {faults} faults")
    later = readings[1:]
    print(f"{label} after the first: fastest {min(ms for ms, _ in later):.1f} ms, "
          f"most faults {max(f for _, f in later)}")


def main() -> None:
    # desk-eval first: a bench step frees blocks large enough to raise glibc's
    # dynamic thresholds to their ceiling for the rest of the process.
    cfg, episodes, model = set_up(64)
    slices = [episodes[i:i + 8] for i in range(0, len(episodes), 8)]
    measure("desk-eval call", [
        lambda call=call: evaluate_with_blind_probes(model, slices[call % len(slices)],
                                                     cfg.seed, BLIND_MODES)
        for call in range(16)])
    del cfg, episodes, model, slices

    cfg, episodes, model = set_up(16, **BENCH_GEOMETRY, steps=8, batch_size=2)
    optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
    measure("bench-train step", [
        lambda step=step: gtrain.train_step(model, optimizer, episodes, cfg, step)
        for step in range(cfg.steps)])


if __name__ == "__main__":
    main()
