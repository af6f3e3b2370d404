"""The traced benchmark still reaches every layer it reports on.

``perfbench`` wraps public callables of the program by name. A refactor that
renames or bypasses one of them leaves its per-layer metric at zero without
any error; this test runs one desk train step and one blind-probe evaluation
under the benchmark's own tracer and requires a call in every self-time scope.
"""

import sys
from pathlib import Path

import numpy as np

import glimpse.evaluate as geval
import glimpse.train as gtrain
from glimpse.config import desk_config
from glimpse.data import BLIND_MODES, Vocab, gen_episode
from glimpse.model import VideoQAModel

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _import_perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import spec
        import workloads
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    return spec, workloads, Tracer


def test_every_self_time_scope_is_called():
    spec, workloads, Tracer = _import_perfbench()
    # No exchanged pairs, so the contrastive, masked-word and answer losses
    # all have matched items to run on.
    cfg = desk_config(depth=spec.DEPTH, steps=1, batch_size=2, exchange_prob=0.0, seed=1)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    episodes = [gen_episode(s, cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in (3, 4)]
    tracer = Tracer()
    workloads.install(tracer)
    try:
        model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
        tracer.register_blocks(model.sampler.blocks)
        tracer.register_blocks(model.refiner.blocks)
        optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
        gtrain.train_step(model, optimizer, episodes, cfg, 0)
        geval.evaluate_with_blind_probes(model, episodes, cfg.seed, BLIND_MODES)
    finally:
        tracer.uninstall()
    missing = [scope for scope in spec.SELF_TIME_SCOPES if tracer.totals.calls[scope] == 0]
    assert not missing, f"traced scopes that got no call: {missing}"
