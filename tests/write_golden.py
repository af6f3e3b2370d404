"""Golden fingerprints of training, checkpointing, evaluation and ablation.

Each digest pins one artefact of one desk-scale config to the bit, so that a
change which moves any of them by one ulp fails tier-1 and names what moved.
The configs are the module-ablation rows a-f, each trained for 4 steps at
batch 4 on 16 episodes with seed 3.  Per config the artefacts are:

- ``l_total``: the loss stream, as ``float.hex``;
- ``weights``: every parameter's name, dtype, shape and bytes;
- ``optimizer``: the AdamW step count and both moments;
- ``blind_probe``: the clean, static and gaussian report of the reloaded
  checkpoint on 8 held-out episodes, and the video CLS of every row that
  the report was read from (the accuracies alone rarely move);
- ``resume``: a run stopped after step 2 and resumed from its checkpoint
  directory: its loss stream, weights and moments.

``grid/modules`` digests the rows of
``run_grid(desk_config(steps=3, batch_size=4, seed=1), "modules", 8, 6, data_seed=1)``.

Float results depend on the numpy build and the BLAS kernels, so the file
records both versions next to the digests.  Regenerate it with

    PYTHONPATH=src python tests/write_golden.py

which prints each digest that changed, old and new, each one that was
removed or added, and how many of each kind there were; say in CHANGES.md
which digests moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from glimpse.ablate import run_grid
from glimpse.config import desk_config, table_variant
from glimpse.data import BLIND_MODES, Vocab, gen_episode
from glimpse.evaluate import evaluate_with_blind_probes
from glimpse.model import load_checkpoint
from glimpse.train import train

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEED = 3
TRAIN_EPISODES = 16
EVAL_EPISODES = 8
STOP_AFTER = 2


def environment() -> dict:
    """The numpy and BLAS builds that the digests were computed under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def configs() -> dict:
    base = desk_config(steps=4, batch_size=4, seed=SEED)
    return {f"row_{row}": table_variant(base, row) for row in "abcdef"}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _losses(records) -> list[str]:
    return [float.hex(r["l_total"]) for r in records]


def _arrays(named) -> list:
    return [x for name, a in named for x in (name, a.dtype.str, a.shape, a.tobytes())]


def _weights(model) -> list:
    return _arrays((name, p.data) for name, p in model.named_parameters())


def _optimizer(state: dict) -> list:
    pairs = sorted(state["moments"].items())
    return [state["t"], *_arrays((f"{name}.{which}", a) for name, pair in pairs
                                 for which, a in zip("mv", pair))]


class _Interrupted(Exception):
    pass


class _StopAfter:
    """Metrics stream that interrupts a run when the record after ``steps`` arrives."""

    def __init__(self, steps: int):
        self.left = steps

    def write(self, line: str) -> None:
        if self.left == 0:
            raise _Interrupted
        self.left -= 1


def _blind_probe(model, episodes) -> list:
    rows = []
    represent = model.represent

    def recording(*args, **kwargs):
        out = represent(*args, **kwargs)
        rows.append(out["v_star"].data)
        return out

    model.represent = recording
    report = evaluate_with_blind_probes(model, episodes, eval_seed=SEED, modes=BLIND_MODES)
    return [json.dumps(report, sort_keys=True), np.concatenate(rows).tobytes()]


def _pool(cfg, base_seed: int, count: int) -> list:
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    return [gen_episode(base_seed ^ i, cfg.n_frames, cfg.n_grid, cfg.dim, vocab)
            for i in range(count)]


def config_fingerprint(cfg, work: Path) -> dict:
    episodes = _pool(cfg, SEED, TRAIN_EPISODES)
    held_out = _pool(cfg, SEED ^ 0x5EED, EVAL_EPISODES)
    model, optimizer, records = train(cfg, episodes, out_dir=work / "full")
    probe = _blind_probe(load_checkpoint(work / "full")[0], held_out)
    try:
        train(cfg, episodes, out_dir=work / "stopped", metrics_stream=_StopAfter(STOP_AFTER),
              checkpoint_every=STOP_AFTER)
    except _Interrupted:
        pass
    resumed, resumed_opt, rest = train(cfg, episodes, resume=work / "stopped")
    return {
        "l_total": _digest(_losses(records)),
        "weights": _digest(_weights(model)),
        "optimizer": _digest(_optimizer(optimizer.state())),
        "blind_probe": _digest(probe),
        "resume": _digest([*_losses(rest), *_weights(resumed),
                           *_optimizer(resumed_opt.state())]),
    }


def fingerprints() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg in configs().items():
            work = Path(tmp) / label
            for key, value in config_fingerprint(cfg, work).items():
                digests[f"{label}/{key}"] = value
    rows = run_grid(desk_config(steps=3, batch_size=4, seed=1), "modules", 8, 6, data_seed=1)
    digests["grid/modules"] = _digest([json.dumps(rows, sort_keys=True)])
    return digests


def main() -> int:
    """Rewrite the file and print each digest that changed, was removed or was added."""
    before = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    after = fingerprints()
    GOLDEN.write_text(json.dumps({"environment": environment(), "digests": after},
                                 indent=1, sort_keys=True) + "\n")
    removed = sorted(before.keys() - after.keys())
    added = sorted(after.keys() - before.keys())
    kept = sorted(before.keys() & after.keys())
    changed = [key for key in kept if before[key] != after[key]]
    for key in changed:
        print(f"{key}: {before[key]} -> {after[key]}")
    for key in removed:
        print(f"{key}: removed")
    for key in added:
        print(f"{key}: added")
    print(f"wrote {len(after)} digests to {GOLDEN}: {len(removed)} removed, "
          f"{len(added)} added, {len(changed)} changed, "
          f"{len(kept) - len(changed)} unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
