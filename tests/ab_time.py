"""Paired in-process timing of this checkout against another revision.

    python tests/ab_time.py REV [--rounds N]

Exports ``src/glimpse`` of the git revision REV with ``git archive`` into a
temporary directory as the package ``glimpse_rev``.  A child process imports
it next to this checkout's ``glimpse``; this works because glimpse's modules
import each other relatively.  Each side builds its own inputs from seed 1
through callables that keep their signatures (``desk_config``, ``Vocab``,
``gen_episode``, ``VideoQAModel``, ``AdamW``, ``train_step``,
``evaluate_with_blind_probes``, ``tensor.attention``), then the two sides
take turns, one operation each, and the side that goes first alternates from
round to round:

- desk-eval: one blind-probe eval call (static and gaussian) on 8 episodes,
  cycling over the 8 slices of a 64-episode pool, as perfbench's desk-eval;
- desk-train: one train step at B=8 on a 64-episode pool;
- bench-train: one train step at bench geometry (dim 256, 7x7 grid, K=16 of
  N=100, 8 heads, depth 2), B=2 on 16 episodes;
- attention at each of the three: every ``tensor.attention`` call that one
  operation of the workload makes, forward and the node's backward rule, on
  fixed random float32 inputs of the recorded shapes.

The side whose inputs are built second runs faster: with one tree on both
sides, desk-train read 184 and 128 wins of 300 in the two build orders.  So
half the rounds run in a child that builds this checkout's side first, half
in one that builds REV's first, and the pairs are pooled.  For each kind the
script prints both sides' fastest and median time and the rounds this
checkout was faster, in each build order.  Timing both trees in one process
and alternating them call by call cancels the drift of a shared host and the
layout effects that move a separately launched run by a few percent.  BLAS
uses its own default thread count.

pytest does not collect this file; the default rounds take about two minutes.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_GEOMETRY = dict(dim=256, n_grid=7, k_select=16, n_frames=100, heads=8, depth=2)
BLIND_MODES = ("static", "gaussian")
SEED = 1


class Side:
    """One tree's package and the inputs of every workload, built from ``SEED``."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.tensor = importlib.import_module(f"{pkg.__name__}.tensor")
        self.train = importlib.import_module(f"{pkg.__name__}.train")
        self.evaluate = importlib.import_module(f"{pkg.__name__}.evaluate")
        self.desk_eval = self.build(64)
        self.desk_train = self.build(64, batch_size=8, train=True)
        self.bench_train = self.build(16, batch_size=2, train=True, **BENCH_GEOMETRY)
        self.calls = 0
        self.steps = {}

    def build(self, pool: int, train: bool = False, **overrides):
        cfg = self.pkg.desk_config(seed=SEED, **overrides)
        vocab = self.pkg.Vocab(cfg.vocab_seed, cfg.dim)
        seeds = np.random.SeedSequence(SEED).generate_state(pool)
        episodes = [self.pkg.gen_episode(int(s), cfg.n_frames, cfg.n_grid, cfg.dim, vocab)
                    for s in seeds]
        model = self.pkg.VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
        optimizer = (self.train.AdamW(list(model.named_parameters()), cfg.weight_decay)
                     if train else None)
        return cfg, episodes, model, optimizer

    def eval_call(self) -> None:
        cfg, episodes, model, _ = self.desk_eval
        start = 8 * (self.calls % (len(episodes) // 8))
        self.calls += 1
        self.evaluate.evaluate_with_blind_probes(model, episodes[start:start + 8], cfg.seed,
                                                 modes=BLIND_MODES)

    def train_step(self, which: str) -> None:
        cfg, episodes, model, optimizer = getattr(self, which)
        step = self.steps[which] = self.steps.get(which, -1) + 1
        self.train.train_step(model, optimizer, episodes, cfg, step)


def attention_calls(side: Side, op) -> list[tuple]:
    """(q shape, k shape, further arguments) of each ``tensor.attention`` call
    that ``op`` makes, recorded on ``side``."""
    calls, attention = [], side.tensor.attention

    def recording(q, k, v, *args, **kwargs):
        calls.append((q.shape, k.shape, args, kwargs))
        return attention(q, k, v, *args, **kwargs)

    side.tensor.attention = recording
    try:
        op()
    finally:
        side.tensor.attention = attention
    return calls


def attention_pass(side: Side, calls: list[tuple]):
    """An operation that runs every recorded call forward and backward."""
    rng = np.random.default_rng(SEED)
    inputs = []
    for q_shape, k_shape, args, kwargs in calls:
        q, k, v = (side.tensor.Tensor(rng.normal(size=shape).astype(np.float32),
                                      requires_grad=True)
                   for shape in (q_shape, k_shape, k_shape))
        inputs.append((q, k, v, args, kwargs))

    def op():
        for q, k, v, args, kwargs in inputs:
            out = side.tensor.attention(q, k, v, *args, **kwargs)
            out._backward(np.ones_like(out.data))
            q.grad = k.grad = v.grad = None
    return op


def paired(ours, theirs, rounds: int) -> dict[str, list[float]]:
    """Seconds per operation of each side over ``rounds`` alternating rounds,
    after one warm-up each."""
    ours(), theirs()
    times = {"here": [], "rev": []}
    for r in range(rounds):
        order = (("here", ours), ("rev", theirs)) if r % 2 else (("rev", theirs), ("here", ours))
        for side, op in order:
            start = perf_counter()
            op()
            times[side].append(perf_counter() - start)
    return times


def run_child(first: str, rev_dir: Path, rounds: int) -> None:
    """Child side: both trees in this process, ``first`` built first; prints
    one JSON line of times per kind."""
    sys.path[:0] = [str(ROOT / "src"), str(rev_dir)]
    import glimpse
    import glimpse_rev

    packages = {"here": glimpse, "rev": glimpse_rev}
    sides = {name: Side(packages[name]) for name in sorted(packages, key=lambda n: n != first)}
    here, there = sides["here"], sides["rev"]
    bench_rounds = max(1, rounds // 10)
    workloads = (("desk-eval", Side.eval_call, rounds),
                 ("desk-train", lambda side: side.train_step("desk_train"), rounds),
                 ("bench-train", lambda side: side.train_step("bench_train"), bench_rounds))
    for name, op, n in workloads:
        print(json.dumps([name, paired(lambda: op(here), lambda: op(there), n)]), flush=True)
    for name, op, n in workloads:
        calls = attention_calls(here, lambda: op(here))
        times = paired(attention_pass(here, calls), attention_pass(there, calls), n)
        print(json.dumps([f"{name} attention", times]), flush=True)


def main(rev: str, rounds: int) -> int:
    kinds: dict[str, dict[str, list]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/glimpse"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        (Path(tmp) / "src" / "glimpse").rename(Path(tmp) / "glimpse_rev")
        for first in ("here", "rev"):
            child = [sys.executable, str(Path(__file__).resolve()), "--child", first, tmp,
                     str(rounds // 2)]
            out = subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True)
            for line in out.stdout.splitlines():
                name, times = json.loads(line)
                kind = kinds.setdefault(name, {"here": [], "rev": [], "wins": []})
                kind["here"] += times["here"]
                kind["rev"] += times["rev"]
                kind["wins"].append(sum(a < b for a, b in zip(times["here"], times["rev"])))
    print(f"this checkout (here) against {rev} (REV), ms per operation, seed {SEED}; "
          f"rounds here faster, with here built first + with REV built first")
    for name, kind in kinds.items():
        here, there = (f"min {min(kind[s]) * 1e3:8.3f} "
                       f"median {statistics.median(kind[s]) * 1e3:8.3f}" for s in ("here", "rev"))
        print(f"{name:22s} REV {there}   here {here}   here faster "
              f"{sum(kind['wins'])}/{len(kind['here'])} ({' + '.join(map(str, kind['wins']))})")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_child(sys.argv[2], Path(sys.argv[3]), int(sys.argv[4]))
    else:
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("rev")
        parser.add_argument("--rounds", type=int, default=400,
                            help="rounds of each desk kind, half in each build order; "
                                 "bench kinds run a tenth as many")
        args = parser.parse_args()
        sys.exit(main(args.rev, args.rounds))
