"""What the benchmark runs and reports: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --write-spec``. The module imports nothing but the
standard library, so it can be read before numpy is configured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

RUN_SECONDS = 20

# Both stacks are two blocks deep in every workload; per-block metrics are
# named by block position.
DEPTH = 2

BENCH_GEOMETRY = dict(dim=256, n_grid=7, k_select=16, n_frames=100, heads=8, depth=DEPTH)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "train": closed loop of train_step; "eval": blind-probe calls
    pool: int                 # episodes generated from the seed
    # Episodes per operation: the train batch, or the slice of the pool that
    # one eval call covers. Short operations let the fastest ones fall
    # between bursts of contention on a shared host.
    per_op: int
    # Operations per second of --seconds. This fixes the work of a run, so
    # every commit does the same steps and the last loss and the tape growth
    # stay comparable. Near the rate at the commit that defined the benchmark;
    # bench-train is held to 16 steps because its tapes are freed only by
    # the cyclic collector and its peak RSS grows with the steps.
    ops_per_s: float
    # A run repeats set-up and timed loop this many times on identical work;
    # setup_s is the median set-up.
    reps: int
    geometry: dict = field(default_factory=dict)   # desk_config overrides

    def ops_per_rep(self, seconds: float) -> int:
        return max(1, round(seconds * self.ops_per_s / self.reps))


WORKLOADS = (
    Workload(
        "desk-train",
        "desk config, B=8: about 3.4k tape nodes per step over tiny arrays, so "
        "per-node Python overhead in tensor and nn sets the step time",
        kind="train", pool=64, per_op=8, ops_per_s=14.0, reps=10),
    Workload(
        "bench-train",
        "bench geometry (dim 256, 7x7 grid, K=16 of N=100), B=2: a 711 MB tape "
        "per step, so numpy kernels, the refiner, backward and memory set the cost",
        kind="train", pool=16, per_op=2, ops_per_s=0.8, reps=8, geometry=BENCH_GEOMETRY),
    Workload(
        "desk-eval",
        "desk config, forward-only blind-probe eval of a reloaded checkpoint: "
        "9 represent calls per episode and no backward or optimizer work",
        kind="eval", pool=64, per_op=8, ops_per_s=4.0, reps=10),
)

BY_NAME = {w.name: w for w in WORKLOADS}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("eps_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

# Scopes of the traced run that partition an operation's wall time; each is
# reported as its self time in ms per step (train) or per episode (eval).
SELF_TIME_SCOPES = (
    "model.represent", "model.encode_text",
    "sampler.select", *(f"sampler.fs_block.{i}" for i in range(DEPTH)),
    "gating.gate.sampler", "gating.gate.refiner",
    "refiner.refine", *(f"refiner.vr_block.{i}" for i in range(DEPTH)),
    "nn.self_attention", "nn.mlp", "nn.layer_norm",
    "tensor.backward", "tensor.matmul",
    "objectives.vtm", "objectives.contrastive", "objectives.vg_mlm", "objectives.qa",
    "train.optimizer", "train.step_self",
    "evaluate.pass",
    "trace.tape_walk",
)

PER_LAYER = (
    # per call, over the whole run
    ("data.vocab_ms", "ms", "lower"),
    ("data.gen_episode_ms", "ms", "lower"),
    ("data.pool_mb", "MB", "lower"),
    ("model.save_checkpoint_ms", "ms", "lower"),
    ("model.load_checkpoint_ms", "ms", "lower"),
    ("model.ckpt_mb", "MB", "lower"),
    # self times per step or per episode
    *((f"{scope}_ms", "ms", "lower") for scope in SELF_TIME_SCOPES),
    # inclusive split of each refinement block
    *((f"refiner.vr_block.{i}.{part}_ms", "ms", "lower")
      for i in range(DEPTH) for part in ("gate", "attn", "mlp")),
    # counts per step or per episode
    ("model.represent_calls", "count", "lower"),
    ("model.encode_text_calls", "count", "lower"),
    ("nn.linear_calls", "count", "lower"),
    ("tensor.matmul_calls", "count", "lower"),
    ("tensor.tape_nodes", "count", "lower"),
    ("tensor.tape_mb", "MB", "lower"),
    ("tensor.gc_ms", "ms", "lower"),
    ("tensor.gc_collections", "count", "lower"),
    ("evaluate.traced_peak_mb", "MB", "lower"),
    # the tracer itself
    ("trace.overhead_pct", "%", "lower"),
    ("trace.self_sum_error_pct", "%", "lower"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
