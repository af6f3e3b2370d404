"""Set-up, timed loops and correctness checks of the benchmark workloads.

Imported by run.py after it has fixed the BLAS thread count and put the
checkout's ``src`` first on the import path. The program is driven through
its public callables only, each looked up on its module at call time so that
the traced run can wrap it.

Timed runs never call ``gc.collect()`` between operations: each train step's
tape is a reference cycle that only the cyclic collector frees, and peak RSS
must show that.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import glimpse
from glimpse import data as gdata
from glimpse import evaluate as geval
from glimpse import model as gmodel
from glimpse import nn as gnn
from glimpse import refiner as grefiner
from glimpse import sampler as gsampler
from glimpse import tensor as gtensor
from glimpse import train as gtrain
from spec import DEPTH, END_TO_END, PER_LAYER, SELF_TIME_SCOPES, Workload
from tracer import Totals, Tracer

BLIND_MODES = ("static", "gaussian")
FAILURES = (gtrain.NumericFailure, MemoryError, OSError)
LOSS_TERMS = ("l_vtm", "l_cl", "l_vgmlm", "l_qa", "l_total")

# (owner, attribute, scope); "{i}" in a scope is the block's position.
SPANS = (
    (gdata.Vocab, "__init__", "data.vocab"),
    (glimpse, "gen_episode", "data.gen_episode"),
    (glimpse, "save_checkpoint", "model.save_checkpoint"),
    (glimpse, "load_checkpoint", "model.load_checkpoint"),
    (gmodel.VideoQAModel, "represent", "model.represent"),
    (gmodel.VideoQAModel, "encode_text", "model.encode_text"),
    (gmodel.VideoQAModel, "encode_text_tokens", "model.encode_text"),
    (gmodel.VideoQAModel, "select", "sampler.select"),
    (gsampler.FsBlock, "__call__", "sampler.fs_block.{i}"),
    (gsampler, "gate_core", "gating.gate.sampler"),
    (grefiner, "gate_core", "gating.gate.refiner"),
    (gmodel, "refine", "refiner.refine"),
    (grefiner.VrBlock, "__call__", "refiner.vr_block.{i}"),
    (gnn.SelfAttention, "__call__", "nn.self_attention"),
    (gnn.Mlp, "__call__", "nn.mlp"),
    (gnn.LayerNorm, "__call__", "nn.layer_norm"),
    (gtensor, "matmul", "tensor.matmul"),
    (gtensor.Tensor, "backward", "tensor.backward"),
    (gtrain, "vtm_loss", "objectives.vtm"),
    (gtrain, "contrastive_loss", "objectives.contrastive"),
    (gtrain, "vg_mlm_loss", "objectives.vg_mlm"),
    (gtrain, "answer_cross_entropy", "objectives.qa"),
    (geval, "answer_open_ended", "objectives.qa"),
    (geval, "answer_multichoice", "objectives.vtm"),
    (gtrain.AdamW, "step", "train.optimizer"),
    (gtrain, "train_step", "train.step_self"),
    (geval, "evaluate_with_blind_probes", "evaluate.pass"),
    (geval, "evaluate_model", "evaluate.pass"),
)


class Ledger:
    """Attempted and failed operations, and the checks that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; returns (succeeded, result)."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except FAILURES as err:
            self.failed += 1
            print(f"operation failed: {err!r}", file=sys.stderr)
            return False, None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


@dataclass
class Setup:
    cfg: glimpse.RunConfig
    pool: list
    model: gmodel.VideoQAModel
    optimizer: gtrain.AdamW | None
    seconds: float


@dataclass
class Loop:
    times: list            # seconds per successful operation
    results: list          # train_step records or eval reports


def eps_per_s(w: Workload, loops: list) -> float:
    """Episodes per second of the fastest operation of the run.

    Contention from other tenants of a shared host only ever adds time, in
    bursts that can fill most of a run; the fastest of many short operations
    is the one that ran between bursts.
    """
    return w.per_op / min(t for loop in loops for t in loop.times)


def episode_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def set_up(w: Workload, seed: int, ops: int, ckpt_dir: Path, ledger: Ledger) -> Setup:
    """Vocab, episode pool, model and optimizer; for eval, a checkpoint round trip."""
    start = perf_counter()
    overrides = dict(w.geometry, seed=seed, steps=ops)
    if w.kind == "train":
        overrides["batch_size"] = w.per_op
    cfg = glimpse.desk_config(**overrides)
    vocab = glimpse.Vocab(cfg.vocab_seed, cfg.dim)
    pool = [glimpse.gen_episode(s, cfg.n_frames, cfg.n_grid, cfg.dim, vocab)
            for s in episode_seeds(seed, w.pool)]
    model = glimpse.VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    if w.kind == "train":
        optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
        return Setup(cfg, pool, model, optimizer, perf_counter() - start)
    save(ckpt_dir, model, 0, None, ledger)
    model = round_trip(ckpt_dir, model, None, 0, ledger)
    return Setup(cfg, pool, model, None, perf_counter() - start)


def save(directory: Path, model, step: int, optimizer, ledger: Ledger) -> float:
    shutil.rmtree(directory, ignore_errors=True)
    start = perf_counter()
    ledger.attempt(glimpse.save_checkpoint, directory, model, step,
                   optimizer.state() if optimizer is not None else None)
    return perf_counter() - start


def round_trip(directory: Path, model, optimizer, step: int, ledger: Ledger):
    """Reload a checkpoint and require it to equal what was saved, bit for bit."""
    ok, loaded = ledger.attempt(glimpse.load_checkpoint, directory)
    ledger.check(ok, "checkpoint could not be reloaded")
    if not ok:
        return model
    loaded_model, loaded_step, opt_state = loaded
    ledger.check(loaded_step == step, f"checkpoint step {loaded_step} != {step}")
    ledger.check(same_bits(model.state_dict(), loaded_model.state_dict()),
                 "reloaded parameters differ from the saved ones")
    if optimizer is not None:
        saved = optimizer.state()
        ledger.check(opt_state is not None and opt_state["t"] == saved["t"]
                     and same_bits(moment_arrays(saved), moment_arrays(opt_state)),
                     "reloaded optimizer moments differ from the saved ones")
    return loaded_model


def moment_arrays(state: dict) -> dict:
    return {f"{name}.{which}": arr for name, pair in state["moments"].items()
            for which, arr in zip("mv", pair)}


def same_bits(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def train_loop(w: Workload, setup: Setup, steps: int, ledger: Ledger) -> Loop:
    times, records = [], []
    for step in range(steps):
        start = perf_counter()
        ok, record = ledger.attempt(gtrain.train_step, setup.model, setup.optimizer,
                                    setup.pool, setup.cfg, step)
        elapsed = perf_counter() - start
        if ok:
            times.append(elapsed)
            records.append(record)
    return Loop(times, records)


def eval_slices(w: Workload, pool: list) -> list:
    return [pool[i:i + w.per_op] for i in range(0, len(pool), w.per_op)]


def eval_loop(w: Workload, setup: Setup, calls: int, ledger: Ledger) -> Loop:
    """Blind-probe evaluation, one call per slice of the pool, cycling."""
    slices = eval_slices(w, setup.pool)
    times, reports = [], []
    for call in range(calls):
        start = perf_counter()
        ok, report = ledger.attempt(geval.evaluate_with_blind_probes, setup.model,
                                    slices[call % len(slices)], setup.cfg.seed,
                                    modes=BLIND_MODES)
        elapsed = perf_counter() - start
        if ok:
            times.append(elapsed)
            reports.append(report)
    return Loop(times, reports)


LOOPS = {"train": train_loop, "eval": eval_loop}


def digest(records: list) -> str:
    """Digest of the per-step l_total stream."""
    stream = np.array([r["l_total"] for r in records], dtype=np.float64)
    return hashlib.sha256(stream.tobytes()).hexdigest()[:16]


def check_losses(records: list, ledger: Ledger) -> None:
    bad = [(r["step"], term) for r in records for term in LOSS_TERMS
           if not math.isfinite(r[term])]
    ledger.check(not bad, f"non-finite loss terms (step, term): {bad[:5]}")


def check_reports(reports: list, count: int, ledger: Ledger) -> None:
    for report in reports:
        clean = report["clean"]
        ledger.check(clean["count"] == count,
                     f"eval report counts {clean['count']} episodes, pool has {count}")
        accuracies = [clean[k] for k in ("qa_accuracy", "hit_rate", "vtm_accuracy",
                                         "mcq_accuracy")]
        accuracies += [report[mode]["qa_accuracy"] for mode in BLIND_MODES]
        ledger.check(all(0.0 <= a <= 1.0 for a in accuracies),
                     f"accuracy outside [0, 1]: {accuracies}")


def check_repeats(w: Workload, loops: list, ledger: Ledger) -> None:
    """Repetitions with one seed must give the same l_total stream or report."""
    if w.kind == "train":
        digests = {digest(loop.results) for loop in loops}
        ledger.check(len(digests) == 1, f"one seed gives several l_total streams: {digests}")
    else:
        slices = len(range(0, w.pool, w.per_op))
        first = {}
        ledger.check(all(first.setdefault(i % slices, r) == r
                         for loop in loops for i, r in enumerate(loop.results)),
                     "repeated eval calls on one slice give different reports")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail(times: list) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value;
    None while that percentile would lie below the median."""
    n = len(times)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def repetition(w: Workload, seed: int, n_ops: int, ckpt_dir: Path,
               ledger: Ledger) -> tuple[Setup, Loop]:
    setup = set_up(w, seed, n_ops, ckpt_dir, ledger)
    loop = LOOPS[w.kind](w, setup, n_ops, ledger)
    if not loop.times:
        raise RuntimeError(f"{w.name}: no operation succeeded")
    if w.kind == "train":
        check_losses(loop.results, ledger)
    else:
        check_reports(loop.results, w.per_op, ledger)
    return setup, loop


# -- untraced run: end-to-end metrics ----------------------------------------

def timed_run(w: Workload, seed: int, n_ops: int, ckpt_dir: Path, ledger: Ledger):
    setup_times, loops = [], []
    for _ in range(w.reps):
        setup, loop = repetition(w, seed, n_ops, ckpt_dir, ledger)
        setup_times.append(setup.seconds)
        loops.append(loop)
    peak = peak_rss_mb()
    check_repeats(w, loops, ledger)
    save_s = save(ckpt_dir, setup.model, n_ops, setup.optimizer, ledger)
    round_trip(ckpt_dir, setup.model, setup.optimizer, n_ops, ledger)

    times = [t for loop in loops for t in loop.times]
    op = "step" if w.kind == "train" else "call"
    notes = [f"failed_ops_frac = {ledger.failed}/{ledger.attempted}",
             f"ckpt_save_ms = {save_s * 1e3:.4f} ms",
             f"{op}_ms_p50 = {statistics.median(times) * 1e3:.4f} ms over {len(times)} ops"]
    spot = tail(times)
    notes.append(f"{op}_ms_tail = " + (f"{spot[1] * 1e3:.4f} ms (p{spot[0]:.0f} of {len(times)})"
                                       if spot else "n/a, needs 20 ops or more"))
    if w.kind == "train":
        last = loops[0].results[-1]
        notes.append(f"loss_end = {last['l_total']!r} (l_total at step {last['step']})")
        notes.append(f"l_total digest = {digest(loops[0].results)}")
    else:
        clean = loops[0].results[0]["clean"]
        notes.append(f"eval report (clean) = { {k: v for k, v in clean.items() if k != 'chance'} }")

    metrics = {
        "setup_s": statistics.median(setup_times),
        "eps_per_s": eps_per_s(w, loops),
        "peak_rss_mb": peak,
    }
    return metrics, notes


# -- traced run: per-layer metrics ---------------------------------------------

def install(tracer: Tracer) -> None:
    for owner, name, scope in SPANS:
        tracer.span(owner, name, scope)
    tracer.count(gnn.Linear, "__call__", "nn.linear")
    tracer.tape_walk_before(gtensor.Tensor, "backward")
    tracer.install_gc_probe()


def traced_run(w: Workload, seed: int, n_ops: int, ckpt_dir: Path, ledger: Ledger,
               untraced_eps: float | None):
    """The timed run's repetitions with every layer traced.

    ``untraced_eps`` is eps_per_s of an untraced run in another process, as
    the base of the tracing overhead; one process running both would carry
    the first run's freed heap into the second.
    """
    tracer = Tracer()
    setup_phase, op_phase, post_phase = Totals(), Totals(), Totals()
    traced = []
    install(tracer)
    try:
        for _ in range(w.reps):
            tracer.use(setup_phase)
            setup = set_up(w, seed, n_ops, ckpt_dir, ledger)
            for stack in (setup.model.sampler.blocks, setup.model.refiner.blocks):
                tracer.register_blocks(stack)
            tracer.use(op_phase)
            traced.append(LOOPS[w.kind](w, setup, n_ops, ledger))
        tracer.use(post_phase)
        save(ckpt_dir, setup.model, n_ops, setup.optimizer, ledger)
        round_trip(ckpt_dir, setup.model, setup.optimizer, n_ops, ledger)
        traced_peak = 0.0
        if w.kind == "eval":
            tracemalloc.start()
            ok, report = ledger.attempt(geval.evaluate_with_blind_probes, setup.model,
                                        eval_slices(w, setup.pool)[0], setup.cfg.seed,
                                        modes=BLIND_MODES)
            traced_peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            ledger.check(ok and report == traced[0].results[0],
                         "the eval call under tracemalloc gives another report")
    finally:
        tracer.uninstall()
    check_repeats(w, traced, ledger)

    units = sum(len(loop.times) for loop in traced) * (1 if w.kind == "train" else w.per_op)
    wall_s = sum(sum(loop.times) for loop in traced)
    metrics = layer_metrics((setup_phase, op_phase, post_phase), units, wall_s, ledger)
    metrics["data.pool_mb"] = sum(ep.frames.nbytes + ep.frame_cls.nbytes
                                  + ep.question_cls.nbytes for ep in setup.pool) / 1e6
    metrics["model.ckpt_mb"] = sum(p.stat().st_size for p in ckpt_dir.rglob("*")
                                   if p.is_file()) / 1e6
    metrics["evaluate.traced_peak_mb"] = traced_peak
    traced_eps = eps_per_s(w, traced)
    ledger.check(untraced_eps is not None, "the untraced reference run failed")
    if untraced_eps is not None:
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_eps / untraced_eps)
    per = "step" if w.kind == "train" else "episode"
    notes = [f"per-layer times and counts are per {per}, over {units} traced {per}s",
             f"eps_per_s untraced {untraced_eps}, traced {traced_eps:.4f}"]
    return metrics, notes


def layer_metrics(phases, units: int, wall_s: float, ledger: Ledger) -> dict:
    ops = phases[1]
    unknown = set(ops.self_s) - set(SELF_TIME_SCOPES)
    ledger.check(not unknown, f"spans outside the self-time partition: {sorted(unknown)}")
    self_sum = sum(ops.self_s.values())
    error_pct = 100.0 * abs(self_sum - wall_s) / wall_s
    ledger.check(error_pct <= 5.0,
                 f"self times sum to {self_sum:.4f} s, traced wall time is {wall_s:.4f} s")

    def per_call_ms(scope):
        calls = sum(p.calls[scope] for p in phases)
        return 1e3 * sum(p.incl_s[scope] for p in phases) / calls if calls else 0.0

    metrics = {f"{scope}_ms": per_call_ms(scope) for scope in (
        "data.vocab", "data.gen_episode", "model.save_checkpoint", "model.load_checkpoint")}
    for scope in SELF_TIME_SCOPES:
        metrics[f"{scope}_ms"] = 1e3 * ops.self_s[scope] / units
    for i in range(DEPTH):
        block = f"refiner.vr_block.{i}"
        gate = ops.nested_s[(block, "gating.gate.refiner")]
        mlp = ops.nested_s[(block, "nn.mlp")]
        metrics[f"{block}.gate_ms"] = 1e3 * gate / units
        metrics[f"{block}.attn_ms"] = 1e3 * (ops.incl_s[block] - gate - mlp) / units
        metrics[f"{block}.mlp_ms"] = 1e3 * mlp / units
    metrics.update({
        "model.represent_calls": ops.calls["model.represent"] / units,
        "model.encode_text_calls": ops.calls["model.encode_text"] / units,
        "nn.linear_calls": ops.calls["nn.linear"] / units,
        "tensor.matmul_calls": ops.calls["tensor.matmul"] / units,
        "tensor.tape_nodes": ops.tape_nodes / units,
        "tensor.tape_mb": ops.tape_bytes / 1e6 / units,
        "tensor.gc_ms": 1e3 * ops.gc_s / units,
        "tensor.gc_collections": ops.gc_collections / units,
        "trace.self_sum_error_pct": error_pct,
    })
    return metrics


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
        untraced_eps: float | None = None):
    """Returns (ledger, metrics with units, notes)."""
    ledger = Ledger()
    n_ops = w.ops_per_rep(seconds)
    ckpt_dir = out_dir / w.name / "ckpt"
    if trace:
        values, notes = traced_run(w, seed, n_ops, ckpt_dir, ledger, untraced_eps)
        spec = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, notes = timed_run(w, seed, n_ops, ckpt_dir, ledger)
        spec = {name: unit for name, unit, _, _ in END_TO_END}
    ledger.check(values.keys() == spec.keys(),
                 f"reported metrics differ from the spec: {sorted(values.keys() ^ spec.keys())}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in spec.items() if name in values}
    return ledger, metrics, notes
