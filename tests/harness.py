"""Side measurements: this checkout against another revision, and the memory
of single workloads.  pytest does not collect this file.

    python tests/harness.py time REV [--rounds N] | parity REV | memory

``build`` makes every input from seed 1 with the pool, batch (or eval slice)
and geometry of a workload in ``perfbench/spec.py``.  ``export`` unpacks
``src/glimpse`` of REV as the package ``glimpse_rev``, which imports next to
``glimpse`` because glimpse's modules import each other relatively.  A tree is
driven only through callables that keep their signatures.  Each mode's
``--help`` (its function's docstring) says what it prints.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = str(Path(__file__).resolve())
ROOT = Path(HERE).parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import glimpse  # noqa: E402
import spec  # noqa: E402

SEED = 1
BLIND_MODES = ("static", "gaussian")
TIME_KINDS = ("desk-eval", "desk-train", "bench-train")
PARITY_CASES = [(f"{name[:-6]} {fusion}", name, fusion) for name in ("desk-train", "bench-train")
                for fusion in ("la_gate", "cross_attention")]
FLOAT32_STEPS, TOLERANCE, ZERO = 8, 1e-12, 1e-15
MEMORY_OPS = {"desk-eval": 16, "bench-train": 8, "bench-eval": 1}

Built = namedtuple("Built", "cfg vocab episodes model optimizer")   # no optimizer for eval


def module(pkg, name: str):
    return importlib.import_module(f"{pkg.__name__}.{name}")


def export(rev: str, into: Path) -> Path:
    """Unpack ``src/glimpse`` of ``rev`` as ``into/glimpse_rev``; returns ``into``."""
    subprocess.run(["git", "-C", ROOT, "archive", "-o", into / "rev.tar", rev, "src/glimpse"],
                   check=True)
    shutil.unpack_archive(into / "rev.tar", into, filter="data")
    (into / "src" / "glimpse").rename(into / "glimpse_rev")
    return into


def build(pkg, name: str, *, pool: int | None = None, dtype=None, **overrides) -> Built:
    """Workload ``name``'s inputs on package ``pkg`` from ``SEED``; ``pool`` replaces its
    pool size, ``dtype`` casts the model, ``overrides`` go to ``desk_config``."""
    w = spec.BY_NAME[name]
    cfg = pkg.desk_config(**{"seed": SEED, "batch_size": w.per_op, **w.geometry, **overrides})
    vocab = pkg.Vocab(cfg.vocab_seed, cfg.dim)
    seeds = np.random.SeedSequence(SEED).generate_state(w.pool if pool is None else pool)
    episodes = [pkg.gen_episode(int(s), cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in seeds]
    model = pkg.VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    if dtype is not None:
        model.astype(dtype)
    optimizer = (module(pkg, "train").AdamW(list(model.named_parameters()), cfg.weight_decay)
                 if w.kind == "train" else None)
    return Built(cfg, vocab, episodes, model, optimizer)


def next_op(pkg, built: Built):
    """A callable that runs the next train step, or an eval call on the next slice of the pool."""
    cfg, _, episodes, model, optimizer = built
    train, evaluate, count, per = (module(pkg, "train"), module(pkg, "evaluate"),
                                   itertools.count(), cfg.batch_size)
    slices = ([episodes[i:i + per] for i in range(0, len(episodes), per)]
              if len(episodes) > per else [episodes])

    def op():
        i = next(count)
        if optimizer is not None:
            train.train_step(model, optimizer, episodes, cfg, i)
        else:
            evaluate.evaluate_with_blind_probes(model, slices[i % len(slices)], cfg.seed,
                                                modes=BLIND_MODES)
    return op


def attention_calls(tensor, op) -> list[tuple]:
    """(q shape, k shape, further arguments) of each ``tensor.attention`` call that ``op`` makes."""
    calls, attention = [], tensor.attention

    def recording(q, k, v, *args, **kwargs):
        calls.append((q.shape, k.shape, args, kwargs))
        return attention(q, k, v, *args, **kwargs)

    tensor.attention = recording
    try:
        op()
    finally:
        tensor.attention = attention
    return calls


def attention_pass(tensor, calls: list[tuple]):
    """An operation that runs every recorded call forward and backward on random inputs."""
    rng = np.random.default_rng(SEED)
    inputs = [[tensor.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
               for shape in (q_shape, k_shape, k_shape)] + [args, kwargs]
              for q_shape, k_shape, args, kwargs in calls]

    def op():
        for q, k, v, args, kwargs in inputs:
            out = tensor.attention(q, k, v, *args, **kwargs)
            out._backward(np.ones_like(out.data))
            q.grad = k.grad = v.grad = None
    return op


def paired(ours, theirs, rounds: int) -> dict[str, list[float]]:
    """Seconds per operation of each side over ``rounds`` alternating rounds, after a warm-up."""
    ours(), theirs()
    times = {"here": [], "rev": []}
    for r in range(rounds):
        order = (("here", ours), ("rev", theirs)) if r % 2 else (("rev", theirs), ("here", ours))
        for side, op in order:
            start = perf_counter()
            op()
            times[side].append(perf_counter() - start)
    return times


def time_child(first: str, rev_dir: str, rounds: str) -> None:
    """Both trees in this process, ``first`` built first; one JSON line of times per kind."""
    sys.path.insert(0, rev_dir)
    import glimpse_rev

    packages = {"here": glimpse, "rev": glimpse_rev}
    ops = {side: {name: next_op(packages[side], build(packages[side], name)) for name in TIME_KINDS}
           for side in sorted(packages, key=lambda side: side != first)}
    here, there = module(glimpse, "tensor"), module(glimpse_rev, "tensor")
    n = {k: int(rounds) if k.startswith("desk") else max(1, int(rounds) // 10) for k in TIME_KINDS}
    for name in TIME_KINDS:
        print(json.dumps([name, paired(ops["here"][name], ops["rev"][name], n[name])]), flush=True)
    for name in TIME_KINDS:
        calls = attention_calls(here, ops["here"][name])
        times = paired(attention_pass(here, calls), attention_pass(there, calls), n[name])
        print(json.dumps([f"{name} attention", times]), flush=True)


def malloc_setup(tensor_source: str) -> str | None:
    """The source of ``_keep_freed_memory`` in the text of a ``tensor.py``, if it has one."""
    for node in ast.parse(tensor_source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_keep_freed_memory":
            return ast.get_source_segment(tensor_source, node)
    return None


def same_malloc_setup(rev: str) -> bool:
    """Whether REV's ``tensor._keep_freed_memory`` reads as this checkout's."""
    theirs = subprocess.run(["git", "-C", ROOT, "show", f"{rev}:src/glimpse/tensor.py"],
                            stdout=subprocess.PIPE, text=True, check=True).stdout
    return malloc_setup(theirs) == malloc_setup((ROOT / "src/glimpse/tensor.py").read_text())


def time_mode(rev: str, rounds: int) -> int:
    """Paired in-process timing against REV.  The trees take turns, one operation each, the
    side that goes first alternating by round (Kalibera and Jones, ISMM 2013): desk-eval,
    desk-train, bench-train (a tenth of the rounds) and each one's attention calls.  The side
    built second runs faster, so half the rounds run in a child that builds this checkout
    first.  Prints each side's min and median and the rounds this checkout won.  Both trees
    run under the glibc malloc thresholds of the tree imported last, so a change to
    ``tensor._keep_freed_memory`` cannot show here: when its source differs between the
    trees, this mode exits 1; compare such trees with perfbench, in separate processes."""
    if not same_malloc_setup(rev):
        print(f"error: tensor._keep_freed_memory differs between this checkout and {rev}, and "
              "one process runs both under one malloc setup; compare such trees with "
              "perfbench, in separate processes", file=sys.stderr)
        return 1
    kinds: dict[str, dict[str, list]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        export(rev, Path(tmp))
        for first in ("here", "rev"):
            child = [sys.executable, HERE, "--child", "time", first, tmp, str(rounds // 2)]
            out = subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True)
            for line in out.stdout.splitlines():
                name, times = json.loads(line)
                kind = kinds.setdefault(name, {"here": [], "rev": [], "wins": []})
                for side in ("here", "rev"):
                    kind[side] += times[side]
                kind["wins"].append(sum(a < b for a, b in zip(times["here"], times["rev"])))
    print(f"this checkout (here) against {rev} (REV), ms per operation, seed {SEED}; "
          f"rounds here faster, with here built first + with REV built first")
    for name, kind in kinds.items():
        here, there = (f"min {min(kind[s]) * 1e3:8.3f} "
                       f"median {statistics.median(kind[s]) * 1e3:8.3f}" for s in ("here", "rev"))
        print(f"{name:22s} REV {there}   here {here}   here faster "
              f"{sum(kind['wins'])}/{len(kind['here'])} ({' + '.join(map(str, kind['wins']))})")
    return 0


def parity_cases(pkg) -> dict[str, tuple]:
    """Per case: the float64 ``v_star`` and gradients by name, and the float32 loss stream."""
    train, model_class = module(pkg, "train"), module(pkg, "model").VideoQAModel
    v_stars, represent = [], model_class.represent

    def recording(self, *args, **kwargs):
        rep = represent(self, *args, **kwargs)
        v_stars.append(rep["v_star"].data.copy())
        return rep

    model_class.represent = recording
    cases = {}
    try:
        for case, name, fusion in PARITY_CASES:
            for dtype, steps in ((np.float64, 1), (np.float32, FLOAT32_STEPS)):
                cfg, _, pool, model, optimizer = build(
                    pkg, name, pool=spec.BY_NAME[name].per_op, dtype=dtype, fusion=fusion)
                losses = [train.train_step(model, optimizer, pool, cfg, s)["l_total"]
                          for s in range(steps)]
                if dtype is np.float64:
                    grads = {n: p.grad.copy() for n, p in model.named_parameters()
                             if p.grad is not None}
                    v_star = v_stars[-1]
            cases[case] = v_star, grads, np.array(losses)
    finally:
        model_class.represent = represent
    return cases


def rel_error(ours: np.ndarray, theirs: np.ndarray) -> float:
    scale = max(np.abs(ours).max(), np.abs(theirs).max())
    return float(np.abs(ours - theirs).max() / scale) if scale else 0.0


def compare(ours: dict, theirs: dict) -> bool:
    """Print the report; True when every case is within ``TOLERANCE``."""
    ok, streams_equal = True, True
    for case, (v_here, here, l_here) in ours.items():
        v_there, there, l_there = theirs[case]
        pairs = [(n, n) for n in sorted(here) if n in there]
        if set(here) != set(there) and len(here) == len(there) and all(
                here[a].shape == there[b].shape for a, b in zip(here, there)):
            pairs = list(zip(here, there))   # each side's named_parameters order
            print(f"{case}: paired by position, REV name -> name here: "
                  + ", ".join(f"{b} -> {a}" for a, b in pairs if a != b))
        elif set(here) != set(there):
            ok = False
            print(f"{case}: gradients for different parameters: only here "
                  f"{sorted(set(here) - set(there))}, only at REV {sorted(set(there) - set(here))}")
        largest = [max(np.abs(grads[n]).max() for n in names)
                   for grads, names in zip((here, there), zip(*pairs))]
        zeros = [a for a, b in pairs if np.abs(here[a]).max() <= ZERO * largest[0]
                 and np.abs(there[b]).max() <= ZERO * largest[1]]
        errors = {a: rel_error(here[a], there[b]) for a, b in pairs if a not in zeros}
        worst = max(errors, key=errors.get)
        v_error = rel_error(v_here, v_there)
        over = sorted(n for n, e in errors.items() if e > TOLERANCE)
        ok = ok and v_error <= TOLERANCE and not over
        print(f"{case}: v_star {v_error:.2e}; {len(errors)} gradients, largest {errors[worst]:.2e}"
              f" ({worst}); over {TOLERANCE:g}: {over or 'none'}")
        print(f"  at most {ZERO:g} of the largest gradient on both sides: {zeros or 'none'}")
        moved = [s for s in range(FLOAT32_STEPS) if l_here[s].tobytes() != l_there[s].tobytes()]
        streams_equal = streams_equal and not moved
        print(f"  float32 l_total, {FLOAT32_STEPS} steps: " + (
            f"{len(moved)} moved; first at step {moved[0]}, {float(l_here[moved[0]]).hex()} here "
            f"and {float(l_there[moved[0]]).hex()} at REV" if moved else "byte-identical"))
    print(f"float32 l_total streams: {'byte-identical' if streams_equal else 'moved'}")
    return ok


def parity_mode(rev: str) -> int:
    """Float64 gradient parity against REV: one float64 step at desk-train and bench-train
    geometry under both fusions.  Errors are relative to each tensor's largest element; a
    gradient at most 1e-15 of the largest on both sides is roundoff.  Float32 loss streams run
    8 steps.  Exits 1 when another error exceeds 1e-12 or the parameters differ."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, str(export(rev, Path(tmp))))
        import glimpse_rev

        theirs = parity_cases(glimpse_rev)
    ours = parity_cases(glimpse)
    print(f"this checkout against {rev}, float64 errors relative to each tensor's largest element")
    return 0 if compare(ours, theirs) else 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux reports KiB


def traced(op) -> None:
    """Runs train step ``op`` under tracemalloc, started with the step, so it sees only the
    step's own allocations: prints the MB of them live when backward starts, their peak
    inside backward, and the MB of them live when AdamW.step starts."""
    from glimpse.tensor import Tensor
    from glimpse.train import AdamW

    originals, mb = (Tensor.backward, AdamW.step), {}

    def backward(*args, **kwargs):
        mb["step allocations live at backward"] = tracemalloc.get_traced_memory()[0] / 1e6
        tracemalloc.reset_peak()
        originals[0](*args, **kwargs)
        mb["step allocations at peak inside backward"] = tracemalloc.get_traced_memory()[1] / 1e6

    def step(*args, **kwargs):
        mb["step allocations live at AdamW.step"] = tracemalloc.get_traced_memory()[0] / 1e6
        originals[1](*args, **kwargs)

    Tensor.backward, AdamW.step = backward, step
    tracemalloc.start()
    try:
        op()
    finally:
        tracemalloc.stop()
        Tensor.backward, AdamW.step = originals
    for what, value in mb.items():
        print(f"{what}: {value:.1f} MB")


def memory_child(name: str) -> None:
    """One workload's set-up and operations in this process, with their readings."""
    if name == "bench-eval":
        from glimpse.data import EpisodeSet, episode_seeds
        cfg, vocab, _, model, _ = build(glimpse, "desk-eval", pool=0, **spec.BENCH_GEOMETRY)
        episodes = EpisodeSet(episode_seeds(SEED, cfg.batch_size), cfg.n_frames, cfg.n_grid, vocab)
        built = Built(cfg, vocab, episodes, model, None)
    else:
        built = build(glimpse, name)
    print(f"{name}: peak RSS after set-up {peak_rss_mb():.1f} MB")
    op, readings = next_op(glimpse, built), []
    label = f"{name} {'step' if built.optimizer else 'call'}"
    for i in range(MEMORY_OPS[name]):
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, perf_counter()
        op()
        ms = (perf_counter() - start) * 1e3
        readings.append((ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
        print(f"{label} {i}: {ms:.1f} ms, {readings[-1][1]} faults")
    if len(readings) > 1:
        print(f"{label} after the first: fastest {min(ms for ms, _ in readings[1:]):.1f} ms, "
              f"most faults {max(f for _, f in readings[1:])}")
    print(f"{name}: peak RSS after the operations {peak_rss_mb():.1f} MB")
    if built.optimizer:
        print(f"{name} step {MEMORY_OPS[name]} under tracemalloc:")
        traced(op)


def memory_mode() -> int:
    """Time, faults and memory of single workloads: desk-eval, bench-train (and one step under
    tracemalloc) and bench-eval (8 episodes), each in its own child, because ``ru_maxrss`` is
    per process and one workload's heap changes the next one's faults.  Tracing starts with
    the traced step, so its readings count only what the step allocates: not the parameters,
    gradients and moments made at set-up (about 96 MB at bench geometry), and, at AdamW.step,
    none of the tape, which backward has freed by then."""
    for name in MEMORY_OPS:
        subprocess.run([sys.executable, HERE, "--child", "memory", name], check=True)
    return 0


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = p.add_subparsers(dest="mode", required=True)
    for name, run in (("time", time_mode), ("parity", parity_mode), ("memory", memory_mode)):
        mode = modes.add_parser(name, description=run.__doc__, help=run.__doc__.split(".")[0])
        mode.set_defaults(run=run)
        if name != "memory":
            mode.add_argument("rev")
    modes.choices["time"].add_argument(
        "--rounds", type=int, default=400,
        help="rounds of each desk kind, half in each build order; bench kinds run a tenth as many")
    return p


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        {"time": time_child, "memory": memory_child}[sys.argv[2]](*sys.argv[3:])
    else:
        args = parser().parse_args()
        sys.exit(args.run(**{k: v for k, v in vars(args).items() if k not in ("mode", "run")}))
