"""Benchmark of glimpse, the question-guided sparse video-QA stack in src/.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each
    python3 perfbench/run.py --write-spec         # rewrite BENCHMARK.json from spec.py

A run builds its inputs from --seed, does the work --seconds fixes for the
workload, checks the program's outputs, prints every metric by name with its
unit, and ends with one JSON line: correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics. --trace 1 wraps the public
callables of every layer and reports per-layer metrics instead.

Each workload runs in its own process with as many BLAS threads as the
process has cores. Checkpoints go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.BY_NAME, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    return parser.parse_args(argv)


def limit_memory() -> None:
    """Cap the address space at 3/4 of physical memory.

    Running out then raises MemoryError here, which counts as a failed
    operation, instead of the kernel killing this or another process.
    """
    cap = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") * 3 // 4
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, if it says so."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(np), "nproc": NPROC, "seed": seed}


def command(workload: str, args, trace: int) -> list[str]:
    return [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]


def untraced_eps(args) -> float | None:
    """eps_per_s of an untraced run of the workload, in a process of its own."""
    done = subprocess.run(command(args.workload, args, 0), capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.splitlines()[-1])["metrics"]["eps_per_s"]["value"]


def run_one(args) -> int:
    reference = untraced_eps(args) if args.trace else None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    limit_memory()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import glimpse
    except ImportError as err:
        print(f"error: cannot import glimpse from {src}: {err}", file=sys.stderr)
        return 2
    if Path(glimpse.__file__).resolve().parent.parent != src:
        print(f"error: glimpse was imported from {glimpse.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import numpy as np
    import workloads

    w = spec.BY_NAME[args.workload]
    print(f"workload {w.name}: {w.why}")
    print("environment " + json.dumps(environment(np, args.seed)))
    ledger, metrics, notes = workloads.run(w, args.seed, args.seconds, bool(args.trace),
                                           ROOT / ".perfbench", reference)
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for note in notes:
        print(f"  {note}")
    correct = not ledger.problems
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in spec.BY_NAME:
        worst = max(worst, subprocess.run(command(name, args, args.trace),
                                          check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        print(f"wrote {spec.write_benchmark_json(ROOT)}")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
