"""Print each statement of ``src/glimpse`` that no command of the program runs.

    python tests/traffic_lines.py

Under ``sys.settrace``, limited to the files of ``src/glimpse``, one process
runs at desk size, in a temporary directory:

- ``glimpse gen-data``;
- ``glimpse train --checkpoint-every 1`` for each sampler x refiner x fusion;
- ``glimpse eval`` with both ``--blind`` modes;
- ``glimpse train --resume`` from a checkpoint of the same config;
- ``glimpse ablate`` over every grid;
- ``glimpse gradcheck`` under both fusions;
- the calls the benchmark makes (``perfbench/workloads.py``): ``train_step``,
  ``save_checkpoint``, ``load_checkpoint`` and ``evaluate_with_blind_probes``,
  on its desk-train and desk-eval workloads.

It then prints ``path:line: source`` for every statement that has code and ran
under none of them, and a count.  A statement counts as run when any line of
it (of its header, for a compound statement) raised a line event.  The name
does not start with ``test_``, so pytest does not collect it.  It takes a few
minutes on two cores.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "glimpse"

DESK = ["--n-frames", "30", "--k-select", "4", "--depth", "2", "--dim", "32",
        "--heads", "2", "--n-grid", "2"]
SHORT = ["--steps", "2", "--batch-size", "4"]


class LineTrace:
    """The (file, line) pairs that raised a line event in the package's frames."""

    def __init__(self):
        self.seen: set[tuple[str, int]] = set()
        self.prefix = str(PACKAGE) + os.sep

    def calls(self, frame, event, arg):
        return self.lines if frame.f_code.co_filename.startswith(self.prefix) else None

    def lines(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self.lines


def code_lines(code) -> set[int]:
    """Lines that carry bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree):
    """(first line, lines) of each statement; a compound one keeps its header only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            yield node.lineno, range(first, last + 1)


def glimpse(*argv) -> None:
    from glimpse.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"glimpse {' '.join(map(str, argv))} exited {code}")


def run_commands(tmp: Path) -> None:
    data = tmp / "data"
    glimpse("gen-data", *DESK, "--out", data, "--episodes", 12)
    for sampler in ("sparse", "soft", "uniform"):
        for refiner in ("gated", "plain"):
            for fusion in ("la_gate", "cross_attention"):
                out = tmp / f"{sampler}-{refiner}-{fusion}"
                glimpse("train", *DESK, *SHORT, "--sampler", sampler, "--refiner", refiner,
                        "--fusion", fusion, "--data", data, "--out", out,
                        "--checkpoint-every", 1, "--metrics", tmp / "metrics.jsonl")
    full = tmp / "sparse-gated-la_gate"
    glimpse("eval", "--checkpoint", full, "--data", data, "--blind", "static",
            "--blind", "gaussian", "--out", tmp / "eval.json")
    glimpse("train", *DESK, *SHORT, "--data", data, "--out", tmp / "resumed",
            "--resume", full, "--metrics", tmp / "metrics.jsonl")
    for grid in ("modules", "frames", "losses", "n-sweep"):
        glimpse("ablate", *DESK, "--steps", 1, "--batch-size", 2, "--grid", grid,
                "--train-episodes", 4, "--eval-episodes", 4, "--out", tmp / f"{grid}.csv")
    for fusion in ("la_gate", "cross_attention"):
        glimpse("gradcheck", "--fusion", fusion)

    import spec
    import workloads
    ledger = workloads.Ledger()
    for name in ("desk-train", "desk-eval"):
        ckpt = tmp / f"perfbench-{name}"
        setup, _ = workloads.repetition(spec.BY_NAME[name], 1, 2, ckpt, ledger)
        workloads.save(ckpt, setup.model, 2, setup.optimizer, ledger)
        workloads.round_trip(ckpt, setup.model, setup.optimizer, 2, ledger)
    if ledger.failed or ledger.problems:
        raise SystemExit(f"benchmark calls failed: {ledger.problems}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    trace = LineTrace()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace.calls)
        try:
            run_commands(Path(tmp))
        finally:
            sys.settrace(None)
    unrun = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        has_code = code_lines(compile(source, str(path), "exec"))
        ran = {line for name, line in trace.seen if name == str(path)}
        for first, span in sorted(statements(ast.parse(source)), key=lambda s: s[0]):
            if has_code.isdisjoint(span):
                continue
            total += 1
            if ran.isdisjoint(span):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{unrun} of {total} statements in src/glimpse ran under none of the commands")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
