"""Command-line harness.

Subcommands: gradcheck, gen-data, train, eval, ablate.  Configuration comes
from an optional JSON file of a whole, valid config, with a ``--<field> value``
flag for each field the command reads: all for train and ablate, the oracle's
ten for gradcheck and the dataset's four for gen-data (``save_dataset`` checks
them).  ``gradcheck`` runs the oracle once, at its fixed step and bound.  An
``--out`` that cannot be written is refused before any work.  Exit codes: 0
success, 1 usage error (also a bad file or an allocation that fails with
``MemoryError``), 2 numeric failure (gradient-check failure, non-finite loss,
or a float overflow or invalid operation, which ends the command where it
happens).  Each failure is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import ablate
from .config import GRADCHECK_OVERRIDES, RunConfig
from .data import BLIND_MODES, DATASET_KEYS, check_dataset, load_dataset, save_dataset
from .evaluate import evaluate_with_blind_probes
from .gradcheck import EPSILON
from .gradcheck_suite import run_gradcheck
from .model import load_checkpoint
from .train import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(parser: argparse.ArgumentParser, fields=None) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with RunConfig fields")
    for field in dataclasses.fields(RunConfig):
        if fields is None or field.name in fields:
            parser.add_argument("--" + field.name.replace("_", "-"), type=eval(field.type))


def _settings(args, defaults: dict | None = None) -> dict:
    """The fields of the ``--config`` file's config, or of ``defaults``, under the flags."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig(**(defaults or {}))
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return dataclasses.asdict(cfg) | {k: v for k, v in flags.items() if v is not None}


def _out(directory: bool):
    """The ``type`` of an ``--out`` flag: refuses at parsing, creating nothing, a
    path whose parent is not a directory, or one that exists as the wrong kind."""
    def path(text: str) -> Path:
        out = Path(text)
        if not out.parent.is_dir():
            raise argparse.ArgumentTypeError(f"{out.parent} is not a directory")
        if out.exists() and out.is_dir() != directory:
            raise argparse.ArgumentTypeError(f"{text} is {'not ' if directory else ''}a directory")
        return out
    return path


def _open_out(path):
    """``path`` opened for writing, or stdout (left open on exit) when not given."""
    return open(path, "w") if path else nullcontext(sys.stdout)


def main(argv=None) -> int:
    parser = _Parser(prog="glimpse",
                     description="question-guided sparse video QA harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference oracle over every block "
                                         "(fixed step and pass bound)")
    _add_config_flags(p, ("n_frames", "k_select", "depth", "dim", "heads", "n_grid", "fusion",
                          "tau_g", "tau", "seed"))   # the fields run_gradcheck reads
    p.add_argument("--out", type=_out(directory=False), default=None,
                   help="write the report as JSON")

    p = sub.add_parser("gen-data",
                       help="write a synthetic dataset's index (episodes regenerate from seeds)")
    _add_config_flags(p, DATASET_KEYS)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--data-seed", type=int, default=1)

    p = sub.add_parser("train", help="train on a generated dataset")
    _add_config_flags(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=_out(directory=True), required=True, help="checkpoint directory")
    p.add_argument("--resume", type=Path, default=None)
    p.add_argument("--metrics", type=Path, default=None,
                   help="JSON-lines metrics file (default: stdout)")
    p.add_argument("--checkpoint-every", type=int, default=0)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--blind", choices=BLIND_MODES, action="append",
                   default=None, help="also run this blinded probe (repeatable)")
    p.add_argument("--eval-seed", type=int, default=2024)
    p.add_argument("--out", type=_out(directory=False), default=None)

    p = sub.add_parser("ablate", help="train/evaluate a variant grid, emit CSV")
    _add_config_flags(p)
    p.add_argument("--grid", choices=ablate.GRIDS, default="modules")
    p.add_argument("--train-episodes", type=int, default=3000)
    p.add_argument("--eval-episodes", type=int, default=300)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--out", type=_out(directory=False), default=None)

    args = parser.parse_args(argv)
    # The bounded integer flags outside RunConfig, checked before any work.
    for name, low in (("data_seed", 0), ("eval_seed", 0), ("checkpoint_every", 0),
                      ("episodes", 1), ("train_episodes", 1), ("eval_episodes", 1)):
        if getattr(args, name, low) < low:
            parser.error(f"--{name.replace('_', '-')} must be >= {low}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return COMMANDS[args.command](args)
    except FloatingPointError as err:   # train's NumericFailure too
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError) as err:   # a bare MemoryError has no message
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_gradcheck(args) -> int:
    cfg = RunConfig(**_settings(args, GRADCHECK_OVERRIDES))
    if cfg.dim > 32:
        raise ValueError("gradcheck requires a desk-scale config (dim <= 32)")
    results = run_gradcheck(cfg)
    all_pass = all(report.passed for report in results.values())
    payload = []
    for target, report in results.items():
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}  eps={EPSILON:.0e}  {target:28s} max_rel={report.worst:.3e}")
        payload.append({"target": target, "epsilon": EPSILON,
                        "max_rel_error": report.worst, "passed": report.passed})
    if args.out:
        args.out.write_text(json.dumps(payload, indent=1))
    print("gradcheck:", "PASS" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_NUMERIC


def _cmd_gen_data(args) -> int:
    settings = _settings(args)
    save_dataset(args.out, base_seed=args.data_seed, count=args.episodes,
                 **{key: settings[key] for key in DATASET_KEYS})
    print(f"wrote {args.episodes} episodes to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = RunConfig(**_settings(args))
    meta, _, episodes = load_dataset(args.data)
    check_dataset(meta, cfg, "config")
    with _open_out(args.metrics) as stream:
        train(cfg, episodes, out_dir=args.out, metrics_stream=stream,
              resume=args.resume, checkpoint_every=args.checkpoint_every)
    print(f"checkpoint written to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    meta, _, episodes = load_dataset(args.data)
    check_dataset(meta, model.cfg, "checkpoint config")
    report = evaluate_with_blind_probes(model, episodes, args.eval_seed, args.blind or ())
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = RunConfig(**_settings(args))
    rows = ablate.run_grid(cfg, args.grid, train_episodes=args.train_episodes,
                           eval_episodes=args.eval_episodes, data_seed=args.data_seed)
    with _open_out(args.out) as stream:
        header = list(rows[0])
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(str(row[k]) for k in header) + "\n")
    return EXIT_OK


COMMANDS = {"gradcheck": _cmd_gradcheck, "gen-data": _cmd_gen_data, "train": _cmd_train,
            "eval": _cmd_eval, "ablate": _cmd_ablate}


if __name__ == "__main__":
    raise SystemExit(main())
