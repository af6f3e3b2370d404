"""Command-line harness.

Subcommands: gradcheck, gen-data, train, eval, ablate.  Configuration comes
from an optional JSON file; every field can be overridden with a
``--<field> value`` flag.  Exit codes: 0 success, 1 usage error, 2 numeric
failure (gradient-check failure, non-finite loss, or a float overflow or
invalid operation, which ends the command where it happens).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .config import GRADCHECK_OVERRIDES, RunConfig, removed_note
from .data import BLIND_MODES, check_dataset, load_dataset, save_dataset
from .evaluate import evaluate_with_blind_probes
from .gradcheck_suite import run_gradcheck
from .model import load_checkpoint
from .train import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        flags = {w.split("=")[0][2:].replace("-", "_") for w in message.split() if w[:2] == "--"}
        self.print_usage(sys.stderr)
        print(f"error: {message}{removed_note(flags)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with RunConfig fields")
    for field in dataclasses.fields(RunConfig):
        parser.add_argument("--" + field.name.replace("_", "-"), type=eval(field.type))


def _config_from_args(args, defaults: dict | None = None) -> RunConfig:
    if args.config is not None:
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig(**(defaults or {}))
    overrides = {field.name: getattr(args, field.name) for field in dataclasses.fields(RunConfig)
                 if getattr(args, field.name) is not None}
    return cfg.replace(**overrides) if overrides else cfg.validate()


def _open_out(path):
    """``path`` opened for writing, or stdout (left open on exit) when not given."""
    return open(path, "w") if path else nullcontext(sys.stdout)


def main(argv=None) -> int:
    parser = _Parser(prog="glimpse",
                     description="question-guided sparse video QA harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference oracle over every block")
    _add_config_flags(p)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--sweep", action="store_true",
                   help="also report epsilon sweep {1e-4, 1e-5, 1e-6}")
    p.add_argument("--out", type=Path, default=None, help="write the report as JSON")

    p = sub.add_parser("gen-data",
                       help="write a synthetic dataset's index (episodes regenerate from seeds)")
    _add_config_flags(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--data-seed", type=int, default=1)

    p = sub.add_parser("train", help="train on a generated dataset")
    _add_config_flags(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint directory")
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
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("ablate", help="train/evaluate a variant grid, emit CSV")
    _add_config_flags(p)
    p.add_argument("--grid", choices=["modules", "frames", "losses", "n-sweep"],
                   default="modules")
    p.add_argument("--train-episodes", type=int, default=3000)
    p.add_argument("--eval-episodes", type=int, default=300)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--out", type=Path, default=None)

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
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_gradcheck(args) -> int:
    cfg = _config_from_args(args, defaults=GRADCHECK_OVERRIDES)
    if cfg.dim > 32:
        raise ValueError("gradcheck requires a desk-scale config (dim <= 32)")
    epsilons = [args.epsilon]
    if args.sweep:
        epsilons = [1e-4, 1e-5, 1e-6]
    all_pass = True
    payload = []
    for eps in epsilons:
        results = run_gradcheck(cfg, epsilon=eps, tolerance=args.tolerance)
        for target, report in results.items():
            status = "PASS" if report.passed else "FAIL"
            all_pass &= report.passed
            print(f"{status}  eps={eps:.0e}  {target:28s} max_rel={report.worst:.3e}")
            payload.append({"target": target, "epsilon": eps,
                            "max_rel_error": report.worst, "passed": report.passed})
    if args.out:
        args.out.write_text(json.dumps(payload, indent=1))
    print("gradcheck:", "PASS" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_NUMERIC


def _cmd_gen_data(args) -> int:
    cfg = _config_from_args(args)
    save_dataset(args.out, base_seed=args.data_seed, count=args.episodes,
                 n_frames=cfg.n_frames, n_grid=cfg.n_grid, dim=cfg.dim,
                 vocab_seed=cfg.vocab_seed)
    print(f"wrote {args.episodes} episodes to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
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
    from .ablate import run_grid
    cfg = _config_from_args(args)
    rows = run_grid(cfg, args.grid, train_episodes=args.train_episodes,
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
