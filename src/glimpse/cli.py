"""Command-line harness.

Subcommands: gradcheck, gen-data, train, eval, sample-frames, ablate,
dump-tensor.  Configuration comes from an optional JSON file; every field can
be overridden with a ``--<field> value`` flag.  Exit codes: 0 success, 1 usage
error, 2 numeric failure (gradient-check failure or non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import GRADCHECK_OVERRIDES, RunConfig
from .data import Vocab, load_dataset, save_dataset
from .evaluate import evaluate_model, evaluate_with_blind_probes
from .gradcheck_suite import run_gradcheck
from .model import load_checkpoint
from .sampler import SamplerParams, selection_rows
from .tensor import Tensor, load_tensor, no_grad, save_tensor
from .train import NumericFailure, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with RunConfig fields")
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.type == "bool":
            parser.add_argument(flag, type=_parse_bool, default=None, metavar="BOOL")
        else:
            parser.add_argument(flag, type=field.type and eval(field.type), default=None)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _config_overrides(args) -> dict:
    """The RunConfig fields set by a ``--<field>`` flag."""
    return {field.name: getattr(args, field.name) for field in dataclasses.fields(RunConfig)
            if getattr(args, field.name, None) is not None}


def _config_from_args(args, defaults: dict | None = None) -> RunConfig:
    if args.config is not None:
        cfg = RunConfig.from_file(args.config)
    elif defaults:
        cfg = RunConfig(**defaults)
    else:
        cfg = RunConfig()
    overrides = _config_overrides(args)
    return cfg.replace(**overrides) if overrides else cfg.validate()


def _open_out(path):
    return open(path, "w") if path else sys.stdout


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

    p = sub.add_parser("gen-data", help="generate a synthetic episode dataset")
    _add_config_flags(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--index-only", action="store_true",
                   help="skip per-episode tensor dumps (episodes regenerate from seeds)")

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
    p.add_argument("--blind", choices=["static", "gaussian"], action="append",
                   default=None, help="also run this blinded probe (repeatable)")
    p.add_argument("--eval-seed", type=int, default=2024)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("sample-frames",
                       help="run the selection stack on dumped embeddings")
    _add_config_flags(p)
    p.add_argument("--frame-cls", type=Path, required=True,
                   help="tensor dump of per-frame CLS embeddings (N, D)")
    p.add_argument("--text", type=Path, required=True,
                   help="tensor dump of the text condition (D,)")
    p.add_argument("--checkpoint", type=Path, default=None,
                   help="take the sampler and its config from this checkpoint "
                        "(no config flags with it)")
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("ablate", help="train/evaluate a variant grid, emit CSV")
    _add_config_flags(p)
    p.add_argument("--grid", choices=["modules", "frames", "losses", "n-sweep"],
                   default="modules")
    p.add_argument("--train-episodes", type=int, default=3000)
    p.add_argument("--eval-episodes", type=int, default=300)
    p.add_argument("--data-seed", type=int, default=1)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("dump-tensor", help="inspect a binary tensor dump")
    p.add_argument("path", type=Path)
    p.add_argument("--json", action="store_true", help="print values as JSON")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except NumericFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "gradcheck":
        return _cmd_gradcheck(args)
    if args.command == "gen-data":
        return _cmd_gen_data(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "sample-frames":
        return _cmd_sample_frames(args)
    if args.command == "ablate":
        return _cmd_ablate(args)
    if args.command == "dump-tensor":
        return _cmd_dump_tensor(args)
    raise ValueError(f"unknown command {args.command}")


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
                 vocab_seed=cfg.vocab_seed, materialize=not args.index_only)
    print(f"wrote {args.episodes} episodes to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    meta, _, episodes = load_dataset(args.data)
    for key, attr in (("n_frames", "n_frames"), ("n_grid", "n_grid"), ("dim", "dim")):
        if meta[key] != getattr(cfg, attr):
            raise ValueError(f"dataset {key}={meta[key]} does not match config "
                             f"{attr}={getattr(cfg, attr)}")
    resume = None
    if args.resume:
        ckpt_model, step, opt_state = load_checkpoint(args.resume)
        resume = {"model_state": ckpt_model.state_dict(),
                  "optimizer_state": opt_state, "step": step}
    stream = _open_out(args.metrics)
    try:
        train(cfg, episodes, out_dir=args.out, metrics_stream=stream,
              resume=resume, checkpoint_every=args.checkpoint_every)
    finally:
        if stream is not sys.stdout:
            stream.close()
    print(f"checkpoint written to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    meta, _, episodes = load_dataset(args.data)
    if meta["dim"] != model.cfg.dim or meta["n_frames"] != model.cfg.n_frames:
        raise ValueError("dataset geometry does not match checkpoint config")
    if args.blind:
        report = evaluate_with_blind_probes(model, episodes, args.eval_seed,
                                            modes=tuple(args.blind))
    else:
        report = {"clean": evaluate_model(model, episodes, args.eval_seed)}
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return EXIT_OK


def _cmd_sample_frames(args) -> int:
    frame_cls = load_tensor(args.frame_cls)
    text = load_tensor(args.text)
    if frame_cls.ndim != 2:
        raise ValueError("frame CLS dump must be 2-D (N, D)")
    n, dim = frame_cls.shape
    if args.checkpoint:
        flags = ["--" + name.replace("_", "-") for name in _config_overrides(args)]
        if args.config is not None:
            flags.insert(0, "--config")
        if flags:
            raise ValueError(f"--checkpoint fixes the sampler's config; drop {', '.join(flags)}")
        model, _, _ = load_checkpoint(args.checkpoint)
        if model.sampler is None:
            raise ValueError("checkpoint has no sampler module")
        sampler = model.sampler
    else:
        cfg = _config_from_args(args).replace(dim=dim, n_frames=n)
        sampler = SamplerParams(cfg.dim, cfg.heads, n, cfg.k_select, cfg.depth,
                                np.random.default_rng(cfg.seed), fusion=cfg.fusion,
                                tau_g=cfg.tau_g)
    with no_grad():
        y_soft = selection_rows(frame_cls, Tensor(text.reshape(1, -1)), sampler,
                                args.sample_seed)
    indices = np.argmax(y_soft.data, axis=-1)
    stream = _open_out(args.out)
    try:
        for k in range(y_soft.shape[0]):
            line = {"slot": k, "index": int(indices[k]),
                    "soft": [float(x) for x in y_soft.data[k]]}
            stream.write(json.dumps(line) + "\n")
    finally:
        if stream is not sys.stdout:
            stream.close()
    return EXIT_OK


def _cmd_ablate(args) -> int:
    from .ablate import run_grid
    cfg = _config_from_args(args)
    rows = run_grid(cfg, args.grid, train_episodes=args.train_episodes,
                    eval_episodes=args.eval_episodes, data_seed=args.data_seed)
    stream = _open_out(args.out)
    try:
        header = list(rows[0])
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(str(row[k]) for k in header) + "\n")
    finally:
        if stream is not sys.stdout:
            stream.close()
    return EXIT_OK


def _cmd_dump_tensor(args) -> int:
    arr = load_tensor(args.path)
    info = {"shape": list(arr.shape), "dtype": "float64",
            "min": float(arr.min()) if arr.size else None,
            "max": float(arr.max()) if arr.size else None,
            "mean": float(arr.mean()) if arr.size else None}
    if args.json:
        info["data"] = arr.tolist()
    print(json.dumps(info, indent=1))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
