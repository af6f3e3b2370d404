"""Variant grids: train and evaluate configurations side by side.

All variants of a grid share the same seed and step budget, so rows are
comparable; episode pools are ``EpisodeSet``s over seeds, generated as they
are read, so no dataset directory is needed.
"""

from __future__ import annotations

import dataclasses

from .config import RunConfig, loss_variant, table_variant
from .data import EpisodeSet, Vocab, episode_seeds
from .evaluate import evaluate_model
from .model import check_memory
from .train import train

GRIDS = ("modules", "frames", "losses", "n-sweep")
MODULE_ROWS = ("a", "b", "c", "d", "e", "f")
FRAME_SWEEP_K = (4, 8, 16, 32)
N_SWEEP = (30, 90)


def _episode_pool(cfg: RunConfig, base_seed: int, count: int) -> EpisodeSet:
    return EpisodeSet(episode_seeds(base_seed, count), cfg.n_frames, cfg.n_grid,
                      Vocab(cfg.vocab_seed, cfg.dim))


def _run_variant(label: str, cfg: RunConfig, train_episodes: int,
                 eval_episodes: int, data_seed: int) -> dict:
    train_pool = _episode_pool(cfg, data_seed, train_episodes)
    eval_pool = _episode_pool(cfg, data_seed ^ 0x5EED, eval_episodes)
    model, _, records = train(cfg, train_pool)
    metrics = evaluate_model(model, eval_pool, eval_seed=cfg.seed + 77)
    return {
        "variant": label,
        "sampler": cfg.sampler,
        "refiner": cfg.refiner,
        "fusion": cfg.fusion,
        "n_frames": cfg.n_frames,
        "k_select": cfg.k_select,
        "steps": cfg.steps,
        "w_vtm": cfg.w_vtm,
        "w_cl": cfg.w_cl,
        "w_vgmlm": cfg.w_vgmlm,
        "qa_accuracy": round(metrics["qa_accuracy"], 4),
        "hit_rate": round(metrics["hit_rate"], 4),
        "vtm_accuracy": round(metrics.get("vtm_accuracy", float("nan")), 4),
        "final_loss": round(records[-1]["l_total"], 4) if records else float("nan"),
    }


def _variants(cfg: RunConfig, grid: str) -> list[tuple[str, RunConfig]]:
    """The (label, config) rows of ``grid`` over ``cfg``, in order."""
    if grid == "modules":
        return [(row, table_variant(cfg, row)) for row in MODULE_ROWS]
    if grid == "losses":
        return [(row, loss_variant(cfg, row)) for row in MODULE_ROWS]
    if grid == "frames":
        if cfg.n_frames < min(FRAME_SWEEP_K):
            raise ValueError(f"grid 'frames' sweeps K over {FRAME_SWEEP_K}, and none fits "
                             f"n_frames={cfg.n_frames}")
        return [(f"{sampler}-k{k}", dataclasses.replace(
                    cfg, sampler=sampler, k_select=k,
                    refiner=cfg.refiner if sampler == "sparse" else "plain"))
                for sampler in ("sparse", "uniform") for k in FRAME_SWEEP_K
                if k <= cfg.n_frames]
    return [(f"{sampler}-n{n}", dataclasses.replace(cfg, sampler=sampler, n_frames=n))
            for sampler in ("sparse", "uniform") for n in N_SWEEP]


def run_grid(cfg: RunConfig, grid: str, train_episodes: int, eval_episodes: int,
             data_seed: int) -> list[dict]:
    """Train and evaluate each row of ``grid``.  Every row's config is made and its
    size checked (``model.check_memory``) before the first row trains."""
    if min(train_episodes, eval_episodes) < 1:
        raise ValueError(f"episode counts must be >= 1, got {train_episodes} and {eval_episodes}")
    if grid not in GRIDS:
        raise ValueError(f"unknown grid {grid!r}")
    variants = _variants(cfg, grid)
    for _, variant in variants:
        check_memory(variant)
    return [_run_variant(label, variant, train_episodes, eval_episodes, data_seed)
            for label, variant in variants]
