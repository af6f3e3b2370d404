"""Evaluation: QA accuracy, matching accuracy, multiple choice, sampler
hit-rate, and blinded-input probes."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import NUM_VALUES, Episode, blind_input
from .model import VideoQAModel
from .objectives import MATCHED, UNMATCHED, answer_multichoice, answer_open_ended
from .train import derive_seed, episode_noise_seed

CHANCE = 1.0 / NUM_VALUES


@T.no_grad()
def evaluate_model(model: VideoQAModel, episodes: list[Episode], eval_seed: int,
                   blind: str | None = None, mcq_choices: int = 5,
                   with_mcq: bool = True, with_vtm: bool = True) -> dict:
    """Deterministic metric pass over a list of episodes.

    QA answers come from the open-ended head on the video CLS; matching
    accuracy scores each episode against its own annotation and one foreign
    one; multiple choice asks the matching head to pick the true annotation
    out of ``mcq_choices``; hit-rate counts episodes whose ground-truth event
    frame appears among the selected frames.  Nothing is taped, and within an
    episode (one bundle, one noise seed) each distinct text is represented once.
    """
    n = len(episodes)
    qa_hits = 0
    sampler_hits = 0
    vtm_hits = vtm_total = 0
    mcq_hits = mcq_total = 0

    for i, ep in enumerate(episodes):
        shown = blind_input(ep, blind) if blind else ep
        seed = episode_noise_seed(eval_seed, ep.seed, 0)
        passes: dict[tuple[int, ...], dict] = {}

        def represent(tokens) -> dict:
            key = tuple(tokens)
            if key not in passes:
                passes[key] = model.represent(shown.bundle, tokens, seed)
            return passes[key]

        rep = represent(ep.question_tokens)
        qa_hits += int(answer_open_ended(rep["v_star"], model.answer_head) == ep.answer)
        sampler_hits += int(ep.event_frame in rep["indices"])

        if with_vtm:
            logits = model.vtm_head(T.reshape(rep["v_star"], (1, model.cfg.dim)))
            vtm_hits += int(np.argmax(logits.data[0]) == MATCHED)
            foreign = episodes[(i + 1) % n].question_tokens
            rep_bad = represent(foreign)
            logits_bad = model.vtm_head(T.reshape(rep_bad["v_star"], (1, model.cfg.dim)))
            vtm_hits += int(np.argmax(logits_bad.data[0]) == UNMATCHED)
            vtm_total += 2

        if with_mcq and n > mcq_choices:
            rng = np.random.default_rng(derive_seed(eval_seed, 29, i))
            others = rng.choice([j for j in range(n) if j != i], size=mcq_choices - 1,
                                replace=False)
            slot = int(rng.integers(mcq_choices))
            candidates = [episodes[j].question_tokens for j in others]
            candidates.insert(slot, ep.question_tokens)
            v_rows = []
            for tokens in candidates:
                cand = represent(tokens)
                v_rows.append(T.reshape(cand["v_star"], (1, model.cfg.dim)))
            choice = answer_multichoice(T.concat(v_rows, axis=0), model.vtm_head)
            mcq_hits += int(choice == slot)
            mcq_total += 1

    metrics = {
        "count": n,
        "chance": CHANCE,
        "qa_accuracy": qa_hits / n,
        "hit_rate": sampler_hits / n,
    }
    if vtm_total:
        metrics["vtm_accuracy"] = vtm_hits / vtm_total
    if mcq_total:
        metrics["mcq_accuracy"] = mcq_hits / mcq_total
    if blind:
        metrics["blind"] = blind
    return metrics


def evaluate_with_blind_probes(model: VideoQAModel, episodes: list[Episode],
                               eval_seed: int, modes: tuple[str, ...] = ("static", "gaussian"),
                               **kwargs) -> dict:
    """Clean metrics plus per-blind-mode QA accuracy and its delta."""
    report = {"clean": evaluate_model(model, episodes, eval_seed, **kwargs)}
    clean_qa = report["clean"]["qa_accuracy"]
    for mode in modes:
        blinded = evaluate_model(model, episodes, eval_seed, blind=mode,
                                 with_mcq=False, with_vtm=False)
        report[mode] = {
            "qa_accuracy": blinded["qa_accuracy"],
            "delta": blinded["qa_accuracy"] - clean_qa,
        }
    return report
