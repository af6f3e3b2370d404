"""Evaluation: QA accuracy, matching accuracy, multiple choice, sampler
hit-rate, and blinded-input probes."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import NUM_VALUES, Episode, FrameBundle, blind_input
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
    frame appears among the selected frames.  Nothing is taped.  Each episode
    takes one batched ``represent`` call: its distinct texts (question,
    foreign text, MCQ candidates) are the rows, over one broadcast bundle and
    one noise seed.
    """
    n = len(episodes)
    qa_hits = 0
    sampler_hits = 0
    vtm_hits = vtm_total = 0
    mcq_hits = mcq_total = 0

    for i, ep in enumerate(episodes):
        shown = blind_input(ep, blind) if blind else ep
        texts = [tuple(ep.question_tokens)]
        if with_vtm:
            texts.append(tuple(episodes[(i + 1) % n].question_tokens))
        candidates = []
        if with_mcq and n > mcq_choices:
            rng = np.random.default_rng(derive_seed(eval_seed, 29, i))
            others = rng.choice([j for j in range(n) if j != i], size=mcq_choices - 1,
                                replace=False)
            slot = int(rng.integers(mcq_choices))
            candidates = [tuple(episodes[j].question_tokens) for j in others]
            candidates.insert(slot, texts[0])
        rows = {text: r for r, text in enumerate(dict.fromkeys(texts + candidates))}
        seed = episode_noise_seed(eval_seed, ep.seed, 0)
        rep = model.represent(FrameBundle.stack([shown.bundle], model.dtype), list(rows),
                              [seed] * len(rows))
        v_star = rep["v_star"]                                        # (rows, D)

        own = rows[texts[0]]
        qa_hits += int(answer_open_ended(v_star[own], model.answer_head) == ep.answer)
        sampler_hits += int(ep.event_frame in rep["indices"][own])

        if with_vtm:
            verdict = np.argmax(model.vtm_head(v_star).data, axis=-1)
            vtm_hits += int(verdict[own] == MATCHED)
            vtm_hits += int(verdict[rows[texts[1]]] == UNMATCHED)
            vtm_total += 2

        if candidates:
            picked = T.take(v_star, [rows[text] for text in candidates], axis=0)
            choice = answer_multichoice(picked, model.vtm_head)
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
