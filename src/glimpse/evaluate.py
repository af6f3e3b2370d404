"""Evaluation: QA accuracy, matching accuracy, multiple choice, sampler
hit-rate, and blinded-input probes.

A report is one layout and one pass: each episode's distinct clean texts on
its video, then, per blind mode, every episode's question on its blinded
video, each row with its episode's noise seed.  Chunks of at most
``rows_per_call`` rows go through ``VideoQAModel.represent``; each head then
reads the rows it would read in a pass of its own.  Rows never interact in
exact arithmetic and move with their call's rows by float32 rounding only,
so chunking changes no metric; it bounds the size of a call.

The bound is a budget of refiner tokens per call: a row refines its CLS
token and the patches of its K selected frames, ``1 + K * n_grid**2``
tokens.  The budget keeps a call's fixed cost a small share of its work: at
desk scale a call costs as much as about 15 rows (paired in-process calls of
60 rows split 1, 2 and 4 ways read 2.1-2.5 ms per extra call and 0.16 ms
per row on 2 cores), and its 17-token rows go 240 to a call.  At bench
geometry (785 tokens a row) the budget allows 5 rows, about one episode's
rows; calls of 8 or 32 rows measured 10-20% slower per row, with 1.2x and 3x
a clean pass's peak memory.  A chunk holds each video it shows once, read in
place by each of its rows.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import tensor as T
from .config import RunConfig, derive_seed
from .data import BLIND_MODES, NUM_VALUES, Episode, blind_input
from .model import VideoQAModel
from .objectives import MATCHED, UNMATCHED, answer_multichoice, answer_open_ended
from .tensor import Tensor
from .train import episode_noise_seed

CHANCE = 1.0 / NUM_VALUES
MCQ_CHOICES = 5  # candidate texts of one multiple-choice question
REFINER_TOKENS_PER_CALL = 4096


def rows_per_call(cfg: RunConfig) -> int:
    """Rows of one ``represent`` call under the refiner-token budget."""
    return max(1, REFINER_TOKENS_PER_CALL // (1 + cfg.k_select * cfg.n_grid ** 2))


def _represent_rows(model: VideoQAModel, episodes: Sequence[Episode], videos: list[tuple],
                    texts: list[tuple], seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``v_star`` (R, D) and frame ``indices`` (R, K) of R rows.

    Row r shows ``videos[r] = (i, mode)``: ``episodes[i]``'s video, blinded
    per ``mode`` unless it is None, with noise seed ``seeds[i]``.  A chunk
    reads each of its episodes once and builds each of its videos from it.
    """
    per_call = rows_per_call(model.cfg)
    v_star, indices = [], []
    for start in range(0, len(texts), per_call):
        chunk = videos[start:start + per_call]
        read = {i: episodes[i] for i in dict.fromkeys(i for i, _ in chunk)}
        shown = {(i, mode): blind_input(read[i], mode) if mode else read[i].bundle
                 for i, mode in dict.fromkeys(chunk)}
        rep = model.represent([shown[video] for video in chunk], texts[start:start + per_call],
                              [seeds[i] for i, _ in chunk])
        v_star.append(rep["v_star"].data)
        indices.append(rep["indices"])
    return np.concatenate(v_star), np.concatenate(indices)


@T.no_grad()
def _evaluate(model: VideoQAModel, episodes: Sequence[Episode], eval_seed: int,
              modes: Sequence[str], with_mcq: bool) -> dict:
    """The clean metrics and each blind mode's QA accuracy, from one layout."""
    n = len(episodes)
    if n == 0:
        raise ValueError("no episodes to evaluate")
    modes = tuple(dict.fromkeys(modes))
    if unknown := [mode for mode in modes if mode not in BLIND_MODES]:
        raise ValueError(f"unknown blind mode: {unknown[0]!r}")
    questions, seeds, answers, events = zip(*[
        (tuple(ep.question_tokens), episode_noise_seed(eval_seed, ep.seed, 0), ep.answer,
         ep.event_frame) for ep in episodes])
    with_vtm = len(set(questions)) > 1  # else no question differs from its own
    videos, texts = [], []
    own, foreign, candidates, slots = [], [], [], []
    for i, question in enumerate(questions):
        wanted = [question]
        if with_vtm:  # the next question that differs from the episode's own
            wanted.append(next(other for k in range(1, n)
                               if (other := questions[(i + k) % n]) != question))
        choices = []
        if with_mcq and n > MCQ_CHOICES:
            rng = np.random.default_rng(derive_seed(eval_seed, 29, i))
            others = rng.choice([j for j in range(n) if j != i], size=MCQ_CHOICES - 1,
                                replace=False)
            slot = int(rng.integers(MCQ_CHOICES))
            choices = [questions[j] for j in others]
            choices.insert(slot, question)
            slots.append(slot)
        rows = {text: len(texts) + r for r, text in enumerate(dict.fromkeys(wanted + choices))}
        videos += [(i, None)] * len(rows)
        texts += list(rows)
        own.append(rows[question])
        if with_vtm:
            foreign.append(rows[wanted[1]])
        if choices:
            candidates.append([rows[text] for text in choices])
    clean = len(texts)
    blind = {mode: list(range(clean + m * n, clean + (m + 1) * n)) for m, mode in enumerate(modes)}
    videos += [(i, mode) for mode in modes for i in range(n)]
    texts += questions * len(modes)

    v_star, indices = _represent_rows(model, episodes, videos, texts, seeds)
    answers, events = np.array(answers), np.array(events)
    qa = {kind: int((answer_open_ended(Tensor(v_star[asked]), model.answer_head)
                     == answers).sum()) / n for kind, asked in {"clean": own, **blind}.items()}
    metrics = {
        "count": n,
        "chance": CHANCE,
        "qa_accuracy": qa["clean"],
        "hit_rate": int((indices[own] == events[:, None]).any(axis=1).sum()) / n,
    }
    if with_vtm:
        verdict = np.argmax(model.vtm_head(Tensor(v_star[:clean])).data, axis=-1)
        vtm_hits = (verdict[own] == MATCHED).sum() + (verdict[foreign] == UNMATCHED).sum()
        metrics["vtm_accuracy"] = int(vtm_hits) / (2 * n)
    if candidates:
        choice = answer_multichoice(Tensor(v_star[candidates]), model.vtm_head)
        metrics["mcq_accuracy"] = int((choice == np.array(slots)).sum()) / n
    return {"clean": metrics, **{mode: {"qa_accuracy": qa[mode], "delta": qa[mode] - qa["clean"]}
                                 for mode in modes}}


def evaluate_model(model: VideoQAModel, episodes: Sequence[Episode], eval_seed: int) -> dict:
    """Deterministic clean metrics over a sequence of episodes.

    QA answers come from the open-ended head on the video CLS; matching
    accuracy scores each episode against its own annotation and the next
    one that differs from it, so it is reported only when the episodes ask
    more than one question; hit-rate counts episodes whose ground-truth
    event frame appears among the selected frames.  Nothing is taped.
    """
    return _evaluate(model, episodes, eval_seed, (), with_mcq=False)["clean"]


def evaluate_with_blind_probes(model: VideoQAModel, episodes: Sequence[Episode], eval_seed: int,
                               modes: Sequence[str]) -> dict:
    """``evaluate_model``'s metrics and multiple choice, plus each blind mode's
    QA accuracy and delta.

    Multiple choice, reported when there are more than ``MCQ_CHOICES``
    episodes, asks the matching head to pick the true annotation out of
    ``MCQ_CHOICES``.  All modes share the clean rows' pass, which reads an
    episode once for the layout and once per chunk that shows it.  An
    unknown mode raises ``ValueError`` before any ``represent`` call; a
    repeated mode runs once.
    """
    return _evaluate(model, episodes, eval_seed, modes, with_mcq=True)
