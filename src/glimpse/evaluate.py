"""Evaluation: QA accuracy, matching accuracy, multiple choice, sampler
hit-rate, and blinded-input probes.

A pass first lays out its rows: each row is one (episode, text) pair, run on
that episode's video (blinded in a blind pass) with that episode's noise
seed.  The rows then go through ``VideoQAModel.represent`` in chunks of at
most ``rows_per_call`` rows, and every metric is read off the concatenated
outputs by array indexing.  Rows never interact, so the chunking cannot
change a metric; it only bounds the size of one call.

The bound is a budget of refiner tokens per call: a row refines its CLS
token and the patches of its K selected frames, ``1 + K * n_grid**2``
tokens.  A desk-scale call costs about 2 ms fixed against 0.4 ms per row,
so its 17-token rows go 240 to a call.  At bench geometry (785 tokens a
row) the budget allows 5 rows, about the size of one episode's rows; calls
of 8 or 32 rows there measured 10-20% slower per row, with 1.2x and 3x the
peak memory of a clean pass.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import tensor as T
from .config import RunConfig, derive_seed
from .data import NUM_VALUES, Episode, FrameBundle, blind_input
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


def _represent_rows(model: VideoQAModel, episodes: Sequence[Episode], owners: list[int],
                    texts: list[tuple], seeds: list[int], blind: str | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``v_star`` (R, D) and frame ``indices`` (R, K) of R (episode, text) rows.

    Row r shows the video of ``episodes[owners[r]]``, blinded per ``blind``,
    with noise seed ``seeds[owners[r]]``.  Owners come in episode order, so
    a chunk reads only the episodes it shows, and blind inputs are built one
    chunk at a time: at most one chunk's videos are held at once.
    """
    per_call = rows_per_call(model.cfg)
    v_star, indices = [], []
    for start in range(0, len(texts), per_call):
        chunk = owners[start:start + per_call]
        shown = {i: blind_input(episodes[i], blind) if blind else episodes[i].bundle
                 for i in dict.fromkeys(chunk)}
        rep = model.represent(FrameBundle.stack([shown[i] for i in chunk]),
                              texts[start:start + per_call], [seeds[i] for i in chunk])
        v_star.append(rep["v_star"].data)
        indices.append(rep["indices"])
    return np.concatenate(v_star), np.concatenate(indices)


@T.no_grad()
def evaluate_model(model: VideoQAModel, episodes: Sequence[Episode], eval_seed: int,
                   blind: str | None = None, with_mcq: bool = True, with_vtm: bool = True) -> dict:
    """Deterministic metric pass over a sequence of episodes.

    QA answers come from the open-ended head on the video CLS; matching
    accuracy scores each episode against its own annotation and the next
    one that differs from it, so it is reported only when the episodes ask
    more than one question; multiple choice asks the matching head to pick
    the true annotation out of ``MCQ_CHOICES``; hit-rate counts episodes
    whose ground-truth event frame appears among the selected frames.
    Nothing is taped.

    Each episode contributes its distinct texts as rows, in episode order:
    its question, the foreign question (with ``with_vtm``) and its
    MCQ candidates, each text once.  A blind probe without VTM and MCQ
    contributes one question row per episode.  The rows are represented in
    chunks under the refiner-token budget (``rows_per_call``).  The pass
    reads each episode twice, in order: once for its question and ground
    truth, once for its video.
    """
    n = len(episodes)
    if n == 0:
        raise ValueError("no episodes to evaluate")
    questions, seeds, answers, events = zip(*[
        (tuple(ep.question_tokens), episode_noise_seed(eval_seed, ep.seed, 0), ep.answer,
         ep.event_frame) for ep in episodes])
    with_vtm = with_vtm and len(set(questions)) > 1  # else no question differs from its own
    owners, texts = [], []
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
        owners += [i] * len(rows)
        texts += list(rows)
        own.append(rows[question])
        if with_vtm:
            foreign.append(rows[wanted[1]])
        if choices:
            candidates.append([rows[text] for text in choices])

    v_star, indices = _represent_rows(model, episodes, owners, texts, seeds, blind)
    answers, events = np.array(answers), np.array(events)
    picks = answer_open_ended(Tensor(v_star[own]), model.answer_head)

    metrics = {
        "count": n,
        "chance": CHANCE,
        "qa_accuracy": int((picks == answers).sum()) / n,
        "hit_rate": int((indices[own] == events[:, None]).any(axis=1).sum()) / n,
    }
    if with_vtm:
        verdict = np.argmax(model.vtm_head(Tensor(v_star)).data, axis=-1)
        vtm_hits = (verdict[own] == MATCHED).sum() + (verdict[foreign] == UNMATCHED).sum()
        metrics["vtm_accuracy"] = int(vtm_hits) / (2 * n)
    if candidates:
        choice = answer_multichoice(Tensor(v_star[candidates]), model.vtm_head)
        metrics["mcq_accuracy"] = int((choice == np.array(slots)).sum()) / n
    if blind:
        metrics["blind"] = blind
    return metrics


def evaluate_with_blind_probes(model: VideoQAModel, episodes: Sequence[Episode], eval_seed: int,
                               modes: tuple[str, ...] = ("static", "gaussian")) -> dict:
    """Clean metrics plus per-blind-mode QA accuracy and its delta."""
    report = {"clean": evaluate_model(model, episodes, eval_seed)}
    clean_qa = report["clean"]["qa_accuracy"]
    for mode in modes:
        blinded = evaluate_model(model, episodes, eval_seed, blind=mode,
                                 with_mcq=False, with_vtm=False)
        report[mode] = {
            "qa_accuracy": blinded["qa_accuracy"],
            "delta": blinded["qa_accuracy"] - clean_qa,
        }
    return report
