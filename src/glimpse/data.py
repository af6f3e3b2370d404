"""Synthetic video-QA episodes and the frozen stand-in encoders.

Every episode hides exactly one event frame inside a coarse time window named
by the question.  The event frame's patches are shifted along three fixed
orthonormal attribute directions (one per attribute kind); the answer is the
value of the kind the question asks about.  The question names the *other*
two attribute values plus the window, so the text can be checked against the
video but never contains the answer token, and attributes are independent, so
a text-only model is pinned to chance.

Everything is embedding-space synthesis: there are no pixels, just a frozen
random-orthogonal projection playing the role of a pretrained image encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tensor import load_tensor, save_tensor

KINDS = ("color", "shape", "position")
WINDOWS = ("early", "middle", "late")
VALUE_WORDS = {
    "color": ("red", "green", "blue", "yellow", "purple", "orange", "pink", "brown"),
    "shape": ("cube", "ball", "cone", "ring", "star", "disk", "slab", "tube"),
    "position": ("left", "right", "top", "bottom", "front", "back", "center", "corner"),
}
NUM_VALUES = 8          # values per attribute kind == answer-space size
EVENT_MAGNITUDE = 3.0   # shift along each attribute direction, in background sigmas

PAD_WORD = "[pad]"
MASK_WORD = "[mask]"

_GAUSSIAN_BLIND_SALT = 0x67617573  # mixed into the episode seed for blind noise


@dataclass
class FrameBundle:
    """Frozen per-video embeddings: patches (N, n^2, D) and frame CLS (N, D),
    or a batch of them under a leading axis."""

    v_patch: np.ndarray
    v_cls: np.ndarray

    @classmethod
    def stack(cls, bundles: Sequence["FrameBundle"], dtype=None) -> "FrameBundle":
        """One bundle with a leading batch axis over ``bundles``, in ``dtype``.

        Bundles that all share one video's arrays give a leading axis of
        size 1 that broadcasts against any number of rows (a view when no
        cast is needed); distinct videos are copied into a (B, ...) stack,
        cast in the same copy.  ``dtype=None`` keeps the bundles' dtype.
        """
        first = bundles[0]
        if all(b.v_patch is first.v_patch and b.v_cls is first.v_cls for b in bundles):
            return cls(v_patch=np.asarray(first.v_patch[None], dtype=dtype),
                       v_cls=np.asarray(first.v_cls[None], dtype=dtype))
        return cls(v_patch=np.stack([b.v_patch for b in bundles], dtype=dtype),
                   v_cls=np.stack([b.v_cls for b in bundles], dtype=dtype))


@dataclass
class Episode:
    """One synthetic QA item with full ground truth."""

    seed: int
    frames: np.ndarray            # (N, P, D) encoded patch embeddings
    frame_cls: np.ndarray         # (N, D)
    question_tokens: list[int]
    question_cls: np.ndarray      # (D,) frozen bag-of-words embedding
    answer: int
    event_frame: int
    event_attr: tuple[int, int, int]
    question_kind: int
    window: int

    @property
    def bundle(self) -> FrameBundle:
        return FrameBundle(v_patch=self.frames, v_cls=self.frame_cls)


class Vocab:
    """Token table, frozen word embeddings, and the frozen visual world.

    The word-embedding matrix is seeded random and never trained, mirroring
    the frozen-encoder contract of the visual side.  The attribute directions
    are orthonormalized so their mutual cross-talk is exactly zero, and the
    frame projection is a random rotation, which preserves all inner products
    of the raw synthesis space.
    """

    def __init__(self, seed: int, dim: int):
        if dim < len(KINDS) * NUM_VALUES:
            raise ValueError(
                f"dim must be >= {len(KINDS) * NUM_VALUES} to fit orthonormal "
                f"attribute directions, got {dim}"
            )
        self.seed = seed
        self.dim = dim
        words = [PAD_WORD, MASK_WORD, "what", "at", "with", "?"]
        words += list(KINDS) + list(WINDOWS)
        for kind in KINDS:
            words += list(VALUE_WORDS[kind])
        self.words = words
        self.word_to_id = {w: i for i, w in enumerate(words)}
        self.pad_id = self.word_to_id[PAD_WORD]
        self.mask_id = self.word_to_id[MASK_WORD]
        self.special_ids = frozenset({self.pad_id, self.mask_id})

        rng = np.random.default_rng(seed)
        self.embeddings = rng.normal(0.0, 1.0, size=(len(words), dim))
        q, _ = np.linalg.qr(rng.normal(size=(dim, len(KINDS) * NUM_VALUES)))
        self.directions = q.T.reshape(len(KINDS), NUM_VALUES, dim)
        proj, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        self.frame_projection = proj

    def __len__(self) -> int:
        return len(self.words)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.word_to_id[w] for w in tokens]

    def bag_embedding(self, token_ids) -> np.ndarray:
        """Frozen order-free sentence embedding (mean of word vectors)."""
        return self.embeddings[np.asarray(token_ids, dtype=int)].mean(axis=0)


def window_bounds(window: int, n_frames: int) -> tuple[int, int]:
    """Half-open frame range of one coarse-time third."""
    edges = [0, n_frames // 3, (2 * n_frames) // 3, n_frames]
    return edges[window], edges[window + 1]


def question_tokens(vocab: Vocab, kind: int, window: int,
                    attrs: tuple[int, int, int]) -> list[int]:
    """Template: what <kind> at <window> with <other-attr> <other-attr> ?

    Naming the two non-queried attribute values makes a swapped annotation
    almost surely inconsistent with its video, while the queried value (the
    answer) never appears in the text.
    """
    others = [k for k in range(len(KINDS)) if k != kind]
    words = ["what", KINDS[kind], "at", WINDOWS[window], "with",
             VALUE_WORDS[KINDS[others[0]]][attrs[others[0]]],
             VALUE_WORDS[KINDS[others[1]]][attrs[others[1]]], "?"]
    return vocab.encode(words)


def stub_frame_encoder(raw_frames: np.ndarray, vocab: Vocab) -> FrameBundle:
    """Frozen encoder stand-in: a fixed rotation of the raw patch space.

    No gradient ever reaches the projection; callers receive plain arrays.
    Frame CLS is the patch mean pushed through the same projection.
    """
    if raw_frames.ndim != 3 or raw_frames.shape[-1] != vocab.dim:
        raise ValueError(f"raw frames must be (N, P, {vocab.dim})")
    proj = vocab.frame_projection
    return FrameBundle(
        v_patch=raw_frames @ proj,
        v_cls=raw_frames.mean(axis=1) @ proj,
    )


def gen_episode(seed: int, n_frames: int, n_grid: int, dim: int, vocab: Vocab) -> Episode:
    """Deterministically synthesize one episode from its seed."""
    if n_frames < 3:
        raise ValueError("need at least 3 frames for the coarse-time windows")
    if vocab.dim != dim:
        raise ValueError("vocab dimension mismatch")
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(len(KINDS)))
    window = int(rng.integers(len(WINDOWS)))
    attrs = tuple(int(v) for v in rng.integers(0, NUM_VALUES, size=len(KINDS)))
    lo, hi = window_bounds(window, n_frames)
    event_frame = int(rng.integers(lo, hi))

    p = n_grid * n_grid
    raw = rng.standard_normal((n_frames, p, dim))
    shift = EVENT_MAGNITUDE * sum(vocab.directions[k, attrs[k]] for k in range(len(KINDS)))
    raw[event_frame] += shift  # every patch of the event frame carries the signal

    bundle = stub_frame_encoder(raw, vocab)
    tokens = question_tokens(vocab, kind, window, attrs)
    return Episode(
        seed=seed,
        frames=bundle.v_patch,
        frame_cls=bundle.v_cls,
        question_tokens=tokens,
        question_cls=vocab.bag_embedding(tokens),
        answer=attrs[kind],
        event_frame=event_frame,
        event_attr=attrs,
        question_kind=kind,
        window=window,
    )


def blind_input(episode: Episode, mode: str) -> FrameBundle:
    """The episode's video with its visual stream replaced, for language-bias probes.

    ``static`` freezes frame 0 across the whole video; ``gaussian`` redraws
    every patch from the background distribution (seeded by the episode, so
    repeated calls agree).  The question and answer stay the episode's.
    """
    if mode == "static":
        frames = np.broadcast_to(episode.frames[0], episode.frames.shape).copy()
        frame_cls = np.broadcast_to(episode.frame_cls[0], episode.frame_cls.shape).copy()
    elif mode == "gaussian":
        rng = np.random.default_rng(episode.seed ^ _GAUSSIAN_BLIND_SALT)
        # Isotropic noise is invariant under the encoder rotation, so fresh
        # draws can skip the projection without changing the distribution.
        frames = rng.standard_normal(episode.frames.shape)
        frame_cls = frames.mean(axis=1)
    else:
        raise ValueError(f"unknown blind mode: {mode!r}")
    return FrameBundle(v_patch=frames, v_cls=frame_cls)


# -- on-disk datasets -----------------------------------------------------------

INDEX_NAME = "index.json"


def episode_seeds(base_seed: int, count: int) -> list[int]:
    """Per-episode generation seeds: base xor episode id."""
    return [base_seed ^ i for i in range(count)]


def save_dataset(directory, *, base_seed: int, count: int, n_frames: int,
                 n_grid: int, dim: int, vocab_seed: int,
                 materialize: bool = True) -> dict:
    """Write an episode index (and optionally per-episode tensor dumps).

    Episodes regenerate bit-exactly from their seeds, so the index alone fully
    determines the dataset; materialized dumps serve external consumers and
    golden-file checks.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vocab = Vocab(vocab_seed, dim)
    entries = []
    for episode_id, seed in enumerate(episode_seeds(base_seed, count)):
        ep = gen_episode(seed, n_frames, n_grid, dim, vocab)
        entries.append({
            "episode_id": episode_id,
            "seed": seed,
            "answer": ep.answer,
            "event_frame": ep.event_frame,
        })
        if materialize:
            stem = directory / f"ep{episode_id:06d}"
            save_tensor(f"{stem}.frames.tdmp", ep.frames)
            save_tensor(f"{stem}.cls.tdmp", ep.frame_cls)
            save_tensor(f"{stem}.question.tdmp",
                        np.asarray(ep.question_tokens, dtype=np.float64))
    index = {
        "meta": {
            "base_seed": base_seed,
            "count": count,
            "n_frames": n_frames,
            "n_grid": n_grid,
            "dim": dim,
            "vocab_seed": vocab_seed,
            "materialized": materialize,
        },
        "episodes": entries,
    }
    (directory / INDEX_NAME).write_text(json.dumps(index, indent=1, sort_keys=True))
    return index


def load_dataset(directory) -> tuple[dict, Vocab, list[Episode]]:
    """Rebuild all episodes of a dataset directory from its index.

    Generation is pure in the seed, so regeneration is bit-identical to the
    materialized dumps (asserted by the test suite); loading therefore never
    needs to touch the per-episode files.  An episode whose answer or event
    frame disagrees with its index entry raises ``ValueError``.
    """
    directory = Path(directory)
    index = json.loads((directory / INDEX_NAME).read_text())
    meta = index["meta"]
    vocab = Vocab(meta["vocab_seed"], meta["dim"])
    episodes = []
    for entry in index["episodes"]:
        ep = gen_episode(entry["seed"], meta["n_frames"], meta["n_grid"],
                         meta["dim"], vocab)
        if ep.answer != entry["answer"] or ep.event_frame != entry["event_frame"]:
            raise ValueError(f"episode {entry['episode_id']} regenerated differently "
                             "from its index entry; the index is stale")
        episodes.append(ep)
    return meta, vocab, episodes
