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

An episode's frames are drawn and encoded in float64, a block of frames at a
time, and stored once, rounded to the compute dtype, so they are the bits the
model reads.  A dataset on disk is an index of episode seeds; loading it
replays only each episode's header draws (kind, window, attributes, event
frame) to check the index, and an episode's frames are generated when it is
first read.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import COMPUTE_DTYPE, RunConfig

KINDS = ("color", "shape", "position")
WINDOWS = ("early", "middle", "late")
VALUE_WORDS = {
    "color": ("red", "green", "blue", "yellow", "purple", "orange", "pink", "brown"),
    "shape": ("cube", "ball", "cone", "ring", "star", "disk", "slab", "tube"),
    "position": ("left", "right", "top", "bottom", "front", "back", "center", "corner"),
}
NUM_VALUES = 8          # values per attribute kind == answer-space size
EVENT_MAGNITUDE = 3.0   # shift along each attribute direction, in background sigmas
BLIND_MODES = ("static", "gaussian")  # language-bias probes, see blind_input

PAD_WORD = "[pad]"
MASK_WORD = "[mask]"
# The vocabulary in id order: the specials, the question template's words,
# the kinds, the windows and every attribute value.
WORDS = (PAD_WORD, MASK_WORD, "what", "at", "with", "?", *KINDS, *WINDOWS,
         *(word for kind in KINDS for word in VALUE_WORDS[kind]))

_GAUSSIAN_BLIND_SALT = 0x67617573  # mixed into the episode seed for blind noise
EPISODE_CACHE_BYTES = 256 << 20    # generated frames one EpisodeSet keeps
FRAME_BLOCK_BYTES = 8 << 20        # float64 frames drawn and encoded at once


@dataclass
class FrameBundle:
    """One video's frozen embeddings: patches (N, n^2, D) and frame CLS (N, D).
    A batch is a list of bundles, one per row, that the model reads in place."""

    v_patch: np.ndarray
    v_cls: np.ndarray


@dataclass
class Episode:
    """One synthetic QA item with full ground truth.

    The frames are held in the compute dtype (float32), rounded once from
    their float64 draw; the frozen question embedding stays float64.
    """

    seed: int
    frames: np.ndarray            # (N, P, D) encoded patch embeddings, float32
    frame_cls: np.ndarray         # (N, D), float32
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
        _check_dim(dim)
        self.seed = seed
        self.dim = dim
        self.words = WORDS
        self.word_to_id = {w: i for i, w in enumerate(WORDS)}
        self.pad_id = self.word_to_id[PAD_WORD]
        self.mask_id = self.word_to_id[MASK_WORD]
        self.special_ids = frozenset({self.pad_id, self.mask_id})

        rng = np.random.default_rng(seed)
        self.embeddings = rng.normal(0.0, 1.0, size=(len(WORDS), dim))
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


def _check_dim(dim: int) -> None:
    """Raise unless ``dim`` fits the orthonormal attribute directions."""
    if dim < len(KINDS) * NUM_VALUES:
        raise ValueError(f"dim must be >= {len(KINDS) * NUM_VALUES} to fit orthonormal "
                         f"attribute directions, got {dim}")


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


def _draw_frames(rng: np.random.Generator, shape: tuple[int, int, int],
                 proj: np.ndarray | None = None, event: tuple | None = None) -> FrameBundle:
    """Standard-normal frames of ``shape`` (N, P, D), encoded, in the compute dtype.

    The frozen encoder stand-in: patches go through ``proj``, a fixed rotation
    of the raw patch space (or stay raw without it), and a frame's CLS is its
    patch mean through ``proj``.  ``event = (frame, shift)`` adds ``shift`` to
    every patch of that frame before encoding.  The float64 draw is made and
    encoded in blocks of at most ``FRAME_BLOCK_BYTES`` (at least one frame),
    so only one block is held next to the result.  The stream, the per-frame
    products and the means are those of one whole draw, so the result is
    that draw rounded once.  Callers get plain arrays, outside any tape.
    """
    n, p, d = shape
    frames = np.empty(shape, COMPUTE_DTYPE)
    means = np.empty((n, d))
    per_block = max(1, FRAME_BLOCK_BYTES // (8 * p * d))
    for start in range(0, n, per_block):
        raw = rng.standard_normal((min(per_block, n - start), p, d))
        stop = start + len(raw)
        if event is not None and start <= event[0] < stop:
            raw[event[0] - start] += event[1]
        frames[start:stop] = raw if proj is None else raw @ proj
        means[start:stop] = raw.mean(axis=1)
    return FrameBundle(v_patch=frames,
                       v_cls=(means if proj is None else means @ proj).astype(COMPUTE_DTYPE))


def _draw_header(rng: np.random.Generator, n_frames: int) -> tuple[int, int, tuple, int]:
    """An episode's first draws: question kind, window, attribute values, event frame.

    They come before the frames in the episode's stream, so a dataset index
    can be written and checked from them alone.
    """
    if n_frames < 3:
        raise ValueError("need at least 3 frames for the coarse-time windows")
    kind = int(rng.integers(len(KINDS)))
    window = int(rng.integers(len(WINDOWS)))
    attrs = tuple(int(v) for v in rng.integers(0, NUM_VALUES, size=len(KINDS)))
    lo, hi = window_bounds(window, n_frames)
    return kind, window, attrs, int(rng.integers(lo, hi))


def gen_episode(seed: int, n_frames: int, n_grid: int, dim: int, vocab: Vocab) -> Episode:
    """Deterministically synthesize one episode from its seed.

    The frames are drawn and encoded in float64, then rounded once to the
    compute dtype (``_draw_frames``).
    """
    if vocab.dim != dim:
        raise ValueError("vocab dimension mismatch")
    rng = np.random.default_rng(seed)
    kind, window, attrs, event_frame = _draw_header(rng, n_frames)

    # every patch of the event frame carries the signal
    shift = EVENT_MAGNITUDE * sum(vocab.directions[k, attrs[k]] for k in range(len(KINDS)))
    bundle = _draw_frames(rng, (n_frames, n_grid * n_grid, dim), vocab.frame_projection,
                          (event_frame, shift))
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
    repeated calls agree), in float64, and rounds the patches and their
    means once to the compute dtype.  The question and answer stay the
    episode's.
    """
    if mode not in BLIND_MODES:
        raise ValueError(f"unknown blind mode: {mode!r}")
    if mode == "static":
        return FrameBundle(v_patch=np.repeat(episode.frames[:1], len(episode.frames), axis=0),
                           v_cls=np.repeat(episode.frame_cls[:1], len(episode.frames), axis=0))
    # Isotropic noise is invariant under the encoder rotation, so fresh
    # draws can skip the projection without changing the distribution.
    return _draw_frames(np.random.default_rng(episode.seed ^ _GAUSSIAN_BLIND_SALT),
                        episode.frames.shape)


# -- datasets -------------------------------------------------------------------

INDEX_NAME = "index.json"
# Dataset meta keys that must equal the model's config: the geometry of the
# frames, and the seed of the frozen word table and frame rotation.
DATASET_KEYS = ("n_frames", "n_grid", "dim", "vocab_seed")


def episode_seeds(base_seed: int, count: int) -> list[int]:
    """Per-episode generation seeds: base xor episode id."""
    return [base_seed ^ i for i in range(count)]


class EpisodeSet(Sequence):
    """Episodes addressed by seed, generated when first read.

    ``episodes[i]`` generates episode ``i`` from ``seeds[i]`` and keeps it
    in a least-recently-used cache that holds at most
    ``EPISODE_CACHE_BYTES`` of frames (always the episode just read).  An
    evicted episode regenerates bit for bit on its next read.  A slice is a
    list of the episodes it selects, read in its order.
    """

    def __init__(self, seeds: Sequence[int], n_frames: int, n_grid: int, vocab: Vocab):
        self.seeds = list(seeds)
        self.n_frames = n_frames
        self.n_grid = n_grid
        self.vocab = vocab
        self._cache: OrderedDict[int, Episode] = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, i: int | slice) -> Episode | list[Episode]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self.seeds))[i]]
        i = range(len(self.seeds))[i]
        if i in self._cache:
            self._cache.move_to_end(i)
            return self._cache[i]
        ep = gen_episode(self.seeds[i], self.n_frames, self.n_grid, self.vocab.dim, self.vocab)
        self._cache[i] = ep
        self._bytes += ep.frames.nbytes + ep.frame_cls.nbytes
        while self._bytes > EPISODE_CACHE_BYTES and len(self._cache) > 1:
            _, old = self._cache.popitem(last=False)
            self._bytes -= old.frames.nbytes + old.frame_cls.nbytes
        return ep


def _index_entry(episode_id: int, seed: int, n_frames: int) -> dict:
    """An episode's index entry, from its header draws alone."""
    kind, _, attrs, event_frame = _draw_header(np.random.default_rng(seed), n_frames)
    return {"episode_id": episode_id, "seed": seed, "answer": attrs[kind],
            "event_frame": event_frame}


def save_dataset(directory, *, base_seed: int, count: int, n_frames: int,
                 n_grid: int, dim: int, vocab_seed: int) -> dict:
    """Write a dataset's index: its geometry and each episode's seed and header.

    Episodes regenerate bit-exactly from their seeds, so the index alone
    determines the dataset.  It is written from the header draws alone; no
    frame is generated.  Sizes or seeds out of range raise ``ValueError``
    before the directory is made.
    """
    _check_dim(dim)
    if n_grid < 1:
        raise ValueError("n_grid must be >= 1")
    if vocab_seed < 0:
        raise ValueError("vocab_seed must be >= 0")
    index = {
        "meta": {
            "base_seed": base_seed,
            "count": count,
            "n_frames": n_frames,
            "n_grid": n_grid,
            "dim": dim,
            "vocab_seed": vocab_seed,
        },
        "episodes": [_index_entry(episode_id, seed, n_frames)
                     for episode_id, seed in enumerate(episode_seeds(base_seed, count))],
    }
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / INDEX_NAME).write_text(json.dumps(index, indent=1, sort_keys=True))
    return index


def _require_keys(value, keys, what: str, counts: bool = False) -> None:
    """Raise unless ``value`` is a JSON object with ``keys``, each holding a non-negative
    int if ``counts`` (JSON ``true`` is not one)."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError(f"{what} lacks {missing}")
    for key in keys if counts else ():
        if type(value[key]) is not int or value[key] < 0:
            raise ValueError(f"{what}: {key} must be a non-negative integer, "
                             f"not {json.dumps(value[key])}")


def load_dataset(directory) -> tuple[dict, Vocab, EpisodeSet]:
    """The meta, the vocab and the episodes of a dataset directory.

    Each episode's header draws are replayed and checked against its index
    entry, so a stale index (an answer or event frame that its seed no
    longer gives) raises ``ValueError`` here, before any frame is generated,
    and so does an index that lacks a key this function reads, holds there
    anything but a non-negative int, or keeps its episodes in no JSON list.
    The episodes come back as an ``EpisodeSet`` over the index's seeds.
    """
    directory = Path(directory)
    index = json.loads((directory / INDEX_NAME).read_text())
    _require_keys(index, ("meta", "episodes"), "dataset index")
    meta = index["meta"]
    _require_keys(meta, DATASET_KEYS, "dataset meta", counts=True)
    if not isinstance(index["episodes"], list):
        raise ValueError("dataset index: episodes must be a JSON list, "
                         f"not {type(index['episodes']).__name__}")
    for i, entry in enumerate(index["episodes"]):
        _require_keys(entry, ("episode_id", "seed"), f"dataset episode entry {i}", counts=True)
    for entry in index["episodes"]:
        if _index_entry(entry["episode_id"], entry["seed"], meta["n_frames"]) != entry:
            raise ValueError(f"episode {entry['episode_id']} regenerated differently "
                             "from its index entry; the index is stale")
    vocab = Vocab(meta["vocab_seed"], meta["dim"])
    seeds = [entry["seed"] for entry in index["episodes"]]
    return meta, vocab, EpisodeSet(seeds, meta["n_frames"], meta["n_grid"], vocab)


def check_dataset(meta: dict, cfg: RunConfig, owner: str) -> None:
    """Raise ``ValueError`` unless each of ``DATASET_KEYS`` in a dataset's ``meta``
    equals the field of ``cfg``, the config of ``owner``."""
    for key in DATASET_KEYS:
        if meta[key] != getattr(cfg, key):
            raise ValueError(f"dataset {key}={meta[key]} does not match {owner} "
                             f"{key}={getattr(cfg, key)}")
