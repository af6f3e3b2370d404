"""The full pipeline: text encoding, frame selection, refinement, heads.

The dense visual stream is frozen input; everything trainable lives here.
The open-ended answer head consumes only the video CLS token, so question
information can reach an answer solely through the conditioning it applied
inside the selection and refinement stacks.

The gated refiner and ``PlainFusion``, a joint transformer over [CLS,
text, patches], assemble their tokens through the same ``refiner`` code.

The model holds float32 parameters and computes in float32: train steps,
evaluation and ablation all run on them, and checkpoints store them as
float32 ``.npy`` vectors.  The finite-difference oracle certifies the same
modules built in float64.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .config import COMPUTE_DTYPE, RunConfig
from .data import NUM_VALUES, WORDS, FrameBundle, Vocab, _require_keys
from .nn import Block, Linear, Mlp, Module, init_normal, param_buffer, split_views
from .refiner import PatchTokens, RefinerParams, assemble_refiner_input, refine
from .sampler import SamplerParams, apply_mask, selection_rows, uniform_indices
from .tensor import Tensor


class TextEncoder(Block):
    """Frozen word embeddings under a small trainable encoder.

    One pre-norm attention/MLP block over [CLS, tokens] with learned position
    embeddings, returning the one sequence of outputs.  Its CLS row conditions
    the visual pipeline; its token rows feed the plain fusion and the
    masked-word loss.
    """

    max_len = 16  # tokens per text

    def __init__(self, vocab: Vocab, dim: int, heads: int, rng: np.random.Generator):
        self.embed = Tensor(vocab.embeddings.astype(COMPUTE_DTYPE))  # frozen lookup table
        self.pos = init_normal(rng, (self.max_len, dim))
        self.cls = init_normal(rng, (1, dim))
        super().__init__(dim, heads, rng)

    def __call__(self, token_ids) -> Tensor:
        """Token ids (..., M) -> outputs (..., 1+M, D), the CLS row first.

        Every text of a batch has the same length M.
        """
        try:
            ids = np.asarray(token_ids, dtype=np.intp)
        except ValueError:
            raise ValueError("texts of one batch must share a length") from None
        m = ids.shape[-1] if ids.ndim else 0
        if m == 0:
            raise ValueError("empty text condition")
        if m > self.max_len:
            raise ValueError(f"text length {m} exceeds max {self.max_len}")
        emb = Tensor(self.embed.data[ids])                   # frozen, (..., M, D)
        cls_rows = T.broadcast_to(self.cls, (*ids.shape[:-1], 1, self.cls.shape[-1]))
        return super().__call__(T.concat([cls_rows, emb + self.pos[:m]], axis=-2))


class PlainFusion(PatchTokens):
    """Baseline head-end: one joint transformer over [CLS, text, patches].

    Text tokens sit in the same sequence as the visual tokens, so unlike the
    gated refiner this module fuses language directly into the representation
    the heads consume.  As in ``refine``, the last block is called with
    ``readout`` and computes the CLS row alone.
    """

    def __init__(self, dim: int, heads: int, k_select: int, n_patches: int,
                 depth: int, rng: np.random.Generator):
        super().__init__(dim, k_select, n_patches, rng)
        self.blocks = [Block(dim, heads, rng) for _ in range(depth)]

    def __call__(self, v_patch_k: Tensor, text_rows: Tensor) -> Tensor:
        """Selected patches (..., K, P, D) and text rows (..., L, D) -> CLS (..., D)."""
        x = assemble_refiner_input(v_patch_k, self, text_rows)
        *body, last = self.blocks
        for block in body:
            x = block(x)
        return last(x, readout=True)[..., 0, :]


def parameter_count(cfg: RunConfig) -> int:
    """The number of trainable values ``VideoQAModel(cfg, ...)`` holds, in closed form."""
    d = cfg.dim

    def mlp(d_in: int, hidden: int, d_out: int) -> int:
        return d_in * hidden + hidden + (hidden + 1) * d_out

    stage = 2 * d + 4 * d * d                   # a LayerNorm and an attention's projections
    block = stage + 2 * d + mlp(d, 4 * d, d)
    count = (TextEncoder.max_len + 1) * d + block   # positions, CLS, one block
    if cfg.sampler in ("sparse", "soft"):           # temporal table, FsBlocks, w_s
        count += cfg.n_frames * d + cfg.depth * (stage + block) + d * cfg.k_select
    fusion = block + 2 * stage if cfg.refiner == "gated" else block
    count += (1 + cfg.k_select + cfg.n_grid ** 2) * d + cfg.depth * fusion
    # the VTM, answer and masked-word heads
    return count + 2 * d + mlp(d, 2 * d, NUM_VALUES) + mlp(2 * d, 2 * d, len(WORDS))


def check_memory(cfg: RunConfig) -> None:
    """Raise ``ValueError`` if the parameters of ``cfg``, their gradients and two AdamW
    moments (16 bytes per parameter) exceed the machine's physical memory."""
    count = parameter_count(cfg)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 16 * count > physical:
        raise ValueError(f"the config has {count:,} parameters; with their gradients and "
                         f"AdamW moments that is {16 * count:,} bytes, over the "
                         f"{physical:,} bytes of physical memory")


class VideoQAModel(Module):
    """Composes the configured pipeline and owns every trainable parameter."""

    def __init__(self, cfg: RunConfig, vocab: Vocab, rng: np.random.Generator | None):
        """Draw the weights from ``rng``.  ``rng=None`` draws nothing: zero weights, no buffer.
        Only ``load_checkpoint`` passes it, then reads the saved weights into a new buffer.
        A config whose training state would not fit in memory is refused first."""
        check_memory(cfg)
        if vocab.dim != cfg.dim:
            raise ValueError("vocab dimension does not match config")
        self.cfg = cfg
        self.vocab = vocab
        n_patches = cfg.n_grid * cfg.n_grid

        self.text_encoder = TextEncoder(vocab, cfg.dim, cfg.heads, rng)
        self.sampler = None
        if cfg.sampler in ("sparse", "soft"):
            self.sampler = SamplerParams(cfg.dim, cfg.heads, cfg.n_frames, cfg.k_select,
                                         cfg.depth, rng, fusion=cfg.fusion, tau_g=cfg.tau_g)
        self.refiner = None
        self.plain = None
        if cfg.refiner == "gated":
            self.refiner = RefinerParams(cfg.dim, cfg.heads, cfg.k_select, n_patches,
                                         cfg.depth, rng, fusion=cfg.fusion)
        else:
            self.plain = PlainFusion(cfg.dim, cfg.heads, cfg.k_select, n_patches,
                                     cfg.depth, rng)

        self.vtm_head = Linear(cfg.dim, 2, rng)
        self.answer_head = Mlp(cfg.dim, 2 * cfg.dim, rng, out_dim=NUM_VALUES)
        self.mlm_head = Mlp(2 * cfg.dim, 2 * cfg.dim, rng, out_dim=len(vocab))

        if rng is not None:
            # Weights are drawn in float64 from the seeded stream, then rounded
            # once into the one parameter buffer.
            param_buffer(self.parameters(), COMPUTE_DTYPE)

    # -- forward paths ---------------------------------------------------

    def encode_text(self, token_ids) -> Tensor:
        """Token ids (..., M) -> text encoder outputs (..., 1+M, D), the CLS row first."""
        return self.text_encoder(token_ids)

    def encode_text_tokens(self, token_ids) -> Tensor:
        """Token outputs only, (..., M, D); the masked-word loss consumes these."""
        return self.text_encoder(token_ids)[..., 1:, :]

    def select(self, bundles: Sequence[FrameBundle], t_cls: Tensor,
               rng_seed: Sequence[int]) -> tuple[Tensor, np.ndarray]:
        """Pick K frames per row, per the configured sampler.

        ``bundles`` holds one video per text row of ``t_cls`` (B, 1, D), and
        ``rng_seed`` one noise seed per row.  Returns the selected patches
        (B, K, P, D) and the nominal frame indices (B, K).  ``sparse`` applies
        Gumbel-Softmax rows through the straight-through estimator; ``soft``
        applies the rows themselves, the smooth function whose gradient the
        estimator copies; ``uniform``, the fixed grid of ``uniform_indices``.
        Text rows in another dtype than the parameters' raise ``ValueError``,
        since they would silently widen (or narrow) the whole selection
        graph.  The bundles are not checked here; ``represent`` checks them.
        """
        if t_cls.dtype != self.dtype:
            raise ValueError(f"text rows are {t_cls.dtype}, the model computes in {self.dtype}")
        cfg = self.cfg
        if self.sampler is None:
            indices = np.tile(uniform_indices(cfg.n_frames, cfg.k_select), (len(bundles), 1))
            rows = Tensor(np.eye(cfg.n_frames, dtype=t_cls.dtype)[indices])
        else:
            rows = selection_rows([b.v_cls for b in bundles], t_cls, self.sampler, rng_seed)
            indices = np.argmax(rows.data, axis=-1)
            if cfg.sampler == "sparse":
                rows = T.straight_through(rows, np.eye(cfg.n_frames, dtype=rows.dtype)[indices])
        return apply_mask(rows, bundles), indices

    def represent(self, bundles: Sequence[FrameBundle], token_ids: Sequence[Sequence[int]],
                  rng_seeds: Sequence[int]) -> dict:
        """Full pipeline for a batch of B (video, text, noise seed) rows.

        ``bundles`` holds B videos, one per row, read in place: rows that show
        one video pass the same bundle object.  ``token_ids`` holds B texts of
        one length M; ``rng_seeds`` holds B selection-noise seeds.  Returns the
        video CLS ``v_star`` (B, D), the text CLS ``t_cls`` (B, 1, D) and the
        selected frame ``indices`` (B, K).  The text CLS steers selection and
        refinement; only the plain fusion also reads the token rows, so only
        it slices them.  Rows never interact in exact arithmetic: a row's
        outputs are those of any batch it could run in up to float32 rounding.
        Episodes hold their frames in the compute dtype; a module in another
        dtype (the oracle's float64) casts them where they enter the
        selection.  Outputs are in the parameters' dtype.

        This is the one check of the frames for the whole pipeline: there
        must be one bundle and one seed per text, and each bundle must hold
        float32 or float64 patches (N, P, D) and frame CLS (N, D) for the
        configured N frames of P = n_grid**2 patches of width D.  Anything
        else raises ``ValueError``, naming the row, before any module runs;
        the text encoder checks the texts.
        """
        b = len(token_ids)
        if len(rng_seeds) != b or len(bundles) != b:
            raise ValueError(f"{len(rng_seeds)} noise seeds, {len(bundles)} videos for {b} texts")
        cfg = self.cfg
        n, p, d = cfg.n_frames, cfg.n_grid ** 2, cfg.dim
        for r, x in enumerate(bundles):
            if ((x.v_patch.shape, x.v_cls.shape) != ((n, p, d), (n, d))
                    or not {x.v_patch.dtype, x.v_cls.dtype} <= T.FLOAT_DTYPES):
                raise ValueError(f"row {r}: patches {x.v_patch.shape} {x.v_patch.dtype} and frame "
                                 f"CLS {x.v_cls.shape} {x.v_cls.dtype}; expected float32 or "
                                 f"float64 ({n}, {p}, {d}) and ({n}, {d})")
        text = self.encode_text(token_ids)
        t_cls = text[..., :1, :]
        selected, indices = self.select(bundles, t_cls, list(rng_seeds))
        if self.refiner is not None:
            v_star = refine(selected, t_cls, self.refiner)
        else:
            v_star = self.plain(selected, T.concat([t_cls, text[..., 1:, :]], axis=-2))
        return {"v_star": v_star, "t_cls": t_cls, "indices": indices}

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}


CHECKPOINT_FORMAT = 3


def save_checkpoint(directory, model: VideoQAModel, step: int,
                    optimizer_state: dict | None = None) -> None:
    """Write ``params.npy``, the optional ``moments.npy`` and ``meta.json``.

    ``params.npy`` holds the parameters back to back in ``named_parameters``
    order, ``moments.npy`` every first moment and then every second, each as
    one float32 vector (a float64 model saves rounded).  Both are read into
    new vectors: the save rebinds no tensor of the model.  ``meta.json``
    (format, config, step, the optimizer's ``t``, parameter names, the crc32
    of each dump's values) marks a complete save: it is removed first, with
    the old moments and a format-2 save's ``.tdmp`` dumps, and the new one is
    moved in last, so a save that stops midway refuses to load and no dump
    of an earlier save outlives a new one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta_path = directory / "meta.json"
    for stale in ("meta.json", "moments.npy", "params.tdmp", "moments.tdmp"):
        (directory / stale).unlink(missing_ok=True)
    names, params = zip(*model.named_parameters())
    meta = {"format": CHECKPOINT_FORMAT, "config": dataclasses.asdict(model.cfg),
            "step": step, "names": list(names)}
    dumps = {"params": np.concatenate([p.data.reshape(-1) for p in params], dtype=COMPUTE_DTYPE)}
    if optimizer_state is not None:
        pairs = [optimizer_state["moments"][name] for name in names]
        dumps["moments"] = np.concatenate([m.reshape(-1) for m, _ in pairs]
                                          + [v.reshape(-1) for _, v in pairs],
                                          dtype=COMPUTE_DTYPE)
        meta["t"] = optimizer_state["t"]
    for name, vector in dumps.items():
        np.save(directory / f"{name}.npy", vector)
        meta[f"{name}_crc32"] = zlib.crc32(vector)
    partial = directory / "meta.json.partial"
    partial.write_text(json.dumps(meta))
    os.replace(partial, meta_path)


def load_checkpoint(directory) -> tuple[VideoQAModel, int, dict | None]:
    """Rebuild the model, its step and the AdamW state from ``directory``.

    The one way saved state enters a model.  The model is built without a
    draw, and each dump is copied once from its mapped file: into the
    parameter buffer, and into one vector whose views become the moments.
    A float32 model round-trips bit for bit.  ``ValueError`` is raised
    without ``meta.json`` (no checkpoint, or an unfinished save), for another
    format, before the model is built for a ``meta.json`` field that is missing,
    of the wrong type or a step past its config's ``steps``, for names other
    than those of the model the config builds, for a dump that is not one float32
    ``.npy`` vector of the model's length, for one that fails its checksum, and
    for one that holds a non-finite value, naming the first parameter it is in.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise ValueError(f"{directory} holds no complete checkpoint: meta.json is missing "
                         "(no checkpoint was saved there, or a save did not finish)")
    meta = json.loads(meta_path.read_text())
    found = meta.get("format") if isinstance(meta, dict) else None
    if type(found) is not int or found != CHECKPOINT_FORMAT:
        raise ValueError(f"{directory} holds a checkpoint of format {found!r}; "
                         f"only format {CHECKPOINT_FORMAT} (params.npy, moments.npy) "
                         "can be read")
    required = ["config", "step", "names", "params_crc32"]
    if "t" in meta:
        required += ["t", "moments_crc32"]
    _require_keys(meta, required, str(meta_path))
    _require_keys(meta, [key for key in required if key not in ("config", "names")],
                  str(meta_path), counts=True)
    if not (isinstance(meta["names"], list) and all(isinstance(n, str) for n in meta["names"])):
        raise ValueError(f"{meta_path}: names must be a list of strings, "
                         f"not {json.dumps(meta['names'])}")
    cfg = RunConfig.from_dict(meta["config"])
    if meta["step"] > cfg.steps:
        raise ValueError(f"{meta_path}: step {meta['step']} exceeds the config's steps {cfg.steps}")
    model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), None)
    names, params = zip(*model.named_parameters())
    if meta["names"] != list(names):
        at, (saved, built) = next((i, pair) for i, pair in enumerate(
            itertools.zip_longest(meta["names"], names)) if pair[0] != pair[1])
        differ = (sorted(set(names) ^ set(meta["names"]))[:6]
                  or f"order differs at position {at}: {saved!r} saved, {built!r} built")
        raise ValueError(f"checkpoint/model parameter mismatch: {differ}")
    flat = param_buffer(params, copy=False)
    sizes = [p.size for p in params]
    _read_dump(directory / "params.npy", flat, meta["params_crc32"], names, sizes)
    optimizer_state = None
    if "t" in meta:
        moments = np.empty(2 * flat.size, flat.dtype)
        _read_dump(directory / "moments.npy", moments, meta["moments_crc32"],
                   names * 2, sizes * 2)
        arrays = split_views(moments, [p.shape for p in params] * 2)
        optimizer_state = {"t": meta["t"],
                           "moments": dict(zip(names, zip(arrays[:len(names)],
                                                          arrays[len(names):])))}
    return model, meta["step"], optimizer_state


def _read_dump(path: Path, out: np.ndarray, crc32: int, names: Sequence[str],
               sizes: Sequence[int]) -> None:
    """Copy the float32 vector dumped at ``path`` into ``out``, check its crc32, and
    refuse a non-finite value, naming the parameter of the run of ``sizes`` it is in.

    The file is mapped only for the copy: no view of it outlives the call, so
    a later save may overwrite it.
    """
    size = path.stat().st_size
    try:
        mapped = np.lib.format.open_memmap(path, mode="r")
    except ValueError as err:
        raise ValueError(f"{path} is not a .npy dump: {err}") from None
    try:
        if (mapped.dtype != out.dtype or mapped.shape != out.shape
                or mapped.offset + mapped.nbytes != size):
            raise ValueError(f"{path} holds {mapped.dtype} {mapped.shape} in {size} bytes; "
                             f"the model needs {out.dtype} {out.shape} with nothing after it")
        np.copyto(out, mapped)
    finally:
        del mapped
    if zlib.crc32(out) != crc32:
        raise ValueError(f"{path} does not match its checksum in meta.json: "
                         "it changed after the save")
    finite = np.isfinite(out)
    if not finite.all():
        at = np.searchsorted(np.cumsum(sizes), np.argmin(finite), side="right")
        raise ValueError(f"{path} holds a non-finite value in parameter {names[at]}")
