"""The batch axis: a batched ``represent`` is its rows run one at a time.

Rows of a batch never interact.  Each row of a batched pass must match the
same row run alone (B=1) within 1e-12 relative, in its outputs and in the
parameter gradients of a summed readout; permuting the rows permutes the
outputs; changing one row's frames leaves every other row bit-unchanged; and
the straight-through selection still copies exact frames.  The tolerance is
not zero because a batch folds its rows into larger products, which changes
the summation order of the weight gradients (and BLAS blocking) in the last
bits.  It is far below float32 resolution, so these checks run on the model
cast to float64; the bitwise row-independence check also runs in float32.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glimpse import tensor as T
from glimpse.config import RunConfig, derive_seed
from glimpse.data import FrameBundle, Vocab, gen_episode
from glimpse.model import VideoQAModel
from glimpse.nn import widen_weights
from glimpse.sampler import apply_mask
from glimpse.tensor import Tensor

SAMPLERS = ("sparse", "soft", "uniform")
REL = 1e-12

batch_sizes = st.integers(1, 5)
samplers = st.sampled_from(SAMPLERS)
seeds = st.integers(0, 2**31 - 1)


@functools.lru_cache(maxsize=None)
def model_for(sampler: str, dtype=np.float64) -> VideoQAModel:
    cfg = RunConfig(n_frames=6, k_select=2, depth=1, dim=24, heads=2, n_grid=2,
                    sampler=sampler, seed=4)
    model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(cfg.seed))
    widen_weights(model, np.random.default_rng(derive_seed(cfg.seed, 0x1217)), 0.3)
    return model.astype(dtype)


def make_rows(model: VideoQAModel, b: int, seed: int):
    """B episodes with their own videos, texts and noise seeds."""
    cfg = model.cfg
    episodes = [gen_episode(seed ^ i, cfg.n_frames, cfg.n_grid, cfg.dim, model.vocab)
                for i in range(b)]
    bundles = [ep.bundle for ep in episodes]
    texts = [ep.question_tokens for ep in episodes]
    noise = [seed + 17 * i for i in range(b)]
    return bundles, texts, noise


def run(model, bundles, texts, noise, readout=None):
    """Outputs of one batched pass, and parameter grads of a summed readout."""
    for p in model.parameters():
        p.grad = None
    rep = model.represent(bundles, texts, noise)
    grads = {}
    if readout is not None:
        T.tsum(rep["v_star"] * Tensor(readout)).backward()
        grads = {name: p.grad.copy() for name, p in model.named_parameters()
                 if p.grad is not None}
    return rep, grads


def assert_close(got, want, what):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= REL * scale, what


@settings(max_examples=12, deadline=None)
@given(batch_sizes, samplers, seeds)
def test_rows_match_single_passes(b, sampler, seed):
    model = model_for(sampler)
    bundles, texts, noise = make_rows(model, b, seed)
    readout = np.random.default_rng(seed).normal(size=(b, model.cfg.dim))
    batched, grads = run(model, bundles, texts, noise, readout)

    summed = {}
    for j in range(b):
        single, single_grads = run(model, bundles[j:j + 1], texts[j:j + 1], noise[j:j + 1],
                                   readout[j:j + 1])
        for key in ("v_star", "t_cls"):
            assert_close(batched[key].data[j], single[key].data[0], f"{key} row {j}")
        assert (batched["indices"][j] == single["indices"][0]).all()
        with T.no_grad():
            assert_close(model.encode_text_tokens(texts).data[j],
                         model.encode_text_tokens(texts[j:j + 1]).data[0], f"tokens row {j}")
        for name, g in single_grads.items():
            summed[name] = summed.get(name, 0.0) + g

    assert grads.keys() == summed.keys()
    largest = max(np.abs(g).max() for g in summed.values())
    # The last sampler block's output bias shifts every frame logit of a slot
    # alike, which the softmax ignores: its gradient is zero in exact
    # arithmetic and holds only rounding noise, so both passes must merely
    # keep it at the noise floor.
    zero = f"sampler.blocks.{model.cfg.depth - 1}.mlp.fc2.b"
    for name, want in summed.items():
        if name == zero:
            assert max(np.abs(want).max(), np.abs(grads[name]).max()) <= REL * largest
        else:
            assert_close(grads[name], want, name)


@settings(max_examples=12, deadline=None)
@given(batch_sizes, samplers, seeds)
def test_permuting_rows_permutes_outputs(b, sampler, seed):
    model = model_for(sampler)
    bundles, texts, noise = make_rows(model, b, seed)
    perm = np.random.default_rng(seed).permutation(b)
    with T.no_grad():
        base, _ = run(model, bundles, texts, noise)
        moved, _ = run(model, [bundles[i] for i in perm], [texts[i] for i in perm],
                       [noise[i] for i in perm])
    assert_close(moved["v_star"].data, base["v_star"].data[perm], "v_star")
    assert (moved["indices"] == base["indices"][perm]).all()


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 5), samplers, seeds, st.data(),
       st.sampled_from((np.float32, np.float64)))
def test_perturbing_one_row_leaves_the_others_bit_unchanged(b, sampler, seed, data, dtype):
    model = model_for(sampler, dtype)
    bundles, texts, noise = make_rows(model, b, seed)
    j = data.draw(st.integers(0, b - 1))
    rng = np.random.default_rng(seed)
    bumped = list(bundles)
    bumped[j] = FrameBundle(v_patch=bundles[j].v_patch + rng.normal(size=bundles[j].v_patch.shape),
                            v_cls=bundles[j].v_cls + rng.normal(size=bundles[j].v_cls.shape))
    with T.no_grad():
        base, _ = run(model, bundles, texts, noise)
        moved, _ = run(model, bumped, texts, noise)
    others = [i for i in range(b) if i != j]
    assert moved["v_star"].data[others].tobytes() == base["v_star"].data[others].tobytes()
    assert (moved["indices"][others] == base["indices"][others]).all()


@settings(max_examples=12, deadline=None)
@given(batch_sizes, seeds)
def test_straight_through_selection_copies_exact_frames(b, seed):
    model = model_for("sparse")
    bundles, texts, noise = make_rows(model, b, seed)
    selected, indices = model.select(bundles, model.encode_text(texts)[:, :1], noise)
    assert selected.shape == (b, model.cfg.k_select, *bundles[0].v_patch.shape[1:])
    assert selected.requires_grad
    for row in range(b):
        for slot, frame in enumerate(indices[row]):
            assert (selected.data[row, slot] == bundles[row].v_patch[frame]).all()


def test_shared_bundle_is_broadcast_not_copied():
    # Three rows that show one video pass its one bundle: they equal three
    # rows that pass equal copies bit for bit, and the selection reads the
    # shared frames in place, holding no copy of them.
    for dtype in (np.float32, np.float64):
        model = model_for("sparse", dtype)
        bundles, texts, noise = make_rows(model, 3, 5)
        copies = [FrameBundle(v_patch=bundles[0].v_patch.copy(), v_cls=bundles[0].v_cls.copy())
                  for _ in range(3)]
        with T.no_grad():
            shared = model.represent([bundles[0]] * 3, texts, noise)
            copied = model.represent(copies, texts, noise)
        assert shared["v_star"].data.tobytes() == copied["v_star"].data.tobytes()
        assert (shared["indices"] == copied["indices"]).all()

        long = np.random.default_rng(5).normal(size=(200, 4, 24)).astype(dtype)
        rows = Tensor(np.full((3, 1, 200), 1.0 / 200, dtype), requires_grad=True)
        tracemalloc.start()
        try:
            selected = apply_mask(rows, [FrameBundle(v_patch=long, v_cls=long[:, 0])] * 3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert selected.requires_grad and held < long.nbytes // 8


def test_batch_arguments_must_agree():
    model = model_for("sparse")
    bundles, texts, noise = make_rows(model, 2, 1)
    with pytest.raises(ValueError, match="1 noise seeds, 2 videos for 2 texts"):
        model.represent(bundles, texts, noise[:1])
    with pytest.raises(ValueError, match="2 noise seeds, 3 videos for 2 texts"):
        model.represent(bundles + bundles[:1], texts, noise)
    # Frame CLS of two videos over the patches of one: row 1 would pick its
    # frames by video 2 and copy them from video 1.
    mixed = FrameBundle(v_patch=bundles[0].v_patch, v_cls=np.stack([b.v_cls for b in bundles]))
    with pytest.raises(ValueError, match=r"row 1: .* frame CLS \(2, 6, 24\)"):
        model.represent([bundles[0], mixed], texts, noise)
    with pytest.raises(ValueError, match="texts of one batch must share a length"):
        model.represent(bundles, [texts[0], texts[1][:-1]], noise)


def test_each_row_needs_one_video_of_the_model_geometry():
    model = model_for("sparse")
    bundles, texts, noise = make_rows(model, 3, 2)
    video = bundles[1]
    for wrong in (FrameBundle(v_patch=video.v_patch[:, :3], v_cls=video.v_cls),
                  FrameBundle(v_patch=video.v_patch, v_cls=video.v_cls[:5]),
                  FrameBundle(v_patch=video.v_patch[None], v_cls=video.v_cls[None]),  # 4-D
                  FrameBundle(v_patch=video.v_patch.astype(np.float16), v_cls=video.v_cls),
                  FrameBundle(v_patch=video.v_patch, v_cls=video.v_cls.astype(np.int64))):
        with pytest.raises(ValueError, match=r"^row 1: .*expected float32 or float64 "
                                             r"\(6, 4, 24\) and \(6, 24\)$"):
            model.represent([bundles[0], wrong, bundles[2]], texts, noise)
        with pytest.raises(ValueError, match="3 noise seeds, 2 videos for 3 texts"):
            model.represent([bundles[0], wrong], texts, noise)
