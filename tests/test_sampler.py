"""Frame-selection contract: temporal embedding, blocks, Gumbel sampling,
straight-through discretization, and the three selection modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glimpse import sampler as sampler_module
from glimpse import tensor as T
from glimpse.config import SAMPLERS, RunConfig
from glimpse.data import FrameBundle, Vocab
from glimpse.gradcheck import grad_check
from glimpse.model import VideoQAModel
from glimpse.nn import widen_weights
from glimpse.sampler import (
    FsBlock,
    SamplerParams,
    apply_mask,
    gumbel_noise,
    gumbel_softmax,
    selection_logits,
    selection_rows,
    uniform_indices,
)
from glimpse.tensor import Tensor

MODEL_DIM = 24  # smallest dimension the vocabulary accepts


def make_bundle(rng, n=6, p=4, d=16):
    return FrameBundle(v_patch=rng.normal(size=(n, p, d)), v_cls=rng.normal(size=(n, d)))


def make_sampler(rng_seed=0, d=16, h=2, n=6, k=2, depth=1, tau=1.0):
    return SamplerParams(d, h, n, k, depth, np.random.default_rng(rng_seed), "la_gate", tau)


def make_model(sampler="sparse", n=6, k=2, seed=0):
    cfg = RunConfig(n_frames=n, k_select=k, depth=1, dim=MODEL_DIM, heads=2, n_grid=2,
                    sampler=sampler, seed=seed)
    return VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(seed))


def text_row(rng, d=MODEL_DIM, dtype=np.float32):
    """The text condition of one batch row, (1, 1, d), in the model's dtype
    (float32 unless cast)."""
    return Tensor(rng.normal(size=(1, 1, d)).astype(dtype))


def represent(model, bundle):
    """One row: ``bundle``'s video under a fixed two-word text."""
    return model.represent([bundle], [[2, 3]], [0])


def hard_rows(y_soft):
    """Discretize as ``VideoQAModel.select`` does: argmax per row."""
    indices = np.argmax(y_soft.data, axis=-1)
    hard = np.eye(y_soft.shape[-1], dtype=y_soft.dtype)[indices]
    return T.straight_through(y_soft, hard), indices


class TestTemporalEmbedding:
    def test_zero_table_is_identity(self):
        rng = np.random.default_rng(0)
        params = make_sampler()
        params.temporal_table = Tensor(np.zeros((6, 16)), requires_grad=True)
        seq, t_row = rng.normal(size=(6, 16)), Tensor(rng.normal(size=(1, 16)))
        out = selection_logits(Tensor(seq), t_row, params)
        ref = Tensor(seq)
        for block in params.blocks:
            ref = block(ref, t_row)
        np.testing.assert_array_equal(out.data, T.swapaxes(params.w_s(ref), -1, -2).data)

    def test_zero_input_returns_table_prefix(self):
        # The prefix is the whole table: represent admits only videos of the
        # N frames the table has rows for.
        params = make_sampler()
        seen = []
        params.blocks = [lambda seq, t_row: seen.append(seq.data) or seq]
        selection_logits(Tensor(np.zeros((6, 16))), Tensor(np.ones((1, 16))), params)
        np.testing.assert_array_equal(seen[0], params.temporal_table.data)

    def test_table_too_small_rejected(self):
        # A video longer than the sampler's temporal table is stopped where it
        # enters the model, before the whole table is added.
        model = make_model(n=6)
        assert model.sampler.temporal_table.shape[0] == 6
        with pytest.raises(ValueError, match=r"expected float32 or float64 \(6, 4, 24\)"):
            represent(model, make_bundle(np.random.default_rng(3), n=7, d=MODEL_DIM))

    def test_gradient_reaches_input_and_table(self):
        rng = np.random.default_rng(2)
        params = make_sampler(d=8, n=5)
        widen_weights(params, rng)
        seq = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        t_row = Tensor(rng.normal(size=(1, 8)))
        w = Tensor(rng.normal(size=(2, 5)))
        report = grad_check(lambda: T.tsum(selection_logits(seq, t_row, params) * w),
                            [seq, params.temporal_table])
        assert report.passed, report.max_rel_error
        assert np.abs(params.temporal_table.grad).min() > 0


class TestFsBlock:
    def test_zero_output_projections_make_identity(self):
        rng = np.random.default_rng(3)
        block = FsBlock(8, 2, rng, "la_gate")
        block.gate.w_o.w = Tensor(np.zeros((8, 8)), requires_grad=True)
        block.attn.w_o.w = Tensor(np.zeros((8, 8)), requires_grad=True)
        block.mlp.fc2.w = Tensor(np.zeros((32, 8)), requires_grad=True)
        block.mlp.fc2.b = Tensor(np.zeros(8), requires_grad=True)
        seq = rng.normal(size=(5, 8))
        out = block(Tensor(seq), Tensor(rng.normal(size=(1, 8))))
        np.testing.assert_array_equal(out.data, seq)

    def test_gradients_pass_oracle(self):
        rng = np.random.default_rng(4)
        block = FsBlock(8, 2, np.random.default_rng(4), "la_gate")
        widen_weights(block, rng)
        seq = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        t_cls = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        report = grad_check(
            lambda: T.tsum(block(seq, t_cls)),
            [seq, t_cls] + block.parameters(),
        )
        assert report.passed, report.max_rel_error

    def test_stacks_compose(self):
        rng = np.random.default_rng(5)
        params = make_sampler(depth=3)
        assert len(params.blocks) == 3
        out = selection_logits(Tensor(rng.normal(size=(6, 16))),
                               Tensor(rng.normal(size=(1, 16))), params)
        assert out.shape == (2, 6)


class TestGumbelSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 4, 9)) * 3)
        y = gumbel_softmax(x, 1.0, rng_seed=[0])
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-10)
        assert ((y.data > 0) & (y.data < 1)).all()

    def test_zero_temperature_limit_is_onehot_at_perturbed_argmax(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=6)
        noise = gumbel_noise(x.shape, rng_seed=11)
        expected = np.argmax(x + noise)
        y = gumbel_softmax(Tensor(x[None]), 1e-4, rng_seed=[11]).data[0]
        assert np.argmax(y) == expected
        assert y[expected] == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="nonpositive temperature"):
            gumbel_softmax(Tensor([[1.0, 2.0]]), 0.0, rng_seed=[0])

    def test_same_seed_same_draw(self):
        x = Tensor(np.array([[0.3, -0.2, 1.1]]))
        a = gumbel_softmax(x, 1.0, rng_seed=[42]).data
        b = gumbel_softmax(x, 1.0, rng_seed=[42]).data
        assert (a == b).all()

    def test_one_seed_per_batch_row(self):
        # One seed for two rows would give both the same noise, and one for
        # a (K, N) logit would give every slot the same noise row.
        x = Tensor(np.zeros((2, 3, 5)))
        for seeds, got in (([11], "1 noise seeds"), ([1, 2, 3], "3 noise seeds"),
                           (11, "a scalar noise seed")):
            with pytest.raises(ValueError, match=f"^{got} for 2 batch rows"):
                gumbel_softmax(x, 1.0, seeds)
        with pytest.raises(ValueError, match="^1 noise seeds for 3 batch rows"):
            gumbel_softmax(Tensor(np.zeros((3, 5))), 1.0, [11])
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError, match="^1 noise seeds for 2 batch rows"):
            selection_rows(rng.normal(size=(2, 6, 16)), Tensor(rng.normal(size=(2, 1, 16))),
                           make_sampler(), rng_seed=[7])

    def test_each_distinct_seed_is_drawn_once(self, monkeypatch):
        # Rows sharing a seed share one draw, and every row still gets
        # exactly the noise it would draw alone.
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 2, 6)).astype(np.float32))
        seeds = [3, 9, 3, 3, 9]
        alone = [gumbel_softmax(x[r:r + 1], 1.0, [seed]).data for r, seed in enumerate(seeds)]
        drawn = []

        def counted(shape, rng_seed):
            drawn.append(rng_seed)
            return gumbel_noise(shape, rng_seed)

        monkeypatch.setattr(sampler_module, "gumbel_noise", counted)
        y = gumbel_softmax(x, 1.0, seeds)
        assert drawn == [3, 9]
        assert y.data.tobytes() == np.concatenate(alone).tobytes()

    def test_gumbel_max_frequencies_match_softmax(self):
        # Selection frequencies of argmax(x + g) follow softmax(x); 30k draws
        # here, the acceptance suite runs the full 100k version.
        x = np.log(np.array([1.0, 2.0, 7.0]))
        draws = 30_000
        noise = gumbel_noise((draws, 3), rng_seed=5)
        counts = np.bincount(np.argmax(x + noise, axis=1), minlength=3) / draws
        np.testing.assert_allclose(counts, [0.1, 0.2, 0.7], atol=0.015)


class TestStraightThrough:
    def test_hard_rows_are_argmax_onehots(self):
        y = Tensor(np.array([[0.1, 0.7, 0.2], [0.5, 0.2, 0.3]]))
        hard, indices = hard_rows(y)
        np.testing.assert_array_equal(hard.data, [[0, 1, 0], [1, 0, 0]])
        np.testing.assert_array_equal(indices, [1, 0])

    def test_forward_equals_hard_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            y = T.softmax_stable(Tensor(rng.normal(size=(3, 7)) * 2, requires_grad=True))
            hard, indices = hard_rows(y)
            assert (hard.data == np.eye(7)[indices]).all()

    def test_ties_break_to_lowest_index(self):
        y = Tensor(np.array([[0.4, 0.4, 0.2]]))
        hard, indices = hard_rows(y)
        assert indices[0] == 0
        np.testing.assert_array_equal(hard.data, [[1, 0, 0]])

    def test_backward_identical_to_soft_path(self):
        # Against a linear readout the gradient reaching the logits must be
        # bit-identical whether the readout consumes the straight-through rows
        # or the soft distribution itself.
        rng = np.random.default_rng(9)
        weights = Tensor(rng.normal(size=(2, 5)))
        logits_data = rng.normal(size=(2, 5))

        def grad_through(use_hard):
            logits = Tensor(logits_data, requires_grad=True)
            y = T.softmax_stable(logits)
            branch = hard_rows(y)[0] if use_hard else y
            T.tsum(branch * weights).backward()
            return logits.grad

        assert (grad_through(True) == grad_through(False)).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(2, 9),
       st.sampled_from((np.float32, np.float64)), st.integers(0, 2**32 - 1))
def test_straight_through_is_one_hot_forward_and_soft_backward(b, k, n, dtype, seed):
    # For any leading shape, width, dtype and indices (the argmax or not),
    # the forward is exactly the one-hot rows and the gradient reaching the
    # logits is, bit for bit, the one the soft rows would pass.
    rng = np.random.default_rng(seed)
    logits_data = (rng.normal(size=(b, k, n)) * 3).astype(dtype)
    indices = rng.integers(n, size=(b, k))
    weights = Tensor(rng.normal(size=(b, k, n)).astype(dtype))

    def run(hard):
        logits = Tensor(logits_data, requires_grad=True)
        y = T.softmax_stable(logits)
        out = T.straight_through(y, np.eye(n, dtype=dtype)[indices]) if hard else y
        T.tsum(out * weights).backward()
        return out.data, logits.grad

    hard, hard_grad = run(True)
    _, soft_grad = run(False)
    assert hard.dtype == dtype and hard.tobytes() == np.eye(n, dtype=dtype)[indices].tobytes()
    assert hard_grad.tobytes() == soft_grad.tobytes()


class TestSparseSample:
    def test_forward_frames_are_exact_copies(self):
        rng = np.random.default_rng(10)
        bundle = make_bundle(rng, d=MODEL_DIM)
        model = make_model().astype(np.float64)  # compared with float64 frames
        selected, indices = model.select([bundle], text_row(rng, dtype=np.float64), rng_seed=[3])
        assert selected.shape == (1, 2, 4, MODEL_DIM)
        for row, frame in enumerate(indices[0]):
            assert (selected.data[0, row] == bundle.v_patch[frame]).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        bundle = make_bundle(rng)
        t = Tensor(rng.normal(size=(1, 1, 16)))
        params = make_sampler()
        y1 = selection_rows(bundle.v_cls[None], t, params, rng_seed=[7])
        y2 = selection_rows(bundle.v_cls[None], t, params, rng_seed=[7])
        assert (y1.data == y2.data).all()
        model = make_model()
        bundle = make_bundle(rng, d=MODEL_DIM)
        t = text_row(rng)
        s1, i1 = model.select([bundle], t, rng_seed=[7])
        s2, i2 = model.select([bundle], t, rng_seed=[7])
        assert (i1 == i2).all()
        assert (s1.data == s2.data).all()

    def test_text_rows_in_another_dtype_rejected(self):
        # A float64 row would silently widen a float32 model's graph.
        rng = np.random.default_rng(20)
        bundle = make_bundle(rng, d=MODEL_DIM)
        for sampler in ("sparse", "soft", "uniform"):
            model = make_model(sampler)
            with pytest.raises(ValueError,
                               match="text rows are float64, the model computes in float32"):
                model.select([bundle], text_row(rng, dtype=np.float64), rng_seed=[0])
            with pytest.raises(ValueError,
                               match="text rows are float32, the model computes in float64"):
                model.astype(np.float64).select([bundle], text_row(rng), rng_seed=[0])

    def test_frame_count_mismatch_rejected(self):
        # Every selection mode gets its frames through represent, which
        # checks the count against the config.
        rng = np.random.default_rng(12)
        for sampler in SAMPLERS:
            model = make_model(sampler, n=6)
            for n in (5, 7):
                bundle = make_bundle(rng, n=n, d=MODEL_DIM)
                with pytest.raises(ValueError, match=rf"row 0: patches \({n}, 4, 24\) float64 "
                                                     rf"and frame CLS \({n}, 24\) float64; "
                                                     r"expected float32 or float64 \(6, 4, 24\)"):
                    represent(model, bundle)

    def test_permutation_mask_permutes_frames(self):
        rng = np.random.default_rng(13)
        bundle = make_bundle(rng, n=4)
        perm = np.array([2, 0, 3, 1])
        rows = np.zeros((4, 4))
        rows[np.arange(4), perm] = 1.0
        out = apply_mask(Tensor(rows[None]), [bundle])
        np.testing.assert_array_equal(out.data[0], bundle.v_patch[perm])

    def test_selection_gradient_reaches_sampler_parameters(self):
        rng = np.random.default_rng(14)
        bundle = make_bundle(rng, d=MODEL_DIM)
        model = make_model()
        selected, _ = model.select([bundle], text_row(rng), rng_seed=[1])
        T.tsum(selected * Tensor(rng.normal(size=selected.shape))).backward()
        params = model.sampler
        assert params.w_s.w.grad is not None
        assert np.abs(params.w_s.w.grad).max() > 0
        assert params.temporal_table.grad is not None
        assert np.abs(params.temporal_table.grad).max() > 0


class TestSoftSelect:
    def test_uniform_soft_row_averages_frames(self):
        rng = np.random.default_rng(15)
        bundle = make_bundle(rng, n=5)
        rows = np.full((1, 2, 5), 1.0 / 5.0)
        out = apply_mask(Tensor(rows), [bundle])
        np.testing.assert_allclose(out.data[0, 0], bundle.v_patch.mean(axis=0), atol=1e-12)

    def test_onehot_soft_row_equals_hard_copy(self):
        rng = np.random.default_rng(16)
        bundle = make_bundle(rng, n=5)
        rows = np.zeros((1, 1, 5))
        rows[0, 0, 3] = 1.0
        out = apply_mask(Tensor(rows), [bundle])
        np.testing.assert_array_equal(out.data[0, 0], bundle.v_patch[3])

    def test_soft_mode_applies_the_rows(self):
        # The soft sampler weights the frames by the Gumbel-Softmax rows
        # themselves; the nominal indices are their argmax.
        rng = np.random.default_rng(18)
        bundle = make_bundle(rng, d=MODEL_DIM)
        t = text_row(rng)
        model = make_model("soft")
        selected, indices = model.select([bundle], t, rng_seed=[4])
        y_soft = selection_rows(bundle.v_cls[None], t, model.sampler, rng_seed=[4])
        assert (selected.data == apply_mask(y_soft, [bundle]).data).all()
        assert (indices == np.argmax(y_soft.data, axis=-1)).all()

    def test_gradcheck_through_soft_pipeline(self):
        rng = np.random.default_rng(17)
        bundle = make_bundle(rng, n=4, p=2, d=8)
        params = make_sampler(d=8, n=4, k=2)
        t = Tensor(rng.normal(size=(1, 1, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 2, 2, 8)))
        checked = [t, params.w_s.w, params.temporal_table]
        report = grad_check(
            lambda: T.tsum(apply_mask(selection_rows(bundle.v_cls[None], t, params,
                                                     rng_seed=[5]), [bundle]) * w), checked
        )
        assert report.passed, report.max_rel_error

    def test_rows_sharing_a_video_pass_the_oracle(self):
        # Rows 0 and 2 pass one bundle object; each row reads its own video.
        rng = np.random.default_rng(21)
        shared, other = make_bundle(rng, n=5, p=2, d=3), make_bundle(rng, n=5, p=2, d=3)
        bundles = [shared, other, shared]
        rows = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 2, 3)))
        out = apply_mask(rows, bundles)
        want = np.einsum("rkn,rnpd->rkpd", rows.data, np.stack([b.v_patch for b in bundles]))
        np.testing.assert_allclose(out.data, want, rtol=1e-13, atol=1e-15)
        report = grad_check(lambda: T.tsum(apply_mask(rows, bundles) * w), [rows])
        assert report.passed, report.max_rel_error
        with pytest.raises(ValueError):  # one bundle per row, no fewer
            apply_mask(rows, bundles[:2])


class TestUniformSelect:
    def test_reference_grid(self):
        expected = [0, 7, 13, 20, 26, 33, 40, 46, 53, 59, 66, 73, 79, 86, 92, 99]
        np.testing.assert_array_equal(uniform_indices(100, 16), expected)

    def test_identity_when_k_equals_n(self):
        np.testing.assert_array_equal(uniform_indices(5, 5), [0, 1, 2, 3, 4])

    def test_endpoints(self):
        np.testing.assert_array_equal(uniform_indices(4, 2), [0, 3])

    def test_single_pick_is_center(self):
        np.testing.assert_array_equal(uniform_indices(9, 1), [4])

    def test_mask_has_no_gradient_path(self):
        rng = np.random.default_rng(19)
        bundle = make_bundle(rng, d=MODEL_DIM)
        model = make_model("uniform", k=3)
        t = Tensor(rng.normal(size=(1, 1, MODEL_DIM)).astype(np.float32), requires_grad=True)
        selected, indices = model.select([bundle], t, rng_seed=[0])
        assert selected.requires_grad is False
        np.testing.assert_array_equal(indices, [uniform_indices(6, 3)])
        np.testing.assert_array_equal(selected.data[0],
                                      bundle.v_patch[indices[0]].astype(np.float32))
