"""Algebraic contract of the text-conditioned gate, its attention baseline and
the fused ops under them: ``tensor.cosine_gate`` and ``tensor.attention``,
the attention core every attention path shares."""

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.config import RunConfig
from glimpse.data import FrameBundle, Vocab
from glimpse.gating import NORM_FLOOR, cross_attention_core, gate_core
from glimpse.gradcheck import grad_check
from glimpse.model import VideoQAModel
from glimpse.nn import SelfAttention
from glimpse.tensor import Tensor


def make_params(dim=8, heads=2, seed=0):
    return SelfAttention(dim, heads, np.random.default_rng(seed))


def represent(fusion, v_patch, v_cls, texts):
    """A sparse-sampler model of width 24 over 6 frames of 4 patches, one seed per text;
    row r shows video ``v_patch[r]``, ``v_cls[r]``."""
    cfg = RunConfig(n_frames=6, k_select=2, depth=1, dim=24, heads=2, n_grid=2, fusion=fusion)
    model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(0))
    return model.represent([FrameBundle(v_patch=p, v_cls=c) for p, c in zip(v_patch, v_cls)],
                           texts, [0] * len(texts))


def importance(v, t_tokens, params):
    """Per-head gate coefficients (H, m): the fused gate over unit values."""
    q, k = params.w_q(v), params.w_k(t_tokens)
    out = T.cosine_gate(q, k, Tensor(np.ones(q.shape)), params.heads, NORM_FLOOR).data
    m, d = out.shape
    return Tensor(out.reshape(m, params.heads, d // params.heads)[..., 0].T)


def identity_params(dim=8, heads=2):
    params = make_params(dim, heads)
    eye = np.eye(dim)
    params.w_q.w = Tensor(eye, requires_grad=True)
    params.w_k.w = Tensor(eye, requires_grad=True)
    params.w_v.w = Tensor(eye, requires_grad=True)
    params.w_o.w = Tensor(eye, requires_grad=True)
    return params


class TestImportanceVector:
    """Gate coefficients: per-token cosine for one text row, summed over L rows."""

    def test_identical_rows_give_one_per_head(self):
        params = identity_params()
        t_cls = np.array([1.0, 2.0, 0.5, -1.0, 0.3, 0.9, -0.2, 0.4])
        v = Tensor(np.tile(t_cls, (3, 1)))
        dist = importance(v, Tensor(t_cls[None, :]), params)
        np.testing.assert_allclose(dist.data, 1.0, atol=1e-12)
        assert dist.shape == (2, 3)

    def test_orthogonal_rows_give_zero(self):
        params = identity_params(dim=4, heads=2)
        # Orthogonal within each head slice as well as globally.
        v = Tensor(np.array([[1.0, 0.0, 1.0, 0.0]]))
        t = Tensor(np.array([[0.0, 1.0, 0.0, 1.0]]))
        dist = importance(v, t, params)
        np.testing.assert_array_equal(dist.data, 0.0)

    def test_duplicated_text_rows_double(self):
        rng = np.random.default_rng(1)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t1 = rng.normal(size=(1, 8))
        single = importance(v, Tensor(t1), params).data
        double = importance(v, Tensor(np.vstack([t1, t1])), params).data
        # BLAS may round (m,1)- and (m,2)-shaped products differently in the
        # last bit, so the cross-run comparison allows one ulp of slack; the
        # doubling itself (c + c == 2c) is exact in IEEE-754.
        np.testing.assert_allclose(double, 2.0 * single, rtol=1e-14)

    def test_range_is_cosine_range(self):
        rng = np.random.default_rng(2)
        params = make_params()
        for _ in range(50):
            v = Tensor(rng.normal(size=(6, 8)))
            t = Tensor(rng.normal(size=(1, 8)))
            dist = importance(v, t, params).data
            assert (dist >= -1.0 - 1e-12).all() and (dist <= 1.0 + 1e-12).all()

    def test_empty_text_rejected(self):
        # The gates trust their text rows: the text encoder stops an empty
        # text before any gate runs.
        frames = np.ones((1, 6, 4, 24)), np.ones((1, 6, 24))
        for fusion in ("la_gate", "cross_attention"):
            with pytest.raises(ValueError, match="empty text condition"):
                represent(fusion, *frames, [[]])


class TestLaGate:
    """The gated value path as the blocks apply it, before their input skip."""

    def test_zero_gate_identity(self):
        # Construct projections so every gate coefficient is exactly zero:
        # w_k maps the text onto a coordinate line orthogonal to every query.
        # The update is then exactly zero, and the block's skip passes v on.
        dim, heads = 4, 2
        params = identity_params(dim=dim, heads=heads)
        wk = np.zeros((dim, dim))
        wk[:, 1] = 1.0  # key lives on axis 1 (and 3) of each head slice
        wk[:, 3] = 1.0
        params.w_k.w = Tensor(wk, requires_grad=True)
        v = np.zeros((3, dim))
        v[:, 0] = [1.0, -2.0, 0.5]
        v[:, 2] = [0.3, 0.7, -0.1]
        out = gate_core(Tensor(v), Tensor(np.ones((1, dim))), params)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_row_locality_bitwise(self):
        rng = np.random.default_rng(3)
        params = make_params()
        v = rng.normal(size=(6, 8))
        t = Tensor(rng.normal(size=(1, 8)))
        base = gate_core(Tensor(v), t, params).data
        for j in range(6):
            perturbed = v.copy()
            perturbed[j] += rng.normal(size=8)
            out = gate_core(Tensor(perturbed), t, params).data
            untouched = [i for i in range(6) if i != j]
            assert (out[untouched] == base[untouched]).all()

    def test_positive_scale_invariance_of_text(self):
        # Power-of-two scales commute exactly with IEEE-754 rounding, so the
        # cosine (and hence the whole gate) must be bit-identical under them.
        rng = np.random.default_rng(4)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t = rng.normal(size=(1, 8))
        base = gate_core(v, Tensor(t), params).data
        for exponent in (-8, -2, 1, 6, 15):
            scaled = gate_core(v, Tensor(t * 2.0 ** exponent), params).data
            assert (scaled == base).all()

    def test_arbitrary_positive_scale_near_invariance(self):
        rng = np.random.default_rng(5)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t = rng.normal(size=(1, 8))
        base = gate_core(v, Tensor(t), params).data
        for c in (0.37, 3.14159, 812.25):
            scaled = gate_core(v, Tensor(t * c), params).data
            np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_zero_video_gives_zero_output(self):
        rng = np.random.default_rng(6)
        params = make_params()
        out = gate_core(Tensor(np.zeros((4, 8))), Tensor(rng.normal(size=(1, 8))), params)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        params = make_params()
        v = rng.normal(size=(6, 8))
        t = Tensor(rng.normal(size=(1, 8)))
        perm = rng.permutation(6)
        direct = gate_core(Tensor(v[perm]), t, params).data
        permuted = gate_core(Tensor(v), t, params).data[perm]
        assert (direct == permuted).all()

    def test_shape_preserved(self):
        rng = np.random.default_rng(8)
        params = make_params()
        for m in (1, 3, 9):
            v = Tensor(rng.normal(size=(m, 8)))
            assert gate_core(v, Tensor(rng.normal(size=(1, 8))), params).shape == (m, 8)

    def test_dimension_mismatch_rejected(self):
        # The gates trust their visual tokens: frames of another width than the
        # model's are stopped where they enter it, under either fusion.
        for fusion in ("la_gate", "cross_attention"):
            with pytest.raises(ValueError,
                               match=r"expected float32 or float64 \(6, 4, 24\) and \(6, 24\)"):
                represent(fusion, np.ones((1, 6, 4, 22)), np.ones((1, 6, 22)), [[2, 3]])

    def test_gradients_pass_oracle(self):
        rng = np.random.default_rng(9)
        params = make_params(dim=8, heads=2, seed=9)
        v = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        t = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        checked = [v, t] + params.parameters()
        report = grad_check(
            lambda: T.tsum(gate_core(v, t, params)), checked, epsilon=1e-5
        )
        assert report.passed, report.max_rel_error

    def test_gate_core_handles_zero_rows(self):
        # Padded all-zero tokens must not produce NaN in forward or backward.
        rng = np.random.default_rng(10)
        params = make_params()
        v_data = rng.normal(size=(4, 8))
        v_data[2] = 0.0
        v = Tensor(v_data, requires_grad=True)
        out = T.tsum(gate_core(v, Tensor(rng.normal(size=(1, 8))), params))
        out.backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(v.grad).all()


class TestCrossAttentionBaseline:
    def test_single_key_broadcasts_one_value(self):
        rng = np.random.default_rng(11)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t = Tensor(rng.normal(size=(1, 8)))
        out = cross_attention_core(v, t, params).data
        # Softmax over one key is exactly 1, so every row is the same vector.
        projected = (t.data @ params.w_v.w.data) @ params.w_o.w.data
        np.testing.assert_allclose(out, np.broadcast_to(projected, out.shape), atol=1e-12)

    def test_no_row_locality_with_two_keys(self):
        # Witness for the contrast with the gate: touching one text token
        # moves every output row.
        rng = np.random.default_rng(12)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t = rng.normal(size=(2, 8))
        base = cross_attention_core(v, Tensor(t), params).data
        t2 = t.copy()
        t2[1] += 1.0
        moved = cross_attention_core(v, Tensor(t2), params).data
        assert (np.abs(moved - base) > 0).all()

    def test_shape_matches_gate_signature(self):
        rng = np.random.default_rng(13)
        params = make_params()
        v = Tensor(rng.normal(size=(7, 8)))
        t = Tensor(rng.normal(size=(3, 8)))
        assert cross_attention_core(v, t, params).shape == (7, 8)

    def test_gradients_pass_oracle(self):
        rng = np.random.default_rng(14)
        params = make_params(seed=14)
        v = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        t = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        report = grad_check(
            lambda: T.tsum(cross_attention_core(v, t, params)),
            [v, t] + params.parameters(),
        )
        assert report.passed, report.max_rel_error


    def test_one_text_row_gives_queries_exactly_zero_gradient(self):
        # Softmax over one key is the constant 1, so nothing reaches a gate's
        # queries: its ln_gate, w_q and w_k gradients must be exactly 0, not
        # roundoff that AdamW would turn into real updates.
        cfg = RunConfig(n_frames=6, k_select=2, depth=2, dim=24, heads=2, n_grid=2,
                        fusion="cross_attention")
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                             np.random.default_rng(0)).astype(np.float64)
        rng = np.random.default_rng(17)
        videos, frame_cls = rng.normal(size=(3, 6, 4, 24)), rng.normal(size=(3, 6, 24))
        rep = model.represent([FrameBundle(v_patch=p, v_cls=c) for p, c in zip(videos, frame_cls)],
                              [[2, 3, 4]] * 3, [0, 1, 2])
        T.tsum(rep["v_star"] * Tensor(rng.normal(size=(3, 24)))).backward()
        blocks = model.sampler.blocks + model.refiner.blocks
        for block in blocks:
            for zero in (block.ln_gate.gain, block.ln_gate.bias, block.gate.w_q.w,
                         block.gate.w_k.w):
                assert zero.grad is not None and not zero.grad.any()
            assert np.abs(block.gate.w_v.w.grad).max() > 0


class TestAttentionCore:
    @staticmethod
    def reference(q, k, v, heads):
        """Per-head softmax attention in numpy, heads split and merged by hand."""
        split = lambda x: np.swapaxes(x.reshape(*x.shape[:-1], heads, -1), -3, -2)
        q, k, v = split(q), split(k), split(v)
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1])
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out = (weights / weights.sum(axis=-1, keepdims=True)) @ v
        return np.swapaxes(out, -3, -2).reshape(*out.shape[:-3], out.shape[-2], -1)

    def test_matches_numpy_reference_over_leading_axes(self):
        rng = np.random.default_rng(15)
        for lead, sq, sk, d in (((), 1, 3, 4), ((2,), 4, 4, 8), ((2, 3), 5, 2, 4)):
            q, k, v = (rng.normal(size=(*lead, s, 2 * d)) for s in (sq, sk, sk))
            out = T.attention(Tensor(q), Tensor(k), Tensor(v), heads=2)
            assert out.shape == (*lead, sq, 2 * d)
            np.testing.assert_allclose(out.data, self.reference(q, k, v, 2), rtol=1e-12)

    def test_gradients_pass_oracle(self):
        rng = np.random.default_rng(16)
        q, k, v = (Tensor(rng.normal(size=(2, s, 8)), requires_grad=True) for s in (3, 5, 5))
        w = Tensor(rng.normal(size=(2, 3, 8)))
        report = grad_check(lambda: T.tsum(T.attention(q, k, v, heads=2) * w), [q, k, v])
        assert report.passed, report.max_rel_error
