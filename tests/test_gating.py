"""Algebraic contract of the text-conditioned gate and its attention baseline."""

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.gating import _head_importance, cross_attention_v2t, gate_core, la_gate
from glimpse.gradcheck import grad_check
from glimpse.nn import SelfAttention
from glimpse.tensor import Tensor


def make_params(dim=8, heads=2, seed=0):
    return SelfAttention(dim, heads, np.random.default_rng(seed))


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
        dist = _head_importance(v, Tensor(t_cls[None, :]), params)
        np.testing.assert_allclose(dist.data, 1.0, atol=1e-12)
        assert dist.shape == (2, 3)

    def test_orthogonal_rows_give_zero(self):
        params = identity_params(dim=4, heads=2)
        # Orthogonal within each head slice as well as globally.
        v = Tensor(np.array([[1.0, 0.0, 1.0, 0.0]]))
        t = Tensor(np.array([[0.0, 1.0, 0.0, 1.0]]))
        dist = _head_importance(v, t, params)
        np.testing.assert_array_equal(dist.data, 0.0)

    def test_duplicated_text_rows_double(self):
        rng = np.random.default_rng(1)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t1 = rng.normal(size=(1, 8))
        single = _head_importance(v, Tensor(t1), params).data
        double = _head_importance(v, Tensor(np.vstack([t1, t1])), params).data
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
            dist = _head_importance(v, t, params).data
            assert (dist >= -1.0 - 1e-12).all() and (dist <= 1.0 + 1e-12).all()

    def test_empty_text_rejected(self):
        params = make_params()
        with pytest.raises(ValueError, match="empty text condition"):
            gate_core(Tensor(np.ones((2, 8))), Tensor(np.ones((0, 8))), params)


class TestLaGate:
    def test_zero_gate_identity(self):
        # Construct projections so every gate coefficient is exactly zero:
        # w_k maps the text onto a coordinate line orthogonal to every query.
        dim, heads = 4, 2
        params = identity_params(dim=dim, heads=heads)
        wk = np.zeros((dim, dim))
        wk[:, 1] = 1.0  # key lives on axis 1 (and 3) of each head slice
        wk[:, 3] = 1.0
        params.w_k.w = Tensor(wk, requires_grad=True)
        v = np.zeros((3, dim))
        v[:, 0] = [1.0, -2.0, 0.5]
        v[:, 2] = [0.3, 0.7, -0.1]
        out = la_gate(Tensor(v), Tensor(np.ones((1, dim))), params)
        np.testing.assert_array_equal(out.data, v)

    def test_row_locality_bitwise(self):
        rng = np.random.default_rng(3)
        params = make_params()
        v = rng.normal(size=(6, 8))
        t = Tensor(rng.normal(size=(1, 8)))
        base = la_gate(Tensor(v), t, params).data
        for j in range(6):
            perturbed = v.copy()
            perturbed[j] += rng.normal(size=8)
            out = la_gate(Tensor(perturbed), t, params).data
            untouched = [i for i in range(6) if i != j]
            assert (out[untouched] == base[untouched]).all()

    def test_positive_scale_invariance_of_text(self):
        # Power-of-two scales commute exactly with IEEE-754 rounding, so the
        # cosine (and hence the whole gate) must be bit-identical under them.
        rng = np.random.default_rng(4)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t = rng.normal(size=(1, 8))
        base = la_gate(v, Tensor(t), params).data
        for exponent in (-8, -2, 1, 6, 15):
            scaled = la_gate(v, Tensor(t * 2.0 ** exponent), params).data
            assert (scaled == base).all()

    def test_arbitrary_positive_scale_near_invariance(self):
        rng = np.random.default_rng(5)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t = rng.normal(size=(1, 8))
        base = la_gate(v, Tensor(t), params).data
        for c in (0.37, 3.14159, 812.25):
            scaled = la_gate(v, Tensor(t * c), params).data
            np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_zero_video_gives_zero_output(self):
        rng = np.random.default_rng(6)
        params = make_params()
        out = la_gate(Tensor(np.zeros((4, 8))), Tensor(rng.normal(size=(1, 8))), params)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        params = make_params()
        v = rng.normal(size=(6, 8))
        t = Tensor(rng.normal(size=(1, 8)))
        perm = rng.permutation(6)
        direct = la_gate(Tensor(v[perm]), t, params).data
        permuted = la_gate(Tensor(v), t, params).data[perm]
        assert (direct == permuted).all()

    def test_shape_preserved(self):
        rng = np.random.default_rng(8)
        params = make_params()
        for m in (1, 3, 9):
            v = Tensor(rng.normal(size=(m, 8)))
            assert la_gate(v, Tensor(rng.normal(size=(1, 8))), params).shape == (m, 8)

    def test_dimension_mismatch_rejected(self):
        params = make_params(dim=8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            la_gate(Tensor(np.ones((2, 6))), Tensor(np.ones((1, 8))), params)

    def test_gradients_pass_oracle(self):
        rng = np.random.default_rng(9)
        params = make_params(dim=8, heads=2, seed=9)
        v = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        t = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        checked = [v, t] + params.parameters()
        report = grad_check(
            lambda: T.tmean(la_gate(v, t, params)), checked, epsilon=1e-5
        )
        assert report.passed, report.summary()

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
        out = cross_attention_v2t(v, t, params).data
        # Softmax over one key is exactly 1, so each row adds the same vector.
        projected = (t.data @ params.w_v.w.data) @ params.w_o.w.data
        np.testing.assert_allclose(out, v.data + projected, atol=1e-12)

    def test_no_row_locality_with_two_keys(self):
        # Witness for the contrast with the gate: touching one text token
        # moves every output row.
        rng = np.random.default_rng(12)
        params = make_params()
        v = Tensor(rng.normal(size=(5, 8)))
        t = rng.normal(size=(2, 8))
        base = cross_attention_v2t(v, Tensor(t), params).data
        t2 = t.copy()
        t2[1] += 1.0
        moved = cross_attention_v2t(v, Tensor(t2), params).data
        assert (np.abs(moved - base) > 0).all()

    def test_shape_matches_gate_signature(self):
        rng = np.random.default_rng(13)
        params = make_params()
        v = Tensor(rng.normal(size=(7, 8)))
        t = Tensor(rng.normal(size=(3, 8)))
        assert cross_attention_v2t(v, t, params).shape == (7, 8)

    def test_gradients_pass_oracle(self):
        rng = np.random.default_rng(14)
        params = make_params(seed=14)
        v = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        t = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        report = grad_check(
            lambda: T.tmean(cross_attention_v2t(v, t, params)),
            [v, t] + params.parameters(),
        )
        assert report.passed, report.summary()
