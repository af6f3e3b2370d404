"""Core tensor and autodiff behaviour, checked against independent references."""

import math
import struct

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.gradcheck import grad_check
from glimpse.tensor import Tensor


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_stable(Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_huge_logits_do_not_overflow(self):
        out = T.softmax_stable(Tensor([1000.0, 1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)
        assert np.isfinite(out.data).all()

    def test_reference_values(self):
        # Reference computed with the scalar math library, not the tensor code.
        logits = [1.0, 2.0, 3.0]
        exps = [math.exp(x) for x in logits]
        total = sum(exps)
        expected = [e / total for e in exps]
        out = T.softmax_stable(Tensor(logits))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)
        np.testing.assert_allclose(
            out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-8
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        out = T.softmax_stable(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert ((out.data > 0) & (out.data < 1)).all()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite logits"):
            T.softmax_stable(Tensor([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite logits"):
            T.softmax_stable(Tensor([1.0, np.inf]))


def _rand(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestPrimitiveGradients:
    """Every primitive against central finite differences on random shapes."""

    def test_elementwise_and_broadcast(self):
        rng = np.random.default_rng(2)
        a = _rand(rng, (4, 5))
        b = _rand(rng, (4, 5))
        c = _rand(rng, (1, 5))
        report = grad_check(
            lambda: T.tsum(((a * b + c) / (b * b + 2.0) - a) * (a + 0.5)),
            [a, b, c],
            epsilon=1e-5,
        )
        assert report.passed, report.summary()

    def test_matmul_2d(self):
        rng = np.random.default_rng(3)
        a = _rand(rng, (4, 6))
        b = _rand(rng, (6, 3))
        report = grad_check(lambda: T.tsum(T.matmul(a, b) ** 2.0), [a, b])
        assert report.passed, report.summary()

    def test_matmul_batched(self):
        rng = np.random.default_rng(4)
        a = _rand(rng, (2, 3, 4))
        b = _rand(rng, (2, 4, 5))
        report = grad_check(lambda: T.tsum(T.matmul(a, b) * 0.3), [a, b])
        assert report.passed, report.summary()

    def test_softmax_gradient(self):
        rng = np.random.default_rng(5)
        x = _rand(rng, (3, 8))
        w = Tensor(rng.normal(size=(3, 8)))
        report = grad_check(lambda: T.tsum(T.softmax_stable(x) * w), [x])
        assert report.passed, report.summary()

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(6)
        x = _rand(rng, (2, 9))
        w = Tensor(rng.normal(size=(2, 9)))
        report = grad_check(lambda: T.tsum(T.log_softmax(x) * w), [x])
        assert report.passed, report.summary()

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(7)
        x = _rand(rng, (5, 12))
        gain = _rand(rng, 12)
        bias = _rand(rng, 12)
        w = Tensor(rng.normal(size=(5, 12)))
        report = grad_check(
            lambda: T.tsum(T.layer_norm(x, gain, bias) * w), [x, gain, bias]
        )
        assert report.passed, report.summary()

    def test_unary_chain(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0.5, 2.0, size=(4, 4)), requires_grad=True)
        report = grad_check(
            lambda: T.tsum(T.log(T.exp(T.tanh(x)) + 1.0) * T.sqrt(x) + T.gelu(x)),
            [x],
        )
        assert report.passed, report.summary()

    def test_gather_and_concat(self):
        rng = np.random.default_rng(9)
        a = _rand(rng, (6, 3))
        b = _rand(rng, (2, 3))
        # Duplicate index exercises additive scatter in the backward pass.
        report = grad_check(
            lambda: T.tsum(T.concat([T.take(a, [0, 2, 2, 5]), b], axis=0) ** 2.0),
            [a, b],
        )
        assert report.passed, report.summary()

    def test_transpose_reshape_mean(self):
        rng = np.random.default_rng(10)
        x = _rand(rng, (3, 4, 5))
        w = Tensor(rng.normal(size=(12, 7)))
        report = grad_check(
            lambda: T.tsum(T.matmul(T.reshape(T.transpose(x, (2, 0, 1)), (5, 12)), w)
                           * T.tmean(x)),
            [x],
        )
        assert report.passed, report.summary()

    def test_maximum_floor(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=10) * 2, requires_grad=True)
        report = grad_check(lambda: T.tsum(T.maximum(x, 0.25) ** 2.0), [x])
        assert report.passed, report.summary()

    def test_randomized_composite_shapes(self):
        rng = np.random.default_rng(12)
        for trial in range(3):
            m = int(rng.integers(2, 16))
            k = int(rng.integers(2, 16))
            d = int(rng.integers(2, 32))
            a = _rand(rng, (m, k))
            b = _rand(rng, (k, d))
            gain = _rand(rng, d)
            bias = _rand(rng, d)
            def loss():
                h = T.layer_norm(T.matmul(a, b), gain, bias)
                return T.tsum(T.softmax_stable(h) * h)
            report = grad_check(loss, [a, b, gain, bias])
            assert report.passed, f"trial {trial}: {report.summary()}"


class TestGraphSemantics:
    def test_diamond_accumulation(self):
        # A leaf feeding two branches receives the sum of both gradients.
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        left = x * 2.0
        right = x * x
        loss = T.tsum(left + right)
        loss.backward()
        np.testing.assert_allclose(x.grad, 2.0 + 2.0 * x.data)

        y = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        report = grad_check(lambda: T.tsum(y * 2.0 + y * y), [y])
        assert report.passed

    def test_stop_gradient_blocks(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(x * x.detach())
        loss.backward()
        np.testing.assert_allclose(x.grad, x.data)  # only the live factor

    def test_detach_shares_forward_value(self):
        x = Tensor([1.5, -2.0], requires_grad=True)
        d = x.detach()
        assert d.requires_grad is False
        np.testing.assert_array_equal(d.data, x.data)

    def test_forward_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(99)
            a = Tensor(rng.normal(size=(8, 8)))
            b = Tensor(rng.normal(size=(8, 8)))
            return T.softmax_stable(T.matmul(a, b)).data

        first, second = run(), run()
        assert (first == second).all()

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestDumpFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        arr = rng.normal(size=(3, 4, 2))
        path = tmp_path / "x.tdmp"
        T.save_tensor(path, arr)
        np.testing.assert_array_equal(T.load_tensor(path), arr)

    def test_exact_layout(self, tmp_path):
        # Golden bytes assembled by hand: magic, u32 rank, u64 dims, f64 payload.
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "y.tdmp"
        T.save_tensor(path, arr)
        blob = path.read_bytes()
        expected = (
            b"TDMP"
            + struct.pack("<I", 2)
            + struct.pack("<2Q", 2, 2)
            + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        )
        assert blob == expected

    def test_scalar_rank_zero(self, tmp_path):
        path = tmp_path / "s.tdmp"
        T.save_tensor(path, np.float64(7.25))
        loaded = T.load_tensor(path)
        assert loaded.shape == ()
        assert loaded == 7.25

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tdmp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            T.load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.tdmp"
        path.write_bytes(b"TDMP" + struct.pack("<I", 1) + struct.pack("<Q", 4) + b"\x00" * 8)
        with pytest.raises(ValueError, match="payload"):
            T.load_tensor(path)
