"""Core tensor and autodiff behaviour, checked against independent references."""

import gc
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        out = T.softmax_stable(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert ((out.data > 0) & (out.data < 1)).all()

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            T.softmax_stable(Tensor([1.0, np.nan]))
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            T.softmax_stable(Tensor([1.0, np.inf]))


class TestStraightThrough:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_node_valued_hard_that_passes_its_gradient_to_soft(self, dtype):
        rng = np.random.default_rng(6)
        soft = T.softmax_stable(Tensor(rng.normal(size=(2, 3, 5)).astype(dtype),
                                       requires_grad=True))
        hard = np.eye(5, dtype=dtype)[rng.integers(5, size=(2, 3))]
        out = T.straight_through(soft, hard)
        assert out.dtype == dtype and out.data.tobytes() == hard.tobytes()
        assert out._parents == (soft,)
        g = rng.normal(size=out.shape).astype(dtype)
        out._backward(g)
        assert soft.grad is g


def _rand(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _square(t):
    return t * t


class TestPrimitiveGradients:
    """Every primitive against central finite differences on random shapes."""

    def test_elementwise_and_broadcast(self):
        rng = np.random.default_rng(2)
        a = _rand(rng, (4, 5))
        b = _rand(rng, (4, 5))
        c = _rand(rng, (1, 5))
        report = grad_check(
            lambda: T.tsum((a * b + c) / (b * b + 2.0) * (a + 0.5)),
            [a, b, c],
            epsilon=1e-5,
        )
        assert report.passed, report.max_rel_error

    def test_matmul_2d(self):
        rng = np.random.default_rng(3)
        a = _rand(rng, (4, 6))
        b = _rand(rng, (6, 3))
        report = grad_check(lambda: T.tsum(_square(T.matmul(a, b))), [a, b])
        assert report.passed, report.max_rel_error

    def test_batched_product(self):
        # The references below multiply stacks of matrices through ``_product``.
        rng = np.random.default_rng(4)
        a = _rand(rng, (2, 3, 4))
        b = _rand(rng, (2, 4, 5))
        np.testing.assert_allclose(_product(a, b).data, a.data @ b.data, rtol=1e-13)
        report = grad_check(lambda: T.tsum(_product(a, b) * 0.3), [a, b])
        assert report.passed, report.max_rel_error

    def test_softmax_gradient(self):
        rng = np.random.default_rng(5)
        x = _rand(rng, (3, 8))
        w = Tensor(rng.normal(size=(3, 8)))
        report = grad_check(lambda: T.tsum(T.softmax_stable(x) * w), [x])
        assert report.passed, report.max_rel_error

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(7)
        x = _rand(rng, (5, 12))
        gain = _rand(rng, 12)
        bias = _rand(rng, 12)
        w = Tensor(rng.normal(size=(5, 12)))
        report = grad_check(
            lambda: T.tsum(T.layer_norm(x, gain, bias) * w), [x, gain, bias]
        )
        assert report.passed, report.max_rel_error

    def test_unary_chain(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0.5, 2.0, size=(4, 4)), requires_grad=True)
        report = grad_check(
            lambda: T.tsum(T.sqrt(T.sqrt(x) * x + 1.0) * T.sqrt(x) + T.sqrt(T.sqrt(x) + x)),
            [x],
        )
        assert report.passed, report.max_rel_error

    def test_gather_and_concat(self):
        rng = np.random.default_rng(9)
        a = _rand(rng, (6, 3))
        b = _rand(rng, (2, 3))
        # Duplicate index exercises additive scatter in the backward pass.
        report = grad_check(
            lambda: T.tsum(_square(T.concat([T.take(a, [0, 2, 2, 5]), b], axis=0))),
            [a, b],
        )
        assert report.passed, report.max_rel_error

    def test_transpose_reshape_sum(self):
        rng = np.random.default_rng(10)
        x = _rand(rng, (3, 4, 5))
        w = Tensor(rng.normal(size=(12, 7)))
        report = grad_check(
            lambda: T.tsum(T.matmul(T.reshape(T.swapaxes(x, 0, 2), (5, 12)), w)
                           * T.tsum(x)),
            [x],
        )
        assert report.passed, report.max_rel_error

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
            assert report.passed, f"trial {trial}: {report.max_rel_error}"


def _dense_nll_rows(logits: np.ndarray, targets, seed_grad: np.ndarray):
    """Per-row NLL and its logits gradient for ``seed_grad``, in plain numpy,
    through a log-softmax times a dense one-hot."""
    onehot = np.eye(logits.shape[-1])[np.asarray(targets, dtype=int)]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return -(log_p * onehot).sum(axis=-1), (np.exp(log_p) - onehot) * seed_grad[:, None]


@st.composite
def basic_keys(draw):
    """An array shape and a basic-indexing key for it (ints, slices, ...)."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    key = []
    for size in shape:
        kind = draw(st.sampled_from(["int", "slice", "all"]))
        if kind == "int":
            key.append(draw(st.integers(-size, size - 1)))
        elif kind == "slice":
            start = draw(st.integers(-size, size))
            stop = draw(st.integers(-size, size))
            key.append(slice(start, stop, draw(st.sampled_from([1, 2, -1]))))
        else:
            key.append(slice(None))
    if draw(st.booleans()):  # drop a leading run of axes behind an ellipsis
        cut = draw(st.integers(0, len(key)))
        key = [Ellipsis] + key[cut:]
    return shape, tuple(key)


class TestBatchOps:
    """Slicing, broadcasting, axis swaps, the fused NLL and batched matmul."""

    def test_getitem_gradient(self):
        rng = np.random.default_rng(20)
        x = _rand(rng, (3, 5, 4))
        report = grad_check(
            lambda: T.tsum(_square(x[..., 1:, :])) + T.tsum(x[1, :2] * x[2, 3:])
            + T.tsum(x[..., 0, :]),
            [x])
        assert report.passed, report.max_rel_error

    @settings(max_examples=40, deadline=None)
    @given(basic_keys(), st.integers(0, 2**31 - 1))
    def test_getitem_matches_numpy_and_scatter(self, shape_key, seed):
        shape, key = shape_key
        rng = np.random.default_rng(seed)
        x = _rand(rng, shape)
        out = x[key]
        assert out.data.tobytes() == x.data[key].tobytes() and out.shape == x.data[key].shape
        g = rng.normal(size=out.shape)
        T.tsum(out * Tensor(g)).backward()
        expected = np.zeros(shape)
        np.add.at(expected, key, g)
        assert (x.grad == expected).all()

    def test_getitem_rejects_gathers(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(TypeError, match="ints, slices"):
            x[[0, 0]]
        with pytest.raises(TypeError, match="ints, slices"):
            x[np.array([1]), :]

    def test_broadcast_and_swapaxes_gradient(self):
        rng = np.random.default_rng(21)
        row = _rand(rng, (1, 4))
        x = _rand(rng, (2, 3, 4))
        w = Tensor(rng.normal(size=(2, 4, 3)))
        report = grad_check(
            lambda: T.tsum(T.swapaxes(T.broadcast_to(row, (2, 3, 4)) * x, -1, -2) * w),
            [row, x])
        assert report.passed, report.max_rel_error

    def test_nll_gradient(self):
        rng = np.random.default_rng(22)
        logits = _rand(rng, (4, 6))
        w = Tensor(rng.uniform(0.5, 1.5, size=4))
        report = grad_check(lambda: T.tsum(T.nll(logits, [0, 5, 5, 2]) * w), [logits])
        assert report.passed, report.max_rel_error

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 2**31 - 1))
    @example(rows=1, classes=2, seed=140)  # p = 1 - 1.7e-5 at the target: p - 1 cancels
    def test_nll_agrees_with_dense_onehot_composite(self, rows, classes, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(rows, classes)) * 4.0
        targets = rng.integers(0, classes, size=rows)
        seed_grad = rng.normal(size=rows)
        logits = Tensor(data, requires_grad=True)
        out = T.nll(logits, targets)
        T.tsum(out * Tensor(seed_grad)).backward()
        new, new_grad = out.data, logits.grad
        old, old_grad = _dense_nll_rows(data, targets, seed_grad)
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)
        # The target column's p - 1 cancels when p is near 1, so its error is
        # some ulp of 1 times the seed gradient, not of the largest gradient.
        ulp_of_one = np.finfo(np.float64).eps
        bound = 1e-12 * np.abs(old_grad).max() + 4 * ulp_of_one * np.abs(seed_grad).max()
        assert np.abs(new_grad - old_grad).max() <= bound

    def test_nll_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="2 targets for 3 rows"):
            T.nll(Tensor(np.zeros((3, 4))), [0, 1])
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            T.nll(Tensor(np.array([[0.0, np.inf]])), [0])

    def test_batched_matmul_against_one_matrix_gradient(self):
        rng = np.random.default_rng(23)
        a = _rand(rng, (2, 3, 4, 5))
        b = _rand(rng, (5, 3))
        report = grad_check(lambda: T.tsum(_square(T.matmul(a, b))), [a, b])
        assert report.passed, report.max_rel_error

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_batched_matmul_rows_equal_their_own_products(self, lead, d_in, d_out, seed):
        # Each batch entry gets exactly the product it would get alone; the
        # weight gradient equals the sum of the per-entry gradients within 1e-12.
        rng = np.random.default_rng(seed)
        a = _rand(rng, (*lead, 3, d_in))
        b = _rand(rng, (d_in, d_out))
        g = rng.normal(size=(*lead, 3, d_out))
        out = T.matmul(a, b)
        T.tsum(out * Tensor(g)).backward()
        rows_a = a.data.reshape(-1, 3, d_in)
        rows_g = g.reshape(-1, 3, d_out)
        for i in range(rows_a.shape[0]):
            assert (out.data.reshape(-1, 3, d_out)[i] == rows_a[i] @ b.data).all()
            assert (a.grad.reshape(-1, 3, d_in)[i] == rows_g[i] @ b.data.T).all()
        expected_b = sum(rows_a[i].T @ rows_g[i] for i in range(rows_a.shape[0]))
        np.testing.assert_allclose(b.grad, expected_b, rtol=1e-12, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 4),
           st.sampled_from(["contiguous", "readout", "swapaxes"]), st.booleans(),
           st.integers(0, 2**31 - 1))
    @example(lead=[2], s=1, layout="readout", shared=True, seed=0)
    def test_weight_and_bias_grads_equal_the_per_entry_sums(self, lead, s, layout, shared, seed):
        # A 2-D weight's gradient is one product over the rows of every entry and
        # a bias's one ones-vector product, so they sum in another order than
        # the per-entry products: equal within 1e-12 of the largest element.
        # With ``shared`` one weight feeds two products and its slot accumulates.
        rng = np.random.default_rng(seed)
        d, e = 5, 3
        w, b = _rand(rng, (d, e)), _rand(rng, (e,))
        for p in (w, b):
            p.grad_slot = np.full(p.shape, np.nan)
        loss, want_w, want_b = None, np.zeros((d, e)), np.zeros(e)
        for _ in range(2 if shared else 1):
            if layout == "readout":     # the first row of each sequence: S = 1
                a = _rand(rng, (*lead, s + 1, d))[..., :1, :]
            elif layout == "swapaxes":  # a strided view with the same leading axes
                a = T.swapaxes(_rand(rng, (s, *lead[1:], lead[0], d)), 0, -2)
            else:
                a = _rand(rng, (*lead, s, d))
            g = rng.normal(size=(*a.shape[:-1], e))
            term = T.tsum(T.matmul(a, w, b) * g)
            loss = term if loss is None else loss + term
            rows = a.shape[-2]
            for a_i, g_i in zip(a.data.reshape(-1, rows, d), g.reshape(-1, rows, e)):
                want_w += a_i.T @ g_i
                want_b += g_i.sum(axis=0)
        loss.backward()
        assert w.grad is w.grad_slot and b.grad is b.grad_slot
        for got, want in ((w.grad, want_w), (b.grad, want_b)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_first_product_share_is_written_into_the_grad_slot(self):
        # matmul's weight and bias and layer_norm's gain and bias each compute
        # their first share of a pass into the slot, which then is their grad.
        rng = np.random.default_rng(5)
        x = _rand(rng, (2, 3, 4))
        params = [_rand(rng, (4, 4))] + [_rand(rng, (4,)) for _ in range(3)]
        for p in params:
            p.grad_slot = np.full(p.shape, np.nan)
        w, b, gain, bias = params
        T.tsum(_square(T.layer_norm(T.matmul(x, w, b), gain, bias))).backward()
        for p in params:
            assert p.grad is p.grad_slot and np.isfinite(p.grad).all()

    def test_new_ops_leave_no_cycles(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            h = T.matmul(T.swapaxes(T.broadcast_to(x[:, :1, :], (2, 4, 4)), 0, 1), w)
            loss = T.tsum(T.nll(T.reshape(h, (-1, 5)), [1] * 8))
            loss.backward()
            del h, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


seeds = st.integers(0, 2**31 - 1)
small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


class TestShapeOpProperties:
    """Backward rules of broadcasting, reductions, concatenation and gathers
    over random shapes, each against the finite-difference oracle."""

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(2, 3), min_size=3, max_size=4), st.data(), seeds)
    def test_unbroadcast_over_middle_axes(self, shape, data, seed):
        # ``b`` has size 1 on some middle axes and may lack the leading one,
        # so ``add`` and ``mul`` must sum its gradient back over both kinds.
        keep = data.draw(st.lists(st.booleans(), min_size=len(shape) - 2,
                                  max_size=len(shape) - 2))
        b_shape = [n if k else 1 for n, k in zip(shape[1:-1], keep)] + [shape[-1]]
        if data.draw(st.booleans()):
            b_shape = [shape[0]] + b_shape
        rng = np.random.default_rng(seed)
        a, b = _rand(rng, shape), _rand(rng, b_shape)
        w = Tensor(rng.normal(size=shape))
        report = grad_check(lambda: T.tsum((a * b + b) * w), [a, b])
        assert report.passed, report.max_rel_error

    @settings(max_examples=20, deadline=None)
    @given(small_shapes, st.data(), seeds)
    def test_tsum_keeps_the_summed_axis(self, shape, data, seed):
        axis = data.draw(st.none() | st.integers(-len(shape), len(shape) - 1))
        rng = np.random.default_rng(seed)
        x = _rand(rng, shape)
        expected = x.data.sum(axis=axis, keepdims=axis is not None)
        w = Tensor(rng.normal(size=expected.shape))
        assert T.tsum(x, axis=axis).data.tobytes() == expected.tobytes()
        report = grad_check(lambda: T.tsum(T.tsum(x, axis=axis) * w), [x])
        assert report.passed, report.max_rel_error

    @settings(max_examples=20, deadline=None)
    @given(small_shapes, st.data(), seeds)
    def test_concat(self, shape, data, seed):
        # Parts differ along ``axis`` only; a constant part takes no gradient.
        axis = data.draw(st.integers(-len(shape), len(shape) - 1))
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        constant = data.draw(st.integers(0, len(sizes)))  # == len(sizes): none
        rng = np.random.default_rng(seed)
        parts = []
        for j, size in enumerate(sizes):
            part_shape = list(shape)
            part_shape[axis] = size
            parts.append(Tensor(rng.normal(size=part_shape), requires_grad=j != constant))
        out = T.concat(parts, axis=axis)
        assert out.data.tobytes() == np.concatenate([p.data for p in parts], axis=axis).tobytes()
        w = Tensor(rng.normal(size=out.shape))
        checked = [p for p in parts if p.requires_grad]
        if checked:
            report = grad_check(lambda: T.tsum(T.concat(parts, axis=axis) * w), checked)
            assert report.passed, report.max_rel_error

    @settings(max_examples=20, deadline=None)
    @given(small_shapes, st.data(), seeds)
    def test_take_with_duplicate_indices(self, shape, data, seed):
        picks = data.draw(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=5))
        picks = picks + picks[:1]  # at least one index repeats
        rng = np.random.default_rng(seed)
        x = _rand(rng, shape)
        out = T.take(x, picks)
        assert out.data.tobytes() == x.data[picks].tobytes()
        g = rng.normal(size=out.shape)
        T.tsum(out * Tensor(g)).backward()
        expected = np.zeros(shape)
        for j, pick in enumerate(picks):  # each pick adds its row of g
            expected[pick] += g[j]
        np.testing.assert_allclose(x.grad, expected, rtol=1e-14, atol=1e-15)
        x.grad = None
        w = Tensor(rng.normal(size=out.shape))
        report = grad_check(lambda: T.tsum(T.take(x, picks) * w), [x])
        assert report.passed, report.max_rel_error


def _split(x, heads):
    """(..., S, D) -> (..., H, S, D/H) on the tape."""
    *lead, s, d = x.shape
    return T.swapaxes(T.reshape(x, (*lead, s, heads, d // heads)), -3, -2)


def _merge(x):
    *lead, h, s, d = x.shape
    return T.reshape(T.swapaxes(x, -3, -2), (*lead, s, h * d))


def _product(a, b):
    """``a @ b`` over the last two axes of two stacks of matrices, on the tape: one
    2-D ``T.matmul`` per entry of their broadcast leading axes (its weight is 2-D)."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = (T.broadcast_to(x, (*lead, *x.shape[-2:])) for x in (a, b))
    entries = [T.matmul(a[i], b[i]) for i in np.ndindex(lead)]
    out = T.concat([T.reshape(e, (1, *e.shape)) for e in entries], axis=0)
    return T.reshape(out, (*lead, *out.shape[1:]))


def _attend(q, k, v):
    scores = _product(q, T.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    return _product(T.softmax_stable(scores), v)


def composed_attention(q, k, v, heads, grid=None, temporal=False):
    """``T.attention`` as a chain of primitive tape ops: the reference."""
    q, k, v = (_split(x, heads) for x in (q, k, v))
    if grid is None:
        return _merge(_attend(q, k, v))
    out_cls = _attend(q[..., :1, :], k, v)
    grouped = [T.reshape(x[..., 1:, :], (*x.shape[:-2], *grid, x.shape[-1])) for x in (q, k, v)]
    if temporal:
        grouped = [T.swapaxes(x, -3, -2) for x in grouped]
    body = _attend(*grouped)
    if temporal:
        body = T.swapaxes(body, -3, -2)
    body = T.reshape(body, (*body.shape[:-3], grid[0] * grid[1], body.shape[-1]))
    return _merge(T.concat([out_cls, body], axis=-2))


def composed_gate(q, k, v, heads, floor):
    """``T.cosine_gate`` as a chain of primitive tape ops: the reference."""
    q, k, v = (_split(x, heads) for x in (q, k, v))

    def norm(x):
        # A constant mask floors the square: the same values and gradient as
        # a max against floor**2.
        sq = T.tsum(x * x, axis=-1)
        live = (sq.data > floor ** 2).astype(sq.dtype)
        return T.sqrt(sq * live + (1.0 - live) * floor ** 2)

    cos = _product(q, T.swapaxes(k, -1, -2)) / (norm(q) * T.swapaxes(norm(k), -1, -2))
    return _merge(v * T.tsum(cos, axis=-1))


@st.composite
def mixing_inputs(draw, grid):
    """Shapes of q, k and v for one fused op, with the op's keyword arguments.

    The leading axes broadcast: some are 1 on the query side or on the key
    side, and the query side may lack the first one.  ``grid`` draws a
    (K, P) divided-attention layout; otherwise Sq and Sk are free, down to 1.
    """
    heads, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    sides = draw(st.lists(st.sampled_from(["both", "q", "k"]), min_size=len(lead),
                          max_size=len(lead)))
    q_lead = [1 if side == "q" else n for n, side in zip(lead, sides)]
    k_lead = [1 if side == "k" else n for n, side in zip(lead, sides)]
    if lead and draw(st.booleans()):
        q_lead = q_lead[1:]
    kwargs = {}
    if grid:
        kwargs = dict(grid=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                      temporal=draw(st.booleans()))
        sq = sk = 1 + kwargs["grid"][0] * kwargs["grid"][1]
    else:
        sq, sk = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = heads * width
    return (*q_lead, sq, d), (*k_lead, sk, d), heads, kwargs


def assert_matches_reference(fused, composed, inputs, seed):
    """Same value and same gradients, within 1e-12 of each array's largest
    element, and at least 1e-12 absolute for these unit-scale inputs: a
    gradient that is zero in exact arithmetic is roundoff on both sides.  A
    gradient that is exactly zero in the reference must be exactly zero."""
    w = Tensor(np.random.default_rng(seed).normal(size=fused().shape))
    results = []
    for fn in (fused, composed):
        for x in inputs:
            x.grad = None
        out = fn()
        T.tsum(out * w).backward()
        results.append([out.data] + [x.grad for x in inputs])
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert want.any() or not got.any()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(np.abs(want).max(), 1.0))


class TestFusedMixingOps:
    """``attention`` and ``cosine_gate`` against their composed references
    over random shapes, and against the finite-difference oracle."""

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(mixing_inputs), seeds)
    def test_attention_matches_composed_path(self, case, seed):
        q_shape, k_shape, heads, kwargs = case
        rng = np.random.default_rng(seed)
        q, k, v = _rand(rng, q_shape), _rand(rng, k_shape), _rand(rng, k_shape)
        assert_matches_reference(lambda: T.attention(q, k, v, heads, **kwargs),
                                 lambda: composed_attention(q, k, v, heads, **kwargs),
                                 [q, k, v], seed)

    @settings(max_examples=40, deadline=None)
    @given(mixing_inputs(grid=False), st.sampled_from([None, "token", "key"]),
           st.sampled_from([0.0, 1e-9]), seeds)
    def test_cosine_gate_matches_composed_path(self, case, floored, size, seed):
        q_shape, k_shape, heads, _ = case
        rng = np.random.default_rng(seed)
        q, k, v = _rand(rng, q_shape), _rand(rng, k_shape), _rand(rng, q_shape)
        # A row whose norm sits under the floor: a visual token (its query and
        # value rows) or a text key, all-zero or just nonzero.
        if floored == "token":
            q.data[..., 0, :] *= size
            v.data[..., 0, :] *= size
        elif floored == "key":
            k.data[..., 0, :] *= size
        assert_matches_reference(lambda: T.cosine_gate(q, k, v, heads, 1e-8),
                                 lambda: composed_gate(q, k, v, heads, 1e-8),
                                 [q, k, v], seed)

    @pytest.mark.parametrize("q_shape, k_shape, kwargs", [
        ((2, 1, 6), (2, 5, 6), {}),                          # readout: Sq = 1
        ((3, 4, 6), (3, 1, 6), {}),                          # one key
        ((1, 4, 6), (2, 3, 6), {}),                          # broadcast leading axes
        ((2, 7, 6), (2, 7, 6), dict(grid=(2, 3), temporal=True)),
        ((7, 6), (7, 6), dict(grid=(3, 2), temporal=False)),
    ])
    def test_attention_gradients_pass_oracle(self, q_shape, k_shape, kwargs):
        rng = np.random.default_rng(30)
        q, k, v = _rand(rng, q_shape), _rand(rng, k_shape), _rand(rng, k_shape)
        w = Tensor(rng.normal(size=T.attention(q, k, v, 2, **kwargs).shape))
        report = grad_check(lambda: T.tsum(T.attention(q, k, v, 2, **kwargs) * w), [q, k, v])
        assert report.passed, report.max_rel_error

    @pytest.mark.parametrize("q_shape, k_shape", [
        ((5, 6), (1, 6)),
        ((1, 4, 6), (2, 3, 6)),
        ((2, 4, 6), (2, 1, 6)),
    ])
    def test_cosine_gate_gradients_pass_oracle(self, q_shape, k_shape):
        # Row 1 is an all-zero token: its norm sits under the floor.
        rng = np.random.default_rng(31)
        q, k, v = _rand(rng, q_shape), _rand(rng, k_shape), _rand(rng, q_shape)
        q.data[..., 1, :] = v.data[..., 1, :] = 0.0
        w = Tensor(rng.normal(size=T.cosine_gate(q, k, v, 2, 1e-8).shape))
        report = grad_check(lambda: T.tsum(T.cosine_gate(q, k, v, 2, 1e-8) * w), [q, k, v])
        assert report.passed, report.max_rel_error

    def test_one_query_row_backward_keeps_the_matmul_bits(self):
        # With one query row the backward makes dk and dv as broadcast
        # multiplies, not products over an inner size of 1; they must be the
        # products' bits, here at the bench readout's key-by-query
        # (2, 8, 785, 1) x (2, 8, 1, 32).
        rng = np.random.default_rng(33)
        for dtype in (np.float32, np.float64):
            q, g = (rng.normal(size=(2, 8, 1, 32)).astype(dtype) for _ in range(2))
            k, v = (rng.normal(size=(2, 8, 785, 32)).astype(dtype) for _ in range(2))
            outer = rng.normal(size=(2, 8, 785, 1)).astype(dtype)
            assert (outer * g).tobytes() == np.matmul(outer, g).tobytes()
            scale = np.asarray(0.25, dtype=dtype)
            probs = T._key_probs(q, k, scale)
            assert probs.shape == (2, 8, 785, 1)
            dq, dk, dv = T._attend_backward(g, probs, q, k, v, scale, (None, None, None))
            dp = np.matmul(v, g.swapaxes(-1, -2))
            ds = (dp - np.matmul(np.ones(785, dtype), probs * dp)[..., None, :]) * probs * scale
            assert dq.tobytes() == np.matmul(ds.swapaxes(-1, -2), k).tobytes()
            assert dk.tobytes() == np.matmul(ds, q).tobytes()
            assert dv.tobytes() == np.matmul(probs, g).tobytes()

    def test_one_key_gate_backward_keeps_the_matmul_bits(self, monkeypatch):
        # With one text key the gate's backward makes dq as a broadcast
        # multiply, not a product over an inner size of 1; every gradient must
        # keep the product's bits, here at a bench refiner gate: 785 tokens of
        # width 256 in 8 heads.  The product form is the multiply swapped for
        # np.matmul in the module's numpy.
        rng = np.random.default_rng(34)
        for dtype in (np.float32, np.float64):
            q, v = (Tensor(rng.normal(size=(2, 785, 256)).astype(dtype), requires_grad=True)
                    for _ in range(2))
            k = Tensor(rng.normal(size=(2, 1, 256)).astype(dtype), requires_grad=True)
            w = Tensor(rng.normal(size=q.shape).astype(dtype))
            grads = []
            for multiply in (np.multiply, np.matmul):
                monkeypatch.setattr(T, "np", SimpleNamespace(**{**vars(np), "multiply": multiply}))
                q.grad = k.grad = v.grad = None
                T.tsum(T.cosine_gate(q, k, v, 8, 1e-8) * w).backward()
                grads.append([t.grad.tobytes() for t in (q, k, v)])
            assert grads[0] == grads[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 5), st.sampled_from([np.float32, np.float64]),
           seeds)
    @example(4, 2, np.float32, 0).via("a column whose max is a tie of +0 and -0")
    def test_key_max_is_numpy_max(self, keys, queries, dtype, seed):
        # Mostly zeros of both signs and -1, so columns tie often, many at a
        # zero max.  numpy's own max returns either zero of such a tie,
        # depending on the layout (one column is reduced another way than
        # several), so the bits are pinned up to the sign of a zero, and
        # exp(x - max), all that the softmax reads of it, bit for bit.
        rng = np.random.default_rng(seed)
        x = rng.choice(np.array([-0.0, 0.0, -1.0, 2.5], dtype), size=(3, keys, queries),
                       p=[0.3, 0.3, 0.3, 0.1])
        got, want = T._key_max(x), x.max(axis=-2, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        assert np.exp(x - got).tobytes() == np.exp(x - want).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), seeds)
    def test_attend_probabilities_are_a_float64_softmax_per_query(self, sq, sk, seed):
        rng = np.random.default_rng(seed)
        q, k = (rng.normal(size=(2, s, 8)).astype(np.float32) for s in (sq, sk))
        probs = T._key_probs(q, k, np.asarray(1.0 / math.sqrt(8), np.float32))
        assert probs.shape == (2, sk, sq) and probs.dtype == np.float32
        scores = np.matmul(q.astype(np.float64), k.astype(np.float64).swapaxes(-1, -2))
        want = np.exp((scores - scores.max(axis=-1, keepdims=True)) / math.sqrt(8))
        want /= want.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(probs.swapaxes(-1, -2), want, rtol=0, atol=1e-6)

    def test_grid_forward_allocates_its_result_after_its_probabilities(self):
        # At the bench refiner's spatial stage, (5, 785, 256) with 8 heads, the
        # softmax's temporaries live and die before the result is allocated, so
        # the peak stays under result + probabilities + a quarter of them.
        rng = np.random.default_rng(34)
        q, k, v = (Tensor(rng.normal(size=(5, 785, 256)).astype(np.float32)) for _ in range(3))
        result_bytes, probs_bytes = 5 * 785 * 256 * 4, 5 * 8 * 16 * 49 * 49 * 4
        tracemalloc.start()
        try:
            with T.no_grad():
                T.attention(q, k, v, 8, grid=(16, 49))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < result_bytes + probs_bytes * 1.25, peak

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(32)
        q, k, v = (Tensor(rng.normal(size=(2, 7, 6)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        for out in (T.attention(q, k, v, 2), T.attention(q, k, v, 3, grid=(2, 3)),
                    T.cosine_gate(q, k, v, 2, 1e-8)):
            assert out.dtype == np.float32
            T.tsum(out).backward()
            assert all(x.grad.dtype == np.float32 for x in (q, k, v))


class TestMlp:
    """``mlp``, the one node of a two-layer GELU MLP, against a numpy
    reference and the finite-difference oracle."""

    @staticmethod
    def weights(rng, d, hidden, out):
        return [_rand(rng, (d, hidden)), _rand(rng, hidden), _rand(rng, (hidden, out)),
                _rand(rng, out)]

    def test_value_matches_numpy(self):
        rng = np.random.default_rng(40)
        x, skip = _rand(rng, (2, 3, 5)), _rand(rng, (2, 3, 4))
        w1, b1, w2, b2 = params = self.weights(rng, 5, 7, 4)
        h = x.data @ w1.data + b1.data
        gelu = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h ** 3)))
        want = gelu @ w2.data + b2.data
        np.testing.assert_allclose(T.mlp(x, *params, None).data, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(T.mlp(x, *params, residual=skip).data, want + skip.data,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("x_shape, skip_shape", [
        ((2, 3, 5), None),
        ((2, 3, 5), (2, 3, 5)),
        ((2, 3, 5), (1, 3, 5)),      # a skip shared by the batch
        ((3, 1, 5), (3, 1, 5)),      # one row per sequence
        ((1, 5), None),
    ])
    def test_gradients_pass_oracle(self, x_shape, skip_shape):
        rng = np.random.default_rng(41)
        x = _rand(rng, x_shape)
        params = self.weights(rng, 5, 6, 5)
        skip = None if skip_shape is None else _rand(rng, skip_shape)
        w = Tensor(rng.normal(size=x_shape))
        report = grad_check(lambda: T.tsum(T.mlp(x, *params, skip) * w),
                            [x, *params, *([] if skip is None else [skip])])
        assert report.passed, report.max_rel_error


SMALL_BLOCK = 40   # values; at the shapes below every blocked chain ends in a ragged block

# op, its input shapes and further arguments: LayerNorm rows of 8 go 5 to a block
# (21 rows), GELU rows of 16 go 2 (21 rows), the gate's head rows of 4 go 10 (42
# rows), and attention's key-by-query matrices of 12 values go 3 (10 matrices), of
# 4 values 10 (18 matrices) and its CLS column of 7 values 5 (6 columns).
BLOCKED_OPS = [
    ("layer_norm", [(3, 7, 8), (8,), (8,)], {}),
    ("mlp", [(3, 7, 8), (8, 16), (16,), (16, 8), (8,), (3, 7, 8)], {}),
    ("cosine_gate", [(3, 7, 8), (3, 2, 8), (3, 7, 8)], dict(heads=2, floor=1e-8)),
    ("attention", [(5, 4, 6), (5, 3, 6), (5, 3, 6)], dict(heads=2)),
    ("attention", [(3, 7, 8)] * 3, dict(heads=2, grid=(3, 2), temporal=False)),
    ("attention", [(3, 7, 8)] * 3, dict(heads=2, grid=(2, 3), temporal=True)),
]


class TestRowBlocks:
    """The fused ops run their elementwise chains over row blocks of
    ``T.BLOCK_VALUES`` values.  Gradcheck's tiny shapes fit one block, so
    these tests patch the block down to a few rows."""

    @staticmethod
    def inputs(shapes, dtype, seed=50):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                for shape in shapes]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name, shapes, kwargs", BLOCKED_OPS)
    def test_block_size_changes_no_bit(self, name, shapes, kwargs, dtype, monkeypatch):
        results = []
        for block in (T.BLOCK_VALUES, SMALL_BLOCK):
            monkeypatch.setattr(T, "BLOCK_VALUES", block)
            tensors = self.inputs(shapes, dtype)
            out = getattr(T, name)(*tensors, **kwargs)
            w = Tensor(np.random.default_rng(51).normal(size=out.shape).astype(dtype))
            T.tsum(out * w).backward()
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in tensors])
        assert results[0] == results[1]

    @pytest.mark.parametrize("name, shapes, kwargs", BLOCKED_OPS)
    def test_gradients_pass_oracle_in_small_blocks(self, name, shapes, kwargs, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_VALUES", SMALL_BLOCK)
        tensors = self.inputs(shapes, np.float64)
        if name == "mlp":    # a GELU away from its linear part
            for t in tensors[1:5]:
                t.data *= 0.5
        out_shape = getattr(T, name)(*tensors, **kwargs).shape
        w = Tensor(np.random.default_rng(52).normal(size=out_shape))
        report = grad_check(lambda: T.tsum(getattr(T, name)(*tensors, **kwargs) * w), tensors)
        assert report.passed, report.max_rel_error

    @staticmethod
    def blocks(shape, block, monkeypatch) -> list[tuple]:
        """The block shapes ``_blockwise`` hands its chain for an array of ``shape``."""
        monkeypatch.setattr(T, "BLOCK_VALUES", block)
        seen = []
        T._blockwise(lambda a: seen.append(a.shape), np.empty(shape))
        return seen

    def test_a_block_holds_at_most_block_values_and_at_least_one_entry(self, monkeypatch):
        assert self.blocks((21, 8), 40, monkeypatch) == [(5, 8)] * 4 + [(1, 8)]
        assert self.blocks((100,), 40, monkeypatch) == [(40,), (40,), (20,)]
        assert self.blocks((3, 2, 4), 40, monkeypatch) == [(3, 2, 4)]
        # Rows wider than a block go one row per block.
        assert self.blocks((3, 50), 40, monkeypatch) == [(1, 50)] * 3

    def test_a_chain_writes_into_the_callers_arrays(self, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_VALUES", 6)
        total, a = np.zeros((4, 3, 2)), np.arange(24.0).reshape(4, 3, 2)

        def add_product(total, a, b):
            total += a * b

        T._blockwise(add_product, *map(T._rows, (total, a, np.full((4, 3, 1), 2.0))))
        assert (total == 2 * a).all()

    def test_rows_refuse_an_array_whose_reshape_would_copy(self):
        x = np.zeros((3, 4, 5))
        assert np.shares_memory(T._rows(x), x) and T._rows(x).shape == (12, 5)
        for copied in (np.zeros((4, 3)).T, x.swapaxes(0, 1), x[:, :2, :2]):
            with pytest.raises(ValueError, match="row-major"):
                T._rows(copied)


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

    def test_forward_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(99)
            a = Tensor(rng.normal(size=(8, 8)))
            b = Tensor(rng.normal(size=(8, 8)))
            return T.softmax_stable(T.matmul(a, b)).data

        first, second = run(), run()
        assert (first == second).all()

    def test_second_backward_raises(self):
        # A pass frees the tape behind it, so a second one cannot run, from
        # the same loss or from another that shares a used node.
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = x * 2.0
        z = y * 3.0
        loss = T.tsum(z)
        loss.backward()
        g1 = x.grad.copy()
        for root in (loss, T.tsum(y)):
            with pytest.raises(RuntimeError, match="already freed"):
                root.backward()
        np.testing.assert_array_equal(x.grad, g1)
        assert y._parents == () and z._parents == () and loss._parents == ()

    def test_backward_frees_the_tape_while_the_loss_is_held(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = x * 2.0
        interior = weakref.ref(y.data)
        loss = T.tsum(T.sqrt(y * y + 1.0))
        del y
        loss.backward()
        assert interior() is None
        assert loss.item() > 0 and x.grad is not None

    def test_tape_is_freed_by_reference_counting(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        gain = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            h = T.layer_norm(x, gain, bias) + T.sqrt(x) * T.matmul(x, w, bias, x) + x / x
            h = T.concat([T.mlp(h, w, bias, w, gain, residual=h), _square(h), T.sqrt(x)],
                         axis=0)
            h = T.softmax_stable(T.matmul(T.take(h, [0, 2, 2]), T.swapaxes(h, 0, 1)))
            h = T.straight_through(h, np.eye(h.shape[-1])[np.argmax(h.data, axis=-1)]) * h
            loss = T.tsum(T.nll(T.reshape(h, (1, -1)), [2]) * T.tsum(h)) + T.tsum(x)
            loss.backward()
            del h, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="requires a scalar output"):
            (x * 2.0).backward()

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ValueError, match="2-D weight"):
            T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError, match="2-D weight"):
            T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 2))))


class TestNoGrad:
    def test_records_no_parents_or_closures(self):
        x = Tensor([0.5, 1.5], requires_grad=True)
        taped = T.tsum(T.sqrt(x) * x)
        with T.no_grad():
            free = T.tsum(T.sqrt(x) * x)
        assert taped.requires_grad
        assert not free.requires_grad
        assert free._parents == () and free._backward is None
        assert free.data.tobytes() == taped.data.tobytes()

    def test_nests(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_restores_the_flag_after_an_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with T.no_grad():
                raise RuntimeError("inside")
        assert (x * 2.0).requires_grad


# Twenty passes that each hold four 4 MiB float32 arrays at once and then
# free them, as a tape does; prints the minor faults of passes 2-20.
_HEAP_PASSES = """
import resource
import numpy as np
import glimpse.tensor

faults = []
for _ in range(20):
    tape = [np.full(1 << 20, 1.0, np.float32) for _ in range(4)]
    del tape
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(faults[-1] - faults[0])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_import_keeps_freed_arrays_in_the_heap():
    # With glibc's dynamic thresholds the freed 16 MiB goes back to the
    # kernel after every pass and is faulted in again (about 2k faults a
    # pass); kept in the heap, the later passes fault less than one array.
    env = {**os.environ, "PYTHONPATH": str(Path(T.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _HEAP_PASSES], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert int(done.stdout) < 1024


# Six passes that each hold 96 MiB in 4 MiB float32 arrays and free them newest
# first, as backward frees a tape; prints the minor faults of passes 2-6.
_TAPE_PASSES = """
import resource
import numpy as np
import glimpse.tensor

faults = []
for _ in range(6):
    tape = [np.full(1 << 20, 1.0, np.float32) for _ in range(24)]
    while tape:
        tape.pop()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(faults[-1] - faults[0])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_a_tape_freed_from_the_top_of_the_heap_stays_in_it():
    # Trimmed once 64 MiB of the heap's top is free, each pass would fault
    # in about 16k pages again; kept, the later passes fault less than one array.
    env = {**os.environ, "PYTHONPATH": str(Path(T.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _TAPE_PASSES], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert int(done.stdout) < 1024
