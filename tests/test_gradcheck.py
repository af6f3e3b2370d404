"""Behaviour of the finite-difference oracle itself."""

import dataclasses
import inspect

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.gradcheck import EPSILON, TOLERANCE, GradReport, grad_check
from glimpse.tensor import Tensor


def test_quadratic_is_exact():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    report = grad_check(lambda: T.tsum(x * x), [x], names=["x"])
    assert report.passed
    assert report.max_rel_error["x"] < 1e-6
    # The analytic gradient of sum(x^2) is 2x.
    x.grad = None
    loss = T.tsum(x * x)
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_step_and_bound_are_constants():
    # A bound a caller could set, at nan or 1e9, would pass any backward rule.
    assert (EPSILON, TOLERANCE) == (1e-5, 1e-4)
    assert list(inspect.signature(grad_check).parameters) == ["loss_fn", "params", "names"]
    assert [f.name for f in dataclasses.fields(GradReport)] == ["max_rel_error", "passed"]
    x = Tensor([1.0], requires_grad=True)
    for name, value in (("epsilon", 1e-2), ("tolerance", float("nan"))):
        with pytest.raises(TypeError, match=name):
            grad_check(lambda: T.tsum(x * x), [x], **{name: value})


def test_float32_parameter_or_loss_rejected():
    # At float32 resolution a step of epsilon measures rounding, not the rule.
    w = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="weights is float32"):
        grad_check(lambda: T.tsum(x * w), [x, w], names=["x", "weights"])
    with pytest.raises(ValueError, match="float64 loss"):
        grad_check(lambda: T.tsum(Tensor((x.data * x.data).astype(np.float32))), [x])


def test_hidden_randomness_detected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    state = {"calls": 0}

    def noisy_loss():
        state["calls"] += 1
        return T.tsum(x * float(state["calls"]))

    with pytest.raises(ValueError, match="frozen randomness"):
        grad_check(noisy_loss, [x])


def test_sabotaged_backward_is_caught():
    """A deliberately wrong backward rule must fail the oracle."""
    x = Tensor(np.array([0.7, -0.3, 1.2]), requires_grad=True)

    def corrupted_square(t):
        out = T.Tensor(t.data * t.data)
        out.requires_grad = True
        out._parents = (t,)

        def _bw(g):
            t._accumulate(g * 3.0 * t.data)  # wrong factor on purpose

        out._backward = _bw
        return out

    report = grad_check(lambda: T.tsum(corrupted_square(x)), [x], names=["x"])
    assert not report.passed
    assert report.max_rel_error["x"] > 0.1


def test_only_the_analytic_pass_is_taped():
    x = Tensor([0.3, -1.1], requires_grad=True)
    taped = []

    def loss():
        out = T.tsum(T.sqrt(x * x + 1.0) * x)
        taped.append(out.requires_grad)
        return out

    assert grad_check(loss, [x]).passed
    # Two probes, one analytic pass, two forwards per element.
    assert taped == [False, False, True] + [False] * 4


def test_report_carries_per_parameter_errors():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    report = grad_check(lambda: T.tsum(T.sqrt(a * a + 1.0) * b), [a, b], names=["a", "b"])
    assert report.passed
    assert set(report.max_rel_error) == {"a", "b"}
    assert all(report.max_rel_error[name] < TOLERANCE for name in ("a", "b"))
