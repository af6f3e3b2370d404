"""Behaviour of the finite-difference oracle itself."""

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.gradcheck import grad_check
from glimpse.tensor import Tensor


def test_quadratic_is_exact():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    report = grad_check(lambda: T.tsum(x * x), [x], epsilon=1e-5, names=["x"])
    assert report.passed
    assert report.max_rel_error["x"] < 1e-6
    # The analytic gradient of sum(x^2) is 2x.
    x.grad = None
    loss = T.tsum(x * x)
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_epsilon_range_enforced():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError, match="epsilon"):
        grad_check(lambda: T.tsum(x * x), [x], epsilon=1e-2)
    with pytest.raises(ValueError, match="epsilon"):
        grad_check(lambda: T.tsum(x * x), [x], epsilon=1e-8)


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
        out = T.tsum(T.tanh(x) * x)
        taped.append(out.requires_grad)
        return out

    assert grad_check(loss, [x]).passed
    # Two probes, one analytic pass, two forwards per element.
    assert taped == [False, False, True] + [False] * 4


def test_report_carries_per_parameter_errors():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    report = grad_check(
        lambda: T.tsum(T.tanh(a) * b), [a, b], names=["a", "b"], epsilon=1e-5
    )
    assert report.passed
    assert set(report.max_rel_error) == {"a", "b"}
    assert set(report.max_abs_error) == {"a", "b"}
    assert report.epsilon == 1e-5
    assert "PASS" in report.summary()
