"""Finite-difference gradient oracle.

The oracle compares reverse-mode gradients against central differences
computed from nothing but repeated forward evaluations, so it stays
independent of the backward implementation it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, no_grad

LossFn = Callable[[], Tensor]

# The oracle's default central-difference step and relative-error bound.
EPSILON, TOLERANCE = 1e-5, 1e-4


@dataclass
class GradReport:
    """Outcome of one oracle run over a set of parameters."""

    epsilon: float
    tolerance: float
    max_rel_error: dict[str, float] = field(default_factory=dict)
    passed: bool = True

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)


def grad_check(
    loss_fn: LossFn,
    params: Sequence[Tensor],
    epsilon: float = EPSILON,
    tolerance: float = TOLERANCE,
    names: Sequence[str] | None = None,
) -> GradReport:
    """Check reverse-mode gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must rebuild its graph from the live ``params`` on every call
    and be deterministic: any randomness has to be frozen by seed, which is
    probed by evaluating the loss twice before perturbing anything.  The
    relative error uses ``max(|analytic|, |numeric|, 1e-8)`` as denominator.
    Only the analytic pass records a tape; the probe and finite-difference
    forwards run under ``no_grad``.  Every parameter and the loss must be
    float64: at float32 resolution a step of ``epsilon`` measures rounding,
    not the backward rule.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    if names is None:
        names = [f"param{i}" for i in range(len(params))]
    if len(names) != len(params):
        raise ValueError("names/params length mismatch")
    for name, p in zip(names, params):
        if p.dtype != np.float64:
            raise ValueError(f"oracle needs float64 parameters; {name} is {p.dtype}")

    with no_grad():
        probe = loss_fn()
        probe_a = probe.item()
        probe_b = loss_fn().item()
    if probe.dtype != np.float64:
        raise ValueError(f"oracle needs a float64 loss; the loss is {probe.dtype}")
    if probe_a != probe_b:
        raise ValueError("oracle requires frozen randomness")

    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    report = GradReport(epsilon=epsilon, tolerance=tolerance)
    for name, p, grad_a in zip(names, params, analytic):
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                f_plus = loss_fn().item()
                flat[i] = orig - epsilon
                f_minus = loss_fn().item()
                flat[i] = orig
                numeric[i] = (f_plus - f_minus) / (2.0 * epsilon)
        numeric = numeric.reshape(p.data.shape)
        denom = np.maximum(np.maximum(np.abs(grad_a), np.abs(numeric)), 1e-8)
        rel = np.abs(grad_a - numeric) / denom
        report.max_rel_error[name] = float(rel.max()) if rel.size else 0.0
        if report.max_rel_error[name] >= tolerance:
            report.passed = False
    return report
