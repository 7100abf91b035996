"""Finite-difference validation of analytic gradients: the tests' oracle for
every hand-written backward.

Central differences are the independent oracle here: they only ever call the
forward pass, so agreement with the tape's backward pass is meaningful
evidence that both are right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from epicast.tensor import Parameter, Tensor


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    n_params: int
    per_param: dict = field(default_factory=dict)


def relative_error(analytic: float, numeric: float, guard: float = 1e-6) -> float:
    """|a - n| scaled by the larger magnitude, or by `guard` when both sit
    below it (so 0 when both are 0).

    The guard keeps finite-difference noise on near-zero gradients from
    registering as huge relative errors.
    """
    denom = max(abs(analytic), abs(numeric))
    if denom < guard:
        denom = guard
    return abs(analytic - numeric) / denom


def grad_check(f, params: list[Parameter], h: float = 1e-5, guard: float = 1e-6) -> GradCheckReport:
    """Compare tape gradients of the scalar `f()` against central differences.

    `f` must be a deterministic zero-argument callable that rebuilds its
    computation from the current parameter values on every call.  Every
    parameter must be trainable: a frozen one has no gradient to check.
    """
    for p in params:
        if p.frozen:
            raise ValueError(
                f"grad_check: parameter {p.name!r} is frozen; frozen parameters have no gradient"
            )
    loss = f()
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ValueError("grad_check requires f to return a scalar Tensor")
    if not np.isfinite(loss.data):
        raise ValueError("grad_check: f is not finite at the current parameters")
    for p in params:
        p.zero_grad()
    if loss.requires_grad:
        loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    worst_name = ""
    per_param: dict[str, float] = {}
    for p in params:
        worst_here = 0.0
        # normalize: numpy arithmetic can degrade 0-d arrays to immutable
        # scalars, which would silently swallow the in-place perturbations
        p.data = np.asarray(p.data, dtype=np.float64)
        # .flat writes through to the underlying buffer even for 0-d arrays,
        # where reshape(-1) may silently hand back a copy
        for i in range(p.data.size):
            orig = p.data.flat[i]
            p.data.flat[i] = orig + h
            f_plus = float(f().data)
            p.data.flat[i] = orig - h
            f_minus = float(f().data)
            p.data.flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = relative_error(float(analytic[p.name].flat[i]), numeric, guard)
            if err > worst_here:
                worst_here = err
        per_param[p.name] = worst_here
        if worst_here >= worst:
            worst = worst_here
            worst_name = p.name
    return GradCheckReport(max_rel_error=worst, worst_param=worst_name, n_params=len(params), per_param=per_param)
