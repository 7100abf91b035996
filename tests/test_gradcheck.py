"""The finite-difference harness itself, on functions with known gradients."""

import numpy as np
import pytest
from composed_reference import gelu
from gradcheck import grad_check

from epicast.tensor import Parameter, add, constant, matmul, mul, transpose, tsum


def test_quadratic_form_is_machine_precision():
    # central differences are exact on quadratics, so only roundoff remains
    rng = np.random.default_rng(0)
    A = constant(rng.normal(size=(6, 6)))
    p = Parameter(rng.normal(size=(6, 1)), name="p")

    def loss():
        return tsum(matmul(matmul(transpose(p, (1, 0)), A), p))

    report = grad_check(loss, [p])
    assert report.max_rel_error < 1e-9


def test_two_layer_gelu_network_50_params():
    rng = np.random.default_rng(5)
    W1 = Parameter(rng.normal(size=(4, 6)), name="W1")
    b1 = Parameter(rng.normal(size=6), name="b1")
    W2 = Parameter(rng.normal(size=(6, 3)), name="W2")
    b2 = Parameter(rng.normal(size=3), name="b2")
    x = constant(rng.normal(size=(5, 4)))
    weights = constant(rng.normal(size=(5, 3)))

    params = [W1, b1, W2, b2]
    assert sum(p.data.size for p in params) >= 50

    def loss():
        h = gelu(add(matmul(x, W1), b1))
        return tsum(mul(add(matmul(h, W2), b2), weights))

    report = grad_check(loss, params)
    assert report.max_rel_error < 1e-4


def test_constant_function_reports_zero_error():
    p = Parameter(np.ones(4), name="p")

    def loss():
        return tsum(mul(p, 0.0))

    report = grad_check(loss, [p])
    assert report.max_rel_error == 0.0


def test_frozen_parameter_is_a_named_error():
    live = Parameter(np.ones(2), name="live")
    frozen = Parameter(np.ones(2), name="backbone.ln_f.g", frozen=True)
    with pytest.raises(ValueError, match=r"'backbone.ln_f.g' is frozen; frozen parameters have no gradient"):
        grad_check(lambda: tsum(mul(live, frozen)), [live, frozen])


def test_non_scalar_or_non_finite_f_is_a_named_error():
    p = Parameter(np.ones(2), name="p")
    for f in (lambda: mul(p, 2.0), lambda: 1.0):
        with pytest.raises(ValueError, match="grad_check requires f to return a scalar Tensor"):
            grad_check(f, [p])

    def overflows():
        with np.errstate(over="ignore"):
            return tsum(mul(p, 1e308))

    with pytest.raises(ValueError, match="f is not finite at the current parameters"):
        grad_check(overflows, [p])
