import numpy as np
import pytest

from fraceig import FracParams
from fraceig._descent import _REG0, _solve_damped, minimize_convex
from fraceig.core import energy_kernel


def _flat_quadratic(n: int = 6, offset: float = 1e12, seed: int = 80):
    """A quadratic lifted by a large constant, started next to its minimizer.

    Every damped trial predicts a decrease far below 4 eps |f|, so the
    objective alone cannot judge a step.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x0 = np.linalg.solve(a, b) + 1e-6 * rng.standard_normal(n)
    calls = []

    def value_grad(x):
        calls.append(1)
        return offset + 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

    return value_grad, (lambda x: a), a, x0, calls


def test_floor_exit_returns_at_first_unresolvable_trial():
    value_grad, hessian, quad, x0, calls = _flat_quadratic()
    floor_calls = []

    def floor(x):
        floor_calls.append(1)
        return 1.0

    res = minimize_convex(value_grad, hessian, quad, x0, 1e-12, 1000, floor)
    assert len(calls) <= 2
    assert len(floor_calls) == 1
    np.testing.assert_array_equal(res.x, x0)
    assert res.converged is False  # converged still means ||grad|| <= gtol


def test_floor_below_gradient_keeps_the_plain_loop():
    # gtol 0 is unreachable: without a usable floor the loop goes on ramping
    # the damping through rejected trials until it gives up
    value_grad, hessian, quad, x0, calls = _flat_quadratic()
    plain = minimize_convex(value_grad, hessian, quad, x0, 0.0, 1000)
    plain_calls = len(calls)
    calls.clear()
    floored = minimize_convex(value_grad, hessian, quad, x0, 0.0, 1000, lambda x: 0.0)
    assert plain_calls > 10 and not plain.converged
    assert len(calls) == plain_calls
    assert floored.evaluations == plain.evaluations
    np.testing.assert_array_equal(floored.x, plain.x)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_damped_solve_keeps_inputs_and_matches_dense_solve(box8, p):
    kern = energy_kernel(box8, FracParams(s=0.5, p=p))
    rng = np.random.default_rng(81)
    w = rng.standard_normal(box8.n_omega)
    g = rng.standard_normal(box8.n_omega)
    h, quad = kern.hessian_omega(w), kern.quad_matrix
    h_before, quad_before = h.tobytes(), quad.tobytes()
    mu = 1e-3
    d = _solve_damped(h, quad, g, mu)
    assert h.tobytes() == h_before and quad.tobytes() == quad_before
    dense = np.linalg.solve(h + (mu + _REG0) * quad, g)
    assert np.linalg.norm(d - dense) <= 1e-12 * np.linalg.norm(dense)
