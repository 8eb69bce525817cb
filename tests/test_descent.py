import numpy as np
import pytest

from fraceig import FracParams
from fraceig._descent import _newton_direction, minimize_convex, minimize_energy
from fraceig.core import energy_kernel


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_newton_direction_matches_dense_solve(box8, p, cho_calls):
    kern = energy_kernel(box8, FracParams(s=0.5, p=p))
    rng = np.random.default_rng(81)
    w = rng.standard_normal(box8.n_omega)
    g = rng.standard_normal(box8.n_omega)
    h = kern.hessian_omega(w)
    dense = np.linalg.solve(h, g)
    d = _newton_direction(h, g)
    assert len(cho_calls) == 1
    assert np.linalg.norm(d - dense) <= 1e-12 * np.linalg.norm(dense)


def test_newton_direction_refuses_an_indefinite_matrix():
    h = np.diag([1.0, -1.0])
    assert _newton_direction(h, np.ones(2)) is None


def test_minimize_energy_builds_q_only_for_its_default_start(box8, monkeypatch):
    kern = energy_kernel(box8, FracParams(s=0.5, p=1.5))
    quad = type(kern).quad_matrix
    reads = []
    monkeypatch.setattr(type(kern), "quad_matrix",
                        property(lambda self: reads.append(1) or quad.fget(self)))
    b = np.random.default_rng(3).standard_normal(box8.n_omega) * kern.hn
    res = minimize_energy(kern, b, None, 1e-10 * np.linalg.norm(b), 1000)
    assert res.converged and len(reads) == 1
    minimize_energy(kern, b, res.x, 1e-10 * np.linalg.norm(b), 1000)
    assert len(reads) == 1


def _separable(p, b):
    """sum |x_i|^p / p - b_i x_i, its gradient and its (tie-floored) Hessian."""

    def value_grad(x):
        return float(np.sum(np.abs(x) ** p) / p - b @ x), np.sign(x) * np.abs(x) ** (p - 1.0) - b

    def hessian(x):
        ax = np.maximum(np.abs(x), 1e-14 * np.max(np.abs(x)))
        return np.diag((p - 1.0) * ax ** (p - 2.0))

    return value_grad, hessian


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_reaches_closed_form_minimizer(p):
    b = np.random.default_rng(5).standard_normal(20)
    value_grad, hessian = _separable(p, b)
    res = minimize_convex(value_grad, hessian, np.ones(20), 1e-10, 1000)
    assert res.converged and res.grad_norm <= 1e-10
    exact = np.sign(b) * np.abs(b) ** (1.0 / (p - 1.0))
    assert np.linalg.norm(res.x - exact) <= 1e-10 * np.linalg.norm(exact)


def test_flat_objective_exits_before_the_budget():
    # gtol = 0 is below every float floor: the solver stops once no trial
    # along the Newton direction is accepted, not on its budget
    b = np.random.default_rng(5).standard_normal(20)
    value_grad, hessian = _separable(3.0, b)
    res = minimize_convex(value_grad, hessian, np.ones(20), 0.0, 10000)
    assert not res.converged
    assert res.evaluations <= 200
    assert res.grad_norm <= 1e-14
