import numpy as np
import pytest

from fraceig import FracParams
from fraceig._descent import _REG0, _solve_damped
from fraceig.core import energy_kernel


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
