"""Damped Newton minimizer for the convex kernel energies.

The inner problems minimize (1/p) energy(w) - <b, w>, whose Hessian is a
weighted graph Laplacian over the kernel pairs.  Pure first-order descent
stalls far above the required 1e-10 optimality on these kernels, and an
undamped Newton step oscillates across near-tie pairs for p < 2 (the pair
weight |w_i - w_j|^(p-2) makes the gradient concave there), so steps solve
the Levenberg-damped system (H + mu Q) d = g with Q the kernel's fixed SPD
quadratic form (the p = 2 Hessian, built once per inner solve by
minimize_energy).  The damping follows the usual gain-ratio control: it
grows on rejected or poorly modeled steps and decays only when the local
quadratic model tracks the objective.  Each damped system is
Jacobi-equilibrated and polished by one iterative-refinement pass, since
near-tie pairs drive its condition number and a plain Cholesky solve would
lose exactly the digits the inner tolerance asks for; each trial writes
the damped matrix into one n x n buffer that LAPACK factors in place, and
takes the refinement residual from H and Q themselves.  minimize_energy
evaluates the objective and its gradient in one pass over the kernel
pairs (EnergyKernel.energy_grad).  Near the minimum
the objective saturates in float before tight gradient targets are met;
steps that contract the gradient are then accepted on that evidence.

An iterate whose damped trials are all rejected after the damping has
drifted from its fresh value is retried once from fresh damping, since a
float-flat objective can drive the damping to saturation above the floor.
The solver knows no float floor of its own: a caller that owns a stopping
policy (first_eigenpair, solve_dirichlet) applies one through gtol or
after the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

if TYPE_CHECKING:
    from .core import EnergyKernel

_REG0 = 1e-13
_MU_FRESH = 1e-8
_MU_MIN = 1e-14
_MU_MAX = 1e30
_RHO_ACCEPT = 1e-4
_MAX_REJECTS = 60


@dataclass
class DescentResult:
    x: NDArray
    value: float
    grad_norm: float
    evaluations: int
    converged: bool


def _solve_damped(h: NDArray, quad: NDArray, g: NDArray, mu: float) -> NDArray | None:
    """Equilibrated, refined solve of (h + (mu + reg) quad) d = g; h and quad are kept."""
    c = mu + _REG0
    # one n x n buffer, equilibrated in place; the matrix is exactly
    # symmetric, so its transpose is the Fortran array LAPACK factors in
    # place (scaling columns first puts row-then-column scaled entries in
    # the upper triangle the factorization reads)
    ms = np.multiply(quad, c)
    ms += h
    dd = np.sqrt(np.abs(np.diagonal(ms)))
    dd[dd == 0.0] = 1.0
    ms /= dd[None, :]
    ms /= dd[:, None]
    try:
        factor = scipy.linalg.cho_factor(ms.T, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    d = scipy.linalg.cho_solve(factor, g / dd, check_finite=False) / dd
    r = g - h @ d
    r -= c * (quad @ d)
    d += scipy.linalg.cho_solve(factor, r / dd, check_finite=False) / dd
    if not np.all(np.isfinite(d)):
        return None
    return d


def minimize_convex(
    value_grad: Callable[[NDArray], tuple[float, NDArray]],
    hessian: Callable[[NDArray], NDArray],
    quad: NDArray,
    x0: NDArray,
    gtol: float,
    max_evals: int,
) -> DescentResult:
    """Minimize a convex objective from x0 until ||grad||_2 <= gtol.

    hessian(x) returns the dense curvature matrix (already floored against
    exact pair ties); quad is the SPD damping metric.  Stops on gtol, when
    max_evals objective evaluations are spent, or when no damped trial
    from fresh damping improves the objective or contracts the gradient,
    which signals the float floor of the problem rather than missing
    optimality.  converged means ||grad|| <= gtol.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_grad(x)
    evals = 1
    gnorm = float(np.linalg.norm(g))
    mu = _MU_FRESH

    while gnorm > gtol and evals < max_evals:
        h = hessian(x)
        mu_start = mu
        accepted = False
        f_slack = f + 4.0 * np.finfo(float).eps * (abs(f) + 1e-300)
        for _ in range(_MAX_REJECTS):
            d = _solve_damped(h, quad, g, mu)
            if d is None:
                mu = min(4.0 * mu, _MU_MAX)
                continue
            predicted = float(np.dot(g, d)) - 0.5 * float(np.dot(d, h @ d))
            if predicted <= 0.0:
                mu = min(4.0 * mu, _MU_MAX)
                continue
            x_new = x - d
            f_new, g_new = value_grad(x_new)
            evals += 1
            rho = (f - f_new) / predicted
            if f_new < f and rho >= _RHO_ACCEPT:
                if rho >= 0.75:
                    mu = max(mu / 3.0, _MU_MIN)
                elif rho < 0.25:
                    mu = min(2.0 * mu, _MU_MAX)
                accepted = True
                break
            if f_new <= f_slack and float(np.linalg.norm(g_new)) <= 0.9 * gnorm:
                accepted = True  # float-saturated objective, gradient evidence
                break
            mu = min(4.0 * mu, _MU_MAX)
            if evals >= max_evals:
                break
        if not accepted:
            # objective is flat below the resolution of any damped step;
            # from fresh damping a retry would repeat itself exactly
            if mu_start == _MU_FRESH:
                return DescentResult(x, f, gnorm, evals, gnorm <= gtol)
            mu = _MU_FRESH
            continue

        x, f, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))

    return DescentResult(x, f, gnorm, evals, gnorm <= gtol)


def minimize_energy(
    kern: EnergyKernel,
    b: NDArray,
    x0: NDArray | None,
    gtol: float,
    max_evals: int,
) -> DescentResult:
    """minimize_convex on (1/p) kern.energy(w) - <b, w>, damped by kern.quad_matrix.

    Q is built once per call.  With x0 None the solve starts from the
    tie-free solution v of Q v = b, scaled to the objective's exact
    minimizer along v, (<b, v>/energy(v))^(1/(p-1)) v: at a much smaller
    scale a p < 2 energy's curvature overestimates wildly and Newton crawls.
    """
    p = kern.params.p
    quad = kern.quad_matrix
    if x0 is None:
        x0 = scipy.linalg.cho_solve(scipy.linalg.cho_factor(quad), b)
        e_v, bv = kern.energy(x0), float(np.dot(b, x0))
        if e_v > 0.0 and bv > 0.0:
            x0 = (bv / e_v) ** (1.0 / (p - 1.0)) * x0

    def value_grad(w: NDArray):
        energy, grad = kern.energy_grad(w)
        return energy / p - float(np.dot(b, w)), grad / p - b

    return minimize_convex(value_grad, kern.hessian_omega, quad, x0, gtol, max_evals)
