"""Newton minimizer with a derivative line search for the convex kernel energies.

The inner problems minimize (1/p) energy(w) - <b, w>, whose Hessian is a
weighted graph Laplacian over the kernel pairs.  Pure first-order descent
stalls far above the required 1e-10 optimality on these kernels, so each
iterate takes the Newton direction d of H d = g, one Cholesky solve of
the fresh Hessian, which LAPACK factors in place.  No shift, scaling or
refinement is applied: the Hessian is SPD (hessian_omega floors exact
pair ties), and a Cholesky solution does not depend on a symmetric
diagonal scaling of the matrix.  The full Newton step overshoots or falls
short across near-tie pairs for p != 2 (the pair weight |w_i - w_j|^(p-2)
blows up or vanishes there), so the step length comes from a safeguarded
secant search on the directional derivative phi'(a) = -<grad J(x - a d), d>.
phi is convex, so phi' is monotone; the gradient comes with every
objective evaluation, and phi' stays informative after the objective
itself saturates in float.  Once it has, a step that contracts the
gradient is accepted on that evidence.  minimize_energy evaluates the
objective and its gradient in one pass over the kernel pairs
(EnergyKernel.energy_grad).

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

_MAX_TRIALS = 30  # line-search trials per iterate


@dataclass
class DescentResult:
    x: NDArray
    value: float
    grad_norm: float
    evaluations: int
    converged: bool


def _newton_direction(h: NDArray, g: NDArray) -> NDArray | None:
    """d with h d = g by one Cholesky solve that overwrites h; None when h is
    not numerically SPD or d is not finite."""
    # h is exactly symmetric, so its transpose is the Fortran array LAPACK
    # factors in place
    try:
        factor = scipy.linalg.cho_factor(h.T, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    d = scipy.linalg.cho_solve(factor, g, check_finite=False)
    return d if np.all(np.isfinite(d)) else None


def minimize_convex(
    value_grad: Callable[[NDArray], tuple[float, NDArray]],
    hessian: Callable[[NDArray], NDArray],
    x0: NDArray,
    gtol: float,
    max_evals: int,
) -> DescentResult:
    """Minimize a convex objective from x0 until ||grad||_2 <= gtol.

    hessian(x) returns the dense curvature matrix (already floored against
    exact pair ties) as a fresh array, which the solver overwrites with its
    Cholesky factor.  Each iterate solves H d = g and searches the step
    x - a d on the nondecreasing phi'(a) = -<grad f(x - a d), d>: from
    a = 1 the step doubles while phi' < 0, then regula falsi steps, kept
    10% inside the bracket, follow.
    A trial that does not raise f beyond float noise (4 eps |f|) is
    accepted when its gradient meets gtol, when it lowers f beyond that
    noise and |phi'| <= 0.1 |phi'(0)|, or when it leaves f flat in float
    and the gradient norm has contracted to 0.9 ||g||.  Stops on
    gtol, when max_evals objective evaluations are spent, when the
    factorization fails or d is not a descent direction, or when none of
    _MAX_TRIALS trials along d is accepted, which signals the float floor
    of the problem rather than missing optimality.  converged means
    ||grad|| <= gtol.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_grad(x)
    evals = 1
    gnorm = float(np.linalg.norm(g))

    while gnorm > gtol and evals < max_evals:
        d = _newton_direction(hessian(x), g)
        if d is None or float(np.dot(g, d)) <= 0.0:
            break
        f_noise = 4.0 * np.finfo(float).eps * abs(f)
        lo, dlo = 0.0, -float(np.dot(g, d))
        hi = dhi = None
        slope_tol = -0.1 * dlo
        a = 1.0
        for _ in range(min(_MAX_TRIALS, max_evals - evals)):
            x_new = x - a * d
            f_new, g_new = value_grad(x_new)
            evals += 1
            da = -float(np.dot(g_new, d))
            gnorm_new = float(np.linalg.norm(g_new))
            if f_new <= f + f_noise and (
                gnorm_new <= gtol
                or (abs(da) <= slope_tol if f_new < f - f_noise else gnorm_new <= 0.9 * gnorm)
            ):
                break
            if da < 0.0 and f_new <= f + f_noise:
                lo, dlo = a, da
            else:
                hi, dhi = a, da
            if hi is None:
                a *= 2.0
                continue
            width = hi - lo
            a = lo - dlo * width / (dhi - dlo) if dhi > dlo else lo + 0.5 * width
            a = min(max(a, lo + 0.1 * width), hi - 0.1 * width)
        else:
            break  # no trial resolves progress along d: the float floor
        x, f, g, gnorm = x_new, f_new, g_new, gnorm_new

    return DescentResult(x, f, gnorm, evals, gnorm <= gtol)


def minimize_energy(
    kern: EnergyKernel,
    b: NDArray,
    x0: NDArray | None,
    gtol: float,
    max_evals: int,
) -> DescentResult:
    """minimize_convex on (1/p) kern.energy(w) - <b, w>.

    With x0 None the solve starts from the tie-free solution v of Q v = b,
    Q = kern.quad_matrix (built only for this start), scaled to the
    objective's exact minimizer along v, (<b, v>/energy(v))^(1/(p-1)) v: at
    a much smaller scale a p < 2 energy's curvature overestimates wildly
    and Newton crawls.
    """
    p = kern.params.p
    if x0 is None:
        x0 = scipy.linalg.cho_solve(scipy.linalg.cho_factor(kern.quad_matrix), b)
        e_v, bv = kern.energy(x0), float(np.dot(b, x0))
        if e_v > 0.0 and bv > 0.0:
            x0 = (bv / e_v) ** (1.0 / (p - 1.0)) * x0

    def value_grad(w: NDArray):
        energy, grad = kern.energy_grad(w)
        return energy / p - float(np.dot(b, w)), grad / p - b

    return minimize_convex(value_grad, kern.hessian_omega, x0, gtol, max_evals)
