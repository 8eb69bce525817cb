"""First eigenpair of the truncated fractional p-Laplacian.

The solver is an inverse-power outer loop around strictly convex inner
problems: given the current normalized positive iterate u_n with Rayleigh
value lambda_n, the next iterate minimizes

    (1/p) energy(w) - lambda_n * sum_Omega |u_n|^(p-2) u_n w h^N,

is replaced by its absolute value and renormalized.  The energy never
increases under absolute value and the first eigenfunction is signless, so
the Rayleigh values decrease along the outer loop.  The first
eigenfunction is also constant on the orbits of the grid's lattice
symmetry group, so the whole loop runs on one value per orbit through the
folded kernel (energy_kernel(..., fold=True)).

Once the weak residual is at most _NEWTON_SWITCH, each outer step first
tries one Newton step on the bordered eigen-system in (u, lambda), which
converges quadratically: the first eigenvalue is simple and its
eigenfunction positive for every p > 1, so the bordered Jacobian is
nonsingular there.  A solve from a given start tries one at its first
step whatever the residual.  A Newton step that fails to solve, raises
lambda or raises the residual is refused; at or below the switch the
solve then stops if the iterate is at its float floor, and otherwise takes
the inverse-power step.  A solve is converged only at tol or at the
computed floor EnergyKernel.gradient_floor.  For p < 2 the pair weights
|u_i - u_j|^(p-2) blow up at near-ties that the symmetry does not
explain, and a solve may end at that floor rather than at tol.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from ._descent import minimize_energy
from .core import EnergyKernel, GridFunction, energy_kernel, gagliardo_energy, lp_norm, phi_p
from .domain import GridDomain
from .errors import ConvergenceError
from .params import FracParams, SolverConfig

_log = logging.getLogger(__name__)

__all__ = [
    "Eigenpair",
    "first_eigenpair",
    "p2_oracle",
    "clarkson_gap",
    "seminorm_distance",
]

_ORACLE_MAX_FREE = 4096
# weak residual below which outer steps try bordered Newton first
_NEWTON_SWITCH = 1e-2
# slack for float noise in monotonicity checks near the iteration floor
_TRACE_SLACK = 1e-11


@dataclass
class Eigenpair:
    """First eigenvalue with its normalized positive eigenfunction.

    trace records one (lambda, residual) row per accepted outer iterate;
    residual is the relative l2 norm of the weak-form optimality defect
    over the free cells.  stop_reason is "tol" or "float floor" when
    converged, else "stalled" (float fixed point above the floor) or
    "budget" (outer iterations spent).  group_order is the order of the
    lattice symmetry group the solve folded over (1: no fold).
    """

    lam: float
    eigenfunction: GridFunction
    trace: list = field(default_factory=list)
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    stop_reason: str = "tol"
    group_order: int = 1

    def validate(self, params: FracParams, rtol: float = 1e-8) -> None:
        u = self.eigenfunction
        if abs(lp_norm(u, params.p) - 1.0) > 1e-12:
            raise ValueError("eigenfunction is not normalized in L^p")
        if u.omega_values.min() <= 0.0:
            raise ValueError("eigenfunction is not strictly positive on Omega")
        energy = gagliardo_energy(u, params)
        if abs(self.lam - energy) > rtol * max(abs(energy), 1e-300):
            raise ValueError("lambda drifts from the energy of the eigenfunction")
        lams = [row[0] for row in self.trace]
        for a, b in zip(lams, lams[1:]):
            if b > a * (1.0 + _TRACE_SLACK):
                raise ValueError("trace of Rayleigh values is not nonincreasing")


def _evaluate(kern: EnergyKernel, u_om: NDArray) -> tuple[float, NDArray, float]:
    """Energy, its gradient, and the relative weak residual at a normalized u."""
    lam, grad = kern.energy_grad(u_om)
    target = lam * phi_p(u_om, kern.params.p) * kern.mass
    r = grad / kern.params.p - target
    return lam, grad, kern.dual_norm(r) / max(kern.dual_norm(target), 1e-300)


def _normalized(w: NDArray, p: float, mass: NDArray) -> NDArray | None:
    """Nonnegative w scaled to unit L^p norm, or None when w vanishes."""
    nrm = float(np.sum(w**p * mass)) ** (1.0 / p)
    return None if nrm == 0.0 else w / nrm


def _inverse_power_step(
    kern: EnergyKernel, u_om: NDArray, lam: float, res: float, indicator: bool, max_evals: int
) -> NDArray:
    """Normalized |w| for the minimizer w of (1/p) energy(w) - <b, w>, b = lam phi_p(u) mass.

    The inner solve starts from u, or from minimize_energy's quadratic-form
    start when u is the indicator.  It stops at gradient norm
    1e-2 min(1, res) ||b|| for the outer residual res, within max_evals
    objective evaluations; an unconverged inner run still yields its last
    iterate, which the outer loop accepts or refuses on lambda.
    """
    p, mass = kern.params.p, kern.mass
    b = lam * phi_p(u_om, p) * mass
    # inexact inverse power: early inner solves only need to track the
    # outer residual; the tolerance tightens as the eigenpair settles
    b_norm = float(np.linalg.norm(b))
    gtol = 1e-2 * min(1.0, res) * max(b_norm, 1e-300)
    # the indicator ties every pair inside Omega exactly, where a p != 2
    # Hessian is floored or blows up, so the quadratic-form start gives it
    # a tie-free first inner iterate; any other u is already at the scale
    # of the minimizer, which is u itself when u is an eigenfunction
    inner = minimize_energy(kern, b, None if indicator else u_om, gtol, max_evals)
    u_new = _normalized(np.abs(inner.x), p, mass)
    if u_new is None:
        raise ConvergenceError("inner solve collapsed to zero", partial=None)
    return u_new


def _bordered_newton(
    kern: EnergyKernel, u_om: NDArray, lam: float, grad: NDArray
) -> NDArray | None:
    """One Newton step on the bordered eigen-system, as normalized |u + du|.

    F(u, lam) = [grad E(u)/p - lam c ; (sum |u|^p mass - 1)/p], c = phi_p(u) mass.
    Its Jacobian [[H - lam (p-1) diag(|u|^(p-2) mass), -c], [c^T, 0]], with H
    the curvature of E/p, is solved with its last row negated, which makes
    it symmetric; it is nonsingular at the first eigenpair, which is simple
    with a positive eigenfunction.  grad is the gradient of the energy at
    u.  Returns None when the solve fails.
    """
    p, mass = kern.params.p, kern.mass
    n = len(u_om)
    c = phi_p(u_om, p) * mass
    # one buffer: the Hessian fills its leading block, and the exactly
    # symmetric jac's transpose is the Fortran array LAPACK factors in place
    jac = np.empty((n + 1, n + 1))
    kern.hessian_omega(u_om, out=jac[:n, :n])
    diag = np.arange(n)
    jac[diag, diag] -= lam * (p - 1.0) * np.abs(u_om) ** (p - 2.0) * mass
    jac[:n, n] = -c
    jac[n, :n] = -c
    jac[n, n] = 0.0
    rhs = np.empty(n + 1)
    rhs[:n] = lam * c - grad / p
    rhs[n] = (float(np.sum(np.abs(u_om) ** p * mass)) - 1.0) / p
    try:
        delta = scipy.linalg.solve(
            jac.T, rhs, assume_a="sym", overwrite_a=True, check_finite=False
        )
    except scipy.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(delta)):
        return None
    return _normalized(np.abs(u_om + delta[:n]), p, mass)


def first_eigenpair(
    dom: GridDomain,
    params: FracParams,
    cfg: SolverConfig = SolverConfig(),
    start: GridFunction | None = None,
) -> Eigenpair:
    """Inverse-power iteration for the smallest Rayleigh quotient.

    The first eigenfunction is simple and positive, so it is constant on
    each orbit of the grid's lattice symmetry group (dom.symmetry): the
    solve runs on one value per orbit through the folded kernel, and
    writes the full eigenfunction.  A given start is averaged over each
    orbit.  Norms carry the orbit sizes (kern.mass, kern.dual_norm), so
    residual and tol mean what they mean on the cells.

    Without a start the solve begins at the indicator of Omega.  Once the
    residual is at most _NEWTON_SWITCH, each outer step first tries a
    bordered Newton step; a given start, such as the eigenfunction at a
    nearby s (s_sweep), also gets one at the first step whatever its
    residual.  One floor test decides convergence: the weak residual is
    at most cfg.tol, or res * ||b|| is at most kern.gradient_floor(u),
    b = lambda phi_p(u) h^N.  A Newton step that fails, raises lambda by
    over 1e-12 relative or raises the residual is refused (logged at
    DEBUG).  At or below the switch the solve then stops if the floor
    test holds; otherwise, and always above the switch, it takes the
    inverse-power step, whose inner tolerance follows the residual alone.
    Each inner solve starts from the current iterate, except the first
    one from the indicator (_inverse_power_step).  The loop also stops once
    an accepted step moves lambda by at most cfg.tol relative at the
    floor, or at the float fixed point: a step that leaves u unchanged or
    raises lambda by over 1e-12 relative, which is refused.  converged is
    the floor test at exit; otherwise ConvergenceError carries the partial
    eigenpair.  cfg.max_iter_inner bounds the objective evaluations of
    each inner solve, whose tolerance _inverse_power_step sets from the
    outer residual; cfg.inner_tol is not read.
    """
    if dom.n_omega == 0:
        raise ValueError("domain has no Omega cell")
    kern = energy_kernel(dom, params, fold=True)
    p, mass = params.p, kern.mass
    orbit, _, mult, group_order = kern.symmetry

    if start is None:
        u_om = np.ones(len(mult))
    else:
        if start.host is not dom:
            raise ValueError("start function lives on a different host")
        u_om = np.bincount(orbit, weights=np.abs(start.omega_values)) / mult
    u_om = _normalized(u_om, p, mass)
    if u_om is None:
        raise ValueError("start function is identically zero")

    lam, grad, res = _evaluate(kern, u_om)
    trace: list[tuple[float, float]] = [(lam, res)]

    def at_floor() -> bool:
        """The floor test at the current iterate."""
        if res <= cfg.tol:
            return True
        b_norm = lam * kern.dual_norm(phi_p(u_om, p) * mass)
        return res * b_norm <= kern.gradient_floor(u_om)

    stop_reason = "budget"
    n = 0
    for n in range(1, cfg.max_iter_outer + 1):
        u_new = None
        # a given start is trusted for one Newton step whatever its residual
        if res <= _NEWTON_SWITCH or (start is not None and n == 1):
            u_new = _bordered_newton(kern, u_om, lam, grad)
            if u_new is not None:
                lam_new, grad_new, res_new = _evaluate(kern, u_new)
                if lam_new > lam * (1.0 + 1e-12) or res_new > res:
                    u_new = None
            if u_new is None:
                _log.debug("bordered Newton step refused at outer iteration %d "
                           "(lambda %.17g, residual %.3e)", n, lam, res)
                # only a given start's first step is refused above the
                # switch, where the floor estimate is no stop test: at
                # p = 1.1 it held at residual 9e-2, with lambda 6.5e-4 too high
                if res <= _NEWTON_SWITCH and at_floor():
                    break
        if u_new is None:
            indicator = start is None and n == 1
            u_new = _inverse_power_step(kern, u_om, lam, res, indicator, cfg.max_iter_inner)
            lam_new, grad_new, res_new = _evaluate(kern, u_new)
        if lam_new > lam * (1.0 + 1e-12) or np.array_equal(u_new, u_om):
            stop_reason = "stalled"  # float fixed point: keep the better iterate
            break

        trace.append((lam_new, res_new))
        step = lam - lam_new
        u_om, lam, grad, res = u_new, lam_new, grad_new, res_new
        if step <= cfg.tol * lam and at_floor():
            break

    converged = at_floor()
    if converged:
        stop_reason = "tol" if res <= cfg.tol else "float floor"
    pair = Eigenpair(
        lam=lam,
        eigenfunction=GridFunction.from_omega(dom, u_om[orbit]),
        trace=trace,
        iterations=n,
        residual=res,
        converged=converged,
        stop_reason=stop_reason,
        group_order=group_order,
    )
    if not converged:
        what = "stalled above the float floor" if stop_reason == "stalled" else "budget spent"
        raise ConvergenceError(
            f"eigen solve {what} after {n} outer iterations (residual {res:.3e})",
            partial=pair,
        )
    return pair


def p2_oracle(dom: GridDomain, params: FracParams) -> Eigenpair:
    """Dense symmetric eigensolve for p = 2, the cross-check route.

    Assembles the graph-Laplacian form of the kernel weights on the free
    cells and returns its minimal eigenpair, normalized and sign-aligned
    to positive mean.
    """
    if params.p != 2.0:
        raise ValueError("the dense oracle requires p = 2")
    n_free = dom.n_omega
    if n_free > _ORACLE_MAX_FREE:
        raise ValueError(
            f"{n_free} free cells exceed the dense-oracle limit {_ORACLE_MAX_FREE}"
        )
    kern = energy_kernel(dom, params)
    q = kern.quad_matrix
    q /= kern.hn
    # q is symmetric: its transpose is the Fortran-order array LAPACK
    # overwrites, with no copy
    vals, vecs = scipy.linalg.eigh(q.T, overwrite_a=True, subset_by_index=[0, 0])
    v = vecs[:, 0]
    if v.mean() < 0:
        v = -v
    u = GridFunction.from_omega(dom, v)
    u = u / lp_norm(u, 2.0)
    lam, _, res = _evaluate(kern, u.omega_values)
    return Eigenpair(
        lam=lam,
        eigenfunction=u,
        trace=[(lam, res)],
        iterations=0,
        residual=res,
        converged=True,
    )


def clarkson_gap(
    u: GridFunction, v: GridFunction, params: FracParams
) -> tuple[float, float]:
    """Both sides of the Clarkson inequality built from the energy.

    For p >= 2:  E((u-v)/2) + E((u+v)/2) <= E(u)/2 + E(v)/2.
    For 1 < p < 2 the dual form with outer exponent 1/(p-1) applies.
    Returns (lhs, rhs); lhs <= rhs up to float noise by convexity, and the
    caller judges the margin.
    """
    if u.host is not v.host:
        raise ValueError("grid functions live on different hosts")
    p = params.p
    e_diff = gagliardo_energy((u - v) / 2.0, params)
    e_mid = gagliardo_energy((u + v) / 2.0, params)
    e_u = gagliardo_energy(u, params)
    e_v = gagliardo_energy(v, params)
    if p >= 2.0:
        lhs = e_diff + e_mid
        rhs = 0.5 * e_u + 0.5 * e_v
    else:
        dual = 1.0 / (p - 1.0)
        lhs = e_diff**dual + e_mid**dual
        rhs = (0.5 * e_u + 0.5 * e_v) ** dual
    return lhs, rhs


def seminorm_distance(
    u: GridFunction, v: GridFunction, params: FracParams
) -> float:
    """Truncated seminorm of u - v, i.e. energy(u - v)^(1/p)."""
    if u.host is not v.host:
        raise ValueError("grid functions live on different hosts")
    return gagliardo_energy(u - v, params) ** (1.0 / params.p)
