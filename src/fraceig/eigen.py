"""First eigenpair of the truncated fractional p-Laplacian.

The solver is an inverse-power outer loop around strictly convex inner
problems: given the current normalized positive iterate u_n with Rayleigh
value lambda_n, the next iterate minimizes

    (1/p) energy(w) - lambda_n * sum_Omega |u_n|^(p-2) u_n w h^N,

is replaced by its absolute value and renormalized.  The energy never
increases under absolute value and the first eigenfunction is signless, so
the Rayleigh values decrease along the outer loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from ._descent import minimize_convex
from .core import EnergyKernel, GridFunction, energy_kernel, gagliardo_energy, lp_norm, phi_p
from .domain import GridDomain
from .errors import ConvergenceError
from .params import FracParams, SolverConfig

__all__ = [
    "Eigenpair",
    "first_eigenpair",
    "p2_oracle",
    "clarkson_gap",
    "seminorm_distance",
]

_ORACLE_MAX_FREE = 4096
# slack for float noise in monotonicity checks near the iteration floor
_TRACE_SLACK = 1e-11
# residual cap accepted at the float floor of the iteration map: the weak
# residual assembles with cancellation and cannot certify below this level
# on stiff kernels even when the eigenvalue is exact to machine precision
_RES_FLOOR_CAP = 1e-6


@dataclass
class Eigenpair:
    """First eigenvalue with its normalized positive eigenfunction.

    trace records one (lambda, residual) row per outer iteration; residual
    is the relative l2 norm of the weak-form optimality defect over the
    free cells.
    """

    lam: float
    eigenfunction: GridFunction
    trace: list = field(default_factory=list)
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True

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


def _residual(kern: EnergyKernel, u_om: NDArray, lam: float) -> float:
    p = kern.params.p
    target = lam * phi_p(u_om, p) * kern.hn
    r = kern.grad_omega(u_om) / p - target
    scale = float(np.linalg.norm(target))
    return float(np.linalg.norm(r)) / max(scale, 1e-300)


def first_eigenpair(
    dom: GridDomain,
    params: FracParams,
    cfg: SolverConfig = SolverConfig(),
    start: GridFunction | None = None,
) -> Eigenpair:
    """Inverse-power iteration for the smallest Rayleigh quotient.

    Stops when the relative eigenvalue change and the weak residual both
    drop below cfg.tol.  Raises ConvergenceError (carrying the partial
    eigenpair) when the outer budget is exhausted.
    """
    if dom.n_omega == 0:
        raise ValueError("domain has no Omega cell")
    kern = energy_kernel(dom, params)
    p, hn = params.p, kern.hn

    if start is None:
        u = GridFunction.indicator(dom)
    else:
        if start.host is not dom:
            raise ValueError("start function lives on a different host")
        u = abs(start)
    nrm = lp_norm(u, p)
    if nrm == 0.0:
        raise ValueError("start function is identically zero")
    u_om = u.omega_values / nrm

    lam = kern.energy(u_om)
    res = _residual(kern, u_om, lam)
    trace: list[tuple[float, float]] = [(lam, res)]
    converged = False
    n = 0

    for n in range(1, cfg.max_iter_outer + 1):
        b = lam * phi_p(u_om, p) * hn
        # inexact inverse power: early inner solves only need to track the
        # outer residual; the tolerance tightens as the eigenpair settles
        gtol_rel = max(cfg.inner_tol, min(1e-2, 1e-2 * res))
        b_norm = float(np.linalg.norm(b))
        gtol = gtol_rel * max(b_norm, 1e-300)

        def value_grad(w: NDArray):
            val = kern.energy(w) / p - float(np.dot(b, w))
            grad = kern.grad_omega(w) / p - b
            return val, grad

        def floor(w: NDArray) -> float:
            return kern.gradient_floor(w, b_norm)

        # the indicator start carries exact pair ties; the quadratic-form
        # solve gives a smooth first inner iterate instead
        x0 = kern.scaled_start(b) if n == 1 else u_om
        lam_new = lam
        u_new = u_om
        for attempt in range(3):
            inner = minimize_convex(
                value_grad, kern.hessian_omega, kern.quad_matrix,
                x0, gtol, cfg.max_iter_inner, floor,
            )
            w = np.abs(inner.x)
            nrm = float(np.sum(w**p) * hn) ** (1.0 / p)
            if nrm == 0.0:
                raise ConvergenceError("inner solve collapsed to zero", partial=None)
            u_new = w / nrm
            lam_new = kern.energy(u_new)
            if lam_new <= lam * (1.0 + 1e-12):
                break
            gtol *= 1e-2  # inner solve too loose to certify a decrease

        if lam_new > lam * (1.0 + 1e-12):
            # Rayleigh value at its float floor; keep the better iterate
            converged = res <= max(cfg.tol, _RES_FLOOR_CAP)
            break

        stagnated = np.array_equal(u_new, u_om)
        res = _residual(kern, u_new, lam_new)
        delta = abs(lam_new - lam)
        trace.append((lam_new, res))
        u_om, lam = u_new, lam_new
        if delta <= cfg.tol * lam_new and res <= cfg.tol:
            converged = True
            break
        # the float floor: the iteration map has a fixed point in float, or
        # the eigenvalue stagnates in one step or across a window
        floor_res = res <= max(cfg.tol, _RES_FLOOR_CAP)
        if stagnated and floor_res:
            converged = True
            break
        if delta <= 5e-15 * lam_new and floor_res:
            converged = True
            break
        if len(trace) > 10 and floor_res:
            lam_before = trace[-11][0]
            if lam_before - lam_new <= 1e-13 * lam_new:
                converged = True
                break

    pair = Eigenpair(
        lam=lam,
        eigenfunction=GridFunction.from_omega(dom, u_om),
        trace=trace,
        iterations=n,
        residual=res,
        converged=converged,
    )
    if not converged:
        raise ConvergenceError(
            f"eigen solve did not converge in {cfg.max_iter_outer} outer iterations",
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
    vals, vecs = scipy.linalg.eigh(kern.quad_matrix / kern.hn, subset_by_index=[0, 0])
    v = vecs[:, 0]
    if v.mean() < 0:
        v = -v
    u = GridFunction.from_omega(dom, v)
    u = u / lp_norm(u, 2.0)
    lam = kern.energy(u.omega_values)
    res = _residual(kern, u.omega_values, lam)
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
    Returns (lhs, rhs); lhs <= rhs up to float noise by convexity.
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
    if lhs > rhs + 1e-12 * rhs:
        raise ArithmeticError("Clarkson inequality violated beyond float noise")
    return lhs, rhs


def seminorm_distance(
    u: GridFunction, v: GridFunction, params: FracParams
) -> float:
    """Truncated seminorm of u - v, i.e. energy(u - v)^(1/p)."""
    if u.host is not v.host:
        raise ValueError("grid functions live on different hosts")
    return gagliardo_energy(u - v, params) ** (1.0 / params.p)
