"""Weak Dirichlet solves, the comparison principle, and monotonicity certificates.

The problem data is a cell datum f on Omega plus an optional pair datum F;
the weak form pairs F against the pairwise difference quotient of the test
function, which reduces (by discrete integration by parts) to an effective
cell datum f + div F on Omega.  Only the antisymmetric part of F acts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._descent import minimize_energy
from ._reduce import map_blocks
from .core import GridFunction, PairFunction, energy_kernel, nonlocal_divergence
from .domain import GridDomain
from .errors import ConvergenceError
from .params import FracParams, SolverConfig

__all__ = [
    "DirichletProblem",
    "ComparisonReport",
    "solve_dirichlet",
    "comparison_check",
    "monotonicity_certificate",
    "psmall_pairwise_gap",
]


@dataclass(frozen=True, eq=False)
class DirichletProblem:
    """Right-hand side data for one Dirichlet solve.

    f holds one value per Omega cell; F is an optional pair datum used as
    given (no antisymmetry required).
    """

    host: GridDomain
    params: FracParams
    f: NDArray
    F: PairFunction | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "f", f)
        if f.shape != (self.host.n_omega,):
            raise ValueError(
                f"f must carry one value per Omega cell ({self.host.n_omega}), got {f.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise ValueError("f must be finite")
        if self.F is not None and self.F.host is not self.host:
            raise ValueError("pair datum lives on a different host")

    def effective_datum(self) -> NDArray:
        """Cell datum f + (nonlocal divergence of F) restricted to Omega."""
        rhs = self.f.copy()
        if self.F is not None:
            div = nonlocal_divergence(self.F, self.params)
            rhs += div[self.host.omega_indices]
        return rhs


def solve_dirichlet(
    prob: DirichletProblem,
    cfg: SolverConfig = SolverConfig(),
    start: GridFunction | None = None,
) -> GridFunction:
    """Unique minimizer of (1/p) energy(w) - <f, w> - <F, R w>.

    Strict convexity plus the Poincare bound make the objective coercive,
    so descent converges globally; the returned iterate has weak residual
    below cfg.inner_tol relative to the datum scale, or a gradient at most
    the computed float floor kern.gradient_floor (assembly roundoff and,
    for p < 2, pair-difference granularity).  start overrides the default
    scale-matched starting point (the minimizer is unique, so any start
    reaches it).  cfg.max_iter_inner bounds the objective evaluations of
    the single inner solve; ConvergenceError (carrying the last iterate)
    is raised when that solve ends above the float floor.
    """
    dom = prob.host
    kern = energy_kernel(dom, prob.params)
    b = prob.effective_datum() * kern.hn
    gtol = cfg.inner_tol * max(float(np.linalg.norm(b)), 1e-300)
    x0 = None  # minimize_energy's scale-matched quadratic-form start
    if start is not None:
        if start.host is not dom:
            raise ValueError("start function lives on a different host")
        x0 = start.omega_values
    res = minimize_energy(kern, b, x0, gtol, cfg.max_iter_inner)
    # a stalled gradient at the float floor (assembly roundoff or
    # pair-difference granularity) is not missing optimality; the floor is
    # applied only after the run, since the energy identity and first-order
    # checks need polish below it where it is reachable
    if not res.converged and res.grad_norm > kern.gradient_floor(res.x):
        raise ConvergenceError(
            f"Dirichlet solve stalled at gradient norm {res.grad_norm:.3e} "
            f"after {res.evaluations} evaluations",
            partial=GridFunction.from_omega(dom, res.x),
        )
    return GridFunction.from_omega(dom, res.x)


@dataclass
class ComparisonReport:
    """Outcome of an ordered-data comparison: max over Omega cells i of w1_i - w2_i."""

    max_gap: float
    tolerance: float
    passed: bool


def comparison_check(
    dom: GridDomain,
    f1,
    f2,
    params: FracParams,
    cfg: SolverConfig = SolverConfig(),
) -> ComparisonReport:
    """Solve with ordered data f1 <= f2 and verify w1 <= w2 up to tolerance."""
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if np.any(f1 > f2):
        raise ValueError("comparison requires f1 <= f2 pointwise on Omega")
    w1 = solve_dirichlet(DirichletProblem(dom, params, f1), cfg)
    w2 = solve_dirichlet(DirichletProblem(dom, params, f2), cfg)
    # over Omega only: outside it both solutions are exactly 0
    gap = float(np.max(w1.omega_values - w2.omega_values))
    return ComparisonReport(max_gap=gap, tolerance=cfg.tol, passed=gap <= cfg.tol)


def monotonicity_certificate(
    u: GridFunction, v: GridFunction, params: FracParams
) -> tuple[float, float]:
    """Monotone-operator pairing and its lower bound.

    pairing is the weak-form double sum <u - v, A u - A v>; for p >= 2 the
    bound is 2^(2-p) energy(u - v), and pairing >= bound holds; for
    1 < p < 2 the bound degenerates to 0 (psmall_pairwise_gap gives the
    pairwise weighted inequality instead).  The caller judges the margin.
    """
    if u.host is not v.host:
        raise ValueError("grid functions live on different hosts")
    kern = energy_kernel(u.host, params)
    pairing = kern.monotone_pairing(u.omega_values, v.omega_values)
    if params.p < 2.0:
        return pairing, 0.0
    return pairing, 2.0 ** (2.0 - params.p) * kern.energy(u.omega_values - v.omega_values)


def psmall_pairwise_gap(
    u: GridFunction, v: GridFunction, params: FracParams
) -> tuple[float, float]:
    """Worst gap of the 1<p<2 pairwise monotonicity inequality.

    For each active pair with differences U, V not both zero the
    inequality (p-1)|U-V|^2 <= [(phi(U)-phi(V))(U-V)] (|U|^p+|V|^p)^((2-p)/p)
    is evaluated; returns (max of lhs - rhs, max of rhs) so callers can
    form a relative margin.  No kernel weight enters, so no kernel table
    is built.
    """
    if u.host is not v.host:
        raise ValueError("grid functions live on different hosts")
    p = params.p
    if not 1.0 < p < 2.0:
        raise ValueError("the pairwise gap is defined for 1 < p < 2 only")
    u_om, v_om = u.omega_values, v.omega_values
    w_exp = (2.0 - p) / p
    eps = np.finfo(float).eps

    def gap(U: NDArray, V: NDArray):
        d = U - V
        abs_u, abs_v = np.abs(U), np.abs(V)
        # one power per difference: |U|^(p-1) gives phi_p(U) and |U|^p
        pow_u, pow_v = abs_u ** (p - 1.0), abs_v ** (p - 1.0)
        rhs = np.copysign(pow_u, U)
        rhs -= np.copysign(pow_v, V)
        rhs *= d
        pow_u *= abs_u
        pow_v *= abs_v
        pow_u += pow_v
        pow_u **= w_exp
        rhs *= pow_u
        # pairs separated by less than the float quantization of the odd
        # power cannot be tested meaningfully; this also leaves out the
        # pairs with both differences zero, which the inequality excludes
        abs_u += abs_v
        abs_u *= 4.0 * eps
        live = np.abs(d) > abs_u
        d *= d
        d *= p - 1.0  # the lhs
        d -= rhs
        # no live pair gives (-inf, 0.0); rhs >= 0 on live pairs (phi_p
        # increases), so the initial 0 moves no other maximum
        worst = np.max(d, where=live, initial=-np.inf)
        return float(worst), float(np.max(rhs, where=live, initial=0.0))

    def block(lo: int, hi: int):
        # the diagonal pairs (i, i) have U = V = 0 and are not live
        return gap(u_om[lo:hi, None] - u_om[None, :], v_om[lo:hi, None] - v_om[None, :])

    parts = map_blocks(block, len(u_om))
    parts.append(gap(u_om, v_om))  # Omega-to-exterior pairs: u and v are 0 outside
    return max(part[0] for part in parts), max(part[1] for part in parts)
