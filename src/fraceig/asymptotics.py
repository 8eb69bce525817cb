"""Sweeps across the differentiability order and global inequality checks.

The sweep verifies the grid-scale behaviour of the first eigenvalue as the
order s varies: the weighted column (5R/2)^(sp) lambda(s) must be
nondecreasing, one-sided differences shrink toward the base point, and
eigenfunction distances contract from the right.  Left sweeps are
diagnostics only: a finite grid cannot exhibit the continuum left-limit
defect, so nothing is asserted there beyond the weighted monotonicity.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._reduce import map_blocks, parallel_map
from .core import GridFunction, energy_kernel, gagliardo_energy
from .domain import GridDomain, _lattice_axes, _lattice_points, dilate, unit_ball_volume
from .eigen import Eigenpair, first_eigenpair, seminorm_distance
from .errors import ConvergenceError
from .params import FracParams, SolverConfig

__all__ = [
    "SweepRow",
    "SweepReport",
    "s_sweep",
    "ScalingReport",
    "scaling_check",
    "EquivalenceReport",
    "equivalence_check",
    "TranslationReport",
    "translation_quotient_check",
    "holder_report",
    "dyadic_shifts",
]

# configuration used when a check needs eigenvalues at their float floor
_POLISH = {"tol": 5e-15}


@dataclass
class SweepRow:
    s: float
    lam: float
    weighted_lam: float
    dist_to_base: float
    iterations: int
    residual: float
    converged: bool
    stop_reason: str
    group_order: int


@dataclass
class SweepReport:
    """Eigenvalue table across s, sorted by s, with sweep metadata."""

    rows: list[SweepRow]
    s_base: float
    p: float
    t: float
    h: float
    diameter_R: float
    eigenfunctions: dict = field(default_factory=dict, repr=False)

    def weighted_violation(self) -> float:
        """Largest relative decrease of the weighted column (0 when monotone)."""
        worst = 0.0
        rows = [r for r in self.rows if r.converged]
        for a, b in zip(rows, rows[1:]):
            if b.weighted_lam < a.weighted_lam:
                worst = max(worst, (a.weighted_lam - b.weighted_lam) / a.weighted_lam)
        return worst

    def row_at(self, s: float) -> SweepRow:
        for r in self.rows:
            if r.s == s:
                return r
        raise KeyError(f"no sweep row at s={s}")

    def to_dict(self) -> dict:
        out = {
            "s_base": self.s_base,
            "p": self.p,
            "t": self.t,
            "h": self.h,
            "diameter_R": self.diameter_R,
            "weighted_violation": self.weighted_violation(),
            "rows": [dataclasses.asdict(r) for r in self.rows],
        }
        if any(r.s < self.s_base for r in self.rows):
            # grids cannot exhibit the continuum left-limit defect, so
            # rows below the base point are diagnostics, not certificates
            out["left_sweep_note"] = (
                "rows below s_base are diagnostics only; on a finite grid "
                "lambda(s - delta) approaches lambda(s), which need not "
                "hold in the continuum limit"
            )
        return out


def s_sweep(
    dom: GridDomain,
    p: float,
    s_list,
    s_base: float,
    cfg: SolverConfig = SolverConfig(),
) -> SweepReport:
    """Solve the first eigenpair at every s and tabulate the results.

    Eigenfunction distances to the base eigenfunction use the exponent
    min(s, s_base) so the seminorm stays finite on both arguments.  The
    eigen solves run on up to cfg.threads worker threads.  Failed solves
    are kept as rows flagged not converged.
    """
    s_values = sorted(float(s) for s in s_list)
    if not s_values:
        raise ValueError("empty s list")
    if not all(0.0 < s < 1.0 for s in s_values):
        raise ValueError("every s must lie in (0,1)")
    if s_base not in s_values:
        raise ValueError("s_base must be one of the sweep values")

    def solve(s: float) -> Eigenpair:
        try:
            return first_eigenpair(dom, FracParams(s=s, p=p), cfg)
        except ConvergenceError as exc:
            if exc.partial is None:
                raise
            return exc.partial

    # one independent eigensolve per s: the coarse task that threads pay for
    pairs = dict(zip(s_values, parallel_map(solve, s_values, cfg.threads)))

    base_pair = pairs[s_base]
    weight_base = 2.5 * dom.diameter_R
    rows = []
    functions = {}
    for s in s_values:
        pair = pairs[s]
        low = FracParams(s=min(s, s_base), p=p)
        dist = seminorm_distance(pair.eigenfunction, base_pair.eigenfunction, low)
        rows.append(
            SweepRow(
                s=s,
                lam=pair.lam,
                weighted_lam=weight_base ** (s * p) * pair.lam,
                dist_to_base=dist,
                iterations=pair.iterations,
                residual=pair.residual,
                converged=pair.converged,
                stop_reason=pair.stop_reason,
                group_order=pair.group_order,
            )
        )
        functions[s] = pair.eigenfunction
    return SweepReport(
        rows=rows,
        s_base=s_base,
        p=p,
        t=dom.t,
        h=dom.h,
        diameter_R=dom.diameter_R,
        eigenfunctions=functions,
    )


@dataclass
class ScalingReport:
    factors: list
    lam_base: float
    lams: list
    errors: list
    passed: bool


def scaling_check(
    dom: GridDomain,
    params: FracParams,
    factors,
    cfg: SolverConfig = SolverConfig(),
    rtol: float = 1e-10,
) -> ScalingReport:
    """Verify c^(sp) lambda(c Omega) = lambda(Omega) across dilations.

    Dilation preserves the discrete pair structure exactly, so the check
    runs the eigen solves down to their float floor; residual solver bias
    would otherwise dominate the 1e-10 budget.
    """
    factors = [float(c) for c in factors]
    if any(c <= 0 for c in factors):
        raise ValueError("dilation factors must be positive")
    polish = dataclasses.replace(cfg, **_POLISH)
    sp = params.s * params.p
    lam_base = first_eigenpair(dom, params, polish).lam
    lams, errors = [], []
    for c in factors:
        lam_c = first_eigenpair(dilate(dom, c), params, polish).lam
        lams.append(lam_c)
        errors.append(abs(c**sp * lam_c / lam_base - 1.0))
    return ScalingReport(
        factors=factors,
        lam_base=lam_base,
        lams=lams,
        errors=errors,
        passed=max(errors) <= rtol,
    )


@dataclass
class EquivalenceReport:
    """Two-way split of the full and truncated energies.

    V is the energy on the truncation ball, W the far-field part beyond it
    (quadrature plus analytic radial tail), X the energy on the inner ball
    of diameter 1.5 R, and Y the annulus part; the shell bounds of the
    norm-equivalence argument give W <= bound * Y.
    """

    V: float
    W: float
    X: float
    Y: float
    bound: float
    ratio_ok: bool
    tail: float
    tail_error_bound: float


def equivalence_check(
    u: GridFunction,
    params: FracParams,
    quad_radius_factor: float = 20.0,
    threads: int = 1,
) -> EquivalenceReport:
    """Split the energies of u and check the far-field shell bound.

    Requires t = 4: the bound constant 2^(sp) / ((4/5)^(sp) - (2/3)^(sp))
    comes from the radial shell estimates specific to the 4R/1.5R split.
    The far-field quadrature reaches quad_radius_factor * R, at least the
    truncation radius t R / 2, before the analytic radial tail takes over.
    Its per-cell kernel sums do not depend on u: they are built once per
    (grid, s, p, radius) and cached on the grid (GridDomain.memo), where
    that radius dominates the cost on 2D grids and threads parallelize it
    over fixed blocks without changing the result.  Each call then pairs
    them with |u|^p.
    """
    dom = u.host
    if dom.t != 4.0:
        raise ValueError("the equivalence split requires truncation t = 4")
    if not (math.isfinite(quad_radius_factor) and quad_radius_factor >= 0.5 * dom.t):
        raise ValueError(
            f"quad_radius_factor must be finite and at least t/2 = {0.5 * dom.t:g}, "
            f"got {quad_radius_factor!r}"
        )
    n, sp = dom.dim, params.s * params.p
    h, R = dom.h, dom.diameter_R
    hn = h**n
    r_quad = quad_radius_factor * R
    kern = energy_kernel(dom, params)

    def far_field() -> tuple[NDArray, NDArray]:
        """Per-Omega-cell sums of |x_i - y|^(-(N+sp)) over the ball cells y
        beyond the inner ball of diameter 1.5 R (annulus), and over the
        extended-lattice points y between the truncation sphere and r_quad
        (shell), accumulated over fixed blocks of shell points in order."""
        d_center = np.linalg.norm(dom.cells - dom.center, axis=1)
        far = d_center > 0.75 * R * (1.0 + 1e-12)
        if np.any(far & dom.omega_mask):
            raise ValueError("Omega leaks outside the inner ball; h is too coarse")
        annulus = dom.pair_power_sums(dom.omega_indices, np.flatnonzero(far), -kern.exponent)

        lo = np.floor((dom.center - r_quad - dom.origin) / h).astype(np.int64) - 1
        hi = np.ceil((dom.center + r_quad - dom.origin) / h).astype(np.int64) + 1
        pts = _lattice_points(_lattice_axes(dom.origin, h, lo, hi))
        dc = np.linalg.norm(pts - dom.center, axis=1)
        half = 0.5 * dom.t * R
        shell_pts = pts[(dc > half * (1.0 + 1e-12)) & (dc <= r_quad * (1.0 + 1e-12))]
        om_cells = dom.omega_cells

        def shell_block(lo: int, hi: int) -> NDArray:
            d2 = np.sum((om_cells[:, None, :] - shell_pts[None, lo:hi, :]) ** 2, axis=-1)
            return np.sum(d2 ** (-0.5 * kern.exponent), axis=1)

        shell = np.zeros(len(om_cells))
        for part in map_blocks(shell_block, len(shell_pts), threads):
            shell += part
        return annulus, shell

    key = ("equivalence far field", params.s, params.p, quad_radius_factor)
    annulus, shell = dom.memo(key, far_field)
    u_om = u.omega_values
    up = np.abs(u_om) ** params.p
    up_int = float(np.sum(up) * hn)  # ||u||_p^p

    v_total = kern.energy(u_om)
    y_part = 2.0 * hn * hn * float(up @ annulus)
    x_part = v_total - y_part
    w_quad = 2.0 * hn * hn * float(up @ shell)

    # analytic radial tail beyond the quadrature radius
    n_omega_n = n * unit_ball_volume(n)
    tail = 2.0 * (n_omega_n / sp) * r_quad ** (-sp) * up_int
    # the tail radius is measured from the ball center while the true
    # integral is radial around each x in Omega; x is within R/2 of center
    tail_error_bound = (
        2.0 * (n_omega_n / sp) * abs((r_quad - 0.5 * R) ** (-sp) - (r_quad + 0.5 * R) ** (-sp)) * up_int
    )
    w_total = w_quad + tail

    bound = 2.0**sp / ((4.0 / 5.0) ** sp - (2.0 / 3.0) ** sp)
    return EquivalenceReport(
        V=v_total,
        W=w_total,
        X=x_part,
        Y=y_part,
        bound=bound,
        ratio_ok=w_total <= bound * y_part,
        tail=tail,
        tail_error_bound=tail_error_bound,
    )


@dataclass
class TranslationReport:
    shifts: list
    differences: list
    ratios: list
    sup_ratio: float
    c_fit: float


def dyadic_shifts(dom: GridDomain) -> list[NDArray]:
    """Lattice shifts h, 2h, 4h, ... along the first axis up to t R."""
    limit = dom.t * dom.diameter_R / dom.h
    shifts = []
    k = 1
    while k <= limit:
        vec = np.zeros(dom.dim, dtype=np.int64)
        vec[0] = k
        shifts.append(vec)
        k *= 2
    return shifts


def translation_quotient_check(
    u: GridFunction, params: FracParams, shifts
) -> TranslationReport:
    """Difference-quotient bound: sup_h int |u(x+h)-u(x)|^p dx / |h|^(sp).

    Shifts are integer lattice vectors (units of h); u extends by zero
    outside the ball.  sup_ratio divides the supremum by the energy of u
    (the constant of the bound), and c_fit is the least-squares constant
    over the supplied shifts.
    """
    shifts = [np.asarray(k, dtype=np.int64) for k in shifts]
    if not shifts:
        raise ValueError("empty shift list")
    dom = u.host
    if any(k.shape != (dom.dim,) for k in shifts):
        raise ValueError("each shift must have one integer step per dimension")
    sp = params.s * params.p
    hn = dom.h**dom.dim
    lattice = dom.embed_lattice(u.values)
    energy = gagliardo_energy(u, params)

    diffs, ratios = [], []
    for k in shifts:
        pad = [(int(abs(kd)), int(abs(kd))) for kd in k]
        padded = np.pad(lattice, pad)
        rolled = np.roll(padded, shift=tuple(int(kd) for kd in k), axis=tuple(range(dom.dim)))
        d = float(np.sum(np.abs(rolled - padded) ** params.p) * hn)
        shift_len = dom.h * float(np.linalg.norm(k))
        diffs.append(d)
        ratios.append(d / shift_len**sp)

    sup_ratio = max(ratios) / max(energy, 1e-300)
    scaled = np.array(ratios) / max(energy, 1e-300)
    c_fit = float(np.mean(scaled))
    return TranslationReport(
        shifts=[k.tolist() for k in shifts],
        differences=diffs,
        ratios=ratios,
        sup_ratio=sup_ratio,
        c_fit=c_fit,
    )


def holder_report(u: GridFunction, params: FracParams) -> tuple[float, float]:
    """Diagnostic Hoelder quotient for sp > N.

    gamma = s - N/p; returns (gamma, sup over active pairs of
    |u_i - u_j| / |x_i - x_j|^gamma).
    """
    dom = u.host
    n = dom.dim
    if not params.s * params.p > n:
        raise ValueError("the Hoelder regime requires s p > N")
    gamma = params.s - n / params.p
    u_om = u.omega_values
    sup_q = 0.0
    for sl, w in dom.pair_powers(dom.omega_indices, np.arange(dom.n_cells), -gamma):
        dv = np.abs(u_om[:, None] - u.values[sl][None, :])
        sup_q = max(sup_q, float((dv * w).max()))
    return gamma, sup_q
