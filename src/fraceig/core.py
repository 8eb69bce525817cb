"""Ball-truncated Gagliardo energies and the weak fractional p-Laplacian.

All quadrature is cell-centered with the diagonal pair excluded.  Pairs
whose endpoints both lie outside Omega never contribute (both values are
zero there), so the assembled tables only hold the Omega-Omega block and
one row-sum of kernel weights toward the exterior cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._reduce import column_sums, map_blocks, ordered_sum
from .domain import GridDomain, Symmetry, check_dense_pairs
from .params import FracParams

__all__ = [
    "GridFunction",
    "PairFunction",
    "EnergyKernel",
    "energy_kernel",
    "gagliardo_energy",
    "lp_norm",
    "rayleigh_quotient",
    "apply_operator",
    "nonlocal_gradient",
    "nonlocal_divergence",
]


def phi_p(z: NDArray, p: float) -> NDArray:
    """Odd power |z|^(p-2) z, continuously extended by 0 at z = 0."""
    return np.copysign(np.abs(z) ** (p - 1.0), z)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on the ball cells, zero outside Omega.

    values has one entry per host cell (row-major order of the host
    lattice); entries at cells not flagged in omega_mask must be exactly 0.
    """

    values: NDArray
    host: GridDomain

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.host.n_cells,):
            raise ValueError(
                f"expected {self.host.n_cells} cell values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("cell values must be finite")
        if np.any(v[~self.host.omega_mask] != 0.0):
            raise ValueError("values must vanish outside Omega")

    @classmethod
    def from_omega(cls, host: GridDomain, omega_values) -> "GridFunction":
        full = np.zeros(host.n_cells)
        full[host.omega_indices] = np.asarray(omega_values, dtype=float)
        return cls(full, host)

    @classmethod
    def indicator(cls, host: GridDomain) -> "GridFunction":
        return cls.from_omega(host, np.ones(host.n_omega))

    @property
    def omega_values(self) -> NDArray:
        return self.values[self.host.omega_indices]

    def _check_host(self, other: "GridFunction") -> None:
        if other.host is not self.host:
            raise ValueError("grid functions live on different hosts")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_host(other)
        return GridFunction(self.values + other.values, self.host)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_host(other)
        return GridFunction(self.values - other.values, self.host)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.values * float(c), self.host)

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "GridFunction":
        return GridFunction(self.values / float(c), self.host)

    def __neg__(self) -> "GridFunction":
        return GridFunction(-self.values, self.host)

    def __abs__(self) -> "GridFunction":
        return GridFunction(np.abs(self.values), self.host)


@dataclass(frozen=True, eq=False)
class PairFunction:
    """Real values on ordered cell pairs (i, j), i != j, stored densely.

    The diagonal is structurally absent; it is stored as zeros and ignored
    by every operation.
    """

    values: NDArray
    host: GridDomain

    def __post_init__(self) -> None:
        m = self.host.n_cells
        check_dense_pairs(m, m, "a pair function")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (m, m):
            raise ValueError(f"expected a ({m}, {m}) pair array, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("pair values must be finite")
        if np.any(np.diagonal(v) != 0.0):
            v = v.copy()
            np.fill_diagonal(v, 0.0)
        object.__setattr__(self, "values", v)

    def power_sum(self, p: float) -> float:
        """Sum of |phi(i,j)|^p over ordered pairs with pair weight h^(2N)."""
        h2n = self.host.h ** (2 * self.host.dim)
        return float(np.sum(np.abs(self.values) ** p)) * h2n

    def __add__(self, other: "PairFunction") -> "PairFunction":
        if other.host is not self.host:
            raise ValueError("pair functions live on different hosts")
        return PairFunction(self.values + other.values, self.host)

    def __mul__(self, c: float) -> "PairFunction":
        return PairFunction(self.values * float(c), self.host)

    __rmul__ = __mul__


class EnergyKernel:
    """Kernel tables of one (domain, params) pair.

    Holds the Omega-Omega weight block K_ij = |x_i - x_j|^(-(N+sp)) and the
    per-Omega-cell row sum of weights toward exterior cells.  Energies,
    gradients and pairings evaluate through fixed-order blocked
    reductions, so their results are reproducible bit for bit.  The
    energy and its gradient come from one pass over the pairs
    (energy_grad); energy and grad_omega each return one part of it.

    A folded kernel (fold=True) takes one unknown per orbit of
    dom.symmetry: u = P a expands orbit values a to the Omega cells.  Its
    pair table is W_ab = sum of K_ij over i in orbit a, j in orbit b, an
    m x m table with zero diagonal (pairs inside an orbit have u_i = u_j),
    its exterior sums are mult * k_out at the representatives, and mass =
    h^N mult weighs each unknown in L^p.  The same code then gives the
    energy E(P a), the gradient P^T grad E and the Hessian P^T H P.
    Without fold, or on the trivial group, symmetry is the identity, mult
    is 1 and the tables are the plain ones.  Norms of dual vectors (such
    as gradients) in the cell metric are dual_norm(v) = ||v / sqrt(mult)||.

    energy_kernel caches each kernel on its grid (GridDomain.memo), next
    to the other tables built from that grid, so all of them die with it.
    """

    def __init__(self, dom: GridDomain, params: FracParams, fold: bool = False):
        self.params = params
        self.exponent = dom.dim + params.s * params.p
        self.hn = dom.h**dom.dim
        self.h2n = self.hn * self.hn

        om = dom.omega_indices
        self.symmetry = dom.symmetry if fold else Symmetry.trivial(len(om))
        reps, mult = self.symmetry.reps, self.symmetry.mult
        self.mass = self.hn * mult
        self._root_mult = np.sqrt(mult)
        what = "the energy kernel's Omega x Omega table"
        if self.symmetry.order == 1:
            self.K_oo = dom.pair_power(om, om, -self.exponent, what)
        else:
            check_dense_pairs(len(reps), len(reps), what)
            w = dom.orbit_power_sums(om[reps], -self.exponent)
            # W_ab = W_ba in exact arithmetic; LAPACK reads one triangle
            w *= mult[:, None]
            w += w.T
            w *= 0.5
            np.fill_diagonal(w, 0.0)
            self.K_oo = w
        self.k_out = mult * dom.pair_power_sums(om[reps], dom.other_indices, -self.exponent)

    def dual_norm(self, v: NDArray) -> float:
        """l2 norm in the cell metric of a dual vector over the unknowns."""
        return float(np.linalg.norm(v / self._root_mult))

    def _laplacian(
        self, weights: NDArray, exterior: float | NDArray, scale: float, out: NDArray | None
    ) -> NDArray:
        """scale * (diag(row sums + exterior * k_out) - weights), written to out.

        weights holds the n x n pair weights on the free cells (out may be
        weights itself); exterior weighs each cell's kernel mass toward the
        exterior.
        """
        diag = np.sum(weights, axis=1) + exterior * self.k_out
        out = np.multiply(weights, -scale, out=out)
        out[np.diag_indices_from(out)] = diag * scale
        return out

    @property
    def quad_matrix(self) -> NDArray:
        """SPD quadratic form of the kernel weights on the free cells.

        Q = 2 h^(2N) (diag(row sums + exterior sums) - K); w^T Q w is the
        p=2-type energy with this kernel's exponent; Q gives the inner
        solves their start.  Built anew on each access: of the square
        tables, the kernel keeps only K_oo, and the M x M pair-field weight
        once a pair field asked for it.
        """
        return self._laplacian(self.K_oo, 1.0, 2.0 * self.h2n, None)

    def hessian_omega(self, w: NDArray, out: NDArray | None = None) -> NDArray:
        """Dense curvature of (1/p) energy at w, pair ties floored.

        A weighted graph Laplacian with weights (p-1)|w_i - w_j|^(p-2) K_ij;
        |.| is floored at 1e-14 max|w| (1e-14 for w = 0) so exact ties stay
        finite at every scale of w.  Equals quad_matrix when p = 2.  Written
        into out (an n x n array or view) when given.
        """
        p = self.params.p
        scale = float(np.max(np.abs(w))) if len(w) else 0.0
        delta = 1e-14 * (scale if scale > 0.0 else 1.0)
        # one n x n buffer: difference, tie floor, weight, then the matrix
        h = np.subtract.outer(w, w, out=out)
        np.abs(h, out=h)
        np.maximum(h, delta, out=h)
        h **= p - 2.0
        h *= self.K_oo
        exterior = np.maximum(np.abs(w), delta) ** (p - 2.0)
        return self._laplacian(h, exterior, 2.0 * (p - 1.0) * self.h2n, h)

    # -- scalar reductions ------------------------------------------------

    def energy_grad(self, u_om: NDArray) -> tuple[float, NDArray]:
        """Energy and its gradient with respect to the Omega values, in one pass.

        Each block forms z = u_i - u_j and |z|^(p-1) once; the weighted odd
        power K phi_p(z) gives the gradient rows, and its pairing with z the
        pair energy K |z|^p.
        """
        p = self.params.p

        def block(lo: int, hi: int) -> tuple[float, NDArray]:
            z = u_om[lo:hi, None] - u_om[None, :]
            kphi = phi_p(z, p)
            kphi *= self.K_oo[lo:hi]
            rows = np.sum(kphi, axis=1)
            kphi *= z
            return float(np.sum(kphi)), rows

        inner, blocks = zip(*map_blocks(block, len(u_om)))
        kphi_out = phi_p(u_om, p) * self.k_out
        rows = np.concatenate(blocks)
        rows += kphi_out
        outer = float(np.sum(kphi_out * u_om))
        return self.h2n * (ordered_sum(inner) + 2.0 * outer), 2.0 * p * self.h2n * rows

    def energy(self, u_om: NDArray) -> float:
        return self.energy_grad(u_om)[0]

    def grad_omega(self, u_om: NDArray) -> NDArray:
        """Gradient of the energy with respect to the Omega values."""
        return self.energy_grad(u_om)[1]

    def monotone_pairing(self, u_om: NDArray, v_om: NDArray) -> float:
        """Double sum of (phi(U)-phi(V)) (U-V) over active pairs.

        Every addend is nonnegative, so the reduction is cancellation-free.
        """
        p = self.params.p

        def block(lo: int, hi: int) -> float:
            du = u_om[lo:hi, None] - u_om[None, :]
            dv = v_om[lo:hi, None] - v_om[None, :]
            return float(np.sum(self.K_oo[lo:hi] * (phi_p(du, p) - phi_p(dv, p)) * (du - dv)))

        inner = ordered_sum(map_blocks(block, len(u_om)))
        outer = float(np.sum(self.k_out * (phi_p(u_om, p) - phi_p(v_om, p)) * (u_om - v_om)))
        return self.h2n * (inner + 2.0 * outer)

    def gradient_floor(self, u_om: NDArray) -> float:
        """Gradient norm of (1/p) energy(w) - <b, w> that no solver can beat at u.

        Two float effects bound any solver.  Accumulated roundoff scales
        with eps times the absolute-value assembly, the l2 norm of the
        weak gradient with |z|^(p-1) in place of phi_p(z).  Value
        granularity is sharper for p < 2: one last-place change of a cell
        value moves a pair difference z by about eps*max|u|, whose image
        under the odd power jumps by (|z|+ulp)^(p-1) - |z|^(p-1); across
        near-tie pairs (z = 0 in exact arithmetic) this dwarfs linear
        roundoff.  One pass over the pairs serves both; the floor is the
        larger, in dual_norm, with a 4x margin.  It does not depend on b.
        Only the drivers apply it: first_eigenpair in its stop test,
        solve_dirichlet in its check after the run.
        """
        p = self.params.p
        eps = np.finfo(float).eps
        scale = float(np.max(np.abs(u_om))) if len(u_om) else 0.0
        delta = eps * scale + 1e-300

        def block(lo: int, hi: int) -> tuple[NDArray, NDArray]:
            z = np.abs(u_om[lo:hi, None] - u_om[None, :])
            zp = z ** (p - 1.0)
            k = self.K_oo[lo:hi]
            return np.sum(k * ((z + delta) ** (p - 1.0) - zp), axis=1), np.sum(k * zp, axis=1)

        jumps, envs = zip(*map_blocks(block, len(u_om)))
        zi = np.abs(u_om)
        zi_p = zi ** (p - 1.0)
        jump = np.concatenate(jumps) + ((zi + delta) ** (p - 1.0) - zi_p) * self.k_out
        env = np.concatenate(envs) + zi_p * self.k_out
        granularity = self.dual_norm(2.0 * self.h2n * jump)
        return 4.0 * max(granularity, eps * self.dual_norm(2.0 * self.h2n * env))


def energy_kernel(dom: GridDomain, params: FracParams, fold: bool = False) -> EnergyKernel:
    """EnergyKernel(dom, params, fold), cached on dom; on a grid whose group
    is trivial, the folded and the plain kernel are one object."""
    fold = fold and dom.symmetry.order > 1
    return dom.memo(("energy kernel", params.s, params.p, fold), lambda: EnergyKernel(dom, params, fold))


# ---------------------------------------------------------------------------
# public operations


def gagliardo_energy(u: GridFunction, params: FracParams) -> float:
    """Truncated Gagliardo energy: the p-th power of the seminorm.

    Sum over ordered cell pairs of |u_i - u_j|^p |x_i - x_j|^(-(N+sp)) h^(2N).
    A u constant on every orbit of the grid's symmetry group, such as an
    eigenfunction, takes the folded kernel, which holds no n x n table;
    any other u takes the plain kernel.
    """
    u_om = u.omega_values
    sym = u.host.symmetry
    a = u_om[sym.reps]
    if np.array_equal(a[sym.orbit], u_om):
        return energy_kernel(u.host, params, fold=True).energy(a)
    return energy_kernel(u.host, params).energy(u_om)


def lp_norm(u: GridFunction, p: float) -> float:
    """(sum over Omega cells of |u_i|^p h^N)^(1/p)."""
    if not p >= 1.0:
        raise ValueError(f"p must be at least 1, got {p}")
    hn = u.host.h**u.host.dim
    return float(np.sum(np.abs(u.omega_values) ** p) * hn) ** (1.0 / p)


def rayleigh_quotient(u: GridFunction, params: FracParams) -> float:
    """Energy divided by ||u||_p^p; undefined for the zero function."""
    denom = lp_norm(u, params.p) ** params.p
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero function is undefined")
    return gagliardo_energy(u, params) / denom


def apply_operator(u: GridFunction, params: FracParams) -> GridFunction:
    """Gradient of the energy with respect to the free (Omega) cell values.

    Satisfies the Euler identity <u, A u> = p * energy(u); paired against a
    test function it returns p times the symmetric weak double sum, so the
    weak eigen-equation residual uses A u / p.  Zero outside Omega.
    """
    g_om = energy_kernel(u.host, params).grad_omega(u.omega_values)
    return GridFunction.from_omega(u.host, g_om)


def _pair_weight(dom: GridDomain, params: FracParams, what: str) -> NDArray:
    """|x_i - x_j|^(-(N/p+s)) over all M x M ball-cell pairs, 0 on the diagonal.

    Built once per (grid, s, p) and cached on the grid; refused for `what`
    beyond the dense budget before anything M x M exists.
    """
    check_dense_pairs(dom.n_cells, dom.n_cells, what)
    cells = np.arange(dom.n_cells)
    a = -(dom.dim / params.p + params.s)
    return dom.memo(("pair weight", params.s, params.p), lambda: dom.pair_power(cells, cells, a, what))


def nonlocal_gradient(u: GridFunction, params: FracParams) -> PairFunction:
    """Pairwise difference quotient (u_i - u_j)/|x_i - x_j|^(N/p+s)."""
    dom = u.host
    w = _pair_weight(dom, params, "the nonlocal gradient")
    vals = np.subtract.outer(u.values, u.values)
    vals *= w
    return PairFunction(vals, dom)


def nonlocal_divergence(phi: PairFunction, params: FracParams) -> NDArray:
    """Adjoint field d_i = sum_j (phi(i,j) - phi(j,i)) |x_i-x_j|^(-(N/p+s)) h^N.

    Defined on every ball cell (not only Omega).  The weight w is exactly
    symmetric, so d_i = h^N (sum_j t_ij - sum_j t_ji) with t = phi w: one
    pass over the pairs, no transpose.  Both sums are pairwise (the column
    sums by _reduce.column_sums), so symmetric pair data cancels to
    roundoff, not to an exact 0.
    """
    dom = phi.host
    w = _pair_weight(dom, params, "the nonlocal divergence")
    t = phi.values * w
    d = np.sum(t, axis=1)
    d -= column_sums(t)
    d *= dom.h**dom.dim
    return d
