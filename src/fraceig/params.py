"""Exponent and solver-configuration records shared by all solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FracParams:
    """Exponent pair (s, p) of a truncated fractional energy.

    The truncation factor t is a property of the grid (GridDomain.t, set
    by build_domain), not of the energy.

    Attributes
    ----------
    s : float
        Differentiability order, 0 < s < 1.
    p : float
        Integrability exponent, finite and p > 1.
    """

    s: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must exceed 1 and be finite, got {self.p}")

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limits, tolerances and reproducibility knobs.

    tol is the relative stopping tolerance on both the eigenvalue change
    and the weak residual; the eigen solver sets its own inner solves, and
    inner_tol and max_iter_inner bound the convex solve of solve_dirichlet.
    seed feeds every randomized property check; threads sets the worker
    count of s_sweep (one eigensolve per s) and of the far-field quadrature
    of the equivalence suite, at most one per CPU, and never changes a result.
    """

    tol: float = 1e-8
    inner_tol: float = 1e-10
    max_iter_outer: int = 500
    max_iter_inner: int = 10000
    seed: int = 42
    threads: int = field(default=1)

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not 0.0 < self.inner_tol < math.inf:
            raise ValueError(f"inner_tol must be positive and finite, got {self.inner_tol}")
        if self.max_iter_outer < 1 or self.max_iter_inner < 1:
            raise ValueError("iteration limits must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
