"""Exponent and solver-configuration records shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FracParams:
    """Exponent triple (s, p, t) of a truncated fractional energy.

    Attributes
    ----------
    s : float
        Differentiability order, 0 < s < 1.
    p : float
        Integrability exponent, p > 1.
    t : float
        Truncation factor of the enclosing ball (its diameter is t times
        the domain diameter), t > 1.  Defaults to 4.
    """

    s: float
    p: float
    t: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.t > 1.0:
            raise ValueError(f"t must exceed 1, got {self.t}")

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limits, tolerances and reproducibility knobs.

    tol is the relative stopping tolerance on both the eigenvalue change
    and the weak residual; inner_tol controls the convex inner solves.
    seed feeds every randomized property check; threads sets the worker
    count of s_sweep (one eigensolve per s) and of the far-field
    quadrature of the equivalence suite, and never changes a result.
    """

    tol: float = 1e-8
    inner_tol: float = 1e-10
    max_iter_outer: int = 500
    max_iter_inner: int = 10000
    seed: int = 42
    threads: int = field(default=1)

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        if self.max_iter_outer < 1 or self.max_iter_inner < 1:
            raise ValueError("iteration limits must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
