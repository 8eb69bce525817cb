"""Randomized property suites behind the verify command.

Each suite draws reproducible random data from the configured seed and
returns one result per named check with its worst margin, so violations
point at the tightest instance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    dyadic_shifts,
    equivalence_check,
    scaling_check,
    translation_quotient_check,
    holder_report,
)
from .core import (
    GridFunction,
    PairFunction,
    _pair_weight,
    gagliardo_energy,
    lp_norm,
    nonlocal_divergence,
    nonlocal_gradient,
)
from .dirichlet import comparison_check, monotonicity_certificate, psmall_pairwise_gap
from .domain import GridDomain, check_dense_pairs, poincare_constant
from .eigen import clarkson_gap, first_eigenpair
from .params import FracParams, SolverConfig

__all__ = ["SUITES", "CheckResult", "run_suite", "report_dict"]

@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _random_u(dom: GridDomain, rng) -> GridFunction:
    return GridFunction.from_omega(dom, rng.standard_normal(dom.n_omega))


def _suite_poincare(dom, params, cfg, rng):
    const = poincare_constant(dom, params)
    worst = np.inf
    violations = 0
    for _ in range(100):
        u = _random_u(dom, rng)
        lhs = lp_norm(u, params.p) ** params.p
        rhs = const * gagliardo_energy(u, params)
        margin = (rhs - lhs) / rhs
        worst = min(worst, margin)
        if lhs > rhs:
            violations += 1
    results = [
        CheckResult(
            "poincare-random",
            violations == 0,
            float(worst),
            f"100 random functions, {violations} violations, constant {const!r}",
        )
    ]
    pair = first_eigenpair(dom, params, cfg)
    gap = pair.lam * const - 1.0
    results.append(
        CheckResult(
            "poincare-eigen-bound",
            gap >= 0.0,
            float(gap),
            f"lambda={pair.lam!r}, lower bound {1.0 / const!r}",
        )
    )
    return results


def _suite_clarkson(dom, params, cfg, rng):
    worst = np.inf
    for _ in range(100):
        u, v = _random_u(dom, rng), _random_u(dom, rng)
        lhs, rhs = clarkson_gap(u, v, params)
        worst = min(worst, (rhs - lhs) / max(rhs, 1e-300))
    return [
        CheckResult(
            "clarkson",
            worst >= -1e-12,
            float(worst),
            f"branch {'p>=2' if params.p >= 2 else '1<p<2'}",
        )
    ]


def _suite_adjoint(dom, params, cfg, rng):
    """<u, div phi> = <phi, grad u>, each draw within the roundoff of its own
    sums: eps times the sums of the absolute terms of both sides, relative
    to the larger side."""
    check_dense_pairs(dom.n_cells, dom.n_cells, "the adjoint suite's random pair field")
    h2n = dom.h ** (2 * dom.dim)
    hn = dom.h**dom.dim
    eps = float(np.finfo(float).eps)
    weight = _pair_weight(dom, params, "the adjoint suite's pair weight")
    worst, worst_ratio = 0.0, 0.0
    for _ in range(100):
        u = _random_u(dom, rng)
        phi = PairFunction(rng.standard_normal((dom.n_cells, dom.n_cells)), dom)
        div = nonlocal_divergence(phi, params)
        lhs = float(np.sum(u.values * div)) * hn
        grad = nonlocal_gradient(u, params)
        rhs = float(np.sum(phi.values * grad.values)) * h2n
        # the absolute terms of both sides: sum |u_i| (|phi_ij| + |phi_ji|) w_ij
        # (w is symmetric) and sum |phi_ij g_ij|, each times h^(2N) below
        abs_phi = np.abs(phi.values)
        abs_sums = np.vdot(abs_phi, np.abs(grad.values))
        abs_phi *= weight
        abs_u = np.abs(u.values)
        abs_sums = float(abs_sums + np.sum(abs_u @ abs_phi) + np.sum(abs_phi @ abs_u))
        # gap and bound share the denominator max(|lhs|, |rhs|)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        worst_ratio = max(worst_ratio, abs(lhs - rhs) / (eps * abs_sums * h2n))
    detail = f"100 random (u, phi) pairs, worst gap/bound {worst_ratio:.3g}"
    return [CheckResult("adjoint", worst_ratio <= 1.0, float(worst), detail)]


def _suite_monotone(dom, params, cfg, rng):
    results = []
    worst_bound = np.inf
    worst_pairwise = -np.inf
    worst_equality = 0.0
    for _ in range(100):
        u, v = _random_u(dom, rng), _random_u(dom, rng)
        pairing, bound = monotonicity_certificate(u, v, params)
        if params.p >= 2.0:
            worst_bound = min(worst_bound, (pairing - bound) / max(pairing, 1e-300))
            if params.p == 2.0:
                e = gagliardo_energy(u - v, params)
                worst_equality = max(worst_equality, abs(pairing - e) / max(e, 1e-300))
        else:
            worst_bound = min(worst_bound, pairing)
            gap, scale = psmall_pairwise_gap(u, v, params)
            worst_pairwise = max(worst_pairwise, gap / max(scale, 1e-300))
    if params.p >= 2.0:
        results.append(
            CheckResult("monotone-bound", worst_bound >= -1e-12, float(worst_bound), "pairing >= 2^(2-p) energy(u-v)")
        )
        if params.p == 2.0:
            results.append(
                CheckResult("monotone-equality", worst_equality <= 1e-12, float(worst_equality), "pairing = energy(u-v) at p=2")
            )
    else:
        results.append(CheckResult("monotone-nonnegative", worst_bound >= -1e-15, float(worst_bound), "pairing >= 0"))
        results.append(
            CheckResult(
                "monotone-pairwise",
                worst_pairwise <= 1e-12,
                float(worst_pairwise),
                "weighted pairwise inequality on every active pair",
            )
        )
    return results


def _suite_comparison(dom, params, cfg, rng):
    worst = -np.inf
    for _ in range(20):
        f1 = rng.standard_normal(dom.n_omega)
        f2 = f1 + np.abs(rng.standard_normal(dom.n_omega))
        report = comparison_check(dom, f1, f2, params, cfg)
        worst = max(worst, report.max_gap)
    return [
        CheckResult("comparison", worst <= cfg.tol, float(worst), "20 ordered data pairs, max(w1 - w2)")
    ]


def _suite_scaling(dom, params, cfg, rng):
    report = scaling_check(dom, params, [2.0, 3.0, 0.5], cfg)
    return [
        CheckResult(
            "scaling",
            report.passed,
            float(max(report.errors)),
            f"factors {report.factors}, worst |c^sp lam(c Omega)/lam - 1|",
        )
    ]


def _suite_equivalence(dom, params, cfg, rng):
    worst = np.inf
    for _ in range(20):
        u = _random_u(dom, rng)
        rep = equivalence_check(u, params, threads=cfg.threads)
        worst = min(worst, (rep.bound * rep.Y - rep.W) / max(rep.bound * rep.Y, 1e-300))
    return [
        CheckResult("equivalence", worst >= 0.0, float(worst), "far-field part within the shell bound")
    ]


def _suite_translation(dom, params, cfg, rng):
    pair = first_eigenpair(dom, params, cfg)
    u = pair.eigenfunction
    rep = translation_quotient_check(u, params, dyadic_shifts(dom))
    finite = bool(all(np.isfinite(r) for r in rep.ratios) and np.isfinite(rep.sup_ratio))
    results = [
        CheckResult("translation-finite", finite, float(rep.sup_ratio), f"c_fit {rep.c_fit!r}")
    ]
    # shifts beyond the diameter of Omega separate the supports exactly
    big = np.asarray(rep.shifts[-1])
    if dom.h * float(np.linalg.norm(big)) > dom.diameter_R:
        expect = 2.0 * lp_norm(u, params.p) ** params.p
        gap = abs(rep.differences[-1] - expect) / expect
        results.append(
            CheckResult("translation-disjoint", gap <= 1e-12, float(gap), "difference integral = 2||u||_p^p")
        )
    return results


def _suite_holder(dom, params, cfg, rng):
    pair = first_eigenpair(dom, params, cfg)
    gamma, sup_q = holder_report(pair.eigenfunction, params)
    ok = np.isfinite(sup_q) and sup_q > 0
    return [CheckResult("holder", bool(ok), float(sup_q), f"gamma={gamma!r}")]


_RUNNERS = {
    "poincare": _suite_poincare,
    "clarkson": _suite_clarkson,
    "adjoint": _suite_adjoint,
    "monotone": _suite_monotone,
    "comparison": _suite_comparison,
    "scaling": _suite_scaling,
    "equivalence": _suite_equivalence,
    "translation": _suite_translation,
    "holder": _suite_holder,
}
SUITES = tuple(_RUNNERS)


def run_suite(
    suite: str, dom: GridDomain, params: FracParams, cfg: SolverConfig
) -> list[CheckResult]:
    """Run one named suite, or all applicable ones for suite='all'."""
    rng = np.random.default_rng(cfg.seed)
    if suite == "all":
        results = []
        for name in SUITES:
            if name == "holder" and not params.s * params.p > dom.dim:
                results.append(CheckResult("holder", True, 0.0, "skipped: requires s p > N"))
                continue
            if name == "equivalence" and dom.t != 4.0:
                results.append(CheckResult("equivalence", True, 0.0, "skipped: requires t = 4"))
                continue
            results.extend(_RUNNERS[name](dom, params, cfg, rng))
        return results
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    return _RUNNERS[suite](dom, params, cfg, rng)


def report_dict(suite: str, results: list[CheckResult], params: FracParams, cfg: SolverConfig) -> dict:
    """The suite's checks with the exponents and seed they ran under."""
    return {
        "suite": suite,
        "s": params.s,
        "p": params.p,
        "seed": cfg.seed,
        "all_passed": all(r.passed for r in results),
        "checks": [dataclasses.asdict(r) for r in results],
    }
