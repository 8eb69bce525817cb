"""Runners for the workload kinds; imported by the child after fraceig.

Each runner calls the library the way the matching CLI command does
(`eig`, `sweep`, `verify --suite all`), writes its outputs through
`fraceig.serialize`, and records every operation in an `Ops` tally.  An
operation fails, and the run goes on, in one of three ways:

- "raised": it raised one of `FAILURES` (it did not finish);
- "violated": a check the program applies to itself flagged it (a verify
  suite's threshold, or the sweep command's exit-3/exit-4 conditions);
- "wrong": its result disagrees with an independent reference (the pinned
  values in `workloads.py`, the dense p=2 oracle, `Eigenpair.validate`,
  the Poincare lower bound, or the files it wrote).

A faster but wrong result is therefore a failed operation, not a speed-up,
and only "wrong" makes the run incorrect.  A runner does the timed work
and returns the gates that run after the timed region stops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fraceig.dirichlet
from fraceig import (
    ConvergenceError,
    FracParams,
    GridFunction,
    PairFunction,
    SolverConfig,
    clarkson_gap,
    comparison_check,
    dyadic_shifts,
    equivalence_check,
    first_eigenpair,
    gagliardo_energy,
    holder_report,
    lp_norm,
    monotonicity_certificate,
    nonlocal_divergence,
    nonlocal_gradient,
    p2_oracle,
    poincare_constant,
    psmall_pairwise_gap,
    s_sweep,
    scaling_check,
    serialize,
    translation_quotient_check,
)
from fraceig.verify import CheckResult, report_dict

FAILURES = (ConvergenceError, ArithmeticError, ValueError, MemoryError)

_WEIGHTED_TOL = 1e-10  # the sweep command's exit-4 threshold


@dataclass
class Ops:
    """Attempted operations and the failures among them, one per operation."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)  # op index -> (name, kind, detail)

    def call(self, name: str, fn: Callable, *args):
        """Run one operation: (index, value), value None when it raised FAILURES."""
        self.attempted += 1
        idx = self.attempted
        try:
            return idx, fn(*args)
        except FAILURES as exc:
            self.failures[idx] = (name, "raised", f"{type(exc).__name__}: {exc}")
            return idx, None

    def gate(self, idx: int, name: str, ok: bool, detail: str, kind: str = "wrong") -> None:
        """Fail the operation unless ok; its first failure is the one kept."""
        if not ok and idx not in self.failures:
            self.failures[idx] = (name, kind, detail)

    @property
    def wrong(self) -> int:
        return sum(1 for _, kind, _ in self.failures.values() if kind == "wrong")


@dataclass
class Context:
    dom: object
    seed: int
    out_dir: Path
    threads: int
    ops: Ops


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _run_gates(ops: Ops, idx: int, name: str, checks, kind: str = "wrong") -> None:
    """Evaluate (thunk, detail) checks in order; a check that raises fails."""
    for check, detail in checks:
        try:
            ok = bool(check())
        except FAILURES as exc:
            ok, detail = False, f"{detail}: {type(exc).__name__}: {exc}"
        ops.gate(idx, name, ok, detail, kind)


def eig(ctx: Context, s: float, p: float, ref_lam: float | None = None, rtol: float = 0.0):
    """`fraceig eig`: solve, write the (possibly partial) pair; exit 3 is a failure."""
    params = FracParams(s=s, p=p)
    cfg = SolverConfig(threads=ctx.threads, seed=ctx.seed)
    path = ctx.out_dir / "eigenpair.json"

    def eig_cli():
        try:
            pair = first_eigenpair(ctx.dom, params, cfg)
        except ConvergenceError as exc:
            if exc.partial is not None:
                serialize.save_eigenpair(exc.partial, params, path)
            raise
        serialize.save_eigenpair(pair, params, path)
        return pair

    idx, pair = ctx.ops.call("eig", eig_cli)

    def gates():
        if pair is None:
            return
        saved = json.loads(path.read_text(encoding="utf-8"))
        checks = [
            (lambda: pair.converged, "eigen solve not converged"),
            (lambda: pair.validate(params) is None, "Eigenpair.validate"),
            (lambda: pair.lam * poincare_constant(ctx.dom, params) >= 1.0,
             "lambda below the Poincare lower bound"),
            (lambda: saved["lambda"] == pair.lam and len(saved["u"]) == ctx.dom.n_cells,
             "written eigenpair differs from the solve"),
        ]
        if ref_lam is not None:
            checks.append((lambda: _close(pair.lam, ref_lam, rtol),
                           f"lambda {pair.lam!r} not within {rtol} of {ref_lam!r}"))
        _run_gates(ctx.ops, idx, "eig", checks)

    return gates


def sweep(ctx: Context, p: float, s_values: list, s_base: float,
          ref_lams: list | None = None, rtol: float = 1e-6):
    """`fraceig sweep`: one operation; non-converged rows or exit 4 fail its gate.

    lambda(s_base) must match the dense p=2 oracle to rtol; the oracle runs
    in the gates, outside the timed region.
    """
    cfg = SolverConfig(threads=ctx.threads, seed=ctx.seed)
    prefix = ctx.out_dir / "sweep"

    def sweep_cli():
        report = s_sweep(ctx.dom, p, s_values, s_base, cfg)
        serialize.save_sweep_report(report, prefix)
        return report

    idx, report = ctx.ops.call("sweep", sweep_cli)

    def gates():
        if report is None:
            return
        saved = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        lam_base = report.row_at(s_base).lam
        checks = [
            (lambda: _close(lam_base, p2_oracle(ctx.dom, FracParams(s=s_base, p=p)).lam, rtol),
             f"lambda({s_base}) differs from the dense oracle"),
            (lambda: [r["lam"] for r in saved["rows"]] == [r.lam for r in report.rows],
             "written sweep differs from the solve"),
        ]
        for s, ref in zip(s_values, ref_lams or []):
            checks.append((lambda s=s, ref=ref: _close(report.row_at(s).lam, ref, rtol),
                           f"lambda({s}) not within {rtol} of {ref!r}"))
        _run_gates(ctx.ops, idx, "sweep", checks)
        _run_gates(ctx.ops, idx, "sweep", [
            (lambda: all(r.converged for r in report.rows), "a sweep row did not converge"),
            (lambda: report.weighted_violation() <= _WEIGHTED_TOL,
             "weighted monotonicity violated"),
        ], kind="violated")

    return gates


def certify(ctx: Context, s: float, p: float, counts: dict,
            ref_poincare: float | None = None, ref_lam: float | None = None,
            rtol: float = 0.0, inject_stall: bool = False):
    """The `verify --suite all` mix with one operation per random instance.

    Instances come from one stream seeded like the CLI's, drawn in suite
    order; counts gives the instances of each randomized suite.  Every
    operation also computes its suite's margin and lands in the same
    report the verify command writes.  inject_stall makes the first
    Dirichlet solve raise ConvergenceError (the self-test's injected
    failure).
    """
    dom, ops = ctx.dom, ctx.ops
    params = FracParams(s=s, p=p)
    cfg = SolverConfig(threads=ctx.threads, seed=ctx.seed)
    rng = np.random.default_rng(ctx.seed)
    h2n, hn = dom.h ** (2 * dom.dim), dom.h**dom.dim
    results: list[CheckResult] = []

    if inject_stall:
        real_solve = fraceig.dirichlet.solve_dirichlet
        stalled = []

        def stall_once(*args, **kwargs):
            if not stalled:
                stalled.append(True)
                raise ConvergenceError("injected stall", partial=None)
            return real_solve(*args, **kwargs)

        fraceig.dirichlet.solve_dirichlet = stall_once

    def instance(name: str, fn: Callable, *args, gate: Callable, pin: Callable | None = None):
        """One operation.

        gate(value) -> (ok, margin, detail) applies the suite's threshold;
        pin(value) -> (computed, reference or None) checks a pinned value.
        """
        idx, value = ops.call(name, fn, *args)
        margin, detail = 0.0, ""
        if value is not None:
            if pin is not None:
                got, ref = pin(value)
                if ref is not None:
                    ops.gate(idx, name, _close(got, ref, rtol),
                             f"{got!r} is not within {rtol} of the pinned {ref!r}")
            ok, margin, detail = gate(value)
            ops.gate(idx, name, ok, f"margin {margin!r} {detail}", kind="violated")
        failure = ops.failures.get(idx)
        results.append(CheckResult(name, failure is None, float(margin),
                                   failure[2] if failure else detail))
        return value

    def random_u():
        return GridFunction.from_omega(dom, rng.standard_normal(dom.n_omega))

    def need_const():
        if const is None:
            raise ValueError("the Poincare constant is unavailable")
        return const

    # poincare
    const = instance("poincare-constant", poincare_constant, dom, params,
                     gate=lambda c: (c > 0.0, c, ""), pin=lambda c: (c, ref_poincare))

    def poincare_random(u):
        rhs = need_const() * gagliardo_energy(u, params)
        return (rhs - lp_norm(u, p) ** p) / rhs

    for _ in range(counts["random"]):
        instance("poincare-random", poincare_random, random_u(),
                 gate=lambda m: (m >= 0.0, m, ""))

    def with_eigenpair(check):
        def op():
            pair = first_eigenpair(dom, params, cfg)
            return pair, *check(pair)

        return op

    def eigen_gate(out):
        pair, ok, detail = out
        return ok, pair.lam, detail

    def eigen_pin(out):
        return out[0].lam, ref_lam

    instance("poincare-eigen-bound",
             with_eigenpair(lambda pair: (pair.lam * need_const() >= 1.0,
                                          f"lambda*constant {pair.lam * need_const()!r}")),
             gate=eigen_gate, pin=eigen_pin)

    # clarkson
    def clarkson_gate(sides):
        margin = (sides[1] - sides[0]) / max(sides[1], 1e-300)
        return margin >= -1e-12, margin, ""

    for _ in range(counts["clarkson"]):
        instance("clarkson", clarkson_gap, random_u(), random_u(), params, gate=clarkson_gate)

    # adjoint: dense M x M pair fields
    def adjoint(u, phi):
        lhs = float(np.sum(u.values * nonlocal_divergence(phi, params))) * hn
        rhs = float(np.sum(phi.values * nonlocal_gradient(u, params).values)) * h2n
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

    for _ in range(counts["adjoint"]):
        u = random_u()
        phi = PairFunction(rng.standard_normal((dom.n_cells, dom.n_cells)), dom)
        instance("adjoint", adjoint, u, phi, gate=lambda g: (g <= 1e-12, g, ""))

    # monotone: the certificate raises ArithmeticError on a violation
    def monotone(u, v):
        pairing, bound = monotonicity_certificate(u, v, params)
        if p >= 2.0:
            return (pairing - bound) / max(pairing, 1e-300), 0.0
        gap, scale = psmall_pairwise_gap(u, v, params)
        return pairing, gap / max(scale, 1e-300)

    floor = -1e-12 if p >= 2.0 else -1e-15
    for _ in range(counts["monotone"]):
        instance("monotone", monotone, random_u(), random_u(),
                 gate=lambda m: (m[0] >= floor and m[1] <= 1e-12, m[0], f"pairwise {m[1]!r}"))

    # comparison: one ordered data pair per operation
    for _ in range(counts["comparison"]):
        f1 = rng.standard_normal(dom.n_omega)
        f2 = f1 + np.abs(rng.standard_normal(dom.n_omega))
        instance("comparison", comparison_check, dom, f1, f2, params, cfg,
                 gate=lambda r: (r.max_gap <= cfg.tol, r.max_gap, ""))

    instance("scaling", scaling_check, dom, params, [2.0, 3.0, 0.5], cfg,
             gate=lambda r: (r.passed, max(r.errors), f"lam_base {r.lam_base!r}"),
             pin=lambda r: (r.lam_base, ref_lam))

    def equivalence_gate(r):
        margin = (r.bound * r.Y - r.W) / max(r.bound * r.Y, 1e-300)
        return margin >= 0.0, margin, ""

    for _ in range(counts["equivalence"]):
        instance("equivalence", equivalence_check, random_u(), params, 20.0, ctx.threads,
                 gate=equivalence_gate)

    def translation(pair):
        u = pair.eigenfunction
        rep = translation_quotient_check(u, params, dyadic_shifts(dom))
        ok = all(np.isfinite(r) for r in rep.ratios) and np.isfinite(rep.sup_ratio)
        if dom.h * float(np.linalg.norm(rep.shifts[-1])) > dom.diameter_R:
            # shifts beyond the diameter separate the supports exactly
            expect = 2.0 * lp_norm(u, p) ** p
            ok = ok and abs(rep.differences[-1] - expect) / expect <= 1e-12
        return bool(ok), f"sup_ratio {rep.sup_ratio!r}"

    instance("translation", with_eigenpair(translation), gate=eigen_gate, pin=eigen_pin)

    def holder(pair):
        gamma, sup_q = holder_report(pair.eigenfunction, params)
        return math.isfinite(sup_q) and sup_q > 0.0, f"gamma {gamma!r} sup {sup_q!r}"

    instance("holder", with_eigenpair(holder), gate=eigen_gate, pin=eigen_pin)

    path = ctx.out_dir / "verify.json"
    serialize.save_json(report_dict("all", results, params, cfg), path)

    def gates():
        saved = json.loads(path.read_text(encoding="utf-8"))
        if len(saved["checks"]) != ops.attempted or saved["all_passed"] != (not ops.failures):
            idx, _ = ops.call("verify-report", lambda: None)
            ops.gate(idx, "verify-report", False, "written report differs from the checks")

    return gates


RUNNERS = {"eig": eig, "sweep": sweep, "certify": certify}
