"""Command-line front end.

Exit codes: 0 success, 2 invalid input, 3 solver non-convergence (partial
results are still written), 4 theorem-check violation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .asymptotics import s_sweep
from .domain import build_domain, poincare_constant
from .eigen import first_eigenpair, p2_oracle
from .errors import ConvergenceError
from .dirichlet import solve_dirichlet
from .params import FracParams, SolverConfig
from .serialize import (
    load_domain_spec,
    load_problem,
    save_eigenpair,
    save_grid_function,
    save_json,
    save_sweep_report,
    save_trace_csv,
)
from .verify import SUITES, report_dict, run_suite

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VIOLATION = 4

_WEIGHTED_TOL = 1e-10
# most s values one --s-range may ask for; each costs one eigen solve
_MAX_S_VALUES = 10000


# solver flags, each with the SolverConfig field it sets
_SOLVER_FLAGS = {
    "--tol": ("tol", float),
    "--inner-tol": ("inner_tol", float),
    "--max-iter": ("max_iter_outer", int),
    "--max-iter-inner": ("max_iter_inner", int),
    "--seed": ("seed", int),
}
_EIGEN_FLAGS = ("--tol", "--max-iter")


def _add_common(
    sub: argparse.ArgumentParser, with_params: bool = True, solver: tuple = ()
) -> None:
    """--domain, --s and --p, --t, and the solver flags the subcommand reads."""
    sub.add_argument("--domain", required=True, help="domain spec JSON file")
    if with_params:
        sub.add_argument("--s", type=float, required=True, help="order s in (0,1)")
        sub.add_argument("--p", type=float, required=True, help="exponent p > 1")
    sub.add_argument("--t", type=float, default=4.0, help="truncation factor (default 4)")
    for flag in solver:  # a flag left out keeps the SolverConfig default
        dest, kind = _SOLVER_FLAGS[flag]
        sub.add_argument(flag, dest=dest, type=kind, default=argparse.SUPPRESS)


def _config(args) -> SolverConfig:
    fields = {dest for dest, _ in _SOLVER_FLAGS.values()}
    return SolverConfig(**{k: v for k, v in vars(args).items() if k in fields})


def _domain(args):
    return build_domain(load_domain_spec(args.domain), t=args.t)


def cmd_eig(args) -> int:
    dom = _domain(args)
    params = FracParams(s=args.s, p=args.p)
    cfg = _config(args)
    try:
        pair = first_eigenpair(dom, params, cfg)
        code = EXIT_OK
    except ConvergenceError as exc:
        if exc.partial is None:
            raise
        pair = exc.partial
        code = EXIT_NO_CONVERGENCE
        print(f"warning: {exc}", file=sys.stderr)
    save_eigenpair(pair, params, args.out)
    if args.trace:
        save_trace_csv(pair, args.trace)
    print(repr(pair.lam))
    return code


def cmd_solve(args) -> int:
    dom = _domain(args)
    prob, _params = load_problem(args.problem, dom)
    cfg = _config(args)
    try:
        w = solve_dirichlet(prob, cfg)
        code = EXIT_OK
    except ConvergenceError as exc:
        if exc.partial is None:
            raise
        w = exc.partial
        code = EXIT_NO_CONVERGENCE
        print(f"warning: {exc}", file=sys.stderr)
    save_grid_function(w, args.out, binary=args.binary)
    return code


def _parse_s_values(args) -> list[float]:
    if args.s_list is not None:
        values = [float(v) for v in args.s_list.split(",") if v.strip()]
    else:
        fields = args.s_range.split(":")
        if len(fields) != 3:
            raise ValueError(f"bad s range {args.s_range!r}: needs start:stop:step")
        lo_s, hi_s, step = (float(v) for v in fields)
        if not (np.isfinite([lo_s, hi_s, step]).all() and step > 0 and hi_s >= lo_s):
            raise ValueError(f"bad s range {args.s_range!r}: needs finite start <= stop, step > 0")
        count = np.round((hi_s - lo_s) / step) + 1  # a float: inf when the quotient overflows
        if count > _MAX_S_VALUES:
            raise ValueError(
                f"s range {args.s_range!r} holds {count:.0f} values, more than "
                f"{_MAX_S_VALUES} (one eigen solve each)"
            )
        values = [round(lo_s + i * step, 12) for i in range(int(count))]
    if not values:
        raise ValueError("no s values given")
    return values


def cmd_sweep(args) -> int:
    s_values = _parse_s_values(args)
    dom = _domain(args)
    cfg = _config(args)
    base = min(s_values, key=lambda s: abs(s - args.s_base))
    if not abs(base - args.s_base) <= 1e-9:  # also refuses a NaN --s-base
        raise ValueError(f"--s-base {args.s_base} is not among the sweep values")
    report = s_sweep(dom, args.p, s_values, base, cfg)
    paths = save_sweep_report(report, args.out)
    print(f"wrote {paths['csv']} {paths['json']} {paths['plot']}")
    if any(not r.converged for r in report.rows):
        return EXIT_NO_CONVERGENCE
    if report.weighted_violation() > _WEIGHTED_TOL:
        print(
            f"weighted monotonicity violated: {report.weighted_violation():.3e}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_poincare(args) -> int:
    dom = _domain(args)
    params = FracParams(s=args.s, p=args.p)
    value = poincare_constant(dom, params)
    print(repr(value))
    if args.out:
        save_json({"s": params.s, "p": params.p, "t": dom.t, "constant": value}, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    dom = _domain(args)
    params = FracParams(s=args.s, p=args.p)
    cfg = _config(args)
    results = run_suite(args.suite, dom, params, cfg)
    report = {**report_dict(args.suite, results, params, cfg), "t": dom.t}
    save_json(report, args.out)
    for check in results:
        status = "pass" if check.passed else "FAIL"
        print(f"{status} {check.name} margin={check.margin!r} {check.detail}")
    return EXIT_OK if report["all_passed"] else EXIT_VIOLATION


def cmd_oracle(args) -> int:
    dom = _domain(args)
    params = FracParams(s=args.s, p=args.p)
    pair = p2_oracle(dom, params)
    save_eigenpair(pair, params, args.out)
    print(repr(pair.lam))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraceig",
        description="Truncated fractional p-Laplacian eigenpairs, Dirichlet solves and checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        # no prefix matching, or solve would take --max-iter for --max-iter-inner
        return subs.add_parser(name, help=text, allow_abbrev=False)

    p_eig = command("eig", "first eigenpair")
    _add_common(p_eig, solver=_EIGEN_FLAGS)
    p_eig.add_argument("--out", default="eigenpair.json")
    p_eig.add_argument("--trace", default=None, help="optional trace CSV path")
    p_eig.set_defaults(func=cmd_eig)

    p_solve = command("solve", "Dirichlet solve from a problem file")
    _add_common(p_solve, with_params=False, solver=("--inner-tol", "--max-iter-inner"))
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--out", default="solution.json")
    p_solve.add_argument("--binary", action="store_true", help="write binary values")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = command("sweep", "eigenvalue sweep across s")
    _add_common(p_sweep, with_params=False, solver=_EIGEN_FLAGS)
    p_sweep.add_argument("--p", type=float, required=True, help="exponent p > 1")
    s_source = p_sweep.add_mutually_exclusive_group(required=True)
    s_source.add_argument("--s-list", help="comma-separated s values")
    s_source.add_argument("--s-range", help="start:stop:step")
    p_sweep.add_argument("--s-base", type=float, required=True)
    p_sweep.add_argument("--out", default="sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_poin = command("poincare", "geometric Poincare constant")
    _add_common(p_poin)
    p_poin.add_argument("--out", default=None)
    p_poin.set_defaults(func=cmd_poincare)

    p_verify = command("verify", "randomized property suites")
    _add_common(p_verify, solver=tuple(_SOLVER_FLAGS))
    p_verify.add_argument("--suite", required=True, choices=SUITES + ("all",))
    p_verify.add_argument("--out", default="verify.json")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = command("oracle", "dense p=2 eigen oracle")
    _add_common(p_oracle)
    p_oracle.add_argument("--out", default="oracle.json")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
