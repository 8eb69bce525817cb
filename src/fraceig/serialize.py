"""File formats: domain specs, grid functions, eigenpairs, problems, reports.

Everything is UTF-8 JSON on one line or CSV with a header row, except the
optional binary grid-function format: one JSON header line, a newline, then
the cell values as raw little-endian float64 in the host's row-major order.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .asymptotics import SweepReport
from .core import GridFunction, PairFunction
from .dirichlet import DirichletProblem
from .domain import DomainSpec, GridDomain, _as_int, as_floats, check_dense_pairs, json_field
from .eigen import Eigenpair
from .params import FracParams

__all__ = [
    "load_domain_spec",
    "save_domain_spec",
    "save_grid_function",
    "load_grid_function",
    "save_eigenpair",
    "save_trace_csv",
    "load_problem",
    "save_problem",
    "save_sweep_report",
    "save_json",
]


def save_json(obj: dict, path) -> None:
    # json's C encoder runs only without indent; floats keep their round-trip repr
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _load_object(path, what: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, got {type(data).__name__}")
    return data


def load_domain_spec(path) -> DomainSpec:
    return DomainSpec.from_dict(_load_object(path, "domain spec"))


def save_domain_spec(spec: DomainSpec, path) -> None:
    save_json({"dim": spec.dim, "h": spec.h, "shape": spec.shape}, path)


def _header(host: GridDomain) -> dict:
    return {
        "dim": host.dim,
        "h": host.h,
        "counts": list(host.counts),
        "t": host.t,
    }


def _check_header(head: dict, host: GridDomain) -> None:
    dim = json_field(head, "dim", _as_int)
    counts = json_field(head, "counts", lambda v: [_as_int(c) for c in v])
    if dim != host.dim or counts != list(host.counts):
        raise ValueError("grid-function header does not match the host lattice")
    # written as not (... <= ...) so that a NaN h fails the test
    h, t = json_field(head, "h"), json_field(head, "t")
    if not abs(h - host.h) <= 1e-12 * host.h or t != host.t:
        raise ValueError("grid-function header does not match the host geometry")


def save_grid_function(u: GridFunction, path, binary: bool = False) -> None:
    head = _header(u.host)
    if binary:
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode("utf-8") + b"\n")
            fh.write(np.asarray(u.values, dtype="<f8").tobytes())
    else:
        head["values"] = u.values.tolist()
        save_json(head, path)


def load_grid_function(path, host: GridDomain) -> GridFunction:
    """A grid function written by save_grid_function, in either format: a
    first line that holds a JSON object without values is the header of
    binary values after it; anything else is one JSON text."""
    raw = Path(path).read_bytes()
    first, _, payload = raw.partition(b"\n")
    try:
        data = json.loads(first)
    except ValueError:  # a JSON text over several lines
        data, payload = json.loads(raw), b""
    if not isinstance(data, dict):
        raise ValueError(f"grid function {path} must hold a JSON object, got {type(data).__name__}")
    _check_header(data, host)
    if "values" not in data and payload:
        return GridFunction(np.frombuffer(payload, dtype="<f8").copy(), host)
    if payload.strip():
        raise ValueError(f"grid function {path} holds data after its JSON object")
    return GridFunction(json_field(data, "values", as_floats), host)


def save_eigenpair(pair: Eigenpair, params: FracParams, path) -> None:
    host = pair.eigenfunction.host
    payload = {
        "lambda": pair.lam,
        "s": params.s,
        "p": params.p,
        "t": host.t,
        "h": host.h,
        "iterations": pair.iterations,
        "residual": pair.residual,
        "converged": pair.converged,
        "stop_reason": pair.stop_reason,
        "group_order": pair.group_order,
        "u": pair.eigenfunction.values.tolist(),
    }
    save_json(payload, path)


def save_trace_csv(pair: Eigenpair, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "lambda", "residual"])
        for i, (lam, res) in enumerate(pair.trace):
            writer.writerow([i, repr(lam), repr(res)])


def load_problem(path, host: GridDomain) -> tuple[DirichletProblem, FracParams]:
    data = _load_object(path, "problem file")
    params = FracParams(s=json_field(data, "s"), p=json_field(data, "p"))
    t = json_field(data, "t", default=4.0)
    if t != host.t:
        raise ValueError(f"problem file truncation t={t} does not match the domain's t={host.t}")
    f = json_field(data, "f", as_floats)
    if f.ndim == 0:  # one value for every Omega cell
        f = np.full(host.n_omega, float(f))
    pair_raw = data.get("F", "none")
    if pair_raw is None or pair_raw == "none":
        pair = None
    else:
        # refuse an oversized pair datum before converting the parsed list
        check_dense_pairs(host.n_cells, host.n_cells, "the problem file's pair datum F")
        pair = PairFunction(json_field(data, "F", as_floats), host)
    return DirichletProblem(host=host, params=params, f=f, F=pair), params


def save_problem(prob: DirichletProblem, path) -> None:
    payload = {
        "f": prob.f.tolist(),
        "F": "none" if prob.F is None else prob.F.values.tolist(),
        "s": prob.params.s,
        "p": prob.params.p,
        "t": prob.host.t,
    }
    save_json(payload, path)


def save_sweep_report(report: SweepReport, prefix) -> dict:
    """Write <prefix>.csv, <prefix>.json and a two-column (s, lambda)
    <prefix>_lambda.dat, endings appended to the whole prefix; returns the paths."""
    prefix = Path(prefix)
    csv_path = prefix.parent / (prefix.name + ".csv")
    json_path = prefix.parent / (prefix.name + ".json")
    plot_path = prefix.parent / (prefix.name + "_lambda.dat")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "lambda", "weighted_lambda", "dist_to_base", "iters", "residual"])
        for r in report.rows:
            writer.writerow(
                [r.s, repr(r.lam), repr(r.weighted_lam), repr(r.dist_to_base), r.iterations, repr(r.residual)]
            )
    save_json(report.to_dict(), json_path)
    with open(plot_path, "w", encoding="utf-8") as fh:
        for r in report.rows:
            fh.write(f"{r.s} {r.lam!r}\n")
    return {"csv": str(csv_path), "json": str(json_path), "plot": str(plot_path)}
