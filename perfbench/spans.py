"""Spans around calls into fraceig's layers, for the traced benchmark run.

The tracer wraps library functions from the outside (the library carries
no tracing code): each call becomes a span with name, start, end, parent
span, run id and thread, kept in memory and written out once the run
ends.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Spans opened on a worker thread with no
open span of their own are parented to the innermost open span of the
main thread, the only thread that starts pools in these workloads.

A hook whose target no longer exists is listed as missing, and every
metric built on it is reported as missing by name, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    span: str  # span name
    module: str
    attr: str  # dotted path inside the module, e.g. "EnergyKernel.energy"
    info: Callable | None = None  # (args, result, exc) -> dict of counts


def _pairs(args, result, exc):
    return {"pairs": len(args[1]) ** 2}


def _kout(args, result, exc):
    dom = args[1]
    return {"kout": dom.n_omega * (dom.n_cells - dom.n_omega)}


def _inner(args, result, exc):
    if result is None:
        return {}
    return {"evals": result.evaluations, "unconverged": int(not result.converged)}


def _outer(args, result, exc):
    pair = result if result is not None else getattr(exc, "partial", None)
    return {"outer_iters": pair.iterations} if pair is not None else {}


def _raised(args, result, exc):
    return {"failed": int(exc is not None)}


HOOKS = (
    Hook("core.kernel", "fraceig.core", "EnergyKernel.__init__", _kout),
    Hook("core.energy", "fraceig.core", "EnergyKernel.energy", _pairs),
    Hook("core.grad", "fraceig.core", "EnergyKernel.grad_omega", _pairs),
    Hook("core.hessian", "fraceig.core", "EnergyKernel.hessian_omega", _pairs),
    Hook("core.dense_pair", "fraceig.core", "nonlocal_gradient"),
    Hook("core.dense_pair", "fraceig.core", "nonlocal_divergence"),
    Hook("reduce.pool", "fraceig._reduce", "ThreadPoolExecutor"),
    Hook("descent.inner", "fraceig._descent", "minimize_convex", _inner),
    Hook("linalg.cho_factor", "scipy.linalg", "cho_factor"),
    Hook("eigen.solve", "fraceig.eigen", "first_eigenpair", _outer),
    Hook("dirichlet.solve", "fraceig.dirichlet", "solve_dirichlet", _raised),
    Hook("domain.poincare", "fraceig.domain", "poincare_constant"),
    Hook("asymptotics.sweep", "fraceig.asymptotics", "s_sweep"),
    Hook("asymptotics.scaling", "fraceig.asymptotics", "scaling_check"),
    Hook("asymptotics.equivalence", "fraceig.asymptotics", "equivalence_check"),
    Hook("serialize.write", "fraceig.serialize", "save_json"),
    Hook("serialize.write", "fraceig.serialize", "save_eigenpair"),
    Hook("serialize.write", "fraceig.serialize", "save_sweep_report"),
)

# per-layer metric -> (unit, span names it is built from)
LAYER_METRICS = {
    "core.kernel_s": ("s", ("core.kernel",)),
    "core.kernel_builds": ("count", ("core.kernel",)),
    "core.kout_terms": ("count", ("core.kernel",)),
    "core.energy_s": ("s", ("core.energy",)),
    "core.energy_calls": ("count", ("core.energy",)),
    "core.grad_s": ("s", ("core.grad",)),
    "core.grad_calls": ("count", ("core.grad",)),
    "core.hessian_s": ("s", ("core.hessian",)),
    "core.hessian_calls": ("count", ("core.hessian",)),
    "core.pair_terms": ("count", ("core.energy", "core.grad", "core.hessian")),
    "core.dense_pair_s": ("s", ("core.dense_pair",)),
    "core.dense_pair_calls": ("count", ("core.dense_pair",)),
    "reduce.pooled_calls": ("count", ("reduce.pool",)),
    "descent.inner_s": ("s", ("descent.inner",)),
    "descent.inner_solves": ("count", ("descent.inner",)),
    "descent.evals": ("count", ("descent.inner",)),
    "descent.factorizations": ("count", ("descent.inner", "linalg.cho_factor")),
    "descent.chol_s": ("s", ("descent.inner", "linalg.cho_factor")),
    "descent.rejected": ("count", ("descent.inner", "linalg.cho_factor", "core.hessian")),
    "descent.accept_ratio": ("ratio", ("descent.inner", "linalg.cho_factor", "core.hessian")),
    "descent.unconverged": ("count", ("descent.inner",)),
    "eigen.solve_s": ("s", ("eigen.solve",)),
    "eigen.solves": ("count", ("eigen.solve",)),
    "eigen.outer_iters": ("count", ("eigen.solve",)),
    "dirichlet.solve_s": ("s", ("dirichlet.solve",)),
    "dirichlet.solves": ("count", ("dirichlet.solve",)),
    "dirichlet.failed": ("count", ("dirichlet.solve",)),
    "domain.poincare_s": ("s", ("domain.poincare",)),
    "asymptotics.sweep_s": ("s", ("asymptotics.sweep",)),
    "asymptotics.scaling_s": ("s", ("asymptotics.scaling",)),
    "asymptotics.equivalence_s": ("s", ("asymptotics.equivalence",)),
    "serialize.write_s": ("s", ("serialize.write",)),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for none
    run: str
    thread: int
    info: dict


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.missing: list[str] = []  # "<span>: <module>.<attr>"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self.recording = True  # cleared to leave the workload's gates untraced

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else 0
            sid = next(self._ids)
            stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                try:
                    counts = info(args, result, exc) if info else {}
                except AttributeError:  # the result no longer has the counted field
                    counts = {}
                    note = f"{name}: result of {fn.__qualname__}"
                    if note not in self.missing:
                        self.missing.append(note)
                self.spans.append(Span(sid, name, start, end, parent, self.run,
                                       threading.get_ident(), counts))

        return traced

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook target, and every fraceig name bound to a hooked function."""
        for hook in hooks:
            try:
                owner = importlib.import_module(hook.module)
                *path, leaf = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                target = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.span}: {hook.module}.{hook.attr}")
                continue
            wrapped = self.wrap(hook.span, target, hook.info)
            setattr(owner, leaf, wrapped)
            if path or getattr(target, "__module__", None) != hook.module:
                continue  # a method, or a name the module only imported
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "fraceig" and mod is not owner:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, attr, wrapped)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp.id, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent, "run": sp.run,
                                     "thread": sp.thread, **sp.info}) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sp in self.spans:
            if sp.parent:
                children[sp.parent].append((sp.start, sp.end))
        out = {}
        for sp in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(sp.id, ())):
                lo, hi = max(lo, sp.start), min(hi, sp.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sp.id] = (sp.end - sp.start) - covered
        return out

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of this run; None marks a metric whose hook is missing."""
        selfs = self.self_times()
        by_id = {sp.id: sp for sp in self.spans}

        def under_inner(sp: Span) -> bool:
            pid = sp.parent
            while pid:
                parent = by_id[pid]
                if parent.name == "descent.inner":
                    return True
                pid = parent.parent
            return False

        self_s = defaultdict(float)
        calls = defaultdict(int)
        total = defaultdict(int)  # summed info counts
        chol_n = chol_s = newton = 0
        for sp in self.spans:
            self_s[sp.name] += selfs[sp.id]
            calls[sp.name] += 1
            for key, value in sp.info.items():
                total[key] += value
            if sp.name == "linalg.cho_factor" and under_inner(sp):
                chol_n += 1
                chol_s += selfs[sp.id]
            elif sp.name == "core.hessian" and under_inner(sp):
                newton += 1

        values = {
            "core.kernel_s": self_s["core.kernel"],
            "core.kernel_builds": calls["core.kernel"],
            "core.kout_terms": total["kout"],
            "core.energy_s": self_s["core.energy"],
            "core.energy_calls": calls["core.energy"],
            "core.grad_s": self_s["core.grad"],
            "core.grad_calls": calls["core.grad"],
            "core.hessian_s": self_s["core.hessian"],
            "core.hessian_calls": calls["core.hessian"],
            "core.pair_terms": total["pairs"],
            "core.dense_pair_s": self_s["core.dense_pair"],
            "core.dense_pair_calls": calls["core.dense_pair"],
            "reduce.pooled_calls": calls["reduce.pool"],
            "descent.inner_s": self_s["descent.inner"],
            "descent.inner_solves": calls["descent.inner"],
            "descent.evals": total["evals"],
            "descent.factorizations": chol_n,
            "descent.chol_s": chol_s,
            # damped trials beyond the one each Newton step needs
            "descent.rejected": chol_n - newton,
            "descent.accept_ratio": newton / chol_n if chol_n else None,
            "descent.unconverged": total["unconverged"],
            "eigen.solve_s": self_s["eigen.solve"],
            "eigen.solves": calls["eigen.solve"],
            "eigen.outer_iters": total["outer_iters"],
            "dirichlet.solve_s": self_s["dirichlet.solve"],
            "dirichlet.solves": calls["dirichlet.solve"],
            "dirichlet.failed": total["failed"],
            "domain.poincare_s": self_s["domain.poincare"],
            "asymptotics.sweep_s": self_s["asymptotics.sweep"],
            "asymptotics.scaling_s": self_s["asymptotics.scaling"],
            "asymptotics.equivalence_s": self_s["asymptotics.equivalence"],
            "serialize.write_s": self_s["serialize.write"],
        }
        missing = {m.split(":")[0] for m in self.missing}
        for metric, (_, needs) in LAYER_METRICS.items():
            if missing.intersection(needs):
                values[metric] = None
        return values
