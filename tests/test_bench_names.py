"""The library names perfbench reads must exist: a renamed or deleted one
turns a benchmark metric into "missing" or its runner into an ImportError."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from fraceig import FracParams, SolverConfig, equivalence_check

from conftest import random_function

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, monkeypatch):
    """perfbench/<name>.py as a module, registered only for this test."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    spans = load("spans", monkeypatch)
    for hook in spans.HOOKS:
        owner = importlib.import_module(hook.module)
        for part in hook.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{hook.span}: {hook.module}.{hook.attr}"


def test_runner_imports_and_calls_resolve(monkeypatch, interval16):
    problems = load("problems", monkeypatch)
    assert {"eig", "sweep", "certify"} <= set(problems.RUNNERS)
    # the certify runner's config and equivalence call, argument for argument
    cfg = SolverConfig(threads=2, seed=5)
    assert cfg.seed == 5
    u = random_function(interval16, np.random.default_rng(5))
    report = equivalence_check(u, FracParams(s=0.75, p=1.5), 20.0, 1)
    assert report.ratio_ok
