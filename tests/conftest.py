import os

# pin BLAS threads before anything imports numpy: the thread count moves
# results in their last digits and oversubscribes a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from fraceig import DomainSpec, GridFunction, build_domain


def interval_spec(h: float, a: float = 0.0, b: float = 1.0) -> DomainSpec:
    return DomainSpec(dim=1, h=h, shape={"type": "interval", "a": a, "b": b})


def union_spec(h: float) -> DomainSpec:
    return DomainSpec(
        dim=1,
        h=h,
        shape={
            "type": "union",
            "parts": [
                {"type": "interval", "a": 0.0, "b": 1.0},
                {"type": "interval", "a": 2.0, "b": 3.0},
            ],
        },
    )


def box_spec(h: float) -> DomainSpec:
    return DomainSpec(dim=2, h=h, shape={"type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]})


def mask_spec(rows) -> DomainSpec:
    """A mask shape of unit cells, rows[i][j] the flag of cell (i, j)."""
    cells = np.asarray(rows, dtype=int)
    h = 1.0 / max(cells.shape)
    return DomainSpec(
        dim=cells.ndim,
        h=h,
        shape={"type": "mask", "origin": [0.5 * h] * cells.ndim,
               "counts": list(cells.shape), "cells": cells.ravel().tolist()},
    )


@pytest.fixture(scope="session")
def holed6():
    # a 6 x 6 square with the cell (1, 2) removed: no reflection keeps Omega
    rows = np.ones((6, 6), dtype=int)
    rows[1, 2] = 0
    return build_domain(mask_spec(rows), t=4.0)


@pytest.fixture(scope="session")
def asym64():
    # [0, 1] and [1.5, 2]: the parts differ in length, so no reflection applies
    parts = [{"type": "interval", "a": 0.0, "b": 1.0}, {"type": "interval", "a": 1.5, "b": 2.0}]
    return build_domain(DomainSpec(dim=1, h=1 / 64, shape={"type": "union", "parts": parts}), t=4.0)


@pytest.fixture(scope="session")
def interval16():
    return build_domain(interval_spec(1 / 16), t=4.0)


@pytest.fixture(scope="session")
def interval8():
    return build_domain(interval_spec(1 / 8), t=4.0)


@pytest.fixture(scope="session")
def interval64():
    return build_domain(interval_spec(1 / 64), t=4.0)


@pytest.fixture(scope="session")
def interval256():
    return build_domain(interval_spec(1 / 256), t=4.0)


@pytest.fixture(scope="session")
def union16():
    return build_domain(union_spec(1 / 16), t=4.0)


@pytest.fixture(scope="session")
def box8():
    return build_domain(box_spec(1 / 8), t=4.0)


@pytest.fixture
def cho_calls(monkeypatch):
    """A list that gains one entry per scipy.linalg.cho_factor call."""
    import scipy.linalg

    calls = []
    cho_factor = scipy.linalg.cho_factor

    def counting(*args, **kwargs):
        calls.append(1)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    return calls


def random_function(dom, rng) -> GridFunction:
    return GridFunction.from_omega(dom, rng.standard_normal(dom.n_omega))
