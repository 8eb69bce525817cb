"""The benchmark's fixed problems (README.md says why each exists).

This module imports nothing from the program, so the parent process can
read it without loading fraceig; `problems.py` holds the code each `kind`
names and runs inside the child.
"""

from __future__ import annotations

from dataclasses import dataclass

UNIT_BOX = {"type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]}
UNIT_INTERVAL = {"type": "interval", "a": 0.0, "b": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # domain spec JSON, as a `--domain` file holds it
    threads: int  # the library's --threads
    blas_threads: int  # pinned OPENBLAS/OMP thread count
    kind: str  # runner in problems.RUNNERS
    params: dict  # keyword arguments of that runner, pinned references included


# instances per suite: those of `fraceig verify --suite all`, except 40
# adjoint instances instead of 100, so that two instances fit in one run
VERIFY_COUNTS = {"random": 100, "clarkson": 100, "adjoint": 40, "monotone": 100,
                 "comparison": 20, "equivalence": 20}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eig-p1.5-box24",
            {"dim": 2, "h": 1 / 24, "shape": UNIT_BOX},
            threads=2,
            blas_threads=2,
            kind="eig",
            params={"s": 0.5, "p": 1.5, "ref_lam": 37.54532402420353, "rtol": 1e-7},
        ),
        Workload(
            "sweep-p2-box32",
            {"dim": 2, "h": 1 / 32, "shape": UNIT_BOX},
            threads=2,
            blas_threads=2,
            kind="sweep",
            params={
                "p": 2.0,
                "s_values": [0.3, 0.4, 0.5, 0.6, 0.7],
                "s_base": 0.5,
                "ref_lams": [29.571157527404623, 33.55094386118861, 39.62616287503987,
                             48.91784513735372, 63.33422397437682],
                "rtol": 1e-6,
            },
        ),
        Workload(
            "certify-p1.5-int256",
            {"dim": 1, "h": 1 / 256, "shape": UNIT_INTERVAL},
            threads=1,
            blas_threads=1,
            kind="certify",
            params={"s": 0.75, "p": 1.5, "counts": VERIFY_COUNTS,
                    "ref_poincare": 4.326930177582559, "ref_lam": 21.88745150014756,
                    "rtol": 1e-7},
        ),
    )
}

# small versions of the same code paths, for the benchmark's self-test
TINY_COUNTS = {"random": 5, "clarkson": 5, "adjoint": 3, "monotone": 5,
               "comparison": 3, "equivalence": 2}
_TINY_INTERVAL = {"dim": 1, "h": 1 / 16, "shape": UNIT_INTERVAL}

SELFTEST_WORKLOADS = {
    w.name: w
    for w in (
        Workload("selftest-eig", _TINY_INTERVAL, threads=2, blas_threads=1,
                 kind="eig", params={"s": 0.5, "p": 1.5}),
        Workload("selftest-sweep", _TINY_INTERVAL, threads=2, blas_threads=1,
                 kind="sweep", params={"p": 2.0, "s_values": [0.4, 0.5, 0.6], "s_base": 0.5}),
        Workload("selftest-certify", _TINY_INTERVAL, threads=1, blas_threads=1,
                 kind="certify", params={"s": 0.75, "p": 1.5, "counts": TINY_COUNTS}),
        Workload("selftest-inject", _TINY_INTERVAL, threads=1, blas_threads=1, kind="certify",
                 params={"s": 0.75, "p": 1.5, "counts": TINY_COUNTS, "inject_stall": True}),
        # a deliberately wrong pinned value: its gate must reject the solve
        Workload("selftest-wrong", _TINY_INTERVAL, threads=1, blas_threads=1, kind="eig",
                 params={"s": 0.5, "p": 1.5, "ref_lam": 1.0, "rtol": 1e-7}),
    )
}
