"""Deterministic blocked reductions and the one worker pool.

Row ranges are fixed by a constant block size, each block reduces in its
own index order, and block results combine in block order, so results do
not depend on how a caller schedules its work.  The blocked reductions run
serially; parallel_map, which s_sweep uses for one eigensolve per s,
starts every worker pool in fraceig, with at most one thread per CPU.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

BLOCK_ROWS = 128


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """[fn(x) for x in items] on min(threads, len(items), CPU count) worker
    threads, inline when that is 1; results in item order."""
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def map_blocks(fn: Callable[[int, int], T], n_rows: int) -> list[T]:
    """[fn(lo, hi) over fixed row blocks], in block order."""
    return [fn(lo, min(lo + BLOCK_ROWS, n_rows)) for lo in range(0, n_rows, BLOCK_ROWS)]


def ordered_sum(parts) -> float:
    """Accumulate scalars in list order (fixed reduction tree)."""
    acc = 0.0
    for v in parts:
        acc += v
    return acc
