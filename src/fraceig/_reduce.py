"""Deterministic blocked reductions and the one worker pool.

Row ranges are fixed by a constant block size, each block reduces in its
own index order, and block results combine in block order.  The thread
count therefore only decides which worker computes a block, never the
arithmetic, so results are bitwise independent of the number of threads.
The energy kernels reduce serially (their blocks are too small for a pool
to pay); only the far-field quadrature of equivalence_check, whose blocks
are large, passes a thread count.  parallel_map starts every worker pool
in fraceig, with at most one thread per CPU.
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
    workers = min(threads, len(items))
    if workers > 1:  # the serial energy reductions skip the CPU count query
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def map_blocks(fn: Callable[[int, int], T], n_rows: int, threads: int = 1) -> list[T]:
    """Apply fn(lo, hi) over fixed row blocks; results in block order."""
    blocks = [(lo, min(lo + BLOCK_ROWS, n_rows)) for lo in range(0, n_rows, BLOCK_ROWS)]
    return parallel_map(lambda block: fn(*block), blocks, threads)


def ordered_sum(parts) -> float:
    """Accumulate scalars in list order (fixed reduction tree)."""
    acc = 0.0
    for v in parts:
        acc += v
    return acc
