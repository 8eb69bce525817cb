"""Deterministic blocked reductions.

Row ranges are fixed by a constant block size, each block reduces in its
own index order, and block results combine in block order.  The thread
count therefore only decides which worker computes a block, never the
arithmetic, so results are bitwise independent of the number of threads.
The energy kernels reduce serially (their blocks are too small for a pool
to pay); only the far-field quadrature of equivalence_check, whose blocks
are large, passes a thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

BLOCK_ROWS = 128


def map_blocks(fn: Callable[[int, int], T], n_rows: int, threads: int = 1) -> list[T]:
    """Apply fn(lo, hi) over fixed row blocks; results in block order."""
    blocks = [(lo, min(lo + BLOCK_ROWS, n_rows)) for lo in range(0, n_rows, BLOCK_ROWS)]
    if threads <= 1 or len(blocks) <= 1:
        return [fn(lo, hi) for lo, hi in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in blocks]
        return [f.result() for f in futures]


def ordered_sum(parts) -> float:
    """Accumulate scalars in list order (fixed reduction tree)."""
    acc = 0.0
    for v in parts:
        acc += v
    return acc
