"""Deterministic blocked reductions and the one worker pool.

Row ranges are fixed by a constant block size, each block reduces in its
own index order, and block results combine in a fixed tree (in block
order, or pairwise in column_sums), so results do not depend on how a
caller schedules its work.  The blocked reductions run serially;
parallel_map, which s_sweep uses for one eigensolve per s, starts every
worker pool in fraceig, with at most one thread per CPU.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

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


def column_sums(t: NDArray) -> NDArray:
    """Column sums of a 2D array with at least one row: the sums of its fixed
    row blocks, added pairwise.

    numpy sums axis 0 one row after another, so roundoff would grow with
    the row count; here it grows with BLOCK_ROWS plus log2 of the block
    count, as in the pairwise row sums of np.sum(t, axis=1).
    """
    parts = map_blocks(lambda lo, hi: np.sum(t[lo:hi], axis=0), len(t))
    while len(parts) > 1:
        pairs = [a + b for a, b in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[len(pairs) * 2 :]
    return parts[0]
