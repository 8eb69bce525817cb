"""Deterministic blocked reductions.

Row ranges are fixed by a constant block size, each block reduces in its
own index order, and block results combine in a fixed tree (in block
order, or pairwise in column_sums), so results do not depend on how a
caller schedules its work.  The reductions run serially.
"""

from __future__ import annotations

# unused here; only perfbench's reduce.pool hook reads this name
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

T = TypeVar("T")

BLOCK_ROWS = 128


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
