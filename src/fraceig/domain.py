"""Uniform-grid domains inside an enclosing ball.

A bounded open set Omega (1D or 2D) is discretized by axis-aligned cells of
width h whose centers sit on a lattice anchored to the shape.  The grid
covers the ball whose diameter is t times the diameter of Omega and whose
center is the center of the smallest ball enclosing Omega; cells outside
Omega carry the zero constraint of the function spaces built on top.

Cell classification is by cell center: a cell belongs to the enclosing ball
iff its center lies within t*R/2 of the ball center, and to Omega iff its
center satisfies the shape predicate.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "DomainSpec",
    "GridDomain",
    "Symmetry",
    "build_domain",
    "check_dense_pairs",
    "dilate",
    "poincare_constant",
    "unit_ball_volume",
]

# slack applied to geometric comparisons so exact lattice ties classify
# deterministically instead of falling to rounding noise
_GEOM_RTOL = 1e-12
# entries per chunk when streaming pair-weight tables by columns, or run sums
# by rows; 2 MiB chunks of gathered weights and their indices stay in cache
_CHUNK_ENTRIES = 1 << 18
# bytes one dense float64 pair array may take; larger pair operations are
# refused before anything of that size is allocated
_DENSE_PAIR_BYTES = 1 << 29

T = TypeVar("T")


def check_dense_pairs(rows: int, cols: int, what: str) -> None:
    """Raise ValueError when a rows x cols float64 array exceeds the budget;
    `what` names the array in the message."""
    need = 8 * rows * cols
    if need > _DENSE_PAIR_BYTES:
        raise ValueError(
            f"{what} would be a dense {rows} x {cols} pair array of {need / 2**20:.0f} MiB, "
            f"over the {_DENSE_PAIR_BYTES >> 20} MiB limit of dense pair storage; "
            "use a coarser grid"
        )


def unit_ball_volume(dim: int) -> float:
    """Lebesgue measure of the unit ball (2 in 1D, pi in 2D)."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return math.pi
    raise ValueError(f"unsupported dimension {dim}")


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class _Box:
    lo: NDArray
    hi: NDArray

    def bbox(self):
        return self.lo, self.hi

    def contains(self, pts: NDArray) -> NDArray:
        return np.all((pts > self.lo) & (pts < self.hi), axis=1)


@dataclass(frozen=True)
class _Ball:
    center: NDArray
    radius: float

    def bbox(self):
        return self.center - self.radius, self.center + self.radius

    def contains(self, pts: NDArray) -> NDArray:
        return np.sum((pts - self.center) ** 2, axis=1) < self.radius**2


@dataclass(frozen=True)
class _UnionShape:
    parts: tuple

    def bbox(self):
        los, his = zip(*(p.bbox() for p in self.parts))
        return np.min(np.stack(los), axis=0), np.max(np.stack(his), axis=0)

    def contains(self, pts: NDArray) -> NDArray:
        out = np.zeros(len(pts), dtype=bool)
        for p in self.parts:
            out |= p.contains(pts)
        return out


@dataclass(frozen=True)
class _MaskShape:
    origin: NDArray  # center of the first (row-major) cell
    counts: tuple
    cells: NDArray  # flat 0/1 array, row-major
    h: float

    def bbox(self):
        lo = self.origin - 0.5 * self.h
        hi = self.origin + (np.asarray(self.counts) - 0.5) * self.h
        return lo, hi

    def contains(self, pts: NDArray) -> NDArray:
        # integer index lookup keeps classification exact on the lattice
        idx = np.rint((pts - self.origin) / self.h).astype(np.int64)
        counts = np.asarray(self.counts)
        ok = np.all((idx >= 0) & (idx < counts), axis=1)
        out = np.zeros(len(pts), dtype=bool)
        if np.any(ok):
            flat = np.ravel_multi_index(idx[ok].T, tuple(self.counts))
            out[ok] = self.cells[flat].astype(bool)
        return out


def _as_float(value) -> float:
    """A number as float; a bool, a string or any other non-number is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def as_floats(value) -> NDArray:
    """A number or nested list of numbers as a float array; a string or bool anywhere is refused."""
    arr = np.asarray(value)
    # numpy reads a bool among numbers as 0/1; the object array keeps it
    if arr.dtype.kind not in "iuf" or bool in set(map(type, np.asarray(value, dtype=object).ravel())):
        raise TypeError(f"expected numbers, got {value!r:.60}")
    return arr.astype(float, copy=False)


def json_field(d: dict, key: str, convert: Callable = _as_float, default=None):
    """convert(d[key]), or convert(default) for an absent key when a default
    is given; an absent required field or a value of the wrong type raises
    ValueError naming the field."""
    if key in d:
        value = d[key]
    elif default is not None:
        value = default
    else:
        raise ValueError(f"missing required field {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r} has the wrong type or value: {exc}") from None


def _as_int(value) -> int:
    """An integral number as int; a bool, a string or a fractional value is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected an integer, got {value!r}")
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _as_flags(value) -> NDArray:
    """A flat list of 0/1 entries as an int8 array."""
    flags = as_floats(value)
    if flags.ndim != 1 or not np.all((flags == 0.0) | (flags == 1.0)):
        raise ValueError(f"expected a flat list of 0/1 entries, got {value!r:.60}")
    return flags.astype(np.int8)


def _finite_field(d: dict, key: str, convert: Callable = _as_float):
    """json_field for a shape bound, which must be finite."""
    value = json_field(d, key, convert)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"shape field {key!r} must be finite, got {value}")
    return value


def _parse_shape(d: dict, dim: int, h: float):
    if not isinstance(d, dict):
        raise ValueError(f"a shape must be a JSON object, got {type(d).__name__}")
    kind = d.get("type")
    if kind == "interval":
        if dim != 1:
            raise ValueError("interval shapes require dim=1")
        a, b = _finite_field(d, "a"), _finite_field(d, "b")
        if not b > a:
            raise ValueError(f"empty interval ({a},{b})")
        return _Box(np.array([a]), np.array([b]))
    if kind == "box":
        lo = _finite_field(d, "min", as_floats)
        hi = _finite_field(d, "max", as_floats)
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise ValueError("box bounds must match the domain dimension")
        if not np.all(hi > lo):
            raise ValueError("box has empty extent")
        return _Box(lo, hi)
    if kind == "ball":
        c = _finite_field(d, "center", as_floats)
        r = _finite_field(d, "radius")
        if c.shape != (dim,):
            raise ValueError("ball center must match the domain dimension")
        if not r > 0:
            raise ValueError("ball radius must be positive")
        return _Ball(c, r)
    if kind == "union":
        parts = tuple(_parse_shape(p, dim, h) for p in json_field(d, "parts", list))
        if not parts:
            raise ValueError("union of no parts")
        return _UnionShape(parts)
    if kind == "mask":
        origin = _finite_field(d, "origin", as_floats)
        counts = json_field(d, "counts", lambda v: tuple(_as_int(c) for c in v))
        cells = json_field(d, "cells", _as_flags)
        if origin.shape != (dim,) or len(counts) != dim:
            raise ValueError("mask origin/counts must match the domain dimension")
        if min(counts) < 1:
            raise ValueError(f"mask field 'counts' must hold positive integers, got {list(counts)}")
        if cells.size != math.prod(counts):
            raise ValueError(
                f"mask field 'cells' holds {cells.size} entries, but 'counts' {list(counts)} "
                f"need {math.prod(counts)}"
            )
        return _MaskShape(origin, counts, cells, h)
    raise ValueError(f"unknown shape type {kind!r}")


@dataclass(frozen=True)
class DomainSpec:
    """Description of the open set: dimension, cell width and shape dict."""

    dim: int
    h: float
    shape: dict

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")

    @classmethod
    def from_dict(cls, d: dict) -> "DomainSpec":
        return cls(
            dim=json_field(d, "dim", _as_int),
            h=json_field(d, "h"),
            shape=json_field(d, "shape", dict),
        )


# ---------------------------------------------------------------------------
# smallest enclosing ball of the flagged cell centers


def _circle_through(p1, p2, p3):
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    c = np.array([ux, uy])
    return c, float(np.linalg.norm(p1 - c))


def _hull_vertices(points: NDArray) -> NDArray:
    """Convex hull vertices of a 2-D point set; all points when few or collinear.

    Andrew's monotone chain over the points sorted by (x, y); points in the
    interior of a hull edge are dropped.  Of the points sharing one x only
    the lowest and the highest can be vertices, so only those are scanned.
    """
    if len(points) <= 3:
        return points
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    new_x = pts[1:, 0] != pts[:-1, 0]
    pts = pts[np.r_[True, new_x] | np.r_[new_x, True]].tolist()

    def half_hull(seq: list) -> list:
        chain: list = []
        for x, y in seq:
            while len(chain) > 1:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                chain.pop()
            chain.append((x, y))
        return chain[:-1]

    hull = half_hull(pts) + half_hull(pts[::-1])
    return np.array(hull) if len(hull) > 2 else points


def _enclosing_ball(points: NDArray) -> tuple[NDArray, float]:
    """Exact smallest enclosing ball of a finite point set (dim 1 or 2)."""
    dim = points.shape[1]
    if dim == 1:
        lo, hi = points[:, 0].min(), points[:, 0].max()
        return np.array([0.5 * (lo + hi)]), 0.5 * (hi - lo)

    # reduce to convex hull vertices, then scan support pairs and triples
    hull = np.unique(_hull_vertices(points), axis=0)

    best_c, best_r = None, math.inf
    slack = 1.0 + 1e-12
    for i, j in itertools.combinations(range(len(hull)), 2):
        c = 0.5 * (hull[i] + hull[j])
        r = float(np.linalg.norm(hull[i] - c))
        if r < best_r and np.all(np.linalg.norm(hull - c, axis=1) <= r * slack):
            best_c, best_r = c, r
    if best_c is not None:
        return best_c, best_r
    for i, j, k in itertools.combinations(range(len(hull)), 3):
        res = _circle_through(hull[i], hull[j], hull[k])
        if res is None:
            continue
        c, r = res
        if r < best_r and np.all(np.linalg.norm(hull - c, axis=1) <= r * slack):
            best_c, best_r = c, r
    if best_c is None:  # all hull points identical
        return hull[0].copy(), 0.0
    return best_c, best_r


def _set_diameter(points: NDArray) -> float:
    """Max pairwise distance between the given points."""
    if len(points) == 1:
        return 0.0
    if points.shape[1] == 1:
        return float(points[:, 0].max() - points[:, 0].min())
    points = _hull_vertices(points)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


# ---------------------------------------------------------------------------
# the grid domain


def _signed_view(arr: NDArray, a: NDArray) -> NDArray:
    """arr, given over a box that the map y -> a y + c takes onto itself, read
    through that map: view[y] = arr[a y + c], as a transposed and flipped view."""
    axes = np.abs(a).argmax(axis=0)  # view axis k runs along arr's axis axes[k]
    flipped = np.flatnonzero(a.sum(axis=0) < 0)
    return np.flip(np.transpose(arr, axes), tuple(flipped.tolist()))


class Symmetry(NamedTuple):
    """Orbits of the Omega cells under a group of lattice symmetries.

    orbit[k] is the orbit of the k-th Omega cell, reps[a] the Omega
    position of orbit a's smallest member (reps ascend), mult[a] the
    orbit's size (as float), and order the order of the group.
    """

    orbit: NDArray
    reps: NDArray
    mult: NDArray
    order: int

    @classmethod
    def trivial(cls, n: int) -> "Symmetry":
        """The identity group on n cells: every cell its own orbit."""
        cells = np.arange(n)
        return cls(cells, cells, np.ones(n), 1)


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Cells of the enclosing ball with an Omega membership flag per cell.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    h : float
        Cell width.
    omega_mask : (M,) bool array
        True where the cell center lies in Omega.
    center : (dim,) float array
        Center of the smallest ball enclosing Omega.
    diameter_R : float
        Diameter of Omega (max pairwise distance of flagged centers plus
        one cell width, which reproduces the exact diameter for
        lattice-aligned shapes).
    t : float
        Truncation factor; the ball has diameter t * diameter_R.
    origin : (dim,) float array
        Center of the first cell of the bounding lattice.
    counts : tuple of int
        Bounding-lattice extent per dimension.
    lattice_index : (M,) int array
        Row-major flat index of each cell within the bounding lattice,
        ascending; the cell centers (cells) are origin + h * coords.
    """

    dim: int
    h: float
    omega_mask: NDArray
    center: NDArray
    diameter_R: float
    t: float
    origin: NDArray
    counts: tuple
    lattice_index: NDArray
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def memo(self, key, build: Callable[[], T]) -> T:
        """The table build() under key, built on the first call and freed with the grid."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    @property
    def n_cells(self) -> int:
        return len(self.lattice_index)

    @property
    def n_omega(self) -> int:
        return int(self.omega_mask.sum())

    @cached_property
    def omega_indices(self) -> NDArray:
        return np.flatnonzero(self.omega_mask)

    @cached_property
    def other_indices(self) -> NDArray:
        return np.flatnonzero(~self.omega_mask)

    @cached_property
    def omega_cells(self) -> NDArray:
        return self.cells[self.omega_mask]

    @cached_property
    def coords(self) -> NDArray:
        """(M, dim) integer lattice coordinates of the cells."""
        return np.stack(np.unravel_index(self.lattice_index, self.counts), axis=1)

    @cached_property
    def cells(self) -> NDArray:
        """(M, dim) cell centers origin + h * coords."""
        return self.origin + self.h * self.coords

    def _box_maps(self) -> tuple[list[tuple[NDArray, NDArray]], NDArray]:
        """lattice_symmetries, and the labels they keep: an int8 array over
        the ball cells' coordinate box, 0 off the ball, 1 on a ball cell and
        2 on an Omega cell."""
        full = np.zeros(self.counts, dtype=np.int8)
        full.reshape(-1)[self.lattice_index] = 1 + self.omega_mask
        axes = range(self.dim)
        span = [np.flatnonzero(full.any(axis=tuple(e for e in axes if e != d))) for d in axes]
        labels = full[tuple(slice(k[0], k[-1] + 1) for k in span)]
        lo, hi = np.array([k[0] for k in span]), np.array([k[-1] for k in span])
        maps = []
        for perm in itertools.permutations(range(self.dim)):
            for signs in itertools.product((1, -1), repeat=self.dim):
                a = np.eye(self.dim, dtype=np.int64)[list(perm)] * np.array(signs)[:, None]
                if np.array_equal(_signed_view(labels, a), labels):
                    maps.append((a, lo - np.minimum(a @ lo, a @ hi)))
        return maps, labels

    def lattice_symmetries(self) -> list[tuple[NDArray, NDArray]]:
        """Every map coords -> coords @ A.T + c that maps the ball cells and
        the Omega cells onto themselves, as (A, c); the identity comes first.

        A runs over the signed axis permutations, and c maps the ball cells'
        coordinate box onto itself.  Each map is checked exactly on the
        box's labels (off the ball, ball, Omega), read through the map as a
        transposed and flipped view; such a map keeps every pair distance,
        so the kernel tables are invariant under it.
        """
        return self._box_maps()[0]

    @cached_property
    def symmetry(self) -> Symmetry:
        """Orbits of the Omega cells under lattice_symmetries.

        A functional that every map leaves invariant, such as the energy,
        has a simple positive minimizer that is constant on each orbit.
        """
        maps, labels = self._box_maps()
        # Omega positions ascend in row-major order, as the cells of the box do
        omega = labels == 2
        position = np.full(labels.shape, -1)
        position[omega] = np.arange(self.n_omega)
        images = [_signed_view(position, a)[omega] for a, _ in maps]
        reps, orbit = np.unique(np.min(images, axis=0), return_inverse=True)
        return Symmetry(orbit, reps, np.bincount(orbit).astype(float), len(maps))

    def _offset_table(self, a: float, lo: NDArray, hi: NDArray) -> NDArray:
        """T[k] = (h |k|)^a over the integer offsets lo <= k <= hi, flattened
        row-major, with T = 0 at the zero offset."""
        r2 = functools.reduce(np.add.outer, [np.arange(l, u + 1, dtype=float) ** 2 for l, u in zip(lo, hi)])
        table = r2.ravel()  # one table-sized array, worked on in place
        zero = table == 0.0
        table[zero] = 1.0
        np.sqrt(table, out=table)
        table *= self.h
        table **= a
        table[zero] = 0.0
        return table

    def pair_powers(self, rows: NDArray, cols: NDArray, a: float) -> Iterator[tuple[slice, NDArray]]:
        """Yield (sl, |x_i - x_j|^a for i in rows, j in cols[sl]), 0 where i == j.

        Every center sits on the lattice origin + h k, so each value is an
        entry of the offset table over the box of offsets coords[rows] -
        coords[cols], gathered by key difference.  Each column chunk holds
        about _CHUNK_ENTRIES values, so Omega-by-ball tables stream through
        bounded memory on the largest grids.
        """
        if len(rows) == 0 or len(cols) == 0:  # no offsets to span
            yield slice(0, len(cols)), np.empty((len(rows), len(cols)))
            return
        row_at, col_at = self.coords[rows], self.coords[cols]
        lo = row_at.min(axis=0) - col_at.max(axis=0)
        hi = row_at.max(axis=0) - col_at.min(axis=0)
        strides = np.cumprod(np.r_[1, (hi - lo + 1)[:0:-1]])[::-1]
        # the key is linear, so offset x_i - x_j sits at row_key[i] - col_key[j]
        row_key = (row_at - lo) @ strides
        col_key = col_at @ strides
        table = self._offset_table(a, lo, hi)
        step = max(1, _CHUNK_ENTRIES // max(len(rows), 1))
        for start in range(0, len(cols), step):
            sl = slice(start, start + step)
            yield sl, table[row_key[:, None] - col_key[sl]]

    def pair_power_sums(self, rows: NDArray, cols: NDArray, a: float) -> NDArray:
        """Row sums of pair_powers: sum over j in cols of |x_i - x_j|^a, for i in
        rows, by lattice_power_sums on the bounding lattice."""
        return self.lattice_power_sums(self.counts, self.lattice_index[rows], self.lattice_index[cols], a)

    def lattice_power_sums(self, counts: tuple, rows: NDArray, cols: NDArray, a: float) -> NDArray:
        """Sum over j in cols of (h |k_i - k_j|)^a, for i in rows, where rows and
        cols are row-major flat indices k of a 1D or 2D lattice of spacing h
        and extent counts (0 where k_i = k_j).

        cols splits into runs of points consecutive along the last lattice
        axis (ascending cols give the longest runs).  Seen from row i, a run
        is one contiguous range of offsets dx in one row of the offset
        table, and the table is even in dx, so each run costs two
        differences of the one-sided suffix sums U[m] = sum over d >= m of
        T[d] (one when the range does not straddle dx = 0).  Only that
        dx >= 0 half of the table is built, and only its rows of offsets
        some (row, run) pair reads; each row keeps every dx, so its suffix
        sums do not depend on which rows are built.  The suffix sums start
        at the far end, so a far run never cancels against the large near
        terms.  The work is O(rows x runs + table size), in row chunks of
        about _CHUNK_ENTRIES (row, run) pairs.
        """
        if len(rows) == 0 or len(cols) == 0:
            return np.zeros(len(rows))
        n = counts[-1]
        # (lattice row) * (n + 1) + (last coordinate): points consecutive
        # along the last axis differ by 1, points of two lattice rows by more
        key = cols + cols // n
        first = key[np.diff(key, prepend=key[:1] - 2) != 1]
        span = key[np.diff(key, append=key[-1:] + 2) != 1] - first
        run_row, run_x = np.divmod(first, n + 1)
        row_row, row_x = np.divmod(rows, n)  # a lattice row is the first coordinate, 0 in 1D

        lo = row_row.min() - run_row.max()  # the row offsets the pairs read
        half = self._offset_table(a, np.array([lo, 0]), np.array([row_row.max() - run_row.min(), n - 1]))
        half = half.reshape(-1, n)  # dx = 0, ..., n - 1
        suffix = np.zeros((len(half), n + 1))  # U[r, m], with U[r, n] = 0
        np.cumsum(half[:, ::-1], axis=1, out=suffix[:, n - 1 :: -1])
        del half  # frees the table before the row chunks
        row_row -= lo
        suffix = suffix.ravel()

        out = np.zeros(len(rows))
        step = max(1, _CHUNK_ENTRIES // len(first))
        for start in range(0, len(rows), step):
            sl = slice(start, start + step)
            base = row_row[sl, None] - run_row
            base *= n + 1
            dx = row_x[sl, None] - run_x  # the offset to the run's first point, its largest
            # the part of [dx - span, dx] at dx >= 0, then the mirror of its part at dx < 0
            near = np.maximum(dx - span, 0)
            far = np.maximum(dx + 1, near)
            sums = suffix[base + near] - suffix[base + far]
            np.maximum(-dx, 1, out=near)
            np.maximum(span + 1 - dx, near, out=far)
            sums += suffix[base + near] - suffix[base + far]
            out[sl] = sums.sum(axis=1)
        return out

    def shell_power_sums(self, r_in: float, r_out: float, a: float) -> NDArray:
        """Sum over the lattice points y = origin + h k (k any integer vector)
        with r_in < |y - center| <= r_out of |x_i - y|^a, for each Omega cell
        x_i, by lattice_power_sums on the lattice box around that shell."""
        lo = np.floor((self.center - r_out - self.origin) / self.h).astype(np.int64) - 1
        hi = np.ceil((self.center + r_out - self.origin) / self.h).astype(np.int64) + 1
        dc = np.linalg.norm(_lattice_points(_lattice_axes(self.origin, self.h, lo, hi)) - self.center, axis=1)
        shell = (dc > r_in * (1.0 + _GEOM_RTOL)) & (dc <= r_out * (1.0 + _GEOM_RTOL))
        counts = tuple((hi - lo + 1).tolist())
        rows = np.ravel_multi_index(tuple((self.coords[self.omega_mask] - lo).T), counts)
        return self.lattice_power_sums(counts, rows, np.flatnonzero(shell), a)

    def orbit_power_sums(self, rows: NDArray, a: float) -> NDArray:
        """S[r, b] = sum over the Omega cells j of orbit b of |x_i - x_j|^a, i = rows[r].

        The columns stream through pair_powers grouped by orbit, so no
        rows x n_omega table is held.
        """
        orbit = self.symmetry.orbit
        order = np.argsort(orbit, kind="stable")
        grouped = orbit[order]
        out = np.zeros((len(rows), len(self.symmetry.reps)))
        for sl, block in self.pair_powers(rows, self.omega_indices[order], a):
            ids = grouped[sl]
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            out[:, ids[starts]] += np.add.reduceat(block, starts, axis=1)
        return out

    def pair_power(self, rows: NDArray, cols: NDArray, a: float, what: str) -> NDArray:
        """The whole rows x cols table of pair_powers, within the dense budget;
        `what` names the table in the error raised beyond that budget."""
        check_dense_pairs(len(rows), len(cols), what)
        out = np.empty((len(rows), len(cols)))
        for sl, block in self.pair_powers(rows, cols, a):
            out[:, sl] = block
        return out

    def embed_lattice(self, values: NDArray) -> NDArray:
        """Scatter per-cell values into the full bounding-lattice array."""
        full = np.zeros(int(np.prod(self.counts)))
        full[self.lattice_index] = values
        return full.reshape(self.counts)


def _lattice_axes(anchor: NDArray, h: float, k_lo: NDArray, k_hi: NDArray):
    return [anchor[d] + h * np.arange(k_lo[d], k_hi[d] + 1) for d in range(len(anchor))]


def _lattice_bounds(anchor: NDArray, h: float, lo: NDArray, hi: NDArray) -> tuple[NDArray, NDArray]:
    """Integer index bounds (k_lo, k_hi) of a lattice covering [lo, hi] with
    one spare point per side.  A lattice is refused first when its extent
    is not finite, when its points would not fit the dense budget, or when
    float64 cannot hold it: its spacing h to 1e-6 h at its largest
    coordinate, or the square of twice that coordinate, which bounds every
    squared distance the build computes."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        k_lo = np.floor((lo - anchor) / h) - 1
        k_hi = np.ceil((hi - anchor) / h) + 1
    if not (np.all(np.isfinite(k_lo)) and np.all(np.isfinite(k_hi))):
        raise ValueError("the bounding lattice has a non-finite extent; use a smaller shape or a larger h")
    check_dense_pairs(math.prod(int(n) for n in k_hi - k_lo + 1), len(anchor), "the bounding lattice")
    reach = float(np.abs(np.r_[anchor + h * k_lo, anchor + h * k_hi]).max())
    if np.spacing(reach) > 1e-6 * h:
        raise ValueError(
            f"float64 cannot resolve the cell width h = {h!r} at the lattice coordinate {reach:.3g}; "
            "move the shape nearer the origin or use a larger h"
        )
    if not math.isfinite(len(anchor) * (2.0 * reach) * (2.0 * reach)):
        raise ValueError(
            f"squared distances across the lattice (coordinates up to {reach:.3g}) overflow float64; "
            "use a smaller shape or truncation factor"
        )
    return k_lo.astype(np.int64), k_hi.astype(np.int64)


def _lattice_points(axes: Sequence[NDArray]) -> NDArray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def build_domain(spec: DomainSpec, t: float = 4.0) -> GridDomain:
    """Discretize the shape and the enclosing ball on a shared lattice.

    The lattice is anchored half a cell inside the shape's bounding box
    (mask shapes anchor at their stated origin), so lattice-aligned shapes
    tile exactly.  Identical specs produce identical cell orderings.
    """
    if not 1.0 < t < math.inf:
        raise ValueError(f"truncation factor t must exceed 1 and be finite, got {t}")
    h = spec.h
    shape = _parse_shape(spec.shape, spec.dim, h)

    if isinstance(shape, _MaskShape):
        anchor = shape.origin.copy()
    else:
        lo, _ = shape.bbox()
        anchor = np.asarray(lo, dtype=float) + 0.5 * h

    # first pass: flag Omega on the lattice restricted to the shape bbox
    lo, hi = shape.bbox()
    k_lo, k_hi = _lattice_bounds(anchor, h, lo, hi)
    pts = _lattice_points(_lattice_axes(anchor, h, k_lo, k_hi))
    inside = shape.contains(pts)
    flagged = pts[inside]
    if len(flagged) == 0:
        raise ValueError("no cell center falls inside Omega; h is too coarse")
    if isinstance(shape, _UnionShape):
        for i, part in enumerate(shape.parts):
            if not np.any(part.contains(pts)):
                raise ValueError(f"union part {i} captures no cell; h is too coarse")

    center, enc_radius = _enclosing_ball(flagged)
    diameter = _set_diameter(flagged) + h
    if enc_radius > 0.5 * diameter + h * (1 + 1e-9):
        raise ValueError(
            "the smallest ball enclosing Omega is wider than diameter/2 + h; "
            "such shapes break the enclosing-ball invariants of this grid"
        )

    # second pass: enumerate the ball lattice around the center
    half = 0.5 * t * diameter
    k_lo, k_hi = _lattice_bounds(anchor, h, center - half, center + half)
    axes = _lattice_axes(anchor, h, k_lo, k_hi)
    counts = tuple(len(ax) for ax in axes)
    pts = _lattice_points(axes)
    in_ball = np.linalg.norm(pts - center, axis=1) <= half * (1 + _GEOM_RTOL)
    omega = shape.contains(pts[in_ball])
    if int(omega.sum()) != len(flagged):
        raise ValueError(
            "the truncation ball does not cover Omega at this resolution "
            "(t too small or h too coarse)"
        )
    if omega.all():
        raise ValueError("Omega fills the whole ball")

    return GridDomain(
        dim=spec.dim,
        h=h,
        omega_mask=omega,
        center=center,
        diameter_R=diameter,
        t=t,
        origin=np.array([ax[0] for ax in axes]),
        counts=counts,
        lattice_index=np.flatnonzero(in_ball),
    )


def dilate(dom: GridDomain, c: float) -> GridDomain:
    """Grid for the dilated set c*Omega: same lattice and mask, geometry scaled."""
    if not c > 0:
        raise ValueError(f"dilation factor must be positive, got {c}")
    return replace(
        dom, h=c * dom.h, origin=c * dom.origin, center=c * dom.center, diameter_R=c * dom.diameter_R
    )


def poincare_constant(dom: GridDomain, params) -> float:
    """Geometric constant bounding ||u||_p^p by the truncated energy.

    Minimum over candidate balls B inside the truncation ball and disjoint
    from Omega of diam(Omega union B)^(N+sp) / |B|.  Candidates are
    centered at non-Omega cell centers with radii in whole multiples of h.
    """
    n, sp = dom.dim, params.s * params.p
    h, R = dom.h, dom.diameter_R
    half = 0.5 * dom.t * R
    others = dom.other_indices
    if len(others) == 0:
        raise ValueError("Omega fills the ball; no candidate center exists")

    dmin = np.empty(len(others))
    dmax = np.empty(len(others))
    for sl, d in dom.pair_powers(dom.omega_indices, others, 1.0):
        dmin[sl] = d.min(axis=0)
        dmax[sl] = d.max(axis=0)
    room = half - np.linalg.norm(dom.cells[others] - dom.center, axis=1)
    # largest admissible integer radius per center: stay out of Omega and
    # inside the truncation ball (ties admitted through a relative slack)
    kmax = np.floor(np.minimum(dmin, room) / h + 1e-9).astype(np.int64)
    if kmax.max() < 1:
        raise ValueError("no candidate ball fits between Omega and the ball boundary")

    vol = unit_ball_volume(n)
    best = math.inf
    for k in range(1, int(kmax.max()) + 1):
        ok = kmax >= k
        if not np.any(ok):
            break
        r = k * h
        diam = np.maximum(R, dmax[ok] + r)
        values = diam ** (n + sp) / (vol * r**n)
        best = min(best, float(values.min()))
    return best
