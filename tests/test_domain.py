import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraceig
import fraceig.domain as domain_mod

from fraceig import (
    DirichletProblem,
    DomainSpec,
    FracParams,
    GridFunction,
    PairFunction,
    apply_operator,
    build_domain,
    dilate,
    first_eigenpair,
    gagliardo_energy,
    nonlocal_divergence,
    nonlocal_gradient,
    p2_oracle,
    poincare_constant,
    s_sweep,
    solve_dirichlet,
)

from _oracles import max_pairwise_distance, poincare_search
from conftest import box_spec, interval_spec, mask_spec, union_spec


class TestBuildDomain:
    def test_unit_interval(self, interval8):
        dom = interval8
        assert dom.n_omega == 8
        assert dom.diameter_R == 1.0
        assert dom.center[0] == 0.5
        # ball of diameter 4R = 4 centered at 0.5 covers (-1.5, 2.5)
        assert dom.cells.min() > -1.5 and dom.cells.max() < 2.5
        assert dom.cells.min() < -1.5 + dom.h and dom.cells.max() > 2.5 - dom.h

    def test_disjoint_union(self):
        dom = build_domain(union_spec(1 / 8), t=4.0)
        assert dom.diameter_R == 3.0
        assert dom.cells.min() > -4.5 and dom.cells.max() < 7.5
        flagged = dom.cells[dom.omega_mask][:, 0]
        assert np.any(flagged < 1.0) and np.any(flagged > 2.0)
        assert dom.n_omega == 16

    def test_2d_square(self, box8):
        dom = box8
        brute = max_pairwise_distance(dom.cells[dom.omega_mask])
        assert dom.diameter_R == pytest.approx(brute + dom.h, abs=1e-12)
        assert abs(dom.diameter_R - math.sqrt(2)) <= dom.h
        assert dom.center == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_invariants(self, union16, box8):
        for dom in (union16, box8):
            flagged = dom.cells[dom.omega_mask]
            d = np.linalg.norm(flagged - dom.center, axis=1)
            assert d.max() <= dom.diameter_R / 2 + dom.h * (1 + 1e-12)
            d_all = np.linalg.norm(dom.cells - dom.center, axis=1)
            assert d_all.max() <= dom.t * dom.diameter_R / 2 * (1 + 1e-12)
            assert 0 < dom.n_omega < dom.n_cells

    def test_deterministic(self):
        a = build_domain(interval_spec(1 / 16), t=4.0)
        b = build_domain(interval_spec(1 / 16), t=4.0)
        np.testing.assert_array_equal(a.cells, b.cells)
        np.testing.assert_array_equal(a.omega_mask, b.omega_mask)

    def test_translation_leaves_diameter(self):
        a = build_domain(interval_spec(1 / 16), t=4.0)
        b = build_domain(interval_spec(1 / 16, a=0.25, b=1.25), t=4.0)
        assert a.diameter_R == b.diameter_R
        assert a.n_omega == b.n_omega

    def test_mask_shape_matches_box(self):
        box = build_domain(box_spec(1 / 4), t=4.0)
        ncell = 4
        spec = DomainSpec(
            dim=2,
            h=1 / 4,
            shape={
                "type": "mask",
                "origin": [1 / 8, 1 / 8],
                "counts": [ncell, ncell],
                "cells": [1] * ncell**2,
            },
        )
        masked = build_domain(spec, t=4.0)
        np.testing.assert_allclose(
            masked.cells[masked.omega_mask], box.cells[box.omega_mask], atol=1e-12
        )

    @pytest.mark.parametrize("h, a, b", [(1 / 16, 0.0, 1.0), (1 / 63, -0.3, 0.7), (0.1, 2.5, 3.7)])
    def test_interval_is_the_1d_box(self, h, a, b):
        interval = build_domain(interval_spec(h, a=a, b=b), t=4.0)
        box = build_domain(DomainSpec(dim=1, h=h, shape={"type": "box", "min": [a], "max": [b]}), t=4.0)
        for f in (f for f in dataclasses.fields(box) if f.init):
            want, got = getattr(box, f.name), getattr(interval, f.name)
            assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name

    def test_ball_shape(self):
        spec = DomainSpec(dim=2, h=1 / 8, shape={"type": "ball", "center": [0.0, 0.0], "radius": 0.5})
        dom = build_domain(spec, t=4.0)
        assert abs(dom.diameter_R - 1.0) <= dom.h
        assert np.linalg.norm(dom.center) <= dom.h

    def test_errors(self):
        with pytest.raises(ValueError, match="too coarse"):
            build_domain(interval_spec(2.0), t=4.0)
        with pytest.raises(ValueError, match="t must exceed 1"):
            build_domain(interval_spec(1 / 8), t=1.0)
        with pytest.raises(ValueError, match="union part"):
            spec = DomainSpec(
                dim=1,
                h=1 / 4,
                shape={
                    "type": "union",
                    "parts": [
                        {"type": "interval", "a": 0.0, "b": 1.0},
                        {"type": "interval", "a": 2.0, "b": 2.1},
                    ],
                },
            )
            build_domain(spec, t=4.0)
        with pytest.raises(ValueError, match="unknown shape"):
            build_domain(DomainSpec(dim=1, h=0.1, shape={"type": "blob"}), t=4.0)
        with pytest.raises(ValueError):
            DomainSpec(dim=3, h=0.1, shape={"type": "interval", "a": 0, "b": 1})
        with pytest.raises(ValueError):
            DomainSpec(dim=1, h=-0.1, shape={"type": "interval", "a": 0, "b": 1})

    def test_from_dict_dim_must_be_integral(self):
        shape = {"type": "interval", "a": 0.0, "b": 1.0}
        spec = DomainSpec.from_dict({"dim": 1.0, "h": 0.1, "shape": shape})
        assert spec.dim == 1 and type(spec.dim) is int
        for dim in (1.9, True, False, None, "1"):
            with pytest.raises(ValueError, match="field 'dim'"):
                DomainSpec.from_dict({"dim": dim, "h": 0.1, "shape": shape})
        with pytest.raises(ValueError, match="missing required field 'h'"):
            DomainSpec.from_dict({"dim": 1, "shape": shape})

    @pytest.mark.parametrize("counts", [[4.9], [True], ["4"]])
    def test_mask_counts_must_be_integral(self, counts):
        mask = {"type": "mask", "origin": [0.125], "counts": counts, "cells": [1, 1, 1, 1]}
        with pytest.raises(ValueError, match="field 'counts'"):
            build_domain(DomainSpec(dim=1, h=0.25, shape=mask), t=4.0)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: FracParams(s=0.5, p=math.inf), "p"),
            (lambda: DomainSpec(dim=1, h=math.inf, shape={"type": "interval", "a": 0, "b": 1}), "h"),
            (lambda: DomainSpec.from_dict(
                json.loads('{"dim": 1, "h": 1e999, "shape": {"type": "interval", "a": 0, "b": 1}}')), "h"),
            (lambda: build_domain(interval_spec(1 / 8), t=math.inf), "t"),
        ],
    )
    def test_non_finite_input_refused(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must .* finite"):
            build()


class TestTruncationFromTheGrid:
    def test_t3_grid_serves_every_solver(self):
        # (s, p) alone name the energy; every layer reads t from the grid
        dom3 = build_domain(interval_spec(1 / 16), t=3.0)
        dom4 = build_domain(interval_spec(1 / 16), t=4.0)
        params = FracParams(s=0.5, p=2.0)

        pair = first_eigenpair(dom3, params)
        assert pair.converged
        assert pair.lam == pytest.approx(p2_oracle(dom3, params).lam, rel=1e-10)

        rng = np.random.default_rng(80)
        u_om = rng.standard_normal(dom3.n_omega)
        u3 = GridFunction.from_omega(dom3, u_om)
        # the smaller ball drops far pairs, so the energy drops
        assert gagliardo_energy(u3, params) < gagliardo_energy(GridFunction.from_omega(dom4, u_om), params)

        f = rng.standard_normal(dom3.n_omega)
        w = solve_dirichlet(DirichletProblem(dom3, params, f))
        residual = apply_operator(w, params).omega_values / params.p - f * dom3.h
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(f * dom3.h)

        phi = PairFunction(rng.standard_normal((dom3.n_cells, dom3.n_cells)), dom3)
        lhs = float(np.sum(u3.values * nonlocal_divergence(phi, params))) * dom3.h
        rhs = float(np.sum(phi.values * nonlocal_gradient(u3, params).values)) * dom3.h**2
        assert lhs == pytest.approx(rhs, rel=1e-12)

        report = s_sweep(dom3, 2.0, [0.4, 0.5], 0.5)
        assert report.t == 3.0
        assert all(r.converged for r in report.rows)
        assert report.row_at(0.5).lam == pytest.approx(pair.lam, rel=1e-10)


class TestDilate:
    def test_rescale_interval(self, interval8):
        scaled = dilate(interval8, 2.0)
        assert scaled.h == 1 / 4
        assert scaled.n_omega == 8
        np.testing.assert_array_equal(scaled.omega_mask, interval8.omega_mask)
        np.testing.assert_allclose(scaled.cells, 2.0 * interval8.cells)
        assert scaled.diameter_R == 2.0

    def test_identity(self, interval8):
        same = dilate(interval8, 1.0)
        np.testing.assert_array_equal(same.cells, interval8.cells)
        assert same.diameter_R == interval8.diameter_R

    def test_2d_diameter_triples(self, box8):
        assert dilate(box8, 3.0).diameter_R == pytest.approx(3.0 * box8.diameter_R, rel=1e-15)

    def test_bad_factor(self, interval8):
        with pytest.raises(ValueError):
            dilate(interval8, 0.0)
        with pytest.raises(ValueError):
            dilate(interval8, -2.0)


class TestPoincareConstant:
    def test_interval_frozen_value(self, interval8):
        # brute-force minimum over grid candidates in (-1.5,0) u (1,2.5);
        # the best ball has radius 1/2 one cell off Omega: 225/64
        params = FracParams(s=0.5, p=2.0)
        value = poincare_constant(interval8, params)
        oracle = poincare_search(
            interval8.cells,
            interval8.coords,
            interval8.omega_mask,
            interval8.center,
            interval8.diameter_R,
            interval8.t,
            interval8.h,
            1,
            0.5,
            2.0,
        )
        assert value == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(225 / 64, rel=1e-14)

    def test_oracle_agreement_union(self, union16):
        params = FracParams(s=0.3, p=1.5)
        value = poincare_constant(union16, params)
        oracle = poincare_search(
            union16.cells,
            union16.coords,
            union16.omega_mask,
            union16.center,
            union16.diameter_R,
            union16.t,
            union16.h,
            1,
            0.3,
            1.5,
        )
        assert value == pytest.approx(oracle, rel=1e-13)

    def test_dilation_scaling(self, interval16):
        # I(c Omega) = c^(sp) I(Omega): candidate sets map bijectively
        for s, p in ((0.5, 2.0), (0.3, 3.0)):
            params = FracParams(s=s, p=p)
            base = poincare_constant(interval16, params)
            scaled = poincare_constant(dilate(interval16, 2.0), params)
            assert scaled == pytest.approx(2.0 ** (s * p) * base, rel=1e-12)

    def test_positive_finite(self, box8):
        value = poincare_constant(box8, FracParams(s=0.5, p=2.0))
        assert 0.0 < value < math.inf

    def test_largest_inscribed_ball_wins_at_fixed_diameter(self, union16):
        # candidates centered in the gap between the two components leave
        # diam(Omega u B) = R for every admissible radius, so the value is
        # a fixed numerator over the ball measure: largest radius wins
        dom = union16
        params = FracParams(s=0.5, p=2.0)
        omega = dom.cells[dom.omega_mask][:, 0]
        center = 1.5  # gap midpoint is a non-Omega cell region
        gap_centers = [
            c[0]
            for c, flag in zip(dom.cells, dom.omega_mask)
            if not flag and 1.0 < c[0] < 2.0
        ]
        c = min(gap_centers, key=lambda x: abs(x - center))
        dmin = min(abs(c - x) for x in omega)
        dmax = max(abs(c - x) for x in omega)
        kmax = int(dmin / dom.h + 1e-9)
        assert kmax >= 2
        values = []
        for k in range(1, kmax + 1):
            r = k * dom.h
            diam = max(dom.diameter_R, dmax + r)
            assert diam == dom.diameter_R  # numerator fixed across k
            values.append(diam ** (1 + params.s * params.p) / (2.0 * r))
        assert values[-1] == min(values)
        assert poincare_constant(dom, params) <= values[-1]

    def test_no_candidate_fits(self):
        # complement cells exist but no radius-h ball stays inside the ball
        dom = build_domain(interval_spec(1 / 2), t=1.5)
        with pytest.raises(ValueError, match="no candidate ball"):
            poincare_constant(dom, FracParams(s=0.5, p=2.0))


class TestHullVertices:
    @settings(max_examples=80, deadline=None)
    @given(
        ks=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=40, unique=True),
        line=st.sampled_from([None, (1, 0), (0, 1), (1, 1), (2, -1)]),
    )
    def test_matches_qhull_on_lattice_points(self, ks, line):
        from scipy.spatial import ConvexHull, QhullError

        ks = np.array(ks)
        if line is not None:  # a collinear set
            ks = np.unique(ks[:, :1] * np.array(line), axis=0)
        # dyadic coordinates keep every orientation test exact
        points = 0.0625 + 0.125 * ks
        try:
            want = points[ConvexHull(points).vertices] if len(points) > 3 else points
        except QhullError:  # collinear: every point stays
            want = points
        got = domain_mod._hull_vertices(points)
        assert sorted(map(tuple, got)) == sorted(map(tuple, want))


def test_domain_build_leaves_scipy_spatial_unimported():
    code = (
        "import sys, fraceig.cli\n"
        "from fraceig import DomainSpec, build_domain\n"
        "build_domain(DomainSpec(dim=2, h=1 / 8, shape={'type': 'box', 'min': [0, 0], 'max': [1, 1]}))\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fraceig.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


@st.composite
def holed_masks(draw):
    """A 1D or 2D mask with holes, so lattice rows hold several runs of cells."""
    dim = draw(st.sampled_from([1, 2]))
    shape = [draw(st.integers(1, 16 if dim == 1 else 7)) for _ in range(dim)]
    size = int(np.prod(shape))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    assume(any(flags))
    return np.reshape(np.array(flags, dtype=int), shape)


class TestPairPowerSums:
    @settings(max_examples=40, deadline=None)
    @given(mask=holed_masks(), s=st.floats(0.01, 0.99), p=st.floats(1.01, 5.0), seed=st.integers(0, 2**32 - 1))
    @example(mask=[1], s=0.5, p=2.0, seed=49)  # draws no cols
    def test_run_sums_match_the_gather(self, mask, s, p, seed):
        try:
            dom = build_domain(mask_spec(mask), t=4.0)
        except ValueError:  # shapes the grid refuses
            assume(False)
        rng = np.random.default_rng(seed)
        a = -(dom.dim + s * p)
        rows = np.arange(dom.n_cells)
        cols = np.flatnonzero(rng.random(dom.n_cells) < rng.uniform(0.2, 1.0))
        for order in (dom.other_indices, cols, rng.permutation(cols)):
            gather = dom.pair_power(rows, order, a, "the gather").sum(axis=1)
            np.testing.assert_allclose(dom.pair_power_sums(rows, order, a), gather, rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "spec, fold", [(box_spec(1 / 32), True), (interval_spec(1 / 1024), False)], ids=["box32-folded", "interval1024"]
    )
    def test_exterior_sums_match_fsum(self, spec, fold):
        dom = build_domain(spec, t=4.0)
        rows = dom.omega_indices[dom.symmetry.reps] if fold else dom.omega_indices
        cols = dom.other_indices
        dist = [dom.h * np.sqrt(np.sum((dom.coords[cols] - dom.coords[i]) ** 2, axis=1)) for i in rows]
        # slow decay, then fast decay, where the far runs' sums are smallest
        for s, p in ((0.1, 1.5), (0.9, 3.0)):
            a = -(dom.dim + s * p)
            exact = [math.fsum(d**a) for d in dist]
            np.testing.assert_allclose(dom.pair_power_sums(rows, cols, a), exact, rtol=1e-14, atol=0)

    def test_an_empty_side_gives_an_empty_table(self, box8):
        rows, none = box8.omega_indices, np.array([], dtype=np.int64)
        assert box8.pair_power(rows, none, -3.0, "t").shape == (len(rows), 0)
        assert box8.pair_power(none, rows, -3.0, "t").shape == (0, len(rows))
        assert box8.pair_power_sums(rows, none, -3.0).tolist() == [0.0] * len(rows)
        assert box8.pair_power_sums(none, rows, -3.0).shape == (0,)

    def test_row_chunks_bound_the_memory(self):
        # 4,096 rows x 424 exterior runs: one unchunked temporary would take 13 MiB
        dom = build_domain(box_spec(1 / 64), t=4.0)
        rows, cols = dom.omega_indices, dom.other_indices
        tracemalloc.start()
        try:
            dom.pair_power_sums(rows, cols, -3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * domain_mod._CHUNK_ENTRIES
