import dataclasses

import numpy as np
import pytest

from fraceig import (
    FracParams,
    GridFunction,
    SolverConfig,
    build_domain,
    dyadic_shifts,
    equivalence_check,
    first_eigenpair,
    gagliardo_energy,
    holder_report,
    lp_norm,
    s_sweep,
    scaling_check,
    seminorm_distance,
    translation_quotient_check,
)

from _oracles import far_field_loops
from conftest import interval_spec, random_function

P2 = FracParams(s=0.5, p=2.0)


class TestSSweep:
    def test_three_point_sweep(self, interval16):
        report = s_sweep(interval16, 2.0, [0.5, 0.3, 0.4], 0.3)
        assert [r.s for r in report.rows] == [0.3, 0.4, 0.5]
        assert report.weighted_violation() == 0.0
        assert all(r.converged for r in report.rows)
        assert all(r.lam > 0 for r in report.rows)

    def test_base_distance_zero(self, interval16):
        report = s_sweep(interval16, 2.0, [0.3, 0.4, 0.5], 0.4)
        assert report.row_at(0.4).dist_to_base == 0.0

    def test_folded_distances_match_the_seminorm(self, box8):
        # the sweep takes distances from the folded kernels its solves built
        report = s_sweep(box8, 1.5, [0.3, 0.5, 0.7], 0.5)
        base = report.eigenfunctions[0.5]
        for r in report.rows:
            params = FracParams(s=min(r.s, 0.5), p=1.5)
            plain = seminorm_distance(report.eigenfunctions[r.s], base, params)
            assert r.dist_to_base == pytest.approx(plain, rel=1e-12, abs=1e-14)
            assert r.group_order == 8

    def test_weighted_column_formula(self, interval16):
        report = s_sweep(interval16, 2.0, [0.3, 0.5], 0.3)
        w = 2.5 * interval16.diameter_R
        for r in report.rows:
            assert r.weighted_lam == pytest.approx(w ** (r.s * 2.0) * r.lam, rel=1e-14)

    def test_left_sweep_diagnostic(self, interval16):
        # approaching the base from below: weighted column still monotone
        report = s_sweep(interval16, 2.0, [0.46, 0.48, 0.5], 0.5)
        assert report.weighted_violation() == 0.0
        dists = [r.dist_to_base for r in report.rows]
        assert dists[0] >= dists[1] >= dists[2] == 0.0

    def test_failure_rows_flagged(self, interval16):
        cfg = SolverConfig(tol=1e-30, max_iter_outer=1)
        report = s_sweep(interval16, 3.0, [0.3, 0.5], 0.3, cfg)
        assert any(not r.converged for r in report.rows)

    def test_concurrent_matches_serial(self, interval16):
        serial = s_sweep(interval16, 2.0, [0.3, 0.4, 0.5], 0.3, SolverConfig(threads=1))
        threaded = s_sweep(interval16, 2.0, [0.3, 0.4, 0.5], 0.3, SolverConfig(threads=3))
        for a, b in zip(serial.rows, threaded.rows):
            assert a.lam == b.lam

    def test_bad_inputs(self, interval16):
        with pytest.raises(ValueError, match="s_base"):
            s_sweep(interval16, 2.0, [0.3, 0.4], 0.5)
        with pytest.raises(ValueError, match="lie in"):
            s_sweep(interval16, 2.0, [0.3, 1.4], 0.3)
        with pytest.raises(ValueError, match="empty"):
            s_sweep(interval16, 2.0, [], 0.3)

    def test_right_continuity_proxy(self, interval16):
        lam0 = first_eigenpair(interval16, P2).lam
        u0 = first_eigenpair(interval16, P2).eigenfunction
        gaps, dists = [], []
        for delta in (0.04, 0.02, 0.01):
            pair = first_eigenpair(interval16, FracParams(s=0.5 + delta, p=2.0))
            gaps.append(abs(pair.lam - lam0))
            dists.append(seminorm_distance(pair.eigenfunction, u0, P2))
        assert gaps[0] > gaps[1] > gaps[2]
        assert dists[0] > dists[1] > dists[2]


class TestScalingCheck:
    def test_identity_factor(self, interval16):
        report = scaling_check(interval16, P2, [1.0])
        assert report.errors[0] <= 1e-12

    def test_inverse_factor_doubles(self, interval16):
        # sp = 1: halving the domain doubles the eigenvalue
        report = scaling_check(interval16, P2, [0.5])
        assert report.lams[0] == pytest.approx(2.0 * report.lam_base, rel=1e-10)
        assert report.passed

    def test_lattice_factors(self, interval16):
        report = scaling_check(interval16, FracParams(s=0.25, p=2.0), [2.0, 3.0, 0.5])
        assert report.passed
        assert max(report.errors) <= 1e-10

    def test_bad_factor(self, interval16):
        with pytest.raises(ValueError):
            scaling_check(interval16, P2, [2.0, -1.0])


class TestEquivalenceCheck:
    def test_zero_function(self, interval16):
        u = GridFunction.from_omega(interval16, np.zeros(interval16.n_omega))
        rep = equivalence_check(u, P2)
        assert rep.V == rep.W == rep.X == rep.Y == 0.0

    def test_indicator_within_bound(self, interval16):
        u = GridFunction.indicator(interval16) / lp_norm(GridFunction.indicator(interval16), 2.0)
        for s in (0.3, 0.5, 0.7):
            rep = equivalence_check(u, FracParams(s=s, p=2.0))
            assert rep.ratio_ok
            assert rep.W <= rep.bound * rep.Y

    def test_split_is_exact(self, interval16):
        rng = np.random.default_rng(50)
        u = random_function(interval16, rng)
        rep = equivalence_check(u, P2)
        assert rep.V == pytest.approx(gagliardo_energy(u, P2), rel=1e-13)
        assert rep.V == pytest.approx(rep.X + rep.Y, rel=1e-12)
        assert rep.V + rep.W >= rep.V  # far field is nonnegative
        assert rep.W > 0 and rep.tail > 0 and rep.tail_error_bound > 0

    def test_requires_t4(self, interval16):
        dom3 = build_domain(interval_spec(1 / 16), t=3.0)
        u = GridFunction.indicator(dom3)
        with pytest.raises(ValueError, match="t = 4"):
            equivalence_check(u, FracParams(s=0.5, p=2.0))

    def test_2d_split(self, box8):
        rng = np.random.default_rng(51)
        u = random_function(box8, rng)
        rep = equivalence_check(u, P2, quad_radius_factor=8.0)
        assert rep.V == pytest.approx(rep.X + rep.Y, rel=1e-12)
        assert rep.ratio_ok

    @pytest.mark.parametrize("factor", [1.0, -1.0, 0.5, 0.0, 1.999, np.nan, np.inf, -np.inf])
    def test_refuses_radii_inside_the_truncation_ball(self, factor):
        # below t/2 the quadrature starts inside the ball (factor 1 gave
        # W = 4, factor -1 gave W = -4, factors 0.5 and 0 divided by zero)
        dom = build_domain(interval_spec(1 / 32), t=4.0)
        u = GridFunction.indicator(dom)
        with pytest.raises(ValueError, match="quad_radius_factor"):
            equivalence_check(u, P2, quad_radius_factor=factor)
        assert not dom._tables  # refused before any table was built

    def test_truncation_radius_is_accepted(self):
        dom = build_domain(interval_spec(1 / 32), t=4.0)
        u = GridFunction.indicator(dom)
        rep = equivalence_check(u, P2, quad_radius_factor=2.0)
        assert rep.W == rep.tail > 0.0  # no lattice point lies in the shell
        assert equivalence_check(u, P2).W == pytest.approx(2.043168318045057, rel=1e-12)

    def test_reports_do_not_depend_on_threads(self):
        # threads 1 then 2, and 2 then 1, each on a fresh grid: the first
        # call builds the far-field sums over five blocks of shell points
        reports = []
        for order in ((1, 2), (2, 1)):
            dom = build_domain(interval_spec(1 / 16), t=4.0)
            u = random_function(dom, np.random.default_rng(53))
            for threads in order:
                rep = equivalence_check(u, FracParams(s=0.75, p=1.5), threads=threads)
                reports.append(dataclasses.astuple(rep))
        assert all(r == reports[0] for r in reports)

    def test_worker_threads_are_capped_at_the_cpu_count(self, interval16, monkeypatch):
        import fraceig._reduce as reduce_mod

        workers = []

        class InlinePool:  # records its size, runs the tasks in this thread
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(reduce_mod, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(reduce_mod.os, "cpu_count", lambda: 3)
        rows = reduce_mod.BLOCK_ROWS
        assert reduce_mod.map_blocks(lambda lo, hi: hi - lo, 5 * rows, threads=5000) == [rows] * 5
        assert reduce_mod.map_blocks(lambda lo, hi: hi - lo, rows + 1, threads=5000) == [rows, 1]
        assert reduce_mod.map_blocks(lambda lo, hi: hi - lo, 5 * rows, threads=1) == [rows] * 5
        s_sweep(interval16, 2.0, [0.3, 0.4, 0.5, 0.6], 0.3, SolverConfig(threads=5000))
        assert workers == [3, 2, 3]

    @pytest.mark.parametrize("name, factor", [("interval16", 20.0), ("box8", 3.0)])
    def test_far_field_matches_loop_oracle(self, name, factor, request):
        dom = request.getfixturevalue(name)
        params = FracParams(s=0.75, p=1.5)
        u = random_function(dom, np.random.default_rng(54))
        rep = equivalence_check(u, params, quad_radius_factor=factor)
        want = far_field_loops(
            dom.cells, u.values, dom.omega_mask, dom.center, dom.origin, dom.h, dom.dim,
            dom.diameter_R, dom.t, params.s, params.p, factor,
        )
        assert rep.W == pytest.approx(want, rel=1e-13)


class TestTranslationQuotient:
    def test_zero_function(self, interval16):
        u = GridFunction.from_omega(interval16, np.zeros(interval16.n_omega))
        rep = translation_quotient_check(u, P2, dyadic_shifts(interval16))
        assert rep.sup_ratio == 0.0

    def test_disjoint_supports(self, interval16):
        rng = np.random.default_rng(52)
        u = random_function(interval16, rng)
        shift = np.array([interval16.n_cells + 80])
        rep = translation_quotient_check(u, P2, [shift])
        expect = 2.0 * lp_norm(u, 2.0) ** 2
        assert rep.differences[0] == pytest.approx(expect, rel=1e-12)

    def test_eigenfunction_ratio_stable_under_refinement(self):
        ratios = []
        for h_inv in (16, 32):
            dom = build_domain(interval_spec(1.0 / h_inv), t=4.0)
            pair = first_eigenpair(dom, P2)
            rep = translation_quotient_check(pair.eigenfunction, P2, dyadic_shifts(dom))
            ratios.append(rep.sup_ratio)
        assert max(ratios) / min(ratios) <= 2.0

    def test_empty_shifts(self, interval16):
        with pytest.raises(ValueError, match="empty"):
            translation_quotient_check(GridFunction.indicator(interval16), P2, [])

    def test_2d_shift(self, box8):
        rng = np.random.default_rng(53)
        u = random_function(box8, rng)
        rep = translation_quotient_check(u, P2, [np.array([1, 0]), np.array([1, 1])])
        assert all(np.isfinite(rep.ratios))


class TestHolderReport:
    def test_gamma_formula(self, interval16):
        params = FracParams(s=0.75, p=2.0)
        pair = first_eigenpair(interval16, params)
        gamma, sup_q = holder_report(pair.eigenfunction, params)
        assert gamma == pytest.approx(0.75 - 1.0 / 2.0, abs=1e-15)
        assert np.isfinite(sup_q) and sup_q > 0

    def test_zero_function(self, interval16):
        u = GridFunction.from_omega(interval16, np.zeros(interval16.n_omega))
        _, sup_q = holder_report(u, FracParams(s=0.8, p=2.0))
        assert sup_q == 0.0

    def test_requires_sp_above_dim(self, interval16):
        u = GridFunction.indicator(interval16)
        with pytest.raises(ValueError, match="s p > N"):
            holder_report(u, FracParams(s=0.4, p=2.0))

    def test_refinement_drift(self):
        params = FracParams(s=0.8, p=2.0)
        quotients = []
        for h_inv in (16, 32):
            dom = build_domain(interval_spec(1.0 / h_inv), t=4.0)
            pair = first_eigenpair(dom, params)
            quotients.append(holder_report(pair.eigenfunction, params)[1])
        drift = abs(quotients[1] - quotients[0]) / quotients[0]
        assert drift <= 0.2


def test_left_sweep_note_in_metadata(interval16):
    left = s_sweep(interval16, 2.0, [0.4, 0.5], 0.5)
    assert "left_sweep_note" in left.to_dict()
    right = s_sweep(interval16, 2.0, [0.5, 0.6], 0.5)
    assert "left_sweep_note" not in right.to_dict()
