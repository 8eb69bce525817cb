import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fraceig.domain as domain_mod
from fraceig import (
    ConvergenceError,
    DirichletProblem,
    FracParams,
    GridFunction,
    PairFunction,
    SolverConfig,
    build_domain,
    comparison_check,
    first_eigenpair,
    gagliardo_energy,
    monotonicity_certificate,
    nonlocal_gradient,
    psmall_pairwise_gap,
    seminorm_distance,
    solve_dirichlet,
)
from fraceig.core import energy_kernel, phi_p

from _oracles import psmall_gap_loops
from conftest import box_spec, random_function

P2 = FracParams(s=0.5, p=2.0)
P15 = FracParams(s=0.5, p=1.5)
P3 = FracParams(s=0.5, p=3.0)


class TestSolveDirichlet:
    def test_zero_data_gives_zero(self, interval16):
        w = solve_dirichlet(DirichletProblem(interval16, P3, np.zeros(interval16.n_omega)))
        assert np.all(w.values == 0.0)

    def test_p2_matches_dense_solve(self, interval64):
        rng = np.random.default_rng(30)
        f = rng.standard_normal(interval64.n_omega)
        w = solve_dirichlet(DirichletProblem(interval64, P2, f))
        kern = energy_kernel(interval64, P2)
        dense = scipy.linalg.solve(kern.quad_matrix / kern.hn, f, assume_a="pos")
        assert np.linalg.norm(w.omega_values - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_nonnegative_data_nonnegative_solution(self, interval16):
        rng = np.random.default_rng(31)
        for params in (P2, P15, P3):
            f = np.abs(rng.standard_normal(interval16.n_omega))
            w = solve_dirichlet(DirichletProblem(interval16, params, f))
            assert w.values.min() >= -1e-10

    def test_uniqueness_from_different_starts(self, interval16):
        rng = np.random.default_rng(32)
        f = rng.standard_normal(interval16.n_omega)
        prob = DirichletProblem(interval16, P15, f)
        w1 = solve_dirichlet(prob)
        start = random_function(interval16, rng)
        w2 = solve_dirichlet(prob, start=start)
        assert seminorm_distance(w1, w2, P15) <= 1e-8

    @pytest.mark.parametrize("params", [P15, P3])
    def test_a_constant_start_takes_the_default_start(self, interval64, params):
        # a constant start ties every pair, where the p != 2 Hessian is
        # floored; minimize_energy replaces it by its tie-free start
        prob = DirichletProblem(interval64, params, np.ones(interval64.n_omega))
        w = solve_dirichlet(prob)
        tied = solve_dirichlet(prob, start=GridFunction.indicator(interval64) * 1e-3)
        assert np.array_equal(tied.values, w.values)

    def test_energy_identity_at_solution(self, interval16):
        rng = np.random.default_rng(33)
        for params in (P2, P15, P3):
            f = rng.standard_normal(interval16.n_omega)
            w = solve_dirichlet(DirichletProblem(interval16, params, f))
            lhs = gagliardo_energy(w, params)
            rhs = float(np.sum(f * w.omega_values)) * interval16.h
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_first_order_optimality(self, interval16):
        # J(w + tau v) - J(w) collapses quadratically in tau at the solution
        # and only linearly away from it; the perturbation is 1e-2 ||w||,
        # so both gaps sit far above the float noise eps |J|
        rng = np.random.default_rng(34)
        f = rng.standard_normal(interval16.n_omega)
        params = P3
        w = solve_dirichlet(DirichletProblem(interval16, params, f)).omega_values
        kern = energy_kernel(interval16, params)
        b = f * kern.hn

        def j(vec):
            return kern.energy(vec) / params.p - float(np.dot(b, vec))

        v = np.random.default_rng(7).standard_normal(interval16.n_omega)
        step = 1e-2 * np.linalg.norm(w) / np.linalg.norm(v) * v

        def decay(base):
            gaps = [abs(j(base + tau * step) - j(base)) for tau in (1.0, 0.1)]
            assert gaps[1] > 1e6 * np.finfo(float).eps * abs(j(base))
            return gaps[1] / gaps[0]

        # shrinking tau by 10 shrinks the gap by ~100 at the solution
        assert decay(w) <= 2e-2
        # and by less than 20 at a point that is not optimal
        assert decay(w + 1e-3 * v) >= 5e-2

    def test_pair_datum_weak_form(self, interval8):
        # solution with pair datum F satisfies the full weak equation
        rng = np.random.default_rng(35)
        params = P3
        f = rng.standard_normal(interval8.n_omega)
        pair_values = rng.standard_normal((interval8.n_cells,) * 2)
        F = PairFunction(pair_values, interval8)
        prob = DirichletProblem(interval8, params, f, F=F)
        w = solve_dirichlet(prob)
        kern = energy_kernel(interval8, params)
        hn, h2n = interval8.h, interval8.h**2
        lhs_vec = kern.grad_omega(w.omega_values) / params.p  # weak-form operator
        for _ in range(5):
            v = random_function(interval8, rng)
            lhs = float(np.dot(lhs_vec, v.omega_values))
            rhs = float(np.sum(f * v.omega_values)) * hn + float(
                np.sum(F.values * nonlocal_gradient(v, params).values)
            ) * h2n
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-10)

    def test_only_antisymmetric_part_acts(self, interval8):
        rng = np.random.default_rng(36)
        f = rng.standard_normal(interval8.n_omega)
        raw = rng.standard_normal((interval8.n_cells,) * 2)
        anti = 0.5 * (raw - raw.T)
        w_raw = solve_dirichlet(DirichletProblem(interval8, P2, f, F=PairFunction(raw, interval8)))
        w_anti = solve_dirichlet(DirichletProblem(interval8, P2, f, F=PairFunction(anti, interval8)))
        np.testing.assert_allclose(w_raw.values, w_anti.values, rtol=1e-9, atol=1e-12)

    def test_float_flat_stall_restarts(self, interval256):
        # datum f2 of ordered pair 7 of `verify --suite comparison --seed 42`
        # at s=0.75, p=1.5: the inner objective goes float-flat with the
        # gradient still above the float floor
        rng = np.random.default_rng(42)
        for _ in range(8):
            f1 = rng.standard_normal(interval256.n_omega)
            f2 = f1 + np.abs(rng.standard_normal(interval256.n_omega))
        params = FracParams(s=0.75, p=1.5)
        w = solve_dirichlet(DirichletProblem(interval256, params, f2))
        kern = energy_kernel(interval256, params)
        b = f2 * kern.hn
        g = kern.grad_omega(w.omega_values) / params.p - b
        assert np.linalg.norm(g) <= 1e-7 * np.linalg.norm(b)

    def test_newton_work_per_solve(self, interval256, cho_calls):
        # gain-ratio damping made about 62 factorizations per solve here
        params = FracParams(s=0.75, p=1.5)
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = rng.standard_normal(interval256.n_omega)
            solve_dirichlet(DirichletProblem(interval256, params, f))
        assert len(cho_calls) <= 25 * 10

    @pytest.mark.parametrize("k", [-20, 0, 20])
    def test_solution_scales_with_the_datum(self, interval8, k):
        # the operator is (p-1)-homogeneous, so the datum c f has the
        # solution c^(1/(p-1)) w = c^2 w at p = 1.5; the constant datum's
        # symmetric solution carries near-ties, whose Hessian floor must
        # scale with w for the solve to behave alike at every c
        f = np.ones(interval8.n_omega)
        w = solve_dirichlet(DirichletProblem(interval8, P15, f)).omega_values
        c = 2.0**k
        scaled = solve_dirichlet(DirichletProblem(interval8, P15, c * f)).omega_values
        assert np.linalg.norm(scaled - c**2 * w) <= 1e-8 * np.linalg.norm(c**2 * w)

    def test_spent_budget_raises_with_partial(self, interval16):
        rng = np.random.default_rng(39)
        f = rng.standard_normal(interval16.n_omega)
        cfg = SolverConfig(max_iter_inner=3)
        with pytest.raises(ConvergenceError, match="after 3 evaluations") as exc_info:
            solve_dirichlet(DirichletProblem(interval16, P15, f), cfg)
        assert exc_info.value.partial.host is interval16

    def test_energy_reductions_start_no_pool(self, interval256, monkeypatch):
        # more free cells than one reduction block, so a pooled reduction
        # would have several blocks to hand out
        def no_thread(self):
            raise AssertionError("an energy reduction started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        cfg = SolverConfig(threads=2)
        first_eigenpair(interval256, P15, cfg)
        f = np.random.default_rng(38).standard_normal(interval256.n_omega)
        solve_dirichlet(DirichletProblem(interval256, P15, f), cfg)

    def test_rejects_bad_data(self, interval16):
        with pytest.raises(ValueError, match="one value per Omega cell"):
            DirichletProblem(interval16, P2, np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            DirichletProblem(interval16, P2, np.full(interval16.n_omega, np.nan))


class TestComparisonCheck:
    def test_equal_data(self, interval16):
        rng = np.random.default_rng(37)
        f = rng.standard_normal(interval16.n_omega)
        report = comparison_check(interval16, f, f, P15)
        assert report.max_gap <= 1e-12
        assert report.passed

    def test_zero_below_one(self, interval16):
        report = comparison_check(
            interval16, np.zeros(interval16.n_omega), np.ones(interval16.n_omega), P2
        )
        assert report.passed
        assert report.max_gap <= 0.0  # w1 = 0 and w2 >= 0

    def test_random_ordered_pairs(self, interval16):
        rng = np.random.default_rng(38)
        for params in (P2, P15):
            for _ in range(3):
                f1 = rng.standard_normal(interval16.n_omega)
                f2 = f1 + np.abs(rng.standard_normal(interval16.n_omega))
                report = comparison_check(interval16, f1, f2, params)
                assert report.max_gap <= 1e-8
                assert report.max_gap < 0.0  # a margin over Omega, not the exterior zeros

    def test_unordered_data_rejected(self, interval16):
        f1 = np.ones(interval16.n_omega)
        f2 = np.zeros(interval16.n_omega)
        with pytest.raises(ValueError, match="f1 <= f2"):
            comparison_check(interval16, f1, f2, P2)


class TestMonotonicityCertificate:
    def test_equal_arguments(self, interval16):
        rng = np.random.default_rng(39)
        u = random_function(interval16, rng)
        pairing, bound = monotonicity_certificate(u, u, P3)
        assert pairing == 0.0
        assert bound == 0.0

    def test_p2_is_energy_of_difference(self, interval16):
        rng = np.random.default_rng(40)
        for _ in range(10):
            u, v = random_function(interval16, rng), random_function(interval16, rng)
            pairing, bound = monotonicity_certificate(u, v, P2)
            e = gagliardo_energy(u - v, P2)
            assert pairing == pytest.approx(e, rel=1e-12)
            assert bound == pytest.approx(e, rel=1e-12)

    def test_p3_lower_bound(self, interval16):
        rng = np.random.default_rng(41)
        for _ in range(20):
            u, v = random_function(interval16, rng), random_function(interval16, rng)
            pairing, bound = monotonicity_certificate(u, v, P3)
            assert bound == pytest.approx(0.5 * gagliardo_energy(u - v, P3), rel=1e-12)
            assert pairing >= bound * (1 - 1e-12)

    def test_p15_nonnegative_and_pairwise(self, interval16):
        rng = np.random.default_rng(42)
        for _ in range(20):
            u, v = random_function(interval16, rng), random_function(interval16, rng)
            pairing, bound = monotonicity_certificate(u, v, P15)
            assert bound == 0.0
            assert pairing >= 0.0
            gap, scale = psmall_pairwise_gap(u, v, P15)
            assert gap <= 1e-12 * scale

    def test_pairwise_oracle_scan(self, interval8):
        # the per-pair inequality rechecked by explicit loops
        rng = np.random.default_rng(43)
        p = 1.5
        u, v = random_function(interval8, rng), random_function(interval8, rng)
        cells, mask = interval8.cells, interval8.omega_mask
        worst = -np.inf
        for i in range(len(cells)):
            for j in range(len(cells)):
                if i == j or not (mask[i] or mask[j]):
                    continue
                ksi = u.values[i] - u.values[j]
                eta = v.values[i] - v.values[j]
                if ksi == 0.0 and eta == 0.0:
                    continue
                d = (phi_p(np.array([ksi]), p) - phi_p(np.array([eta]), p))[0] * (ksi - eta)
                rhs = d * (abs(ksi) ** p + abs(eta) ** p) ** ((2 - p) / p)
                worst = max(worst, (p - 1) * (ksi - eta) ** 2 - rhs)
        assert worst <= 1e-12

    @pytest.mark.parametrize("name", ["interval8", "union16", "box8"])
    def test_gap_matches_loop_oracle(self, name, request):
        dom = request.getfixturevalue(name)
        rng = np.random.default_rng(44)
        u_om, v_om = rng.standard_normal((2, dom.n_omega))
        tied = rng.random(dom.n_omega) < 0.3  # U = V exactly on pairs of these cells
        u = GridFunction.from_omega(dom, u_om)
        v = GridFunction.from_omega(dom, np.where(tied, u_om, v_om))
        gap, scale = psmall_pairwise_gap(u, v, P15)
        want_gap, want_scale = psmall_gap_loops(u.values, v.values, dom.omega_mask, 1.5)
        assert scale == pytest.approx(want_scale, rel=1e-13)
        assert gap == pytest.approx(want_gap, rel=1e-12, abs=1e-13 * scale)

    def test_gap_builds_no_kernel_table(self, monkeypatch):
        # box16: a budget that refuses the energy kernel's 256 x 256 table
        dom = build_domain(box_spec(1 / 16), t=4.0)
        monkeypatch.setattr(domain_mod, "_DENSE_PAIR_BYTES", 8 * 36 * 256)
        rng = np.random.default_rng(45)
        u, v = random_function(dom, rng), random_function(dom, rng)
        gap, scale = psmall_pairwise_gap(u, v, P15)
        assert 0.0 < scale and gap <= 1e-12 * scale
        assert dom._tables == {}
        with pytest.raises(ValueError, match="energy kernel's Omega x Omega table"):
            energy_kernel(dom, P15)

    def test_host_mismatch(self, interval16, interval8):
        with pytest.raises(ValueError, match="hosts"):
            monotonicity_certificate(
                GridFunction.indicator(interval16), GridFunction.indicator(interval8), P2
            )


_scalars = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestScalarInequalities:
    """Pointwise inequalities behind the certificates, scanned by hypothesis."""

    @settings(max_examples=400, deadline=None)
    @given(a=_scalars, b=_scalars, p=st.floats(min_value=2.0, max_value=6.0))
    def test_large_p_monotonicity(self, a, b, p):
        eps = np.finfo(float).eps
        if abs(a - b) <= 4.0 * eps * (abs(a) + abs(b)):
            return  # below the float quantization of the odd power
        d = (phi_p(np.array([a]), p)[0] - phi_p(np.array([b]), p)[0]) * (a - b)
        assert abs(a - b) ** p <= 2.0 ** (p - 2.0) * d * (1 + 1e-12) + 1e-300

    @settings(max_examples=400, deadline=None)
    @given(a=_scalars, b=_scalars, p=st.floats(min_value=1.01, max_value=2.0))
    def test_small_p_monotonicity(self, a, b, p):
        eps = np.finfo(float).eps
        if a == 0.0 and b == 0.0:
            return
        if abs(a - b) <= 4.0 * eps * (abs(a) + abs(b)):
            return  # below the float quantization of the odd power
        d = (phi_p(np.array([a]), p)[0] - phi_p(np.array([b]), p)[0]) * (a - b)
        weight = (abs(a) ** p + abs(b) ** p) ** ((2.0 - p) / p)
        assert (p - 1.0) * (a - b) ** 2 <= d * weight * (1 + 1e-12) + 1e-300

    @settings(max_examples=400, deadline=None)
    @given(a=_scalars, b=_scalars, p=st.floats(min_value=2.0, max_value=6.0))
    def test_clarkson_scalar(self, a, b, p):
        lhs = abs((a - b) / 2.0) ** p + abs((a + b) / 2.0) ** p
        rhs = 0.5 * abs(a) ** p + 0.5 * abs(b) ** p
        assert lhs <= rhs * (1 + 1e-12) + 1e-300
