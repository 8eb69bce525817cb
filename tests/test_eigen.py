import dataclasses
import logging

import numpy as np
import pytest

import fraceig.domain as domain_mod
import fraceig.eigen as eigen_mod
from fraceig import (
    ConvergenceError,
    DomainSpec,
    FracParams,
    GridFunction,
    SolverConfig,
    build_domain,
    clarkson_gap,
    dilate,
    first_eigenpair,
    gagliardo_energy,
    lp_norm,
    p2_oracle,
    poincare_constant,
    seminorm_distance,
)
from fraceig.core import energy_kernel, phi_p

from _oracles import dense_p2_eigenpair
from conftest import box_spec, interval_spec, mask_spec, random_function

P2 = FracParams(s=0.5, p=2.0)


@pytest.fixture(scope="module")
def single_cell_domain():
    # interval (0,1) at h = 3/4 keeps exactly one cell center inside
    return build_domain(interval_spec(0.75), t=4.0)


class TestP2Oracle:
    def test_single_cell_closed_form(self, single_cell_domain):
        # exterior cells sit at distances 0.75, 0.75, 1.5, 1.5 from the one
        # free cell: lambda = 2 h (2/0.75^2 + 2/1.5^2) = 20/3
        pair = p2_oracle(single_cell_domain, P2)
        assert pair.lam == pytest.approx(20 / 3, rel=1e-13)

    def test_matches_naive_dense_assembly(self, interval16):
        lam_naive, vec_naive = dense_p2_eigenpair(
            interval16.coords, interval16.omega_mask, interval16.h, 1, 0.5
        )
        pair = p2_oracle(interval16, P2)
        assert pair.lam == pytest.approx(lam_naive, rel=1e-12)
        np.testing.assert_allclose(pair.eigenfunction.omega_values, vec_naive, rtol=1e-9, atol=1e-10)

    def test_eigenvector_single_signed(self, union16):
        pair = p2_oracle(union16, P2)
        assert pair.eigenfunction.omega_values.min() > 0.0

    def test_rejects_other_p(self, interval16):
        with pytest.raises(ValueError, match="p = 2"):
            p2_oracle(interval16, FracParams(s=0.5, p=3.0))

    def test_size_overflow(self, interval16, monkeypatch):
        monkeypatch.setattr(eigen_mod, "_ORACLE_MAX_FREE", 4)
        with pytest.raises(ValueError, match="dense-oracle limit"):
            p2_oracle(interval16, P2)


def puncture_gap(s: float, h: float) -> float:
    """lambda(Omega_h) / lambda((0, 2 + h)) - 1 at p = 2, where Omega_h =
    (0, 1) u (1 + h, 2 + h) is the interval less its middle cell."""
    params = FracParams(s=s, p=2.0)
    parts = [{"type": "interval", "a": 0.0, "b": 1.0}, {"type": "interval", "a": 1.0 + h, "b": 2.0 + h}]
    holed = build_domain(DomainSpec(dim=1, h=h, shape={"type": "union", "parts": parts}), t=4.0)
    full = build_domain(interval_spec(h, b=2.0 + h), t=4.0)
    return p2_oracle(holed, params).lam / p2_oracle(full, params).lam - 1.0


class TestPunctureDichotomy:
    """A point has positive (s,p)-capacity in 1D exactly when sp > 1, so the
    eigenvalue shift of a one-cell puncture vanishes as h -> 0 when sp < 1
    and stays when sp > 1.  The hole is an exterior run inside Omega."""

    H = (1 / 256, 1 / 512, 1 / 1024)

    def test_gap_vanishes_at_order_one_minus_sp_below_the_threshold(self):
        gaps = [puncture_gap(0.3, h) for h in self.H]
        orders = np.log2(np.divide(gaps[:-1], gaps[1:]))
        assert np.all((orders >= 0.38) & (orders <= 0.42)), orders  # 1 - sp = 0.4

    def test_gap_stays_above_the_threshold(self):
        gaps = [puncture_gap(0.7, h) for h in self.H]
        assert min(gaps) >= 1.0, gaps


def box_puncture_gap(s: float, p: float, k: int) -> float:
    """lambda(Q_k) / lambda(Q) - 1 on the unit box Q at h = 1/k (k odd),
    where Q_k is Q less its centre cell; both keep the order-8 group."""
    rows = np.ones((k, k), dtype=int)
    pairs = []
    for hole in (False, True):
        rows[k // 2, k // 2] = 0 if hole else 1
        pair = first_eigenpair(build_domain(mask_spec(rows), t=4.0), FracParams(s=s, p=p))
        assert pair.stop_reason == "tol" and pair.group_order == 8
        pairs.append(pair)
    return pairs[1].lam / pairs[0].lam - 1.0


class TestPunctureDichotomy2D:
    """In 2D a point has positive (s,p)-capacity exactly when sp > 2: the
    gap of a one-cell puncture vanishes like h^(2-sp) below the threshold
    and stays above it."""

    K = (15, 31, 63)

    def orders(self, s: float, p: float):
        gaps = [box_puncture_gap(s, p, k) for k in self.K]
        return np.log2(np.divide(gaps[:-1], gaps[1:]))

    def test_gap_vanishes_at_order_one_when_sp_is_one(self):
        orders = self.orders(0.5, 2.0)  # 0.958, 0.970
        assert np.all((orders >= 0.9) & (orders <= 1.05)), orders

    def test_gap_vanishes_at_a_slower_order_when_sp_is_larger(self):
        orders = self.orders(0.5, 3.0)  # 0.687, 0.665; h^(2-sp) predicts 0.5
        assert np.all((orders >= 0.5) & (orders <= 0.75)), orders

    def test_gap_stays_above_the_threshold(self):
        gaps = [box_puncture_gap(0.9, 3.0, k) for k in self.K]  # 0.695, 0.606, 0.549
        assert min(gaps) >= 0.5, gaps


class TestFirstEigenpair:
    def test_matches_oracle(self, interval64):
        for s in (0.3, 0.5, 0.7):
            params = FracParams(s=s, p=2.0)
            pair = first_eigenpair(interval64, params)
            oracle = p2_oracle(interval64, params)
            assert pair.lam == pytest.approx(oracle.lam, rel=1e-6)
            assert lp_norm(pair.eigenfunction - oracle.eigenfunction, 2.0) <= 1e-4

    def test_matches_oracle_2d(self, box8):
        params = FracParams(s=0.5, p=2.0)
        pair = first_eigenpair(box8, params)
        oracle = p2_oracle(box8, params)
        assert pair.lam == pytest.approx(oracle.lam, rel=1e-6)
        assert lp_norm(pair.eigenfunction - oracle.eigenfunction, 2.0) <= 1e-4

    def test_p_small_endgame_meets_tol(self, box8, cho_calls):
        # bordered Newton finishes the p < 2 solve; the few factorizations
        # left belong to the inverse-power steps before the switch.  The
        # unfolded solve stopped at its float floor, residual 2.8e-8: the
        # exact ties inside each symmetry orbit set that floor
        pair = first_eigenpair(box8, FracParams(s=0.5, p=1.5))
        assert len(cho_calls) <= 10
        assert pair.lam == pytest.approx(32.76385791815459, rel=1e-10)
        assert pair.stop_reason == "tol"
        assert pair.residual <= SolverConfig().tol
        assert pair.iterations == 6
        assert pair.group_order == 8

    def test_box24_endgame_meets_tol(self):
        # the unfolded solve ended "float floor" at residual 3.3e-8
        dom = build_domain(box_spec(1 / 24), t=4.0)
        pair = first_eigenpair(dom, FracParams(s=0.5, p=1.5))
        assert pair.stop_reason == "tol"
        assert pair.residual <= SolverConfig().tol
        assert pair.lam == pytest.approx(37.54532402420353, rel=1e-12)

    @pytest.mark.parametrize(
        "name, p, lam",
        [
            ("box64", 1.5, 39.615449371630405),
            ("asym64", 1.5, 12.68171669630231),
            ("box24", 1.2, 35.77338676121127),
        ],
    )
    def test_p_small_stop_rests_on_tol(self, name, p, lam, request):
        # a fixed 1e-7 ||b|| floor for p < 2 stopped these as "float floor",
        # at residual 7.4e-8, 5.6e-8 and 1.0e-8
        if name == "asym64":
            dom = request.getfixturevalue(name)
        else:
            dom = build_domain(box_spec(1 / int(name[3:])), t=4.0)
        pair = first_eigenpair(dom, FracParams(s=0.5, p=p))
        assert pair.stop_reason == "tol"
        assert pair.residual <= SolverConfig().tol
        assert pair.lam == pytest.approx(lam, rel=1e-12)

    def test_p14_box8_converges(self, box8):
        # the unfolded solve raised "stalled" at residual 1.7e-6
        pair = first_eigenpair(box8, FracParams(s=0.5, p=1.4))
        assert pair.stop_reason == "tol"
        assert pair.residual <= SolverConfig().tol

    def test_start_is_averaged_over_orbits(self, box8):
        params = FracParams(s=0.5, p=3.0)
        rng = np.random.default_rng(5)
        start = GridFunction.from_omega(box8, np.abs(rng.standard_normal(box8.n_omega)) + 0.05)
        pair = first_eigenpair(box8, params, start=start)
        u = pair.eigenfunction.omega_values
        orbit = box8.symmetry.orbit
        assert np.array_equal(u, u[box8.symmetry.reps][orbit])
        assert pair.lam == pytest.approx(first_eigenpair(box8, params).lam, rel=1e-12)

    @pytest.mark.parametrize(
        "s, lam",
        [(0.65, 15.414585546093356), (0.75, 19.755287316760715), (0.8, 22.707647725763337)],
    )
    def test_p_small_newton_endgame(self, interval64, s, lam):
        # the inverse-power endgame took 9 outer iterations on these
        pair = first_eigenpair(interval64, FracParams(s=s, p=1.5))
        assert pair.converged
        assert pair.iterations <= 7
        assert pair.lam == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize(
        "name, lam",
        [("box8", 31.67770211247175), ("interval64", 10.887612593131246)],
        ids=["box8", "interval64"],
    )
    def test_p_small_inverse_power_work(self, name, lam, cho_calls, request):
        # the inverse-power steps before the Newton switch made 2,594
        # (box8) and 7,423 (interval64) factorizations under gain-ratio
        # damping; the pair is checked whether the solve returns or raises
        dom = request.getfixturevalue(name)
        try:
            pair = first_eigenpair(dom, FracParams(s=0.5, p=1.3))
        except ConvergenceError as exc:
            pair = exc.partial
        assert len(cho_calls) <= 100
        assert pair.lam == pytest.approx(lam, rel=1e-9)

    def test_scaling_law_sp_one(self, interval16):
        lam = first_eigenpair(interval16, P2).lam
        lam2 = first_eigenpair(dilate(interval16, 2.0), P2).lam
        assert lam2 == pytest.approx(0.5 * lam, rel=1e-9)

    def test_two_start_agreement(self, interval16):
        params = FracParams(s=0.5, p=3.0)
        rng = np.random.default_rng(23)
        from_indicator = first_eigenpair(interval16, params)
        start = GridFunction.from_omega(interval16, np.abs(rng.standard_normal(interval16.n_omega)) + 0.05)
        from_random = first_eigenpair(interval16, params, start=start)
        assert from_indicator.lam == pytest.approx(from_random.lam, rel=1e-9)
        assert seminorm_distance(
            from_indicator.eigenfunction, from_random.eigenfunction, params
        ) <= 1e-5

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_a_given_start_takes_newton_first_and_starts_every_inner_solve(
        self, interval16, p, monkeypatch
    ):
        # a given start gets a Newton step at once, whatever its residual;
        # the quadratic-form inner start exists for the indicator's exact ties
        steps = []
        newton, inner = eigen_mod._bordered_newton, eigen_mod.minimize_energy

        def recording_newton(kern, u, lam, grad):
            steps.append("newton")
            return newton(kern, u, lam, grad)

        def recording_inner(kern, b, x0, gtol, max_evals):
            steps.append("quadratic form" if x0 is None else "iterate")
            return inner(kern, b, x0, gtol, max_evals)

        monkeypatch.setattr(eigen_mod, "_bordered_newton", recording_newton)
        monkeypatch.setattr(eigen_mod, "minimize_energy", recording_inner)
        params = FracParams(s=0.5, p=p)
        rng = np.random.default_rng(23)
        start = GridFunction.from_omega(interval16, np.abs(rng.standard_normal(interval16.n_omega)) + 0.05)
        pair = first_eigenpair(interval16, params, start=start)
        assert pair.trace[0][1] > eigen_mod._NEWTON_SWITCH
        assert steps[0] == "newton" and "iterate" in steps
        assert "quadratic form" not in steps
        steps.clear()
        first_eigenpair(interval16, params)
        assert steps[0] == "quadratic form" and steps.count("quadratic form") == 1

    def test_invariants(self, interval16):
        for p in (1.5, 2.0, 3.0):
            params = FracParams(s=0.45, p=p)
            pair = first_eigenpair(interval16, params)
            pair.validate(params, rtol=1e-8)
            assert abs(lp_norm(pair.eigenfunction, p) - 1.0) <= 1e-12
            assert pair.eigenfunction.omega_values.min() > 0.0
            lams = [row[0] for row in pair.trace]
            assert all(b <= a * (1 + 1e-11) for a, b in zip(lams, lams[1:]))

    def test_validate_keeps_to_the_folded_tables(self, monkeypatch):
        # box16: the folded 36 x 256 rows fit a budget that refuses the
        # plain 256 x 256 table, so the solve and its validation both fold
        dom = build_domain(box_spec(1 / 16), t=4.0)
        monkeypatch.setattr(domain_mod, "_DENSE_PAIR_BYTES", 8 * 36 * 256)
        pair = first_eigenpair(dom, P2)
        assert pair.group_order == 8
        assert pair.lam == pytest.approx(37.861173568677145, rel=1e-12)
        pair.validate(P2)
        # a function that is not constant on the orbits takes the plain kernel
        values = pair.eigenfunction.omega_values.copy()
        values[0] *= 1.0 + 1e-12
        skewed = dataclasses.replace(pair, eigenfunction=GridFunction.from_omega(dom, values))
        with pytest.raises(ValueError, match="energy kernel's Omega x Omega table"):
            skewed.validate(P2)

    def test_poincare_lower_bound(self, union16):
        params = FracParams(s=0.6, p=1.5)
        pair = first_eigenpair(union16, params)
        assert pair.lam * poincare_constant(union16, params) >= 1.0

    def test_disconnected_eigenfunction_positive_everywhere(self, union16):
        # the nonlocal coupling keeps the ground state signless across
        # components even though Omega is disconnected
        params = FracParams(s=0.5, p=2.0)
        pair = first_eigenpair(union16, params)
        left = pair.eigenfunction.values[(union16.cells[:, 0] < 1.5) & union16.omega_mask]
        right = pair.eigenfunction.values[(union16.cells[:, 0] > 1.5) & union16.omega_mask]
        assert left.min() > 0 and right.min() > 0
        oracle = p2_oracle(union16, params)
        assert pair.lam == pytest.approx(oracle.lam, rel=1e-6)

    def test_ball_domain_2d(self):
        from fraceig import DomainSpec

        spec = DomainSpec(dim=2, h=1 / 6, shape={"type": "ball", "center": [0.0, 0.0], "radius": 0.5})
        dom = build_domain(spec, t=4.0)
        params = FracParams(s=0.5, p=2.0)
        pair = first_eigenpair(dom, params)
        oracle = p2_oracle(dom, params)
        assert pair.lam == pytest.approx(oracle.lam, rel=1e-6)
        assert pair.lam * poincare_constant(dom, params) >= 1.0

    def test_nondefault_truncation(self):
        dom3 = build_domain(interval_spec(1 / 32), t=3.0)
        params = FracParams(s=0.5, p=2.0)
        pair = first_eigenpair(dom3, params)
        oracle = p2_oracle(dom3, params)
        assert pair.lam == pytest.approx(oracle.lam, rel=1e-6)
        # tighter truncation keeps fewer far pairs, so the energy infimum drops
        dom4 = build_domain(interval_spec(1 / 32), t=4.0)
        lam4 = first_eigenpair(dom4, FracParams(s=0.5, p=2.0)).lam
        assert pair.lam < lam4

    def test_nonconvergence_carries_partial(self, interval16):
        cfg = SolverConfig(tol=1e-30, max_iter_outer=2)
        with pytest.raises(ConvergenceError, match="budget spent") as exc_info:
            first_eigenpair(interval16, FracParams(s=0.5, p=3.0), cfg)
        partial = exc_info.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.stop_reason == "budget"
        assert len(partial.trace) >= 2

    def test_fixed_point_above_floor_is_stalled(self, interval16):
        # one evaluation per inner solve returns each start unchanged, so
        # the iteration reaches its float fixed point far above the floor
        cfg = SolverConfig(max_iter_inner=1)
        with pytest.raises(ConvergenceError, match="stalled above the float floor") as exc_info:
            first_eigenpair(interval16, FracParams(s=0.5, p=3.0), cfg)
        partial = exc_info.value.partial
        assert partial.stop_reason == "stalled"
        assert not partial.converged and partial.residual > 1e-3

    def test_converged_meets_tol_or_computed_floor(self, interval16, box8):
        tol = SolverConfig().tol
        for dom, p in ((interval16, 1.5), (interval16, 2.0), (interval16, 3.0), (box8, 1.5)):
            params = FracParams(s=0.5, p=p)
            pair = first_eigenpair(dom, params)
            assert pair.converged
            if pair.residual <= tol:
                assert pair.stop_reason == "tol"
                continue
            # the bordered Newton endgame meets tol at p >= 2
            assert p < 2.0
            assert pair.stop_reason == "float floor"
            kern = energy_kernel(dom, params)
            u = pair.eigenfunction.omega_values
            b_norm = pair.lam * float(np.linalg.norm(phi_p(u, p))) * kern.hn
            assert pair.residual * b_norm <= kern.gradient_floor(u)

    @pytest.mark.parametrize(
        "name, p, lam",
        [
            ("box8", 2.0, 34.71325596075445),
            ("box8", 3.0, 37.532308126688186),
            ("box8", 4.0, 40.27407974219294),
            ("union16", 2.0, 12.322315476290274),
            ("union16", 3.0, 13.354043686010602),
            ("union16", 4.0, 14.65953146762867),
        ],
    )
    def test_newton_endgame_pins(self, name, p, lam, request):
        # values of the inverse-power endgame, which stopped at residual
        # 5e-8 after 13 to 28 outer iterations
        dom = request.getfixturevalue(name)
        params = FracParams(s=0.5, p=p)
        pair = first_eigenpair(dom, params)
        assert pair.stop_reason == "tol"
        assert pair.iterations <= 10
        assert pair.lam == pytest.approx(lam, rel=1e-12)
        if p == 2.0:
            assert pair.lam == pytest.approx(p2_oracle(dom, params).lam, rel=1e-13)

    def test_refused_newton_step_falls_back(self, box8, monkeypatch, caplog):
        # a Newton step that raises lambda is discarded for the
        # inverse-power step of the same outer iteration, or ends the
        # solve where the iterate is already at its float floor
        for p in (3.0, 1.5):
            params = FracParams(s=0.5, p=p)
            plain = first_eigenpair(box8, params)
            with monkeypatch.context() as patch:
                patch.setattr(eigen_mod, "_bordered_newton", lambda kern, u, lam, grad: 2.0 * u)
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="fraceig.eigen"):
                    pair = first_eigenpair(box8, params)
            assert pair.converged
            assert pair.lam == pytest.approx(plain.lam, rel=1e-12)
            refused = [r for r in caplog.records if "bordered Newton step refused" in r.getMessage()]
            assert refused and all(r.levelno == logging.DEBUG for r in refused)

    def test_loose_tol_stops_on_tol(self, interval16):
        pair = first_eigenpair(interval16, FracParams(s=0.5, p=3.0), SolverConfig(tol=1e-6))
        assert pair.converged and pair.stop_reason == "tol"
        assert pair.residual <= 1e-6

    def test_restart_from_eigenfunction_stops_at_once(self, interval16, box8):
        # a restart at the eigenfunction is already at its floor: it stops
        # within one outer step and never raises lambda
        for dom, p in ((interval16, 3.0), (box8, 1.5)):
            params = FracParams(s=0.5, p=p)
            first = first_eigenpair(dom, params)
            again = first_eigenpair(dom, params, start=first.eigenfunction)
            assert again.converged and again.iterations <= 1
            assert again.lam <= first.lam * (1.0 + 1e-12)

    def test_empty_start_rejected(self, interval16):
        zero = GridFunction.from_omega(interval16, np.zeros(interval16.n_omega))
        with pytest.raises(ValueError, match="zero"):
            first_eigenpair(interval16, P2, start=zero)


class TestClarksonGap:
    def test_equal_arguments(self, interval16):
        rng = np.random.default_rng(24)
        u = random_function(interval16, rng)
        for p in (3.0, 1.5):
            params = FracParams(s=0.5, p=p)
            lhs, rhs = clarkson_gap(u, u, params)
            e = gagliardo_energy(u, params)
            expect = e if p >= 2 else e ** (1.0 / (p - 1.0))
            assert lhs == pytest.approx(expect, rel=1e-12)
            assert rhs == pytest.approx(expect, rel=1e-12)

    def test_opposite_arguments(self, interval16):
        rng = np.random.default_rng(25)
        u = random_function(interval16, rng)
        params = FracParams(s=0.5, p=3.0)
        lhs, rhs = clarkson_gap(u, -1.0 * u, params)
        e = gagliardo_energy(u, params)
        assert lhs == pytest.approx(e, rel=1e-12)
        assert rhs == pytest.approx(e, rel=1e-12)

    def test_random_pairs_hold(self, interval16):
        rng = np.random.default_rng(26)
        for p in (3.0, 1.5):
            params = FracParams(s=0.5, p=p)
            for _ in range(25):
                u, v = random_function(interval16, rng), random_function(interval16, rng)
                lhs, rhs = clarkson_gap(u, v, params)
                assert lhs <= rhs * (1 + 1e-12)

    def test_host_mismatch(self, interval16, interval8):
        with pytest.raises(ValueError, match="hosts"):
            clarkson_gap(GridFunction.indicator(interval16), GridFunction.indicator(interval8), P2)


class TestSeminormDistance:
    def test_identity(self, interval16):
        rng = np.random.default_rng(27)
        u = random_function(interval16, rng)
        assert seminorm_distance(u, u, P2) == 0.0

    def test_symmetry(self, interval16):
        rng = np.random.default_rng(28)
        u, v = random_function(interval16, rng), random_function(interval16, rng)
        assert seminorm_distance(u, v, P2) == pytest.approx(seminorm_distance(v, u, P2), rel=1e-13)

    def test_triangle_inequality(self, interval16):
        rng = np.random.default_rng(29)
        for p in (1.5, 2.0, 3.0):
            params = FracParams(s=0.5, p=p)
            for _ in range(10):
                u = random_function(interval16, rng)
                v = random_function(interval16, rng)
                w = random_function(interval16, rng)
                duw = seminorm_distance(u, w, params)
                duv = seminorm_distance(u, v, params)
                dvw = seminorm_distance(v, w, params)
                assert duw <= (duv + dvw) * (1 + 1e-12)
