import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraceig import (
    DirichletProblem,
    DomainSpec,
    FracParams,
    GridDomain,
    GridFunction,
    PairFunction,
    apply_operator,
    build_domain,
    dilate,
    equivalence_check,
    first_eigenpair,
    gagliardo_energy,
    lp_norm,
    nonlocal_divergence,
    nonlocal_gradient,
    poincare_constant,
    rayleigh_quotient,
    solve_dirichlet,
)
import fraceig.domain as domain_mod
from fraceig.core import energy_kernel, phi_p

from _oracles import (
    adjoint_both_sides,
    energy_double_sum,
    hessian_loops,
    kernel_tables,
    lp_sum,
    operator_double_sum,
    pair_divergence,
    pair_gradient,
)
from conftest import box_spec, interval_spec, random_function, union_spec

PARAMS = FracParams(s=0.5, p=2.0)


@pytest.fixture(scope="module")
def two_cell_domain():
    # two flagged cells at unit spacing: interval (0,2) with h = 1
    return build_domain(interval_spec(1.0, a=0.0, b=2.0), t=4.0)


@pytest.fixture(scope="module")
def union2d():
    # two unit squares half a unit apart, on a non-dyadic cell width
    parts = [
        {"type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]},
        {"type": "box", "min": [1.5, 0.0], "max": [2.5, 1.0]},
    ]
    return build_domain(DomainSpec(dim=2, h=1 / 6, shape={"type": "union", "parts": parts}), t=4.0)


def oracle_rows(dom):
    """Every cell on small grids; on larger ones, a spread of Omega and
    exterior rows that keeps the loop oracles fast."""
    if dom.n_cells <= 64:
        return np.arange(dom.n_cells)
    return np.union1d(dom.omega_indices[::4], np.arange(0, dom.n_cells, dom.n_cells // 32))


class TestKernelTables:
    @pytest.mark.parametrize(
        "name, s, p", [("interval8", 0.5, 2.0), ("interval8", 0.3, 1.5), ("box8", 0.5, 2.0), ("union2d", 0.3, 1.5)]
    )
    def test_matches_loop_oracle(self, name, s, p, request):
        dom = request.getfixturevalue(name)
        kern = energy_kernel(dom, FracParams(s=s, p=p))
        k_oo, k_out = kernel_tables(dom.cells, dom.omega_mask, dom.dim, s, p)
        np.testing.assert_allclose(kern.K_oo, k_oo, rtol=1e-13, atol=0)
        np.testing.assert_allclose(kern.k_out, k_out, rtol=1e-13, atol=0)

    def test_dilation_scales_tables(self, box8):
        params = FracParams(s=0.4, p=2.5)
        base = energy_kernel(box8, params)
        for c in (3.0, 0.7):
            scaled = energy_kernel(dilate(box8, c), params)
            factor = c ** -base.exponent
            np.testing.assert_allclose(scaled.K_oo, factor * base.K_oo, rtol=1e-14, atol=0)
            np.testing.assert_allclose(scaled.k_out, factor * base.k_out, rtol=1e-14, atol=0)


def test_dense_pairs_refused_before_allocation():
    # 25,276 ball cells: one dense pair array would take 5.1 GB
    dom = build_domain(box_spec(1 / 32), t=4.0)
    with pytest.raises(ValueError, match="the nonlocal gradient would be a dense "):
        nonlocal_gradient(GridFunction.indicator(dom), PARAMS)
    with pytest.raises(ValueError, match="a pair function would be a dense "):
        PairFunction(np.zeros((1, 1)), dom)
    # 9,000 free cells: the energy kernel's Omega x Omega table would take 618 MiB
    dom = build_domain(interval_spec(1 / 9000), t=4.0)
    with pytest.raises(ValueError, match="energy kernel's Omega x Omega table would be a dense "):
        energy_kernel(dom, PARAMS)


def test_pair_fields_refuse_before_any_square_allocation(box8, monkeypatch):
    # 1,500 ball cells: an 18 MB table, refused by a budget one byte short
    m = box8.n_cells
    rng = np.random.default_rng(23)
    u = random_function(box8, rng)
    phi = PairFunction(rng.standard_normal((m, m)), box8)
    monkeypatch.setattr(domain_mod, "_DENSE_PAIR_BYTES", 8 * m * m - 1)
    params = FracParams(s=0.3, p=1.7)  # a fresh kernel, with no table yet
    for call, arg, name in ((nonlocal_gradient, u, "gradient"), (nonlocal_divergence, phi, "divergence")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"the nonlocal {name} would be a dense "):
                call(arg, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m // 10


class TestGagliardoEnergy:
    def test_zero_function(self, interval16):
        assert gagliardo_energy(GridFunction.from_omega(interval16, np.zeros(interval16.n_omega)), PARAMS) == 0.0

    def test_p_homogeneity(self, interval16):
        rng = np.random.default_rng(1)
        u = random_function(interval16, rng)
        for p in (1.5, 2.0, 3.0):
            params = FracParams(s=0.4, p=p)
            e = gagliardo_energy(u, params)
            assert gagliardo_energy(2.0 * u, params) == pytest.approx(2.0**p * e, rel=1e-13)

    def test_two_cell_hand_value(self, two_cell_domain):
        # neighbours of the u=1 cell sit at distances 1,1,2,2,3,3,4:
        # E = 2 * (2 + 1/2 + 2/9 + 1/16) = 401/72
        dom = two_cell_domain
        values = np.zeros(dom.n_cells)
        values[dom.omega_indices[0]] = 1.0
        u = GridFunction(values, dom)
        e = gagliardo_energy(u, PARAMS)
        assert e == pytest.approx(401 / 72, rel=1e-14)
        oracle = energy_double_sum(dom.cells, values, dom.h, 1, 0.5, 2.0)
        assert e == pytest.approx(oracle, rel=1e-13)

    def test_double_sum_oracle_random(self, interval8):
        rng = np.random.default_rng(2)
        u = random_function(interval8, rng)
        for s, p in ((0.3, 1.5), (0.5, 2.0), (0.7, 3.0)):
            params = FracParams(s=s, p=p)
            oracle = energy_double_sum(interval8.cells, u.values, interval8.h, 1, s, p)
            assert gagliardo_energy(u, params) == pytest.approx(oracle, rel=1e-12)

    def test_kernel_s_monotonicity(self, interval16):
        # every active pair distance is below 5R/2, so the energies at two
        # orders compare pointwise through that weight
        rng = np.random.default_rng(4)
        u = random_function(interval16, rng)
        r_weight = 2.5 * interval16.diameter_R
        for p in (1.5, 2.0, 3.0):
            for s, k in ((0.2, 0.6), (0.45, 0.5)):
                e_s = gagliardo_energy(u, FracParams(s=s, p=p))
                e_k = gagliardo_energy(u, FracParams(s=k, p=p))
                assert e_s <= r_weight ** ((k - s) * p) * e_k * (1 + 1e-12)

    def test_energy_drops_under_abs(self, interval16):
        rng = np.random.default_rng(5)
        u = random_function(interval16, rng)
        assert gagliardo_energy(abs(u), PARAMS) <= gagliardo_energy(u, PARAMS) * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3))
def test_energy_scaling_property(c):
    dom = build_domain(interval_spec(1 / 4), t=4.0)
    u = GridFunction.from_omega(dom, np.sin(np.arange(dom.n_omega) + 1.0))
    params = FracParams(s=0.6, p=2.5)
    base = gagliardo_energy(u, params)
    assert gagliardo_energy(c * u, params) == pytest.approx(abs(c) ** 2.5 * base, rel=1e-11)


class TestLpNorm:
    def test_zero(self, interval16):
        assert lp_norm(GridFunction.from_omega(interval16, np.zeros(interval16.n_omega)), 2.0) == 0.0

    def test_indicator_unit_measure(self, interval16):
        # Omega = (0,1) has unit measure: 16 cells of width 1/16
        assert lp_norm(GridFunction.indicator(interval16), 3.0) == pytest.approx(1.0, rel=1e-14)

    def test_oracle(self, interval16):
        rng = np.random.default_rng(6)
        u = random_function(interval16, rng)
        for p in (1.0, 1.5, 2.0, 4.0):
            assert lp_norm(u, p) == pytest.approx(
                lp_sum(u.values, interval16.omega_mask, interval16.h, 1, p), rel=1e-14
            )

    def test_p_below_one(self, interval16):
        with pytest.raises(ValueError):
            lp_norm(GridFunction.indicator(interval16), 0.5)


class TestRayleighQuotient:
    def test_scale_invariance(self, interval16):
        rng = np.random.default_rng(7)
        u = random_function(interval16, rng)
        q = rayleigh_quotient(u, PARAMS)
        for c in (2.0, -3.5, 0.125):
            assert rayleigh_quotient(c * u, PARAMS) == pytest.approx(q, rel=1e-12)

    def test_poincare_lower_bound(self, interval16):
        rng = np.random.default_rng(8)
        bound = 1.0 / poincare_constant(interval16, PARAMS)
        for _ in range(20):
            u = random_function(interval16, rng)
            assert rayleigh_quotient(u, PARAMS) >= bound

    def test_normalized_equals_energy(self, interval16):
        rng = np.random.default_rng(9)
        u = random_function(interval16, rng)
        u = u / lp_norm(u, 2.0)
        assert rayleigh_quotient(u, PARAMS) == pytest.approx(gagliardo_energy(u, PARAMS), rel=1e-13)

    def test_zero_function_rejected(self, interval16):
        with pytest.raises(ValueError, match="zero function"):
            rayleigh_quotient(GridFunction.from_omega(interval16, np.zeros(interval16.n_omega)), PARAMS)


class TestApplyOperator:
    def test_zero(self, interval16):
        g = apply_operator(GridFunction.from_omega(interval16, np.zeros(interval16.n_omega)), PARAMS)
        assert np.all(g.values == 0.0)

    def test_euler_identity(self, interval16):
        rng = np.random.default_rng(10)
        u = random_function(interval16, rng)
        for p in (1.5, 2.0, 3.0):
            params = FracParams(s=0.5, p=p)
            g = apply_operator(u, params)
            assert float(np.dot(u.values, g.values)) == pytest.approx(
                p * gagliardo_energy(u, params), rel=1e-12
            )

    def test_matches_double_sum_oracle(self, interval8):
        rng = np.random.default_rng(11)
        u = random_function(interval8, rng)
        for s, p in ((0.5, 3.0), (0.3, 1.5)):
            g = apply_operator(u, FracParams(s=s, p=p))
            oracle = operator_double_sum(
                interval8.cells, u.values, interval8.omega_mask, interval8.h, 1, s, p
            )
            np.testing.assert_allclose(g.values, oracle, rtol=1e-12, atol=1e-14)

    def test_finite_differences(self, interval8):
        rng = np.random.default_rng(12)
        u = random_function(interval8, rng)
        params = FracParams(s=0.5, p=3.0)
        g = apply_operator(u, params)
        eps = 1e-6
        for i in interval8.omega_indices[:4]:
            up, um = u.values.copy(), u.values.copy()
            up[i] += eps
            um[i] -= eps
            fd = (
                gagliardo_energy(GridFunction(up, interval8), params)
                - gagliardo_energy(GridFunction(um, interval8), params)
            ) / (2 * eps)
            assert g.values[i] == pytest.approx(fd, rel=1e-5)

    def test_vanishes_outside_omega(self, interval16):
        rng = np.random.default_rng(13)
        g = apply_operator(random_function(interval16, rng), PARAMS)
        assert np.all(g.values[~interval16.omega_mask] == 0.0)


class TestEnergyGrad:
    @pytest.mark.parametrize("name", ["interval8", "box8"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_loop_oracles(self, name, p, request):
        dom = request.getfixturevalue(name)
        rng = np.random.default_rng(17)
        u_om = rng.standard_normal(dom.n_omega)
        u_om[3] = u_om[1]  # one exactly tied pair
        assert u_om.min() < 0.0 < u_om.max()  # pair differences of both signs
        u = GridFunction.from_omega(dom, u_om)
        s = 0.4
        energy, grad = energy_kernel(dom, FracParams(s=s, p=p)).energy_grad(u_om)
        e_oracle = energy_double_sum(dom.cells, u.values, dom.h, dom.dim, s, p)
        g_oracle = operator_double_sum(dom.cells, u.values, dom.omega_mask, dom.h, dom.dim, s, p)
        assert energy == pytest.approx(e_oracle, rel=1e-13)
        np.testing.assert_allclose(grad, g_oracle[dom.omega_indices], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_is_the_unfused_sum_bit_for_bit(self, interval256, p):
        # more free cells than one reduction block
        kern = energy_kernel(interval256, FracParams(s=0.75, p=p))
        u_om = np.random.default_rng(18).standard_normal(interval256.n_omega)
        u_om[5] = u_om[200]
        z = u_om[:, None] - u_om[None, :]
        rows = np.sum(kern.K_oo * (np.abs(z) ** (p - 1.0) * np.sign(z)), axis=1)
        rows += np.abs(u_om) ** (p - 1.0) * np.sign(u_om) * kern.k_out
        expected = 2.0 * p * kern.h2n * rows
        energy, grad = kern.energy_grad(u_om)
        assert grad.tobytes() == expected.tobytes()
        assert kern.grad_omega(u_om).tobytes() == grad.tobytes()
        assert kern.energy(u_om) == energy


class TestHessian:
    @pytest.mark.parametrize("name", ["interval8", "box8"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_loop_oracle(self, name, p, request):
        dom = request.getfixturevalue(name)
        rng = np.random.default_rng(14)
        u_om = rng.standard_normal(dom.n_omega)
        u_om[3] = u_om[1]  # one exactly tied pair meets the floor
        u = GridFunction.from_omega(dom, u_om)
        s = 0.4
        hess = energy_kernel(dom, FracParams(s=s, p=p)).hessian_omega(u_om)
        oracle = hessian_loops(dom.cells, u.values, dom.omega_mask, dom.h, dom.dim, s, p)
        np.testing.assert_allclose(hess, oracle, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_writes_into_out_view(self, box8, p):
        rng = np.random.default_rng(15)
        w = rng.standard_normal(box8.n_omega)
        w[3] = w[1]
        kern = energy_kernel(box8, FracParams(s=0.4, p=p))
        n = box8.n_omega
        buf = np.full((n + 1, n + 1), np.nan)
        view = buf[:n, :n]
        assert kern.hessian_omega(w, out=view) is view
        assert view.tobytes() == kern.hessian_omega(w).tobytes()
        assert np.isnan(buf[n]).all() and np.isnan(buf[:, n]).all()

    def test_quad_matrix_is_p2_hessian(self, box8):
        w = np.random.default_rng(16).standard_normal(box8.n_omega)
        kern = energy_kernel(box8, FracParams(s=0.4, p=2.0))
        assert kern.quad_matrix.tobytes() == kern.hessian_omega(w).tobytes()

    def test_kernel_keeps_no_square_table_but_k_oo(self, box8):
        params = FracParams(s=0.45, p=1.5)
        first_eigenpair(box8, params)
        solve_dirichlet(DirichletProblem(box8, params, np.ones(box8.n_omega)))
        kern = energy_kernel(box8, params)
        big = [
            name for name, value in vars(kern).items()
            if isinstance(value, np.ndarray) and value.size > box8.n_omega
        ]
        assert big == ["K_oo"]


class TestPairOperations:
    def test_gradient_zero(self, interval8):
        u = GridFunction.from_omega(interval8, np.zeros(interval8.n_omega))
        assert np.all(nonlocal_gradient(u, PARAMS).values == 0.0)

    def test_gradient_antisymmetry(self, interval8):
        rng = np.random.default_rng(14)
        g = nonlocal_gradient(random_function(interval8, rng), PARAMS)
        np.testing.assert_allclose(g.values, -g.values.T, atol=1e-15)

    def test_gradient_oracle(self, interval8, box8):
        rng = np.random.default_rng(15)
        params = FracParams(s=0.4, p=2.5)
        for dom in (interval8, box8):
            u = random_function(dom, rng)
            rows = oracle_rows(dom)
            got = nonlocal_gradient(u, params).values[rows]
            want = pair_gradient(dom.cells, u.values, dom.dim, 0.4, 2.5, rows)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_power_sum_recovers_energy(self, interval8):
        rng = np.random.default_rng(16)
        u = random_function(interval8, rng)
        for s, p in ((0.5, 2.0), (0.7, 1.5)):
            params = FracParams(s=s, p=p)
            assert nonlocal_gradient(u, params).power_sum(p) == pytest.approx(
                gagliardo_energy(u, params), rel=1e-12
            )

    def test_divergence_of_symmetric_is_zero(self, interval8):
        rng = np.random.default_rng(17)
        sym = rng.standard_normal((interval8.n_cells, interval8.n_cells))
        sym = sym + sym.T
        phi = PairFunction(sym, interval8)
        assert np.allclose(nonlocal_divergence(phi, PARAMS), 0.0, atol=1e-12)

    def test_divergence_linear(self, interval8):
        rng = np.random.default_rng(18)
        a = PairFunction(rng.standard_normal((interval8.n_cells,) * 2), interval8)
        b = PairFunction(rng.standard_normal((interval8.n_cells,) * 2), interval8)
        combo = PairFunction(2.0 * a.values - 0.5 * b.values, interval8)
        np.testing.assert_allclose(
            nonlocal_divergence(combo, PARAMS),
            2.0 * nonlocal_divergence(a, PARAMS) - 0.5 * nonlocal_divergence(b, PARAMS),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_divergence_oracle(self, interval8, box8):
        rng = np.random.default_rng(19)
        for dom in (interval8, box8):
            phi = PairFunction(rng.standard_normal((dom.n_cells,) * 2), dom)
            rows = oracle_rows(dom)
            got = nonlocal_divergence(phi, PARAMS)[rows]
            want = pair_divergence(dom.cells, phi.values, dom.h, dom.dim, 0.5, 2.0, rows)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_adjoint_identity(self, interval8):
        rng = np.random.default_rng(20)
        hn = interval8.h
        for _ in range(10):
            u = random_function(interval8, rng)
            phi = PairFunction(rng.standard_normal((interval8.n_cells,) * 2), interval8)
            div = nonlocal_divergence(phi, PARAMS)
            lhs = float(np.sum(u.values * div)) * hn
            rhs = float(np.sum(phi.values * nonlocal_gradient(u, PARAMS).values)) * hn * hn
            assert lhs == pytest.approx(rhs, rel=1e-12)
            o_lhs, o_rhs = adjoint_both_sides(
                interval8.cells, interval8.omega_mask, u.values, phi.values, hn, 1, 0.5, 2.0
            )
            assert lhs == pytest.approx(o_lhs, rel=1e-11)
            assert rhs == pytest.approx(o_rhs, rel=1e-11)


class TestPairFieldWeight:
    """The M x M weight of the pair fields is one table per (grid, s, p)."""

    SPECS = {
        "int16": interval_spec(1 / 16),
        "union16": union_spec(1 / 16),
        "box8": box_spec(1 / 8),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_fields_are_the_fresh_formulas_bit_for_bit(self, name):
        dom = build_domain(self.SPECS[name], t=4.0)
        params = FracParams(s=0.4, p=1.5)
        cells = np.arange(dom.n_cells)
        w = dom.pair_power(cells, cells, -(dom.dim / params.p + params.s), "w")
        rng = np.random.default_rng(21)
        for _ in range(3):  # the first call builds the table, the others reuse it
            u = random_function(dom, rng)
            phi = PairFunction(rng.standard_normal((dom.n_cells,) * 2), dom)
            want_grad = (u.values[:, None] - u.values[None, :]) * w
            want_div = np.sum((phi.values - phi.values.T) * w, axis=1) * dom.h**dom.dim
            assert nonlocal_gradient(u, params).values.tobytes() == want_grad.tobytes()
            assert nonlocal_divergence(phi, params).tobytes() == want_div.tobytes()

    def test_table_is_gathered_once_per_grid(self, monkeypatch):
        dom = build_domain(interval_spec(1 / 16), t=4.0)
        shapes = []
        pair_power = GridDomain.pair_power

        def counting(self, rows, cols, a, what):
            shapes.append((len(rows), len(cols)))
            return pair_power(self, rows, cols, a, what)

        monkeypatch.setattr(GridDomain, "pair_power", counting)
        rng = np.random.default_rng(22)
        for _ in range(3):
            nonlocal_gradient(random_function(dom, rng), PARAMS)
            nonlocal_divergence(PairFunction(rng.standard_normal((dom.n_cells,) * 2), dom), PARAMS)
        m = dom.n_cells
        assert shapes.count((m, m)) == 1
        nonlocal_gradient(random_function(dom, rng), FracParams(s=0.6, p=2.0))
        assert shapes.count((m, m)) == 2  # another (s, p), another table


class TestGridFunction:
    def test_rejects_values_outside_omega(self, interval16):
        bad = np.ones(interval16.n_cells)
        with pytest.raises(ValueError, match="vanish outside"):
            GridFunction(bad, interval16)

    def test_rejects_nonfinite(self, interval16):
        vals = np.zeros(interval16.n_cells)
        vals[interval16.omega_indices[0]] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridFunction(vals, interval16)

    def test_rejects_bad_shape(self, interval16):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(3), interval16)

    def test_arithmetic_keeps_constraint(self, interval16):
        rng = np.random.default_rng(21)
        u, v = random_function(interval16, rng), random_function(interval16, rng)
        w = (u + v) / 2.0 - 0.25 * u
        assert np.all(w.values[~interval16.omega_mask] == 0.0)

    def test_host_mismatch(self, interval16, interval8):
        with pytest.raises(ValueError, match="hosts"):
            GridFunction.indicator(interval16) + GridFunction.indicator(interval8)


class TestPairFunction:
    def test_diagonal_cleared(self, interval8):
        vals = np.ones((interval8.n_cells,) * 2)
        phi = PairFunction(vals, interval8)
        assert np.all(np.diagonal(phi.values) == 0.0)

    def test_rejects_bad_shape(self, interval8):
        with pytest.raises(ValueError):
            PairFunction(np.ones((3, 3)), interval8)


def test_phi_p_odd_extension():
    z = np.array([-2.0, -1e-12, 0.0, 1e-12, 2.0])
    for p in (1.2, 1.5, 2.0, 3.0):
        out = phi_p(z, p)
        assert out[2] == 0.0
        np.testing.assert_allclose(out, -phi_p(-z, p), atol=0)


def test_kernel_cache_reuse(interval16):
    k1 = energy_kernel(interval16, PARAMS)
    k2 = energy_kernel(interval16, FracParams(s=0.5, p=2.0))
    assert k1 is k2
    k3 = energy_kernel(interval16, FracParams(s=0.6, p=2.0))
    assert k3 is not k1


def test_tables_die_with_their_grid():
    # a module-level registry once kept every grid alive: each cached
    # kernel pointed back at its own weak key
    dom = build_domain(interval_spec(1 / 32), t=4.0)
    params = FracParams(s=0.5, p=1.5)
    u = GridFunction.indicator(dom)
    assert energy_kernel(dom, params, fold=True) is not energy_kernel(dom, params)
    nonlocal_gradient(u, params)
    equivalence_check(u, params)
    ref = weakref.ref(dom)
    del dom, u
    gc.collect()
    assert ref() is None
