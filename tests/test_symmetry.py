"""The grid's lattice symmetry group and the kernel folded over its orbits."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraceig.domain as domain_mod
from fraceig import (
    FracParams,
    GridFunction,
    build_domain,
    dyadic_shifts,
    first_eigenpair,
    gagliardo_energy,
    lp_norm,
    rayleigh_quotient,
    seminorm_distance,
    translation_quotient_check,
)
from fraceig.core import EnergyKernel, energy_kernel

from _oracles import energy_double_sum, hessian_loops, lattice_symmetry_orbits, operator_double_sum
from conftest import box_spec, mask_spec


def expansion(dom) -> np.ndarray:
    """P with u = P a: one column per orbit, one row per Omega cell."""
    orbit = dom.symmetry.orbit
    out = np.zeros((len(orbit), len(dom.symmetry.reps)))
    out[np.arange(len(orbit)), orbit] = 1.0
    return out


@pytest.mark.parametrize(
    "name, order, orbits",
    [("box8", 8, 10), ("interval64", 2, 32), ("union16", 2, 16), ("asym64", 1, 96), ("holed6", 1, 35)],
)
def test_group_order(name, order, orbits, request):
    dom = request.getfixturevalue(name)
    sym = dom.symmetry
    assert sym.order == order == len(dom.lattice_symmetries())
    assert len(sym.reps) == orbits
    assert sym.mult.sum() == dom.n_omega
    assert_matches_coordinate_oracle(dom)


def assert_matches_coordinate_oracle(dom):
    """The maps and orbits equal those of mapping every cell's coordinates."""
    maps, *sym = lattice_symmetry_orbits(dom.coords, dom.omega_mask)
    for got, want in zip(dom.symmetry, sym):
        np.testing.assert_array_equal(got, want, strict=True)
    assert [(a.tolist(), c.tolist()) for a, c in dom.lattice_symmetries()] == [
        (a.tolist(), c.tolist()) for a, c in maps
    ]


@pytest.mark.parametrize("name", ["box8", "interval16", "union16", "holed6"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_folded_kernel_matches_projected_loop_oracles(name, p, request):
    dom = request.getfixturevalue(name)
    s = 0.4
    big = expansion(dom)
    a = np.random.default_rng(31).standard_normal(big.shape[1])
    u = GridFunction.from_omega(dom, big @ a)
    kern = energy_kernel(dom, FracParams(s=s, p=p), fold=True)
    energy, grad = kern.energy_grad(a)
    e_oracle = energy_double_sum(dom.cells, u.values, dom.h, dom.dim, s, p)
    g_oracle = operator_double_sum(dom.cells, u.values, dom.omega_mask, dom.h, dom.dim, s, p)
    # pairs inside an orbit are exact ties; P^T H P cancels their floored
    # weights exactly, but below p = 2 those weights are about 1e7 times the
    # others, so the oracle leaves them out rather than cancel them in float
    labels = np.full(dom.n_cells, -1)
    labels[dom.omega_indices] = dom.symmetry.orbit
    h_oracle = hessian_loops(dom.cells, u.values, dom.omega_mask, dom.h, dom.dim, s, p,
                             labels=labels if p < 2.0 else None)
    assert energy == pytest.approx(e_oracle, rel=1e-13)
    np.testing.assert_allclose(grad, big.T @ g_oracle[dom.omega_indices], rtol=1e-13, atol=0)
    np.testing.assert_allclose(kern.hessian_omega(a), big.T @ h_oracle @ big, rtol=1e-13, atol=0)


def test_folded_table_is_exactly_symmetric_with_zero_diagonal(box8):
    kern = EnergyKernel(box8, FracParams(s=0.3, p=1.5), fold=True)
    assert kern.K_oo.shape == (10, 10)
    assert np.array_equal(kern.K_oo, kern.K_oo.T)
    assert np.all(np.diagonal(kern.K_oo) == 0.0)
    assert kern.mass.sum() == pytest.approx(1.0, rel=1e-15)  # |Omega| = 1


def test_trivial_group_keeps_the_plain_tables_bit_for_bit(asym64):
    params = FracParams(s=0.5, p=1.5)
    folded = EnergyKernel(asym64, params, fold=True)
    plain = EnergyKernel(asym64, params)
    om, exponent = asym64.omega_indices, plain.exponent
    assert folded.K_oo.tobytes() == plain.K_oo.tobytes()
    assert folded.k_out.tobytes() == plain.k_out.tobytes()
    assert plain.K_oo.tobytes() == asym64.pair_power(om, om, -exponent, "K").tobytes()
    assert plain.k_out.tobytes() == asym64.pair_power_sums(om, asym64.other_indices, -exponent).tobytes()
    assert energy_kernel(asym64, params, fold=True) is energy_kernel(asym64, params)


def test_dense_guard_applies_to_the_representative_rows(box8, monkeypatch):
    # box8 has 10 orbits of 64 free cells: the folded build streams the
    # 10 x 64 representative rows in chunks and stores only 10 x 10
    monkeypatch.setattr(domain_mod, "_DENSE_PAIR_BYTES", 8 * 10 * 64)
    params = FracParams(s=0.5, p=2.0)
    assert EnergyKernel(box8, params, fold=True).K_oo.shape == (10, 10)
    with pytest.raises(ValueError, match="energy kernel's Omega x Omega table"):
        EnergyKernel(box8, params)
    monkeypatch.setattr(domain_mod, "_DENSE_PAIR_BYTES", 8 * 10 * 10 - 1)
    with pytest.raises(ValueError, match="dense 10 x 10 pair array"):
        EnergyKernel(box8, params, fold=True)


def test_folded_build_tables_cover_only_the_offsets_read(monkeypatch):
    # box24 (counts 138 x 138): the representative rows and the Omega columns
    # span at most the offsets -23..23 (47 x 47); the exterior sums read the
    # dx >= 0 half of the lattice's offsets (275 x 138), and not its whole
    # 275 x 275 table
    dom = build_domain(box_spec(1 / 24), t=4.0)
    assert dom.counts == (138, 138)
    sizes = []
    build = domain_mod.GridDomain._offset_table

    def recording(self, a, lo, hi):
        table = build(self, a, lo, hi)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(domain_mod.GridDomain, "_offset_table", recording)
    EnergyKernel(dom, FracParams(s=0.5, p=1.5), fold=True)
    assert len(sizes) == 2
    assert sizes[0] <= 47 * 47 and sizes[1] <= 275 * 138


def test_folded_build_holds_no_m_by_n_array():
    # box96: m = 1,176 orbits of n = 9,216 free cells, so an m x n float64
    # array would take 83 MiB; the m x m table takes 11 MiB, and the
    # streamed chunks hold a few arrays of _CHUNK_ENTRIES values each
    dom = build_domain(box_spec(1 / 96), t=4.0)
    m, n = len(dom.symmetry.reps), dom.n_omega
    dom.coords  # cached with the grid
    tracemalloc.start()
    try:
        EnergyKernel(dom, FracParams(s=0.5, p=1.5), fold=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * n


def test_public_energies_of_eigenfunctions_need_no_plain_table(monkeypatch):
    # box16 has 36 orbits of 256 free cells: the budget admits the folded
    # 36 x 256 rows and refuses the plain 256 x 256 table
    params, low = FracParams(s=0.5, p=1.5), FracParams(s=0.4, p=1.5)
    monkeypatch.setattr(domain_mod, "_DENSE_PAIR_BYTES", 8 * 36 * 256)
    dom = build_domain(box_spec(1 / 16), t=4.0)
    u = first_eigenpair(dom, params).eigenfunction
    v = first_eigenpair(dom, low).eigenfunction
    quotient = rayleigh_quotient(u, params)
    distance = seminorm_distance(u, v, low)
    report = translation_quotient_check(u, params, dyadic_shifts(dom))
    with pytest.raises(ValueError, match="Omega x Omega table"):
        energy_kernel(dom, params)
    monkeypatch.undo()

    def plain(f, prm):
        return energy_kernel(dom, prm).energy(f.omega_values)

    assert quotient == pytest.approx(plain(u, params) / lp_norm(u, 1.5) ** 1.5, rel=1e-13)
    assert distance == pytest.approx(plain(u - v, low) ** (1 / 1.5), rel=1e-13)
    assert report.sup_ratio == pytest.approx(max(report.ratios) / plain(u, params), rel=1e-13)


def test_one_cell_off_the_orbits_takes_the_plain_kernel(box8):
    params = FracParams(s=0.5, p=1.5)
    sym = box8.symmetry
    u_om = np.arange(1.0, 11.0)[sym.orbit]  # one value per orbit
    folded = energy_kernel(box8, params, fold=True).energy(u_om[sym.reps])
    assert gagliardo_energy(GridFunction.from_omega(box8, u_om), params) == folded
    u_om[5] += 0.25  # every orbit of box8 has 4 or 8 cells
    plain = energy_kernel(box8, params).energy(u_om)
    assert gagliardo_energy(GridFunction.from_omega(box8, u_om), params) == plain


@st.composite
def masks(draw):
    """Small 1D and 2D masks; half of them are mirrored along an axis or
    the diagonal, so that they have symmetries to find."""
    dim = draw(st.sampled_from([1, 2]))
    shape = (draw(st.integers(2, 12)),) if dim == 1 else (draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    flat = draw(st.lists(st.booleans(), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    cells = np.array(flat).reshape(shape)
    mirror = draw(st.sampled_from(["none", "axis", "diagonal"]))
    if mirror == "axis":
        cells = cells | np.flip(cells, axis=draw(st.integers(0, dim - 1)))
    elif mirror == "diagonal" and dim == 2 and shape[0] == shape[1]:
        cells = cells | cells.T
    return cells


@settings(max_examples=40, deadline=None)
@given(cells=masks(), seed=st.integers(0, 2**32 - 1))
def test_detected_symmetries_hold(cells, seed):
    assume(cells.any())
    try:
        dom = build_domain(mask_spec(cells), t=2.5)
    except ValueError:
        assume(False)  # shapes the grid refuses (e.g. a wide enclosing ball)
    ball = {tuple(c) for c in dom.coords}
    omega = {tuple(c) for c in dom.coords[dom.omega_mask]}
    maps = dom.lattice_symmetries()
    assert np.array_equal(maps[0][0], np.eye(dom.dim)) and not maps[0][1].any()
    images = []
    for a, c in maps:
        assert {tuple(x) for x in dom.coords @ a.T + c} == ball
        image = dom.coords[dom.omega_mask] @ a.T + c
        assert {tuple(x) for x in image} == omega
        images.append(image)

    # the orbits partition Omega: each orbit id holds exactly the images of its cells
    orbit, reps, mult, order = dom.symmetry
    assert order == len(maps)
    position = {tuple(x): k for k, x in enumerate(dom.coords[dom.omega_mask])}
    for k in range(dom.n_omega):
        members = {position[tuple(image[k])] for image in images}
        assert set(np.flatnonzero(orbit == orbit[k])) == members
        assert reps[orbit[k]] == min(members)
    assert np.array_equal(np.bincount(orbit), mult)
    assert_matches_coordinate_oracle(dom)

    # an orbit-constant function has the same energy and L^p norm either way
    a = np.random.default_rng(seed).standard_normal(len(reps))
    u = GridFunction.from_omega(dom, a[orbit])
    for p in (1.5, 3.0):
        params = FracParams(s=0.5, p=p)
        folded = EnergyKernel(dom, params, fold=True)
        assert folded.energy(a) == pytest.approx(EnergyKernel(dom, params).energy(u.omega_values), rel=1e-13)
        norm = float(np.sum(np.abs(a) ** p * folded.mass)) ** (1.0 / p)
        assert norm == pytest.approx(lp_norm(u, p), rel=1e-13)
