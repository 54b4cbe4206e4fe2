import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from becmix.config import parse_config
from becmix.grids import Field, Grid, make_grid, normalize
from firstquant import firstquant_vector
from becmix.manybody import (
    Hamiltonian,
    HamiltonianSpec,
    ManyBodyError,
    ManyBodyState,
    build_basis,
    manybody_energy,
    occupation_states,
    product_state,
    propagate,
    propagate_through,
    random_state,
)
import becmix.manybody as manybody_mod


def _cos_fields(g, amps=(0.6, 0.4, 0.5)):
    L = g.length_per_axis
    x = g.axis_coordinates
    return (Field(g, amps[0] * np.cos(2 * np.pi * x / L)),
            Field(g, amps[1] * np.cos(4 * np.pi * x / L)),
            Field(g, amps[2] * np.cos(2 * np.pi * x / L)))


def _orbitals(g):
    L = g.length_per_axis
    x = g.axis_coordinates
    u = normalize(Field(g, 1 + 0.3 * np.cos(2 * np.pi * x / L)))
    v = normalize(Field(g, 1 + 0.25 * np.cos(4 * np.pi * x / L)))
    return u, v


def test_basis_dimensions():
    assert build_basis(2, 1, 1).dim == 4
    assert build_basis(4, 2, 2).dim == 100
    assert build_basis(12, 3, 3).dim == 132_496


def test_basis_cap_reports_dimension():
    with pytest.raises(ManyBodyError) as err:
        build_basis(16, 4, 4)
    assert "15023376" in str(err.value)


def test_basis_rejects_bad_sizes():
    with pytest.raises(ManyBodyError):
        build_basis(1, 1, 1)
    with pytest.raises(ManyBodyError):
        build_basis(4, 0, 1)


@settings(max_examples=20, deadline=None)
@given(M=st.integers(2, 6), N=st.integers(0, 4))
def test_occupation_enumeration_bijective_and_sorted(M, N):
    # N = 0 has the one all-zero state, and N = -1, the sector a(u) reaches from an
    # N = 1 species' lowered sector, has none
    occs = occupation_states(M, N)
    assert len(occs) == math.comb(M + N - 1, N)
    assert len(set(occs)) == len(occs)
    assert occs == sorted(occs, reverse=True)
    assert all(len(o) == M and min(o) >= 0 and sum(o) == N for o in occs)
    assert occupation_states(M, -1) == []


def test_index_maps_are_mutual_inverses():
    b = build_basis(5, 3, 2)
    for i in range(b.A.dim):
        assert b.A.index[tuple(b.A.occs[i])] == i


def _firstquant_dense_h(grid, spec, N1, N2):
    """Dense mean-field Hamiltonian on the full tensor grid."""
    M = grid.points_per_axis
    h = grid.spacing
    S = np.roll(np.eye(M), 1, axis=1)
    T1 = (2 * np.eye(M) - S - S.T) / h**2
    dim = M ** (N1 + N2)
    H = np.zeros((dim, dim))

    def embed(mat, axis):
        ops = [np.eye(M)] * (N1 + N2)
        ops[axis] = mat
        out = ops[0]
        for o in ops[1:]:
            out = np.kron(out, o)
        return out

    for axis in range(N1 + N2):
        H += embed(T1, axis)

    idx = np.arange(dim)
    coords = np.empty((N1 + N2, dim), dtype=int)
    rem = idx.copy()
    for axis in range(N1 + N2 - 1, -1, -1):
        coords[axis] = rem % M
        rem //= M

    def kernel_on(pair_kernel, i, j):
        return pair_kernel[(coords[i] - coords[j]) % M]

    # the spec holds the kernels unscaled; the mean-field prefactors come in here
    diag = np.zeros(dim)
    for i in range(N1):
        for j in range(i + 1, N1):
            diag += kernel_on(spec.kernel1 / N1, i, j)
    for r in range(N1, N1 + N2):
        for s in range(r + 1, N1 + N2):
            diag += kernel_on(spec.kernel2 / N2, r, s)
    for i in range(N1):
        for r in range(N1, N1 + N2):
            diag += kernel_on(spec.kernel12 / (N1 + N2), i, r)
    return H + np.diag(diag)


def _assert_matches_firstquant(spec, b, rng):
    H = Hamiltonian(spec, b)
    Hfq = _firstquant_dense_h(spec.grid, spec, b.N1, b.N2)
    for _ in range(5):
        st = random_state(b, rng)
        lhs = firstquant_vector(ManyBodyState(b, H.apply(st.psi))).ravel()
        rhs = Hfq @ firstquant_vector(st).ravel()
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("M,N1,N2", [(2, 1, 1), (3, 2, 1), (3, 2, 2)])
def test_hamiltonian_matches_firstquant_dense(M, N1, N2):
    g = Grid(1, M, 2.0)
    spec = HamiltonianSpec.mean_field(*_cos_fields(g, amps=(1.3, 0.7, 0.9)))
    _assert_matches_firstquant(spec, build_basis(M, N1, N2), np.random.default_rng(0))


def test_one_spec_serves_every_ladder_entry():
    # the spec holds the kernels only; each basis brings its own particle numbers
    g = Grid(1, 3, 2.0)
    spec = HamiltonianSpec.mean_field(*_cos_fields(g, amps=(1.3, 0.7, 0.9)))
    rng = np.random.default_rng(6)
    for N1, N2 in ((1, 1), (2, 1), (2, 2)):
        _assert_matches_firstquant(spec, build_basis(3, N1, N2), rng)


def test_hermiticity_on_random_pairs():
    g = Grid(1, 5, 2.0)
    V1, V2, V12 = _cos_fields(g)
    b = build_basis(5, 2, 2)
    H = Hamiltonian(HamiltonianSpec.mean_field(V1, V2, V12), b)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        a, c = random_state(b, rng), random_state(b, rng)
        lhs = np.vdot(a.psi, H.apply(c.psi))
        rhs = np.conj(np.vdot(c.psi, H.apply(a.psi)))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_matrix_free_apply_matches_assembled_matrix():
    # N1 != N2 so that dimA != dimB: a transposed layout cannot pass
    g = Grid(1, 5, 2.0)
    V1, V2, V12 = _cos_fields(g, amps=(1.3, 0.7, 0.9))
    b = build_basis(5, 3, 1)
    assert b.shape == (35, 5)
    H = Hamiltonian(HamiltonianSpec.mean_field(V1, V2, V12), b)
    Hm = H.matrix
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y = random_state(b, rng).psi, random_state(b, rng).psi
        ref = Hm @ x.ravel()
        flat, grid2d = H.apply(x.ravel()), H.apply(x)
        assert flat.shape == (b.dim,) and grid2d.shape == b.shape
        assert np.max(np.abs(flat - ref)) < 1e-12
        # every layout gives the same bits: apply works on a C-ordered copy
        assert np.array_equal(grid2d.ravel(), flat)
        assert np.array_equal(H.apply(np.asfortranarray(x)), grid2d)
        assert abs(np.vdot(x, H.apply(y)) - np.vdot(H.apply(x), y)) < 1e-12


def test_free_hamiltonian_momentum_eigenstate():
    M = 6
    g = Grid(1, M, 3.0)
    zero = Field(g, np.zeros(M))
    b = build_basis(M, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(zero, zero, zero), b)
    h = g.spacing
    k1, k2 = 1, 2
    mode = lambda k: np.exp(2j * np.pi * k * np.arange(M) / M) / np.sqrt(M)
    psi = np.outer(mode(k1), mode(k2))
    stencil_e = lambda k: (2 - 2 * np.cos(2 * np.pi * k / M)) / h**2
    expect = stencil_e(k1) + stencil_e(k2)
    out = H.apply(psi)
    assert np.max(np.abs(out - expect * psi)) < 1e-12


def test_propagate_eigenstate_phase_and_reversal():
    M = 6
    g = Grid(1, M, 3.0)
    zero = Field(g, np.zeros(M))
    b = build_basis(M, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(zero, zero, zero), b)
    mode = lambda k: np.exp(2j * np.pi * k * np.arange(M) / M) / np.sqrt(M)
    psi0 = ManyBodyState(b, np.outer(mode(1), mode(2)))
    h = g.spacing
    E = sum((2 - 2 * np.cos(2 * np.pi * k / M)) / h**2 for k in (1, 2))
    out = propagate(H, psi0, 0.21)
    assert np.max(np.abs(out.psi - np.exp(-1j * E * 0.21) * psi0.psi)) < 1e-12

    rng = np.random.default_rng(2)
    st = random_state(b, rng)
    fwd = propagate(H, st, 0.4)
    back = propagate(H, fwd, -0.4)
    fidelity = abs(np.vdot(back.psi, st.psi))
    assert abs(fidelity - 1.0) < 1e-10
    assert abs(fwd.norm - 1.0) < 1e-10


def test_propagate_matches_dense_exponential():
    g = Grid(1, 2, 1.0)
    V1, V2, V12 = _cos_fields(g, amps=(1.3, 0.7, 0.9))
    b = build_basis(2, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(V1, V2, V12), b)
    rng = np.random.default_rng(3)
    st = random_state(b, rng)
    out = propagate(H, st, 0.37)
    exact = scipy.linalg.expm(-1j * 0.37 * H.matrix.toarray()) @ st.psi.ravel()
    assert np.max(np.abs(out.psi.ravel() - exact)) < 1e-10


def test_product_state_examples():
    M = 5
    g = Grid(1, M, 2.5)
    site = np.zeros(M)
    site[2] = 1.0
    u = normalize(Field(g, site))
    b = build_basis(M, 2, 1)
    st = product_state(u, u, b)
    # all particles on site 2
    occ_a = tuple(2 if x == 2 else 0 for x in range(M))
    occ_b = tuple(1 if x == 2 else 0 for x in range(M))
    iA, iB = b.A.index[occ_a], b.B.index[occ_b]
    assert abs(abs(st.psi[iA, iB]) - 1.0) < 1e-12

    # N1 = N2 = 1: coefficients are u(x) v(y) in the site basis
    u2, v2 = _orbitals(g)
    b11 = build_basis(M, 1, 1)
    st11 = product_state(u2, v2, b11)
    h = g.spacing
    expect = np.outer(u2.values * np.sqrt(h), v2.values * np.sqrt(h))
    assert np.max(np.abs(st11.psi - expect)) < 1e-12


def test_product_state_is_the_symmetric_product_tensor():
    # first-quantized, u^(N1) x v^(N2) is the plain tensor product of the site vectors
    g = Grid(1, 4, 2.0)
    rng = np.random.default_rng(11)
    u, v = (normalize(Field(g, rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            for _ in range(2))
    psi = firstquant_vector(product_state(u, v, build_basis(4, 3, 2)))
    us, vs = u.values * np.sqrt(g.spacing), v.values * np.sqrt(g.spacing)
    expect = np.einsum("a,b,c,d,e->abcde", us, us, us, vs, vs)
    assert np.max(np.abs(psi - expect)) < 1e-14


def test_product_state_rejects_bad_orbitals():
    g = Grid(1, 4, 2.0)
    b = build_basis(4, 1, 1)
    with pytest.raises(ManyBodyError):
        product_state(Field(g, np.zeros(4)), Field(g, np.ones(4)), b)
    with pytest.raises(ManyBodyError):
        product_state(Field(g, np.ones(4)), Field(g, np.ones(4)), b)  # unnormalized


def test_product_state_rejects_an_orbital_of_another_site_count():
    u8, v8 = _orbitals(Grid(1, 8, 2.0))
    u6, v6 = _orbitals(Grid(1, 6, 2.0))
    b = build_basis(6, 2, 1)
    with pytest.raises(ManyBodyError, match="orbital u has 8 sites, the basis has 6"):
        product_state(u8, v6, b)
    with pytest.raises(ManyBodyError, match="orbital v has 8 sites, the basis has 6"):
        product_state(u6, v8, b)


def test_firstquant_vector_is_symmetric_per_species():
    g = Grid(1, 3, 1.5)
    b = build_basis(3, 2, 2)
    st = random_state(b, np.random.default_rng(4))
    psi = firstquant_vector(st)
    assert np.max(np.abs(psi - np.swapaxes(psi, 0, 1))) < 1e-14
    assert np.max(np.abs(psi - np.swapaxes(psi, 2, 3))) < 1e-14
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_energy_gap_to_effective_limit_closed_form():
    from becmix.effective import CouplingSpec, OrbitalState, hartree_energy
    from becmix.grids import periodic_convolve

    g = make_grid(1, 6, 2 * np.pi)
    V1, V2, V12 = _cos_fields(g)
    u, v = _orbitals(g)
    eff = CouplingSpec.hartree(V1, V2, V12, c1=0.5, kinetic="stencil")
    e_eff = hartree_energy(OrbitalState((u, v), 0.0), eff)
    h = g.spacing
    rho_u = Field(g, np.abs(u.values) ** 2)
    rho_v = Field(g, np.abs(v.values) ** 2)
    self1 = float(h * np.sum(periodic_convolve(V1, rho_u).values.real * rho_u.values.real))
    self2 = float(h * np.sum(periodic_convolve(V2, rho_v).values.real * rho_v.values.real))
    gaps = []
    for n in (1, 2, 3):
        b = build_basis(6, n, n)
        spec = HamiltonianSpec.mean_field(V1, V2, V12)
        e_many = manybody_energy(spec, product_state(u, v, b))
        gap = e_many - e_eff
        # exact finite-size correction: -(self1 + self2) / (2 (N1 + N2))
        assert gap == pytest.approx(-(self1 + self2) / (4 * n), rel=1e-10)
        gaps.append(abs(gap))
    assert gaps[0] > gaps[1] > gaps[2]


def test_energy_conserved_under_propagation():
    g = make_grid(1, 6, 2 * np.pi)
    V1, V2, V12 = _cos_fields(g)
    u, v = _orbitals(g)
    b = build_basis(6, 2, 2)
    spec = HamiltonianSpec.mean_field(V1, V2, V12)
    H = Hamiltonian(spec, b)
    st = product_state(u, v, b)
    e0 = manybody_energy(H, st)
    for _ in range(100):
        st = propagate(H, st, 1e-2)
    assert abs(manybody_energy(H, st) - e0) / abs(e0) < 1e-8
    assert abs(st.norm - 1.0) < 1e-9


def test_species_exchange_symmetry():
    g = make_grid(1, 6, 2 * np.pi)
    x = g.axis_coordinates
    V_same = Field(g, 0.5 * np.cos(x))
    V12 = Field(g, 0.4 * np.cos(x))
    u, v = _orbitals(g)
    res = {}
    for tag, (n1, n2, a, bb) in {"fwd": (2, 1, u, v), "swap": (1, 2, v, u)}.items():
        basis = build_basis(6, n1, n2)
        spec = HamiltonianSpec.mean_field(V_same, V_same, V12)
        H = Hamiltonian(spec, basis)
        st = product_state(a, bb, basis)
        for _ in range(20):
            st = propagate(H, st, 1e-2)
        from becmix.indicators import alpha_11, condensate_depletion
        res[tag] = (manybody_energy(H, st), alpha_11(st, a, bb),
                    condensate_depletion(st, a, "A"), condensate_depletion(st, bb, "B"))
    assert res["fwd"][0] == pytest.approx(res["swap"][0], abs=1e-12)
    assert res["fwd"][1] == pytest.approx(res["swap"][1], abs=1e-12)
    assert res["fwd"][2] == pytest.approx(res["swap"][3], abs=1e-12)
    assert res["fwd"][3] == pytest.approx(res["swap"][2], abs=1e-12)


@pytest.mark.parametrize("case,message", [
    ("grid_2d", "the many-body harness is one-dimensional"),
    ("other_grid", "potential field lives on a different grid"),
    ("complex", "potential must be real"),
    ("odd", "potential kernel is not even under site reflection"),
    ("nan", "potential must be finite"),
    ("inf", "potential must be finite"),
])
def test_mean_field_rejects_unusable_potential(case, message):
    g = Grid(1, 6, 3.0)
    x = g.axis_coordinates
    even = Field(g, np.cos(2 * np.pi * x / 3.0))
    # the spec's grid is V1's, so the 2-D case passes 2-D potentials throughout
    flat = Field(Grid(2, 6, 3.0), np.ones((6, 6)))
    good, bad = {
        "grid_2d": (flat, flat),
        "other_grid": (even, Field(Grid(1, 6, 4.0), even.values)),
        "complex": (even, Field(g, (1 + 0.5j) * even.values)),
        "odd": (even, Field(g, np.sin(2 * np.pi * x / 3.0))),
        "nan": (even, Field(g, np.where(x == x[2], np.nan, even.values))),
        "inf": (even, Field(g, np.where(x == x[2], np.inf, even.values))),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way to the error
        with pytest.raises(ManyBodyError) as err:
            HamiltonianSpec.mean_field(good, good, bad)
    assert str(err.value) == message


def test_propagate_substeps_large_step_against_dense(monkeypatch):
    g = Grid(1, 3, 1.5)
    V1, V2, V12 = _cos_fields(g, amps=(1.0, 0.8, 0.6))
    b = build_basis(3, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(V1, V2, V12), b)
    st = random_state(b, np.random.default_rng(8))
    # ||dt H|| is far beyond one Krylov pass at this dimension; the
    # propagator must substep rather than return garbage
    monkeypatch.setattr(manybody_mod, "KRYLOV_DIM", 8)
    out = propagate(H, st, 5.0)
    exact = scipy.linalg.expm(-5j * H.matrix.toarray()) @ st.psi.ravel()
    assert np.max(np.abs(out.psi.ravel() - exact)) < 1e-9
    assert abs(out.norm - 1.0) < 1e-10


@pytest.mark.parametrize("M,n,L,T,krylov_dim", [
    (6, 2, 3.0, 5.0, 30),
    (6, 2, 3.0, 5.0, 12),
    (4, 2, 0.5, 2.0, 30),          # ||H|| ~ 1024
    (10, 1, 2 * np.pi, 20.0, 30),
], ids=["M6", "M6-krylov12", "M4-large-norm", "M10-long"])
def test_propagate_without_reorthogonalization_against_expm(monkeypatch, M, n, L, T, krylov_dim):
    # time steps run the plain three-term recurrence; one long call and
    # 200 short ones must both stay at round-off of the exact propagator
    monkeypatch.setattr(manybody_mod, "KRYLOV_DIM", krylov_dim)
    g = Grid(1, M, L)
    b = build_basis(M, n, n)
    H = Hamiltonian(HamiltonianSpec.mean_field(*_cos_fields(g)), b)
    st = random_state(b, np.random.default_rng(M))
    exact = scipy.linalg.expm(-1j * T * H.matrix.toarray()) @ st.psi.ravel()
    many = st
    for _ in range(200):
        many = propagate(H, many, T / 200)
    for out in (propagate(H, st, T), many):
        assert np.max(np.abs(out.psi.ravel() - exact)) < 1e-12
        assert abs(out.norm - 1.0) < 1e-12


@pytest.mark.parametrize("dt", [0.0, np.inf, np.nan])
def test_propagate_rejects_zero_or_non_finite_step(dt):
    g = Grid(1, 3, 1.5)
    b = build_basis(3, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(*_cos_fields(g)), b)
    with pytest.raises(ManyBodyError, match="dt must be finite and nonzero"):
        propagate(H, random_state(b, np.random.default_rng(2)), dt)


def _through_setup(M=6, n=2, L=3.0):
    g = Grid(1, M, L)
    b = build_basis(M, n, n)
    H = Hamiltonian(HamiltonianSpec.mean_field(*_cos_fields(g)), b)
    st = random_state(b, np.random.default_rng(M))
    st.time = 0.3
    return H, st


def _counting_spaces(monkeypatch) -> list[int]:
    """The size of every Krylov space built from now on, in order."""
    sizes, real = [], manybody_mod._lanczos

    def counting(*args):
        out = real(*args)
        sizes.append(len(out[1]))
        return out

    monkeypatch.setattr(manybody_mod, "_lanczos", counting)
    return sizes


@pytest.mark.parametrize("M,L,offsets,krylov_dim,spaces_ok", [
    (6, 2 * np.pi, [0.05 * k for k in range(1, 11)], 17, lambda n: n < 10),
    # a 6-vector space falls short of these intervals, so it halves between samples
    (4, 2.0, [0.1, 0.25, 0.3, 0.6], 5, lambda n: n > 8),
], ids=["ten_samples_few_spaces", "halvings_between_samples"])
def test_propagate_through_matches_dense_exponential_at_every_offset(monkeypatch, M, L, offsets,
                                                                    krylov_dim, spaces_ok):
    H, st = _through_setup(M=M, L=L)
    spaces = _counting_spaces(monkeypatch)
    monkeypatch.setattr(manybody_mod, "KRYLOV_DIM", krylov_dim)
    out = list(propagate_through(H, st, offsets))
    assert spaces_ok(len(spaces))
    dense = H.matrix.toarray()
    for t, state in zip(offsets, out, strict=True):
        exact = scipy.linalg.expm(-1j * t * dense) @ st.psi.ravel()
        assert np.max(np.abs(state.psi.ravel() - exact)) < 1e-11
        assert state.time == 0.3 + t and state.psi.shape == st.psi.shape


@pytest.mark.parametrize("offsets", [
    [], [0.0], [0.1, 0.0], [np.nan], [0.1, np.inf], [-np.inf],
    [0.1, 0.1], [0.2, 0.1], [-0.1, -0.05], [0.1, -0.2], [-0.1, 0.2],
], ids=["empty", "zero", "zero_after", "nan", "inf", "minus_inf", "repeated", "decreasing",
        "negative_shrinking", "mixed_sign", "mixed_sign_negative_first"])
def test_propagate_through_rejects_bad_offsets(offsets):
    H, st = _through_setup(M=3, n=1)
    with pytest.raises(ManyBodyError, match="offsets must be finite, nonzero, of one sign"):
        propagate_through(H, st, offsets)   # raises on the call, before the first state


def test_propagate_through_backward_matches_propagate():
    H, st = _through_setup()
    offsets = [-0.05, -0.1, -0.2, -0.35]
    for t, state in zip(offsets, propagate_through(H, st, offsets), strict=True):
        ref = propagate(H, st, t)
        assert np.max(np.abs(state.psi - ref.psi)) < 1e-12
        assert state.time == ref.time == 0.3 + t


def _ladder_entry(n):
    """The bundled ladder's (n,n) entry: Hamiltonian, product state and sample offsets."""
    cfg = parse_config((Path(__file__).parents[1] / "configs" / "sweep_ladder.ini").read_text())
    b = build_basis(cfg.points, n, n)
    H = Hamiltonian(HamiltonianSpec.mean_field(
        *(cfg.potential_field(k) for k in ("v1", "v2", "v12"))), b)
    st = product_state(cfg.orbital_field("u0"), cfg.orbital_field("v0"), b)
    steps = round(cfg.T / cfg.dt)
    return H, st, [k * cfg.dt for k in range(cfg.sample_every, steps + 1, cfg.sample_every)]


def _peak_while_drawing(states) -> int:
    """tracemalloc's peak while the states are drawn one at a time, as a for loop does."""
    tracemalloc.start()
    try:
        for _ in states:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_propagate_through_forms_the_ladder_33_states_in_the_basis_memory(monkeypatch):
    # one space serves the ten samples; their states are written over its basis
    # rows, so the peak is the KRYLOV_DIM + 1 rows and a matvec's temporaries.  The
    # product state is real, so are the rows: each is half a complex vector
    H, st, offsets = _ladder_entry(3)
    spaces = _counting_spaces(monkeypatch)
    peak = _peak_while_drawing(propagate_through(H, st, offsets))
    assert len(spaces) == 1 and len(offsets) == 10
    assert peak <= ((manybody_mod.KRYLOV_DIM + 1) / 2 + 4) * st.psi.nbytes


def test_propagate_through_serves_at_most_krylov_dim_plus_one_samples_per_space(monkeypatch):
    # one space would reach all 200 samples; each serves at most KRYLOV_DIM + 1,
    # which its basis rows hold.  At dim 1296 a vector is 20 KB, and each of the
    # space's (KRYLOV_DIM + 1)-square complex arrays (27 KB) counts as about one
    H, st = _through_setup(M=8, L=2 * np.pi)
    offsets = [0.0025 * k for k in range(1, 201)]
    spaces = _counting_spaces(monkeypatch)
    peak = _peak_while_drawing(propagate_through(H, st, offsets))
    assert peak <= (manybody_mod.KRYLOV_DIM + 1 + 10) * st.psi.nbytes
    assert len(spaces) >= math.ceil(len(offsets) / (manybody_mod.KRYLOV_DIM + 1))
    lam, vecs = np.linalg.eigh(H.matrix.toarray())
    c = vecs.T @ st.psi.ravel()
    for t, state in zip(offsets, propagate_through(H, st, offsets), strict=True):
        exact = vecs @ (np.exp(-1j * t * lam) * c)
        assert np.max(np.abs(state.psi.ravel() - exact)) < 1e-11
        assert state.time == 0.3 + t


def test_propagate_through_serves_more_samples_than_basis_rows(monkeypatch):
    # without potentials, plane waves make an eigenstate of H: its space breaks
    # down at one vector, and that one row serves all ten samples
    g = Grid(1, 6, 3.0)
    zero = Field(g, np.zeros(6))
    b = build_basis(6, 2, 2)
    H = Hamiltonian(HamiltonianSpec.mean_field(zero, zero, zero), b)
    wave = [normalize(Field(g, np.exp(2j * np.pi * k * g.axis_coordinates / 3.0))) for k in (1, 2)]
    st = product_state(*wave, b)
    offsets = [0.1 * k for k in range(1, 11)]
    spaces = _counting_spaces(monkeypatch)
    out = list(propagate_through(H, st, offsets))
    assert spaces == [1]
    energy = H.expectation(st)
    for t, state in zip(offsets, out, strict=True):
        assert np.max(np.abs(state.psi - np.exp(-1j * t * energy) * st.psi)) < 1e-12


def test_propagate_through_carries_the_zero_state(monkeypatch):
    H, st = _through_setup(M=3, n=1)
    zero = ManyBodyState(st.basis, np.zeros(st.basis.shape), time=0.3)
    offsets = [0.1, 0.2, 0.5, 1.0]
    spaces = _counting_spaces(monkeypatch)
    out = list(propagate_through(H, zero, offsets))
    assert spaces == [1]
    assert [s.time for s in out] == [0.3 + t for t in offsets]
    assert all(s.psi.shape == zero.psi.shape and not s.psi.any() for s in out)


def test_propagate_through_leaves_the_callers_state_unchanged(monkeypatch):
    monkeypatch.setattr(manybody_mod, "KRYLOV_DIM", 5)   # several spaces
    H, st = _through_setup()
    before = st.psi.copy()
    out = list(propagate_through(H, st, [0.05 * k for k in range(1, 11)]))
    assert np.array_equal(st.psi, before) and st.time == 0.3
    assert not any(np.shares_memory(s.psi, st.psi) for s in out)


def test_propagation_of_the_ladder_33_entry_keeps_translation_overlaps_and_parity():
    # H commutes with the joint translation T (x -> x + 1 for both species) and
    # the reflection R (x -> -x mod M), so every <psi, T^j psi> is conserved and
    # the R-even product state of the cospack orbitals stays R-even
    H, st, offsets = _ladder_entry(3)
    b = H.basis
    T = np.ix_(*([s.index[tuple(o[-1:] + o[:-1])] for o in s.occs.tolist()] for s in (b.A, b.B)))
    R = np.ix_(*([s.index[tuple(o[:1] + o[:0:-1])] for o in s.occs.tolist()] for s in (b.A, b.B)))

    def overlaps(psi: np.ndarray) -> np.ndarray:
        shifted = [psi[T]]
        while len(shifted) < b.M - 1:
            shifted.append(shifted[-1][T])
        return np.array([np.vdot(psi, x) for x in shifted])

    c0 = overlaps(st.psi)
    assert np.min(np.abs(c0)) > 0.5          # no T^j psi is near orthogonal to psi
    for state in [st, *propagate_through(H, st, offsets)]:
        assert np.max(np.abs(overlaps(state.psi) - c0)) < 1e-12
        assert np.linalg.norm(state.psi[R] - state.psi) < 1e-12


def _recording_apply(H) -> list:
    """The dtype of every vector H.apply is called on from now on."""
    dtypes, apply = [], H.apply

    def recording(psi):
        dtypes.append(psi.dtype)
        return apply(psi)

    H.apply = recording
    return dtypes


@pytest.mark.parametrize("M,L,offsets,krylov_dim", [
    (None, None, None, 40),
    (8, 2 * np.pi, [0.0025 * k for k in range(1, 51)], 40),
    (4, 2.0, [0.1, 0.25, 0.3, 0.6], 5),
], ids=["ladder_33", "fifty_samples", "halvings"])
def test_propagate_through_runs_a_real_start_in_real_arithmetic(monkeypatch, M, L, offsets,
                                                                krylov_dim):
    # H is real, so the space from a real state is real, and the states it
    # reaches equal e^{-i theta} times those reached from e^{i theta} psi on the
    # complex path.  Fifty samples need several spaces, as a real one serves at most
    # (KRYLOV_DIM + 1) // 2 of them, and a 6-vector space halves its first step;
    # the spaces after the first start from complex states
    monkeypatch.setattr(manybody_mod, "KRYLOV_DIM", krylov_dim)
    if M is None:   # the product state of real orbitals
        H, st, offsets = _ladder_entry(3)
    else:
        H, st = _through_setup(M=M, L=L)
        st = ManyBodyState(st.basis, st.psi.real / np.linalg.norm(st.psi.real), st.time)
    assert st.psi.dtype == np.complex128 and not st.psi.imag.any()
    spaces = _counting_spaces(monkeypatch)
    dtypes = _recording_apply(H)
    real = list(propagate_through(H, st, offsets))
    assert dtypes[0] == np.float64 and len(real) == len(offsets)
    if M is None:
        assert set(dtypes) == {np.dtype(np.float64)} and len(spaces) == 1
    else:
        assert np.complex128 in dtypes and len(spaces) > 1
        lam, vecs = np.linalg.eigh(H.matrix.toarray())
        c = vecs.T @ st.psi.ravel()
        for t, state in zip(offsets, real, strict=True):
            assert np.max(np.abs(state.psi.ravel() - vecs @ (np.exp(-1j * t * lam) * c))) < 1e-11
    dtypes.clear()
    phase = np.exp(0.7j)
    turned = list(propagate_through(H, ManyBodyState(st.basis, phase * st.psi, st.time), offsets))
    assert set(dtypes) == {np.dtype(np.complex128)}
    for a, b in zip(real, turned, strict=True):
        assert a.time == b.time and a.psi.dtype == np.complex128
        assert np.max(np.abs(a.psi - b.psi / phase)) < 1e-13


def test_csr_operators_match_the_dense_ones(monkeypatch):
    # no Tier-1 sweep reaches a sector above DENSE_MAX_DIM, so run the (2,2) entry
    # of the bundled ladder on CSR operators, with the threshold patched to 0
    from becmix.indicators import SampleEvaluator, site_vector, weight_n, weight_s

    H, st, offsets = _ladder_entry(2)
    cfg = parse_config((Path(__file__).parents[1] / "configs" / "sweep_ladder.ini").read_text())
    u, v = cfg.orbital_field("u0"), cfg.orbital_field("v0")
    b, rng = H.basis, np.random.default_rng(5)
    psi = random_state(b, rng).psi
    u_site = site_vector(u) * np.exp(1j * np.arange(b.M))   # a complex orbital
    weights = (weight_s(2), weight_n(2))

    def run():
        H_now = Hamiltonian(H.spec, b)
        a, a_dag = b.A.annihilator(u_site)
        sites = [b.A.annihilator(np.eye(b.M)[x])[0] @ psi for x in range(b.M)]
        states = list(propagate_through(H_now, st, offsets))
        return (H_now, [H_now.apply(psi), H_now.apply(psi.real), a @ psi, a_dag @ (a @ psi),
                        np.array(sites), H_now.matrix.toarray(),
                        *(s.psi for s in states),
                        np.array(SampleEvaluator(H_now, weights)(states[-1], u, v))])

    H_dense, dense = run()
    monkeypatch.setattr(manybody_mod, "DENSE_MAX_DIM", 0)
    H_csr, csr = run()
    assert isinstance(H_dense.hop_A, np.ndarray) and not isinstance(H_csr.hop_A, np.ndarray)
    for x, y in zip(dense, csr, strict=True):
        assert x.dtype == y.dtype and np.max(np.abs(x - y)) < 1e-13
    # a(e_x) is a_x, which lower gathers on every path
    assert np.max(np.abs(b.A.lower(psi, 0) - dense[4])) < 1e-13


def test_propagate_substep_budget_exhausted(monkeypatch):
    g = Grid(1, 3, 0.05)  # tiny box -> huge kinetic scale
    b = build_basis(3, 2, 2)
    # 24 distinct eigenvalues: no 4-vector space covers a useful step of dt = 50
    H = Hamiltonian(HamiltonianSpec.mean_field(*_cos_fields(g)), b)
    st = random_state(b, np.random.default_rng(9))
    monkeypatch.setattr(manybody_mod, "KRYLOV_DIM", 4)
    with pytest.raises(ManyBodyError):
        propagate(H, st, 50.0)
