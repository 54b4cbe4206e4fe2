import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from becmix.grids import Field, Grid, make_grid, normalize
from firstquant import firstquant_vector
from becmix.manybody import (
    Hamiltonian,
    HamiltonianSpec,
    ManyBodyError,
    ManyBodyState,
    build_basis,
    load_state,
    manybody_energy,
    occupation_states,
    product_state,
    propagate,
    random_state,
    save_state,
)


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
@given(M=st.integers(2, 6), N=st.integers(1, 4))
def test_occupation_enumeration_bijective_and_sorted(M, N):
    occs = occupation_states(M, N)
    assert len(occs) == math.comb(M + N - 1, N)
    assert len(set(occs)) == len(occs)
    assert occs == sorted(occs, reverse=True)
    assert all(sum(o) == N for o in occs)


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

    diag = np.zeros(dim)
    for i in range(N1):
        for j in range(i + 1, N1):
            diag += kernel_on(spec.kernel1, i, j)
    for r in range(N1, N1 + N2):
        for s in range(r + 1, N1 + N2):
            diag += kernel_on(spec.kernel2, r, s)
    for i in range(N1):
        for r in range(N1, N1 + N2):
            diag += kernel_on(spec.kernel12, i, r)
    return H + np.diag(diag)


@pytest.mark.parametrize("M,N1,N2", [(2, 1, 1), (3, 2, 1), (3, 2, 2)])
def test_hamiltonian_matches_firstquant_dense(M, N1, N2):
    g = Grid(1, M, 2.0)
    V1, V2, V12 = _cos_fields(g, amps=(1.3, 0.7, 0.9))
    spec = HamiltonianSpec.mean_field(g, V1, V2, V12, N1, N2)
    b = build_basis(M, N1, N2)
    H = Hamiltonian(spec, b)
    Hfq = _firstquant_dense_h(g, spec, N1, N2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        st = random_state(b, rng)
        lhs = firstquant_vector(ManyBodyState(b, H.apply(st.psi))).ravel()
        rhs = Hfq @ firstquant_vector(st).ravel()
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hermiticity_on_random_pairs():
    g = Grid(1, 5, 2.0)
    V1, V2, V12 = _cos_fields(g)
    b = build_basis(5, 2, 2)
    H = Hamiltonian(HamiltonianSpec.mean_field(g, V1, V2, V12, 2, 2), b)
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
    H = Hamiltonian(HamiltonianSpec.mean_field(g, V1, V2, V12, 3, 1), b)
    Hm = H.matrix
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y = random_state(b, rng).psi, random_state(b, rng).psi
        ref = Hm @ x.ravel()
        flat, grid2d = H.apply(x.ravel()), H.apply(x)
        assert flat.shape == (b.dim,) and grid2d.shape == b.shape
        assert np.max(np.abs(flat - ref)) < 1e-12
        assert np.max(np.abs(grid2d.ravel() - ref)) < 1e-12
        assert abs(np.vdot(x, H.apply(y)) - np.vdot(H.apply(x), y)) < 1e-12


def test_free_hamiltonian_momentum_eigenstate():
    M = 6
    g = Grid(1, M, 3.0)
    zero = Field(g, np.zeros(M))
    b = build_basis(M, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(g, zero, zero, zero, 1, 1), b)
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
    H = Hamiltonian(HamiltonianSpec.mean_field(g, zero, zero, zero, 1, 1), b)
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
    H = Hamiltonian(HamiltonianSpec.mean_field(g, V1, V2, V12, 1, 1), b)
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
        spec = HamiltonianSpec.mean_field(g, V1, V2, V12, n, n)
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
    spec = HamiltonianSpec.mean_field(g, V1, V2, V12, 2, 2)
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
        spec = HamiltonianSpec.mean_field(g, V_same, V_same, V12, n1, n2)
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


def test_beta_family_matches_meanfield_prefactor_at_small_beta():
    g = Grid(1, 8, 4.0)
    V = lambda r: np.exp(-np.asarray(r) ** 2)
    spec = HamiltonianSpec.beta_family(g, V, V, V, 2, 2, beta=1e-9)
    mf = HamiltonianSpec.mean_field(
        g, Field(g, V(np.abs(g.signed_coordinates()[0]))),
        Field(g, V(np.abs(g.signed_coordinates()[0]))),
        Field(g, V(np.abs(g.signed_coordinates()[0]))), 2, 2)
    assert np.max(np.abs(spec.kernel1 - mf.kernel1)) < 1e-7


def test_beta_family_concentrates():
    g = Grid(1, 16, 8.0)
    V = lambda r: np.exp(-np.asarray(r) ** 2)
    k_soft = HamiltonianSpec.beta_family(g, V, V, V, 4, 4, beta=0.25).kernel1
    k_hard = HamiltonianSpec.beta_family(g, V, V, V, 4, 4, beta=0.75).kernel1
    assert k_hard[0] > k_soft[0]           # taller on site
    assert k_hard[4] < k_soft[4]           # narrower off site


def test_checkpoint_roundtrip(tmp_path):
    g = Grid(1, 5, 2.5)
    b = build_basis(5, 2, 1)
    st = random_state(b, np.random.default_rng(6))
    st.time = 0.75
    path = tmp_path / "state.bin"
    save_state(st, g, path)
    back, grid = load_state(path)
    assert grid == g
    assert back.time == 0.75
    assert np.array_equal(back.psi, st.psi)


def test_checkpoint_of_a_raised_cap_basis_roundtrips(tmp_path):
    # dim 213,444 exceeds the default cap; the payload length bounds the load
    g = Grid(1, 6, 2.0)
    st = random_state(build_basis(6, 6, 6, dim_cap=300_000), np.random.default_rng(5))
    path = tmp_path / "state.bin"
    save_state(st, g, path)
    back, grid = load_state(path)
    assert grid == g
    assert back.basis.shape == st.basis.shape
    assert np.array_equal(back.psi, st.psi)


def test_checkpoint_rejects_wrong_basis_tag(tmp_path):
    g = Grid(1, 4, 2.0)
    b = build_basis(4, 1, 1)
    st = random_state(b, np.random.default_rng(7))
    path = tmp_path / "state.bin"
    save_state(st, g, path)
    data = path.read_bytes().replace(b"lex-v1", b"lex-v9")
    path.write_bytes(data)
    with pytest.raises(ManyBodyError):
        load_state(path)


def test_checkpoint_rejects_malformed_file(tmp_path):
    g = Grid(1, 4, 2.0)
    st = random_state(build_basis(4, 1, 1), np.random.default_rng(7))
    path = tmp_path / "state.bin"
    save_state(st, g, path)
    good = path.read_bytes()
    n = 16 * st.basis.dim
    for data, needle in ((good[:-8], f"payload is {n - 8} bytes, expected {n}"),
                         (good + b"\0" * 16, f"payload is {n + 16} bytes, expected {n}"),
                         (good.replace(b"N1 = 1\n", b""), "header lacks N1"),
                         (good.replace(b"M = 4", b"M = four"), "bad header")):
        path.write_bytes(data)
        with pytest.raises(ManyBodyError, match=needle) as err:
            load_state(path)
        assert str(path) in str(err.value)


def test_propagate_substeps_large_step_against_dense():
    g = Grid(1, 3, 1.5)
    V1, V2, V12 = _cos_fields(g, amps=(1.0, 0.8, 0.6))
    b = build_basis(3, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(g, V1, V2, V12, 1, 1), b)
    st = random_state(b, np.random.default_rng(8))
    # ||dt H|| is far beyond one Krylov pass at this dimension; the
    # propagator must substep rather than return garbage
    out = propagate(H, st, 5.0, krylov_dim=8)
    exact = scipy.linalg.expm(-5j * H.matrix.toarray()) @ st.psi.ravel()
    assert np.max(np.abs(out.psi.ravel() - exact)) < 1e-9
    assert abs(out.norm - 1.0) < 1e-10


@pytest.mark.parametrize("M,n,L,T,krylov_dim", [
    (6, 2, 3.0, 5.0, 30),
    (6, 2, 3.0, 5.0, 12),
    (4, 2, 0.5, 2.0, 30),          # ||H|| ~ 1024
    (10, 1, 2 * np.pi, 20.0, 30),
], ids=["M6", "M6-krylov12", "M4-large-norm", "M10-long"])
def test_propagate_without_reorthogonalization_against_expm(M, n, L, T, krylov_dim):
    # time steps run the plain three-term recurrence; one long call and
    # 200 short ones must both stay at round-off of the exact propagator
    g = Grid(1, M, L)
    b = build_basis(M, n, n)
    H = Hamiltonian(HamiltonianSpec.mean_field(g, *_cos_fields(g), n, n), b)
    st = random_state(b, np.random.default_rng(M))
    exact = scipy.linalg.expm(-1j * T * H.matrix.toarray()) @ st.psi.ravel()
    many = st
    for _ in range(200):
        many = propagate(H, many, T / 200, krylov_dim=krylov_dim)
    for out in (propagate(H, st, T, krylov_dim=krylov_dim), many):
        assert np.max(np.abs(out.psi.ravel() - exact)) < 1e-12
        assert abs(out.norm - 1.0) < 1e-12


@pytest.mark.parametrize("dt", [0.0, np.inf, np.nan])
def test_propagate_rejects_zero_or_non_finite_step(dt):
    g = Grid(1, 3, 1.5)
    b = build_basis(3, 1, 1)
    H = Hamiltonian(HamiltonianSpec.mean_field(g, *_cos_fields(g), 1, 1), b)
    with pytest.raises(ManyBodyError, match="dt must be finite and nonzero"):
        propagate(H, random_state(b, np.random.default_rng(2)), dt)


def test_propagate_substep_budget_exhausted():
    g = Grid(1, 3, 0.05)  # tiny box -> huge kinetic scale
    b = build_basis(3, 2, 2)
    # 24 distinct eigenvalues: no 4-vector space covers a useful step of dt = 50
    H = Hamiltonian(HamiltonianSpec.mean_field(g, *_cos_fields(g), 2, 2), b)
    st = random_state(b, np.random.default_rng(9))
    with pytest.raises(ManyBodyError):
        propagate(H, st, 50.0, krylov_dim=4)
