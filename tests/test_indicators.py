import math
from pathlib import Path
import warnings

from hypothesis import given, settings, strategies as st_
import numpy as np
import pytest

from becmix.config import parse_config
from becmix.grids import Field, Grid, make_grid, normalize
from firstquant import firstquant_vector
from becmix.manybody import (
    Hamiltonian,
    HamiltonianSpec,
    ManyBodyError,
    ManyBodyState,
    build_basis,
    product_state,
    random_state,
)
from becmix.indicators import (
    IndicatorError,
    SampleEvaluator,
    alpha_11,
    condensate_depletion,
    counting_projectors,
    derivative_decomposition,
    insertion_terms,
    marginal_bounds_check,
    reduce_density,
    site_vector,
    trace_distance,
    weight_expectation,
    weight_m,
    weight_n,
    weight_s,
)


def _grid_and_orbitals(M=4, L=2.0):
    g = Grid(1, M, L)
    x = g.axis_coordinates
    u = normalize(Field(g, 1 + 0.4 * np.cos(2 * np.pi * x / L)))
    v = normalize(Field(g, np.exp(2j * np.pi * x / L) * (1 + 0.2 * np.cos(2 * np.pi * x / L))))
    return g, u, v


def _perp(orbital: Field, other: Field) -> Field:
    """Normalized component of `other` orthogonal to `orbital`."""
    us = orbital.values
    ovr = np.vdot(us, other.values) / np.vdot(us, us)
    return normalize(Field(orbital.grid, other.values - ovr * us))


def _state_from_pair(basis, a: Field, b: Field) -> ManyBodyState:
    # N1 = N2 = 1 state with coefficients a(x) b(y)
    h = a.grid.spacing
    return ManyBodyState(basis, np.outer(a.values * np.sqrt(h), b.values * np.sqrt(h)))


# ---------------------------------------------------------------------------
# reduced density matrices

def test_reduce_product_is_rank_one():
    g, u, v = _grid_and_orbitals()
    basis = build_basis(4, 2, 2)
    ps = product_state(u, v, basis)
    gam = reduce_density(ps, (1, 1))
    gam.validate(1e-10)
    ref = np.outer(np.kron(site_vector(u), site_vector(v)),
                   np.conj(np.kron(site_vector(u), site_vector(v))))
    assert np.max(np.abs(gam.matrix - ref)) < 1e-12


def test_reduce_schmidt_oracle():
    g, u, v = _grid_and_orbitals()
    basis = build_basis(4, 1, 1)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psi /= np.linalg.norm(psi)
    st = ManyBodyState(basis, psi)
    gam = reduce_density(st, (1, 0))
    eig = np.sort(np.linalg.eigvalsh(gam.matrix))
    schmidt = np.sort(np.linalg.svd(psi, compute_uv=False) ** 2)
    assert np.max(np.abs(eig - schmidt)) < 1e-12


def test_reduce_maximally_mixed():
    basis = build_basis(2, 1, 1)
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 1] = psi[1, 0] = 1 / math.sqrt(2)
    st = ManyBodyState(basis, psi)
    gam = reduce_density(st, (1, 0))
    assert np.max(np.abs(gam.matrix - np.eye(2) / 2)) < 1e-12


def test_reduce_pair_traces_to_single_species():
    basis = build_basis(4, 2, 2)
    st = random_state(basis, np.random.default_rng(1))
    g11 = reduce_density(st, (1, 1)).matrix.reshape(4, 4, 4, 4)
    for kind, spec_axis in (((1, 0), "xyzy->xz"), ((0, 1), "yxyz->xz")):
        partial = np.einsum(spec_axis, g11)
        single = reduce_density(st, kind).matrix
        assert np.max(np.abs(partial - single)) < 1e-12


def test_reduce_invariants_on_random_states():
    basis = build_basis(3, 2, 2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        st = random_state(basis, rng)
        for kind in ((1, 0), (0, 1), (1, 1)):
            reduce_density(st, kind).validate(1e-12)


def test_reduce_rejects_unknown_kind():
    basis = build_basis(3, 1, 1)
    st = random_state(basis, np.random.default_rng(3))
    with pytest.raises(IndicatorError):
        reduce_density(st, (2, 0))


# ---------------------------------------------------------------------------
# overlap deficit, trace distance, marginal bounds

def test_alpha_examples():
    g, u, v = _grid_and_orbitals()
    basis = build_basis(4, 2, 2)
    ps = product_state(u, v, basis)
    assert abs(alpha_11(ps, u, v)) < 1e-12

    u_perp = _perp(u, Field(g, np.exp(2j * np.pi * g.axis_coordinates / 2.0)))
    assert alpha_11(ps, u_perp, v) == pytest.approx(1.0, abs=1e-12)

    basis11 = build_basis(4, 1, 1)
    v_perp = _perp(v, Field(g, 1 + 0.7 * np.cos(4 * np.pi * g.axis_coordinates / 2.0)))
    half = ManyBodyState(basis11, (_state_from_pair(basis11, u, v).psi
                                   + _state_from_pair(basis11, u_perp, v_perp).psi)
                         / math.sqrt(2))
    assert alpha_11(half, u, v) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_examples():
    g, u, v = _grid_and_orbitals()
    basis = build_basis(4, 1, 1)
    ps = _state_from_pair(basis, u, v)
    gam = reduce_density(ps, (1, 1))
    assert trace_distance(gam, u, v) < 1e-12

    u_perp = _perp(u, Field(g, np.exp(2j * np.pi * g.axis_coordinates / 2.0)))
    assert trace_distance(gam, u_perp, v) == pytest.approx(2.0, abs=1e-12)

    # pure states with squared overlap 1/2: distance 2 sqrt(1 - 1/2)
    mix = normalize(Field(g, u.values + u_perp.values))
    gam2 = reduce_density(_state_from_pair(basis, mix, v), (1, 1))
    assert trace_distance(gam2, u, v) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_marginal_bounds_product_and_fully_depleted():
    g, u, v = _grid_and_orbitals()
    basis = build_basis(4, 1, 1)
    ps = _state_from_pair(basis, u, v)
    mb = marginal_bounds_check(ps, u, v)
    assert abs(mb.lhs_max) < 1e-12 and abs(mb.middle) < 1e-12 and abs(mb.rhs_sum) < 1e-12

    v_perp = _perp(v, Field(g, 1 + 0.7 * np.cos(4 * np.pi * g.axis_coordinates / 2.0)))
    depleted = _state_from_pair(basis, u, v_perp)
    mb2 = marginal_bounds_check(depleted, u, v)
    assert mb2.lhs_max == pytest.approx(1.0, abs=1e-12)
    assert mb2.middle == pytest.approx(1.0, abs=1e-12)
    assert mb2.rhs_sum == pytest.approx(1.0, abs=1e-12)
    assert mb2.lower_holds and mb2.upper_holds


def test_marginal_bounds_random_states():
    g, u, v = _grid_and_orbitals()
    basis = build_basis(4, 2, 2)
    rng = np.random.default_rng(4)
    for _ in range(50):
        st = random_state(basis, rng)
        mb = marginal_bounds_check(st, u, v)
        assert mb.lower_holds and mb.upper_holds


# ---------------------------------------------------------------------------
# counting projectors and weights

def test_counting_on_product_state():
    g, u, v = _grid_and_orbitals()
    basis = build_basis(4, 3, 2)
    ps = product_state(u, v, basis)
    cp = counting_projectors(basis, u, "A")
    parts = cp.split(ps)
    assert np.max(np.abs(parts[0] - ps.psi)) < 1e-12
    for k in range(1, 4):
        assert np.linalg.norm(parts[k]) < 1e-12


def _occ_from_fq(basis, psi_fq):
    """Inverse of firstquant_vector (representative-tuple evaluation)."""
    out = np.zeros(basis.shape, dtype=complex)
    for iA in range(basis.A.dim):
        occ_a = basis.A.occs[iA]
        tupA = tuple(int(s) for s in np.repeat(np.arange(basis.M), occ_a))
        ampA = math.sqrt(math.factorial(basis.N1)
                         / np.prod([math.factorial(int(n)) for n in occ_a]))
        for iB in range(basis.B.dim):
            occ_b = basis.B.occs[iB]
            tupB = tuple(int(s) for s in np.repeat(np.arange(basis.M), occ_b))
            ampB = math.sqrt(math.factorial(basis.N2)
                             / np.prod([math.factorial(int(n)) for n in occ_b]))
            out[iA, iB] = psi_fq[tupA + tupB] * ampA * ampB
    return out


def test_counting_one_excitation_state():
    g, u, v = _grid_and_orbitals(M=3)
    basis = build_basis(3, 2, 1)
    u_perp = _perp(u, Field(g, np.exp(2j * np.pi * g.axis_coordinates / 2.0)))
    us, ps_ = site_vector(u), site_vector(u_perp)
    vs = site_vector(v)
    fq = (np.einsum("a,b,c->abc", us, ps_, vs)
          + np.einsum("a,b,c->abc", ps_, us, vs)) / math.sqrt(2)
    st = ManyBodyState(basis, _occ_from_fq(basis, fq))
    assert abs(st.norm - 1.0) < 1e-12
    cp = counting_projectors(basis, u, "A")
    parts = cp.split(st)
    assert np.max(np.abs(parts[1] - st.psi)) < 1e-12
    assert np.linalg.norm(parts[0]) < 1e-12
    assert np.linalg.norm(parts[2]) < 1e-12


def test_counting_resolution_orthogonality_and_q():
    g, u, v = _grid_and_orbitals(M=4)
    basis = build_basis(4, 3, 1)
    rng = np.random.default_rng(5)
    cp = counting_projectors(basis, u, "A")
    st = random_state(basis, rng)
    parts = cp.split(st)
    assert np.max(np.abs(sum(parts) - st.psi)) < 1e-12
    weights = cp.sector_weights(st)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
    # orthogonality: re-splitting one sector leaves it alone
    again = cp.split(ManyBodyState(basis, parts[2]))
    for j, p in enumerate(again):
        target = parts[2] if j == 2 else np.zeros_like(parts[2])
        assert np.max(np.abs(p - target)) < 1e-12
    # sum_k k P_k reproduces Q
    mode = counting_projectors(basis, u, "A")
    q_direct = mode.q_total(st.psi)
    q_spectral = sum(k * p for k, p in enumerate(parts))
    assert np.max(np.abs(q_direct - q_spectral)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(n1=st_.integers(1, 24), seed=st_.integers(0, 10_000))
def test_counting_split_stable_up_to_the_cap_edge(n1, seed):
    # c07 counting algebra at M = 4, N2 = 1 up to N1 = 24 (dim 11,700)
    rng = np.random.default_rng(seed)
    g = Grid(1, 4, 2.0)
    u = normalize(Field(g, rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    basis = build_basis(4, n1, 1)
    st = random_state(basis, rng)
    cp = counting_projectors(basis, u, "A")
    parts = np.array(cp.split(st))
    assert np.linalg.norm(sum(parts) - st.psi) < 1e-12
    overlaps = np.abs(np.einsum("jab,kab->jk", parts.conj(), parts))
    np.fill_diagonal(overlaps, 0.0)
    assert overlaps.max() < 1e-12
    assert abs(cp.sector_weights(st).sum() - st.norm ** 2) < 1e-12
    # the stopping rule holds each estimated ||Q P_k psi - k P_k psi|| below 1e-12
    mode = counting_projectors(basis, u, "A")
    assert max(np.linalg.norm(mode.q_total(p) - k * p) for k, p in enumerate(parts)) < 1e-11


def test_counting_split_of_near_condensed_states_up_to_the_cap_edge():
    # the sweep's regime: a product state plus a small perturbation, so the
    # high-k sectors carry tiny weight; the plain Lanczos recurrence must
    # still resolve, separate and diagonalize them to the hypothesis bounds
    g = Grid(1, 4, 2.0)
    for n1 in range(1, 25):
        rng = np.random.default_rng(n1)
        u, v = (normalize(Field(g, rng.standard_normal(4) + 1j * rng.standard_normal(4)))
                for _ in range(2))
        basis = build_basis(4, n1, 1)
        prod, noise = product_state(u, v, basis).psi, random_state(basis, rng).psi
        cp, mode = counting_projectors(basis, u, "A"), counting_projectors(basis, u, "A")
        for eps in (1e-3, 1e-6, 1e-9):
            psi = prod + eps * noise
            parts = cp.split(ManyBodyState(basis, psi))
            assert np.linalg.norm(sum(parts) - psi) < 1e-12
            norms = np.array([np.linalg.norm(p) ** 2 for p in parts])
            weights = cp.sector_weights(ManyBodyState(basis, psi))
            assert np.max(np.abs(weights - norms)) < 1e-12
            assert weights.min() >= 0.0   # no weight is read as a complement of the others
            overlaps = np.abs(np.einsum("jab,kab->jk", parts.conj(), parts))
            np.fill_diagonal(overlaps, 0.0)
            assert overlaps.max() < 1e-12
            q_residual = max(np.linalg.norm(mode.q_total(p) - k * p) for k, p in enumerate(parts))
            assert q_residual < 1e-11


def test_counting_matches_literal_symmetrized_strings():
    # N = 2, M = 3: P0 = p1 p2, P1 = q1 p2 + p1 q2, P2 = q1 q2
    g, u, v = _grid_and_orbitals(M=3)
    basis = build_basis(3, 2, 1)
    us = site_vector(u)
    P = np.outer(us, np.conj(us))
    Q = np.eye(3) - P

    def embed(mats):
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    I = np.eye(3)
    strings = [embed([P, P, I]),
               embed([Q, P, I]) + embed([P, Q, I]),
               embed([Q, Q, I])]
    rng = np.random.default_rng(6)
    st = random_state(basis, rng)
    fq = firstquant_vector(st).reshape(-1)
    cp = counting_projectors(basis, u, "A")
    parts = cp.split(st)
    for k in range(3):
        ours = firstquant_vector(ManyBodyState(basis, parts[k])).reshape(-1)
        theirs = strings[k] @ fq
        assert np.max(np.abs(ours - theirs)) < 1e-12


def test_weight_families():
    N = 5
    ws, wn = weight_s(N), weight_n(N)
    assert ws.values[0] == 0.0 and ws.values[-1] == 1.0
    assert np.allclose(wn.values, np.sqrt(np.arange(N + 1) / N))
    assert np.all(wn.values >= ws.values)

    for N, xi in ((2, 0.2), (3, 0.2), (8, 0.35), (16, 0.1)):
        wm = weight_m(N, xi)
        vals = wm.values
        assert wm(0) == pytest.approx(0.5 * N ** (-xi))
        assert wm(N) == pytest.approx(1.0)
        nvals = weight_n(N).values
        cap = np.maximum(nvals, N ** (-xi))
        assert np.all(vals >= nvals - 1e-12)
        assert np.all(vals <= cap + 1e-12)
    with pytest.raises(IndicatorError):
        weight_m(4, 0.0)


def test_weight_m_crossover_continuity():
    # choose N, xi with an integer crossover: N = 16, xi = 0.25 -> k* = 4
    N, xi = 16, 0.25
    wm = weight_m(N, xi)
    k_star = round(N ** (1 - 2 * xi))
    upper = math.sqrt(k_star / N)
    lower = 0.5 * (N ** (xi - 1.0) * k_star + N ** (-xi))
    assert upper == pytest.approx(lower, abs=1e-14)
    assert wm(k_star) == pytest.approx(N ** (-xi), abs=1e-14)


def test_weight_expectations():
    g, u, v = _grid_and_orbitals(M=4)
    basis = build_basis(4, 2, 2)
    ps = product_state(u, v, basis)
    for w in (weight_s(2), weight_n(2), weight_m(2, 0.2)):
        assert weight_expectation(ps, w, "A", u) == pytest.approx(w(0), abs=1e-12)

    rng = np.random.default_rng(7)
    mode = counting_projectors(basis, u, "A")
    for _ in range(10):
        st = random_state(basis, rng)
        es = weight_expectation(st, weight_s(2), "A", u)
        en = weight_expectation(st, weight_n(2), "A", u)
        em = weight_expectation(st, weight_m(2, 0.2), "A", u)
        q_exp = np.vdot(st.psi, mode.q_total(st.psi)).real / 2
        assert es == pytest.approx(q_exp, abs=1e-12)   # s = Q/N
        assert en >= es - 1e-12                        # n >= s pointwise
        assert em >= en - 1e-12                        # m >= n pointwise
        lo, hi = 0.0, 1.0
        assert lo - 1e-12 <= es <= hi + 1e-12


def test_weight_expectation_species_b():
    g, u, v = _grid_and_orbitals(M=4)
    basis = build_basis(4, 1, 3)
    ps = product_state(u, v, basis)
    assert weight_expectation(ps, weight_n(3), "B", v) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(IndicatorError):
        weight_expectation(ps, weight_n(2), "B", v)


def test_shift_gap_norm_bound():
    # ||(m^ - m^_1) psi|| <= sup_k |m(k+1) - m(k)| ||psi||
    g, u, v = _grid_and_orbitals(M=4)
    basis = build_basis(4, 3, 1)
    wm = weight_m(3, 0.2)
    bound = wm.max_step()
    cp = counting_projectors(basis, u, "A")
    rng = np.random.default_rng(8)
    for _ in range(10):
        st = random_state(basis, rng)
        parts = cp.split(st)
        w0, w1 = wm.values, wm.shifted_values(1)
        diff = sum((w0[k] - w1[k]) * parts[k] for k in range(4))
        assert np.linalg.norm(diff) <= bound + 1e-12


# ---------------------------------------------------------------------------
# derivative channels

def _meanfield_problem(M=6, N1=2, N2=2, amps=(0.6, 0.4, 0.5)):
    g = make_grid(1, M, 2 * np.pi)
    x = g.axis_coordinates
    V1 = Field(g, amps[0] * np.cos(x))
    V2 = Field(g, amps[1] * np.cos(2 * x))
    V12 = Field(g, amps[2] * np.cos(x))
    u = normalize(Field(g, 1 + 0.3 * np.cos(x)))
    v = normalize(Field(g, 1 + 0.25 * np.cos(2 * x)))
    basis = build_basis(M, N1, N2)
    spec = HamiltonianSpec.mean_field(V1, V2, V12)
    return g, V1, V2, V12, u, v, basis, spec


def test_derivative_channels_vanish_without_potentials():
    g, *_ = _meanfield_problem()
    zero = Field(g, np.zeros(6))
    basis = build_basis(6, 2, 2)
    spec = HamiltonianSpec.mean_field(zero, zero, zero)
    _, _, _, _, u, v, _, _ = _meanfield_problem()
    st = random_state(basis, np.random.default_rng(9))
    ch = derivative_decomposition(st, u, v, spec)
    assert abs(ch.c_v1) < 1e-12 and abs(ch.c_v2) < 1e-12 and abs(ch.c_v12) < 1e-12


def test_derivative_channels_purely_imaginary_and_v12_zero():
    g, V1, V2, _, u, v, basis, _ = _meanfield_problem()
    zero = Field(g, np.zeros(6))
    spec = HamiltonianSpec.mean_field(V1, V2, zero)
    st = random_state(basis, np.random.default_rng(10))
    ch = derivative_decomposition(st, u, v, spec)
    assert abs(ch.c_v12) < 1e-12
    for c in (ch.c_v1, ch.c_v2):
        assert abs(c.real) < 1e-10

    def interaction_minus_dressing(V: Field, species, orbital: Field) -> np.ndarray:
        # sum_{i<j} V(x_i - x_j) / N - sum_i (V * |orbital|^2)(x_i), per occupation vector
        M, kern, rho = species.M, V.values.real, np.abs(orbital.values) ** 2
        dressing = [g.spacing * sum(kern[(x - y) % M] * rho[y] for y in range(M))
                    for x in range(M)]
        return np.array([sum(kern[(x - y) % M] * n[x] * (n[y] - (x == y))
                             for x in range(M) for y in range(M)) / (2 * species.N)
                         - np.dot(n, dressing) for n in species.occs])

    mode_a, mode_b = counting_projectors(basis, u, "A"), counting_projectors(basis, v, "B")
    pbar_psi = mode_a.n_u(mode_b.n_u(st.psi)) / (basis.N1 * basis.N2)
    for c, x in ((ch.c_v1, interaction_minus_dressing(V1, basis.A, u)[:, None]),
                 (ch.c_v2, interaction_minus_dressing(V2, basis.B, v)[None, :])):
        literal = -(np.vdot(st.psi, x * pbar_psi) - np.vdot(pbar_psi, x * st.psi))
        assert abs(c - literal) < 1e-14


def test_derivative_identity_second_order():
    from becmix.effective import CouplingSpec, OrbitalState, step

    g, V1, V2, V12, u, v, basis, spec = _meanfield_problem(M=8)
    H = Hamiltonian(spec, basis)
    eff_spec = CouplingSpec.hartree(V1, V2, V12, c1=0.5, kinetic="stencil")
    psi = product_state(u, v, basis)
    eff = OrbitalState((u, v), 0.0)
    for _ in range(50):
        psi = H.propagate(psi, 1e-3)
        eff = step(eff, eff_spec, 1e-3)
    ch = derivative_decomposition(psi, eff.components[0], eff.components[1], spec)

    def fd(dt, nsub=32):
        plus, minus = H.propagate(psi, dt), H.propagate(psi, -dt)
        ep = em = eff
        for _ in range(nsub):
            ep = step(ep, eff_spec, dt / nsub)
            em = step(em, eff_spec, -dt / nsub)
        ap = alpha_11(plus, ep.components[0], ep.components[1])
        am = alpha_11(minus, em.components[0], em.components[1])
        return (ap - am) / (2 * dt)

    errs = [abs(fd(dt) - ch.alpha_dot) for dt in (1e-3, 5e-4, 2.5e-4)]
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.0)


# ---------------------------------------------------------------------------
# insertion sandwiches

def test_insertion_identities_random_states():
    g, u, v = _grid_and_orbitals(M=4)
    x = g.axis_coordinates
    V12 = Field(g, 0.7 * np.cos(2 * np.pi * x / 2.0) + 0.2 * np.cos(4 * np.pi * x / 2.0))
    basis = build_basis(4, 2, 2)
    rng = np.random.default_rng(12)
    for _ in range(10):
        st = random_state(basis, rng)
        t = insertion_terms(st, u, v, V12)
        assert len(t) == 16
        assert abs(t["pp,pp"]) < 1e-12
        assert abs(t["qq,qq"]) < 1e-12
        assert abs(t["pq,pq"] + t["qp,qp"]) < 1e-12
        assert abs(t["pp,qp"] + np.conj(t["pp,qp"])) < 1e-10
        total = sum(t.values())
        assert abs(total.real) < 1e-10  # the full commutator expectation is imaginary


def test_insertion_sum_matches_direct_commutator():
    from firstquant import axis_diagonal, orbital_project, pair_diagonal
    from becmix.grids import circulant

    g, u, v = _grid_and_orbitals(M=4)
    x = g.axis_coordinates
    V12 = Field(g, 0.6 * np.cos(2 * np.pi * x / 2.0))
    basis = build_basis(4, 2, 2)
    st = random_state(basis, np.random.default_rng(13))
    t = insertion_terms(st, u, v, V12)

    psi = firstquant_vector(st)
    us, vs = site_vector(u), site_vector(v)
    h = g.spacing
    kern = V12.values.real
    dress_a = h * (circulant(kern) @ (np.abs(v.values) ** 2))
    dress_b = h * (circulant(kern) @ (np.abs(u.values) ** 2))

    def K(xv):
        out = pair_diagonal(xv, kern, 0, 2)
        out -= axis_diagonal(xv, dress_a, 0)
        out -= axis_diagonal(xv, dress_b, 2)
        return out

    def Pbar(xv):
        acc = np.zeros_like(xv)
        for i in (0, 1):
            acc += orbital_project(xv, us, i)
        out = acc
        acc = np.zeros_like(xv)
        for r in (2, 3):
            acc += orbital_project(out, vs, r)
        return acc / 4

    direct = np.vdot(psi, K(Pbar(psi)) - Pbar(K(psi)))
    assert abs(sum(t.values()) - direct) < 1e-12


def test_insertion_terms_peak_memory():
    # T = b_y a_x psi at (3,3), M = 8 has M^2 dimA' dimB' complex entries;
    # T, one side, one commuted side and the P-bar temporaries fit in 8 T
    import tracemalloc
    g, u, v = _grid_and_orbitals(M=8)
    V12 = Field(g, 0.7 * np.cos(2 * np.pi * g.axis_coordinates / 2.0))
    basis = build_basis(8, 3, 3)
    st = random_state(basis, np.random.default_rng(15))
    t_bytes = 8**2 * basis.A.lowered.dim * basis.B.lowered.dim * 16
    insertion_terms(st, u, v, V12)       # warm caches: lowered sectors and stacks
    tracemalloc.start()
    try:
        insertion_terms(st, u, v, V12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * t_bytes


def test_insertion_zero_potential():
    g, u, v = _grid_and_orbitals(M=3)
    basis = build_basis(3, 2, 2)
    st = random_state(basis, np.random.default_rng(14))
    t = insertion_terms(st, u, v, Field(g, np.zeros(3)))
    assert max(abs(val) for val in t.values()) < 1e-14


def test_labelled_functionals_on_the_ladder_33_entry():
    # the bundled ladder's (3,3) entry at M = 10 has 10^6 labelled amplitudes
    cfg = parse_config((Path(__file__).parents[1] / "configs" / "sweep_ladder.ini").read_text())
    u, v = cfg.orbital_field("u0"), cfg.orbital_field("v0")
    st = random_state(build_basis(cfg.points, 3, 3), np.random.default_rng(20))
    t = insertion_terms(st, u, v, cfg.potential_field("v12"))
    assert abs(t["pp,pp"]) < 1e-12
    assert abs(t["qq,qq"]) < 1e-12
    assert abs(t["pq,pq"] + t["qp,qp"]) < 1e-12
    assert abs(t["pp,qp"] + np.conj(t["pp,qp"])) < 1e-10


def test_condensate_depletion_on_pure_orbital():
    g, u, v = _grid_and_orbitals(M=4)
    basis = build_basis(4, 2, 2)
    ps = product_state(u, v, basis)
    assert abs(condensate_depletion(ps, u, "A")) < 1e-12
    u_perp = _perp(u, Field(g, np.exp(2j * np.pi * g.axis_coordinates / 2.0)))
    assert condensate_depletion(ps, u_perp, "A") == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_kind_requirements():
    basis = build_basis(4, 1, 1)
    st = random_state(basis, np.random.default_rng(16))
    g, u, v = _grid_and_orbitals()
    g10 = reduce_density(st, (1, 0))
    g01 = reduce_density(st, (0, 1))
    assert trace_distance(g10, u=u) >= 0.0
    assert trace_distance(g01, v=v) >= 0.0
    with pytest.raises(IndicatorError):
        trace_distance(g01, u=v)  # missing the second-species orbital
    with pytest.raises(IndicatorError):
        trace_distance(reduce_density(st, (1, 1)), u=u)


def test_grid_consistency_guards():
    g, u, v = _grid_and_orbitals(M=4)
    g_other = Grid(1, 6, 2.0)
    x = g_other.axis_coordinates
    basis = build_basis(4, 2, 2)
    st = random_state(basis, np.random.default_rng(17))
    bad_v12 = Field(g_other, np.cos(2 * np.pi * x / 2.0))
    with pytest.raises(IndicatorError):
        insertion_terms(st, u, v, bad_v12)
    g6 = Grid(1, 6, 2.0)
    V6 = Field(g6, np.cos(2 * np.pi * x / 2.0))
    spec6 = HamiltonianSpec.mean_field(V6, V6, V6)
    with pytest.raises(IndicatorError):
        derivative_decomposition(st, u, v, spec6)


@pytest.mark.parametrize("N1,N2", [(2, 2), (3, 1)])
def test_sample_evaluator_matches_public_functions(N1, N2):
    g, _, _, _, _, _, basis, spec = _meanfield_problem(M=6, N1=N1, N2=N2)
    rng = np.random.default_rng(10 * N1 + N2)
    u, v = (normalize(Field(g, rng.standard_normal(6) + 1j * rng.standard_normal(6)))
            for _ in range(2))
    weights = (weight_s(N1), weight_n(N1), weight_m(N1, 0.2))
    evaluate = SampleEvaluator(Hamiltonian(spec, basis), weights)
    mode_a, mode_b = counting_projectors(basis, u, "A"), counting_projectors(basis, v, "B")
    for _ in range(3):
        st = random_state(basis, rng)
        ch = derivative_decomposition(st, u, v, spec)
        expected = (alpha_11(st, u, v), trace_distance(reduce_density(st, (1, 1)), u, v),
                    condensate_depletion(st, u, "A"), condensate_depletion(st, v, "B"),
                    ch.c_v1.imag, ch.c_v2.imag, ch.c_v12.imag,
                    *(weight_expectation(st, w, "A", u) for w in weights))
        got = evaluate(st, u, v)
        assert len(got) == 10
        assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-12
        # the pair-density deficit against 1 - <n_u n_v> / (N1 N2)
        n_uv = np.vdot(st.psi, mode_a.n_u(mode_b.n_u(st.psi))).real / (N1 * N2)
        assert abs(got[0] - (1.0 - n_uv)) < 1e-12


def test_one_spec_serves_channels_at_two_particle_numbers():
    g, _, _, V12, _, _, _, spec = _meanfield_problem(M=6)
    M, h, k12 = 6, g.spacing, V12.values.real
    rng = np.random.default_rng(21)
    u, v = (normalize(Field(g, rng.standard_normal(M) + 1j * rng.standard_normal(M)))
            for _ in range(2))
    # (V12 * |w|^2)(x), the dressing a particle at x feels from the other species
    dress_u, dress_v = ([h * sum(k12[(x - y) % M] * abs(w.values[y]) ** 2 for y in range(M))
                         for x in range(M)] for w in (u, v))
    for N1, N2 in ((2, 2), (3, 1)):
        basis = build_basis(M, N1, N2)
        evaluate = SampleEvaluator(Hamiltonian(spec, basis), ())
        st = random_state(basis, rng)
        ch = derivative_decomposition(st, u, v, spec)
        assert np.allclose(evaluate(st, u, v)[4:7], (ch.c_v1.imag, ch.c_v2.imag, ch.c_v12.imag),
                           rtol=0, atol=1e-12)
        # C_V12 literally: V12 / (N1 + N2) minus the dressings weighted by c2 and c1
        x12 = np.array([[sum(k12[(x - y) % M] * n[x] * m[y] for x in range(M) for y in range(M))
                         / (N1 + N2) - (N2 * np.dot(n, dress_v) + N1 * np.dot(m, dress_u))
                         / (N1 + N2) for m in basis.B.occs] for n in basis.A.occs])
        mode_a, mode_b = counting_projectors(basis, u, "A"), counting_projectors(basis, v, "B")
        pbar_psi = mode_a.n_u(mode_b.n_u(st.psi)) / (N1 * N2)
        literal = -(np.vdot(st.psi, x12 * pbar_psi) - np.vdot(pbar_psi, x12 * st.psi))
        assert abs(ch.c_v12 - literal) < 1e-13


def test_orbital_with_wrong_site_count_rejected():
    g, u, v = _grid_and_orbitals(M=6)
    _, u8, v8 = _grid_and_orbitals(M=8)
    basis = build_basis(6, 2, 2)
    st = product_state(u, v, basis)
    calls = (lambda: alpha_11(st, u8, v),
             lambda: alpha_11(st, u, v8),
             lambda: condensate_depletion(st, u8, "A"),
             lambda: condensate_depletion(st, v8, "B"),
             lambda: counting_projectors(basis, u8, "A").sector_weights(st),
             lambda: weight_expectation(st, weight_s(2), "A", u8))
    for call in calls:
        with pytest.raises(IndicatorError, match="orbital has 8 sites, the basis has 6"):
            call()


def _cos_v12(g: Grid) -> Field:
    return Field(g, np.cos(2 * np.pi * g.axis_coordinates / g.length_per_axis))


@pytest.mark.parametrize("call", [
    lambda st, u, v: alpha_11(st, u, v),
    lambda st, u, v: condensate_depletion(st, u, "A"),
    lambda st, u, v: trace_distance(reduce_density(st, (1, 1)), u, v),
    lambda st, u, v: marginal_bounds_check(st, u, v),
    lambda st, u, v: insertion_terms(st, u, v, _cos_v12(v.grid)),
], ids=["alpha_11", "condensate_depletion", "trace_distance", "marginal_bounds_check",
        "insertion_terms"])
def test_unnormalized_orbital_rejected(call):
    # 2u has squared norm 4, so an unchecked deficit 1 - <2u, gamma 2u> would read -3
    _, u, v = _grid_and_orbitals(M=4)
    st = product_state(u, v, build_basis(4, 2, 2))
    with pytest.raises(IndicatorError, match="orbital must be normalized"):
        call(st, u.with_values(2 * u.values), v)


@pytest.mark.parametrize("case,message", [
    ("odd", "potential kernel is not even under site reflection"),
    ("complex", "potential must be real"),
    ("nan", "potential must be finite"),
    ("inf", "potential must be finite"),
])
def test_insertion_terms_rejects_unusable_v12(case, message):
    g, u, v = _grid_and_orbitals(M=6, L=3.0)
    x = g.axis_coordinates
    even = np.cos(2 * np.pi * x / 3.0)
    bad = Field(g, {"odd": np.sin(2 * np.pi * x / 3.0), "complex": (1 + 0.5j) * even,
                    "nan": np.where(x == x[2], np.nan, even),
                    "inf": np.where(x == x[2], np.inf, even)}[case])
    st = product_state(u, v, build_basis(6, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way to the error
        with pytest.raises(ManyBodyError) as err:
            insertion_terms(st, u, v, bad)
    assert str(err.value) == message
    with pytest.raises(ManyBodyError) as err:
        HamiltonianSpec.mean_field(_cos_v12(g), _cos_v12(g), bad)
    assert str(err.value) == message



@settings(max_examples=15, deadline=None)
@given(seed=st_.integers(0, 10_000))
def test_insertion_identities_random_orbitals(seed):
    rng = np.random.default_rng(seed)
    g = Grid(1, 3, 2.0)
    basis = build_basis(3, 2, 2)

    def rand_orbital():
        return normalize(Field(g, rng.standard_normal(3) + 1j * rng.standard_normal(3)))

    u, v = rand_orbital(), rand_orbital()
    # random even potential: cosine combination
    x = g.axis_coordinates
    V12 = Field(g, rng.standard_normal() * np.cos(2 * np.pi * x / 2.0)
                + rng.standard_normal() * np.cos(4 * np.pi * x / 2.0))
    st = random_state(basis, rng)
    t = insertion_terms(st, u, v, V12)
    assert abs(t["pp,pp"]) < 1e-12
    assert abs(t["qq,qq"]) < 1e-12
    assert abs(t["pq,pq"] + t["qp,qp"]) < 1e-12
    assert abs(t["pp,qp"] + np.conj(t["pp,qp"])) < 1e-10
