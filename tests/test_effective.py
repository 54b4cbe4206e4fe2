import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from becmix.grids import Field, inner, make_grid, normalize, periodic_convolve
from becmix import effective
from becmix.effective import (
    CouplingSpec,
    EffectiveError,
    OrbitalState,
    conserved_energy,
    evolve,
    hartree_energy,
    integrate,
    kinetic_energy,
    magnetization,
    mass,
    step,
)


def _axes_sum(g, f):
    """sum_i f(x_i) over the coordinate arrays of g; f(x) itself on a 1-D grid."""
    return sum(f(x) for x in g.coordinate_arrays())


def _hartree_setup(M=64, L=2 * np.pi, amps=(0.8, 0.6, 0.5), c1=0.5, kinetic="spectral", dim=1):
    g = make_grid(dim, M, L)
    cos1 = _axes_sum(g, lambda x: np.cos(2 * np.pi * x / L))
    cos2 = _axes_sum(g, lambda x: np.cos(4 * np.pi * x / L))
    V1 = Field(g, amps[0] * cos1)
    V2 = Field(g, amps[1] * cos2)
    V12 = Field(g, amps[2] * cos1)
    u0 = normalize(Field(g, 1 + 0.3 * cos1))
    v0 = normalize(Field(g, 1 + 0.25 * cos2))
    spec = CouplingSpec.hartree(V1, V2, V12, c1=c1, kinetic=kinetic)
    return g, spec, OrbitalState((u0, v0), 0.0)


def test_free_plane_wave_is_exact():
    g = make_grid(1, 32, 2 * np.pi)
    x = g.axis_coordinates
    u0 = normalize(Field(g, np.exp(2j * x)))
    v0 = normalize(Field(g, np.ones(32)))
    spec = CouplingSpec.gross_pitaevskii(g, 0.0, 0.0, 0.0)
    out = step(OrbitalState((u0, v0), 0.0), spec, 0.37)
    assert np.max(np.abs(out.components[0].values - np.exp(-4j * 0.37) * u0.values)) < 1e-13
    assert out.time == pytest.approx(0.37)


def test_rabi_two_level_oracle():
    g = make_grid(1, 32, 2 * np.pi)
    x = g.axis_coordinates
    phi = normalize(Field(g, np.exp(-((x - np.pi) ** 2))))
    spec = CouplingSpec.rabi(g, 0.0, 1.0)
    state = OrbitalState((phi, Field(g, np.zeros(32))), 0.0)
    traj = evolve(state, spec, 1.0, 1e-3, sample_every=1000)
    m1, m2 = traj.masses[-1]
    assert abs(m1 - math.cos(1.0) ** 2) < 1e-6
    assert abs(m2 - math.sin(1.0) ** 2) < 1e-6


def test_rabi_time_dependent_field_midpoint():
    # B(t) = t: the accumulated angle is t^2/2, exact for the midpoint rule
    g = make_grid(1, 16, 2 * np.pi)
    phi = normalize(Field(g, np.ones(16)))
    spec = CouplingSpec.rabi(g, 0.0, lambda t: t)
    state = OrbitalState((phi, Field(g, np.zeros(16))), 0.0)
    for _ in range(1000):
        state = step(state, spec, 1e-3)
    m1, m2 = mass(state)
    assert abs(m1 - math.cos(0.5) ** 2) < 1e-6
    assert abs(m2 - math.sin(0.5) ** 2) < 1e-6


def test_bright_soliton_oracle_focusing_sign():
    L, M, eta = 40.0, 256, 1.0
    g = make_grid(1, M, L)
    x = g.axis_coordinates - L / 2
    a1 = -1.0 / (8 * np.pi)  # focusing cubic coefficient g = 1
    prof = eta * np.sqrt(2.0) / np.cosh(eta * x)
    state = OrbitalState((Field(g, prof.astype(complex)), Field(g, np.zeros(M))), 0.0)
    spec = CouplingSpec.gross_pitaevskii(g, a1, 0.0, 0.0)
    for _ in range(1000):
        state = step(state, spec, 1e-3)
    exact = prof * np.exp(1j * eta**2)
    assert np.max(np.abs(state.components[0].values - exact)) < 1e-4


def test_second_order_against_fine_reference():
    _, spec, state0 = _hartree_setup()

    def final(dt):
        st = state0
        for _ in range(int(round(0.5 / dt))):
            st = step(st, spec, dt)
        return np.concatenate([c.values for c in st.components])

    ref = final(0.5e-3 / 4)
    errs = [np.linalg.norm(final(dt) - ref) for dt in (4e-3, 2e-3, 1e-3)]
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)
    assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.2)


def test_mass_and_energy_conservation_hartree():
    _, spec, state0 = _hartree_setup()
    traj = evolve(state0, spec, 1.0, 1e-3, sample_every=100)
    masses = np.array(traj.masses)
    assert np.max(np.abs(masses - masses[0])) < 1e-10
    energies = np.array(traj.energies)
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-6


def test_energy_conserved_with_asymmetric_populations():
    # the c-weighted functional must be flat even when c1 != 1/2
    _, spec, state0 = _hartree_setup(c1=0.3)
    traj = evolve(state0, spec, 0.5, 1e-3, sample_every=100)
    energies = np.array(traj.energies)
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-6


def test_gp_conserved_energy_examples_and_conservation():
    # constant fields on a unit-volume box with a1 = a2 = 1, c1 = 1/2: 2 pi + 2 pi
    g = make_grid(1, 16, 1.0)
    u = normalize(Field(g, np.ones(16)))
    spec = CouplingSpec.gross_pitaevskii(g, 1.0, 1.0, 0.0)
    st = OrbitalState((u, u), 0.0)
    assert conserved_energy(st, spec) == pytest.approx(4 * np.pi, rel=1e-12)

    g2 = make_grid(1, 32, 2 * np.pi)
    x = g2.axis_coordinates
    u2 = normalize(Field(g2, np.exp(2j * x)))
    v2 = normalize(Field(g2, np.ones(32)))
    spec2 = CouplingSpec.gross_pitaevskii(g2, 0.0, 0.0, 0.0)
    # kinetic energies 4 and 0, weighted by c1 = c2 = 1/2
    assert conserved_energy(OrbitalState((u2, v2), 0.0), spec2) == pytest.approx(2.0, rel=1e-12)

    # without cross coupling the functional is conserved along the flow
    spec3 = CouplingSpec.gross_pitaevskii(g2, 0.02, 0.015, 0.0)
    st3 = OrbitalState((normalize(Field(g2, 1 + 0.3 * np.cos(x))),
                        normalize(Field(g2, 1 + 0.2 * np.cos(2 * x)))), 0.0)
    vals = [conserved_energy(st3, spec3)]
    for _ in range(1000):
        st3 = step(st3, spec3, 1e-3)
        vals.append(conserved_energy(st3, spec3))
    drift = np.max(np.abs(np.array(vals) - vals[0])) / abs(vals[0])
    assert drift < 1e-6


def test_gp_conserved_energy_with_cross_coupling():
    g = make_grid(1, 32, 2 * np.pi)
    x = g.axis_coordinates
    spec = CouplingSpec.gross_pitaevskii(g, 0.02, 0.015, 0.01, c1=0.4)
    st = OrbitalState((normalize(Field(g, 1 + 0.3 * np.cos(x))),
                       normalize(Field(g, 1 + 0.2 * np.cos(2 * x)))), 0.0)
    traj = evolve(st, spec, 1.0, 1e-3, sample_every=100)
    energies = np.array(traj.energies)
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-6


def test_hartree_energy_values():
    g, spec, st = _hartree_setup(M=32, amps=(0.0, 0.0, 0.0))
    u, v = st.components
    expect = spec.c1 * kinetic_energy(u) + spec.c2 * kinetic_energy(v)
    assert hartree_energy(st, spec) == pytest.approx(expect, rel=1e-12)

    # delta-like V1 acting on a constant u: c2 kin(v) + (c1/2) int |u|^4
    g2 = make_grid(1, 16, 1.0)
    x2 = g2.axis_coordinates
    delta = np.zeros(16)
    delta[0] = 1.0 / g2.spacing
    V1 = Field(g2, delta)
    zero = Field(g2, np.zeros(16))
    u2 = normalize(Field(g2, np.ones(16)))
    v2 = normalize(Field(g2, 1 + 0.4 * np.cos(2 * np.pi * x2)))
    spec2 = CouplingSpec.hartree(V1, zero, zero, c1=0.5)
    st2 = OrbitalState((u2, v2), 0.0)
    expect2 = 0.5 * kinetic_energy(v2) + 0.25  # int |u|^4 = 1 on the unit box
    assert hartree_energy(st2, spec2) == pytest.approx(expect2, rel=1e-12)


def test_conserved_energy_values_of_every_mode():
    # each mode's energy against its integral written out, on a non-uniform
    # state with every coupling nonzero
    g = make_grid(1, 32, 2 * np.pi)
    x = g.axis_coordinates
    u = normalize(Field(g, (1 + 0.3 * np.cos(x)) * np.exp(1j * x)))
    v = normalize(Field(g, 1 + 0.2 * np.cos(2 * x) + 0.1j * np.sin(x)))
    w = normalize(Field(g, 1 + 0.25 * np.sin(3 * x)))
    rho_u, rho_v = (Field(g, np.abs(f.values) ** 2) for f in (u, v))
    kin_u, kin_v, kin_w = (kinetic_energy(f) for f in (u, v, w))

    def integral(f1, f2):
        return inner(f1, f2).real

    V1, V2 = Field(g, 0.8 * np.cos(x)), Field(g, 0.6 * np.cos(2 * x))
    V12 = Field(g, 0.5 * np.cos(x) + 0.2)
    c1, c2 = 0.3, 0.7
    hartree = CouplingSpec.hartree(V1, V2, V12, c1=c1)
    expect = (c1 * kin_u + c2 * kin_v
              + 0.5 * c1 * integral(rho_u, periodic_convolve(V1, rho_u))
              + 0.5 * c2 * integral(rho_v, periodic_convolve(V2, rho_v))
              + c1 * c2 * integral(rho_u, periodic_convolve(V12, rho_v)))
    assert conserved_energy(OrbitalState((u, v)), hartree) == pytest.approx(expect, rel=1e-12)

    a1, a2, a12, c1, c2 = 0.02, 0.015, 0.01, 0.4, 0.6
    gp = CouplingSpec.gross_pitaevskii(g, a1, a2, a12, c1=c1)
    expect = (c1 * kin_u + c2 * kin_v + 4 * np.pi * a1 * c1 * integral(rho_u, rho_u)
              + 4 * np.pi * a2 * c2 * integral(rho_v, rho_v)
              + 8 * np.pi * a12 * c1 * c2 * integral(rho_u, rho_v))
    assert conserved_energy(OrbitalState((u, v)), gp) == pytest.approx(expect, rel=1e-12)

    rabi = CouplingSpec.rabi(g, 0.03, lambda t: 0.7 + 0.3 * t)
    n_tot = Field(g, rho_u.values + rho_v.values)
    expect = (kin_u + kin_v + 4 * np.pi * 0.03 * integral(n_tot, n_tot)
              + 2 * (0.7 + 0.3 * 0.4) * inner(u, v).real)
    at_t = OrbitalState((u, v), time=0.4)
    assert conserved_energy(at_t, rabi) == pytest.approx(expect, rel=1e-12)

    # spin1: F_a = psi^+ F_a psi with the spin-1 matrices
    s = 1 / np.sqrt(2)
    matrices = [s * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                s * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]),
                np.diag([1.0, 0.0, -1.0])]
    psi = np.array([u.values, v.values, w.values])
    F = [Field(g, np.einsum("ix,ij,jx->x", psi.conj(), m, psi).real) for m in matrices]
    expect = kin_u + kin_v + kin_w + 4 * np.pi * 0.05 * sum(integral(f, f) for f in F)
    spin1 = CouplingSpec.spin1(g, 0.05)
    assert conserved_energy(OrbitalState((u, v, w)), spin1) == pytest.approx(expect, rel=1e-12)


def test_wrong_mode_errors():
    g, spec, st = _hartree_setup(M=16)
    spec_gp = CouplingSpec.gross_pitaevskii(g, 0.0, 0.0, 0.0)
    with pytest.raises(EffectiveError):
        hartree_energy(st, spec_gp)


def test_evolve_sampling_and_monotone_times():
    _, spec, st = _hartree_setup(M=16)
    traj = evolve(st, spec, 10e-3, 1e-3, sample_every=1)
    assert len(traj.times) == 11
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_time_reversal():
    for mode in ("hartree", "gp", "rabi"):
        if mode == "hartree":
            _, spec, st = _hartree_setup(M=32)
        else:
            g = make_grid(1, 32, 2 * np.pi)
            x = g.axis_coordinates
            u0 = normalize(Field(g, 1 + 0.3 * np.cos(x)))
            v0 = normalize(Field(g, 1 + 0.2 * np.cos(2 * x)))
            if mode == "gp":
                spec = CouplingSpec.gross_pitaevskii(g, 0.03, 0.02, 0.01)
            else:
                spec = CouplingSpec.rabi(g, 0.03, 0.7)
            st = OrbitalState((u0, v0), 0.0)
        start = np.concatenate([c.values for c in st.components])
        fwd = st
        for _ in range(200):
            fwd = step(fwd, spec, 1e-3)
        back = fwd
        for _ in range(200):
            back = step(back, spec, -1e-3)
        final = np.concatenate([c.values for c in back.components])
        assert np.max(np.abs(final - start)) < 1e-8, mode


def _reference_potential_flow(spec, arrays, tau, t):
    """The potential substep of length tau whose midpoint is t, with every
    convolution done by periodic_convolve and each W written out."""
    if spec.mode == "spin1":  # a pointwise flow, checked by test_spin1_exchange_flow_is_exact
        return list(effective._potential_flow(spec)(np.array(arrays), tau, 0.0))
    u, v = arrays
    rho_u = Field(spec.grid, np.abs(u) ** 2)
    rho_v = Field(spec.grid, np.abs(v) ** 2)
    if spec.mode == "hartree":
        Wu = periodic_convolve(spec.V1, rho_u).values.real \
            + spec.c2 * periodic_convolve(spec.V12, rho_v).values.real
        Wv = periodic_convolve(spec.V2, rho_v).values.real \
            + spec.c1 * periodic_convolve(spec.V12, rho_u).values.real
    elif spec.mode == "gross_pitaevskii":
        Wu = 8 * np.pi * (spec.a1 * rho_u.values.real + spec.c2 * spec.a12 * rho_v.values.real)
        Wv = 8 * np.pi * (spec.a2 * rho_v.values.real + spec.c1 * spec.a12 * rho_u.values.real)
    else:
        Wu = Wv = 8 * np.pi * spec.a * (rho_u.values.real + rho_v.values.real)
    u, v = np.exp(-1j * tau * Wu) * u, np.exp(-1j * tau * Wv) * v
    if spec.mode == "rabi":
        theta = tau * spec.rabi_field(t)
        u, v = np.cos(theta) * u - 1j * np.sin(theta) * v, np.cos(theta) * v - 1j * np.sin(theta) * u
    return [u, v]


def _reference_step(state, spec, dt):
    """The Strang step with the kinetic flow done by fftn and the potential
    substeps by `_reference_potential_flow`."""
    t = state.time
    arrays = _reference_potential_flow(spec, [c.values for c in state.components], 0.5 * dt,
                                       t + 0.25 * dt)
    kin_phase = np.exp(-1j * dt * spec.grid.laplacian_symbol(spec.kinetic))
    arrays = [np.fft.ifftn(kin_phase * np.fft.fftn(a)) for a in arrays]
    arrays = _reference_potential_flow(spec, arrays, 0.5 * dt, t + 0.75 * dt)
    return OrbitalState(tuple(Field(spec.grid, a) for a in arrays), t + dt)


def _values(state):
    return np.concatenate([c.values for c in state.components])


def test_hartree_step_matches_convolution_reference():
    # unequal c1 and potentials, so a swapped transform or weight shows
    _, spec, st = _hartree_setup(M=32, c1=0.3, kinetic="stencil")
    for dt in (0.05, -0.02):
        ref = _values(_reference_step(st, spec, dt))
        assert np.max(np.abs(_values(step(st, spec, dt)) - ref)) <= 1e-14


def test_hartree_step_then_reverse_step_is_identity():
    _, spec, st = _hartree_setup(M=32, c1=0.3)
    for dt in (0.05, 0.01):
        back = step(step(st, spec, dt), spec, -dt)
        assert np.max(np.abs(_values(back) - _values(st))) <= 1e-12


def test_replaced_spec_uses_its_own_potential_transforms():
    g, spec, st = _hartree_setup(M=32)
    first = step(st, spec, 0.05)
    x = g.axis_coordinates
    other = dataclasses.replace(spec, V12=Field(g, 1.5 * np.cos(2 * x)))
    moved = step(st, other, 0.05)
    assert np.max(np.abs(_values(moved) - _values(first))) > 1e-6
    assert np.max(np.abs(_values(moved) - _values(_reference_step(st, other, 0.05)))) <= 1e-14
    with pytest.raises(EffectiveError, match="V12 must be real"):
        dataclasses.replace(spec, V12=Field(g, 1j * np.cos(x)))


def test_laplacian_symbol_is_cached_per_kind_and_read_only():
    g = make_grid(1, 16, 2 * np.pi)
    symbol = g.laplacian_symbol("stencil")
    assert g.laplacian_symbol("stencil") is symbol
    assert np.array_equal(g.laplacian_symbol("spectral"), g.wavenumbers[0] ** 2)
    with pytest.raises(ValueError):
        symbol[0] = 1.0


def test_evolve_rejects_final_time_off_the_step_lattice():
    _, spec, st = _hartree_setup(M=16)
    with pytest.raises(EffectiveError, match="not a multiple of dt"):
        evolve(st, spec, 1.0, 0.4)


@settings(max_examples=10, deadline=None)
@given(theta1=st.floats(0, 2 * np.pi), theta2=st.floats(0, 2 * np.pi))
def test_gauge_covariance_mixture(theta1, theta2):
    _, spec, st = _hartree_setup(M=16)
    u, v = st.components
    rotated = OrbitalState((Field(u.grid, np.exp(1j * theta1) * u.values),
                            Field(v.grid, np.exp(1j * theta2) * v.values)), 0.0)
    a = step(st, spec, 1e-2)
    b = step(rotated, spec, 1e-2)
    assert np.max(np.abs(b.components[0].values
                         - np.exp(1j * theta1) * a.components[0].values)) < 1e-12
    assert np.max(np.abs(b.components[1].values
                         - np.exp(1j * theta2) * a.components[1].values)) < 1e-12


def test_rabi_common_phase_only():
    g = make_grid(1, 16, 2 * np.pi)
    x = g.axis_coordinates
    u = normalize(Field(g, 1 + 0.3 * np.cos(x)))
    v = normalize(Field(g, 1 + 0.2 * np.cos(2 * x)))
    spec = CouplingSpec.rabi(g, 0.02, 0.8)
    st = OrbitalState((u, v), 0.0)
    theta = 0.83
    common = OrbitalState((Field(g, np.exp(1j * theta) * u.values),
                           Field(g, np.exp(1j * theta) * v.values)), 0.0)
    a, b = step(st, spec, 1e-2), step(common, spec, 1e-2)
    for i in range(2):
        assert np.max(np.abs(b.components[i].values
                             - np.exp(1j * theta) * a.components[i].values)) < 1e-12
    # a relative phase does not commute with the population transfer
    rel = OrbitalState((u, Field(g, np.exp(1j * theta) * v.values)), 0.0)
    c = step(rel, spec, 1e-2)
    assert np.max(np.abs(c.components[0].values - a.components[0].values)) > 1e-6


def _spin1_state(g):
    u = normalize(Field(g, np.exp(-_axes_sum(g, lambda x: (x - np.pi) ** 2))))
    v = normalize(Field(g, np.exp(-_axes_sum(g, lambda x: (x - np.pi + 0.5) ** 2))
                        * np.exp(1j * _axes_sum(g, lambda x: x))))
    return OrbitalState((Field(g, u.values * np.sqrt(0.5)),
                         Field(g, v.values * np.sqrt(0.5)),
                         Field(g, np.zeros(g.shape))), 0.0)


def test_spin1_conservation_and_exchange_activity():
    g = make_grid(1, 32, 2 * np.pi)
    spec = CouplingSpec.spin1(g, 0.05)
    traj = evolve(_spin1_state(g), spec, 1.0, 1e-3, sample_every=100)
    masses = np.array(traj.masses)
    total = masses.sum(axis=1)
    assert np.max(np.abs(total - total[0])) < 1e-8
    mags = np.array(traj.magnetizations)
    assert np.max(np.abs(mags - mags[0])) < 1e-8
    assert np.max(np.abs(masses - masses[0])) > 1e-2  # exchange is really moving mass
    energies = np.array(traj.energies)
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-5


def test_spin1_absurd_step_conserves_mass_and_magnetization():
    g = make_grid(1, 16, 2 * np.pi)
    st = _spin1_state(g)
    out = step(st, CouplingSpec.spin1(g, 5.0), 5.0)
    assert abs(sum(mass(out)) - sum(mass(st))) < 1e-12
    assert abs(magnetization(out) - magnetization(st)) < 1e-12


def _spin_exchange_rhs(u, v, w, g):
    """i ds/dt = g (F.f) s written out per component (oracle for the exact flow)."""
    du = (np.abs(v) ** 2) * u + np.conj(w) * v * v + (np.abs(u) ** 2) * u - (np.abs(w) ** 2) * u
    dv = (np.abs(u) ** 2) * v + 2.0 * np.conj(v) * w * u + (np.abs(w) ** 2) * v
    dw = (np.abs(v) ** 2) * w + np.conj(u) * v * v - (np.abs(u) ** 2) * w + (np.abs(w) ** 2) * w
    return [(-1j * g) * du, (-1j * g) * dv, (-1j * g) * dw]


def test_spin1_exchange_flow_is_exact():
    from becmix.effective import _potential_flow

    g = make_grid(1, 32, 2 * np.pi)
    rng = np.random.default_rng(0)
    s = [rng.normal(size=32) + 1j * rng.normal(size=32) for _ in range(3)]
    for c in s:
        c[3] = 0.0  # a point with F = 0
    spec = CouplingSpec.spin1(g, 0.05)

    def flow(arrays, tau):
        return _potential_flow(spec)(arrays, tau, 0.0)

    def spin_density(arrays):
        u, v, w = arrays
        return np.abs(u) ** 2 - np.abs(w) ** 2, np.conj(u) * v + np.conj(v) * w

    h = 1e-6
    deriv = [(p - m) / (2 * h) for p, m in zip(flow(s, h), flow(s, -h))]
    rhs = _spin_exchange_rhs(*s, 8.0 * np.pi * spec.a)
    assert max(np.max(np.abs(d - r)) for d, r in zip(deriv, rhs)) < 1e-8
    composed, direct = flow(flow(s, 0.4), 0.3), flow(s, 0.7)
    assert max(np.max(np.abs(a - b)) for a, b in zip(composed, direct)) < 1e-12
    assert max(np.max(np.abs(a - b))
               for a, b in zip(spin_density(s), spin_density(direct))) < 1e-12
    assert all(c[3] == 0.0 for c in direct)


def test_spin1_strang_second_order():
    g = make_grid(1, 32, 2 * np.pi)
    spec = CouplingSpec.spin1(g, 0.05)

    def final(dt, T=0.5):
        st = _spin1_state(g)
        for _ in range(int(round(T / dt))):
            st = step(st, spec, dt)
        return np.concatenate([c.values for c in st.components])

    ref = final(1e-4)
    e1, e2, e3 = (np.linalg.norm(final(dt) - ref) for dt in (1e-2, 5e-3, 2.5e-3))
    assert 3.5 < e1 / e2 < 4.5 and 3.5 < e2 / e3 < 4.5


def _four_modes(M=32, dim=1):
    g, hartree, st = _hartree_setup(M=M, c1=0.3, dim=dim)
    phase = np.exp(1j * _axes_sum(g, lambda x: x))
    pair = OrbitalState((normalize(Field(g, (1 + 0.3 * _axes_sum(g, np.cos)) * phase)),
                         normalize(Field(g, 1 + 0.2 * _axes_sum(g, lambda x: np.cos(2 * x))))),
                        0.1)
    return [
        (hartree, st),
        (CouplingSpec.gross_pitaevskii(g, 0.3, 0.2, 0.25, c1=0.3), pair),
        # time dependent B: the fused halves add B at t_k - dt/4 and t_k + dt/4
        (CouplingSpec.rabi(g, 0.2, lambda t: 1.0 + np.sin(3.0 * t)), pair),
        (CouplingSpec.spin1(g, 0.4), _spin1_state(g)),
    ]


def _chained_steps(st, spec, dt, keep):
    out = []
    for k in range(1, keep[-1] + 1):
        st = step(st, spec, dt)
        if k in keep:
            out.append(st)
    return out


@pytest.mark.parametrize("case", range(4), ids=["hartree", "gp", "rabi_B_of_t", "spin1"])
def test_fused_trajectory_matches_chained_steps(case):
    spec, st = _four_modes()[case]
    dt, start = 7e-3, dataclasses.replace(st, time=0.0)
    traj = evolve(start, spec, 50 * dt, dt, sample_every=7)  # 7 does not divide 50
    sampled = [start, *_chained_steps(start, spec, dt, [*range(7, 50, 7), 50])]
    # off-grid sample steps from a start time other than 0, run backwards
    off_grid = integrate(st, spec, -dt, [3, 4, 11])
    for got, want in ((traj.states, sampled),
                      (off_grid, _chained_steps(st, spec, -dt, [3, 4, 11]))):
        assert [s.time for s in got] == [s.time for s in want]
        for a, b in zip(got, want, strict=True):
            assert np.max(np.abs(_values(a) - _values(b))) < 1e-12


@pytest.mark.parametrize("M, dim, dense", [(64, 1, True), (128, 1, False), (16, 2, False)],
                         ids=["dense-M64", "fft-M128", "fft-dim2"])
@pytest.mark.parametrize("case", range(4), ids=["hartree", "gp", "rabi_B_of_t", "spin1"])
def test_strang_steps_match_the_transform_reference(M, dim, dense, case):
    # 1-D grids of at most DENSE_MAX_POINTS points apply the circulant operators as dense
    # matrices, the others transform; both agree with the fftn/periodic_convolve step
    spec, st = _four_modes(M, dim)[case]
    assert effective._dense(spec.grid) is dense
    dt = 1e-3
    assert np.max(np.abs(_values(step(st, spec, dt)) - _values(_reference_step(st, spec, dt)))) \
        <= 1e-14
    ref = st
    for _ in range(1000):
        ref = _reference_step(ref, spec, dt)
    assert np.max(np.abs(_values(integrate(st, spec, dt, [1000])[0]) - _values(ref))) <= 1e-12


def test_gross_pitaevskii_mass_drift_on_the_dense_path():
    # the dense kinetic flow is unitary to round-off only: pin the drift of 20,000
    # steps (2.0e-13 seen with an 80-bit long double, 4.5e-12 from a float64 ifft)
    spec, st = _four_modes(M=64)[1]
    assert effective._dense(spec.grid)
    end = integrate(st, spec, 1e-3, [20_000])[0]
    extended = np.finfo(np.longdouble).eps < np.finfo(float).eps
    assert max(abs(a - b) for a, b in zip(mass(end), mass(st))) <= (1e-12 if extended else 1e-11)


def test_integrate_rejects_bad_sample_steps():
    spec, st = _four_modes()[0]
    for steps in ([], [0, 2], [3, 3], [4, 2]):
        with pytest.raises(EffectiveError, match="increasing counts"):
            integrate(st, spec, 1e-3, steps)


@pytest.mark.parametrize("T, dt", [(math.nan, 1e-3), (1.0, math.nan), (math.inf, 1e-3),
                                   (1.0, math.inf), (1.0, 1e-320)])
def test_evolve_rejects_non_finite_time_arguments(T, dt):
    _, spec, st = _hartree_setup(M=16)
    with pytest.raises(EffectiveError, match="finite|too small"):
        evolve(st, spec, T, dt)


def test_unknown_mode_rejected_at_construction():
    with pytest.raises(EffectiveError, match="unknown mode 'foo'"):
        CouplingSpec(mode="foo", grid=make_grid(1, 16, 2 * np.pi))


def test_missing_mode_fields_rejected_at_construction():
    g = make_grid(1, 16, 2 * np.pi)
    with pytest.raises(EffectiveError, match="hartree mode needs the potential V1"):
        CouplingSpec(mode="hartree", grid=g)
    V = Field(g, np.cos(g.coordinate_arrays()[0]))
    with pytest.raises(EffectiveError, match="potential V12"):
        CouplingSpec(mode="hartree", grid=g, V1=V, V2=V)
    with pytest.raises(EffectiveError, match="rabi mode needs the field rabi_field"):
        CouplingSpec(mode="rabi", grid=g)
    spec = CouplingSpec.rabi(g, 0.1, 0.5)
    with pytest.raises(EffectiveError, match="rabi_field"):
        dataclasses.replace(spec, rabi_field=None)


def test_unknown_kinetic_rejected_at_construction():
    g = make_grid(1, 16, 2 * np.pi)
    with pytest.raises(EffectiveError, match="spectal"):
        CouplingSpec.gross_pitaevskii(g, 0.1, 0.1, 0.1, kinetic="spectal")
    with pytest.raises(EffectiveError):
        CouplingSpec.spin1(g, 0.1, kinetic="spectal")


def test_component_count_mismatch_and_nonfinite():
    g = make_grid(1, 16, 2 * np.pi)
    u = normalize(Field(g, np.ones(16)))
    spec = CouplingSpec.spin1(g, 0.1)
    with pytest.raises(EffectiveError):
        step(OrbitalState((u, u), 0.0), spec, 1e-3)
    bad = Field(g, np.full(16, np.nan, dtype=complex))
    spec2 = CouplingSpec.gross_pitaevskii(g, 0.0, 0.0, 0.0)
    with pytest.raises(EffectiveError):
        step(OrbitalState((bad, u), 0.0), spec2, 1e-3)


def test_potentials_must_be_even_and_real():
    g = make_grid(1, 16, 2.0)
    x = g.axis_coordinates
    odd = Field(g, np.sin(2 * np.pi * x / 2.0))
    even = Field(g, np.cos(2 * np.pi * x / 2.0))
    with pytest.raises(EffectiveError):
        CouplingSpec.hartree(odd, even, even)
    with pytest.raises(EffectiveError):
        CouplingSpec.hartree(Field(g, even.values * 1j), even, even)
    for bad in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no RuntimeWarning on the way to the error
            with pytest.raises(EffectiveError, match="potential V12 must be finite"):
                CouplingSpec.hartree(even, even, Field(g, np.where(x == x[3], bad, even.values)))


def test_hartree_rejects_a_potential_odd_along_one_axis_of_a_2d_grid():
    g = make_grid(2, 8, 2.0)
    x, y = g.coordinate_arrays()
    even = Field(g, np.cos(np.pi * x) * np.cos(np.pi * y))
    odd_in_y = Field(g, np.cos(np.pi * x) * np.sin(np.pi * y))
    with pytest.raises(EffectiveError, match="potential V12 is not even under x -> -x"):
        CouplingSpec.hartree(even, even, odd_in_y)


def test_trajectory_csv(tmp_path):
    g = make_grid(1, 16, 2 * np.pi)
    spec = CouplingSpec.spin1(g, 0.05)
    traj = evolve(_spin1_state(g), spec, 0.05, 1e-2, sample_every=1)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"t,mass_1,mass_2,mass_3,energy,magnetization"
    assert len([ln for ln in lines if ln]) == 1 + len(traj.times)


def test_magnetization_requires_three_components():
    g = make_grid(1, 8, 1.0)
    u = normalize(Field(g, np.ones(8)))
    with pytest.raises(EffectiveError):
        magnetization(OrbitalState((u, u), 0.0))


def test_trajectory_snapshots_roundtrip(tmp_path):
    from becmix.grids import load_field

    g = make_grid(1, 16, 2 * np.pi)
    spec = CouplingSpec.spin1(g, 0.05)
    traj = evolve(_spin1_state(g), spec, 0.02, 1e-2, sample_every=1)
    snap = tmp_path / "snaps"
    snap.mkdir()
    traj.write_csv(tmp_path / "t.csv", snapshot_dir=snap)
    files = sorted(snap.glob("snap_*_c1.bin"))
    assert len(files) == len(traj.times)
    first = load_field(files[0])
    assert np.array_equal(first.values, traj.states[0].components[0].values)
