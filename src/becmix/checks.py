"""Quick invariant battery behind `becmix check`.

Each check is a scaled-down version of a property the test suite pins
harder; the battery exists so a fresh build can be exercised end to end
in a few seconds without pytest.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import Field, make_grid, normalize, apply_laplacian, periodic_convolve, l2_norm
from .effective import CouplingSpec, OrbitalState, evolve, integrate
from .scattering import scattering_length, scale_potential, square_barrier
from .manybody import (
    Hamiltonian,
    HamiltonianSpec,
    build_basis,
    product_state,
    propagate,
    random_state,
)
from .indicators import (
    alpha_11,
    counting_projectors,
    insertion_terms,
    marginal_bounds_check,
    reduce_density,
    trace_distance,
)

__all__ = ["run_invariant_suite"]


def run_invariant_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool, str]] = []

    def record(name: str, value: float, bound: float, larger_ok: bool = False):
        ok = value >= bound if larger_ok else value <= bound
        rel = ">=" if larger_ok else "<="
        results.append((name, bool(ok), f"{value:.3e} {rel} {bound:.1e}"))

    # grid: transform norm preservation and the plane-wave eigenpair
    g = make_grid(1, 64, 2.0 * np.pi)
    f = Field(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    roundtrip = np.fft.ifftn(np.fft.fftn(f.values))
    record("grid.parseval", float(np.max(np.abs(roundtrip - f.values))), 1e-12)
    x = g.axis_coordinates
    pw = Field(g, np.exp(3j * x))
    record("grid.laplacian_eigenpair",
           float(np.max(np.abs(apply_laplacian(pw).values - 9.0 * pw.values))), 1e-10)
    delta = np.zeros(64)
    delta[0] = 1.0 / g.spacing
    rho = Field(g, np.cos(x) + 1.2)
    record("grid.convolve_delta",
           float(np.max(np.abs(periodic_convolve(Field(g, delta), rho).values - rho.values))),
           1e-10)

    # effective: conservation on a short convolution-system run
    V1 = Field(g, 0.5 * np.cos(x))
    V2 = Field(g, 0.4 * np.cos(2 * x))
    V12 = Field(g, 0.3 * np.cos(x))
    u0 = normalize(Field(g, 1 + 0.3 * np.cos(x)))
    v0 = normalize(Field(g, 1 + 0.2 * np.cos(2 * x)))
    spec = CouplingSpec.hartree(V1, V2, V12)
    traj = evolve(OrbitalState((u0, v0), 0.0), spec, 0.2, 1e-3, sample_every=50)
    masses = np.array(traj.masses)
    record("effective.mass_drift", float(np.max(np.abs(masses - masses[0]))), 1e-10)
    energies = np.array(traj.energies)
    record("effective.energy_drift",
           float(np.max(np.abs(energies - energies[0])) / abs(energies[0])), 1e-6)
    rspec = CouplingSpec.rabi(g, 0.0, 1.0)
    st = integrate(OrbitalState((u0, Field(g, np.zeros(64))), 0.0), rspec, 1e-3, [200])[0]
    m1, m2 = (l2_norm(c) ** 2 for c in st.components)
    record("effective.rabi_two_level",
           abs(m1 - math.cos(0.2) ** 2) + abs(m2 - math.sin(0.2) ** 2), 1e-8)

    # scattering: the closed-form barrier and the 1/N scaling law
    V = square_barrier(2.0, 1.0)
    a = scattering_length(V).scattering_length
    record("scattering.barrier_oracle", abs(a - (1.0 - math.tanh(1.0))), 1e-8)
    a4 = scattering_length(scale_potential(V, 4)).scattering_length
    record("scattering.scaling_law", abs(a4 - a / 4.0) / (a / 4.0), 1e-8)

    # many-body: unitarity and the condensed product state
    gm = make_grid(1, 6, 2.0 * np.pi)
    xm = gm.axis_coordinates
    basis = build_basis(6, 2, 2)
    H = Hamiltonian(HamiltonianSpec.mean_field(Field(gm, 0.4 * np.cos(xm)),
                                               Field(gm, 0.3 * np.cos(2 * xm)),
                                               Field(gm, 0.5 * np.cos(xm))), basis)
    um = normalize(Field(gm, 1 + 0.3 * np.cos(xm)))
    vm = normalize(Field(gm, 1 + 0.2 * np.cos(2 * xm)))
    psi = product_state(um, vm, basis)
    record("manybody.alpha_zero_at_product", abs(alpha_11(psi, um, vm)), 1e-12)
    fwd = propagate(H, psi, 0.05)
    back = propagate(H, fwd, -0.05)
    record("manybody.unitary_reversal",
           float(np.linalg.norm(back.psi - psi.psi)), 1e-9)

    # indicators: sandwich, chain and counting algebra on random states
    worst_slack, worst_chain = 0.0, 0.0
    for _ in range(25):
        st_r = random_state(basis, rng)
        mb = marginal_bounds_check(st_r, um, vm)
        worst_slack = max(worst_slack, mb.lhs_max - mb.middle, mb.middle - mb.rhs_sum)
        a11 = alpha_11(st_r, um, vm)
        td = trace_distance(reduce_density(st_r, (1, 1)), um, vm)
        worst_chain = max(worst_chain, a11 - td, td - 2.0 * math.sqrt(max(a11, 0.0)))
    record("indicators.marginal_sandwich_slack", worst_slack, 1e-10)
    record("indicators.trace_norm_chain_slack", worst_chain, 1e-10)
    cp = counting_projectors(basis, um, "A")
    st_r = random_state(basis, rng)
    parts = cp.split(st_r)
    record("indicators.counting_resolution",
           float(np.max(np.abs(sum(parts) - st_r.psi))), 1e-12)
    terms = insertion_terms(st_r, um, vm, Field(gm, 0.5 * np.cos(xm)))
    worst = max(abs(terms["pp,pp"]), abs(terms["qq,qq"]),
                abs(terms["pq,pq"] + terms["qp,qp"]),
                abs(terms["pp,qp"] + np.conj(terms["pp,qp"])))
    record("indicators.cancellation_identities", worst, 1e-10)
    return results
