"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Numbering follows the criteria catalogue; each test is
self-contained and prints PASS/FAIL with the measured numbers before
asserting.
"""

import math
import time

import numpy as np
import pytest

from becmix.config import parse_config
from becmix.effective import CouplingSpec, OrbitalState, evolve, step
from becmix.grids import Field, make_grid, normalize
from becmix.harness import emit_report, run_convergence_sweep
from becmix.indicators import (
    alpha_11,
    counting_projectors,
    derivative_decomposition,
    insertion_terms,
    marginal_bounds_check,
    reduce_density,
    trace_distance,
    weight_m,
    weight_n,
    weight_s,
)
from becmix.manybody import (
    Hamiltonian,
    HamiltonianSpec,
    build_basis,
    manybody_energy,
    product_state,
    random_state,
)
from becmix.scattering import (
    calibrate_shell,
    scale_potential,
    scattering_length,
    square_barrier,
)


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_scattering_oracle_and_scaling():
    t0 = time.perf_counter()
    barrier = square_barrier(2.0, 1.0)
    a = scattering_length(barrier).scattering_length
    exact = 1.0 - math.tanh(1.0)
    err_a = abs(a - exact)
    worst_rel = 0.0
    for N in (2, 4, 8):
        aN = scattering_length(scale_potential(barrier, N, 1.0)).scattering_length
        worst_rel = max(worst_rel, abs(aN - a / N) / (a / N))
    elapsed = time.perf_counter() - t0
    _report(1, err_a < 1e-6 and worst_rel < 1e-8 and elapsed < 1.0,
            f"|da|={err_a:.2e} (<1e-6), scaling rel={worst_rel:.2e} (<1e-8), {elapsed:.2f}s (<1s)")


def test_c02_shell_calibration():
    t0 = time.perf_counter()
    barrier = square_barrier(2.0, 1.0)
    C, res = calibrate_shell(barrier, 32, 1.0)
    residual = res.scattering_length
    elapsed = time.perf_counter() - t0
    _report(2, abs(residual) < 1e-8 * barrier.support_radius and elapsed < 5.0,
            f"C={C:.9f}, |a_mod|={abs(residual):.2e} (<1e-8), {elapsed:.2f}s (<5s)")


def _hartree_problem(M=64):
    g = make_grid(1, M, 2 * np.pi)
    x = g.axis_coordinates
    V1 = Field(g, 0.6 * np.cos(x))
    V2 = Field(g, 0.5 * np.cos(2 * x))
    V12 = Field(g, 0.4 * np.cos(x))
    u0 = normalize(Field(g, 1 + 0.3 * np.cos(x)))
    v0 = normalize(Field(g, 1 + 0.25 * np.cos(2 * x)))
    return CouplingSpec.hartree(V1, V2, V12), OrbitalState((u0, v0), 0.0)


def test_c03_effective_order_and_conservation():
    t0 = time.perf_counter()
    spec, state0 = _hartree_problem()

    def final(dt, T=0.5):
        st = state0
        for _ in range(int(round(T / dt))):
            st = step(st, spec, dt)
        return np.concatenate([c.values for c in st.components])

    ref = final(2.5e-4 / 2)
    e1 = np.linalg.norm(final(4e-3) - ref)
    e2 = np.linalg.norm(final(2e-3) - ref)
    e3 = np.linalg.norm(final(1e-3) - ref)
    orders = (math.log2(e1 / e2), math.log2(e2 / e3))

    traj = evolve(state0, spec, 1.0, 1e-3, sample_every=100)
    masses = np.array(traj.masses)
    mass_drift = float(np.max(np.abs(masses - masses[0])))
    energies = np.array(traj.energies)
    energy_drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    elapsed = time.perf_counter() - t0
    ok = (all(abs(o - 2.0) <= 0.2 for o in orders)
          and mass_drift < 1e-10 and energy_drift < 1e-6 and elapsed < 30.0)
    _report(3, ok, f"orders={orders[0]:.3f},{orders[1]:.3f} (2.0+-0.2), "
                   f"mass drift={mass_drift:.2e} (<1e-10), "
                   f"energy drift={energy_drift:.2e} (<1e-6), {elapsed:.1f}s (<30s)")


def test_c04_rabi_oracle():
    t0 = time.perf_counter()
    g = make_grid(1, 32, 2 * np.pi)
    x = g.axis_coordinates
    phi = normalize(Field(g, np.exp(-((x - np.pi) ** 2))))
    spec = CouplingSpec.rabi(g, 0.0, 1.0)
    traj = evolve(OrbitalState((phi, Field(g, np.zeros(32))), 0.0), spec, 1.0, 1e-3,
                  sample_every=1000)
    m1, m2 = traj.masses[-1]
    err = max(abs(m1 - math.cos(1.0) ** 2), abs(m2 - math.sin(1.0) ** 2))
    elapsed = time.perf_counter() - t0
    _report(4, err < 1e-6 and elapsed < 5.0,
            f"population err={err:.2e} (<1e-6), {elapsed:.2f}s (<5s)")


def test_c05_spin1_conservation_with_active_exchange():
    t0 = time.perf_counter()
    g = make_grid(1, 32, 2 * np.pi)
    x = g.axis_coordinates
    u = normalize(Field(g, np.exp(-((x - np.pi) ** 2))))
    v = normalize(Field(g, np.exp(-((x - np.pi + 0.5) ** 2)) * np.exp(1j * x)))
    state = OrbitalState((Field(g, u.values * np.sqrt(0.5)),
                          Field(g, v.values * np.sqrt(0.5)),
                          Field(g, np.zeros(32))), 0.0)
    traj = evolve(state, spec := CouplingSpec.spin1(g, 0.05), 1.0, 1e-3, sample_every=100)
    masses = np.array(traj.masses)
    total = masses.sum(axis=1)
    total_drift = float(np.max(np.abs(total - total[0])))
    mags = np.array(traj.magnetizations)
    mag_drift = float(np.max(np.abs(mags - mags[0])))
    component_change = float(np.max(np.abs(masses - masses[0])))
    elapsed = time.perf_counter() - t0
    ok = (total_drift < 1e-8 and mag_drift < 1e-8
          and component_change > 1e-2 and elapsed < 30.0)
    _report(5, ok, f"total drift={total_drift:.2e} (<1e-8), "
                   f"magnetization drift={mag_drift:.2e} (<1e-8), "
                   f"component change={component_change:.2e} (>1e-2), {elapsed:.1f}s (<30s)")


def test_c06_marginal_and_chain_theorems():
    t0 = time.perf_counter()
    g = make_grid(1, 4, 2.0)
    x = g.axis_coordinates
    u = normalize(Field(g, 1 + 0.4 * np.cos(2 * np.pi * x / 2.0)))
    v = normalize(Field(g, np.exp(2j * np.pi * x / 2.0) * (1 + 0.2 * np.cos(2 * np.pi * x / 2.0))))
    basis = build_basis(4, 2, 2)
    rng = np.random.default_rng(0)
    worst_sandwich = -np.inf
    worst_chain = -np.inf
    for _ in range(200):
        st = random_state(basis, rng)
        mb = marginal_bounds_check(st, u, v)
        worst_sandwich = max(worst_sandwich, mb.lhs_max - mb.middle, mb.middle - mb.rhs_sum)
        a = alpha_11(st, u, v)
        td = trace_distance(reduce_density(st, (1, 1)), u, v)
        worst_chain = max(worst_chain, a - td, td - 2.0 * math.sqrt(max(a, 0.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_sandwich <= 1e-10 and worst_chain <= 1e-10 and elapsed < 30.0
    _report(6, ok, f"sandwich slack={worst_sandwich:.2e}, chain slack={worst_chain:.2e} "
                   f"(both <=1e-10 over 200 states), {elapsed:.1f}s (<30s)")


def test_c07_counting_algebra():
    t0 = time.perf_counter()
    g = make_grid(1, 8, 2 * np.pi)
    x = g.axis_coordinates
    u = normalize(Field(g, 1 + 0.3 * np.cos(x)))
    basis = build_basis(8, 3, 1)
    cp = counting_projectors(basis, u, "A")
    rng = np.random.default_rng(1)
    xi = 0.2
    wm, wn_, ws_ = weight_m(3, xi), weight_n(3), weight_s(3)
    worst = 0.0
    mode = counting_projectors(basis, u, "A")
    for _ in range(10):
        st = random_state(basis, rng)
        parts = cp.split(st)
        worst = max(worst, float(np.max(np.abs(sum(parts) - st.psi))))
        again = cp.split(type(st)(basis, parts[1]))
        for j, p in enumerate(again):
            target = parts[1] if j == 1 else np.zeros_like(parts[1])
            worst = max(worst, float(np.max(np.abs(p - target))))
        s_exp = float(np.dot(ws_.values, cp.sector_weights(st)))
        q_exp = float(np.vdot(st.psi, mode.q_total(st.psi)).real) / 3
        worst = max(worst, abs(s_exp - q_exp))
        w0, w1 = wm.values, wm.shifted_values(1)
        shift = sum((w0[k] - w1[k]) * parts[k] for k in range(4))
        worst = max(worst, float(np.linalg.norm(shift)) - wm.max_step())
    envelope = max(max(0.0, wn_.values[k] - wm.values[k],
                       wm.values[k] - max(wn_.values[k], 3.0 ** (-xi)))
                   for k in range(4))
    worst = max(worst, envelope)
    elapsed = time.perf_counter() - t0
    _report(7, worst <= 1e-12 and elapsed < 10.0,
            f"worst algebra residual={worst:.2e} (<=1e-12), {elapsed:.1f}s (<10s)")


def test_c08_derivative_identity_second_order():
    t0 = time.perf_counter()
    g = make_grid(1, 8, 2 * np.pi)
    x = g.axis_coordinates
    V1 = Field(g, 0.6 * np.cos(x))
    V2 = Field(g, 0.4 * np.cos(2 * x))
    V12 = Field(g, 0.5 * np.cos(x))
    u0 = normalize(Field(g, 1 + 0.3 * np.cos(x)))
    v0 = normalize(Field(g, 1 + 0.25 * np.cos(2 * x)))
    basis = build_basis(8, 2, 2)
    spec = HamiltonianSpec.mean_field(V1, V2, V12)
    H = Hamiltonian(spec, basis)
    eff_spec = CouplingSpec.hartree(V1, V2, V12, c1=0.5, kinetic="stencil")
    psi = product_state(u0, v0, basis)
    eff = OrbitalState((u0, v0), 0.0)
    for _ in range(100):
        psi = H.propagate(psi, 1e-3)
        eff = step(eff, eff_spec, 1e-3)
    ch = derivative_decomposition(psi, eff.components[0], eff.components[1], spec)

    def fd(dt, nsub=64):
        plus, minus = H.propagate(psi, dt), H.propagate(psi, -dt)
        ep = em = eff
        for _ in range(nsub):
            ep = step(ep, eff_spec, dt / nsub)
            em = step(em, eff_spec, -dt / nsub)
        ap = alpha_11(plus, ep.components[0], ep.components[1])
        am = alpha_11(minus, em.components[0], em.components[1])
        return (ap - am) / (2 * dt)

    errs = [abs(fd(dt) - ch.alpha_dot) for dt in (1e-3, 5e-4, 2.5e-4)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    elapsed = time.perf_counter() - t0
    ok = abs(r1 - 4.0) <= 1.0 and abs(r2 - 4.0) <= 1.0 and elapsed < 120.0
    _report(8, ok, f"errors={errs[0]:.2e},{errs[1]:.2e},{errs[2]:.2e}, "
                   f"halving ratios={r1:.2f},{r2:.2f} (4+-1), {elapsed:.1f}s (<2min)")


def test_c09_cancellation_identities():
    t0 = time.perf_counter()
    g = make_grid(1, 4, 2.0)
    x = g.axis_coordinates
    u = normalize(Field(g, 1 + 0.4 * np.cos(2 * np.pi * x / 2.0)))
    v = normalize(Field(g, np.exp(2j * np.pi * x / 2.0) * (1 + 0.2 * np.cos(2 * np.pi * x / 2.0))))
    V12 = Field(g, 0.7 * np.cos(2 * np.pi * x / 2.0) + 0.2 * np.cos(4 * np.pi * x / 2.0))
    basis = build_basis(4, 2, 2)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        st = random_state(basis, rng)
        t = insertion_terms(st, u, v, V12)
        worst = max(worst,
                    abs(t["pp,pp"]), abs(t["qq,qq"]),
                    abs(t["pq,pq"] + t["qp,qp"]),
                    abs(t["pp,qp"] + np.conj(t["pp,qp"])))
    elapsed = time.perf_counter() - t0
    _report(9, worst < 1e-10 and elapsed < 60.0,
            f"worst identity residual={worst:.2e} (<1e-10) over 50 states, "
            f"{elapsed:.1f}s (<1min)")


SWEEP_DOC = """
[grid]
points = 10
length = 6.283185307179586

[system]
mode = mean_field
v1 = cosine amp=0.2 k=1
v2 = cosine amp=0.15 k=2
v12 = cosine amp=0.8 k=1
u0 = cospack eps=0.3 k=1
v0 = cospack eps=0.25 k=2

[ladder]
entries = 1,1; 2,2; 3,3

[time]
t = 0.5
dt = 1e-3
sample_every = 100

[indicators]
xi = 0.2
probe_time = 0.5

[output]
dir = unused
"""


def test_c10_convergence_trend():
    t0 = time.perf_counter()
    cfg = parse_config(SWEEP_DOC)
    report = run_convergence_sweep(cfg)
    assert all(e.error is None for e in report.entries)
    alphas = [e.alpha_probe for e in report.entries]
    a0 = max(abs(e.rows[0][1]) for e in report.entries)
    ratio = alphas[1] / alphas[2]
    elapsed = time.perf_counter() - t0
    ok = (a0 < 1e-10 and alphas[0] > alphas[1] > alphas[2]
          and ratio >= 1.2 and elapsed < 600.0)
    _report(10, ok, f"alpha(0)={a0:.1e} (<1e-10), alpha(t*)={alphas[0]:.3e}>"
                    f"{alphas[1]:.3e}>{alphas[2]:.3e}, "
                    f"ratio22/33={ratio:.3f} (>=1.2), {elapsed:.0f}s (<10min)")


def test_c11_energy_gap_trend():
    t0 = time.perf_counter()
    from becmix.effective import hartree_energy

    cfg = parse_config(SWEEP_DOC)
    grid = cfg.build_grid()
    V1, V2, V12 = (cfg.potential_field(k) for k in ("v1", "v2", "v12"))
    u0, v0 = cfg.orbital_field("u0"), cfg.orbital_field("v0")
    gaps = []
    for (n1, n2) in cfg.ladder:
        basis = build_basis(10, n1, n2)
        spec = HamiltonianSpec.mean_field(V1, V2, V12)
        eff = CouplingSpec.hartree(V1, V2, V12, c1=n1 / (n1 + n2), kinetic="stencil")
        e_many = manybody_energy(spec, product_state(u0, v0, basis))
        e_eff = hartree_energy(OrbitalState((u0, v0), 0.0), eff)
        gaps.append(abs(e_many - e_eff))
    elapsed = time.perf_counter() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and elapsed < 60.0
    _report(11, ok, f"|E_many - E_eff|={gaps[0]:.3e}>{gaps[1]:.3e}>{gaps[2]:.3e}, "
                    f"{elapsed:.1f}s (<1min)")


def test_c12_sweep_determinism(tmp_path):
    doc = SWEEP_DOC.replace("entries = 1,1; 2,2; 3,3", "entries = 1,1; 2,2") \
                   .replace("t = 0.5", "t = 0.05") \
                   .replace("probe_time = 0.5", "probe_time = 0.05")
    cfg = parse_config(doc)
    outputs = []
    for threads, name in ((1, "a"), (2, "b"), (1, "c")):
        report = run_convergence_sweep(cfg, threads=threads)
        out = tmp_path / name
        emit_report(report, out)
        outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    same = (outputs[0] == outputs[1] == outputs[2])
    _report(12, same and len(outputs[0]) == 3,
            f"{len(outputs[0])} CSVs byte-identical across reruns and thread counts")
