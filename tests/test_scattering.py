import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from becmix import config
import becmix.scattering as scattering_mod
from becmix.config import parse_config
from becmix.scattering import (
    BoundStateError,
    CalibrationError,
    RadialPotential,
    ScatteringError,
    ShellPotential,
    calibrate_shell,
    g_norms,
    modified_potential,
    scale_potential,
    scattering_length,
    square_barrier,
)

BARRIER = square_barrier(2.0, 1.0)
A_EXACT = 1.0 - math.tanh(1.0)


def test_zero_potential():
    V = RadialPotential(np.array([0.0]), np.array([]))
    res = scattering_length(V, 3.0)
    assert res.scattering_length == 0.0
    assert np.all(res.g == 0.0)
    assert g_norms(res) == (0.0, 0.0, 0.0)


def test_square_barrier_closed_form():
    res = scattering_length(BARRIER, 2.5)
    assert abs(res.scattering_length - A_EXACT) < 1e-9


def test_box_potential_takes_its_defaults():
    # `box` alone is amp=2 radius=1, whose a(V) is 1 - tanh 1 to the last bit
    V = parse_config("[system]\nmode = scattering\npotential = box\n").radial_potential()
    assert scattering_length(V, 2.5).scattering_length == A_EXACT


def test_exterior_profile_matches_asymptote():
    res = scattering_length(BARRIER, 3.0)
    outside = res.r > 1.5
    expect = 1.0 - res.scattering_length / res.r[outside]
    assert np.max(np.abs(res.f[outside] - expect)) < 1e-9


def test_profile_monotone_outside_support_for_positive_potential():
    res = scattering_length(BARRIER, 3.0)
    outside = res.r > BARRIER.support_radius
    assert np.all(np.diff(res.f[outside]) >= -1e-12)
    assert 0.0 <= res.scattering_length <= BARRIER.support_radius


def test_scaling_law():
    for N in (2, 4, 8):
        VN = scale_potential(BARRIER, N, 1.0)
        a = scattering_length(VN, 2.5 / N).scattering_length
        assert abs(a - A_EXACT / N) / (A_EXACT / N) < 1e-8


def test_r_max_invariance():
    a1 = scattering_length(BARRIER, 2.2).scattering_length
    a2 = scattering_length(BARRIER, 4.0).scattering_length
    assert abs(a1 - a2) / abs(a1) < 1e-10


def test_hard_sphere_limit():
    V = square_barrier(1.0e6, 1.0)
    res = scattering_length(V, 2.5)
    assert abs(res.scattering_length - 1.0) < 1e-2
    # the deficit saturates at the origin
    l1, l2, linf = g_norms(res)
    assert linf > 0.999
    assert abs(linf - abs(res.g[0])) < 1e-12


def test_bound_state_detection():
    V = square_barrier(-20.0, 1.0)
    with pytest.raises(BoundStateError):
        scattering_length(V, 2.5)


def test_bound_state_beyond_the_support():
    # u stays positive inside the well but falls at its edge; the exterior
    # line crosses zero at a = 1 - tan(k)/k ~ 13.3, beyond r_max = 2.5
    k = math.pi / 2 + 0.05
    V = square_barrier(-2.0 * k**2, 1.0)
    for r_max in (2.5, 30.0):
        with pytest.raises(BoundStateError):
            scattering_length(V, r_max)


@pytest.mark.parametrize("edges, values, match", [
    ([0.5, 1.0], [1.0], "start at 0"),
    ([0.0, 1.0, 1.0], [1.0, 2.0], "increase"),
    ([0.0, 0.5, 1.0], [1.0], "need 2 values"),
    ([0.0, 1.0], [math.nan], "finite"),
], ids=["offset", "not_increasing", "value_count", "non_finite"])
def test_radial_potential_rejects_malformed_cells(edges, values, match):
    with pytest.raises(ScatteringError, match=match):
        RadialPotential(np.array(edges), np.array(values))


def test_calibration_with_round_off_twin_breakpoints():
    # 32**-0.6 and 1/32**0.6 differ in the last bit: the barrier edge and
    # the shell's inner radius must still make one breakpoint
    assert 32.0 ** -0.6 != 1.0 / 32.0 ** 0.6
    shell = calibrate_shell(BARRIER, 32, 0.6)
    mod = modified_potential(scale_potential(BARRIER, 32, 0.6), shell)
    res = scattering_length(mod, 2.5 * mod.support_radius,
                            allow_crossing_window=(shell.inner_radius, shell.outer_radius))
    assert abs(res.scattering_length) < 1e-8 * mod.support_radius


def _gaussian_oracle(amp, sigma):
    """a(V) of the continuous gaussian, integrated by an adaptive ODE solver."""
    R = 6.0 * sigma
    sol = solve_ivp(lambda r, y: (y[1], 0.5 * amp * math.exp(-r * r / (2 * sigma**2)) * y[0]),
                    (0.0, R), (0.0, 1.0), method="DOP853", rtol=1e-13, atol=1e-15)
    u, du = sol.y[:, -1]
    return R - u / du


def test_gaussian_cells_converge_to_ode_oracle(monkeypatch):
    expr = "gaussian amp=2 sigma=0.5"
    ref = _gaussian_oracle(2.0, 0.5)
    cfg = parse_config(f"[system]\nmode = scattering\npotential = {expr}\n")
    V = cfg.radial_potential()
    a = scattering_length(V, 2.5 * V.support_radius).scattering_length
    assert abs(a - ref) < 5e-6 * abs(ref)
    errors = []
    for cells in (256, 512, 1024):
        monkeypatch.setattr(config, "GAUSSIAN_CELLS", cells)
        V = cfg.radial_potential()
        errors.append(abs(scattering_length(V, 2.5 * V.support_radius).scattering_length - ref))
    # midpoint cells are second order: each halving cuts the error ~4x
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_r_max_precondition():
    with pytest.raises(ScatteringError):
        scattering_length(BARRIER, 1.5)


@pytest.mark.parametrize("n_samples", [0, 1, -5, 2.5, 4001.0, "4001"])
def test_bad_n_samples_rejected_at_call(n_samples):
    for V in (BARRIER, RadialPotential(np.array([0.0]), np.array([]))):
        with pytest.raises(ScatteringError, match="n_samples must be an integer >= 2"):
            scattering_length(V, 2.5, n_samples=n_samples)


def test_profile_same_whatever_is_read_first():
    shell = calibrate_shell(BARRIER, 16, 1.0)
    mod = modified_potential(scale_potential(BARRIER, 16, 1.0), shell)

    def solve():
        return scattering_length(mod, 2.5 * mod.support_radius, n_samples=np.int64(4001),
                                 allow_crossing_window=(shell.inner_radius,
                                                        shell.outer_radius))

    norms_first, profile_first = solve(), solve()
    f = profile_first.f.copy()
    norms = g_norms(norms_first)
    assert g_norms(profile_first) == norms
    assert np.array_equal(norms_first.f, f)
    assert np.array_equal(norms_first.g, 1.0 - f)
    assert norms_first.r.size == 4001 and norms_first.r[-1] == 2.5 * mod.support_radius


def test_g_norms_against_closed_form():
    # inside the barrier u = sinh(r), outside the line kappa (r - a);
    # f = u / (kappa r) with kappa = cosh(1)
    res = scattering_length(BARRIER, 2.5, n_samples=8001)
    kappa = math.cosh(1.0)
    r = np.linspace(1e-9, 2.5, 20001)
    f_exact = np.where(r <= 1.0, np.sinh(r) / (kappa * r),
                       (r - (1.0 - math.tanh(1.0))) / r)
    g_exact = 1.0 - f_exact
    l1_ref = 4 * np.pi * np.trapezoid(np.abs(g_exact) * r**2, r)
    l2_ref = math.sqrt(4 * np.pi * np.trapezoid(g_exact**2 * r**2, r))
    l1, l2, linf = g_norms(res)
    assert l1 == pytest.approx(l1_ref, rel=1e-6)
    assert l2 == pytest.approx(l2_ref, rel=1e-6)
    assert linf == pytest.approx(1.0 - 1.0 / kappa, rel=1e-8)


def test_g_norms_requires_resolution():
    res = scattering_length(BARRIER, 2.5, n_samples=301)
    with pytest.raises(ScatteringError):
        g_norms(res)


def test_calibration_cancels_scattering_length():
    shell = calibrate_shell(BARRIER, 32, 1.0)
    assert shell.C > 1.0
    mod = modified_potential(scale_potential(BARRIER, 32, 1.0), shell)
    res = scattering_length(mod, 2.5 * mod.support_radius,
                            allow_crossing_window=(shell.inner_radius, shell.outer_radius))
    assert abs(res.scattering_length) < 1e-8 * BARRIER.support_radius


@pytest.mark.parametrize("N, beta, C", [(8, 1.0, 1.1734511758104325),
                                          (16, 0.5, 1.182494917058338)])
def test_calibration_pinned_to_the_last_bit(N, beta, C):
    assert calibrate_shell(BARRIER, N, beta).C == C


def test_calibration_deterministic():
    s1 = calibrate_shell(BARRIER, 16, 1.0)
    s2 = calibrate_shell(BARRIER, 16, 1.0)
    assert s1.C == s2.C


def _shell_residual(V, a, N, beta, C):
    shell = ShellPotential.for_species(a, N, beta, C)
    mod = modified_potential(scale_potential(V, N, beta), shell)
    return scattering_length(mod, 2.5 * mod.support_radius,
                             allow_crossing_window=(shell.inner_radius,
                                                    shell.outer_radius)).scattering_length


def test_calibration_brackets_the_root_to_adjacent_floats():
    V = parse_config("[system]\nmode = scattering\npotential = gaussian amp=2 sigma=0.5\n") \
        .radial_potential()
    a = scattering_length(V, 2.5 * V.support_radius).scattering_length
    C = calibrate_shell(V, 8, 1.0, a=a).C

    def residual(c):
        return _shell_residual(V, a, 8, 1.0, c)

    at_c = residual(C)
    neighbours = [residual(np.nextafter(C, side)) for side in (-np.inf, np.inf)]
    assert at_c == 0.0 or any(np.signbit(n) != np.signbit(at_c) for n in neighbours)


def _counted_calibration(monkeypatch, V, N, beta):
    """calibrate_shell(V, N, beta) and the number of its residual solves."""
    a = scattering_length(V, 2.5 * V.support_radius).scattering_length
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return scattering_length(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(scattering_mod, "scattering_length", counted)
        shell = calibrate_shell(V, N, beta, a=a)
    return shell, a, len(calls)


@pytest.mark.parametrize("N, beta", [(8, 1.0), (16, 1.0), (32, 1.0), (8, 0.75)],
                         ids=["8", "16", "32", "8-0.75"])
def test_calibration_takes_few_residual_solves(monkeypatch, N, beta):
    # the walk, 4 probes and regula falsi steps; bisecting all the way took 56.
    # At (8, 0.75) a regula falsi step lands on an exact root.
    _, _, calls = _counted_calibration(monkeypatch, BARRIER, N, beta)
    assert calls <= 20


@pytest.mark.parametrize("potential", ["box amp=2 radius=1", "gaussian amp=2 sigma=0.5"])
@pytest.mark.parametrize("N, beta", [(8, 0.5), (8, 1.0), (32, 0.5), (32, 1.0)])
def test_regula_falsi_brackets_the_root_to_adjacent_floats(monkeypatch, potential, N, beta):
    V = parse_config(f"[system]\nmode = scattering\npotential = {potential}\n").radial_potential()
    shell, a, calls = _counted_calibration(monkeypatch, V, N, beta)
    assert calls <= 56
    at_c = _shell_residual(V, a, N, beta, shell.C)
    neighbours = [_shell_residual(V, a, N, beta, np.nextafter(shell.C, side))
                  for side in (-np.inf, np.inf)]
    assert at_c == 0.0 or any(np.signbit(n) != np.signbit(at_c) for n in neighbours)


def test_modified_potential_merges_exactly_equal_edges():
    # at beta = 1 the scaled barrier edge 1/N and the shell's inner radius N^-1
    # are the same float: one breakpoint, and no empty cell between them
    V_scaled = scale_potential(BARRIER, 8, 1.0)
    shell = ShellPotential.for_species(0.25, 8, 1.0, 1.5)
    assert V_scaled.support_radius == shell.inner_radius
    mod = modified_potential(V_scaled, shell)
    assert mod.edges.tolist() == [0.0, 0.125, 1.5 * 0.125]
    assert mod.values.tolist() == [2.0 * 8.0**2, -shell.amplitude]


def test_calibration_zero_potential_convention():
    V = RadialPotential(np.array([0.0]), np.array([]))
    shell = calibrate_shell(V, 8, 1.0)
    assert shell.amplitude == 0.0
    assert shell.C == pytest.approx(1.0)


def test_calibration_reports_missing_bracket():
    with pytest.raises(CalibrationError) as err:
        calibrate_shell(BARRIER, 32, 1.0, c_max=1.05)
    assert "no root bracketed" in str(err.value)


def test_calibration_softer_scaling():
    shell = calibrate_shell(BARRIER, 16, 0.6)
    mod = modified_potential(scale_potential(BARRIER, 16, 0.6), shell)
    res = scattering_length(mod, 2.5 * mod.support_radius,
                            allow_crossing_window=(shell.inner_radius, shell.outer_radius))
    assert abs(res.scattering_length) < 1e-8 * mod.support_radius * 10


def test_shell_amplitude_formula():
    shell = ShellPotential.for_species(0.25, 8, 1.0, 1.5)
    assert shell.amplitude == pytest.approx(4 * np.pi * 0.25 * 8**2)
    assert shell.inner_radius == pytest.approx(1 / 8)
    assert shell.outer_radius == pytest.approx(1.5 / 8)
    assert shell.C == pytest.approx(1.5)


def test_deficit_norms_shrink_with_n():
    norms = []
    for N in (8, 16, 32):
        shell = calibrate_shell(BARRIER, N, 1.0)
        mod = modified_potential(scale_potential(BARRIER, N, 1.0), shell)
        res = scattering_length(mod, 2.5 * mod.support_radius,
                                allow_crossing_window=(shell.inner_radius, shell.outer_radius))
        norms.append(g_norms(res)[0])
    assert norms[0] > norms[1] > norms[2]
    power = np.polyfit(np.log([8, 16, 32]), np.log(norms), 1)[0]
    # reported, not asserted beyond the falling trend
    print(f"deficit L1 norm fitted power vs N: {power:.3f}")
