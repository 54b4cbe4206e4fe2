import math
import re
from types import SimpleNamespace

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
    calibrate_shell,
    g_norms,
    scale_potential,
    scattering_length,
    shell_problem,
    square_barrier,
)

BARRIER = square_barrier(2.0, 1.0)
A_EXACT = 1.0 - math.tanh(1.0)


def test_zero_potential():
    V = RadialPotential(np.array([0.0]), np.array([]))
    res = scattering_length(V)
    assert res.scattering_length == 0.0
    assert np.all(res.g == 0.0)
    assert g_norms(res) == (0.0, 0.0, 0.0)


def test_square_barrier_closed_form():
    res = scattering_length(BARRIER)
    assert abs(res.scattering_length - A_EXACT) < 1e-9


def test_box_potential_takes_its_defaults():
    # `box` alone is amp=2 radius=1, whose a(V) is 1 - tanh 1 to the last bit
    V = parse_config("[system]\nmode = scattering\npotential = box\n").radial_potential()
    assert scattering_length(V).scattering_length == A_EXACT


def test_exterior_profile_matches_asymptote():
    res = scattering_length(BARRIER)
    outside = res.r > 1.5
    expect = 1.0 - res.scattering_length / res.r[outside]
    assert np.max(np.abs(res.f[outside] - expect)) < 1e-9


def test_profile_monotone_outside_support_for_positive_potential():
    res = scattering_length(BARRIER)
    outside = res.r > BARRIER.support_radius
    assert np.all(np.diff(res.f[outside]) >= -1e-12)
    assert 0.0 <= res.scattering_length <= BARRIER.support_radius


def test_scaling_law():
    for N in (2, 4, 8):
        VN = scale_potential(BARRIER, N, 1.0)
        a = scattering_length(VN).scattering_length
        assert abs(a - A_EXACT / N) / (A_EXACT / N) < 1e-8


def test_hard_sphere_limit():
    V = square_barrier(1.0e6, 1.0)
    res = scattering_length(V)
    assert abs(res.scattering_length - 1.0) < 1e-2
    # the deficit saturates at the origin
    l1, l2, linf = g_norms(res)
    assert linf > 0.999
    assert abs(linf - abs(res.g[0])) < 1e-12


def test_bound_state_detection():
    V = square_barrier(-20.0, 1.0)
    with pytest.raises(BoundStateError):
        scattering_length(V)


def test_bound_state_beyond_the_support():
    # u stays positive inside the well but falls at its edge; the exterior
    # line crosses zero at a = 1 - tan(k)/k ~ 13.3, beyond the profile grid's 2.5
    k = math.pi / 2 + 0.05
    V = square_barrier(-2.0 * k**2, 1.0)
    with pytest.raises(BoundStateError):
        scattering_length(V)


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
    # 32**-0.6 and 1/32**0.6 differ in the last bit; the shell problem places
    # the shell on the barrier's own edge at 1 before scaling, so only the
    # first is formed
    assert 32.0 ** -0.6 != 1.0 / 32.0 ** 0.6
    _, res = calibrate_shell(BARRIER, 32, 0.6)
    assert abs(res.scattering_length) < 1e-8 * res.support_radius


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
    a = scattering_length(V).scattering_length
    assert abs(a - ref) < 5e-6 * abs(ref)
    errors = []
    for cells in (256, 512, 1024):
        monkeypatch.setattr(config, "GAUSSIAN_CELLS", cells)
        V = cfg.radial_potential()
        errors.append(abs(scattering_length(V).scattering_length - ref))
    # midpoint cells are second order: each halving cuts the error ~4x
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_profile_same_whatever_is_read_first():
    (_, norms_first), (_, profile_first) = (calibrate_shell(BARRIER, 16, 1.0) for _ in range(2))
    f = profile_first.f.copy()
    norms = g_norms(norms_first)
    assert g_norms(profile_first) == norms
    assert np.array_equal(norms_first.f, f)
    assert np.array_equal(norms_first.g, 1.0 - f)
    assert norms_first.r.size == 4001 and norms_first.r[-1] == 2.5 * norms_first.support_radius


def test_g_norms_against_closed_form(monkeypatch):
    # inside the barrier u = sinh(r), outside the line kappa (r - a);
    # f = u / (kappa r) with kappa = cosh(1)
    monkeypatch.setattr(scattering_mod, "PROFILE_SAMPLES", 8001)
    res = scattering_length(BARRIER)
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


def test_g_norms_requires_resolution(monkeypatch):
    monkeypatch.setattr(scattering_mod, "PROFILE_SAMPLES", 301)
    res = scattering_length(BARRIER)
    with pytest.raises(ScatteringError):
        g_norms(res)


def test_calibration_cancels_scattering_length():
    C, res = calibrate_shell(BARRIER, 32, 1.0)
    assert C > 1.0
    assert abs(res.scattering_length) < 1e-8 * BARRIER.support_radius


@pytest.mark.parametrize("V, N, beta, C", [(BARRIER, 8, 1.0, 1.1734511758104325),
                                             (BARRIER, 16, 0.5, 1.182494917058338),
                                             (square_barrier(1e6, 1.0), 16, 0.5,
                                              1.9395610372728342),
                                             (square_barrier(1e6, 1.0), 100, 0.6,
                                              2.1304899055051925)],
                         ids=["8-1.0-1.1734511758104325", "16-0.5-1.182494917058338",
                              "1e6-16-0.5", "1e6-100-0.6"])
def test_calibration_pinned_to_the_last_bit(V, N, beta, C):
    assert calibrate_shell(V, N, beta)[0] == C


@pytest.mark.parametrize("V, C_seen", [(square_barrier(10.0, 1.0), 1.2565268564421062),
                                        (square_barrier(50.0, 0.9), 1.3154212314376799),
                                        (square_barrier(1e6, 1.0), 1.5233635498594922)],
                         ids=["10-1", "50-0.9", "1e6-1"])
def test_calibration_of_a_steep_residual_stops_at_a_node(V, C_seen):
    # the walk's step of 0.25 passes the root and meets a node of u (for the height-10
    # barrier the root lies in (1.25, 1.275) and the node comes at C = 1.5): the node
    # bounds the bracket, and the returned shell problem is node-free within tolerance
    C, res = calibrate_shell(V, 8, 1.0)
    assert C == pytest.approx(C_seen, rel=1e-12)
    solved = scattering_length(res.V)  # raises BoundStateError at a node
    length_scale = max(V.support_radius, C) / 8
    assert abs(solved.scattering_length) <= scattering_mod.RESIDUAL_TOL * length_scale


def test_calibration_deterministic():
    (c1, r1), (c2, r2) = calibrate_shell(BARRIER, 16, 1.0), calibrate_shell(BARRIER, 16, 1.0)
    assert c1 == c2
    assert r1.scattering_length == r2.scattering_length


def _shell_residual(V, a, N, beta, C):
    return scattering_length(shell_problem(V, a, N, beta, C)).scattering_length


def test_calibration_brackets_the_root_to_adjacent_floats():
    V = parse_config("[system]\nmode = scattering\npotential = gaussian amp=2 sigma=0.5\n") \
        .radial_potential()
    a = scattering_length(V).scattering_length
    C, res = calibrate_shell(V, 8, 1.0)

    def residual(c):
        return _shell_residual(V, a, 8, 1.0, c)

    at_c = residual(C)
    assert at_c == res.scattering_length  # the returned problem is the one solved at C
    neighbours = [residual(np.nextafter(C, side)) for side in (-np.inf, np.inf)]
    assert at_c == 0.0 or any(np.signbit(n) != np.signbit(at_c) for n in neighbours)


def _counted_calibration(monkeypatch, V, N, beta):
    """calibrate_shell(V, N, beta)'s C, a(V) and the number of its solves."""
    a = scattering_length(V).scattering_length
    calls = []

    def counted(V):
        calls.append(None)
        return scattering_length(V)

    with monkeypatch.context() as m:
        m.setattr(scattering_mod, "scattering_length", counted)
        C, _ = calibrate_shell(V, N, beta)
    return C, a, len(calls)


@pytest.mark.parametrize("N, beta", [(8, 1.0), (16, 1.0), (32, 1.0), (8, 0.75)],
                         ids=["8", "16", "32", "8-0.75"])
def test_calibration_takes_few_residual_solves(monkeypatch, N, beta):
    # a(V), the walk, regula falsi steps and the returned problem's solve;
    # bisecting all the way took 56.  At (8, 0.75) a regula falsi step lands
    # on an exact root, which is solved again for the returned problem.
    _, _, calls = _counted_calibration(monkeypatch, BARRIER, N, beta)
    assert calls <= 14


@pytest.mark.parametrize("potential", ["box amp=2 radius=1", "gaussian amp=2 sigma=0.5",
                                       "box amp=1e6 radius=1", "box amp=10 radius=1",
                                       "box amp=50 radius=0.9"])
@pytest.mark.parametrize("N, beta", [(8, 0.5), (8, 1.0), (32, 0.5), (32, 1.0), (16, 0.5),
                                     (100, 0.6), (100, 1.0)])
def test_regula_falsi_brackets_the_root_to_adjacent_floats(monkeypatch, potential, N, beta):
    V = parse_config(f"[system]\nmode = scattering\npotential = {potential}\n").radial_potential()
    C, a, calls = _counted_calibration(monkeypatch, V, N, beta)
    assert calls <= 24
    at_c = _shell_residual(V, a, N, beta, C)
    neighbours = [_shell_residual(V, a, N, beta, np.nextafter(C, side))
                  for side in (-np.inf, np.inf)]
    assert at_c == 0.0 or any(np.signbit(n) != np.signbit(at_c) for n in neighbours)


def _logged_calibration(monkeypatch, V, N, beta):
    """calibrate_shell(V, N, beta)'s C and the C of each shell problem it solved, in order."""
    solved = []

    def logged(V, a, N, beta, C):
        solved.append(C)
        return shell_problem(V, a, N, beta, C)

    with monkeypatch.context() as m:
        m.setattr(scattering_mod, "shell_problem", logged)
        C, _ = calibrate_shell(V, N, beta)
    return C, solved


@pytest.mark.parametrize("V, N, beta", [
    (BARRIER, 8, 1.0), (BARRIER, 8, 0.75), (square_barrier(1e6, 1.0), 16, 0.5),
    (square_barrier(1e6, 1.0), 100, 0.6), (square_barrier(10.0, 1.0), 8, 1.0),
    (square_barrier(50.0, 0.9), 100, 1.0)], ids=["2-8-1", "2-8-0.75", "1e6-16-0.5",
                                                 "1e6-100-0.6", "10-8-1", "50-100-1"])
def test_every_narrowing_solve_lies_strictly_inside_the_bracket(monkeypatch, V, N, beta):
    C, solved = _logged_calibration(monkeypatch, V, N, beta)
    a = scattering_length(V).scattering_length

    def residual(c):
        try:
            return _shell_residual(V, a, N, beta, c)
        except BoundStateError:
            return -math.inf

    positive = [residual(c) > 0.0 for c in solved]
    walk = positive.index(False) + 1  # the walk ends at its first residual <= 0 or node
    lo, hi = solved[walk - 2:walk]
    for c, above in zip(solved[walk:-1], positive[walk:-1]):  # the last is the returned one
        assert lo < c < hi
        lo, hi = (c, hi) if above else (lo, c)
    assert solved[-1] == C and C in (lo, hi)
    assert residual(C) == 0.0 or math.nextafter(lo, hi) == hi


def test_a_secant_point_on_an_end_is_clamped_to_the_adjacent_float(monkeypatch):
    # the 13th solve lands 5.6e-17 from the root and the next secant point rounds
    # onto it: the clamp solves the float beside it, not the bracket's midpoint
    _, solved = _logged_calibration(monkeypatch, square_barrier(1e6, 1.0), 16, 0.5)
    k = solved.index(1.9395610372728342)
    assert solved[k + 1] == math.nextafter(1.9395610372728342, 2.0) == 1.9395610372728345


@pytest.mark.parametrize("N, beta", [(8, 1.0), (32, 0.6)], ids=["8-1", "32-0.6"])
def test_shell_problem_shares_the_barrier_edge(N, beta):
    # the barrier's edge at 1 is the shell's inner edge: one breakpoint and no
    # sliver cell, also at (32, 0.6), where 32**-0.6 and 1/32**0.6 differ
    inner, amp = N ** -beta, N ** (3 * beta - 1)
    mod = shell_problem(BARRIER, 0.25, N, beta, 1.5)
    assert mod.edges.tolist() == [0.0, inner, 1.5 * inner]
    assert mod.values.tolist() == [2.0 * amp, -4.0 * np.pi * 0.25 * amp]


def test_shell_problem_at_c_one_adds_no_shell_cell():
    assert not np.any(shell_problem(BARRIER, 0.25, 8, 1.0, 1.0).values < 0.0)
    empty = RadialPotential(np.array([0.0]), np.array([]))
    assert shell_problem(empty, 0.25, 8, 1.0, 1.0).values.tolist() == [0.0]


def test_calibration_zero_potential_convention():
    V = RadialPotential(np.array([0.0]), np.array([]))
    C, res = calibrate_shell(V, 8, 1.0)
    assert C == 1.0
    assert res.scattering_length == 0.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: calibrate_shell(BARRIER, 8, 0.0), ScatteringError, "beta must lie in (0, 1], got 0.0"),
    (lambda: calibrate_shell(BARRIER, 8, 1.5), ScatteringError, "beta must lie in (0, 1], got 1.5"),
    (lambda: calibrate_shell(BARRIER, 1, 1.0), ScatteringError, "calibration needs N >= 2"),
    (lambda: calibrate_shell(square_barrier(-1.0, 1.0), 8, 1.0), CalibrationError,
     "calibration expects a positive scattering length"),
    (lambda: scale_potential(BARRIER, 0), ScatteringError, "N must be >= 1"),
    (lambda: shell_problem(BARRIER, 0.25, 8, 1.0, 0.5), ScatteringError,
     "the shell problem needs N >= 1 and C >= 1, got N = 8, C = 0.5"),
    (lambda: shell_problem(BARRIER, 0.25, 0, 1.0, 1.5), ScatteringError,
     "the shell problem needs N >= 1 and C >= 1, got N = 0, C = 1.5"),
], ids=["beta_zero", "beta_above_one", "one_particle", "negative_a", "scale_N_zero",
        "shell_C_below_one", "shell_N_zero"])
def test_calibration_rejections(call, error, message):
    with pytest.raises(ScatteringError) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_calibration_reports_missing_bracket(monkeypatch):
    monkeypatch.setattr(scattering_mod, "C_MAX", 1.05)
    with pytest.raises(CalibrationError) as err:
        calibrate_shell(BARRIER, 32, 1.0)
    assert "no root bracketed" in str(err.value)


def _patched_residual(monkeypatch, residual):
    """Patch the shell problems' solve: residual(C) as the scattering length, C read
    from the shell problem's edges (0, 1, C) / N**beta; a(BARRIER) is solved as it is."""
    def solve(V):
        if V is BARRIER:
            return scattering_length(V)
        return SimpleNamespace(scattering_length=residual(V.edges[2] / V.edges[1]))
    monkeypatch.setattr(scattering_mod, "scattering_length", solve)


def test_a_node_ends_the_walk_and_bounds_the_bracket(monkeypatch):
    # the walk's first step past C = 1.2 meets a node, which is the bracket's upper
    # end: bisection narrows onto C = 1.2, whose residual fails the tolerance
    tried = []

    def residual(C):
        tried.append(C)
        if C > 1.2:
            raise BoundStateError("radial solution crosses zero")
        return 0.05
    _patched_residual(monkeypatch, residual)
    with pytest.raises(CalibrationError) as err:
        calibrate_shell(BARRIER, 8, 1.0)
    assert str(err.value) == "calibration residual 5.000e-02 exceeds 1.0e-08 * 1.563e-01"
    assert tried[:2] == [1.000001, 1.250001]
    assert max(C for C in tried if C <= 1.2) == 1.2
    assert min(C for C in tried if C > 1.2) == math.nextafter(1.2, 2.0)


def test_calibration_reports_a_residual_above_tolerance(monkeypatch):
    # the bracket narrows to adjacent floats whose residuals are round-off, not 0.0;
    # RESIDUAL_TOL = 0 accepts only an exact root
    monkeypatch.setattr(scattering_mod, "RESIDUAL_TOL", 0.0)
    with pytest.raises(CalibrationError) as err:
        calibrate_shell(BARRIER, 16, 1.0)
    assert re.fullmatch(r"calibration residual \S+ exceeds 0\.0e\+00 \* 7\.813e-02",
                        str(err.value))


def test_calibration_softer_scaling():
    _, res = calibrate_shell(BARRIER, 16, 0.6)
    assert abs(res.scattering_length) < 1e-8 * res.support_radius * 10


def test_shell_amplitude_formula():
    # on the zero potential the problem is the shell alone: -4 pi a N^{3 beta - 1}
    # on N^{-beta} < r < C N^{-beta}
    empty = RadialPotential(np.array([0.0]), np.array([]))
    shell = shell_problem(empty, 0.25, 16, 0.75, 1.5)
    assert shell.edges.tolist() == [0.0, 16 ** -0.75, 1.5 * 16 ** -0.75]
    assert shell.values == pytest.approx([0.0, -4 * np.pi * 0.25 * 16 ** 1.25])


def test_deficit_norms_shrink_with_n():
    norms = []
    for N in (8, 16, 32):
        _, res = calibrate_shell(BARRIER, N, 1.0)
        norms.append(g_norms(res)[0])
    assert norms[0] > norms[1] > norms[2]
    power = np.polyfit(np.log([8, 16, 32]), np.log(norms), 1)[0]
    # reported, not asserted beyond the falling trend
    print(f"deficit L1 norm fitted power vs N: {power:.3f}")


def test_calibration_is_scale_similar_at_beta_one():
    # at beta = 1 the shell problem at N is N^2 W(N r) for one W, so C is the
    # same and the norms scale as N^-3, N^-3/2 and N^0.  Seen: C equal to the
    # bit and the scaled norms within 3.1e-14 relative of each other.
    Cs, scaled = [], []
    for N in (8, 10, 16, 32, 100):
        C, res = calibrate_shell(BARRIER, N, 1.0)
        l1, l2, linf = g_norms(res)
        Cs.append(C)
        scaled.append((l1 * N**3, l2 * N**1.5, linf))
    assert max(Cs) - min(Cs) <= 4 * math.ulp(Cs[0])
    scaled = np.array(scaled)
    assert np.all(np.ptp(scaled, axis=0) <= 1e-12 * scaled[0])
