"""Zero-energy s-wave scattering on the half-line.

The reduced radial problem u'' = (1/2) V(r) u with u(0) = 0 is solved
exactly for piecewise-constant V, segment by segment; beyond the support
of V the solution is the line u = kappa (r - a) and a is the scattering
length.  The profile f = u / (kappa r) tends to 1 at infinity and its
deficit g = 1 - f measures the short-range correlation hole.

`calibrate_shell` finds the outer radius C N^{-beta} of a repulsive
spherical-shell potential of amplitude 4 pi a N^{3 beta - 1} such that
the scaled potential minus the shell has zero scattering length.  The
deficit profile of that modified problem is compactly supported, which
is what makes its norms shrink with N.  The root is sought on the branch
where u has no node: a zero of u raises BoundStateError everywhere, and
the calibration reads it as lying past the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "RadialPotential",
    "ScatteringResult",
    "ScatteringError",
    "BoundStateError",
    "CalibrationError",
    "scattering_length",
    "scale_potential",
    "square_barrier",
    "calibrate_shell",
    "shell_problem",
    "g_norms",
]


class ScatteringError(ValueError):
    pass


class BoundStateError(ScatteringError):
    """The radial solution crossed zero: attractive enough for a bound state."""


class CalibrationError(ScatteringError):
    pass


@dataclass(frozen=True)
class RadialPotential:
    """Compactly supported, piecewise-constant radial profile V(r).

    V equals values[j] on the cell edges[j] < r < edges[j + 1], where
    0 = edges[0] < edges[1] < ... and support_radius = edges[-1], and V
    is zero beyond.  Sample a smooth profile onto cells first.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("edges", "values"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        edges, values = self.edges, self.values
        if edges.ndim != 1 or edges.size == 0 or edges[0] != 0.0:
            raise ScatteringError("cell edges must start at 0")
        if not np.all(np.diff(edges) > 0.0):
            raise ScatteringError("cell edges must increase")
        if values.shape != (edges.size - 1,):
            raise ScatteringError(f"{edges.size} cell edges need {edges.size - 1} values, "
                                  f"got {values.size}")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))):
            raise ScatteringError("cell edges and values must be finite")

    @property
    def support_radius(self) -> float:
        return float(self.edges[-1])

    def __call__(self, r):
        j = np.searchsorted(self.edges, r, side="right") - 1
        out = np.append(self.values, 0.0)[j]  # j = -1 below 0 and j = n past R read 0
        return out if out.ndim else float(out)


def square_barrier(height: float, radius: float) -> RadialPotential:
    return RadialPotential([0.0, radius], [height])


def scale_potential(V: RadialPotential, N: int, beta: float = 1.0) -> RadialPotential:
    """Short-range rescaling N^{3 beta - 1} V(N^beta r).

    At beta = 1 this is the strong dilute-gas scaling N^2 V(N r), whose
    scattering length is exactly a(V)/N; for beta < 1 the amplitude is
    softened so the integral of the potential stays of order 1/N.
    """
    if N < 1:
        raise ScatteringError("N must be >= 1")
    amp = float(N) ** (3.0 * beta - 1.0)
    return RadialPotential(V.edges * float(N) ** -beta, amp * V.values)


def shell_problem(V: RadialPotential, a: float, N: int, beta: float,
                  C: float) -> RadialPotential:
    """V minus the shell cell 1 < r < C of height 4 pi a, on V's own radii (an
    edge of V at 1 is the shell's inner edge), scaled as by `scale_potential`
    but into one potential, not two (each calibration residual builds one):
    the shell lies on N^-beta < r < C N^-beta to the bit.  C = 1 adds no cell."""
    if N < 1 or not C >= 1.0:
        raise ScatteringError(f"the shell problem needs N >= 1 and C >= 1, got N = {N}, C = {C}")
    pts = np.sort(np.append(V.edges, (1.0, C)))
    edges = np.append(0.0, pts[1:][pts[1:] > pts[:-1]])  # each radius once
    mid = 0.5 * (edges[:-1] + edges[1:])
    shell = np.where((mid > 1.0) & (mid < C), 4.0 * np.pi * a, 0.0)
    return RadialPotential(edges * float(N) ** -beta,
                           float(N) ** (3.0 * beta - 1.0) * (V(mid) - shell))


# the profile grid: PROFILE_SAMPLES points on [0, 2.5 R], or on [0, 1] without cells
PROFILE_SAMPLES = 4001


@dataclass(frozen=True)
class ScatteringResult:
    """The scattering length, and the radial solution exp(log) (u, du) at the
    cell edges of V, from which the grid r (PROFILE_SAMPLES points of
    [0, 2.5 R]), the profile f and its deficit g = 1 - f are sampled on
    first read."""

    scattering_length: float
    V: RadialPotential
    u: list[float]
    du: list[float]
    log: list[float]

    @property
    def support_radius(self) -> float:
        return self.V.support_radius

    @cached_property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, 2.5 * self.support_radius or 1.0, PROFILE_SAMPLES)

    @cached_property
    def f(self) -> np.ndarray:
        r, edges, log, kappa = self.r, self.V.edges, self.log, self.du[-1]
        j = np.searchsorted(edges, r, side="right") - 1  # past R: the exterior line, q = 0
        c_r, m01_r, _, g_r = _transfer(np.append(0.5 * self.V.values, 0.0)[j], r - edges[j])
        with np.errstate(all="ignore"):  # under/overflow behind hard barriers, 0/0 at r = 0
            u_r = np.exp(np.take(log, j) + g_r - log[-1]) * (
                c_r * np.take(self.u, j) + m01_r * np.take(self.du, j))
            f = u_r / (kappa * r)
            f[0] = np.exp(-log[-1]) / kappa
        return f

    @cached_property
    def g(self) -> np.ndarray:
        return 1.0 - self.f


def _transfer(q: np.ndarray, s: np.ndarray):
    """Propagator of u'' = q u over offsets s, elementwise.

    Returns (c, m01, m10, g) with (u, u')(s) = exp(g) [[c, m01], [m10, c]]
    (u, u')(0): cosh/sinh for q > 0, with the growth exp(k s) kept out as
    g so that no barrier height overflows; cos/sin for q < 0; else linear.
    """
    k = np.sqrt(np.abs(q))
    rep, att = q > 0, q < 0
    half_sinh = -0.5 * np.expm1(-2.0 * k * s)  # exp(-ks) sinh(ks)
    c = np.where(rep, 1.0 - half_sinh, np.where(att, np.cos(k * s), 1.0))
    sn = np.where(rep, half_sinh, np.where(att, np.sin(k * s), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        m01 = np.where(q != 0.0, sn / k, s)
    return c, m01, np.where(att, -k, k) * sn, np.where(rep, k * s, 0.0)


def _check_no_zero(q: float, h: float, r0: float, u0: float, du0: float) -> None:
    """Raise BoundStateError at the first r0 + s, s in (0, h], where u vanishes
    on a segment of constant q that starts at r0 from (u0, du0)."""
    k = math.sqrt(abs(q))
    if q < 0.0:
        phase = math.atan2(u0, du0 / k)  # u is proportional to sin(k s + phase)
        first = (math.floor(phase / math.pi) + 1.0) * math.pi - phase
        if first > k * h:
            return
        s = min(first / k, h)
    elif abs(u0 * k) >= abs(du0):  # u is a multiple of cosh(k s + phase), or constant
        return
    else:
        s = -math.atanh(u0 * k / du0) / k if q > 0.0 else -u0 / du0
        if not 0.0 < s <= h:
            return
    raise BoundStateError(f"radial solution crosses zero at r = {r0 + s:.6g}; "
                          "the potential supports a bound state")


def scattering_length(V: RadialPotential) -> ScatteringResult:
    """Scattering length and correlation profile of a radial potential.

    (u, u') is carried from u(0) = 0, u'(0) = 1 to the support radius R by
    the exact propagator of each cell of V; beyond R, u = kappa (r - a)
    with a = R - u(R)/u'(R), returned at once.  The profile f = u/(kappa r)
    on PROFILE_SAMPLES points of [0, 2.5 R] is sampled on first read of
    the result's r, f or g.  The first zero of u at r > 0, the exterior one
    at r = a > R included, is located exactly and raises BoundStateError.
    """
    R = V.support_radius
    edges = V.edges
    lo, width = edges[:-1], np.diff(edges)
    q = 0.5 * V.values
    c, m01, m10, g = (x.tolist() for x in _transfer(q, width))
    u, du, log = [0.0], [1.0], [0.0]  # u, u' at the edges are exp(log) (u, du)
    for j, (qj, h, r0) in enumerate(zip(q.tolist(), width.tolist(), lo.tolist())):
        _check_no_zero(qj, h, r0, u[j], du[j])
        u.append(c[j] * u[j] + m01[j] * du[j])
        du.append(m10[j] * u[j] + c[j] * du[j])
        log.append(log[j] + g[j])
    kappa = du[-1]
    if kappa == 0.0:
        raise ScatteringError("degenerate exterior asymptote: u'(R) = 0")
    _check_no_zero(0.0, math.inf, R, u[-1], kappa)  # at r = a > R
    return ScatteringResult(float(R - u[-1] / kappa), V, u, du, log)


def g_norms(result: ScatteringResult) -> tuple[float, float, float]:
    """Radial L1, L2 and sup norms of the correlation deficit over R^3.

    ||g||_1 = 4 pi int |g| r^2 dr, ||g||_2 = sqrt(4 pi int g^2 r^2 dr),
    ||g||_inf = max |g|, integrated on the stored sample grid.
    """
    if result.support_radius > 0:
        inside = int(np.sum(result.r <= result.support_radius))
        if inside < 1000:
            raise ScatteringError(
                f"profile resolution too coarse: {inside} samples inside the support"
            )
    r, g = result.r, result.g
    l1 = 4.0 * np.pi * np.trapezoid(np.abs(g) * r**2, r)
    l2 = float(np.sqrt(4.0 * np.pi * np.trapezoid(g**2 * r**2, r)))
    return float(l1), l2, float(np.max(np.abs(g)))


# calibration: the final residual bound relative to the length scale, the
# step in C of the upward bracketing walk and the largest C it walks to
RESIDUAL_TOL = 1e-8
SCAN_STEP = 0.25
C_MAX = 8.0


def calibrate_shell(V: RadialPotential, N: int,
                    beta: float) -> tuple[float, ScatteringResult]:
    """Find the smallest C > 1 whose shell cancels the scaled scattering length.

    Returns C and the solved `shell_problem(V, a(V), N, beta, C)`, whose
    scattering length is the final residual.  By Sturm comparison the
    residual is positive and u node-free below the smallest root, and the
    residual is negative or u has a node above it; a node (BoundStateError)
    reads as a residual of -inf.  The residual is walked up from C = 1 in
    SCAN_STEP steps to its first value <= 0, then the bracket is narrowed
    by Illinois regula falsi: each step takes the secant point of the
    bracket, halving the stored residual of an end kept twice in a row,
    or its midpoint while the upper end is -inf, clamped one float inside
    the bracket so that every solve narrows it, down to adjacent floats;
    a residual of exactly 0.0 ends it and is returned.  Otherwise the end
    with the smaller |residual| is returned if that is below RESIDUAL_TOL
    times the problem's length scale, else CalibrationError is raised.
    An a(V) of 0 needs no shell: C = 1.  Raises CalibrationError, with the
    walked residuals, if no bracket exists up to C = C_MAX.
    """
    if not (0.0 < beta <= 1.0):
        raise ScatteringError(f"beta must lie in (0, 1], got {beta}")
    if N < 2:
        raise ScatteringError("calibration needs N >= 2")
    a = scattering_length(V).scattering_length
    if a < 0.0:
        raise CalibrationError("calibration expects a positive scattering length")

    def solve(C: float) -> ScatteringResult:
        return scattering_length(shell_problem(V, a, N, beta, C))

    if a == 0.0:
        return 1.0, solve(1.0)

    def residual(C: float) -> float:
        try:
            return solve(C).scattering_length
        except BoundStateError:  # a node of u: past the smallest root
            return -math.inf

    c_lo = 1.0 + 1e-6
    walked = [(c_lo, residual(c_lo))]
    while walked[-1][1] > 0.0:
        if walked[-1][0] >= C_MAX:
            raise CalibrationError(
                f"no root bracketed for C in ({c_lo:.6g}, {C_MAX:.6g}]: "
                f"residuals run from {walked[0][1]:.6g} to {walked[-1][1]:.6g}"
            )
        c = min(walked[-1][0] + SCAN_STEP, C_MAX)
        walked.append((c, residual(c)))
    (lo, f_lo), (hi, f_hi) = (walked[:1] + walked)[-2:]  # lo = hi if c_lo ends the walk
    length_scale = max(V.support_radius, hi) * float(N) ** -beta
    g_lo, g_hi, kept = f_lo, f_hi, None  # the ends' residuals, halved while an end is kept
    while math.nextafter(lo, hi) < hi:  # until lo and hi are adjacent floats
        mid = 0.5 * (lo + hi) if math.isinf(g_hi) else hi - g_hi * (hi - lo) / (g_hi - g_lo)
        mid = min(max(mid, math.nextafter(lo, hi)), math.nextafter(hi, lo))  # strictly inside
        f_mid = residual(mid)
        if f_mid == 0.0:  # an exact root: no end of a narrower bracket does better
            return mid, solve(mid)
        if f_mid > 0.0:
            lo, f_lo, g_lo, g_hi = mid, f_mid, f_mid, g_hi / 2 if kept == "hi" else g_hi
            kept = "hi"
        else:
            hi, f_hi, g_hi, g_lo = mid, f_mid, f_mid, g_lo / 2 if kept == "lo" else g_lo
            kept = "lo"
    c_star, final = min((lo, f_lo), (hi, f_hi), key=lambda end: abs(end[1]))
    if abs(final) > RESIDUAL_TOL * length_scale:
        raise CalibrationError(
            f"calibration residual {final:.3e} exceeds {RESIDUAL_TOL:.1e} * {length_scale:.3e}"
        )
    return c_star, solve(c_star)
