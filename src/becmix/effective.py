"""Split-step integration of the effective condensate systems.

Four couplings are supported through one Strang-split stepper:

* ``hartree``          -- two components with convolution nonlinearities
                          (V1*|u|^2) u + c2 (V12*|v|^2) u and the mirror,
* ``gross_pitaevskii`` -- local cubic system with couplings 8 pi a_j and
                          cross coupling c_j 8 pi a_12,
* ``rabi``             -- equal-species cubic term 8 pi a (|u|^2+|v|^2)
                          plus the linear population transfer B(t),
* ``spin1``            -- three components with spin-exchange terms.

One step is: half potential flow, full kinetic flow (diagonal in the
transform basis), half potential flow.  Every potential substep is an
exact pointwise flow: for hartree/gp a phase multiplication because the
densities are invariant under it; for rabi the 2x2 rotation; for spin1
the 3x3 rotation exp(-i g tau F.f), because the exchange flow conserves
the local spin density F.  `integrate` runs the steps of a whole
trajectory and merges the two half flows between unsampled steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
import csv
import math
from typing import Callable, Sequence

import numpy as np

from .grids import Field, Grid, GridError, inner, l2_norm, periodic_convolve, save_field

__all__ = [
    "CouplingSpec",
    "OrbitalState",
    "Trajectory",
    "EffectiveError",
    "step",
    "integrate",
    "evolve",
    "mass",
    "magnetization",
    "kinetic_energy",
    "gp_energy",
    "hartree_energy",
    "conserved_energy",
]


_MODES = ("hartree", "gross_pitaevskii", "rabi", "spin1")


class EffectiveError(ValueError):
    """Invalid state/spec combination or a failed integration step."""


def _check_even(f: Field, name: str):
    v = f.values
    for axis in range(f.grid.dim):
        flipped = np.roll(np.flip(v, axis=axis), 1, axis=axis)
        scale = np.max(np.abs(v)) or 1.0
        if np.max(np.abs(v - flipped)) > 1e-10 * scale:
            raise EffectiveError(f"potential {name} is not even under x -> -x on the grid")


@dataclass(frozen=True)
class CouplingSpec:
    """Mode tag plus the couplings of one effective system.

    Use the classmethod constructors; every construction, also through
    `dataclasses.replace`, validates c1, the couplings and the hartree
    potentials, whose transforms `potential_transforms` computes on first
    use.  `kinetic` selects the transform-space symbol of -Laplacian:
    "spectral" (default, |k|^2) or "stencil" (3-point lattice symbol,
    for consistency runs against the many-body harness).
    """

    mode: str
    grid: Grid
    c1: float = 0.5
    V1: Field | None = None
    V2: Field | None = None
    V12: Field | None = None
    a1: float = 0.0
    a2: float = 0.0
    a12: float = 0.0
    a: float = 0.0
    rabi_field: Callable[[float], float] | None = None
    kinetic: str = "spectral"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise EffectiveError(f"unknown mode {self.mode!r}, expected one of {_MODES}")
        try:
            self.grid.laplacian_symbol(self.kinetic)
        except GridError as exc:
            raise EffectiveError(str(exc)) from None
        if not (0.0 < self.c1 < 1.0):
            raise EffectiveError(f"c1 must lie in (0,1), got {self.c1}")
        for name in ("a1", "a2", "a12", "a"):
            if not math.isfinite(getattr(self, name)):
                raise EffectiveError(f"{name} must be finite")
        for name in ("V1", "V2", "V12") if self.mode == "hartree" else ():
            V = getattr(self, name)
            if V.grid != self.grid:
                raise EffectiveError("potentials must share one grid")
            if not V.is_real(1e-10):
                raise EffectiveError(f"potential {name} must be real")
            _check_even(V, name)

    @property
    def c2(self) -> float:
        return 1.0 - self.c1

    @cached_property
    def potential_transforms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Discrete transforms of V1, V2 and V12 (hartree mode)."""
        return tuple(np.fft.fftn(V.values) for V in (self.V1, self.V2, self.V12))

    @property
    def n_components(self) -> int:
        return 3 if self.mode == "spin1" else 2

    @classmethod
    def hartree(cls, V1: Field, V2: Field, V12: Field, c1: float = 0.5,
                kinetic: str = "spectral") -> "CouplingSpec":
        return cls(mode="hartree", grid=V1.grid, c1=c1, V1=V1, V2=V2, V12=V12, kinetic=kinetic)

    @classmethod
    def gross_pitaevskii(cls, grid: Grid, a1: float, a2: float, a12: float,
                         c1: float = 0.5, kinetic: str = "spectral") -> "CouplingSpec":
        return cls(mode="gross_pitaevskii", grid=grid, c1=c1, a1=a1, a2=a2, a12=a12,
                   kinetic=kinetic)

    @classmethod
    def rabi(cls, grid: Grid, a: float, B: Callable[[float], float] | float,
             kinetic: str = "spectral") -> "CouplingSpec":
        B_fn = (lambda t, _B=float(B): _B) if not callable(B) else B
        return cls(mode="rabi", grid=grid, a=a, rabi_field=B_fn, kinetic=kinetic)

    @classmethod
    def spin1(cls, grid: Grid, a: float, kinetic: str = "spectral") -> "CouplingSpec":
        return cls(mode="spin1", grid=grid, a=a, kinetic=kinetic)


@dataclass(frozen=True)
class OrbitalState:
    """Tuple of condensate orbitals at one time.

    Mixture modes expect each component normalized to one; the spinor
    modes conserve only the total norm, so per-component norms are free
    to move.  Normalization is the caller's contract (the soliton and
    damping oracles legitimately feed non-unit components).
    """

    components: tuple[Field, ...]
    time: float = 0.0

    def __post_init__(self):
        if len(self.components) not in (2, 3):
            raise EffectiveError("expected 2 or 3 components")
        g = self.components[0].grid
        if any(c.grid != g for c in self.components):
            raise EffectiveError("components must share one grid")

    @property
    def grid(self) -> Grid:
        return self.components[0].grid


def mass(state: OrbitalState) -> tuple[float, ...]:
    """Discrete L2 mass of each component."""
    return tuple(l2_norm(c) ** 2 for c in state.components)


def magnetization(state: OrbitalState) -> float:
    """Integral of |u|^2 - |w|^2 for a three-component state."""
    if len(state.components) != 3:
        raise EffectiveError("magnetization is defined for spin1 states")
    u, _, w = state.components
    hd = state.grid.volume_element
    return float(hd * np.sum(np.abs(u.values) ** 2 - np.abs(w.values) ** 2))


def _spatial_fft(dim: int):
    """(fft, ifft) over the spatial axes 1..dim of a component stack.

    On a 1-D grid that is the last axis, where np.fft.fft gives fftn's
    values without its per-call axis handling.
    """
    if dim == 1:
        return np.fft.fft, np.fft.ifft
    axes = tuple(range(1, dim + 1))
    return partial(np.fft.fftn, axes=axes), partial(np.fft.ifftn, axes=axes)


def _potential_flow(spec: CouplingSpec):
    """The exact potential-only flow `flow(psi, tau, theta)` of one spec.

    psi stacks the components on axis 0; theta is the rabi rotation angle,
    the integral of B over the substep, and unused by the other modes.
    Every flow keeps the density that drives it (|u|^2 and |v|^2, n_tot,
    F), so the flows of tau1 and tau2 compose to the flow of tau1 + tau2,
    with the angles added.
    """
    if spec.mode == "hartree":
        # W = hd ifft(K rho_hat), K = [[V1, c2 V12], [c1 V12, V2]] on the transforms
        V1, V2, V12 = spec.potential_transforms
        kernel = spec.grid.volume_element * np.array([[V1, spec.c2 * V12],
                                                      [spec.c1 * V12, V2]])
        fft, ifft = _spatial_fft(spec.grid.dim)

        def flow(psi, tau, theta):
            rho_hat = fft(np.abs(psi) ** 2)
            W = ifft((kernel * rho_hat).sum(axis=1)).real
            return np.exp(-1j * tau * W) * psi
        return flow

    if spec.mode == "gross_pitaevskii":
        couplings = 8.0 * np.pi * np.array([[spec.a1, spec.c2 * spec.a12],
                                            [spec.c1 * spec.a12, spec.a2]])

        def flow(psi, tau, theta):
            W = np.tensordot(couplings, np.abs(psi) ** 2, axes=1)
            return np.exp(-1j * tau * W) * psi
        return flow

    if spec.mode == "rabi":
        g = 8.0 * np.pi * spec.a

        def flow(psi, tau, theta):
            # the rotation exp(-i theta sigma_x) commutes with the common
            # nonlinear phase
            phase = np.exp(-1j * tau * g * (np.abs(psi) ** 2).sum(axis=0))
            return phase * (math.cos(theta) * psi - 1j * math.sin(theta) * psi[::-1])
        return flow

    g = 8.0 * np.pi * spec.a

    def flow(psi, tau, theta):
        # spin1: i ds/dt = g (F.f) s conserves the spin density F pointwise, and
        # A = F.f/|F| satisfies A^3 = A, so the flow is the rotation
        # exp(-i theta A) = I - i sin(theta) A + (cos(theta) - 1) A^2 with
        # theta = g tau |F|; sinc keeps F = 0 at the identity.
        u, v, w = psi
        gt = g * tau
        fz = np.abs(u) ** 2 - np.abs(w) ** 2
        fp = np.conj(u) * v + np.conj(v) * w  # (F_x + i F_y) / sqrt(2)
        fm = np.conj(fp)
        angle = gt * np.sqrt(fz**2 + 2.0 * np.abs(fp) ** 2)
        sin_coef = -1j * gt * np.sinc(angle / np.pi)
        cos_coef = -0.5 * gt**2 * np.sinc(angle / (2.0 * np.pi)) ** 2
        A = np.array([fz * u + fm * v, fp * u + fm * w, fp * v - fz * w])
        AA = np.array([fz * A[0] + fm * A[1], fp * A[0] + fm * A[2], fp * A[1] - fz * A[2]])
        return psi + sin_coef * A + cos_coef * AA
    return flow


def integrate(state: OrbitalState, spec: CouplingSpec, dt: float,
              steps: Sequence[int]) -> list[OrbitalState]:
    """The states after each of the increasing step counts `steps` of
    Strang steps of length dt from `state` (dt < 0 runs the flow backwards).

    One step is half potential flow, full kinetic flow, half potential
    flow.  The kinetic phase and the potential flow are built once.  Where
    a step is not sampled, its closing half flow and the opening half flow
    of the next step are one flow of length dt, exact because every flow
    keeps its driving density; the rabi angles of the two halves add.
    """
    if len(state.components) != spec.n_components:
        raise EffectiveError(
            f"{spec.mode} expects {spec.n_components} components, got {len(state.components)}"
        )
    if state.grid != spec.grid:
        raise EffectiveError("state and spec grids differ")
    if dt == 0.0:
        raise EffectiveError("dt must be nonzero")
    if not steps or steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
        raise EffectiveError(f"steps must be increasing counts >= 1, got {list(steps)!r}")
    fft, ifft = _spatial_fft(spec.grid.dim)
    kin_phase = np.exp(-1j * dt * spec.grid.laplacian_symbol(spec.kinetic))
    flow = _potential_flow(spec)
    half = 0.5 * dt
    B = spec.rabi_field if spec.mode == "rabi" else (lambda t: 0.0)
    sampled, last = set(steps), steps[-1]
    out = []
    t = state.time
    psi = flow(np.array([c.values for c in state.components]), half, half * B(t + 0.5 * half))
    for k in range(1, last + 1):
        psi = ifft(kin_phase * fft(psi))
        closing = half * B((t + half) + 0.5 * half)
        t = t + dt
        if k not in sampled:
            psi = flow(psi, dt, closing + half * B(t + 0.5 * half))
            continue
        psi = flow(psi, half, closing)
        if not np.all(np.isfinite(psi)):
            raise EffectiveError(f"non-finite values produced by step {k}")
        out.append(OrbitalState(tuple(Field(spec.grid, a) for a in psi), time=t))
        if k < last:
            psi = flow(psi, half, half * B(t + 0.5 * half))
    return out


def step(state: OrbitalState, spec: CouplingSpec, dt: float) -> OrbitalState:
    """One Strang step of length dt (dt < 0 runs the flow backwards)."""
    return integrate(state, spec, dt, [1])[0]


@dataclass
class Trajectory:
    """Sampled times, states and conserved quantities of one run."""

    times: list[float] = field(default_factory=list)
    states: list[OrbitalState] = field(default_factory=list)
    masses: list[tuple[float, ...]] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    magnetizations: list[float] | None = None

    def append(self, state: OrbitalState, spec: CouplingSpec):
        if self.times and state.time <= self.times[-1]:
            raise EffectiveError("trajectory times must be strictly increasing")
        self.times.append(state.time)
        self.states.append(state)
        self.masses.append(mass(state))
        self.energies.append(conserved_energy(state, spec))
        if spec.mode == "spin1":
            if self.magnetizations is None:
                self.magnetizations = []
            self.magnetizations.append(magnetization(state))

    def write_csv(self, path, snapshot_dir=None) -> None:
        """CSV columns: t, mass_1, mass_2[, mass_3], energy[, magnetization]."""
        ncomp = len(self.masses[0]) if self.masses else 2
        header = ["t"] + [f"mass_{i + 1}" for i in range(ncomp)] + ["energy"]
        if self.magnetizations is not None:
            header.append("magnetization")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, t in enumerate(self.times):
                row = [t, *self.masses[i], self.energies[i]]
                if self.magnetizations is not None:
                    row.append(self.magnetizations[i])
                writer.writerow([format(float(x), ".17g") for x in row])
        if snapshot_dir is not None:
            for i, st in enumerate(self.states):
                for j, comp in enumerate(st.components):
                    save_field(comp, f"{snapshot_dir}/snap_{i:05d}_c{j + 1}.bin")


def evolve(state: OrbitalState, spec: CouplingSpec, T: float, dt: float,
           sample_every: int = 1) -> Trajectory:
    """Strang steps of length dt until time T, sampling every `sample_every` steps.

    The step count is round(T/dt), which must reach T to a relative 1e-9.
    """
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise EffectiveError(f"T and dt must be finite, got T = {T!r}, dt = {dt!r}")
    if T <= 0 or dt <= 0 or dt > T:
        raise EffectiveError("need 0 < dt <= T")
    if not math.isfinite(T / dt):
        raise EffectiveError(f"dt = {dt!r} is too small, T / dt overflows")
    if sample_every < 1:
        raise EffectiveError("sample_every must be >= 1")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise EffectiveError(f"T = {T!r} is not a multiple of dt = {dt!r}")
    traj = Trajectory()
    traj.append(state, spec)
    for sample in integrate(state, spec, dt, [*range(sample_every, n_steps, sample_every),
                                              n_steps]):
        traj.append(sample, spec)
    return traj


def kinetic_energy(f: Field, kinetic: str = "spectral") -> float:
    """<f, -Laplacian f> with the requested lattice symbol (Parseval form)."""
    g = f.grid
    fhat = np.fft.fftn(f.values)
    k2 = g.laplacian_symbol(kinetic)
    return float(np.sum(k2 * np.abs(fhat) ** 2) * g.volume_element / g.total_points)


def _quartic(f: np.ndarray, g: np.ndarray, hd: float) -> float:
    return float(hd * np.sum(np.abs(f) ** 2 * np.abs(g) ** 2))


def gp_energy(state: OrbitalState, spec: CouplingSpec) -> float:
    """Gross-Pitaevskii energy functional of a two-component state.

    kinetic(u) + kinetic(v) + 4 pi a1 int |u|^4 + 4 pi a2 int |v|^4
    + 8 pi a12 int |u|^2 |v|^2.  Note this unweighted form is the
    energy whose vanishing-coupling limit is the total kinetic energy;
    the quantity conserved by the c-weighted flow is
    `conserved_energy`, which carries c1/c2 weights.
    """
    if spec.mode != "gross_pitaevskii":
        raise EffectiveError(f"gp_energy needs gross_pitaevskii mode, got {spec.mode}")
    u, v = (c.values for c in state.components)
    hd = spec.grid.volume_element
    kin = kinetic_energy(state.components[0], spec.kinetic) \
        + kinetic_energy(state.components[1], spec.kinetic)
    return (kin
            + 4.0 * np.pi * spec.a1 * _quartic(u, u, hd)
            + 4.0 * np.pi * spec.a2 * _quartic(v, v, hd)
            + 8.0 * np.pi * spec.a12 * _quartic(u, v, hd))


def hartree_energy(state: OrbitalState, spec: CouplingSpec) -> float:
    """Conserved energy of the convolution system, per-particle normalized.

    c1 <u,-Du> + c2 <v,-Dv> + (c1/2) <|u|^2, V1*|u|^2>
    + (c2/2) <|v|^2, V2*|v|^2> + c1 c2 <|u|^2, V12*|v|^2>.

    These weights are the unique ones (up to overall scale) whose
    gradient flow reproduces the c-weighted coupled system, and the
    scale is fixed so the value is the large-N limit of the many-body
    energy per particle at product states.
    """
    if spec.mode != "hartree":
        raise EffectiveError(f"hartree_energy needs hartree mode, got {spec.mode}")
    u, v = state.components
    rho_u = Field(spec.grid, np.abs(u.values) ** 2)
    rho_v = Field(spec.grid, np.abs(v.values) ** 2)
    hd = spec.grid.volume_element
    self1 = float(hd * np.sum(periodic_convolve(spec.V1, rho_u).values.real * rho_u.values.real))
    self2 = float(hd * np.sum(periodic_convolve(spec.V2, rho_v).values.real * rho_v.values.real))
    cross = float(hd * np.sum(periodic_convolve(spec.V12, rho_v).values.real * rho_u.values.real))
    c1, c2 = spec.c1, spec.c2
    return (c1 * kinetic_energy(u, spec.kinetic) + c2 * kinetic_energy(v, spec.kinetic)
            + 0.5 * c1 * self1 + 0.5 * c2 * self2 + c1 * c2 * cross)


def conserved_energy(state: OrbitalState, spec: CouplingSpec) -> float:
    """The functional each mode's flow actually conserves.

    hartree: `hartree_energy`.  gross_pitaevskii: the c-weighted cubic
    functional.  rabi: kinetic + 4 pi a int (|u|^2+|v|^2)^2 + 2 B Re<u,v>
    (conserved for constant B; for time-dependent B the current value of
    B(t) is used).  spin1: kinetic + 4 pi a int |F|^2 with F the spin
    density vector.
    """
    hd = spec.grid.volume_element
    if spec.mode == "hartree":
        return hartree_energy(state, spec)
    if spec.mode == "gross_pitaevskii":
        u, v = (c.values for c in state.components)
        c1, c2 = spec.c1, spec.c2
        kin = c1 * kinetic_energy(state.components[0], spec.kinetic) \
            + c2 * kinetic_energy(state.components[1], spec.kinetic)
        return (kin
                + 4.0 * np.pi * spec.a1 * c1 * _quartic(u, u, hd)
                + 4.0 * np.pi * spec.a2 * c2 * _quartic(v, v, hd)
                + 8.0 * np.pi * spec.a12 * c1 * c2 * _quartic(u, v, hd))
    if spec.mode == "rabi":
        u, v = state.components
        n_tot = np.abs(u.values) ** 2 + np.abs(v.values) ** 2
        kin = kinetic_energy(u, spec.kinetic) + kinetic_energy(v, spec.kinetic)
        B = spec.rabi_field(state.time)
        return (kin + 4.0 * np.pi * spec.a * float(hd * np.sum(n_tot**2))
                + 2.0 * B * inner(u, v).real)
    u, v, w = (c.values for c in state.components)  # spin1
    fz = np.abs(u) ** 2 - np.abs(w) ** 2
    fplus = np.sqrt(2.0) * (np.conj(u) * v + np.conj(v) * w)
    f_sq = fz**2 + np.abs(fplus) ** 2
    kin = sum(kinetic_energy(c, spec.kinetic) for c in state.components)
    return kin + 4.0 * np.pi * spec.a * float(hd * np.sum(f_sq))
