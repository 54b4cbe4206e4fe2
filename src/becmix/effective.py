"""Split-step integration of the effective condensate systems.

Four couplings are supported through one Strang-split stepper:

* ``hartree``          -- two components with convolution nonlinearities
                          (V1*|u|^2) u + c2 (V12*|v|^2) u and the mirror,
* ``gross_pitaevskii`` -- local cubic system with couplings 8 pi a_j and
                          cross coupling c_j 8 pi a_12,
* ``rabi``             -- equal-species cubic term 8 pi a (|u|^2+|v|^2)
                          plus the linear population transfer B(t),
* ``spin1``            -- three components with spin-exchange terms.

One step is: half potential flow, full kinetic flow (circulant, see
below), half potential flow.  Every potential substep is an exact
pointwise flow: for hartree/gp a phase multiplication because the
densities are invariant under it; for rabi the 2x2 rotation; for spin1
the 3x3 rotation exp(-i g tau F.f), because the exchange flow conserves
the local spin density F.  `integrate` runs the steps of a whole
trajectory and merges the two half flows between unsampled steps.

The kinetic flow and hartree's convolutions are circulant operators,
diagonal in the transform basis.  On a 1-D grid of at most
DENSE_MAX_POINTS points they are applied as dense matrices, because one
matrix product there costs less than numpy's fft and ifft calls; larger
and 2-D/3-D grids transform, where the dense products lose (about 3x
slower at M = 256).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
import csv
import math
from typing import Callable, Sequence

import numpy as np

from .grids import Field, Grid, GridError, circulant, inner, l2_norm, save_field
from .grids import periodic_convolve  # noqa: F401  (perfbench/tracer.py patches it on this module)

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
    "hartree_energy",
    "conserved_energy",
]


_MODES = ("hartree", "gross_pitaevskii", "rabi", "spin1")

# the largest 1-D grid whose circulant operators are applied as dense matrices
DENSE_MAX_POINTS = 64


class EffectiveError(ValueError):
    """Invalid state/spec combination or a failed integration step."""


@dataclass(frozen=True)
class CouplingSpec:
    """Mode tag plus the couplings of one effective system.

    Use the classmethod constructors; every construction, also through
    `dataclasses.replace`, validates c1, the couplings, the rabi field's
    presence and the hartree potentials.  `potential` builds the map
    W(rho) of the potential flow on first use.  `kinetic` selects the
    transform-space symbol of -Laplacian: "spectral" (default, |k|^2) or
    "stencil" (3-point lattice symbol, for consistency runs against the
    many-body harness).
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
            if V is None:
                raise EffectiveError(f"hartree mode needs the potential {name}")
            if V.grid != self.grid:
                raise EffectiveError("potentials must share one grid")
            if not np.isfinite(V.values).all():
                raise EffectiveError(f"potential {name} must be finite")
            if not V.is_real(1e-10):
                raise EffectiveError(f"potential {name} must be real")
            if not V.is_even(1e-10):
                raise EffectiveError(f"potential {name} is not even under x -> -x on the grid")
        if self.mode == "rabi" and self.rabi_field is None:
            raise EffectiveError("rabi mode needs the field rabi_field")

    @property
    def c2(self) -> float:
        return 1.0 - self.c1

    @cached_property
    def potential(self) -> Callable[[np.ndarray], np.ndarray]:
        """W(rho), the multiplier each component's equation applies, for the
        stack rho of component densities (hartree, gross_pitaevskii, rabi;
        rabi's W is common to both components and broadcasts against rho)."""
        if self.mode == "hartree":
            # W_a = hd sum_b (K_ab * rho_b), K = [[V1, c2 V12], [c1 V12, V2]]
            V1, V2, V12 = (V.values.real for V in (self.V1, self.V2, self.V12))
            return _convolution(self.grid, self.grid.volume_element
                                * np.array([[V1, self.c2 * V12], [self.c1 * V12, V2]]))
        if self.mode == "gross_pitaevskii":
            couplings = 8.0 * np.pi * np.array([[self.a1, self.c2 * self.a12],
                                                [self.c1 * self.a12, self.a2]])
            return lambda rho: (couplings @ rho.reshape(2, -1)).reshape(rho.shape)
        g = 8.0 * np.pi * self.a
        return lambda rho: g * rho.sum(axis=0)

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


def _dense(grid: Grid) -> bool:
    """Whether the circulant operators on `grid` are applied as dense matrices."""
    return grid.dim == 1 and grid.points_per_axis <= DENSE_MAX_POINTS


def _spatial_fft(dim: int):
    """(fft, ifft) over the last `dim` axes, the spatial axes of a stack.

    On a 1-D grid that is the last axis, where np.fft.fft gives fftn's
    values without its per-call axis handling.
    """
    if dim == 1:
        return np.fft.fft, np.fft.ifft
    axes = tuple(range(-dim, 0))
    return partial(np.fft.fftn, axes=axes), partial(np.fft.ifftn, axes=axes)


def _convolution(grid: Grid, kernels: np.ndarray):
    """The map rho -> sum_b (kernels[a, b] * rho_b)(x) = sum_b sum_y kernels[a, b](x - y) rho_b(y)
    of real component stacks rho, for the real (n, n, *grid.shape) stack `kernels`."""
    if _dense(grid):
        n, M = kernels.shape[0], grid.points_per_axis
        matrix = circulant(kernels).transpose(0, 2, 1, 3).reshape(n * M, n * M)
        return lambda rho: (matrix @ rho.reshape(-1)).reshape(rho.shape)
    fft, ifft = _spatial_fft(grid.dim)
    transforms = fft(kernels)
    return lambda rho: ifft((transforms * fft(rho)).sum(axis=1)).real


def _kinetic_flow(spec: CouplingSpec, dt: float):
    """psi -> exp(i dt Laplacian) psi on a component stack, the multiplier
    exp(-i dt lambda) of the transforms for the Laplacian symbol lambda.  The
    dense circulant's first column, the inverse transform of the multiplier,
    is taken in long double and rounded once."""
    symbol = spec.grid.laplacian_symbol(spec.kinetic)
    if _dense(spec.grid):
        phase = np.exp(-1j * dt * symbol.astype(np.longdouble))
        flow = circulant(np.fft.ifft(phase).astype(complex))
        return lambda psi: psi @ flow.T
    phase = np.exp(-1j * dt * symbol)
    fft, ifft = _spatial_fft(spec.grid.dim)
    return lambda psi: ifft(phase * fft(psi))


def _spin_density(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F_z, F_+) of a spin-1 stack, with F_+ = (F_x + i F_y) / sqrt(2)."""
    u, v, w = psi
    return np.abs(u) ** 2 - np.abs(w) ** 2, np.conj(u) * v + np.conj(v) * w


def _potential_flow(spec: CouplingSpec):
    """The exact potential-only flow `flow(psi, tau, theta)` of one spec.

    psi stacks the components on axis 0; theta is the rabi rotation angle,
    the integral of B over the substep, and unused by the other modes.
    Every flow keeps the density that drives it (|u|^2 and |v|^2, n_tot,
    F), so the flows of tau1 and tau2 compose to the flow of tau1 + tau2,
    with the angles added.
    """
    if spec.mode != "spin1":
        potential, rotates = spec.potential, spec.mode == "rabi"

        def flow(psi, tau, theta):
            psi = np.exp(-1j * tau * potential(np.abs(psi) ** 2)) * psi
            # rabi: the rotation exp(-i theta sigma_x) commutes with the common phase
            return math.cos(theta) * psi - 1j * math.sin(theta) * psi[::-1] if rotates else psi
        return flow

    g = 8.0 * np.pi * spec.a

    def flow(psi, tau, theta):
        # spin1: i ds/dt = g (F.f) s conserves the spin density F pointwise, and
        # A = F.f/|F| satisfies A^3 = A, so the flow is the rotation
        # exp(-i theta A) = I - i sin(theta) A + (cos(theta) - 1) A^2 with
        # theta = g tau |F|.  With the half angle h = theta / 2 and s = g tau sin(h) / h,
        # sin(theta) / |F| = s cos(h) and (cos(theta) - 1) / |F|^2 = -s^2 / 2, which
        # keeps F = 0 at the identity.
        u, v, w = psi
        gt = g * tau
        fz, fp = _spin_density(psi)
        fm = np.conj(fp)
        half = (0.5 * gt) * np.sqrt(fz * fz + 2.0 * (fp * fm).real)
        s = gt * np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0)
        A = np.array([fz * u + fm * v, fp * u + fm * w, fp * v - fz * w])
        AA = np.array([fz * A[0] + fm * A[1], fp * A[0] + fm * A[2], fp * A[1] - fz * A[2]])
        return psi + ((-1j * s) * np.cos(half)) * A + ((-0.5 * s) * s) * AA
    return flow


def integrate(state: OrbitalState, spec: CouplingSpec, dt: float,
              steps: Sequence[int]) -> list[OrbitalState]:
    """The states after each of the increasing step counts `steps` of
    Strang steps of length dt from `state` (dt < 0 runs the flow backwards).

    One step is half potential flow, full kinetic flow, half potential
    flow.  The kinetic flow is built once: on a 1-D grid of at most
    DENSE_MAX_POINTS points as the circulant matrix whose first column is
    ifft(exp(-i dt lambda)), one matrix product per step; otherwise as the
    multiplier exp(-i dt lambda) between a transform and its inverse.
    `CouplingSpec.potential` builds the potential once per spec.  Where
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
    kinetic = _kinetic_flow(spec, dt)
    flow = _potential_flow(spec)
    half = 0.5 * dt
    B = spec.rabi_field if spec.mode == "rabi" else (lambda t: 0.0)
    sampled, last = set(steps), steps[-1]
    out = []
    t = state.time
    psi = flow(np.array([c.values for c in state.components]), half, half * B(t + 0.5 * half))
    for k in range(1, last + 1):
        psi = kinetic(psi)
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
    return conserved_energy(state, spec)


def conserved_energy(state: OrbitalState, spec: CouplingSpec) -> float:
    """The functional each mode's flow actually conserves.

    sum_j w_j <psi_j, -D psi_j> + (1/2) sum_j w_j <rho_j, W_j(rho)>, with
    W the potential the flow applies and the weights w = (c1, c2) for
    hartree (`hartree_energy`) and gross_pitaevskii, 1 for rabi and spin1.
    rabi adds 2 B Re<u,v> (conserved for constant B; for time-dependent B
    the current value of B(t) is used).  spin1's potential part is
    4 pi a int |F|^2 with F the spin density vector.
    """
    hd = spec.grid.volume_element
    weights = (spec.c1, spec.c2) if spec.mode in ("hartree", "gross_pitaevskii") \
        else (1.0,) * spec.n_components
    kin = sum(w * kinetic_energy(c, spec.kinetic) for w, c in zip(weights, state.components))
    psi = np.array([c.values for c in state.components])
    if spec.mode == "spin1":
        fz, fp = _spin_density(psi)
        f_sq = fz**2 + np.abs(np.sqrt(2.0) * fp) ** 2  # F_z^2 + F_x^2 + F_y^2
        return kin + 4.0 * np.pi * spec.a * float(hd * np.sum(f_sq))
    rho = np.abs(psi) ** 2
    potential = sum(w * float(np.sum(r)) for w, r in zip(weights, rho * spec.potential(rho)))
    energy = kin + 0.5 * hd * potential
    if spec.mode == "rabi":
        energy += 2.0 * spec.rabi_field(state.time) * inner(*state.components).real
    return energy
