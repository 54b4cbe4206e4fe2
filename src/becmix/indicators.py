"""Condensation indicators for two-species lattice states.

Everything measured during a convergence run lives here:

* reduced density matrices of one A particle, one B particle, or the
  A-B pair, by contraction of the occupation-basis coefficients,
* the overlap deficit alpha = 1 - <u x v, gamma u x v> and the trace
  distance to the condensed reference, with the two-sided comparison
  alpha <= Tr|..| <= 2 sqrt(alpha) for pure references,
* the marginal sandwich max{depletion_A, depletion_B} <= alpha <= sum,
* counting projectors P_k onto "exactly k particles outside the
  condensate orbital", weight operators sum g(k) P_k, and the weight
  families s(k) = k/N, n(k) = sqrt(k/N) and the regularized m,
* the time-derivative decomposition of alpha into the three commutator
  channels (one per potential), an exact identity along the coupled
  many-body + effective flow when both share the lattice kinetic term,
* the sixteen projector-insertion sandwiches of the cross-potential
  commutator, whose vanishing combinations are structural identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
import math
from typing import Callable, Sequence

import numpy as np

from .grids import Field, circulant
from .manybody import (
    KRYLOV_TOL,
    Hamiltonian,
    HamiltonianSpec,
    ManyBodyState,
    TwoSpeciesBasis,
    _along,
    _displacement_kernel,
    _interaction_diagonals,
    _lanczos,
    site_vector,
)

__all__ = [
    "ReducedDensity",
    "MarginalBounds",
    "WeightFunction",
    "CountingProjectorSet",
    "DerivativeChannels",
    "IndicatorError",
    "site_vector",
    "reduce_density",
    "alpha_11",
    "condensate_depletion",
    "trace_distance",
    "marginal_bounds_check",
    "counting_projectors",
    "weight_s",
    "weight_n",
    "weight_m",
    "weight_expectation",
    "derivative_decomposition",
    "SampleEvaluator",
    "insertion_terms",
    "INSERTION_KEYS",
]


class IndicatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mode machinery: annihilate / count the condensate orbital per species

def _orbital_sites(M: int, u: Field) -> np.ndarray:
    """The orbital's site vector, checked to have the basis' M sites and unit norm."""
    u_site = site_vector(u)
    if u_site.size != M:
        raise IndicatorError(f"orbital has {u_site.size} sites, the basis has {M}")
    if abs(np.linalg.norm(u_site) - 1.0) > 1e-8:
        raise IndicatorError("orbital must be normalized")
    return u_site


# ---------------------------------------------------------------------------
# reduced density matrices

@dataclass
class ReducedDensity:
    """Hermitian, positive, trace-one matrix on the one-particle or pair space."""

    kind: tuple[int, int]
    matrix: np.ndarray

    def validate(self, tol: float = 1e-12) -> None:
        m = self.matrix
        herm = np.max(np.abs(m - m.conj().T))
        if herm > tol:
            raise IndicatorError(f"reduced density not Hermitian: residual {herm:.2e}")
        tr = abs(np.trace(m).real - 1.0)
        if tr > tol:
            raise IndicatorError(f"reduced density trace deviates by {tr:.2e}")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w.min() < -tol:
            raise IndicatorError(f"reduced density has eigenvalue {w.min():.2e}")


def _pair_density(basis: TwoSpeciesBasis, psi: np.ndarray) -> np.ndarray:
    """gamma^(1,1) from W[x, y] = b_y a_x psi, in (x, a', y, b') order.

    The Gram sum runs over a', and each term gathers only the (x, y, b') slice
    of one a' from X = b_y psi through A's lowering table, so W is never held.
    """
    M = basis.M
    X = basis.B.lower(psi, 1)
    src, amp = basis.A.lowering
    gamma = np.zeros((M * M, M * M), dtype=complex)
    for a in range(src.shape[1]):
        Wa = (amp[:, a, None, None] * X[src[:, a]]).reshape(M * M, -1)
        gamma += Wa @ Wa.conj().T
    return gamma / (basis.N1 * basis.N2)


def _deficit(gamma: np.ndarray, ref: np.ndarray) -> float:
    """1 - <ref, gamma ref>."""
    return float(1.0 - np.vdot(ref, gamma @ ref).real)


def _trace_gap(gamma: np.ndarray, ref: np.ndarray) -> float:
    """Tr |gamma - |ref><ref||, by eigendecomposition of the Hermitian difference."""
    diff = gamma - np.outer(ref, np.conj(ref))
    w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(np.sum(np.abs(w)))


def reduce_density(state: ManyBodyState, kind: tuple[int, int]) -> ReducedDensity:
    """Partial trace of |psi><psi| down to one A and/or one B particle.

    kind (1,0)/(0,1): matrix on the M-site single-particle space,
    gamma[x, x'] = <a+_{x'} a_x> / N.  kind (1,1): matrix on the pair
    space with row index x*M + y, gamma = <a+_{x'} b+_{y'} b_y a_x> /
    (N1 N2).  Tracing the pair result over species B reproduces the
    (1,0) marginal.
    """
    b = state.basis
    if kind in ((1, 0), (0, 1)):
        species, psi = (b.A, state.psi) if kind == (1, 0) else (b.B, state.psi.T)
        W = species.lower(psi, 0).reshape(b.M, -1)    # row x: a_x psi, flattened
        gamma = (W @ W.conj().T) / species.N
    elif kind == (1, 1):
        gamma = _pair_density(b, state.psi)
    else:
        raise IndicatorError(f"kind must be (1,0), (0,1) or (1,1), got {kind}")
    return ReducedDensity(kind, gamma)


def alpha_11(state: ManyBodyState, u: Field, v: Field) -> float:
    """Overlap deficit 1 - <u x v, gamma^(1,1) u x v>."""
    b = state.basis
    ref = np.kron(_orbital_sites(b.M, u), _orbital_sites(b.M, v))
    return _deficit(_pair_density(b, state.psi), ref)


def condensate_depletion(state: ManyBodyState, orbital: Field, species: str) -> float:
    """1 - <orbital, gamma^(1,0 or 0,1) orbital> = <Q>/N for one species."""
    kind = {"A": (1, 0), "B": (0, 1)}.get(species)
    if kind is None:
        raise IndicatorError(f"species must be 'A' or 'B', got {species!r}")
    return _deficit(reduce_density(state, kind).matrix, _orbital_sites(state.basis.M, orbital))


def trace_distance(gamma: ReducedDensity, u: Field | None = None,
                   v: Field | None = None) -> float:
    """Tr |gamma - reference| with the pure condensed reference.

    Reference is |u><u|, |v><v| or |u x v><u x v| according to the kind;
    computed by eigendecomposition of the Hermitian difference.
    """
    orbitals = {(1, 1): (u, v), (1, 0): (u,), (0, 1): (v,)}[gamma.kind]
    if any(f is None for f in orbitals):
        raise IndicatorError(f"the {gamma.kind} marginal needs an orbital per kept species")
    M = gamma.matrix.shape[0] if len(orbitals) == 1 else math.isqrt(gamma.matrix.shape[0])
    return _trace_gap(gamma.matrix, reduce(np.kron, (_orbital_sites(M, f) for f in orbitals)))


@dataclass
class MarginalBounds:
    lhs_max: float
    middle: float
    rhs_sum: float
    lower_holds: bool
    upper_holds: bool


def marginal_bounds_check(state: ManyBodyState, u: Field, v: Field,
                          slack: float = 1e-10) -> MarginalBounds:
    """The two-sided bound tying single-species depletions to the pair deficit.

    max{1-<u,g10 u>, 1-<v,g01 v>} <= 1-<uv,g11 uv> <= their sum; this is
    a theorem for every state, so a violation beyond round-off indicates
    a bug upstream.
    """
    d_a = condensate_depletion(state, u, "A")
    d_b = condensate_depletion(state, v, "B")
    middle = alpha_11(state, u, v)
    lhs = max(d_a, d_b)
    rhs = d_a + d_b
    return MarginalBounds(lhs, middle, rhs,
                          lower_holds=(middle - lhs) >= -slack,
                          upper_holds=(rhs - middle) >= -slack)


# ---------------------------------------------------------------------------
# counting projectors and weights

@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight g(k) on the excitation count k = 0..N.

    `fn` must be defined for every k >= 0; values beyond N feed the
    shifted operators sum g(k+j) P_k.
    """

    N: int
    fn: Callable[[int], float]

    @property
    def values(self) -> np.ndarray:
        return np.array([self.fn(k) for k in range(self.N + 1)], dtype=float)

    def __call__(self, k: int) -> float:
        return float(self.fn(k))

    def shifted_values(self, j: int) -> np.ndarray:
        return np.array([self.fn(k + j) for k in range(self.N + 1)], dtype=float)

    def max_step(self) -> float:
        """sup_k |g(k+1) - g(k)| over k = 0..N (the shift-gap norm bound)."""
        vals = np.array([self.fn(k) for k in range(self.N + 2)], dtype=float)
        return float(np.max(np.abs(np.diff(vals))))


def weight_s(N: int) -> WeightFunction:
    return WeightFunction(N, lambda k: k / N)


def weight_n(N: int) -> WeightFunction:
    return WeightFunction(N, lambda k: math.sqrt(k / N))


def weight_m(N: int, xi: float) -> WeightFunction:
    """The regularized square-root weight.

    sqrt(k/N) above the crossover k = N^(1-2 xi), and the tangent-like
    line (N^(xi-1) k + N^(-xi))/2 below it; both branches meet at the
    crossover with value N^(-xi), and AM-GM gives
    n(k) <= m(k) <= max(n(k), N^(-xi)) everywhere.
    """
    if xi <= 0:
        raise IndicatorError("xi must be positive")
    crossover = float(N) ** (1.0 - 2.0 * xi)

    def fn(k: int) -> float:
        if k >= crossover:
            return math.sqrt(k / N)
        return 0.5 * (float(N) ** (xi - 1.0) * k + float(N) ** (-xi))

    return WeightFunction(N, fn)


@dataclass
class CountingProjectorSet:
    """The family P_k of projections onto "exactly k excited" sectors of one species.

    The set holds that species' mode operators: a(u) and a+(u) as `a` and
    `a_dag`, n_u = a+(u) a(u) and Q = sum_i q_i = N - n_u.  P_k is
    realized through the spectral calculus of Q rather than the
    symmetrized projector strings; the two definitions agree (unit tested
    against the literal strings at small N).  The count runs on phi =
    a(u) psi in the (N-1)-particle sector, where Q' = N - 1 - n_u: as
    a(u) f(n_u) = f(n_u + 1) a(u), a(u) P_k psi = P'_k phi, so for k < N
    ||P_k psi||^2 = ||P'_k phi||^2 / (N - k) and P_k psi = a+(u) P'_k phi /
    (N - k).  The all-excited sector P_N psi = psi - a+(u) chi, with chi =
    sum_{k<N} P'_k phi / (N - k), is formed as a vector, so its weight is a
    squared norm and never negative.  Q' has the integer spectrum
    {0..N-1}, so Lanczos on Q' from phi spans every P'_k phi with N vectors
    in exact arithmetic, and P'_k phi is the sum of the Ritz components
    whose Ritz values round to k.  A sector of tiny weight makes the
    Lanczos couplings small, which amplifies round-off into new
    directions; the space then grows past N vectors (at most 2N) until the
    residual estimate of every P'_k phi is below KRYLOV_TOL.  P'_k phi =
    beta0 V^T 1_k(T) e_1 is a function of T applied to e_1, so the plain
    recurrence suffices, as for time steps.
    """

    basis: TwoSpeciesBasis
    species: str
    orbital: Field

    def __post_init__(self):
        self.axis = 0 if self.species == "A" else 1
        self.N = self.basis.species(self.species).N
        self.u_site = _orbital_sites(self.basis.M, self.orbital)
        self.a, self.a_dag = self.basis.species(self.species).annihilator(self.u_site)

    def annihilate(self, psi: np.ndarray) -> np.ndarray:
        """a(u) psi, in the (N-1)-particle sector of the species."""
        return _along(self.a, psi, self.axis)

    def n_u(self, psi: np.ndarray) -> np.ndarray:
        """a+(u) a(u) psi."""
        return _along(self.a_dag, self.annihilate(psi), self.axis)

    def q_total(self, psi: np.ndarray) -> np.ndarray:
        """Q psi with Q = sum_i q_i = N - n_u."""
        return self.N * psi - self.n_u(psi)

    def _ritz(self, phi: np.ndarray):
        """(k, c, U, V) on phi = a(u) psi: P'_k phi sums c_j U[:, j] . V over the
        Ritz values of Q' rounding to k < N."""
        a, a_dag = self.basis.species(self.species).lowered.annihilator(self.u_site)
        top = self.N - 1

        def q_lowered(x: np.ndarray) -> np.ndarray:
            x = x.reshape(phi.shape)
            return (top * x - _along(a_dag, _along(a, x, self.axis), self.axis)).ravel()

        def sectors(lam):
            return np.clip(np.rint(lam), 0, top).astype(int)

        def accept(lam, U, beta):
            # beta |e_m^T 1_k(T) e_1| estimates ||Q' P'_k phi - k P'_k phi|| / ||phi||
            last = np.bincount(sectors(lam), weights=U[-1] * U[0], minlength=self.N)
            return beta * np.abs(last).max() < KRYLOV_TOL

        V = np.empty((2 * self.N, phi.size), dtype=np.complex128)
        beta0, lam, U, _ = _lanczos(q_lowered, phi, [V], accept)
        return sectors(lam), beta0 * U[0], U, V[:len(lam)]

    def split(self, state: ManyBodyState) -> np.ndarray:
        """P_k psi for k = 0..N, stacked on a leading axis."""
        psi = state.psi
        phi = self.annihilate(psi)
        k, c, U, V = self._ritz(phi)
        coeffs = np.zeros((self.N, len(V)))   # row k: P'_k phi / (N - k) in the basis V
        np.add.at(coeffs, k, (c / (self.N - k))[:, None] * U.T)
        parts = _along(self.a_dag, (coeffs @ V).reshape(self.N, *phi.shape), self.axis + 1)
        return np.concatenate([parts, (psi - parts.sum(axis=0))[None]])

    def sector_weights(self, state: ManyBodyState, phi: np.ndarray | None = None) -> np.ndarray:
        """||P_k psi||^2 for k = 0..N, from the Ritz weights below N and ||psi - a+(u) chi||^2
        at N; phi is a(u) psi if the caller holds it."""
        psi = state.psi
        phi = self.annihilate(psi) if phi is None else phi
        k, c, U, V = self._ritz(phi)
        c_chi = c / (self.N - k)   # chi sums c_chi[j] U[:, j] . V
        rest = psi - _along(self.a_dag, ((U @ c_chi) @ V).reshape(phi.shape), self.axis)
        return np.append(np.bincount(k, weights=c * c_chi, minlength=self.N),
                         np.vdot(rest, rest).real)


def counting_projectors(basis: TwoSpeciesBasis, u: Field, species: str) -> CountingProjectorSet:
    return CountingProjectorSet(basis, species, u)


def weight_expectation(state: ManyBodyState, g: WeightFunction, species: str,
                       orbital: Field) -> float:
    """<psi, g^ psi> = sum_k g(k) ||P_k psi||^2 for the given species."""
    cp = counting_projectors(state.basis, orbital, species)
    if g.N != cp.N:
        raise IndicatorError(f"weight defined for N={g.N}, species has N={cp.N}")
    return float(np.dot(g.values, cp.sector_weights(state)))


# ---------------------------------------------------------------------------
# derivative decomposition into potential channels

@dataclass
class DerivativeChannels:
    """The three commutator expectations; each is purely imaginary and
    d alpha/dt = i (c_v1 + c_v2 + c_v12) along the coupled flow."""

    c_v1: complex
    c_v2: complex
    c_v12: complex

    @property
    def alpha_dot(self) -> float:
        return float((1j * (self.c_v1 + self.c_v2 + self.c_v12)).real)


def _dressing(kernel: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Mean-field one-body multiplier (V * |f|^2)(x) = sum_y V(x-y) |s_y|^2 of the
    orbital f with unit site vector s."""
    return circulant(kernel) @ np.abs(site) ** 2


def _channels(spec: HamiltonianSpec, interactions, psi: np.ndarray, phi: np.ndarray,
              count_a: CountingProjectorSet, count_b: CountingProjectorSet) -> DerivativeChannels:
    """The three commutator channels, given the interaction diagonals and phi = a(u) psi.

    P-bar psi = a+(u) n_v phi / (N1 N2), as n_v acts on the other species.
    For a real diagonal X, <[X, S]> = -<[X, P-bar]> = -2i sum X Im(conj(psi)
    P-bar psi), read as row sums for V1, column sums for V2 and one dot for V12.
    """
    basis, u, v = count_a.basis, count_a.orbital, count_b.orbital
    if u.grid != spec.grid or v.grid != spec.grid:
        raise IndicatorError("state, orbitals and interaction spec must share one grid")
    flux = _along(count_a.a_dag, count_b.n_u(phi), count_a.axis)
    flux *= np.conj(psi)
    flux = flux.imag / (basis.N1 * basis.N2)
    w1, w2, cross = interactions
    occ_a, occ_b = basis.A.occs.astype(float), basis.B.occs.astype(float)
    # diagonal operators (occupation basis): pair interactions minus dressings
    x1 = w1 - occ_a @ _dressing(spec.kernel1, count_a.u_site)
    x2 = w2 - occ_b @ _dressing(spec.kernel2, count_b.u_site)
    c1, c2 = basis.N1 / (basis.N1 + basis.N2), basis.N2 / (basis.N1 + basis.N2)
    x12 = (cross - c2 * (occ_a @ _dressing(spec.kernel12, count_b.u_site))[:, None]
           - c1 * (occ_b @ _dressing(spec.kernel12, count_a.u_site))[None, :])
    return DerivativeChannels(-2j * float(x1 @ flux.sum(axis=1)),
                              -2j * float(x2 @ flux.sum(axis=0)),
                              -2j * float(np.vdot(x12, flux)))


def derivative_decomposition(state: ManyBodyState, u: Field, v: Field,
                             spec: HamiltonianSpec) -> DerivativeChannels:
    """Split d alpha/dt into the V1, V2 and V12 commutator channels.

    Each channel is <psi, [X, S] psi> with S = sum_{k,l} (1 - p_k p_l) /
    (N1 N2) and X the corresponding interaction minus its mean-field
    dressing; the orbitals must be the effective solution at the same
    time as the state, evolved with the lattice kinetic term.
    """
    b = state.basis
    if spec.grid.points_per_axis != b.M:
        raise IndicatorError("state, orbitals and interaction spec must share one grid")
    count_a = counting_projectors(b, u, "A")
    return _channels(spec, _interaction_diagonals(b, spec), state.psi,
                     count_a.annihilate(state.psi), count_a, counting_projectors(b, v, "B"))


class SampleEvaluator:
    """The sweep's columns at one time, reading the interaction diagonals of the
    run's Hamiltonian.

    (state, u, v) -> (alpha_11, trace_dist, alpha_10, alpha_01, C_V1_im,
    C_V2_im, C_V12_im, <g> for each weight g of the first species).  One
    pair density gives the first four; one a(u) psi serves the channels and the
    counting.
    """

    def __init__(self, H: Hamiltonian, weights: Sequence[WeightFunction]):
        for g in weights:
            if g.N != H.basis.N1:
                raise IndicatorError(f"weight defined for N={g.N}, species has N={H.basis.N1}")
        self.H = H
        self.weights = [g.values for g in weights]

    def __call__(self, state: ManyBodyState, u: Field, v: Field) -> tuple[float, ...]:
        H, b, psi = self.H, self.H.basis, state.psi
        count_a, count_b = counting_projectors(b, u, "A"), counting_projectors(b, v, "B")
        phi = count_a.annihilate(psi)
        ch = _channels(H.spec, H.interactions, psi, phi, count_a, count_b)
        sectors = count_a.sector_weights(state, phi)
        pair = _pair_density(b, psi)
        pair4 = pair.reshape((b.M,) * 4)                    # partial traces: gamma^(1,0), (0,1)
        ref = np.kron(count_a.u_site, count_b.u_site)
        return (_deficit(pair, ref), _trace_gap(pair, ref),
                _deficit(np.einsum("xyXy->xX", pair4), count_a.u_site),
                _deficit(np.einsum("xyxY->yY", pair4), count_b.u_site),
                ch.c_v1.imag, ch.c_v2.imag, ch.c_v12.imag,
                *(float(np.dot(g, sectors)) for g in self.weights))


# ---------------------------------------------------------------------------
# the sixteen projector-insertion sandwiches

INSERTION_KEYS = tuple(f"{a}{b},{c}{d}"
                       for a in "pq" for b in "pq" for c in "pq" for d in "pq")


def insertion_terms(state: ManyBodyState, u: Field, v: Field,
                    V12: Field) -> dict[str, complex]:
    """All sixteen sandwiches a1 b1 [K, P-bar] c1 d1 of the cross channel.

    K = V12(x1 - y1) - (V12*|v|^2)(x1) - (V12*|u|^2)(y1) and
    P-bar = sum_{k,l} p_k p_l / (N1 N2); the first A and B particles are
    projected onto/against the condensate orbitals on both sides.
    The sum of all sixteen equals <psi, [K, P-bar] psi>; the diagonal
    combinations (pp,pp), (qq,qq), (pq,pq)+(qp,qp) vanish identically
    and the mean-field dressing kills (pp,qp) + its conjugate.

    The labelled particles are the site indices of T[x, y] = b_y a_x psi /
    sqrt(N1 N2), in (x, a', y, b') order; the others stay in the lowered
    occupation sectors, where sum_{k>=2} p_k acts as n_u of that sector.
    """
    b = state.basis
    if V12.grid.points_per_axis != b.M or u.grid != V12.grid or v.grid != V12.grid:
        raise IndicatorError("state, orbitals and potential must share one grid")
    n1, n2 = b.N1, b.N2
    usite, vsite = _orbital_sites(b.M, u), _orbital_sites(b.M, v)
    p_u, p_v = np.outer(usite, np.conj(usite)), np.outer(vsite, np.conj(vsite))
    n_u, n_v = (a_dag @ a for a, a_dag in (b.A.lowered.annihilator(usite),
                                            b.B.lowered.annihilator(vsite)))
    kernel = _displacement_kernel(V12.grid, V12)
    # (V12 * |v|^2)(x_1) and (V12 * |u|^2)(y_1)
    K = (circulant(kernel) - _dressing(kernel, vsite)[:, None]
         - _dressing(kernel, usite)[None, :])[:, None, :, None]

    def apply_pbar(x: np.ndarray) -> np.ndarray:
        x = _along(p_u, x, 0) + _along(n_u, x, 1)
        return (_along(p_v, x, 2) + _along(n_v, x, 3)) / (n1 * n2)

    ops = {"p": (p_u, p_v), "q": (np.eye(b.M) - p_u, np.eye(b.M) - p_v)}
    T = b.A.lower(b.B.lower(state.psi, 1), 0) / math.sqrt(n1 * n2)

    def side(ac: str) -> np.ndarray:
        return _along(ops[ac[1]][1], _along(ops[ac[0]][0], T, 0), 2)

    terms, pairs = {}, ("pp", "pq", "qp", "qq")
    for right in pairs:          # T, one commuted right side and one left side stay alive
        x = side(right)
        commuted = apply_pbar(x)
        commuted *= K
        x *= K
        commuted -= apply_pbar(x)
        del x
        for left in pairs:
            terms[f"{left},{right}"] = complex(np.vdot(side(left), commuted))
    return {key: terms[key] for key in INSERTION_KEYS}
