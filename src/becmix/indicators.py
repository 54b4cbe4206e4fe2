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
  commutator, whose vanishing combinations are structural identities,
* the corrected convergence functionals that subtract pair-correlation
  terms weighted by shifted counting operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
import math
from typing import Callable, Sequence

import numpy as np

from .grids import Field
from .manybody import (
    KRYLOV_TOL,
    HamiltonianSpec,
    ManyBodyState,
    TwoSpeciesBasis,
    _SpeciesBasis,
    _circulant,
    _interaction_diagonals,
    _lanczos,
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
    "corrected_alpha",
]


class IndicatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mode machinery: annihilate / count the condensate orbital per species

def site_vector(f: Field) -> np.ndarray:
    """Orbital as a unit vector in the site basis (values times sqrt(h))."""
    return f.values.ravel() * math.sqrt(f.grid.volume_element)


def _orbital_sites(basis: TwoSpeciesBasis, u: Field) -> np.ndarray:
    """The orbital's unit site vector, checked against the basis' site count."""
    u_site = site_vector(u)
    if u_site.size != basis.M:
        raise IndicatorError(f"orbital has {u_site.size} sites, the basis has {basis.M}")
    return u_site


def _annihilator(species: _SpeciesBasis, u_site: np.ndarray):
    """a(u) = sum_x conj(u_x) a_x as CSR, and its adjoint as CSC on the same arrays."""
    import scipy.sparse as sp
    indptr, col, site, sqrt_n = species.lowering[1]
    data = np.conj(u_site)[site] * sqrt_n
    shape = (indptr.size - 1, species.dim)
    return (sp.csr_matrix((data, col, indptr), shape=shape),
            sp.csc_matrix((data.conj(), col, indptr), shape=shape[::-1]))


def _along(op, arr: np.ndarray, axis: int) -> np.ndarray:
    """The matrix op (dense or sparse) applied to one axis of arr."""
    moved = np.moveaxis(arr, axis, 0)
    out = op @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(out.reshape(-1, *moved.shape[1:]), 0, axis)


class _ModeOps:
    """Apply a(u), a+(u), n_u and Q = N - n_u for one species."""

    def __init__(self, basis: TwoSpeciesBasis, species: str, u: Field):
        self.axis = 0 if species == "A" else 1
        self.N = basis.species(species).N
        self.u_site = _orbital_sites(basis, u)
        if abs(np.linalg.norm(self.u_site) - 1.0) > 1e-8:
            raise IndicatorError("orbital must be normalized")
        self.a, self.a_dag = _annihilator(basis.species(species), self.u_site)

    def annihilate(self, psi: np.ndarray) -> np.ndarray:
        """a(u) psi, mapping into the (N-1)-particle sector of the species."""
        return _along(self.a, psi, self.axis)

    def create(self, phi: np.ndarray) -> np.ndarray:
        """a+(u) phi, mapping back into the N-particle sector."""
        return _along(self.a_dag, phi, self.axis)

    def n_u(self, psi: np.ndarray) -> np.ndarray:
        return self.create(self.annihilate(psi))

    def q_total(self, psi: np.ndarray) -> np.ndarray:
        """Q psi with Q = sum_i q_i = N - n_u."""
        return self.N * psi - self.n_u(psi)


# ---------------------------------------------------------------------------
# reduced density matrices

@dataclass
class ReducedDensity:
    """Hermitian, positive, trace-one matrix on the one-particle or pair space."""

    kind: tuple[int, int]
    matrix: np.ndarray
    N1: int
    N2: int
    time: float = 0.0

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


def _gram(W: np.ndarray, norm: int) -> np.ndarray:
    """W W^H / norm; row x of W is the lowered state of index x, flattened."""
    return (W @ W.conj().T) / norm


def _pair_lowered(basis: TwoSpeciesBasis, psi: np.ndarray) -> np.ndarray:
    """W[x, a', y, b'] = (b_y a_x psi)[a', b'], one stacked product per species."""
    lowered_b = basis.B.lowering[0] @ psi.T                    # (M dimB', dimA)
    W = basis.A.lowering[0] @ lowered_b.T
    return W.reshape(basis.M, basis.A.lowered.dim, basis.M, -1)


def _pair_density(basis: TwoSpeciesBasis, psi: np.ndarray) -> np.ndarray:
    """gamma^(1,1) from W[x, y] = b_y a_x psi.

    W is held once, in (x, a', y, b') order; the Gram sum runs over a', so
    each term copies only the (x, y, b') slice of one a'.
    """
    M = basis.M
    W = _pair_lowered(basis, psi)
    gamma = np.zeros((M * M, M * M), dtype=complex)
    for a in range(W.shape[1]):
        Wa = W[:, a].reshape(M * M, -1)
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
    if kind == (1, 0):
        gamma = _gram((b.A.lowering[0] @ state.psi).reshape(b.M, -1), b.N1)
    elif kind == (0, 1):
        gamma = _gram((b.B.lowering[0] @ state.psi.T).reshape(b.M, -1), b.N2)
    elif kind == (1, 1):
        gamma = _pair_density(b, state.psi)
    else:
        raise IndicatorError(f"kind must be (1,0), (0,1) or (1,1), got {kind}")
    return ReducedDensity(kind, gamma, b.N1, b.N2, state.time)


def alpha_11(state: ManyBodyState, u: Field, v: Field) -> float:
    """Overlap deficit 1 - <u x v, gamma^(1,1) u x v>."""
    b = state.basis
    ref = np.kron(_orbital_sites(b, u), _orbital_sites(b, v))
    return _deficit(_pair_density(b, state.psi), ref)


def condensate_depletion(state: ManyBodyState, orbital: Field, species: str) -> float:
    """1 - <orbital, gamma^(1,0 or 0,1) orbital> = <Q>/N for one species."""
    kind = {"A": (1, 0), "B": (0, 1)}.get(species)
    if kind is None:
        raise IndicatorError(f"species must be 'A' or 'B', got {species!r}")
    return _deficit(reduce_density(state, kind).matrix, _orbital_sites(state.basis, orbital))


def trace_distance(gamma: ReducedDensity, u: Field | None = None,
                   v: Field | None = None) -> float:
    """Tr |gamma - reference| with the pure condensed reference.

    Reference is |u><u|, |v><v| or |u x v><u x v| according to the kind;
    computed by eigendecomposition of the Hermitian difference.
    """
    orbitals = {(1, 1): (u, v), (1, 0): (u,), (0, 1): (v,)}[gamma.kind]
    if any(f is None for f in orbitals):
        raise IndicatorError(f"the {gamma.kind} marginal needs an orbital per kept species")
    ref = reduce(np.kron, map(site_vector, orbitals))
    if ref.size != gamma.matrix.shape[0]:
        raise IndicatorError("orbital dimension does not match the marginal")
    return _trace_gap(gamma.matrix, ref)


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

    kind: str
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
    return WeightFunction("s", N, lambda k: k / N)


def weight_n(N: int) -> WeightFunction:
    return WeightFunction("n", N, lambda k: math.sqrt(k / N))


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

    return WeightFunction("m", N, fn)


@dataclass
class CountingProjectorSet:
    """The family P_k of projections onto "exactly k excited" sectors.

    Realized through the spectral calculus of Q = sum_i q_i rather than
    the symmetrized projector strings; the two definitions agree (unit
    tested against the literal strings at small N).  Q has the integer
    spectrum {0..N}, so Lanczos on Q from psi spans every P_k psi with
    N + 1 vectors in exact arithmetic, and P_k psi is the sum of the Ritz
    components whose Ritz values round to k.  A sector of tiny weight makes
    the Lanczos couplings small, which amplifies round-off into new
    directions; the space then grows past N + 1 vectors (at most 2N + 2)
    until the residual estimate of every P_k psi is below KRYLOV_TOL.
    """

    basis: TwoSpeciesBasis
    species: str
    orbital: Field

    def __post_init__(self):
        self._mode = _ModeOps(self.basis, self.species, self.orbital)

    @property
    def N(self) -> int:
        return self._mode.N

    def _ritz(self, psi: np.ndarray):
        """(k, c, U, V): P_k psi sums c_j (U^T V)_j over the Ritz values rounding to k."""
        def sectors(lam):
            return np.clip(np.rint(lam), 0, self.N).astype(int)

        def accept(lam, U, beta):
            # beta |e_m^T 1_k(T) e_1| estimates ||Q P_k psi - k P_k psi|| / ||psi||
            last = np.bincount(sectors(lam), weights=U[-1] * U[0], minlength=self.N + 1)
            return beta * np.abs(last).max() < KRYLOV_TOL

        beta0, V, lam, U, _ = _lanczos(lambda x: self._mode.q_total(x.reshape(psi.shape)).ravel(),
                                       psi, 2 * self.N + 2, accept, reorthogonalize=True)
        return sectors(lam), beta0 * U[0], U, V

    def split(self, state: ManyBodyState) -> np.ndarray:
        """P_k psi for k = 0..N, stacked on a leading axis."""
        k, c, U, V = self._ritz(state.psi)
        parts = np.zeros((self.N + 1, state.psi.size), dtype=complex)
        np.add.at(parts, k, c[:, None] * (U.T @ V))
        return parts.reshape(self.N + 1, *state.psi.shape)

    def sector_weights(self, state: ManyBodyState) -> np.ndarray:
        """||P_k psi||^2 for k = 0..N, read from the Ritz weights without forming P_k psi."""
        k, c, _, _ = self._ritz(state.psi)
        return np.bincount(k, weights=c**2, minlength=self.N + 1)


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


def _dressing(kernel_bare: np.ndarray, density: np.ndarray, h: float) -> np.ndarray:
    """Mean-field one-body multiplier (V * rho)(x) = h sum_y V(x-y) rho(y)."""
    return h * (_circulant(kernel_bare) @ density)


def _static_diagonals(basis: TwoSpeciesBasis, spec: HamiltonianSpec):
    """The interactions of the three channels, fixed along a run."""
    if spec.scaling != "mean_field":
        raise IndicatorError("derivative channels are defined for the mean-field scaling")
    if spec.grid.points_per_axis != basis.M:
        raise IndicatorError("state, orbitals and interaction spec must share one grid")
    return _interaction_diagonals(basis, spec)


def _channels(basis: TwoSpeciesBasis, spec: HamiltonianSpec, static, psi: np.ndarray,
              mode_a: _ModeOps, mode_b: _ModeOps, u: Field, v: Field) -> DerivativeChannels:
    """The three commutator channels, given the static diagonals and a(u), b(v)."""
    if u.grid != spec.grid or v.grid != spec.grid:
        raise IndicatorError("state, orbitals and interaction spec must share one grid")
    pbar_psi = mode_a.n_u(mode_b.n_u(psi)) / (basis.N1 * basis.N2)
    w1, w2, cross = static
    occ_a, occ_b = basis.A.occs.astype(float), basis.B.occs.astype(float)
    rho_u, rho_v = np.abs(u.values.ravel()) ** 2, np.abs(v.values.ravel()) ** 2

    def dressed(occ: np.ndarray, which: str, rho: np.ndarray) -> np.ndarray:
        return occ @ _dressing(spec.bare_kernel(which), rho, spec.grid.spacing)

    # diagonal operators (occupation basis): pair interactions minus dressings
    x1 = (w1 - dressed(occ_a, "1", rho_u))[:, None]
    x2 = (w2 - dressed(occ_b, "2", rho_v))[None, :]
    x12 = (cross - spec.c2 * dressed(occ_a, "12", rho_v)[:, None]
           - spec.c1 * dressed(occ_b, "12", rho_u)[None, :])

    def channel(xdiag: np.ndarray) -> complex:
        # <[X, S]> with S = 1 - P-bar  =>  -<[X, P-bar]>
        return complex(-(np.vdot(psi, xdiag * pbar_psi) - np.vdot(pbar_psi, xdiag * psi)))

    return DerivativeChannels(channel(x1), channel(x2), channel(x12))


def derivative_decomposition(state: ManyBodyState, u: Field, v: Field,
                             spec: HamiltonianSpec) -> DerivativeChannels:
    """Split d alpha/dt into the V1, V2 and V12 commutator channels.

    Each channel is <psi, [X, S] psi> with S = sum_{k,l} (1 - p_k p_l) /
    (N1 N2) and X the corresponding interaction minus its mean-field
    dressing; the orbitals must be the effective solution at the same
    time as the state, evolved with the lattice kinetic term.
    """
    b = state.basis
    static = _static_diagonals(b, spec)
    return _channels(b, spec, static, state.psi, _ModeOps(b, "A", u), _ModeOps(b, "B", v), u, v)


class SampleEvaluator:
    """The sweep's columns at one time, with the run's fixed operators built once.

    (state, u, v) -> (alpha_11, trace_dist, alpha_10, alpha_01, C_V1_im,
    C_V2_im, C_V12_im, <g> for each weight g of the first species).  One
    pair density gives the first four; one a(u) and one b(v) the rest.
    """

    def __init__(self, basis: TwoSpeciesBasis, spec: HamiltonianSpec,
                 weights: Sequence[WeightFunction]):
        for g in weights:
            if g.N != basis.N1:
                raise IndicatorError(f"weight defined for N={g.N}, species has N={basis.N1}")
        self.basis = basis
        self.spec = spec
        self.static = _static_diagonals(basis, spec)
        self.weights = [g.values for g in weights]

    def __call__(self, state: ManyBodyState, u: Field, v: Field) -> tuple[float, ...]:
        b, psi = self.basis, state.psi
        counting = counting_projectors(b, u, "A")
        mode_a, mode_b = counting._mode, _ModeOps(b, "B", v)
        ch = _channels(b, self.spec, self.static, psi, mode_a, mode_b, u, v)
        sectors = counting.sector_weights(state)
        pair = _pair_density(b, psi)
        pair4 = pair.reshape((b.M,) * 4)                    # partial traces: gamma^(1,0), (0,1)
        ref = np.kron(mode_a.u_site, mode_b.u_site)
        return (_deficit(pair, ref), _trace_gap(pair, ref),
                _deficit(np.einsum("xyXy->xX", pair4), mode_a.u_site),
                _deficit(np.einsum("xyxY->yY", pair4), mode_b.u_site),
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
    h = V12.grid.spacing
    n1, n2 = b.N1, b.N2
    usite, vsite = _orbital_sites(b, u), _orbital_sites(b, v)
    p_u, p_v = np.outer(usite, np.conj(usite)), np.outer(vsite, np.conj(vsite))
    n_u, n_v = ((a_dag @ a).toarray() for a, a_dag in (_annihilator(b.A.lowered, usite),
                                                        _annihilator(b.B.lowered, vsite)))
    kernel = V12.values.real.ravel()
    dress_a = _dressing(kernel, np.abs(v.values.ravel()) ** 2, h)   # (V12 * |v|^2)(x_1)
    dress_b = _dressing(kernel, np.abs(u.values.ravel()) ** 2, h)   # (V12 * |u|^2)(y_1)
    K = (_circulant(kernel) - dress_a[:, None] - dress_b[None, :])[:, None, :, None]

    def apply_pbar(x: np.ndarray) -> np.ndarray:
        x = _along(p_u, x, 0) + _along(n_u, x, 1)
        return (_along(p_v, x, 2) + _along(n_v, x, 3)) / (n1 * n2)

    ops = {"p": (p_u, p_v), "q": (np.eye(b.M) - p_u, np.eye(b.M) - p_v)}
    T = _pair_lowered(b, state.psi) / math.sqrt(n1 * n2)

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


# ---------------------------------------------------------------------------
# corrected convergence functionals

def corrected_alpha(state: ManyBodyState, u: Field, v: Field,
                    g_pair_same: np.ndarray | None, g_pair_cross: np.ndarray | None,
                    weight: WeightFunction, energies: tuple[float, float],
                    species: str = "A") -> float:
    """Weighted depletion plus energy gap, minus pair-correlation corrections.

    base = <psi, w^ psi> + |E_many - E_eff|; the corrections are
    N1(N1-1) Re <psi, g_same(x1-x2) R psi> and
    N1 N2 Re <psi, g_cross(x1-y1) R psi> with
    R = p1 p2 (w^ - w^_2) + (p1 q2 + q1 p2)(w^ - w^_1), where w^_j acts
    as the weight evaluated at k+j on the k-excitation sector.  Pair
    kernels are sampled on the periodic displacement grid; pass None to
    drop a correction (both corrections vanish structurally when the
    species has fewer than two particles).

    The labelled particles are the site indices of a_{x2} a_{x1} psi (and
    b_{y1} of that for the cross term).  For a species of N particles their
    squared norms are N(N-1) and N(N-1) N_other, so the prefactors reduce
    to 1 and 1/(N-1).
    """
    b = state.basis
    if species not in ("A", "B"):
        raise IndicatorError("species must be 'A' or 'B'")
    own, other = (b.A, b.B) if species == "A" else (b.B, b.A)
    if weight.N != own.N:
        raise IndicatorError(f"weight defined for N={weight.N}, species has N={own.N}")
    for name, g in (("same", g_pair_same), ("cross", g_pair_cross)):
        if g is not None and np.size(g) != b.M:
            raise IndicatorError(f"{name}-species pair kernel has {np.size(g)} entries, "
                                 f"the basis has {b.M} sites")

    counting = counting_projectors(b, u if species == "A" else v, species)
    parts = counting.split(state)
    e_many, e_eff = energies
    sectors = np.sum(np.abs(parts.reshape(own.N + 1, -1)) ** 2, axis=1)
    base = float(np.dot(weight.values, sectors)) + abs(e_many - e_eff)

    no_same = g_pair_same is None or not np.any(g_pair_same)
    no_cross = g_pair_cross is None or not np.any(g_pair_cross)
    if (no_same and no_cross) or own.N < 2:
        return float(base)

    M, n_own = b.M, own.N
    own_site = counting._mode.u_site
    p = np.outer(own_site, np.conj(own_site))

    def labelled(x: np.ndarray) -> np.ndarray:
        """a_{x'} a_x x in (x, x', a'', other) order."""
        one = _along(own.lowering[0], x if species == "A" else x.T, 0)
        one = _along(own.lowered.lowering[0], one.reshape(M, own.lowered.dim, -1), 1)
        return one.reshape(M, M, own.lowered.lowered.dim, -1)

    y1, y2 = (labelled(np.tensordot(weight.values - weight.shifted_values(j), parts, 1))
              for j in (1, 2))
    r_psi = (_along(p, _along(p, y2, 1), 0) + _along(p, y1 - _along(p, y1, 1), 0)
             + _along(p, y1 - _along(p, y1, 0), 1))
    psi = labelled(state.psi)

    corr = 0.0
    if not no_same:
        G = _circulant(np.asarray(g_pair_same, float))[:, :, None, None]
        corr += np.vdot(psi, G * r_psi).real
    if not no_cross:
        G = _circulant(np.asarray(g_pair_cross, float))[:, None, None, :, None]

        def lower_other(x: np.ndarray) -> np.ndarray:
            return _along(other.lowering[0], x, 3).reshape(*x.shape[:3], M, -1)

        corr += np.vdot(lower_other(psi), G * lower_other(r_psi)).real / (n_own - 1)
    return float(base - corr)
