"""Exact two-species bosonic dynamics on a 1D periodic lattice.

States live in the tensor product of the two symmetric sectors, stored
as coefficients over pairs of occupation vectors (one per species).
The Hamiltonian is hopping (3-point periodic stencil of -Laplacian, a
matrix per species, applied to one species index at a time and never
assembled into the joint Kronecker sum) plus density-density two-body
terms sampled on the periodic displacement:

    H = sum_species kinetic
        + g1 * sum_{i<j} V1(x_i - x_j)   (within species A)
        + g2 * sum_{r<s} V2(y_r - y_s)   (within species B)
        + g12 * sum_{i,r} V12(x_i - y_r) (across species)

with mean-field prefactors g = (1/N1, 1/N2, 1/(N1+N2)).  Species
operators are dense arrays on sectors of at most DENSE_MAX_DIM states and
CSR matrices above, so scipy.sparse loads only where a sector needs it.

Time propagation is a Lanczos approximation of exp(-i t H) psi at a
sequence of sample times: each Krylov space serves every sample its
residual estimate reaches, up to KRYLOV_DIM + 1 of them, whose states
it writes over its own basis, and halves its step only when it reaches
none.  It runs the plain three-term recurrence, which the counting
split (indicators) shares: both read a function of the tridiagonal
projection applied to e_1, which needs no orthogonal basis.  H is real,
so a space that starts from a real state runs in real arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement, pairwise
import math

import numpy as np

from .config import DEFAULT_DIM_CAP, basis_dim
from .grids import Field, Grid, circulant, l2_norm

__all__ = [
    "TwoSpeciesBasis",
    "ManyBodyState",
    "HamiltonianSpec",
    "Hamiltonian",
    "ManyBodyError",
    "build_basis",
    "occupation_states",
    "propagate",
    "propagate_through",
    "product_state",
    "random_state",
    "manybody_energy",
]

KRYLOV_TOL = 1e-12
MIN_STEP_FRACTION = 4096
# cap on a time step's Krylov space: KRYLOV_DIM + 1 vectors, enough for one space to
# serve all ten samples of the bundled ladder's time grid at (3,3), (4,4) and (5,5)
KRYLOV_DIM = 40
# species sectors up to this many states get dense operators: a real hop product costs
# about as much dense as CSR at 55 states, 5x more at 220, and over 10x more at 715
DENSE_MAX_DIM = 256


class ManyBodyError(ValueError):
    pass


def occupation_states(M: int, N: int) -> list[tuple[int, ...]]:
    """All occupation vectors of N bosons on M sites (none for N < 0), descending
    lexicographic, so (N,0,...,0) first: the site multisets counted per site, in the
    order of combinations_with_replacement, whose earlier of two multisets has the
    smaller site, so the larger count, where they first differ."""
    if N < 0:
        return []
    sites = np.array(list(combinations_with_replacement(range(M), N)), dtype=np.int64)
    return list(map(tuple, (sites[:, :, None] == np.arange(M)).sum(axis=1).tolist()))


@dataclass
class _SpeciesBasis:
    """Occupation enumeration for one species, with its lowering maps a_x and a(u)."""

    M: int
    N: int
    occs: np.ndarray                 # (dim, M) int
    index: dict[tuple[int, ...], int]

    @classmethod
    def build(cls, M: int, N: int) -> "_SpeciesBasis":
        occs = occupation_states(M, N)
        arr = np.array(occs, dtype=np.int64).reshape(len(occs), M)
        return cls(M=M, N=N, occs=arr, index={occ: i for i, occ in enumerate(occs)})

    @property
    def dim(self) -> int:
        return self.occs.shape[0]

    @cached_property
    def lowered(self) -> "_SpeciesBasis":
        """The (N-1)-particle sector that the a_x map into; it lowers again."""
        return _SpeciesBasis.build(self.M, self.N - 1)

    @cached_property
    def lowering(self) -> tuple[np.ndarray, np.ndarray]:
        """The site maps a_x into `lowered` as a gather table (src, amp), both of shape
        (M, dim'): a_x lowers the state src[x, j] = j + e_x to j with the factor amp[x, j]."""
        low = self.lowered.occs
        raised = low[None] + np.eye(self.M, dtype=np.int64)[:, None]
        src = [self.index[tuple(occ)] for occ in raised.reshape(-1, self.M).tolist()]
        return np.array(src, dtype=np.int64).reshape(self.M, len(low)), np.sqrt(low.T + 1.0)

    def lower(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """a_x arr for every site x, on one axis of arr, which becomes (x, lowered index)."""
        src, amp = self.lowering
        out = np.take(arr, src, axis=axis)
        out *= amp.reshape(amp.shape + (1,) * (arr.ndim - axis - 1))
        return out

    def annihilator(self, u_site: np.ndarray):
        """a(u) = sum_x conj(u_x) a_x for the orbital's unit site vector, and a+(u)."""
        src, amp = self.lowering
        a = _operator(np.broadcast_to(np.arange(src.shape[1]), src.shape), src,
                      np.conj(u_site)[:, None] * amp, (src.shape[1], self.dim))
        return a, a.conj().T


def _operator(row: np.ndarray, col: np.ndarray, data: np.ndarray, shape: tuple[int, int]):
    """The matrix with the given entries, none repeated: a dense array if it acts on a
    species sector of at most DENSE_MAX_DIM states, else CSR."""
    if max(shape) <= DENSE_MAX_DIM:
        out = np.zeros(shape, dtype=data.dtype)
        out[row, col] = data
        return out
    import scipy.sparse as sp
    return sp.csr_matrix((data.ravel(), (row.ravel(), col.ravel())), shape=shape)


def _along(op, arr: np.ndarray, axis: int) -> np.ndarray:
    """The matrix op (dense or sparse) applied to one axis of arr."""
    moved = np.moveaxis(arr, axis, 0)
    # math.prod, not -1: arr may be empty, as the (N-2)-particle sector is at N = 1
    out = op @ moved.reshape(moved.shape[0], math.prod(moved.shape[1:]))
    return np.moveaxis(out.reshape(-1, *moved.shape[1:]), 0, axis)


class TwoSpeciesBasis:
    """Joint basis: (A occupation) x (B occupation), A-major flattening."""

    def __init__(self, M: int, N1: int, N2: int, dim_cap: int = DEFAULT_DIM_CAP):
        if M < 2:
            raise ManyBodyError(f"need at least 2 sites, got {M}")
        if N1 < 1 or N2 < 1:
            raise ManyBodyError("particle numbers must be >= 1")
        dim = basis_dim(M, N1, N2)
        if dim > dim_cap:
            raise ManyBodyError(
                f"basis dimension {dim} exceeds the cap {dim_cap} "
                f"(M={M}, N1={N1}, N2={N2})"
            )
        self.M = M
        self.N1 = N1
        self.N2 = N2
        self.A = _SpeciesBasis.build(M, N1)
        self.B = _SpeciesBasis.build(M, N2)

    @property
    def dim(self) -> int:
        return self.A.dim * self.B.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.A.dim, self.B.dim)

    def species(self, tag: str) -> _SpeciesBasis:
        if tag == "A":
            return self.A
        if tag == "B":
            return self.B
        raise ManyBodyError(f"species must be 'A' or 'B', got {tag!r}")


def build_basis(M: int, N1: int, N2: int, dim_cap: int = DEFAULT_DIM_CAP) -> TwoSpeciesBasis:
    return TwoSpeciesBasis(M, N1, N2, dim_cap)


@dataclass
class ManyBodyState:
    """Coefficient array over the joint occupation basis, shape (dimA, dimB)."""

    basis: TwoSpeciesBasis
    psi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.complex128)
        if psi.shape != self.basis.shape:
            if psi.size == self.basis.dim:
                psi = psi.reshape(self.basis.shape)
            else:
                raise ManyBodyError(
                    f"coefficient count {psi.size} does not match basis dim {self.basis.dim}"
                )
        self.psi = psi

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))


def _displacement_kernel(grid: Grid, V: Field) -> np.ndarray:
    """The values of V, a real and even field on the 1D grid, as a kernel
    on the signed periodic displacement."""
    if grid.dim != 1:
        raise ManyBodyError("the many-body harness is one-dimensional")
    if V.grid != grid:
        raise ManyBodyError("potential field lives on a different grid")
    if not np.isfinite(V.values).all():
        raise ManyBodyError("potential must be finite")
    if not V.is_real(1e-10):
        raise ManyBodyError("potential must be real")
    if not V.is_even(1e-10):
        raise ManyBodyError("potential kernel is not even under site reflection")
    return V.values.real.copy()


@dataclass
class HamiltonianSpec:
    """The sampled two-body kernels V1, V2, V12, unscaled, on their grid.

    The basis holds the particle numbers, so one spec serves every (N1, N2):
    `_interaction_diagonals` applies the mean-field prefactors, and the
    dressings of the derivative channels read the kernels as they are.
    """

    grid: Grid
    kernel1: np.ndarray
    kernel2: np.ndarray
    kernel12: np.ndarray

    @classmethod
    def mean_field(cls, V1: Field, V2: Field, V12: Field) -> "HamiltonianSpec":
        return cls(V1.grid, *(_displacement_kernel(V1.grid, V) for V in (V1, V2, V12)))


def _hop_matrix(species: _SpeciesBasis, h: float):
    """Off-diagonal part of the stencil kinetic term, second-quantized.

    (1/h^2) sum_x [-a+_{x+1} a_x - a+_x a_{x+1}] = -(T + T^T) / h^2, where T
    takes j + e_x to j + e_{x+1} with the factor amp[x, j] amp[x + 1, j] of
    the lowering table; at M = 2 the two equal neighbours sum on their own.
    The diagonal 2 N / h^2 is accounted for separately as a constant.
    """
    src, amp = species.lowering
    up = np.roll(np.arange(species.M), -1)
    T = _operator(src[up], src, amp[up] * amp, (species.dim, species.dim))
    return -(T + T.T) / h**2


def _interaction_diagonals(basis: TwoSpeciesBasis, spec: HamiltonianSpec):
    """The interaction terms of H as diagonals, with the mean-field prefactors:
    sum_{i<j} V1(x_i - x_j) / N1 on A, sum_{r<s} V2 / N2 on B, and
    sum_{s,t} V12(d(s,t)) nA_s nB_t / (N1 + N2) of shape (dimA, dimB).

    Each intra term is (1/2)[n . C n - V(0) N] with C the circulant kernel
    matrix; the subtraction removes self-pairs, so on-site pairs count n(n-1)/2.
    """
    def intra(species: _SpeciesBasis, kernel: np.ndarray) -> np.ndarray:
        occ = species.occs.astype(float)
        quad = np.einsum("im,mn,in->i", occ, circulant(kernel), occ)
        return 0.5 * (quad - kernel[0] * species.N)

    N1, N2 = basis.N1, basis.N2
    cross = (basis.A.occs.astype(float) @ circulant(spec.kernel12 / (N1 + N2))
             @ basis.B.occs.T.astype(float))
    return intra(basis.A, spec.kernel1 / N1), intra(basis.B, spec.kernel2 / N2), cross


class Hamiltonian:
    """Action of one HamiltonianSpec on a fixed basis, matrix-free.

    H = hop_A (x) I + I (x) hop_B + diag: the hopping acts on one species
    index at a time and the interactions are diagonal, so `apply` works
    on the (dimA, dimB) layout without forming the Kronecker sum.  It
    accepts either the flat or the 2-D layout; `matrix` assembles the
    sparse H over the flat joint index on demand, for dense checks, and
    `interactions` keeps the three interaction diagonals.
    """

    def __init__(self, spec: HamiltonianSpec, basis: TwoSpeciesBasis):
        if spec.grid.points_per_axis != basis.M:
            raise ManyBodyError("spec grid size does not match the basis")
        self.spec = spec
        self.basis = basis
        h = spec.grid.spacing
        self.hop_A = _hop_matrix(basis.A, h)
        self.hop_B = _hop_matrix(basis.B, h)
        self.interactions = _interaction_diagonals(basis, spec)
        w1, w2, cross = self.interactions
        self.diag = 2.0 * (basis.N1 + basis.N2) / h**2 + w1[:, None] + w2[None, :] + cross

    @property
    def matrix(self):
        import scipy.sparse as sp
        return (sp.kron(self.hop_A, sp.identity(self.basis.B.dim, format="csr"))
                + sp.kron(sp.identity(self.basis.A.dim, format="csr"), self.hop_B)
                + sp.diags(self.diag.ravel())).tocsr()

    def apply(self, psi: np.ndarray) -> np.ndarray:
        P = np.ascontiguousarray(psi.reshape(self.basis.shape),
                                 dtype=np.result_type(psi, np.float64))
        out = self.diag * P
        # the real hopping matrices act on float views of complex P, so a product is
        # real and scipy does not upcast CSR data to complex on every call; real P
        # stays real.  Species B on a C-ordered copy of P.T, as a CSR product with the
        # transposed view takes about 4x as long
        out += (self.hop_A @ P.view(np.float64)).view(P.dtype)
        out += (self.hop_B @ np.ascontiguousarray(P.T).view(np.float64)).view(P.dtype).T
        return out.ravel() if psi.ndim == 1 else out

    def expectation(self, state: ManyBodyState) -> float:
        val = np.vdot(state.psi, self.apply(state.psi))
        return float(val.real)

    def propagate(self, state: ManyBodyState, dt: float) -> ManyBodyState:
        return propagate(self, state, dt)


def _lanczos(apply_op, psi: np.ndarray, basis, accept):
    """Lanczos on apply_op from psi by the three-term recurrence.

    Each step forms w = A v_m - alpha_m v_m - beta_{m-1} v_{m-1} in place.
    Every caller reads f(T) e_1 for a function f of the tridiagonal T, which
    stays accurate without orthogonality of the basis (Greenbaum 1989;
    Druskin, Greenbaum & Knizhnerman 1998), so no step reorthogonalizes.

    The basis vectors are written, in order, into the rows of the caller's
    arrays `basis` (a sequence of 2-D arrays of psi.size columns), so the
    caller can reuse that memory, as propagate_through does.  Stops at
    breakdown, once every row is written, or once accept(lam, U, beta)
    holds.  Returns (beta0, lam, U, beta): beta0 = ||psi||, the eigenpairs
    T = U diag(lam) U^T of the tridiagonal projection onto the first
    len(lam) rows (psi = beta0 times the first) and the coupling beta out
    of the space, 0 at breakdown (the space is then invariant).  A zero psi
    gives beta0 = 0 and one zero basis vector, so all it spans is zero.
    """
    rows = [row for part in basis for row in part]
    beta0 = float(np.linalg.norm(psi))
    if not beta0:
        rows[0][:] = 0.0
        return 0.0, np.zeros(1), np.eye(1), 0.0
    alphas: list[float] = []
    betas: list[float] = []
    w, beta = psi.ravel(), beta0
    for m, v in enumerate(rows, 1):
        # numpy divides complex by real through a complex division; the
        # product with 1 / beta has the same bits, several times faster
        np.multiply(w, 1.0 / beta, out=v)
        w = apply_op(v)
        if betas:
            w -= betas[-1] * rows[m - 2]
        alphas.append(float(np.vdot(v, w).real))
        w -= alphas[-1] * v
        beta = math.sqrt(np.vdot(w, w).real)
        # dense eigh of the at most len(rows)-square T keeps scipy.linalg unloaded
        lam, U = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if beta < 1e-14 * max(1.0, np.abs(lam).max()):
            beta = 0.0
        if beta == 0.0 or m == len(rows) or accept(lam, U, beta):
            return beta0, lam, U, beta
        betas.append(beta)


def propagate(H: Hamiltonian, state: ManyBodyState, dt: float) -> ManyBodyState:
    """exp(-i dt H) state: propagate_through with the one offset dt."""
    if dt == 0.0 or not math.isfinite(dt):
        raise ManyBodyError(f"dt must be finite and nonzero, got {dt}")
    return next(propagate_through(H, state, [dt]))


def propagate_through(H: Hamiltonian, state: ManyBodyState,
                      offsets: Iterable[float]) -> Iterator[ManyBodyState]:
    """exp(-i t H) state at each offset t, in order, by Lanczos.

    Offsets share one sign (negative: backward evolution) and grow in
    magnitude; each yielded state has time state.time + t exactly.  A
    Krylov space is built from the last state reached and grows, up to
    KRYLOV_DIM + 1 vectors, until the residual estimate
    beta |sum_j U[m, j] exp(-i tau lam_j) U[0, j]| meets KRYLOV_TOL at the
    last offset it may serve: the h-th one ahead, h = min(offsets ahead,
    KRYLOV_DIM + 1), or (KRYLOV_DIM + 1) // 2 for a space of real vectors
    (below).  The space serves every one of those h that meets it.
    When not even the next one does, it takes the largest halving of the
    way there that does; a step below 1/MIN_STEP_FRACTION of the interval
    from the previous offset (or the start) raises.  The norm is preserved
    to the Krylov tolerance per space and never renormalized.

    H is real, so a space that starts from a real state (as from a product
    of real orbitals) is real: it runs on float64 rows, half the flops and
    bytes, and each state it reaches takes two rows, its real and its
    imaginary part.  The states a space reaches are written over the first
    h (real: 2h) rows of its basis, one column block at a time, and the
    other rows are released before they are yielded.  A complex space
    yields its rows, and the last one as a copy, from which the next space
    starts; a real space makes each state a new complex vector as it is
    yielded.  A loop that keeps no state past the next one so holds at
    most KRYLOV_DIM + 1 rows and a few vectors at a time.  Bad offsets
    raise here, not on first use.
    """
    offsets = [float(t) for t in offsets]
    if not offsets or not all(math.isfinite(t) and t * offsets[0] > 0 for t in offsets) \
            or any(abs(b) <= abs(a) for a, b in pairwise(offsets)):
        raise ManyBodyError("offsets must be finite, nonzero, of one sign and growing in "
                            f"magnitude, got {offsets}")
    return _propagate_through(H, state, offsets)


def _propagate_through(H: Hamiltonian, state: ManyBodyState,
                       offsets: list[float]) -> Iterator[ManyBodyState]:
    def error(tau, lam, U, beta):
        return beta * abs(np.sum(U[-1] * np.exp(-1j * tau * lam) * U[0]))

    # ahead[j]: the time from psi to offsets[done + j]
    psi, ahead, done = state.psi.ravel(), offsets, 0
    while ahead:
        # the basis is a head of `per` rows for each of h states, which end up
        # holding the states the space reaches, and a tail; so a space serves at
        # most h samples
        real = not psi.imag.any()
        per = 2 if real else 1
        h = min(len(ahead), (KRYLOV_DIM + 1) // per)
        head, tail = (np.empty((rows, psi.size), dtype=np.float64 if real else np.complex128)
                      for rows in (per * h, KRYLOV_DIM + 1 - per * h))
        beta0, lam, U, beta = _lanczos(H.apply, psi.real if real else psi, (head, tail),
                                       lambda *space: error(ahead[h - 1], *space) < KRYLOV_TOL)
        reached = next((j for j, tau in enumerate(ahead[:h])
                        if not error(tau, lam, U, beta) < KRYLOV_TOL), h)
        taus = ahead[:reached]
        if not reached:
            interval = abs(offsets[done] - (offsets[done - 1] if done else 0.0))
            tau = ahead[0]
            while not error(tau, lam, U, beta) < KRYLOV_TOL:
                tau /= 2
                if abs(tau) < interval / MIN_STEP_FRACTION:
                    raise ManyBodyError(f"Krylov propagation needs steps below |interval|/"
                                        f"{MIN_STEP_FRACTION} with KRYLOV_DIM={KRYLOV_DIM}")
            taus = [tau]
        phases = beta0 * np.exp(-1j * np.array(taus)[:, None] * lam) * U[0]
        coef = (U @ phases.T).T
        if real:   # rows Re and Im of each state
            coef = np.stack((coef.real, coef.imag), axis=1).reshape(-1, len(lam))
        used = head[:len(lam)], tail[:max(len(lam) - len(head), 0)]   # the basis, in order
        # one product per column block, on a contiguous copy of the block's
        # basis rows, written over the head's first rows: each block holds
        # about one vector.  With single-threaded BLAS, blocks of a multiple of
        # 64 columns round as one product with the whole basis does (a product
        # per part, summed, would not)
        width = 64 * -(-psi.size // (64 * max(len(lam), len(head))))
        for cols in (slice(c, c + width) for c in range(0, psi.size, width)):
            head[:len(coef), cols] = coef @ np.concatenate([part[:, cols] for part in used])
        del used, tail
        n, ahead = len(taus), [t - taus[-1] for t in ahead[reached:]]
        if real:   # each state a new complex vector, made from its two rows as it is yielded
            states = (np.stack(pair, axis=-1).view(np.complex128)[:, 0]
                      for pair in head[:2 * n].reshape(n, 2, -1))
        else:   # the last state is a copy, so the head lives only while the caller holds another
            states = chain(head[:n - 1], [head[n - 1].copy()])
        for t, psi in zip(offsets[done:done + reached], states):
            yield ManyBodyState(state.basis, psi.reshape(state.psi.shape), state.time + t)
        if not reached:   # the halved step
            psi = next(states)
        del head, states
        done += reached


def site_vector(f: Field) -> np.ndarray:
    """Orbital as a unit vector in the site basis (values times sqrt(h))."""
    return f.values.ravel() * math.sqrt(f.grid.volume_element)


def product_state(u: Field, v: Field, basis: TwoSpeciesBasis) -> ManyBodyState:
    """Condensed state u^(N1) x v^(N2) in the occupation basis.

    The coefficient on occupation n is sqrt(N!/prod n_j!) prod u_j^{n_j}
    with u its site vector; the result is normalized to kill round-off.
    """
    for name, f in (("u", u), ("v", v)):
        if f.values.size != basis.M:
            raise ManyBodyError(f"orbital {name} has {f.values.size} sites, "
                                f"the basis has {basis.M}")
        n = l2_norm(f)
        if n == 0:
            raise ManyBodyError(f"orbital {name} has zero norm")
        if abs(n - 1.0) > 1e-8:
            raise ManyBodyError(f"orbital {name} must be normalized, got norm {n}")

    def species_coeffs(f: Field, species: _SpeciesBasis) -> np.ndarray:
        log_fact = np.array([math.lgamma(n + 1) for n in range(species.N + 1)])
        amp = np.exp(0.5 * (log_fact[-1] - log_fact[species.occs].sum(axis=1)))
        return amp * np.prod(site_vector(f) ** species.occs, axis=1)

    psi = np.outer(species_coeffs(u, basis.A), species_coeffs(v, basis.B))
    psi /= np.linalg.norm(psi)
    return ManyBodyState(basis, psi, 0.0)


def random_state(basis: TwoSpeciesBasis, rng: np.random.Generator) -> ManyBodyState:
    psi = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    return ManyBodyState(basis, psi / np.linalg.norm(psi), 0.0)


def manybody_energy(spec: HamiltonianSpec | Hamiltonian, state: ManyBodyState) -> float:
    """Energy per particle <psi, H psi> / (N1 + N2)."""
    H = spec if isinstance(spec, Hamiltonian) else Hamiltonian(spec, state.basis)
    return H.expectation(state) / (state.basis.N1 + state.basis.N2)

