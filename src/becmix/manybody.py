"""Exact two-species bosonic dynamics on a 1D periodic lattice.

States live in the tensor product of the two symmetric sectors, stored
as coefficients over pairs of occupation vectors (one per species).
The Hamiltonian is hopping (3-point periodic stencil of -Laplacian, a
sparse matrix per species, applied to one species index at a time and
never assembled into the joint Kronecker sum) plus density-density
two-body terms sampled on the periodic displacement:

    H = sum_species kinetic
        + g1 * sum_{i<j} V1(x_i - x_j)   (within species A)
        + g2 * sum_{r<s} V2(y_r - y_s)   (within species B)
        + g12 * sum_{i,r} V12(x_i - y_r) (across species)

with mean-field prefactors g = (1/N1, 1/N2, 1/(N1+N2)).

Time propagation is a Lanczos approximation of exp(-i t H) psi at a
sequence of sample times: each Krylov space serves every sample its
residual estimate reaches, and halves its step only when it reaches
none.  It runs the plain three-term recurrence, which the counting
split (indicators) shares: both read a function of the tridiagonal
projection applied to e_1, which needs no orthogonal basis.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
import math

import numpy as np

from .config import DEFAULT_DIM_CAP, basis_dim
from .grids import Field, Grid, l2_norm

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
KRYLOV_DIM = 17   # default cap on a time step's Krylov space: krylov_dim + 1 vectors


class ManyBodyError(ValueError):
    pass


def occupation_states(M: int, N: int) -> list[tuple[int, ...]]:
    """All occupation vectors of N bosons on M sites, descending lexicographic.

    (N,0,...,0) comes first, so the single-particle sector enumerates in
    plain site order.
    """
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for n in range(remaining, -1, -1):
            rec(prefix + (n,), remaining - n, slots - 1)

    rec((), N, M)
    return out


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
    def lowering(self) -> sp.csr_matrix:
        """The site maps a_x into `lowered`, stacked once: shape (M dim', dim), row x * dim' + j.

        Each row has at most one entry: the state j + e_x that a_x lowers to j.
        """
        import scipy.sparse as sp
        dst = self.lowered
        col, site = np.nonzero(self.occs)           # one entry per (state, occupied site)
        low = self.occs[col]
        low[np.arange(col.size), site] -= 1
        row = np.array([dst.index[tuple(occ)] for occ in low.tolist()], dtype=np.int64)
        return sp.csr_matrix((np.sqrt(self.occs[col, site]), (site * dst.dim + row, col)),
                             shape=(self.M * dst.dim, self.dim))

    @cached_property
    def _annihilator_pattern(self) -> tuple[np.ndarray, ...]:
        """The CSR arrays (indptr, col, site, sqrt_n) of a(u) = sum_x conj(u_x) a_x, whose
        values are conj(u[site]) * sqrt_n for any orbital u: the a_x have disjoint
        patterns, so each stack entry is one entry of a(u)."""
        stack = self.lowering.tocoo()
        site, row = np.divmod(stack.row, self.lowered.dim)
        order = np.lexsort((stack.col, row))
        indptr = np.searchsorted(row[order], np.arange(self.lowered.dim + 1))
        return indptr, stack.col[order], site[order], stack.data[order]

    def lower(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """a_x arr for every site x, on one axis of arr, which becomes (x, lowered index)."""
        out = _along(self.lowering, arr, axis)
        return out.reshape(*arr.shape[:axis], self.M, self.lowered.dim, *arr.shape[axis + 1:])

    def annihilator(self, u_site: np.ndarray) -> tuple[sp.csr_matrix, sp.csc_matrix]:
        """a(u) for the orbital's unit site vector as CSR, and a+(u) as CSC on the same arrays."""
        import scipy.sparse as sp
        indptr, col, site, sqrt_n = self._annihilator_pattern
        data = np.conj(u_site)[site] * sqrt_n
        shape = (self.lowered.dim, self.dim)
        return (sp.csr_matrix((data, col, indptr), shape=shape),
                sp.csc_matrix((data.conj(), col, indptr), shape=shape[::-1]))


def _along(op, arr: np.ndarray, axis: int) -> np.ndarray:
    """The matrix op (dense or sparse) applied to one axis of arr."""
    moved = np.moveaxis(arr, axis, 0)
    out = op @ moved.reshape(moved.shape[0], -1)
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
    if not V.is_real(1e-10):
        raise ManyBodyError("potential must be real")
    if not V.is_even(1e-10):
        raise ManyBodyError("potential kernel is not even under site reflection")
    return V.values.real.copy()


@dataclass
class HamiltonianSpec:
    """Sampled two-body kernels and particle numbers.

    Kernels carry their interaction prefactors already folded in, so the
    Hamiltonian is literally hopping + sum of sampled kernels.
    """

    grid: Grid
    N1: int
    N2: int
    kernel1: np.ndarray
    kernel2: np.ndarray
    kernel12: np.ndarray

    @property
    def c1(self) -> float:
        return self.N1 / (self.N1 + self.N2)

    @property
    def c2(self) -> float:
        return self.N2 / (self.N1 + self.N2)

    @classmethod
    def mean_field(cls, grid: Grid, V1, V2, V12, N1: int, N2: int) -> "HamiltonianSpec":
        k1 = _displacement_kernel(grid, V1) / N1
        k2 = _displacement_kernel(grid, V2) / N2
        k12 = _displacement_kernel(grid, V12) / (N1 + N2)
        return cls(grid, N1, N2, k1, k2, k12)

    def bare_kernel(self, which: str) -> np.ndarray:
        """Kernel without the mean-field 1/N prefactor (dressing potentials)."""
        if which == "1":
            return self.kernel1 * self.N1
        if which == "2":
            return self.kernel2 * self.N2
        if which == "12":
            return self.kernel12 * (self.N1 + self.N2)
        raise ManyBodyError(f"which must be '1', '2' or '12', got {which!r}")


def _circulant(kernel: np.ndarray) -> np.ndarray:
    M = kernel.size
    i = np.arange(M)
    return kernel[(i[:, None] - i[None, :]) % M]


def _hop_matrix(species: _SpeciesBasis, h: float) -> sp.csr_matrix:
    """Off-diagonal part of the stencil kinetic term, second-quantized.

    (1/h^2) sum_x [-a+_{x+1} a_x - a+_x a_{x+1}] = -(S^T R + R^T S) / h^2 for
    the lowering stack S and R its block rows shifted from x to x + 1; at
    M = 2 the two equal neighbours sum on their own.  The diagonal 2 N / h^2
    is accounted for separately as a constant.
    """
    S = species.lowering
    R = S[np.roll(np.arange(S.shape[0]), -species.lowered.dim)]
    return (-(S.T @ R + R.T @ S) / h**2).tocsr()


def _interaction_diagonals(basis: TwoSpeciesBasis, spec: HamiltonianSpec):
    """The interaction terms of H as diagonals: sum_{i<j} V1(x_i - x_j) on A,
    sum_{r<s} V2 on B, and sum_{s,t} V12(d(s,t)) nA_s nB_t of shape (dimA, dimB).

    Each intra term is (1/2)[n . C n - V(0) N] with C the circulant kernel
    matrix; the subtraction removes self-pairs, so on-site pairs count n(n-1)/2.
    """
    def intra(species: _SpeciesBasis, kernel: np.ndarray) -> np.ndarray:
        occ = species.occs.astype(float)
        quad = np.einsum("im,mn,in->i", occ, _circulant(kernel), occ)
        return 0.5 * (quad - kernel[0] * species.N)

    cross = basis.A.occs.astype(float) @ _circulant(spec.kernel12) @ basis.B.occs.T.astype(float)
    return intra(basis.A, spec.kernel1), intra(basis.B, spec.kernel2), cross


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
        if (spec.N1, spec.N2) != (basis.N1, basis.N2):
            raise ManyBodyError("spec particle numbers do not match the basis")
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
    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        return (sp.kron(self.hop_A, sp.identity(self.basis.B.dim, format="csr"))
                + sp.kron(sp.identity(self.basis.A.dim, format="csr"), self.hop_B)
                + sp.diags(self.diag.ravel())).tocsr()

    def apply(self, psi: np.ndarray) -> np.ndarray:
        P = np.ascontiguousarray(psi.reshape(self.basis.shape), dtype=np.complex128)
        out = self.diag * P
        # the real hopping matrices act on float views, so scipy does not upcast
        # their data to complex on every call; species B on a C-ordered copy
        # of P.T, as a product with the transposed view takes about 4x as long
        out += (self.hop_A @ P.view(np.float64)).view(np.complex128)
        out += (self.hop_B @ np.ascontiguousarray(P.T).view(np.float64)).view(np.complex128).T
        return out.ravel() if psi.ndim == 1 else out

    def expectation(self, state: ManyBodyState) -> float:
        val = np.vdot(state.psi, self.apply(state.psi))
        return float(val.real)

    def propagate(self, state: ManyBodyState, dt: float, *,
                  krylov_dim: int = KRYLOV_DIM) -> ManyBodyState:
        return propagate(self, state, dt, krylov_dim=krylov_dim)


def _lanczos(apply_op, psi: np.ndarray, m_max: int, accept):
    """Lanczos on apply_op from psi by the three-term recurrence.

    Each step forms w = A v_m - alpha_m v_m - beta_{m-1} v_{m-1} in place.
    Every caller reads f(T) e_1 for a function f of the tridiagonal T, which
    stays accurate without orthogonality of the basis (Greenbaum 1989;
    Druskin, Greenbaum & Knizhnerman 1998), so no step reorthogonalizes.

    Stops at breakdown, after m_max basis vectors, or once accept(lam, U,
    beta) holds.  Returns (beta0, V, lam, U, beta): beta0 = ||psi||, the
    basis as the rows of V (psi = beta0 V[0]), the eigenpairs
    T = U diag(lam) U^T of the tridiagonal projection and the coupling beta
    out of the space, 0 at breakdown (the space is then invariant).  A zero
    psi gives beta0 = 0 and one zero basis vector, so all it spans is zero.
    """
    beta0 = float(np.linalg.norm(psi))
    if not beta0:
        return 0.0, np.zeros((1, psi.size), dtype=np.complex128), np.zeros(1), np.eye(1), 0.0
    V = np.empty((m_max, psi.size), dtype=np.complex128)
    alphas: list[float] = []
    betas: list[float] = []
    w, beta = psi.ravel(), beta0
    for m in range(1, m_max + 1):
        # numpy divides complex by real through a complex division; the
        # product with 1 / beta has the same bits, several times faster
        v = np.multiply(w, 1.0 / beta, out=V[m - 1])
        w = apply_op(v)
        if betas:
            w -= betas[-1] * V[m - 2]
        alphas.append(float(np.vdot(v, w).real))
        w -= alphas[-1] * v
        beta = math.sqrt(np.vdot(w, w).real)
        # dense eigh of the at most m_max-square T keeps scipy.linalg unloaded
        lam, U = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if beta < 1e-14 * max(1.0, np.abs(lam).max()):
            beta = 0.0
        if beta == 0.0 or m == m_max or accept(lam, U, beta):
            return beta0, V[:m], lam, U, beta
        betas.append(beta)


def propagate(H: Hamiltonian, state: ManyBodyState, dt: float, *,
              krylov_dim: int = KRYLOV_DIM) -> ManyBodyState:
    """exp(-i dt H) state: propagate_through with the one offset dt."""
    if dt == 0.0 or not math.isfinite(dt):
        raise ManyBodyError(f"dt must be finite and nonzero, got {dt}")
    return next(propagate_through(H, state, [dt], krylov_dim=krylov_dim))


def propagate_through(H: Hamiltonian, state: ManyBodyState, offsets: Iterable[float], *,
                      krylov_dim: int = KRYLOV_DIM) -> Iterator[ManyBodyState]:
    """exp(-i t H) state at each offset t, in order, by Lanczos.

    Offsets share one sign (negative: backward evolution) and grow in
    magnitude; each yielded state has time state.time + t exactly.  A
    Krylov space is built from the last state reached and grows, up to
    krylov_dim + 1 vectors, until the residual estimate
    beta |sum_j U[m, j] exp(-i tau lam_j) U[0, j]| meets KRYLOV_TOL at the
    last offset.  The space serves every offset ahead that meets it.  When
    not even the next one does, it takes the largest halving of the way
    there that does; a step below 1/MIN_STEP_FRACTION of the interval from
    the previous offset (or the start) raises.  The norm is preserved to
    the Krylov tolerance per space and never renormalized.

    The states a space reaches are formed in one product with its basis,
    and the basis is released before they are yielded, so at most one
    basis is alive at a time.  Bad offsets raise here, not on first use.
    """
    offsets = [float(t) for t in offsets]
    if not offsets or not all(math.isfinite(t) and t * offsets[0] > 0 for t in offsets) \
            or any(abs(b) <= abs(a) for a, b in pairwise(offsets)):
        raise ManyBodyError("offsets must be finite, nonzero, of one sign and growing in "
                            f"magnitude, got {offsets}")
    return _propagate_through(H, state, offsets, krylov_dim)


def _propagate_through(H: Hamiltonian, state: ManyBodyState, offsets: list[float],
                       krylov_dim: int) -> Iterator[ManyBodyState]:
    def error(tau, lam, U, beta):
        return beta * abs(np.sum(U[-1] * np.exp(-1j * tau * lam) * U[0]))

    # ahead[j]: the time from psi to offsets[done + j]
    psi, ahead, done = state.psi.ravel(), offsets, 0
    while ahead:
        beta0, V, lam, U, beta = _lanczos(
            H.apply, psi, krylov_dim + 1, lambda *space: error(ahead[-1], *space) < KRYLOV_TOL)
        reached = next((j for j, tau in enumerate(ahead)
                        if not error(tau, lam, U, beta) < KRYLOV_TOL), len(ahead))
        taus = ahead[:reached]
        if not reached:
            interval = abs(offsets[done] - (offsets[done - 1] if done else 0.0))
            tau = ahead[0]
            while not error(tau, lam, U, beta) < KRYLOV_TOL:
                tau /= 2
                if abs(tau) < interval / MIN_STEP_FRACTION:
                    raise ManyBodyError(f"Krylov propagation needs steps below |interval|/"
                                        f"{MIN_STEP_FRACTION} with krylov_dim={krylov_dim}")
            taus = [tau]
        phases = beta0 * np.exp(-1j * np.array(taus)[:, None] * lam) * U[0]
        # with one offset, both products are matrix-vector products, the same
        # bits as V.T @ (U @ phases[0]) in a one-interval call
        states = (U @ phases.T).T @ V
        del V
        psi, ahead = states[-1], [t - taus[-1] for t in ahead[reached:]]
        for t, row in zip(offsets[done:done + reached], states):
            yield ManyBodyState(state.basis, row.reshape(state.psi.shape), state.time + t)
        done += reached


def product_state(u: Field, v: Field, basis: TwoSpeciesBasis) -> ManyBodyState:
    """Condensed state u^(N1) x v^(N2) in the occupation basis.

    The coefficient on occupation n is sqrt(N!/prod n_j!) prod u_j^{n_j}
    with u expressed as a unit vector in the site basis (values times
    sqrt(h)); the result is normalized to kill round-off.
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
        site = f.values.ravel() * math.sqrt(f.grid.volume_element)
        log_fact = np.array([math.lgamma(n + 1) for n in range(species.N + 1)])
        amp = np.exp(0.5 * (log_fact[-1] - log_fact[species.occs].sum(axis=1)))
        return amp * np.prod(site ** species.occs, axis=1)

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

