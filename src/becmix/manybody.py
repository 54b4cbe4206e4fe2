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

with mean-field prefactors g = (1/N1, 1/N2, 1/(N1+N2)) or the
short-range family amplitudes N^{2 beta - 1} V(N^beta x) in which the
argument scaling is folded into the sampled kernel.

Time propagation is a Lanczos approximation of exp(-i dt H): one Krylov
space per step, the step length chosen from that space's residual
estimate.  It runs the plain three-term recurrence, without
reorthogonalization, which f(H) psi does not need; the counting split
(indicators) shares the routine and reorthogonalizes, because it reads
sectors off individual Ritz vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
from typing import Callable

import numpy as np

from .grids import Field, Grid, l2_norm, read_tagged, write_tagged

__all__ = [
    "TwoSpeciesBasis",
    "ManyBodyState",
    "HamiltonianSpec",
    "Hamiltonian",
    "ManyBodyError",
    "build_basis",
    "occupation_states",
    "propagate",
    "product_state",
    "random_state",
    "manybody_energy",
    "save_state",
    "load_state",
]

BASIS_ORDER_TAG = "lex-v1"
DEFAULT_DIM_CAP = 200_000


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
    """Occupation enumeration for one species, with site-lowering maps."""

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
    def lowering(self) -> tuple[sp.csr_matrix, tuple[np.ndarray, ...]]:
        """The site maps a_x into `lowered`, built once.

        Returns their stack, shape (M dim', dim) with row x * dim' + j, and
        the CSR arrays (indptr, col, site, sqrt_n) of a(u) = sum_x conj(u_x)
        a_x, whose values are conj(u[site]) * sqrt_n for any orbital u: the
        a_x have disjoint patterns, so each stack entry is one entry of a(u).
        """
        import scipy.sparse as sp
        dst = self.lowered
        col, site = np.nonzero(self.occs)           # one entry per (state, occupied site)
        low = self.occs[col]
        low[np.arange(col.size), site] -= 1
        row = np.array([dst.index[tuple(occ)] for occ in low.tolist()], dtype=np.int64)
        sqrt_n = np.sqrt(self.occs[col, site])
        stack = sp.csr_matrix((sqrt_n, (site * dst.dim + row, col)),
                              shape=(self.M * dst.dim, self.dim))
        order = np.lexsort((col, row))
        indptr = np.searchsorted(row[order], np.arange(dst.dim + 1))
        return stack, (indptr, col[order], site[order], sqrt_n[order])


def _basis_dim(M: int, N1: int, N2: int) -> int:
    """Dimension of the joint basis of N1 and N2 bosons on M sites."""
    if M < 2:
        raise ManyBodyError(f"need at least 2 sites, got {M}")
    if N1 < 1 or N2 < 1:
        raise ManyBodyError("particle numbers must be >= 1")
    return math.comb(M + N1 - 1, N1) * math.comb(M + N2 - 1, N2)


class TwoSpeciesBasis:
    """Joint basis: (A occupation) x (B occupation), A-major flattening."""

    def __init__(self, M: int, N1: int, N2: int, dim_cap: int = DEFAULT_DIM_CAP):
        dim = _basis_dim(M, N1, N2)
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


def _displacement_kernel(grid: Grid, V) -> np.ndarray:
    """Sample V on the signed periodic displacement of a 1D grid.

    Accepts a Field (values are taken as the kernel directly, validated
    even) or a callable evaluated at the wrapped displacement.
    """
    if grid.dim != 1:
        raise ManyBodyError("the many-body harness is one-dimensional")
    M = grid.points_per_axis
    if isinstance(V, Field):
        if V.grid != grid:
            raise ManyBodyError("potential field lives on a different grid")
        vals = V.values.real.copy()
        if not V.is_real(1e-10):
            raise ManyBodyError("potential must be real")
    else:
        d = grid.signed_coordinates()[0]
        vals = np.asarray(V(np.abs(d)), dtype=float)
    if np.max(np.abs(vals - np.roll(vals[::-1], 1))) > 1e-10 * (np.max(np.abs(vals)) or 1.0):
        raise ManyBodyError("potential kernel is not even under site reflection")
    return vals


@dataclass
class HamiltonianSpec:
    """Scaling tag plus sampled two-body kernels and particle numbers.

    Kernels carry their interaction prefactors already folded in, so the
    Hamiltonian is literally hopping + sum of sampled kernels.
    """

    grid: Grid
    N1: int
    N2: int
    kernel1: np.ndarray
    kernel2: np.ndarray
    kernel12: np.ndarray
    scaling: str = "mean_field"
    beta: float | None = None

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
        return cls(grid, N1, N2, k1, k2, k12, scaling="mean_field")

    @classmethod
    def beta_family(cls, grid: Grid, V1: Callable, V2: Callable, V12: Callable,
                    N1: int, N2: int, beta: float) -> "HamiltonianSpec":
        """1D short-range family: kernel_N(x) = N^{2 beta - 1} V(N^beta x).

        beta -> 0 recovers the mean-field prefactor 1/N; beta -> 1 is the
        strongly concentrated limit (out of desk-scale reach, but exposed).
        """
        if not (0.0 < beta < 1.0):
            raise ManyBodyError("beta must lie in (0, 1) for the lattice family")
        d = np.abs(grid.signed_coordinates()[0])

        def sample(V, N):
            s = float(N) ** beta
            return float(N) ** (2.0 * beta - 1.0) * np.asarray(V(d * s), dtype=float)

        return cls(grid, N1, N2, sample(V1, N1), sample(V2, N2), sample(V12, N1 + N2),
                   scaling="beta_family", beta=beta)

    def bare_kernel(self, which: str) -> np.ndarray:
        """Kernel without the mean-field 1/N prefactor (dressing potentials)."""
        if self.scaling != "mean_field":
            raise ManyBodyError("bare kernels are defined for the mean-field scaling")
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
    S = species.lowering[0]
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
    sparse H over the flat joint index on demand, for dense checks.
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
        w1, w2, cross = _interaction_diagonals(basis, spec)
        self.diag = 2.0 * (basis.N1 + basis.N2) / h**2 + w1[:, None] + w2[None, :] + cross

    @property
    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        return (sp.kron(self.hop_A, sp.identity(self.basis.B.dim, format="csr"))
                + sp.kron(sp.identity(self.basis.A.dim, format="csr"), self.hop_B)
                + sp.diags(self.diag.ravel())).tocsr()

    def apply(self, psi: np.ndarray) -> np.ndarray:
        P = psi.reshape(self.basis.shape)
        out = self.diag * P
        out += self.hop_A @ P
        out += (self.hop_B @ P.T).T
        return out.ravel() if psi.ndim == 1 else out

    def expectation(self, state: ManyBodyState) -> float:
        val = np.vdot(state.psi, self.apply(state.psi))
        return float(val.real)

    def propagate(self, state: ManyBodyState, dt: float, *,
                  krylov_dim: int = 30) -> ManyBodyState:
        return propagate(self, state, dt, krylov_dim=krylov_dim)


def _lanczos(apply_op, psi: np.ndarray, m_max: int, accept=lambda lam, U, beta: False, *,
             reorthogonalize: bool):
    """Lanczos on apply_op from psi by the three-term recurrence.

    Each step forms w = A v_m - alpha_m v_m - beta_{m-1} v_{m-1} in place.
    Time steps need nothing more: a Lanczos approximation of f(A) psi stays
    accurate without orthogonality of the basis (Druskin, Greenbaum &
    Knizhnerman 1998).  With reorthogonalize, which the counting split sets
    because it reads sectors off the Ritz vectors, one classical Gram-Schmidt
    pass over the basis follows, and a second one only when the first leaves
    less than 1/sqrt(2) of ||w|| (Daniel, Gragg, Kaufman & Stewart 1976).

    Stops at breakdown, after m_max basis vectors, or once accept(lam, U,
    beta) holds.  Returns (beta0, V, lam, U, beta): beta0 = ||psi||, the
    basis as the rows of V (psi = beta0 V[0]; orthonormal to round-off only
    with reorthogonalize), the eigenpairs
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
        for _ in range(2 if reorthogonalize else 0):
            w -= V[:m].T @ (V[:m] @ w.conj()).conj()
            beta, before = math.sqrt(np.vdot(w, w).real), beta
            if beta >= before / math.sqrt(2):
                break
        # dense eigh of the at most m_max-square T keeps scipy.linalg unloaded
        lam, U = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if beta < 1e-14 * max(1.0, np.abs(lam).max()):
            beta = 0.0
        if beta == 0.0 or m == m_max or accept(lam, U, beta):
            return beta0, V[:m], lam, U, beta
        betas.append(beta)


KRYLOV_TOL = 1e-12
MIN_STEP_FRACTION = 4096


def propagate(spec: HamiltonianSpec | Hamiltonian, state: ManyBodyState, dt: float, *,
              krylov_dim: int = 30) -> ManyBodyState:
    """exp(-i dt H) state by Lanczos, one Krylov space per step.

    Each step builds a space of at most krylov_dim + 1 vectors from the
    current state, checking after every vector whether the residual estimate
    beta |sum_j U[m, j] exp(-i tau lam_j) U[0, j]| of the remaining time is
    below KRYLOV_TOL.  If the space fills first, the step takes the largest
    halving of the remaining time that meets it; a step below
    |dt| / MIN_STEP_FRACTION raises.  dt may be negative (backward
    evolution); the norm is preserved to the Krylov tolerance per step and
    never renormalized.
    """
    if dt == 0.0 or not math.isfinite(dt):
        raise ManyBodyError(f"dt must be finite and nonzero, got {dt}")
    H = spec if isinstance(spec, Hamiltonian) else Hamiltonian(spec, state.basis)

    def error(tau, lam, U, beta):
        return beta * abs(np.sum(U[-1] * np.exp(-1j * tau * lam) * U[0]))

    psi, remaining = state.psi.ravel(), dt
    while remaining:
        beta0, V, lam, U, beta = _lanczos(
            H.apply, psi, krylov_dim + 1, lambda *space: error(remaining, *space) < KRYLOV_TOL,
            reorthogonalize=False)
        tau = remaining
        while not error(tau, lam, U, beta) < KRYLOV_TOL:
            tau /= 2
            if abs(tau) < abs(dt) / MIN_STEP_FRACTION:
                raise ManyBodyError(f"Krylov propagation needs steps below |dt|/"
                                    f"{MIN_STEP_FRACTION} with krylov_dim={krylov_dim}")
        psi = V.T @ (U @ (beta0 * np.exp(-1j * tau * lam) * U[0]))
        remaining -= tau
    return ManyBodyState(state.basis, psi.reshape(state.psi.shape), state.time + dt)


def product_state(u: Field, v: Field, basis: TwoSpeciesBasis) -> ManyBodyState:
    """Condensed state u^(N1) x v^(N2) in the occupation basis.

    The coefficient on occupation n is sqrt(N!/prod n_j!) prod u_j^{n_j}
    with u expressed as a unit vector in the site basis (values times
    sqrt(h)); the result is normalized to kill round-off.
    """
    for name, f in (("u", u), ("v", v)):
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


_STATE_MAGIC = "becmix-state 1"


def save_state(state: ManyBodyState, grid: Grid, path) -> None:
    """Checkpoint: structured-text header plus little-endian coefficients."""
    b = state.basis
    write_tagged(path, _STATE_MAGIC, {"M": b.M, "L": repr(grid.length_per_axis), "N1": b.N1,
                                      "N2": b.N2, "time": repr(state.time),
                                      "basis_order": BASIS_ORDER_TAG}, state.psi)


def load_state(path) -> tuple[ManyBodyState, Grid]:
    """Read a `save_state` checkpoint; a malformed file raises ManyBodyError naming it."""
    def parse(meta):
        if meta.get("basis_order") != BASIS_ORDER_TAG:
            raise ValueError(f"basis order {meta.get('basis_order')!r} does not match "
                             f"{BASIS_ORDER_TAG!r}")
        M, N1, N2 = int(meta["M"]), int(meta["N1"]), int(meta["N2"])
        grid = Grid(1, M, float(meta["L"]))
        return (M, N1, N2, grid, float(meta["time"])), _basis_dim(M, N1, N2)

    # the payload was checked against the header's dimension: no cap applies
    (M, N1, N2, grid, time), psi = read_tagged(path, _STATE_MAGIC, "state checkpoint",
                                               ManyBodyError, parse)
    basis = build_basis(M, N1, N2, dim_cap=psi.size)
    return ManyBodyState(basis, psi.reshape(basis.shape), time), grid
