"""Desk-scale first-quantized representation of two-species lattice states.

Some indicator functionals act on *labelled* particles (projectors on
"particle 1 of species A", pair multipliers g(x_1 - x_2)) and are most
direct on the full tensor grid C^M tensor ... tensor C^M, with the A
coordinates first.  Dimensions grow like M^(N1+N2), so these helpers
enforce a cap and are meant for small verification problems; the
occupation representation in `manybody` stays the workhorse.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import Field
from .manybody import ManyBodyState, ManyBodyError, TwoSpeciesBasis

__all__ = [
    "firstquant_cap_check",
    "site_vector",
    "firstquant_vector",
    "orbital_project",
    "axis_diagonal",
    "pair_diagonal",
]

FIRSTQUANT_DIM_CAP = 600_000


def firstquant_cap_check(basis: TwoSpeciesBasis):
    dim = basis.M ** (basis.N1 + basis.N2)
    if dim > FIRSTQUANT_DIM_CAP:
        raise ManyBodyError(
            f"first-quantized dimension M^(N1+N2) = {dim} exceeds the cap "
            f"{FIRSTQUANT_DIM_CAP}; this diagnostic path is desk-scale only"
        )


def site_vector(f: Field) -> np.ndarray:
    """Orbital as a unit vector in the site basis (values times sqrt(h))."""
    return f.values.ravel() * math.sqrt(f.grid.volume_element)


def _species_maps(occs: np.ndarray, index: dict, M: int, N: int):
    """Map every position tuple to its occupation index and amplitude.

    amplitude = sqrt(prod n! / N!), the coefficient that spreads one
    occupation-basis element uniformly over its position tuples.
    """
    n_tuples = M**N
    idx = np.empty(n_tuples, dtype=np.int64)
    amp = np.empty(n_tuples, dtype=float)
    logN = math.lgamma(N + 1)
    digits = np.empty(N, dtype=np.int64)
    for t in range(n_tuples):
        rem = t
        for i in range(N - 1, -1, -1):
            digits[i] = rem % M
            rem //= M
        occ = np.bincount(digits, minlength=M)
        idx[t] = index[tuple(occ)]
        amp[t] = math.exp(0.5 * (sum(math.lgamma(n + 1) for n in occ) - logN))
    return idx, amp


def firstquant_vector(state: ManyBodyState) -> np.ndarray:
    """Symmetric tensor-grid amplitudes, shape (M,)*(N1+N2), A axes first."""
    b = state.basis
    firstquant_cap_check(b)
    idx_a, amp_a = _species_maps(b.A.occs, b.A.index, b.M, b.N1)
    idx_b, amp_b = _species_maps(b.B.occs, b.B.index, b.M, b.N2)
    psi = state.psi[np.ix_(idx_a, idx_b)] * np.outer(amp_a, amp_b)
    return psi.reshape((b.M,) * (b.N1 + b.N2))


def orbital_project(psi: np.ndarray, u_site: np.ndarray, axis: int,
                    complement: bool = False) -> np.ndarray:
    """p = |u><u| (or q = 1 - p) acting on one particle axis."""
    overlap = np.tensordot(np.conj(u_site), psi, axes=(0, axis))
    proj = np.moveaxis(np.multiply.outer(u_site, overlap), 0, axis)
    return psi - proj if complement else proj


def axis_diagonal(psi: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    shape = [1] * psi.ndim
    shape[axis] = w.size
    return psi * w.reshape(shape)


def pair_diagonal(psi: np.ndarray, kernel: np.ndarray, axis_i: int, axis_j: int) -> np.ndarray:
    """Multiply by kernel[(s_i - s_j) mod M] over two particle axes."""
    if axis_i == axis_j:
        raise ValueError("pair_diagonal needs two distinct axes")
    M = kernel.size
    i = np.arange(M)
    K = kernel[(i[:, None] - i[None, :]) % M]
    if axis_i > axis_j:
        axis_i, axis_j = axis_j, axis_i
        K = K.T
    shape = [1] * psi.ndim
    shape[axis_i] = M
    shape[axis_j] = M
    return psi * K.reshape(shape)
