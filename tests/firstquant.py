"""First-quantized oracle for two-species lattice states, for tests only.

The labelled-particle functionals of `becmix.indicators` work in the
occupation basis; the tests check them against this independent
representation on the full tensor grid C^M tensor ... tensor C^M, A
coordinates first.  Its size is M^(N1+N2), so keep the problems small.
"""

import math

import numpy as np

from becmix.manybody import ManyBodyState


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
    """Multiply by kernel[(s_i - s_j) mod M] over two particle axes, axis_i < axis_j."""
    M = kernel.size
    i = np.arange(M)
    shape = [1] * psi.ndim
    shape[axis_i] = M
    shape[axis_j] = M
    return psi * kernel[(i[:, None] - i[None, :]) % M].reshape(shape)
