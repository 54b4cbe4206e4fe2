"""Periodic tensor-product grids and spectral primitives.

Every other module shares this discretization: a d-dimensional torus
[0, L)^d sampled at M points per axis.  The discrete L2 inner product
carries the h^d volume weight, so a field with unit discrete norm has
the units of L^{-d/2} and all derived energies are measure-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
import math

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "GridError",
    "make_grid",
    "apply_laplacian",
    "periodic_convolve",
    "circulant",
    "inner",
    "l2_norm",
    "normalize",
    "save_field",
    "load_field",
]

_HEADER_MAGIC = "becmix-field 1"


class GridError(ValueError):
    """Invalid grid construction or mismatched grids in an operation."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with M points per axis on [0, L)^dim.

    Direct construction accepts M >= 2 (the many-body oracles need tiny
    site counts); the `make_grid` factory enforces the stricter M >= 4
    contract used by the spectral solvers.
    """

    dim: int
    points_per_axis: int
    length_per_axis: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.points_per_axis < 2:
            raise GridError(f"need at least 2 points per axis, got {self.points_per_axis}")
        if not 0 < self.length_per_axis < math.inf:
            raise GridError(f"box length must be positive and finite, got {self.length_per_axis}")

    @property
    def spacing(self) -> float:
        return self.length_per_axis / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def total_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def volume_element(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        """Coordinates 0, h, ..., L-h along one axis."""
        x = np.arange(self.points_per_axis) * self.spacing
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Per-axis angular wavenumbers in standard transform order.

        Layout 0, 1, ..., M/2-1, -M/2, ..., -1 (times 2*pi/L); the
        Nyquist mode sits on the negative side.
        """
        k = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        k.setflags(write=False)
        return (k,) * self.dim

    def laplacian_symbol(self, kind: str = "spectral") -> np.ndarray:
        """Multiplier of -Laplacian in transform space (read-only, cached per kind).

        kind="spectral" gives |k|^2 (exact for band-limited fields);
        kind="stencil" gives the symbol of the periodic 3-point stencil,
        (4/h^2) sin^2(k h / 2), used when matching the lattice harness.
        """
        cache = self.__dict__.setdefault("_laplacian_symbols", {})
        if kind in cache:
            return cache[kind]
        if kind == "spectral":
            per_axis = [k**2 for k in self.wavenumbers]
        elif kind == "stencil":
            h = self.spacing
            per_axis = [(4.0 / h**2) * np.sin(0.5 * k * h) ** 2 for k in self.wavenumbers]
        else:
            raise GridError(f"unknown laplacian kind {kind!r}")
        out = reduce(np.add.outer, per_axis)
        out.setflags(write=False)
        cache[kind] = out
        return out

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinate arrays, one per axis, each of full shape."""
        return np.meshgrid(*([self.axis_coordinates] * self.dim), indexing="ij")


def make_grid(dim: int, points_per_axis: int, length_per_axis: float) -> Grid:
    """Build a periodic grid; rejects M < 4 and a non-positive or infinite L."""
    if points_per_axis < 4:
        raise GridError(f"make_grid requires M >= 4, got {points_per_axis}")
    return Grid(dim, points_per_axis, length_per_axis)


@dataclass(frozen=True)
class Field:
    """Complex amplitudes on a grid, immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            if vals.size == self.grid.total_points:
                vals = vals.reshape(self.grid.shape)
            else:
                raise GridError(
                    f"field has {vals.size} values, grid expects {self.grid.total_points}"
                )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def is_real(self, tol: float = 1e-12) -> bool:
        scale = np.max(np.abs(self.values)) or 1.0
        return float(np.max(np.abs(self.values.imag))) <= tol * scale

    def is_even(self, tol: float = 1e-12) -> bool:
        """f(-x) = f(x) on the periodic grid along every axis, relative to max |f|."""
        v = self.values
        scale = np.max(np.abs(v)) or 1.0
        return all(np.max(np.abs(v - np.roll(np.flip(v, axis), 1, axis))) <= tol * scale
                   for axis in range(self.grid.dim))

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def _require_same_grid(a: Field, b: Field):
    if a.grid != b.grid:
        raise GridError("fields live on different grids")


def inner(f: Field, g: Field) -> complex:
    """Discrete L2 inner product <f, g> = h^d sum conj(f) g."""
    _require_same_grid(f, g)
    return complex(np.vdot(f.values, g.values) * f.grid.volume_element)


def l2_norm(f: Field) -> float:
    return float(np.linalg.norm(f.values) * np.sqrt(f.grid.volume_element))


def normalize(f: Field) -> Field:
    n = l2_norm(f)
    if n == 0.0:
        raise GridError("cannot normalize a zero field")
    return f.with_values(f.values / n)


def apply_laplacian(f: Field) -> Field:
    """Return -Laplacian(f) via the spectral multiplier |k|^2.

    Sign convention: the output is the positive operator -Delta applied
    to f, so plane waves are eigenfields with eigenvalue |k|^2 and
    <f, apply_laplacian(f)> >= 0.
    """
    if not np.all(np.isfinite(f.values)):
        raise GridError("field contains non-finite values")
    k2 = f.grid.laplacian_symbol("spectral")
    out = np.fft.ifftn(k2 * np.fft.fftn(f.values))
    return f.with_values(out)


def periodic_convolve(V: Field, rho: Field) -> Field:
    """Discrete periodic convolution (V * rho)(x) = h^d sum_y V(x-y) rho(y).

    Both inputs must be real and share a grid; the spectral product is
    exact for the circular convolution, so the result is real up to
    round-off and is returned with the imaginary part dropped.
    """
    _require_same_grid(V, rho)
    if not V.is_real() or not rho.is_real():
        raise GridError("periodic_convolve expects real fields")
    hd = V.grid.volume_element
    out = np.fft.ifftn(np.fft.fftn(V.values) * np.fft.fftn(rho.values)).real * hd
    return V.with_values(out)


def circulant(columns: np.ndarray) -> np.ndarray:
    """The circulant matrices C[i, j] = c[(i - j) mod M] of a stack of first columns c."""
    M = columns.shape[-1]
    offsets = np.arange(M)
    return columns[..., (offsets[:, None] - offsets) % M]


def save_field(f: Field, path) -> None:
    """Write the `becmix-field 1` line, `dim`, `M` and `L` as `key = value`
    lines, a blank line, then the row-major values as little-endian
    (real, imag) float64 pairs."""
    g = f.grid
    header = (f"{_HEADER_MAGIC}\ndim = {g.dim}\nM = {g.points_per_axis}\n"
              f"L = {g.length_per_axis!r}\n\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(f.values.astype("<c16").tobytes())


def load_field(path) -> Field:
    """Read a `save_field` file.

    A wrong magic line, a missing or bad header value and a payload of the
    wrong size raise GridError naming the path.
    """
    with open(path, "rb") as fh:
        head, _, payload = fh.read().partition(b"\n\n")
    lines = head.decode("ascii", "replace").splitlines()
    if not lines or lines[0] != _HEADER_MAGIC:
        raise GridError(f"{path}: not a field file")
    meta = {key.strip(): val.strip() for key, _, val in (line.partition("=") for line in lines[1:])}
    try:
        grid = Grid(int(meta["dim"]), int(meta["M"]), float(meta["L"]))
    except KeyError as exc:
        raise GridError(f"{path}: header lacks {exc.args[0]}") from None
    except ValueError as exc:
        raise GridError(f"{path}: bad header: {exc}") from exc
    count = grid.total_points
    expected = count * np.dtype("<c16").itemsize
    if len(payload) != expected:
        raise GridError(f"{path}: payload is {len(payload)} bytes, expected {expected} "
                        f"for {count} values")
    return Field(grid, np.frombuffer(payload, dtype="<c16").reshape(grid.shape))
