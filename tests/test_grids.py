import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from becmix.grids import (
    Field,
    Grid,
    GridError,
    apply_laplacian,
    inner,
    l2_norm,
    load_field,
    make_grid,
    normalize,
    periodic_convolve,
    save_field,
)


def test_wavenumber_layout_matches_integer_grid():
    g = make_grid(1, 8, 2 * np.pi)
    assert np.allclose(g.wavenumbers[0], [0, 1, 2, 3, -4, -3, -2, -1])


def test_spacing_and_total_points():
    assert make_grid(1, 4, 1.0).spacing == 0.25
    assert make_grid(3, 16, 10.0).total_points == 4096


def test_spacing_times_points_is_length_exactly():
    for M, L in [(4, 1.0), (8, 2 * np.pi), (64, 10.0)]:
        g = make_grid(1, M, L)
        assert g.spacing * g.points_per_axis == L


def test_wavenumbers_symmetric_up_to_nyquist():
    g = make_grid(1, 16, 3.0)
    k = g.wavenumbers[0]
    assert len(k) == 16
    # all non-Nyquist modes appear in +/- pairs
    assert np.allclose(sorted(k[1:8]), sorted(-k[9:]))


def test_make_grid_rejections():
    with pytest.raises(GridError):
        make_grid(1, 3, 1.0)
    with pytest.raises(GridError):
        make_grid(1, 8, 0.0)
    with pytest.raises(GridError):
        make_grid(1, 8, float("inf"))
    with pytest.raises(GridError):
        make_grid(4, 8, 1.0)
    # the relaxed constructor still exists for the lattice oracles
    assert Grid(1, 2, 1.0).points_per_axis == 2


def test_laplacian_plane_wave_eigenpair():
    g = make_grid(1, 32, 2 * np.pi)
    x = g.axis_coordinates
    f = Field(g, np.exp(3j * x))
    out = apply_laplacian(f)
    assert np.max(np.abs(out.values - 9.0 * f.values)) < 1e-12


def test_laplacian_annihilates_constants():
    g = make_grid(2, 8, 3.0)
    f = Field(g, np.full(g.shape, 2.3 + 0.4j))
    assert np.max(np.abs(apply_laplacian(f).values)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_laplacian_positive_and_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(1, 16, 4.0)
    f = Field(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    h = Field(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    lf, lh = apply_laplacian(f), apply_laplacian(h)
    assert inner(f, lf).real >= -1e-12
    assert abs(inner(f, lf).imag) < 1e-12 * max(1.0, abs(inner(f, lf)))
    assert abs(inner(h, lf) - np.conj(inner(f, lh))) < 1e-10


def test_laplacian_matches_stencil_at_second_order():
    # on a fixed smooth profile the operator discrepancy shrinks ~ h^2
    errs = []
    for M in (16, 32, 64):
        g = make_grid(1, M, 2 * np.pi)
        x = g.axis_coordinates
        f = Field(g, np.exp(np.cos(x)))
        spectral = apply_laplacian(f).values
        v = f.values
        stencil = (2 * v - np.roll(v, 1) - np.roll(v, -1)) / g.spacing**2
        errs.append(np.max(np.abs(spectral - stencil)))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert order[0] == pytest.approx(2.0, abs=0.35)
    assert order[1] == pytest.approx(2.0, abs=0.35)


def test_parseval():
    rng = np.random.default_rng(0)
    g = make_grid(1, 64, 5.0)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    back = np.fft.ifftn(np.fft.fftn(f))
    assert np.linalg.norm(back - f) / np.linalg.norm(f) < 1e-12


def test_convolve_delta_identity():
    g = make_grid(1, 32, 4.0)
    delta = np.zeros(32)
    delta[0] = 1.0 / g.spacing
    rho = Field(g, 1.5 + np.cos(2 * np.pi * g.axis_coordinates / 4.0))
    out = periodic_convolve(Field(g, delta), rho)
    assert np.max(np.abs(out.values - rho.values)) < 1e-12


def test_convolve_constant_gives_total_mass():
    g = make_grid(1, 16, 2.0)
    rho = Field(g, np.abs(np.sin(np.pi * g.axis_coordinates)) + 0.5)
    mass = float(np.sum(rho.values.real) * g.spacing)
    out = periodic_convolve(Field(g, np.full(16, 3.0)), rho)
    assert np.max(np.abs(out.values - 3.0 * mass)) < 1e-12


def test_convolve_matches_direct_sum():
    rng = np.random.default_rng(1)
    g = make_grid(1, 32, 3.0)
    V = rng.standard_normal(32)
    rho = rng.standard_normal(32)
    out = periodic_convolve(Field(g, V), Field(g, rho)).values.real
    direct = np.zeros(32)
    for n in range(32):
        direct[n] = g.spacing * sum(V[(n - m) % 32] * rho[m] for m in range(32))
    assert np.max(np.abs(out - direct)) / np.max(np.abs(direct)) < 1e-10


def test_convolve_gaussians_closed_form():
    # two normalized Gaussians convolve to one with summed variances
    g = make_grid(1, 256, 40.0)
    x = np.where(g.axis_coordinates >= 20.0, g.axis_coordinates - 40.0, g.axis_coordinates)
    s1, s2 = 0.6, 0.8
    f1 = np.exp(-(x**2) / (2 * s1**2)) / np.sqrt(2 * np.pi * s1**2)
    f2 = np.exp(-(x**2) / (2 * s2**2)) / np.sqrt(2 * np.pi * s2**2)
    out = periodic_convolve(Field(g, f1), Field(g, f2)).values.real
    s = np.sqrt(s1**2 + s2**2)
    exact = np.exp(-(x**2) / (2 * s**2)) / np.sqrt(2 * np.pi * s**2)
    center = np.abs(x) < 4.0  # away from the boundary and above tail round-off
    rel = np.max(np.abs(out[center] - exact[center]) / exact[center])
    assert rel < 1e-6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_convolve_commutes_and_is_bilinear(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(1, 16, 2.0)
    a, b, c = (Field(g, rng.standard_normal(16)) for _ in range(3))
    ab = periodic_convolve(a, b).values
    ba = periodic_convolve(b, a).values
    assert np.max(np.abs(ab - ba)) < 1e-12
    lin = periodic_convolve(a, Field(g, 2.0 * b.values.real + c.values.real)).values
    split = 2.0 * ab + periodic_convolve(a, c).values
    assert np.max(np.abs(lin - split)) < 1e-12


def test_convolve_rejects_mismatched_grids_and_complex_fields():
    g1 = make_grid(1, 16, 2.0)
    g2 = make_grid(1, 32, 2.0)
    with pytest.raises(GridError):
        periodic_convolve(Field(g1, np.ones(16)), Field(g2, np.ones(32)))
    with pytest.raises(GridError):
        periodic_convolve(Field(g1, np.ones(16) * 1j), Field(g1, np.ones(16)))


def test_field_norm_and_normalize():
    g = make_grid(1, 8, 2.0)
    f = Field(g, np.full(8, 3.0))
    assert l2_norm(f) == pytest.approx(3.0 * np.sqrt(2.0))
    assert l2_norm(normalize(f)) == pytest.approx(1.0)


@pytest.mark.parametrize("edit,needle", [
    (lambda good: good[:-8], "payload is 1016 bytes, expected 1024"),
    (lambda good: good + b"\0" * 16, "payload is 1040 bytes, expected 1024"),
    (lambda good: good.replace(b"M = 8\n", b""), "header lacks M"),
    (lambda good: good.replace(b"L = 3.5", b"L = two"), "bad header"),
    (lambda good: good.replace(b"dim = 2", b"dim = 4"), "bad header: dim must be 1, 2 or 3"),
    (lambda good: good.replace(b"becmix-field", b"becmix-state"), "not a field file"),
    (lambda good: good.replace(b"L = 3.5", b"L = inf"),
     "bad header: box length must be positive and finite, got inf"),
], ids=["truncated", "oversized", "missing_key", "bad_length", "bad_dim", "bad_magic",
        "infinite_length"])
def test_field_file_rejects_malformed_file(tmp_path, edit, needle):
    g = make_grid(2, 8, 3.5)
    path = tmp_path / "field.bin"
    save_field(Field(g, np.ones(g.shape)), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(GridError, match=needle) as err:
        load_field(path)
    assert str(path) in str(err.value)


def test_field_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(5)
    g = make_grid(2, 8, 3.5)
    f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    path = tmp_path / "field.bin"
    save_field(f, path)
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    # payload is little-endian float64 pairs after the blank line
    raw = path.read_bytes()
    _, _, payload = raw.partition(b"\n\n")
    first = np.frombuffer(payload[:16], dtype="<f8")
    assert first[0] == f.values.flat[0].real
    assert first[1] == f.values.flat[0].imag
