"""Periodic FFT backend: exact Parseval, round trips, and the backend model's
norm multipliers."""

import numpy as np
import pytest

from subwave.abelian import (
    AbelianCoefficients,
    AbelianField,
    AbelianGrid,
    abelian_forward,
    abelian_from_function,
    abelian_inverse,
    _relayout,
)
from subwave.propagator import _Norms
from subwave.spectral import AbelianSymbol


def test_grid_validation():
    with pytest.raises(ValueError):
        AbelianGrid((1.0, 1.0), (16,))
    with pytest.raises(ValueError):
        AbelianGrid((0.0,), (16,))
    with pytest.raises(ValueError):
        AbelianGrid((1.0,), (6,))


def test_grid_axes_exclude_right_endpoint():
    grid = AbelianGrid((2.0,), (8,))
    ax = grid.axis(0)
    assert ax[0] == -2.0
    assert ax[-1] == pytest.approx(2.0 - grid.spacings[0])
    assert grid.spacings[0] == pytest.approx(0.5)
    assert grid.volume == pytest.approx(4.0)
    assert grid.cell_volume == pytest.approx(0.5)


def random_field(grid, rng):
    return AbelianField(grid, rng.normal(size=grid.shape)
                        + 1j * rng.normal(size=grid.shape))


def test_parseval_exact(rng):
    grid = AbelianGrid((3.0, 2.0, 4.0), (16, 12, 20))
    f = random_field(grid, rng)
    coeffs = abelian_forward(f)
    norms = _Norms(coeffs, AbelianSymbol(np.ones(3), order=2))
    assert norms.l2(coeffs.coefficients) == pytest.approx(f.lq_norm(2.0), rel=1e-13)


def test_round_trip_exact(rng):
    grid = AbelianGrid((3.0, 3.0), (24, 16))
    f = random_field(grid, rng)
    back = abelian_inverse(abelian_forward(f))
    assert np.allclose(back.samples, f.samples, atol=1e-13)


def test_fft_wrappers_are_bitwise_the_scaled_numpy_transforms(rng):
    # the wrappers transform into one preallocated array and scale it in
    # place; the bits must be those of the plain expressions
    grid = AbelianGrid((3.0, 2.0, 4.0), (16, 12, 20))
    f = random_field(grid, rng)
    assert np.array_equal(abelian_forward(f).coefficients,
                          np.fft.fftn(f.samples) * grid.cell_volume)
    c = AbelianCoefficients(grid, random_field(grid, rng).samples)
    assert np.array_equal(abelian_inverse(c).samples,
                          np.fft.ifftn(c.coefficients) / grid.cell_volume)
    # real samples: the half spectrum, and real samples back
    x = rng.normal(size=grid.shape)
    assert np.array_equal(abelian_forward(AbelianField(grid, x)).coefficients,
                          np.fft.rfftn(x) * grid.cell_volume)
    half = rng.normal(size=grid.half_shape) + 1j * rng.normal(size=grid.half_shape)
    back = abelian_inverse(AbelianCoefficients(grid, half)).samples
    assert back.dtype == float
    assert np.array_equal(back, np.fft.irfftn(half, s=grid.shape, axes=(0, 1, 2))
                          * (1.0 / grid.cell_volume))


@pytest.mark.parametrize("shape", [(16, 12, 20), (12, 10, 9), (18,)],
                         ids=["even", "odd", "1d"])
def test_inverse_through_one_work_array_keeps_the_bits(shape, rng):
    # the passes over the leading axes run in the caller's work array, one
    # array for every call; the samples are irfftn's bits all the same
    grid = AbelianGrid((3.0, 2.0, 4.0)[:len(shape)], shape)
    work = np.empty(grid.half_shape, dtype=complex)
    for _ in range(2):
        half = rng.normal(size=grid.half_shape) + 1j * rng.normal(size=grid.half_shape)
        back = abelian_inverse(AbelianCoefficients(grid, half), work=work).samples
        assert np.array_equal(back, np.fft.irfftn(half, s=grid.shape,
                                                  axes=tuple(range(grid.dim)))
                              * (1.0 / grid.cell_volume))


@pytest.mark.parametrize("shape", [(16, 12, 20), (12, 10, 9)], ids=["even", "odd"])
def test_layouts_convert_by_hermitian_completion(shape, rng):
    grid = AbelianGrid((3.0, 2.0, 4.0), shape)
    x = rng.normal(size=shape)
    half = abelian_forward(AbelianField(grid, x)).coefficients
    full = abelian_forward(AbelianField(grid, x.astype(complex))).coefficients
    assert half.shape == grid.half_shape and full.shape == grid.shape
    completed = _relayout(half, grid, False)
    assert np.array_equal(completed[..., :grid.half_shape[-1]], half)
    assert np.allclose(completed, full, rtol=0, atol=1e-13 * np.abs(full).max())
    assert _relayout(half, grid, True) is half and _relayout(full, grid, False) is full
    # only an exactly Hermitian array folds to the half layout, and back
    a = random_field(grid, rng).samples
    assert _relayout(a, grid, True) is None
    herm = 0.5 * (a + np.conj(np.roll(np.flip(a), 1, axis=(0, 1, 2))))
    folded = _relayout(herm, grid, True)
    assert np.array_equal(folded, herm[..., :grid.half_shape[-1]])
    assert np.array_equal(_relayout(folded, grid, False), herm)
    zero = _relayout(np.zeros(shape, dtype=complex), grid, True)
    assert zero.shape == grid.half_shape and not zero.any()


def test_plane_wave_multiplier_is_exact():
    grid = AbelianGrid((np.pi,), (32,))
    xi0 = grid.freq_axis(0)[3]
    f = abelian_from_function(grid, lambda x: np.exp(1j * xi0 * x))
    coeffs = abelian_forward(f)
    norms, c = _Norms(coeffs, AbelianSymbol([1.0], order=2)), coeffs.coefficients
    base = norms.l2(c)
    assert norms.sobolev(c, 1.0) == pytest.approx(np.sqrt(1.0 + xi0 ** 2) * base,
                                                  rel=1e-12)
    got = norms._norm(c, norms.multiplier(1.0, 0.3))  # mass 0.3
    assert got == pytest.approx(np.sqrt(0.3 + xi0 ** 2) * base, rel=1e-12)
    assert norms.frac(c, 1.0) == pytest.approx(abs(xi0) * base, rel=1e-12)


def test_homogeneous_norm_edge_cases(rng):
    grid = AbelianGrid((2.0, 2.0), (16, 16))
    sym = AbelianSymbol([1.0, 1.0], order=2, radial=True)
    coeffs = abelian_forward(random_field(grid, rng))
    norms, c = _Norms(coeffs, sym), coeffs.coefficients
    assert norms.frac(c, 0.0) == pytest.approx(norms.l2(c), rel=1e-13)
    # a real constant has the half layout; the complex model completes it
    const = abelian_forward(AbelianField(grid, np.ones(grid.shape)))
    assert norms.frac(norms.unwrap(const), 1.0) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError, match="singular"):
        norms.frac(c, -0.5)
    with pytest.raises(ValueError, match="singular"):
        norms.multiplier(0.5, 0.0)  # the mass-free Sobolev multiplier


def test_symbol_on_grid_values():
    grid = AbelianGrid((2.0, 3.0), (8, 8))
    sym = AbelianSymbol([1.0, 2.0], order=2)
    vals = sym.values(grid)
    assert vals.shape == grid.shape
    xi = grid.freq_stack()
    assert np.array_equal(vals, sym.value_at(xi))
    assert np.allclose(vals, xi[..., 0] ** 2 + 2.0 * xi[..., 1] ** 2)
    assert vals[0, 0] == 0.0
    with pytest.raises(ValueError, match="dimension"):
        AbelianSymbol(np.ones(3), order=2).values(grid)


def test_bilaplacian_symbol_matches_square():
    grid = AbelianGrid((2.0, 2.0, 2.0), (8, 8, 8))
    lap = AbelianSymbol(np.ones(3), order=2, radial=True).values(grid)
    bilap = AbelianSymbol(np.ones(3), order=4, radial=True).values(grid)
    assert np.allclose(bilap, lap ** 2, rtol=1e-12)


def test_field_and_coefficient_validation():
    grid = AbelianGrid((1.0,), (8,))
    with pytest.raises(ValueError, match="shape"):
        AbelianField(grid, np.zeros(9))
    with pytest.raises(ValueError, match="finite"):
        AbelianField(grid, np.full(8, np.nan))
    with pytest.raises(ValueError, match="shape"):
        AbelianCoefficients(grid, np.zeros(9))
    # the layout is the shape: N entries, or N // 2 + 1 for a real field
    assert AbelianCoefficients(grid, np.zeros(5)).real
    assert not AbelianCoefficients(grid, np.zeros(8)).real
    with pytest.raises(ValueError, match="shape"):
        AbelianCoefficients(grid, np.zeros(4))
    assert AbelianField(grid, np.arange(8)).samples.dtype == float
    assert AbelianField(grid, np.ones(8, dtype=complex)).samples.dtype == complex
    f = AbelianField(grid, np.ones(8))
    with pytest.raises(ValueError):
        f.lq_norm(0.0)
