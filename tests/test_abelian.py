"""Periodic FFT backend: exact Parseval, round trips, and the backend model's
norm multipliers."""

from fractions import Fraction

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


@pytest.mark.parametrize("half_widths, shape", [
    ((6.0,) * 3, (30,) * 3), ((7.3,) * 3, (33,) * 3), ((1.1,), (17,)),
    ((6.0,) * 3, (32,) * 3), ((5.0, 8.5), (20, 34))],
    ids=["30", "33", "1d", "binary-32", "binary-2d"])
def test_grid_axis_is_exactly_antisymmetric(half_widths, shape):
    # x_{N - j} == -x_j for j = 1 .. N - 1, also where the step 2R / N is
    # not exact in binary, so a centred Gaussian's samples are exactly even
    # and take the octant on every grid; where the step is exact the axis
    # keeps the bits of -R + j (2R / N)
    grid = AbelianGrid(half_widths, shape)
    for i, (r, n) in enumerate(zip(half_widths, shape)):
        ax, step = grid.axis(i), grid.spacings[i]
        assert np.array_equal(ax[1:], -ax[:0:-1])
        if Fraction(step) == Fraction(2 * r) / n:
            assert np.array_equal(ax, -r + step * np.arange(n))
        assert ax[0] == pytest.approx(-r, rel=1e-15)
        assert np.diff(ax) == pytest.approx(step, rel=1e-13)
    f = abelian_from_function(grid, lambda *x: np.exp(-sum(c * c for c in x) / 2.0))
    assert abelian_forward(f).layout == "even"


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
    # real samples that are not even take the full layout, through fftn
    x = rng.normal(size=grid.shape)
    coeffs = abelian_forward(AbelianField(grid, x))
    assert coeffs.layout == "full"
    assert np.array_equal(coeffs.coefficients, np.fft.fftn(x) * grid.cell_volume)


def even_samples(grid, rng):
    """Random real samples exactly equal to their reflection j -> -j mod N on
    every axis: a sum is the same bits in either order."""
    x = rng.normal(size=grid.shape)
    for axis in range(grid.dim):
        x = x + np.roll(np.flip(x, axis), 1, axis)
    return x


@pytest.mark.parametrize("shape", [(16, 12, 20), (12, 10, 9)], ids=["even", "odd"])
def test_layouts_convert_by_hermitian_completion(shape, rng):
    grid = AbelianGrid((3.0, 2.0, 4.0), shape)
    # the octant unfolds to the full layout exactly: every entry is a copy,
    # c(-xi) = c(xi) = conj c(xi) on every axis
    e = even_samples(grid, rng)
    octant = abelian_forward(AbelianField(grid, e)).coefficients
    assert octant.dtype == float and octant.shape == grid.even_shape
    full = _relayout(octant, grid, "full")
    assert full.dtype == complex and full.shape == grid.shape and not np.any(full.imag)
    assert np.array_equal(full[tuple(slice(h) for h in grid.even_shape)], octant)
    assert np.array_equal(full, np.conj(np.roll(np.flip(full), 1, axis=(0, 1, 2))))
    ref = np.fft.fftn(e) * grid.cell_volume
    assert np.abs(full - ref).max() <= 1e-14 * np.abs(ref).max()
    assert _relayout(octant, grid, "even") is octant and _relayout(full, grid, "full") is full
    # no array folds to the octant, not even this exactly Hermitian and even
    # one; only zeros fit either layout
    with pytest.raises(ValueError, match="does not fit"):
        _relayout(full, grid, "even")
    for have, layout, want in ((np.zeros(shape, dtype=complex), "even", grid.even_shape),
                               (np.zeros(grid.even_shape), "full", shape)):
        zero = _relayout(have, grid, layout)
        assert zero.shape == want and not zero.any()
        assert zero.dtype == (float if layout == "even" else complex)


@pytest.mark.parametrize("shape", [(16, 16, 16), (9, 12, 15), (32,)],
                         ids=["even", "odd", "1d"])
def test_even_layout_transforms_match_rfftn(shape, rng):
    # the octant's three matmuls (one in 1-D) against fftn and ifftn on
    # exactly even samples
    grid = AbelianGrid((3.0, 2.0, 4.0)[:len(shape)], shape)
    e = even_samples(grid, rng)
    coeffs = abelian_forward(AbelianField(grid, e))
    assert coeffs.layout == "even" and coeffs.coefficients.shape == grid.even_shape
    ref = np.fft.fftn(e) * grid.cell_volume
    assert np.abs(ref.imag).max() <= 1e-14 * np.abs(ref).max()
    octant = ref[tuple(slice(h) for h in grid.even_shape)].real
    assert np.abs(coeffs.coefficients - octant).max() <= 1e-14 * np.abs(ref).max()
    back = abelian_inverse(coeffs).samples
    assert back.dtype == float and back.shape == grid.shape
    want = np.fft.ifftn(_relayout(coeffs.coefficients, grid, "full")) / grid.cell_volume
    assert np.abs(back - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(back - e).max() <= 1e-14 * np.abs(e).max()


def test_forward_takes_the_layout_from_the_samples():
    # exactly even real samples take the octant; a centred Gaussian is one,
    # an off-centre one is not and takes the full layout, as do the same
    # samples typed complex
    grid = AbelianGrid((6.0,) * 3, (32,) * 3)
    for centre, layout in ((0.0, "even"), (0.5, "full")):
        f = abelian_from_function(grid, lambda x, y, z: np.exp(
            -((x - centre) ** 2 + y * y + z * z) / 2.0))
        assert abelian_forward(f).layout == layout
        assert abelian_forward(AbelianField(grid, f.samples + 0j)).layout == "full"


def test_plane_wave_multiplier_is_exact():
    grid = AbelianGrid((np.pi,), (32,))
    xi0 = grid.freq_axis(0)[3]
    f = abelian_from_function(grid, lambda x: np.exp(1j * xi0 * x))
    coeffs = abelian_forward(f)
    norms, c = _Norms(coeffs, AbelianSymbol([1.0], order=2)), coeffs.coefficients
    base = norms.l2(c)
    assert norms.sobolev(c, 1.0) == pytest.approx(np.sqrt(1.0 + xi0 ** 2) * base,
                                                  rel=1e-12)
    got = norms._reduce(c, norms._weighted(1.0, 0.3))  # mass 0.3
    assert got == pytest.approx(np.sqrt(0.3 + xi0 ** 2) * base, rel=1e-12)
    assert norms.frac(c, 1.0) == pytest.approx(abs(xi0) * base, rel=1e-12)


def test_homogeneous_norm_edge_cases(rng):
    grid = AbelianGrid((2.0, 2.0), (16, 16))
    sym = AbelianSymbol([1.0, 1.0], order=2, radial=True)
    coeffs = abelian_forward(random_field(grid, rng))
    norms, c = _Norms(coeffs, sym), coeffs.coefficients
    assert norms.frac(c, 0.0) == pytest.approx(norms.l2(c), rel=1e-13)
    # a real constant has the even layout; the complex model expands it
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
    # the layout is the dtype: N // 2 + 1 real entries for an even field,
    # else N, taken as complex; complex entries on the octant are no layout
    assert AbelianCoefficients(grid, np.zeros(5)).layout == "even"
    with pytest.raises(ValueError, match="octant"):
        AbelianCoefficients(grid, np.zeros(5, dtype=complex))
    assert AbelianCoefficients(grid, np.zeros(8)).layout == "full"
    assert AbelianCoefficients(grid, np.zeros(8)).coefficients.dtype == complex
    with pytest.raises(ValueError, match="shape"):
        AbelianCoefficients(grid, np.zeros(4))
    with pytest.raises(ValueError, match="octant"):
        AbelianCoefficients(AbelianGrid((1.0,) * 2, (8, 8)), np.zeros((5, 5), dtype=complex))
    assert AbelianField(grid, np.arange(8)).samples.dtype == float
    assert AbelianField(grid, np.ones(8, dtype=complex)).samples.dtype == complex
    f = AbelianField(grid, np.ones(8))
    with pytest.raises(ValueError):
        f.lq_norm(0.0)
