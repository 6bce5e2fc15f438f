"""Fourier backend for homogeneous elliptic operators on R^d.

The damped wave machinery diagonalizes equally well over the classical
Fourier transform: a positive homogeneous symbol R(xi) plays the role the
oscillator eigenvalues play on the group side.  This module supplies the
periodic FFT grid, continuum-normalized analysis/synthesis and exact discrete
Parseval weights, so the propagator and the fixed-point solver can run
unchanged on R^d.  The symbol on the dual grid is
`subwave.spectral.AbelianSymbol.values`; the symbol-multiplier Sobolev norms
live in the backend model of `subwave.propagator`.  The module imports no
other part of the package.

Conventions: the box [-R_i, R_i)^d is sampled uniformly with N_i points per
axis (endpoint excluded, the grid is periodic), coefficients approximate the
continuum integral f^(xi) = integral f(x) e^{-i xi.x} dx, and the discrete
Parseval identity

    sum |f|^2 dV = sum_xi |f^(xi)|^2 / V_total

is exact for the DFT pair, so no calibration step is needed here.

Layouts: real samples are analyzed by `numpy.fft.rfftn` onto the half
spectrum, shape `grid.half_shape` = shape[:-1] + (N_d // 2 + 1,), which
holds every coefficient once up to the Hermitian symmetry
f^(-xi) = conj f^(xi) of real data; complex samples keep the full DFT
layout, shape `grid.shape`.  A coefficient array's shape is its layout, and
the inverse transform returns real samples from the half layout.  The
backend model of `subwave.propagator` takes one layout for a whole solve:
the half one when every datum is real, that is on the half layout or on
the full layout and exactly Hermitian; else the full one, onto which a half
datum is completed.  `_relayout` is the one conversion between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AbelianGrid",
    "AbelianField",
    "AbelianCoefficients",
    "abelian_from_function",
    "abelian_forward",
    "abelian_inverse",
]


@dataclass(frozen=True)
class AbelianGrid:
    """Uniform periodic sampling of the box prod_i [-R_i, R_i)."""

    half_widths: tuple
    shape: tuple

    def __post_init__(self):
        hw = tuple(float(r) for r in self.half_widths)
        sh = tuple(int(s) for s in self.shape)
        if len(hw) != len(sh):
            raise ValueError("half_widths and shape must have equal length")
        if any(r <= 0 for r in hw):
            raise ValueError("half widths must be positive")
        if any(s < 8 for s in sh):
            raise ValueError("need at least 8 points per axis")
        object.__setattr__(self, "half_widths", hw)
        object.__setattr__(self, "shape", sh)

    @property
    def dim(self) -> int:
        return len(self.shape)

    def axis(self, i: int) -> np.ndarray:
        r, n = self.half_widths[i], self.shape[i]
        return -r + (2.0 * r / n) * np.arange(n)

    @property
    def spacings(self) -> tuple:
        return tuple(2.0 * r / n for r, n in zip(self.half_widths, self.shape))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)

    @property
    def volume(self) -> float:
        return math.prod(2.0 * r for r in self.half_widths)

    def freq_axis(self, i: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.shape[i], d=self.spacings[i])

    def meshgrid(self):
        return np.meshgrid(*(self.axis(i) for i in range(self.dim)), indexing="ij")

    @property
    def half_shape(self) -> tuple:
        """The half-spectrum (rfftn) layout of real fields."""
        return self.shape[:-1] + (self.shape[-1] // 2 + 1,)

    def freq_stack(self) -> np.ndarray:
        """Frequency vectors, shape grid.shape + (dim,)."""
        mesh = np.meshgrid(*(self.freq_axis(i) for i in range(self.dim)), indexing="ij")
        return np.stack(mesh, axis=-1)


class AbelianField:
    """Samples on an AbelianGrid: float64 when real, else complex."""

    def __init__(self, grid: AbelianGrid, samples: np.ndarray):
        samples = np.asarray(samples)
        samples = samples.astype(complex if np.iscomplexobj(samples) else float,
                                 copy=False)
        if samples.shape != grid.shape:
            raise ValueError(f"samples shape {samples.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(samples.view(float))):
            raise ValueError("samples contain non-finite values")
        self.grid = grid
        self.samples = samples

    def lq_norm(self, q: float) -> float:
        if q <= 0:
            raise ValueError("Lebesgue exponent must be positive")
        return float((np.sum(np.abs(self.samples) ** q) * self.grid.cell_volume) ** (1.0 / q))


class AbelianCoefficients:
    """Continuum-normalized DFT coefficients on the dual grid, on the full
    layout (shape grid.shape) or the half spectrum of a real field (shape
    grid.half_shape)."""

    def __init__(self, grid: AbelianGrid, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.shape not in (grid.shape, grid.half_shape):
            raise ValueError(f"coefficient shape {coefficients.shape} is neither "
                             f"grid shape {grid.shape} nor its half {grid.half_shape}")
        self.grid = grid
        self.coefficients = coefficients

    @property
    def real(self) -> bool:
        """Whether the coefficients are the half spectrum of a real field."""
        return self.coefficients.shape != self.grid.shape


def abelian_from_function(grid: AbelianGrid, fn) -> AbelianField:
    return AbelianField(grid, fn(*grid.meshgrid()))


def abelian_forward(field: AbelianField) -> AbelianCoefficients:
    # out= (NumPy >= 2.0) keeps the FFT to one array for all axes; scaling
    # it in place gives the bits of (r)fftn(samples) * cell_volume
    grid = field.grid
    if np.isrealobj(field.samples):
        out = np.fft.rfftn(field.samples, out=np.empty(grid.half_shape, dtype=complex))
    else:
        out = np.fft.fftn(field.samples, out=np.empty(grid.shape, dtype=complex))
    out *= grid.cell_volume
    return AbelianCoefficients(grid, out)


def abelian_inverse(coeffs: AbelianCoefficients, work=None) -> AbelianField:
    """The samples of coeffs, bit for bit (i)rfftn / cell_volume; they are
    finite when the coefficients are, and are not checked again.

    From the half layout these are irfftn's passes, one axis at a time: the
    leading axes in place in work, a complex array of the coefficients'
    shape (a new one if None), where irfftn makes a new array per axis.  A
    caller that passes the same work on every call keeps those passes in
    one hot array.
    """
    grid = coeffs.grid
    if coeffs.real:
        c = coeffs.coefficients
        if work is None:
            work = np.empty(c.shape, dtype=complex)
        for axis in range(grid.dim - 1):
            c = np.fft.ifft(c, axis=axis, out=work)
        out = np.fft.irfft(c, n=grid.shape[-1], axis=-1, out=np.empty(grid.shape))
    else:
        out = np.fft.ifftn(coeffs.coefficients, out=np.empty(grid.shape, dtype=complex))
    # NumPy divides complex by real as this product, bit for bit, but slower
    out *= 1.0 / grid.cell_volume
    return _field(grid, out)


def _field(grid: AbelianGrid, samples: np.ndarray) -> AbelianField:
    """The field of float64 or complex samples of the grid's shape whose
    finiteness the caller vouches for: no pass over them."""
    field = object.__new__(AbelianField)
    field.grid, field.samples = grid, samples
    return field


def _reflect(a: np.ndarray) -> np.ndarray:
    """a at -xi: index i -> -i mod N_i on every axis."""
    return np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))


def _relayout(c: np.ndarray, grid: AbelianGrid, real: bool):
    """The coefficient array c on the half layout when real, else on the
    full one; c itself when it is on that layout already.

    Half to full is the Hermitian completion c(-xi) = conj c(xi).  Full to
    half keeps the first N_d // 2 + 1 columns, and only of an exactly
    Hermitian c (zeros are): otherwise the result is None, since dropping
    the other columns would change the field.
    """
    if (c.shape == grid.half_shape) == real:
        return c
    h = grid.half_shape[-1]
    if real:
        return c[..., :h].copy() if np.array_equal(c, np.conj(_reflect(c))) else None
    full = np.zeros(grid.shape, dtype=complex)
    full[..., :h] = c
    full[..., h:] = np.conj(_reflect(full)[..., h:])
    return full

