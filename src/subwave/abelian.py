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

    def freq_stack(self) -> np.ndarray:
        """Frequency vectors, shape grid.shape + (dim,)."""
        mesh = np.meshgrid(*(self.freq_axis(i) for i in range(self.dim)), indexing="ij")
        return np.stack(mesh, axis=-1)


class AbelianField:
    """Complex samples on an AbelianGrid."""

    def __init__(self, grid: AbelianGrid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=complex)
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
    """Continuum-normalized DFT coefficients on the dual grid."""

    def __init__(self, grid: AbelianGrid, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.shape != grid.shape:
            raise ValueError(f"coefficient shape {coefficients.shape} "
                             f"!= grid shape {grid.shape}")
        self.grid = grid
        self.coefficients = coefficients


def abelian_from_function(grid: AbelianGrid, fn) -> AbelianField:
    return AbelianField(grid, np.asarray(fn(*grid.meshgrid()), dtype=complex))


def abelian_forward(field: AbelianField) -> AbelianCoefficients:
    # out= (NumPy >= 2.0) keeps the FFT to one array for all axes; scaling
    # it in place gives the bits of fftn(samples) * cell_volume
    out = np.fft.fftn(field.samples, out=np.empty(field.grid.shape, dtype=complex))
    out *= field.grid.cell_volume
    return AbelianCoefficients(field.grid, out)


def abelian_inverse(coeffs: AbelianCoefficients) -> AbelianField:
    out = np.fft.ifftn(coeffs.coefficients, out=np.empty(coeffs.grid.shape, dtype=complex))
    # NumPy divides complex by real as this product, bit for bit, but slower
    out *= 1.0 / coeffs.grid.cell_volume
    return AbelianField(coeffs.grid, out)

