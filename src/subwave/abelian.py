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

Layouts: a coefficient array's layout is its dtype.  Real samples exactly
equal to their reflection s_j = s_{(N_i - j) mod N_i} on every axis take
the even layout: their DFT is real and even, and its octant, float64 of
shape `grid.even_shape` = (N_i // 2 + 1 per axis), holds each coefficient
once.  `AbelianGrid.axis` is exactly antisymmetric, so the samples of an
even function, such as the centred Gaussian, are exactly even on every
grid.  The even layout's transforms are the DCT-I as one small real matmul
per axis, octant to octant (Martucci, IEEE Trans. Signal Process. 42(5),
1994).  All other samples, complex or real, take the full DFT layout,
complex of shape `grid.shape`.  The inverse transform returns the whole
grid's samples, real from the even layout.  The full layout holds the even
one: `_relayout` unfolds an octant exactly, and a zero datum fits either
layout.  The backend model of `subwave.propagator` takes the full layout
for a whole solve when a nonzero datum has it, else the even one; every
AbelianSymbol and every pointwise f keep the parity of the data, so a
solve stays on that layout.
"""

from __future__ import annotations

import functools
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
        """The i-th axis, x_j = (2j - N) R / N: exactly antisymmetric,
        x_{N - j} == -x_j bitwise, since the products (+-k) (R / N) round
        alike.  Where the step 2R / N is exact in binary these are the bits
        of -R + j (2R / N)."""
        r, n = self.half_widths[i], self.shape[i]
        return (2.0 * np.arange(n) - n) * (r / n)

    @property
    def spacings(self) -> tuple:
        return tuple(2.0 * r / n for r, n in zip(self.half_widths, self.shape))

    @property
    def cell_volume(self) -> float:
        # not `spacings`: tuple(generator) parks a block per call on a free list
        return math.prod(2.0 * r / n for r, n in zip(self.half_widths, self.shape))

    @property
    def volume(self) -> float:
        return math.prod(2.0 * r for r in self.half_widths)

    def freq_axis(self, i: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.shape[i], d=self.spacings[i])

    def meshgrid(self):
        return np.meshgrid(*(self.axis(i) for i in range(self.dim)), indexing="ij")

    @property
    def even_shape(self) -> tuple:
        """The octant (even) layout of fields even on every axis."""
        return tuple(n // 2 + 1 for n in self.shape)

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
    """Continuum-normalized DFT coefficients on the dual grid, on one of the
    two layouts of the module docstring: float64 on the octant of an even
    field (grid.even_shape), else complex on the full one (grid.shape).  A
    real array of the octant's shape is even; an array of the grid's shape
    is taken as complex."""

    def __init__(self, grid: AbelianGrid, coefficients: np.ndarray):
        c = np.asarray(coefficients)
        even = np.isrealobj(c) and c.shape == grid.even_shape
        c = c.astype(float if even else complex, copy=False)
        if not even and c.shape != grid.shape:
            raise ValueError(f"coefficient shape {c.shape} is neither grid shape "
                             f"{grid.shape} nor, real, its octant {grid.even_shape}")
        self.grid = grid
        self.coefficients = c

    @property
    def layout(self) -> str:
        """"even" or "full"."""
        return _layout(self.coefficients)


def abelian_from_function(grid: AbelianGrid, fn) -> AbelianField:
    return AbelianField(grid, fn(*grid.meshgrid()))


def abelian_forward(field: AbelianField) -> AbelianCoefficients:
    grid, s = field.grid, field.samples
    layout = "full"
    if np.isrealobj(s) and all(
            np.array_equal(t := s[(slice(None),) * i + (slice(1, None),)], np.flip(t, i))
            for i in range(grid.dim)):
        # s_j = s_{N - j} for j = 1 .. N - 1 on every axis
        layout, s = "even", s[tuple(slice(h) for h in grid.even_shape)]
    return AbelianCoefficients(grid, _forward(s, grid, layout))


def abelian_inverse(coeffs: AbelianCoefficients) -> AbelianField:
    """The samples of coeffs on the whole grid.  They are finite when the
    coefficients are, and are not checked again.  From the full layout they
    are the bits of ifftn / cell_volume."""
    grid, layout = coeffs.grid, coeffs.layout
    out = _samples(coeffs.coefficients, grid, layout)
    if layout == "even":
        out = _unfold(out, grid)
    return _field(grid, out)


def _layout(c: np.ndarray) -> str:
    return "even" if c.dtype == float else "full"


def _multiplicities(n: int) -> np.ndarray:
    """How many of the n indices of an axis the octant index k stands for: 1
    at k = 0 and at the Nyquist index n / 2 of an even n, else 2 (k and
    n - k)."""
    k = np.arange(n // 2 + 1)
    return np.where((k == 0) | (2 * k == n), 1.0, 2.0)


@functools.lru_cache(maxsize=None)
def _cosine_matrix(n: int) -> np.ndarray:
    """The transpose of M[j, k] = mult_k cos(2 pi (jk mod n) / n) on the
    octant: the DFT of an even sequence of n points, octant to octant, and
    n times its inverse, since that DFT is real and even."""
    k = np.arange(n // 2 + 1)
    return _multiplicities(n)[:, None] * np.cos((2.0 * np.pi / n) * (np.outer(k, k) % n))


def _cosine(a: np.ndarray, grid: AbelianGrid, scale: float) -> np.ndarray:
    """scale times the DFT of the even array whose octant is a, on the
    octant: one matmul per axis, each of which moves its axis last, so the
    axes are back in order at the end."""
    for n in grid.shape:
        rest = a.shape[1:]
        a = (a.reshape(a.shape[0], -1).T @ _cosine_matrix(n)).reshape(
            rest + (n // 2 + 1,))
    a *= scale
    return a


def _forward(s: np.ndarray, grid: AbelianGrid, layout: str) -> np.ndarray:
    """The coefficients on the layout of the samples s, the octant of them
    for even.  out= (NumPy >= 2.0) keeps the FFT to one array for all axes;
    scaling it in place gives the bits of fftn(s) * cell_volume."""
    if layout == "even":
        return _cosine(s, grid, grid.cell_volume)
    out = np.fft.fftn(s, out=np.empty(grid.shape, dtype=complex))
    out *= grid.cell_volume
    return out


def _samples(c: np.ndarray, grid: AbelianGrid, layout: str) -> np.ndarray:
    """The samples of the coefficients c on the layout: the octant of the
    samples for even, else the whole grid's."""
    if layout == "even":
        return _cosine(c, grid, 1.0 / grid.volume)
    out = np.fft.ifftn(c, out=np.empty(grid.shape, dtype=complex))
    # NumPy divides complex by real as this product, bit for bit, but slower
    out *= 1.0 / grid.cell_volume
    return out


def _field(grid: AbelianGrid, samples: np.ndarray) -> AbelianField:
    """The field of float64 or complex samples of the grid's shape whose
    finiteness the caller vouches for: no pass over them."""
    field = object.__new__(AbelianField)
    field.grid, field.samples = grid, samples
    return field


def _unfold(a: np.ndarray, grid: AbelianGrid) -> np.ndarray:
    """The octant a reflected out to the whole grid on every axis: index j
    reads octant index min(j, N - j)."""
    return a[np.ix_(*(np.minimum(np.arange(n), n - np.arange(n)) for n in grid.shape))]


def _relayout(c: np.ndarray, grid: AbelianGrid, layout: str) -> np.ndarray:
    """The coefficient array c on the layout: c itself when it is there
    already, and zeros there when c is zero.  Else an octant unfolds to the
    full layout, c(xi) = c(|xi|) on every axis; a nonzero full array on the
    even layout is a ValueError, since no fold keeps its field."""
    have = _layout(c)
    if have != layout and not c.any():  # unfold the zero octant
        c, have = np.zeros(grid.even_shape), "even"
    if have == layout:
        return c
    if have == "full":
        raise ValueError("a field on the full layout does not fit the even "
                         "layout: pass it among the model's data")
    return _unfold(c, grid).astype(complex)
