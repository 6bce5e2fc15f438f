"""Spectral grid, coefficient fields, operator symbols, and the CSV format.

A mode grid discretizes the frequency side of the group Fourier transform on
H^n: a finite set of nonzero lambda nodes (symmetric about 0, log-spaced in
magnitude) with trapezoid quadrature weights carrying the Plancherel measure
|lambda|^n d lambda, and a truncated set of Hermite multi-indices.  Spectral
fields hold one complex matrix block per node, indexed (node, k, l).  Both
operator symbols answer `values(grid)` with their values on the coefficient
layout of their backend: the sub-Laplacian's as multipliers along the row
index k of each block, a symbol on R^d on the FFT dual grid.

The overall Plancherel constant enters every quadrature weight.  It is
analytic unless calibrated: (2 pi)^-(n+1), the Plancherel measure
|lambda|^n d lambda of H^n (Fischer & Ruzhansky, Quantization on Nilpotent
Lie Groups, 2016), until `subwave.transform.calibrate_plancherel` measures
it on a reference and stores it on the grid.  The norms weight the blocks
with these quadrature weights; they are computed by the backend model of
`subwave.propagator`, the one home of the package's norms.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .group import enumerate_multi_indices, oscillator_eigenvalue

__all__ = [
    "ModeGrid",
    "build_grid",
    "SpectralField",
    "SubLaplacianSymbol",
    "AbelianSymbol",
]


@dataclass(eq=False)
class ModeGrid:
    """Frequency-side discretization: lambda nodes, weights, Hermite block.

    Attributes
    ----------
    n : int
        Heisenberg index; the spatial group is R^{2n+1}.
    lambda_nodes : array
        Nonzero nodes, ascending, symmetric about 0.
    base_weights : array
        Trapezoid weights including the |lambda|^n density but not the
        Plancherel constant.
    mu_max : float
        Hermite truncation; indices k with mu_k <= mu_max are retained.
    plancherel_constant : float
        Multiplies base_weights; the analytic (2 pi)^-(n+1) of the Plancherel
        measure |lambda|^n d lambda of H^n unless given or calibrated.
    multi_indices, stamp
        Computed: the retained Hermite indices, and a digest of the data
        above except the constant.  Grids are equal when their stamps and
        constants are; the stamp alone keys the transform-side caches,
        whose tables do not depend on the constant.
    """

    n: int
    lambda_nodes: np.ndarray
    base_weights: np.ndarray
    mu_max: float
    plancherel_constant: float | None = None
    multi_indices: tuple = field(init=False)
    stamp: str = field(init=False)

    def __post_init__(self):
        self.lambda_nodes = np.asarray(self.lambda_nodes, dtype=float)
        self.base_weights = np.asarray(self.base_weights, dtype=float)
        if self.lambda_nodes.ndim != 1 or self.lambda_nodes.size < 2:
            raise ValueError("need at least two lambda nodes")
        if np.any(self.lambda_nodes == 0.0):
            raise ValueError("lambda = 0 carries no Plancherel mass and is not a valid node")
        if np.any(np.diff(self.lambda_nodes) <= 0):
            raise ValueError("lambda nodes must be strictly increasing")
        if self.base_weights.shape != self.lambda_nodes.shape:
            raise ValueError("weights and nodes must have matching shapes")
        if np.any(self.base_weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if self.plancherel_constant is None:
            self.plancherel_constant = (2 * np.pi) ** -(self.n + 1)
        self.multi_indices = tuple(enumerate_multi_indices(self.n, self.mu_max))
        digest = hashlib.sha256()
        digest.update(np.int64(self.n).tobytes())
        digest.update(np.float64(self.mu_max).tobytes())
        digest.update(self.lambda_nodes.tobytes())
        digest.update(self.base_weights.tobytes())
        self.stamp = "grid-" + digest.hexdigest()[:12]
        self.mu_values = np.array([oscillator_eigenvalue(k) for k in self.multi_indices], dtype=float)

    def __eq__(self, other):
        if not isinstance(other, ModeGrid):
            return NotImplemented
        return (self.stamp == other.stamp
                and self.plancherel_constant == other.plancherel_constant)

    @property
    def node_count(self) -> int:
        return self.lambda_nodes.size

    @property
    def block_size(self) -> int:
        return len(self.multi_indices)

    @property
    def weights(self) -> np.ndarray:
        return self.plancherel_constant * self.base_weights

    def field_shape(self) -> tuple:
        return (self.node_count, self.block_size, self.block_size)


def build_grid(lambda_min: float, lambda_max: float, node_count: int,
               mu_max: float, n: int = 1) -> ModeGrid:
    """Log-spaced symmetric lambda grid with trapezoid Plancherel weights.

    `node_count` is the total number of nodes; half are placed at
    -lambda for each positive node lambda.  Weight at an interior node is
    |lambda|^n times half the span of its two neighbors, with the usual
    one-sided factors at the ends of each branch.
    """
    if not (0 < lambda_min < lambda_max):
        raise ValueError(f"need 0 < lambda_min < lambda_max, got ({lambda_min}, {lambda_max})")
    if node_count < 2 or node_count % 2:
        raise ValueError(f"node_count must be even and >= 2, got {node_count}")
    half = node_count // 2
    if half == 1:
        mags = np.array([lambda_min])
    else:
        mags = np.geomspace(lambda_min, lambda_max, half)
    spans = np.empty(half)
    if half == 1:
        spans[0] = lambda_max - lambda_min
    else:
        spans[0] = 0.5 * (mags[1] - mags[0])
        spans[-1] = 0.5 * (mags[-1] - mags[-2])
        if half > 2:
            spans[1:-1] = 0.5 * (mags[2:] - mags[:-2])
    w_half = (mags ** n) * spans
    nodes = np.concatenate([-mags[::-1], mags])
    weights = np.concatenate([w_half[::-1], w_half])
    return ModeGrid(n=n, lambda_nodes=nodes, base_weights=weights, mu_max=mu_max)


@dataclass
class SpectralField:
    """Complex coefficient tensor on a mode grid, indexed (node, k, l).

    Treated as an immutable snapshot.
    """

    grid: ModeGrid
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != self.grid.field_shape():
            raise ValueError(
                f"coefficient shape {self.coefficients.shape} does not match grid "
                f"{self.grid.field_shape()}"
            )
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("spectral coefficients must be finite")

    @classmethod
    def zeros(cls, grid: ModeGrid) -> "SpectralField":
        return cls(grid, np.zeros(grid.field_shape(), dtype=complex))


class SubLaplacianSymbol:
    """Symbol of (-L)^power on H^n: (|lambda| mu_k)^power.

    Homogeneous of degree nu = 2 * power under the group dilations.
    """

    def __init__(self, power: int = 1):
        if power < 1 or int(power) != power:
            raise ValueError(f"power must be a positive integer, got {power}")
        self.power = int(power)

    @property
    def nu(self) -> int:
        return 2 * self.power

    def values(self, grid: ModeGrid) -> np.ndarray:
        """The symbol on the coefficient layout: a multiplier along the row
        index k, shape (node_count, block_size, 1)."""
        base = np.abs(grid.lambda_nodes)[:, None, None] * grid.mu_values[None, :, None]
        return base ** self.power


class AbelianSymbol:
    """Positive homogeneous symbol on R^d.

    radial=False gives sum_j a_j xi_j^order (order even); radial=True gives
    (sum_j a_j xi_j^2)^{order/2}, which for unit coefficients is the symbol
    of (-Laplacian)^{order/2}.  Both are homogeneous of degree nu = order.
    """

    def __init__(self, coefficients, order: int, radial: bool = False):
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.ndim != 1 or self.coefficients.size < 1:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if np.any(self.coefficients <= 0):
            raise ValueError("coefficients must be positive for a Rockland-type symbol")
        if order < 2 or order % 2:
            raise ValueError(f"order must be a positive even integer, got {order}")
        self.order = int(order)
        self.radial = bool(radial)

    @property
    def dim(self) -> int:
        return self.coefficients.size

    @property
    def nu(self) -> int:
        return self.order

    def value_at(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate at frequency vectors; xi has shape (..., dim)."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1] != self.dim:
            raise ValueError(f"frequency dimension {xi.shape[-1]} != {self.dim}")
        if self.radial:
            return (np.tensordot(xi * xi, self.coefficients, axes=([-1], [0]))) ** (self.order // 2)
        return np.tensordot(xi ** self.order, self.coefficients, axes=([-1], [0]))

    def values(self, grid) -> np.ndarray:
        """R(xi) on the FFT dual grid of an AbelianGrid; shape == grid.shape."""
        if self.dim != grid.dim:
            raise ValueError(f"symbol dimension {self.dim} != grid dimension {grid.dim}")
        return self.value_at(grid.freq_stack())


def _csv_bytes(header, rows) -> bytes:
    """The package's one CSV format: a header row, floats as their shortest
    round-trip repr, LF line ends, UTF-8."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)
