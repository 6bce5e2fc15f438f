"""Heisenberg group algebra and oscillator mode bookkeeping.

The group H^n is R^{2n+1} with coordinates (x, y, t), x and y in R^n,
equipped with the polarized product

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + (x.y' - x'.y)/2)

and anisotropic dilations (x, y, t) -> (r x, r y, r^2 t).  The homogeneous
dimension is Q = 2n + 2.

Hermite mode indices k in N^n label the eigenfunctions of the harmonic
oscillator that diagonalizes the sub-Laplacian symbol; the eigenvalue of the
unit oscillator at index k is mu_k = sum_j (2 k_j + 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupElement",
    "group_multiply",
    "group_inverse",
    "group_identity",
    "dilate",
    "homogeneous_dimension",
    "oscillator_eigenvalue",
    "enumerate_multi_indices",
]


@dataclass(frozen=True)
class GroupElement:
    """Point of H^n in polarized coordinates.

    Parameters
    ----------
    x, y : arrays of shape (n,)
        Horizontal coordinates.
    t : float
        Central coordinate.
    """

    x: np.ndarray
    y: np.ndarray
    t: float

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("x and y must be one-dimensional")
        if x.shape != y.shape:
            raise ValueError(f"x and y dimensions differ: {x.shape} vs {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.isfinite(self.t)):
            raise ValueError("group element coordinates must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.x.shape[0]


def group_multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product a * b in H^n."""
    if a.n != b.n:
        raise ValueError(f"mixed dimensions: {a.n} vs {b.n}")
    twist = 0.5 * (float(np.dot(a.x, b.y)) - float(np.dot(b.x, a.y)))
    return GroupElement(a.x + b.x, a.y + b.y, a.t + b.t + twist)


def group_inverse(a: GroupElement) -> GroupElement:
    """Group inverse; (x, y, t)^{-1} = (-x, -y, -t)."""
    return GroupElement(-a.x, -a.y, -a.t)


def group_identity(n: int) -> GroupElement:
    return GroupElement(np.zeros(n), np.zeros(n), 0.0)


def dilate(a: GroupElement, r: float) -> GroupElement:
    """Anisotropic dilation (x, y, t) -> (r x, r y, r^2 t), r > 0."""
    if r <= 0:
        raise ValueError(f"dilation parameter must be positive, got {r}")
    return GroupElement(r * a.x, r * a.y, r * r * a.t)


def homogeneous_dimension(n: int) -> int:
    """Homogeneous dimension Q = 2n + 2 of H^n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 2 * n + 2


def oscillator_eigenvalue(k) -> int:
    """Unit harmonic oscillator eigenvalue mu_k = sum_j (2 k_j + 1).

    Minimal value is n, attained at k = 0.
    """
    k = tuple(int(kj) for kj in k)
    if any(kj < 0 for kj in k):
        raise ValueError(f"multi-index entries must be non-negative, got {k}")
    return sum(2 * kj + 1 for kj in k)


def enumerate_multi_indices(n: int, mu_max: float) -> list[tuple[int, ...]]:
    """All k in N^n with mu_k <= mu_max, graded lexicographic order.

    Indices are sorted by |k| = sum k_j first and lexicographically within a
    grade, so truncations by mu form prefixes of the list.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    deg_max = int(np.floor((mu_max - n) / 2.0))
    if deg_max < 0:
        raise ValueError(
            f"empty truncation: mu_max={mu_max} is below the bottom eigenvalue {n}"
        )
    out = []
    for deg in range(deg_max + 1):
        grade = [k for k in itertools.product(range(deg + 1), repeat=n) if sum(k) == deg]
        out.extend(sorted(grade))
    return out
