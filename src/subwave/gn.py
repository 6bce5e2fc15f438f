"""Gagliardo-Nirenberg exponent algebra and numerical inequality checks.

The exponent layer is exact rational arithmetic throughout: admissibility of
a tuple (Q, a, r, p, q) and the interpolation exponent s live on equality
boundaries (degenerate denominator, endpoint q), so floating point is never
allowed to decide them.  The numeric layer evaluates the inequality ratio

    ||u||_{L^q} / (||u||_{H^a-dot}^s ||u||_{L^p}^{1-s})

on either backend: periodic boxes in R^d with a Fourier-multiplier Sobolev
factor (r = 2 only; other r are algebra-only), or Heisenberg spectral fields
with the horizontal gradient computed through the operator calculus and the
L^q factor by synthesis to a spatial box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import AbelianField, abelian_forward
from .group import homogeneous_dimension
from .propagator import _Norms
from .spectral import AbelianSymbol, SpectralField, SubLaplacianSymbol
from .transform import SpatialGrid, synthesize_on_grid

__all__ = [
    "GNExponents",
    "gn_exponent_heisenberg",
    "gn_exponent_graded",
    "gn_exponent_corollary",
    "RatioReport",
    "verify_inequality_abelian",
    "verify_inequality_heisenberg",
]


def _rat(x, name: str) -> Fraction:
    # floats are rejected: Fraction(0.1) is the exact binary value, not 1/10,
    # and equality tests on the admissibility boundary would silently break
    if isinstance(x, float):
        raise TypeError(f"{name} must be an exact rational (int, Fraction, or "
                        f"'num/den' string), not float {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class GNExponents:
    """Admissible exponent tuple with its interpolation exponent.

    s is None exactly when the tuple is degenerate (a/Q + 1/p - 1/r = 0), in
    which case every s in [0, 1] is admissible and p = q = rQ/(Q - ar) is
    forced.
    """

    Q: Fraction
    a: Fraction
    r: Fraction
    p: Fraction
    q: Fraction
    s: Fraction | None
    degenerate: bool

    def __post_init__(self):
        denom = self.a / self.Q + 1 / self.p - 1 / self.r
        if self.degenerate:
            if denom != 0 or self.s is not None:
                raise ValueError("degenerate tuples have zero denominator and "
                                 "unconstrained s")
            ceiling = self.r * self.Q / (self.Q - self.a * self.r)
            if self.p != ceiling or self.q != ceiling:
                raise ValueError("degenerate case forces p = q = rQ/(Q - ar)")
        else:
            if denom == 0:
                raise ValueError("zero denominator requires the degenerate flag")
            if self.s * denom != 1 / self.p - 1 / self.q:
                raise ValueError("s does not satisfy its defining identity")
            if not 0 <= self.s <= 1:
                raise ValueError(f"exponent s = {self.s} escaped [0, 1]")


def gn_exponent_heisenberg(q, n: int) -> Fraction:
    """Interpolation exponent theta(q) = Q(q-2)/(2q) on H^n, Q = 2n + 2."""
    q = _rat(q, "q")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"need integer n >= 1, got {n!r}")
    Q = homogeneous_dimension(n)
    hi = 2 + Fraction(2, n)
    if not 2 <= q <= hi:
        raise ValueError(f"need 2 <= q <= 2 + 2/n = {hi}, got q = {q}")
    return Q * (q - 2) / (2 * q)


def gn_exponent_graded(Q, a, r, p, q) -> GNExponents:
    """Exponent tuple for the interpolation inequality on a graded group.

    s solves s (a/Q + 1/p - 1/r) = 1/p - 1/q exactly.  Every admissibility
    violation raises with the constraint named; the degenerate denominator
    returns s = None with the flag set.
    """
    Q, a, r, p, q = (_rat(v, k) for v, k in
                     zip((Q, a, r, p, q), ("Q", "a", "r", "p", "q")))
    if Q <= 0:
        raise ValueError(f"need Q > 0, got Q = {Q}")
    if a <= 0:
        raise ValueError(f"need a > 0, got a = {a}")
    if not 1 < r < Q / a:
        raise ValueError(f"need 1 < r < Q/a = {Q / a}, got r = {r}")
    ceiling = r * Q / (Q - a * r)
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got p = {p}, q = {q}")
    if q > ceiling:
        raise ValueError(f"q above the Sobolev ceiling rQ/(Q - ar) = {ceiling}, "
                         f"got q = {q}")
    denom = a / Q + 1 / p - 1 / r
    if denom == 0:
        return GNExponents(Q, a, r, p, q, None, True)
    s = (1 / p - 1 / q) / denom
    return GNExponents(Q, a, r, p, q, s, False)


def gn_exponent_corollary(q, Q, a) -> Fraction:
    """Special case p = r = 2: s = (Q/a)(1/2 - 1/q)."""
    q, Q, a = _rat(q, "q"), _rat(Q, "Q"), _rat(a, "a")
    if Q <= 2 * a:
        raise ValueError(f"need Q > 2a, got Q = {Q}, a = {a}")
    hi = 2 * Q / (Q - 2 * a)
    if not 2 <= q <= hi:
        raise ValueError(f"need 2 <= q <= 2Q/(Q - 2a) = {hi}, got q = {q}")
    return (Q / a) * (Fraction(1, 2) - 1 / q)


@dataclass
class RatioReport:
    ratio: float
    lq: float
    sobolev: float
    lp: float
    s: float
    finite: bool
    descriptor: str = ""


def verify_inequality_abelian(u: AbelianField, exps: GNExponents,
                              descriptor: str = "") -> RatioReport:
    """Measure the inequality ratio for samples on a periodic box in R^d.

    The homogeneous Sobolev factor is the Fourier multiplier |xi|^a, which is
    the r = 2 calculus; tuples with r != 2 are algebra-only and rejected here.
    """
    if exps.degenerate:
        raise ValueError("degenerate tuples leave s unconstrained; nothing to measure")
    if exps.r != 2:
        raise ValueError(f"r = {exps.r} is algebra-only; numerics support r = 2")
    dim = len(u.grid.shape)
    if Fraction(dim) != exps.Q:
        raise ValueError(f"samples live in R^{dim} but the tuple has Q = {exps.Q}")
    s = float(exps.s)
    laplace = AbelianSymbol(np.ones(dim), order=2, radial=True)
    coeffs = abelian_forward(u)
    lq = u.lq_norm(float(exps.q))
    lp = u.lq_norm(float(exps.p))
    norms = _Norms(coeffs, laplace)
    sob = norms.frac(norms.unwrap(coeffs), float(exps.a))
    den = sob ** s * lp ** (1.0 - s)
    ratio = lq / den if den > 0 else np.inf
    return RatioReport(float(ratio), lq, sob, lp, s,
                       bool(np.isfinite(ratio)), descriptor)


def verify_inequality_heisenberg(u: SpectralField, q, n: int,
                                 synth: SpatialGrid,
                                 descriptor: str = "") -> RatioReport:
    """Measure ||u||_{L^q} / (||grad_H u||^theta ||u||_{L^2}^{1-theta}) on H^n.

    The horizontal-gradient factor is computed spectrally (the order-1
    homogeneous norm of the operator calculus, which equals ||grad_H u||_{L^2}
    by integration by parts); the L^q and L^2 factors are quadratures of the
    synthesized field on the same box, so q = 2 gives ratio 1 identically.
    """
    if n != u.grid.n:
        raise ValueError(f"field lives on H^{u.grid.n}, got n = {n}")
    theta = float(gn_exponent_heisenberg(q, n))
    grad = _Norms(u, SubLaplacianSymbol(1)).frac(u.coefficients, 1.0)
    f = synthesize_on_grid(u, synth)
    lq = f.lq_norm(float(Fraction(q)))
    l2 = f.lq_norm(2.0)
    den = grad ** theta * l2 ** (1.0 - theta)
    ratio = lq / den if den > 0 else np.inf
    return RatioReport(float(ratio), lq, grad, l2, theta,
                       bool(np.isfinite(ratio)), descriptor)
