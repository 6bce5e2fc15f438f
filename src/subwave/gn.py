"""Gagliardo-Nirenberg exponent algebra and numerical inequality checks.

The exponent layer is exact rational arithmetic throughout: admissibility of
a tuple (Q, a, r, p, q) and the interpolation exponent s live on equality
boundaries (degenerate denominator, endpoint q), so floating point is never
allowed to decide them.  One function, gn_exponent_graded, computes s on
every graded group; the Heisenberg theta(q) and the p = r = 2 corollary are
its special cases.  The numeric layer evaluates the inequality ratio

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
    "gn_exponent_graded",
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

    @property
    def degenerate(self) -> bool:
        return self.s is None

    def __post_init__(self):
        denom = self.a / self.Q + 1 / self.p - 1 / self.r
        if self.degenerate:
            if denom != 0:
                raise ValueError("s = None needs the zero denominator of a "
                                 "degenerate tuple")
            ceiling = self.r * self.Q / (self.Q - self.a * self.r)
            if self.p != ceiling or self.q != ceiling:
                raise ValueError("degenerate case forces p = q = rQ/(Q - ar)")
        else:
            if denom == 0:
                raise ValueError("zero denominator leaves s unconstrained: "
                                 "pass s = None")
            if self.s * denom != 1 / self.p - 1 / self.q:
                raise ValueError("s does not satisfy its defining identity")
            if not 0 <= self.s <= 1:
                raise ValueError(f"exponent s = {self.s} escaped [0, 1]")


def gn_exponent_graded(Q, a, r, p, q) -> GNExponents:
    """Exponent tuple for the interpolation inequality on a graded group.

    s solves s (a/Q + 1/p - 1/r) = 1/p - 1/q exactly.  Every admissibility
    violation raises with the constraint named; the degenerate denominator
    returns s = None.  On H^n, Q = 2n + 2, a = 1 and p = r = 2 give the
    Heisenberg exponent theta(q) = Q(q - 2)/(2q).
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
        return GNExponents(Q, a, r, p, q, None)
    return GNExponents(Q, a, r, p, q, (1 / p - 1 / q) / denom)


@dataclass
class RatioReport:
    ratio: float
    lq: float
    sobolev: float
    lp: float
    s: float
    descriptor: str = ""

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.ratio))


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
    return RatioReport(float(ratio), lq, sob, lp, s, descriptor)


def verify_inequality_heisenberg(u: SpectralField, exps: GNExponents,
                                 synth: SpatialGrid,
                                 descriptor: str = "") -> RatioReport:
    """Measure ||u||_{L^q} / (||grad_H u||^theta ||u||_{L^2}^{1-theta}) on H^n.

    exps is the tuple of H^n itself, Q = 2n + 2, a = 1 and p = r = 2, with
    theta = exps.s; n is the field's.

    The horizontal-gradient factor is computed spectrally (the order-1
    homogeneous norm of the operator calculus, which equals ||grad_H u||_{L^2}
    by integration by parts); the L^q and L^2 factors are quadratures of the
    synthesized field on the same box, so q = 2 gives ratio 1 identically.
    """
    Q = homogeneous_dimension(u.grid.n)
    if (exps.Q, exps.a, exps.p, exps.r) != (Q, 1, 2, 2):
        raise ValueError(f"a field on H^{u.grid.n} needs Q = {Q}, a = 1 and "
                         f"p = r = 2, got {exps}")
    theta = float(exps.s)
    grad = _Norms(u, SubLaplacianSymbol(1)).frac(u.coefficients, 1.0)
    f = synthesize_on_grid(u, synth)
    lq = f.lq_norm(float(exps.q))
    l2 = f.lq_norm(2.0)
    den = grad ** theta * l2 ** (1.0 - theta)
    ratio = lq / den if den > 0 else np.inf
    return RatioReport(float(ratio), lq, grad, l2, theta, descriptor)
