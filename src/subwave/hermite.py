"""Normalized Hermite polynomials and Gauss-Hermite quadrature helpers.

The Hermite function of order m is

    psi_m(w) = c_m H_m(w) exp(-w^2 / 2),   c_m = 2^{-m/2} (m!)^{-1/2} pi^{-1/4},

an orthonormal basis of L^2(R): row m of `hermite_polynomial_table`, which
holds c_m H_m(w), times exp(-w^2/2).  The table comes from the normalized
three-term recurrence, which is stable for all orders, unlike evaluating the
monomial form of H_m whose coefficients overflow near m ~ 85.

Only the quadrature oracle (`transform.representation_matrix` and
`transform.inverse_transform`) needs a Gauss-Hermite rule, so SciPy loads on
the first rule built, never on import: the grid transforms and every CLI
subcommand run without it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermite_polynomial_table",
    "gauss_hermite_rule",
]


def hermite_polynomial_table(order: int, w) -> np.ndarray:
    """Table of c_m H_m(w) without the Gaussian factor, shape w.shape + (order,).

    psi_m(w) = table[..., m] * exp(-w^2/2).  The rows come from the
    normalized three-term recurrence

        r_0 = pi^{-1/4},  r_{m+1} = sqrt(2/(m+1)) w r_m - sqrt(m/(m+1)) r_{m-1}.

    Used by quadrature code that folds the Gaussian into the weight; entries
    grow with |w| so callers must keep |w| within the range where c_m H_m
    stays representable (|w| ~ 40 is safe for order <= 65).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    w = np.asarray(w, dtype=float)
    out = np.empty(w.shape + (order,))
    out[..., 0] = np.pi ** (-0.25)
    if order > 1:
        out[..., 1] = np.sqrt(2.0) * w * out[..., 0]
    for m in range(1, order - 1):
        out[..., m + 1] = (
            np.sqrt(2.0 / (m + 1)) * w * out[..., m]
            - np.sqrt(m / (m + 1.0)) * out[..., m - 1]
        )
    return out


def gauss_hermite_rule(count: int):
    """Nodes and weights for integration against exp(-u^2) on R.

    `scipy.special.roots_hermite`, imported on the first call: only the
    quadrature oracle builds rules.  NumPy's `hermgauss` is no substitute at
    the oracle's sizes (96 nodes and up): past 150 nodes its nodes drift by
    about 1e-14, and at 400 its weights are NaN.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    from scipy.special import roots_hermite

    return roots_hermite(count)
