"""Hermite polynomial recurrence, orthonormality, and quadrature checks."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy.special import roots_hermite

from subwave.hermite import gauss_hermite_rule, hermite_polynomial_table


def hermite_functions(order, w):
    """psi_0..psi_{order-1} at w: the polynomial table times exp(-w^2/2)."""
    return hermite_polynomial_table(order, w) * np.exp(-0.5 * w * w)[..., None]


def test_ground_state():
    w = np.linspace(-3, 3, 7)
    psi0 = hermite_functions(1, w)[:, 0]
    assert np.allclose(psi0, np.pi ** -0.25 * np.exp(-0.5 * w * w), atol=1e-14)


def test_polynomial_table_matches_numpy_hermval():
    # c_m H_m(w) with c_m = 2^{-m/2} (m!)^{-1/2} pi^{-1/4}, H_m by NumPy's
    # physicists' series, up to order 30 on |w| <= 6 (measured 2.1e-15 of
    # the largest entry)
    w = np.linspace(-6, 6, 97)
    table = hermite_polynomial_table(31, w)
    assert table.shape == (97, 31)
    for m in range(31):
        c_m = np.pi ** -0.25 / np.sqrt(2.0 ** m * math.factorial(m))
        ref = c_m * hermval(w, np.eye(31)[m])
        assert np.max(np.abs(table[:, m] - ref)) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(ValueError):
        hermite_polynomial_table(0, w)


def gram_matrix(order):
    """int psi_k psi_l dw by a Gauss-Hermite rule of max(2 order + 1, 32)
    nodes, exact for these products; the rule weight carries exp(-u^2)."""
    u, wq = gauss_hermite_rule(max(2 * order + 1, 32))
    polys = hermite_polynomial_table(order, u)
    return np.einsum("i,ik,il->kl", wq, polys, polys)


def test_orthonormality_low_order():
    gram = gram_matrix(16)
    assert np.allclose(gram, np.eye(16), atol=1e-12)


def test_orthonormality_high_order():
    # order 48 stresses the recurrence; the rule is sized for exactness
    gram = gram_matrix(48)
    assert np.allclose(gram, np.eye(48), atol=1e-10)


def test_recurrence_stays_finite_and_decays_past_turning_point():
    # the table stays finite over the documented |w| <= 40 at order 65
    # (largest entry about 1.6e67), and psi_64 is small past its turning point
    assert np.all(np.isfinite(hermite_polynomial_table(65, np.linspace(-40, 40, 801))))
    w = np.linspace(-14, 14, 561)
    psi = np.abs(hermite_functions(65, w)[:, 64])
    # classical turning point sqrt(2*64 + 1) ~ 11.36; far outside it the
    # function is exponentially small
    outside = psi[np.abs(w) > 13.5]
    assert outside.max() < 1e-4 * psi.max()


def test_oscillator_ode():
    # psi_m'' = (w^2 - (2m+1)) psi_m, checked with central differences
    h = 1e-3
    for m in (0, 2, 7):
        for w0 in (0.0, 0.4, 1.3):
            pts = np.array([w0 - h, w0, w0 + h])
            vals = hermite_functions(m + 1, pts)[:, m]
            second = (vals[0] - 2 * vals[1] + vals[2]) / (h * h)
            expected = (w0 * w0 - (2 * m + 1)) * vals[1]
            assert second == pytest.approx(expected, abs=1e-5)


def test_gauss_hermite_rule_moments():
    u, wq = gauss_hermite_rule(24)
    assert np.sum(wq) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
    assert np.sum(wq * u * u) == pytest.approx(0.5 * np.sqrt(np.pi), rel=1e-12)
    assert np.sum(wq * u) == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)


@pytest.mark.parametrize("count", [32, 151, 400])
def test_gauss_hermite_rule_is_scipys_bitwise(count):
    # 32 runs SciPy's Golub-Welsch branch and 151, 400 its asymptotic one;
    # numpy's hermgauss differs by ~1e-14 past 150 nodes and has NaN
    # weights at 400
    for ours, ref in zip(gauss_hermite_rule(count), roots_hermite(count)):
        assert ours.tobytes() == ref.tobytes()
