"""Hermite function recurrence, orthonormality, and quadrature checks."""

import numpy as np
import pytest
from scipy.special import roots_hermite

from subwave.hermite import (
    gauss_hermite_rule,
    hermite_function,
    hermite_function_table,
    hermite_polynomial_table,
)


def test_ground_state():
    w = np.linspace(-3, 3, 7)
    psi0 = hermite_function(0, w)
    assert np.allclose(psi0, np.pi ** -0.25 * np.exp(-0.5 * w * w), atol=1e-14)


def test_table_matches_single_and_polynomial_form():
    w = np.linspace(-5, 5, 41)
    table = hermite_function_table(12, w)
    assert table.shape == (41, 12)
    for m in (0, 3, 11):
        assert np.allclose(table[:, m], hermite_function(m, w), atol=1e-14)
    polys = hermite_polynomial_table(12, w)
    assert np.allclose(polys * np.exp(-0.5 * w * w)[:, None], table, atol=1e-13)
    with pytest.raises(ValueError):
        hermite_function(-1, 0.0)


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
    w = np.linspace(-14, 14, 561)
    table = hermite_function_table(65, w)
    assert np.all(np.isfinite(table))
    psi = np.abs(table[:, 64])
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
            vals = hermite_function(m, pts)
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
