"""Interpolation-exponent algebra and numerical inequality ratio checks.

The algebra works in exact rational arithmetic, so those tests assert
equality, not closeness.  The numerical ratio checks exercise scale and
dilation invariance, which the exponent identity makes exact in the
continuum; discretization leaves a small drift that the assertions bound.
"""

from fractions import Fraction

import numpy as np
import pytest

from subwave.abelian import AbelianField, AbelianGrid, abelian_from_function
from subwave.gn import (
    GNExponents,
    RatioReport,
    gn_exponent_graded,
    verify_inequality_abelian,
    verify_inequality_heisenberg,
)
from subwave.group import homogeneous_dimension
from subwave.transform import from_function

from conftest import packet


# --------------------------------------------------------------------------
# exact exponent algebra


def heisenberg(q, n=1):
    """The exponents of H^n: Q = 2n + 2, a = 1, p = r = 2."""
    return gn_exponent_graded(homogeneous_dimension(n), 1, 2, 2, q)


def test_heisenberg_theta_values():
    assert heisenberg(2).s == Fraction(0)
    assert heisenberg(4).s == Fraction(1)
    assert heisenberg(3).s == Fraction(2, 3)
    assert heisenberg(Fraction(8, 3)).s == Fraction(1, 2)
    assert heisenberg(3, n=2).s == Fraction(1, 1)


def test_heisenberg_theta_validation():
    # q runs over [2, 2 + 2/n], the Sobolev ceiling 2Q/(Q - 2) of H^n
    with pytest.raises(ValueError, match="Sobolev ceiling"):
        heisenberg(Fraction(9, 2))
    with pytest.raises(ValueError, match="1 <= p <= q"):
        heisenberg(1)
    with pytest.raises(ValueError, match="positive integer"):
        heisenberg(2, n=0)
    with pytest.raises(TypeError, match="exact"):
        heisenberg(2.5)


def test_graded_exponent_examples():
    exps = gn_exponent_graded(4, 1, 2, 2, 3)
    assert exps.s == Fraction(2, 3)
    assert not exps.degenerate
    # Sobolev endpoint q = rQ/(Q - ar) forces s = 1
    assert gn_exponent_graded(4, 1, 2, 2, 4).s == Fraction(1)
    # p = q forces s = 0
    assert gn_exponent_graded(4, 1, 2, 3, 3).s == Fraction(0)
    assert gn_exponent_graded(3, 1, 2, 2, 3).s == Fraction(1, 2)


def test_graded_degenerate_case():
    # p = q = rQ/(Q - ar) makes the defining identity vacuous
    exps = gn_exponent_graded(6, 1, 3, 6, 6)
    assert exps.degenerate
    assert exps.s is None


def test_graded_validation_messages():
    with pytest.raises(ValueError, match="1 < r < Q/a"):
        gn_exponent_graded(4, 2, 2, 2, 2)
    with pytest.raises(ValueError, match="Sobolev ceiling"):
        gn_exponent_graded(4, 1, 2, 2, 5)
    with pytest.raises(ValueError, match="1 <= p <= q"):
        gn_exponent_graded(4, 1, 2, 4, 3)
    with pytest.raises(TypeError, match="exact"):
        gn_exponent_graded(4.0, 1, 2, 2, 3)


def test_corollary_matches_graded_l2_case():
    # the corollary p = r = 2: s = (Q/a)(1/2 - 1/q)
    for q_num in range(21, 40):
        q = Fraction(q_num, 10)  # 2.1 .. 3.9 < Sobolev ceiling 4
        assert gn_exponent_graded(4, 1, 2, 2, q).s == 4 * (Fraction(1, 2) - 1 / q)
    for q_num in range(21, 30):
        q = Fraction(q_num, 10)  # Q = 6, a = 2: ceiling 6
        assert gn_exponent_graded(6, 2, 2, 2, q).s == 3 * (Fraction(1, 2) - 1 / q)


def test_heisenberg_theta_is_graded_s_on_h1():
    # theta(q) = Q(q - 2)/(2q) with Q = 4
    for q_num in (2, 5, 3, 7):
        q = Fraction(2 * q_num + 1, q_num)  # values in (2, 3]
        assert heisenberg(q).s == 4 * (q - 2) / (2 * q)


def random_admissible_tuple(rng):
    Q = Fraction(int(rng.integers(5, 40)), int(rng.integers(1, 4)))
    if Q < 3:
        return None
    a = Fraction(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    if Q / a <= 1:
        return None
    r_span = Q / a - 1
    r = 1 + r_span * Fraction(int(rng.integers(1, 16)), 16)
    if not 1 < r < Q / a:
        return None
    ceiling = r * Q / (Q - a * r)
    p = 1 + (ceiling - 1) * Fraction(int(rng.integers(0, 17)), 16)
    q = p + (ceiling - p) * Fraction(int(rng.integers(0, 17)), 16)
    if not (1 <= p <= q <= ceiling):
        return None
    return Q, a, r, p, q


def small_q_tuple(rng):
    """The draws the gn-check sweep once made: Q = i/j with i in [2, 12) and
    j in [1, 4), a from fifths, r from twentieths."""
    Q = Fraction(int(rng.integers(2, 12)), int(rng.integers(1, 4)))
    a = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    if Q / a <= 1:
        return None
    r = Fraction(int(rng.integers(2, 40)), int(rng.integers(1, 20)))
    if not 1 < r < Q / a:
        return None
    ceiling = r * Q / (Q - a * r)
    p = 1 + (ceiling - 1) * Fraction(int(rng.integers(0, 17)), 16)
    q = p + (ceiling - p) * Fraction(int(rng.integers(0, 17)), 16)
    return Q, a, r, p, q


def test_random_tuples_satisfy_identity():
    for sample, seed in ((random_admissible_tuple, 99), (small_q_tuple, 11)):
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 500:
            tup = sample(rng)
            if tup is None:
                continue
            Q, a, r, p, q = tup
            exps = gn_exponent_graded(Q, a, r, p, q)
            if exps.degenerate:
                assert p == q == r * Q / (Q - a * r)
            else:
                s = exps.s
                assert 0 <= s <= 1
                assert s * (a / Q + 1 / p - 1 / r) == 1 / p - 1 / q
            checked += 1


def test_exponents_post_init_rejects_inconsistent_values():
    def exponents(p, q, s, Q=4, a=1, r=2):
        return GNExponents(*map(Fraction, (Q, a, r, p, q)), s)

    with pytest.raises(ValueError, match="defining identity"):
        exponents(2, 3, Fraction(1, 3))
    with pytest.raises(ValueError, match="zero denominator"):
        exponents(6, 6, Fraction(1, 2), Q=6, r=3)
    with pytest.raises(ValueError, match="s = None"):
        exponents(2, 3, None)
    assert exponents(6, 6, None, Q=6, r=3).degenerate
    assert not exponents(2, 3, Fraction(2, 3)).degenerate


# --------------------------------------------------------------------------
# numerical ratio checks, Euclidean backend


def gaussian_field(width, grid=None):
    grid = grid or AbelianGrid((6.0,) * 3, (32, 32, 32))
    return abelian_from_function(
        grid, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / (2 * width ** 2)))


@pytest.fixture(scope="module")
def r3_exponents():
    return gn_exponent_graded(3, 1, 2, 2, 3)


def test_abelian_ratio_gaussian(r3_exponents):
    report = verify_inequality_abelian(gaussian_field(0.8), r3_exponents, "g0.8")
    assert isinstance(report, RatioReport)
    assert report.finite
    assert 0.3 < report.ratio < 1.0
    assert report.lq > 0 and report.sobolev > 0 and report.lp > 0
    assert report.descriptor == "g0.8"
    zero = AbelianField(AbelianGrid((6.0,) * 3, (8, 8, 8)), np.zeros((8, 8, 8)))
    assert not verify_inequality_abelian(zero, r3_exponents).finite


def test_abelian_ratio_scale_invariant(r3_exponents):
    base = verify_inequality_abelian(gaussian_field(0.8), r3_exponents)
    grid = AbelianGrid((6.0,) * 3, (32, 32, 32))
    scaled_field = AbelianField(grid, 37.0 * gaussian_field(0.8, grid).samples)
    scaled = verify_inequality_abelian(scaled_field, r3_exponents)
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)


def test_abelian_ratio_dilation_invariant(r3_exponents):
    base = verify_inequality_abelian(gaussian_field(0.9), r3_exponents)
    for r in (1.5, 2.0):
        dil = verify_inequality_abelian(gaussian_field(0.9 / r), r3_exponents)
        assert dil.ratio == pytest.approx(base.ratio, rel=1e-2)


def test_abelian_rejects_mismatched_inputs(r3_exponents):
    with pytest.raises(ValueError, match="degenerate"):
        verify_inequality_abelian(gaussian_field(0.8),
                                  gn_exponent_graded(6, 1, 3, 6, 6))
    with pytest.raises(ValueError, match="r = 2"):
        verify_inequality_abelian(gaussian_field(0.8),
                                  gn_exponent_graded(3, 1, Fraction(3, 2), 2, 2))
    exps4 = gn_exponent_graded(4, 1, 2, 2, 3)
    with pytest.raises(ValueError, match="tuple has Q"):
        verify_inequality_abelian(gaussian_field(0.8), exps4)


# --------------------------------------------------------------------------
# numerical ratio checks, Heisenberg backend


def test_heisenberg_ratio_q2_is_exactly_interpolation_free(calibrated_grid,
                                                           synth_box):
    f = from_function(synth_box, packet())
    from subwave.transform import forward_transform

    u = forward_transform(f, calibrated_grid, boundary_tol=None)
    report = verify_inequality_heisenberg(u, heisenberg(2), synth_box)
    # theta(2) = 0: numerator and denominator are the same L^2 quantity
    assert report.ratio == pytest.approx(1.0, rel=1e-12)
    # only the tuple of H^1 itself is what the numerics compute
    for other in (heisenberg(3, n=2), gn_exponent_graded(4, 1, 2, 3, 3),
                  gn_exponent_graded(4, Fraction(1, 2), 2, 2, Fraction(5, 2))):
        with pytest.raises(ValueError, match="a field on H\\^1 needs"):
            verify_inequality_heisenberg(u, other, synth_box)


def test_heisenberg_ratio_finite_for_admissible_q(calibrated_grid, synth_box):
    from subwave.transform import forward_transform

    f = from_function(synth_box, packet())
    u = forward_transform(f, calibrated_grid, boundary_tol=None)
    for q in (Fraction(8, 3), 3, 4):
        report = verify_inequality_heisenberg(u, heisenberg(q), synth_box)
        assert report.finite and report.ratio > 0
        assert report.s == float(heisenberg(q).s)


def test_heisenberg_ratio_is_dilation_invariant(calibrated_grid, synth_box):
    # f_r(x, y, tau) = f(r x, r y, r^2 tau): the exponent identity makes the
    # ratio exact under the group dilations; a gradient of order k would
    # give log ratio a slope theta (1 - k) in log r, -theta for k = 2
    from subwave.transform import forward_transform

    fn, rs = packet(), (0.9, 1.0, 1.1)
    fields = [forward_transform(
        from_function(synth_box, lambda x, y, t, r=r: fn(r * x, r * y, r * r * t)),
        calibrated_grid, boundary_tol=None) for r in rs]
    for q in (Fraction(8, 3), 3, 4):
        logs = [np.log(verify_inequality_heisenberg(u, heisenberg(q), synth_box).ratio)
                for u in fields]
        slope = np.polyfit(np.log(rs), logs, 1)[0]
        assert abs(slope) <= 0.25, (q, slope)
