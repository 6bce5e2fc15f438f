"""Shared fixtures: a small calibrated transform pair reused across files,
and helpers for the wave packet, the closed-form mode and memory peaks.

The pair is deliberately modest (24 lambda nodes, 8 Hermite levels, a
36 x 36 x 48 box) so the whole suite stays fast; the acceptance tests pin
the production-sized configurations.
"""

import tracemalloc

import numpy as np
import pytest

from subwave import propagator
from subwave.spectral import build_grid
from subwave.transform import SpatialGrid, calibrate_plancherel, from_function


def packet(carrier=1.6, sigma_xy=0.8, sigma_tau=1.35, scale=1.0, center=0.0):
    """Modulated Gaussian wave packet centred at t = center; broadcastable
    over grid axes."""

    def fn(x, y, t):
        t = t - center
        env = np.exp(-(x * x + y * y) / (2 * sigma_xy ** 2)
                     - t * t / (2 * sigma_tau ** 2))
        return scale * np.cos(carrier * t) * env

    return fn


def propagate_mode(b, m, omega2, u0, u1, t):
    """(value, derivative) at times t of one mode with data (u0, u1): the
    one kernel `propagator._mode_factors` at total = omega2 + m."""
    A0, A1, D0, D1 = propagator._mode_factors(omega2 + m, b, np.asarray(t, dtype=float))
    return A0 * u0 + A1 * u1, D0 * u0 + D1 * u1


def traced_peak(fn):
    """(result of fn(), tracemalloc peak in bytes above the start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def synth_box():
    # tau half-width 8.5 keeps the sigma_tau = 1.35 reference packet below
    # the 1e-8 boundary-decay gate of the forward transform
    return SpatialGrid((5.0, 5.0, 8.5), (36, 36, 48))


@pytest.fixture(scope="session")
def calibrated_grid(synth_box):
    grid = build_grid(0.25, 6.0, 24, 15.0, n=1)
    reference = from_function(synth_box, packet())
    calibrate_plancherel(reference, grid)
    return grid


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
