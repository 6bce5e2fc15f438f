"""Mode grids, symbols, and the backend model's Plancherel-weighted norms."""

import numpy as np
import pytest

from subwave.spectral import (
    AbelianSymbol,
    ModeGrid,
    SpectralField,
    SubLaplacianSymbol,
    build_grid,
)
from subwave.propagator import _Norms


@pytest.fixture()
def grid():
    return build_grid(0.3, 4.0, 16, 9.0, n=1)


def random_field(grid, rng):
    shape = grid.field_shape()
    return SpectralField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_build_grid_validation():
    with pytest.raises(ValueError, match="lambda_min"):
        build_grid(0.0, 1.0, 8, 5.0)
    with pytest.raises(ValueError, match="lambda_min"):
        build_grid(2.0, 1.0, 8, 5.0)
    with pytest.raises(ValueError, match="even"):
        build_grid(0.1, 1.0, 7, 5.0)


def test_build_grid_with_one_node_per_sign():
    # the one node |lambda| = lambda_min carries the whole band
    grid = build_grid(0.5, 2.0, 2, 5.0, n=2)
    assert np.array_equal(grid.lambda_nodes, [-0.5, 0.5])
    assert np.array_equal(grid.base_weights, [0.5 ** 2 * 1.5] * 2)


def test_grid_nodes_symmetric_and_increasing(grid):
    nodes = grid.lambda_nodes
    assert nodes.size == 16
    assert np.allclose(nodes, -nodes[::-1])
    assert np.all(np.diff(nodes) > 0)
    assert np.all(grid.base_weights > 0)
    assert np.allclose(grid.base_weights, grid.base_weights[::-1])


def test_grid_weights_approximate_plancherel_density():
    grid = build_grid(0.25, 6.0, 128, 5.0, n=1)
    # weights carry |lambda|^n; their sum approximates 2 * int lambda dlambda
    exact = 6.0 ** 2 - 0.25 ** 2
    assert np.sum(grid.base_weights) == pytest.approx(exact, rel=0.01)


def test_grid_block_structure(grid):
    assert grid.block_size == 5  # mu_k = 2k+1 <= 9
    assert grid.field_shape() == (16, 5, 5)
    assert grid.multi_indices == tuple((k,) for k in range(5))
    assert np.allclose(grid.mu_values, [1, 3, 5, 7, 9])
    g2 = build_grid(0.5, 2.0, 4, 6.0, n=2)
    assert g2.block_size == len(g2.multi_indices)
    assert all(2 * sum(k) + 2 <= 6 for k in g2.multi_indices)


def test_mode_grid_validation():
    with pytest.raises(ValueError, match="lambda = 0"):
        ModeGrid(n=1, lambda_nodes=np.array([-1.0, 0.0, 1.0]),
                 base_weights=np.ones(3), mu_max=5.0)
    with pytest.raises(ValueError, match="increasing"):
        ModeGrid(n=1, lambda_nodes=np.array([1.0, 0.5]),
                 base_weights=np.ones(2), mu_max=5.0)
    with pytest.raises(ValueError, match="matching"):
        ModeGrid(n=1, lambda_nodes=np.array([0.5, 1.0]),
                 base_weights=np.ones(3), mu_max=5.0)
    with pytest.raises(ValueError, match="positive"):
        ModeGrid(n=1, lambda_nodes=np.array([0.5, 1.0]),
                 base_weights=np.array([1.0, 0.0]), mu_max=5.0)


def test_grid_stamp_tracks_content(grid):
    # grids compare by their stamps and Plancherel constants
    same = build_grid(0.3, 4.0, 16, 9.0, n=1)
    assert same.stamp == grid.stamp and same == grid
    same.plancherel_constant = 2.0 * grid.plancherel_constant
    assert same.stamp == grid.stamp and same != grid
    other = build_grid(0.3, 4.0, 16, 11.0, n=1)
    assert other.stamp != grid.stamp and other != grid
    assert grid != object() and not grid == object()
    # the stamp keys the plan cache, so it is always derived from the data
    with pytest.raises(TypeError):
        ModeGrid(n=1, lambda_nodes=np.array([0.5, 1.0]), base_weights=np.ones(2),
                 mu_max=5.0, stamp="x")
    with pytest.raises(TypeError):
        ModeGrid(n=1, lambda_nodes=np.array([0.5, 1.0]), base_weights=np.ones(2),
                 mu_max=5.0, multi_indices=((0,),))


def test_sublaplacian_symbol_values(grid):
    sym = SubLaplacianSymbol(power=1)
    assert sym.nu == 2
    # by hand: |lambda| mu_k with mu = 1, 3, 5 for k = 0, 1, 2
    hand = ModeGrid(n=1, lambda_nodes=np.array([-2.0, 0.5]),
                    base_weights=np.ones(2), mu_max=5.0)
    assert np.array_equal(sym.values(hand)[:, :, 0], [[2.0, 6.0, 10.0], [0.5, 1.5, 2.5]])
    # the symbol rides the row (left Hermite) index of each (node, k, l) block
    vals = sym.values(grid)
    assert vals.shape == (16, 5, 1)
    assert np.allclose(vals[:, :, 0], np.abs(grid.lambda_nodes)[:, None] * grid.mu_values)
    sq = SubLaplacianSymbol(power=2)
    assert np.allclose(sq.values(grid), vals ** 2)
    with pytest.raises(ValueError):
        SubLaplacianSymbol(power=0)


def test_abelian_symbol():
    with pytest.raises(ValueError, match="order"):
        AbelianSymbol([1.0, 1.0], order=3)
    with pytest.raises(ValueError, match="positive"):
        AbelianSymbol([1.0, -1.0], order=2)
    iso = AbelianSymbol(np.ones(3), order=4, radial=True)
    xi = np.array([1.0, 2.0, 2.0])
    assert iso.value_at(xi) == pytest.approx(81.0)
    assert iso.nu == 4
    aniso = AbelianSymbol([1.0, 2.0], order=2)
    assert aniso.value_at(np.array([3.0, 1.0])) == pytest.approx(11.0)
    with pytest.raises(ValueError, match="dimension"):
        aniso.value_at(np.array([1.0, 1.0, 1.0]))


def test_field_validation(grid):
    with pytest.raises(ValueError, match="shape"):
        SpectralField(grid, np.zeros((16, 4, 4)))
    bad = np.zeros(grid.field_shape(), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SpectralField(grid, bad)


def test_l2_norm_is_weighted_hilbert_schmidt(grid, rng):
    c = random_field(grid, rng).coefficients
    hs = np.sum(np.abs(c) ** 2, axis=(1, 2))
    norms = _Norms(SpectralField(grid, c), SubLaplacianSymbol(power=1))
    assert norms.l2(c) == pytest.approx(np.sqrt(np.sum(grid.weights * hs)), rel=1e-14)
    assert norms.l2(2.0 * c) == pytest.approx(2.0 * norms.l2(c), rel=1e-14)


def test_sobolev_norm_special_cases(grid, rng):
    f = random_field(grid, rng)
    norms, c = _Norms(f, SubLaplacianSymbol(power=1)), f.coefficients
    assert norms.sobolev(c, 0.0) == pytest.approx(norms.l2(c), rel=1e-14)
    assert norms.frac(c, 0.0) == pytest.approx(norms.l2(c), rel=1e-14)
    # H^1 dominates L^2 with mass 1 since the multiplier exceeds 1
    assert norms.sobolev(c, 1.0) > norms.l2(c)
    # mass 0 is the homogeneous norm; the symbol never vanishes off lambda=0
    assert norms._reduce(c, norms._weighted(1.0, 0.0)) == pytest.approx(
        norms.frac(c, 1.0), rel=1e-14)


def test_single_mode_norms_by_hand(grid):
    coeffs = np.zeros(grid.field_shape(), dtype=complex)
    q, k, el = 3, 2, 4
    coeffs[q, k, el] = 2.0 - 1.0j
    f = SpectralField(grid, coeffs)
    w = grid.weights[q]
    amp = abs(coeffs[q, k, el])
    norms = _Norms(f, SubLaplacianSymbol(power=1))
    assert norms.l2(coeffs) == pytest.approx(np.sqrt(w) * amp, rel=1e-14)
    lam_mu = abs(grid.lambda_nodes[q]) * (2 * k + 1)
    assert norms.frac(coeffs, 1.0) == pytest.approx(
        np.sqrt(w * lam_mu) * amp, rel=1e-13)
