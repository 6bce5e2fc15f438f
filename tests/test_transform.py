"""Representation matrices and the group Fourier transform round trip."""

import warnings

import numpy as np
import pytest

from subwave.group import GroupElement, group_identity, group_multiply
from subwave.propagator import _Norms
from subwave.spectral import ModeGrid, SpectralField, build_grid
from subwave.transform import (
    _closed_form_tables,
    _triangle,
    _g_block,
    _rule,
    _rule_size,
    SpatialField,
    SpatialGrid,
    calibrate_plancherel,
    clear_plan_cache,
    forward_transform,
    from_function,
    inverse_transform,
    representation_matrix,
    synthesize_on_grid,
)

from conftest import packet, traced_peak


def test_spatial_grid_basics():
    grid = SpatialGrid((2.0, 3.0, 4.0), (5, 7, 9))
    assert grid.axis(0)[0] == -2.0 and grid.axis(0)[-1] == 2.0
    assert grid.spacings[1] == pytest.approx(1.0)
    assert np.sum(grid.weight_cube()) == pytest.approx(8 * 2.0 * 3.0 * 4.0, rel=1e-13)
    with pytest.raises(ValueError):
        SpatialGrid((2.0, 3.0), (5, 7))
    with pytest.raises(ValueError):
        SpatialGrid((2.0, -1.0, 4.0), (5, 7, 9))
    with pytest.raises(ValueError):
        SpatialGrid((2.0, 1.0, 4.0), (5, 3, 9))


def test_spatial_field_validation_and_norms():
    grid = SpatialGrid((1.0, 1.0, 1.0), (4, 4, 4))
    assert SpatialField(grid, np.ones(grid.shape, dtype=int)).samples.dtype == np.float64
    assert SpatialField(grid, np.ones(grid.shape) + 0j).samples.dtype == np.complex128
    with pytest.raises(ValueError, match="match"):
        SpatialField(grid, np.zeros((4, 4, 5)))
    with pytest.raises(ValueError, match="finite"):
        SpatialField(grid, np.full(grid.shape, np.inf))
    f = SpatialField(grid, np.ones(grid.shape))
    assert f.l2_norm() == pytest.approx(np.sqrt(8.0), rel=1e-13)
    assert f.lq_norm(4.0) == pytest.approx(8.0 ** 0.25, rel=1e-13)
    with pytest.raises(ValueError):
        f.lq_norm(0.5)
    zero = SpatialField(grid, np.zeros(grid.shape))
    assert zero.boundary_decay() == 0.0


def test_from_function_broadcasts():
    grid = SpatialGrid((1.0, 1.0, 2.0), (4, 5, 6))
    f = from_function(grid, lambda x, y, t: x + 0 * y + 0 * t)
    assert f.samples.shape == grid.shape
    assert np.allclose(f.samples[0], -1.0)
    assert np.allclose(f.samples[-1], 1.0)


def test_representation_identity_element():
    for lam in (0.7, -1.3):
        block = representation_matrix(lam, group_identity(1), 8)
        assert np.allclose(block, np.eye(8), atol=1e-12)


def test_representation_unitary_columns():
    rng = np.random.default_rng(5)
    for lam in (0.8, -1.7):
        g = GroupElement(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1),
                         rng.uniform(-1, 1))
        M = representation_matrix(lam, g, 8, rows=32)
        gram = M.conj().T @ M
        assert np.allclose(gram, np.eye(8), atol=1e-8)


def test_representation_homomorphism_interior_block():
    lam = 0.9
    g1 = GroupElement([0.5], [-0.3], 0.4)
    g2 = GroupElement([-0.2], [0.6], -0.1)
    K = 20
    left = representation_matrix(lam, group_multiply(g1, g2), K)
    prod = representation_matrix(lam, g1, K) @ representation_matrix(lam, g2, K)
    # truncating the matrix product loses mass in the outer rows/columns;
    # the interior block converges as K grows
    assert np.allclose(left[:6, :6], prod[:6, :6], atol=1e-6)


def test_representation_matrix_is_implemented_for_n1_only():
    # the quadrature oracle checks the grid transforms, which are H^1 only
    g = GroupElement([0.4, -0.7], [-0.3, 0.5], 0.6)
    for element in (g, group_identity(2)):
        with pytest.raises(NotImplementedError, match="n = 1"):
            representation_matrix(0.9, element, 4)


def test_representation_rejects_zero_frequency():
    with pytest.raises(ValueError):
        representation_matrix(0.0, group_identity(1), 4)


def test_calibration_constant_near_analytic_normalization(calibrated_grid):
    # the measured constant sits within a few percent of (2 pi)^-2
    assert calibrated_grid.plancherel_constant == pytest.approx(
        (2 * np.pi) ** -2, rel=0.05)


def test_uncalibrated_grid_has_the_analytic_plancherel_constant():
    # a grid that was never calibrated weighs its nodes with (2 pi)^-(n+1),
    # the Plancherel measure |lambda|^n d lambda of H^n
    for n in (1, 2):
        grid = build_grid(0.3, 4.0, 24, 9.0, n=n)
        assert grid.plancherel_constant == (2 * np.pi) ** -(n + 1)
    # the CLI's modes data (the evolve-semilinear config's grid and box)
    # come back from one synthesis and analysis within the grid's loss,
    # measured as the relative round-trip loss of a packet on a calibrated
    # copy of the grid: ratio 1.0037 against a loss of 0.107 (with the
    # constant 1.0, 39.6)
    grid, box = build_grid(0.3, 4.0, 24, 7.0), SpatialGrid((4, 4, 5), (24, 24, 24))
    # the CLI's default modes data: center 1, width 0.5, ladder 0.5
    profile = np.exp(-(grid.lambda_nodes - 1.0) ** 2 / (2 * 0.5 ** 2))
    k = np.arange(grid.block_size)
    c = np.zeros(grid.field_shape(), dtype=complex)
    c[:, k, k] = profile[:, None] * 0.5 ** k
    modes = SpectralField(grid, c)
    back = forward_transform(synthesize_on_grid(modes, box), grid, boundary_tol=None)
    norms = _Norms(modes, None)
    ratio = norms.l2(back.coefficients) / norms.l2(modes.coefficients)
    calibrated = build_grid(0.3, 4.0, 24, 7.0)
    f = from_function(box, packet())
    with pytest.warns(UserWarning, match="boundary decay"):  # 1.6e-4
        calibrate_plancherel(f, calibrated)
    F = forward_transform(f, calibrated, boundary_tol=None)
    loss = SpatialField(box, synthesize_on_grid(F, box).samples - f.samples).l2_norm()
    assert abs(ratio - 1.0) <= loss / f.l2_norm()


def test_plancherel_stability_on_second_function(calibrated_grid, synth_box):
    f = from_function(synth_box, packet(carrier=1.9, sigma_xy=1.0, sigma_tau=1.1))
    F = forward_transform(f, calibrated_grid, boundary_tol=None)
    assert _Norms(F, None).l2(F.coefficients) == pytest.approx(f.l2_norm(), rel=2e-2)


def test_forward_is_linear(calibrated_grid, synth_box):
    f = from_function(synth_box, packet())
    g = from_function(synth_box, packet(carrier=2.1, sigma_xy=0.9, sigma_tau=1.2))
    combo = SpatialField(synth_box, 0.7 * f.samples - 2.0 * g.samples)
    Fc = forward_transform(combo, calibrated_grid, boundary_tol=None)
    F = forward_transform(f, calibrated_grid, boundary_tol=None)
    G = forward_transform(g, calibrated_grid, boundary_tol=None)
    assert np.allclose(Fc.coefficients,
                       0.7 * F.coefficients - 2.0 * G.coefficients, atol=1e-12)


def test_round_trip(synth_box):
    # The session grid is too coarse here: its lambda spacing of 0.25 folds
    # ringing onto the tau faces and the [0, 0.25) band is dropped entirely.
    # A 96-node band reaching down to 0.05 reconstructs the packet to ~1%.
    grid = build_grid(0.05, 8.0, 96, 31.0, n=1)
    f = from_function(synth_box, packet())
    calibrate_plancherel(f, grid)
    F = forward_transform(f, grid, boundary_tol=None)
    back = synthesize_on_grid(F, synth_box)
    err = np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples))
    assert err < 2.5e-2


def test_inverse_transform_matches_synthesis(calibrated_grid, synth_box):
    f = from_function(synth_box, packet())
    F = forward_transform(f, calibrated_grid, boundary_tol=None)
    back = synthesize_on_grid(F, synth_box)
    ii, jj, kk = 18, 20, 24
    x = synth_box.axis(0)[ii]
    y = synth_box.axis(1)[jj]
    t = synth_box.axis(2)[kk]
    vals = inverse_transform(F, [GroupElement([x], [y], t)])
    assert vals.shape == (1,)
    assert abs(vals[0] - back.samples[ii, jj, kk]) < 1e-8
    assert inverse_transform(F, []).shape == (0,)


def quadrature_blocks(grid, spatial):
    """M(lambda_q, (x, y, 0)) for every node and (x, y) point, shape
    (Q, Nx, Ny, K, K), from the Gauss-Hermite `_g_block` with the explicit
    phase exp(-i lambda x y / 2): an oracle independent of the plan's
    closed-form tables."""
    K = grid.block_size
    x, y, _ = spatial.axes
    gmax = np.sqrt(np.max(np.abs(grid.lambda_nodes))) * np.max(np.abs(x))
    rule = _rule(_rule_size(gmax, 2 * K))
    out = np.empty((grid.node_count, x.size, y.size, K, K), dtype=complex)
    for q, lam in enumerate(grid.lambda_nodes):
        alpha, sgn = np.sqrt(abs(lam)), np.sign(lam)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[q, i, j] = (np.exp(-0.5j * lam * xi * yj)
                                * _g_block(alpha * yj, sgn * alpha * xi, K, K, rule))
    return out


def per_node_synthesis(F, spatial):
    """One lambda node at a time with explicit complex phases: the quadrature
    reference for the batched closed-form synthesis."""
    grid = F.grid
    blocks = quadrature_blocks(grid, spatial)
    # Tr[F M] = sum_{kl} F_kl M_lk
    slabs = np.einsum("qkl,qxylk->qxy", F.coefficients, blocks)
    char = (np.exp(1j * np.outer(spatial.axis(2), grid.lambda_nodes))
            * grid.weights[None, :])
    return np.tensordot(slabs, char, axes=([0], [1]))


def _sparse_grid():
    # -0.5 has no mirror node; random complex data has no symmetry that
    # could hide a wrong sign on the mirrored (conjugated) tables
    nodes = np.array([-2.0, -1.0, -0.5, 1.0, 2.0])
    return ModeGrid(n=1, lambda_nodes=nodes,
                    base_weights=np.array([0.5, 0.4, 0.3, 0.4, 0.5]), mu_max=7.0)


# the quarter tables on each parity of the (x, y) axes: an odd axis has a
# centre line that is its own mirror
ODD_PLANE = SpatialGrid((4.0, 3.5, 5.0), (13, 11, 9))
EVEN_PLANE = SpatialGrid((4.0, 3.5, 5.0), (12, 11, 9))
EVEN_XY_PLANE = SpatialGrid((4.0, 3.5, 5.0), (12, 12, 9))
ODD_X_EVEN_Y_PLANE = SpatialGrid((4.0, 3.5, 5.0), (13, 12, 9))
PLANES = pytest.mark.parametrize(
    "spatial", [ODD_PLANE, EVEN_PLANE, EVEN_XY_PLANE, ODD_X_EVEN_Y_PLANE],
    ids=["odd", "even", "even-xy", "odd-x-even-y"])
EVEN_Y_PLANES = pytest.mark.parametrize(
    "spatial", [EVEN_XY_PLANE, ODD_X_EVEN_Y_PLANE], ids=["even-xy", "odd-x-even-y"])


def check_grouped_synthesis(spatial, rng):
    grid = _sparse_grid()
    c = (rng.standard_normal(grid.field_shape())
         + 1j * rng.standard_normal(grid.field_shape()))
    c[1] = 0.0  # +1.0 alone in its |lambda| pair
    F = SpectralField(grid, c)
    ref = per_node_synthesis(F, spatial)
    got = synthesize_on_grid(F, spatial).samples
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def check_forward_on_an_asymmetric_field(spatial):
    # even packets cannot tell (k, l) from (l, k); this field is odd in x,
    # off-centre in x and y and complex, so a transposed index order or a
    # wrong mirrored sign misses by O(1); its real part takes the float64
    # path, which reads -lambda as the conjugate of +|lambda|
    grid = _sparse_grid()
    f = from_function(spatial, lambda x, y, t: (1 + x + 0.3j * x * y + 0.2 * x * t)
                      * np.exp(-((x - 0.7) ** 2 + (y + 0.4) ** 2) / 1.2 - t * t / 3))
    blocks = quadrature_blocks(grid, spatial)
    for field in (f, SpatialField(spatial, f.samples.real)):
        fw = field.samples * spatial.weight_cube()
        ft = np.tensordot(fw, np.exp(-1j * np.outer(spatial.axis(2), grid.lambda_nodes)),
                          axes=([2], [0]))
        # f_hat(lambda)_{kl} = sum_g w f(g) conj(M(lambda, g)_{lk})
        ref = np.einsum("xyq,qxylk->qkl", ft, blocks.conj())
        got = forward_transform(field, grid, boundary_tol=None).coefficients
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def hermitian_field(grid, rng):
    """Random coefficients with F(-lambda) = conj F(lambda) bitwise, zero at
    a node without a mirror."""
    nodes = grid.lambda_nodes
    c = (rng.standard_normal(grid.field_shape())
         + 1j * rng.standard_normal(grid.field_shape()))
    for q, lam in enumerate(nodes):
        mirror = np.flatnonzero(nodes == -lam)
        if not mirror.size:
            c[q] = 0.0
        elif lam < 0:
            c[q] = np.conjugate(c[mirror[0]])
    return SpectralField(grid, c)


@PLANES
def test_hermitian_fields_synthesize_to_float64(spatial, rng):
    F = hermitian_field(_sparse_grid(), rng)
    ref = per_node_synthesis(F, spatial)
    got = synthesize_on_grid(F, spatial).samples
    assert got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@PLANES
def test_i_times_a_hermitian_field_synthesizes_to_i_times_its_samples(spatial, rng):
    # i F has a zero Hermitian part, so the real part of its samples is
    # exactly 0, and its anti-Hermitian part is F's Hermitian part
    # bitwise.  Its t-axis matmul spans both parts, which BLAS may sum in
    # another order than the one-part matmul: bitwise here and on the
    # benchmark's 36 x 36 x 48 box, 7e-17 relative measured for a 24-node
    # grid on a 12 x 12 x 10 box
    F = hermitian_field(_sparse_grid(), rng)
    samples = synthesize_on_grid(F, spatial).samples
    got = synthesize_on_grid(SpectralField(F.grid, 1j * F.coefficients), spatial).samples
    assert got.dtype == np.complex128
    assert not np.any(got.real)
    assert np.max(np.abs(got.imag - samples)) <= 1e-15 * np.max(np.abs(samples))


@PLANES
def test_forward_transform_of_real_samples_is_exactly_hermitian(spatial, rng):
    # so that a real Picard solve stays real from sweep to sweep: its
    # syntheses take the float64 path
    grid = build_grid(0.25, 6.0, 24, 15.0, n=1)
    f = SpatialField(spatial, rng.standard_normal(spatial.shape))
    F = forward_transform(f, grid, boundary_tol=None)
    assert np.array_equal(F.coefficients[::-1], np.conjugate(F.coefficients))
    assert synthesize_on_grid(F, spatial).samples.dtype == np.float64


def test_grouped_synthesis_matches_per_node_loop(rng):
    check_grouped_synthesis(ODD_PLANE, rng)


def test_grouped_synthesis_matches_per_node_loop_on_an_even_plane(rng):
    check_grouped_synthesis(EVEN_PLANE, rng)


def test_forward_matches_quadrature_on_an_asymmetric_field():
    check_forward_on_an_asymmetric_field(ODD_PLANE)


def test_forward_matches_quadrature_on_an_even_plane():
    check_forward_on_an_asymmetric_field(EVEN_PLANE)


@EVEN_Y_PLANES
def test_grouped_synthesis_matches_per_node_loop_on_even_y_axes(spatial, rng):
    check_grouped_synthesis(spatial, rng)


@EVEN_Y_PLANES
def test_forward_matches_quadrature_on_even_y_axes(spatial):
    check_forward_on_an_asymmetric_field(spatial)


# x carries gamma and y beta: both signs and |beta|, |gamma| up to 12.3
TABLE_X = np.array([-12.3, -7.1, -2.2, -0.4, 0.0, 1.3, 5.6, 12.3])
TABLE_Y = np.array([-12.3, -3.3, -0.9, 0.0, 0.7, 4.4, 9.8, 12.3])


def g_tilde_by_quadrature(K, xs=TABLE_X, ys=TABLE_Y):
    """G~ = G exp(-i gamma beta / 2) at every (gamma, beta) = (x, y) point,
    shape (len(x), len(y), K, K), from the Gauss-Hermite `_g_block` alone."""
    rule = _rule(_rule_size(12.3, 2 * K))
    return np.array([[_g_block(beta, gamma, K, K, rule) * np.exp(-0.5j * gamma * beta)
                      for beta in ys] for gamma in xs])


def table_points():
    """TABLE_X x TABLE_Y flattened into the paired points of
    `_closed_form_tables`, x major."""
    x, y = np.meshgrid(TABLE_X, TABLE_Y, indexing="ij")
    return x.ravel(), y.ravel()


@pytest.mark.parametrize("K, bound", [(8, 1e-13), (16, 1e-10)])
def test_closed_form_tables_match_quadrature(K, bound):
    # the triangle k >= l, last, in the order of `_triangle`
    re, im = _closed_form_tables(np.array([1.0]), *table_points(), K)[:, 0]
    tab = re + 1j * im
    k, l = _triangle(K)
    assert tab.shape == (TABLE_X.size * TABLE_Y.size, k.size)
    ref = g_tilde_by_quadrature(K)[:, :, k, l].reshape(tab.shape)
    assert np.max(np.abs(tab - ref)) <= bound


def test_triangle_order_puts_each_parity_in_one_block():
    k, l = _triangle(5)
    assert sorted(zip(k, l)) == [(a, b) for a in range(5) for b in range(a + 1)]
    assert list((k - l) % 2) == [0] * 9 + [1] * 6
    # within a parity, column by column and k ascending
    assert list(zip(k[:4], l[:4])) == [(0, 0), (2, 0), (4, 0), (1, 1)]


@pytest.mark.parametrize("K", [8, 16])
def test_closed_form_tables_reflect_through_the_origin_bitwise(K):
    # G~_{kl}(-z) = (-1)^{k-l} G~_{kl}(z): every step of the recurrence is
    # odd or even in z, so the mirrored point carries the exact sign
    x, y = table_points()
    alphas = np.array([0.5, 1.0, 2.45])
    tab = _closed_form_tables(alphas, x, y, K)
    mirrored = _closed_form_tables(alphas, -x, -y, K)
    k, l = _triangle(K)
    assert np.array_equal(mirrored, (-1.0) ** (k - l) * tab)


@pytest.mark.parametrize("K", [1, 2, 8, 9])
def test_closed_form_tables_conjugate_across_the_x_mirror_bitwise(K):
    # G~_{kl}(conj z) = conj(G~_{kl}(z)): G~ is e^{i(k-l) arg z} times a real
    # function of |z|, and every step of the recurrence keeps it; at x = 0,
    # z is real and so is G~, which the plan's x-fold relies on
    x, y = table_points()
    alphas = np.array([0.5, 1.0, 2.45])
    re, im = _closed_form_tables(alphas, x, y, K)
    mirrored_re, mirrored_im = _closed_form_tables(alphas, -x, y, K)
    assert np.array_equal(mirrored_re, re)
    assert np.array_equal(mirrored_im, -im)
    assert not np.any(im[:, x == 0.0])


@pytest.mark.parametrize("K", [8, 16])
def test_fourier_wigner_blocks_mirror_across_the_diagonal(K):
    # G~_{lk} = (-1)^{k+l} conj(G~_{kl}) with a real diagonal, the identity
    # that lets the plan store the triangle alone; the quadrature meets it
    # to 7e-16
    g = g_tilde_by_quadrature(K)
    idx = np.arange(K)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    assert np.max(np.abs(g.swapaxes(2, 3) - sign * g.conj())) <= 1e-14
    assert np.max(np.abs(np.diagonal(g, axis1=2, axis2=3).imag)) <= 1e-14


@pytest.mark.parametrize("K", [8, 16])
def test_fourier_wigner_blocks_reflect_through_the_origin(K):
    # G~_{kl}(-z) = (-1)^{k-l} G~_{kl}(z) and G~_{kl}(conj z) = conj(G~_{kl}(z)),
    # x -> -x, the identities that let the plan store a quarter of the
    # (x, y) plane, from the quadrature alone
    g = g_tilde_by_quadrature(K)
    reflected = g_tilde_by_quadrature(K, -TABLE_X, -TABLE_Y)
    idx = np.arange(K)
    sign = (-1.0) ** (idx[:, None] - idx[None, :])
    assert np.max(np.abs(reflected - sign * g)) <= 1e-14
    assert np.max(np.abs(g_tilde_by_quadrature(K, -TABLE_X) - g.conj())) <= 1e-14


@pytest.mark.parametrize("n", [4, 5, 36, 37])
def test_axes_are_exactly_antisymmetric(n):
    grid = SpatialGrid((2.0, 3.7, 8.5), (n, n + 2, n))
    for i in range(3):
        a = grid.axis(i)
        assert np.array_equal(a[::-1], -a)
        assert a[0] == -grid.half_widths[i] and a[-1] == grid.half_widths[i]
        assert np.allclose(np.diff(a), grid.spacings[i], rtol=1e-13, atol=0.0)
        if a.size % 2:
            assert a[a.size // 2] == 0.0


def test_plan_builds_and_holds_only_the_triangle(calibrated_grid, synth_box):
    # K(K+1)/2 rows per |lambda| on the ceil(Nx/2) ceil(Ny/2) points of the
    # quarter plane, Re and Im in two float64 planes; the build's scratch is
    # a few complex (|lambda|, quarter) slabs (2.5 measured), never the
    # K^2 rows, a complex table or more than the quarter
    from subwave import transform

    K = calibrated_grid.block_size
    groups = np.unique(np.abs(calibrated_grid.lambda_nodes)).size
    nx, ny, _ = synth_box.shape
    quarter = -(-nx // 2) * -(-ny // 2)
    quarter_slab = groups * quarter * 16
    plan, peak = traced_peak(lambda: transform._TransformPlan(calibrated_grid, synth_box))
    assert plan.planes.dtype == np.float64
    assert plan.planes.nbytes == groups * K * (K + 1) // 2 * quarter * 16
    assert peak <= plan.planes.nbytes + 3 * quarter_slab


def test_grid_transforms_allocate_a_few_boxes(calibrated_grid, synth_box, rng):
    # with the plan built, a synthesis holds the result, one quarter slab
    # and one quarter block of the t-contraction, which the butterflies
    # reuse; a forward transform the four weighted quarter folds of the
    # samples, one spare fold and a folded t-transform (a box is Nx Ny Nt
    # complex; 24 nodes on 48 t points): 1.66 boxes measured for a
    # synthesis, 1.36 for a forward transform, and a Hermitian field's
    # float64 synthesis takes 0.95
    from subwave import transform

    transform._plan(calibrated_grid, synth_box)
    c = (rng.standard_normal(calibrated_grid.field_shape())
         + 1j * rng.standard_normal(calibrated_grid.field_shape()))
    F = SpectralField(calibrated_grid, c)
    f, synth_peak = traced_peak(lambda: synthesize_on_grid(F, synth_box))
    _, forward_peak = traced_peak(
        lambda: forward_transform(f, calibrated_grid, boundary_tol=None))
    assert synth_peak <= 2.5 * f.samples.nbytes
    assert forward_peak <= 1.5 * f.samples.nbytes
    H = hermitian_field(calibrated_grid, rng)
    _, real_peak = traced_peak(lambda: synthesize_on_grid(H, synth_box))
    assert real_peak <= 1.25 * f.samples.nbytes


def test_grid_transforms_do_not_touch_quadrature(monkeypatch, rng):
    from subwave import transform

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature on the fast path")

    monkeypatch.setattr(transform, "hermite_polynomial_table", refuse)
    monkeypatch.setattr(transform, "_rule", refuse)
    clear_plan_cache()
    grid = _sparse_grid()
    spatial = ODD_PLANE
    c = (rng.standard_normal(grid.field_shape())
         + 1j * rng.standard_normal(grid.field_shape()))
    F = SpectralField(grid, c)
    f = synthesize_on_grid(F, spatial)
    forward_transform(f, grid, boundary_tol=None)
    with pytest.raises(AssertionError, match="quadrature"):
        inverse_transform(F, [GroupElement([0.5], [0.2], 0.1)])


def test_boundary_decay_warning():
    box = SpatialGrid((3.0, 3.0, 3.0), (24, 24, 24))
    grid_small = build_grid(0.5, 2.0, 8, 5.0, n=1)
    wide = from_function(box, packet(sigma_xy=2.5, sigma_tau=2.5))
    with pytest.warns(UserWarning, match="boundary decay"):
        forward_transform(wide, grid_small)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forward_transform(wide, grid_small, boundary_tol=None)


def test_plan_cache_clear_is_idempotent(calibrated_grid, synth_box):
    f = from_function(synth_box, packet())
    before = forward_transform(f, calibrated_grid, boundary_tol=None)
    clear_plan_cache()
    after = forward_transform(f, calibrated_grid, boundary_tol=None)
    assert np.array_equal(before.coefficients, after.coefficients)


def test_plan_cache_holds_the_last_pair_alone(rng):
    # a second (grid, box) pair leaves only its own plan, and the first
    # pair's transforms come out bitwise the same from a rebuilt plan
    from subwave import transform

    clear_plan_cache()
    grid = _sparse_grid()
    first, second = (SpatialGrid((4.0, 3.5, 5.0 + i), (5, 5, 4)) for i in range(2))
    c = (rng.standard_normal(grid.field_shape())
         + 1j * rng.standard_normal(grid.field_shape()))
    F = SpectralField(grid, c)
    f = synthesize_on_grid(F, first)
    back = forward_transform(f, grid, boundary_tol=None)
    assert list(transform._PLAN_CACHE) == [(grid.stamp, first)]
    transform._plan(grid, second)
    assert list(transform._PLAN_CACHE) == [(grid.stamp, second)]
    assert np.array_equal(synthesize_on_grid(F, first).samples, f.samples)
    assert np.array_equal(forward_transform(f, grid, boundary_tol=None).coefficients,
                          back.coefficients)
    assert list(transform._PLAN_CACHE) == [(grid.stamp, first)]
    clear_plan_cache()
    assert not transform._PLAN_CACHE


def test_calibration_rejects_degenerate_reference(calibrated_grid, synth_box):
    zero = SpatialField(synth_box, np.zeros(synth_box.shape))
    with pytest.raises(ValueError, match="zero norm"):
        calibrate_plancherel(zero, calibrated_grid)
