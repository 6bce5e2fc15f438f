"""Group Fourier transform on H^n between spatial samples and spectral fields.

Representation convention.  On H^n with the polarized group law used by
`subwave.group`, the Schrodinger representation at nonzero lambda acts by

    (pi_lambda(x, y, t) h)(w) = exp(i lambda (t + x.w - x.y/2)) h(w - y),

which is a homomorphism for every real lambda != 0 (verified numerically to
quadrature precision by the test suite).  The Hermite basis is rescaled by
sqrt(|lambda|), e_k(w) = |lambda|^{n/4} psi_k(sqrt(|lambda|) w), so that the
symbol of -L is exactly |lambda| mu_k on the diagonal.

Matrix entries reduce to one-dimensional integrals

    G_{kl}(beta, gamma) = int psi_k(v) psi_l(v - beta) e^{i gamma v} dv,
    beta = sqrt(|lambda|) y_j,  gamma = sign(lambda) sqrt(|lambda|) x_j,

and M(lambda, g)_{kl} = e^{i lambda (t - x.y/2)} prod_j G_{k_j l_j}.
G is the Fourier-Wigner transform of Hermite functions, in closed form
(Folland, Harmonic Analysis in Phase Space, 1989; Thangavelu, Lectures on
Hermite and Laguerre Expansions, 1993): G~ = G e^{-i gamma beta/2} is a
polynomial in z = (beta + i gamma)/sqrt(2) and conj(z) times exp(-|z|^2/2).
For n = 1 the phase gamma beta/2 is lambda x y/2, so M(lambda, g) =
e^{i lambda t} G~ and -lambda conjugates G~.  The closed form also gives
G~_{lk} = (-1)^{k+l} conj(G~_{kl}), with a real diagonal, and
G~_{kl}(-z) = (-1)^{k-l} G~_{kl}(z).  So the grid transforms run on exact
tables of the triangle k >= l over half the (x, y) plane, one per |lambda|
(`_TransformPlan`): (|lambda| count) * ceil(Nx Ny / 2) * K(K+1)/2 * 16
bytes, rows even in k - l first, then odd.  They read the rest by the
symmetries, the mirrored half through the row parity, on exactly
antisymmetric axes (`SpatialGrid.axis`).  `representation_matrix`
integrates G with a Gauss-Hermite rule centred at beta/2 instead (`_g_block`),
and `inverse_transform` sums its traces against F: one quadrature oracle,
independent of the tables.

Real fields.  pi_{-lambda}(g) is the complex conjugate of pi_lambda(g) in
this basis, so the transform of real samples is Hermitian,
F(-lambda) = conj F(lambda).  Spatial samples are float64 when real-typed and
complex otherwise, and both grid transforms treat a complex field as its
real and imaginary parts: `forward_transform` analyzes each part at
+|lambda| alone and reads -lambda as the conjugate, so real samples give an
exactly Hermitian field, and `synthesize_on_grid` returns float64 samples
for an exactly Hermitian field.

The Plancherel constant of this convention lives on the mode grid, analytic
unless calibrated: (2 pi)^-(n+1) by default (`subwave.spectral.ModeGrid`),
or the value `calibrate_plancherel` measures on a reference and stores.
The grid transforms, their plan and the quadrature oracle are for H^1; the
group law of `subwave.group` stays general in n.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .group import GroupElement
from .hermite import gauss_hermite_rule, hermite_polynomial_table
from .spectral import ModeGrid, SpectralField

__all__ = [
    "SpatialGrid",
    "SpatialField",
    "from_function",
    "representation_matrix",
    "forward_transform",
    "inverse_transform",
    "synthesize_on_grid",
    "calibrate_plancherel",
    "clear_plan_cache",
]

_BOUNDARY_DECAY = 1e-8


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform endpoint grid on [-R_x, R_x] x [-R_y, R_y] x [-R_t, R_t], n=1.

    Quadrature is the product trapezoid rule; for data decaying below 1e-8
    at the boundary it is spectrally accurate.
    """

    half_widths: tuple
    shape: tuple

    def __post_init__(self):
        hw = tuple(float(r) for r in self.half_widths)
        sh = tuple(int(s) for s in self.shape)
        if len(hw) != 3 or len(sh) != 3:
            raise ValueError("grids are three-dimensional: (x, y, t) axes")
        if any(r <= 0 for r in hw):
            raise ValueError("half-widths must be positive")
        if any(s < 4 for s in sh):
            raise ValueError("need at least 4 points per axis")
        object.__setattr__(self, "half_widths", hw)
        object.__setattr__(self, "shape", sh)

    def axis(self, i: int) -> np.ndarray:
        """The i-th axis, exactly antisymmetric: axis[::-1] == -axis bitwise,
        with an odd axis' centre exactly 0.0, so that the point reflection
        (x, y) -> (-x, -y) maps grid points onto grid points."""
        n = self.shape[i]
        a = np.linspace(-self.half_widths[i], self.half_widths[i], n)
        a[n - n // 2:] = -a[n // 2 - 1::-1]
        if n % 2:
            a[n // 2] = 0.0
        return a

    @property
    def axes(self):
        return tuple(self.axis(i) for i in range(3))

    @property
    def spacings(self):
        return tuple(2 * self.half_widths[i] / (self.shape[i] - 1) for i in range(3))

    def axis_weights(self, i: int) -> np.ndarray:
        h = self.spacings[i]
        w = np.full(self.shape[i], h)
        w[0] = w[-1] = 0.5 * h
        return w

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def weight_cube(self) -> np.ndarray:
        wx, wy, wt = (self.axis_weights(i) for i in range(3))
        return wx[:, None, None] * wy[None, :, None] * wt[None, None, :]


@dataclass
class SpatialField:
    """Samples over a SpatialGrid: float64 when real-typed, else complex."""

    grid: SpatialGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        self.samples = samples.astype(complex if np.iscomplexobj(samples) else float,
                                      copy=False)
        if self.samples.shape != self.grid.shape:
            raise ValueError(
                f"sample shape {self.samples.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("spatial samples must be finite")

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.grid.weight_cube() * np.abs(self.samples) ** 2)))

    def lq_norm(self, q: float) -> float:
        if q < 1:
            raise ValueError("need q >= 1")
        return float(np.sum(self.grid.weight_cube() * np.abs(self.samples) ** q) ** (1.0 / q))

    def boundary_decay(self) -> float:
        """Max boundary-face magnitude relative to the global max."""
        return _boundary_ratio(np.abs(self.samples))


def _boundary_ratio(mag: np.ndarray) -> float:
    """Largest boundary-face entry of the magnitudes mag over their max."""
    peak = mag.max()
    if peak == 0:
        return 0.0
    faces = [mag[0], mag[-1], mag[:, 0], mag[:, -1], mag[:, :, 0], mag[:, :, -1]]
    return float(max(f.max() for f in faces) / peak)


def from_function(grid: SpatialGrid, fn) -> SpatialField:
    """Sample fn(x, y, t) on the grid; fn must broadcast over arrays."""
    x, y, t = grid.axes
    vals = fn(x[:, None, None], y[None, :, None], t[None, None, :])
    return SpatialField(grid, np.broadcast_to(vals, grid.shape).copy())


_rule = functools.lru_cache(maxsize=None)(gauss_hermite_rule)


def _rule_size(gamma_max: float, order: int) -> int:
    # superexponential GH convergence for e^{i gamma u} needs ~0.7 gamma^2 nodes
    return int(np.ceil(max(96, 0.7 * gamma_max * gamma_max + 8 * abs(gamma_max) + 2 * order + 48)))


def _g_block(beta: float, gamma: float, rows: int, cols: int, rule) -> np.ndarray:
    """G_{kl} = int psi_k(v) psi_l(v - beta) e^{i gamma v} dv, k<rows, l<cols."""
    u, wq = rule
    hp = hermite_polynomial_table(rows, u + 0.5 * beta)
    hm = hermite_polynomial_table(cols, u - 0.5 * beta)
    osc = wq * np.exp(1j * gamma * u)
    core = np.einsum("i,ik,il->kl", osc, hp, hm)
    return np.exp(0.5j * gamma * beta) * np.exp(-0.25 * beta * beta) * core


def representation_matrix(lam: float, g: GroupElement, K: int,
                          rows: int | None = None) -> np.ndarray:
    """Matrix block M_{kl} = (pi_lambda(g) e_l, e_k) in the scaled Hermite
    basis of H^1, k < rows (default K) and l < K: e^{i lambda (t - xy/2)}
    times G of `_g_block` by Gauss-Hermite quadrature.  Extra rows let
    callers verify column mass completeness, isolating quadrature error from
    truncation.  As the grid transforms, it is implemented for n = 1 only.
    """
    if g.n != 1:
        raise NotImplementedError("the quadrature oracle is implemented for n = 1")
    if lam == 0:
        raise ValueError("representation is undefined at lambda = 0")
    rows = K if rows is None else rows
    alpha = np.sqrt(abs(lam))
    x, y = float(g.x[0]), float(g.y[0])
    rule = _rule(_rule_size(alpha * max(abs(x), abs(y)), 2 * max(rows, K)))
    block = _g_block(alpha * y, np.sign(lam) * alpha * x, rows, K, rule)
    return np.exp(1j * lam * (g.t - 0.5 * x * y)) * block


def _triangle(K: int):
    """(k, l) of the stored triangle k >= l: the rows with k - l even first,
    then the odd ones, each parity column by column (l, then k, ascending)."""
    l, k = np.triu_indices(K)
    order = np.argsort((k - l) % 2, kind="stable")
    return k[order], l[order]


def _closed_form_tables(alphas: np.ndarray, x: np.ndarray, y: np.ndarray,
                        K: int) -> np.ndarray:
    """G~_{kl}(alpha y, alpha x) for l <= k < K at the points (x[j], y[j]),
    by the ladder recurrences.

    With z = alpha (y + i x) / sqrt(2): G~_00 = exp(-|z|^2 / 2),
    G~_{k+1,0} = z G~_{k0} / sqrt(k+1) and
    G~_{k,l+1} = (sqrt(k) G~_{k-1,l} - conj(z) G~_{kl}) / sqrt(l+1).
    The last reads only entries with k - 1 >= l, so the recurrence never
    leaves the lower triangle k >= l.  The closed form
    sqrt(l!/k!) z^{k-l} L_l^{(k-l)}(|z|^2) e^{-|z|^2/2} gives the upper one,
    G~_{lk} = (-1)^{k+l} conj(G~_{kl}) with a real diagonal, and the point
    reflection G~_{kl}(-z) = (-1)^{k-l} G~_{kl}(z), which every step of the
    recurrence keeps bitwise.
    Shape (len(alphas), len(x), K(K+1)/2), the triangle last in the order of
    `_triangle`.  (k, l+1) reads (k-1, l), of its own parity, and (k, l), of
    the other, so each parity of column l+1 is one vectorized step over the
    two parity blocks of column l.  The recurrence runs on chunks of
    len(alphas) len(x) / (K(K+1)/2) points, each in a contiguous
    (K(K+1)/2, chunk) scratch the size of one (alphas, x) slab, and writes
    them transposed into place.
    """
    k, l = _triangle(K)
    rows = k.size
    pos = np.zeros((K, K), dtype=int)
    pos[k, l] = np.arange(rows)
    root = np.sqrt(np.arange(K))[:, None]
    points = ((alphas[:, None] / np.sqrt(2.0)) * (y + 1j * x)[None, :]).ravel()
    out = np.empty((alphas.size, x.size, rows), dtype=complex)
    flat = out.reshape(-1, rows)
    size = -(-points.size // rows)
    tab = np.empty((rows, size), dtype=complex)
    scratch = np.empty((K // 2, size), dtype=complex)
    for start in range(0, points.size, size):
        z = points[start:start + size]
        t = tab[:, :z.size]
        t[pos[0, 0]] = np.exp(-0.5 * (z.real ** 2 + z.imag ** 2))
        for kk in range(1, K):
            np.multiply(z, t[pos[kk - 1, 0]], out=t[pos[kk, 0]])
            t[pos[kk, 0]] *= 1.0 / np.sqrt(kk)
        minus_zbar = np.negative(np.conjugate(z, out=z), out=z)  # z is done with
        for ll in range(K - 1):
            for k0 in (ll + 1, ll + 2):  # k = k0, k0 + 2, ... < K
                n = (K - k0 + 1) // 2
                if n == 0:
                    continue
                dst = t[pos[k0, ll + 1]:pos[k0, ll + 1] + n]
                np.multiply(minus_zbar, t[pos[k0, ll]:pos[k0, ll] + n], out=dst)
                below = scratch[:n, :z.size]
                np.multiply(root[k0::2], t[pos[k0 - 1, ll]:pos[k0 - 1, ll] + n], out=below)
                dst += below
                dst *= 1.0 / np.sqrt(ll + 1)
        flat[start:start + z.size] = t.T
    return out


class _TransformPlan:
    """Exact matrix coefficients of the n=1 grid transforms for one
    (mode grid, spatial grid) pair, built once.

    On a grid point g = (x, y, t), M(lambda, g)_{kl} = e^{i lambda t}
    G~_{kl}(sqrt|lambda| y, sign(lambda) sqrt|lambda| x), where G~ is the
    closed-form Fourier-Wigner transform of Hermite functions (Folland 1989;
    Thangavelu 1993) of `_closed_form_tables`.  Three identities shrink what
    is stored: -lambda conjugates G~, so the nodes +-lambda share one table;
    G~_{lk} = (-1)^{k+l} conj(G~_{kl}) leaves the triangle k >= l; and
    G~_{kl}(-z) = (-1)^{k-l} G~_{kl}(z) leaves half the (x, y) plane, since
    the exactly antisymmetric axes map the flattened point j to N - 1 - j,
    N = Nx * Ny.  `table[p]` is the (ceil(N/2), K(K+1)/2) matrix of the p-th
    |lambda|: points j < ceil(N/2), triangle rows (k, l) in the order of
    `_triangle`, even k - l first (`even` real columns of `real`, the
    table's real view), so that each parity is one column block.  The set
    holds (|lambda| count) * ceil(N/2) * K(K+1)/2 * 16 bytes and no
    quadrature rule.  Node q reads `table[group[q]]`; column[q] is 1 when
    lambda < 0.

    A mirrored point j' = N - 1 - j reads the stored j with the sign
    (-1)^{k-l}: a sum over all points is the even rows against
    f(j) + f(j') and the odd rows against f(j) - f(j'), and a field on all
    points is E + O at j and E - O at j'.  The odd rows vanish at the
    centre point of an odd N, its own mirror, which is counted once.  Both
    grid transforms contract the real view of the table against real
    operands, which leaves out the products of the real parts of G~ with
    the imaginary parts of the other factor that neither needs.

    Both treat a field as c = 1 or 2 real parts, interleaved as the real
    view of the samples, (point, t, part).  `rows[c]` takes the t axis:
    row (|lambda|, part, Re/Im) holds cos(|lambda| t), resp.
    -sin(|lambda| t), the real and imaginary parts of e^{-i |lambda| t}, on
    the columns of its own part.  The trapezoid weights factor as
    w_x w_y w_t: `weighted_rows[c]` are the rows times w_t, and
    `plane_weights` holds w_x w_y on the stored half plane, which the point
    reflection leaves fixed.
    """

    def __init__(self, grid: ModeGrid, spatial: SpatialGrid):
        if grid.n != 1:
            raise NotImplementedError("grid transforms are implemented for n = 1")
        self.order = K = grid.block_size
        absl, self.group = np.unique(np.abs(grid.lambda_nodes), return_inverse=True)
        self.column = (grid.lambda_nodes < 0).astype(int)
        k, l = self.lower = _triangle(K)
        self.sign = np.where(k > l, (-1.0) ** (k + l), 0.0)
        self.even = 2 * np.count_nonzero((k - l) % 2 == 0)
        x, y, t = spatial.axes
        self.points = x.size * y.size
        half = -(-self.points // 2)
        self.table = _closed_form_tables(np.sqrt(absl), np.repeat(x, y.size)[:half],
                                         np.tile(y, x.size)[:half], K)
        self.real = self.table.view(float)
        phase = np.outer(absl, t)
        rows = np.stack([np.cos(phase), -np.sin(phase)], axis=1)
        weighted = rows * spatial.axis_weights(2)
        self.rows = {c: _for_parts(rows, c) for c in (1, 2)}
        self.weighted_rows = {c: _for_parts(weighted, c) for c in (1, 2)}
        self.plane_weights = np.outer(spatial.axis_weights(0),
                                      spatial.axis_weights(1)).ravel()[:half]

    def operand(self, parts: np.ndarray) -> np.ndarray:
        """The synthesis operand of the (c, |lambda| count, K, K) parts P,
        real (|lambda| count, K(K+1), 2c).  Over the triangle,
        Tr[P G~] = lo . G~ + up . conj(G~), lo_{kl} = P_{lk},
        up_{kl} = (-1)^{k+l} P_{kl} (zero on the diagonal), that is
        (lo + up) . Re G~ + i (lo - up) . Im G~.  Row 2r + c' pairs with
        column 2r + c' of `real` (c' = 0 the real part, 1 the imaginary one)
        and holds lo + up, resp. i (lo - up); columns 2p and 2p + 1 are the
        real and imaginary parts of part p's trace."""
        k, l = self.lower
        lo = parts[..., l, k]
        up = self.sign * parts[..., k, l]
        w = np.empty(lo.shape[1:] + (2, lo.shape[0]), dtype=complex)
        w[..., 0, :] = np.moveaxis(lo + up, 0, -1)
        w[..., 1, :] = np.moveaxis(1j * (lo - up), 0, -1)
        return w.view(float).reshape(w.shape[0], -1, 2 * lo.shape[0])

    def unfold(self, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
        """The (..., K, K) blocks with B_{lk} = lo_{kl} (the diagonal too) and
        B_{kl} = (-1)^{k+l} up_{kl} over the triangle k > l."""
        k, l = self.lower
        blocks = np.empty(lo.shape[:-1] + (self.order, self.order), dtype=complex)
        blocks[..., k, l] = self.sign * up
        blocks[..., l, k] = lo
        return blocks


def _for_parts(rows: np.ndarray, c: int) -> np.ndarray:
    """The (|lambda| count, 2, Nt) rows for c real parts interleaved as
    (t, part): (2c |lambda| count, c Nt), each row on its own part alone."""
    nt = rows.shape[-1]
    return (rows[:, None, :, :, None] * np.eye(c)[:, None, None, :]).reshape(-1, nt * c)


_PLAN_CACHE: dict = {}


def _plan(grid: ModeGrid, spatial: SpatialGrid) -> _TransformPlan:
    """The plan of the (grid, spatial) pair.  The cache holds the last pair's
    plan alone, since every caller works on one pair at a time; a new pair
    frees the old plan before it builds its own."""
    key = (grid.stamp, spatial)
    if key not in _PLAN_CACHE:
        _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = _TransformPlan(grid, spatial)
    return _PLAN_CACHE[key]


def clear_plan_cache():
    _PLAN_CACHE.clear()


def forward_transform(f: SpatialField, grid: ModeGrid,
                      boundary_tol: float = _BOUNDARY_DECAY) -> SpectralField:
    """Group Fourier transform: f_hat(lambda)_{kl} by spatial quadrature.

    The trapezoid sum of f(g) conj(M(lambda, g)_{lk}) over the grid with the
    plan's exact coefficients, taken for the real part of f and, when f is
    complex, its imaginary part, as c real parts.  Since
    M(-lambda, g) = conj M(lambda, g), a real part's transform is Hermitian:
    it is computed at +|lambda| alone and read at -lambda as its conjugate,
    so float64 samples give an exactly Hermitian field.  The real view of
    the samples is folded across the origin of the (x, y) plane into fresh
    arrays, w_x w_y (f(j) + f(j')) for the even rows and
    w_x w_y (f(j) - f(j')) for the odd ones; one real matmul per fold takes
    the t axis with the plan's `weighted_rows` (the real and imaginary parts
    of each part's t-transform ft at each |lambda|), and one batched real
    matmul per parity contracts them with the half-plane tables.
    sum_j G~ ft and sum_j G~ conj(ft) follow from the two parts of ft, so
    that the stored G~_{kl} and the mirrored G~_{lk} = (-1)^{k+l} conj(G~_{kl})
    both come out.
    `representation_matrix` gives the same entries by quadrature,
    independently of the tables.  Warns when f fails the boundary-decay
    precondition; pass boundary_tol=None when the caller has already vetted
    the box.
    """
    if boundary_tol is not None:
        decay = f.boundary_decay()
        if decay > boundary_tol:
            warnings.warn(
                f"boundary decay {decay:.3e} exceeds {boundary_tol:.0e}; "
                "the box truncates the integrand",
                stacklevel=2,
            )
    plan = _plan(grid, f.grid)
    table, e = plan.real, plan.even
    groups, half, _ = table.shape
    mirrored = plan.points - half
    c = 2 if np.iscomplexobj(f.samples) else 1
    # the parts interleaved, (point, t, part), folded into fresh arrays
    parts = np.ascontiguousarray(f.samples).reshape(plan.points, -1).view(float)
    mirror = parts[::-1][:mirrored]
    even = np.empty((half, parts.shape[1]))
    np.add(parts[:mirrored], mirror, out=even[:mirrored])
    even[mirrored:] = parts[mirrored:half]
    odd = parts[:mirrored] - mirror
    even *= plan.plane_weights[:, None]
    odd *= plan.plane_weights[:mirrored, None]
    # p, q = sum_j G~ Re ft, sum_j G~ Im ft of each part: rows (part, Re/Im)
    rows = plan.weighted_rows[c]
    pq = np.empty((groups, 2 * c, table.shape[2]))
    np.matmul((rows @ even.T).reshape(groups, 2 * c, half), table[:, :, :e],
              out=pq[:, :, :e])
    np.matmul((rows @ odd.T).reshape(groups, 2 * c, mirrored), table[:, :mirrored, e:],
              out=pq[:, :, e:])
    pq = pq.view(complex).reshape(groups, c, 2, -1)
    p, q = pq[:, :, 0], pq[:, :, 1]
    # f_hat_{kl} = sum_g w f(g) conj(M(lambda, g)_{lk}): at +|lambda| each
    # part's mirror f_hat_{lk} is conj(sum_j G~ conj(ft)) and f_hat_{kl} is
    # (-1)^{k+l} sum_j G~ ft; at -|lambda| the conjugate
    plus = plan.unfold(np.conjugate(p) + 1j * np.conjugate(q), p + 1j * q)
    blocks = np.stack([plus, np.conjugate(plus)])[plan.column, plan.group]
    coefficients = blocks[:, 0] if c == 1 else blocks[:, 0] + 1j * blocks[:, 1]
    return SpectralField(grid, coefficients)


def synthesize_on_grid(F: SpectralField, spatial: SpatialGrid) -> SpatialField:
    """Inverse transform sampled on a full spatial grid.

    Sum over lambda nodes of weight * Tr[F(lambda) M(lambda, g)] with the
    grid's weights.  Fold the weights in, G = w F, with a missing
    mirror node read as zero.  Since M(-lambda, g) = conj M(lambda, g), the
    nodes +-lambda sum to Re Tr[A M] + i Re Tr[B M] at +|lambda|, where
    A = G(lambda) + conj G(-lambda) and B = (G(lambda) - conj G(-lambda)) / i.
    An exactly Hermitian field has B = 0 and float64 samples; otherwise A
    and B are the c = 2 parts.  Tr[P G~] is the folded triangle of each
    part P against the stored G~_{kl} and their mirrors
    G~_{lk} = (-1)^{k+l} conj(G~_{kl}) (`_TransformPlan.operand`): per
    parity, one batched real matmul against the half-plane tables gives
    every |lambda|'s (x, y) slab there, E for the even rows and O for the
    odd ones, and one real matmul with the plan's `rows` takes each to the
    t axis, into the real view of the samples; a point gets E + O and its
    mirror E - O.
    `inverse_transform` evaluates the same sum pointwise by quadrature.
    """
    grid = F.grid
    plan = _plan(grid, spatial)
    table, e = plan.real, plan.even
    groups, half, _ = table.shape
    mirrored = plan.points - half
    g = np.zeros((2, groups) + F.coefficients.shape[1:], dtype=complex)
    g[plan.column, plan.group] = grid.weights[:, None, None] * F.coefficients
    mirror = np.conjugate(g[1])
    herm, anti = g[0] + mirror, -1j * (g[0] - mirror)
    parts = np.stack([herm, anti]) if anti.any() else herm[None]
    c = parts.shape[0]
    w = plan.operand(parts)
    rows = plan.rows[c]
    slabs = np.empty((half, groups, 2 * c))
    np.matmul(table[:, :, :e], w[:, :e], out=slabs.transpose(1, 0, 2))
    # the parts interleaved, (point, t, part): the real view of the samples
    samples = np.empty((plan.points, rows.shape[1]))
    np.matmul(slabs.reshape(half, -1), rows, out=samples[:half])
    # the odd rows reuse the first `mirrored` points of the slabs
    slabs = slabs[:mirrored]
    np.matmul(table[:, :mirrored, e:], w[:, e:], out=slabs.transpose(1, 0, 2))
    odd = slabs.reshape(mirrored, -1) @ rows
    np.subtract(samples[:mirrored], odd, out=samples[half:][::-1])
    samples[:mirrored] += odd
    if c == 2:
        samples = samples.view(complex)
    return SpatialField(spatial, samples.reshape(spatial.shape))


def inverse_transform(F: SpectralField, points) -> np.ndarray:
    """Inverse transform at a list of GroupElements (n=1), direct evaluation:
    the sum over nodes of weight * Tr[F(lambda) M(lambda, g)], each M from
    `representation_matrix`, so by quadrature and not from the plan's tables."""
    grid = F.grid
    if grid.n != 1:
        raise NotImplementedError("pointwise inversion is implemented for n = 1")
    nodes = list(zip(grid.lambda_nodes, grid.weights, F.coefficients))
    # Tr[F M] = sum over (k, l) of F_kl M_lk
    return np.array([sum(w * np.sum(c * representation_matrix(lam, g, len(c)).T)
                         for lam, w, c in nodes) for g in points], dtype=complex)


def calibrate_plancherel(reference: SpatialField, grid: ModeGrid) -> float:
    """Measure the Plancherel constant on a reference and store it.

    Solves c * sum_q base_w_q ||f_hat(lambda_q)||_HS^2 = ||f||_{L^2}^2 and
    sets grid.plancherel_constant = c.  The constant is a property of the
    representation convention and quadrature, not of the reference; the test
    suite checks stability across references.
    """
    return _calibrate_on(reference, forward_transform(reference, grid))


def _calibrate_on(reference: SpatialField, fhat: SpectralField) -> float:
    """calibrate_plancherel from the reference and its transform fhat; the
    constant is stored on fhat.grid."""
    spatial_sq = reference.l2_norm() ** 2
    if spatial_sq == 0.0:
        raise ValueError("reference field has zero norm; calibration is degenerate")
    hs = np.sum(np.abs(fhat.coefficients) ** 2, axis=(1, 2))
    raw = float(np.sum(fhat.grid.base_weights * hs))
    if raw == 0.0:
        raise ValueError("reference has no spectral mass on this grid")
    c = spatial_sq / raw
    fhat.grid.plancherel_constant = c
    return c
