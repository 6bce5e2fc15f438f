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
G~_{lk} = (-1)^{k+l} conj(G~_{kl}), with a real diagonal, so the grid
transforms run on exact tables of the triangle k >= l, one per |lambda|
(`_TransformPlan`), and read the rest by that symmetry.  `representation_matrix`
integrates G with a Gauss-Hermite rule centred at beta/2 instead (`_g_block`),
and `inverse_transform` sums its traces against F: one quadrature oracle,
independent of the tables.

The Plancherel normalization of this convention is not hardcoded anywhere;
`calibrate_plancherel` measures it once per grid and stores it on the grid.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .group import GroupElement, enumerate_multi_indices
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
        return np.linspace(-self.half_widths[i], self.half_widths[i], self.shape[i])

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
    """Complex samples over a SpatialGrid."""

    grid: SpatialGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
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


_RULE_CACHE: dict = {}
_RULE_LOCK = threading.Lock()


def _rule(count: int):
    with _RULE_LOCK:
        if count not in _RULE_CACHE:
            _RULE_CACHE[count] = gauss_hermite_rule(count)
        return _RULE_CACHE[count]


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
    """Matrix block M_{kl} = (pi_lambda(g) e_l, e_k) in the scaled Hermite basis.

    For n=1 the indices are 0..K-1 (columns) and 0..rows-1; `rows` defaults
    to K.  For n > 1 both run over the multi-indices of degree < K, in the
    order of `enumerate_multi_indices`.  Extra rows let callers verify
    column mass completeness, isolating quadrature error from truncation.
    """
    if lam == 0:
        raise ValueError("representation is undefined at lambda = 0")
    n = g.n
    alpha = np.sqrt(abs(lam))
    sgn = 1.0 if lam > 0 else -1.0
    if n == 1:
        row_idx = [(k,) for k in range(rows if rows is not None else K)]
        col_idx = [(k,) for k in range(K)]
    else:
        row_idx = col_idx = enumerate_multi_indices(n, 2 * (K - 1) + n)
    max_order = 1 + max(max(k) for k in row_idx + col_idx)
    gmax = alpha * float(np.max(np.abs(np.concatenate([g.x, g.y])))) if n else 0.0
    rule = _rule(_rule_size(gmax, 2 * max_order))
    blocks = [
        _g_block(alpha * g.y[j], sgn * alpha * g.x[j], max_order, max_order, rule)
        for j in range(n)
    ]
    rows_a = np.array(row_idx)
    cols_a = np.array(col_idx)
    M = np.ones((len(row_idx), len(col_idx)), dtype=complex)
    for j in range(n):
        M = M * blocks[j][np.ix_(rows_a[:, j], cols_a[:, j])]
    phase = np.exp(1j * lam * (g.t - 0.5 * float(np.dot(g.x, g.y))))
    return phase * M


def _closed_form_tables(alphas: np.ndarray, x: np.ndarray, y: np.ndarray,
                        K: int) -> np.ndarray:
    """G~_{kl}(alpha y, alpha x) for l <= k < K by the ladder recurrences.

    With z = alpha (y + i x) / sqrt(2): G~_00 = exp(-|z|^2 / 2),
    G~_{k+1,0} = z G~_{k0} / sqrt(k+1) and
    G~_{k,l+1} = (sqrt(k) G~_{k-1,l} - conj(z) G~_{kl}) / sqrt(l+1).
    The last reads only entries with k - 1 >= l, so the recurrence never
    leaves the lower triangle k >= l.  The upper one follows from the closed
    form sqrt(l!/k!) z^{k-l} L_l^{(k-l)}(|z|^2) e^{-|z|^2/2}:
    G~_{lk} = (-1)^{k+l} conj(G~_{kl}), and the diagonal is real.
    Shape (K(K+1)/2, len(alphas), len(x), len(y)), the triangle packed column
    by column: column l holds k = l..K-1, the order of `np.triu_indices(K)`
    read as (l, k).  The triangle axis leads, so each step of the recurrence
    runs over contiguous slabs.
    """
    z = (alphas[:, None, None] / np.sqrt(2.0)) * (y[None, None, :] + 1j * x[None, :, None])
    tab = np.empty((K * (K + 1) // 2,) + z.shape, dtype=complex)
    tab[0] = np.exp(-0.5 * (z.real ** 2 + z.imag ** 2))
    for k in range(1, K):
        np.multiply(z, tab[k - 1], out=tab[k])
        tab[k] *= 1.0 / np.sqrt(k)
    minus_zbar = np.negative(np.conjugate(z, out=z), out=z)  # z is done with
    scratch = np.empty_like(z)
    for l in range(K - 1):
        # (k, l) sits at base(l) + k, base(l) = l K - l (l + 1) / 2
        col = l * K - l * (l + 1) // 2
        nxt = col + K - l - 1
        for k in range(l + 1, K):
            out = tab[nxt + k]
            np.multiply(minus_zbar, tab[col + k], out=out)
            np.multiply(np.sqrt(k), tab[col + k - 1], out=scratch)
            out += scratch
            out *= 1.0 / np.sqrt(l + 1)
    return tab


class _TransformPlan:
    """Exact matrix coefficients of the n=1 grid transforms for one
    (mode grid, spatial grid) pair, built once.

    On a grid point g = (x, y, t), M(lambda, g)_{kl} = e^{i lambda t}
    G~_{kl}(sqrt|lambda| y, sign(lambda) sqrt|lambda| x), where G~ is the
    closed-form Fourier-Wigner transform of Hermite functions (Folland 1989;
    Thangavelu 1993) of `_closed_form_tables`.  -lambda conjugates G~, so
    the nodes +-lambda share one table, and G~_{lk} = (-1)^{k+l}
    conj(G~_{kl}) leaves only the triangle k >= l to store: `table[p]` is
    the (K(K+1)/2, Nx*Ny) matrix of the p-th |lambda|, rows (k, l) with
    k >= l in the packing of `_closed_form_tables`, columns (x, y).  The set
    holds (|lambda| count) * K(K+1)/2 * Nx * Ny * 16 bytes and no quadrature
    rule.  Node q reads `table[group[q]]`; column[q] is 1 when lambda < 0.

    A K x K block enters as two triangle vectors (`fold`): lo_{kl} = F_{lk}
    pairs with the stored G~_{kl}, up_{kl} = (-1)^{k+l} F_{kl} with the
    mirrored G~_{lk}.  At +lambda G~ is the table on lo and its conjugate on
    up; at -lambda the other way round.
    """

    def __init__(self, grid: ModeGrid, spatial: SpatialGrid):
        if grid.n != 1:
            raise NotImplementedError("grid transforms are implemented for n = 1")
        self.order = K = grid.block_size
        absl, self.group = np.unique(np.abs(grid.lambda_nodes), return_inverse=True)
        self.column = (grid.lambda_nodes < 0).astype(int)
        self.slot = 2 * self.group + self.column
        l, k = np.triu_indices(K)
        self.lower = (k, l)
        self.sign = np.where(k > l, (-1.0) ** (k + l), 0.0)
        x, y, _ = spatial.axes
        tab = _closed_form_tables(np.sqrt(absl), x, y, K)
        self.table = tab.reshape(k.size, absl.size, -1).transpose(1, 0, 2)

    def fold(self, blocks: np.ndarray):
        """The (lo, up) triangle vectors, each (Q, K(K+1)/2), of the (Q, K, K)
        blocks; up is zero on the diagonal."""
        k, l = self.lower
        return blocks[:, l, k], self.sign * blocks[:, k, l]

    def unfold(self, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
        """Inverse of `fold`: the (Q, K, K) blocks, the diagonal from lo."""
        k, l = self.lower
        blocks = np.empty((lo.shape[0], self.order, self.order), dtype=complex)
        blocks[:, k, l] = self.sign * up
        blocks[:, l, k] = lo
        return blocks

    def pair(self, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
        """Stack per-node vectors lo, up (Q, m) as (|lambda| count, 4, m):
        slots 0 and 1 take +lambda's lo and conj(up), slots 2 and 3 take
        -lambda's up and conj(lo), so that each node's slots pair with the
        table and its conjugate; a missing mirror stays zero."""
        out = np.zeros((self.table.shape[0], 4, lo.shape[1]), dtype=complex)
        out[self.group, 3 * self.column] = lo
        out[self.group, 1 + self.column] = up
        odd = out[:, 1::2]
        np.conjugate(odd, out=odd)
        return out

    def unpair(self, stacked: np.ndarray):
        """Inverse of `pair`, conjugating the odd slots of stacked in place:
        the per-node (lo, up), each (Q, m)."""
        odd = stacked[:, 1::2]
        np.conjugate(odd, out=odd)
        return stacked[self.group, 3 * self.column], stacked[self.group, 1 + self.column]

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        """lo + up of `unpair` without gathering the nodes: a (2 |lambda|
        count, m) view of stacked, which it overwrites, with node q in row
        slot[q] and a missing mirror's row zero."""
        halves = stacked.reshape(-1, 2, stacked.shape[-1])
        direct, conjugated = halves[:, 0], halves[:, 1]
        np.conjugate(conjugated, out=conjugated)
        direct += conjugated
        return direct


_PLAN_CACHE: dict = {}
_PLAN_LOCK = threading.Lock()


def _plan(grid: ModeGrid, spatial: SpatialGrid) -> _TransformPlan:
    key = (grid.stamp, spatial)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is None:
            plan = _TransformPlan(grid, spatial)
            if len(_PLAN_CACHE) > 8:
                _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
            _PLAN_CACHE[key] = plan
    return plan


def clear_plan_cache():
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()


def forward_transform(f: SpatialField, grid: ModeGrid,
                      boundary_tol: float = _BOUNDARY_DECAY) -> SpectralField:
    """Group Fourier transform: f_hat(lambda)_{kl} by spatial quadrature.

    The trapezoid sum of f(g) conj(M(lambda, g)_{lk}) over the grid with the
    plan's exact coefficients: the t axis first, one Fourier factor per
    node, then one batched complex matmul of the |lambda| triangle tables
    against four paired columns per |lambda| (each node's t-transform and
    its conjugate, so that the stored G~_{kl} and the mirrored
    G~_{lk} = (-1)^{k+l} conj(G~_{kl}) both come out).
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
    fw = f.samples * f.grid.weight_cube()
    char = np.exp(-1j * np.outer(f.grid.axis(2), grid.lambda_nodes))
    ft = np.tensordot(fw, char, axes=([2], [0])).reshape(-1, grid.node_count)
    # conj(f_hat_{kl}) = sum_g M_{lk} conj(ft), the synthesis' pairing of M
    # run backwards: the matmul gives the (lo, up) triangles of conj(f_hat)
    ftc = np.conjugate(ft, out=ft).T
    stacked = plan.table @ plan.pair(ftc, ftc).transpose(0, 2, 1)
    lo, up = plan.unpair(stacked.transpose(0, 2, 1))
    return SpectralField(grid, plan.unfold(lo, up).conj())


def synthesize_on_grid(F: SpectralField, spatial: SpatialGrid) -> SpatialField:
    """Inverse transform sampled on a full spatial grid.

    Sum over lambda nodes of weight * Tr[F(lambda) M(lambda, g)] with the
    calibrated grid weights.  Tr[F G~] is the folded triangle of F against
    the stored G~_{kl} and their mirrors G~_{lk} = (-1)^{k+l} conj(G~_{kl}):
    one batched complex matmul of four paired rows per |lambda| against the
    triangle tables gives every node's (x, y) slab, and one matmul the t
    axis.  `inverse_transform` evaluates the same sum pointwise by quadrature.
    """
    grid = F.grid
    plan = _plan(grid, spatial)
    slabs = plan.merge(plan.pair(*plan.fold(F.coefficients)) @ plan.table)
    char = np.zeros((slabs.shape[0], spatial.shape[2]), dtype=complex)
    char[plan.slot] = (np.exp(1j * np.outer(grid.lambda_nodes, spatial.axis(2)))
                       * grid.weights[:, None])
    samples = slabs.T @ char
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
