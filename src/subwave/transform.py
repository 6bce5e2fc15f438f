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
Centering the Gauss-Hermite rule at beta/2 folds the full Gaussian factor of
the integrand into the rule weight, so only Hermite polynomial tables and one
oscillatory phase remain; the rule size grows like gamma_max^2 to keep the
phase resolved.  In the forward and inverse grid transforms the e^{i lambda
x.y/2} phases cancel algebraically against the centering phase, which the
implementation exploits.

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
    "representation_matrix",
    "forward_transform",
    "inverse_transform",
    "synthesize_on_grid",
    "calibrate_plancherel",
    "save_spatial_field",
    "load_spatial_field",
    "clear_plan_cache",
]

_MAGIC_SP = b"SUBWAVE-SP1\n"

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

    def signature(self) -> tuple:
        return (self.half_widths, self.shape)


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
                          rows: int | None = None, indices=None) -> np.ndarray:
    """Matrix block M_{kl} = (pi_lambda(g) e_l, e_k) in the scaled Hermite basis.

    For n=1 the indices are 0..K-1 (columns) and 0..rows-1; `rows` defaults
    to K.  For n > 1 pass explicit multi-index tuples via `indices` (used for
    both rows and columns); K is then ignored.  Extra rows let callers verify
    column mass completeness, isolating quadrature error from truncation.
    """
    if lam == 0:
        raise ValueError("representation is undefined at lambda = 0")
    n = g.n
    alpha = np.sqrt(abs(lam))
    sgn = 1.0 if lam > 0 else -1.0
    if indices is None:
        if n == 1:
            row_idx = [(k,) for k in range(rows if rows is not None else K)]
            col_idx = [(k,) for k in range(K)]
        else:
            idx = enumerate_multi_indices(n, 2 * (K - 1) + n)
            row_idx = col_idx = idx
    else:
        row_idx = col_idx = [tuple(k) for k in indices]
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


class _TransformPlan:
    """Per (mode grid, spatial grid) tables for the n=1 grid transforms.

    Hermite tables depend on lambda only through |lambda|, so mirrored nodes
    share entries.  Population is locked; reads after that are lock-free.
    """

    def __init__(self, grid: ModeGrid, spatial: SpatialGrid, cache_bytes: int = 1 << 28):
        if grid.n != 1:
            raise NotImplementedError("grid transforms are implemented for n = 1")
        self.grid = grid
        self.spatial = spatial
        self.order = int(max(k[0] for k in grid.multi_indices)) + 1
        lam_max = float(np.max(np.abs(grid.lambda_nodes)))
        alpha_max = np.sqrt(lam_max)
        x, y, _ = spatial.axes
        gamma_max = alpha_max * float(np.max(np.abs(x)))
        self.rule_count = _rule_size(gamma_max, 2 * self.order)
        self.rule = _rule(self.rule_count)
        entry = self.rule_count * len(y) * self.order * 8 * 2 + self.rule_count * len(y) * 8
        self.max_entries = max(2, int(cache_bytes // max(entry, 1)))
        self._tables: dict = {}
        self._lock = threading.Lock()

    def tables(self, lam: float):
        """(HP, HM, wdamp) for |lam|: HP[i,y,l]=h_l(u_i+beta/2), wdamp[i,y]."""
        key = float(abs(lam))
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        u, wq = self.rule
        beta = np.sqrt(key) * self.spatial.axis(1)
        args_p = u[:, None] + 0.5 * beta[None, :]
        args_m = u[:, None] - 0.5 * beta[None, :]
        hp = hermite_polynomial_table(self.order, args_p)
        hm = hermite_polynomial_table(self.order, args_m)
        wdamp = wq[:, None] * np.exp(-0.25 * beta * beta)[None, :]
        with self._lock:
            if len(self._tables) >= self.max_entries:
                self._tables.pop(next(iter(self._tables)))
            self._tables[key] = (hp, hm, wdamp)
        return self._tables[key]

    def phases(self, lam: float) -> np.ndarray:
        """exp(-i * gamma(x) * u_i) with shape (rule, Nx)."""
        u = self.rule[0]
        gamma = np.sign(lam) * np.sqrt(abs(lam)) * self.spatial.axis(0)
        return np.exp(-1j * np.outer(u, gamma))


_PLAN_CACHE: dict = {}
_PLAN_LOCK = threading.Lock()


def _plan(grid: ModeGrid, spatial: SpatialGrid) -> _TransformPlan:
    key = (grid.stamp, spatial.signature())
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

    Computes the quadrature of f(g) conj(M(lambda, g)_{lk}) over the grid.
    Warns when f fails the boundary-decay precondition; pass boundary_tol=None
    when the caller has already vetted the box.
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
    t_ax = f.grid.axis(2)
    fw = f.samples * f.grid.weight_cube()
    # t-axis first: one nonuniform Fourier factor per lambda node
    char = np.exp(-1j * np.outer(t_ax, grid.lambda_nodes))
    ft = np.tensordot(fw, char, axes=([2], [0]))
    out = np.empty(grid.field_shape(), dtype=complex)
    for q, lam in enumerate(grid.lambda_nodes):
        hp, hm, wdamp = plan.tables(lam)
        ph = plan.phases(lam)
        a = np.tensordot(ph, ft[:, :, q], axes=([1], [0]))  # (rule, Ny)
        wa = wdamp * a
        # f_hat_{kl}: k rides the (u - beta/2) table, l the (u + beta/2) one
        out[q] = np.tensordot(wa[:, :, None] * hm, hp, axes=([0, 1], [0, 1]))
    return SpectralField(grid, out)


def synthesize_on_grid(F: SpectralField, spatial: SpatialGrid) -> SpatialField:
    """Inverse transform sampled on a full spatial grid.

    Sum over lambda nodes of weight * Tr[F(lambda) M(lambda, x)] with the
    calibrated grid weights.  Nodes with a nonzero block are grouped by
    |lambda|, which fixes the plan's real Hermite tables and the real phase
    tables C = cos(u sqrt|lambda| x), S = sin(u sqrt|lambda| x); the phase of
    a node is C + i sign(lambda) S, so mirrored nodes share both.  Per group,
    one real matmul contracts the l index against the real and imaginary
    parts of every block, one einsum the k index, and two real matmuls
    (C^T and S^T) the quadrature axis; each slab is then assembled with the
    sign of its lambda.  A node without a mirror is a group of one.
    """
    grid = F.grid
    plan = _plan(grid, spatial)
    t_ax = spatial.axis(2)
    x = spatial.axis(0)
    nx = spatial.shape[0]
    ny = spatial.shape[1]
    K = plan.order
    u = plan.rule[0]
    groups: dict = {}
    for q, lam in enumerate(grid.lambda_nodes):
        if F.coefficients[q].any():
            groups.setdefault(float(abs(lam)), []).append(q)
    slabs = np.zeros((nx, ny, grid.node_count), dtype=complex)
    for key, qs in groups.items():
        hp, hm, wdamp = plan.tables(key)
        g = len(qs)
        blocks = F.coefficients[qs]  # (g, k, l)
        # rhs[l, (part, j, k)] = Re / Im F_j[k, l]
        rhs = np.concatenate([blocks.real, blocks.imag]).transpose(2, 0, 1)
        # T[i, y, (part, j)] = sum_{kl} F_j[k, l] hp[i, y, l] hm[i, y, k]
        tiy = np.einsum("iypk,iyk->iyp",
                        (hp.reshape(-1, K) @ rhs.reshape(K, 2 * g * K))
                        .reshape(*hp.shape[:2], 2 * g, K), hm)
        tw = (tiy * wdamp[:, :, None]).reshape(len(u), -1)
        arg = np.outer(u, np.sqrt(key) * x)
        cx = (np.cos(arg).T @ tw).reshape(nx, ny, 2, g)
        sx = (np.sin(arg).T @ tw).reshape(nx, ny, 2, g)
        sign = np.sign(grid.lambda_nodes[qs])
        slabs[:, :, qs] = (cx[:, :, 0] - sign * sx[:, :, 1]
                           + 1j * (cx[:, :, 1] + sign * sx[:, :, 0]))
    char = np.exp(1j * np.outer(grid.lambda_nodes, t_ax)) * grid.weights[:, None]
    samples = slabs.reshape(nx * ny, -1) @ char
    return SpatialField(spatial, samples.reshape(nx, ny, -1))


def inverse_transform(F: SpectralField, points) -> np.ndarray:
    """Inverse transform at a list of GroupElements (n=1), direct evaluation."""
    grid = F.grid
    if grid.n != 1:
        raise NotImplementedError("pointwise inversion is implemented for n = 1")
    pts = list(points)
    if not pts:
        return np.zeros(0, dtype=complex)
    xs = np.array([p.x[0] for p in pts])
    ys = np.array([p.y[0] for p in pts])
    ts = np.array([p.t for p in pts])
    order = int(max(k[0] for k in grid.multi_indices)) + 1
    lam_max = float(np.max(np.abs(grid.lambda_nodes)))
    gmax = np.sqrt(lam_max) * float(np.max(np.abs(xs), initial=0.0))
    u, wq = _rule(_rule_size(gmax, 2 * order))
    vals = np.zeros(len(pts), dtype=complex)
    for q, lam in enumerate(grid.lambda_nodes):
        alpha = np.sqrt(abs(lam))
        beta = alpha * ys
        gamma = np.sign(lam) * alpha * xs
        hp = hermite_polynomial_table(order, u[None, :] + 0.5 * beta[:, None])
        hm = hermite_polynomial_table(order, u[None, :] - 0.5 * beta[:, None])
        osc = wq[None, :] * np.exp(1j * gamma[:, None] * u[None, :])
        tr = np.einsum("kl,pil,pik,pi->p", F.coefficients[q], hp, hm, osc, optimize=True)
        phase = np.exp(1j * lam * ts) * np.exp(0.5j * gamma * beta) \
            * np.exp(-0.25 * beta * beta) * np.exp(-0.5j * lam * xs * ys)
        vals += grid.weights[q] * phase * tr
    return vals


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


def save_spatial_field(field: SpatialField, path: str):
    import json

    header = {
        "half_widths": list(field.grid.half_widths),
        "shape": list(field.grid.shape),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC_SP)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(np.ascontiguousarray(field.samples, dtype="<c16").tobytes())


def load_spatial_field(path: str) -> SpatialField:
    import json

    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC_SP))
        if magic != _MAGIC_SP:
            raise ValueError(f"not a spatial field container: {path}")
        hlen = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = fh.read()
    grid = SpatialGrid(tuple(header["half_widths"]), tuple(header["shape"]))
    samples = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    return SpatialField(grid, samples.astype(complex))
