"""Weighted Bochner identities, the Laplacian comparison bound, and the
rigidity identities of split spaces.

The comparison bound for a density f along a unit-speed minimal geodesic
from the base point is

    (n - 1) / ( v^2(r) * int_0^r v^{-2}(t) dt ),        v = e^{f/(n-1)},

which collapses to (n-1)/r for constant f.  On models verified to satisfy
CD(0,1) the weighted Laplacian of the distance function stays below this
bound; the scalar lambda = v^2 * (weighted Laplacian of r) then obeys the
comparison ODE inequality lambda' <= -lambda^2 / (v^2 (n-1)) along radial
geodesics.

The Bochner checks difference derived fields (|grad h|^2, Lap_f h), each
stencil's rows evaluated as one ``BlockGeometry`` (``geometry_field``).

Distance functions are supplied analytically (radial models, split-space r);
no boundary-value solving happens here.  Sub-level barrier arguments have no
pointwise numerical analogue, so only the smooth split-space case of the
vanishing-Laplacian identity is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .chart_core import (
    BLOCK_POINTS,
    BlockGeometry,
    DensitySpec,
    MetricSpec,
    Point,
    ScalarField,
    as_scalar_field,
    field_rows,
    first_difference,
    flat_jet,
    geometry_field,
    in_blocks,
    r_coordinate_field,
    simpson,
    stencil_values,
)
from .errors import CDViolation, EmptySamples, NotDistanceFunction, ZeroRadius
from .weighted_curvature import GridSpec, cd_verify, generalized_ricci_at, inset_box, sample_box

if TYPE_CHECKING:
    from .warped_products import SplitSpaceSpec

#: Samples of the quadrature behind each comparison bound of a radial model.
QUAD_POINTS = 401
#: Relative tolerance of the closed-form weighted Laplacian of a radial
#: model against the chart machinery.
CROSS_CHECK_TOL = 1e-6
#: Rigidity tolerances: the weighted Laplacian of r and of -r, the Hessian
#: proportionality, and the radial generalized Ricci at N = 1.
RIGIDITY_TOL_LAP = 1e-6
RIGIDITY_TOL_HESS = 1e-5
RIGIDITY_TOL_RIC = 1e-6


# ---------------------------------------------------------------------------
# comparison bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonSample:
    r: float
    lap_f_r: float
    bound: float
    slack: float
    v_integral: float


def comparison_bound(f_samples, n: int, r: float) -> float:
    """(n-1) / (v^2(r) int_0^r v^{-2}) from samples (t, f(gamma(t))) on [0, r].

    The integrand is normalized by f(r) so constant densities cancel exactly
    rather than to quadrature accuracy.
    """
    if r <= 0:
        raise ZeroRadius(f"comparison radius must be positive, got {r}")
    arr = np.asarray(f_samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise EmptySamples("need at least 3 (t, f) samples")
    ts, fs = arr[:, 0], arr[:, 1]
    if ts[0] > 1e-12 or ts[-1] < r - 1e-9 * max(1.0, r):
        raise ValueError(f"samples must cover [0, {r}], got [{ts[0]}, {ts[-1]}]")
    mask = ts <= r + 1e-12
    ts, fs = ts[mask], fs[mask]
    integrand = np.exp(-2.0 * (fs - fs[-1]) / (n - 1))
    integral = float(simpson(integrand, ts))
    return (n - 1) / integral


# ---------------------------------------------------------------------------
# radial models on flat space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialModel:
    """Flat R^n with a rotationally symmetric density f(rho), rho = |x|.

    Supplies the distance function, its weighted Laplacian, and everything
    the comparison checks need in closed form (valid away from the origin).
    """

    n: int
    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]
    name: str = "radial model"

    def metric_spec(self) -> MetricSpec:
        n = self.n
        return MetricSpec(dim=n, jet=flat_jet(n), name=self.name)

    def density(self) -> ScalarField:
        def value(p: Point) -> float:
            return self.f(float(np.linalg.norm(p)))

        def grad(p: Point) -> np.ndarray:
            rho = float(np.linalg.norm(p))
            return self.df(rho) * p / rho

        def hess(p: Point) -> np.ndarray:
            rho = float(np.linalg.norm(p))
            rr = np.outer(p, p) / (rho * rho)
            return self.d2f(rho) * rr + self.df(rho) / rho * (np.eye(self.n) - rr)

        return ScalarField(value=value, grad=grad, hess=hess)

    def r_field(self) -> ScalarField:
        def value(p: Point) -> float:
            return float(np.linalg.norm(p))

        def grad(p: Point) -> np.ndarray:
            return p / float(np.linalg.norm(p))

        def hess(p: Point) -> np.ndarray:
            rho = float(np.linalg.norm(p))
            return (np.eye(self.n) - np.outer(p, p) / (rho * rho)) / rho

        return ScalarField(value=value, grad=grad, hess=hess)

    def lap_f_r(self, rho: float) -> float:
        """Weighted Laplacian of the distance function: (n-1)/rho - f'(rho)."""
        return (self.n - 1) / rho - self.df(rho)

    def cd_grid(self, rho_grid) -> GridSpec:
        pts = np.zeros((len(rho_grid), self.n))
        pts[:, 0] = np.asarray(rho_grid, dtype=float)
        return GridSpec(points=pts, description=f"radial ray, {len(rho_grid)} radii")

    # adapters for the comparison ODE trace
    @property
    def dim(self) -> int:
        return self.n

    def v2_at(self, p: Point) -> float:
        rho = float(np.linalg.norm(p))
        return math.exp(2.0 * self.f(rho) / (self.n - 1))

    def lap_f_r_at(self, p: Point) -> float:
        return self.lap_f_r(float(np.linalg.norm(p)))


def radial_comparison_check(model: RadialModel, rho_grid):
    """ComparisonSamples over the radii: analytic weighted Laplacian of the
    distance function vs the comparison bound.

    Refuses (CDViolation) when cd_verify fails CD(0,1) on the radial grid;
    each analytic Laplacian is cross-checked against the chart machinery at
    rho * e_1, all radii walked once in blocks (``in_blocks``); f is taken
    at every radius's quadrature samples in one ``field_rows`` call.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    spec, density, grid = model.metric_spec(), model.density(), model.cd_grid(rho_grid)
    rep = cd_verify(spec, density, 0.0, 1.0, grid)
    if not rep.passed:
        raise CDViolation(
            f"model is not CD(0,1) on the grid: min eigenvalue "
            f"{rep.min_eigenvalue:.6g} at {rep.witness}")
    r_field = model.r_field()

    def stacked(s: slice) -> np.ndarray:
        return BlockGeometry(spec, grid.points[s]).weighted_laplacian(density, r_field)

    nums = in_blocks(len(rho_grid), BLOCK_POINTS, stacked)
    quad_ts = np.linspace(0.0, rho_grid, QUAD_POINTS, axis=1)
    quad_fs = field_rows(model.f, quad_ts.ravel()).reshape(quad_ts.shape)
    samples = []
    for rho, num, ts, fs in zip(rho_grid, nums, quad_ts, quad_fs):
        ts_f = np.stack([ts, fs], axis=-1)
        bound = comparison_bound(ts_f, model.n, float(rho))
        lap = model.lap_f_r(float(rho))
        if abs(num - lap) > CROSS_CHECK_TOL * max(1.0, abs(lap)):
            raise CDViolation(
                f"numeric weighted Laplacian {num:.9g} disagrees with the "
                f"closed form {lap:.9g} at rho = {rho:.6g}")
        integrand = np.exp(-2.0 * fs / (model.n - 1))
        v_int = float(simpson(integrand, ts))
        samples.append(ComparisonSample(r=float(rho), lap_f_r=lap, bound=bound,
                                        slack=bound - lap, v_integral=v_int))
    return samples


# ---------------------------------------------------------------------------
# Bochner identity and inequality
# ---------------------------------------------------------------------------

def _coarse_lap_f_grad_sq(at: BlockGeometry, density: DensitySpec, h: ScalarField) -> float:
    """Lap_f |grad h|^2 at the point of ``at``, differenced at step h3."""
    grad_sq = geometry_field(at.spec, lambda g: g.grad_norm_squared(h), 0)
    return float(at.weighted_laplacian(density, grad_sq, at.spec.fd.h3)[0])


def _coarse_gradient(at: BlockGeometry, of) -> np.ndarray:
    """The partials at the point of ``at``, differenced at step h3, of the
    ``geometry_field`` of ``of``, which needs the metric partials."""
    steps = at.spec.fd.scaled(at.pts, at.spec.fd.h3)
    field = geometry_field(at.spec, of, 1)
    return first_difference(stencil_values(field, at.pts, steps, 1), steps)[0]


def bochner_residual(spec: MetricSpec, density: DensitySpec, h, p: Point) -> float:
    """|LHS - RHS| of the weighted Bochner identity at p:

        (1/2) Lap_f |grad h|^2
            = |Hess h|^2 + Ric_f^inf(grad h, grad h) + g(grad h, grad Lap_f h),

    with Lap_f and Ric_f^inf built from the density (scalar or vector
    variant).  Derived fields are differenced at the coarse step to keep the
    third-derivative noise inside the 1e-4 budget.
    """
    h = as_scalar_field(h)
    at = BlockGeometry.at(spec, p)
    lhs = 0.5 * _coarse_lap_f_grad_sq(at, density, h)

    H = at.hessian(h)[0]
    ginv = at.ginv[0]
    hess_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, H, H))

    gradv = at.gradient_vector(h)[0]
    ric_term = float(gradv @ generalized_ricci_at(at, density, math.inf)[0] @ gradv)

    dq = _coarse_gradient(at, lambda g: g.weighted_laplacian(density, h))
    last = float(gradv @ dq)

    return abs(lhs - (hess_sq + ric_term + last))


def bochner_inequality_margin(spec: MetricSpec, density: DensitySpec, K: float, m: int,
                              r_field, p: Point) -> float:
    """LHS - RHS of the distance-function Bochner inequality with v = e^{f/m}:

        (1/2) v^2 Lap_f |grad h|^2
            >= v^2 (Lap_f h)^2 / m + v^2 K |grad h|^2 + g(grad h, grad(v^2 Lap_f h)).

    Valid when the Hessian of h has at most m nonzero eigenvalues and the
    triple satisfies CD(K, n-m) near p (the caller's responsibility; see
    cd_verify).  Raises NotDistanceFunction unless |grad h| = 1 within 1e-6.
    Only scalar densities carry a pointwise potential e^{f/m}.
    """
    if not isinstance(density, ScalarField):
        raise TypeError("the inequality margin needs a scalar density")
    if not 1 <= m <= spec.dim:
        raise ValueError(f"m must lie in 1..{spec.dim}, got {m}")
    h = as_scalar_field(r_field)
    at = BlockGeometry.at(spec, p)
    p = at.pts[0]
    gn = math.sqrt(at.grad_norm_squared(h)[0])
    if abs(gn - 1.0) > 1e-6:
        raise NotDistanceFunction(f"|grad h| = {gn:.9g} at {p}, expected 1 within 1e-6")

    def v2(q: Point) -> float:
        return math.exp(2.0 * float(density.value(q)) / m)

    lhs = 0.5 * v2(p) * _coarse_lap_f_grad_sq(at, density, h)

    lap_f_h = float(at.weighted_laplacian(density, h)[0])
    rhs = v2(p) * (lap_f_h ** 2 / m + K * gn ** 2)

    dq = _coarse_gradient(
        at, lambda g: np.array([v2(x) for x in g.pts]) * g.weighted_laplacian(density, h))
    rhs += float(at.gradient_vector(h)[0] @ dq)
    return lhs - rhs


# ---------------------------------------------------------------------------
# comparison ODE residual along radial traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiTraceReport:
    ts: np.ndarray
    lam: np.ndarray
    residuals: np.ndarray  # lambda' + lambda^2/(v^2 (n-1)) at interior samples
    max_residual: float


def riccati_comparison_trace(model, trace) -> RiccatiTraceReport:
    """Sample lambda = v^2 Lap_f r along a radial trace and check the
    comparison ODE residual lambda' + lambda^2/(v^2 (n-1)) <= 0.

    ``model`` must provide dim, v2_at(p) and lap_f_r_at(p) (radial models
    and split spaces both do); lambda' is a central difference on the trace
    grid, so residuals are reported at interior samples only.
    """
    ts = trace.ts
    if ts.size < 3:
        raise EmptySamples("need at least 3 trace samples for the ODE residual")
    n = model.dim
    lam = np.array([model.v2_at(p) * model.lap_f_r_at(p) for p in trace.positions])
    v2 = np.array([model.v2_at(p) for p in trace.positions])
    dt = ts[1] - ts[0]
    dlam = (lam[2:] - lam[:-2]) / (2.0 * dt)
    residuals = dlam + lam[1:-1] ** 2 / (v2[1:-1] * (n - 1))
    return RiccatiTraceReport(ts=ts[1:-1], lam=lam, residuals=residuals,
                              max_residual=float(np.max(residuals)))


# ---------------------------------------------------------------------------
# rigidity identities on split spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    """Worst deviations of the split-space identities over the sampled points:
    |grad r| = 1, Lap_f r = 0 (equivalently for -r, the analytic stand-in for
    the opposite-ray pair), Hess r proportional to the slice metric, and the
    vanishing radial generalized Ricci at N = 1."""

    grad_norm_dev: float
    lap_f_r_dev: float
    hess_proportionality_dev: float
    radial_ricci_dev: float
    busemann_pair_dev: float
    points: np.ndarray

    def passes(self) -> bool:
        return (self.grad_norm_dev <= 1e-9 and self.lap_f_r_dev <= RIGIDITY_TOL_LAP
                and self.hess_proportionality_dev <= RIGIDITY_TOL_HESS
                and self.radial_ricci_dev <= RIGIDITY_TOL_RIC
                and self.busemann_pair_dev <= RIGIDITY_TOL_LAP)


def rigidity_check(split: SplitSpaceSpec, points=None, n_points: int = 50,
                   seed: int = 0, r_range=(-5.0, 5.0)) -> RigidityReport:
    """Verify the split-space rigidity identities at sampled points."""
    spec = split.metric_spec()
    density = split.density()
    n = split.n
    if points is None:
        bounds = np.vstack([r_range, inset_box(split.fiber.safe_box, 0.05)])
        pts = sample_box(bounds, n_points, seed)
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))

    r_plus = r_coordinate_field(n, 1.0)
    r_minus = r_coordinate_field(n, -1.0)

    def stacked(s: slice) -> np.ndarray:
        # the deviations at each point: |grad r|, Lap_f r, Lap_f (-r), Hess r
        # against the slice metric, radial generalized Ricci
        at = BlockGeometry(spec, pts[s])
        grad = np.abs(np.sqrt(at.grad_norm_squared(r_plus)) - 1.0)
        lap_p = np.abs(at.weighted_laplacian(density, r_plus))
        lap_m = np.abs(at.weighted_laplacian(density, r_minus))
        H = at.hessian(r_plus)
        g_slice = at.g.copy()
        g_slice[:, 0, :] = 0.0
        g_slice[:, :, 0] = 0.0
        coeff = at.gradient(density)[:, 0] / (n - 1)  # g(grad f, grad r) = d_r f in this chart
        hess = np.max(np.abs(H - coeff[:, None, None] * g_slice), axis=(1, 2))
        ric = np.abs(generalized_ricci_at(at, density, 1.0)[:, 0, 0])
        return np.stack([grad, lap_p, lap_m, hess, ric], axis=1)

    dev = in_blocks(len(pts), BLOCK_POINTS, stacked) if len(pts) else np.zeros((0, 5))
    # Python's max, from 0.0, skips a NaN deviation, as it always has
    grad_dev, lap_dev, lap_m_dev, hess_dev, ric_dev = (max([0.0, *col]) for col in dev.T.tolist())
    buse_dev = max(lap_dev, lap_m_dev)
    return RigidityReport(grad_norm_dev=grad_dev, lap_f_r_dev=lap_dev,
                          hess_proportionality_dev=hess_dev, radial_ricci_dev=ric_dev,
                          busemann_pair_dev=buse_dev, points=pts)
