"""The weighted Bochner identity, the Laplacian comparison bound, and the
rigidity identities of split spaces.

The comparison bound for a density f along a unit-speed minimal geodesic
from the base point is

    (n - 1) / ( v^2(r) * int_0^r v^{-2}(t) dt ),        v = e^{f/(n-1)},

which collapses to (n-1)/r for constant f.  On models verified to satisfy
CD(0,1) the weighted Laplacian of the distance function stays below this
bound; the scalar lambda = v^2 * (weighted Laplacian of r) then obeys the
comparison ODE inequality lambda' <= -lambda^2 / (v^2 (n-1)) along radial
geodesics.  That inequality, and the distance-function Bochner inequality it
integrates, are not computed here: on a radial model with h = rho their
margins are -+ v^2 Ric_f^1(d_rho, d_rho), whose form the CD(0,1) gate of
``radial_comparison_check`` already checks at every radius.

A radial model's density and distance function are block forms alone
(``chart_core.block_field``), whose value at a point is its block of one.
The Bochner identity differences derived fields (|grad h|^2, Lap_f h), each
stencil's rows evaluated as one ``BlockGeometry`` (``geometry_field``).
``bochner_residual`` takes a block of points, each with its own field: the
points are one geometry, and each derived field's stencils, stacked point
by point, one more; ``bochner`` walks its points through ``in_blocks``.

Distance functions are supplied analytically (radial models, split-space r);
no boundary-value solving happens here.  Sub-level barrier arguments have no
pointwise numerical analogue, so only the smooth split-space case of the
vanishing-Laplacian identity is verified, for r; -r, the stand-in for the
opposite ray, has the negated Laplacian bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart_core import (
    BLOCK_POINTS,
    H3,
    BlockGeometry,
    DensitySpec,
    MetricSpec,
    ScalarField,
    _forms,
    as_scalar_field,
    block_field,
    field_rows,
    first_difference,
    flat_jet,
    geometry_field,
    in_blocks,
    r_coordinate_field,
    scaled,
    simpson,
    stencil_values,
)
from .errors import CDViolation, EmptySamples, ZeroRadius
from .warped_products import SplitSpaceSpec
from .weighted_curvature import GridSpec, cd_verify, generalized_ricci_at

#: Samples of the quadrature behind each comparison bound of a radial model.
QUAD_POINTS = 401
#: Radii per stacked quadrature pass of ``radial_comparison_check``: a block
#: holds a few (QUAD_BLOCK, QUAD_POINTS) arrays at once.
QUAD_BLOCK = 32
#: Relative tolerance of the closed-form weighted Laplacian of a radial
#: model against the chart machinery.
CROSS_CHECK_TOL = 1e-6
#: Rigidity tolerances: the weighted Laplacian of r, the Hessian
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


def comparison_bound(f_samples, n: int, r):
    """(n-1) / (v^2(r) int_0^r v^{-2}) from samples (t, f(gamma(t))) on [0, r].

    ``f_samples`` is a (k, 2) array of samples for the one radius r, or an
    (R, k, 2) stack of them for the R radii of the array r, whose bounds
    are one row-wise ``simpson`` pass, each row summed over a C-contiguous
    array, so each is bit for bit its radius's alone; one radius is its
    block of one.  Where a stack has samples past its radii, each radius
    is its block of one.  The integrand is normalized by f(r) so constant
    densities cancel exactly rather than to quadrature accuracy.
    """
    arr = np.asarray(f_samples, dtype=float)
    if arr.ndim == 2:
        return float(comparison_bound(arr[None], n, np.array([r], dtype=float))[0])
    rs = np.asarray(r, dtype=float)
    if np.any(rs <= 0):
        raise ZeroRadius(f"comparison radius must be positive, got {rs[np.argmax(rs <= 0)]}")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[1] < 3:
        raise EmptySamples("need at least 3 (t, f) samples")
    ts, fs = arr[..., 0], arr[..., 1]
    short = (ts[:, 0] > 1e-12) | (ts[:, -1] < rs - 1e-9 * np.maximum(1.0, rs))
    if short.any():
        i = int(np.argmax(short))
        raise ValueError(f"samples must cover [0, {rs[i]}], got [{ts[i, 0]}, {ts[i, -1]}]")
    keep = ts <= rs[:, None] + 1e-12
    if not keep.all():
        if len(arr) > 1:
            return np.concatenate([comparison_bound(arr[i:i + 1], n, rs[i:i + 1])
                                   for i in range(len(arr))])
        ts, fs = ts[keep][None], fs[keep][None]
    integrand = np.exp(-2.0 * (fs - fs[:, -1:]) / (n - 1))
    return (n - 1) / simpson(integrand, ts)


# ---------------------------------------------------------------------------
# radial models on flat space
# ---------------------------------------------------------------------------

def _norms(P: np.ndarray) -> np.ndarray:
    """|p| of each row: ``np.linalg.norm`` of a row is the square root of
    its BLAS dot product, which ``np.vecdot`` runs on each row."""
    return np.sqrt(np.vecdot(P, P))


def _outers(P: np.ndarray) -> np.ndarray:
    """``np.outer(p, p)`` of each row."""
    return P[:, :, None] * P[:, None, :]


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
        """f(rho) with its gradient and Hessian, as block forms
        (``block_field``): rho of each row is the BLAS dot product that
        ``np.linalg.norm`` takes on one row, f, f' and f'' come from their
        ``field_rows`` (a manifest's expressions have block forms), and the
        rest is the per-row arithmetic, elementwise."""
        f, df, d2f, eye = self.f, self.df, self.d2f, np.eye(self.n)

        def value(P: np.ndarray) -> np.ndarray:
            return field_rows(f, _norms(P))

        def grad(P: np.ndarray) -> np.ndarray:
            rho = _norms(P)
            return field_rows(df, rho)[:, None] * P / rho[:, None]

        def hess(P: np.ndarray) -> np.ndarray:
            rho = _norms(P)
            rr = _outers(P) / (rho * rho)[:, None, None]
            return (field_rows(d2f, rho)[:, None, None] * rr
                    + (field_rows(df, rho) / rho)[:, None, None] * (eye - rr))

        return ScalarField(value=block_field(value), grad=block_field(grad),
                           hess=block_field(hess))

    def r_field(self) -> ScalarField:
        """The distance function rho = |x| with its gradient and Hessian, as
        block forms (see ``density``)."""
        eye = np.eye(self.n)

        def grad(P: np.ndarray) -> np.ndarray:
            return P / _norms(P)[:, None]

        def hess(P: np.ndarray) -> np.ndarray:
            rho = _norms(P)[:, None, None]
            return (eye - _outers(P) / (rho * rho)) / rho

        return ScalarField(value=block_field(_norms), grad=block_field(grad),
                           hess=block_field(hess))

    def lap_f_r(self, rho: float) -> float:
        """Weighted Laplacian of the distance function: (n-1)/rho - f'(rho)."""
        return (self.n - 1) / rho - self.df(rho)


def radial_comparison_check(model: RadialModel, grid: GridSpec):
    """ComparisonSamples over the radii of ``grid``, points rho * e_1 whose
    rho is ``grid.points[:, 0]`` (``manifest.cd_grid`` of a radial model):
    analytic weighted Laplacian of the distance function vs the comparison
    bound.

    Refuses (CDViolation) when cd_verify fails CD(0,1) on the grid; each
    analytic Laplacian is cross-checked against the chart machinery at its
    point, all radii walked once in blocks (``in_blocks``).  The bounds and
    v^-2 integrals walk the radii in blocks of ``QUAD_BLOCK``: f at a
    block's quadrature samples is one ``field_rows`` call, and each
    integral one row-wise ``simpson`` pass over the block's radii, summed
    over C-contiguous rows, so every value is bit for bit its radius's
    alone; a block that fails runs again one radius at a time.
    """
    spec, density, rho_grid = model.metric_spec(), model.density(), grid.points[:, 0]
    rep = cd_verify(spec, density, 0.0, 1.0, grid)
    if not rep.passed:
        raise CDViolation(
            f"model is not CD(0,1) on the grid: min eigenvalue "
            f"{rep.min_eigenvalue:.6g} at {rep.witness}")
    r_field = model.r_field()

    def stacked(s: slice) -> np.ndarray:
        return BlockGeometry(spec, grid.points[s]).weighted_laplacian(density, r_field)

    nums = in_blocks(len(rho_grid), BLOCK_POINTS, stacked).tolist()

    def quadrature(s: slice) -> np.ndarray:
        rho = rho_grid[s]
        ts = np.linspace(0.0, rho, QUAD_POINTS, axis=1)
        fs = field_rows(model.f, ts.ravel()).reshape(ts.shape)
        bounds = comparison_bound(np.stack([ts, fs], axis=-1), model.n, rho)
        v_ints = simpson(np.exp(-2.0 * fs / (model.n - 1)), ts)
        return np.stack([bounds, v_ints], axis=1)

    quad = in_blocks(len(rho_grid), QUAD_BLOCK, quadrature).tolist()
    samples = []
    for rho, num, (bound, v_int) in zip(rho_grid.tolist(), nums, quad):
        lap = model.lap_f_r(rho)
        if abs(num - lap) > CROSS_CHECK_TOL * max(1.0, abs(lap)):
            raise CDViolation(
                f"numeric weighted Laplacian {num:.9g} disagrees with the "
                f"closed form {lap:.9g} at rho = {rho:.6g}")
        samples.append(ComparisonSample(r=rho, lap_f_r=lap, bound=bound,
                                        slack=bound - lap, v_integral=v_int))
    return samples


# ---------------------------------------------------------------------------
# Bochner identity
# ---------------------------------------------------------------------------

def _per_point(forms) -> Callable:
    """One form for a block of points from ``forms``, one per point: the
    ``block_field`` that splits its rows P into ``len(forms)`` equal
    consecutive groups, one per point in order, as the stencils of a block
    are stacked, and takes each group in one ``field_rows`` call of its
    point's own form: one call of a block form (``bochner``'s random cubic
    fields), a plain callable row by row.  A row count that is not a
    multiple of the number of points is refused: the rows of a re-run one
    row at a time belong to no one point, so the block fails and
    ``in_blocks`` re-runs it one point at a time."""
    k = len(forms)

    def rows(P: np.ndarray) -> np.ndarray:
        if len(P) % k:
            raise ValueError(f"{len(P)} rows do not split among {k} points")
        m = len(P) // k
        return np.concatenate([field_rows(form, P[i * m:(i + 1) * m])
                               for i, form in enumerate(forms)])

    return block_field(rows)


def _per_point_field(fields) -> ScalarField:
    """The fields of a block's points, one per point, as one ScalarField
    whose every form is ``_per_point``.  The fields must all have, or all
    lack, each of the gradient and the Hessian."""
    fields = [as_scalar_field(h) for h in fields]
    forms = {}
    for name in ("value", "grad", "hess"):
        given = [getattr(h, name) for h in fields]
        if any(fn is None for fn in given) and any(fn is not None for fn in given):
            raise ValueError(f"some of the fields have a {name} form and some do not")
        forms[name] = None if given[0] is None else _per_point(given)
    return ScalarField(**forms)


def bochner_residual(spec: MetricSpec, density: DensitySpec, fields, pts) -> np.ndarray:
    """|LHS - RHS| of the weighted Bochner identity at each row p of ``pts``,
    for its own field h of ``fields``:

        (1/2) Lap_f |grad h|^2
            = |Hess h|^2 + Ric_f^inf(grad h, grad h) + g(grad h, grad Lap_f h),

    with Lap_f and Ric_f^inf built from the density (scalar or vector
    variant).  Derived fields are differenced at the coarse step to keep the
    third-derivative noise inside the 1e-4 budget.  The points are one
    ``BlockGeometry``, and each derived field's stencil rows one more, with
    each point's field taken at its own rows (``_per_point_field``); every
    residual is bit for bit the residual at its point alone.
    """
    h = _per_point_field(fields)
    at = BlockGeometry(spec, pts)
    grad_sq = geometry_field(spec, lambda g: g.grad_norm_squared(h), 0)
    lhs = 0.5 * at.weighted_laplacian(density, grad_sq, H3)

    H = at.hessian(h)
    ginv = at.ginv
    hess_sq = np.einsum("bik,bjl,bij,bkl->b", ginv, ginv, H, H)

    gradv = at.gradient_vector(h)
    ric_term = _forms(gradv, generalized_ricci_at(at, density, math.inf), gradv)

    steps = scaled(at.pts, H3)
    lap_f_h = geometry_field(spec, lambda g: g.weighted_laplacian(density, h), 1)
    dq = first_difference(stencil_values(lap_f_h, at.pts, steps, 1), steps)
    last = np.vecdot(gradv, dq)

    return np.abs(lhs - (hess_sq + ric_term + last))


# ---------------------------------------------------------------------------
# rigidity identities on split spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    """Worst deviations of the split-space identities over the sampled points:
    |grad r| = 1, Lap_f r = 0, Hess r proportional to the slice metric, and
    the vanishing radial generalized Ricci at N = 1.  Lap_f r = 0 holds for
    -r too, the analytic stand-in for the opposite-ray pair, with the same
    deviation: Lap_f (-r) is -Lap_f r bit for bit, as negation is exact and
    commutes with rounding."""

    grad_norm_dev: float
    lap_f_r_dev: float
    hess_proportionality_dev: float
    radial_ricci_dev: float
    points: np.ndarray

    def passes(self) -> bool:
        return (self.grad_norm_dev <= 1e-9 and self.lap_f_r_dev <= RIGIDITY_TOL_LAP
                and self.hess_proportionality_dev <= RIGIDITY_TOL_HESS
                and self.radial_ricci_dev <= RIGIDITY_TOL_RIC)


def rigidity_check(split: SplitSpaceSpec, points) -> RigidityReport:
    """Verify the split-space rigidity identities at the given points, one
    per row (``manifest.sample_points`` in a run)."""
    spec = split.metric_spec()
    density = split.density()
    n = split.n
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    r = r_coordinate_field(n)

    def stacked(s: slice) -> np.ndarray:
        # the deviations at each point: |grad r|, Lap_f r, Hess r against the
        # slice metric, radial generalized Ricci
        at = BlockGeometry(spec, pts[s])
        grad = np.abs(np.sqrt(at.grad_norm_squared(r)) - 1.0)
        lap = np.abs(at.weighted_laplacian(density, r))
        H = at.hessian(r)
        g_slice = at.g.copy()
        g_slice[:, 0, :] = 0.0
        g_slice[:, :, 0] = 0.0
        coeff = at.gradient(density)[:, 0] / (n - 1)  # g(grad f, grad r) = d_r f in this chart
        hess = np.max(np.abs(H - coeff[:, None, None] * g_slice), axis=(1, 2))
        ric = np.abs(generalized_ricci_at(at, density, 1.0)[:, 0, 0])
        return np.stack([grad, lap, hess, ric], axis=1)

    dev = in_blocks(len(pts), BLOCK_POINTS, stacked) if len(pts) else np.zeros((0, 4))
    # Python's max, from 0.0, skips a NaN deviation, as it always has
    grad_dev, lap_dev, hess_dev, ric_dev = (max([0.0, *col]) for col in dev.T.tolist())
    return RigidityReport(grad_norm_dev=grad_dev, lap_f_r_dev=lap_dev,
                          hess_proportionality_dev=hess_dev, radial_ricci_dev=ric_dev,
                          points=pts)
