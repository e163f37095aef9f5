"""The evaluation path: exact sphere witness, no error text on success,
failing stencil points still named, the block walks of ``cd_verify``,
``curvature`` and ``bochner`` bit-equal to evaluating their points one at a
time, checks that take every quantity at a point from one geometry, and
difference quotients taken over a block of stencil rows."""

import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cdsplit import catalog, chart_core, cli, comparison_suite, manifest, weighted_curvature
from cdsplit.chart_core import (
    H3,
    BlockGeometry,
    MetricSpec,
    ScalarField,
    VectorField,
    metric_at,
    point_jet,
    r_coordinate_field,
    ricci_numeric,
    weighted_laplacian,
)
from cdsplit.cli import run
from cdsplit.comparison_suite import bochner_residual, rigidity_check
from cdsplit.errors import NonFinite, SingularMetric
from cdsplit.geodesic_flow import geodesic_integrate, normalize_velocity
from cdsplit.manifest import (
    box_grid,
    build_geometry,
    cd_grid,
    inset_box,
    parse_manifest,
    sample_box,
    sample_points,
)
from cdsplit.warped_products import SplitSpaceSpec, twisted_ricci_analytic
from cdsplit.weighted_curvature import (
    BLOCK_POINTS,
    GridSpec,
    cd_verify,
    generalized_ricci,
    min_relative_eigenvalue,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def product_grid(r_range, fiber_box, r_count, fiber_count):
    """r_count radii times fiber_count points per axis of ``fiber_box``
    inset 2%, as verify-cd grids a product chart."""
    bounds = np.vstack([r_range, inset_box(fiber_box, 0.02)])
    return box_grid(bounds, [r_count] + [fiber_count] * len(bounds[1:]))


def test_sphere_witness_tie_is_exact():
    # The shipped sphere grid's minimum sits on its r = 8.1 slice.  There
    # four points, (+-2.16, +-2.88), tie bit for bit, and the witness is the
    # first of them in grid order.  The slice's first point, (-2.88, -2.88),
    # is only 6 ulps above the minimum.  A change in rounding anywhere on the
    # path (numpy ufuncs for math, a reordered sum) moves the witness.
    manifest = parse_manifest(MANIFESTS / "sphere_example.cdm")
    geo = build_geometry(manifest)
    points = cd_grid(manifest).points
    r_slice = points[np.isclose(points[:, 0], 8.1)]
    assert r_slice.shape == (81, 3)
    report = cd_verify(geo["spec"], geo["density"], 0.0, 1.0, GridSpec(r_slice, "r = 8.1"))
    assert report.min_eigenvalue == -1.0638321647216133e-09
    assert report.witness.tolist() == [8.100000000000001, -2.16, -2.88]
    ties = r_slice[report.eigenvalues == report.min_eigenvalue, 1:]
    assert np.array_equal(np.abs(ties), np.tile([2.16, 2.88], (4, 1)))
    ulp = np.spacing(abs(report.min_eigenvalue))
    assert report.eigenvalues[0] - report.min_eigenvalue == 6 * ulp


def test_success_path_formats_no_arrays():
    formatted = []

    def count(x):
        formatted.append(x)
        return repr(x)

    split = catalog.split_sin_sphere(0.6)
    spec = split.metric_spec()
    p0 = np.array([0.0, 0.4, 0.2])
    v0 = normalize_velocity(spec, p0, [1.0, 0.5, -0.3])
    with np.printoptions(formatter={"all": count}):
        grid = product_grid((-10.0, 10.0), split.fiber.safe_box, 3, 2)
        cd_verify(spec, split.density(), 0.0, 1.0, grid)
        geodesic_integrate(spec, p0, v0, T=0.05, dt=1e-2)
        assert formatted == []
        str(np.zeros(1))  # the counter does see an array being formatted
    assert len(formatted) == 1


def _flat_failing(bad_metric):
    """Flat R^2 whose metric is replaced by ``bad_metric(q)`` where that
    returns a matrix."""

    def g(q):
        bad = bad_metric(q)
        return np.eye(2) if bad is None else bad

    return MetricSpec(dim=2, jet=point_jet(g, lambda q: np.zeros((2, 2, 2))), name="failing")


# stencil of ricci_numeric at p = (1, 0): steps 1e-5 (analytic partials)
P = np.array([1.0, 0.0])
PLUS_R = np.array([1.0 + 1e-5, 0.0])
MINUS_Y = np.array([1.0, -1e-5])


def test_stencil_point_named_when_singular():
    spec = _flat_failing(lambda q: np.zeros((2, 2)) if q[1] < 0 else None)
    with pytest.raises(SingularMetric, match=re.escape(f"metric at {MINUS_Y} is not invertible")):
        ricci_numeric(spec, P)


def test_first_failing_stencil_point_named():
    # p + h e_r gives NaN Christoffel symbols and p - h e_y a singular metric;
    # the first in stencil order is named, as a point-by-point sweep would
    def bad(q):
        if q[0] > 1.0:
            return np.full((2, 2), np.nan)
        return np.zeros((2, 2)) if q[1] < 0 else None

    with pytest.raises(NonFinite, match=re.escape(f"Christoffel symbols at {PLUS_R}")):
        ricci_numeric(_flat_failing(bad), P)


# ---------------------------------------------------------------------------
# the block walk of cd_verify against the point-by-point reference
# ---------------------------------------------------------------------------

def _pairs(spec, density, lam, N, points):
    """The (form - lam g, g) pair of each point, through the public per-point
    functions."""
    out = []
    for p in points:
        form = generalized_ricci(spec, density, N, p)
        g = metric_at(spec, p)
        out.append((form - lam * g, g))
    return out


def _pointwise(spec, density, lam, N, points):
    """Minimum relative eigenvalues one point at a time, through the public
    per-point functions."""
    return np.array([min_relative_eigenvalue(form, g)
                     for form, g in _pairs(spec, density, lam, N, points)])


def _assert_near_scipy(spec, density, lam, N, points, values):
    """``values`` agree with scipy's own generalized eigensolver to within
    its backward error: n eps (|A| + |mu| |B|) |B^-1|, in 2-norms."""
    eps = np.finfo(float).eps
    for (form, g), mu in zip(_pairs(spec, density, lam, N, points), values):
        a, b = 0.5 * (form + form.T), 0.5 * (g + g.T)
        expected = scipy.linalg.eigh(a, b, eigvals_only=True)[0]
        scale = (np.linalg.norm(a, 2) + abs(expected) * np.linalg.norm(b, 2)) \
            * np.linalg.norm(np.linalg.inv(b), 2)
        assert abs(mu - expected) <= len(g) * eps * scale


def _block_walk(monkeypatch, spec, density, lam, N, grid):
    """cd_verify, asserting that it built one BlockGeometry per block and
    re-ran none of them point by point."""
    sizes = []

    class Recorded(BlockGeometry):
        def __init__(self, spec, pts):
            super().__init__(spec, pts)
            sizes.append(len(self.pts))

    with monkeypatch.context() as patch:
        patch.setattr(weighted_curvature, "BlockGeometry", Recorded)
        report = cd_verify(spec, density, lam, N, grid)
    count, size = len(grid.points), weighted_curvature.BLOCK_POINTS
    assert sizes == [min(size, count - start) for start in range(0, count, size)]
    return report


def test_block_walk_matches_pointwise_across_the_witness_tie(monkeypatch):
    # 2 blocks + 3 points of the sphere grid; the r = 8.1 slice, whose four
    # tied points decide the witness, straddles the first block boundary
    manifest = parse_manifest(MANIFESTS / "sphere_example.cdm")
    geo = build_geometry(manifest)
    points = cd_grid(manifest).points
    first = int(np.flatnonzero(np.isclose(points[:, 0], 8.1))[0])
    start = first - BLOCK_POINTS + 40
    grid = GridSpec(points[start:start + 2 * BLOCK_POINTS + 3], "blocks")
    report = _block_walk(monkeypatch, geo["spec"], geo["density"], 0.0, 1.0, grid)
    expected = _pointwise(geo["spec"], geo["density"], 0.0, 1.0, grid.points)
    assert report.eigenvalues.tobytes() == expected.tobytes()
    _assert_near_scipy(geo["spec"], geo["density"], 0.0, 1.0, grid.points, expected)
    assert report.min_eigenvalue == -1.0638321647216133e-09
    assert report.witness.tolist() == [8.100000000000001, -2.16, -2.88]


def _box_points(bounds):
    return box_grid(bounds, [5, 5]).points


def _fd_spec():
    # a curved chart, and a density without analytic partials, so that its
    # gradient and Hessian are finite differences of its values
    def g(q):
        off = 0.05 * q[0] * q[1]
        return np.array([[1.0 + 0.1 * math.sin(q[0] + q[1]), off],
                         [off, 2.0 + 0.1 * math.cos(q[0])]])

    def partials(q):
        c = 0.1 * math.cos(q[0] + q[1])
        return np.array([[[c, 0.05 * q[1]], [0.05 * q[1], -0.1 * math.sin(q[0])]],
                         [[c, 0.05 * q[0]], [0.05 * q[0], 0.0]]])

    density = ScalarField(value=lambda q: 0.3 * math.sin(q[0]) * math.cos(q[1]))
    return (MetricSpec(dim=2, jet=point_jet(g, partials), name="fd"), density,
            _box_points([[-1, 1], [-1, 1]]))


def _vector_spec():
    twisted, X = catalog.nongradient_example()
    fiber_box = twisted.fiber.safe_box * 0.5
    return twisted.metric_spec(), X, product_grid((-2.0, 2.0), fiber_box, 3, 2).points


@pytest.mark.parametrize("build", [_fd_spec, _vector_spec], ids=["fd-partials", "vector"])
@pytest.mark.parametrize("N", [1.0, math.inf])
def test_block_walk_matches_pointwise(monkeypatch, build, N):
    monkeypatch.setattr(weighted_curvature, "BLOCK_POINTS", 7)
    spec, density, points = build()
    points = points[:2 * 7 + 3]
    report = _block_walk(monkeypatch, spec, density, 0.5, N, GridSpec(points, "blocks"))
    expected = _pointwise(spec, density, 0.5, N, points)
    assert report.eigenvalues.tobytes() == expected.tobytes()
    _assert_near_scipy(spec, density, 0.5, N, points, expected)


def _planted(plants):
    """Flat R^2 whose metric is bad at the grid points of ``plants``, a list
    of (kind, point): 'singular', 'indefinite', 'nan' or 'raise' at the point itself,
    'stencil' (singular) at the Ricci stencil rows right beside it."""
    def g(q):
        for kind, target in plants:
            at_target = np.array_equal(q, target)
            if kind == "stencil" and not at_target and np.allclose(q, target, rtol=0, atol=2e-5):
                return np.zeros((2, 2))
            if kind == "singular" and at_target:
                return np.diag([1.0, 0.0])
            if kind == "indefinite" and at_target:
                return np.diag([1.0, -1.0])
            if kind == "nan" and at_target:
                return np.full((2, 2), np.nan)
            if kind == "raise" and at_target:
                raise ZeroDivisionError("planted")
        return np.eye(2)

    return MetricSpec(dim=2, jet=point_jet(g, lambda q: np.zeros((2, 2, 2))), name="planted")


# points 5, 6 and 7 are (-0.5, -1), (-0.5, -0.5) and (-0.5, 0); each message
# is the one a point-by-point walk has always raised
@pytest.mark.parametrize("plants,message", [
    ([("singular", 6)], "metric at [-0.5 -0.5] is not positive definite"),
    # the second point of its block: the block's one Cholesky call fails,
    # and the per-point calls name the point
    ([("indefinite", 5)], "metric at [-0.5 -1. ] is not positive definite"),
    ([("nan", 6)], "metric at [-0.5 -0.5] is not positive definite: "
                   "non-finite values in metric at [-0.5 -0.5]"),
    ([("stencil", 6)], "metric at [-0.49999 -0.5    ] is not invertible"),
    # the stacked pass meets point 6's Cholesky failure and point 7's
    # exception before point 5's stencil solve
    ([("stencil", 5), ("singular", 6), ("raise", 7)],
     "metric at [-0.49999 -1.     ] is not invertible"),
    ([("raise", 7), ("nan", 6)], "metric at [-0.5 -0.5] is not positive definite: "
                                 "non-finite values in metric at [-0.5 -0.5]"),
], ids=["singular", "indefinite", "nan", "stencil", "three-in-one-block", "raise-after-nan"])
def test_failure_in_second_block_raises_as_pointwise(monkeypatch, plants, message):
    monkeypatch.setattr(weighted_curvature, "BLOCK_POINTS", 4)
    points = _box_points([[-1, 1], [-1, 1]])[:11]
    spec = _planted([(kind, points[i]) for kind, i in plants])
    density = ScalarField.constant(0.0)
    exact = f"^{re.escape(message)}$"
    with pytest.raises(SingularMetric, match=exact):
        _pointwise(spec, density, 0.0, math.inf, points)
    with pytest.raises(SingularMetric, match=exact):
        cd_verify(spec, density, 0.0, math.inf, GridSpec(points, "planted"))


def test_block_warnings_come_from_the_pointwise_rerun(monkeypatch):
    # g22 = 1 + 1/(x - 0.5) divides by zero on the grid line x = 0.5 and is
    # singular at x = -0.5: the run stops at (-0.5, -1) with no warning, as
    # a point-by-point walk does, though its block reaches x = 0.5
    monkeypatch.setattr(weighted_curvature, "BLOCK_POINTS", 25)

    def g(q):
        return np.diag([1.0, 1.0 + 1.0 / (q[0] - np.float64(0.5))])

    def partials(q):
        D = np.zeros((2, 2, 2))
        D[0, 1, 1] = -1.0 / (q[0] - np.float64(0.5)) ** 2
        return D

    spec = MetricSpec(dim=2, jet=point_jet(g, partials), name="pole")
    with np.errstate(all="warn"), warnings.catch_warnings(record=True) as seen, pytest.raises(
            SingularMetric, match=re.escape("metric at [-0.5 -1. ] is not positive definite")):
        warnings.simplefilter("always")
        cd_verify(spec, ScalarField.constant(0.0), 0.0, math.inf,
                  GridSpec(_box_points([[-1, 1], [-1, 1]]), "pole"))
    assert seen == []


def _counted(fn, calls):
    def counted(p):
        calls.append(p)
        return fn(p)

    return counted


@pytest.mark.parametrize("N", [1.0, math.inf])
def test_density_evaluated_once_per_point(N):
    # the covariant Hessian and the (N - n) term share one evaluation of an
    # analytic gradient; the Lie derivative and the (N - n) term share one
    # evaluation of a vector density at each grid point, besides the
    # stencil points of its finite-difference Jacobian
    split = catalog.split_sin_sphere(0.6)
    f, grads = split.density(), []
    density = ScalarField(value=f.value, grad=_counted(f.grad, grads), hess=f.hess)
    grid = product_grid((-2.0, 2.0), split.fiber.safe_box, 3, 3)
    cd_verify(split.metric_spec(), density, 0.0, N, grid)
    assert len(grads) == len(grid.points) == 27

    twisted, X = catalog.nongradient_example()
    values = []
    field = VectorField(value=_counted(X.value, values))
    spec, _, points = _vector_spec()
    cd_verify(spec, field, 0.0, N, GridSpec(points, "vector"))
    at_points = [p for p in values if (p == points).all(axis=1).any()]
    assert len(at_points) == len(points)


# ---------------------------------------------------------------------------
# one geometry per point: the consumers of the chart calculus
# ---------------------------------------------------------------------------

Q = np.array([0.5, 0.2, -0.4])


def _counted_split(monkeypatch, order=0):
    """``split_sin_sphere(0.3)`` and its metric spec, whose jet records each
    row of every call of at least ``order``: with 0 each evaluation of the
    metric, with 1 each evaluation of its partials.  The split's
    ``metric_spec`` returns that spec."""
    split = catalog.split_sin_sphere(0.3)
    spec, calls = split.metric_spec(), []

    def jet(P, k):
        if k >= order:
            calls.extend(P)
        return spec.jet(P, k)

    counted = dataclasses.replace(spec, jet=jet)
    monkeypatch.setattr(SplitSpaceSpec, "metric_spec", lambda self: counted)
    return split, counted, calls


def _at_Q(calls):
    return sum(np.array_equal(q, Q) for q in calls)


def test_weighted_laplacian_evaluates_the_metric_once(monkeypatch):
    split, spec, calls = _counted_split(monkeypatch)
    assert abs(weighted_laplacian(spec, split.density(), r_coordinate_field(3), Q)) < 1e-10
    assert _at_Q(calls) == 1


def test_rigidity_point_evaluates_the_metric_once(monkeypatch):
    split, _, calls = _counted_split(monkeypatch)
    assert rigidity_check(split, [Q]).passes()
    assert _at_Q(calls) == 1


def test_rigidity_builds_one_geometry_per_block(monkeypatch):
    # one in_blocks walk over the 40 points, in blocks of 16, whose maxima
    # are bit-equal to the maxima of the points checked one at a time; each
    # block takes one weighted Laplacian, that of r, as that of -r is its
    # negation
    split = catalog.split_sin_sphere(0.3)
    points = sample_box(np.vstack([(-5.0, 5.0), inset_box(split.fiber.safe_box, 0.05)]), 40, 0)
    singles = [rigidity_check(split, [p]) for p in points]
    built, laplacians = [], []
    init, laplacian = BlockGeometry.__init__, BlockGeometry.weighted_laplacian

    def counted(self, spec, pts):
        built.append(len(pts))
        init(self, spec, pts)

    def counted_laplacian(self, *args):
        laplacians.append(len(self.pts))
        return laplacian(self, *args)

    monkeypatch.setattr(BlockGeometry, "__init__", counted)
    monkeypatch.setattr(BlockGeometry, "weighted_laplacian", counted_laplacian)
    monkeypatch.setattr(comparison_suite, "BLOCK_POINTS", 16)
    report = rigidity_check(split, points)
    assert built == laplacians == [16, 16, 8]
    for name in ("grad_norm_dev", "lap_f_r_dev", "hess_proportionality_dev",
                 "radial_ricci_dev"):
        assert getattr(report, name) == max(getattr(one, name) for one in singles)
    assert report.passes()


H_FIELD = ScalarField(value=lambda q: float(q @ q) + q[0] * q[1],
                      grad=lambda q: 2.0 * q + np.array([q[1], q[0], 0.0]),
                      hess=lambda q: 2.0 * np.eye(3) + np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))


def test_bochner_residual_evaluates_the_metric_at_most_twice(monkeypatch):
    # once for the geometry at Q, and once in the stencil rows of
    # |grad h|^2, Q among them, which are one geometry
    split, spec, calls = _counted_split(monkeypatch)
    assert bochner_residual(spec, split.density(), [H_FIELD], [Q])[0] < 1e-4
    assert _at_Q(calls) == 2


@pytest.mark.parametrize("check", ["rigidity", "bochner"])
def test_ricci_reuses_the_partials_at_the_point(monkeypatch, check):
    # the Ricci stencil's row 0 is the geometry's own D, not a second call:
    # the partials at Q are evaluated once, in the point's own geometry; for
    # bochner the stencil rows of |grad h|^2, Q among them, need only g and
    # take the jet of order 0
    split, spec, calls = _counted_split(monkeypatch, order=1)
    if check == "rigidity":
        assert rigidity_check(split, [Q]).passes()
    else:
        assert bochner_residual(spec, split.density(), [H_FIELD], [Q])[0] < 1e-4
    assert _at_Q(calls) == 1


def test_bochner_builds_at_most_four_geometries(monkeypatch):
    # the point's geometry, then one per stencil of a derived field: the
    # second-order stencil of |grad h|^2, whose +-h rows also give its
    # gradient, and the first-order stencil of Lap_f h.  |grad h|^2
    # needs only g, so its geometry takes the jet of order 0
    built = []
    init = BlockGeometry.__init__

    def counted(self, spec, pts, order=1):
        built.append((len(pts), order))
        init(self, spec, pts, order)

    monkeypatch.setattr(BlockGeometry, "__init__", counted)
    split = catalog.split_sin_sphere(0.3)
    spec, density = split.metric_spec(), split.density()
    assert bochner_residual(spec, density, [H_FIELD], [Q])[0] < 1e-4
    assert built == [(1, 1), (25, 0), (6, 1)]


def test_bochner_evaluates_each_derived_field_row_once(monkeypatch):
    # |grad h|^2 is a value-only field: its Hessian's second-order stencil
    # holds 25 rows on a 3-dimensional chart, and the gradient at the same
    # step reads its +-h rows instead of evaluating them again
    rows = []
    grad_norm_squared = BlockGeometry.grad_norm_squared

    def counted(self, f):
        rows.extend(map(tuple, self.pts.tolist()))
        return grad_norm_squared(self, f)

    monkeypatch.setattr(BlockGeometry, "grad_norm_squared", counted)
    split = catalog.split_sin_sphere(0.3)
    assert bochner_residual(split.metric_spec(), split.density(), [H_FIELD], [Q])[0] < 1e-4
    assert len(rows) == len(set(rows)) == 25


def test_curvature_builds_one_ricci_stencil_per_point(monkeypatch, tmp_path):
    # the numeric Ricci tensor and the generalized Ricci tensor of each
    # curvature dump share one stencil of 2n + 1 = 7 rows, and the 9 dumps'
    # stencils are one stack
    stencils = []
    solve = chart_core._christoffel_rows

    def counted(pts, gs, D):
        stencils.append(len(pts))
        return solve(pts, gs, D)

    monkeypatch.setattr(chart_core, "_christoffel_rows", counted)
    assert run("curvature", MANIFESTS / "sphere_example.cdm", tmp_path) == 0
    assert stencils == [63]


SHIPPED = ("sphere_example", "twisted_flat", "polar_general", "radial_log")


def test_bochner_block_builds_four_geometries(monkeypatch):
    # a block of 3 points is one geometry, and each derived field's stencil
    # rows, 3 x 25 and 3 x 6, one more each
    built = []
    init = BlockGeometry.__init__

    def counted(self, spec, pts, order=1):
        built.append((len(pts), order))
        init(self, spec, pts, order)

    monkeypatch.setattr(BlockGeometry, "__init__", counted)
    split = catalog.split_sin_sphere(0.3)
    res = bochner_residual(split.metric_spec(), split.density(), [H_FIELD] * 3,
                           [Q, 0.5 * Q, -Q])
    assert built == [(3, 1), (75, 0), (18, 1)]
    assert np.all(res < 1e-4)


def _bochner_inputs(name, seed):
    """A bochner run's geometry, points and fields, one per point, drawn
    from the seeded generator in the points' order."""
    m = parse_manifest(MANIFESTS / f"{name}.cdm")
    pts = sample_points(m, m.extras["bochner"]["points"], seed + 1,
                        r_limit=cli.BOCHNER_R_LIMIT)
    rng = np.random.default_rng(seed)
    return build_geometry(m), pts, [cli._random_cubic_field(rng, m.dim) for _ in pts]


def _bochner_at_one_point(spec, density, h, p):
    """The Bochner residual at p alone, with the products of one point: the
    oracle of the stacked residual."""
    at = BlockGeometry.at(spec, p)
    grad_sq = chart_core.geometry_field(spec, lambda g: g.grad_norm_squared(h), 0)
    lhs = 0.5 * float(at.weighted_laplacian(density, grad_sq, H3)[0])
    H, ginv = at.hessian(h)[0], at.ginv[0]
    hess_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, H, H))
    gradv = at.gradient_vector(h)[0]
    ric = float(gradv @ weighted_curvature.generalized_ricci_at(at, density, math.inf)[0] @ gradv)
    steps = chart_core.scaled(at.pts, H3)
    lap = chart_core.geometry_field(spec, lambda g: g.weighted_laplacian(density, h), 1)
    dq = chart_core.first_difference(chart_core.stencil_values(lap, at.pts, steps, 1), steps)
    return abs(lhs - (hess_sq + ric + float(gradv @ dq[0])))


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("seed", [42, 54])
def test_bochner_block_is_its_points_alone(name, seed):
    geo, pts, fields = _bochner_inputs(name, seed)
    spec, density = geo["spec"], geo["density"]
    block = bochner_residual(spec, density, fields, pts)
    alone = [bochner_residual(spec, density, fields[k:k + 1], pts[k:k + 1])
             for k in range(len(pts))]
    oracle = [_bochner_at_one_point(spec, density, h, p) for h, p in zip(fields, pts)]
    assert block.shape == (len(pts),)
    assert block.tobytes() == np.concatenate(alone).tobytes() == np.array(oracle).tobytes()
    if (name, seed) == ("sphere_example", 54):
        # the known defect: one residual above the 1e-4 tolerance
        assert block.max() == 1.1940976094138023e-4


def _cubic_oracle(rng, dim, scale):
    """The per-point gradient and Hessian formulas of the random cubic field
    ``cli._random_cubic_field`` draws from ``rng``, drawn as it draws them:
    the oracle of its block forms."""
    A = rng.uniform(-0.5, 0.5, (dim, dim))
    A = 0.5 * (A + A.T)
    b = rng.uniform(-1.0, 1.0, dim)
    C = rng.uniform(-0.15, 0.15, (dim, dim, dim))
    C = (C + C.transpose(1, 0, 2) + C.transpose(2, 1, 0) + C.transpose(0, 2, 1)
         + C.transpose(1, 2, 0) + C.transpose(2, 0, 1)) / 6.0

    def grad(p):
        return scale * (3.0 * np.einsum("ijk,j,k->i", C, p, p) + A @ p + b)

    def hess(p):
        return scale * (6.0 * np.einsum("ijk,k->ij", C, p) + A)

    return grad, hess


@pytest.mark.parametrize("dim", range(1, manifest.MAX_DIM + 1))
def test_random_cubic_block_forms_are_the_per_point_formulas(dim):
    # bochner's test fields take a block of stencil rows in one call; each
    # row, and each point as its block of one, is the per-point formula
    for seed, scale in ((dim, 0.5), (100 + dim, 0.3)):
        drawn, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        h = cli._random_cubic_field(drawn, dim, scale)
        grad, hess = _cubic_oracle(oracle_rng, dim, scale)
        assert drawn.bit_generator.state == oracle_rng.bit_generator.state
        rng = np.random.default_rng(seed + 1)
        for B in (1, 2, 7, 25, 256):
            P = rng.uniform(-3.0, 3.0, (B, dim)) * 10.0 ** rng.uniform(-3.0, 2.0, (B, 1))
            for form, oracle in ((h.grad, grad), (h.hess, hess)):
                expected = np.array([oracle(p) for p in P])
                assert chart_core.field_rows(form, P).tobytes() == expected.tobytes()
                assert np.array([form(p) for p in P]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_hessian_norm_is_the_per_point_einsum(n):
    # |Hess h|^2 = g^ik g^jl H_ij H_kl of a block is one einsum with a batch
    # axis, bit for bit the einsum at each point
    rng = np.random.default_rng(n)
    for B in (1, 2, 7, 256, 257):
        G = rng.normal(size=(B, n, n))
        G = G + G.swapaxes(1, 2)
        H = rng.normal(size=(B, n, n)) * 10.0 ** rng.uniform(-3, 3, (B, 1, 1))
        H = H + H.swapaxes(1, 2)
        block = np.einsum("bik,bjl,bij,bkl->b", G, G, H, H)
        alone = [np.einsum("ik,jl,ij,kl->", g, g, h, h) for g, h in zip(G, H)]
        assert block.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("subcommand, seed", [("curvature", 42), ("curvature", 7),
                                              ("bochner", 42), ("bochner", 54)])
def test_sampled_reports_are_their_points_alone(tmp_path, monkeypatch, capsys, name,
                                                subcommand, seed):
    # a walk in blocks of one evaluates each point alone
    path = MANIFESTS / f"{name}.cdm"
    code = run(subcommand, path, tmp_path / "block", seed=seed)
    block = capsys.readouterr()
    monkeypatch.setattr(cli, "BLOCK_POINTS", 1)
    assert run(subcommand, path, tmp_path / "alone", seed=seed) == code
    assert capsys.readouterr() == block
    report = f"{subcommand}.csv"
    assert (tmp_path / "block" / report).read_bytes() == (tmp_path / "alone" / report).read_bytes()
    assert code == (1 if (subcommand, name, seed) == ("bochner", "sphere_example", 54) else 0)


@pytest.mark.parametrize("name", SHIPPED)
def test_curvature_dumps_are_the_per_point_tensors(tmp_path, name):
    # each row of curvature.csv is its point's Ricci tensor, closed-form
    # deviation and generalized Ricci tensor, each taken at the point alone
    m = parse_manifest(MANIFESTS / f"{name}.cdm")
    geo = build_geometry(m)
    assert run("curvature", MANIFESTS / f"{name}.cdm", tmp_path, seed=7) == 0
    closed = geo.get("twisted") or (geo["split"].as_twisted() if "split" in geo else None)
    upper = np.triu_indices(m.dim)
    rows = []
    for p in np.vstack([manifest.grid_center(m)[None], sample_points(m, 8, 7)]):
        at = BlockGeometry.at(geo["spec"], p)
        ric = at.ricci[0]
        row = p.tolist() + ric[upper].tolist()
        if closed is not None:
            row.append(float(np.max(np.abs(ric - twisted_ricci_analytic(closed, p)))))
        if m.cd:
            row += weighted_curvature.generalized_ricci_at(at, geo["density"], m.cd["N"])[0][
                upper].tolist()
        rows.append(row)
    lines = [line for line in (tmp_path / "curvature.csv").read_text().splitlines()
             if not line.startswith("#")][1:]
    assert lines == [",".join(f"{x:.17g}" for x in row) for row in rows]


def _residuals(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [float(line.rpartition(",")[2]) for line in lines[1:]]


def test_bochner_walks_more_points_than_a_block(tmp_path):
    # 300 points are a block of BLOCK_POINTS and one of 44; each residual is
    # its point's alone, with the fields drawn one per point in order
    count = cli.BLOCK_POINTS + 44
    path = tmp_path / "m.cdm"
    path.write_text((MANIFESTS / "polar_general.cdm").read_text()
                    .replace("points = 8", f"points = {count}"))
    assert run("bochner", path, tmp_path / "out", seed=7) == 0
    m = parse_manifest(path)
    geo = build_geometry(m)
    pts = sample_points(m, count, 8, r_limit=cli.BOCHNER_R_LIMIT)
    rng = np.random.default_rng(7)
    alone = [bochner_residual(geo["spec"], geo["density"],
                              [cli._random_cubic_field(rng, m.dim)], p[None])[0] for p in pts]
    assert _residuals(tmp_path / "out" / "bochner.csv") == alone


@pytest.mark.parametrize("plant", ["raise", "warn"])
def test_failing_field_in_a_bochner_block_is_its_point_alone(tmp_path, monkeypatch, capsys,
                                                             plant):
    # the third point's field raises, or overflows with numpy's warning, at
    # the stencil rows around its point, and not at the point: the block's
    # |grad h|^2 rows fail, then their re-run one row at a time (a single
    # row does not split among the points), and the point-by-point re-run
    # prints that point's own lines
    path = MANIFESTS / "sphere_example.cdm"
    point = sample_points(parse_manifest(path), 10, 43, r_limit=cli.BOCHNER_R_LIMIT)[2]
    drawn = []
    draw = cli._random_cubic_field

    def planted(rng, dim):
        h = draw(rng, dim)
        drawn.append(h)
        if len(drawn) != 3:
            return h

        def grad(q):
            if np.array_equal(q, point):
                return h.grad(q)
            if plant == "raise":
                raise NonFinite(f"planted at {q}")
            return h.grad(q) * np.float64(1e308) * 10.0

        return ScalarField(value=h.value, grad=grad, hess=h.hess)

    monkeypatch.setattr(cli, "_random_cubic_field", planted)
    assert run("bochner", path, tmp_path / "block") == 1
    block = capsys.readouterr()
    assert len(drawn) == 10
    drawn.clear()
    monkeypatch.setattr(cli, "BLOCK_POINTS", 1)
    assert run("bochner", path, tmp_path / "alone") == 1
    assert capsys.readouterr() == block
    assert block.out == ""
    lines = block.err.splitlines()
    assert lines[-1].startswith("error: " + ("planted at" if plant == "raise"
                                             else "non-finite values in gradient at"))
    assert lines[:-1] == ([] if plant == "raise"
                          else ["warning: RuntimeWarning: overflow encountered in multiply"])


@pytest.mark.parametrize("build", [_fd_spec, _vector_spec], ids=["fd-partials", "vector"])
def test_block_weighted_laplacian_matches_pointwise(build):
    # the walk radial_comparison_check takes: each row of a block is the
    # point's own weighted Laplacian, bit for bit
    spec, density, points = build()
    h = ScalarField(value=lambda q: math.sin(q[0]) + q[-1] ** 2)
    block = BlockGeometry(spec, points).weighted_laplacian(density, h)
    expected = np.array([weighted_laplacian(spec, density, h, p) for p in points])
    assert block.tobytes() == expected.tobytes()


VECTOR_MANIFEST = """\
[manifold]
name = polar-vector-density
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = r^2

[density]
X1 = 0.3 * r - 0.2 * sin(y1)
X2 = 0.5 * cos(y1) / r

[grid]
r_min = 0.5
r_max = 3.0
"""


def _manifest_vector_spec(tmp_path):
    # a vector density in its block form (ExpressionArray.rows)
    path = tmp_path / "vector.cdm"
    path.write_text(VECTOR_MANIFEST)
    geo = build_geometry(parse_manifest(path))
    return geo["spec"], geo["density"], box_grid([[0.5, 3.0], [-1.0, 1.0]], [4, 3]).points


def test_bochner_residual_evaluates_a_vector_density_point_form_once(monkeypatch, tmp_path):
    # the point form runs once, at the point's geometry, whose Lie derivative
    # reuses that row; the stencil rows of the Jacobian and of Lap_f h go
    # through the block form, one call per stencil
    spec, density, _ = _manifest_vector_spec(tmp_path)
    calls = []
    eval_ast = manifest.eval_ast

    def counted(expr, values):
        if expr is density.value:
            calls.append(values)
        return eval_ast(expr, values)

    monkeypatch.setattr(manifest, "eval_ast", counted)
    h = ScalarField(value=lambda q: float(q @ q), grad=lambda q: 2.0 * q,
                    hess=lambda q: 2.0 * np.eye(2))
    assert bochner_residual(spec, density, [h], [[1.3, 0.2]])[0] < 1e-4
    assert len(calls) == 1


@pytest.mark.parametrize("build", ["fd-partials", "vector", "manifest-vector"])
def test_block_stencils_match_points(build, tmp_path):
    # value-only gradients and Hessians and vector-field Jacobians at a
    # block of 7 points are each point's block of one, bit for bit
    spec, density, points = (_manifest_vector_spec(tmp_path) if build == "manifest-vector"
                             else {"fd-partials": _fd_spec, "vector": _vector_spec}[build]())
    points = points[:7]

    def per_point(quantity):
        return np.stack([quantity(BlockGeometry.at(spec, p))[0] for p in points])

    if isinstance(density, VectorField):
        quantities = [lambda at: at.lie_derivative(density)]
    else:
        quantities = [lambda at: at.gradient(density),
                      lambda at: at.gradient(density, step=H3),
                      lambda at: at.hessian(density)]
    for quantity in quantities:
        block = quantity(BlockGeometry(spec, points))
        assert block.shape[0] == 7
        assert block.tobytes() == per_point(quantity).tobytes()


@pytest.mark.parametrize("plants,row", [
    (("singular", "raise"), 4),
    (("raise",), 5),
], ids=["first-of-two", "raise"])
def test_failing_stencil_row_named_as_pointwise(plants, row):
    # the second-order stencil of |grad h|^2 around p has rows p, then
    # p + s h e_1 for s = -2, -1, 1, 2 (rows 1-4), then the same on e_2 (rows
    # 5-8); the metric is singular at row 4 and raises at row 5.  The rows'
    # one geometry fails at row 5, which reads g after row 4; re-run row by
    # row, the first failing row is named as a point-by-point walk names it
    p = np.array([0.3, -0.2])
    h = 1e-3

    def g(q):
        if "singular" in plants and q[0] > p[0] + 1.5 * h:
            return np.diag([1.0, 0.0])
        if "raise" in plants and q[1] < p[1] - 1.5 * h:
            raise ZeroDivisionError("planted")
        return np.eye(2)

    spec = MetricSpec(dim=2, jet=point_jet(g, lambda q: np.zeros((2, 2, 2))), name="planted")
    q = p.copy()
    if row == 4:
        q[0] += 2.0 * h
        message = f"metric at {q} is not positive definite"
    else:
        q[1] -= 2.0 * h
        message = f"metric at {q} is not positive definite: planted"
    field = ScalarField(value=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
                        hess=lambda x: 2.0 * np.eye(2))
    with pytest.raises(SingularMetric, match=f"^{re.escape(message)}$"):
        bochner_residual(spec, ScalarField.constant(0.0), [field], [p])
