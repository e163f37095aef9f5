"""The evaluation path: exact sphere witness, no error text on success,
failing stencil points still named, the block walk of ``cd_verify``
bit-equal to evaluating its points one at a time, checks that take every
quantity at a point from one geometry, and difference quotients taken over
a block of stencil rows."""

import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cdsplit import catalog, chart_core, comparison_suite, manifest, weighted_curvature
from cdsplit.chart_core import (
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
from cdsplit.comparison_suite import bochner_inequality_margin, bochner_residual, rigidity_check
from cdsplit.errors import NonFinite, SingularMetric
from cdsplit.geodesic_flow import geodesic_integrate, normalize_velocity
from cdsplit.manifest import build_geometry, cd_grid, parse_manifest
from cdsplit.warped_products import SplitSpaceSpec
from cdsplit.weighted_curvature import (
    BLOCK_POINTS,
    GridSpec,
    box_grid,
    cd_verify,
    generalized_ricci,
    min_relative_eigenvalue,
    product_grid,
    split_grid,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def test_sphere_witness_tie_is_exact():
    # The shipped sphere grid's minimum sits on its r = 8.1 slice.  There
    # four points, (+-2.16, +-2.88), tie bit for bit, and the witness is the
    # first of them in grid order.  The slice's first point, (-2.88, -2.88),
    # is only 6 ulps above the minimum.  A change in rounding anywhere on the
    # path (numpy ufuncs for math, a reordered sum) moves the witness.
    manifest = parse_manifest(MANIFESTS / "sphere_example.cdm")
    geo = build_geometry(manifest)
    points = cd_grid(manifest, geo).points
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
        cd_verify(spec, split.density(), 0.0, 1.0, split_grid(split, r_count=3, fiber_count=2))
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
    points = cd_grid(manifest, geo).points
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
    grid = split_grid(split, (-2.0, 2.0), 3, 3)
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
    assert rigidity_check(split, points=[Q]).passes()
    assert _at_Q(calls) == 1


def test_rigidity_builds_one_geometry_per_block(monkeypatch):
    # one in_blocks walk over the 40 points, in blocks of 16, whose maxima
    # are bit-equal to the maxima of the points checked one at a time
    split = catalog.split_sin_sphere(0.3)
    singles = [rigidity_check(split, points=[p])
               for p in rigidity_check(split, n_points=40).points]
    built = []
    init = BlockGeometry.__init__

    def counted(self, spec, pts):
        built.append(len(pts))
        init(self, spec, pts)

    monkeypatch.setattr(BlockGeometry, "__init__", counted)
    monkeypatch.setattr(comparison_suite, "BLOCK_POINTS", 16)
    report = rigidity_check(split, n_points=40)
    assert built == [16, 16, 8]
    for name in ("grad_norm_dev", "lap_f_r_dev", "hess_proportionality_dev",
                 "radial_ricci_dev", "busemann_pair_dev"):
        assert getattr(report, name) == max(getattr(one, name) for one in singles)
    assert report.passes()


H_FIELD = ScalarField(value=lambda q: float(q @ q) + q[0] * q[1],
                      grad=lambda q: 2.0 * q + np.array([q[1], q[0], 0.0]),
                      hess=lambda q: 2.0 * np.eye(3) + np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))


def test_bochner_residual_evaluates_the_metric_at_most_twice(monkeypatch):
    # once for the geometry at Q, and once in the stencil rows of
    # |grad h|^2, Q among them, which are one geometry
    split, spec, calls = _counted_split(monkeypatch)
    assert bochner_residual(spec, split.density(), H_FIELD, Q) < 1e-4
    assert _at_Q(calls) == 2


@pytest.mark.parametrize("check", ["rigidity", "bochner"])
def test_ricci_reuses_the_partials_at_the_point(monkeypatch, check):
    # the Ricci stencil's row 0 is the geometry's own D, not a second call:
    # the partials at Q are evaluated once, in the point's own geometry; for
    # bochner the stencil rows of |grad h|^2, Q among them, need only g and
    # take the jet of order 0
    split, spec, calls = _counted_split(monkeypatch, order=1)
    if check == "rigidity":
        assert rigidity_check(split, points=[Q]).passes()
    else:
        assert bochner_residual(spec, split.density(), H_FIELD, Q) < 1e-4
    assert _at_Q(calls) == 1


@pytest.mark.parametrize("check", ["residual", "margin"])
def test_bochner_builds_at_most_four_geometries(monkeypatch, check):
    # the point's geometry, then one per stencil of a derived field: the
    # second-order stencil of |grad h|^2, whose +-h rows also give its
    # gradient, and the first-order stencil of (v^2) Lap_f h.  |grad h|^2
    # needs only g, so its geometry takes the jet of order 0
    built = []
    init = BlockGeometry.__init__

    def counted(self, spec, pts, order=1):
        built.append((len(pts), order))
        init(self, spec, pts, order)

    monkeypatch.setattr(BlockGeometry, "__init__", counted)
    split = catalog.split_sin_sphere(0.3)
    spec, density = split.metric_spec(), split.density()
    if check == "residual":
        assert bochner_residual(spec, density, H_FIELD, Q) < 1e-4
    else:
        bochner_inequality_margin(spec, density, 0.0, 1, r_coordinate_field(3), Q)
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
    assert bochner_residual(split.metric_spec(), split.density(), H_FIELD, Q) < 1e-4
    assert len(rows) == len(set(rows)) == 25


def test_curvature_builds_one_ricci_stencil_per_point(monkeypatch, tmp_path):
    # the numeric Ricci tensor and the generalized Ricci tensor of each
    # curvature dump share one stencil of 2n + 1 = 7 rows
    stencils = []
    solve = chart_core._christoffel_rows

    def counted(pts, gs, D):
        stencils.append(len(pts))
        return solve(pts, gs, D)

    monkeypatch.setattr(chart_core, "_christoffel_rows", counted)
    assert run("curvature", MANIFESTS / "sphere_example.cdm", tmp_path) == 0
    assert stencils == [7] * 9


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
    assert bochner_residual(spec, density, h, np.array([1.3, 0.2])) < 1e-4
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
                      lambda at: at.gradient(density, step=spec.fd.h3),
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
        bochner_residual(spec, ScalarField.constant(0.0), field, p)
