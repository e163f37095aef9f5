"""Generalized Ricci tensors, relative eigenvalues, CD sampling verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catalog
from cdsplit.chart_core import (
    BlockGeometry,
    MetricSpec,
    ScalarField,
    VectorField,
    point_jet,
    r_coordinate_field,
    ricci_numeric,
)
from cdsplit.errors import DimensionClash, EmptyGrid, SingularMetric
from cdsplit.expr import compile_expression, expression_scalar_field
from cdsplit.manifest import box_grid, inset_box
from cdsplit.weighted_curvature import (
    GridSpec,
    cd_verify,
    generalized_ricci,
    min_relative_eigenvalue,
)
from cdsplit.warped_products import FlatFiber, SphereFiber, SplitSpaceSpec


def product_grid(split, r_range, r_count, fiber_count):
    """r_count radii times fiber_count points per axis of the fiber's safe
    box inset 2%, the grid verify-cd checks on a split manifest."""
    bounds = np.vstack([r_range, inset_box(split.fiber.safe_box, 0.02)])
    return box_grid(bounds, [r_count] + [fiber_count] * (split.n - 1))


def random_smooth_density(rng, dim):
    A = rng.uniform(-0.3, 0.3, (dim, dim))
    A = 0.5 * (A + A.T)
    b = rng.uniform(-0.5, 0.5, dim)
    return ScalarField(
        value=lambda p: 0.5 * float(p @ A @ p) + float(b @ p),
        grad=lambda p: A @ p + b,
        hess=lambda p: A.copy(),
    )


class TestGeneralizedRicci:
    def test_constant_density_reduces_to_ricci(self):
        split = catalog.split_sin_sphere(0.6)
        spec = split.metric_spec()
        p = np.array([0.4, 0.3, -0.9])
        from cdsplit.chart_core import ricci_numeric

        ric = ricci_numeric(spec, p)
        for N in (-2.0, 0.5, math.inf):
            out = generalized_ricci(spec, catalog.constant(5.0, 3), N, p)
            assert np.max(np.abs(out - ric)) < 1e-12

    def test_gaussian_density_identity_form(self):
        # flat R^2 with f = |x|^2/2 at N = inf: Ric_f = Hess f = I
        spec = catalog.flat(2)
        f = ScalarField(value=lambda p: 0.5 * float(p @ p), grad=lambda p: p.copy(),
                        hess=lambda p: np.eye(2))
        out = generalized_ricci(spec, f, math.inf, np.array([0.7, -0.1]))
        assert np.max(np.abs(out - np.eye(2))) < 1e-10

    def test_split_space_radial_vanishing_at_one(self):
        split = catalog.split_sin_sphere(0.4)
        out = generalized_ricci(split.metric_spec(), split.density(), 1.0,
                                np.array([0.9, 0.1, 0.2]))
        assert abs(out[0, 0]) < 1e-7
        assert np.max(np.abs(out[0, 1:])) < 1e-7

    def test_dimension_clash(self):
        spec = catalog.flat(3)
        with pytest.raises(DimensionClash):
            generalized_ricci(spec, catalog.constant(0.0, 3), 3.0, np.zeros(3))
        with pytest.raises(DimensionClash):
            generalized_ricci(spec, VectorField(value=lambda p: np.zeros(3)), 3, np.zeros(3))

    def test_monotone_in_N_below_n(self):
        rng = np.random.default_rng(8)
        spec = catalog.flat(3)
        f = random_smooth_density(rng, 3)
        for _ in range(5):
            p = rng.uniform(-1.5, 1.5, 3)
            w = rng.uniform(-1, 1, 3)
            vals = [float(w @ generalized_ricci(spec, f, N, p) @ w)
                    for N in (-5.0, 0.0, 0.5, 1.0)]
            assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))

    def test_vector_gradient_consistency(self):
        rng = np.random.default_rng(21)
        for spec_maker in (lambda: catalog.flat(3),
                           lambda: catalog.split_sin_sphere(0.5).metric_spec()):
            spec = spec_maker()
            f = random_smooth_density(rng, 3)
            X = catalog.gradient_as_vector_field(spec, f)
            for N in (-5.0, 0.0, 0.5, 1.0, math.inf):
                for _ in range(3):
                    p = rng.uniform(-1.2, 1.2, 3)
                    a = generalized_ricci(spec, f, N, p)
                    b = generalized_ricci(spec, X, N, p)
                    assert np.max(np.abs(a - b)) <= 1e-5

    def test_killing_field_flat_space_zero(self):
        spec = catalog.flat(2)
        X = VectorField(value=lambda p: np.array([-p[1], p[0]]))
        out = generalized_ricci(spec, X, math.inf, np.array([0.8, 0.4]))
        assert np.max(np.abs(out)) < 1e-9

    def test_nongradient_example_radial_rows_vanish(self):
        spec, X = catalog.nongradient_example(n=4, einstein_constant=1.0, amplitude=0.05)
        mspec = spec.metric_spec()
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = np.concatenate([[rng.uniform(-3, 3)], rng.uniform(-2.5, 2.5, 3)])
            out = generalized_ricci(mspec, X, 1.0, p)
            assert np.max(np.abs(out[0, :])) <= 1e-5


class TestMinRelativeEigenvalue:
    def test_identity_pair(self):
        assert min_relative_eigenvalue(np.eye(2), np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_relative_eigenvalue(np.diag([2.0, 5.0]), np.eye(2)) == pytest.approx(2.0)

    def test_scaling(self):
        assert min_relative_eigenvalue(np.diag([4.0, 4.0]),
                                       np.diag([2.0, 2.0])) == pytest.approx(2.0)

    def test_non_definite_metric_raises(self):
        with pytest.raises(SingularMetric, match="^metric factor not positive definite: "
                                                 "leading minor of order 2$"):
            min_relative_eigenvalue(np.eye(2), np.diag([1.0, -1.0]))

    def test_threshold_characterization(self):
        # form >= lam * metric iff min relative eigenvalue >= lam
        rng = np.random.default_rng(9)
        for _ in range(20):
            L = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
            metric = L @ L.T
            form = rng.uniform(-1, 1, (3, 3))
            form = 0.5 * (form + form.T)
            mu = min_relative_eigenvalue(form, metric)
            evals = np.linalg.eigvalsh(form - (mu - 1e-9) * metric)
            assert evals.min() >= -1e-7
            evals = np.linalg.eigvalsh(form - (mu + 1e-6) * metric)
            assert evals.min() < 0


class TestCDVerify:
    def test_flat_space_boundary_pass(self):
        spec = catalog.flat(2)
        grid = box_grid([[-2, 2], [-2, 2]], [5, 5])
        rep = cd_verify(spec, catalog.constant(0.0, 2), 0.0, math.inf, grid)
        assert rep.passed
        assert rep.verdict == "boundary"
        assert abs(rep.min_eigenvalue) < 1e-10

    def test_sphere_example_above_and_below_threshold(self):
        thr = 0.5 * math.exp(-1.0)
        grid_kwargs = dict(r_range=(-10.0, 10.0), r_count=101, fiber_count=5)

        above = catalog.split_sin_sphere(thr + 0.01)
        rep = cd_verify(above.metric_spec(), above.density(), 0.0, 1.0,
                        product_grid(above, **grid_kwargs))
        assert rep.passed

        below = catalog.split_sin_sphere(thr - 0.01)
        rep = cd_verify(below.metric_spec(), below.density(), 0.0, 1.0,
                        product_grid(below, **grid_kwargs))
        assert not rep.passed
        assert rep.verdict == "fail"
        assert math.sin(rep.witness[0]) < -0.99  # violation concentrates at sin r = -1

    def test_witness_attains_minimum(self):
        split = catalog.split_sin_sphere(0.1)
        grid = product_grid(split, (-4, 4), 41, 3)
        rep = cd_verify(split.metric_spec(), split.density(), 0.0, 1.0, grid)
        k = int(np.argmin(rep.eigenvalues))
        assert np.allclose(rep.witness, rep.points[k])
        assert rep.min_eigenvalue == rep.eigenvalues[k]

    def test_constant_shift_invariance(self):
        split = catalog.split_sin_sphere(0.3)
        spec = split.metric_spec()
        f = split.density()
        f_shift = ScalarField(value=lambda p: f.value(p) + 9.0, grad=f.grad, hess=f.hess)
        grid = product_grid(split, (-3, 3), 21, 3)
        a = cd_verify(spec, f, 0.0, 1.0, grid)
        b = cd_verify(spec, f_shift, 0.0, 1.0, grid)
        assert a.verdict == b.verdict
        assert abs(a.min_eigenvalue - b.min_eigenvalue) < 1e-9

    def test_cd0N_implies_cd01_for_N_below_one(self):
        split = catalog.split_sin_sphere(0.35)
        spec = split.metric_spec()
        f = split.density()
        grid = product_grid(split, (-4, 4), 31, 3)
        for N in (-3.0, 0.0, 0.5):
            repN = cd_verify(spec, f, 0.0, N, grid)
            rep1 = cd_verify(spec, f, 0.0, 1.0, grid)
            if repN.passed:
                assert rep1.passed
            assert rep1.min_eigenvalue >= repN.min_eigenvalue - 1e-10

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            GridSpec(points=np.zeros((0, 2)), description="empty")

    def test_caveat_present(self):
        spec = catalog.flat(2)
        rep = cd_verify(spec, catalog.constant(0.0, 2), 0.0, math.inf,
                        box_grid([[-1, 1], [-1, 1]], [3, 3]))
        assert "not" in rep.caveat and "sampl" in rep.caveat

    def test_caveat_follows_verdict(self):
        # flat R^2 with f = 0: Ric^N = 0, so lambda = 0 sits on the boundary
        # and lambda = 1 fails everywhere
        spec, f = catalog.flat(2), catalog.constant(0.0, 2)
        grid = box_grid([[-1, 1], [-1, 1]], [3, 3])
        boundary = cd_verify(spec, f, 0.0, math.inf, grid)
        fail = cd_verify(spec, f, 1.0, math.inf, grid)
        assert boundary.verdict == "boundary" and boundary.caveat.startswith("no violation found")
        assert fail.verdict == "fail" and "no violation" not in fail.caveat
        assert fail.caveat.startswith("violation found at the witness")

    def test_report_grid_description(self):
        split = catalog.split_sin_sphere(0.4)
        grid = product_grid(split, (-2, 2), 11, 3)
        rep = cd_verify(split.metric_spec(), split.density(), 0.0, 1.0, grid)
        assert rep.grid_spec == grid.description
        assert rep.grid_spec.startswith("box grid [-2,2]:11 x ")

    def test_reruns_give_identical_bits(self):
        split = catalog.split_sin_sphere(0.3)
        grid = product_grid(split, (-3, 3), 15, 3)
        first = cd_verify(split.metric_spec(), split.density(), 0.0, 1.0, grid)
        second = cd_verify(split.metric_spec(), split.density(), 0.0, 1.0, grid)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.witness.tobytes() == second.witness.tobytes()
        assert first.verdict == second.verdict


def slice_mean_curvature(split, r0, density=None):
    """The weighted mean curvature H - g(grad f, d/dr) of the slice {r = r0}
    at the fiber basepoint: the weighted Laplacian of r, which rigidity.txt
    prints; ``density`` defaults to the split density."""
    p = np.concatenate([[r0], split.fiber_basepoint()])
    at = BlockGeometry.at(split.metric_spec(), p)
    density = split.density() if density is None else density
    return float(at.weighted_laplacian(density, r_coordinate_field(split.n))[0])


class TestWeightedMeanCurvature:
    def test_split_density_always_zero(self):
        for split in (catalog.split_sin_sphere(0.5),
                      catalog.split_sin_sphere(0.5, f_L=catalog.bounded_fiber_density()),
                      catalog.hyperbolic_split(3)):
            for r0 in (-1.0, 0.0, 2.3):
                assert abs(slice_mean_curvature(split, r0)) < 1e-10

    def test_unweighted_product_zero(self):
        # phi = 0, f = 0: flat slices, H = 0 and H_f = 0
        split = catalog.split_sin_euclidean(3, amplitude=0.0)
        zero = catalog.constant(0.0, 3)
        assert slice_mean_curvature(split, 1.0, density=zero) == pytest.approx(0.0, abs=1e-12)

    def test_linear_warp_unweighted(self):
        # phi = 2r, n = 3, f = 0: H = phi' = 2, so H_f = H = 2
        split = catalog.hyperbolic_split(3)
        zero = catalog.constant(0.0, 3)
        assert slice_mean_curvature(split, 0.7, density=zero) == pytest.approx(2.0, abs=1e-10)
        # with the split density phi the drift cancels H entirely
        assert slice_mean_curvature(split, 0.7) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# invariants at random points on random split spaces
# ---------------------------------------------------------------------------

@st.composite
def split_and_points(draw):
    """phi = a sin(b r) over a round-sphere or flat fiber, and three points
    inside the fiber's safe box."""
    a = draw(st.floats(-1.0, 1.0))
    b = draw(st.floats(0.3, 2.0))
    if draw(st.booleans()):
        fiber = SphereFiber(dim=2, einstein_constant=draw(st.floats(0.2, 2.0)))
    else:
        fiber = FlatFiber(dim=2, box=3.0)
    phi = expression_scalar_field(compile_expression(f"{a!r} * sin({b!r} * r)",
                                                     ("r", "y1", "y2")))
    split = SplitSpaceSpec(n=3, phi=phi, fiber=fiber)
    coord = st.floats(-2.0, 2.0)
    points = np.array([[draw(st.floats(-3.0, 3.0)), draw(coord), draw(coord)] for _ in range(3)])
    return split, points


def _eigenvalues(split, density, N, points):
    return cd_verify(split.metric_spec(), density, 0.0, N, GridSpec(points, "random")).eigenvalues


@settings(max_examples=15, deadline=None)
@given(split_and_points(), st.floats(-100.0, 100.0), st.sampled_from([1.0, 2.5, 4.0, math.inf]))
def test_constant_shift_of_f_leaves_eigenvalues_bit_identical(case, shift, N):
    split, points = case
    f = split.density()
    shifted = ScalarField(value=lambda p: f.value(p) + shift, grad=f.grad, hess=f.hess)
    assert (_eigenvalues(split, shifted, N, points).tobytes()
            == _eigenvalues(split, f, N, points).tobytes())


@settings(max_examples=15, deadline=None)
@given(split_and_points(), st.floats(0.25, 4.0))
def test_constant_metric_scale_leaves_ricci_unchanged(case, scale):
    split, points = case
    spec = split.metric_spec()
    scaled = MetricSpec(dim=3, jet=point_jet(lambda p: scale * spec.jet(p[None], 0)[0][0],
                                             lambda p: scale * spec.jet(p[None], 1)[1][0]),
                        domain=spec.domain)
    for p in points:
        ric = ricci_numeric(spec, p)
        # finite-difference rounding: about 2e-11 relative over 300 random cases
        tol = 1e-8 * max(1.0, np.max(np.abs(ric)))
        assert np.max(np.abs(ricci_numeric(scaled, p) - ric)) <= tol


@settings(max_examples=15, deadline=None)
@given(split_and_points(), st.floats(-20.0, 2.9), st.floats(-20.0, 2.9))
def test_eigenvalues_nondecreasing_in_N_below_n(case, N1, N2):
    split, points = case
    lo, hi = sorted((N1, N2))
    low = _eigenvalues(split, split.density(), lo, points)
    high = _eigenvalues(split, split.density(), hi, points)
    assert np.all(high >= low - 1e-10 * (1.0 + np.abs(low) + np.abs(high)))
