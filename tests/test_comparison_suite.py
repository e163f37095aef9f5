"""Bochner identities, comparison bound, comparison ODE, rigidity."""

import math

import numpy as np
import pytest

from cdsplit import catalog
from cdsplit.chart_core import ScalarField, VectorField, weighted_laplacian
from cdsplit.comparison_suite import (
    RadialModel,
    bochner_inequality_margin,
    bochner_residual,
    comparison_bound,
    radial_comparison_check,
    riccati_comparison_trace,
    rigidity_check,
)
from cdsplit.errors import (
    CDViolation,
    EmptySamples,
    NotDistanceFunction,
    ZeroRadius,
)
from cdsplit.geodesic_flow import geodesic_integrate


def samples_for(f, r, k=401):
    ts = np.linspace(0.0, r, k)
    return np.stack([ts, np.array([f(t) for t in ts])], axis=-1)


class TestComparisonBound:
    def test_zero_density_classical(self):
        # f = 0, n = 3, r = 2: (n-1)/r = 1
        assert comparison_bound(samples_for(lambda t: 0.0, 2.0), 3, 2.0) == pytest.approx(
            1.0, rel=1e-14)

    def test_constant_density_cancels_exactly(self):
        for c in (-3.0, 0.5, 40.0):
            got = comparison_bound(samples_for(lambda t: c, 2.0), 3, 2.0)
            assert got == pytest.approx(1.0, rel=1e-13)

    def test_linear_density_closed_form(self):
        # f(t) = (n-1) t with n = 2: bound = 2 / (e^{2r} - 1)
        r = 1.0
        got = comparison_bound(samples_for(lambda t: t, r), 2, r)
        want = 2.0 / (math.exp(2.0 * r) - 1.0)
        assert want == pytest.approx(0.313035, abs=1e-6)  # frozen closed form
        assert got == pytest.approx(want, rel=1e-9)

    def test_zero_radius_rejected(self):
        with pytest.raises(ZeroRadius):
            comparison_bound(samples_for(lambda t: 0.0, 1.0), 3, 0.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(EmptySamples):
            comparison_bound(np.array([[0.0, 0.0], [1.0, 0.0]]), 3, 1.0)

    def test_coverage_required(self):
        ts = np.linspace(0.5, 2.0, 50)
        arr = np.stack([ts, np.zeros(50)], axis=-1)
        with pytest.raises(ValueError):
            comparison_bound(arr, 3, 2.0)


class TestRadialComparison:
    def test_unweighted_equality(self):
        model = catalog.unweighted_model(3)
        out = radial_comparison_check(model, np.linspace(0.1, 10.0, 25))
        for s in out:
            assert s.lap_f_r == pytest.approx(2.0 / s.r, rel=1e-12)
            assert s.bound == pytest.approx(2.0 / s.r, rel=1e-9)
            assert abs(s.slack) < 1e-9

    def test_log_model_positive_slack(self):
        model = catalog.radial_log_model(3)
        out = radial_comparison_check(model, np.linspace(0.1, 10.0, 50))
        v_prev = 0.0
        for s in out:
            assert s.slack >= -1e-8
            assert s.slack > 1e-3  # strictly positive for this model
            # closed forms: lap = 2/(rho (1+rho^2)), bound = 2/((1+rho^2) atan rho)
            assert s.lap_f_r == pytest.approx(2.0 / (s.r * (1 + s.r ** 2)), rel=1e-10)
            assert s.bound == pytest.approx(2.0 / ((1 + s.r ** 2) * math.atan(s.r)),
                                            rel=1e-8)
            assert s.v_integral > v_prev  # strictly increasing in r
            v_prev = s.v_integral

    def test_violating_model_refused(self):
        model = RadialModel(
            n=3, f=lambda rho: -rho ** 2, df=lambda rho: -2.0 * rho,
            d2f=lambda rho: -2.0, name="concave density")
        with pytest.raises(CDViolation):
            radial_comparison_check(model, np.linspace(0.1, 3.0, 10))

    def test_numeric_cross_check(self):
        model = catalog.radial_log_model(3)
        spec, density, r_field = model.metric_spec(), model.density(), model.r_field()
        for rho in (0.1, 1.0, 7.5):
            p = np.array([rho, 0.0, 0.0])
            assert weighted_laplacian(spec, density, r_field, p) == pytest.approx(
                model.lap_f_r(rho), abs=1e-6)


class TestBochnerResidual:
    def test_flat_linear_field_zero(self):
        spec = catalog.flat(3)
        h = ScalarField(value=lambda p: p[0] + 2.0 * p[1],
                        grad=lambda p: np.array([1.0, 2.0, 0.0]),
                        hess=lambda p: np.zeros((3, 3)))
        res = bochner_residual(spec, ScalarField.constant(0.0), h, np.array([0.2, 0.1, 0.5]))
        assert res < 1e-10

    def test_flat_quadratic_value_n(self):
        # f = 0, h = |x|^2/2: both sides equal n
        for n in (2, 3):
            spec = catalog.flat(n)
            h = ScalarField(value=lambda p: 0.5 * float(p @ p), grad=lambda p: p.copy(),
                            hess=lambda p, n=n: np.eye(n))
            p = np.full(n, 0.4)
            res = bochner_residual(spec, ScalarField.constant(0.0), h, p)
            assert res <= 1e-4

    def test_flat_linear_density_quadratic_field(self):
        # f = <a, x>, h = |x|^2/2: both sides equal n - <a, x>
        n = 3
        a = np.array([0.7, -0.3, 0.2])
        spec = catalog.flat(n)
        f = ScalarField(value=lambda p: float(a @ p), grad=lambda p: a.copy(),
                        hess=lambda p: np.zeros((n, n)))
        h = ScalarField(value=lambda p: 0.5 * float(p @ p), grad=lambda p: p.copy(),
                        hess=lambda p: np.eye(n))
        p = np.array([0.3, -0.6, 1.0])
        res = bochner_residual(spec, f, h, p)
        assert res <= 1e-4

    def test_randomized_cubics_on_flat_and_warped(self):
        rng = np.random.default_rng(10)
        charts = [catalog.flat(3), catalog.split_sin_sphere(0.5).metric_spec()]
        for spec in charts:
            for _ in range(8):
                h = random_cubic(rng, 3)
                f = random_cubic(rng, 3, scale=0.4)
                p = np.concatenate([[rng.uniform(-1, 1)], rng.uniform(-0.8, 0.8, 2)])
                assert bochner_residual(spec, f, h, p) <= 1e-4

    def test_vector_density_variant(self):
        # gradient density as a vector field gives the same residual scale
        spec = catalog.flat(3)
        rng = np.random.default_rng(14)
        f = random_cubic(rng, 3, scale=0.5)
        X = catalog.gradient_as_vector_field(spec, f)
        h = random_cubic(rng, 3)
        p = rng.uniform(-1, 1, 3)
        assert bochner_residual(spec, X, h, p) <= 1e-4

    def test_nongradient_field_identity(self):
        spec, X = catalog.nongradient_example(n=4, einstein_constant=1.0, amplitude=0.05)
        mspec = spec.metric_spec()
        rng = np.random.default_rng(3)
        for _ in range(3):
            h = random_cubic(rng, 4, scale=0.6)
            p = np.concatenate([[rng.uniform(-1, 1)], rng.uniform(-0.7, 0.7, 3)])
            assert bochner_residual(mspec, X, h, p) <= 1e-4


def random_cubic(rng, n, scale=1.0):
    A = rng.uniform(-0.5, 0.5, (n, n))
    A = 0.5 * (A + A.T)
    b = rng.uniform(-1, 1, n)
    C = rng.uniform(-0.2, 0.2, (n, n, n))
    C = (C + C.transpose(1, 0, 2) + C.transpose(2, 1, 0) + C.transpose(0, 2, 1)
         + C.transpose(1, 2, 0) + C.transpose(2, 0, 1)) / 6.0

    def value(p):
        return scale * (float(np.einsum("ijk,i,j,k->", C, p, p, p))
                        + 0.5 * float(p @ A @ p) + float(b @ p))

    def grad(p):
        return scale * (3.0 * np.einsum("ijk,j,k->i", C, p, p) + A @ p + b)

    def hess(p):
        return scale * (6.0 * np.einsum("ijk,k->ij", C, p) + A)

    return ScalarField(value=value, grad=grad, hess=hess)


class TestBochnerMargin:
    def test_flat_point_distance_equality(self):
        # distance to the origin in flat R^3 at |x| = 2 with m = 2: the two
        # nonzero Hessian eigenvalues are equal, so the margin vanishes
        model = catalog.unweighted_model(3)
        spec = model.metric_spec()
        p = np.array([2.0, 0.0, 0.0])
        margin = bochner_inequality_margin(spec, ScalarField.constant(0.0), 0.0, 2,
                                           model.r_field(), p)
        assert -1e-6 <= margin <= 0.5

    def test_split_space_equality_case(self):
        for split in (catalog.split_sin_sphere(0.5),
                      catalog.split_sin_sphere(0.5, f_L=catalog.bounded_fiber_density())):
            spec = split.metric_spec()
            n = split.n
            r_field = ScalarField(value=lambda q: q[0], grad=lambda q: np.eye(n)[0],
                                  hess=lambda q: np.zeros((n, n)))
            for p in (np.array([0.4, 0.2, -0.3]), np.array([-1.0, 0.6, 0.4])):
                margin = bochner_inequality_margin(spec, split.density(), 0.0, n - 1,
                                                   r_field, p)
                assert abs(margin) <= 1e-4

    def test_unequal_eigenvalues_strict_margin(self):
        # distance to the x3-axis: one nonzero Hessian eigenvalue, m = 2
        spec = catalog.flat(3)

        def rho(p):
            return math.hypot(p[0], p[1])

        field = ScalarField(
            value=lambda p: rho(p),
            grad=lambda p: np.array([p[0], p[1], 0.0]) / rho(p),
            hess=lambda p: _axis_distance_hessian(p),
        )
        p = np.array([1.2, 0.9, 0.4])
        margin = bochner_inequality_margin(spec, ScalarField.constant(0.0), 0.0, 2,
                                           field, p)
        want = 1.0 / (2.0 * rho(p) ** 2)  # closed form for this configuration
        assert margin == pytest.approx(want, abs=1e-6)
        assert margin > 0.05

    def test_log_model_margin_closed_form(self):
        # r_field = |x|, m = n-1: both nonzero Hessian eigenvalues equal, so
        # the margin reduces to v^2 * radial generalized Ricci = 2/(1+rho^2)
        model = catalog.radial_log_model(3)
        spec = model.metric_spec()
        for rho in (0.5, 1.0, 3.0):
            p = np.array([rho, 0.0, 0.0])
            margin = bochner_inequality_margin(spec, model.density(), 0.0, 2,
                                               model.r_field(), p)
            assert margin == pytest.approx(2.0 / (1.0 + rho ** 2), abs=1e-4)
            assert margin >= -1e-4

    def test_non_unit_gradient_rejected(self):
        spec = catalog.flat(2)
        bad = ScalarField(value=lambda p: 2.0 * p[0], grad=lambda p: np.array([2.0, 0.0]),
                          hess=lambda p: np.zeros((2, 2)))
        with pytest.raises(NotDistanceFunction):
            bochner_inequality_margin(spec, ScalarField.constant(0.0), 0.0, 1, bad,
                                      np.array([1.0, 0.0]))

    def test_vector_density_unsupported(self):
        spec = catalog.flat(2)
        X = VectorField(value=lambda p: np.zeros(2))
        field = ScalarField(value=lambda p: p[0], grad=lambda p: np.array([1.0, 0.0]),
                            hess=lambda p: np.zeros((2, 2)))
        with pytest.raises(TypeError):
            bochner_inequality_margin(spec, X, 0.0, 1, field, np.zeros(2))


def _axis_distance_hessian(p):
    rho2 = p[0] ** 2 + p[1] ** 2
    rho = math.sqrt(rho2)
    H = np.zeros((3, 3))
    H[0, 0] = p[1] ** 2 / rho ** 3
    H[1, 1] = p[0] ** 2 / rho ** 3
    H[0, 1] = H[1, 0] = -p[0] * p[1] / rho ** 3
    return H


class TestComparisonODE:
    def test_flat_unweighted_zero_residual(self):
        model = catalog.unweighted_model(3)
        spec = model.metric_spec()
        trace = geodesic_integrate(spec, np.array([0.1, 0.0, 0.0]),
                                   np.array([1.0, 0.0, 0.0]), T=5.0, dt=1e-3)
        rep = riccati_comparison_trace(model, trace)
        assert rep.max_residual <= 1e-6

    def test_split_space_identically_zero(self):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        p0 = np.array([-1.0, 0.2, 0.1])
        trace = geodesic_integrate(spec, p0, np.array([1.0, 0.0, 0.0]), T=4.0, dt=1e-3)
        rep = riccati_comparison_trace(split, trace)
        assert np.max(np.abs(rep.lam)) <= 1e-12
        assert rep.max_residual <= 1e-12

    def test_log_model_residual_nonpositive(self):
        model = catalog.radial_log_model(3)
        spec = model.metric_spec()
        trace = geodesic_integrate(spec, np.array([0.1, 0.0, 0.0]),
                                   np.array([1.0, 0.0, 0.0]), T=8.0, dt=1e-3)
        rep = riccati_comparison_trace(model, trace)
        assert rep.max_residual <= 1e-3
        assert np.all(rep.residuals <= 1e-3)


class TestRigidity:
    def test_product_exact(self):
        split = catalog.split_sin_euclidean(3, amplitude=0.0)
        rep = rigidity_check(split, n_points=10)
        assert rep.grad_norm_dev < 1e-12
        assert rep.lap_f_r_dev < 1e-12
        assert rep.hess_proportionality_dev < 1e-12
        assert rep.radial_ricci_dev < 1e-10
        assert rep.busemann_pair_dev < 1e-12
        assert rep.passes()

    def test_sphere_fiber_within_tolerance(self):
        split = catalog.split_sin_sphere(0.7)
        rep = rigidity_check(split, n_points=40)
        assert rep.lap_f_r_dev <= 1e-6
        assert rep.hess_proportionality_dev <= 1e-5
        assert rep.radial_ricci_dev <= 1e-6
        assert rep.passes()

    def test_weighted_fiber_also_rigid(self):
        split = catalog.split_sin_sphere(0.7, f_L=catalog.bounded_fiber_density())
        rep = rigidity_check(split, n_points=25)
        assert rep.passes()
