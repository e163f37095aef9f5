"""Chart calculus against hand-computed and classical values."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from cdsplit import catalog
from cdsplit.chart_core import (
    BlockGeometry,
    MetricSpec,
    _lowered,
    ScalarField,
    VectorField,
    as_point,
    bit_groups,
    cumulative_simpson,
    hessian_scalar,
    metric_at,
    partials_discrepancy,
    point_jet,
    ricci_numeric,
    simpson,
    stacked_rows,
    weighted_laplacian,
)
from cdsplit.errors import ChartDomain, NonFinite, SingularMetric


def quadratic_field(dim):
    # f = |x|^2 / 2 with analytic partials
    return ScalarField(
        value=lambda p: 0.5 * float(p @ p),
        grad=lambda p: p.copy(),
        hess=lambda p: np.eye(dim),
    )


class TestChristoffel:
    def test_flat_cartesian_all_zero(self):
        spec = catalog.flat(2)
        G = BlockGeometry.at(spec, np.array([0.3, -1.2])).christoffel[0]
        assert np.max(np.abs(G)) == 0.0

    def test_polar_chart_hand_values(self):
        # dr^2 + r^2 dtheta^2 at r = 2: Gamma^r_tt = -2, Gamma^t_rt = 1/2
        spec = catalog.polar_plane()
        G = BlockGeometry.at(spec, np.array([2.0, 0.7])).christoffel[0]
        assert G[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
        assert G[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
        assert G[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
        assert np.max(np.abs(G[mask])) < 1e-12

    def test_exponential_warp_hand_values(self):
        # dr^2 + e^{2r} dy^2: Gamma^r_yy = -e^{2r}, Gamma^y_ry = 1
        def g(p):
            return np.diag([1.0, math.exp(2.0 * p[0])])

        def partials(p):
            D = np.zeros((2, 2, 2))
            D[0, 1, 1] = 2.0 * math.exp(2.0 * p[0])
            return D

        spec = MetricSpec(dim=2, jet=point_jet(g, partials))
        for r in (-0.5, 0.0, 1.3):
            G = BlockGeometry.at(spec, np.array([r, 0.2])).christoffel[0]
            assert G[0, 1, 1] == pytest.approx(-math.exp(2.0 * r), rel=1e-12)
            assert G[1, 0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_singular_metric_raises(self):
        spec = MetricSpec(dim=2, jet=point_jet(lambda p: np.diag([1.0, 0.0]),
                                               lambda p: np.zeros((2, 2, 2))))
        with pytest.raises(SingularMetric):
            BlockGeometry.at(spec, np.zeros(2)).christoffel[0]

    def test_partials_that_raise_come_after_the_metric_checks(self):
        # where the metric is not positive definite, the positivity gate
        # names the point, as it did when g was evaluated before the
        # partials; where it is, the partials' own error is raised
        def partials(p):
            raise ZeroDivisionError("planted")

        spec = MetricSpec(dim=2, jet=point_jet(lambda p: np.diag([1.0, p[0]]), partials))
        message = f"metric at {np.array([-1.0, 0.0])} is not positive definite"
        with pytest.raises(SingularMetric, match=f"^{re.escape(message)}$"):
            BlockGeometry.at(spec, np.array([-1.0, 0.0])).christoffel[0]
        with pytest.raises(ZeroDivisionError, match="^planted$"):
            BlockGeometry.at(spec, np.array([1.0, 0.0])).christoffel[0]

    def test_nonfinite_point_rejected(self):
        spec = catalog.flat(2)
        with pytest.raises(NonFinite):
            BlockGeometry.at(spec, np.array([np.nan, 0.0])).christoffel[0]


class TestRicciNumeric:
    def test_flat_space_zero(self):
        spec = catalog.flat(3)
        ric = ricci_numeric(spec, np.array([0.2, -0.4, 1.0]))
        assert np.max(np.abs(ric)) < 1e-10

    def test_hyperbolic_three_space(self):
        # dr^2 + e^{2r}(dy1^2 + dy2^2): Ricci = -2 g, radial entry -2
        split = catalog.hyperbolic_split(3)
        spec = split.metric_spec()
        for p in (np.array([0.0, 0.1, 0.5]), np.array([1.1, -0.3, 0.2])):
            ric = ricci_numeric(spec, p)
            g = metric_at(spec, p)
            assert ric[0, 0] == pytest.approx(-2.0, abs=1e-7)
            assert np.max(np.abs(ric + 2.0 * g)) < 1e-6

    def test_unit_sphere_einstein_constant(self):
        spec = catalog.sphere_chart(2, einstein_constant=1.0)
        rng = np.random.default_rng(3)
        for _ in range(8):
            p = rng.uniform(-2, 2, 2)
            ric = ricci_numeric(spec, p)
            g = metric_at(spec, p)
            assert np.max(np.abs(ric - g)) / max(1.0, np.max(np.abs(g))) < 1e-5

    def test_polar_chart_flat(self):
        spec = catalog.polar_plane()
        ric = ricci_numeric(spec, np.array([1.7, 0.4]))
        assert np.max(np.abs(ric)) < 1e-8


class TestHessian:
    def test_constant_field_zero(self):
        spec = catalog.flat(2)
        H = hessian_scalar(spec, ScalarField.constant(3.7), np.array([0.4, 0.1]))
        assert np.max(np.abs(H)) == 0.0

    def test_cartesian_quadratic_identity(self):
        spec = catalog.flat(2)
        H = hessian_scalar(spec, quadratic_field(2), np.array([0.9, -0.2]))
        assert np.max(np.abs(H - np.eye(2))) < 1e-12

    def test_polar_quadratic_equals_metric(self):
        # f = r^2/2 in the polar chart: Hess f = diag(1, r^2) = g
        spec = catalog.polar_plane()
        f = ScalarField(value=lambda p: 0.5 * p[0] ** 2,
                        grad=lambda p: np.array([p[0], 0.0]),
                        hess=lambda p: np.diag([1.0, 0.0]))
        p = np.array([2.0, 1.1])
        H = hessian_scalar(spec, f, p)
        assert np.max(np.abs(H - np.diag([1.0, 4.0]))) < 1e-12
        assert np.max(np.abs(H - metric_at(spec, p))) < 1e-12

    def test_fd_fallback_matches_analytic(self):
        spec = catalog.flat(3)
        f_full = quadratic_field(3)
        f_bare = ScalarField(value=f_full.value)
        p = np.array([0.3, 1.4, -0.8])
        H1 = hessian_scalar(spec, f_full, p)
        H2 = hessian_scalar(spec, f_bare, p)
        assert np.max(np.abs(H1 - H2)) < 1e-6

    def test_linear_function_flat_chart_zero(self):
        spec = catalog.flat(3)
        a = np.array([0.3, -1.0, 2.0])
        f = ScalarField(value=lambda p: float(a @ p))
        H = hessian_scalar(spec, f, np.array([0.5, 0.2, -0.1]))
        assert np.max(np.abs(H)) < 1e-7


class TestLieDerivative:
    def test_zero_field(self):
        spec = catalog.flat(2)
        X = VectorField(value=lambda p: np.zeros(2))
        L = BlockGeometry.at(spec, np.array([1.0, 2.0])).lie_derivative(X)[0]
        assert np.max(np.abs(L)) == 0.0

    def test_rotation_field_is_killing(self):
        spec = catalog.flat(2)
        X = VectorField(value=lambda p: np.array([-p[1], p[0]]))
        rng = np.random.default_rng(5)
        for _ in range(5):
            L = BlockGeometry.at(spec, rng.uniform(-3, 3, 2)).lie_derivative(X)[0]
            assert np.max(np.abs(L)) < 1e-9

    def test_half_lie_of_gradient_is_hessian(self):
        # (1/2) L_{grad f} g = Hess f on random quadratics
        rng = np.random.default_rng(11)
        spec = catalog.flat(3)
        for _ in range(6):
            A = rng.uniform(-1, 1, (3, 3))
            A = 0.5 * (A + A.T)
            b = rng.uniform(-1, 1, 3)
            f = ScalarField(value=lambda p, A=A, b=b: 0.5 * float(p @ A @ p) + float(b @ p),
                            grad=lambda p, A=A, b=b: A @ p + b)
            X = catalog.gradient_as_vector_field(spec, f)
            p = rng.uniform(-2, 2, 3)
            L = BlockGeometry.at(spec, p).lie_derivative(X)[0]
            H = hessian_scalar(spec, f, p)
            assert np.max(np.abs(0.5 * L - H)) < 1e-5

    def test_half_lie_of_gradient_curved_chart(self):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        f = split.density()
        X = catalog.gradient_as_vector_field(spec, f)
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = np.concatenate([[rng.uniform(-2, 2)], rng.uniform(-1.5, 1.5, 2)])
            L = BlockGeometry.at(spec, p).lie_derivative(X)[0]
            H = hessian_scalar(spec, f, p)
            assert np.max(np.abs(0.5 * L - H)) < 1e-5


class TestWeightedLaplacian:
    def test_plain_laplacian_of_quadratic(self):
        spec = catalog.flat(2)
        out = weighted_laplacian(spec, ScalarField.constant(0.0), quadratic_field(2),
                                 np.array([0.7, 0.7]))
        assert out == pytest.approx(2.0, abs=1e-10)

    def test_linear_density_linear_field(self):
        # f = x, h = x on R^2: Lap_f h = 0 - 1 = -1
        spec = catalog.flat(2)
        f = ScalarField(value=lambda p: p[0], grad=lambda p: np.array([1.0, 0.0]),
                        hess=lambda p: np.zeros((2, 2)))
        out = weighted_laplacian(spec, f, f, np.array([0.2, -0.5]))
        assert out == pytest.approx(-1.0, abs=1e-10)

    def test_split_space_distance_function_vanishes(self):
        # warp e^{phi} in dimension 3 with density phi: weighted Laplacian of r is 0
        split = catalog.split_sin_sphere(0.3)
        spec = split.metric_spec()
        r_field = ScalarField(value=lambda p: p[0], grad=lambda p: np.eye(3)[0],
                              hess=lambda p: np.zeros((3, 3)))
        for p in (np.array([0.5, 0.2, -0.4]), np.array([-1.2, 1.0, 0.3])):
            out = weighted_laplacian(spec, split.density(), r_field, p)
            assert abs(out) < 1e-10

    def test_vector_density_drift(self):
        spec = catalog.flat(2)
        X = VectorField(value=lambda p: np.array([1.0, 0.0]))
        h = ScalarField(value=lambda p: p[0], grad=lambda p: np.array([1.0, 0.0]),
                        hess=lambda p: np.zeros((2, 2)))
        out = weighted_laplacian(spec, X, h, np.array([0.0, 0.0]))
        assert out == pytest.approx(-1.0, abs=1e-12)


class TestInvariantsAndGuards:
    def test_density_constant_shift_invariance(self):
        split = catalog.split_sin_sphere(0.4)
        spec = split.metric_spec()
        f = split.density()
        f_shift = ScalarField(value=lambda p: f.value(p) + 17.0, grad=f.grad, hess=f.hess)
        h = quadratic_field(3)
        p = np.array([0.8, 0.3, -0.2])
        a = weighted_laplacian(spec, f, h, p)
        b = weighted_laplacian(spec, f_shift, h, p)
        assert abs(a - b) < 1e-10

    def test_chart_domain_guard(self):
        spec = catalog.polar_plane(r_min=0.5)
        with pytest.raises(ChartDomain):
            ricci_numeric(spec, np.array([0.5, 0.0]))  # stencil dips below r_min

    def test_ricci_domain_radius_is_the_stencil_step(self):
        # the stencil reaches p +- h1 (1e-5 here) and no farther
        spec = catalog.polar_plane(r_min=0.5)
        assert np.all(np.isfinite(ricci_numeric(spec, np.array([0.5 + 1.5e-5, 0.0]))))
        with pytest.raises(ChartDomain, match=r"\(radius 1e-05\)"):
            ricci_numeric(spec, np.array([0.5 + 0.5e-5, 0.0]))

    def test_partials_discrepancy_small(self):
        spec = catalog.split_sin_sphere(0.25).metric_spec()
        d = partials_discrepancy(spec, np.array([0.9, 0.5, -0.1]))
        assert d < 1e-7

    def test_metric_symmetry_enforced(self):
        spec = MetricSpec(dim=2, jet=point_jet(lambda p: np.array([[1.0, 1e-6], [0.0, 1.0]]),
                                               lambda p: np.zeros((2, 2, 2))))
        with pytest.raises(ValueError):
            metric_at(spec, np.zeros(2))

    def test_metric_partials_required(self):
        with pytest.raises(TypeError, match="jet"):
            MetricSpec(dim=2)
        with pytest.raises(TypeError, match="partials"):
            point_jet(lambda p: np.eye(2))

    def test_point_length_checked(self):
        with pytest.raises(ValueError):
            as_point([1.0, 2.0, 3.0], dim=2)

    def test_point_is_copied(self):
        # mutating the caller's array afterwards changes neither the point
        # nor the tensors built from it
        spec = catalog.split_sin_sphere(0.4).metric_spec()
        p = np.array([0.8, 0.3, -0.2])
        q = as_point(p)
        at = BlockGeometry.at(spec, p)
        p[:] = [2.0, -1.0, 1.0]
        assert q.tolist() == [0.8, 0.3, -0.2]
        assert at.pts.tolist() == [[0.8, 0.3, -0.2]]
        fresh = BlockGeometry.at(spec, [0.8, 0.3, -0.2])
        assert np.array_equal(at.ricci, fresh.ricci)
        assert np.array_equal(at.g, fresh.g)

    def test_gradient_norm(self):
        spec = catalog.polar_plane()
        r_field = ScalarField(value=lambda p: p[0], grad=lambda p: np.array([1.0, 0.0]))
        at = BlockGeometry.at(spec, np.array([2.0, 0.1]))
        assert at.grad_norm_squared(r_field)[0] == pytest.approx(1.0)

    def test_inverse_metric(self):
        spec = catalog.polar_plane()
        p = np.array([2.0, 0.0])
        gi = BlockGeometry.at(spec, p).ginv[0]
        assert np.max(np.abs(gi @ metric_at(spec, p) - np.eye(2))) < 1e-14

    def test_density_gradient_fd_consistency(self):
        # analytic gradient of a density agrees with finite differences
        split = catalog.split_sin_sphere(0.4, f_L=catalog.bounded_fiber_density())
        spec = split.metric_spec()
        f = split.density()
        f_bare = ScalarField(value=f.value)
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = np.concatenate([[rng.uniform(-3, 3)], rng.uniform(-2, 2, 2)])
            at = BlockGeometry.at(spec, p)
            ga, gn = at.gradient(f)[0], at.gradient(f_bare)[0]
            assert np.max(np.abs(ga - gn)) / max(1.0, np.max(np.abs(ga))) < 1e-6


@pytest.mark.parametrize("n", range(1, 7))
def test_block_cholesky_is_potrf_at_each_point_bit_for_bit(n):
    # random SPD metrics, one per point, with condition numbers up to and at
    # 1e12.  The block's Cholesky factor and inverse are numpy's LAPACK calls
    # on each matrix, bit for bit those of the point alone; scipy's dpotrf
    # and cho_solve, from another LAPACK build, agree to within n eps cond(g)
    # relative to the largest entry, the forward-error bound of both
    rng = np.random.default_rng(500 + n)
    k = 400
    Q = np.linalg.qr(rng.standard_normal((k, n, n)))[0]
    cond = np.concatenate([10.0 ** rng.uniform(0.0, 12.0, k - 40), np.full(40, 1e12)])
    ev = cond[:, None] ** np.linspace(0.0, 1.0, n) * rng.uniform(1e-2, 1e2, (k, 1))
    A = (Q * ev[:, None, :]) @ Q.swapaxes(1, 2)
    mats = 0.5 * (A + A.swapaxes(1, 2))
    spec = MetricSpec(dim=n, jet=point_jet(lambda q: mats[int(q[0])],
                                           lambda q: np.zeros((n, n, n))), name="spd")
    P = np.zeros((k, n))
    P[:, 0] = np.arange(k)
    at = BlockGeometry(spec, P)
    assert at.g.tobytes() == mats.tobytes()
    eps = np.finfo(float).eps
    for p, a, c, inv in zip(P, mats, at.chol, at.ginv):
        one = BlockGeometry(spec, p[None])
        assert one.chol[0].tobytes() == c.tobytes()
        assert one.ginv[0].tobytes() == inv.tobytes()
        assert not np.triu(c, 1).any()
        expected, info = dpotrf(a, lower=1, clean=1, overwrite_a=0)
        assert info == 0
        bound = n * eps * np.linalg.cond(a)
        assert np.max(np.abs(c - expected)) <= bound * np.max(np.abs(expected))
        oracle = cho_solve((expected, True), np.eye(n))
        assert np.max(np.abs(inv - oracle)) <= bound * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", range(1, 6))
def test_lowered_is_the_transposed_sum_bit_for_bit(n):
    # the gathers give d_i g_jl + d_j g_il - d_l g_ij with the operations, in
    # the order, of the sum of transposed views
    D = np.random.default_rng(600 + n).standard_normal((7, n, n, n))
    expected = D.transpose(0, 3, 1, 2) + D.transpose(0, 3, 2, 1) - D
    assert _lowered(D).tobytes() == expected.tobytes()
    assert _lowered(D[:1]).tobytes() == expected[:1].tobytes()


@pytest.mark.parametrize("n", [2, 5])
def test_block_cholesky_names_the_first_point_not_positive_definite(n):
    # point 0 is positive definite, points 1 and 2 are not
    mats = [np.eye(n), np.diag([1.0] * (n - 1) + [-1.0]), np.zeros((n, n))]
    spec = MetricSpec(dim=n, jet=point_jet(lambda q: mats[int(q[0])],
                                           lambda q: np.zeros((n, n, n))), name="planted")
    P = np.zeros((3, n))
    P[:, 0] = np.arange(3)
    message = f"metric at {P[1]} is not positive definite"
    with pytest.raises(SingularMetric, match=f"^{re.escape(message)}$"):
        BlockGeometry(spec, P).chol


# ---------------------------------------------------------------------------
# quadrature: the local Simpson rules against scipy.integrate, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spacing", ["uniform", "nonuniform"])
@pytest.mark.parametrize("n", [*range(1, 10), 257])
def test_simpson_rules_match_scipy_bit_for_bit(n, spacing):
    rng = np.random.default_rng(1000 + n)
    if spacing == "uniform":
        x = 1e-3 * np.arange(n)  # the RK4 time grid of a trace
    else:
        x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.5
    # random samples, and all -0.0, whose integrals are signed zeros
    for y in (rng.standard_normal(n), np.full(n, -0.0)):
        expected = scipy.integrate.simpson(y, x=x)
        assert np.float64(simpson(y, x)).tobytes() == np.float64(expected).tobytes()
        expected = scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)
        assert cumulative_simpson(y, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [1, 2, 3, 257, 5000])
def test_stacked_simpson_is_each_row_alone_bit_for_bit(rows, order):
    # np.linspace(..., axis=1) gives column-major rows, over which a sum
    # along the last axis adds each row's terms one by one
    rng = np.random.default_rng(rows)
    x = np.linspace(0.0, rng.uniform(0.1, 10.0, rows), 401, axis=1)
    y = np.exp(-np.sin(3.0 * x) * rng.uniform(0.5, 3.0, (rows, 1)))
    x, y = np.asarray(x, order=order), np.asarray(y, order=order)
    got = simpson(y, x)
    assert got.shape == (rows,)
    want = np.array([scipy.integrate.simpson(y[i], x=x[i]) for i in range(rows)])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 400])
def test_stacked_simpson_of_any_count_is_each_row_alone_bit_for_bit(n):
    # odd and even sample counts, column-major rows with abscissae of their
    # own, or one row of abscissae for all
    rng = np.random.default_rng(n)
    x = np.asfortranarray(np.cumsum(rng.uniform(0.05, 1.0, (7, n)), axis=1))
    y = rng.standard_normal((7, n))
    for xs in (x, x[0]):
        want = np.array([scipy.integrate.simpson(y[i], x=x[i] if xs is x else xs)
                         for i in range(7)])
        assert simpson(y, xs).tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, 97])
@pytest.mark.parametrize("n", range(3, 7))
def test_block_reductions_are_per_point_products_bit_for_bit(n, count):
    # the stacked reductions of a BlockGeometry against each point's own
    # products, from the same block's inverse metric, gradients and Hessian
    twisted, X = catalog.nongradient_example(n)
    psi, h = twisted.psi, quadratic_field(n)
    rng = np.random.default_rng(10 * n + count)
    pts = np.column_stack([rng.uniform(-3, 3, count), rng.uniform(-1, 1, (count, n - 1))])
    at = BlockGeometry(twisted.metric_spec(), pts)
    ginv, dh, df, H = at.ginv, at.gradient(h), at.gradient(psi), at.hessian(h)
    Xv = at.evaluated(X.value, "vector field")
    lap = [float(np.sum(gi * Hi)) for gi, Hi in zip(ginv, H)]

    def same(stacked, per_point):
        assert stacked.tobytes() == np.array(per_point).tobytes()

    same(at.gradient_vector(h), [gi @ d for gi, d in zip(ginv, dh)])
    same(at.grad_norm_squared(h), [float(d @ gi @ d) for d, gi in zip(dh, ginv)])
    same(at.weighted_laplacian(psi, h),
         [a - float(b @ gi @ d) for a, b, gi, d in zip(lap, df, ginv, dh)])
    same(at.weighted_laplacian(X, h), [a - float(x @ d) for a, x, d in zip(lap, Xv, dh)])


def _recorded_block(values):
    """A block form that returns ``values`` at its rows, and the list of the
    row counts it was called with."""
    calls = []

    def block(P):
        calls.append(len(P))
        return values[P[:, 0].astype(int)]

    return block, calls


def test_stacked_rows_runs_a_failed_pass_again_row_by_row():
    P = np.arange(4.0)[:, None]
    values = np.array([1.0, np.inf, 2.0, 3.0])
    block, calls = _recorded_block(values)
    # a pass of more than one row with a value that is not finite fails, and
    # each row is run again alone: through ``one`` when given, else as its
    # block of one, which keeps its non-finite value
    got = stacked_rows(block, P, one=lambda p: -values[int(p[0])])
    assert calls == [4] and got.tolist() == [-1.0, -np.inf, -2.0, -3.0]
    calls.clear()
    assert stacked_rows(block, P).tolist() == values.tolist() and calls == [4, 1, 1, 1, 1]
    # a single row is ``one`` alone, or the block of that row
    calls.clear()
    assert stacked_rows(block, P[1:2], one=lambda p: 7.0).tolist() == [7.0] and calls == []
    assert stacked_rows(block, P[1:2]).tolist() == [np.inf] and calls == [1]


def test_stacked_rows_raises_as_the_first_failing_row_alone():
    def block(P):
        if len(P) > 1:
            raise ArithmeticError("a stacked pass fails as a whole")
        return np.sqrt(P[:, 0] - 2.0)

    P = np.arange(5.0)[:, None]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = stacked_rows(block, P[1:4])
    assert [str(w.message) for w in seen] == ["invalid value encountered in sqrt"]
    assert np.isnan(got[0]) and got[1:].tolist() == [0.0, 1.0]

    def one(p):
        if p[0] == 1.0:
            raise NonFinite(f"no value at {p[0]}")
        return p[0]

    with pytest.raises(NonFinite, match="^no value at 1.0$"):
        stacked_rows(block, P, one)


def test_bit_groups_keep_each_bit_pattern_apart():
    # +0.0 and -0.0 compare equal, and so do no two NaNs, but each bit
    # pattern is a group of its own; a strided column is grouped as it is
    other_nan = np.frombuffer(np.int64(0x7FF8000000000001).tobytes())[0]
    x = np.array([2.0, -0.0, 0.0, 2.0, np.nan, other_nan, -0.0, 5e-324, 2.0, np.nan])
    for column in (x, np.column_stack([-x, x])[:, 1]):
        first, inverse = bit_groups(column)
        assert sorted(first.tolist()) == [0, 1, 2, 4, 5, 7]
        assert column[first][inverse].tobytes() == x.tobytes()
        # each group's first index is its first entry
        assert first.tolist() == [np.flatnonzero(inverse == g)[0] for g in range(len(first))]
