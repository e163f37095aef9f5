"""Bochner identities, comparison bound, comparison ODE, rigidity."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import catalog
from cdsplit.chart_core import (
    BlockGeometry,
    ScalarField,
    block_field,
    field_rows,
    r_coordinate_field,
    weighted_laplacian,
)
from cdsplit.comparison_suite import (
    QUAD_BLOCK,
    QUAD_POINTS,
    RadialModel,
    bochner_residual,
    comparison_bound,
    radial_comparison_check,
    rigidity_check,
)
from cdsplit.errors import (
    CDViolation,
    EmptySamples,
    ZeroRadius,
)
from cdsplit.manifest import box_grid, inset_box, parse_manifest, sample_box
from cdsplit.weighted_curvature import GridSpec, cd_verify, generalized_ricci_at

RADIAL_LOG = Path(__file__).resolve().parent.parent / "manifests" / "radial_log.cdm"


def ray(rho_min, rho_max, count):
    """``count`` radii rho * e_1 in R^3, as verify-cd grids a radial model."""
    return box_grid([[rho_min, rho_max], [0, 0], [0, 0]], [count, 1, 1])


def rigidity_points(split, count):
    """``count`` points with r in [-5, 5] and the fiber's safe box inset 5%, seed 0."""
    return sample_box(np.vstack([(-5.0, 5.0), inset_box(split.fiber.safe_box, 0.05)]), count, 0)


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

    @pytest.mark.parametrize("k", [3, 4, 400, 401])
    def test_stack_is_each_radius_alone_bit_for_bit(self, k):
        # the rows of a stack come from linspace(..., axis=1), column-major,
        # and the second stack's samples run past most of its radii, so each
        # of its radii keeps its own count of samples
        rs = np.random.default_rng(k).uniform(0.05, 12.0, 70)
        for stop in (rs, 1.1 * rs):
            ts = np.linspace(0.0, stop, k, axis=1)
            stack = np.stack([ts, 3.0 * np.log1p(ts ** 2) + np.sin(5.0 * ts)], axis=-1)
            got = comparison_bound(stack, 3, rs)
            want = np.array([comparison_bound(stack[i], 3, rs[i]) for i in range(len(rs))])
            assert got.tobytes() == want.tobytes()
            assert type(comparison_bound(stack[0], 3, rs[0])) is float

    def test_stack_refuses_as_its_first_failing_radius(self):
        ts = np.linspace(0.0, [1.0, 2.0, 3.0], 9, axis=1)
        stack = np.stack([ts, np.zeros_like(ts)], axis=-1)
        with pytest.raises(ZeroRadius, match="got -1.0"):
            comparison_bound(stack, 3, np.array([1.0, -1.0, 0.0]))
        with pytest.raises(ValueError, match=r"cover \[0, 2.5\], got \[0.0, 2.0\]"):
            comparison_bound(stack, 3, np.array([1.0, 2.5, 3.5]))


class TestRadialComparison:
    def test_unweighted_equality(self):
        model = catalog.unweighted_model(3)
        out = radial_comparison_check(model, ray(0.1, 10.0, 25))
        for s in out:
            assert s.lap_f_r == pytest.approx(2.0 / s.r, rel=1e-12)
            assert s.bound == pytest.approx(2.0 / s.r, rel=1e-9)
            assert abs(s.slack) < 1e-9

    def test_log_model_positive_slack(self):
        model = catalog.radial_log_model(3)
        out = radial_comparison_check(model, ray(0.1, 10.0, 50))
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
            radial_comparison_check(model, ray(0.1, 3.0, 10))

    @pytest.mark.parametrize("count", [1, QUAD_BLOCK - 1, QUAD_BLOCK, QUAD_BLOCK + 1, 257])
    @pytest.mark.parametrize("which", ["unweighted", "log", "manifest"])
    def test_samples_are_the_per_radius_oracle_bit_for_bit(self, comparison_models, count,
                                                           which):
        # radius counts on either side of a quadrature block edge, and 257,
        # whose last radius is a block of its own in both of compare's passes
        model = comparison_models[which]
        grid = ray(0.1, 10.0, count)
        got = radial_comparison_check(model, grid)
        want = _per_radius_comparison(model, grid)
        assert [_sample_bytes(s) for s in got] == [_sample_bytes(s) for s in want]

    def test_overflowing_quadrature_warns_as_the_per_radius_oracle(self, comparison_models):
        # exp(f(rho) - f(t)) overflows beyond rho = 5.8, so the quadrature
        # blocks from there on run again one radius at a time
        model = comparison_models["steep"]
        grid = ray(0.1, 10.0, 100)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = radial_comparison_check(model, grid)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = _per_radius_comparison(model, grid)
        assert [_sample_bytes(s) for s in got] == [_sample_bytes(s) for s in want]
        assert any(s.bound == 0.0 for s in got)
        assert want_warnings
        assert ([(w.category, str(w.message)) for w in got_warnings]
                == [(w.category, str(w.message)) for w in want_warnings])

    def test_numeric_cross_check(self):
        model = catalog.radial_log_model(3)
        spec, density, r_field = model.metric_spec(), model.density(), model.r_field()
        for rho in (0.1, 1.0, 7.5):
            p = np.array([rho, 0.0, 0.0])
            assert weighted_laplacian(spec, density, r_field, p) == pytest.approx(
                model.lap_f_r(rho), abs=1e-6)


@pytest.fixture(scope="module")
def comparison_models(tmp_path_factory):
    """Radial models on R^3 for compare: two of the catalog, and two of a
    manifest, whose f is an expression with a block form."""
    def manifest_model(name, f):
        path = tmp_path_factory.mktemp("compare") / f"{name}.cdm"
        path.write_text(RADIAL_LOG.read_text().replace("f = log(1 + r^2)", f"f = {f}"))
        return parse_manifest(path).geometry["model"]

    return {"unweighted": catalog.unweighted_model(3), "log": catalog.radial_log_model(3),
            "manifest": manifest_model("two_log", "2 * log(1 + r^2)"),
            "steep": manifest_model("steep_log", "200 * log(1 + r^2)")}


def _per_radius_comparison(model, grid):
    """radial_comparison_check radius by radius: the weighted Laplacian of
    r at the radius's point alone, and two 1-d Simpson rules of scipy on its
    QUAD_POINTS samples of [0, rho]."""
    n, samples = model.n, []
    for p in grid.points:
        rho = float(p[0])
        num = weighted_laplacian(model.metric_spec(), model.density(), model.r_field(), p)
        ts = np.linspace(0.0, rho, QUAD_POINTS)
        fs = field_rows(model.f, ts)
        integral = scipy.integrate.simpson(np.exp(-2.0 * (fs - fs[-1]) / (n - 1)), x=ts)
        bound = (n - 1) / float(integral)
        lap = model.lap_f_r(rho)
        assert abs(num - lap) <= 1e-6 * max(1.0, abs(lap))
        v_int = float(scipy.integrate.simpson(np.exp(-2.0 * fs / (n - 1)), x=ts))
        samples.append((rho, lap, bound, bound - lap, v_int))
    return samples


def _sample_bytes(sample):
    """The bytes of a sample's floats, with each one's type."""
    values = sample if isinstance(sample, tuple) else (
        sample.r, sample.lap_f_r, sample.bound, sample.slack, sample.v_integral)
    return [(type(v), np.float64(v).tobytes()) for v in values]


def _radial_points():
    """400 seeded points of R^3, with coordinates of exactly 0.0 and -0.0,
    negative ones, and a few far out, none at the origin."""
    pts = np.random.default_rng(27).uniform(-12.0, 12.0, (400, 3))
    pts[:40, 0] = 0.0
    pts[40:80, 1] = -0.0
    pts[80:100, 1:] = [0.0, -0.0]
    pts[100:110] *= 1e5
    return pts


def _per_row_radial(model):
    """The per-point formulas of a radial model's density and distance
    function, with rho taken as ``float(np.linalg.norm(p))``: the oracle of
    their block forms."""
    f, df, d2f, eye = model.f, model.df, model.d2f, np.eye(model.n)

    def norm(p):
        return float(np.linalg.norm(p))

    def density_hess(p):
        rho = norm(p)
        rr = np.outer(p, p) / (rho * rho)
        return d2f(rho) * rr + df(rho) / rho * (eye - rr)

    def r_hess(p):
        rho = norm(p)
        return (eye - np.outer(p, p) / (rho * rho)) / rho

    return {"density": {"value": lambda p: f(norm(p)),
                        "grad": lambda p: df(norm(p)) * p / norm(p),
                        "hess": density_hess},
            "r": {"value": norm, "grad": lambda p: p / norm(p), "hess": r_hess}}


def _manifest_model():
    return parse_manifest(RADIAL_LOG).geometry["model"]


def _check_radial_block_form(model, which, part):
    """A radial model's density (``which`` "density") or distance function
    ("r"), the form ``part``: its rows, and each point as its block of one,
    bit for bit the per-point formula's, on ``_radial_points`` with
    warnings as errors."""
    fields = {"density": model.density(), "r": model.r_field()}
    fn = getattr(fields[which], part)
    oracle = _per_row_radial(model)[which][part]
    assert callable(getattr(fn, "rows", None))
    pts = _radial_points()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = field_rows(fn, pts)
        one = np.array([fn(p) for p in pts], dtype=float)
    want = np.array([oracle(p) for p in pts], dtype=float)
    assert got.shape == want.shape == one.shape
    assert got.tobytes() == want.tobytes() == one.tobytes()


@pytest.mark.parametrize("which", ["density", "r"])
@pytest.mark.parametrize("part", ["value", "grad", "hess"])
def test_radial_block_forms_are_the_per_row_forms_bit_for_bit(which, part):
    # a radial model's density and distance function are block forms alone,
    # which the geodesic, compare and Bochner passes take; each row is the
    # per-point formula's value to the last bit, signed zeros included
    _check_radial_block_form(_manifest_model(), which, part)


@pytest.mark.parametrize("which", ["density", "r"])
@pytest.mark.parametrize("part", ["value", "grad", "hess"])
def test_plain_callable_radial_forms_are_the_per_row_forms_bit_for_bit(which, part):
    # a catalog model's f, f' and f'' are plain callables, taken row by row
    # inside the same block forms
    _check_radial_block_form(catalog.radial_log_model(3), which, part)


def test_radial_block_with_the_origin_warns_as_each_row():
    # a block that meets a floating-point condition is evaluated again row
    # by row, so it gives the per-row values and warnings
    model = _manifest_model()
    grad, oracle = model.density().grad, _per_row_radial(model)["density"]["grad"]
    pts = np.vstack([_radial_points()[:5], np.zeros(3), _radial_points()[5:9]])
    with warnings.catch_warnings(record=True) as block_warnings:
        warnings.simplefilter("always")
        got = field_rows(grad, pts)
    with warnings.catch_warnings(record=True) as row_warnings:
        warnings.simplefilter("always")
        want = np.array([oracle(p) for p in pts])
    assert [str(w.message) for w in block_warnings] == [str(w.message) for w in row_warnings]
    assert row_warnings and got.tobytes() == want.tobytes()


def _per_row_split_density(split):
    """The per-point formulas of a split density phi(r) + f_L(y): the oracle
    of its block forms."""
    phi, fL = split.phi, split.f_L

    def grad(p):
        out = np.array(phi.grad(p), dtype=float)
        out[1:] = fL.grad(p[1:])
        return out

    def hess(p):
        out = np.array(phi.hess(p), dtype=float)
        out[1:, 1:] = fL.hess(p[1:])
        return out

    return {"value": lambda p: phi.value(p) + float(fL.value(p[1:])), "grad": grad,
            "hess": hess}


@pytest.mark.parametrize("part", ["value", "grad", "hess"])
def test_split_density_block_forms_are_the_per_row_forms_bit_for_bit(part):
    # with a fiber density, the split density is a block form of phi's and
    # f_L's block forms; each row, and each point as its block of one, is
    # the per-point formula's value to the last bit, signed zeros included
    split = catalog.split_sin_sphere(0.5, f_L=catalog.bounded_fiber_density())
    fn, oracle = getattr(split.density(), part), _per_row_split_density(split)[part]
    assert callable(getattr(fn, "rows", None))
    pts = np.random.default_rng(29).uniform(-3.0, 3.0, (300, 3))
    pts[:30, 0] = 0.0
    pts[30:60, 1] = -0.0
    pts[60:90, 1:] = [0.0, -0.0]
    pts[90:100, 0] = -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = field_rows(fn, pts)
        one = np.array([fn(p) for p in pts], dtype=float)
    want = np.array([oracle(p) for p in pts], dtype=float)
    assert got.shape == want.shape == one.shape
    assert got.tobytes() == want.tobytes() == one.tobytes()


class TestBochnerResidual:
    def test_flat_linear_field_zero(self):
        spec = catalog.flat(3)
        h = ScalarField(value=lambda p: p[0] + 2.0 * p[1],
                        grad=lambda p: np.array([1.0, 2.0, 0.0]),
                        hess=lambda p: np.zeros((3, 3)))
        res = bochner_residual(spec, catalog.constant(0.0, 3), [h], [[0.2, 0.1, 0.5]])[0]
        assert res < 1e-10

    def test_flat_quadratic_value_n(self):
        # f = 0, h = |x|^2/2: both sides equal n
        for n in (2, 3):
            spec = catalog.flat(n)
            h = ScalarField(value=lambda p: 0.5 * float(p @ p), grad=lambda p: p.copy(),
                            hess=lambda p, n=n: np.eye(n))
            p = np.full(n, 0.4)
            res = bochner_residual(spec, catalog.constant(0.0, n), [h], [p])[0]
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
        res = bochner_residual(spec, f, [h], [p])[0]
        assert res <= 1e-4

    def test_randomized_cubics_on_flat_and_warped(self):
        rng = np.random.default_rng(10)
        charts = [catalog.flat(3), catalog.split_sin_sphere(0.5).metric_spec()]
        for spec in charts:
            for _ in range(8):
                h = random_cubic(rng, 3)
                f = random_cubic(rng, 3, scale=0.4)
                p = np.concatenate([[rng.uniform(-1, 1)], rng.uniform(-0.8, 0.8, 2)])
                assert bochner_residual(spec, f, [h], [p])[0] <= 1e-4

    def test_vector_density_variant(self):
        # gradient density as a vector field gives the same residual scale
        spec = catalog.flat(3)
        rng = np.random.default_rng(14)
        f = random_cubic(rng, 3, scale=0.5)
        X = catalog.gradient_as_vector_field(spec, f)
        h = random_cubic(rng, 3)
        p = rng.uniform(-1, 1, 3)
        assert bochner_residual(spec, X, [h], [p])[0] <= 1e-4

    def test_nongradient_field_identity(self):
        spec, X = catalog.nongradient_example(n=4, einstein_constant=1.0, amplitude=0.05)
        mspec = spec.metric_spec()
        rng = np.random.default_rng(3)
        for _ in range(3):
            h = random_cubic(rng, 4, scale=0.6)
            p = np.concatenate([[rng.uniform(-1, 1)], rng.uniform(-0.7, 0.7, 3)])
            assert bochner_residual(mspec, X, [h], [p])[0] <= 1e-4


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


class TestCheckedQuantities:
    """The distance-function Bochner inequality and the comparison ODE, on
    the quantities the reports check: on a radial model with h = rho and
    m = n - 1 their margins are +-v^2 Ric_f^1(d_rho, d_rho), whose form
    compare's CD(0,1) gate checks; and Lap_f (-r) = -Lap_f r, the identity
    behind rigidity's one weighted Laplacian per block."""

    def test_log_model_radial_ricci_is_the_closed_form_margin(self):
        # v^2 = e^{2 f/(n-1)}; the margin's closed form is 2/(1 + rho^2), and
        # cd_verify's minimum at a radius is at most the radial entry
        model = catalog.radial_log_model(3)
        spec, density = model.metric_spec(), model.density()
        for rho in (0.5, 1.0, 3.0):
            at = BlockGeometry(spec, np.array([[rho, 0.0, 0.0]]))
            radial = generalized_ricci_at(at, density, 1.0)[0, 0, 0]
            v2 = math.exp(2.0 * model.f(rho) / (model.n - 1))
            assert v2 * radial == pytest.approx(2.0 / (1.0 + rho ** 2), abs=1e-6)
            rep = cd_verify(spec, density, 0.0, 1.0, GridSpec(at.pts, f"rho = {rho}"))
            assert rep.min_eigenvalue <= radial + 1e-12

    @pytest.mark.parametrize("split", [
        catalog.split_sin_sphere(0.7),
        catalog.split_sin_sphere(0.7, f_L=catalog.bounded_fiber_density()),
        catalog.split_sin_torus(3),
        catalog.hyperbolic_split(3),
        catalog.split_sin_euclidean(3, amplitude=0.0),
    ], ids=["sphere", "sphere-f_L", "torus", "hyperbolic", "product"])
    def test_weighted_laplacian_of_a_negated_field_is_the_negation(self, split):
        # negation is exact and commutes with rounding, so each term of
        # Lap_f (-h) is the negated term of Lap_f h; only an exact zero may
        # come out with the other sign, which |.| drops, as rigidity does
        spec, density = split.metric_spec(), split.density()
        rng = np.random.default_rng(30)
        box = np.vstack([(-5.0, 5.0), inset_box(split.fiber.safe_box, 0.05)])
        for h in (r_coordinate_field(split.n), random_cubic(rng, split.n)):
            minus_h = ScalarField(*(block_field(lambda P, fn=fn: -field_rows(fn, P))
                                    for fn in (h.value, h.grad, h.hess)))
            for seed in range(3):
                at = BlockGeometry(spec, sample_box(box, 32, seed))
                lap, lap_minus = (at.weighted_laplacian(density, k) for k in (h, minus_h))
                assert np.array_equal(lap_minus, -lap)
                assert np.abs(lap_minus).tobytes() == np.abs(lap).tobytes()


class TestRigidity:
    def test_product_exact(self):
        split = catalog.split_sin_euclidean(3, amplitude=0.0)
        rep = rigidity_check(split, rigidity_points(split, 10))
        assert rep.grad_norm_dev < 1e-12
        assert rep.lap_f_r_dev < 1e-12
        assert rep.hess_proportionality_dev < 1e-12
        assert rep.radial_ricci_dev < 1e-10
        assert rep.passes()

    def test_sphere_fiber_within_tolerance(self):
        split = catalog.split_sin_sphere(0.7)
        rep = rigidity_check(split, rigidity_points(split, 40))
        assert rep.lap_f_r_dev <= 1e-6
        assert rep.hess_proportionality_dev <= 1e-5
        assert rep.radial_ricci_dev <= 1e-6
        assert rep.passes()

    def test_weighted_fiber_also_rigid(self):
        split = catalog.split_sin_sphere(0.7, f_L=catalog.bounded_fiber_density())
        rep = rigidity_check(split, rigidity_points(split, 25))
        assert rep.passes()
