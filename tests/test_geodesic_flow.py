"""Geodesic integration, conserved quantities, density line integrals."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from cdsplit import catalog
from cdsplit.chart_core import (
    BlockGeometry,
    MetricSpec,
    ScalarField,
    VectorField,
    _christoffel_rows,
    gamma_evaluator,
    metric_at,
    point_jet,
)
from cdsplit.errors import EmptyTrace, NonFinite, StepOverflow
from cdsplit.geodesic_flow import (
    GeodesicTrace,
    _forms,
    clairaut_constant,
    completeness_diagnostic,
    f_along_geodesic,
    geodesic_integrate,
    normalize_velocity,
    sample_unit_directions,
    write_trace_csv,
)
from cdsplit.manifest import compile_expression, expression_scalar_field, parse_manifest
from cdsplit.warped_products import SphereFiber, TwistedProductSpec

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


class TestIntegrator:
    def test_flat_space_straight_line(self):
        spec = catalog.flat(2)
        p0 = np.array([0.5, -1.0])
        v0 = np.array([0.6, 0.8])
        trace = geodesic_integrate(spec, p0, v0, T=2.0, dt=1e-3)
        expected = p0[None, :] + trace.ts[:, None] * v0[None, :]
        assert np.max(np.abs(trace.positions - expected)) < 1e-12
        assert trace.speed_drift < 1e-12
        assert not trace.truncated

    def test_polar_chart_matches_cartesian_line(self):
        # start at (r=1, theta=0) with tangential unit velocity: the image in
        # Cartesian coordinates is the straight line (1, t)
        spec = catalog.polar_plane()
        trace = geodesic_integrate(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                   T=10.0, dt=1e-3)
        x = trace.positions[:, 0] * np.cos(trace.positions[:, 1])
        y = trace.positions[:, 0] * np.sin(trace.positions[:, 1])
        dev = np.max(np.hypot(x - 1.0, y - trace.ts))
        assert dev <= 1e-6
        assert trace.speed_drift <= 1e-6

    def test_unit_speed_enforced(self):
        spec = catalog.flat(2)
        with pytest.raises(ValueError):
            geodesic_integrate(spec, np.zeros(2), np.array([2.0, 0.0]), T=1.0)

    def test_normalize_velocity(self):
        spec = catalog.polar_plane()
        v = normalize_velocity(spec, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert v[1] == pytest.approx(0.5)

    def test_speed_drift_budget_on_builtins(self):
        rng = np.random.default_rng(0)
        for split in (catalog.split_sin_sphere(0.5), catalog.split_sin_torus(3)):
            spec = split.metric_spec()
            p0 = np.concatenate([[0.3], 0.2 * rng.standard_normal(2)])
            v0 = normalize_velocity(spec, p0, rng.standard_normal(3))
            trace = geodesic_integrate(spec, p0, v0, T=10.0, dt=1e-3)
            assert trace.speed_drift <= 1e-6

    def test_fourth_order_drift_reduction(self):
        split = catalog.split_sin_sphere(2.0)
        spec = split.metric_spec()
        p0 = np.array([0.2, 0.4, -0.5])
        v0 = normalize_velocity(spec, p0, np.array([0.5, 1.0, -0.6]))
        d1 = geodesic_integrate(spec, p0, v0, T=10.0, dt=2e-3).speed_drift
        d2 = geodesic_integrate(spec, p0, v0, T=10.0, dt=1e-3).speed_drift
        assert d1 / max(d2, 1e-16) >= 8.0

    def test_domain_exit_truncates_with_flag(self):
        spec = catalog.polar_plane(r_min=0.5)
        # radially inward: must stop before r = 0.5
        trace = geodesic_integrate(spec, np.array([2.0, 0.0]), np.array([-1.0, 0.0]),
                                   T=5.0, dt=1e-3)
        assert trace.truncated
        assert trace.positions[-1, 0] > 0.5
        assert np.all(np.diff(trace.ts) > 0)

    def test_product_metric_component_speeds_constant(self):
        # constant warp: radial and fiber speeds are separately constant
        split = catalog.split_sin_euclidean(3, amplitude=0.0)
        spec = split.metric_spec()
        p0 = np.zeros(3)
        v0 = normalize_velocity(spec, p0, np.array([0.6, 0.8, 0.0]))
        trace = geodesic_integrate(spec, p0, v0, T=5.0, dt=1e-3)
        assert np.max(np.abs(trace.velocities[:, 0] - v0[0])) < 1e-12
        assert np.max(np.abs(trace.velocities[:, 1] - v0[1])) < 1e-12


class TestClairaut:
    def test_radial_geodesic_zero_constant(self):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        p0 = np.array([0.0, 0.2, 0.1])
        v0 = np.array([1.0, 0.0, 0.0])
        trace = geodesic_integrate(spec, p0, v0, T=3.0, dt=1e-3)
        rep = clairaut_constant(split, trace)
        assert rep.initial == 0.0
        assert rep.max_drift < 1e-14

    def test_polar_plane_angular_momentum(self):
        # u(r) = r realized by phi = log r: conserved r^4 theta'^2
        split_like = catalog.split_sin_euclidean(2, amplitude=0.0)
        import cdsplit.warped_products as wp

        phi = expression_scalar_field(compile_expression("log(r)", ("r", "y1")))
        split = wp.SplitSpaceSpec(n=2, phi=phi, fiber=wp.FlatFiber(1),
                                  name="polar via log warp")
        spec = split.metric_spec()
        # domain guard: keep r positive by starting outward
        p0 = np.array([1.0, 0.0])
        v0 = normalize_velocity(spec, p0, np.array([0.3, 1.0]))
        trace = geodesic_integrate(spec, p0, v0, T=10.0, dt=1e-3)
        rep = clairaut_constant(split, trace)
        r = trace.positions[:, 0]
        theta_dot = trace.velocities[:, 1]
        oracle = r ** 4 * theta_dot ** 2
        assert np.max(np.abs(rep.values - oracle)) < 1e-12  # same formula path
        assert rep.max_drift <= 1e-8

    def test_sphere_fiber_conservation(self):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        rng = np.random.default_rng(17)
        for _ in range(3):
            p0 = np.concatenate([[rng.uniform(-1, 1)], rng.uniform(-0.5, 0.5, 2)])
            v0 = normalize_velocity(spec, p0, rng.standard_normal(3))
            trace = geodesic_integrate(spec, p0, v0, T=10.0, dt=1e-3)
            rep = clairaut_constant(split, trace)
            assert rep.max_drift <= 1e-8

    def test_empty_trace_rejected(self):
        split = catalog.split_sin_sphere(0.5)
        from cdsplit.geodesic_flow import GeodesicTrace

        empty = GeodesicTrace(spec=split.metric_spec(), ts=np.zeros(0),
                              positions=np.zeros((0, 3)), velocities=np.zeros((0, 3)),
                              speed_drift=0.0)
        with pytest.raises(EmptyTrace):
            clairaut_constant(split, empty)


class TestMinimizingProjection:
    # the fiber projection of a short geodesic is a minimizing fiber geodesic,
    # so its length in the fiber metric is the fiber distance of its ends
    def test_euclidean_fiber_projection_length(self):
        split = catalog.split_sin_euclidean(3, amplitude=0.3)
        spec = split.metric_spec()
        rng = np.random.default_rng(23)
        for _ in range(3):
            p0 = np.concatenate([[rng.uniform(-0.5, 0.5)], rng.uniform(-0.5, 0.5, 2)])
            v0 = normalize_velocity(spec, p0, rng.standard_normal(3))
            trace = geodesic_integrate(spec, p0, v0, T=0.5, dt=1e-3)
            length = _fiber_oracles(split, trace)[1]
            dist = split.fiber.distance(trace.positions[0, 1:], trace.positions[-1, 1:])
            assert abs(length - dist) <= 1e-4

    def test_sphere_fiber_small_arcs(self):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        rng = np.random.default_rng(29)
        for _ in range(3):
            p0 = np.concatenate([[rng.uniform(-0.5, 0.5)], rng.uniform(-0.4, 0.4, 2)])
            v0 = normalize_velocity(spec, p0, rng.standard_normal(3))
            trace = geodesic_integrate(spec, p0, v0, T=0.4, dt=1e-3)
            length = _fiber_oracles(split, trace)[1]
            dist = split.fiber.distance(trace.positions[0, 1:], trace.positions[-1, 1:])
            assert abs(length - dist) <= 1e-4

    def test_radial_geodesic_zero_projection(self):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        trace = geodesic_integrate(spec, np.array([0.0, 0.2, 0.1]),
                                   np.array([1.0, 0.0, 0.0]), T=1.0, dt=1e-3)
        assert _fiber_oracles(split, trace)[1] == 0.0


class TestDensityLineIntegral:
    def test_zero_field_zero_integral(self):
        spec = catalog.flat(2)
        trace = geodesic_integrate(spec, np.zeros(2), np.array([1.0, 0.0]), T=2.0)
        X = VectorField(value=lambda p: np.zeros(2))
        fg = f_along_geodesic(X, trace)
        assert np.max(np.abs(fg)) == 0.0

    def test_gradient_density_is_potential_difference(self):
        split = catalog.split_sin_sphere(0.4, f_L=catalog.bounded_fiber_density())
        spec = split.metric_spec()
        f = split.density()
        p0 = np.array([0.1, 0.3, -0.2])
        v0 = normalize_velocity(spec, p0, np.array([0.8, 0.7, -0.1]))
        trace = geodesic_integrate(spec, p0, v0, T=5.0, dt=1e-3)
        fg = f_along_geodesic(f, trace)
        oracle = np.array([f.value(q) for q in trace.positions]) - f.value(trace.positions[0])
        assert np.max(np.abs(fg - oracle)) <= 1e-7

    def test_rotation_field_orthogonal_to_radial(self):
        spec = catalog.flat(2)
        X = VectorField(value=lambda p: np.array([-p[1], p[0]]))
        trace = geodesic_integrate(spec, np.zeros(2), np.array([1.0, 0.0]), T=3.0)
        fg = f_along_geodesic(X, trace)
        assert np.max(np.abs(fg)) < 1e-12

    def test_path_independence_of_gradient_integral(self):
        # two different unit-speed paths between the same endpoints
        spec = catalog.flat(2)
        f = ScalarField(value=lambda p: math.sin(p[0]) + 0.5 * p[1] ** 2,
                        grad=lambda p: np.array([math.cos(p[0]), p[1]]))
        a = geodesic_integrate(spec, np.zeros(2), np.array([1.0, 0.0]), T=2.0)
        # L-shaped route: up then across, realized as two straight traces
        b1 = geodesic_integrate(spec, np.zeros(2), np.array([0.0, 1.0]), T=1.0)
        b2 = geodesic_integrate(spec, b1.positions[-1], np.array([1.0, 0.0]), T=2.0)
        b3 = geodesic_integrate(spec, b2.positions[-1], np.array([0.0, -1.0]), T=1.0)
        total_a = f_along_geodesic(f, a)[-1]
        total_b = (f_along_geodesic(f, b1)[-1] + f_along_geodesic(f, b2)[-1]
                   + f_along_geodesic(f, b3)[-1])
        assert total_a == pytest.approx(total_b, abs=1e-7)


class TestCompletenessDiagnostic:
    def test_unweighted_growth_is_linear(self):
        spec = catalog.flat(2)
        table = completeness_diagnostic(spec, ScalarField.constant(0.0), np.zeros(2),
                                        R_max=5.0, n_checkpoints=5, dt=1e-3,
                                        n_directions=4, seed=1)
        for j, r in enumerate(table.checkpoints):
            assert table.minima[j] == pytest.approx(r, abs=1e-9)

    def test_linear_density_saturates(self):
        # f = x along the +x ray (dimension 2): I(r) = (1 - e^{-2r})/2
        spec = catalog.flat(2)
        f = ScalarField(value=lambda p: p[0], grad=lambda p: np.array([1.0, 0.0]))
        table = completeness_diagnostic(spec, f, np.zeros(2),
                                        directions=np.array([[1.0, 0.0]]),
                                        R_max=8.0, n_checkpoints=8, dt=1e-3)
        for j, r in enumerate(table.checkpoints):
            assert table.growth[0, j] == pytest.approx(0.5 * (1 - math.exp(-2 * r)), abs=1e-9)
        assert table.growth[0, -1] < 0.51  # bounded: saturation visible

    def test_bounded_density_grows_at_linear_rate(self):
        B = 0.3
        split = catalog.split_sin_euclidean(3, amplitude=0.0)
        spec = split.metric_spec()
        f = ScalarField(value=lambda p: B * math.sin(p[0] + p[1]),
                        grad=lambda p: B * np.array([math.cos(p[0] + p[1]),
                                                     math.cos(p[0] + p[1]), 0.0]))
        table = completeness_diagnostic(spec, f, np.zeros(3), R_max=6.0,
                                        n_checkpoints=6, dt=1e-3, n_directions=6, seed=3)
        floor = math.exp(-2.0 * B / (spec.dim - 1))
        for j, r in enumerate(table.checkpoints):
            assert table.minima[j] >= r * floor - 1e-9

    def test_directions_are_unit(self):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        p = np.array([0.3, 0.1, -0.4])
        dirs = sample_unit_directions(spec, p, 16, seed=42)
        from cdsplit.geodesic_flow import speed_in_metric

        for d in dirs:
            assert speed_in_metric(spec, p, d) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        spec = catalog.flat(3)
        a = sample_unit_directions(spec, np.zeros(3), 8, seed=7)
        b = sample_unit_directions(spec, np.zeros(3), 8, seed=7)
        assert np.array_equal(a, b)

    def test_caveat_mentions_finite_range(self):
        spec = catalog.flat(2)
        table = completeness_diagnostic(spec, ScalarField.constant(0.0), np.zeros(2),
                                        R_max=1.0, n_checkpoints=2, n_directions=2)
        assert "finite-range" in table.caveat

    def test_truncated_direction_flagged_with_nan_growth(self):
        # inward direction on the bounded polar chart exits the domain early
        spec = catalog.polar_plane(r_min=0.5)
        dirs = np.array([[-1.0, 0.0], [1.0, 0.0]])
        table = completeness_diagnostic(spec, ScalarField.constant(0.0),
                                        np.array([1.0, 0.0]), directions=dirs,
                                        R_max=4.0, n_checkpoints=4, dt=1e-3)
        assert table.truncated[0] and not table.truncated[1]
        assert np.isnan(table.growth[0, -1])        # past the exit
        assert table.growth[1, -1] == pytest.approx(4.0, abs=1e-9)
        # minima at the last checkpoint fall back to the surviving direction
        assert table.minima[-1] == pytest.approx(4.0, abs=1e-9)


class TestTraceExport:
    def test_csv_round_trip(self, tmp_path):
        split = catalog.split_sin_sphere(0.5)
        spec = split.metric_spec()
        p0 = np.array([0.0, 0.2, 0.1])
        v0 = normalize_velocity(spec, p0, np.array([1.0, 0.5, -0.2]))
        trace = geodesic_integrate(spec, p0, v0, T=0.5, dt=1e-3)
        rep = clairaut_constant(split, trace)
        fg = f_along_geodesic(split.density(), trace)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out, clairaut=rep.values, f_gamma=fg,
                        header_lines=["demo"])
        lines = out.read_text().splitlines()
        assert lines[0] == "# demo"
        assert lines[1].split(",") == ["t", "r", "y1", "y2", "v_r", "v_y1", "v_y2",
                                       "clairaut", "f_gamma"]
        row = lines[2].split(",")
        assert float(row[0]) == 0.0
        assert float(row[1]) == pytest.approx(0.0)
        # 17 significant digits round-trip
        assert float(lines[3].split(",")[1]) == trace.positions[1, 0]


# ---------------------------------------------------------------------------
# the one-point acceleration stage against the stacked solve, and the stacked
# post-passes against sample-by-sample oracles
# ---------------------------------------------------------------------------

STAGE_CHARTS = {
    "split": catalog.split_sin_sphere(0.5).metric_spec(),
    "split-torus": catalog.split_sin_torus(3).metric_spec(),
    "twisted": catalog.twisted_example().metric_spec(),
    "general": parse_manifest(MANIFESTS / "polar_general.cdm").geometry["spec"],
    "sphere5": catalog.split_sin_sphere(0.3, n=5).metric_spec(),
}


def _outcome(fn):
    """fn()'s result, or the class and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _stacked_acceleration(spec, p, u):
    """-Gamma^k_ij u^i u^j from the point's row of the stacked solve."""
    gamma = _christoffel_rows(p[None], *spec.jet(p[None], 1))[0]
    return -np.einsum("kij,i,j->k", gamma, u, u)


def _stage_bound(spec, p, u):
    """n cond(g) |g^-1| (eps S + 16 n d): S is the largest entry of the
    lowered partials' absolute values contracted with |u| twice, d the
    smallest subnormal.  Round-off in the contraction is scaled by g^-1 and
    in the solve by the condition of g; the second term covers products of
    a tiny velocity that underflow.  On 3,000 random stages per chart the
    measured error reached 0.38 of the first term."""
    g, D = (x[0] for x in spec.jet(p[None], 1))
    a, aD = np.abs(u), np.abs(D)
    S = np.max(np.einsum("lij,i,j->l", aD, a, a) + 2.0 * np.einsum("ilj,i,j->l", aD, a, a))
    info, n = np.finfo(float), spec.dim
    with np.errstate(over="ignore"):  # a nearly singular g has no finite bound
        return (n * np.linalg.cond(g) * np.linalg.norm(np.linalg.inv(g), 2)
                * (info.eps * S + 16 * n * info.smallest_subnormal))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(STAGE_CHARTS)),
       st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=5, max_size=5),
       st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=5, max_size=5))
@example("general", [0.0, 1.0, 0, 0, 0], [1.0, 0.5, 0, 0, 0])  # r = 0: the polar g is singular
def test_stage_matches_stacked_solve(name, coords, velocity):
    spec = STAGE_CHARTS[name]
    p, u = np.array(coords[:spec.dim]), np.array(velocity[:spec.dim])
    expected = _outcome(lambda: _stacked_acceleration(spec, p, u))
    got = _outcome(lambda: gamma_evaluator(spec)(p, u))
    if isinstance(got, tuple) or isinstance(expected, tuple) and expected[0] is not NonFinite:
        assert got == expected
    elif isinstance(expected, tuple):
        # Christoffel symbols beyond the float range, of a finite metric and
        # finite partials, where the acceleration stays finite: at r ~ 1e-157
        # on the polar chart, g22 = r^2 is subnormal and 1/g22 overflows
        assert all(np.isfinite(x).all() for x in spec.jet(p[None], 1))
        assert np.isfinite(got).all()
    else:
        assert got.shape == (spec.dim,)
        assert np.max(np.abs(got - expected)) <= _stage_bound(spec, p, u)


@pytest.mark.parametrize("bad", [
    np.zeros((2, 2)),
    np.diag([1.0, np.nan]),
    np.array([[np.inf, np.inf], [1.0, 1.0]]),
], ids=["singular", "nan", "inf"])
def test_stage_errors_match_stacked_solve(bad):
    spec = MetricSpec(dim=2, jet=point_jet(lambda q: bad, lambda q: np.ones((2, 2, 2))))
    p, u = np.array([0.5, -0.25]), np.array([1.0, 0.5])
    with pytest.raises(Exception) as stacked:
        _stacked_acceleration(spec, p, u)
    with pytest.raises(type(stacked.value), match=f"^{re.escape(str(stacked.value))}$"):
        gamma_evaluator(spec)(p, u)


def test_stage_evaluates_the_metric_once():
    # an RK4 stage is one jet call of order 1 at its point, which evaluates
    # psi and its gradient once each
    psi = catalog.split_sin_sphere(0.5).phi
    values, grads, jets = [], [], []
    counted_psi = ScalarField(value=lambda p: values.append(p) or psi.value(p),
                              grad=lambda p: grads.append(p) or psi.grad(p), hess=psi.hess)
    spec = TwistedProductSpec(3, counted_psi, SphereFiber(2, 0.5)).metric_spec()

    def jet(P, order):
        jets.append((len(P), order))
        return spec.jet(P, order)

    counted = dataclasses.replace(spec, jet=jet)
    p = np.array([0.3, 0.4, -0.2])
    gamma_evaluator(counted)(p, np.array([1.0, 0.5, -0.3]))
    assert jets == [(1, 1)] and len(values) == len(grads) == 1
    jets.clear()
    trace = geodesic_integrate(counted, p, normalize_velocity(spec, p, [1.0, 0.5, -0.3]),
                               T=0.01, dt=1e-3)
    assert len(trace) == 11
    assert [call for call in jets if call[1] == 1] == [(1, 1)] * 40


def _flat_jet(n):
    return point_jet(lambda q: np.eye(n), lambda q: np.zeros((n, n, n)))


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_state_exactly_on_the_domain_margin_is_kept(side):
    # the chart ends exactly one margin past the state after step 5, so that
    # state lies inside (the bounds are closed) and step 6 leaves: the trace
    # keeps samples 0..5, as numpy's comparison of the same floats decides
    sign = 1.0 if side == "upper" else -1.0
    free = MetricSpec(dim=2, jet=_flat_jet(2), name="flat")
    p0, v0 = np.array([0.3, 0.1]), np.array([sign, 0.0])
    full = geodesic_integrate(free, p0, v0, T=0.01)
    margin = free.fd.scaled(p0, 4.0 * free.fd.h2)
    edge = full.positions[5, 0] + sign * margin[0]
    bounds = [-np.inf, edge] if side == "upper" else [edge, np.inf]
    spec = dataclasses.replace(free, domain=np.array([bounds, [-np.inf, np.inf]]))
    lo, hi = spec.domain[:, 0], spec.domain[:, 1]
    inside = [not (np.any(x - margin < lo) or np.any(x + margin > hi)) for x in full.positions]
    assert inside[:7] == [True] * 6 + [False]
    trace = geodesic_integrate(spec, p0, v0, T=0.01)
    assert trace.truncated and len(trace) == 6
    assert trace.positions.tobytes() == full.positions[:6].tobytes()


@pytest.mark.parametrize("K, error, message", [
    (1e12, StepOverflow, "geodesic velocity guard exceeded at t = 0.001"),
    (1e200, NonFinite, "geodesic state non-finite at t = 0.001"),
], ids=["velocity-guard", "non-finite"])
def test_first_step_guards(K, error, message):
    # constant Christoffel symbol -K on a line: u' = K u^2 leaves the
    # velocity guard, or the float range, within the first step
    spec = MetricSpec(dim=1, jet=point_jet(lambda q: np.eye(1),
                                           lambda q: np.full((1, 1, 1), -2.0 * K)))
    with np.errstate(all="ignore"), pytest.raises(error, match=f"^{re.escape(message)}$"):
        geodesic_integrate(spec, [0.0], [1.0], T=0.01)


def _drift_oracle(trace):
    return max(abs(math.sqrt(max(0.0, float(v @ metric_at(trace.spec, p) @ v))) - 1.0)
               for p, v in zip(trace.positions, trace.velocities))


def _cumulative_oracle(values, ts):
    if len(values) == 1:
        return np.zeros(1)
    return scipy.integrate.cumulative_simpson(np.array(values), x=ts, initial=0.0)


def _f_gamma_oracle(density, trace):
    spec, vals = trace.spec, []
    for p, u in zip(trace.positions, trace.velocities):
        if isinstance(density, ScalarField):
            vals.append(float(u @ BlockGeometry.at(spec, p).gradient(density)[0]))
        else:
            X = np.asarray(density.value(p), dtype=float)
            vals.append(float(u @ metric_at(spec, p) @ X))
    return _cumulative_oracle(vals, trace.ts)


def _fiber_oracles(split, trace):
    """Per-sample Clairaut values and the fiber projection length."""
    clairaut, speeds = [], []
    for p, u in zip(trace.positions, trace.velocities):
        uy = u[1:]
        gL = split.fiber.metric(p[1:])
        clairaut.append(split.warp(p) ** 4 * float(uy @ gL @ uy))
        speeds.append(math.sqrt(max(0.0, float(uy @ gL @ uy))))
    return np.array(clairaut), float(_cumulative_oracle(speeds, trace.ts)[-1])


def _trace(spec, p0, v_seed, samples):
    v0 = normalize_velocity(spec, np.array(p0), np.array(v_seed))
    trace = geodesic_integrate(spec, np.array(p0), v0, T=(samples - 1) * 1e-3, dt=1e-3)
    assert len(trace) == samples and not trace.truncated
    return trace


def _post_pass_cases():
    sphere = catalog.split_sin_sphere(0.5, f_L=catalog.bounded_fiber_density())
    torus = catalog.split_sin_torus(3)
    twisted, X = catalog.nongradient_example()
    polar = parse_manifest(MANIFESTS / "polar_general.cdm").geometry
    return {
        "split-sphere": (sphere.metric_spec(), sphere.density(), sphere, [0.1, 0.3, -0.2]),
        "split-torus": (torus.metric_spec(), torus.density(), torus, [0.2, 0.5, 1.0]),
        "vector": (twisted.metric_spec(), X, None, [0.1, 0.2, -0.1, 0.3]),
        "general": (polar["spec"], polar["density"], None, [1.0, 0.0]),
    }


POST_PASS_CASES = _post_pass_cases()


@pytest.mark.parametrize("samples", [1, 2, 255, 256, 257, 600])
@pytest.mark.parametrize("case", sorted(POST_PASS_CASES))
def test_post_passes_match_per_sample_oracles(case, samples):
    spec, density, split, p0 = POST_PASS_CASES[case]
    v_seed = [1.0, 0.7, -0.4, 0.2][:spec.dim]
    trace = _trace(spec, p0, v_seed, samples)
    assert trace.speed_drift == _drift_oracle(trace)
    f_gamma = f_along_geodesic(density, trace)
    assert f_gamma.tobytes() == _f_gamma_oracle(density, trace).tobytes()
    if split is not None:
        clairaut = _fiber_oracles(split, trace)[0]
        assert clairaut_constant(split, trace).values.tobytes() == clairaut.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_forms_are_per_sample_forms_bit_for_bit(n):
    # the post-passes' quadratic forms and pairings, over a block of random
    # samples and over one metric broadcast along the block, as a flat
    # fiber's jet returns it
    rng = np.random.default_rng(n)
    U, V = rng.standard_normal((2, 256, n))
    G = rng.standard_normal((256, n, n))
    G = G + G.swapaxes(1, 2)
    assert _forms(U, G, V).tobytes() == np.array(
        [float(u @ g @ v) for u, g, v in zip(U, G, V)]).tobytes()
    flat = np.broadcast_to(G[0], G.shape)
    assert _forms(U, flat, U).tobytes() == np.array([float(u @ G[0] @ u) for u in U]).tobytes()
    assert np.vecdot(U, V).tobytes() == np.array([float(u @ v) for u, v in zip(U, V)]).tobytes()


def test_failing_block_is_rerun_sample_by_sample():
    # a jet that fails on every block of more than one row leaves every
    # block of the drift pass to the per-sample metric
    split = catalog.split_sin_sphere(0.5)
    spec = split.metric_spec()

    def broken_jet(P, order):
        if len(P) > 1:
            raise ZeroDivisionError("stacked rows fail")
        return spec.jet(P, order)

    broken = dataclasses.replace(spec, jet=broken_jet)
    trace = _trace(spec, [0.0, 0.4, 0.2], [1.0, 0.5, -0.3], 300)
    again = geodesic_integrate(broken, trace.positions[0], trace.velocities[0], T=0.299)
    assert again.positions.tobytes() == trace.positions.tobytes()
    assert again.speed_drift == trace.speed_drift == _drift_oracle(trace)


def test_first_failing_sample_raises_as_per_sample():
    # the metric is NaN at sample 3 and the vector density raises at sample 7:
    # a stacked pass meets the density first, a sample-by-sample walk the
    # metric, and the walk's error is the one raised
    positions = np.column_stack([np.linspace(0.0, 1.0, 300), np.zeros(300)])
    p3, p7 = positions[3], positions[7]

    def g(q):
        return np.full((2, 2), np.nan) if np.array_equal(q, p3) else np.eye(2)

    def value(q):
        if np.array_equal(q, p7):
            raise ValueError("planted")
        return np.array([1.0, 0.0])

    spec = MetricSpec(dim=2, jet=point_jet(g, lambda q: np.zeros((2, 2, 2))), name="planted")
    velocities = np.tile([1.0, 0.0], (300, 1))
    trace = GeodesicTrace(spec=spec, ts=np.linspace(0.0, 1.0, 300), positions=positions,
                          velocities=velocities, speed_drift=0.0)
    with pytest.raises(NonFinite, match=re.escape(f"non-finite values in metric at {p3}")):
        f_along_geodesic(VectorField(value=value), trace)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_vector_density_raises_at_its_sample(bad):
    # the density is bad at sample 270 only, in the second block of 256: the
    # failing block's re-run names that sample instead of integrating it
    positions = np.column_stack([np.linspace(0.0, 1.0, 300), np.zeros(300)])
    p270 = positions[270]

    def value(q):
        return np.array([bad, 0.0]) if np.array_equal(q, p270) else np.array([1.0, 0.0])

    spec = MetricSpec(dim=2, jet=point_jet(lambda q: np.eye(2), lambda q: np.zeros((2, 2, 2))),
                      name="flat")
    trace = GeodesicTrace(spec=spec, ts=np.linspace(0.0, 1.0, 300), positions=positions,
                          velocities=np.tile([1.0, 0.0], (300, 1)), speed_drift=0.0)
    message = f"non-finite values in vector field at {p270}"
    with pytest.raises(NonFinite, match=f"^{re.escape(message)}$"):
        f_along_geodesic(VectorField(value=value), trace)
