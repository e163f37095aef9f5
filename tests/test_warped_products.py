"""Product-chart curvature, the CD(0,1) threshold, and the obstruction ODE."""

import dataclasses
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import catalog
from cdsplit.chart_core import (
    BlockGeometry,
    ScalarField,
    metric_at,
    point_jet,
    ricci_numeric,
    rk4_step,
)
from cdsplit.errors import (
    DimensionClash,
    NonFinite,
    ParseError,
    StepOverflow,
    ValidationError,
)
from cdsplit.expr import compile_expression, expression_scalar_field
from cdsplit.manifest import build_geometry, parse_manifest
from cdsplit import warped_products
from cdsplit.warped_products import (
    EXP_CAP,
    FlatFiber,
    SphereFiber,
    SplitSpaceSpec,
    TwistedProductSpec,
    product_coords,
    riccati_obstruction,
    split_cd_threshold,
    twisted_ricci_analytic,
)
from cdsplit.weighted_curvature import generalized_ricci


def phi_field(text, n=3):
    """A split profile as a manifest builds it: a chart field of r alone."""
    return expression_scalar_field(compile_expression(text, product_coords(n)))


def brute_force_sin_threshold():
    """Independent oracle for phi = sin r, n = 3: maximize -s e^s / 2 over
    s in [-1, 1] by dense scan."""
    s = np.linspace(-1.0, 1.0, 2_000_001)
    return float(np.max(-0.5 * s * np.exp(s)))


class TestFibers:
    def test_sphere_einstein_constant_realized(self):
        # numerical Ricci of the chart metric equals lambda_E * g inside the box
        for lam in (0.2, 1.0, 2.5):
            spec = catalog.sphere_chart(2, lam)
            rng = np.random.default_rng(0)
            for _ in range(5):
                y = rng.uniform(-2.5, 2.5, 2)
                ric = ricci_numeric(spec, y)
                g = metric_at(spec, y)
                assert np.max(np.abs(ric - lam * g)) / max(1.0, np.max(np.abs(g))) < 1e-5

    def test_sphere_christoffel_matches_fd(self):
        fiber = SphereFiber(dim=3, einstein_constant=1.0)
        spec = catalog.sphere_chart(3, 1.0)
        y = np.array([0.4, -1.1, 0.7])
        G = BlockGeometry.at(spec, y).christoffel[0]
        assert np.max(np.abs(G - fiber.christoffel(y))) < 1e-12

    def test_sphere_distance_small_arcs(self):
        fiber = SphereFiber(dim=2, einstein_constant=1.0)
        # tiny chart displacement ~ chart metric length
        y = np.array([0.3, 0.2])
        d = np.array([1e-4, -2e-4])
        gl = fiber.metric(y)
        expected = math.sqrt(float(d @ gl @ d))
        assert catalog.fiber_distance(fiber, y, y + d) == pytest.approx(expected, rel=1e-3)

    def test_sphere_needs_dim_two(self):
        with pytest.raises(ValueError):
            SphereFiber(dim=1, einstein_constant=1.0)

    def test_torus_metric(self):
        fiber = FlatFiber(dim=2, periods=(2 * math.pi, 4 * math.pi))
        assert np.allclose(fiber.metric(np.zeros(2)), np.diag([1.0, 4.0]))
        assert catalog.fiber_distance(fiber, np.zeros(2), np.array([1.0, 1.0])) == pytest.approx(
            math.sqrt(5.0))

    def test_flat_fiber_default_is_the_identity(self):
        fiber = FlatFiber(3)
        assert fiber.periods == (2 * math.pi,) * 3 and fiber.box == 10.0
        g = fiber.metric(np.zeros(3))
        assert g.tobytes() == np.eye(3).tobytes() and not g.flags.writeable
        G, D = fiber.jet(np.zeros((4, 3)), 1)
        assert G.tobytes() == np.stack([np.eye(3)] * 4).tobytes() and not D.any()
        assert fiber.jet(np.zeros((4, 3)), 0)[0].tobytes() == G.tobytes()
        assert catalog.fiber_distance(fiber, np.zeros(3), np.array([1.0, 2.0, -2.0])) == 3.0

    def test_flat_fiber_needs_one_period_per_axis(self):
        with pytest.raises(ValueError, match="^one period per fiber dimension required$"):
            FlatFiber(dim=2, periods=(1.0,))

    def test_fiber_dimension_must_match(self):
        with pytest.raises(ValueError):
            SplitSpaceSpec(n=3, phi=phi_field("sin(r)"), fiber=FlatFiber(3))

    @pytest.mark.parametrize("missing", ["grad", "hess"])
    @pytest.mark.parametrize("role", ["psi", "phi", "f_L"])
    def test_potentials_need_analytic_partials(self, role, missing):
        field = catalog.constant(0.0, 3)
        bare = dataclasses.replace(field, **{missing: None})
        fiber = FlatFiber(2)
        with pytest.raises(ValueError, match=f"^{role} needs an analytic gradient and Hessian$"):
            if role == "psi":
                TwistedProductSpec(n=3, psi=bare, fiber=fiber)
            elif role == "phi":
                SplitSpaceSpec(n=3, phi=bare, fiber=fiber)
            else:
                SplitSpaceSpec(n=3, phi=field, fiber=fiber, f_L=bare)


def _product_charts():
    return [catalog.split_sin_sphere(0.3).metric_spec(),
            catalog.split_cos_sphere_4d().metric_spec(),
            catalog.split_sin_sphere(0.3, n=5).metric_spec(),
            catalog.split_sin_torus().metric_spec(),
            catalog.twisted_example().metric_spec(),
            catalog.nongradient_example()[0].metric_spec()]


def _product_reference(tw: TwistedProductSpec):
    """The jet of a product chart from its point formulas for g and the
    partials, each evaluating psi and the fiber on its own: the reference
    for the product chart's jet."""
    n, psi, fiber = tw.n, tw.psi, tw.fiber
    c = 1.0 / (n - 1)

    def g(p):
        w = math.exp(2.0 * c * float(psi.value(p)))
        out = np.zeros((n, n))
        out[0, 0] = 1.0
        out[1:, 1:] = w * fiber.metric(p[1:])
        return out

    def partials(p):
        w = math.exp(2.0 * c * float(psi.value(p)))
        h, dh = fiber.metric(p[1:]), fiber.jet(p[1:][None], 1)[1][0]
        dpsi = np.asarray(psi.grad(p), dtype=float)
        D = np.zeros((n, n, n))
        D[0, 1:, 1:] = 2.0 * c * dpsi[0] * w * h
        for k in range(n - 1):
            D[1 + k, 1:, 1:] = 2.0 * c * dpsi[1 + k] * w * h + w * dh[k]
        return D

    return point_jet(g, partials)


_PRODUCT_REFERENCES = {
    tw.name: _product_reference(tw) for tw in (
        catalog.split_sin_sphere(0.3).as_twisted(), catalog.split_cos_sphere_4d().as_twisted(),
        catalog.split_sin_sphere(0.3, n=5).as_twisted(), catalog.split_sin_torus().as_twisted(),
        catalog.twisted_example(), catalog.nongradient_example()[0])}


def _jet_charts():
    polar_general = parse_manifest(
        Path(__file__).resolve().parent.parent / "manifests" / "polar_general.cdm")
    return [*_product_charts(), catalog.flat(3), catalog.polar_plane(), catalog.sphere_chart(3),
            catalog.radial_log_model(3).metric_spec(), polar_general.geometry["spec"]]


@pytest.mark.parametrize("spec", _jet_charts(), ids=lambda s: s.name)
def test_stacked_rows_are_g_and_partials_bit_for_bit(spec):
    # a block's jet is the jet of each row alone, at orders 0 and 1, and the
    # g of order 0 is the g of order 1; a product chart's jet is that of its
    # point formulas.  numpy's exp and power round differently from math's
    # on a few percent of inputs, so 400 rows catch a ufunc slipped into a
    # block path
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(-6, 6, (400, 1)),
                          rng.uniform(-2.5, 2.5, (400, spec.dim - 1))], axis=1)
    G, D = spec.jet(pts, 1)
    (G0,) = spec.jet(pts, 0)
    rows = [spec.jet(q[None], 1) for q in pts]
    assert G.tobytes() == G0.tobytes() == np.concatenate([g for g, _ in rows]).tobytes()
    assert D.tobytes() == np.concatenate([d for _, d in rows]).tobytes()
    assert np.concatenate([spec.jet(q[None], 0)[0] for q in pts]).tobytes() == G.tobytes()
    assert (G.shape, D.shape) == ((400, spec.dim, spec.dim), (400, *(spec.dim,) * 3))
    reference = _PRODUCT_REFERENCES.get(spec.name)
    if reference is not None:
        G1, D1 = reference(pts, 1)
        assert G.tobytes() == G1.tobytes() and D.tobytes() == D1.tobytes()


class TestTwistedRicci:
    def test_constant_twist_flat_fiber_is_flat(self):
        spec = TwistedProductSpec(n=3, psi=catalog.constant(0.7, 3),
                                  fiber=FlatFiber(2))
        ric = twisted_ricci_analytic(spec, np.array([0.3, 1.0, -1.0]))
        assert np.max(np.abs(ric)) < 1e-14

    def test_hyperbolic_three_space_closed_form(self):
        # warp e^{2r} over a flat 2-d fiber: Ric = -2 g
        tw = catalog.hyperbolic_split(3).as_twisted()
        spec = tw.metric_spec()
        p = np.array([0.4, 0.8, -0.3])
        ric = twisted_ricci_analytic(tw, p)
        g = metric_at(spec, p)
        assert ric[0, 0] == pytest.approx(-2.0, abs=1e-12)
        assert np.max(np.abs(ric + 2.0 * g)) < 1e-10
        assert np.max(np.abs(ric[1:, 1:] + 2.0 * g[1:, 1:])) < 1e-10

    def test_polar_plane_as_twist_is_flat(self):
        # n = 2, psi = log r over a 1-d fiber realizes dr^2 + r^2 dtheta^2
        psi = ScalarField(
            value=lambda p: math.log(p[0]),
            grad=lambda p: np.array([1.0 / p[0], 0.0]),
            hess=lambda p: np.array([[-1.0 / p[0] ** 2, 0.0], [0.0, 0.0]]),
        )
        tw = TwistedProductSpec(n=2, psi=psi, fiber=FlatFiber(1))
        for r in (0.5, 1.0, 2.7):
            ric = twisted_ricci_analytic(tw, np.array([r, 0.3]))
            assert np.max(np.abs(ric)) < 1e-12

    def test_matches_numeric_on_builtins(self):
        rng = np.random.default_rng(42)
        for tw in catalog.builtin_product_charts():
            spec = tw.metric_spec()
            box = tw.fiber.safe_box
            for _ in range(10):
                p = np.empty(tw.n)
                p[0] = rng.uniform(-3.0, 3.0)
                for j in range(tw.n - 1):
                    lo, hi = box[j]
                    pad = 0.1 * (hi - lo)
                    p[1 + j] = rng.uniform(lo + pad, hi - pad)
                a = twisted_ricci_analytic(tw, p)
                b = ricci_numeric(spec, p)
                rel = np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a)))
                assert rel < 1e-5, f"{tw.name} at {p}: rel err {rel}"


class TestSplitThreshold:
    def test_constant_phi_zero(self):
        split = SplitSpaceSpec(n=3, phi=phi_field("1.5"), fiber=FlatFiber(2))
        rep = split_cd_threshold(split, (-10.0, 10.0))
        assert rep.value == pytest.approx(0.0, abs=1e-15)
        assert not rep.diverged

    def test_sin_profile_matches_brute_force(self):
        oracle = brute_force_sin_threshold()
        assert oracle == pytest.approx(0.5 * math.exp(-1.0), abs=1e-9)
        split = catalog.split_sin_sphere(0.5)
        rep = split_cd_threshold(split, (-10.0, 10.0))
        assert rep.value == pytest.approx(oracle, abs=1e-6)
        assert math.sin(rep.r_at) == pytest.approx(-1.0, abs=1e-6)
        assert not rep.diverged

    def test_cos_profile_same_supremum(self):
        split = SplitSpaceSpec(n=3, phi=phi_field("cos(r)"),
                               fiber=SphereFiber(2, einstein_constant=1.0))
        rep = split_cd_threshold(split, (-10.0, 10.0))
        assert rep.value == pytest.approx(0.5 * math.exp(-1.0), abs=1e-6)

    def test_grid_density_invariance(self):
        split = catalog.split_sin_sphere(0.5)
        a = split_cd_threshold(split, (-10.0, 10.0), n_grid=201)
        b = split_cd_threshold(split, (-10.0, 10.0), n_grid=2001)
        assert abs(a.value - b.value) < 1e-6

    def test_convex_profile_flags_divergence(self):
        split = SplitSpaceSpec(n=3, phi=phi_field("r * r"), fiber=SphereFiber(2, 1.0))
        rep = split_cd_threshold(split, (0.0, 10.0))
        assert rep.diverged
        assert rep.value == pytest.approx(math.exp(100.0), rel=1e-6)

    def test_overflowing_profile_raises(self):
        split = SplitSpaceSpec(n=3, phi=phi_field("r * r"), fiber=SphereFiber(2, 1.0))
        with pytest.raises(NonFinite):
            split_cd_threshold(split, (0.0, 40.0))

    def test_sphere_example_values(self):
        # the least Einstein constant of the sphere fiber for CD(0,1), which
        # threshold.txt prints with its diverged flag
        rep = split_cd_threshold(catalog.split_sin_sphere(1.0), (-10.0, 10.0))
        assert rep.value == pytest.approx(0.5 * math.exp(-1.0), abs=1e-6)
        assert not rep.diverged
        flat_phi = SplitSpaceSpec(n=3, phi=phi_field("0"), fiber=SphereFiber(2, 1.0))
        rep = split_cd_threshold(flat_phi, (-10.0, 10.0))
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert not rep.diverged


class TestRiccatiObstruction:
    def test_exact_solution_regression(self):
        # y(0) = y'(0) = 0, a = 1: solution log cos t, escape at pi/2
        rep = riccati_obstruction(1.0, 0.0, 0.0, 3.0, dt=1e-3)
        assert rep.blow_up
        assert rep.blow_up_time == pytest.approx(math.pi / 2.0, abs=1e-3)
        mask = (rep.ts >= 0.0) & (rep.ts <= 1.45)
        err = np.max(np.abs(rep.ys[mask] - np.log(np.cos(rep.ts[mask]))))
        assert err <= 1e-6

    def test_blow_up_time_step_convergence(self):
        for dt in (1e-3, 5e-4):
            rep = riccati_obstruction(1.0, 0.0, 0.0, 3.0, dt=dt)
            assert abs(rep.blow_up_time - math.pi / 2.0) <= 1e-3

    def test_degenerate_coefficient_rejected(self):
        with pytest.raises(ValueError):
            riccati_obstruction(0.0, 0.0, 0.0, 1.0)

    def test_strong_initial_growth_still_obstructed(self):
        # concavity: solutions on all of R always escape; with y'(0) = 10 the
        # escape happens in the backward direction (forward the solution
        # grows without bound since y'^2 = e^{-2y} + 99 never vanishes)
        rep = riccati_obstruction(1.0, 0.0, 10.0, 50.0, dt=1e-3)
        assert rep.blow_up
        assert rep.blow_up_time < 0.0
        assert rep.blow_up_time >= -1.0
        # forward branch keeps climbing
        assert rep.ys[-1] > 100.0

    def test_trace_monotone_times_and_report_invariant(self):
        rep = riccati_obstruction(1.0, 0.0, 0.0, 2.0, dt=1e-3)
        assert np.all(np.diff(rep.ts) > 0)
        # final forward sample is at or below the detection threshold
        assert rep.ys[-1] <= rep.threshold_used
        assert rep.blow_up_time <= 2.0

    def test_velocity_guard_overflow(self):
        with pytest.raises(StepOverflow):
            riccati_obstruction(1.0, 0.0, 2e8, 1.0, dt=1e-3)

    def test_negative_initial_slope_fast_forward_escape(self):
        rep = riccati_obstruction(1.0, 0.0, -5.0, 10.0, dt=1e-3)
        assert rep.blow_up
        assert 0.0 < rep.blow_up_time < 1.0

    def test_stage_clamps_as_min_bit_for_bit(self, monkeypatch):
        # the stage clamps its exponent e = -2y with a conditional, which
        # must be min(e, EXP_CAP) itself: NaN stays NaN, and signed zeros,
        # infinities and EXP_CAP's neighbours keep their bits
        stages = []

        def spy(acc, *args):
            stages.append(acc)
            return rk4_step(acc, *args)

        monkeypatch.setattr(warped_products, "rk4_step", spy)
        a = 1.3
        riccati_obstruction(a, 0.0, 0.0, 0.01)
        acc = stages[0]
        for e in (math.nan, math.inf, -math.inf, 0.0, -0.0, EXP_CAP,
                  math.nextafter(EXP_CAP, math.inf), math.nextafter(EXP_CAP, -math.inf),
                  -EXP_CAP, 1e308, -1e308):
            y = e / -2.0  # exact, so -2.0 * y is e again
            assert struct.pack("<d", -2.0 * y) == struct.pack("<d", e)
            want = -a * math.exp(min(e, EXP_CAP))
            assert struct.pack("<d", acc(y, 0.0)) == struct.pack("<d", want), e

    def test_larger_coefficient_scales_time(self):
        # y'' = -a e^{-2y} with zero data escapes sooner for larger a
        t1 = riccati_obstruction(1.0, 0.0, 0.0, 5.0).blow_up_time
        t4 = riccati_obstruction(4.0, 0.0, 0.0, 5.0).blow_up_time
        assert t4 < t1


def _riccati_in_full(a, y0, y0p, t_max, dt):
    """``riccati_obstruction``'s samples and escape time with both halves
    integrated in full, neither handed the other's samples."""
    tf, yf, vf, hit_f = warped_products._integrate_obstruction(a, y0, y0p, t_max, dt)
    tb, yb, vb, hit_b = warped_products._integrate_obstruction(a, y0, -y0p, t_max, dt)
    ts = np.array([-t for t in reversed(tb[1:])] + tf)
    ys = np.array(list(reversed(yb[1:])) + yf)
    yps = np.array([-v for v in reversed(vb[1:])] + vf)
    blow = hit_f if hit_f is not None else None if hit_b is None else -hit_b
    return ts, ys, yps, blow, len(tf) - 1, len(tb) - 1


# (a, y0, y0p): zero data with every sign of zero; increments that round to
# zero at y0 = 400, 369 and a subnormal or tiny a, where the velocities stay
# signed zeros; and slopes whose halves never meet
_RICCATI_STARTS = [
    (1.0, 0.0, 0.0), (1.0, -0.0, -0.0), (1.0, 0.0, -0.0), (1.0, 0.3, 0.0), (4.0, 0.0, 0.0),
    (1.0, 400.0, 0.0), (1.0, 400.0, -0.0), (1.0, 369.0, 0.0),
    (5e-324, 0.0, 0.0), (5e-324, -0.0, 0.0), (5e-324, 0.0, -0.0), (5e-324, -0.0, -0.0),
    (1e-300, 0.0, 0.0), (1.0, 0.0, 0.7), (1.0, 0.0, -5.0),
]


@pytest.mark.parametrize("a, y0, y0p", _RICCATI_STARTS)
def test_riccati_is_the_full_integration_bit_for_bit(a, y0, y0p):
    ts, ys, yps, blow, _, _ = _riccati_in_full(a, y0, y0p, 3.0, 1e-3)
    rep = riccati_obstruction(a, y0, y0p, 3.0, dt=1e-3)
    assert rep.ts.tobytes() == ts.tobytes()
    assert rep.ys.tobytes() == ys.tobytes()
    assert rep.yps.tobytes() == yps.tobytes()
    assert rep.blow_up_time == blow
    assert rep.blow_up == (blow is not None)


@pytest.mark.parametrize("y0p, half", [(2e8, "forward"), (-2e8, "backward")])
def test_a_half_that_overflows_raises_as_before(y0p, half):
    with pytest.raises(StepOverflow) as full:
        _riccati_in_full(1.0, 0.0, y0p, 1.0, 1e-3)
    with pytest.raises(StepOverflow) as merged:
        riccati_obstruction(1.0, 0.0, y0p, 1.0, dt=1e-3)
    assert str(merged.value) == str(full.value), half


@pytest.mark.parametrize("y0p, most", [(0.0, 2), (0.7, None)])
def test_backward_half_steps_only_until_the_halves_meet(monkeypatch, y0p, most):
    *_, forward_steps, backward_steps = _riccati_in_full(1.0, 0.0, y0p, 3.0, 1e-3)
    calls = []

    def counting(*args):
        calls.append(args)
        return rk4_step(*args)

    monkeypatch.setattr(warped_products, "rk4_step", counting)
    riccati_obstruction(1.0, 0.0, y0p, 3.0, dt=1e-3)
    if most is None:  # the halves never meet: the backward half takes all its steps
        assert len(calls) == forward_steps + backward_steps
    else:
        assert len(calls) - forward_steps <= most < backward_steps


def radial_identity(split, N, r):
    """The (r, r) component of the generalized Ricci tensor of a split space
    at (r, fiber basepoint): the closed form ((N-1)/((n-1)(n-N))) phi'(r)^2,
    -phi'^2/(n-1) at N = inf, and the numeric value."""
    n = split.n
    p = np.concatenate([[r], split.fiber_basepoint()])
    dphi = split.phi.grad(p)[0]
    if math.isinf(N):
        closed = -dphi ** 2 / (n - 1)
    else:
        closed = (N - 1.0) / ((n - 1.0) * (n - N)) * dphi ** 2
    numeric = generalized_ricci(split.metric_spec(), split.density(), N, p)[0, 0]
    return float(closed), float(numeric)


class TestRadialIdentity:
    def test_vanishes_at_N_equal_one(self):
        split = catalog.split_sin_sphere(0.7)
        ana, num = radial_identity(split, 1.0, 1.3)
        assert ana == 0.0
        assert abs(num) < 1e-6

    def test_unit_slope_coefficient(self):
        # phi' = 1, n = 3, N = 0: coefficient (N-1)/((n-1)(n-N)) = -1/6
        split = SplitSpaceSpec(n=3, phi=phi_field("r"), fiber=FlatFiber(2))
        ana, num = radial_identity(split, 0.0, 0.4)
        assert ana == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert num == pytest.approx(-1.0 / 6.0, abs=1e-6)

    def test_constant_phi_zero_for_all_N(self):
        split = SplitSpaceSpec(n=3, phi=phi_field("2"), fiber=SphereFiber(2, 1.0))
        for N in (-5.0, 0.0, 0.5, 1.0, math.inf):
            ana, num = radial_identity(split, N, 0.9)
            assert ana == 0.0
            assert abs(num) < 1e-7

    def test_matches_numeric_across_N(self):
        for split in (catalog.split_sin_sphere(0.4),
                      catalog.split_sin_sphere(0.4, f_L=catalog.bounded_fiber_density()),
                      catalog.split_sin_torus(3)):
            for N in (-5.0, -1.0, 0.0, 0.5, 1.0):
                for r in (-1.1, 0.6, 2.0):
                    ana, num = radial_identity(split, N, r)
                    assert abs(ana - num) <= 1e-6

    def test_dimension_clash(self):
        split = catalog.split_sin_sphere(0.4)
        with pytest.raises(DimensionClash):
            generalized_ricci(split.metric_spec(), split.density(), 3.0,
                              np.array([1.0, 0.0, 0.0]))


class TestMixedPartialResidual:
    # the radial-fiber entries of the Ricci tensor, which curvature.csv
    # prints, are ((2-n)/(n-1)) psi_{r a} in closed form: zero exactly when
    # the twist splits off r
    def test_splitting_twist_has_no_mixed_partials(self):
        tw = catalog.split_sin_sphere(0.5, f_L=catalog.bounded_fiber_density()).as_twisted()
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(-3, 3, 20), rng.uniform(-2, 2, 20),
                               rng.uniform(-2, 2, 20)])
        for p in pts:
            assert np.max(np.abs(twisted_ricci_analytic(tw, p)[0, 1:])) <= 1e-12

    def test_genuine_twist_detected(self):
        tw = catalog.twisted_example(3)
        p = np.array([0.7, 0.5, 0.1])
        mixed = tw.psi.hess(p)[0, 1:]
        assert np.max(np.abs(mixed)) > 1e-2
        assert np.allclose(twisted_ricci_analytic(tw, p)[0, 1:], -0.5 * mixed,
                           rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# the chart field phi against the phi/dphi/d2phi closures it replaced
# ---------------------------------------------------------------------------

_CONSTANT = st.floats(-2.0, 2.0, allow_nan=False).map(lambda c: f"({c!r})")
R_PROFILES = st.recursive(
    st.one_of(st.just("r"), _CONSTANT),
    lambda inner: st.one_of(
        st.builds("sin({})".format, inner),
        st.builds("cos({})".format, inner),
        st.builds("exp({})".format, inner),
        st.builds("({} + {})".format, inner, inner),
        st.builds("({} * {})".format, inner, inner),
        st.builds("({} ^ {})".format, inner, st.sampled_from(["2", "3", "0.5", "r"])),
        st.builds("(r ^ {})".format, _CONSTANT),
    ),
    max_leaves=6,
)


def _oracle_twist(phi: str, n: int):
    """The twist potential SplitSpaceSpec.as_twisted built from the callables
    phi, dphi and d2phi of one variable before phi became a chart field."""
    e = compile_expression(phi, ("r",))
    d = e.derivative("r")
    d2 = d.derivative("r")

    def grad(p):
        out = np.zeros(n)
        out[0] = d(p[0])
        return out

    def hess(p):
        out = np.zeros((n, n))
        out[0, 0] = d2(p[0])
        return out

    return ScalarField(value=lambda p: e(p[0]), grad=grad, hess=hess)


def _oracle_density(psi: ScalarField, f_L, n: int) -> ScalarField:
    """The split density built the same way, phi + f_L."""
    if f_L is None:
        return psi

    def value(p):
        return psi.value(p) + float(f_L.value(p[1:]))

    def grad(p):
        out = psi.grad(p)
        out[1:] = f_L.grad(p[1:])
        return out

    def hess(p):
        out = psi.hess(p)
        out[1:, 1:] = f_L.hess(p[1:])
        return out

    return ScalarField(value=value, grad=grad, hess=hess)


def _bits(fn, *args):
    """What ``fn(*args)`` gives, bit for bit: dtype, shape and bytes of each
    array returned, or the class of the exception raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # the oracle must fail the same way
        return type(exc)
    if hasattr(out, "r_at"):
        return out.value.hex(), out.r_at.hex(), out.diverged
    arrays = map(np.asarray, out if isinstance(out, tuple) else (out,))
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=100, deadline=None)
@given(R_PROFILES, st.sampled_from([None, "0.2 * sin(y1) * cos(y2)", "0.1 * y1^2 - y2"]),
       st.sampled_from(["euclidean", "sphere"]),
       st.lists(st.tuples(st.floats(0.25, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=4))
def test_phi_field_matches_the_closures_it_replaced(phi, f_L, fiber, points):
    text = (f"[manifold]\nkind = split\ndim = 3\n[phi]\nexpr = {phi}\n"
            f"[fiber]\ntype = {fiber}\n"
            + ("einstein_constant = 0.5\n" if fiber == "sphere" else "box = 3\n")
            + "[grid]\nr_min = 0.5\nr_max = 2.5\n"
            + (f"[f_L]\nexpr = {f_L}\n" if f_L else ""))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cdm"
        path.write_text(text)
        try:
            geo = build_geometry(parse_manifest(path))
        except (ParseError, ValidationError):
            assume(False)  # a profile with no finite value at the grid center
    split = geo["split"]
    assert split.as_twisted().psi is split.phi
    assert (split.density() is split.phi) == (f_L is None)

    psi = _oracle_twist(phi, 3)
    oracle = SplitSpaceSpec(n=3, phi=psi, fiber=split.fiber, f_L=split.f_L)
    spec, oracle_spec = split.metric_spec(), TwistedProductSpec(3, psi, split.fiber).metric_spec()
    density, oracle_density = geo["density"], _oracle_density(psi, split.f_L, 3)
    pts = np.array(points)
    for order in (0, 1):
        assert _bits(spec.jet, pts, order) == _bits(oracle_spec.jet, pts, order)
    for p in pts:
        for order in (0, 1):
            assert _bits(spec.jet, p[None], order) == _bits(oracle_spec.jet, p[None], order)
        for a, b in ((density.value, oracle_density.value), (density.grad, oracle_density.grad),
                     (density.hess, oracle_density.hess)):
            assert _bits(a, p) == _bits(b, p)
    assert (_bits(split_cd_threshold, split, (0.5, 2.5), 41)
            == _bits(split_cd_threshold, oracle, (0.5, 2.5), 41))
