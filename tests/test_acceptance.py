"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success).
"""

import math
from pathlib import Path

import numpy as np

import catalog
from cdsplit.chart_core import ScalarField, ricci_numeric, weighted_laplacian
from cdsplit.cli import run
from cdsplit.comparison_suite import (
    bochner_residual,
    comparison_bound,
    radial_comparison_check,
    rigidity_check,
)
from cdsplit.geodesic_flow import (
    clairaut_constant,
    geodesic_integrate,
    normalize_velocity,
)
from cdsplit.manifest import box_grid, inset_box, sample_box
from cdsplit.warped_products import (
    riccati_obstruction,
    split_cd_threshold,
    twisted_ricci_analytic,
)
from cdsplit.weighted_curvature import cd_verify, generalized_ricci

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_vs_numeric_curvature():
    charts = catalog.builtin_product_charts()
    dims = {tw.n for tw in charts}
    rng = np.random.default_rng(1)
    worst = 0.0
    total = 0
    for tw in charts:
        spec = tw.metric_spec()
        box = np.asarray(tw.fiber.safe_box, dtype=float)
        pad = 0.1 * (box[:, 1] - box[:, 0])
        for _ in range(40):
            p = np.empty(tw.n)
            p[0] = rng.uniform(-3.0, 3.0)
            for j in range(tw.n - 1):
                p[1 + j] = rng.uniform(box[j, 0] + pad[j], box[j, 1] - pad[j])
            a = twisted_ricci_analytic(tw, p)
            b = ricci_numeric(spec, p)
            rel = float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a))))
            worst = max(worst, rel)
            total += 1
    ok = worst <= 1e-5 and total >= 200 and dims >= {2, 3, 4} and len(charts) >= 4
    report(1, "closed-form vs finite-difference Ricci on built-in products", ok,
           f"{total} points, {len(charts)} charts dims {sorted(dims)}, "
           f"worst rel err {worst:.3g}")


def test_criterion_02_obstruction_ode_exact_solution():
    rep = riccati_obstruction(1.0, 0.0, 0.0, 3.0, dt=1e-3)
    mask = (rep.ts >= 0.0) & (rep.ts <= 1.45)
    err = float(np.max(np.abs(rep.ys[mask] - np.log(np.cos(rep.ts[mask])))))
    t_err = abs(rep.blow_up_time - math.pi / 2.0)
    ok = rep.blow_up and err <= 1e-6 and t_err <= 1e-3
    report(2, "obstruction ODE tracks log cos t and escapes at pi/2", ok,
           f"max err {err:.3g} on [0, 1.45], blow-up time off by {t_err:.3g}")


def test_criterion_03_split_threshold_and_cd_verdicts():
    # independent oracle: dense scan of -s e^s / 2 over s in [-1, 1]
    s = np.linspace(-1.0, 1.0, 2_000_001)
    oracle = float(np.max(-0.5 * s * np.exp(s)))
    split = catalog.split_sin_sphere(0.5)
    thr = split_cd_threshold(split, (-10.0, 10.0)).value
    thr_ok = abs(thr - oracle) <= 1e-6 and abs(thr - 0.5 * math.exp(-1.0)) <= 1e-6

    above = catalog.split_sin_sphere(thr + 0.01)
    below = catalog.split_sin_sphere(thr - 0.01)
    # the shipped sphere's verify-cd grid: 201 radii times 9 x 9 points of
    # the fiber's safe box inset 2%
    grid = box_grid(np.vstack([(-10.0, 10.0), inset_box(above.fiber.safe_box, 0.02)]),
                    [201, 9, 9])
    rep_up = cd_verify(above.metric_spec(), above.density(), 0.0, 1.0, grid)
    rep_dn = cd_verify(below.metric_spec(), below.density(), 0.0, 1.0, grid)
    witness_ok = math.sin(rep_dn.witness[0]) < -0.999
    ok = thr_ok and rep_up.passed and not rep_dn.passed and witness_ok
    report(3, "CD(0,1) threshold for the sine warp with verdicts on both sides", ok,
           f"threshold {thr:.9g} vs oracle {oracle:.9g}; above: {rep_up.verdict}, "
           f"below: {rep_dn.verdict}, witness sin r = {math.sin(rep_dn.witness[0]):.6f}")


def test_criterion_04_laplacian_comparison():
    def const_samples(c, r, k=401):
        ts = np.linspace(0.0, r, k)
        return np.stack([ts, np.full(k, c)], axis=-1)

    exact_ok = comparison_bound(const_samples(0.0, 2.0), 3, 2.0) == 1.0
    for c in (-3.0, 0.5, 40.0):
        exact_ok = exact_ok and comparison_bound(const_samples(c, 2.0), 3, 2.0) == 1.0
    for r in (0.7, 5.3):
        got = comparison_bound(const_samples(1.7, r), 3, r)
        exact_ok = exact_ok and math.isclose(got, 2.0 / r, rel_tol=1e-14)

    model = catalog.radial_log_model(3)
    samples = radial_comparison_check(model, box_grid([[0.1, 10.0], [0, 0], [0, 0]], [100, 1, 1]))
    min_slack = min(s.slack for s in samples)
    ok = exact_ok and len(samples) == 100 and min_slack >= -1e-8
    report(4, "comparison bound: constant reduction exact, log-model slack nonnegative",
           ok, f"min slack {min_slack:.3g} over 100 radii")


def test_criterion_05_bochner_residual():
    total = 0
    worst = 0.0

    # hand-computed flat cases, values n and n - <a, x>
    n = 3
    flat = catalog.flat(n)
    h_quad = ScalarField(value=lambda p: 0.5 * float(p @ p), grad=lambda p: p.copy(),
                         hess=lambda p: np.eye(n))
    zero = catalog.constant(0.0, n)
    p = np.array([0.4, -0.2, 0.9])
    s_field = ScalarField(value=lambda q: float(
        np.asarray(h_quad.grad(q)) @ np.asarray(h_quad.grad(q))))
    lhs = 0.5 * weighted_laplacian(flat, zero, s_field, p, step=1e-3)
    hand_ok = abs(lhs - n) <= 1e-4
    worst = max(worst, bochner_residual(flat, zero, [h_quad], [p])[0])

    a = np.array([0.7, -0.3, 0.2])
    f_lin = ScalarField(value=lambda q: float(a @ q), grad=lambda q: a.copy(),
                        hess=lambda q: np.zeros((n, n)))
    lhs = 0.5 * weighted_laplacian(flat, f_lin, s_field, p, step=1e-3)
    hand_ok = hand_ok and abs(lhs - (n - float(a @ p))) <= 1e-4
    worst = max(worst, bochner_residual(flat, f_lin, [h_quad], [p])[0])
    total += 2

    # randomized triples on flat and warped charts
    rng = np.random.default_rng(2)
    warped = catalog.split_sin_sphere(0.5)
    wspec = warped.metric_spec()
    R = math.sqrt(warped.fiber.radius_sq)
    configs = [
        (catalog.flat(2), lambda: rng.uniform(-2, 2, 2), 2),
        (catalog.flat(3), lambda: rng.uniform(-2, 2, 3), 3),
        (wspec, lambda: np.concatenate([[rng.uniform(-3, 3)],
                                        rng.uniform(-R, R, 2)]), 3),
    ]
    from cdsplit.cli import _random_cubic_field

    for spec, sampler, dim in configs:
        for _ in range(33):
            h = _random_cubic_field(rng, dim)
            f = _random_cubic_field(rng, dim, scale=0.3)
            res = bochner_residual(spec, f, [h], [sampler()])[0]
            worst = max(worst, res)
            total += 1
    ok = hand_ok and worst <= 1e-4 and total >= 100
    report(5, "weighted Bochner identity residual on flat and warped charts", ok,
           f"{total} triples, worst residual {worst:.3g}")


def test_criterion_06_rigidity_identities():
    total = 0
    worst_lap = worst_hess = worst_ric = 0.0
    for split in (catalog.split_sin_sphere(0.7),
                  catalog.split_sin_sphere(0.7, f_L=catalog.bounded_fiber_density()),
                  catalog.split_sin_torus(3),
                  catalog.hyperbolic_split(3)):
        bounds = np.vstack([(-5.0, 5.0), inset_box(split.fiber.safe_box, 0.05)])
        rep = rigidity_check(split, sample_box(bounds, 50, 5))
        total += rep.points.shape[0]
        worst_lap = max(worst_lap, rep.lap_f_r_dev)
        worst_hess = max(worst_hess, rep.hess_proportionality_dev)
        worst_ric = max(worst_ric, rep.radial_ricci_dev)
    ok = total >= 200 and worst_lap <= 1e-6 and worst_hess <= 1e-5 and worst_ric <= 1e-6
    report(6, "split-space rigidity identities", ok,
           f"{total} points: weighted Laplacian {worst_lap:.3g}, Hessian "
           f"proportionality {worst_hess:.3g}, radial curvature {worst_ric:.3g}")


def test_criterion_07_radial_identity():
    # the (r, r) component of the generalized Ricci tensor at (r, fiber
    # basepoint) against its closed form ((N-1)/((n-1)(n-N))) phi'(r)^2
    worst = 0.0
    for split in (catalog.split_sin_sphere(0.4),
                  catalog.split_sin_sphere(0.4, f_L=catalog.bounded_fiber_density())):
        n, spec, density = split.n, split.metric_spec(), split.density()
        for N in (-5.0, -1.0, 0.0, 0.5, 1.0):
            for r in (-2.0, -0.4, 0.9, 2.5):
                p = np.concatenate([[r], split.fiber_basepoint()])
                ana = (N - 1.0) / ((n - 1.0) * (n - N)) * split.phi.grad(p)[0] ** 2
                num = generalized_ricci(spec, density, N, p)[0, 0]
                worst = max(worst, abs(ana - num))
    ok = worst <= 1e-6
    report(7, "radial generalized Ricci equals its closed-form coefficient", ok,
           f"worst |analytic - numeric| {worst:.3g} over N in {{-5,-1,0,0.5,1}}")


def test_criterion_08_nongradient_example():
    spec, X = catalog.nongradient_example(n=4, einstein_constant=1.0, amplitude=0.05)
    mspec = spec.metric_spec()
    rng = np.random.default_rng(8)
    worst_row = 0.0
    for _ in range(50):
        p = np.concatenate([[rng.uniform(-3, 3)], rng.uniform(-2.0, 2.0, 3)])
        form = generalized_ricci(mspec, X, 1.0, p)
        worst_row = max(worst_row, float(np.max(np.abs(form[0, :]))))

    # gradient reduction: vector form with X = grad f matches the scalar form
    worst_red = 0.0
    split = catalog.split_sin_sphere(0.5, f_L=catalog.bounded_fiber_density())
    sspec = split.metric_spec()
    f = split.density()
    Xf = catalog.gradient_as_vector_field(sspec, f)
    for N in (-5.0, 0.5, 1.0, math.inf):
        for _ in range(5):
            p = np.concatenate([[rng.uniform(-2, 2)], rng.uniform(-1.2, 1.2, 2)])
            d = np.max(np.abs(generalized_ricci(sspec, Xf, N, p)
                              - generalized_ricci(sspec, f, N, p)))
            worst_red = max(worst_red, float(d))
    ok = worst_row <= 1e-5 and worst_red <= 1e-5
    report(8, "non-gradient density: radial rows vanish and gradient reduction holds",
           ok, f"worst radial row {worst_row:.3g} at 50 points, reduction {worst_red:.3g}")


def test_criterion_09_geodesic_conservation():
    rng = np.random.default_rng(9)
    worst_speed = worst_clairaut = 0.0
    for split in (catalog.split_sin_sphere(0.5), catalog.split_sin_torus(3)):
        spec = split.metric_spec()
        p0 = np.concatenate([[0.2], 0.3 * rng.standard_normal(2)])
        v0 = normalize_velocity(spec, p0, rng.standard_normal(3))
        trace = geodesic_integrate(spec, p0, v0, T=10.0, dt=1e-3)
        worst_speed = max(worst_speed, trace.speed_drift)
        worst_clairaut = max(worst_clairaut, clairaut_constant(split, trace).max_drift)

    polar = catalog.polar_plane()
    trace = geodesic_integrate(polar, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                               T=10.0, dt=1e-3)
    x = trace.positions[:, 0] * np.cos(trace.positions[:, 1])
    y = trace.positions[:, 0] * np.sin(trace.positions[:, 1])
    polar_dev = float(np.max(np.hypot(x - 1.0, y - trace.ts)))
    ok = worst_speed <= 1e-6 and worst_clairaut <= 1e-8 and polar_dev <= 1e-6
    report(9, "geodesic conservation: unit speed, warped-product constant, "
              "polar-chart oracle", ok,
           f"speed drift {worst_speed:.3g}, conserved drift {worst_clairaut:.3g}, "
           f"polar deviation {polar_dev:.3g}")


def test_criterion_10_deterministic_reports(tmp_path):
    man = MANIFESTS / "sphere_example.cdm"
    overrides = ["r_count=41", "fiber_count=3"]
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = run("suite", man, a, seed=42, grid_overrides=overrides)
    code_b = run("suite", man, b, seed=42, grid_overrides=overrides)
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    identical = names_a == names_b and all(
        (a / nm).read_bytes() == (b / nm).read_bytes() for nm in names_a)
    ok = code_a == 0 and code_b == 0 and identical and len(names_a) >= 6
    report(10, "suite reruns are byte-identical with fixed manifest and seed", ok,
           f"{len(names_a)} report files compared")
