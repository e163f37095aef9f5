"""Metric catalogue of the benchmark and the spans the per-layer metrics
come from.

End-to-end metrics are measured with tracing off, and their seconds are
reference seconds (see ``probe.py``).  ``work_per_s`` counts the workload's
own unit of work, so the three rates the benchmark was specified with are
one metric read on three workloads:

    cd_points_per_s  = work_per_s on cd-grid         (grid points verified)
    rk4_steps_per_s  = work_per_s on geodesic-trace  (accepted RK4 steps)
    probe_runs_per_s = work_per_s on identity-probes (CLI invocations)

``fail_ratio`` is printed by the benchmark and carried in the result's
``failed`` / ``attempted`` counts; it is 0 on working code, so it has no
relative bound and is not a bounded metric.

Each per-layer metric lists the end-to-end metrics it should move as
``metric@workload`` (``*`` for every workload).  Counts repeat exactly
between runs of the same code; times and µs-per-call include the tracer's
own cost and are read against each other, not against untraced times.
The two ``us_per_point_threads*`` metrics time cd_verify alone (no other
spans) on the twisted grid at CDSPLIT_THREADS=1 and 2: the thread-pool
baseline, on one input at both settings.
"""

from __future__ import annotations

from tracer import SpanPoint

WORK_UNITS = {
    "cd-grid": "cd_points_per_s",
    "geodesic-trace": "rk4_steps_per_s",
    "identity-probes": "probe_runs_per_s",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("work_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better, end-to-end metrics it should move
PER_LAYER = [
    ("manifest.parse_build_s", "s", "lower",
     "setup_s@*; work_per_s@identity-probes"),
    ("manifest.expr_evals", "count", "lower",
     "work_per_s@cd-grid; work_per_s@geodesic-trace"),
    ("manifest.expr_eval_s", "s", "lower",
     "work_per_s@cd-grid; work_per_s@geodesic-trace"),
    ("chart_core.metric_at.calls", "count", "lower", "work_per_s@*"),
    ("chart_core.metric_at.us_per_call", "us", "lower", "work_per_s@*"),
    ("chart_core.gamma_evals", "count", "lower",
     "work_per_s@geodesic-trace; work_per_s@cd-grid"),
    ("chart_core.gamma.us_per_call", "us", "lower",
     "work_per_s@geodesic-trace; work_per_s@cd-grid"),
    ("chart_core.ricci_numeric.calls", "count", "lower", "work_per_s@cd-grid"),
    ("chart_core.ricci_numeric.self_s", "s", "lower", "work_per_s@cd-grid"),
    ("chart_core.hessian_scalar.self_s", "s", "lower",
     "work_per_s@cd-grid; work_per_s@identity-probes"),
    ("chart_core.weighted_laplacian.self_s", "s", "lower",
     "work_per_s@cd-grid; work_per_s@identity-probes"),
    ("weighted_curvature.cd_verify.us_per_point", "us", "lower", "work_per_s@cd-grid"),
    ("weighted_curvature.cd_verify.us_per_point_threads1", "us", "lower",
     "work_per_s@cd-grid"),
    ("weighted_curvature.cd_verify.us_per_point_threads2", "us", "lower",
     "work_per_s@cd-grid"),
    ("weighted_curvature.generalized_ricci.self_s", "s", "lower", "work_per_s@cd-grid"),
    ("weighted_curvature.eigen_solves", "count", "lower", "work_per_s@cd-grid"),
    ("weighted_curvature.min_relative_eigenvalue.self_s", "s", "lower",
     "work_per_s@cd-grid"),
    ("warped_products.twisted_ricci_analytic.self_s", "s", "lower",
     "work_per_s@identity-probes"),
    ("warped_products.split_cd_threshold.self_s", "s", "lower",
     "work_per_s@identity-probes"),
    ("warped_products.riccati_obstruction.self_s", "s", "lower",
     "work_per_s@identity-probes"),
    ("geodesic_flow.rk4_steps", "count", "lower", "work_per_s@geodesic-trace"),
    ("geodesic_flow.geodesic_integrate.us_per_step", "us", "lower",
     "work_per_s@geodesic-trace"),
    ("geodesic_flow.post_pass_s", "s", "lower", "work_per_s@geodesic-trace"),
    ("comparison_suite.bochner_residual.calls", "count", "lower",
     "work_per_s@identity-probes"),
    ("comparison_suite.bochner_residual.us_per_call", "us", "lower",
     "work_per_s@identity-probes"),
    ("comparison_suite.radial_comparison_check.self_s", "s", "lower",
     "work_per_s@identity-probes"),
    ("cli.report_write_s", "s", "lower", "work_per_s@*"),
    ("cli.report_bytes", "bytes", "lower", "work_per_s@*"),
    ("trace_overhead_ratio", "ratio", "lower", "none (tracer cost)"),
]


def _grid_points(args, kwargs, result):
    grid = args[4] if len(args) > 4 else kwargs["grid"]
    return int(grid.points.shape[0])


def _accepted_steps(args, kwargs, result):
    return len(result) - 1


SPANS = [
    SpanPoint("cdsplit.manifest", "parse_manifest", group="manifest.parse_build"),
    SpanPoint("cdsplit.manifest", "build_geometry", group="manifest.parse_build"),
    SpanPoint("cdsplit.manifest", "eval_ast"),
    SpanPoint("cdsplit.chart_core", "metric_at"),
    SpanPoint("cdsplit.chart_core", "gamma_evaluator", returns="chart_core.gamma"),
    SpanPoint("cdsplit.chart_core", "ricci_numeric"),
    SpanPoint("cdsplit.chart_core", "hessian_scalar"),
    SpanPoint("cdsplit.chart_core", "weighted_laplacian"),
    SpanPoint("cdsplit.weighted_curvature", "cd_verify", units=_grid_points),
    SpanPoint("cdsplit.weighted_curvature", "generalized_ricci"),
    SpanPoint("cdsplit.weighted_curvature", "min_relative_eigenvalue"),
    SpanPoint("cdsplit.warped_products", "twisted_ricci_analytic"),
    SpanPoint("cdsplit.warped_products", "split_cd_threshold"),
    SpanPoint("cdsplit.warped_products", "riccati_obstruction"),
    SpanPoint("cdsplit.geodesic_flow", "geodesic_integrate", units=_accepted_steps),
    SpanPoint("cdsplit.geodesic_flow", "f_along_geodesic", group="geodesic_flow.post_pass"),
    SpanPoint("cdsplit.geodesic_flow", "clairaut_constant", group="geodesic_flow.post_pass"),
    SpanPoint("cdsplit.geodesic_flow", "write_trace_csv", group="cli.report_write"),
    SpanPoint("cdsplit.comparison_suite", "bochner_residual"),
    SpanPoint("cdsplit.comparison_suite", "radial_comparison_check"),
    SpanPoint("cdsplit.cli", "Reporter.write_csv", group="cli.report_write"),
    SpanPoint("cdsplit.cli", "Reporter.write_text", group="cli.report_write"),
]


def layer_metrics(totals: dict, threads_us: dict | None, report_bytes: int,
                  overhead_ratio: float) -> dict:
    """Per-layer metric values from ``Tracer.totals()`` of the traced pass,
    and cd_verify µs per point by CDSPLIT_THREADS value (cd-grid only)."""

    def rec(name):
        return totals.get(name, [0, 0.0, 0.0, 0])

    def per(num_s, den):
        return num_s * 1e6 / den if den else 0.0

    cd = rec("weighted_curvature.cd_verify")
    threads_us = threads_us or {}
    geo = rec("geodesic_flow.geodesic_integrate")
    values = {
        "manifest.parse_build_s": rec("manifest.parse_build")[1],
        "manifest.expr_evals": rec("manifest.eval_ast")[0],
        "manifest.expr_eval_s": rec("manifest.eval_ast")[1],
        "chart_core.metric_at.calls": rec("chart_core.metric_at")[0],
        "chart_core.metric_at.us_per_call": per(rec("chart_core.metric_at")[1],
                                                rec("chart_core.metric_at")[0]),
        "chart_core.gamma_evals": rec("chart_core.gamma")[0],
        "chart_core.gamma.us_per_call": per(rec("chart_core.gamma")[1],
                                            rec("chart_core.gamma")[0]),
        "chart_core.ricci_numeric.calls": rec("chart_core.ricci_numeric")[0],
        "chart_core.ricci_numeric.self_s": rec("chart_core.ricci_numeric")[2],
        "chart_core.hessian_scalar.self_s": rec("chart_core.hessian_scalar")[2],
        "chart_core.weighted_laplacian.self_s": rec("chart_core.weighted_laplacian")[2],
        "weighted_curvature.cd_verify.us_per_point": per(cd[1], cd[3]),
        "weighted_curvature.cd_verify.us_per_point_threads1": threads_us.get("1", 0.0),
        "weighted_curvature.cd_verify.us_per_point_threads2": threads_us.get("2", 0.0),
        "weighted_curvature.generalized_ricci.self_s":
            rec("weighted_curvature.generalized_ricci")[2],
        "weighted_curvature.eigen_solves": rec("weighted_curvature.min_relative_eigenvalue")[0],
        "weighted_curvature.min_relative_eigenvalue.self_s":
            rec("weighted_curvature.min_relative_eigenvalue")[2],
        "warped_products.twisted_ricci_analytic.self_s":
            rec("warped_products.twisted_ricci_analytic")[2],
        "warped_products.split_cd_threshold.self_s":
            rec("warped_products.split_cd_threshold")[2],
        "warped_products.riccati_obstruction.self_s":
            rec("warped_products.riccati_obstruction")[2],
        "geodesic_flow.rk4_steps": geo[3],
        "geodesic_flow.geodesic_integrate.us_per_step": per(geo[1], geo[3]),
        "geodesic_flow.post_pass_s": rec("geodesic_flow.post_pass")[1],
        "comparison_suite.bochner_residual.calls": rec("comparison_suite.bochner_residual")[0],
        "comparison_suite.bochner_residual.us_per_call":
            per(rec("comparison_suite.bochner_residual")[1],
                rec("comparison_suite.bochner_residual")[0]),
        "comparison_suite.radial_comparison_check.self_s":
            rec("comparison_suite.radial_comparison_check")[2],
        "cli.report_write_s": rec("cli.report_write")[1],
        "cli.report_bytes": report_bytes,
        "trace_overhead_ratio": overhead_ratio,
    }
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name, *_ in PER_LAYER}
