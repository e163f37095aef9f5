"""Command-line front end: manifest-driven verification reports.

    cdsplit <subcommand> --manifest <path> [--out <dir>] [--seed <u64>]
            [--grid-override key=value ...]

Subcommands: curvature, verify-cd, threshold, riccati, geodesic, compare,
bochner, suite.  Exit codes: 0 = all checks pass, 1 = violation found or a
numerical error, 2 = usage or parse error, such as any manifest that
``parse_manifest`` rejects, a seed outside [0, 2**64) or an ``--out`` that
cannot be made a directory; an error is one ``error:`` line, and a warning
(numpy's floating-point warnings among them) one ``warning:`` line.
``--grid-override`` sets a [grid] or [numeric] key; ``parse_manifest``
applies it before validation and builds the geometry the subcommands get
from ``build_geometry``.  Given the same manifest and seed the written
reports are byte-identical across runs (no timestamps, 17-significant-digit
floats, LF line endings).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .chart_core import BlockGeometry, ScalarField
from .comparison_suite import (
    bochner_residual,
    radial_comparison_check,
    rigidity_check,
)
from .errors import CdsplitError, CDViolation, ParseError, ValidationError
from .geodesic_flow import (
    clairaut_constant,
    f_along_geodesic,
    geodesic_integrate,
    normalize_velocity,
    write_csv,
    write_trace_csv,
)
from .manifest import (
    ManifoldManifest,
    build_geometry,
    cd_grid,
    grid_center,
    parse_manifest,
    sample_points,
)
from .warped_products import riccati_obstruction, split_cd_threshold, twisted_ricci_analytic
from .weighted_curvature import cd_verify, generalized_ricci_at

TOOL = "cdsplit"

BOCHNER_TOL = 1e-4
SPEED_DRIFT_TOL = 1e-6
CLAIRAUT_TOL = 1e-8
SLACK_TOL = 1e-8
CURVATURE_AGREEMENT_TOL = 1e-5


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Reporter:
    """Collects header metadata and writes deterministic report files."""

    def __init__(self, manifest: ManifoldManifest, out_dir: Path, seed: int):
        self.manifest = manifest
        self.out = out_dir
        self.seed = seed
        self.out.mkdir(parents=True, exist_ok=True)

    def header(self, extra=()) -> list[str]:
        m = self.manifest
        lines = [
            f"{TOOL} {__version__}",
            f"manifest sha256: {_sha256(m.source_text)}",
            f"manifold: {m.name} (kind={m.kind}, dim={m.dim})",
            f"grid: r in [{m.grid['r_min']:g}, {m.grid['r_max']:g}] x {m.grid['r_count']}, "
            f"fiber {m.grid['fiber_count']} per axis",
            f"numeric: dt={m.numeric['dt']:g} tol_cd={m.numeric['tol_cd']:g} "
            f"fd=({m.numeric['fd1']:g},{m.numeric['fd2']:g},{m.numeric['fd3']:g})",
            f"seed: {self.seed}",
            "verdicts are sampled, not proven: grid sampling is chart-local and "
            "makes no completeness claim",
        ]
        lines.extend(extra)
        return lines

    def write_csv(self, name: str, columns, rows, extra_header=()) -> Path:
        path = self.out / name
        write_csv(path, self.header(extra_header), columns, rows)
        return path

    def write_text(self, name: str, body_lines, extra_header=()) -> Path:
        path = self.out / name
        with open(path, "w", newline="\n") as fh:
            for line in self.header(extra_header):
                fh.write(f"# {line}\n")
            for line in body_lines:
                fh.write(line + "\n")
        return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_curvature(manifest, geo, rep: Reporter) -> int:
    spec = geo["spec"]
    pts = np.vstack([grid_center(manifest)[None, :],
                     sample_points(manifest, 8, rep.seed)])
    closed_form = geo.get("twisted") or (geo["split"].as_twisted() if "split" in geo else None)
    n = manifest.dim
    cols = ["point_" + c for c in spec.coords()]
    cols += [f"ric_{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
    if closed_form is not None:
        cols += ["closed_form_max_abs_diff"]
    if manifest.cd:
        cols += [f"ricN_{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
    rows = []
    agreement = 0.0
    for p in pts:
        at = BlockGeometry.at(spec, p)
        ric = at.ricci[0]
        row = list(p) + [ric[i, j] for i in range(n) for j in range(i, n)]
        if closed_form is not None:
            diff = float(np.max(np.abs(ric - twisted_ricci_analytic(closed_form, p))))
            agreement = max(agreement, diff / max(1.0, float(np.max(np.abs(ric)))))
            row.append(diff)
        if manifest.cd:
            form = generalized_ricci_at(at, geo["density"], manifest.cd["N"])[0]
            row += [form[i, j] for i in range(n) for j in range(i, n)]
        rows.append(row)
    rep.write_csv("curvature.csv", cols, rows)
    if closed_form is not None and agreement > CURVATURE_AGREEMENT_TOL:
        print(f"curvature: closed-form vs numeric relative disagreement {agreement:.3g}")
        return 1
    print(f"curvature: wrote {len(rows)} tensor dumps")
    return 0


def _cmd_verify_cd(manifest, geo, rep: Reporter) -> int:
    if not manifest.cd:
        print("verify-cd needs a [cd] block in the manifest", file=sys.stderr)
        return 2
    grid = cd_grid(manifest, geo)
    report = cd_verify(geo["spec"], geo["density"], manifest.cd["lambda"],
                       manifest.cd["N"], grid, tol=manifest.numeric["tol_cd"])
    n_label = "inf" if math.isinf(report.N) else f"{report.N:g}"
    body = [
        f"condition: CD(lambda={report.lam:g}, N={n_label})",
        f"verdict: {report.verdict}",
        f"passed: {report.passed}",
        f"min relative eigenvalue: {_fmt(report.min_eigenvalue)}",
        "witness: " + ", ".join(_fmt(x) for x in report.witness),
        f"tolerance: {report.tol:g}",
        f"grid: {report.grid_spec}",
        f"caveat: {report.caveat}",
    ]
    rep.write_text("cd_report.txt", body)
    rep.write_csv("cd_samples.csv",
                  ["point_" + c for c in geo["spec"].coords()] + ["min_eigenvalue"],
                  [list(p) + [m] for p, m in zip(report.points, report.eigenvalues)])
    print(f"verify-cd: {report.verdict} (min eigenvalue {report.min_eigenvalue:.6g} "
          f"at {np.array2string(report.witness, precision=4)})")
    return 0 if report.passed else 1


def _cmd_threshold(manifest, geo, rep: Reporter) -> int:
    if "split" not in geo:
        print("threshold applies to split manifests only", file=sys.stderr)
        return 2
    g = manifest.grid
    out = split_cd_threshold(geo["split"], (g["r_min"], g["r_max"]), g["r_count"])
    body = [
        f"threshold: {_fmt(out.value)}",
        f"attained at r = {_fmt(out.r_at)}",
        f"diverged: {out.diverged}",
        "meaning: minimal fiber curvature constant for the CD(0,1) inequality "
        "with the split density",
    ]
    rep.write_text("threshold.txt", body)
    print(f"threshold: {out.value:.9g} at r = {out.r_at:.6g}"
          + (" [diverged at range boundary]" if out.diverged else ""))
    return 0


def _cmd_riccati(manifest, geo, rep: Reporter) -> int:
    params = manifest.extras["riccati"]
    out = riccati_obstruction(params["a"], params["y0"], params["y0p"],
                              params["t_max"], dt=manifest.numeric["dt"])
    body = [
        f"a: {params['a']:g}, y0: {params['y0']:g}, y0p: {params['y0p']:g}, "
        f"t_max: {params['t_max']:g}, dt: {manifest.numeric['dt']:g}",
        f"blow_up: {out.blow_up}",
        f"blow_up_time: {'none' if out.blow_up_time is None else _fmt(out.blow_up_time)}",
        f"threshold: {out.threshold_used:g}",
    ]
    rep.write_text("riccati.txt", body)
    rep.write_csv("riccati.csv", ["t", "y", "yp"],
                  [[t, y, v] for t, y, v in zip(out.ts, out.ys, out.yps)])
    if out.blow_up:
        print(f"riccati: escape detected at t = {out.blow_up_time:.6g}")
    else:
        print("riccati: no escape inside the integration window")
    return 0


def _cmd_geodesic(manifest, geo, rep: Reporter) -> int:
    spec = geo["spec"]
    params = manifest.extras["geodesic"]
    if "start" in params:
        p0, v_seed = params["start"], params["velocity"]
    else:
        p0 = grid_center(manifest)
        v_seed = np.zeros(manifest.dim)
        v_seed[0] = 1.0
    if manifest.kind == "radial_model" and float(np.linalg.norm(p0)) < 1e-12:
        p0 = p0.copy()
        p0[0] = 0.1  # keep clear of the density's radial singularity at the origin
    try:
        v0 = normalize_velocity(spec, p0, v_seed)
    except ValueError as exc:
        # a velocity of length 0 or beyond the float range in the metric at
        # the start has no unit direction to follow
        raise ValidationError(str(exc), key="[geodesic] velocity") from None
    trace = geodesic_integrate(spec, p0, v0, T=params["T"], dt=manifest.numeric["dt"])
    clairaut = None
    clairaut_drift = None
    if "split" in geo:
        c_rep = clairaut_constant(geo["split"], trace)
        clairaut = c_rep.values
        clairaut_drift = c_rep.max_drift
    fg = f_along_geodesic(geo["density"], trace)
    extra = [f"speed drift: {_fmt(trace.speed_drift)}",
             f"truncated: {trace.truncated}"]
    if clairaut_drift is not None:
        extra.append(f"conserved-quantity drift: {_fmt(clairaut_drift)}")
    write_trace_csv(trace, rep.out / "geodesic.csv", clairaut=clairaut, f_gamma=fg,
                    header_lines=rep.header(extra))
    ok = trace.speed_drift <= SPEED_DRIFT_TOL and (clairaut_drift is None
                                                   or clairaut_drift <= CLAIRAUT_TOL)
    print(f"geodesic: {len(trace)} samples, speed drift {trace.speed_drift:.3g}"
          + (f", conserved drift {clairaut_drift:.3g}" if clairaut_drift is not None else ""))
    return 0 if ok else 1


def _cmd_compare(manifest, geo, rep: Reporter) -> int:
    if "model" not in geo:
        print("compare applies to radial_model manifests only", file=sys.stderr)
        return 2
    params = manifest.extras["compare"]
    rho = np.linspace(params["rho_min"], params["rho_max"], params["count"])
    try:
        samples = radial_comparison_check(geo["model"], rho)
    except CDViolation as exc:
        rep.write_text("compare.txt", [f"refused: {exc}"])
        print(f"compare: refused ({exc})")
        return 1
    rep.write_csv("compare.csv", ["r", "lap_f_r", "bound", "slack", "v_integral"],
                  [[s.r, s.lap_f_r, s.bound, s.slack, s.v_integral] for s in samples])
    worst = min(s.slack for s in samples)
    print(f"compare: {len(samples)} radii, min slack {worst:.6g}")
    return 0 if worst >= -SLACK_TOL else 1


def _random_cubic_field(rng, dim: int, scale: float = 0.5) -> ScalarField:
    A = rng.uniform(-0.5, 0.5, (dim, dim))
    A = 0.5 * (A + A.T)
    b = rng.uniform(-1.0, 1.0, dim)
    C = rng.uniform(-0.15, 0.15, (dim, dim, dim))
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


def _cmd_bochner(manifest, geo, rep: Reporter) -> int:
    count = manifest.extras["bochner"]["points"]
    rng = np.random.default_rng(rep.seed)
    # coordinate-scaled steps budget the 1e-4 tolerance for desk-scale
    # coordinates, so sampling stays inside |r| <= 3
    pts = sample_points(manifest, count, rep.seed + 1, r_limit=3.0)
    rows = []
    worst = 0.0
    for p in pts:
        h = _random_cubic_field(rng, manifest.dim)
        res = bochner_residual(geo["spec"], geo["density"], h, p)
        worst = max(worst, res)
        rows.append(list(p) + [res])
    rep.write_csv("bochner.csv",
                  ["point_" + c for c in geo["spec"].coords()] + ["residual"], rows,
                  extra_header=[f"tolerance: {BOCHNER_TOL:g}",
                                "sample box: manifest grid clipped to |r| <= 3"])
    print(f"bochner: {count} random fields, max residual {worst:.3g}")
    return 0 if worst <= BOCHNER_TOL else 1


def _cmd_suite(manifest, geo, rep: Reporter) -> int:
    results: list[tuple[str, int]] = []

    def run_step(name, fn):
        try:
            code = fn(manifest, geo, rep)
        except ValidationError:
            raise  # a usage error, which run() reports with exit 2
        except CdsplitError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            code = 1
        if code != 2:
            results.append((name, code))
        return code

    run_step("curvature", _cmd_curvature)
    if manifest.cd:
        run_step("verify-cd", _cmd_verify_cd)
    if manifest.kind == "split":
        run_step("threshold", _cmd_threshold)
        rigidity = rigidity_check(geo["split"], n_points=40, seed=rep.seed,
                                  r_range=(manifest.grid["r_min"], manifest.grid["r_max"]))
        rep.write_text("rigidity.txt", [
            f"grad norm deviation: {_fmt(rigidity.grad_norm_dev)}",
            f"weighted laplacian of r: {_fmt(rigidity.lap_f_r_dev)}",
            f"hessian proportionality: {_fmt(rigidity.hess_proportionality_dev)}",
            f"radial generalized Ricci at N=1: {_fmt(rigidity.radial_ricci_dev)}",
            f"opposite-ray pair deviation: {_fmt(rigidity.busemann_pair_dev)}",
            f"passes: {rigidity.passes()}",
        ])
        results.append(("rigidity", 0 if rigidity.passes() else 1))
    run_step("riccati", _cmd_riccati)
    run_step("geodesic", _cmd_geodesic)
    if manifest.kind == "radial_model":
        run_step("compare", _cmd_compare)
    run_step("bochner", _cmd_bochner)

    all_ok = all(code == 0 for _, code in results)
    body = [f"{name}: {'PASS' if code == 0 else 'FAIL'}" for name, code in results]
    body.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    rep.write_text("summary.txt", body)
    print("suite:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


_COMMANDS = {
    "curvature": _cmd_curvature,
    "verify-cd": _cmd_verify_cd,
    "threshold": _cmd_threshold,
    "riccati": _cmd_riccati,
    "geodesic": _cmd_geodesic,
    "compare": _cmd_compare,
    "bochner": _cmd_bochner,
    "suite": _cmd_suite,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as ``warning: <Category>: <message>``, without the
    source file and line that the default format names."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def run(subcommand: str, manifest_path, out_dir=None, seed: int = 42,
        grid_overrides=()) -> int:
    """Programmatic entry point mirroring the command line; returns the exit
    code (0 pass, 1 violation, 2 usage/parse error)."""
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(subcommand, manifest_path, out_dir, seed, grid_overrides)


def _run(subcommand: str, manifest_path, out_dir, seed: int, grid_overrides) -> int:
    if subcommand not in _COMMANDS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    if not 0 <= seed < 2 ** 64:
        print(f"error: --seed {seed} is outside [0, 2**64)", file=sys.stderr)
        return 2
    out = Path(out_dir) if out_dir is not None else Path("cdsplit-out")
    try:
        manifest = parse_manifest(manifest_path, grid_overrides)
        geo = build_geometry(manifest)
        rep = Reporter(manifest, out, seed)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[subcommand](manifest, geo, rep)
    except CdsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Verification reports for weighted curvature bounds on chart metrics.")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--manifest", required=True, help="manifest file path")
    parser.add_argument("--out", default="cdsplit-out", help="output directory")
    parser.add_argument("--seed", type=int, default=42, help="seed for sampled points")
    parser.add_argument("--grid-override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a [grid] or [numeric] entry")
    ns = parser.parse_args(argv)
    sys.exit(run(ns.subcommand, ns.manifest, ns.out, ns.seed, ns.grid_override))


if __name__ == "__main__":
    main()
