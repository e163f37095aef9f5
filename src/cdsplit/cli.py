"""Command-line front end: manifest-driven verification reports.

    cdsplit <subcommand> --manifest <path> [--out <dir>] [--seed <u64>]
            [--grid-override key=value ...]

Subcommands: curvature, verify-cd, threshold, riccati, geodesic, compare,
bochner, suite.  Exit codes: 0 = all checks pass, 1 = violation found or a
numerical error, 2 = usage or parse error, such as any manifest that
``parse_manifest`` rejects, a subcommand that does not apply to the
manifest (``_NEEDS``), a seed outside [0, 2**64) or an ``--out`` that cannot
be made a directory, each decided in ``_run`` before any report is written.
An error is one ``error:`` line, and a warning (numpy's floating-point
warnings among them) one ``warning:`` line.
``--grid-override`` sets a [grid] key or [numeric] dt (only dt on a radial
model, which takes no [grid] key); ``parse_manifest`` applies
it before validation and builds the geometry the subcommands get from
``build_geometry``.  The grids and sample points every subcommand checks
come from the grid section of ``manifest``; ``verify-cd`` walks its grid,
and ``curvature`` and ``bochner`` their sample points, in blocks of
``BLOCK_POINTS`` (``chart_core.in_blocks``), with no per-point code.  Given
the same manifest and seed the written reports are byte-identical across
runs (no timestamps, 17-significant-digit floats, LF line endings).
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
from .chart_core import BLOCK_POINTS, H1, H2, H3, BlockGeometry, ScalarField, in_blocks
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
    write_csv,
    write_trace_csv,
)
from .manifest import (
    ManifoldManifest,
    build_geometry,
    cd_grid,
    grid_center,
    grid_summary,
    parse_manifest,
    sample_points,
    sample_region,
)
from .warped_products import riccati_obstruction, split_cd_threshold, twisted_ricci_analytic
from .weighted_curvature import TOL_CD, cd_verify, generalized_ricci_at

TOOL = "cdsplit"

BOCHNER_TOL = 1e-4
# coordinate-scaled steps budget the 1e-4 tolerance for desk-scale
# coordinates, so bochner samples r inside |r| <= 3
BOCHNER_R_LIMIT = 3.0
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
            f"grid: {grid_summary(m)}",
            f"numeric: dt={m.numeric['dt']:g} tol_cd={TOL_CD:g} fd=({H1:g},{H2:g},{H3:g})",
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
    i, j = np.triu_indices(n)  # (i, j) with i <= j, row by row

    def stacked(s: slice) -> np.ndarray:
        # each point's dump: the upper triangle of its Ricci tensor, the
        # largest deviation of the closed form, the upper triangle of its
        # generalized Ricci tensor, taken in this order at a point alone
        at = BlockGeometry(spec, pts[s])
        ric = at.ricci
        parts = [ric[:, i, j]]
        if closed_form is not None:
            analytic = np.array([twisted_ricci_analytic(closed_form, p) for p in at.pts])
            parts.append(np.max(np.abs(ric - analytic), axis=(1, 2))[:, None])
        if manifest.cd:
            parts.append(generalized_ricci_at(at, geo["density"], manifest.cd["N"])[:, i, j])
        return np.hstack(parts)

    dumps = in_blocks(len(pts), BLOCK_POINTS, stacked)
    rep.write_csv("curvature.csv", cols, np.column_stack((pts, dumps)).tolist())
    if closed_form is not None:
        # a Ricci tensor is symmetric bit for bit, so its largest entry is
        # in its upper triangle
        m = len(i)
        scale = np.maximum(1.0, np.max(np.abs(dumps[:, :m]), axis=1))
        agreement = max([0.0, *(dumps[:, m] / scale).tolist()])
        if agreement > CURVATURE_AGREEMENT_TOL:
            print(f"curvature: closed-form vs numeric relative disagreement {agreement:.3g}")
            return 1
    print(f"curvature: wrote {len(pts)} tensor dumps")
    return 0


def _cmd_verify_cd(manifest, geo, rep: Reporter) -> int:
    grid = cd_grid(manifest)
    report = cd_verify(geo["spec"], geo["density"], manifest.cd["lambda"],
                       manifest.cd["N"], grid)
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
                  np.column_stack((report.points, report.eigenvalues)).tolist())
    print(f"verify-cd: {report.verdict} (min eigenvalue {report.min_eigenvalue:.6g} "
          f"at {np.array2string(report.witness, precision=4)})")
    return 0 if report.passed else 1


def _cmd_threshold(manifest, geo, rep: Reporter) -> int:
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
                  np.column_stack((out.ts, out.ys, out.yps)).tolist())
    if out.blow_up:
        print(f"riccati: escape detected at t = {out.blow_up_time:.6g}")
    else:
        print("riccati: no escape inside the integration window")
    return 0


def _cmd_geodesic(manifest, geo, rep: Reporter) -> int:
    params = manifest.extras["geodesic"]
    trace = geodesic_integrate(geo["spec"], params["start"], params["velocity"], T=params["T"],
                               dt=manifest.numeric["dt"])
    clairaut = clairaut_drift = None
    if "split" in geo:
        c_rep = clairaut_constant(geo["split"], trace)
        clairaut, clairaut_drift = c_rep.values, c_rep.max_drift
    fg = f_along_geodesic(geo["density"], trace)
    extra = [f"speed drift: {_fmt(trace.speed_drift)}",
             f"truncated: {trace.truncated}"]
    if clairaut_drift is not None:
        extra.append(f"conserved-quantity drift: {_fmt(clairaut_drift)}")
    extra += [f"accepted steps: {trace.steps}", f"rejected steps: {trace.rejected}",
              f"stage calls: {trace.stage_calls}",
              f"local error estimate sum: {_fmt(trace.local_error)}"]
    write_trace_csv(trace, rep.out / "geodesic.csv", clairaut=clairaut, f_gamma=fg,
                    header_lines=rep.header(extra))
    ok = trace.speed_drift <= SPEED_DRIFT_TOL and (clairaut_drift is None
                                                   or clairaut_drift <= CLAIRAUT_TOL)
    print(f"geodesic: {len(trace)} samples, speed drift {trace.speed_drift:.3g}"
          + (f", conserved drift {clairaut_drift:.3g}" if clairaut_drift is not None else ""))
    return 0 if ok else 1


def _cmd_compare(manifest, geo, rep: Reporter) -> int:
    try:
        samples = radial_comparison_check(geo["model"], cd_grid(manifest))
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
    pts = sample_points(manifest, count, rep.seed + 1, r_limit=BOCHNER_R_LIMIT)
    drawn = {}  # the random field of each point of the block being walked

    def stacked(s: slice) -> np.ndarray:
        # in_blocks walks the blocks in order and re-runs a block inside it,
        # so drawing a block's fields when it starts keeps the draws in the
        # points' order, and only one block's fields are held
        if s.start not in drawn:
            drawn.clear()
            drawn.update((k, _random_cubic_field(rng, manifest.dim))
                         for k in range(s.start, s.stop))
        fields = [drawn[k] for k in range(s.start, s.stop)]
        return bochner_residual(geo["spec"], geo["density"], fields, pts[s])

    residuals = in_blocks(len(pts), BLOCK_POINTS, stacked)
    worst = max([0.0, *residuals.tolist()])
    rep.write_csv("bochner.csv", ["point_" + c for c in geo["spec"].coords()] + ["residual"],
                  np.column_stack((pts, residuals)).tolist(),
                  extra_header=[f"tolerance: {BOCHNER_TOL:g}",
                                "sample box: manifest grid clipped to |r| <= 3"])
    print(f"bochner: {count} random fields, max residual {worst:.3g}")
    return 0 if worst <= BOCHNER_TOL else 1


def _rigidity(manifest, geo, rep: Reporter) -> int:
    rigidity = rigidity_check(geo["split"], sample_points(manifest, 40, rep.seed))
    rep.write_text("rigidity.txt", [
        f"grad norm deviation: {_fmt(rigidity.grad_norm_dev)}",
        f"weighted laplacian of r: {_fmt(rigidity.lap_f_r_dev)}",
        f"hessian proportionality: {_fmt(rigidity.hess_proportionality_dev)}",
        f"radial generalized Ricci at N=1: {_fmt(rigidity.radial_ricci_dev)}",
        # Lap_f (-r) is -Lap_f r bit for bit, so the pair deviates as r does
        f"opposite-ray pair deviation: {_fmt(rigidity.lap_f_r_dev)}",
        f"passes: {rigidity.passes()}",
    ])
    return 0 if rigidity.passes() else 1


def _cmd_suite(manifest, geo, rep: Reporter) -> int:
    results: list[tuple[str, int]] = []
    for name, step in _SUITE.items():
        if name in _NEEDS and not _NEEDS[name][0](manifest):
            continue
        try:
            code = step(manifest, geo, rep)
        except CdsplitError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            code = 1
        results.append((name, code))

    all_ok = all(code == 0 for _, code in results)
    body = [f"{name}: {'PASS' if code == 0 else 'FAIL'}" for name, code in results]
    body.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    rep.write_text("summary.txt", body)
    print("suite:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


# the steps of suite, in order: each other subcommand and the rigidity check
_SUITE = {
    "curvature": _cmd_curvature,
    "verify-cd": _cmd_verify_cd,
    "threshold": _cmd_threshold,
    "rigidity": _rigidity,
    "riccati": _cmd_riccati,
    "geodesic": _cmd_geodesic,
    "compare": _cmd_compare,
    "bochner": _cmd_bochner,
}
_COMMANDS = {**{n: step for n, step in _SUITE.items() if n != "rigidity"}, "suite": _cmd_suite}

# what a step needs of its manifest, and the usage error of the subcommand
# run on a manifest without it; suite skips the steps whose need is not met
_NEEDS = {
    "verify-cd": (lambda m: bool(m.cd), "verify-cd needs a [cd] block in the manifest"),
    "threshold": (lambda m: m.kind == "split", "threshold applies to split manifests only"),
    "compare": (lambda m: m.kind == "radial_model",
                "compare applies to radial_model manifests only"),
}
_NEEDS["rigidity"] = _NEEDS["threshold"]


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
    out = Path(out_dir) if out_dir is not None else Path("cdsplit-out")
    try:
        if subcommand not in _COMMANDS:
            raise ValidationError(f"unknown subcommand {subcommand!r}")
        if not 0 <= seed < 2 ** 64:
            raise ValidationError(f"--seed {seed} is outside [0, 2**64)")
        manifest = parse_manifest(manifest_path, grid_overrides)
        # the pre-flight: no subcommand decides a usage error of its own
        if subcommand in _NEEDS and not _NEEDS[subcommand][0](manifest):
            raise ValidationError(_NEEDS[subcommand][1])
        if subcommand in ("bochner", "suite"):
            sample_region(manifest, BOCHNER_R_LIMIT)
        geo = build_geometry(manifest)
        rep = Reporter(manifest, out, seed)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[subcommand](manifest, geo, rep)
    except CdsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


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
