"""Compare every shipped report of this checkout with those of a base revision.

    python3 tools/report_diff.py BASE OUT_DIR

BASE is any git revision of this repository.  The script exports it with
``git archive`` into a temporary directory, then runs the same ``RUNS`` on
that tree and on this checkout, each with its own ``src`` and
``manifests``, into ``OUT_DIR/base`` and ``OUT_DIR/change``.  It prints
each file that is missing on one side or whose bytes differ, and exits 1 if
any file differs, 0 if none does, and 2 on a usage error.  OUT_DIR must be
new or empty.  For a differing report CSV whose column names and shape
agree on both sides, it also prints the ``#`` header lines that differ, the
number of data rows that differ, and the largest absolute difference in
each column that differs.

``RUNS`` are all 8 subcommands on the 4 shipped manifests at ``--seed 42``,
plus ``bochner`` on ``sphere_example`` at ``--seed 54`` (the one seed whose
residual exceeds the Bochner tolerance), plus ``verify-cd`` on
``sphere_example`` and ``twisted_flat`` with ``--grid-override`` grids at
block edges of ``cd_verify``, which walks a grid in blocks of 256 points: a
grid smaller than one block (27 and 18 points), and one whose first block
ends inside a fiber slice (405 points, 81 per slice; 275 points, 25 per
slice).  Then come ``curvature``, ``threshold``, ``geodesic``, ``bochner``,
and a 21 x 3 x 3 ``verify-cd`` and ``suite`` on ``F_L_MANIFEST``, a split
space with an ``[f_L]`` section, the one split-density path no shipped
manifest reaches; its ``suite`` is the one run whose rigidity check meets a
fiber density.  Then two ``geodesic`` runs whose post-passes walk their
trace in blocks of 256 samples: on ``EXIT_MANIFEST`` the trace leaves the
sphere fiber's safe box and is truncated after 619 samples, and on
``EDGE_MANIFEST`` it has exactly 257 samples.  Two runs fail inside a block
and so reach the re-run of that block one sample at a time: ``verify-cd``
on ``SINGULAR_MANIFEST``, whose metric is singular at grid point 270, in
the second block of 256, and ``geodesic`` on ``OVERFLOW_MANIFEST``, whose
vector density overflows to inf at sample 587 of the trace.  Then
``geodesic`` on ``OVERFLOW_INTEGRAL_MANIFEST``, whose vector density is a
finite 1e308 but whose f_gamma integral overflows, and ``verify-cd`` on
``SQRT_MANIFEST``, whose density ``sqrt(r)`` has no real value where
r < 0.  Then ``verify-cd`` (525 points, so a block edge inside the grid)
and ``geodesic`` on ``TWISTED_ALL_MANIFEST``, whose twist potential calls
all seven functions and raises to constant and variable powers.  Last,
``curvature`` on ``COMPLEX_POWER_MANIFEST``, whose density ``(r - 5)^0.5``
has a complex value where r < 5, and ``geodesic`` on
``INDEFINITE_MANIFEST``, whose trace runs into r < 1, where the metric is
indefinite.  Then ``curvature``, ``verify-cd`` and ``bochner`` on
``VECTOR_MANIFEST``, a ``general`` chart whose density is a vector field
X1, X2 that is not a gradient: the runs that difference a vector density's
Jacobian and take the Bochner stencils of a vector density.  Then
``geodesic`` on ``SPHERE5_MANIFEST``, a 5-dimensional split space over a
4-dimensional sphere fiber, the one run whose RK4 stages solve 5 x 5
systems and whose speed-drift pass factors 5 x 5 metrics.  Last,
``verify-cd`` on ``EXP_EXP_MANIFEST``, a radial model whose density
``exp(exp(r))`` overflows the df (x) df term at rho = 5.9, inside the first
block of its 100 radii: the one run whose eigenproblem is refused inside a
block, so its re-run names the point.  Then ``compare`` on two more radial
models, both CD(0,1): ``TWO_LOG_MANIFEST``, ``f = 2 * log(1 + r^2)`` at
257 radii, which ``compare``'s quadrature walks in blocks of 32 and its
cross-check in blocks of 256, so the last radius is a block of its own in
both; and ``STEEP_LOG_MANIFEST``, ``f = 200 * log(1 + r^2)``, whose
comparison integrand exp(f(rho) - f(t)) overflows beyond rho = 5.8, so
the quadrature blocks from there on are re-run one radius at a time.
Then ``riccati`` on two more starts of the obstruction ODE, whose CSV
formats each distinct magnitude of a column once: ``RICCATI_SLOPE_MANIFEST``,
``y0p = 0.7``, where the two halves of the trace differ and only |t|
repeats, and ``RICCATI_SIGNED_ZERO_MANIFEST``, ``y0 = -0.0`` and
``y0p = -0.0``, which put signed zeros in the t = 0 row.  That makes 62
runs and 292 files a side.  The
text of each of these manifests is written once into OUT_DIR, so both trees
run the same file.  Each run gets its own subdirectory
``<side>/<subcommand>_<manifest>_<seed>[_<override>...]`` holding the
report files and ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.
The runs are serial and take a few minutes per side, most of it in
``verify-cd`` and ``suite`` on ``sphere_example``.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("curvature", "verify-cd", "threshold", "riccati", "geodesic", "compare",
               "bochner", "suite")
MANIFESTS = ("sphere_example", "twisted_flat", "polar_general", "radial_log")
BLOCK_EDGES = [
    ("sphere_example", ("r_count=3", "fiber_count=3")),
    ("sphere_example", ("r_count=5",)),
    ("twisted_flat", ("r_count=2", "fiber_count=3")),
    ("twisted_flat", ("r_count=11",)),
]
F_L_NAME = "sphere_f_L"
F_L_MANIFEST = """\
[manifold]
name = sphere-f_L
kind = split
dim = 3

[phi]
expr = sin(r)

[f_L]
expr = 0.1 * sin(y1) * cos(y2)

[fiber]
type = sphere
einstein_constant = 0.5

[cd]
lambda = 0.0
N = 1

[geodesic]
start = 0.0, 0.4, 0.2
velocity = 1.0, 0.5, -0.3
T = 2.0

[bochner]
points = 6
"""
EXIT_MANIFEST = """\
[manifold]
name = sphere-exit
kind = split
dim = 3

[phi]
expr = sin(r)

[fiber]
type = sphere
einstein_constant = 0.5

[geodesic]
start = 0.0, 2.0, 0.0
velocity = 0.2, 1.0, 0.3
T = 2.0
"""
EDGE_MANIFEST = """\
[manifold]
name = torus-block-edge
kind = split
dim = 3

[phi]
expr = 0.5 * sin(r)

[f_L]
expr = 0.2 * sin(y1) * cos(y2)

[fiber]
type = torus
periods = 6.283185307179586, 12.566370614359172

[geodesic]
start = 0.0, 0.5, 1.0
velocity = 1.0, 0.7, -0.4
T = 0.256
"""
SINGULAR_MANIFEST = """\
[manifold]
name = plane-degenerating
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = 3 - r

[density]
f = 0

[grid]
r_min = 0.0
r_max = 4.0
r_count = 41
y_min = -2.0
y_max = 2.0
fiber_count = 9

[cd]
lambda = 0
N = inf
"""
OVERFLOW_MANIFEST = """\
[manifold]
name = flat-overflowing-density
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = 1

[density]
X1 = 1e308 * exp(r)
X2 = 0

[geodesic]
start = 0, 0
velocity = 1, 0
T = 1
"""
OVERFLOW_INTEGRAL_MANIFEST = """\
[manifold]
name = flat-overflowing-integral
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = 1

[density]
X1 = 1e308
X2 = 0

[geodesic]
start = 0, 0
velocity = 1, 0
T = 1
"""
SQRT_MANIFEST = """\
[manifold]
name = flat-sqrt-density
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = 1

[density]
f = sqrt(r)

[grid]
r_min = -1
r_max = 3

[cd]
lambda = 0
N = inf
"""
TWISTED_ALL_MANIFEST = """\
[manifold]
name = twisted-all-functions
kind = twisted
dim = 3

[psi]
expr = 0.2*sinh(r/4)*cos(y1) + 0.1*sqrt(2 + y2^2) + 0.05*log(1 + r^2)*exp(-y1^2) + 0.1*(1 + y2^2)^0.3 + 0.05*cosh(y1/3)*(2 + sin(r))^(0.1*y2)

[fiber]
type = euclidean
box = 2.0

[grid]
r_min = -3
r_max = 3
r_count = 21
fiber_count = 5

[cd]
lambda = -3
N = 1

[geodesic]
start = 0, 0.2, -0.1
velocity = 1, 0.3, 0.2
T = 2
"""
COMPLEX_POWER_MANIFEST = """\
[manifold]
name = radial-complex-power
kind = radial_model
dim = 3

[density]
f = (r - 5)^0.5

[cd]
lambda = 0.0
N = 1

[compare]
rho_min = 0.1
rho_max = 10.0
count = 100

[bochner]
points = 10
"""
INDEFINITE_MANIFEST = """\
[manifold]
name = plane-indefinite
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = r - 1

[density]
f = 0

[grid]
r_min = 1.5

[geodesic]
start = 2, 0
velocity = -1, 0
T = 1.5
"""
VECTOR_MANIFEST = """\
[manifold]
name = polar-vector-density
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = r^2

[density]
X1 = 0.3 * r - 0.2 * sin(y1)
X2 = 0.5 * cos(y1) / r

[grid]
r_min = 0.5
r_max = 3.0
r_count = 11
y_min = -1.0
y_max = 1.0
fiber_count = 5

[cd]
lambda = -1
N = inf

[bochner]
points = 6
"""
EXP_EXP_MANIFEST = """\
[manifold]
name = radial-exp-exp
kind = radial_model
dim = 3

[density]
f = exp(exp(r))

[cd]
lambda = 0.0
N = 1
"""
TWO_LOG_MANIFEST = """\
[manifold]
name = radial-two-log
kind = radial_model
dim = 3

[density]
f = 2 * log(1 + r^2)

[cd]
lambda = 0.0
N = 1

[compare]
rho_min = 0.1
rho_max = 10.0
count = 257
"""
STEEP_LOG_MANIFEST = """\
[manifold]
name = radial-steep-log
kind = radial_model
dim = 3

[density]
f = 200 * log(1 + r^2)

[cd]
lambda = 0.0
N = 1
"""
SPHERE5_MANIFEST = """\
[manifold]
name = sphere5-split
kind = split
dim = 5

[phi]
expr = sin(r)

[fiber]
type = sphere
einstein_constant = 0.3

[geodesic]
start = 0.0, 0.4, 0.2, -0.3, 0.1
velocity = 1.0, 0.5, -0.3, 0.2, 0.4
T = 2.0
"""
RICCATI_SLOPE_MANIFEST = """\
[manifold]
name = riccati-slope
kind = split
dim = 3

[phi]
expr = sin(r)

[fiber]
type = sphere
einstein_constant = 0.5

[riccati]
a = 1.0
y0 = 0.0
y0p = 0.7
t_max = 3.0
"""
RICCATI_SIGNED_ZERO_MANIFEST = """\
[manifold]
name = riccati-signed-zero
kind = split
dim = 3

[phi]
expr = sin(r)

[fiber]
type = sphere
einstein_constant = 0.5

[riccati]
a = 1.0
y0 = -0.0
y0p = -0.0
t_max = 3.0
"""
# manifests written into OUT_DIR, by the name their runs use
WRITTEN = {F_L_NAME: F_L_MANIFEST, "sphere_exit": EXIT_MANIFEST,
           "torus_block_edge": EDGE_MANIFEST, "plane_degenerating": SINGULAR_MANIFEST,
           "flat_overflowing_density": OVERFLOW_MANIFEST,
           "flat_overflowing_integral": OVERFLOW_INTEGRAL_MANIFEST,
           "flat_sqrt_density": SQRT_MANIFEST, "twisted_all_functions": TWISTED_ALL_MANIFEST,
           "radial_complex_power": COMPLEX_POWER_MANIFEST,
           "plane_indefinite": INDEFINITE_MANIFEST, "polar_vector_density": VECTOR_MANIFEST,
           "sphere5_split": SPHERE5_MANIFEST, "radial_exp_exp": EXP_EXP_MANIFEST,
           "radial_two_log": TWO_LOG_MANIFEST, "radial_steep_log": STEEP_LOG_MANIFEST,
           "riccati_slope": RICCATI_SLOPE_MANIFEST,
           "riccati_signed_zero": RICCATI_SIGNED_ZERO_MANIFEST}
# (subcommand, manifest, seed, --grid-override values)
RUNS = ([(sub, man, 42, ()) for man in MANIFESTS for sub in SUBCOMMANDS]
        + [("bochner", "sphere_example", 54, ())]
        + [("verify-cd", man, 42, overrides) for man, overrides in BLOCK_EDGES]
        + [(sub, F_L_NAME, 42, ()) for sub in ("curvature", "threshold", "geodesic", "bochner")]
        + [(sub, F_L_NAME, 42, ("r_count=21", "fiber_count=3"))
           for sub in ("verify-cd", "suite")]
        + [("geodesic", "sphere_exit", 42, ()), ("geodesic", "torus_block_edge", 42, ())]
        + [("verify-cd", "plane_degenerating", 42, ()),
           ("geodesic", "flat_overflowing_density", 42, ()),
           ("geodesic", "flat_overflowing_integral", 42, ()),
           ("verify-cd", "flat_sqrt_density", 42, ())]
        + [(sub, "twisted_all_functions", 42, ()) for sub in ("verify-cd", "geodesic")]
        + [("curvature", "radial_complex_power", 42, ()),
           ("geodesic", "plane_indefinite", 42, ())]
        + [(sub, "polar_vector_density", 42, ()) for sub in ("curvature", "verify-cd", "bochner")]
        + [("geodesic", "sphere5_split", 42, ()), ("verify-cd", "radial_exp_exp", 42, ())]
        + [("compare", man, 42, ()) for man in ("radial_two_log", "radial_steep_log")]
        + [("riccati", man, 42, ()) for man in ("riccati_slope", "riccati_signed_zero")])


def write_reports(tree: Path, out: Path, written: Path) -> None:
    """Run every entry of RUNS with the package and manifests of ``tree``;
    the directory ``written`` holds the ``WRITTEN`` manifests."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for sub, man, seed, overrides in RUNS:
        run_dir = out / "_".join((sub, man, str(seed)) + overrides)
        run_dir.mkdir(parents=True)
        manifest = str(written / f"{man}.cdm") if man in WRITTEN else f"manifests/{man}.cdm"
        proc = subprocess.run(
            [sys.executable, "-m", "cdsplit.cli", sub, "--manifest", manifest,
             "--out", str(run_dir), "--seed", str(seed)]
            + [arg for o in overrides for arg in ("--grid-override", o)],
            cwd=tree, env=env, capture_output=True, text=True)
        (run_dir / "stdout.txt").write_text(proc.stdout)
        (run_dir / "stderr.txt").write_text(proc.stderr)
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"{out.name}/{run_dir.name}: exit {proc.returncode}", flush=True)


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """The relative paths of files missing under a or b or differing in
    bytes, and the number of distinct paths compared."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    paths = files[0] | files[1]
    diffs = [p for p in paths if not (p in files[0] and p in files[1])
             or (a / p).read_bytes() != (b / p).read_bytes()]
    return sorted(str(p) for p in diffs), len(paths)


def _read_csv(path: Path):
    """A report CSV's ``#`` header lines, column names and data rows, each
    row a list of its fields as written."""
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return header, body[0] if body else [], body[1:]


def csv_differences(a: Path, b: Path) -> list[str]:
    """How two versions of a report CSV differ, when both exist and have
    the same column names and shape: the differing ``#`` header lines
    (``-`` for a, ``+`` for b), then the count of differing data rows and
    the largest absolute difference of each column that differs (inf where
    a field is not a number on one side, or a NaN on one side only).
    Empty when the files cannot be compared row by row."""
    if not (a.is_file() and b.is_file()):
        return []
    (head_a, cols_a, rows_a), (head_b, cols_b, rows_b) = _read_csv(a), _read_csv(b)
    if (cols_a != cols_b or len(rows_a) != len(rows_b)
            or any(len(row) != len(cols_a) for row in rows_a + rows_b)):
        return []
    out = [f"{sign} {line}" for x, y in zip(head_a, head_b) if x != y
           for sign, line in (("-", x), ("+", y))]
    if len(head_a) != len(head_b):
        out.append(f"{len(head_a)} and {len(head_b)} header lines")
    largest = [0.0] * len(cols_a)
    for x, y in zip(rows_a, rows_b):
        for j, (u, v) in enumerate(zip(x, y)):
            if u != v:
                try:
                    d = abs(float(u) - float(v))
                except ValueError:
                    d = math.inf
                largest[j] = max(largest[j], math.inf if math.isnan(d) else d)
    changed = sum(x != y for x, y in zip(rows_a, rows_b))
    out.append(f"{changed} of {len(rows_a)} rows differ; max |difference|: "
               + (", ".join(f"{c} {d:.3g}" for c, d in zip(cols_a, largest) if d) or "none"))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/report_diff.py BASE OUT_DIR", file=sys.stderr)
        return 2
    base, out = args[0], Path(args[1]).resolve()
    if out.exists() and any(out.iterdir()):
        # stale reports from an earlier run would hide a file a run no longer writes
        print(f"{out} is not empty; give a new directory", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    for name, text in WRITTEN.items():
        (out / f"{name}.cdm").write_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        write_reports(Path(tmp), out / "base", out)
    write_reports(ROOT, out / "change", out)
    diffs, total = differing(out / "base", out / "change")
    for path in diffs:
        print(f"differs: {path}")
        if path.endswith(".csv"):
            for line in csv_differences(out / "base" / path, out / "change" / path):
                print(f"  {line}")
    print(f"{len(diffs)} of {total} files differ between {base} and this checkout")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
