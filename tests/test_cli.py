"""Subcommand dispatch, exit codes, report determinism."""

import math
import re
from pathlib import Path

import pytest

from cdsplit.cli import main, run

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

SPLIT_FAST = """
[manifold]
name = fast-split
kind = split
dim = 3

[phi]
expr = sin(r)

[fiber]
type = sphere
einstein_constant = {lam}

[grid]
r_min = -10
r_max = 10
r_count = 101
fiber_count = 3

[cd]
lambda = 0
N = 1

[geodesic]
start = 0.0, 0.4, 0.2
velocity = 1.0, 0.5, -0.3
T = 2.0

[riccati]
a = 1.0
y0 = 0.0
y0p = 0.0
t_max = 2.0

[bochner]
points = 4
"""


def make_split(tmp_path, lam):
    path = tmp_path / "split.cdm"
    path.write_text(SPLIT_FAST.format(lam=lam))
    return path


THRESHOLD = 0.5 * math.exp(-1.0)


class TestExitCodes:
    def test_verify_cd_pass(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        assert run("verify-cd", man, tmp_path / "out") == 0
        report = (tmp_path / "out" / "cd_report.txt").read_text()
        assert "passed: True" in report

    def test_verify_cd_fail_prints_witness(self, tmp_path, capsys):
        man = make_split(tmp_path, THRESHOLD - 0.01)
        assert run("verify-cd", man, tmp_path / "out") == 1
        report = (tmp_path / "out" / "cd_report.txt").read_text()
        assert "verdict: fail" in report
        assert "witness:" in report
        out = capsys.readouterr().out
        assert "fail" in out

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cdm"
        bad.write_text("[manifold]\nkind split\n")
        assert run("verify-cd", bad, tmp_path / "out") == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run("suite", tmp_path / "nope.cdm", tmp_path / "out") == 2

    def test_unknown_subcommand_exit_2(self, tmp_path):
        man = make_split(tmp_path, 1.0)
        assert run("frobnicate", man, tmp_path / "out") == 2

    def test_threshold_command(self, tmp_path):
        man = make_split(tmp_path, 1.0)
        assert run("threshold", man, tmp_path / "out") == 0
        text = (tmp_path / "out" / "threshold.txt").read_text()
        value = float([l for l in text.splitlines() if l.startswith("threshold:")][0]
                      .split(":")[1])
        assert value == pytest.approx(THRESHOLD, abs=1e-6)

    def test_threshold_wrong_kind_exit_2(self, tmp_path):
        assert run("threshold", MANIFESTS / "radial_log.cdm", tmp_path / "out") == 2

    def test_riccati_blow_up_time(self, tmp_path):
        man = make_split(tmp_path, 1.0)
        assert run("riccati", man, tmp_path / "out") == 0
        text = (tmp_path / "out" / "riccati.txt").read_text()
        t = float([l for l in text.splitlines() if l.startswith("blow_up_time:")][0]
                  .split(":")[1])
        assert t == pytest.approx(1.5708, abs=1e-3)

    def test_geodesic_trace_files(self, tmp_path):
        man = make_split(tmp_path, 1.0)
        assert run("geodesic", man, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "geodesic.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",")[:4] == ["t", "r", "y1", "y2"]
        assert "clairaut" in header and "f_gamma" in header

    def test_compare_radial(self, tmp_path):
        assert run("compare", MANIFESTS / "radial_log.cdm", tmp_path / "out") == 0
        lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "r,lap_f_r,bound,slack,v_integral"
        assert len(data) == 101

    def test_compare_wrong_kind_exit_2(self, tmp_path):
        man = make_split(tmp_path, 1.0)
        assert run("compare", man, tmp_path / "out") == 2

    def test_bochner_command(self, tmp_path):
        man = make_split(tmp_path, 1.0)
        assert run("bochner", man, tmp_path / "out") == 0

    def test_grid_override(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        assert run("verify-cd", man, tmp_path / "out", grid_overrides=["r_count=41"]) == 0
        text = (tmp_path / "out" / "cd_report.txt").read_text()
        assert "x 41" in text

    def test_split_fiber_range_override(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        overrides = ["r_count=11", "fiber_count=3", "y_min=-1", "y_max=1"]
        assert run("verify-cd", man, tmp_path / "out", grid_overrides=overrides) == 0
        lines = (tmp_path / "out" / "cd_samples.csv").read_text().splitlines()
        header, *rows = [l for l in lines if not l.startswith("#")]
        assert header.split(",")[1:3] == ["point_y1", "point_y2"]
        assert len(rows) == 11 * 3 * 3
        for row in rows:
            assert all(-1.0 <= float(y) <= 1.0 for y in row.split(",")[1:3]), row

    def test_bad_override_exit_2(self, tmp_path):
        man = make_split(tmp_path, 1.0)
        assert run("verify-cd", man, tmp_path / "out",
                   grid_overrides=["r_count=a lot"]) == 2
        assert run("verify-cd", man, tmp_path / "out", grid_overrides=["zoom=2"]) == 2


def with_entries(text, section, entries):
    """Manifest text with ``entries`` set in ``[section]``.  Keys are assumed
    unique across the sections of ``text``."""
    for key, value in entries.items():
        line = f"{key} = {value}"
        if re.search(rf"^{key} =", text, flags=re.M):
            text = re.sub(rf"^{key} =.*$", line, text, flags=re.M)
        elif f"[{section}]\n" in text:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        else:
            text += f"\n[{section}]\n{line}\n"
    return text


# (manifest, subcommand, section, entries): each is a usage error, which
# exits 2 whether written in the manifest or given with --grid-override
BAD_NUMBERS = [
    ("split", "verify-cd", "grid", {"r_count": "0"}),
    ("split", "threshold", "grid", {"r_count": "2.7"}),
    ("split", "verify-cd", "grid", {"fiber_count": "0"}),
    ("split", "threshold", "grid", {"r_min": "5", "r_max": "-5"}),
    ("split", "verify-cd", "grid", {"y_min": "1", "y_max": "-1"}),
    ("split", "threshold", "grid", {"r_max": "inf"}),
    ("split", "riccati", "numeric", {"dt": "0"}),
    ("split", "riccati", "numeric", {"dt": "nan"}),
    ("split", "geodesic", "numeric", {"dt": "-1e-3"}),
    ("split", "verify-cd", "numeric", {"fd1": "0"}),
    ("split", "verify-cd", "numeric", {"tol_cd": "-1"}),
    ("split", "geodesic", "geodesic", {"T": "-1"}),
    ("split", "riccati", "riccati", {"a": "-1"}),
    ("split", "riccati", "riccati", {"t_max": "0"}),
    ("split", "bochner", "bochner", {"points": "0"}),
    ("radial_log", "compare", "compare", {"rho_min": "0"}),
    ("radial_log", "compare", "compare", {"rho_min": "5", "rho_max": "1"}),
    ("radial_log", "compare", "compare", {"count": "0"}),
    ("twisted_flat", "verify-cd", "grid", {"y_min": "-5", "y_max": "5"}),
    ("polar_general", "bochner", "grid", {"r_min": "4", "r_max": "6"}),
    # y_min and y_max are set together or not at all
    ("split", "verify-cd", "grid", {"y_min": "-1"}),
    ("twisted_flat", "verify-cd", "grid", {"y_min": "2.5"}),
    ("twisted_flat", "geodesic", "grid", {"y_max": "1"}),
    # expression limits: nesting deeper than MAX_DEPTH, in the text or in a
    # symbolic derivative, and derivatives larger than MAX_DERIVATIVE_NODES
    ("split", "verify-cd", "phi", {"expr": "(" * 1200 + "r" + ")" * 1200}),
    ("split", "verify-cd", "phi", {"expr": "-" * 1200 + "r"}),
    ("split", "verify-cd", "phi", {"expr": "^".join(["r"] * 1200)}),
    ("split", "verify-cd", "phi", {"expr": "+".join(["r"] * 5000)}),
    ("split", "verify-cd", "phi", {"expr": "sin(" * 100 + "r" + ")" * 100}),
    ("twisted_flat", "verify-cd", "psi", {"expr": "*".join(["cos(y1)"] * 40)}),
    ("twisted_flat", "verify-cd", "psi", {"expr": "*".join(["cos(y1)"] * 80)}),
    # a constant part with no real value
    ("split", "verify-cd", "phi", {"expr": "sin(r) + 1/0"}),
    # a sphere fiber of dimension 1
    ("split", "verify-cd", "manifold", {"dim": "2", "start": "0, 0.4", "velocity": "1, 0.5"}),
    ("split", "geodesic", "geodesic", {"velocity": "0, 0, 0"}),
    # a geodesic start outside the chart's domain: the sphere fiber's box is [-3, 3]
    ("split", "geodesic", "geodesic", {"start": "0.0, 5.0, 5.0"}),
    # a metric entry given twice, as g12 and as g21
    ("polar_general", "curvature", "metric", {"g21": "5"}),
]


def _label(value):
    return value if len(value) <= 24 else f"{value[:12]}...({len(value)} chars)"


def _bad_number_cases():
    for source, subcommand, section, entries in BAD_NUMBERS:
        label = f"{source}-{subcommand}-" + "-".join(f"{k}={_label(v)}"
                                                     for k, v in entries.items())
        yield pytest.param(source, subcommand, section, entries, "text", id=label + "-text")
        if section in ("grid", "numeric"):
            yield pytest.param(source, subcommand, section, entries, "override",
                               id=label + "-override")


@pytest.mark.parametrize("source, subcommand, section, entries, form", _bad_number_cases())
def test_bad_number_exit_2(tmp_path, capsys, source, subcommand, section, entries, form):
    if source == "split":
        text = SPLIT_FAST.format(lam=THRESHOLD + 0.01)
    else:
        text = (MANIFESTS / f"{source}.cdm").read_text()
    overrides = []
    if form == "text":
        text = with_entries(text, section, entries)
    else:
        overrides = [f"{k}={v}" for k, v in entries.items()]
    path = tmp_path / "m.cdm"
    path.write_text(text)
    code = run(subcommand, path, tmp_path / "out", grid_overrides=overrides)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestSuite:
    def test_split_suite_pass(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        assert run("suite", man, tmp_path / "out") == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "overall: PASS" in summary
        for check in ("curvature", "verify-cd", "threshold", "rigidity", "riccati",
                      "geodesic", "bochner"):
            assert f"{check}: PASS" in summary

    def test_split_suite_fail_below_threshold(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD - 0.01)
        assert run("suite", man, tmp_path / "out") == 1
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "verify-cd: FAIL" in summary
        assert "overall: FAIL" in summary

    def test_radial_suite(self, tmp_path):
        assert run("suite", MANIFESTS / "radial_log.cdm", tmp_path / "out",
                   grid_overrides=["r_count=41"]) == 0

    @pytest.mark.parametrize("name", ["sphere_example.cdm", "radial_log.cdm",
                                      "twisted_flat.cdm", "polar_general.cdm"])
    def test_shipped_manifests_pass(self, tmp_path, name):
        code = run("suite", MANIFESTS / name, tmp_path / "out",
                   grid_overrides=["r_count=31", "fiber_count=3"])
        assert code == 0
        assert "overall: PASS" in (tmp_path / "out" / "summary.txt").read_text()

    def test_header_metadata(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        run("verify-cd", man, tmp_path / "out", seed=7)
        text = (tmp_path / "out" / "cd_report.txt").read_text()
        assert "manifest sha256:" in text
        assert "seed: 7" in text
        assert "sampled, not proven" in text
        assert "grid:" in text
        assert "tol_cd" in text


class TestDeterminism:
    def test_suite_byte_identical(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("suite", man, a, seed=42, grid_overrides=["r_count=41"]) == 0
        assert run("suite", man, b, seed=42, grid_overrides=["r_count=41"]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_sampled_reports(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        a, b = tmp_path / "a", tmp_path / "b"
        run("bochner", man, a, seed=1)
        run("bochner", man, b, seed=2)
        strip = lambda p: [l for l in (p / "bochner.csv").read_text().splitlines()
                           if not l.startswith("#")]
        assert strip(a) != strip(b)


def test_overflowing_lambda_is_one_error_line(tmp_path, capsys):
    # symmetrizing form - lambda * g overflows to -inf: the block pass and then
    # the point-by-point re-run, which reports numpy's warning as one line,
    # refuse the non-finite eigenproblem with SingularMetric
    path = tmp_path / "m.cdm"
    text = (MANIFESTS / "twisted_flat.cdm").read_text()
    path.write_text(with_entries(text, "cd", {"lambda": "1e308"}))
    assert run("verify-cd", path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == ("warning: RuntimeWarning: overflow encountered in add\n"
                   "error: non-finite generalized eigenproblem\n")


OVERFLOWING_DENSITY = """
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


def test_overflowing_vector_density_is_one_error_line(tmp_path, capsys):
    # X1 overflows to inf from r = 0.587 on: f_gamma is refused there, not
    # written as a column of NaN
    path = tmp_path / "m.cdm"
    path.write_text(OVERFLOWING_DENSITY)
    assert run("geodesic", path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite values in vector field at [0.587 0.   ]\n"
    assert not (tmp_path / "out" / "geodesic.csv").exists()


def test_overflowing_f_gamma_is_one_error_line(tmp_path, capsys):
    # X1 = 1e308 is finite everywhere, but Simpson's rule overflows on it from
    # the first interval on: f_gamma is refused at its first non-finite
    # sample, and numpy's warning is one line that names no source file
    path = tmp_path / "m.cdm"
    path.write_text(OVERFLOWING_DENSITY.replace("1e308 * exp(r)", "1e308"))
    assert run("geodesic", path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == ("warning: RuntimeWarning: overflow encountered in multiply\n"
                   "error: non-finite values in f_gamma at [0.001 0.   ]\n")
    assert ".py:" not in err
    assert not (tmp_path / "out" / "geodesic.csv").exists()


SQRT_DENSITY = """
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
SQRT_ERRORS = {
    "verify-cd": "d/dr(d/dr(sqrt(r))) has no finite real value at r = -1.0, y1 = -3.0 "
                 "(math domain error)",
    "curvature": "d/dr(d/dr(sqrt(r))) has no finite real value at r = -0.6232906084494019, "
                 "y1 = 0.8631907204839875 (math domain error)",
    "bochner": "d/dr(sqrt(r)) has no finite real value at r = -0.8248987054440136, "
               "y1 = 2.6707600809047314 (math domain error)",
}


@pytest.mark.parametrize("subcommand", sorted(SQRT_ERRORS))
def test_expression_without_real_value_is_one_error_line(tmp_path, capsys, subcommand):
    # sqrt(r) has no real value on the half of the grid where r < 0
    path = tmp_path / "m.cdm"
    path.write_text(SQRT_DENSITY)
    assert run(subcommand, path, tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {SQRT_ERRORS[subcommand]}\n"


def test_suite_reports_each_failing_step_once(tmp_path, capsys):
    path = tmp_path / "m.cdm"
    path.write_text(SQRT_DENSITY)
    assert run("suite", path, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.err == "".join(f"{step}: error: {SQRT_ERRORS[step]}\n"
                                   for step in ("curvature", "verify-cd", "bochner"))
    assert captured.out.endswith("suite: FAIL\n")


def test_geodesic_into_a_log_pole_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "m.cdm"
    path.write_text(SQRT_DENSITY.replace("g22 = 1", "g22 = log(r)")
                    .replace("sqrt(r)", "0").replace("r_min = -1", "r_min = 1")
                    + "\n[geodesic]\nstart = 2, 0\nvelocity = -1, 0\n")
    assert run("geodesic", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: log(r) has no finite real value at r = -0.0004999999998907471, y1 = 0.0 "
        "(math domain error)\n")
    assert not (tmp_path / "out" / "geodesic.csv").exists()


def test_overflowing_expression_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "m.cdm"
    path.write_text(SQRT_DENSITY.replace("sqrt(r)", "exp(exp(r))")
                    .replace("r_min = -1", "r_min = 1").replace("r_max = 3", "r_max = 8"))
    assert run("verify-cd", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: d/dr(d/dr(exp(exp(r)))) has no finite real value at r = 6.565, y1 = -3.0 "
        "(math range error)\n")


def test_complex_power_is_one_error_line(tmp_path, capsys):
    # (r - 5)^0.5 is complex where r < 5; its imaginary part was dropped
    # with two ComplexWarning lines, and the run passed
    path = tmp_path / "m.cdm"
    path.write_text((MANIFESTS / "radial_log.cdm").read_text()
                    .replace("f = log(1 + r^2)", "f = (r - 5)^0.5"))
    assert run("curvature", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: d/dr(d/dr((r - 5)^0.5)) has no finite real value at r = 4.444896553545318 "
        "(a negative number to a fractional power is complex)\n")


def test_geodesic_into_a_singular_metric_is_one_error_line(tmp_path, capsys):
    # g22 = (r - 0.5)^2 vanishes at r = 0.5, which the second RK4 stage of
    # the first step reaches exactly (dt and the start are binary fractions):
    # the stage's solve fails there without a floating-point warning, and
    # the stacked solve names the point
    path = tmp_path / "m.cdm"
    path.write_text(SQRT_DENSITY.replace("g22 = 1", "g22 = (r - 0.5)^2")
                    .replace("sqrt(r)", "0")
                    + "\n[numeric]\ndt = 0.0009765625\n"
                    + "\n[geodesic]\nstart = 0.49951171875, 0\nvelocity = 1, 0\nT = 0.01\n")
    assert run("geodesic", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == "error: metric at [0.5 0. ] is not invertible\n"


@pytest.mark.parametrize("subcommand", ["geodesic", "suite"])
def test_velocity_beyond_the_float_range_is_a_usage_error(tmp_path, capsys, subcommand):
    # the length of (1e300, 0, 0) in g overflows to inf, which scaled the
    # velocity to 0 and ended in an overflow warning and a traceback
    path = tmp_path / "m.cdm"
    path.write_text(SPLIT_FAST.format(lam=THRESHOLD + 0.01)
                    .replace("velocity = 1.0, 0.5, -0.3", "velocity = 1e300, 0, 0"))
    assert run(subcommand, path, tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "error: [geodesic] velocity: velocity has a length beyond the float range "
        "in the metric at [0.  0.4 0.2]\n")


def test_geodesic_into_an_indefinite_metric_is_one_error_line(tmp_path, capsys):
    # g22 = r - 1 is negative where r < 1: the speed-drift pass refuses the
    # first such sample, where it reported a pass with drift 0
    path = tmp_path / "m.cdm"
    path.write_text(SQRT_DENSITY.replace("g22 = 1", "g22 = r - 1")
                    .replace("sqrt(r)", "0").replace("r_min = -1", "r_min = 1.5")
                    + "\n[geodesic]\nstart = 2, 0\nvelocity = -1, 0\nT = 1.5\n")
    assert run("geodesic", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == "error: metric at [0.999 0.   ] is not positive definite\n"
    assert not (tmp_path / "out" / "geodesic.csv").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("subcommand", ["bochner", "curvature", "verify-cd", "geodesic"])
def test_seed_outside_u64_is_a_usage_error(tmp_path, capsys, subcommand, seed):
    # the seed feeds np.random.default_rng, which takes a u64: one outside
    # that range is a usage error before any report is written
    assert run(subcommand, MANIFESTS / "twisted_flat.cdm", tmp_path / "out", seed=seed) == 2
    assert capsys.readouterr().err == f"error: --seed {seed} is outside [0, 2**64)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_seed_at_the_ends_of_u64_runs(tmp_path, seed):
    assert run("curvature", MANIFESTS / "twisted_flat.cdm", tmp_path / "out", seed=seed) == 0
    assert f"# seed: {seed}\n" in (tmp_path / "out" / "curvature.csv").read_text()


def test_seed_outside_u64_through_main(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["bochner", "--manifest", str(MANIFESTS / "twisted_flat.cdm"),
              "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == "error: --seed -1 is outside [0, 2**64)\n"


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "path-under-file"])
def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, under_file):
    # an --out that mkdir cannot make a directory is a usage error, and the
    # file in its way is left as it was
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under_file else blocker
    assert run("threshold", MANIFESTS / "sphere_example.cdm", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert blocker.read_text() == "kept\n"
