"""Subcommand dispatch, exit codes, report determinism."""

import dataclasses
import importlib.util
import math
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from cdsplit import chart_core, cli, warped_products
from cdsplit.chart_core import ScalarField
from cdsplit.cli import main, run
from cdsplit.comparison_suite import rigidity_check
from cdsplit.manifest import parse_manifest

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
_TOOL = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parent.parent / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_TOOL)
_TOOL.loader.exec_module(report_diff)

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
    ("split", "geodesic", "numeric", {"dt": "inf"}),
    ("twisted_flat", "verify-cd", "grid", {"fiber_count": "-1"}),
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
        assert run("suite", MANIFESTS / "radial_log.cdm", tmp_path / "out") == 0

    @pytest.mark.parametrize("name", ["sphere_example.cdm", "radial_log.cdm",
                                      "twisted_flat.cdm", "polar_general.cdm"])
    def test_shipped_manifests_pass(self, tmp_path, name):
        # a radial model takes no [grid] key: its grid is the [compare] radii
        overrides = [] if name == "radial_log.cdm" else ["r_count=31", "fiber_count=3"]
        code = run("suite", MANIFESTS / name, tmp_path / "out", grid_overrides=overrides)
        assert code == 0
        assert "overall: PASS" in (tmp_path / "out" / "summary.txt").read_text()

    def test_rigidity_points_lie_inside_y_min_and_y_max(self, tmp_path, monkeypatch):
        # y_min and y_max bound every fiber axis of the sampled points, the
        # rigidity check's among them
        seen = []

        def recorded(split, *args, **kwargs):
            report = rigidity_check(split, *args, **kwargs)
            seen.append(report.points)
            return report

        monkeypatch.setattr(cli, "rigidity_check", recorded)
        overrides = ["r_count=11", "fiber_count=3", "y_min=-0.5", "y_max=0.5"]
        assert run("suite", MANIFESTS / "sphere_example.cdm", tmp_path / "out",
                   grid_overrides=overrides) == 0
        [points] = seen
        assert points.shape == (40, 3)
        assert np.all(np.abs(points[:, 1:]) <= 0.5)
        assert np.all(np.abs(points[:, 0]) <= 10.0)

    def test_radial_header_states_the_radii(self, tmp_path):
        # a [numeric] override applies on a radial model, which takes no [grid] key
        assert run("verify-cd", MANIFESTS / "radial_log.cdm", tmp_path / "out",
                   grid_overrides=["dt=0.01"]) == 0
        text = (tmp_path / "out" / "cd_report.txt").read_text()
        assert "# grid: radial ray, rho in [0.1, 10] x 100\n" in text
        assert "# numeric: dt=0.01 " in text
        assert "\ngrid: radial ray, 100 radii\n" in text

    def test_header_metadata(self, tmp_path):
        man = make_split(tmp_path, THRESHOLD + 0.01)
        run("verify-cd", man, tmp_path / "out", seed=7)
        text = (tmp_path / "out" / "cd_report.txt").read_text()
        assert "manifest sha256:" in text
        assert "seed: 7" in text
        assert "sampled, not proven" in text
        assert "grid:" in text
        assert "\n# numeric: dt=0.001 tol_cd=1e-07 fd=(1e-05,0.0001,0.001)\n" in text


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
    # refuse the non-finite eigenproblem with SingularMetric, naming the
    # first grid point, where it fails first
    path = tmp_path / "m.cdm"
    text = (MANIFESTS / "twisted_flat.cdm").read_text()
    path.write_text(with_entries(text, "cd", {"lambda": "1e308"}))
    assert run("verify-cd", path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == ("warning: RuntimeWarning: overflow encountered in add\n"
                   "error: non-finite generalized eigenproblem at [-5.   -2.88 -2.88]\n")


@pytest.mark.parametrize("subcommand", ["verify-cd", "compare"])
def test_overflowing_density_names_its_eigenproblem_point(tmp_path, capsys, subcommand):
    # f = exp(exp(r)): the df (x) df term of Ric_f^1 overflows first at
    # rho = 5.9, inside a block of the radial grid; the point-by-point re-run
    # names that radius
    path = tmp_path / "m.cdm"
    path.write_text((MANIFESTS / "radial_log.cdm").read_text().replace(
        "f = log(1 + r^2)", "f = exp(exp(r))"))
    assert run(subcommand, path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "warning: RuntimeWarning: overflow encountered in multiply\n"
        "error: non-finite generalized eigenproblem at [5.9 0.  0. ]\n")


def test_overflowing_warp_is_one_error_line(tmp_path, capsys):
    # phi = r^1000 is finite along the trace, but the warp e^{2 phi/(n-1)}
    # leaves the float range, where math.exp would raise OverflowError: the
    # warp is inf there, and the geodesic's checks name the point
    path = tmp_path / "m.cdm"
    path.write_text((MANIFESTS / "sphere_example.cdm").read_text().replace(
        "expr = sin(r)", "expr = r^1000"))
    assert run("geodesic", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: Christoffel symbols at [ 1.55451769  0.91032599 -0.13691391]\n")


def test_overflowing_fourth_power_is_one_error_line(tmp_path, capsys):
    # the warp e^phi of phi = 354 + sin(r) is finite, but the conserved
    # quantity's e^{phi/2} ** 4, where Python's power would raise
    # OverflowError, leaves the float range where sin r > 0.89: it is inf
    # there, and the conserved quantity's check names the first such sample
    path = tmp_path / "m.cdm"
    path.write_text((MANIFESTS / "sphere_example.cdm").read_text().replace(
        "expr = sin(r)", "expr = 354 + sin(r)"))
    assert run("geodesic", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: non-finite values in conserved quantity at [1.10082071 0.4        0.2       ]\n")


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


@pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
def test_metric_entry_near_the_float_limit_is_one_metric_error_line(tmp_path, capsys,
                                                                    subcommand):
    # g12 = 1e308: the symmetrized metric overflowed to inf with a warning,
    # its eigenvalue NaN passed the positivity test, and the error blamed
    # the geodesic velocity
    path = tmp_path / "m.cdm"
    path.write_text((MANIFESTS / "polar_general.cdm").read_text()
                    .replace("g12 = 0", "g12 = 1e308"))
    assert run(subcommand, path, tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "error: [metric]: metric is not positive definite at the grid center [2.75 0.  ]\n")
    assert not (tmp_path / "out").exists()


def test_threshold_far_out_on_r_ends_within_its_budget(tmp_path):
    # above |r| ~ 1e6 the floats are spaced wider than the golden section's
    # width of 1e-10, which its bracket never reached: the run did not end
    def overrun(signum, frame):
        raise TimeoutError("threshold ran past its 20 s budget")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(20)
    try:
        code = run("threshold", MANIFESTS / "sphere_example.cdm", tmp_path / "out",
                   grid_overrides=["r_min=1e7", "r_max=2e7", "r_count=11"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    report = (tmp_path / "out" / "threshold.txt").read_text()
    r_at = float(next(line for line in report.splitlines()
                      if line.startswith("attained at r = ")).rpartition(" ")[2])
    assert 1e7 <= r_at <= 2e7


def test_threshold_objective_overflow_is_one_error_line(tmp_path, capsys):
    # phi'' e^{2 phi / (n - 1)} overflows past r = 1.88: a Python float
    # product turns inf without numpy's warning line, and the finite check
    # names the radius
    path = tmp_path / "m.cdm"
    path.write_text(SPLIT_FAST.format(lam=0.5).replace("expr = sin(r)", "expr = exp(exp(r))")
                    .replace("r_min = -10", "r_min = 0.5").replace("r_max = 10", "r_max = 2.5")
                    .replace("r_count = 101", "r_count = 201"))
    assert run("threshold", path, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: threshold objective non-finite at r = 1.8800000000000001\n"


def _sqrt_phi(start):
    """The shipped sphere manifest with phi = (r - 1)^0.5 on r in [0.5, 2.5],
    which has no real value below r = 1, and the geodesic ``start``."""
    return (_shipped("sphere_example").replace("expr = sin(r)", "expr = (r - 1)^0.5")
            .replace("r_min = -10", "r_min = 0.5").replace("r_max = 10", "r_max = 2.5")
            .replace("start = 0.0, 0.4, 0.2", f"start = {start}"))


def test_threshold_objective_with_no_real_value_is_one_error_line(tmp_path, capsys):
    # phi's point form takes its power on Python floats, so r = 0.5 raises
    # the expression's own error, not numpy's NaN and warning line
    path = tmp_path / "m.cdm"
    path.write_text(_sqrt_phi("1.5, 0.4, 0.2"))
    assert run("threshold", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: d/dr(d/dr((r - 1)^0.5)) has no finite real value at r = 0.5, y1 = 0.0, "
        "y2 = 0.0 (a negative number to a fractional power is complex)\n")


def test_threshold_objective_division_by_zero_is_one_error_line(tmp_path, capsys):
    # a point form divides Python floats, so phi = 1 / (r - 1) at r = 1
    # raises the expression's own error, not numpy's warning lines
    path = tmp_path / "m.cdm"
    path.write_text(_shipped("sphere_example").replace("expr = sin(r)", "expr = 1 / (r - 1)")
                    .replace("r_min = -10", "r_min = 0.5").replace("r_max = 10", "r_max = 2.5")
                    .replace("start = 0.0, 0.4, 0.2", "start = 1.5, 0.4, 0.2"))
    assert run("threshold", path, tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "error: d/dr(d/dr(1 / (r - 1))) has no finite real value at r = 1.0, y1 = 0.0, "
        "y2 = 0.0 (float division by zero)\n")


def _manifest_path(tmp_path, name):
    """A shipped manifest, or the split space with a fiber density that
    ``tools/report_diff.py`` runs (``F_L_MANIFEST``)."""
    if name != "sphere_f_L":
        return MANIFESTS / f"{name}.cdm"
    path = tmp_path / f"{name}.cdm"
    path.write_text(report_diff.F_L_MANIFEST)
    return path


def _reports(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _runs_without_per_row_evaluation(tmp_path, monkeypatch, capsys, subcommand, name):
    """Run ``subcommand`` on ``name`` with ``chart_core._each_row`` patched to
    raise, and check its exit code, reports and output against a run
    without the patch."""
    path = _manifest_path(tmp_path, name)
    code = run(subcommand, path, tmp_path / "plain")
    output = capsys.readouterr()

    def per_row(fn, pts):
        raise AssertionError(f"per-row evaluation of {fn!r} at {len(pts)} rows")

    monkeypatch.setattr(chart_core, "_each_row", per_row)
    assert run(subcommand, path, tmp_path / "out") == code
    assert capsys.readouterr() == output
    assert _reports(tmp_path / "out") == _reports(tmp_path / "plain")


SHIPPED_AND_F_L = ["sphere_example", "twisted_flat", "polar_general", "radial_log",
                   "sphere_f_L"]


@pytest.mark.parametrize("name", SHIPPED_AND_F_L)
def test_geodesic_takes_no_per_row_field_evaluation(tmp_path, monkeypatch, capsys, name):
    # every field the geodesic passes evaluate on a shipped manifest has a
    # block form: the metric, the density gradient, phi for the warp
    _runs_without_per_row_evaluation(tmp_path, monkeypatch, capsys, "geodesic", name)


@pytest.mark.parametrize("subcommand", ["verify-cd", "suite"])
@pytest.mark.parametrize("name", SHIPPED_AND_F_L)
def test_grid_runs_take_no_per_row_field_evaluation(tmp_path, monkeypatch, capsys,
                                                    subcommand, name):
    # the grid, the rigidity check and the comparison radii take every field
    # through a block form too: a split density with f_L, the r coordinate,
    # a radial model's density and distance function
    _runs_without_per_row_evaluation(tmp_path, monkeypatch, capsys, subcommand, name)


@pytest.mark.parametrize("subcommand", ["curvature", "bochner"])
@pytest.mark.parametrize("name", ["sphere_example", "twisted_flat", "polar_general",
                                  "radial_log"])
def test_sampled_reports_take_no_per_point_geometry(tmp_path, monkeypatch, subcommand, name):
    # curvature and bochner walk their points in blocks (in_blocks), and
    # build no geometry at one point on its own
    def per_point(spec, p):
        raise AssertionError(f"a geometry at the one point {p}")

    monkeypatch.setattr(chart_core.BlockGeometry, "at", per_point)
    assert run(subcommand, MANIFESTS / f"{name}.cdm", tmp_path / "out") == 0


@pytest.mark.parametrize("name", ["sphere_example", "twisted_flat", "polar_general",
                                  "radial_log"])
def test_bochner_takes_no_per_row_random_field_call(tmp_path, monkeypatch, capsys, name):
    # each point's random cubic field takes its group of stencil rows in one
    # call of its block form: the point forms of its value, gradient and
    # Hessian are never called, and the run's code, output and report are
    # those of a run without the counting
    path = MANIFESTS / f"{name}.cdm"
    code = run("bochner", path, tmp_path / "plain")
    output = capsys.readouterr()
    draw = cli._random_cubic_field
    point_calls, block_calls = [], []

    def counted(form, label):
        def point(p):
            point_calls.append(label)
            return form(p)

        def rows(P):
            block_calls.append(label)
            return form.rows(P)

        if hasattr(form, "rows"):
            point.rows = rows
        return point

    def wrapped(rng, dim):
        h = draw(rng, dim)
        return ScalarField(value=counted(h.value, "value"), grad=counted(h.grad, "grad"),
                           hess=counted(h.hess, "hess"))

    monkeypatch.setattr(cli, "_random_cubic_field", wrapped)
    assert run("bochner", path, tmp_path / "out") == code == 0
    assert capsys.readouterr() == output
    assert _reports(tmp_path / "out") == _reports(tmp_path / "plain")
    assert point_calls == []
    # per point: the gradient at the rows of |grad h|^2's stencil, of
    # Lap_f h's and at the point, the Hessian at the last two
    points = parse_manifest(path).extras["bochner"]["points"]
    assert sorted(block_calls) == ["grad"] * 3 * points + ["hess"] * 2 * points


def test_stacked_warp_takes_each_distinct_psi_once(tmp_path, monkeypatch, capsys):
    # on the sphere grid most stacked rows repeat a value of psi = phi(r):
    # each stacked jet call of the product chart takes the warp's _exp at
    # most once per distinct psi, by bit pattern, and the run's exit code,
    # output and reports are those of a run without the counting
    path = MANIFESTS / "sphere_example.cdm"
    code = run("verify-cd", path, tmp_path / "plain")
    output = capsys.readouterr()
    calls = []  # per stacked jet call: (rows, the bits of psi there, _exp's arguments)
    current = {}
    make_spec, field_rows, exp = (warped_products._product_metric_spec,
                                  warped_products.field_rows, warped_products._exp)

    def product_metric_spec(*args):
        spec = make_spec(*args)

        def jet(P, order):
            if len(P) == 1:
                return spec.jet(P, order)
            current.update(psi=None, args=[])
            try:
                return spec.jet(P, order)
            finally:
                calls.append((len(P), current["psi"], current.pop("args")))

        return dataclasses.replace(spec, jet=jet)

    def rows(fn, P):
        out = field_rows(fn, P)
        if "args" in current and out.ndim == 1:  # psi's values
            current["psi"] = set(out.view(np.int64).tolist())
        return out

    def counted(x):
        if "args" in current:
            current["args"].append(x)
        return exp(x)

    monkeypatch.setattr(warped_products, "_product_metric_spec", product_metric_spec)
    monkeypatch.setattr(warped_products, "field_rows", rows)
    monkeypatch.setattr(warped_products, "_exp", counted)
    assert run("verify-cd", path, tmp_path / "out") == code
    assert capsys.readouterr() == output
    assert _reports(tmp_path / "out") == _reports(tmp_path / "plain")
    assert calls and all(len(args) <= len(psi) for _, psi, args in calls)
    # the 16,281 grid points and their 6 Ricci stencil rows each are
    # 113,967 rows in all, whose psi = sin(r) takes 1,056 distinct values
    # over the 128 stacked calls
    total = sum(k for k, _, _ in calls)
    assert total == 16_281 * 7 and sum(len(args) for _, _, args in calls) < total / 100


def test_formatted_sample_lines_write_the_float_call_bytes(tmp_path):
    # cd_samples.csv formats each distinct grid coordinate once and writes
    # the lines as text: the bytes write_csv writes for the float rows
    rep = cli.Reporter(parse_manifest(MANIFESTS / "sphere_example.cdm"), tmp_path, 42)
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, 1e308, -1.0 / 3.0, math.inf, -math.inf, math.nan]
    points = np.column_stack([rng.permutation(np.repeat(special, 3)),
                              np.repeat([2.5, -2.5, 1e-17], 8)])
    values = rng.standard_normal(24)
    columns = ["a", "b", "c"]
    rep.write_csv("float.csv", columns, np.column_stack((points, values)).tolist())
    rep.write_text("text.csv", cli._csv_lines(columns, points, values))
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()
    # mirrored columns, as riccati.csv's: each value beside its negation,
    # so a column holds both signs of each magnitude; -nan is written nan
    mirrored = [-math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e308, -1.0 / 3.0, 2.5]
    x = rng.permutation(np.repeat(mirrored, 3))
    assert np.signbit(x[np.isnan(x)]).all()
    points = np.column_stack([x, -x, rng.permutation(-x)])
    rep.write_csv("float.csv", columns, points.tolist())
    rep.write_text("text.csv", cli._csv_lines(columns, points))
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()
    assert "-nan" not in (tmp_path / "text.csv").read_text()


@pytest.mark.parametrize("y0, y0p", [("0.0", "0.0"), ("0.0", "0.7"), ("-0.0", "-0.0")])
def test_riccati_csv_is_the_float_call_bytes(tmp_path, y0, y0p):
    # riccati.csv formats each distinct magnitude of t, y and y' once: the
    # bytes write_csv writes for the float rows of the same integration, at
    # a symmetric start, one whose two halves differ, and signed zeros
    path = tmp_path / "m.cdm"
    path.write_text(_shipped("sphere_example").replace("y0 = 0.0", f"y0 = {y0}")
                    .replace("y0p = 0.0", f"y0p = {y0p}"))
    m = parse_manifest(path)
    assert (m.extras["riccati"]["y0"], m.extras["riccati"]["y0p"]) == (float(y0), float(y0p))
    assert run("riccati", path, tmp_path / "out") == 0
    params = m.extras["riccati"]
    out = warped_products.riccati_obstruction(params["a"], params["y0"], params["y0p"],
                                              params["t_max"], dt=m.numeric["dt"])
    rep = cli.Reporter(m, tmp_path / "float", 42)
    rep.write_csv("riccati.csv", ["t", "y", "yp"],
                  np.column_stack((out.ts, out.ys, out.yps)).tolist())
    assert ((tmp_path / "out" / "riccati.csv").read_bytes()
            == (tmp_path / "float" / "riccati.csv").read_bytes())


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


INDEFINITE_START = """
[manifold]
name = indefinite-start
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = r

[density]
f = 0

[grid]
r_min = 0.5
r_max = 5

[geodesic]
start = -1, 0
velocity = {velocity}
"""


def _without(section, text):
    return re.sub(rf"^\[{section}\]\n(?:[^\[\n].*\n)*", "", text, flags=re.M)


def _case(case_id, subcommand, text, needle, **kwargs):
    """One usage error: the subcommand, the manifest text, a part of the
    stderr line, and the other arguments of ``run``."""
    return pytest.param(subcommand, text, needle, kwargs, id=case_id)


def _shipped(name):
    return (MANIFESTS / f"{name}.cdm").read_text()


# a shipped manifest of each kind, and the sections each kind refuses and
# requires (the README's kind x section table)
KIND_MANIFESTS = {"general": "polar_general", "split": "sphere_example",
                  "twisted": "twisted_flat", "radial_model": "radial_log"}
REFUSED = {
    "general": ("phi", "psi", "f_L", "fiber", "compare"),
    "split": ("psi", "metric", "density", "compare"),
    "twisted": ("phi", "f_L", "metric", "compare"),
    "radial_model": ("phi", "psi", "f_L", "fiber", "metric", "grid"),
}
REQUIRED = {
    "general": ("metric", "density"),
    "split": ("phi", "fiber"),
    "twisted": ("psi", "fiber"),
    "radial_model": ("density",),
}
# one entry of each section that some kind refuses
SECTION_ENTRY = {"phi": "expr = r", "psi": "expr = r", "f_L": "expr = 0",
                 "fiber": "type = euclidean", "metric": "g11 = 1", "density": "f = 0",
                 "grid": "r_min = 1", "compare": "rho_min = 0.5"}


def _section_errors():
    """A section each kind refuses, with an entry and empty, and each section
    it requires, left out; riccati runs on every kind and reads none of these
    sections, so only parse_manifest can refuse them."""
    for kind, name in KIND_MANIFESTS.items():
        text = _shipped(name)
        for section in REFUSED[kind]:
            refusal = f"kind {kind!r} does not accept section [{section}]"
            entry = SECTION_ENTRY[section]
            yield _case(f"{kind}-{section}", "riccati", f"{text}\n[{section}]\n{entry}\n",
                        f"error: [{section}] {entry.split()[0]}: {refusal}\n")
            yield _case(f"{kind}-empty-{section}", "riccati", f"{text}\n[{section}]\n",
                        f"error: [{section}]: {refusal}\n")
        for section in REQUIRED[kind]:
            yield _case(f"{kind}-without-{section}", "riccati", _without(section, text),
                        f"error: [{section}]: kind {kind!r} requires section [{section}]\n")


def _usage_errors():
    overflowing = SPLIT_FAST.format(lam=1.0).replace("velocity = 1.0, 0.5, -0.3",
                                                     "velocity = 1e300, 0, 0")
    origin = _shipped("radial_log") + "\n[geodesic]\nstart = 0, 0, 0\nvelocity = 1, 0, 0\n"
    yield _case("unknown-subcommand", "frobnicate", _shipped("sphere_example"),
                "unknown subcommand 'frobnicate'")
    yield _case("threshold-on-radial", "threshold", _shipped("radial_log"),
                "threshold applies to split manifests only")
    yield _case("compare-on-split", "compare", _shipped("sphere_example"),
                "compare applies to radial_model manifests only")
    yield _case("verify-cd-without-cd", "verify-cd", _without("cd", _shipped("twisted_flat")),
                "verify-cd needs a [cd] block")
    yield _case("seed", "curvature", _shipped("twisted_flat"), "--seed -1", seed=-1)
    yield _case("out-under-file", "threshold", _shipped("sphere_example"), "taken",
                out="taken/sub")
    yield _case("parse-error", "verify-cd", "[manifold]\nkind split\n", "cannot parse line")
    # a constant beyond the float range, folded or a literal, is refused
    # naming its key, as one with no real value (exp(1000)) is
    beyond = "the number 1e400 is beyond the float range"
    for case_id, phi, refusal in (
            ("folded", "sin(r) + 1e308 * 10", "a constant part has no finite value (inf)"),
            ("literal", "sin(r) + 1e400", beyond),
            ("literal-times-0", "sin(r) + 1e400 * 0", beyond)):
        yield _case(f"constant-beyond-the-float-range-{case_id}", "riccati",
                    _shipped("sphere_example").replace("expr = sin(r)", f"expr = {phi}"),
                    f"error: [phi] expr: {refusal}\n")
    # a parse error in an expression names its key, at its line and column
    for case_id, phi, refusal in (
            ("unknown-name", "sin(r) + foo",
             "unknown name 'foo' (variables: ['r']) (line 10, column 17)"),
            ("bad-character", "sin(r) @ 2",
             "unexpected character '@' in expression (line 10, column 15)"),
            ("trailing-operator", "sin(r) +", "unexpected end of expression (line 10, column 16)")):
        yield _case(f"expression-parse-error-{case_id}", "riccati",
                    _shipped("sphere_example").replace("expr = sin(r)", f"expr = {phi}"),
                    f"error: [phi] expr: {refusal}\n")
    yield _case("bad-override", "verify-cd", _shipped("sphere_example"),
                "error: zoom=2: an override sets a [grid] key or [numeric] dt, not 'zoom'",
                grid_overrides=["zoom=2"])
    for subcommand in ("geodesic", "suite"):
        yield _case(f"overflowing-velocity-{subcommand}", subcommand, overflowing,
                    "[geodesic] velocity: velocity has a length beyond the float range")
        yield _case(f"indefinite-start-{subcommand}", subcommand,
                    INDEFINITE_START.format(velocity="1, 0"),
                    "[geodesic] start: metric is not positive definite at [-1.  0.]")
    yield _case("indefinite-start-across", "geodesic", INDEFINITE_START.format(velocity="0, 1"),
                "[geodesic] start: metric is not positive definite at [-1.  0.]")
    yield _case("start-where-the-metric-has-no-value", "geodesic",
                INDEFINITE_START.format(velocity="1, 0").replace("g22 = r", "g22 = log(r)"),
                "[geodesic] start: log(r) has no finite real value at r = -1.0")
    for subcommand in ("bochner", "suite"):
        yield _case(f"empty-bochner-range-{subcommand}", subcommand, _shipped("sphere_example"),
                    "[grid] r_min: the sampled range is empty", grid_overrides=["r_min=4"])
    yield _case("radial-start-at-origin", "geodesic", origin, "[geodesic] start: is the origin")
    for subcommand in ("curvature", "verify-cd", "bochner"):
        yield _case(f"start-where-phi-has-no-real-value-{subcommand}", subcommand,
                    _sqrt_phi("0.0, 0.4, 0.2"),
                    "error: [geodesic] start: (r - 1)^0.5 has no finite real value at r = 0.0")
    # a radial model's grid is its [compare] radii, so a [grid] key is refused,
    # in the file or as an override, beside a [numeric] override or not
    yield _case("radial-grid-key", "verify-cd", _shipped("radial_log") + "\n[grid]\nr_min = 3\n",
                "error: [grid] r_min: kind 'radial_model' does not accept section [grid]")
    yield _case("radial-grid-override", "verify-cd", _shipped("radial_log"),
                "error: [grid] r_count: kind 'radial_model' does not accept section [grid]",
                grid_overrides=["r_count=5", "r_min=3", "dt=0.01"])
    # a dim above MAX_DIM, whose stencils could not be held in memory,
    # refused before any key that depends on dim is read
    for subcommand, dim in (("curvature", "13"), ("verify-cd", "100"), ("suite", "1e18")):
        yield _case(f"dim-{dim}-{subcommand}", subcommand,
                    _shipped("radial_log").replace("dim = 3", f"dim = {dim}"),
                    f"error: [manifold] dim: must be <= 12, got '{dim}'")
    # sizes above MAX_POINTS, decided from the manifest's numbers alone
    yield _case("oversized-grid", "verify-cd", _shipped("twisted_flat"),
                "error: [grid] r_count: the verify-cd grid's r_count x fiber_count^2 = "
                "1000000000000000000 x 5^2 points are more than MAX_POINTS = 1000000",
                grid_overrides=["r_count=1000000000000000000"])
    for subcommand in ("geodesic", "riccati"):
        yield _case(f"tiny-dt-{subcommand}", subcommand, _shipped("sphere_example"),
                    "error: [numeric] dt: the geodesic's T / dt = 10 / 1e-300 samples are more "
                    "than MAX_POINTS = 1000000", grid_overrides=["dt=1e-300"])
    yield _case("long-riccati", "riccati",
                SPLIT_FAST.format(lam=1.0).replace("t_max = 2.0", "t_max = 1e4"),
                "error: [numeric] dt: riccati's t_max / dt = 10000 / 0.001 steps are more "
                "than MAX_POINTS = 1000000")
    # the finite-difference steps and the CD tolerance are constants, not keys
    yield _case("deleted-numeric-key", "verify-cd",
                _shipped("sphere_example") + "\n[numeric]\nfd1 = 2e-5\n",
                "error: [numeric] fd1: unknown key")
    yield _case("deleted-numeric-override", "verify-cd", _shipped("sphere_example"),
                "error: tol_cd=1e-6: an override sets a [grid] key or [numeric] dt, "
                "not 'tol_cd'",
                grid_overrides=["tol_cd=1e-6"])
    # a fiber key its type never reads, and [compare] off radial models
    yield _case("sphere-fiber-periods", "threshold",
                _shipped("sphere_example").replace("[fiber]\n", "[fiber]\nperiods = 1, 2\n"),
                "error: [fiber] periods: sphere fibers take no periods")
    yield _case("torus-fiber-einstein-constant", "verify-cd",
                _shipped("twisted_flat").replace(
                    "type = euclidean\n", "type = torus\nperiods = 6.283185307179586, "
                    "6.283185307179586\neinstein_constant = 5\n"),
                "error: [fiber] einstein_constant: torus fibers take no einstein_constant")
    yield _case("compare-section-on-split", "threshold",
                _shipped("sphere_example") + "\n[compare]\nrho_min = 0.5\ncount = 7\n",
                "error: [compare] rho_min: kind 'split' does not accept section [compare]")
    # a range no float grid spans: its width overflows (rho_min > 0 keeps
    # [compare] inside the float range)
    for subcommand in ("threshold", "verify-cd"):
        yield _case(f"r-range-beyond-the-float-range-{subcommand}", subcommand,
                    _shipped("sphere_example"),
                    "error: [grid] r_min: r_max - r_min is beyond the float range",
                    grid_overrides=["r_min=-1e308", "r_max=1e308"])
    yield _case("y-range-beyond-the-float-range", "verify-cd", _shipped("sphere_example"),
                "error: [grid] y_min: y_max - y_min is beyond the float range",
                grid_overrides=["y_min=-1e308", "y_max=1e308"])
    # nor does the fiber's safe box [-box, box] of a width beyond it
    for subcommand in ("curvature", "verify-cd", "bochner", "suite"):
        yield _case(f"box-beyond-the-float-range-{subcommand}", subcommand,
                    _shipped("twisted_flat").replace("box = 3.0", "box = 1e308"),
                    "error: [fiber] box: the box's width 2 * box is beyond the float range")
    # a sphere fiber whose chart scalars (R^2 + |y|^2)^3 leave the float range
    # on its safe box: at the corners, or at y = 0, by overflow or underflow
    for case_id, subcommand, fiber, refusal in (
            ("box", "curvature", "einstein_constant = 0.19394\nbox = 1e60",
             "error: [fiber] box: the sphere chart's (R^2 + |y|^2)^3 overflows at the corners "
             "of the safe box, |y|^2 = 2 box^2\n"),
            ("small-einstein-constant", "geodesic", "einstein_constant = 1e-104",
             "error: [fiber] einstein_constant: R^2 = (dim - 1) / einstein_constant = 1e+104: "
             "the sphere chart's (R^2 + |y|^2)^3 leaves the float range at y = 0\n"),
            ("large-einstein-constant", "bochner", "einstein_constant = 1e150",
             "error: [fiber] einstein_constant: R^2 = (dim - 1) / einstein_constant = 1e-150: "
             "the sphere chart's (R^2 + |y|^2)^3 leaves the float range at y = 0\n")):
        yield _case(f"sphere-chart-beyond-the-float-range-{case_id}", subcommand,
                    _shipped("sphere_example").replace("einstein_constant = 0.19394", fiber),
                    refusal)
    # |x|^2 of the grid center 5e307 * e_1 overflows: a refusal, not a warning
    for subcommand in ("curvature", "compare"):
        yield _case(f"grid-center-norm-overflows-{subcommand}", subcommand,
                    _shipped("radial_log").replace("rho_max = 10.0", "rho_max = 1e308"),
                    "error: [manifold]: trial evaluation at grid center failed: "
                    "overflow encountered in vecdot")
    yield _case("euclidean-fiber-periods", "riccati",
                _shipped("twisted_flat").replace("type = euclidean\n",
                                                 "type = euclidean\nperiods = 1, 1\n"),
                "error: [fiber] periods: euclidean fibers take no periods")
    yield from _section_errors()


@pytest.mark.parametrize("subcommand, text, needle, kwargs", _usage_errors())
def test_every_usage_error_is_one_line_before_any_report(tmp_path, capsys, subcommand,
                                                         text, needle, kwargs):
    # every exit 2 is decided before the report directory is made: one
    # error: line on stderr, nothing on stdout, and no --out left behind
    (tmp_path / "taken").write_text("kept\n")
    path = tmp_path / "m.cdm"
    path.write_text(text)
    out = tmp_path / kwargs.pop("out", "out")
    assert run(subcommand, path, out, **kwargs) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*\n", captured.err), captured.err
    assert needle in captured.err
    assert not out.exists()
