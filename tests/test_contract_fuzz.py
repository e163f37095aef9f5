"""The exit-code contract under mutated manifests: exit 0, 1 or 2, and never
a traceback, for every input.

Each example takes one of the four shipped manifests and one subcommand,
and sets one or two of the manifest's keys to a token of ``POOL``, or its
``[manifold] dim`` to one of ``DIMS``.  It runs through ``cli.run`` in this
process, with the ``OVERRIDES`` ``r_count=11``, ``fiber_count=3`` and
``dt=0.01`` (each left out where the example sets its key, and on a radial
model all but ``dt``), under a wall budget of ``BUDGET_S`` = 20 s and an
address-space budget of ``BUDGET_AS`` = 3 GB.  It checks that:

- the run ends within its budgets, with exit 0, 1 or 2;
- an exit 2 prints one ``error:`` line on stderr, with no ``warning:``
  line, nothing on stdout, and makes no ``--out``;
- an ``error:`` line of an eigenproblem that is not finite names its point
  (``Error messages name their point``);
- a second run of the same example writes byte-identical reports, with the
  same stdout, stderr and exit code.

The pool, the dims and the budgets may grow, never shrink:

- ``POOL``: ``1e308``, ``-1e308``, ``nan``, ``inf``, ``1/0``, ``log(0)``,
  ``sqrt(r - 100)``, ``r^1000``, ``exp(exp(r))``, an empty value,
  malformed text (``1.2.3``, ``(r``, ``r +``, ``2, 3``) and plain numbers
  (``0``, ``-1``, ``0.5``, ``2``, ``1e7``, ``-1e7``);
- ``DIMS``: ``13``, ``64``, ``100``, ``1e18`` and ``1e308``, above
  ``MAX_DIM``, whose Ricci stencils, (2n + 1) n^3 partials a point, could
  not be held in memory.

The second strategy of the contract, valid manifests of every kind built
from the manifest sections table, is not here yet.
"""

import contextlib
import io
import re
import resource
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from cdsplit.cli import run

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
SHIPPED = ("sphere_example", "twisted_flat", "polar_general", "radial_log")
SUBCOMMANDS = ("curvature", "verify-cd", "threshold", "riccati", "geodesic", "compare",
               "bochner", "suite")
POOL = ("1e308", "-1e308", "nan", "inf", "1/0", "log(0)", "sqrt(r - 100)", "r^1000",
        "exp(exp(r))", "", "1.2.3", "(r", "r +", "2, 3", "0", "-1", "0.5", "2", "1e7", "-1e7")
DIMS = ("13", "64", "100", "1e18", "1e308")
OVERRIDES = {"r_count": "11", "fiber_count": "3", "dt": "0.01"}
BUDGET_S = 20
BUDGET_AS = 3 * 2 ** 30
KEY_RE = re.compile(r"^(\w+) =", flags=re.M)


def _text(name):
    return (MANIFESTS / f"{name}.cdm").read_text()


@st.composite
def cases(draw):
    """(manifest, subcommand, ((key, value), ...)): one or two of the
    manifest's keys set to a token of the pool, or its dim to one of DIMS."""
    name = draw(st.sampled_from(SHIPPED))
    subcommand = draw(st.sampled_from(SUBCOMMANDS))
    if draw(st.integers(0, 5)) == 0:
        return name, subcommand, (("dim", draw(st.sampled_from(DIMS))),)
    keys = draw(st.permutations(KEY_RE.findall(_text(name))))[:draw(st.integers(1, 2))]
    return name, subcommand, tuple((key, draw(st.sampled_from(POOL))) for key in keys)


def _mutated(name, entries):
    text = _text(name)
    for key, value in entries:
        text = re.sub(rf"^{key} =.*$", f"{key} = {value}", text, count=1, flags=re.M)
    return text


def _overrides(name, entries):
    set_keys = {key for key, _ in entries}
    return [f"{key}={value}" for key, value in OVERRIDES.items()
            if key not in set_keys and (name != "radial_log" or key == "dt")]


@contextlib.contextmanager
def _budgets():
    """A wall budget of BUDGET_S, by SIGALRM, and an address-space budget of
    BUDGET_AS on this process, both lifted on leaving."""
    def overrun(signum, frame):
        raise TimeoutError(f"the run took more than its {BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, overrun)
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = BUDGET_AS if limits[1] == resource.RLIM_INFINITY else min(BUDGET_AS, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    signal.alarm(BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        resource.setrlimit(resource.RLIMIT_AS, limits)
        signal.signal(signal.SIGALRM, previous)


def _run_once(path, out, subcommand, overrides):
    """The exit code, stdout and stderr of one run, within the budgets."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with _budgets(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(subcommand, path, out, grid_overrides=overrides)
    return code, stdout.getvalue(), stderr.getvalue()


def _reports(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=cases())
# a dim far above MAX_DIM: its curvature stencils alone would be
# 9 x 201 x 100^3 doubles, about 14.5 GB
@example(case=("radial_log", "curvature", (("dim", "100"),)))
@example(case=("sphere_example", "verify-cd", (("dim", "64"),)))
# the df (x) df term of Ric_f^1 overflows first at rho = 5.9, inside a block
@example(case=("radial_log", "verify-cd", (("f", "exp(exp(r))"),)))
@example(case=("radial_log", "compare", (("f", "exp(exp(r))"),)))
# phi = r^1000 is finite along the geodesic, but its warp overflows
@example(case=("sphere_example", "geodesic", (("expr", "r^1000"),)))
# the fiber's safe box [-1e308, 1e308] is wider than the float range
@example(case=("twisted_flat", "curvature", (("box", "1e308"),)))
# the warp e^phi of phi = 400 + sin(r) is finite, but the conserved
# quantity's fourth power of e^{phi/2} is not
@example(case=("sphere_example", "geodesic", (("expr", "400 + sin(r)"),)))
# |x|^2 of the grid center 5e307 * e_1 overflows in the trial evaluation
@example(case=("radial_log", "curvature", (("rho_max", "1e308"),)))
# a sphere fiber whose chart scalars (R^2 + |y|^2)^3 overflow on the safe
# box, or at y = 0, or underflow to 0 there; sphere_example sets no box, so
# the first value carries a box line after the einstein_constant it keeps
@example(case=("sphere_example", "curvature", (("einstein_constant", "0.19394\nbox = 1e60"),)))
@example(case=("sphere_example", "geodesic", (("einstein_constant", "1e-104"),)))
@example(case=("sphere_example", "bochner", (("einstein_constant", "1e150"),)))
def test_mutated_manifests_keep_the_exit_code_contract(case):
    name, subcommand, entries = case
    overrides = _overrides(name, entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.cdm"
        path.write_text(_mutated(name, entries))
        first = _run_once(path, Path(tmp) / "a", subcommand, overrides)
        code, stdout, stderr = first
        assert code in (0, 1, 2)
        if code == 2:
            assert stdout == ""
            assert re.fullmatch(r"error: [^\n]+\n", stderr), stderr
            assert not (Path(tmp) / "a").exists()
        for line in stderr.splitlines():
            if "non-finite generalized eigenproblem" in line:
                assert re.search(r" at \[[^\]]+\]$", line), line
        assert _run_once(path, Path(tmp) / "b", subcommand, overrides) == first
        assert _reports(Path(tmp) / "a") == _reports(Path(tmp) / "b")
