"""The per-point evaluation path: exact sphere witness, no error text on
success, and failing stencil points still named."""

import re
from pathlib import Path

import numpy as np
import pytest

from cdsplit import catalog
from cdsplit.chart_core import MetricSpec, ricci_numeric
from cdsplit.errors import NonFinite, SingularMetric
from cdsplit.geodesic_flow import geodesic_integrate, normalize_velocity
from cdsplit.manifest import build_geometry, cd_grid, parse_manifest
from cdsplit.weighted_curvature import GridSpec, cd_verify, split_grid

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def test_sphere_witness_tie_is_exact():
    # The shipped sphere grid's minimum sits on its r = 8.1 slice.  There
    # four points, (+-2.16, +-2.88), tie bit for bit, and the witness is the
    # first of them in grid order.  The slice's first point, (-2.88, -2.88),
    # is only 6 ulps above the minimum.  A change in rounding anywhere on the
    # path (numpy ufuncs for math, a reordered sum) moves the witness.
    manifest = parse_manifest(MANIFESTS / "sphere_example.cdm")
    geo = build_geometry(manifest)
    points = cd_grid(manifest, geo).points
    r_slice = points[np.isclose(points[:, 0], 8.1)]
    assert r_slice.shape == (81, 3)
    report = cd_verify(geo["spec"], geo["density"], 0.0, 1.0, GridSpec(r_slice, "r = 8.1"))
    assert report.min_eigenvalue == -1.0638321647216133e-09
    assert report.witness.tolist() == [8.100000000000001, -2.16, -2.88]
    ties = r_slice[report.eigenvalues == report.min_eigenvalue, 1:]
    assert np.array_equal(np.abs(ties), np.tile([2.16, 2.88], (4, 1)))
    ulp = np.spacing(abs(report.min_eigenvalue))
    assert report.eigenvalues[0] - report.min_eigenvalue == 6 * ulp


def test_success_path_formats_no_arrays():
    formatted = []

    def count(x):
        formatted.append(x)
        return repr(x)

    split = catalog.split_sin_sphere(0.6)
    spec = split.metric_spec()
    p0 = np.array([0.0, 0.4, 0.2])
    v0 = normalize_velocity(spec, p0, [1.0, 0.5, -0.3])
    with np.printoptions(formatter={"all": count}):
        cd_verify(spec, split.density(), 0.0, 1.0, split_grid(split, r_count=3, fiber_count=2))
        geodesic_integrate(spec, p0, v0, T=0.05, dt=1e-2)
        assert formatted == []
        str(np.zeros(1))  # the counter does see an array being formatted
    assert len(formatted) == 1


def _flat_failing(bad_metric):
    """Flat R^2 whose metric is replaced by ``bad_metric(q)`` where that
    returns a matrix."""

    def g(q):
        bad = bad_metric(q)
        return np.eye(2) if bad is None else bad

    return MetricSpec(dim=2, g=g, partials=lambda q: np.zeros((2, 2, 2)), name="failing")


# stencil of ricci_numeric at p = (1, 0): steps 1e-5 (analytic partials)
P = np.array([1.0, 0.0])
PLUS_R = np.array([1.0 + 1e-5, 0.0])
MINUS_Y = np.array([1.0, -1e-5])


def test_stencil_point_named_when_singular():
    spec = _flat_failing(lambda q: np.zeros((2, 2)) if q[1] < 0 else None)
    with pytest.raises(SingularMetric, match=re.escape(f"metric at {MINUS_Y} is not invertible")):
        ricci_numeric(spec, P)


def test_first_failing_stencil_point_named():
    # p + h e_r gives NaN Christoffel symbols and p - h e_y a singular metric;
    # the first in stencil order is named, as a point-by-point sweep would
    def bad(q):
        if q[0] > 1.0:
            return np.full((2, 2), np.nan)
        return np.zeros((2, 2)) if q[1] < 0 else None

    with pytest.raises(NonFinite, match=re.escape(f"Christoffel symbols at {PLUS_R}")):
        ricci_numeric(_flat_failing(bad), P)
