"""Charts, split spaces, density models and oracles of the tests.

Their analytic scalar fields are built from expression text by
``cdsplit.expr``, as a manifest's are, without the manifest parser.  The
tests import this module by name, from the directory pytest puts on
``sys.path`` for them."""

from __future__ import annotations

import math

import numpy as np

from cdsplit.chart_core import (
    H1,
    BlockGeometry,
    MetricSpec,
    Point,
    ScalarField,
    VectorField,
    as_point,
    first_difference,
    flat_jet,
    geometry_field,
    point_jet,
    scaled,
    stencil_values,
)
from cdsplit.comparison_suite import RadialModel
from cdsplit.expr import compile_expression, expression_scalar_field
from cdsplit.warped_products import (
    FlatFiber,
    SphereFiber,
    SplitSpaceSpec,
    TwistedProductSpec,
    product_coords,
)


def flat(dim: int) -> MetricSpec:
    """Euclidean R^n in Cartesian coordinates."""
    return MetricSpec(dim=dim, jet=flat_jet(dim), name=f"flat{dim}")


def polar_plane(r_min: float = 0.05) -> MetricSpec:
    """Flat R^2 in polar coordinates dr^2 + r^2 dtheta^2 (r bounded away from 0)."""

    def g(p: Point) -> np.ndarray:
        return np.diag([1.0, p[0] ** 2])

    def partials(p: Point) -> np.ndarray:
        D = np.zeros((2, 2, 2))
        D[0, 1, 1] = 2.0 * p[0]
        return D

    domain = np.array([[r_min, np.inf], [-np.inf, np.inf]])
    return MetricSpec(dim=2, jet=point_jet(g, partials), domain=domain,
                      name="polar plane", coord_names=("r", "theta"))


def sphere_chart(dim: int = 2, einstein_constant: float = 1.0) -> MetricSpec:
    """Round sphere in a stereographic chart as a standalone metric."""
    fiber = SphereFiber(dim=dim, einstein_constant=einstein_constant)
    return MetricSpec(
        dim=dim,
        jet=point_jet(fiber.metric, lambda y: fiber.jet(y[None], 1)[1][0]),
        domain=fiber.safe_box,
        name=f"sphere{dim} (Einstein constant {einstein_constant:g})",
    )


def _field(text: str, variables) -> ScalarField:
    """The scalar field of expression ``text`` over ``variables``, with its
    partials derived symbolically, as for a manifest expression."""
    return expression_scalar_field(compile_expression(text, variables))


def constant(c: float, n: int) -> ScalarField:
    """The constant density c on an n-dimensional chart, as a manifest's
    ``f = c`` builds it."""
    return _field(repr(float(c)), tuple(f"x{i + 1}" for i in range(n)))


def _split(n: int, phi: str, fiber, name: str,
           f_L: ScalarField | None = None) -> SplitSpaceSpec:
    """The split space of the profile expression ``phi`` in r over ``fiber``."""
    return SplitSpaceSpec(n=n, phi=_field(phi, product_coords(n)), fiber=fiber, f_L=f_L,
                          name=name)


def hyperbolic_split(n: int = 3) -> SplitSpaceSpec:
    """Hyperbolic space of curvature -1 as the warped chart
    dr^2 + e^{2r} (flat fiber); phi = (n-1) r."""
    return _split(n, f"{n - 1.0!r} * r", FlatFiber(n - 1), f"hyperbolic{n}")


def split_sin_euclidean(n: int = 2, amplitude: float = 0.5) -> SplitSpaceSpec:
    """Split space with phi = amplitude * sin r over a flat fiber."""
    return _split(n, f"{float(amplitude)!r} * sin(r)", FlatFiber(n - 1),
                  f"split{n} sin fiber=flat")


def split_sin_sphere(einstein_constant: float, n: int = 3,
                     f_L: ScalarField | None = None) -> SplitSpaceSpec:
    """Split space phi = sin r over a round-sphere fiber."""
    return _split(n, "sin(r)", SphereFiber(dim=n - 1, einstein_constant=einstein_constant),
                  f"split{n} sin fiber=sphere({einstein_constant:g})", f_L)


def split_cos_sphere_4d(einstein_constant: float = 1.0) -> SplitSpaceSpec:
    """Four-dimensional split space phi = cos r over a round 3-sphere fiber."""
    return _split(4, "cos(r)", SphereFiber(dim=3, einstein_constant=einstein_constant),
                  f"split4 cos fiber=sphere({einstein_constant:g})")


def split_sin_torus(n: int = 3, periods=(2.0 * math.pi, 4.0 * math.pi)) -> SplitSpaceSpec:
    """Split space phi = sin r over a flat torus fiber."""
    return _split(n, "sin(r)", FlatFiber(dim=n - 1, periods=periods),
                  f"split{n} sin fiber=torus")


def bounded_fiber_density(amplitude: float = 0.2) -> ScalarField:
    """A smooth bounded density a * sin(y1) * cos(y2) on a two-dimensional
    fiber, with partials."""
    return _field(f"{float(amplitude)!r} * sin(y1) * cos(y2)", ("y1", "y2"))


def twisted_example(n: int = 3, amplitude: float = 0.3) -> TwistedProductSpec:
    """A genuinely twisted chart: psi = a sin(r) cos(y1) + (a/2) cos(y1) sin(y2)
    over a flat fiber (y2 term dropped when the fiber is one-dimensional)."""
    a = float(amplitude)
    text = f"{a!r} * sin(r) * cos(y1)" + (f" + {0.5 * a!r} * cos(y1) * sin(y2)" if n >= 3 else "")
    return TwistedProductSpec(n=n, psi=_field(text, product_coords(n)),
                              fiber=FlatFiber(n - 1), name=f"twisted{n} a={amplitude:g}")


def nongradient_example(n: int = 4, einstein_constant: float = 1.0,
                        amplitude: float = 0.05):
    """Warped sphere chart with the vector density whose radial generalized
    Ricci rows vanish identically at N = 1.

    The twist potential phi(r, y) = a sin(r) cos(y1) genuinely depends on the
    fiber, so X = phi_r d/dr * 2/(n-1) + grad(phi) * (n-3)/(n-1) is not a
    gradient field.  Returns (TwistedProductSpec, VectorField).
    """
    fiber = SphereFiber(dim=n - 1, einstein_constant=einstein_constant)
    psi = _field(f"{float(amplitude)!r} * sin(r) * cos(y1)", product_coords(n))
    spec = TwistedProductSpec(n=n, psi=psi, fiber=fiber, name=f"warped-sphere{n} twist")

    c = 1.0 / (n - 1)

    def X_value(p: Point) -> np.ndarray:
        dpsi = psi.grad(p)
        w = math.exp(2.0 * c * psi.value(p))
        hinv = np.linalg.inv(fiber.metric(p[1:]))
        out = np.zeros(n)
        out[0] = dpsi[0]  # 2c phi_r + (n-3)c phi_r
        out[1:] = (n - 3.0) * c / w * (hinv @ dpsi[1:])
        return out

    return spec, VectorField(value=X_value)


def gradient_as_vector_field(spec: MetricSpec, f: ScalarField) -> VectorField:
    """The metric gradient of f packaged as a vector field (components
    g^{ij} d_j f)."""
    return VectorField(value=lambda p: BlockGeometry.at(spec, p).gradient_vector(f)[0])


def radial_log_model(n: int = 3) -> RadialModel:
    """Flat R^n with f(rho) = ((n-1)/2) log(1 + rho^2): a weighted model
    satisfying CD(0,1) with strictly positive comparison slack."""
    return RadialModel(
        n=n,
        f=lambda rho: 0.5 * (n - 1) * math.log1p(rho * rho),
        df=lambda rho: (n - 1) * rho / (1.0 + rho * rho),
        d2f=lambda rho: (n - 1) * (1.0 - rho * rho) / (1.0 + rho * rho) ** 2,
        name=f"radial log model n={n}",
    )


def unweighted_model(n: int = 3) -> RadialModel:
    """Flat R^n with vanishing density (classical comparison, zero slack)."""
    return RadialModel(n=n, f=lambda rho: 0.0, df=lambda rho: 0.0,
                       d2f=lambda rho: 0.0, name=f"unweighted flat n={n}")


def warp(split: SplitSpaceSpec, p: Point) -> float:
    """The warping factor u = e^{phi/(n-1)} of a split space at the chart
    point p, with ``math.exp``."""
    return math.exp(split.phi.value(p) / (split.n - 1))


def fiber_distance(fiber, y1: np.ndarray, y2: np.ndarray) -> float:
    """The distance of two fiber points: on a flat fiber, the length of
    their chart segment (a torus is not wrapped around); on a sphere, the
    great-circle distance of their stereographic images."""
    if isinstance(fiber, FlatFiber):
        d = np.asarray(y2) - np.asarray(y1)
        return math.sqrt(float(d * d @ np.diagonal(fiber.metric(y1))))
    R2 = fiber.radius_sq

    def embed(y):
        y = np.asarray(y, dtype=float)
        s = R2 + float(y @ y)
        return np.concatenate([2.0 * R2 * y / s, [math.sqrt(R2) * (float(y @ y) - R2) / s]])

    cosang = float(embed(y1) @ embed(y2)) / R2
    return math.sqrt(R2) * math.acos(min(1.0, max(-1.0, cosang)))


def partials_discrepancy(spec: MetricSpec, p: Point) -> float:
    """The largest |analytic - central difference| over the chart's metric
    partials at p: the oracle for every chart's jet of order 1."""
    pts = as_point(p, spec.dim)[None]
    steps = scaled(pts, H1)
    metric = geometry_field(spec, lambda at: at.g, 0)
    fd = first_difference(stencil_values(metric, pts, steps, 1), steps)[0]
    return float(np.max(np.abs(fd - spec.jet(pts, 1)[1][0])))


def builtin_product_charts() -> list[TwistedProductSpec]:
    """The products used for analytic-vs-numeric curvature regression,
    dimensions 2 through 4."""
    return [
        split_sin_euclidean(2).as_twisted(),
        hyperbolic_split(3).as_twisted(),
        split_sin_sphere(0.5).as_twisted(),
        twisted_example(3),
        split_cos_sphere_4d(1.0).as_twisted(),
        split_sin_torus(3).as_twisted(),
    ]
