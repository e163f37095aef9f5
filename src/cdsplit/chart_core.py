"""Chart-based numerical tensor calculus.

All geometry lives in a single coordinate chart: a metric is its jet, one
callable that returns, at each row of a block of chart points, the
symmetric matrix of components ``g_ij`` and, at order 1, their analytic
partials (``MetricSpec.jet``).  The Christoffel symbols come from these
two; the Ricci tensor differences the Christoffel symbols, and Hessians,
Lie derivatives and weighted Laplacians difference whatever a field does
not supply in closed form, all by central finite differences.

Conventions
-----------
* A chart point is a plain 1-d ``numpy`` array of length ``n`` (finite
  entries).  ``as_point`` validates and copies.
* A bilinear form is a plain symmetric ``(n, n)`` array.
* Metric partials are stored derivative-index first:
  ``D[k, i, j] = d g_ij / d x^k``.
* Finite-difference steps are module constants and scale with the
  coordinate magnitude (``scaled``): first derivatives (of the Christoffel
  symbols for Ricci, of a field's values) use ``H1 * max(1, |x_k|)``, plain
  second derivatives of a field's values ``H2 * max(1, |x_k|)``, and
  derivatives of derived fields (third-order content) ``H3 * max(1, |x_k|)``.
* Every difference quotient is taken over a block of points:
  ``stencil_rows`` gives all their stencil rows, ``stencil_values`` a
  field's values there in one ``field_rows`` call, and ``first_difference``
  and ``second_difference`` the derivatives, with the operations, in the
  order, of the quotients at one point.

Evaluation path
---------------
``BlockGeometry`` is the one implementation of the chart calculus.  At a
block of points it holds the metric data (``g``, its Cholesky factor, the
inverse metric, the partials ``D``), the Christoffel symbols, the Ricci
tensor and the gradient of each field, each evaluated on first use and then
shared by the Hessians, Lie derivatives and weighted Laplacians built there,
all with a leading batch axis.  The module's per-point functions
(``metric_at``, ``ricci_numeric``, ``hessian_scalar``,
``weighted_laplacian``) are its block of one; other callers at one point
take ``BlockGeometry.at(spec, p)``.  A geometry takes ``g`` and ``D`` from
one jet call of order 1, or ``g`` alone from one call of order 0 where its
caller needs nothing else (``metric_at``, the geodesic speed-drift and
vector-density passes).  The Ricci tensor takes ``g`` and ``D`` at the 2n
first-order stencil rows of every point from one more jet call, with the
point's own ``g`` and ``D`` as row 0, and the Christoffel symbols from one
``_solve`` over the stack (``_christoffel_rows``).  A field derived
from the calculus (``geometry_field``, such as |grad h|^2) is the
``block_field`` of one ``BlockGeometry`` of its stencil rows; a value-only
Hessian's gradient at the same step reads the +-h rows of its own stencil.

A jet selects its path by the number of rows.  A single row goes through
the chart's point formulas, and more rows through its stacked forms (a
product chart's ``field_rows`` of psi and fiber ``jet``, a manifest's
``ExpressionArray.rows``), because the fixed cost of a stacked call exceeds
the point formulas at one row.  On 2 shared Xeon vCPUs (Python 3.11.7,
numpy 2.4.6), a one-row stacked call of g and D cost 28.1 us on a product
chart over a sphere fiber, 25.4 us on ``twisted_flat.cdm`` and 5.9 us on
``polar_general.cdm``, where separate point formulas for g and for the
partials cost 23.0, 15.6 and 2.3 us together, and the one-row jet 20.3,
13.5 and 2.8 us; a later, quieter measurement, after the product chart's
one-row jet took the fiber's point form once, gave the one-row jet 12.9,
9.4 and 1.9 us.  ``cd_verify`` and the stencils evaluate blocks, and the
RK4 stage one row; on a product chart the one-row jet evaluates psi, the
warp and the fiber's point form once for both g and D, in Python floats,
and gathers g and D from their distinct entries.

A field is evaluated at a block through its block form when it has one
(``field_rows``); a catalog chart's plain callables go row by row
(``_each_row``).  Every field in the package is one block form: a manifest
expression's ``rows``, a radial model's density and distance function, a
split density with a fiber density, the r coordinate and every field
derived from the calculus are ``block_field``s, whose value at a point is
its block of one.  The single-row shortcuts above (a manifest expression's
point form, ``point_jet``'s single row, the product chart's one-row jet and
``SphereFiber.point``) stay beside their block forms for the RK4 stage.

One rule decides how a stacked pass fails over.  It runs with the
floating-point conditions of ``raising`` raising: those numpy is set to
report.  When it raises, or, for a field of more than one row
(``stacked_rows``), has a value that is not finite, it is run again one
sample at a time, so the first failing sample raises, and warns, as it does
alone.  ``in_blocks``, ``stacked_rows`` and the error-controlled pass of
``geodesic_flow.geodesic_integrate`` take the rule from ``raising``, and no
other module reads numpy's settings.

All linear algebra is numpy's LAPACK, and every call runs on a stack of
matrices: the Cholesky factors of a block are one ``np.linalg.cholesky``
call, factored again one point at a time only to name a point that is not
positive definite, and the inverse metrics two stacked triangular solves
with the factor (``_solve``, the ``gesv`` gufunc of ``np.linalg.solve``).
Error messages name their point, but format it only when they are raised.

``gamma_evaluator``, the acceleration closure of an RK4 stage, is the
one-point case: one jet call of order 1 at the point, the partials
contracted twice with the velocity, and one ``_solve`` call with a single
right-hand side, the ``solve1`` gufunc ``np.linalg.solve`` runs on a vector;
it never forms the Christoffel symbols, and agrees with -Gamma(u, u) from
that point's row of ``_christoffel_rows`` to round-off.  A non-finite
acceleration is re-run through ``_christoffel_rows``, which raises the error
of a singular or non-finite metric.  A geodesic step calls it three times,
and once more at the step's end, where the value serves the step's error
estimate and is the next step's first stage.  ``in_blocks`` walks samples
in blocks of ``BLOCK_POINTS`` and re-runs a failing block through the same
stacked pass, one sample at a time, as blocks of one; ``cd_verify``, the
sample points of ``curvature`` and ``bochner``, the rigidity check, the
cross-check and the quadrature of ``compare``, the geodesic post-passes
and every ``block_field`` evaluate through it and have no per-sample code.
``simpson`` and ``cumulative_simpson`` are the composite Simpson rules of
``scipy.integrate``, with its operations in its order (``simpson`` along
the last axis of a stack of rows, each summed over a C-contiguous array,
so each row's integral is that row's alone), and ``rk4_step`` is
the one RK4 step, which the geodesic and the obstruction ODE share: it
takes a first stage the caller already has, and returns the last stage
beside the new state, from which the geodesic estimates the step's error
(``GEODESIC_STEP_TOL``); the obstruction ODE takes fixed steps and reads
the new state alone.

Results are bit-identical to evaluating every tensor at one point on its
own.  Only elementwise array operations, numpy's stacked LAPACK calls
(Cholesky, solve and symmetric eigenvalues, the same LAPACK call on each
matrix of a stack), einsum contractions with a batch axis and stacked
matrix products (the same BLAS call per matrix) run across points, and a
manifest expression's block form is made of such operations, with its
calls and powers per element.  More stacked calls run across points, each
measured bit-equal to its per-point call: a sphere fiber's |y|^2 and a
radial model's rho (one ``np.vecdot``, the BLAS dot product of one row;
``SphereFiber.jet``, ``RadialModel.density``) and,
in ``BlockGeometry``, g^-1 df (``np.matmul``), |df|^2 and g(df, dh)
(``_forms``), the trace g^ij H_ij (``np.sum`` over two axes) and X(h)
(``np.vecdot``).  Other fiber scalars run once per point, with ``math`` and
not numpy ufuncs, which round differently on some inputs.  The minimum of
the shipped sphere grid is a four-way exact tie a few ulps below its
neighbours, so any change in rounding can move the reported witness.

A grid repeats its values: most rows of a block share their r, and so
their phi(r), with many others.  So a per-row scalar call that depends on
one value alone can run once per distinct value, by bit pattern
(``bit_groups``, which keeps +0.0 and -0.0 apart), with its results
gathered to the rows: the warp of a product chart's stacked jet and a
sphere fiber's ``s ** 3`` do.  Each row's value is the same call on the
same bits, so every result keeps its bits.

Everything here is a pure function of immutable specs and is safe to call
concurrently; a ``BlockGeometry`` belongs to the one call that made it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ChartDomain, NonFinite, SingularMetric

Point = np.ndarray

SYMMETRY_TOL = 1e-12

#: Points (or samples) per stacked pass: enough to spread the fixed cost of a
#: pass, few enough that a block's stacks stay small.
BLOCK_POINTS = 256

#: Base finite-difference steps (see Conventions): first derivatives,
#: second derivatives of a field's values, and derivatives of derived fields.
H1, H2, H3 = 1e-5, 1e-4, 1e-3


def as_point(coords, dim: int | None = None) -> Point:
    """Validate and copy chart coordinates: 1-d, finite, optionally of length
    ``dim``."""
    p = np.array(coords, dtype=float, ndmin=1)
    if p.ndim != 1:
        raise ValueError(f"chart point must be 1-d, got shape {p.shape}")
    if dim is not None and p.size != dim:
        raise ValueError(f"chart point has {p.size} coordinates, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise NonFinite(f"chart point has non-finite coordinates: {p}")
    return p


def _as_points(pts, dim: int) -> np.ndarray:
    """Validate and copy a (k, dim) array of chart points; a bad row raises
    as ``as_point`` would."""
    pts = np.array(pts, dtype=float, ndmin=2)
    if pts.ndim != 2 or pts.shape[1] != dim or not np.all(np.isfinite(pts)):
        for p in pts:
            as_point(p, dim)
    return pts


def scaled(p: Point, base: float) -> np.ndarray:
    """The finite-difference steps at ``p``: ``base * max(1, |x_k|)`` per
    coordinate."""
    return base * np.maximum(1.0, np.abs(p))


@dataclass(frozen=True)
class MetricSpec:
    """A chart metric: dimension, its jet, optional extras.

    ``jet(P, order)`` maps a (k, n) array of points to the raw metric
    components at every row, ``(g,)`` for order 0 and ``(g, D)`` for order
    1, with g of shape (k, n, n) and the analytic partials
    ``D[b, k, i, j] = d_k g_ij`` of shape (k, n, n, n).  Every chart carries
    its partials (manifests by symbolic differentiation), and
    ``partials_discrepancy`` checks them against central differences of g.
    A row of a block is bit for bit the jet of that row alone, and the g of
    order 0 is bit for bit the g of order 1.  A chart given by point
    formulas lifts them with ``point_jet``.  ``domain`` is an ``(n, 2)``
    array of closed coordinate bounds; stencil points outside it raise
    ChartDomain.  Every finite difference of a chart takes the module's
    steps ``H1``, ``H2`` and ``H3``.
    """

    dim: int
    jet: Callable[[np.ndarray, int], tuple[np.ndarray, ...]]
    domain: np.ndarray | None = None
    name: str = ""
    coord_names: tuple[str, ...] | None = None

    def coords(self) -> tuple[str, ...]:
        if self.coord_names is not None:
            return self.coord_names
        return tuple(f"x{i + 1}" for i in range(self.dim))


@dataclass(frozen=True)
class ScalarField:
    """A scalar field with optional analytic coordinate partials.

    ``grad(p)`` returns the n-vector of partials d_i f; ``hess(p)`` the
    matrix of raw second partials d_i d_j f (no connection correction).
    """

    value: Callable[[Point], float]
    grad: Callable[[Point], np.ndarray] | None = None
    hess: Callable[[Point], np.ndarray] | None = None

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField(
            value=lambda p: c,
            grad=lambda p: np.zeros(p.size),
            hess=lambda p: np.zeros((p.size, p.size)),
        )


def r_coordinate_field(n: int) -> ScalarField:
    """The first coordinate of an n-dimensional chart (the r of a product
    chart), with its constant partials, as block forms."""
    de = np.eye(n)[0]
    return ScalarField(value=block_field(lambda P: P[:, 0].copy()),
                       grad=block_field(lambda P: np.tile(de, (len(P), 1))),
                       hess=block_field(lambda P: np.zeros((len(P), n, n))))


@dataclass(frozen=True)
class VectorField:
    """A vector field by components ``X^i``; its Jacobian is central
    differences of the components."""

    value: Callable[[Point], np.ndarray]


#: A density is either a scalar potential (gradient variant) or a vector field.
DensitySpec = Union[ScalarField, VectorField]


# ---------------------------------------------------------------------------
# domain guards and finite differences
# ---------------------------------------------------------------------------

def in_domain(spec: MetricSpec, p, radius=0.0) -> bool:
    """Whether the box p +- radius lies inside spec.domain (always, without
    one).  ``radius`` is a number or one per coordinate; the coordinates are
    compared as Python floats, one at a time, which an RK4 step's guards
    read from one ``tolist()`` of its state."""
    if spec.domain is None:
        return True
    p = p.tolist() if isinstance(p, np.ndarray) else p
    if not isinstance(radius, list):
        radius = np.broadcast_to(radius, len(p)).tolist()
    return not any(x - r < lo or x + r > hi
                   for x, r, (lo, hi) in zip(p, radius, spec.domain.tolist()))


def _finite_rows(x, what: str, pts):
    """Return x, or raise NonFinite naming the first point whose slice of x
    is not finite.  The point is formatted only when the error is raised:
    formatting an array costs more than the check itself."""
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x).reshape(len(x), -1).all(axis=1)))
        raise NonFinite(f"non-finite values in {what} at {pts[i]}")
    return x


def _check_domains(spec: MetricSpec, pts: np.ndarray, radius: np.ndarray) -> None:
    """Raise ChartDomain, naming the first row p of pts whose box p +- radius
    (its row of radius) leaves spec.domain."""
    if spec.domain is None:
        return
    lo, hi = spec.domain[:, 0], spec.domain[:, 1]
    out = np.any(pts - radius < lo, axis=1) | np.any(pts + radius > hi, axis=1)
    if out.any():
        i = int(np.argmax(out))
        raise ChartDomain(f"stencil around {pts[i]} (radius {np.max(radius[i]):.3g}) "
                          f"leaves chart domain of {spec.name or 'metric'}")


#: (s, t, weight) of the cross rows p + s h_d e_d + t h_e e_e, axes d < e
_CROSS = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))


def stencil_rows(pts: np.ndarray, steps: np.ndarray, order: int) -> np.ndarray:
    """The stencil rows (B, m, n) around each row p of ``pts``, with its row
    h of ``steps``: p + h_d e_d, p - h_d e_d per axis d for first order; p,
    then p + s h_d e_d for s = -2, -1, 1, 2 per axis, then the ``_CROSS``
    rows per pair of axes for second order.  Only moved coordinates change."""
    B, n = pts.shape
    if order == 1:
        moves = [[(d, s)] for d in range(n) for s in (1.0, -1.0)]
    else:
        moves = ([[]] + [[(d, s)] for d in range(n) for s in (-2.0, -1.0, 1.0, 2.0)]
                 + [[(d, s), (e, t)] for d in range(n) for e in range(d + 1, n)
                    for s, t, _ in _CROSS])
    rows = np.repeat(pts[:, None, :], len(moves), axis=1)
    for r, move in enumerate(moves):
        for d, s in move:
            rows[:, r, d] += s * steps[:, d]
    return rows


def stencil_values(fn, pts: np.ndarray, steps: np.ndarray, order: int) -> np.ndarray:
    """``fn`` at the ``stencil_rows``, in one ``field_rows`` call: (B, m, ...)."""
    rows = stencil_rows(pts, steps, order)
    B, m, n = rows.shape
    F = field_rows(fn, rows.reshape(B * m, n))
    return F.reshape((B, m) + F.shape[1:])


def first_difference(F: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """d_d of a field from its values F (B, 2n, ...) at first-order stencil
    rows: (F(p + h_d e_d) - F(p - h_d e_d)) / (2 h_d), shape (B, n, ...)."""
    h = steps.reshape(steps.shape + (1,) * (F.ndim - 2))
    return (F[:, 0::2] - F[:, 1::2]) / (2.0 * h)


def second_difference(F: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Raw second partials d_d d_e (B, n, n) from a scalar field's values F
    (B, m) at second-order stencil rows: the 5-point rule on the diagonal,
    the cross rows' weighted sum from 0.0 over 4 h_d h_e off it."""
    B, n = steps.shape
    fm2, fm1, fp1, fp2 = F[:, 1:1 + 4 * n].reshape(B, n, 4).transpose(2, 0, 1)
    out = np.empty((B, n, n))
    d = np.arange(n)
    out[:, d, d] = ((-fp2 + 16.0 * fp1 - 30.0 * F[:, :1] + 16.0 * fm1 - fm2)
                    / (12.0 * steps * steps))
    i, j = np.triu_indices(n, 1)
    cross = F[:, 1 + 4 * n:].reshape(B, len(i), 4)
    acc = 0.0
    for k, (_, _, w) in enumerate(_CROSS):
        acc = acc + w * cross[:, :, k]
    out[:, i, j] = out[:, j, i] = acc / (4.0 * steps[:, i] * steps[:, j])
    return out


# ---------------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------------

def _checked_metric(raw: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Validate raw metric components at each point (finite, symmetric to
    1e-12 componentwise) and symmetrize them; a failing point is named.  Each
    half is taken before the sum, which is exact in the normal range and so
    the same as halving the sum, but cannot overflow."""
    _finite_rows(raw, "metric", pts)
    rawT = raw.swapaxes(1, 2)
    asym = np.abs(raw - rawT)
    if asym.max() > SYMMETRY_TOL:
        i = int(np.argmax(asym.reshape(len(raw), -1).max(axis=1) > SYMMETRY_TOL))
        raise ValueError(f"metric at {pts[i]} is not symmetric to {SYMMETRY_TOL:g}")
    return 0.5 * raw + 0.5 * rawT


def metric_at(spec: MetricSpec, p: Point) -> np.ndarray:
    """Evaluate and validate g(p): finite, symmetric to 1e-12 componentwise."""
    return BlockGeometry(spec, as_point(p, spec.dim)[None], order=0).g[0]


def partials_discrepancy(spec: MetricSpec, p: Point) -> float:
    """Debug check: max |analytic - finite difference| over metric partials."""
    pts = as_point(p, spec.dim)[None]
    steps = scaled(pts, H1)
    metric = geometry_field(spec, lambda at: at.g, 0)
    fd = first_difference(stencil_values(metric, pts, steps, 1), steps)[0]
    return float(np.max(np.abs(fd - spec.jet(pts, 1)[1][0])))


def flat_jet(n: int):
    """The ``MetricSpec.jet`` of Cartesian coordinates on R^n: the identity
    and zero partials at every row.  A single row returns the same two
    read-only arrays at every call."""
    eye, zeros = np.eye(n)[None], np.zeros((1, n, n, n))
    eye.flags.writeable = zeros.flags.writeable = False

    def jet(P: np.ndarray, order: int):
        k = len(P)
        gs = eye if k == 1 else np.repeat(eye, k, axis=0)
        return (gs,) if order == 0 else (gs, zeros if k == 1 else np.zeros((k, n, n, n)))

    return jet


def point_jet(g: Callable[[Point], np.ndarray], partials: Callable[[Point], np.ndarray]):
    """The ``MetricSpec.jet`` of a chart given by formulas for ``g`` and its
    ``partials`` at a point, which return float arrays.  A single row is
    their point calls, each result viewed as a stack of one; more rows are
    ``field_rows`` of each, in one call of its block form when it has one (a
    manifest's ``ExpressionArray.rows``), else row by row."""

    def jet(P: np.ndarray, order: int):
        if len(P) == 1:
            p = P[0]
            return (g(p)[None],) if order == 0 else (g(p)[None], partials(p)[None])
        gs = field_rows(g, P)
        return (gs,) if order == 0 else (gs, field_rows(partials, P))

    return jet


def field_rows(fn, pts: np.ndarray) -> np.ndarray:
    """``fn`` at each row of ``pts``, stacked: in one call of ``fn.rows``
    when the callable has one (a manifest expression's, a ``block_field``),
    else row by row (``_each_row``), as a catalog chart's plain callables."""
    rows = getattr(fn, "rows", None)
    if rows is not None:
        return rows(pts)
    return _each_row(fn, pts)


def _each_row(fn, pts: np.ndarray) -> np.ndarray:
    """``fn`` at each row of ``pts``, one call per row, stacked."""
    return np.array([fn(p) for p in pts], dtype=float)


def bit_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the 1-d float array x grouped by bit pattern: the
    index of each group's first entry, and the group of each entry, so that
    ``x[first][inverse]`` is x bit for bit.  The groups are those of x's
    int64 view, so +0.0 and -0.0 stay apart.  A value that depends on its
    entry's bits alone, computed once per group at ``x[first]`` and gathered
    by ``inverse``, is that value at each entry, bit for bit."""
    _, first, inverse = np.unique(np.asarray(x, dtype=float).view(np.int64),
                                  return_index=True, return_inverse=True)
    return first, inverse


@lru_cache(maxsize=None)
def _lowering_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of D[i, j, l] and D[j, i, l] at each entry (l, i, j)
    of an (n, n, n) array, in C order."""
    l, i, j = np.indices((n, n, n)).reshape(3, -1)
    i1, i2 = (i * n + j) * n + l, (j * n + i) * n + l
    i1.flags.writeable = i2.flags.writeable = False
    return i1, i2


def _lowered(D: np.ndarray) -> np.ndarray:
    """M[b, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij from D[b, k, i, j] =
    d_k g_ij, with (i, j) flattened: shape (k, n, n * n).  The two permuted
    terms are gathers through precomputed flat indices, which cost less than
    adding transposed views, with the same sums in the same order."""
    k, n = len(D), D.shape[-1]
    i1, i2 = _lowering_indices(n)
    Df = D.reshape(k, n ** 3)
    return (Df.take(i1, axis=1) + Df.take(i2, axis=1) - Df).reshape(k, n, n * n)


@np.errstate(all="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with a X = b for each matrix of a stack, or x with a x = b for a
    single right-hand side b: LAPACK ``gesv`` through the gufunc that
    ``np.linalg.solve`` runs on each matrix (``solve1`` for a 1-d b, as
    there), called directly to skip that wrapper's checks and conversions.
    A singular matrix gives NaN, and no floating-point condition of the
    solve is reported; callers check the result."""
    solve = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return solve(a, b, signature="dd->d")


def _forms(U: np.ndarray, G: np.ndarray, V: np.ndarray) -> np.ndarray:
    """u @ g @ v at each sample, from the stacks U, G and V: the stacked
    product of each u with its g, then one ``np.vecdot`` of the rows, which
    run the BLAS calls of ``u @ g @ v`` on each sample.  An einsum of the
    three rounds differently."""
    return np.vecdot(np.matmul(U[:, None], G)[:, 0], V)


def _lengths(q: np.ndarray) -> np.ndarray:
    """sqrt(max(0, q)) at each entry as ``math.sqrt(max(0.0, q))``: NaN gives 0."""
    return np.sqrt(np.fmax(q, 0.0))


# ---------------------------------------------------------------------------
# block geometry
# ---------------------------------------------------------------------------

def raising() -> dict[str, str]:
    """The floating-point conditions a stacked pass raises, as ``np.errstate``
    keywords: those numpy is set to report.  A pass that raises one is run
    again one sample at a time, and the warning comes from that re-run."""
    return {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}


def in_blocks(count: int, size: int, stacked) -> np.ndarray:
    """The values of samples 0 .. count-1, evaluated in blocks of ``size``.

    ``stacked(s)`` returns the values of the samples in slice ``s``, one
    entry per sample, in one stacked pass.  When anything in a block fails,
    it is evaluated again by ``stacked(slice(i, i + 1))``, one sample at a
    time and in order, as blocks of one (``BlockGeometry``), so the first
    failing sample raises the error, and emits the numpy warnings, it does
    alone.  A stacked pass runs with the conditions of ``raising``.
    """
    reported = raising()
    blocks = []
    for start in range(0, count, size):
        s = slice(start, min(start + size, count))
        try:
            with np.errstate(**reported):
                blocks.append(stacked(s))
        except Exception:
            # a stacked pass meets the samples' callables in another order
            # than a sample-by-sample walk, so any failure, from a check or
            # from a spec itself, is left to the re-run to raise
            blocks += [stacked(slice(i, i + 1)) for i in range(s.start, s.stop)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def stacked_rows(block, P: np.ndarray, one=None) -> np.ndarray:
    """``block(P)``, the values at the rows of the (k, n) array P, run as one
    ``in_blocks`` pass, which also fails when it has a value that is not
    finite; a failed pass is run again one row at a time.  A single row is
    ``one`` of that row when given (a faster point form), else the block of
    that row alone, so each row raises, and warns, as it does alone."""

    def stacked(s: slice) -> np.ndarray:
        k = s.stop - s.start
        if k == 1 and one is not None:
            return np.array([one(P[s.start])], dtype=float)
        out = block(P[s])
        if k > 1 and not np.isfinite(out).all():
            raise NonFinite("a stacked pass has non-finite values")
        return out

    return stacked(slice(0, len(P))) if len(P) < 2 else in_blocks(len(P), len(P), stacked)


def block_field(block) -> Callable[[Point], np.ndarray]:
    """The field of the block form ``block`` (``stacked_rows``): its
    ``rows(P)`` evaluates P, and a point is its block of one."""

    def value(p: Point) -> np.ndarray:
        return stacked_rows(block, np.asarray(p, dtype=float)[None])[0]

    value.rows = lambda P: stacked_rows(block, P)
    return value


def geometry_field(spec: MetricSpec, of, order: int) -> Callable[[Point], np.ndarray]:
    """The field with values ``of(geometry)`` at a ``BlockGeometry``'s points,
    such as |grad h|^2, whose geometries take the chart's jet of ``order``:
    0 for a field that needs only g and what follows from it, 1 for one that
    needs the partials.  It is the ``block_field`` of one geometry of the
    rows it is given."""
    return block_field(lambda P: of(BlockGeometry(spec, P, order)))


class BlockGeometry:
    """The chart calculus at a block of chart points, shared by the tensors built there.

    ``pts`` is a (B, n) array of chart points.  ``g`` (validated and
    symmetrized), its Cholesky factor ``chol``, the inverse ``ginv``, the
    partials ``D``, the Christoffel symbols, the Ricci tensor and the
    gradient of each field are each evaluated on first use and then reused;
    every tensor carries a leading axis of length B.  The metric comes from
    one call of the chart's jet, of order ``order``: 1 gives g and D
    together, and 0, for a caller that needs only g, leaves D to a second
    call if it is asked for.  ``BlockGeometry.at(spec, p)`` is the block of
    one behind the per-point functions of this module.  Every slice is
    bit-identical to the same tensor built at that point alone (see the
    module docstring).  A failed check names a point of the block that fails
    it; in a block of one, checks run in the order, and with the messages,
    of a point evaluated on its own.
    """

    def __init__(self, spec: MetricSpec, pts, order: int = 1):
        self.spec = spec
        self.pts = _as_points(pts, spec.dim)
        self.order = order
        self._evaluated = {}

    @classmethod
    def at(cls, spec: MetricSpec, p: Point) -> "BlockGeometry":
        return cls(spec, as_point(p, spec.dim)[None, :])

    @cached_property
    def _jet(self) -> tuple[np.ndarray, ...]:
        # the raw jet at the points; g is row 0 of every Ricci stencil.  When
        # the order-1 jet raises, the metric alone is evaluated here and ``D``
        # asks again, so that g's checks and the positivity gate run first
        if self.order == 1:
            try:
                return self.spec.jet(self.pts, 1)
            except Exception:
                pass
        return self.spec.jet(self.pts, 0)

    @cached_property
    def g(self) -> np.ndarray:
        gs, n = self._jet[0], self.spec.dim
        if gs.shape[1:] != (n, n):
            raise ValueError(f"metric returned shape {gs.shape[1:]}, expected ({n}, {n})")
        return _checked_metric(gs, self.pts)

    @cached_property
    def chol(self) -> np.ndarray:
        """The lower Cholesky factor of ``g`` at each point, zero above the
        diagonal: one ``np.linalg.cholesky`` call on the stack, which runs
        LAPACK ``potrf`` on each matrix, so a block of one is the point path.
        When that call fails, the points are factored one at a time to name
        the first that is not positive definite.  At a single point, any
        failure to evaluate ``g`` here is reported as SingularMetric, as this
        positivity gate always has."""
        try:
            g = self.g
        except Exception as exc:
            if len(self.pts) > 1:
                raise
            raise SingularMetric(
                f"metric at {self.pts[0]} is not positive definite: {exc}") from exc
        try:
            return np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            for p, a in zip(self.pts, g):
                try:
                    np.linalg.cholesky(a)
                except np.linalg.LinAlgError:
                    raise SingularMetric(f"metric at {p} is not positive definite") from None
            raise

    @cached_property
    def ginv(self) -> np.ndarray:
        """The inverse metric at each point from its Cholesky factor L: the
        stacked solves of L Y = I and L^T X = Y, symmetrized."""
        L = self.chol
        X = _solve(L.swapaxes(1, 2), _solve(L, np.eye(self.spec.dim)))
        return 0.5 * (X + X.swapaxes(1, 2))

    @cached_property
    def D(self) -> np.ndarray:
        """The analytic partials ``D[b, k, i, j] = d_k g_ij``, checked finite."""
        spec, pts = self.spec, self.pts
        D = (self._jet if len(self._jet) > 1 else spec.jet(pts, 1))[1]
        if D.shape[1:] != (spec.dim,) * 3:
            raise ValueError(f"metric partials returned shape {D.shape[1:]}")
        return _finite_rows(D, "metric partials", pts)

    @cached_property
    def christoffel(self) -> np.ndarray:
        ginv, D = self.ginv, self.D  # the positivity gate runs first
        return 0.5 * np.einsum("bkl,blij->bkij", ginv, _lowered(D).reshape(D.shape))

    @cached_property
    def ricci(self) -> np.ndarray:
        spec, pts = self.spec, self.pts
        B, n = pts.shape
        steps = scaled(pts, H1)
        _check_domains(spec, pts, steps)
        self.chol  # positivity gate, once per point; christoffel reuses the factor
        g0, D0 = self._jet[0], self.D
        # stencil rows per point: p, then its first-order stencil
        rows = stencil_rows(pts, steps, 1)
        g1, D1 = spec.jet(rows.reshape(B * 2 * n, n), 1)
        stencil = np.concatenate([pts[:, None], rows], axis=1)
        gs = np.concatenate([g0[:, None], g1.reshape(B, 2 * n, n, n)], axis=1)
        Ds = np.concatenate([D0[:, None], D1.reshape(B, 2 * n, n, n, n)], axis=1)
        k = B * (2 * n + 1)
        gammas = _christoffel_rows(stencil.reshape(k, n), gs.reshape(k, n, n),
                                   Ds.reshape(k, n, n, n)).reshape(B, 2 * n + 1, n, n, n)
        G = gammas[:, 0]
        dG = first_difference(gammas[:, 1:], steps)
        t1 = np.einsum("bmmvs->bsv", dG)
        t2 = np.einsum("bvmms->bsv", dG)
        t3 = np.einsum("bmml,blvs->bsv", G, G)
        t4 = np.einsum("bmvl,blms->bsv", G, G)
        ric = _finite_rows(t1 - t2 + t3 - t4, "Ricci tensor", pts)
        return 0.5 * (ric + ric.swapaxes(1, 2))

    def evaluated(self, fn, what: str) -> np.ndarray:
        """``fn`` at each point, stacked and checked finite; the first call
        for a callable evaluates it, later calls reuse the rows."""
        if fn not in self._evaluated:
            self._evaluated[fn] = _finite_rows(field_rows(fn, self.pts), what, self.pts)
        return self._evaluated[fn]

    def gradient(self, f, step: float | None = None) -> np.ndarray:
        """Coordinate partials d_i f at each point: the analytic gradient as
        one stack, else central differences of the values at base ``step``
        (default ``H1``); once per field and step."""
        f = as_scalar_field(f)
        if f.grad is not None:
            return self.evaluated(f.grad, "gradient")
        spec, pts = self.spec, self.pts
        base = step if step is not None else H1
        key = (f.value, base)
        if key not in self._evaluated:
            steps = scaled(pts, base)
            _check_domains(spec, pts, steps)
            dF = first_difference(stencil_values(f.value, pts, steps, 1), steps)
            self._evaluated[key] = _finite_rows(dF, "finite-difference gradient", pts)
        return self._evaluated[key]

    def gradient_vector(self, f) -> np.ndarray:
        """The metric gradient (nabla f)^i = g^{ij} d_j f at each point."""
        return np.matmul(self.ginv, self.gradient(f)[:, :, None])[:, :, 0]

    def grad_norm_squared(self, f) -> np.ndarray:
        """|grad f|^2_g = g^{ij} d_i f d_j f at each point."""
        df = self.gradient(f)
        return _forms(df, self.ginv, df)

    def hessian(self, f, step: float | None = None) -> np.ndarray:
        spec, pts = self.spec, self.pts
        f = as_scalar_field(f)
        base = step if step is not None else H2
        if f.hess is not None:
            raw = field_rows(f.hess, pts)
        else:
            steps = scaled(pts, base)
            _check_domains(spec, pts, 2.0 * steps)
            F = stencil_values(f.value, pts, steps, 2)
            raw = second_difference(F, steps)
            if f.grad is None and (f.value, base) not in self._evaluated:
                # the gradient at the same step differences the p +- h_d e_d
                # rows of this stencil (s = 1 and -1 of each axis), the rows
                # a first-order stencil would evaluate again
                B, n = pts.shape
                pm = F[:, 1:1 + 4 * n].reshape(B, n, 4)[:, :, [2, 1]].reshape(B, 2 * n)
                self._evaluated[f.value, base] = _finite_rows(
                    first_difference(pm, steps), "finite-difference gradient", pts)
        df = self.gradient(f, step=base if f.grad is None else None)
        H = raw - np.einsum("bkij,bk->bij", self.christoffel, df)
        _finite_rows(H, "Hessian", pts)
        return 0.5 * (H + H.swapaxes(1, 2))

    def weighted_laplacian(self, density: DensitySpec, h, step: float | None = None) -> np.ndarray:
        """``weighted_laplacian`` at each point; ``step`` is the base step of
        whatever of h is differenced."""
        ginv = self.ginv
        H = self.hessian(h, step)
        lap = np.sum(ginv * H, axis=(1, 2))
        dh = self.gradient(h, step)
        if isinstance(density, ScalarField):
            drift = _forms(self.gradient(density), ginv, dh)
        elif isinstance(density, VectorField):
            drift = np.vecdot(self.evaluated(density.value, "vector field"), dh)
        else:
            raise TypeError(f"expected a scalar or vector density, got {type(density)!r}")
        out = lap - drift
        if not np.isfinite(out).all():
            raise NonFinite(f"weighted Laplacian at {self.pts[int(np.argmin(np.isfinite(out)))]}")
        return out

    def lie_derivative(self, X: VectorField) -> np.ndarray:
        spec, pts = self.spec, self.pts
        g = self.g
        D = self.D
        Xv = self.evaluated(X.value, "vector field")
        steps = scaled(pts, H1)
        _check_domains(spec, pts, steps)
        # J[b, i, d] = d_d X^i, C-contiguous as the per-point J was, so the
        # stacked product below multiplies the same memory layout
        J = np.ascontiguousarray(
            first_difference(stencil_values(X.value, pts, steps, 1), steps).swapaxes(1, 2))
        _finite_rows(J, "vector field Jacobian", pts)
        gJ = g.swapaxes(1, 2) @ J
        out = np.einsum("bk,bkij->bij", Xv, D) + gJ + gJ.swapaxes(1, 2)
        return 0.5 * (out + out.swapaxes(1, 2))


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------

def _christoffel_rows(pts: np.ndarray, gs: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Christoffel symbols from raw g and D at each row of ``pts``, shape (k, n, n, n).

    All rows go through one ``_solve`` over the (k, n, n) stack, the ``gesv``
    gufunc of ``np.linalg.solve``.  numpy runs the same LAPACK call on each
    matrix of a stack, so every slice is bit-identical to a solve at that
    point alone.  A singular matrix gives NaN there; when the result is not
    finite, the rows are solved again one at a time, and the first failing
    row is named, as a point-by-point sweep would name it.
    """
    k, n = pts.shape
    M = _lowered(D)
    out = 0.5 * _solve(gs, M)
    if not np.isfinite(out).all():
        for q, g, m in zip(pts, gs, M):
            try:
                sol = 0.5 * np.linalg.solve(g, m)
            except np.linalg.LinAlgError as exc:
                raise SingularMetric(f"metric at {q} is not invertible") from exc
            if not np.all(np.isfinite(sol)):
                raise NonFinite(f"Christoffel symbols at {q}")
    return out.reshape(k, n, n, n)


def gamma_evaluator(spec: MetricSpec):
    """Geodesic acceleration closure for hot loops (the RK4 stage).

    The closure maps a point p and a velocity u to the acceleration
    a^k = -Gamma^k_ij u^i u^j = g^{kl} (d_l g_ij u^i u^j / 2 - d_i g_jl u^i u^j),
    the right-hand side of the geodesic equation, without forming the
    Christoffel symbols.  It skips the per-call point validation and
    Cholesky positivity check of ``BlockGeometry.christoffel``; callers
    validate the metric once at their entry point.  Each call evaluates the
    chart's jet of order 1 at its one point, in one call, contracts the
    partials with u in two small products, and solves g a = b with one
    single-right-hand side ``gesv`` (``_solve``).  It agrees with
    -Gamma(u, u) from that point's row of ``_christoffel_rows`` to
    round-off.  A non-finite acceleration is re-run through
    ``_christoffel_rows``, which raises the error of a singular or
    non-finite metric or partials; one that stays non-finite is returned for
    the caller's finite check.
    """
    n = spec.dim
    jet = spec.jet
    zeros = np.zeros(n)

    def acceleration(p: Point, u: np.ndarray) -> np.ndarray:
        P = p[None]
        gs, D = jet(P, 1)
        Du = D[0].dot(u)  # Du[k, i] = d_k g_ij u^j
        a = _solve(gs[0], (0.5 * Du - Du.T).dot(u))
        # the dot product with zeros is NaN exactly when an entry is not
        # finite, and costs less than a reduction of np.isfinite
        if not math.isfinite(a.dot(zeros)):
            _christoffel_rows(P, gs, D)
        return a

    return acceleration


def ricci_numeric(spec: MetricSpec, p: Point) -> np.ndarray:
    """Ricci tensor in chart components by finite-differencing Christoffels;
    the result is symmetrized to remove finite-difference noise.  The
    Christoffel symbols come from the analytic partials, so they carry no
    differencing noise, and the derivative takes the first-derivative step
    H1, which keeps its truncation error small."""
    return BlockGeometry.at(spec, p).ricci[0]


# ---------------------------------------------------------------------------
# scalar and vector field calculus
# ---------------------------------------------------------------------------

def as_scalar_field(f) -> ScalarField:
    if isinstance(f, ScalarField):
        return f
    if callable(f):
        return ScalarField(value=f)
    raise TypeError(f"expected a scalar field or callable, got {type(f)!r}")


def hessian_scalar(spec: MetricSpec, f, p: Point, *, step: float | None = None) -> np.ndarray:
    """Covariant Hessian (Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f, with the
    analytic raw partials when supplied, else ``second_difference``."""
    return BlockGeometry.at(spec, p).hessian(f, step)[0]


def weighted_laplacian(spec: MetricSpec, density: DensitySpec, h, p: Point,
                       *, step: float | None = None) -> float:
    """Weighted Laplacian of h: trace_g Hess h minus the density drift.

    For a scalar density f the drift is g(grad f, grad h); for a vector
    density X it is the directional derivative X(h).
    """
    return float(BlockGeometry.at(spec, p).weighted_laplacian(density, h, step)[0])


# ---------------------------------------------------------------------------
# quadrature and the RK4 step
# ---------------------------------------------------------------------------
# The composite Simpson rules of scipy.integrate (1.17.1) for 1-d samples at
# given abscissae, with its elementwise operations in its order, so results
# are bit-equal to ``simpson(y, x=x)`` and
# ``cumulative_simpson(y, x=x, initial=0.0)``.

def _simpson_pairs(y: np.ndarray, h: np.ndarray, stop: int):
    """Simpson's rule over the interval pairs of y[..., :stop + 2] with
    spacings h, along the last axis.  Each row's sum runs over a C-contiguous
    array, so it adds its terms in the order of a 1-d sum: over the rows of
    a column-major array numpy adds them one by one, which rounds otherwise."""
    h0, h1 = h[..., 0:stop:2], h[..., 1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    tmp = hsum / 6.0 * (
        y[..., 0:stop:2] * (2.0 - np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1),
                                                 where=h0divh1 != 0))
        + y[..., 1:stop + 1:2] * (hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum),
                                                        where=hprod != 0))
        + y[..., 2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(np.ascontiguousarray(tmp), axis=-1)


def simpson(y: np.ndarray, x: np.ndarray):
    """Integral of the samples y at the points x by the composite Simpson
    rule, along the last axis; an even count of samples ends with
    Cartwright's correction for the last interval, two samples with the
    trapezoid.  A stack of rows (with x one row for all, or a row each) is
    one pass, and each row's integral is bit for bit that row's alone: each
    sum runs over a C-contiguous array (``_simpson_pairs``)."""
    N = y.shape[-1]
    if N % 2 == 1:
        return _simpson_pairs(y, np.diff(x), N - 2)
    if N == 2:
        return 0.0 + 0.5 * (x[..., -1] - x[..., -2]) * (y[..., -1] + y[..., -2])
    result = _simpson_pairs(y, np.diff(x), N - 3)
    diffs = np.float64(np.diff(x))
    h0, h1 = diffs[..., -2], diffs[..., -1]
    den = 6 * (h1 + h0)
    alpha = np.true_divide(2 * h1 ** 2 + 3 * h0 * h1, den, out=np.zeros_like(den),
                           where=den != 0)
    den = 6 * h0
    beta = np.true_divide(h1 ** 2 + 3.0 * h0 * h1, den, out=np.zeros_like(den),
                          where=den != 0)
    den = 6 * h0 * (h0 + h1)
    eta = np.true_divide(1 * h1 ** 3, den, out=np.zeros_like(den), where=den != 0)
    result += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return result + 0.0


def _simpson_first_halves(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The integral over the first interval of each consecutive pair, from
    the parabola through its three samples (unequal spacings dx)."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of the samples y at the strictly increasing points x,
    from 0 at x[0]: Simpson's 1/3 rule on each interval, the cumulative
    trapezoid for fewer than three samples."""
    dx = np.diff(x)
    if len(y) < 3:
        res = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    else:
        if np.any(dx <= 0):
            raise ValueError("Input x must be strictly increasing.")
        first = _simpson_first_halves(y, dx)
        second = np.flip(_simpson_first_halves(np.flip(y), np.flip(dx)))
        sub = np.empty(len(y) - 1)
        sub[:-1:2] = first[::2]
        sub[1::2] = second[::2]
        sub[-1] = second[-1]
        res = np.cumsum(sub)
    res += 0.0  # scipy adds its initial value, which turns -0.0 into 0.0
    return np.concatenate((np.zeros(1), res))


#: Largest speed an ODE integration accepts before it stops with StepOverflow.
VELOCITY_GUARD = 1e8

#: Local error per unit time that a geodesic step longer than one sample
#: spacing may make, in the embedded third-order estimate of ``rk4_step``'s
#: step (``geodesic_flow.geodesic_integrate``).
GEODESIC_STEP_TOL = 1e-9


def rk4_step(acc, x, u, dt: float, k1u=None):
    """One classical RK4 step of the second-order system x' = u, u' = acc(x, u).

    ``k1u`` is the first stage acc(x, u) when the caller already has it (the
    last stage of its previous step); otherwise it is evaluated here.
    Returns the new (x, u) and the last stage (u4, acc(x4, u4)), from which
    the geodesic takes its error estimate."""
    k1x, k1u = u, acc(x, u) if k1u is None else k1u
    x2, u2 = x + 0.5 * dt * k1x, u + 0.5 * dt * k1u
    k2x, k2u = u2, acc(x2, u2)
    x3, u3 = x + 0.5 * dt * k2x, u + 0.5 * dt * k2u
    k3x, k3u = u3, acc(x3, u3)
    x4, u4 = x + dt * k3x, u + dt * k3u
    k4x, k4u = u4, acc(x4, u4)
    return (x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            k4x, k4u)
