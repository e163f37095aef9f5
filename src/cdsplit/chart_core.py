"""Chart-based numerical tensor calculus.

All geometry lives in a single coordinate chart: a metric is a callable
returning the symmetric matrix of components ``g_ij(p)`` at a chart point,
together with a callable returning its analytic partials.  The Christoffel
symbols come from these two; the Ricci tensor differences the Christoffel
symbols, and Hessians, Lie derivatives and weighted Laplacians difference
whatever a field does not supply in closed form, all by central finite
differences.

Conventions
-----------
* A chart point is a plain 1-d ``numpy`` array of length ``n`` (finite
  entries).  ``as_point`` validates and copies.
* A bilinear form is a plain symmetric ``(n, n)`` array.
* Metric partials are stored derivative-index first:
  ``D[k, i, j] = d g_ij / d x^k``.
* Finite-difference steps scale with the coordinate magnitude:
  first derivatives (of the Christoffel symbols for Ricci, of a field's
  values) use ``h1 * max(1, |x_k|)``, plain second derivatives
  of a field's values ``h2 * max(1, |x_k|)``, and derivatives of derived
  fields (third-order content) ``h3 * max(1, |x_k|)``.
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
all with a leading batch axis.  The public per-point functions are its
block of one.  The Ricci tensor takes ``g`` and ``D`` at the 2n+1 stencil
rows of every point from the chart's stacked row function
(``MetricSpec.rows``), or row by row, with the point's own ``g`` and ``D``
as row 0, and the Christoffel symbols from one ``np.linalg.solve`` over the
stack (``_christoffel_rows``).  A field derived from the calculus
(``geometry_field``, such as |grad h|^2) evaluates its stencil rows as one
``BlockGeometry``.  The Cholesky factors of a block are one
``np.linalg.cholesky`` call up to dimension 4, and otherwise, or when that
call fails, one direct LAPACK ``potrf`` call per point; inverses are one
``potrs`` call per point, with the arguments
``scipy.linalg.cho_factor``/``cho_solve`` pass.  Error messages name their
point, but format it only when they are raised.

``gamma_evaluator``, the Christoffel closure of an RK4 stage, is the
one-point case: ``g`` and ``partials`` at the point and one direct LAPACK
``gesv`` call, the solve ``np.linalg.solve`` runs on each matrix of the
stack, so it is bit-equal to that point's row of ``_christoffel_rows``.  A
singular or non-finite solve is re-run through ``_christoffel_rows``, which
raises its error.  ``in_blocks`` walks samples in blocks of
``BLOCK_POINTS`` and re-runs a failing block through the same stacked pass,
one sample at a time, as blocks of one; ``cd_verify``, the geodesic
post-passes and ``geometry_field`` evaluate through it and have no
per-sample code.  ``simpson`` and ``cumulative_simpson`` are the composite
Simpson rules of ``scipy.integrate``, with its operations in its order.

Results are bit-identical to evaluating every tensor at one point on its
own.  Only elementwise array operations, the stacked solve, einsum
contractions with a batch axis and stacked matrix products (the same BLAS
call per matrix) run across points, and a manifest expression's block form
is made of such operations, with its calls and powers per element.  Two
more stacked calls run across points, each measured bit-equal to its
per-point call: a sphere fiber's |y|^2 (one ``np.vecdot``, the BLAS dot
product of one row; ``SphereFiber.rows``) and the Cholesky factorization up
to dimension 4 (``BlockGeometry.chol``).  Other fiber scalars, reductions
within a row and the other LAPACK calls run once per point, with ``math``
and not numpy ufuncs, which round differently on some inputs.  The minimum
of the shipped sphere grid is a four-way exact tie a few ulps below its
neighbours, so any change in rounding can move the reported witness.

Everything here is a pure function of immutable specs and is safe to call
concurrently; a ``BlockGeometry`` belongs to the one call that made it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np
from scipy.linalg.lapack import dgesv as _gesv, dpotrf as _potrf, dpotrs as _potrs

from .errors import ChartDomain, NonFinite, SingularMetric

Point = np.ndarray

SYMMETRY_TOL = 1e-12

#: Points (or samples) per stacked pass: enough to spread the fixed cost of a
#: pass, few enough that a block's stacks stay small.
BLOCK_POINTS = 256


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


@dataclass(frozen=True)
class FDSteps:
    """Base finite-difference steps, scaled per coordinate by max(1, |x|)."""

    h1: float = 1e-5
    h2: float = 1e-4
    h3: float = 1e-3

    def scaled(self, p: Point, base: float) -> np.ndarray:
        return base * np.maximum(1.0, np.abs(p))


@dataclass(frozen=True)
class MetricSpec:
    """A chart metric: dimension, components, analytic partials, optional extras.

    ``partials`` returns ``D[k, i, j] = d_k g_ij``; every chart carries them
    (manifests by symbolic differentiation), and ``partials_discrepancy``
    checks them against central differences of ``g``.  ``domain`` is an
    ``(n, 2)`` array of closed coordinate bounds; stencil points outside it
    raise ChartDomain.  ``rows`` (optional) maps a (k, n) array of points to
    the raw ``g`` and ``D`` at every row, (k, n, n) and (k, n, n, n), bit for
    bit what ``g`` and ``partials`` return row by row, so that stencils are
    evaluated in one call.
    """

    dim: int
    g: Callable[[Point], np.ndarray]
    partials: Callable[[Point], np.ndarray]
    domain: np.ndarray | None = None
    name: str = ""
    coord_names: tuple[str, ...] | None = None
    fd: FDSteps = field(default_factory=FDSteps)
    rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

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


def r_coordinate_field(n: int, sign: float = 1.0) -> ScalarField:
    """``sign`` times the first coordinate of an n-dimensional chart (the
    r of a product chart), with its constant partials."""
    e0 = np.eye(n)[0]
    return ScalarField(value=lambda q: sign * q[0], grad=lambda q: sign * e0,
                       hess=lambda q: np.zeros((n, n)))


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

def in_domain(spec: MetricSpec, p: Point, radius: np.ndarray | float = 0.0) -> bool:
    """Whether the box p +- radius lies inside spec.domain (always, without one)."""
    if spec.domain is None:
        return True
    lo, hi = spec.domain[:, 0], spec.domain[:, 1]
    return not (np.any(p - radius < lo) or np.any(p + radius > hi))


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
    1e-12 componentwise) and symmetrize them; a failing point is named."""
    _finite_rows(raw, "metric", pts)
    rawT = raw.swapaxes(1, 2)
    asym = np.abs(raw - rawT)
    if asym.max() > SYMMETRY_TOL:
        i = int(np.argmax(asym.reshape(len(raw), -1).max(axis=1) > SYMMETRY_TOL))
        raise ValueError(f"metric at {pts[i]} is not symmetric to {SYMMETRY_TOL:g}")
    return 0.5 * (raw + rawT)


def metric_at(spec: MetricSpec, p: Point) -> np.ndarray:
    """Evaluate and validate g(p): finite, symmetric to 1e-12 componentwise."""
    return BlockGeometry.at(spec, p).g[0]


def inverse_metric(spec: MetricSpec, p: Point) -> np.ndarray:
    """Inverse metric components via Cholesky; SingularMetric on failure."""
    return BlockGeometry.at(spec, p).ginv[0]


def partials_discrepancy(spec: MetricSpec, p: Point) -> float:
    """Debug check: max |analytic - finite difference| over metric partials."""
    pts = as_point(p, spec.dim)[None]
    steps = spec.fd.scaled(pts, spec.fd.h1)
    metric = geometry_field(spec, lambda at: at.g)
    fd = first_difference(stencil_values(metric, pts, steps, 1), steps)[0]
    return float(np.max(np.abs(fd - spec.partials(pts[0]))))


def _stacked(spec: MetricSpec, k: int) -> bool:
    """Whether k rows go through the chart's stacked row function.  A single
    row, as at a lone point, goes through ``g`` and ``partials``, which cost
    less than the stacked function's fixed overhead."""
    return spec.rows is not None and k > 1


def _metric_rows(spec: MetricSpec, pts: np.ndarray):
    """Raw g and partials D at each row of ``pts``: (k, n, n) and (k, n, n, n),
    in one call of the chart's stacked row function, or row by row."""
    if _stacked(spec, len(pts)):
        return spec.rows(pts)
    k, n = pts.shape
    g_fn, part_fn = spec.g, spec.partials
    gs = np.empty((k, n, n))
    D = np.empty((k, n, n, n))
    for i, q in enumerate(pts):
        gs[i] = g_fn(q)
        D[i] = part_fn(q)
    return gs, D


def field_rows(fn, pts: np.ndarray) -> np.ndarray:
    """``fn`` at each row of ``pts``, stacked: in one call of ``fn.rows``
    when the callable has one (a manifest expression's), else row by row."""
    rows = getattr(fn, "rows", None)
    if rows is not None:
        return rows(pts)
    return np.array([fn(p) for p in pts], dtype=float)


def _lowered(D: np.ndarray) -> np.ndarray:
    """M[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij from D[..., k, i, j] = d_k g_ij."""
    if D.ndim == 3:
        return D.transpose(2, 0, 1) + D.transpose(2, 1, 0) - D
    return D.transpose(0, 3, 1, 2) + D.transpose(0, 3, 2, 1) - D


# ---------------------------------------------------------------------------
# block geometry
# ---------------------------------------------------------------------------

def in_blocks(count: int, size: int, stacked) -> np.ndarray:
    """The values of samples 0 .. count-1, evaluated in blocks of ``size``.

    ``stacked(s)`` returns the values of the samples in slice ``s``, one
    entry per sample, in one stacked pass.  When anything in a block fails,
    it is evaluated again by ``stacked(slice(i, i + 1))``, one sample at a
    time and in order, as blocks of one (``BlockGeometry``), so the first
    failing sample raises the error, and emits the numpy warnings, it does
    alone.  Floating-point conditions the caller has numpy report become
    errors in a stacked pass, so their warnings come from that re-run.
    """
    reported = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
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
    return np.concatenate(blocks)


def geometry_field(spec: MetricSpec, of) -> Callable[[Point], np.ndarray]:
    """The field with values ``of(geometry)`` at a ``BlockGeometry``'s points,
    such as |grad h|^2.  ``rows(P)`` evaluates P as one geometry, re-run one
    row at a time when it fails (``in_blocks``), so the first failing row
    raises, and warns, as that point alone."""

    def rows(P: np.ndarray) -> np.ndarray:
        return in_blocks(len(P), len(P), lambda s: of(BlockGeometry(spec, P[s])))

    def value(p: Point) -> np.ndarray:
        return rows(as_point(p, spec.dim)[None])[0]

    value.rows = rows
    return value


class BlockGeometry:
    """The chart calculus at a block of chart points, shared by the tensors built there.

    ``pts`` is a (B, n) array of chart points.  ``g`` (validated and
    symmetrized), its Cholesky factor ``chol``, the inverse ``ginv``, the
    partials ``D``, the Christoffel symbols, the Ricci tensor and the
    gradient of each field are each evaluated on first use and then reused;
    every tensor carries a leading axis of length B.
    ``BlockGeometry.at(spec, p)`` is the block of one behind the per-point
    functions of this module.  Every slice is bit-identical to the same
    tensor built at that point alone (see the module docstring).  A failed
    check names a point of the block that fails it; in a block of one,
    evaluations and checks run in the order, and with the messages, of a
    point evaluated on its own.
    """

    def __init__(self, spec: MetricSpec, pts):
        self.spec = spec
        self.pts = _as_points(pts, spec.dim)
        self._evaluated = {}

    @classmethod
    def at(cls, spec: MetricSpec, p: Point) -> "BlockGeometry":
        return cls(spec, as_point(p, spec.dim)[None, :])

    @cached_property
    def _raw(self):
        # raw g at the points, with raw D when the stacked row function gives
        # both; g is row 0 of every Ricci stencil, and D is checked as ``D``
        spec, n = self.spec, self.spec.dim
        if _stacked(spec, len(self.pts)):
            return spec.rows(self.pts)
        gs = field_rows(spec.g, self.pts)
        if gs.shape[1:] != (n, n):
            raise ValueError(f"metric returned shape {gs.shape[1:]}, expected ({n}, {n})")
        return gs, None

    @cached_property
    def g(self) -> np.ndarray:
        return _checked_metric(self._raw[0], self.pts)

    @cached_property
    def chol(self) -> np.ndarray:
        """The lower Cholesky factor of ``g`` at each point, in the lower
        triangle; the upper triangle is not part of the factor.

        Up to dimension 4 the whole stack is one ``np.linalg.cholesky`` call.
        On an AVX-512 Xeon, with numpy 2.4.6 (OpenBLAS 0.3.31) and scipy
        1.17.1 (OpenBLAS 0.3.30), its factors were bit-equal to scipy's
        ``potrf`` on each matrix for 200,000 random SPD matrices per
        dimension, with condition numbers up to 1e13.  From dimension 5 on
        they differed in the last bits on about one matrix in seven, so
        there the factors stay one ``potrf`` call per point.  When the
        stacked call fails, the per-point calls run and name the first point
        that is not positive definite.  At a single point, any failure to
        evaluate ``g`` here is reported as SingularMetric, as this
        positivity gate always has."""
        try:
            g = self.g
        except Exception as exc:
            if len(self.pts) > 1:
                raise
            raise SingularMetric(
                f"metric at {self.pts[0]} is not positive definite: {exc}") from exc
        if g.shape[-1] <= 4:
            try:
                return np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                pass
        out = np.empty_like(g)
        for i, a in enumerate(g):
            c, info = _potrf(a, lower=1, clean=0, overwrite_a=0)
            if info != 0:
                raise SingularMetric(f"metric at {self.pts[i]} is not positive definite")
            out[i] = c
        return out

    @cached_property
    def ginv(self) -> np.ndarray:
        eye = np.eye(self.spec.dim)
        inv = np.empty_like(self.chol)
        for i, c in enumerate(self.chol):
            inv[i] = _potrs(c, eye, lower=1, overwrite_b=0)[0]
        return 0.5 * (inv + inv.swapaxes(1, 2))

    @cached_property
    def D(self) -> np.ndarray:
        """The analytic partials ``D[b, k, i, j] = d_k g_ij``, checked finite."""
        spec, pts = self.spec, self.pts
        D = self._raw[1] if _stacked(spec, len(pts)) else field_rows(spec.partials, pts)
        if D.shape[1:] != (spec.dim,) * 3:
            raise ValueError(f"metric partials returned shape {D.shape[1:]}")
        return _finite_rows(D, "metric partials", pts)

    @cached_property
    def christoffel(self) -> np.ndarray:
        return 0.5 * np.einsum("bkl,blij->bkij", self.ginv, _lowered(self.D))

    @cached_property
    def ricci(self) -> np.ndarray:
        spec, pts = self.spec, self.pts
        B, n = pts.shape
        steps = spec.fd.scaled(pts, spec.fd.h1)
        _check_domains(spec, pts, steps)
        self.chol  # positivity gate, once per point; christoffel reuses the factor
        g0, D0 = self._raw[0], self.D
        # stencil rows per point: p, then its first-order stencil
        rows = stencil_rows(pts, steps, 1)
        g1, D1 = _metric_rows(spec, rows.reshape(B * 2 * n, n))
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
        (default ``h1``); once per field and step."""
        f = as_scalar_field(f)
        if f.grad is not None:
            return self.evaluated(f.grad, "gradient")
        spec, pts = self.spec, self.pts
        base = step if step is not None else spec.fd.h1
        key = (f.value, base)
        if key not in self._evaluated:
            steps = spec.fd.scaled(pts, base)
            _check_domains(spec, pts, steps)
            dF = first_difference(stencil_values(f.value, pts, steps, 1), steps)
            self._evaluated[key] = _finite_rows(dF, "finite-difference gradient", pts)
        return self._evaluated[key]

    def gradient_vector(self, f) -> np.ndarray:
        """The metric gradient (nabla f)^i = g^{ij} d_j f at each point."""
        ginv = self.ginv
        return np.array([gi @ df for gi, df in zip(ginv, self.gradient(f))])

    def grad_norm_squared(self, f) -> np.ndarray:
        """|grad f|^2_g = g^{ij} d_i f d_j f at each point."""
        df = self.gradient(f)
        return np.array([float(d @ gi @ d) for d, gi in zip(df, self.ginv)])

    def hessian(self, f, step: float | None = None) -> np.ndarray:
        spec, pts = self.spec, self.pts
        fd = spec.fd
        f = as_scalar_field(f)
        base = step if step is not None else fd.h2
        if f.hess is not None:
            raw = field_rows(f.hess, pts)
        else:
            steps = fd.scaled(pts, base)
            _check_domains(spec, pts, 2.0 * steps)
            raw = second_difference(stencil_values(f.value, pts, steps, 2), steps)
        df = self.gradient(f, step=base if f.grad is None else None)
        H = raw - np.einsum("bkij,bk->bij", self.christoffel, df)
        _finite_rows(H, "Hessian", pts)
        return 0.5 * (H + H.swapaxes(1, 2))

    def weighted_laplacian(self, density: DensitySpec, h, step: float | None = None) -> np.ndarray:
        """``weighted_laplacian`` at each point; ``step`` is the base step of
        whatever of h is differenced."""
        pts = self.pts
        ginv = self.ginv
        H = self.hessian(h, step)
        lap = [float(np.sum(gi * Hi)) for gi, Hi in zip(ginv, H)]
        dh = self.gradient(h, step)
        if isinstance(density, ScalarField):
            df = self.gradient(density)
            drift = [float(a @ gi @ b) for a, gi, b in zip(df, ginv, dh)]
        elif isinstance(density, VectorField):
            X = self.evaluated(density.value, "vector field")
            drift = [float(x @ b) for x, b in zip(X, dh)]
        else:
            raise TypeError(f"expected a scalar or vector density, got {type(density)!r}")
        out = np.array([a - b for a, b in zip(lap, drift)])
        if not np.isfinite(out).all():
            raise NonFinite(f"weighted Laplacian at {pts[int(np.argmin(np.isfinite(out)))]}")
        return out

    def lie_derivative(self, X: VectorField) -> np.ndarray:
        spec, pts = self.spec, self.pts
        g = self.g
        D = self.D
        Xv = self.evaluated(X.value, "vector field")
        steps = spec.fd.scaled(pts, spec.fd.h1)
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

    All rows go through one ``np.linalg.solve`` over the (k, n, n) stack.
    numpy runs the same LAPACK call on each matrix of a stack, so every slice
    is bit-identical to a solve at that point alone.  When the solve fails or
    gives a non-finite result, the first failing row is named, as a
    point-by-point sweep would name it.
    """
    k, n = pts.shape
    M = _lowered(D).reshape(k, n, n * n)
    try:
        out = 0.5 * np.linalg.solve(gs, M)
        ok = bool(np.all(np.isfinite(out)))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        for q, g, m in zip(pts, gs, M):
            try:
                sol = 0.5 * np.linalg.solve(g, m)
            except np.linalg.LinAlgError as exc:
                raise SingularMetric(f"metric at {q} is not invertible") from exc
            if not np.all(np.isfinite(sol)):
                raise NonFinite(f"Christoffel symbols at {q}")
    return out.reshape(k, n, n, n)


def gamma_evaluator(spec: MetricSpec):
    """Christoffel closure for hot loops (integrators, stencil sweeps).

    Skips the per-call point validation and Cholesky positivity check of
    ``christoffel``; callers validate the metric once at their entry point.
    Each call evaluates ``g`` and the partials at its one point and solves
    with one LAPACK ``gesv`` call, the one ``np.linalg.solve`` makes, so the
    result is bit-equal to the point's row of ``_christoffel_rows``.  A
    singular or non-finite solve is re-run through ``_christoffel_rows``,
    which raises its error.
    """
    n = spec.dim
    g_fn, part_fn = spec.g, spec.partials

    def gamma(p: Point) -> np.ndarray:
        g = g_fn(p)
        D = part_fn(p)
        x, info = _gesv(g, _lowered(D).reshape(n, n * n))[2:]
        out = 0.5 * x
        if info != 0 or not np.isfinite(out).all():
            return _christoffel_rows(p[None], g[None], D[None])[0]
        return out.reshape(n, n, n)

    return gamma


def christoffel(spec: MetricSpec, p: Point) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of the Levi-Civita connection.

    Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), symmetric in
    the lower pair.  Raises SingularMetric if g(p) is not invertible and
    NonFinite if any derivative evaluation is NaN/Inf.
    """
    return BlockGeometry.at(spec, p).christoffel[0]


def ricci_numeric(spec: MetricSpec, p: Point) -> np.ndarray:
    """Ricci tensor in chart components by finite-differencing Christoffels;
    the result is symmetrized to remove finite-difference noise.  The
    Christoffel symbols come from the analytic partials, so they carry no
    differencing noise, and the derivative takes the first-derivative step
    h1, which keeps its truncation error small."""
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


def scalar_gradient(spec: MetricSpec, f, p: Point, *, step: float | None = None) -> np.ndarray:
    """Coordinate partials d_i f at p (analytic when the field carries them)."""
    return BlockGeometry.at(spec, p).gradient(f, step)[0]


def gradient_vector(spec: MetricSpec, f, p: Point) -> np.ndarray:
    """Metric gradient (nabla f)^i = g^{ij} d_j f."""
    return BlockGeometry.at(spec, p).gradient_vector(f)[0]


def hessian_scalar(spec: MetricSpec, f, p: Point, *, step: float | None = None) -> np.ndarray:
    """Covariant Hessian (Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f, with the
    analytic raw partials when supplied, else ``second_difference``."""
    return BlockGeometry.at(spec, p).hessian(f, step)[0]


def lie_derivative_metric(spec: MetricSpec, X: VectorField, p: Point) -> np.ndarray:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k."""
    return BlockGeometry.at(spec, p).lie_derivative(X)[0]


def weighted_laplacian(spec: MetricSpec, density: DensitySpec, h, p: Point,
                       *, step: float | None = None) -> float:
    """Weighted Laplacian of h: trace_g Hess h minus the density drift.

    For a scalar density f the drift is g(grad f, grad h); for a vector
    density X it is the directional derivative X(h).
    """
    return float(BlockGeometry.at(spec, p).weighted_laplacian(density, h, step)[0])


def grad_norm_squared(spec: MetricSpec, f, p: Point) -> float:
    """|grad f|^2_g = g^{ij} d_i f d_j f."""
    return float(BlockGeometry.at(spec, p).grad_norm_squared(f)[0])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------
# The composite Simpson rules of scipy.integrate (1.17.1) for 1-d samples at
# given abscissae, with its elementwise operations in its order, so results
# are bit-equal to ``simpson(y, x=x)`` and
# ``cumulative_simpson(y, x=x, initial=0.0)``.

def _simpson_pairs(y: np.ndarray, h: np.ndarray, stop: int):
    """Simpson's rule over the interval pairs of y[:stop + 2] with spacings h."""
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    tmp = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - np.true_divide(1.0, h0divh1, out=np.zeros_like(h0divh1),
                                            where=h0divh1 != 0))
        + y[1:stop + 1:2] * (hsum * np.true_divide(hsum, hprod, out=np.zeros_like(hsum),
                                                   where=hprod != 0))
        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Integral of the samples y at the points x by the composite Simpson
    rule; an even count of samples ends with Cartwright's correction for the
    last interval, two samples with the trapezoid."""
    N = len(y)
    if N % 2 == 1:
        return _simpson_pairs(y, np.diff(x), N - 2)
    if N == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    result = _simpson_pairs(y, np.diff(x), N - 3)
    diffs = np.float64(np.diff(x))
    h0, h1 = np.squeeze(diffs[-2:-1]), np.squeeze(diffs[-1:])
    den = 6 * (h1 + h0)
    alpha = np.true_divide(2 * h1 ** 2 + 3 * h0 * h1, den, out=np.zeros_like(den),
                           where=den != 0)
    den = 6 * h0
    beta = np.true_divide(h1 ** 2 + 3.0 * h0 * h1, den, out=np.zeros_like(den),
                          where=den != 0)
    den = 6 * h0 * (h0 + h1)
    eta = np.true_divide(1 * h1 ** 3, den, out=np.zeros_like(den), where=den != 0)
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
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
