"""Chart-based numerical tensor calculus.

All geometry lives in a single coordinate chart: a metric is a callable
returning the symmetric matrix of components ``g_ij(p)`` at a chart point,
and every derived object (Christoffel symbols, Ricci tensor, Hessians, Lie
derivatives, weighted Laplacians) is computed from it by central finite
differences, or from user-supplied analytic partials when available.

Conventions
-----------
* A chart point is a plain 1-d ``numpy`` array of length ``n`` (finite
  entries).  ``as_point`` validates and copies.
* A bilinear form is a plain symmetric ``(n, n)`` array.
* Metric partials are stored derivative-index first:
  ``D[k, i, j] = d g_ij / d x^k``.
* Finite-difference steps scale with the coordinate magnitude:
  first derivatives use ``h1 * max(1, |x_k|)``, plain second derivatives
  ``h2 * max(1, |x_k|)``, and derivatives of derived fields (third-order
  content) ``h3 * max(1, |x_k|)``.

Evaluation path
---------------
``PointGeometry`` holds the metric data at one point (``g``, its Cholesky
factor, the inverse metric, the partials ``D``), each evaluated on first use
and then shared by the tensors built there; the public per-point functions
are thin wrappers over it.  ``ricci_numeric`` takes the Christoffel symbols
at its 2n+1 stencil points from one ``np.linalg.solve`` over the stack of
metrics (``_gamma_stack``), and ``gamma_evaluator`` is the batch-of-one case
of the same function.  Error messages name their point, but format it only
when they are raised.

Results are bit-identical to evaluating every tensor on its own.  That is
why manifest expressions are evaluated with ``math`` on one point at a time
and not with numpy ufuncs, which round differently on some inputs: the
minimum of the shipped sphere grid is a four-way exact tie a few ulps below
its neighbours, so any change in rounding can move the reported witness.

Everything here is a pure function of immutable specs and is safe to call
concurrently; a ``PointGeometry`` belongs to the one call that made it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ChartDomain, NonFinite, SingularMetric

Point = np.ndarray

SYMMETRY_TOL = 1e-12


def as_point(coords, dim: int | None = None) -> Point:
    """Validate chart coordinates: 1-d, finite, optionally of length ``dim``."""
    p = np.atleast_1d(np.asarray(coords, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"chart point must be 1-d, got shape {p.shape}")
    if dim is not None and p.size != dim:
        raise ValueError(f"chart point has {p.size} coordinates, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise NonFinite(f"chart point has non-finite coordinates: {p}")
    return p


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
    """A chart metric: dimension, component callable, optional extras.

    ``partials`` (when given) must return ``D[k, i, j] = d_k g_ij`` and is
    used instead of finite differences.  ``domain`` is an ``(n, 2)`` array of
    closed coordinate bounds; stencil points outside it raise ChartDomain.
    """

    dim: int
    g: Callable[[Point], np.ndarray]
    partials: Callable[[Point], np.ndarray] | None = None
    domain: np.ndarray | None = None
    name: str = ""
    coord_names: tuple[str, ...] | None = None
    fd: FDSteps = field(default_factory=FDSteps)

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


@dataclass(frozen=True)
class VectorField:
    """A vector field by components ``X^i``; ``jacobian(p)[i, j] = d_j X^i``."""

    value: Callable[[Point], np.ndarray]
    jacobian: Callable[[Point], np.ndarray] | None = None


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


def check_domain(spec: MetricSpec, p: Point, radius: np.ndarray | float = 0.0) -> None:
    """Raise ChartDomain unless the box p +- radius lies inside spec.domain."""
    if not in_domain(spec, p, radius):
        raise ChartDomain(
            f"stencil around {p} (radius {np.max(radius):.3g}) leaves chart domain of "
            f"{spec.name or 'metric'}"
        )


def _finite(x, what: str, p):
    """Return x, or raise NonFinite naming ``what`` at ``p``.  The point is
    formatted only when the error is raised: formatting an array costs more
    than the check itself."""
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"non-finite values in {what} at {p}")
    return x


def first_partials(fn: Callable[[Point], np.ndarray], p: Point, steps: np.ndarray) -> np.ndarray:
    """Central differences d_k fn(p); output shape (n, *shape(fn))."""
    cols = []
    for k in range(p.size):
        h = steps[k]
        pp = p.copy()
        pm = p.copy()
        pp[k] += h
        pm[k] -= h
        cols.append((np.asarray(fn(pp), dtype=float) - np.asarray(fn(pm), dtype=float)) / (2.0 * h))
    return np.stack(cols)


def second_partials(fn: Callable[[Point], float], p: Point, steps: np.ndarray) -> np.ndarray:
    """Raw second partials d_i d_j fn: 5-point stencils on the diagonal,
    4-point cross stencils off it."""
    n = p.size
    out = np.empty((n, n))
    f0 = float(fn(p))
    for i in range(n):
        h = steps[i]
        vals = []
        for s in (-2.0, -1.0, 1.0, 2.0):
            q = p.copy()
            q[i] += s * h
            vals.append(float(fn(q)))
        fm2, fm1, fp1, fp2 = vals
        out[i, i] = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    for i in range(n):
        for j in range(i + 1, n):
            hi, hj = steps[i], steps[j]
            acc = 0.0
            for si, sj, w in ((1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0)):
                q = p.copy()
                q[i] += si * hi
                q[j] += sj * hj
                acc += w * float(fn(q))
            out[i, j] = out[j, i] = acc / (4.0 * hi * hj)
    return out


# ---------------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------------

def metric_at(spec: MetricSpec, p: Point) -> np.ndarray:
    """Evaluate and validate g(p): finite, symmetric to 1e-12 componentwise."""
    p = as_point(p, spec.dim)
    g = np.asarray(spec.g(p), dtype=float)
    if g.shape != (spec.dim, spec.dim):
        raise ValueError(f"metric returned shape {g.shape}, expected ({spec.dim}, {spec.dim})")
    _finite(g, "metric", p)
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOL:
        raise ValueError(f"metric at {p} is not symmetric to {SYMMETRY_TOL:g}")
    return 0.5 * (g + g.T)


def inverse_metric(spec: MetricSpec, p: Point) -> np.ndarray:
    """Inverse metric components via Cholesky; SingularMetric on failure."""
    return PointGeometry(spec, p).ginv


def metric_partials_at(spec: MetricSpec, p: Point) -> np.ndarray:
    """D[k, i, j] = d_k g_ij, analytic when supplied, else central differences."""
    p = as_point(p, spec.dim)
    if spec.partials is not None:
        D = np.asarray(spec.partials(p), dtype=float)
        if D.shape != (spec.dim,) * 3:
            raise ValueError(f"metric partials returned shape {D.shape}")
        return _finite(D, "metric partials", p)
    steps = spec.fd.scaled(p, spec.fd.h1)
    check_domain(spec, p, steps)
    D = first_partials(lambda q: metric_at(spec, q), p, steps)
    return _finite(D, "finite-difference metric partials", p)


def partials_discrepancy(spec: MetricSpec, p: Point) -> float:
    """Debug check: max |analytic - finite difference| over metric partials."""
    if spec.partials is None:
        return 0.0
    p = as_point(p, spec.dim)
    steps = spec.fd.scaled(p, spec.fd.h1)
    fd = first_partials(lambda q: metric_at(spec, q), p, steps)
    return float(np.max(np.abs(fd - spec.partials(p))))


class PointGeometry:
    """The metric data at one chart point, shared by the tensors built there.

    ``g`` (validated and symmetrized), its Cholesky factor ``chol``, the
    inverse ``ginv`` and the partials ``D`` are each evaluated on first use
    and then reused.  A first use happens exactly where a tensor evaluated
    on its own would evaluate the item, so sharing changes neither the
    values nor which error is raised first.
    """

    def __init__(self, spec: MetricSpec, p: Point):
        self.spec = spec
        self.p = as_point(p, spec.dim)

    @cached_property
    def g(self) -> np.ndarray:
        return metric_at(self.spec, self.p)

    @cached_property
    def chol(self):
        try:
            return cho_factor(self.g, lower=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises its own
            raise SingularMetric(f"metric at {self.p} is not positive definite") from exc
        except Exception as exc:
            raise SingularMetric(f"metric at {self.p} is not positive definite: {exc}") from exc

    @cached_property
    def ginv(self) -> np.ndarray:
        ginv = cho_solve(self.chol, np.eye(self.spec.dim))
        return 0.5 * (ginv + ginv.T)

    @cached_property
    def D(self) -> np.ndarray:
        return metric_partials_at(self.spec, self.p)

    def christoffel(self) -> np.ndarray:
        ginv = self.ginv
        D = self.D
        M = np.transpose(D, (2, 0, 1)) + np.transpose(D, (2, 1, 0)) - D
        return 0.5 * np.einsum("kl,lij->kij", ginv, M)

    def ricci(self) -> np.ndarray:
        spec, p, n = self.spec, self.p, self.spec.dim
        steps = spec.fd.scaled(p, spec.fd.h1 if spec.partials is not None else spec.fd.h2)
        inner = spec.fd.scaled(p, spec.fd.h1) if spec.partials is None else 0.0
        check_domain(spec, p, 2.0 * steps + 2.0 * np.asarray(inner))
        self.chol  # positivity gate, once per point; christoffel reuses the factor
        # rows: p, then p + h_d e_d and p - h_d e_d for each axis d
        stencil = np.repeat(p[None, :], 2 * n + 1, axis=0)
        for d in range(n):
            stencil[2 * d + 1, d] += steps[d]
            stencil[2 * d + 2, d] -= steps[d]
        gammas = _gamma_stack(spec, stencil)
        G = gammas[0]
        dG = (gammas[1::2] - gammas[2::2]) / (2.0 * steps)[:, None, None, None]
        t1 = np.einsum("mmvs->sv", dG)
        t2 = np.einsum("vmms->sv", dG)
        t3 = np.einsum("mml,lvs->sv", G, G)
        t4 = np.einsum("mvl,lms->sv", G, G)
        ric = t1 - t2 + t3 - t4
        _finite(ric, "Ricci tensor", p)
        return 0.5 * (ric + ric.T)

    def hessian(self, f, step: float | None = None) -> np.ndarray:
        spec, p = self.spec, self.p
        f = as_scalar_field(f)
        base = step if step is not None else spec.fd.h2
        if f.hess is not None:
            raw = np.asarray(f.hess(p), dtype=float)
        elif f.grad is not None:
            steps = spec.fd.scaled(p, spec.fd.h1 if step is None else step)
            check_domain(spec, p, steps)
            J = first_partials(lambda q: np.asarray(f.grad(q), dtype=float), p, steps)
            raw = 0.5 * (J + J.T)
        else:
            steps = spec.fd.scaled(p, base)
            check_domain(spec, p, 2.0 * steps)
            raw = second_partials(lambda q: float(f.value(q)), p, steps)
        df = scalar_gradient(spec, f, p, step=base if f.grad is None else None)
        G = self.christoffel()
        H = raw - np.einsum("kij,k->ij", G, df)
        _finite(H, "Hessian", p)
        return 0.5 * (H + H.T)

    def lie_derivative(self, X: VectorField) -> np.ndarray:
        spec, p = self.spec, self.p
        g = self.g
        D = self.D
        Xv = _finite(np.asarray(X.value(p), dtype=float), "vector field", p)
        if X.jacobian is not None:
            J = np.asarray(X.jacobian(p), dtype=float)
        else:
            steps = spec.fd.scaled(p, spec.fd.h1)
            check_domain(spec, p, steps)
            J = first_partials(lambda q: np.asarray(X.value(q), dtype=float), p, steps).T
        _finite(J, "vector field Jacobian", p)
        out = np.einsum("k,kij->ij", Xv, D) + g.T @ J + (g.T @ J).T
        return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------

def _gamma_stack(spec: MetricSpec, pts: np.ndarray) -> np.ndarray:
    """Christoffel symbols at each row of ``pts``, shape (k, n, n, n).

    The raw components g(q) and partials D(q) of every row go through one
    ``np.linalg.solve`` over the (k, n, n) stack.  numpy runs the same LAPACK
    call on each matrix of a stack, so every slice is bit-identical to a
    solve at that point alone.  When the solve fails or gives a non-finite
    result, the first failing row is named, as a point-by-point sweep would
    name it.  All rows are evaluated before any is solved, so an exception
    from ``spec.g`` or ``spec.partials`` at a later row wins over a failed
    solve at an earlier one.
    """
    k, n = pts.shape
    g_fn, part_fn, fd = spec.g, spec.partials, spec.fd
    gs = np.empty((k, n, n))
    D = np.empty((k, n, n, n))
    for i, q in enumerate(pts):
        gs[i] = g_fn(q)
        if part_fn is not None:
            D[i] = part_fn(q)
        else:
            D[i] = first_partials(lambda x: np.asarray(g_fn(x), dtype=float), q,
                                  fd.scaled(q, fd.h1))
    M = (np.transpose(D, (0, 3, 1, 2)) + np.transpose(D, (0, 3, 2, 1)) - D).reshape(k, n, n * n)
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
    """

    def gamma(p: Point) -> np.ndarray:
        return _gamma_stack(spec, p[None, :])[0]

    return gamma


def christoffel(spec: MetricSpec, p: Point) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of the Levi-Civita connection.

    Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), symmetric in
    the lower pair.  Raises SingularMetric if g(p) is not invertible and
    NonFinite if any derivative evaluation is NaN/Inf.
    """
    return PointGeometry(spec, p).christoffel()


def ricci_numeric(spec: MetricSpec, p: Point) -> np.ndarray:
    """Ricci tensor in chart components by finite-differencing Christoffels.

    Builds R^l_ijk from Gamma and its central-difference derivatives and
    contracts; the result is symmetrized to remove finite-difference noise.
    The Christoffel symbols at p and at its 2n stencil neighbours come from
    one stacked solve.  The step for the outer Gamma derivative depends on
    how Gamma is obtained: analytic metric partials give a clean Gamma, so
    the finer first-derivative step minimizes truncation; finite-differenced
    Gamma carries noise that the coarser second-derivative step must absorb.
    """
    return PointGeometry(spec, p).ricci()


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
    f = as_scalar_field(f)
    p = as_point(p, spec.dim)
    if f.grad is not None:
        return _finite(np.asarray(f.grad(p), dtype=float), "gradient", p)
    steps = spec.fd.scaled(p, step if step is not None else spec.fd.h1)
    check_domain(spec, p, steps)
    g = first_partials(lambda q: float(f.value(q)), p, steps)
    return _finite(g, "finite-difference gradient", p)


def gradient_vector(spec: MetricSpec, f, p: Point) -> np.ndarray:
    """Metric gradient (nabla f)^i = g^{ij} d_j f."""
    return inverse_metric(spec, p) @ scalar_gradient(spec, f, p)


def hessian_scalar(spec: MetricSpec, f, p: Point, *, step: float | None = None) -> np.ndarray:
    """Covariant Hessian (Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f.

    Raw second partials come from the analytic Hessian when supplied, from
    central differences of an analytic gradient when only that is supplied,
    and from 5-point/cross stencils of the values otherwise.
    """
    return PointGeometry(spec, p).hessian(f, step)


def lie_derivative_metric(spec: MetricSpec, X: VectorField, p: Point) -> np.ndarray:
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k."""
    return PointGeometry(spec, p).lie_derivative(X)


def weighted_laplacian(spec: MetricSpec, density: DensitySpec, h, p: Point,
                       *, step: float | None = None) -> float:
    """Weighted Laplacian of h: trace_g Hess h minus the density drift.

    For a scalar density f the drift is g(grad f, grad h); for a vector
    density X it is the directional derivative X(h).
    """
    p = as_point(p, spec.dim)
    ginv = inverse_metric(spec, p)
    H = hessian_scalar(spec, h, p, step=step)
    lap = float(np.sum(ginv * H))
    dh = scalar_gradient(spec, h, p, step=step)
    if isinstance(density, ScalarField):
        df = scalar_gradient(spec, density, p)
        drift = float(df @ ginv @ dh)
    elif isinstance(density, VectorField):
        Xv = np.asarray(density.value(p), dtype=float)
        drift = float(Xv @ dh)
    else:
        raise TypeError(f"expected a scalar or vector density, got {type(density)!r}")
    out = lap - drift
    if not np.isfinite(out):
        raise NonFinite(f"weighted Laplacian at {p}")
    return out


def grad_norm_squared(spec: MetricSpec, f, p: Point) -> float:
    """|grad f|^2_g = g^{ij} d_i f d_j f."""
    df = scalar_gradient(spec, f, p)
    return float(df @ inverse_metric(spec, p) @ df)
