"""Generalized Ricci tensors and curvature-dimension verdicts.

The generalized Ricci tensor of a metric with scalar density f and
dimension parameter N (finite or +inf, N != n) is

    Ric + Hess f - (df (x) df) / (N - n),

with the last term dropped at N = +inf.  For a vector density X the Hessian
is replaced by half the Lie derivative of the metric and df by the dual
1-form of X.  The CD(lambda, N) condition asks this tensor to dominate
lambda * g pointwise; ``cd_verify`` samples it over a grid and reports the
minimum relative eigenvalue with a witness point.  A grid "pass" means no
violation was found at the sampled points; it is never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .chart_core import (
    BLOCK_POINTS,
    BlockGeometry,
    DensitySpec,
    MetricSpec,
    Point,
    ScalarField,
    VectorField,
    _solve,
    in_blocks,
)
from .errors import DimensionClash, EmptyGrid, SingularMetric

if TYPE_CHECKING:
    from .warped_products import SplitSpaceSpec

TOL_CD = 1e-7

CD_CAVEAT = ("no violation found at sampled grid points; sampling is chart-local "
             "and does not certify the condition globally, and no completeness "
             "claim is made for the underlying metric")
CD_FAIL_CAVEAT = ("violation found at the witness grid point, up to finite-difference "
                  "error; sampling is chart-local, and the sampled minimum is not "
                  "certified to be the global one")


def _check_N(N: float, n: int) -> None:
    if not math.isinf(N) and N == n:
        raise DimensionClash(f"N = n = {n} leaves the N - n denominator zero")


def _gradient_form(at: BlockGeometry, f, N: float) -> np.ndarray:
    out = at.ricci + at.hessian(f)
    if not math.isinf(N):
        df = at.gradient(f)
        out = out - df[:, :, None] * df[:, None, :] / (N - at.spec.dim)
    return out


def _vector_form(at: BlockGeometry, X: VectorField, N: float) -> np.ndarray:
    out = at.ricci + 0.5 * at.lie_derivative(X)
    if not math.isinf(N):
        Xb = (at.g @ at.evaluated(X.value, "vector field")[:, :, None])[:, :, 0]
        out = out - Xb[:, :, None] * Xb[:, None, :] / (N - at.spec.dim)
    return out


def generalized_ricci_at(at: BlockGeometry, density: DensitySpec, N: float) -> np.ndarray:
    """The generalized Ricci tensor at each point of ``at``, from its shared
    Ricci tensor and metric data: Ric + Hess f - df (x) df / (N - n) for a
    scalar density f, Ric + (1/2) L_X g - Xb (x) Xb / (N - n) with
    Xb_i = g_ij X^j for a vector density X (N = inf drops the last term)."""
    _check_N(N, at.spec.dim)
    if isinstance(density, ScalarField):
        return _gradient_form(at, density, N)
    if isinstance(density, VectorField):
        return _vector_form(at, density, N)
    raise TypeError(f"expected a scalar or vector density, got {type(density)!r}")


def generalized_ricci(spec: MetricSpec, density: DensitySpec, N: float, p: Point) -> np.ndarray:
    """Dispatch on the density variant (scalar potential vs vector field)."""
    return generalized_ricci_at(BlockGeometry.at(spec, p), density, N)[0]


def min_relative_eigenvalue(form: np.ndarray, metric: np.ndarray) -> float:
    """Smallest mu with form v = mu metric v; `form >= lam * metric` iff
    the return value is >= lam.  The symmetrized metric is factored here, and
    the pair is then a stack of one for ``_min_relative_eigenvalues``, with
    its errors.  Non-finite input raises SingularMetric, and so does a metric
    that does not factor, naming its first leading minor that is not
    positive definite."""
    a = np.asarray(form, dtype=float)
    b = np.asarray(metric, dtype=float)
    b = 0.5 * (b + b.T)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise SingularMetric("non-finite generalized eigenproblem")
    try:
        L = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        k = next(k for k in range(1, len(b) + 1) if not _factors(b[:k, :k]))
        raise SingularMetric(
            f"metric factor not positive definite: leading minor of order {k}") from None
    return float(_min_relative_eigenvalues(a[None], L[None])[0])


def _factors(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _min_relative_eigenvalues(forms: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """The smallest relative eigenvalue of each form of a stack against the
    metric whose lower Cholesky factor L is the same entry of ``chol``: the
    smallest eigenvalue of C = L^-1 A L^-T, with A the symmetrized form,
    from two stacked solves (``_solve``) and one stacked
    ``np.linalg.eigvalsh``, the reduction the symmetric-definite generalized
    eigensolver makes.  A non-finite A or C and an eigensolve that does not
    converge raise SingularMetric."""
    a = 0.5 * (forms + forms.swapaxes(1, 2))
    if not np.all(np.isfinite(a)):
        raise SingularMetric("non-finite generalized eigenproblem")
    # L^-1 A, and then L^-1 (L^-1 A)^T = L^-1 A L^-T, as A is symmetric
    C = _solve(chol, _solve(chol, a).swapaxes(1, 2))
    if not np.all(np.isfinite(C)):
        raise SingularMetric("non-finite generalized eigenproblem")
    try:
        return np.linalg.eigvalsh(C)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"generalized eigensolve did not converge ({exc})") from None


# ---------------------------------------------------------------------------
# grids and CD reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    points: np.ndarray  # (k, n)
    description: str

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise EmptyGrid(f"grid '{self.description}' has no points")


def box_grid(bounds, counts, description: str | None = None) -> GridSpec:
    """Uniform box grid; bounds is (n, 2), counts one integer per axis."""
    bounds = np.asarray(bounds, dtype=float)
    axes = [np.linspace(lo, hi, int(c)) for (lo, hi), c in zip(bounds, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if description is None:
        description = "box grid " + " x ".join(
            f"[{lo:g},{hi:g}]:{int(c)}" for (lo, hi), c in zip(bounds, counts))
    return GridSpec(points=pts, description=description)


def inset_box(box, frac: float) -> np.ndarray:
    """Shrink each (lo, hi) row of an (m, 2) box by frac of its width at both ends."""
    box = np.asarray(box, dtype=float)
    inset = frac * (box[:, 1] - box[:, 0])
    return np.stack([box[:, 0] + inset, box[:, 1] - inset], axis=-1)


def sample_box(bounds, count: int, seed: int) -> np.ndarray:
    """``count`` seeded uniform points in an (n, 2) box, drawn axis by axis."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(lo, hi, count) for lo, hi in np.asarray(bounds, dtype=float)],
                    axis=-1)


def product_grid(r_range, fiber_box, r_count: int, fiber_count: int,
                 description: str | None = None) -> GridSpec:
    """Grid on a product chart: uniform in r, uniform on the fiber box inset
    2% so stencils stay interior."""
    fiber_bounds = inset_box(fiber_box, 0.02)
    bounds = np.vstack([np.asarray(r_range, dtype=float), fiber_bounds])
    counts = [r_count] + [fiber_count] * fiber_bounds.shape[0]
    return box_grid(bounds, counts, description)


def split_grid(split: SplitSpaceSpec, r_range=(-10.0, 10.0), r_count: int = 201,
               fiber_count: int = 9, fiber_box=None) -> GridSpec:
    """Default sampling grid on a split space: a product grid over the
    fiber's safe box, or over ``fiber_box`` when given."""
    box = split.fiber.safe_box if fiber_box is None else fiber_box
    desc = (f"r in [{r_range[0]:g},{r_range[1]:g}] x {r_count}, fiber box "
            f"{fiber_count} per axis (2% inset)")
    return product_grid(r_range, box, r_count, fiber_count, desc)


@dataclass(frozen=True)
class CDReport:
    """Result of sampling the CD(lambda, N) inequality over a grid.

    ``passed`` is the boolean verdict (min eigenvalue >= -tol); ``verdict``
    refines it to 'pass' / 'boundary' / 'fail', with 'boundary' when the
    minimum sits within tol of zero.  ``caveat`` states what the verdict does
    and does not establish.
    """

    verdict: str
    passed: bool
    lam: float
    N: float
    min_eigenvalue: float
    witness: np.ndarray
    points: np.ndarray
    eigenvalues: np.ndarray
    grid_spec: str
    tol: float

    @property
    def caveat(self) -> str:
        return CD_FAIL_CAVEAT if self.verdict == "fail" else CD_CAVEAT


def cd_verify(spec: MetricSpec, density: DensitySpec, lam: float, N: float,
              grid: GridSpec, tol: float = TOL_CD) -> CDReport:
    """Evaluate the minimum relative eigenvalue of Ric^N - lambda g over the
    grid; deterministic given the grid.

    The grid is walked in blocks of ``BLOCK_POINTS`` points (``in_blocks``),
    each evaluated in one stacked pass (``BlockGeometry``) whose every value
    is bit-equal to evaluating its points one at a time.  When anything in a
    block fails, the same pass runs again on each point of the block in grid
    order, as a block of one, so the first failing point raises the error,
    and emits the numpy warnings, it does on its own.
    """
    _check_N(N, spec.dim)
    pts = grid.points
    if pts.shape[0] == 0:
        raise EmptyGrid("cd_verify needs a nonempty grid")

    def stacked(s: slice) -> np.ndarray:
        at = BlockGeometry(spec, pts[s])
        forms = generalized_ricci_at(at, density, N) - lam * at.g
        return _min_relative_eigenvalues(forms, at.chol)

    mins = in_blocks(pts.shape[0], BLOCK_POINTS, stacked)

    k = int(np.argmin(mins))
    mn = float(mins[k])
    if mn < -tol:
        verdict = "fail"
    elif mn <= tol:
        verdict = "boundary"
    else:
        verdict = "pass"
    return CDReport(verdict=verdict, passed=mn >= -tol, lam=lam, N=N,
                    min_eigenvalue=mn, witness=pts[k].copy(), points=pts,
                    eigenvalues=mins, grid_spec=grid.description, tol=tol)
