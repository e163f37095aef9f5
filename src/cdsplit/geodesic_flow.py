"""Geodesic integration and along-curve diagnostics.

Geodesics are integrated with fixed-step RK4 on the first-order system
x' = u, u'^k = -Gamma^k_ij u^i u^j (no adaptivity, for reproducibility).
On warped products the quantity warp^4 * |fiber velocity|^2 is conserved
along geodesics and serves as its own oracle; the density line integral
f_gamma(t) = int g(gamma', X) ds is accumulated with Simpson quadrature on
the RK4 grid to match the integrator order.

Each RK4 stage evaluates the acceleration -Gamma^k_ij u^i u^j at one point
(``gamma_evaluator``), from one call of the chart's jet of order 1, which
takes the chart's point formulas at a single row, and one solve with the
metric; it never forms the Christoffel symbols.  After each step, the
finite check, the velocity guard and the domain margin test read the new
state as Python floats.  The passes over a finished trace (speed drift,
f_gamma, the conserved quantity) evaluate the metric (a jet of order 0),
density gradient or fiber metric of ``BLOCK_POINTS`` samples as one stack
(``in_blocks``), and their quadratic forms and pairings as stacked products
(``_forms``), which a test checks bit for bit against evaluating each
sample alone.  A failing block is run
again through the same pass one sample at a time, so the first failing
sample raises its own error; a non-finite vector density, or an f_gamma
beyond the float range, is an error, never a NaN or inf f_gamma.  The
speed-drift pass takes each sample's metric through the Cholesky positivity
gate, so a trace that runs into an indefinite metric is an error too, never
a pass.
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
    _finite_rows,
    as_point,
    cumulative_simpson,
    gamma_evaluator,
    in_blocks,
    in_domain,
    metric_at,
)
from .errors import CdsplitError, EmptyTrace, NonFinite, StepOverflow

if TYPE_CHECKING:
    from .warped_products import SplitSpaceSpec

VELOCITY_GUARD = 1e8

COMPLETENESS_CAVEAT = (
    "finite-range diagnostic over finitely many sampled directions; it does not "
    "decide the limsup growth condition, and minimality of long geodesics is not "
    "certified"
)


@dataclass(frozen=True)
class GeodesicTrace:
    """Samples of a unit-speed geodesic: strictly increasing times, positions,
    chart velocities, and the recorded unit-speed drift."""

    spec: MetricSpec
    ts: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    speed_drift: float
    truncated: bool = False

    def __len__(self) -> int:
        return self.ts.size


def _norm(G: np.ndarray, v: np.ndarray) -> float:
    """The length of v in the bilinear form G."""
    return math.sqrt(max(0.0, float(v @ G @ v)))


def speed_in_metric(spec: MetricSpec, p: Point, v: np.ndarray) -> float:
    return _norm(metric_at(spec, p), v)


def normalize_velocity(spec: MetricSpec, p: Point, v) -> np.ndarray:
    """v scaled to unit length in g(p).  A v whose length is 0, or overflows
    the float range, raises ValueError, and the overflow is not reported."""
    v = np.asarray(v, dtype=float)
    G = metric_at(spec, p)
    with np.errstate(over="ignore", invalid="ignore"):
        s = _norm(G, v)
    if s == 0.0:
        raise ValueError("zero velocity cannot be normalized")
    if s == math.inf:
        raise ValueError(f"velocity has a length beyond the float range in the metric at {p}")
    return v / s


def _forms(U: np.ndarray, G: np.ndarray, V: np.ndarray) -> np.ndarray:
    """u @ g @ v at each sample, from the stacks U, G and V: the stacked
    product of each u with its g, then one ``np.vecdot`` of the rows, which
    run the BLAS calls of ``u @ g @ v`` on each sample.  An einsum of the
    three rounds differently."""
    return np.vecdot(np.matmul(U[:, None], G)[:, 0], V)


def _lengths(q: np.ndarray) -> np.ndarray:
    """sqrt(max(0, q)) at each entry, as ``_norm`` takes it: a NaN form is 0."""
    return np.sqrt(np.fmax(q, 0.0))


def _speeds(spec: MetricSpec, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The length of each velocity in the metric at its sample, from one
    BlockGeometry of order 0 whose positivity gate (``chol``) passes at every
    sample."""
    at = BlockGeometry(spec, X, order=0)
    G = at.g
    at.chol
    return _lengths(_forms(U, G, U))


def rk4_step(acc, x, u, dt: float):
    """One classical RK4 step of the second-order system x' = u, u' = acc(x, u);
    returns the new (x, u)."""
    k1x, k1u = u, acc(x, u)
    x2, u2 = x + 0.5 * dt * k1x, u + 0.5 * dt * k1u
    k2x, k2u = u2, acc(x2, u2)
    x3, u3 = x + 0.5 * dt * k2x, u + 0.5 * dt * k2u
    k3x, k3u = u3, acc(x3, u3)
    x4, u4 = x + dt * k3x, u + dt * k3u
    k4x, k4u = u4, acc(x4, u4)
    return (x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u))


def geodesic_integrate(spec: MetricSpec, p0, v0, T: float, dt: float = 1e-3) -> GeodesicTrace:
    """Integrate the geodesic equation from (p0, v0) for time T.

    v0 must be unit in g to within 1e-10.  If the trajectory (or an RK4
    stage) leaves the chart domain the trace is truncated and flagged rather
    than extrapolated.  Velocities beyond the overflow guard raise
    StepOverflow.
    """
    p0 = as_point(p0, spec.dim)
    v0 = np.asarray(v0, dtype=float)
    s0 = speed_in_metric(spec, p0, v0)
    if abs(s0 - 1.0) > 1e-10:
        raise ValueError(f"initial velocity has g-norm {s0!r}, expected 1 within 1e-10")

    margin = spec.fd.scaled(p0, 4.0 * spec.fd.h2).tolist()
    metric_at(spec, p0)  # validates symmetry/finiteness once up front
    acc = gamma_evaluator(spec)

    nsteps = int(round(T / dt))
    xs = np.empty((nsteps + 1, spec.dim))
    us = np.empty((nsteps + 1, spec.dim))
    xs[0], us[0] = p0, v0
    x, u = p0.copy(), v0.copy()
    truncated = False
    k_end = nsteps
    for k in range(nsteps):
        try:
            x_new, u_new = rk4_step(acc, x, u, dt)
        except (CdsplitError, ValueError, np.linalg.LinAlgError):
            # a stage left the chart: treat as domain exit when the last
            # accepted point already sits at the boundary margin, else re-raise
            if not in_domain(spec, x, [2.0 * m for m in margin]):
                truncated, k_end = True, k
                break
            raise
        # the guards compare Python floats, which cost less per step than
        # numpy reductions over a few coordinates
        xl, ul = x_new.tolist(), u_new.tolist()
        if not all(map(math.isfinite, xl + ul)):
            raise NonFinite(f"geodesic state non-finite at t = {(k + 1) * dt:.6g}")
        if max(map(abs, ul)) >= VELOCITY_GUARD:
            raise StepOverflow(f"geodesic velocity guard exceeded at t = {(k + 1) * dt:.6g}")
        if not in_domain(spec, xl, margin):
            truncated, k_end = True, k
            break
        x, u = x_new, u_new
        xs[k + 1], us[k + 1] = x, u
    xs, us = xs[: k_end + 1], us[: k_end + 1]
    ts = dt * np.arange(k_end + 1)
    speeds = in_blocks(k_end + 1, BLOCK_POINTS, lambda s: _speeds(spec, xs[s], us[s]))
    drift = np.max(np.abs(speeds - 1.0))
    return GeodesicTrace(spec=spec, ts=ts, positions=xs, velocities=us,
                         speed_drift=float(drift), truncated=truncated)


# ---------------------------------------------------------------------------
# conserved quantity on warped products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClairautReport:
    initial: float
    values: np.ndarray
    max_drift: float  # relative to the initial value, absolute when it vanishes


def clairaut_constant(split: SplitSpaceSpec, trace: GeodesicTrace) -> ClairautReport:
    """Evaluate warp^4 * g_L(fiber velocity, fiber velocity) along the trace:
    the squared fiber speeds of each block of samples from the fiber metrics
    of the block (the fiber's jet of order 0), and the warp sample by sample
    (``split.warp``)."""
    if len(trace) == 0:
        raise EmptyTrace("cannot evaluate the conserved quantity on an empty trace")
    P, UY = trace.positions, trace.velocities[:, 1:]

    def stacked(s: slice) -> np.ndarray:
        (H,) = split.fiber.jet(P[s, 1:], 0)
        q = _forms(UY[s], H, UY[s])
        return np.array([split.warp(p) ** 4 for p in P[s]]) * q

    vals = in_blocks(len(trace), BLOCK_POINTS, stacked)
    c0 = float(vals[0])
    dev = float(np.max(np.abs(vals - c0)))
    drift = dev / abs(c0) if abs(c0) > 1e-14 else dev
    return ClairautReport(initial=c0, values=vals, max_drift=drift)


# ---------------------------------------------------------------------------
# density line integrals
# ---------------------------------------------------------------------------

def _density_pairings(spec: MetricSpec, density: DensitySpec, P: np.ndarray,
                      U: np.ndarray) -> np.ndarray:
    """g(gamma', X) for a vector density, g(gamma', grad f) = df(gamma') for a
    scalar one, at each sample of a block, from one BlockGeometry of order 0;
    the metric is checked before the vector density."""
    at = BlockGeometry(spec, P, order=0)
    if isinstance(density, ScalarField):
        return np.vecdot(U, at.gradient(density))
    G = at.g
    return _forms(U, G, at.evaluated(density.value, "vector field"))


def f_along_geodesic(density: DensitySpec, trace: GeodesicTrace) -> np.ndarray:
    """Cumulative f_gamma(t) = int_0^t g(gamma', X) ds on the trace grid.

    An integral beyond the float range raises NonFinite naming the first
    sample where f_gamma is not finite."""
    if len(trace) == 0:
        raise EmptyTrace("cannot integrate a density along an empty trace")
    if not isinstance(density, (ScalarField, VectorField)):
        raise TypeError(f"expected a scalar or vector density, got {type(density)!r}")
    spec, P, U = trace.spec, trace.positions, trace.velocities
    integrand = in_blocks(len(trace), BLOCK_POINTS,
                          lambda s: _density_pairings(spec, density, P[s], U[s]))
    return _finite_rows(cumulative_simpson(integrand, trace.ts), "f_gamma", P)


# ---------------------------------------------------------------------------
# density-weighted length growth along geodesic rays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthTable:
    """Per-direction growth of I(r) = int_0^r e^{-2 f_gamma/(n-1)} ds."""

    directions: np.ndarray      # (k, n) unit initial velocities
    checkpoints: np.ndarray     # (m,) radii
    growth: np.ndarray          # (k, m) I(r) per direction, NaN past truncation
    minima: np.ndarray          # (m,) per-checkpoint min over reachable directions
    truncated: np.ndarray       # (k,) bool
    caveat: str = COMPLETENESS_CAVEAT


def sample_unit_directions(spec: MetricSpec, p: Point, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic unit directions in the g(p)-sphere: seeded Gaussians
    whitened through the Cholesky factor of g."""
    p = as_point(p, spec.dim)
    g = metric_at(spec, p)
    L = np.linalg.cholesky(g)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, spec.dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.linalg.solve(L.T, z.T).T


def completeness_diagnostic(spec: MetricSpec, density: DensitySpec, y,
                            directions: np.ndarray | None = None, R_max: float = 10.0,
                            n_checkpoints: int = 10, dt: float = 1e-3,
                            n_directions: int = 16, seed: int = 42) -> GrowthTable:
    """Tabulate the density-weighted length I(r) along geodesics from y.

    For each direction the geodesic is integrated to length R_max and
    I(r) = int_0^r e^{-2 f_gamma/(n-1)} ds recorded at the checkpoints.
    Saturating growth signals that the weighted length may stay bounded;
    linear growth is consistent with divergence.  Output is a finite-range
    diagnostic, never a decision.
    """
    if R_max <= 0:
        raise ValueError("R_max must be positive")
    y = as_point(y, spec.dim)
    if directions is None:
        directions = sample_unit_directions(spec, y, n_directions, seed)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    checkpoints = np.linspace(R_max / n_checkpoints, R_max, n_checkpoints)
    nsteps = int(round(R_max / dt))
    idx = np.minimum((np.round(checkpoints / dt)).astype(int), nsteps)

    growth = np.full((directions.shape[0], n_checkpoints), np.nan)
    truncated = np.zeros(directions.shape[0], dtype=bool)
    for k, d in enumerate(directions):
        v0 = normalize_velocity(spec, y, d)
        trace = geodesic_integrate(spec, y, v0, R_max, dt)
        fg = f_along_geodesic(density, trace)
        weight = np.exp(-2.0 * fg / (spec.dim - 1))
        I = cumulative_simpson(weight, trace.ts)
        truncated[k] = trace.truncated
        for j, i in enumerate(idx):
            if i < len(trace):
                growth[k, j] = I[i]
    with np.errstate(all="ignore"):
        minima = np.nanmin(growth, axis=0)
    return GrowthTable(directions=directions, checkpoints=checkpoints, growth=growth,
                       minima=minima, truncated=truncated)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_csv(path, header_lines, columns, rows) -> None:
    """Write a report CSV: each header line as ``# line``, the column names,
    then each row of numbers at 17 significant digits; LF line endings."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"# {h}\n" for h in header_lines)
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_trace_csv(trace: GeodesicTrace, path, clairaut: np.ndarray | None = None,
                    f_gamma: np.ndarray | None = None, header_lines=()) -> None:
    """Write a trace as CSV: t, coords, velocities, then the optional
    conserved-quantity and f_gamma columns."""
    names = trace.spec.coords()
    cols = ["t", *names, *(f"v_{c}" for c in names)]
    data = [trace.ts, trace.positions, trace.velocities]
    for name, values in (("clairaut", clairaut), ("f_gamma", f_gamma)):
        if values is not None:
            cols.append(name)
            data.append(values)
    write_csv(path, header_lines, cols, (row.tolist() for row in np.column_stack(data)))
