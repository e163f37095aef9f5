"""Geodesic integration and along-curve diagnostics.

Geodesics are integrated with RK4 on the first-order system
x' = u, u'^k = -Gamma^k_ij u^i u^j, in steps of whole multiples of the
sample spacing dt chosen by a local error estimate, with the samples in
between on a quintic Hermite interpolant (``geodesic_integrate``).  The
steps, the samples and so every report are deterministic.  On warped
products the quantity warp^4 * |fiber velocity|^2 is conserved along
geodesics and serves as its own oracle; the density line integral
f_gamma(t) = int g(gamma', X) ds is accumulated with Simpson quadrature on
the sample grid to match the integrator order.

Each RK4 stage evaluates the acceleration -Gamma^k_ij u^i u^j at one point
(``gamma_evaluator``), from one call of the chart's jet of order 1, which
takes the chart's point formulas at a single row, and one solve with the
metric; it never forms the Christoffel symbols.  After each step, the
finite check, the velocity guard and the domain margin test read the new
state as Python floats, and those of the samples inside a step read the
samples' extremes.  The passes over a finished trace (speed drift,
f_gamma, the conserved quantity) evaluate the metric (a jet of order 0),
density gradient, fiber metric and warp of ``BLOCK_POINTS`` samples as one
stack (``in_blocks``), each field through its block form (``field_rows``),
the warp as ``math.exp`` of phi's block, and their quadratic forms and
pairings as stacked products (``chart_core._forms``), which a test checks
bit for bit against evaluating each sample alone.  A failing block is run
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

import numpy as np

from .chart_core import (
    BLOCK_POINTS,
    GEODESIC_STEP_TOL,
    H2,
    VELOCITY_GUARD,
    BlockGeometry,
    DensitySpec,
    MetricSpec,
    Point,
    ScalarField,
    VectorField,
    _finite_rows,
    _forms,
    _lengths,
    as_point,
    cumulative_simpson,
    field_rows,
    gamma_evaluator,
    in_blocks,
    in_domain,
    metric_at,
    raising,
    rk4_step,
    scaled,
)
from .errors import CdsplitError, EmptyTrace, NonFinite, StepOverflow
from .warped_products import SplitSpaceSpec

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
    steps: int = 0  # accepted steps, each of one or more sample spacings
    rejected: int = 0  # steps the error estimate refused, taken again shorter
    stage_calls: int = 0  # accelerations evaluated
    local_error: float = 0.0  # sum of the accepted steps' local error estimates

    def __len__(self) -> int:
        return self.ts.size


def _norm(G: np.ndarray, v: np.ndarray) -> float:
    """The length of v in the bilinear form G: 0 where v G v is negative,
    NaN where it is NaN."""
    q = float(v @ G @ v)
    return 0.0 if q < 0.0 else math.sqrt(q)


def speed_in_metric(spec: MetricSpec, p: Point, v: np.ndarray) -> float:
    return _norm(metric_at(spec, p), v)


def normalize_velocity(spec: MetricSpec, p: Point, v) -> np.ndarray:
    """v scaled to unit length in g(p).  A v whose length is 0, or overflows
    the float range (inf, or NaN from inf - inf), raises ValueError, and the
    overflow is not reported."""
    v = np.asarray(v, dtype=float)
    G = metric_at(spec, p)
    with np.errstate(over="ignore", invalid="ignore"):
        s = _norm(G, v)
    if s == 0.0:
        raise ValueError("zero velocity cannot be normalized")
    if not s < math.inf:
        raise ValueError(f"velocity has a length beyond the float range in the metric at {p}")
    return v / s


def _speeds(spec: MetricSpec, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The length of each velocity in the metric at its sample, from one
    BlockGeometry of order 0 whose positivity gate (``chol``) passes at every
    sample."""
    at = BlockGeometry(spec, X, order=0)
    G = at.g
    at.chol
    return _lengths(_forms(U, G, U))


#: The quintic Hermite interpolant on [0, 1] of a step of length H from x0
#: to x1 is x0 plus the sum of these basis functions times the data
#: (x1 - x0, H u0, H^2 a0, H u1, H^2 a1): row i holds the coefficients of
#: s^0 .. s^5 in the i-th.  The basis function of x0 is 1 minus that of x1,
#: so a coordinate that does not move stays exactly where it is.
_HERMITE = np.array([
    [0.0, 0.0, 0.0, 10.0, -15.0, 6.0],
    [0.0, 1.0, 0.0, -6.0, 8.0, -3.0],
    [0.0, 0.0, 0.5, -1.5, 1.5, -0.5],
    [0.0, 0.0, 0.0, -4.0, 7.0, -3.0],
    [0.0, 0.0, 0.0, 0.5, -1.0, 0.5],
])


def _hermite_rows(m: int, dt: float) -> np.ndarray:
    """The (2(m - 1), 5) matrix that takes the rows (x1 - x0, u0, a0, u1, a1)
    of a step of m sample spacings dt to its m - 1 inner samples: their
    positions less x0, on the quintic Hermite interpolant, then their
    velocities, its derivative."""
    H = m * dt
    s = np.arange(1, m)[:, None] / m
    p = np.arange(6)
    scale = np.array([1.0, H, H * H, H, H * H])
    positions = (s ** p) @ _HERMITE.T * scale
    velocities = (p * s ** np.maximum(p - 1, 0)) @ _HERMITE.T * (scale / H)
    return np.vstack((positions, velocities))


#: The longest step, in sample spacings.  A straight geodesic has no local
#: error, and its steps would double up to the whole trace; this bounds the
#: fill's basis (``_hermite_rows``) to a few kilobytes at any trace length.
MAX_STEP_MULTIPLE = 256


def _next_multiple(m: int, ratio: float, cap: int) -> int:
    """The multiple of dt for the next step after a step of m multiples whose
    local error estimate is ``ratio`` times the tolerated one: the standard
    controller for an estimate of order H^4 held to a tolerance per unit
    time, m * 0.9 / ratio^(1/3), at least 1 and at most ``cap`` and
    ``MAX_STEP_MULTIPLE``."""
    cap = min(cap, MAX_STEP_MULTIPLE)
    if ratio == 0.0:
        return cap
    return max(1, min(cap, int(m * 0.9 / ratio ** (1.0 / 3.0))))


def _estimate(H: float, u4: np.ndarray, u1: np.ndarray, a4: np.ndarray,
              a1: np.ndarray) -> float:
    """The local error estimate of an RK4 step of length H: the largest entry
    of (H/6)(u4 - u1) and (H/6)(a4 - a1) (see ``geodesic_integrate``), NaN
    where an entry is NaN."""
    return H / 6.0 * float(np.maximum.reduce(np.abs(np.concatenate((u4 - u1, a4 - a1)))))


def _march(spec: MetricSpec, stage, p0: Point, v0: np.ndarray, nsteps: int, dt: float,
           adaptive: bool):
    """The samples 0..k of a geodesic, and whether it was truncated, its
    accepted and rejected steps and the sum of their error estimates, from
    steps of dt only, or from error-controlled steps when ``adaptive``."""
    margins = scaled(p0, 4.0 * H2).tolist()
    bases: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    xs = np.empty((nsteps + 1, spec.dim))
    us = np.empty((nsteps + 1, spec.dim))
    xs[0], us[0] = p0, v0
    x, u, a = p0.copy(), v0.copy(), None
    k = short_until = accepted = rejected = 0
    m, error_sum, truncated, after_reject = 1, 0.0, False, False
    while k < nsteps:
        h = min(m, nsteps - k) if adaptive and k >= short_until else 1
        if h > 1:
            H = h * dt
            try:
                if a is None:
                    a = stage(x, u)
                x1, u1, u4, a4 = rk4_step(stage, x, u, H, a)
                a1 = stage(x1, u1)
                err = _estimate(H, u4, u1, a4, a1)
                xl, ul = x1.tolist(), u1.tolist()
                failed = (not math.isfinite(err) or not all(map(math.isfinite, xl + ul))
                          or max(map(abs, ul)) >= VELOCITY_GUARD
                          or not in_domain(spec, xl, margins))
                if not failed and err <= GEODESIC_STEP_TOL * H:
                    if h not in bases:
                        bases[h] = _hermite_rows(h, dt), np.zeros(2 * (h - 1) * spec.dim)
                    basis, zeros = bases[h]
                    inner = basis @ np.array((x1 - x, u, a, u1, a1))
                    X, U = x + inner[:h - 1], inner[h - 1:]
                    # the samples' guards, as the state's: the dot product with
                    # zeros is NaN exactly when an entry is not finite, and the
                    # box around every sample lies in the domain exactly when
                    # the boxes around the lowest and the highest coordinates
                    # do, as x - r and x + r round monotonically in x
                    failed = (not math.isfinite(inner.ravel().dot(zeros))
                              or np.maximum.reduce(np.abs(U), axis=None) >= VELOCITY_GUARD
                              or not in_domain(spec, np.minimum.reduce(X).tolist(), margins)
                              or not in_domain(spec, np.maximum.reduce(X).tolist(), margins))
            except (CdsplitError, ValueError, ArithmeticError, np.linalg.LinAlgError):
                failed = True
            if failed:
                short_until = k + h
                continue
            if err > GEODESIC_STEP_TOL * H:
                rejected += 1
                m, after_reject = _next_multiple(h, err / (GEODESIC_STEP_TOL * H), h - 1), True
                continue
            xs[k + 1:k + h], us[k + 1:k + h] = X, U
        else:
            try:
                if a is None:
                    a = stage(x, u)
                x1, u1, u4, a4 = rk4_step(stage, x, u, dt, a)
            except (CdsplitError, ValueError, np.linalg.LinAlgError):
                # a stage left the chart: treat as domain exit when the last
                # accepted point already sits at the boundary margin, else re-raise
                if not in_domain(spec, x, [2.0 * r for r in margins]):
                    truncated = True
                    break
                raise
            # the guards compare Python floats, which cost less per step than
            # numpy reductions over a few coordinates
            xl, ul = x1.tolist(), u1.tolist()
            if not all(map(math.isfinite, xl + ul)):
                raise NonFinite(f"geodesic state non-finite at t = {(k + 1) * dt:.6g}")
            if max(map(abs, ul)) >= VELOCITY_GUARD:
                raise StepOverflow(f"geodesic velocity guard exceeded at t = {(k + 1) * dt:.6g}")
            if not in_domain(spec, xl, margins):
                truncated = True
                break
            # the next step's first stage, evaluated here for the estimate;
            # where it raises, the next step evaluates it again and decides
            a1, err = None, math.nan
            if k + 1 < nsteps:
                try:
                    a1 = stage(x1, u1)
                except (CdsplitError, ValueError, np.linalg.LinAlgError):
                    pass
                else:
                    err = _estimate(dt, u4, u1, a4, a1)
        xs[k + h], us[k + h] = x1, u1
        accepted += 1
        if math.isfinite(err):
            error_sum += err
            m = _next_multiple(h, err / (GEODESIC_STEP_TOL * h * dt), h if after_reject else 2 * h)
            after_reject = False
        k, x, u, a = k + h, x1, u1, a1
    return xs[:k + 1], us[:k + 1], truncated, accepted, rejected, error_sum


def geodesic_integrate(spec: MetricSpec, p0, v0, T: float, dt: float = 1e-3) -> GeodesicTrace:
    """Integrate the geodesic equation from (p0, v0) for time T, with samples
    at the multiples of dt.

    v0 must be unit in g to within 1e-10.  If the trajectory (or an RK4
    stage) leaves the chart domain the trace is truncated and flagged rather
    than extrapolated.  Velocities beyond the overflow guard raise
    StepOverflow.

    A step spans m sample spacings, m chosen by a local error estimate;
    the first step has m = 1, m at most doubles from one step to the next
    and stays at most MAX_STEP_MULTIPLE, and no step passes the last
    sample, round(T / dt).  The estimate costs no stage.  With the stage
    k5 = acc(x1, u1) at the new state, which is the next step's first
    stage, RK4's stages c = (0, 1/2, 1/2, 1, 1) carry
    an embedded solution with weights (1/6, 1/3, 1/3, 0, 1/6).  Its order
    conditions, with a_32 = 1/2, a_43 = 1 and row 5 = RK4's weights b:
    sum b = 1; sum b c = 1/6 + 1/6 + 1/6 = 1/2; sum b c^2 = 1/12 + 1/12 +
    1/6 = 1/3; sum b a c = (1/3)(1/4) + (1/6)(sum_j b_j c_j = 1/2) = 1/6.
    The fourth-order condition sum b a c^2 = (1/3)(1/8) + (1/6)(1/3) = 7/72
    is not 1/12, so the embedded solution is of order three and differs from
    RK4's by (H/6)(k4 - k5), that is (H/6)(u4 - u1) in x and
    (H/6)(a4 - k5) in u.  The step's error estimate is the largest entry of
    these, and it is accepted when err / H <= GEODESIC_STEP_TOL, else taken
    again shorter; a step of one spacing is always accepted.  The samples
    inside a step lie on the quintic Hermite interpolant of (x, u, a) at its
    two ends, whose derivative gives their velocities.

    A step of more than one spacing that fails, because a stage raises or
    meets a floating-point condition, or a state or a sample is non-finite,
    at or over the velocity guard or outside the domain margin, is taken
    again one spacing at a time, and those steps decide truncation.  The
    error-controlled pass runs with the conditions of ``chart_core.raising``
    raising; where it raises, or meets such a condition, the integration
    runs again from t = 0 in steps of dt, the classical RK4 of fixed step,
    which raises the error, or warns, at the state where the fixed steps do.
    """
    p0 = as_point(p0, spec.dim)
    v0 = np.asarray(v0, dtype=float)
    s0 = speed_in_metric(spec, p0, v0)
    if not abs(s0 - 1.0) <= 1e-10:
        raise ValueError(f"initial velocity has g-norm {s0!r}, expected 1 within 1e-10")

    acc = gamma_evaluator(spec)
    stages = 0

    def stage(x: Point, u: np.ndarray) -> np.ndarray:
        nonlocal stages
        stages += 1
        return acc(x, u)

    def integrate(adaptive: bool) -> GeodesicTrace:
        xs, us, truncated, accepted, rejected, error_sum = _march(
            spec, stage, p0, v0, int(round(T / dt)), dt, adaptive)
        speeds = in_blocks(len(xs), BLOCK_POINTS, lambda s: _speeds(spec, xs[s], us[s]))
        return GeodesicTrace(spec=spec, ts=dt * np.arange(len(xs)), positions=xs,
                             velocities=us, speed_drift=float(np.max(np.abs(speeds - 1.0))),
                             truncated=truncated, steps=accepted, rejected=rejected,
                             stage_calls=stages, local_error=error_sum)

    try:
        with np.errstate(**raising()):
            return integrate(adaptive=True)
    except (CdsplitError, ValueError, ArithmeticError, np.linalg.LinAlgError):
        return integrate(adaptive=False)


# ---------------------------------------------------------------------------
# conserved quantity on warped products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClairautReport:
    initial: float
    values: np.ndarray
    max_drift: float  # relative to the initial value, absolute when it vanishes


def _exp_fourth(x: float) -> float:
    """``math.exp(x) ** 4``, and inf where the power leaves the float range,
    as numpy's would: Python's float power raises there."""
    try:
        return math.exp(x) ** 4
    except OverflowError:
        return math.inf


def clairaut_constant(split: SplitSpaceSpec, trace: GeodesicTrace) -> ClairautReport:
    """Evaluate warp^4 * g_L(fiber velocity, fiber velocity) along the trace:
    the squared fiber speeds of each block of samples from the fiber metrics
    of the block (the fiber's jet of order 0), and the warps e^{phi/(n-1)}
    of the block from phi's block form (``field_rows``), each with
    ``math.exp``, and to the fourth power with Python's ``**``: numpy's exp
    and power round differently on some inputs.  A fourth power beyond the
    float range is inf (``_exp_fourth``), and a value that is not finite is
    refused, naming its sample."""
    if len(trace) == 0:
        raise EmptyTrace("cannot evaluate the conserved quantity on an empty trace")
    P, UY, m = trace.positions, trace.velocities[:, 1:], split.n - 1

    def stacked(s: slice) -> np.ndarray:
        (H,) = split.fiber.jet(P[s, 1:], 0)
        q = _forms(UY[s], H, UY[s])
        phi = field_rows(split.phi.value, P[s]).tolist()
        try:
            warps = [math.exp(v / m) ** 4 for v in phi]
        except OverflowError:
            warps = [_exp_fourth(v / m) for v in phi]
        return np.array(warps) * q

    vals = _finite_rows(in_blocks(len(trace), BLOCK_POINTS, stacked), "conserved quantity", P)
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
    write_csv(path, header_lines, cols, np.column_stack(data).tolist())
