"""Closed-form curvature and criteria for product charts over a line.

The metrics handled here live on R x L in coordinates (r, y) and have the
form ``dr^2 + e^{2 psi/(n-1)} h_L`` for a fiber metric ``h_L`` on L.  When
``psi`` depends only on r the metric is a warped product; a *split space*
additionally carries the density ``f = phi(r) + f_L(y)``.  The fiber is
flat (``FlatFiber``: R^m, or a flat torus when given its periods) or a
round sphere (``SphereFiber``).

The module provides the closed-form Ricci tensor of such charts, the
supremum criterion deciding when a split space satisfies the CD(0,1)
inequality, and the blow-up obstruction ODE behind that criterion.

A product chart's stacked jet takes the warp e^{2 psi/(n-1)}, and a sphere
fiber's stacked jet the cube of R^2 + |y|^2, with one Python call per
distinct value, by bit pattern (``chart_core.bit_groups``), gathered to the
rows: on a grid, most rows repeat a value of psi and of |y|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Union

import numpy as np

from .chart_core import (
    VELOCITY_GUARD,
    MetricSpec,
    Point,
    ScalarField,
    as_point,
    bit_groups,
    block_field,
    field_rows,
    rk4_step,
)
from .errors import NonFinite, StepOverflow

GOLDEN_WIDTH = 1e-10
BLOW_UP_THRESHOLD = -50.0
EXP_CAP = 500.0  # caps exponents inside the obstruction ODE so stages stay finite


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

@cache
def _identity(m: int) -> np.ndarray:
    """The m x m identity, built once and read-only so that calls can share it."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


@cache
def _flat_metric(periods: tuple[float, ...]) -> np.ndarray:
    """diag((L_i / 2pi)^2) for the periods L_i, built once and read-only."""
    g = np.diag([(L / (2.0 * math.pi)) ** 2 for L in periods])
    g.flags.writeable = False
    return g


@dataclass(frozen=True)
class FlatFiber:
    """Flat fiber: R^m in Cartesian coordinates, or a flat torus in angle
    coordinates.  Axis i has period L_i and metric coefficient
    g_ii = (L_i/2pi)^2; the default period 2pi makes the metric the identity,
    bit for bit."""

    dim: int
    periods: tuple[float, ...] | None = None
    box: float = 10.0

    def __post_init__(self):
        periods = (2.0 * math.pi,) * self.dim if self.periods is None else tuple(self.periods)
        if len(periods) != self.dim:
            raise ValueError("one period per fiber dimension required")
        object.__setattr__(self, "periods", periods)

    def metric(self, y: np.ndarray) -> np.ndarray:
        return _flat_metric(self.periods)

    def point(self, y: np.ndarray, order: int):
        """``metric``, and for order 1 its partials, at the one point y, in
        diagonal form (``SphereFiber.point``)."""
        h = (np.diagonal(_flat_metric(self.periods)).tolist(), 0.0)
        return (h,) if order == 0 else (h, [([0.0] * self.dim, 0.0)] * self.dim)

    def jet(self, Y: np.ndarray, order: int):
        """``metric``, and for order 1 its partials, at each row of Y, stacked."""
        m, k = self.dim, len(Y)
        h = np.broadcast_to(_flat_metric(self.periods), (k, m, m))
        return (h,) if order == 0 else (h, np.zeros((k, m, m, m)))

    def christoffel(self, y: np.ndarray) -> np.ndarray:
        return np.zeros((self.dim,) * 3)

    def ricci(self, y: np.ndarray) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    @property
    def safe_box(self) -> np.ndarray:
        return np.array([[-self.box, self.box]] * self.dim)


@dataclass(frozen=True)
class SphereFiber:
    """Round sphere of dimension >= 2 in a single stereographic chart.

    The chart metric is conformal, ``c(y) delta_ij`` with
    ``c = 4 R^4 / (R^2 + |y|^2)^2``, and the radius R is chosen so that the
    Ricci tensor equals ``einstein_constant`` times the metric.
    """

    dim: int
    einstein_constant: float
    box: float = 3.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("sphere fibers need dimension >= 2")
        if self.einstein_constant <= 0:
            raise ValueError("einstein_constant must be positive")

    @property
    def radius_sq(self) -> float:
        return (self.dim - 1) / self.einstein_constant

    def metric(self, y: np.ndarray) -> np.ndarray:
        return self.jet(y[None], 0)[0][0]

    def point(self, y: np.ndarray, order: int):
        """``metric``, and for order 1 its partials, at the one point y, in
        diagonal form, with |y|^2 taken once for both.

        Both fibers' metrics and partials are diagonal matrices in their
        charts, so at one point each is the pair (diagonal, off) of the list
        of its diagonal entries and the value of every entry off the
        diagonal, as Python floats: here the conformal factor c and the
        partials dc_k of c, with c * 0.0 and dc_k * 0.0, the entries of
        ``c * eye`` and ``dc_k * eye`` (``jet``).  The partials are one pair
        per coordinate.  Python's float operations round as numpy's
        elementwise ones, and ``y.dot(y)`` is the BLAS dot product that
        ``jet`` takes of each row."""
        R2, m = self.radius_sq, self.dim
        s = R2 + float(y.dot(y))
        c = 4.0 * R2 ** 2 / (s * s)
        h = ([c] * m, c * 0.0)
        if order == 0:
            return (h,)
        k, s3, dh = -16.0 * R2 ** 2, s ** 3, []
        for v in y.tolist():
            dc = k * v / s3
            dh.append(([dc] * m, dc * 0.0))
        return h, dh

    def jet(self, Y: np.ndarray, order: int):
        """``metric``, and for order 1 its partials, at each row of Y,
        stacked, bit for bit.

        |y|^2 of every row is one ``np.vecdot``, which reaches the BLAS dot
        product that ``y @ y`` calls on a single row; a row sum, an einsum or
        ``y1*y1 + y2*y2`` rounds differently, as that dot product fuses its
        multiply-adds.  ``s * s`` is elementwise; ``s ** 3`` stays one Python
        power per distinct value of s (``bit_groups``), as ``np.power`` rounds
        differently on some inputs."""
        R2 = self.radius_sq
        s = R2 + np.vecdot(Y, Y)
        conf = 4.0 * R2 ** 2 / (s * s)
        eye = _identity(self.dim)
        h = conf[:, None, None] * eye
        if order == 0:
            return (h,)
        first, inverse = bit_groups(s)
        s3 = np.array([si ** 3 for si in s[first].tolist()])[inverse]
        dc = -16.0 * R2 ** 2 * Y / s3[:, None]
        return h, dc[:, :, None, None] * eye

    def christoffel(self, y: np.ndarray) -> np.ndarray:
        # conformal metric e^{2u} delta with u_k = -2 y_k / (R^2 + |y|^2)
        s = self.radius_sq + float(y @ y)
        u = -2.0 * np.asarray(y) / s
        m = self.dim
        G = np.zeros((m, m, m))
        eye = _identity(m)
        for a in range(m):
            G[a] = np.outer(eye[a], u) + np.outer(u, eye[a]) - u[a] * eye
        return G

    def ricci(self, y: np.ndarray) -> np.ndarray:
        return self.einstein_constant * self.metric(y)

    @property
    def safe_box(self) -> np.ndarray:
        return np.array([[-self.box, self.box]] * self.dim)


FiberSpec = Union[FlatFiber, SphereFiber]


# ---------------------------------------------------------------------------
# product specs
# ---------------------------------------------------------------------------

def product_coords(n: int) -> tuple[str, ...]:
    """The coordinate names (r, y1, ..., y_{n-1}) of an n-dimensional product chart."""
    return ("r",) + tuple(f"y{i + 1}" for i in range(n - 1))


def _require_partials(field: ScalarField, what: str) -> None:
    """Raise ValueError unless ``field`` carries its gradient and Hessian."""
    if field.grad is None or field.hess is None:
        raise ValueError(f"{what} needs an analytic gradient and Hessian")


#: The largest x whose ``math.exp`` is finite; above it, it raises OverflowError.
_LOG_MAX = math.log(np.finfo(float).max)


def _exp(x: float) -> float:
    """``math.exp``, but inf above ``_LOG_MAX``, as numpy's exp gives, so
    that a warp beyond the float range meets the finite checks on the
    metric, which name its point."""
    return math.inf if x > _LOG_MAX else math.exp(x)


@cache
def _gather_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of g (1, n, n) and of D (1, n, n, n) of a product
    chart sits in the list of their distinct values that its one-row jet
    builds: for g, 0.0, 1.0, the m = n - 1 diagonal entries of the fiber
    block and its off-diagonal entry; for D, 0.0, then the same m + 1
    values of the fiber block of each D[k]."""
    m = n - 1
    block = np.where(np.eye(m, dtype=bool), np.arange(m)[:, None], m)
    g = np.zeros((1, n, n), dtype=np.intp)
    g[0, 0, 0] = 1
    g[0, 1:, 1:] = 2 + block
    D = np.zeros((1, n, n, n), dtype=np.intp)
    D[0, :, 1:, 1:] = 1 + (m + 1) * np.arange(n)[:, None, None] + block
    g.flags.writeable = D.flags.writeable = False
    return g, D


def _product_metric_spec(n: int, psi: ScalarField, fiber: FiberSpec, name: str) -> MetricSpec:
    c = 1.0 / (n - 1)
    c2 = 2.0 * c
    g_index, D_index = _gather_index(n)

    def point(p: Point, order: int):
        # one row, in Python floats: psi, the warp and the fiber's diagonal
        # point form, then each distinct entry of g and of D from the
        # products and sums of the stacked jet below, in their order, and
        # g and D gathered from them (``_gather_index``), which costs less
        # than assembling small arrays.  A flat fiber's zero partials are
        # added too, which turns a -0.0 into the +0.0 of the stacked sum
        w = _exp(c2 * float(psi.value(p)))
        (hd, hz), *dh = fiber.point(p[1:], order)
        values = [0.0, 1.0]
        for x in hd:
            values.append(w * x)
        values.append(w * hz)
        G = np.array(values).take(g_index)
        if order == 0:
            return (G,)
        # D[0] = a_0 h, D[k] = a_k h + w dh[k - 1], a = 2 c dpsi w; plain
        # loops cost less than comprehensions at these few entries
        values = [0.0]
        for k, g in enumerate(psi.grad(p).tolist()):
            a = c2 * g * w
            if k == 0:
                for x in hd:
                    values.append(a * x)
                values.append(a * hz)
            else:
                dd, dz = dh[0][k - 1]
                for x, y in zip(hd, dd):
                    values.append(a * x + w * y)
                values.append(a * hz + w * dz)
        return G, np.array(values).take(D_index)

    def jet(P: np.ndarray, order: int):
        if len(P) == 1:
            return point(P[0], order)
        # psi (and its gradient) stacked, through their block forms when
        # they have them, then the warp with the same scalar call once per
        # distinct value of psi (``bit_groups``), and the fiber's stacked
        # jet; g and D are built by broadcasting
        k = len(P)
        v = field_rows(psi.value, P)
        first, inverse = bit_groups(v)
        w = np.array([_exp(2.0 * c * x) for x in v[first].tolist()])[inverse]
        dpsi = field_rows(psi.grad, P) if order else None
        h, *dh = fiber.jet(P[:, 1:], order)
        G = np.zeros((k, n, n))
        G[:, 0, 0] = 1.0
        G[:, 1:, 1:] = w[:, None, None] * h
        if order == 0:
            return (G,)
        D = np.zeros((k, n, n, n))
        D[:, :, 1:, 1:] = (2.0 * c * dpsi * w[:, None])[:, :, None, None] * h[:, None]
        D[:, 1:, 1:, 1:] += w[:, None, None, None] * dh[0]
        return G, D

    domain = np.vstack([np.array([[-np.inf, np.inf]]), fiber.safe_box])
    return MetricSpec(dim=n, jet=jet, domain=domain, name=name,
                      coord_names=product_coords(n))


@dataclass(frozen=True)
class TwistedProductSpec:
    """Chart metric dr^2 + e^{2 psi(r,y)/(n-1)} h_L(y) on R x L."""

    n: int
    psi: ScalarField
    fiber: FiberSpec
    name: str = ""

    def __post_init__(self):
        if self.fiber.dim != self.n - 1:
            raise ValueError(f"fiber dimension {self.fiber.dim} != n-1 = {self.n - 1}")
        _require_partials(self.psi, "psi")

    def metric_spec(self) -> MetricSpec:
        return _product_metric_spec(self.n, self.psi, self.fiber, self.name)


@dataclass(frozen=True)
class SplitSpaceSpec:
    """Warped product dr^2 + e^{2 phi(r)/(n-1)} g_L with density phi(r) + f_L(y).

    ``phi`` is a scalar field on the chart point (r, y) that depends on r
    alone: the twist potential of a twisted product whose potential splits
    off the fiber.  ``f_L`` (optional) is a scalar field on the fiber
    coordinates.  Both carry their analytic gradient and Hessian.
    """

    n: int
    phi: ScalarField
    fiber: FiberSpec
    f_L: ScalarField | None = None
    name: str = ""

    def __post_init__(self):
        if self.fiber.dim != self.n - 1:
            raise ValueError(f"fiber dimension {self.fiber.dim} != n-1 = {self.n - 1}")
        _require_partials(self.phi, "phi")
        if self.f_L is not None:
            _require_partials(self.f_L, "f_L")

    def as_twisted(self) -> TwistedProductSpec:
        return TwistedProductSpec(n=self.n, psi=self.phi, fiber=self.fiber, name=self.name)

    def metric_spec(self) -> MetricSpec:
        return self.as_twisted().metric_spec()

    def density(self) -> ScalarField:
        """The split density f(r, y) = phi(r) + f_L(y): ``phi`` itself when
        there is no fiber density, else block forms (``block_field``) of
        phi's and f_L's ``field_rows``, f_L's at the fiber coordinates."""
        phi, fL = self.phi, self.f_L
        if fL is None:
            return phi

        def value(P: np.ndarray) -> np.ndarray:
            return field_rows(phi.value, P) + field_rows(fL.value, P[:, 1:])

        def grad(P: np.ndarray) -> np.ndarray:
            out = np.array(field_rows(phi.grad, P), dtype=float)
            out[:, 1:] = field_rows(fL.grad, P[:, 1:])
            return out

        def hess(P: np.ndarray) -> np.ndarray:
            out = np.array(field_rows(phi.hess, P), dtype=float)
            out[:, 1:, 1:] = field_rows(fL.hess, P[:, 1:])
            return out

        return ScalarField(value=block_field(value), grad=block_field(grad),
                           hess=block_field(hess))

    def fiber_basepoint(self) -> np.ndarray:
        box = self.fiber.safe_box
        return 0.5 * (box[:, 0] + box[:, 1])


# ---------------------------------------------------------------------------
# closed-form Ricci tensor
# ---------------------------------------------------------------------------

def twisted_ricci_analytic(spec: TwistedProductSpec, p: Point) -> np.ndarray:
    """Closed-form Ricci tensor of dr^2 + e^{2 psi/(n-1)} h_L in (r, y) coordinates.

    Radial-radial component: -psi_rr - psi_r^2/(n-1).
    Radial-fiber components: ((2-n)/(n-1)) psi_{r a}.
    Fiber block: fiber Ricci plus the full-metric Hessian of psi weighted by
    1/(n-1), the fiber-metric Hessian weighted by (2-n)/(n-1), the gradient
    product term d_a psi d_b psi/(n-1), and the trace term
    -(Lap psi + |grad psi|^2/(n-1)) g/(n-1).  Derived from the product-chart
    Christoffel symbols; the finite-difference Ricci is the regression oracle.
    """
    p = as_point(p, spec.n)
    n = spec.n
    c = 1.0 / (n - 1)
    y = p[1:]
    fiber = spec.fiber
    h = fiber.metric(y)
    hinv = np.linalg.inv(h)
    GL = fiber.christoffel(y)
    ricL = fiber.ricci(y)
    grad = np.asarray(spec.psi.grad(p), dtype=float)
    hess = np.asarray(spec.psi.hess(p), dtype=float)
    w = math.exp(2.0 * c * float(spec.psi.value(p)))

    gy = grad[1:]
    hessL = hess[1:, 1:] - np.einsum("cab,c->ab", GL, gy)
    grad_h2 = float(gy @ hinv @ gy)

    hess_psi = np.empty((n, n))
    hess_psi[0, 0] = hess[0, 0]
    hess_psi[0, 1:] = hess_psi[1:, 0] = hess[0, 1:] - c * grad[0] * gy
    hess_psi[1:, 1:] = (hessL + c * grad[0] ** 2 * w * h
                        - c * (2.0 * np.outer(gy, gy) - grad_h2 * h))

    lap = hess_psi[0, 0] + float(np.sum(hinv * hess_psi[1:, 1:])) / w
    grad_g2 = grad[0] ** 2 + grad_h2 / w

    ric = np.empty((n, n))
    ric[0, 0] = -hess[0, 0] - c * grad[0] ** 2
    ric[0, 1:] = ric[1:, 0] = (2.0 - n) * c * hess[0, 1:]
    ric[1:, 1:] = (ricL + c * hess_psi[1:, 1:] + (2.0 - n) * c * hessL
                   + c * np.outer(gy, gy) - c * (lap + c * grad_g2) * w * h)
    if not np.all(np.isfinite(ric)):
        raise NonFinite(f"closed-form Ricci tensor at {p}")
    return ric


# ---------------------------------------------------------------------------
# CD(0,1) threshold for split spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    value: float
    r_at: float
    diverged: bool


def _golden_max(fn: Callable[[float], float], a: float, b: float,
                width: float = GOLDEN_WIDTH) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    # far out on r the floats are spaced wider than width: stop at 4 ulps
    while b - a > max(width, 4.0 * math.ulp(max(abs(a), abs(b)))):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def split_cd_threshold(split: SplitSpaceSpec, r_range: tuple[float, float],
                       n_grid: int = 201) -> ThresholdReport:
    """Supremum of phi''(r) e^{2 phi(r)/(n-1)} / (n-1) over the range.

    Grid scan followed by golden-section refinement around the best cell
    (to interval width 1e-10, or 4 ulps of r where the floats are spaced
    wider).  The ``diverged`` flag is set when the maximizer sits on the
    range boundary and the objective grew monotonically over the trailing
    samples, signalling that the true supremum lies outside the scanned
    window.
    """
    a, b = float(r_range[0]), float(r_range[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid range {r_range}")
    n, phi = split.n, split.phi
    p = np.concatenate([[0.0], split.fiber_basepoint()])

    def q(r: float) -> float:
        p[0] = r
        try:
            # a Python float product overflows to inf without a warning, and
            # the finite check below names it
            val = float(phi.hess(p)[0, 0]) * math.exp(2.0 * phi.value(p) / (n - 1)) / (n - 1)
        except OverflowError as exc:
            raise NonFinite(f"threshold objective overflows at r = {r}") from exc
        if not math.isfinite(val):
            raise NonFinite(f"threshold objective non-finite at r = {r}")
        return val

    rs = np.linspace(a, b, n_grid)
    vals = np.array([q(r) for r in rs])
    k = int(np.argmax(vals))
    lo = rs[max(0, k - 1)]
    hi = rs[min(n_grid - 1, k + 1)]
    r_at, value = _golden_max(q, lo, hi)
    if vals[k] > value:
        r_at, value = rs[k], vals[k]

    diverged = False
    tail = max(10, n_grid // 10)
    if k == n_grid - 1 and np.all(np.diff(vals[-tail:]) > 0):
        diverged = True
    if k == 0 and np.all(np.diff(vals[:tail]) < 0):
        diverged = True
    return ThresholdReport(value=float(value), r_at=float(r_at), diverged=diverged)


# ---------------------------------------------------------------------------
# blow-up obstruction ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiReport:
    """Outcome of integrating y'' = -a e^{-2y}.

    ``blow_up_time`` is positive for a forward escape, negative for a
    backward one; samples are (t, y, y') sorted by t.
    """

    blow_up: bool
    blow_up_time: float | None
    ts: np.ndarray
    ys: np.ndarray
    yps: np.ndarray
    threshold_used: float


def _integrate_obstruction(a: float, y0: float, y0p: float, t_max: float, dt: float,
                           meet=((), (), (), None)):
    """Fixed-step RK4 for y'' = -a e^{-2y} from (y0, y0p): the samples t, y
    and y' as lists, and the bracket midpoint of the step that reached
    ``BLOW_UP_THRESHOLD``, or None.

    ``meet`` is an earlier run's result for the same a, t_max and dt.  From
    the first step k after which this run's state (y, y') holds the same bits
    as that run's after step k, signed zeros kept apart, this run takes that
    run's remaining samples and its hit instead of stepping on.  That is
    exact: the step is an autonomous recurrence in (y, y') with a fixed dt,
    and the threshold stop, the velocity guard, the finite check and
    t = k dt read only the state and k, so two runs that hold the same state
    at the same k go on identically.  A non-finite state raises before the
    comparison, so NaN never reaches it.
    """
    exp, cap, sign = math.exp, EXP_CAP, math.copysign

    def acc(y: float, v: float) -> float:
        # min(e, EXP_CAP) is EXP_CAP if EXP_CAP < e else e, NaN included:
        # the conditional spares the stage a builtin call
        e = -2.0 * y
        return -a * exp(cap if cap < e else e)

    mts, mys, mvs, mhit = meet
    last = len(mys) - 1
    ts, ys, vs = [0.0], [y0], [y0p]
    y, v = y0, y0p
    nsteps = int(round(t_max / dt))
    hit = None
    for k in range(nsteps):
        y, v, _, _ = rk4_step(acc, y, v, dt)
        t = (k + 1) * dt
        if not (math.isfinite(y) and math.isfinite(v)):
            raise StepOverflow(f"non-finite ODE state at t = {t:.6g}")
        ts.append(t)
        ys.append(y)
        vs.append(v)
        if (k < last and y == mys[k + 1] and v == mvs[k + 1]
                and sign(1.0, y) == sign(1.0, mys[k + 1])
                and sign(1.0, v) == sign(1.0, mvs[k + 1])):
            return ts + mts[k + 2:], ys + mys[k + 2:], vs + mvs[k + 2:], mhit
        if y <= BLOW_UP_THRESHOLD:
            # event happened inside the last step: report the bracket midpoint
            hit = t - 0.5 * dt
            break
        if v >= VELOCITY_GUARD:
            raise StepOverflow(f"velocity guard {VELOCITY_GUARD:.3g} exceeded at t = {t:.6g}")
        # a velocity below -VELOCITY_GUARD cannot recover (y'' < 0 throughout),
        # so keep stepping: the next step lands below the detection threshold
    return ts, ys, vs, hit


def riccati_obstruction(a: float, y0: float, y0p: float, t_max: float,
                        dt: float = 1e-3) -> RiccatiReport:
    """Integrate y'' = -a e^{-2y} with fixed-step RK4 in both time directions.

    Concavity forces every solution on all of R to reach -infinity at some
    finite time, so the obstruction is detected forward or backward.  A
    forward escape is reported with positive time, a backward one with
    negative time; when both escape the forward time is reported.

    The backward half runs from (y0, -y0p) and is handed the forward half's
    samples: from the first step where its state equals the forward state
    at the same step, bit for bit, it takes the forward samples and hit
    (see ``_integrate_obstruction``).  At y0p = 0 the halves meet after one
    step, so the trajectory is integrated once, unless every velocity
    increment rounds to zero (a = 1 with y0 >= 370, or a subnormal a) and
    each half keeps the signed zero it started with.  Where the halves never
    meet, the backward half costs one comparison per step more.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    forward = _integrate_obstruction(a, y0, y0p, t_max, dt)
    tb, yb, vb, hit_b = _integrate_obstruction(a, y0, -y0p, t_max, dt, forward)
    tf, yf, vf, hit_f = forward

    ts = np.concatenate([np.negative(tb[:0:-1]), tf])
    ys = np.concatenate([yb[:0:-1], yf])
    yps = np.concatenate([np.negative(vb[:0:-1]), vf])

    if hit_f is not None:
        blow_time = hit_f
    elif hit_b is not None:
        blow_time = -hit_b
    else:
        blow_time = None
    return RiccatiReport(blow_up=blow_time is not None, blow_up_time=blow_time,
                         ts=ts, ys=ys, yps=yps, threshold_used=BLOW_UP_THRESHOLD)
