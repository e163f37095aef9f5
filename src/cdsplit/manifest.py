"""Manifest files: a strict line-oriented format describing a manifold,
its density, and the numeric settings the report suites need.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  Scalar values are expressions of ``cdsplit.expr`` over the
variables r and y1..y_{n-1}, differentiated symbolically, so
manifest-built geometries carry analytic partials.  Each key's expression
is compiled with its line and the column where its value starts, and the
partials its geometry needs (``expr.partials``) are built right there, so a
derivative over an expression limit is refused, naming the key, before any
report is written.  A split space's ``[phi]`` is compiled over r alone, so
a fiber variable in it is a parse error, and becomes a field on the chart
point (r, y) whose partials in y are the constant 0.  A ``[fiber]`` of type
``euclidean`` or ``torus`` is a ``FlatFiber``, one of type ``sphere`` a
``SphereFiber``.

One table, ``_SECTIONS``, says what a manifest may hold: each section's
keys, with the default and bound of each numeric one, the kinds that
accept the section and the kinds that require it; ``_FIBER_KEYS`` says
which ``[fiber]`` keys each fiber type reads.  ``parse_manifest`` rejects
what they do not allow (a section a kind does not accept, empty or not,
among it, and a ``dim`` above ``MAX_DIM``), a grid, sample set or step
count larger than ``MAX_POINTS``, a metric entry given as both g_ij and
g_ji, a sphere fiber whose chart leaves the float range on its safe box,
and a geodesic start outside the chart's domain, at a radial model's origin
or where the metric is not positive definite, so a run refuses a bad
manifest before it writes a report.  It builds the geometry of the
manifest's kind once (``build_geometry`` returns it), evaluates it at the
grid center, and normalizes the geodesic's velocity.

The grid section at the end of this module is the one place that builds a
grid (``box_grid``, ``cd_grid``) or draws sample points (``sample_box``,
``sample_points``); every check takes the points it is given.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from typing import NamedTuple

import numpy as np

from .chart_core import MetricSpec, VectorField, in_domain, metric_at, point_jet, raising
from .comparison_suite import QUAD_POINTS, RadialModel
from .errors import NonFinite, ParseError, ValidationError
# eval_ast is imported only to be re-exported: the benchmark's spans and
# tests name it in this module
from .expr import ExpressionArray, compile_expression, eval_ast, expression_scalar_field, partials
from .geodesic_flow import normalize_velocity
from .warped_products import (
    FlatFiber,
    SphereFiber,
    SplitSpaceSpec,
    TwistedProductSpec,
    product_coords,
)
from .weighted_curvature import GridSpec

#: Most points, samples or steps a manifest may ask a run to build (see
#: ``_check_sizes``).  The largest runs in the shipped manifests, the tests
#: and the README take 32,481 grid points and 10,000 steps; a size far
#: beyond that cannot be held in memory or run at desk scale.
MAX_POINTS = 10 ** 6
#: Largest ``[manifold] dim``.  Each point of a Ricci stencil holds
#: (2n + 1) n^3 metric partials, so memory grows as n^4: one ``verify-cd``
#: block of 256 points peaks near 320 MB at dim 12, 900 MB at dim 16 and
#: 2.1 GB at dim 20.  The shipped manifests and the tests go up to dim 6.
MAX_DIM = 12


# ---------------------------------------------------------------------------
# manifest text parsing
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z_0-9]*)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*?)\s*$")


def _read_sections(text: str) -> dict[str, dict[str, tuple[str, int, int]]]:
    """Each section's keys, with the value text, its line and the column
    where the value starts."""
    sections: dict[str, dict[str, tuple[str, int, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            name = m.group(1)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        m = _KEY_RE.match(line.strip())
        if m:
            if current is None:
                raise ParseError("key outside any [section]", line=lineno, column=1)
            key, value = m.group(1), m.group(2)
            if key in sections[current]:
                raise ParseError(f"duplicate key {key!r} in [{current}]", line=lineno)
            # the value ends the line, which is stripped on the right
            sections[current][key] = (value, lineno, len(line) - len(value) + 1)
            continue
        raise ParseError(f"cannot parse line: {raw.strip()!r}", line=lineno, column=1)
    return sections


KINDS = ("general", "split", "twisted", "radial_model")


class _Number(NamedTuple):
    """A numeric manifest key: its default (None when unset), lower bound
    and upper bound."""

    default: float | int | None
    bound: str = ""      # "> x" or ">= x"; empty when unbounded
    whole: bool = False  # whole numbers only
    most: int | None = None  # the largest value allowed; None when unbounded


class _Section(NamedTuple):
    """A manifest section: each key with its ``_Number`` when numeric and
    None when not (``keys`` is None when the keys depend on dim), the kinds
    that accept the section and the kinds that require it."""

    keys: dict | None
    accepts: tuple = KINDS
    requires: tuple = ()


_PRODUCTS = ("split", "twisted")

# Every section a manifest may hold.  All numeric values must be finite.
_SECTIONS = {
    "manifold": _Section({"name": None, "kind": None,
                          "dim": _Number(None, ">= 2", whole=True, most=MAX_DIM)},
                         requires=KINDS),
    "phi": _Section({"expr": None}, ("split",), ("split",)),
    "psi": _Section({"expr": None}, ("twisted",), ("twisted",)),
    "f_L": _Section({"expr": None}, ("split",)),
    "fiber": _Section({"type": None, "periods": None, "einstein_constant": _Number(None, "> 0"),
                       "box": _Number(None, "> 0")}, _PRODUCTS, _PRODUCTS),
    "metric": _Section(None, ("general",), ("general",)),  # g_ij, i and j up to dim
    "density": _Section(None, ("twisted", "radial_model", "general"),  # f, or X1..X_dim
                        ("radial_model", "general")),
    "grid": _Section({
        "r_min": _Number(-10.0),
        "r_max": _Number(10.0),
        "r_count": _Number(201, ">= 2", whole=True),
        "fiber_count": _Number(9, ">= 1", whole=True),
        "y_min": _Number(None),
        "y_max": _Number(None),
    }, ("general", *_PRODUCTS)),  # a radial model's grid is its [compare] radii
    "numeric": _Section({"dt": _Number(1e-3, "> 0")}),
    "cd": _Section({"N": None, "lambda": _Number(0.0)}),
    "geodesic": _Section({"start": None, "velocity": None, "T": _Number(10.0, "> 0")}),
    "riccati": _Section({
        "a": _Number(1.0, "> 0"),
        "y0": _Number(0.0),
        "y0p": _Number(0.0),
        "t_max": _Number(3.0, "> 0"),
    }),
    "compare": _Section({
        "rho_min": _Number(0.1, "> 0"),
        "rho_max": _Number(10.0),
        "count": _Number(100, ">= 1", whole=True),
    }, ("radial_model",)),
    "bochner": _Section({"points": _Number(20, ">= 1", whole=True)}),
}

# the [fiber] keys each fiber type reads
_FIBER_KEYS = {
    "euclidean": {"type", "box"},
    "torus": {"type", "periods", "box"},
    "sphere": {"type", "einstein_constant", "box"},
}

# (section, low key, high key): low must be below high when both are set
_ORDERED = (("grid", "r_min", "r_max"), ("grid", "y_min", "y_max"),
            ("compare", "rho_min", "rho_max"))


@dataclass(frozen=True)
class ManifoldManifest:
    """Validated manifest: kind, dimension, built geometry, numeric knobs."""

    name: str
    kind: str
    dim: int
    geometry: dict = dc_field(default_factory=dict)    # what build_geometry returns
    grid: dict = dc_field(default_factory=dict)
    numeric: dict = dc_field(default_factory=dict)
    cd: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)      # geodesic / riccati / compare / bochner
    source_text: str = ""


def _number(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"expected a number, got {text!r}", key=key) from None
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text!r}", key=key)
    return value


def _numbers(sections, section) -> dict:
    """The numeric keys of one section of ``_SECTIONS``: parsed, checked
    against their bounds, and set to their defaults where absent."""
    values = {}
    for key, spec in (_SECTIONS[section].keys or {}).items():
        if spec is None:
            continue
        if key not in sections.get(section, {}):
            values[key] = spec.default
            continue
        name = f"[{section}] {key}"
        text = sections[section][key][0]
        value = _number(text, name)
        if spec.whole:
            if value != int(value):
                raise ValidationError(f"expected a whole number, got {text!r}", key=name)
            value = int(value)
        if spec.bound:
            op, low = spec.bound.split()
            if not (value > float(low) if op == ">" else value >= float(low)):
                raise ValidationError(f"must be {spec.bound}, got {text!r}", key=name)
        if spec.most is not None and value > spec.most:
            raise ValidationError(f"must be <= {spec.most}, got {text!r}", key=name)
        values[key] = value
    return values


def _check_sizes(kind: str, dim: int, nums: dict, has_cd: bool) -> None:
    """Refuse, naming its key, a size above ``MAX_POINTS`` that a run would
    build, computed from the manifest's numbers alone in Python integers:
    the geodesic's samples round(T / dt), riccati's steps round(t_max / dt),
    the Bochner samples, and on a radial model the quadrature samples of
    ``compare`` (count x QUAD_POINTS, which bounds its ``verify-cd`` grid of
    count radii too); on another kind with a [cd] block the ``verify-cd`` grid of
    r_count x fiber_count^(dim-1) points, and without one the threshold
    scan of r_count radii."""
    grid, dt, count = nums["grid"], nums["numeric"]["dt"], nums["compare"]["count"]
    T, t_max, points = nums["geodesic"]["T"], nums["riccati"]["t_max"], nums["bochner"]["points"]
    sizes = [("[numeric] dt", f"the geodesic's T / dt = {T:g} / {dt:g} samples", T / dt),
             ("[numeric] dt", f"riccati's t_max / dt = {t_max:g} / {dt:g} steps", t_max / dt),
             ("[bochner] points", f"the {points} Bochner samples", points)]
    if kind == "radial_model":
        sizes.append(("[compare] count", f"compare's count x {QUAD_POINTS} = {count} x "
                      f"{QUAD_POINTS} quadrature samples", count * QUAD_POINTS))
    elif has_cd:  # fiber_count >= 2 to the 64th is above MAX_POINTS already
        sizes.append(("[grid] r_count", f"the verify-cd grid's r_count x fiber_count^{dim - 1} "
                      f"= {grid['r_count']} x {grid['fiber_count']}^{dim - 1} points",
                      grid["r_count"] * grid["fiber_count"] ** min(dim - 1, 64)))
    else:
        sizes.append(("[grid] r_count", f"the threshold scan's {grid['r_count']} radii",
                      grid["r_count"]))
    for key, what, size in sizes:
        # capped, so that a step count round(T / dt) with T / dt = inf compares too
        if round(min(size, 2 * MAX_POINTS)) > MAX_POINTS:
            raise ValidationError(f"{what} are more than MAX_POINTS = {MAX_POINTS}", key=key)


def _float_list(sections, section, key):
    if key not in sections[section]:
        raise ValidationError("missing required key", key=f"[{section}] {key}")
    return [_number(part.strip(), f"[{section}] {key}")
            for part in sections[section][key][0].split(",")]


def parse_manifest(path, overrides=()) -> ManifoldManifest:
    """Read, parse, and validate a manifest file, build its geometry,
    evaluate it at the grid center, and decide the geodesic's start and
    unit velocity.

    ``_SECTIONS`` decides which sections a manifest may hold: right after
    the kind is read, an unknown section, a section the kind does not
    accept (empty or not) and a section the kind requires but lacks are
    refused, before any number is parsed.  Then come strict keys, bounded
    finite numbers, expression limits, the fiber keys of ``_FIBER_KEYS``
    and the sizes of ``_check_sizes``.

    ``overrides`` are ``key=value`` strings for ``[grid]`` keys and
    ``[numeric] dt``.  They replace the file's entries before validation,
    so they get the same checks."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections = _read_sections(text)
    for item in overrides:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise ValidationError("overrides take the form key=value", key=item)
        section = next((s for s in ("grid", "numeric") if key in _SECTIONS[s].keys), None)
        if section is None:
            raise ValidationError(f"an override sets a [grid] key or [numeric] dt, "
                                  f"not {key!r}", key=item)
        sections.setdefault(section, {})[key] = (value, 0, 0)

    if "manifold" not in sections:
        raise ValidationError("missing required section", key="[manifold]")
    man = sections["manifold"]
    if "kind" not in man:
        raise ValidationError("missing required key", key="[manifold] kind")
    kind = man["kind"][0]
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {KINDS}",
                              key="[manifold] kind")
    for sec_name, content in sections.items():
        if sec_name not in _SECTIONS:
            raise ValidationError("unknown section", key=f"[{sec_name}]")
        if kind not in _SECTIONS[sec_name].accepts:
            raise ValidationError(f"kind {kind!r} does not accept section [{sec_name}]",
                                  key=" ".join([f"[{sec_name}]", *content][:2]))
    for sec_name, spec in _SECTIONS.items():
        if kind in spec.requires and sec_name not in sections:
            raise ValidationError(f"kind {kind!r} requires section [{sec_name}]",
                                  key=f"[{sec_name}]")
    nums = {sec: _numbers(sections, sec) for sec in _SECTIONS}
    dim = nums["manifold"]["dim"]
    if dim is None:
        raise ValidationError("missing required key", key="[manifold] dim")
    name = man.get("name", (f"unnamed-{kind}", 0))[0]

    for sec_name, content in sections.items():
        allowed = _SECTIONS[sec_name].keys
        if sec_name == "density":
            allowed = {"f"} | {f"X{i + 1}" for i in range(dim)}
        elif sec_name == "metric":
            allowed = {f"g{i + 1}{j + 1}" for i in range(dim) for j in range(dim)}
        for key in content:
            if key not in allowed:
                raise ValidationError("unknown key", key=f"[{sec_name}] {key}")

    for sec_name, low, high in _ORDERED:
        lo, hi = nums[sec_name][low], nums[sec_name][high]
        if lo is not None and hi is not None and lo >= hi:
            raise ValidationError(f"{low} must be below {high}", key=f"[{sec_name}] {low}")
        # a width beyond the float range leaves no grid or sample to take there
        if lo is not None and hi is not None and not math.isfinite(hi - lo):
            raise ValidationError(f"{high} - {low} is beyond the float range",
                                  key=f"[{sec_name}] {low}")
    # and so is the fiber's safe box [-box, box]
    box = nums["fiber"]["box"]
    if box is not None and not math.isfinite(2.0 * box):
        raise ValidationError("the box's width 2 * box is beyond the float range",
                              key="[fiber] box")
    grid, numeric = nums["grid"], nums["numeric"]
    if (grid["y_min"] is None) != (grid["y_max"] is None):
        lone = "y_min" if grid["y_max"] is None else "y_max"
        raise ValidationError("y_min and y_max must be set together", key=f"[grid] {lone}")

    cd = {}
    if "cd" in sections:
        n_text = sections["cd"].get("N", ("1", 0))[0]
        infinite = n_text.lower().lstrip("+") in ("inf", "infinity")
        N = math.inf if infinite else _number(n_text, "[cd] N")
        if N == dim:
            raise ValidationError(
                f"N = {n_text} equals the manifold dimension: the generalized-Ricci "
                f"denominator N - n vanishes there, so the condition is undefined",
                key="[cd] N")
        cd = {"lambda": nums["cd"]["lambda"], "N": N}
    _check_sizes(kind, dim, nums, bool(cd))

    geometry = _build(kind, sections, dim, name, nums["fiber"])

    fiber = _fiber(geometry)
    if fiber is not None and grid["y_min"] is not None:
        box = fiber.safe_box
        low, high = box[:, 0].max(), box[:, 1].min()
        if grid["y_min"] < low or grid["y_max"] > high:
            raise ValidationError(f"[y_min, y_max] must lie inside the fiber's safe box "
                                  f"[{low:g}, {high:g}]", key="[grid] y_min")

    extras = {sec: nums[sec] for sec in ("geodesic", "riccati", "compare", "bochner")}
    manifest = ManifoldManifest(name=name, kind=kind, dim=dim, geometry=geometry, grid=grid,
                                numeric=numeric, cd=cd, extras=extras, source_text=text)
    _trial_evaluate(manifest)
    extras["geodesic"].update(_geodesic_start(manifest, sections))
    return manifest


# ---------------------------------------------------------------------------
# manifest sections -> geometry objects
# ---------------------------------------------------------------------------

@contextmanager
def _naming(key: str):
    """Re-raise a key-less ValidationError, a constructor's ValueError or an
    evaluation's NonFinite as a ValidationError naming ``key``, and an
    expression's ParseError as one naming ``key`` at the same position."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(exc.message, exc.line, exc.column, key=key) from None
    except ValidationError as exc:
        if exc.key is not None:
            raise
        raise ValidationError(str(exc), key=key) from None
    except (ValueError, NonFinite) as exc:
        raise ValidationError(str(exc), key=key) from None


def _compiled(sections, section, key, variables, build=lambda e: e):
    """``build`` of the compiled expression ``[section] key``, called here:
    every derivative a geometry takes is built at parse, through
    ``partials``, so an expression limit or constant-folding failure, in
    compiling or in a derivative, is a ValidationError naming the key before
    any report is written."""
    if key not in sections[section]:
        raise ValidationError("missing required key", key=f"[{section}] {key}")
    text, line, column = sections[section][key]
    with _naming(f"[{section}] {key}"):
        return build(compile_expression(text, variables, line, column))


def _build(kind, sections, dim, name, fiber_numbers) -> dict:
    """The toolkit objects of one manifest kind: 'spec' (MetricSpec) and
    'density', plus 'split' (SplitSpaceSpec), 'twisted' (TwistedProductSpec)
    or 'model' (RadialModel)."""
    names = product_coords(dim)
    if kind == "split":
        # compiled over r alone, so that a fiber variable is a parse error,
        # then read as a field on the chart point (r, y)
        phi = _compiled(sections, "phi", "expr", ("r",),
                        lambda e: expression_scalar_field(replace(e, variables=names)))
        f_L = (_compiled(sections, "f_L", "expr", names[1:], expression_scalar_field)
               if "f_L" in sections else None)
        split = SplitSpaceSpec(n=dim, phi=phi,
                               fiber=_parse_fiber(sections, dim - 1, fiber_numbers),
                               f_L=f_L, name=name)
        return {"split": split, "spec": split.metric_spec(), "density": split.density()}
    if kind == "twisted":
        psi = _compiled(sections, "psi", "expr", names, expression_scalar_field)
        twisted = TwistedProductSpec(n=dim, psi=psi,
                                     fiber=_parse_fiber(sections, dim - 1, fiber_numbers),
                                     name=name)
        # the twist potential is the natural density of this chart
        density = _density(sections, names) if "density" in sections else psi
        return {"twisted": twisted, "spec": twisted.metric_spec(), "density": density}
    if kind == "radial_model":
        if "f" not in sections["density"] or len(sections["density"]) > 1:
            raise ValidationError("radial models take a scalar density f alone",
                                  key="[density] f")
        f, (df,), ((d2f,),) = _compiled(sections, "density", "f", ("r",),
                                        lambda e: partials(e, 2))
        model = RadialModel(n=dim, f=f, df=df, d2f=d2f, name=name)
        return {"model": model, "spec": model.metric_spec(), "density": model.density()}
    return {"spec": _general_metric(sections, dim, names, name),
            "density": _density(sections, names)}


def _fiber(geometry: dict):
    """The fiber of a split or twisted geometry, else None."""
    return getattr(geometry.get("split") or geometry.get("twisted"), "fiber", None)


def _parse_fiber(sections, fiber_dim, numbers):
    sec = sections["fiber"]
    if "type" not in sec:
        raise ValidationError("missing required key", key="[fiber] type")
    ftype = sec["type"][0]
    if ftype not in _FIBER_KEYS:
        raise ValidationError(f"unknown fiber type {ftype!r}", key="[fiber] type")
    for key in sec:
        if key not in _FIBER_KEYS[ftype]:
            raise ValidationError(f"{ftype} fibers take no {key}", key=f"[fiber] {key}")
    box = {} if numbers["box"] is None else {"box": numbers["box"]}  # else the type's default
    with _naming("[fiber]"):
        if ftype == "euclidean":
            return FlatFiber(dim=fiber_dim, **box)
        if ftype == "sphere":
            lam = numbers["einstein_constant"]
            if lam is None:
                raise ValidationError("missing required key", key="[fiber] einstein_constant")
            fiber = SphereFiber(dim=fiber_dim, einstein_constant=lam, **box)
            _check_sphere_range(fiber, "[fiber] box" if box else "[fiber] einstein_constant")
            return fiber
        periods = _float_list(sections, "fiber", "periods")
        if len(periods) != fiber_dim:
            raise ValidationError(f"need {fiber_dim} periods", key="[fiber] periods")
        return FlatFiber(dim=fiber_dim, periods=periods, **box)


def _cube(x: float) -> float:
    """x ** 3 as Python takes it, inf where that raises OverflowError."""
    try:
        return x ** 3
    except OverflowError:
        return math.inf


def _check_sphere_range(fiber: SphereFiber, box_key: str) -> None:
    """Refuse a sphere fiber whose chart leaves the float range on its safe
    box.  Its point form, which the RK4 stage runs, takes R^4, and s^2 and
    s^3 for s = R^2 + |y|^2, as Python floats: a power beyond the float
    range raises OverflowError, and a division by an s^3 that underflowed
    to 0 raises ZeroDivisionError.  s is least at y = 0 and greatest at the
    box's corners, |y|^2 = m box^2; when s^3 is a normal float at both, so
    are R^4 and s^2.  ``box_key`` names the key that set the box."""
    R2, m, finfo = fiber.radius_sq, fiber.dim, np.finfo(float)
    if not finfo.tiny <= _cube(R2) <= finfo.max:
        raise ValidationError(f"R^2 = (dim - 1) / einstein_constant = {R2:g}: the sphere "
                              f"chart's (R^2 + |y|^2)^3 leaves the float range at y = 0",
                              key="[fiber] einstein_constant")
    if not _cube(R2 + m * fiber.box * fiber.box) <= finfo.max:
        raise ValidationError(f"the sphere chart's (R^2 + |y|^2)^3 overflows at the corners "
                              f"of the safe box, |y|^2 = {m} box^2", key=box_key)


def _density(sections, variables):
    """[density] as a field: f with analytic partials, or the vector X1..Xn."""
    sec = sections["density"]
    if "f" in sec:
        if len(sec) > 1:
            raise ValidationError("give either f or vector components, not both",
                                  key="[density] f")
        return _compiled(sections, "density", "f", variables, expression_scalar_field)
    return VectorField(value=ExpressionArray(
        [_compiled(sections, "density", f"X{i + 1}", variables) for i in range(len(variables))]))


def _general_metric(sections, dim, names, name) -> MetricSpec:
    """[metric] as a MetricSpec whose jet evaluates the entries g_ij (i <= j;
    g_ji may stand in for g_ij, but not be given beside it) and their
    derivatives: a single row in their point form, more in their block
    form."""
    sec = sections["metric"]
    entries = {}
    for i in range(dim):
        for j in range(i, dim):
            key, twin = f"g{i + 1}{j + 1}", f"g{j + 1}{i + 1}"
            if i != j and key in sec and twin in sec:
                raise ValidationError(f"the metric is symmetric: give {key} or {twin}, "
                                      f"not both", key=f"[metric] {twin}")
            if key not in sec and twin not in sec:
                raise ValidationError("missing metric entry", key=f"[metric] {key}")
            key = key if key in sec else twin
            entries[i, j] = _compiled(sections, "metric", key, names, lambda e: partials(e, 1))
    upper = [[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    g = ExpressionArray([[e for e, _ in row] for row in upper])
    D = ExpressionArray([[[dg[k] for _, dg in row] for row in upper] for k in range(dim)])
    return MetricSpec(dim=dim, name=name, coord_names=names, jet=point_jet(g, D))


def build_geometry(manifest: ManifoldManifest) -> dict:
    """The toolkit objects ``parse_manifest`` built (see ``_build``); every
    call returns the same objects."""
    return manifest.geometry


def _trial_evaluate(manifest: ManifoldManifest) -> None:
    """Evaluate the built metric and density at the grid center; reject
    non-finite results and structurally bad metrics early."""
    center = grid_center(manifest)
    try:
        # the conditions numpy reports raise here, so that a refusal is one
        # error line with no warning line before it
        with np.errstate(**raising()):
            if not np.linalg.eigvalsh(metric_at(manifest.geometry["spec"], center))[0] > 0:
                raise ValidationError(
                    f"metric is not positive definite at the grid center {center}",
                    key="[metric]")
            if not np.all(np.isfinite(manifest.geometry["density"].value(center))):
                raise ValidationError(f"density evaluates non-finite at {center}",
                                      key="[density]")
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"trial evaluation at grid center failed: {exc}",
                              key="[manifold]") from exc


def _geodesic_start(manifest: ManifoldManifest, sections) -> dict:
    """The geodesic's ``start`` and unit ``velocity``: [geodesic] start and
    velocity, else the grid center and e_1."""
    spec, dim, key = manifest.geometry["spec"], manifest.dim, "[geodesic] start"
    start, velocity = grid_center(manifest), np.eye(dim)[0]
    if "geodesic" in sections:
        start, velocity = (np.array(_float_list(sections, "geodesic", name))
                           for name in ("start", "velocity"))
        if len(start) != dim or len(velocity) != dim:
            raise ValidationError(f"start and velocity need {dim} components", key=key)
        if not in_domain(spec, start):
            raise ValidationError("lies outside the chart's domain", key=key)
        if manifest.kind == "radial_model" and float(np.linalg.norm(start)) < 1e-12:
            raise ValidationError("is the origin, where the density is singular", key=key)
    with _naming(key):
        if not np.linalg.eigvalsh(metric_at(spec, start))[0] > 0:
            raise ValidationError(f"metric is not positive definite at {start}")
    with _naming("[geodesic] velocity"):
        velocity = normalize_velocity(spec, start, velocity)
    return {"start": start, "velocity": velocity}


# ---------------------------------------------------------------------------
# manifest -> grids and sample points: the one place that builds either
# ---------------------------------------------------------------------------

def box_grid(bounds, counts, description: str | None = None) -> GridSpec:
    """Uniform box grid; bounds is (n, 2), counts one integer per axis.  An
    axis of one point takes the middle of its range."""
    bounds = np.asarray(bounds, dtype=float)
    axes = [np.linspace(lo, hi, int(c)) if int(c) != 1 else np.array([0.5 * (lo + hi)])
            for (lo, hi), c in zip(bounds, counts)]
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


def fiber_box(manifest: ManifoldManifest) -> np.ndarray:
    """Fiber coordinate bounds, one (lo, hi) row per fiber axis:
    [y_min, y_max] when set (``parse_manifest`` sets both or neither), else
    the fiber's safe box, which is [-3, 3] per axis on general charts."""
    g = manifest.grid
    if g["y_min"] is not None:
        return np.array([[g["y_min"], g["y_max"]]] * (manifest.dim - 1))
    fiber = _fiber(manifest.geometry)
    if fiber is not None:
        return np.asarray(fiber.safe_box, dtype=float)
    return np.array([[-3.0, 3.0]] * (manifest.dim - 1))


def _axes(manifest: ManifoldManifest):
    """(the r range, r count, fiber box, points per fiber axis, and the key
    naming the r range) of every grid and sample of a manifest: the
    [compare] radii on a radial model, with a zero-width fiber box of one
    point per axis that keeps them on the ray rho * e_1; else the [grid]
    range and counts and ``fiber_box``."""
    if manifest.kind == "radial_model":
        c = manifest.extras["compare"]
        return ((c["rho_min"], c["rho_max"]), c["count"], np.zeros((manifest.dim - 1, 2)), 1,
                "[compare] rho_min")
    g = manifest.grid
    return ((g["r_min"], g["r_max"]), g["r_count"], fiber_box(manifest), g["fiber_count"],
            "[grid] r_min")


def grid_center(manifest: ManifoldManifest) -> np.ndarray:
    """The middle of the r range and of the fiber box."""
    (lo, hi), _, box, _, _ = _axes(manifest)
    return np.concatenate([[0.5 * (lo + hi)], 0.5 * (box[:, 0] + box[:, 1])])


def grid_summary(manifest: ManifoldManifest) -> str:
    """The grid line of a report header."""
    (lo, hi), count, _, fiber_count, _ = _axes(manifest)
    if manifest.kind == "radial_model":
        return f"radial ray, rho in [{lo:g}, {hi:g}] x {count}"
    return f"r in [{lo:g}, {hi:g}] x {count}, fiber {fiber_count} per axis"


def cd_grid(manifest: ManifoldManifest) -> GridSpec:
    """The verify-cd grid, which compare also checks: r_count radii times
    fiber_count points per axis of the fiber box, inset 2% on product
    charts (``_axes``); on a radial model the [compare] radii."""
    (lo, hi), count, box, fiber_count, _ = _axes(manifest)
    if _fiber(manifest.geometry) is not None:
        box = inset_box(box, 0.02)
    description = {
        "radial_model": f"radial ray, {count} radii",
        "split": f"r in [{lo:g},{hi:g}] x {count}, fiber box {fiber_count} per axis (2% inset)",
    }.get(manifest.kind)
    return box_grid(np.vstack([(lo, hi), box]), [count] + [fiber_count] * (manifest.dim - 1),
                    description)


def sample_region(manifest: ManifoldManifest, r_limit: float | None = None) -> np.ndarray:
    """The box of ``sample_points``, one (lo, hi) row per coordinate: r
    (rho on a radial model) and the fiber box of ``_axes``, inset 10% on
    product charts.  ``r_limit`` clips r (or rho) to |r| <= r_limit, which
    must leave a range."""
    (r_lo, r_hi), _, box, _, key = _axes(manifest)
    if r_limit is not None:
        r_lo, r_hi = max(r_lo, -r_limit), min(r_hi, r_limit)
        if r_lo >= r_hi:
            raise ValidationError(f"the sampled range is empty: it is clipped to "
                                  f"|r| <= {r_limit:g}", key=key)
    fiber = _fiber(manifest.geometry)
    if fiber is not None:
        box = inset_box(box, 0.1)
        if r_limit is not None and isinstance(fiber, SphereFiber):
            # stay where the stereographic chart is well conditioned: beyond
            # |y| = R the chart stretch amplifies finite-difference truncation
            R = math.sqrt(fiber.radius_sq)
            box = np.clip(box, -R, R)
    return np.vstack([[r_lo, r_hi], box])


def sample_points(manifest: ManifoldManifest, count: int, seed: int,
                  r_limit: float | None = None) -> np.ndarray:
    """Seeded uniform points in ``sample_region(manifest, r_limit)``: the
    points of curvature, bochner and the rigidity check."""
    return sample_box(sample_region(manifest, r_limit), count, seed)
