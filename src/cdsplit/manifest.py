"""Manifest files: a strict line-oriented format describing a manifold,
its density, and the numeric blocks the report suites need.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  Scalar expressions use a minimal arithmetic grammar (+ - * / ^,
parentheses, the variables r and y1..y_{n-1}, the functions sin cos exp log
sqrt cosh sinh, numeric literals).  Expressions are differentiated
symbolically, so manifest-built geometries carry analytic partials.  Each
expression is compiled once into nested closures over ``math`` and evaluated
one point at a time through ``eval_ast``; numpy ufuncs would round some
results differently (see ``chart_core``).

Unknown sections or keys are rejected, numbers must meet ``_NUMBERS``, and
every expression is trial-evaluated at the grid center during validation.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .chart_core import FDSteps, MetricSpec, ScalarField, VectorField, metric_at
from .comparison_suite import RadialModel
from .errors import ParseError, ValidationError
from .warped_products import (
    EuclideanFiber,
    SphereFiber,
    SplitSpaceSpec,
    TorusFiber,
    TwistedProductSpec,
)
from .weighted_curvature import GridSpec, box_grid, inset_box, product_grid, sample_box, split_grid

# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "cosh": math.cosh,
    "sinh": math.sinh,
}

# the binary operators, shared by compiled expressions and constant folding
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                       r"|\d+(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text: str, line: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in expression",
                             line=line, column=pos + 1)
        num, ident, op = m.groups()
        col = m.start() + 1
        if num is not None:
            out.append(("num", float(num), col))
        elif ident is not None:
            out.append(("ident", ident, col))
        else:
            out.append(("op", op, col))
        pos = m.end()
    out.append(("end", "", len(text) + 1))
    return out


class _Parser:
    """Pratt parser for the scalar expression grammar."""

    _BINDING = {"+": (1, 2), "-": (1, 2), "*": (3, 4), "/": (3, 4), "^": (8, 7)}

    def __init__(self, tokens, variables, line):
        self.toks = tokens
        self.i = 0
        self.variables = variables
        self.line = line

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, msg, col):
        raise ParseError(msg, line=self.line, column=col)

    def parse(self):
        ast = self.expr(0)
        kind, val, col = self.peek()
        if kind != "end":
            self.fail(f"unexpected trailing token {val!r}", col)
        return ast

    def expr(self, min_bp):
        kind, val, col = self.next()
        if kind == "num":
            lhs = ("num", val)
        elif kind == "ident":
            if val in _FUNCTIONS:
                k2, v2, c2 = self.next()
                if (k2, v2) != ("op", "("):
                    self.fail(f"function {val!r} needs parenthesized argument", c2)
                arg = self.expr(0)
                k3, v3, c3 = self.next()
                if (k3, v3) != ("op", ")"):
                    self.fail("missing closing parenthesis", c3)
                lhs = ("call", val, arg)
            elif val in self.variables:
                lhs = ("var", val)
            else:
                self.fail(f"unknown name {val!r} (variables: {sorted(self.variables)})", col)
        elif (kind, val) == ("op", "("):
            lhs = self.expr(0)
            k2, v2, c2 = self.next()
            if (k2, v2) != ("op", ")"):
                self.fail("missing closing parenthesis", c2)
        elif (kind, val) == ("op", "-"):
            lhs = ("neg", self.expr(6))
        elif (kind, val) == ("op", "+"):
            lhs = self.expr(6)
        else:
            self.fail(f"unexpected token {val!r}", col)
        while True:
            kind, val, col = self.peek()
            if kind != "op" or val not in self._BINDING:
                break
            lbp, rbp = self._BINDING[val]
            if lbp < min_bp:
                break
            self.next()
            rhs = self.expr(rbp)
            lhs = (val, lhs, rhs)
        return lhs


def parse_expression(text: str, variables, line: int = 1):
    """Parse an expression into an AST over the given variable names."""
    return _Parser(_tokenize(text, line), frozenset(variables), line).parse()


def _compile(ast, variables):
    """Compile an AST into nested closures over ``math`` and ``_BINARY``.

    The closure takes the variable values as a sequence, in the order of
    ``variables``.  It evaluates left operands first and keeps the values'
    own types, so it rounds exactly as the arithmetic written out would.
    """
    op = ast[0]
    if op == "num":
        v = ast[1]
        return lambda env: v
    if op == "var":
        i = variables.index(ast[1])
        return lambda env: env[i]
    if op == "neg":
        a = _compile(ast[1], variables)
        return lambda env: -a(env)
    if op == "call":
        fn, a = _FUNCTIONS[ast[1]], _compile(ast[2], variables)
        return lambda env: fn(a(env))
    fn = _BINARY[op]
    a, b = _compile(ast[1], variables), _compile(ast[2], variables)
    return lambda env: fn(a(env), b(env))


def eval_ast(expr: "Expression", values) -> float:
    """Evaluate a compiled expression at ``values``, one per variable in
    order.  Every manifest expression is evaluated through this one call."""
    return expr.code(values)


def _num(v):
    return ("num", float(v))


_ZERO = _num(0.0)
_ONE = _num(1.0)


def _is_num(ast, v=None):
    return ast[0] == "num" and (v is None or ast[1] == v)


def simplify(ast):
    op = ast[0]
    if op in ("num", "var"):
        return ast
    if op == "neg":
        a = simplify(ast[1])
        if _is_num(a):
            return _num(-a[1])
        return ("neg", a)
    if op == "call":
        a = simplify(ast[2])
        if _is_num(a):
            return _num(_FUNCTIONS[ast[1]](a[1]))
        return ("call", ast[1], a)
    a, b = simplify(ast[1]), simplify(ast[2])
    if _is_num(a) and _is_num(b):
        return _num(_BINARY[op](a[1], b[1]))
    if op == "+":
        if _is_num(a, 0.0):
            return b
        if _is_num(b, 0.0):
            return a
    elif op == "-":
        if _is_num(b, 0.0):
            return a
        if _is_num(a, 0.0):
            return simplify(("neg", b))
    elif op == "*":
        if _is_num(a, 0.0) or _is_num(b, 0.0):
            return _ZERO
        if _is_num(a, 1.0):
            return b
        if _is_num(b, 1.0):
            return a
    elif op == "/":
        if _is_num(a, 0.0):
            return _ZERO
        if _is_num(b, 1.0):
            return a
    elif op == "^":
        if _is_num(b, 1.0):
            return a
        if _is_num(b, 0.0):
            return _ONE
    return (op, a, b)


def diff(ast, var: str):
    """Symbolic derivative of the AST with respect to ``var``."""
    op = ast[0]
    if op == "num":
        return _ZERO
    if op == "var":
        return _ONE if ast[1] == var else _ZERO
    if op == "neg":
        return simplify(("neg", diff(ast[1], var)))
    if op == "call":
        fn, arg = ast[1], ast[2]
        da = diff(arg, var)
        if fn == "sin":
            outer = ("call", "cos", arg)
        elif fn == "cos":
            outer = ("neg", ("call", "sin", arg))
        elif fn == "exp":
            outer = ("call", "exp", arg)
        elif fn == "log":
            outer = ("/", _ONE, arg)
        elif fn == "sqrt":
            outer = ("/", _num(0.5), ("call", "sqrt", arg))
        elif fn == "cosh":
            outer = ("call", "sinh", arg)
        elif fn == "sinh":
            outer = ("call", "cosh", arg)
        else:  # pragma: no cover
            raise AssertionError(fn)
        return simplify(("*", outer, da))
    a, b = ast[1], ast[2]
    da, db = diff(a, var), diff(b, var)
    if op == "+":
        return simplify(("+", da, db))
    if op == "-":
        return simplify(("-", da, db))
    if op == "*":
        return simplify(("+", ("*", da, b), ("*", a, db)))
    if op == "/":
        return simplify(("/", ("-", ("*", da, b), ("*", a, db)), ("^", b, _num(2.0))))
    if op == "^":
        if _is_num(b):
            return simplify(("*", ("*", b, ("^", a, _num(b[1] - 1.0))), da))
        if _is_num(a):
            return simplify(("*", ("*", ("^", a, b), ("call", "log", a)), db))
        # general a^b = exp(b log a)
        inner = ("+", ("*", db, ("call", "log", a)), ("/", ("*", b, da), a))
        return simplify(("*", ("^", a, b), inner))
    raise AssertionError(f"unhandled node {op!r}")


@dataclass(frozen=True)
class Expression:
    """A parsed expression with its variable list, compiled once."""

    text: str
    ast: tuple
    variables: tuple[str, ...]

    @cached_property
    def code(self) -> Callable:
        """The AST compiled into closures, on first evaluation."""
        return _compile(self.ast, self.variables)

    def __call__(self, *values) -> float:
        return eval_ast(self, values)

    def derivative(self, var: str) -> "Expression":
        return Expression(text=f"d/d{var}({self.text})", ast=simplify(diff(self.ast, var)),
                          variables=self.variables)


def compile_expression(text: str, variables, line: int = 1) -> Expression:
    ast = simplify(parse_expression(text, variables, line))
    return Expression(text=text.strip(), ast=ast, variables=tuple(variables))


def expression_scalar_field(expr: Expression) -> ScalarField:
    """ScalarField over the expression's variables with analytic partials."""
    names = expr.variables
    grads = [expr.derivative(v) for v in names]
    hesses = [[grads[i].derivative(v) for v in names] for i in range(len(names))]
    n = len(names)

    def value(p):
        return eval_ast(expr, p)

    def grad(p):
        return np.array([eval_ast(g, p) for g in grads])

    def hess(p):
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = eval_ast(hesses[i][j], p)
        return 0.5 * (out + out.T)

    return ScalarField(value=value, grad=grad, hess=hess)


# ---------------------------------------------------------------------------
# manifest text parsing
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z_0-9]*)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*?)\s*$")


def _read_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
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
            sections[current][key] = (value, lineno)
            continue
        raise ParseError(f"cannot parse line: {raw.strip()!r}", line=lineno, column=1)
    return sections


KINDS = ("general", "split", "twisted", "radial_model")


class _Number(NamedTuple):
    """A numeric manifest key: its default (None when unset) and lower bound."""

    default: float | int | None
    bound: str = ""      # "> x" or ">= x"; empty when unbounded
    whole: bool = False  # whole numbers only


# Every numeric manifest key, read by ``_numbers``.  All values must be finite.
_NUMBERS = {
    "manifold": {"dim": _Number(None, ">= 2", whole=True)},
    "fiber": {"einstein_constant": _Number(None, "> 0"), "box": _Number(None, "> 0")},
    "grid": {
        "r_min": _Number(-10.0),
        "r_max": _Number(10.0),
        "r_count": _Number(201, ">= 2", whole=True),
        "fiber_count": _Number(9, ">= 1", whole=True),
        "y_min": _Number(None),
        "y_max": _Number(None),
    },
    "numeric": {
        "dt": _Number(1e-3, "> 0"),
        "tol_cd": _Number(1e-7, ">= 0"),
        "fd1": _Number(1e-5, "> 0"),
        "fd2": _Number(1e-4, "> 0"),
        "fd3": _Number(1e-3, "> 0"),
    },
    "cd": {"lambda": _Number(0.0)},
    "geodesic": {"T": _Number(10.0, "> 0")},
    "riccati": {
        "a": _Number(1.0, "> 0"),
        "y0": _Number(0.0),
        "y0p": _Number(0.0),
        "t_max": _Number(3.0, "> 0"),
    },
    "compare": {
        "rho_min": _Number(0.1, "> 0"),
        "rho_max": _Number(10.0),
        "count": _Number(100, ">= 1", whole=True),
    },
    "bochner": {"points": _Number(20, ">= 1", whole=True)},
}

# (section, low key, high key): low must be below high when both are set
_ORDERED = (("grid", "r_min", "r_max"), ("grid", "y_min", "y_max"),
            ("compare", "rho_min", "rho_max"))

_SECTION_KEYS = {
    "manifold": {"name", "kind", *_NUMBERS["manifold"]},
    "phi": {"expr"},
    "psi": {"expr"},
    "f_L": {"expr"},
    "fiber": {"type", "periods", *_NUMBERS["fiber"]},
    "density": None,  # f or X1..Xn, checked dynamically
    "metric": None,   # gij entries, checked dynamically
    "grid": set(_NUMBERS["grid"]),
    "numeric": set(_NUMBERS["numeric"]),
    "cd": {"N", *_NUMBERS["cd"]},
    "geodesic": {"start", "velocity", *_NUMBERS["geodesic"]},
    "riccati": set(_NUMBERS["riccati"]),
    "compare": set(_NUMBERS["compare"]),
    "bochner": set(_NUMBERS["bochner"]),
}

_KIND_REQUIRED = {
    "split": ("phi", "fiber"),
    "twisted": ("psi", "fiber"),
    "radial_model": ("density",),
    "general": ("metric", "density"),
}

_KIND_FORBIDDEN = {
    "split": ("psi", "metric", "density"),
    "twisted": ("phi", "metric"),
    "radial_model": ("phi", "psi", "fiber", "metric"),
    "general": ("phi", "psi", "fiber"),
}


@dataclass(frozen=True)
class ManifoldManifest:
    """Validated manifest: kind, dimension, expression blocks, numeric knobs."""

    name: str
    kind: str
    dim: int
    blocks: dict = dc_field(default_factory=dict)      # parsed expressions per block
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
    """The ``_NUMBERS`` keys of one section: parsed, checked against their
    bounds, and set to their defaults where absent."""
    values = {}
    for key, spec in _NUMBERS[section].items():
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
        values[key] = value
    return values


def _float_list(sections, section, key):
    if key not in sections[section]:
        raise ValidationError("missing required key", key=f"[{section}] {key}")
    return [_number(part.strip(), f"[{section}] {key}")
            for part in sections[section][key][0].split(",")]


def parse_manifest(path, overrides=()) -> ManifoldManifest:
    """Read, parse, and validate a manifest file (strict keys, bounded finite
    numbers, trial evaluation of every expression at the grid center).

    ``overrides`` are ``key=value`` strings for ``[grid]`` and ``[numeric]``
    keys.  They replace the file's entries before validation, so they get
    the same checks."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections = _read_sections(text)
    for item in overrides:
        key, eq, value = (part.strip() for part in item.partition("="))
        section = next((s for s in ("grid", "numeric") if key in _NUMBERS[s]), None)
        if not eq or section is None:
            raise ValidationError("overrides take the form key=value, with a [grid] "
                                  "or [numeric] key", key=item)
        sections.setdefault(section, {})[key] = (value, 0)

    if "manifold" not in sections:
        raise ValidationError("missing required section", key="[manifold]")
    man = sections["manifold"]
    if "kind" not in man:
        raise ValidationError("missing required key", key="[manifold] kind")
    kind = man["kind"][0]
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {KINDS}",
                              key="[manifold] kind")
    nums = {sec: _numbers(sections, sec) for sec in _NUMBERS}
    dim = nums["manifold"]["dim"]
    if dim is None:
        raise ValidationError("missing required key", key="[manifold] dim")
    name = man.get("name", (f"unnamed-{kind}", 0))[0]

    # strict section and key checking
    fiber_dim = dim - 1
    y_names = tuple(f"y{i + 1}" for i in range(fiber_dim))
    vec_names = tuple(f"X{i + 1}" for i in range(dim))
    for sec_name, content in sections.items():
        if sec_name not in _SECTION_KEYS:
            raise ValidationError("unknown section", key=f"[{sec_name}]")
        allowed = _SECTION_KEYS[sec_name]
        if sec_name == "density":
            allowed = {"f"} | set(vec_names)
        elif sec_name == "metric":
            allowed = {f"g{i + 1}{j + 1}" for i in range(dim) for j in range(dim)}
        for key in content:
            if key not in allowed:
                raise ValidationError("unknown key", key=f"[{sec_name}] {key}")

    for sec_name in _KIND_REQUIRED[kind]:
        if sec_name not in sections:
            raise ValidationError(f"kind {kind!r} requires section [{sec_name}]",
                                  key=f"[{sec_name}]")
    for sec_name in _KIND_FORBIDDEN[kind]:
        if sec_name in sections:
            raise ValidationError(f"kind {kind!r} does not accept section [{sec_name}]",
                                  key=f"[{sec_name}]")

    for sec_name, low, high in _ORDERED:
        lo, hi = nums[sec_name][low], nums[sec_name][high]
        if lo is not None and hi is not None and lo >= hi:
            raise ValidationError(f"{low} must be below {high}", key=f"[{sec_name}] {low}")
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

    # expression blocks
    blocks: dict = {}
    if kind == "split":
        expr_text, lineno = _require_expr(sections, "phi")
        blocks["phi"] = compile_expression(expr_text, ("r",), lineno)
        if "f_L" in sections:
            expr_text, lineno = _require_expr(sections, "f_L")
            blocks["f_L"] = compile_expression(expr_text, y_names, lineno)
        blocks["fiber"] = _parse_fiber(sections, fiber_dim, nums["fiber"])
    elif kind == "twisted":
        expr_text, lineno = _require_expr(sections, "psi")
        blocks["psi"] = compile_expression(expr_text, ("r",) + y_names, lineno)
        blocks["fiber"] = _parse_fiber(sections, fiber_dim, nums["fiber"])
        if "density" in sections:
            blocks["density"] = _parse_density(sections, dim, ("r",) + y_names, vec_names)
    elif kind == "radial_model":
        blocks["density"] = _parse_density(sections, dim, ("r",), vec_names)
        if blocks["density"][0] != "gradient":
            raise ValidationError("radial models need a scalar density f",
                                  key="[density] f")
    else:  # general
        blocks["metric"] = _parse_metric(sections, dim, ("r",) + y_names)
        blocks["density"] = _parse_density(sections, dim, ("r",) + y_names, vec_names)

    if "fiber" in blocks and grid["y_min"] is not None:
        box = blocks["fiber"].safe_box
        low, high = box[:, 0].max(), box[:, 1].min()
        if grid["y_min"] < low or grid["y_max"] > high:
            raise ValidationError(f"[y_min, y_max] must lie inside the fiber's safe box "
                                  f"[{low:g}, {high:g}]", key="[grid] y_min")

    extras = {sec: nums[sec] for sec in ("geodesic", "riccati", "compare", "bochner")}
    if "geodesic" in sections:
        start = _float_list(sections, "geodesic", "start")
        velocity = _float_list(sections, "geodesic", "velocity")
        if len(start) != dim or len(velocity) != dim:
            raise ValidationError(f"start and velocity need {dim} components",
                                  key="[geodesic] start")
        extras["geodesic"].update(start=np.array(start), velocity=np.array(velocity))

    manifest = ManifoldManifest(name=name, kind=kind, dim=dim, blocks=blocks, grid=grid,
                                numeric=numeric, cd=cd, extras=extras, source_text=text)
    _trial_evaluate(manifest)
    return manifest


def _require_expr(sections, sec_name):
    sec = sections[sec_name]
    if "expr" not in sec:
        raise ValidationError("missing required key", key=f"[{sec_name}] expr")
    return sec["expr"]


def _parse_fiber(sections, fiber_dim, numbers):
    if "fiber" not in sections:
        raise ValidationError("missing required section", key="[fiber]")
    sec = sections["fiber"]
    if "type" not in sec:
        raise ValidationError("missing required key", key="[fiber] type")
    ftype = sec["type"][0]
    box = {} if numbers["box"] is None else {"box": numbers["box"]}  # else the type's default
    if ftype == "euclidean":
        if "einstein_constant" in sec or "periods" in sec:
            raise ValidationError("euclidean fibers take no curvature keys",
                                  key="[fiber] type")
        return EuclideanFiber(dim=fiber_dim, **box)
    if ftype == "sphere":
        lam = numbers["einstein_constant"]
        if lam is None:
            raise ValidationError("missing required key", key="[fiber] einstein_constant")
        return SphereFiber(dim=fiber_dim, einstein_constant=lam, **box)
    if ftype == "torus":
        periods = _float_list(sections, "fiber", "periods")
        if len(periods) != fiber_dim:
            raise ValidationError(f"need {fiber_dim} periods", key="[fiber] periods")
        return TorusFiber(dim=fiber_dim, periods=tuple(periods), **box)
    raise ValidationError(f"unknown fiber type {ftype!r}", key="[fiber] type")


def _parse_density(sections, dim, scalar_vars, vec_names):
    sec = sections.get("density")
    if sec is None:
        raise ValidationError("missing required section", key="[density]")
    if "f" in sec:
        if any(v in sec for v in vec_names):
            raise ValidationError("give either f or vector components, not both",
                                  key="[density] f")
        text, lineno = sec["f"]
        return ("gradient", compile_expression(text, scalar_vars, lineno))
    comps = []
    for v in vec_names:
        if v not in sec:
            raise ValidationError(f"vector densities need all of {vec_names}",
                                  key=f"[density] {v}")
        text, lineno = sec[v]
        comps.append(compile_expression(text, scalar_vars, lineno))
    return ("vector", tuple(comps))


def _parse_metric(sections, dim, variables):
    sec = sections.get("metric")
    if sec is None:
        raise ValidationError("missing required section", key="[metric]")
    entries = {}
    for i in range(dim):
        for j in range(i, dim):
            key = f"g{i + 1}{j + 1}"
            alt = f"g{j + 1}{i + 1}"
            if key in sec:
                text, lineno = sec[key]
            elif alt in sec:
                text, lineno = sec[alt]
            else:
                raise ValidationError("missing metric entry", key=f"[metric] {key}")
            entries[(i, j)] = compile_expression(text, variables, lineno)
    return entries


# ---------------------------------------------------------------------------
# manifest -> grids, sample points and geometry objects
# ---------------------------------------------------------------------------

def fiber_box(manifest: ManifoldManifest) -> np.ndarray:
    """Fiber coordinate bounds, one (lo, hi) row per fiber axis:
    [y_min, y_max] when set (``parse_manifest`` sets both or neither), else
    the fiber's safe box, which is [-3, 3] per axis on general charts."""
    g = manifest.grid
    if g["y_min"] is not None:
        return np.array([[g["y_min"], g["y_max"]]] * (manifest.dim - 1))
    if "fiber" in manifest.blocks:
        return np.asarray(manifest.blocks["fiber"].safe_box, dtype=float)
    return np.array([[-3.0, 3.0]] * (manifest.dim - 1))


def grid_center(manifest: ManifoldManifest) -> np.ndarray:
    if manifest.kind == "radial_model":
        cmp_block = manifest.extras["compare"]
        out = np.zeros(manifest.dim)
        out[0] = 0.5 * (cmp_block["rho_min"] + cmp_block["rho_max"])
        return out
    box = fiber_box(manifest)
    r_mid = 0.5 * (manifest.grid["r_min"] + manifest.grid["r_max"])
    return np.concatenate([[r_mid], 0.5 * (box[:, 0] + box[:, 1])])


def cd_grid(manifest: ManifoldManifest, geo) -> GridSpec:
    """The verify-cd grid: the [compare] radii on radial models, else r_count
    radii times fiber_count points per axis of the fiber box, inset 2% on
    product charts."""
    g = manifest.grid
    if manifest.kind == "radial_model":
        cmp_block = manifest.extras["compare"]
        rho = np.linspace(cmp_block["rho_min"], cmp_block["rho_max"], cmp_block["count"])
        return geo["model"].cd_grid(rho)
    r_range = (g["r_min"], g["r_max"])
    box = fiber_box(manifest)
    if manifest.kind == "split":
        return split_grid(geo["split"], r_range, g["r_count"], g["fiber_count"], box)
    if manifest.kind == "twisted":
        return product_grid(r_range, box, g["r_count"], g["fiber_count"])
    return box_grid(np.vstack([r_range, box]),
                    [g["r_count"]] + [g["fiber_count"]] * (manifest.dim - 1))


def sample_points(manifest: ManifoldManifest, count: int, seed: int,
                  r_limit: float | None = None) -> np.ndarray:
    """Seeded uniform points: rho on the radial ray for radial models, else r
    in the grid range times the fiber box, inset 10% on product charts.
    ``r_limit`` clips r (or rho) to |r| <= r_limit, which must leave a range."""
    if manifest.kind == "radial_model":
        cmp_block = manifest.extras["compare"]
        key, r_lo, r_hi = "[compare] rho_min", cmp_block["rho_min"], cmp_block["rho_max"]
        # a zero-width box keeps the other coordinates at 0, on the ray rho * e_1
        box = np.zeros((manifest.dim - 1, 2))
    else:
        key, r_lo, r_hi = "[grid] r_min", manifest.grid["r_min"], manifest.grid["r_max"]
        box = fiber_box(manifest)
    if r_limit is not None:
        r_lo, r_hi = max(r_lo, -r_limit), min(r_hi, r_limit)
        if r_lo >= r_hi:
            raise ValidationError(f"the sampled range is empty: it is clipped to "
                                  f"|r| <= {r_limit:g}", key=key)
    fiber = manifest.blocks.get("fiber")
    if fiber is not None:
        box = inset_box(box, 0.1)
        if r_limit is not None and isinstance(fiber, SphereFiber):
            # stay where the stereographic chart is well conditioned: beyond
            # |y| = R the chart stretch amplifies finite-difference truncation
            R = math.sqrt(fiber.radius_sq)
            box = np.clip(box, -R, R)
    return sample_box(np.vstack([[r_lo, r_hi], box]), count, seed)


def _density_field(manifest: ManifoldManifest):
    kind, payload = manifest.blocks["density"]
    if kind == "gradient":
        return expression_scalar_field(payload)
    comps = payload

    def value(p):
        return np.array([eval_ast(c, p) for c in comps])

    return VectorField(value=value)


def build_geometry(manifest: ManifoldManifest):
    """Realize the manifest as toolkit objects.

    Returns a dict with keys among: 'spec' (MetricSpec), 'density',
    'split' (SplitSpaceSpec), 'twisted' (TwistedProductSpec),
    'model' (RadialModel).  The [numeric] fd overrides are threaded into
    every realized MetricSpec.
    """
    fd = FDSteps(h1=manifest.numeric["fd1"], h2=manifest.numeric["fd2"],
                 h3=manifest.numeric["fd3"])
    out = {}
    if manifest.kind == "split":
        phi = manifest.blocks["phi"]
        dphi = phi.derivative("r")
        d2phi = dphi.derivative("r")
        f_L = None
        if "f_L" in manifest.blocks:
            f_L = expression_scalar_field(manifest.blocks["f_L"])
        split = SplitSpaceSpec(n=manifest.dim, phi=phi, dphi=dphi, d2phi=d2phi,
                               fiber=manifest.blocks["fiber"], f_L=f_L, name=manifest.name,
                               fd=fd)
        out["split"] = split
        out["spec"] = split.metric_spec()
        out["density"] = split.density()
    elif manifest.kind == "twisted":
        psi_field = expression_scalar_field(manifest.blocks["psi"])
        twisted = TwistedProductSpec(n=manifest.dim, psi=psi_field,
                                     fiber=manifest.blocks["fiber"], name=manifest.name,
                                     fd=fd)
        out["twisted"] = twisted
        out["spec"] = twisted.metric_spec()
        if "density" in manifest.blocks:
            out["density"] = _density_field(manifest)
        else:
            out["density"] = psi_field  # the natural potential for this chart
    elif manifest.kind == "radial_model":
        f_expr = manifest.blocks["density"][1]
        df = f_expr.derivative("r")
        d2f = df.derivative("r")
        model = RadialModel(n=manifest.dim, f=f_expr, df=df, d2f=d2f, name=manifest.name)
        out["model"] = model
        out["spec"] = replace(model.metric_spec(), fd=fd)
        out["density"] = model.density()
    else:  # general
        entries = manifest.blocks["metric"]
        dim = manifest.dim
        names = ("r",) + tuple(f"y{i + 1}" for i in range(dim - 1))
        partial_tables = {
            (i, j): [entries[(i, j)].derivative(v) for v in names]
            for (i, j) in entries
        }

        def g(p):
            out_m = np.empty((dim, dim))
            for (i, j), e in entries.items():
                out_m[i, j] = out_m[j, i] = eval_ast(e, p)
            return out_m

        def partials(p):
            D = np.empty((dim, dim, dim))
            for (i, j), exprs in partial_tables.items():
                for k in range(dim):
                    D[k, i, j] = D[k, j, i] = eval_ast(exprs[k], p)
            return D

        out["spec"] = MetricSpec(dim=dim, g=g, partials=partials, name=manifest.name,
                                 coord_names=names, fd=fd)
        out["density"] = _density_field(manifest)
    return out


def _trial_evaluate(manifest: ManifoldManifest) -> None:
    """Evaluate every expression block at the grid center; reject non-finite
    results and structurally bad metrics early."""
    center = grid_center(manifest)
    try:
        geo = build_geometry(manifest)
        if "spec" in geo:
            g = metric_at(geo["spec"], center)
            vals = np.linalg.eigvalsh(g)
            if vals[0] <= 0:
                raise ValidationError(
                    f"metric is not positive definite at the grid center {center}",
                    key="[metric]")
        density = geo.get("density")
        if isinstance(density, ScalarField):
            v = density.value(center)
        elif isinstance(density, VectorField):
            v = float(np.linalg.norm(density.value(center)))
        else:
            v = 0.0
        if not np.isfinite(v):
            raise ValidationError(f"density evaluates non-finite at {center}",
                                  key="[density]")
    except (ValidationError, ParseError):
        raise
    except Exception as exc:
        raise ValidationError(f"trial evaluation at grid center failed: {exc}",
                              key="[manifold]") from exc
