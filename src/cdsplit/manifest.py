"""Manifest files: a strict line-oriented format describing a manifold,
its density, and the numeric settings the report suites need.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  Scalar expressions use a minimal arithmetic grammar (+ - * / ^,
parentheses, the variables r and y1..y_{n-1}, the functions sin cos exp log
sqrt cosh sinh, numeric literals).  Expressions are differentiated
symbolically, so manifest-built geometries carry analytic partials.  Each
expression is compiled once into nested closures over ``math`` and evaluated
one point at a time through ``eval_ast``, and ``expression_array`` evaluates
the gradients, Hessians, vector densities and metrics built from several,
with their constant entries filled in once; numpy ufuncs would round some
results differently.  A value with no real result at a point (``sqrt(-1)``,
``exp(1000)``) is NonFinite, naming the expression and the point.
``expression_scalar_field`` is the one way an analytic scalar field is
built, from a manifest or in ``catalog``.  A split space's ``[phi]`` is
compiled over r alone, so a fiber variable in it is a parse error, and
becomes a field on the chart point (r, y) whose partials in y are the
constant 0.  A ``[fiber]`` of type ``euclidean`` or ``torus`` is a
``FlatFiber``, one of type ``sphere`` a ``SphereFiber``.

``parse_manifest`` rejects unknown sections or keys, numbers outside
``_NUMBERS``, a metric entry given as both g_ij and g_ji, and a geodesic
start outside the chart's domain.  It builds the geometry of the manifest's
kind once (``build_geometry`` returns it) and evaluates it at the grid
center.  An expression, and each derivative taken of it, nests at most
``MAX_DEPTH`` levels; a derivative has at most ``MAX_DERIVATIVE_NODES``
nodes.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .chart_core import FDSteps, MetricSpec, ScalarField, VectorField, in_domain, metric_at
from .comparison_suite import RadialModel
from .errors import NonFinite, ParseError, ValidationError
from .warped_products import (
    FlatFiber,
    SphereFiber,
    SplitSpaceSpec,
    TwistedProductSpec,
    product_coords,
)
from .weighted_curvature import GridSpec, box_grid, inset_box, product_grid, sample_box, split_grid

# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

#: Deepest nesting allowed in an expression or in any derivative of it.
MAX_DEPTH = 100
#: Most nodes allowed in a symbolic derivative.
MAX_DERIVATIVE_NODES = 10_000
_TOO_DEEP = f"nests deeper than {MAX_DEPTH} levels"

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
    """Pratt parser for the scalar expression grammar.  It recurses at most
    ``MAX_DEPTH`` levels (parentheses, calls, signs, right operands)."""

    _BINDING = {"+": (1, 2), "-": (1, 2), "*": (3, 4), "/": (3, 4), "^": (8, 7)}

    def __init__(self, tokens, variables, line):
        self.toks = tokens
        self.i = 0
        self.variables = variables
        self.line = line
        self.level = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, msg, col):
        raise ParseError(msg, line=self.line, column=col)

    def expect(self, op, msg):
        kind, val, col = self.next()
        if (kind, val) != ("op", op):
            self.fail(msg, col)

    def parse(self):
        ast = self.expr(0)
        kind, val, col = self.peek()
        if kind != "end":
            self.fail(f"unexpected trailing token {val!r}", col)
        return ast

    def expr(self, min_bp):
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ValidationError(f"expression {_TOO_DEEP}")
        kind, val, col = self.next()
        if kind == "num":
            lhs = ("num", val)
        elif kind == "ident":
            if val in _FUNCTIONS:
                self.expect("(", f"function {val!r} needs parenthesized argument")
                lhs = ("call", val, self.expr(0))
                self.expect(")", "missing closing parenthesis")
            elif val in self.variables:
                lhs = ("var", val)
            else:
                self.fail(f"unknown name {val!r} (variables: {sorted(self.variables)})", col)
        elif (kind, val) == ("op", "("):
            lhs = self.expr(0)
            self.expect(")", "missing closing parenthesis")
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
        self.level -= 1
        return lhs


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
    order.  Every manifest expression is evaluated through this one call.
    A value with no finite real result (``sqrt`` or ``log`` of a negative
    number, ``exp`` beyond the float range, a Python float divided by 0) is
    NonFinite, naming the expression and the point."""
    try:
        return expr.code(values)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        at = ", ".join(f"{v} = {float(x)!r}" for v, x in zip(expr.variables, values))
        raise NonFinite(f"{expr.text} has no finite real value at {at} ({exc})") from None


def _num(v):
    return ("num", float(v))


_ZERO = _num(0.0)
_ONE = _num(1.0)


def _is_num(ast, v=None):
    return ast[0] == "num" and (v is None or ast[1] == v)


def _folded(fn, *args):
    """The number node of fn(*args), for constant folding.  A constant part
    with no real value (1/0, log(0), (0-1)^0.5) is a ValidationError."""
    try:
        return _num(fn(*args))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise ValidationError(f"a constant part has no real value ({exc})") from None


def _node(op, *args):
    """The node ``(op, *args)`` over simplified operands, simplified at its
    top: constants folded, and the identities of 0 and 1 applied."""
    if op == "neg":
        (a,) = args
        return _num(-a[1]) if _is_num(a) else ("neg", a)
    if op == "call":
        name, a = args
        return _folded(_FUNCTIONS[name], a[1]) if _is_num(a) else ("call", name, a)
    a, b = args
    if _is_num(a) and _is_num(b):
        return _folded(_BINARY[op], a[1], b[1])
    if op == "+" and _is_num(a, 0.0):
        return b
    if op in "+-" and _is_num(b, 0.0):
        return a
    if op == "-" and _is_num(a, 0.0):
        return _node("neg", b)
    if op in "*/" and _is_num(a, 0.0) or op == "*" and _is_num(b, 0.0):
        return _ZERO
    if op == "*" and _is_num(a, 1.0):
        return b
    if op in "*/^" and _is_num(b, 1.0):
        return a
    if op == "^" and _is_num(b, 0.0):
        return _ONE
    return (op, a, b)


def simplify(ast):
    op = ast[0]
    if op in ("num", "var"):
        return ast
    if op == "call":
        return _node("call", ast[1], simplify(ast[2]))
    return _node(op, *(simplify(a) for a in ast[1:]))


# d/da of each function at its argument a
_OUTER = {
    "sin": lambda a: _node("call", "cos", a),
    "cos": lambda a: _node("neg", _node("call", "sin", a)),
    "exp": lambda a: _node("call", "exp", a),
    "log": lambda a: _node("/", _ONE, a),
    "sqrt": lambda a: _node("/", _num(0.5), _node("call", "sqrt", a)),
    "cosh": lambda a: _node("call", "sinh", a),
    "sinh": lambda a: _node("call", "cosh", a),
}


def diff(ast, var: str):
    """Symbolic derivative of a simplified AST with respect to ``var``,
    itself simplified.  Each node is built once by ``_node`` over operands
    that are already simplified, so the work is linear in the size of
    ``ast``; subtrees of ``ast`` are shared, not copied."""
    op = ast[0]
    if op == "num":
        return _ZERO
    if op == "var":
        return _ONE if ast[1] == var else _ZERO
    if op == "neg":
        return _node("neg", diff(ast[1], var))
    if op == "call":
        return _node("*", _OUTER[ast[1]](ast[2]), diff(ast[2], var))
    a, b = ast[1], ast[2]
    da, db = diff(a, var), diff(b, var)
    if op == "+":
        return _node("+", da, db)
    if op == "-":
        return _node("-", da, db)
    if op == "*":
        return _node("+", _node("*", da, b), _node("*", a, db))
    if op == "/":
        return _node("/", _node("-", _node("*", da, b), _node("*", a, db)),
                     _node("^", b, _num(2.0)))
    if op == "^":
        if _is_num(b):
            return _node("*", _node("*", b, _node("^", a, _num(b[1] - 1.0))), da)
        if _is_num(a):
            return _node("*", _node("*", _node("^", a, b), _node("call", "log", a)), db)
        # general a^b = exp(b log a)
        inner = _node("+", _node("*", db, _node("call", "log", a)),
                      _node("/", _node("*", b, da), a))
        return _node("*", _node("^", a, b), inner)
    raise AssertionError(f"unhandled node {op!r}")


def _extent(ast, most=math.inf) -> tuple[int, int]:
    """Node count and depth of the tree ``ast`` spells out, a shared subtree
    counted at each use; the walk stops once the count passes ``most``."""
    nodes, depth, stack = 0, 0, [(ast, 1)]
    while stack and nodes <= most:
        node, d = stack.pop()
        nodes, depth = nodes + 1, max(depth, d)
        stack.extend((child, d + 1) for child in node[1:] if type(child) is tuple)
    return nodes, depth


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
        """The partial derivative in ``var``.  A derivative deeper than
        ``MAX_DEPTH`` or larger than ``MAX_DERIVATIVE_NODES`` nodes is a
        ValidationError."""
        ast = diff(self.ast, var)
        nodes, depth = _extent(ast, MAX_DERIVATIVE_NODES)
        if depth > MAX_DEPTH:
            raise ValidationError(f"a symbolic derivative {_TOO_DEEP}")
        if nodes > MAX_DERIVATIVE_NODES:
            raise ValidationError(f"a symbolic derivative has more than "
                                  f"{MAX_DERIVATIVE_NODES} nodes")
        return Expression(text=f"d/d{var}({self.text})", ast=ast, variables=self.variables)


def compile_expression(text: str, variables, line: int = 1) -> Expression:
    ast = _Parser(_tokenize(text, line), frozenset(variables), line).parse()
    if _extent(ast)[1] > MAX_DEPTH:  # a long left-associative chain
        raise ValidationError(f"expression {_TOO_DEEP}")
    return Expression(text=text.strip(), ast=simplify(ast), variables=tuple(variables))


def expression_array(exprs) -> Callable[[np.ndarray], np.ndarray]:
    """The function ``p -> array`` of the values at p of ``exprs``, a nested
    list of Expressions, in the list's shape.  Constant entries (number
    ASTs) are filled into a template once, when the function is built; the
    other entries are evaluated through ``eval_ast``, and entries with the
    same AST share one call per evaluation: they have the same value bit for
    bit."""
    grid = np.array(exprs, dtype=object)
    template = np.zeros(grid.shape)
    shared: dict = {}  # (repr(ast), variables) -> (expression, indices of its entries)
    for i in np.ndindex(grid.shape):
        e = grid[i]
        if e.ast[0] == "num":
            template[i] = e.ast[1]
            continue
        # repr tells 0.0 from -0.0, which compare equal in the AST tuples
        where = shared.setdefault((repr(e.ast), e.variables), (e, []))[1]
        where.append(i if grid.ndim > 1 else i[0])  # an int sets a 1-d entry faster
    entries = list(shared.values())
    if grid.ndim == 1 and len(entries) == grid.size:
        # every entry evaluated, once: building the list is cheaper
        distinct = [e for e, _ in entries]
        return lambda p: np.array([eval_ast(e, p) for e in distinct])

    def fill(p):
        out = template.copy()
        for e, where in entries:
            value = eval_ast(e, p)
            for i in where:
                out[i] = value
        return out

    return fill


def expression_scalar_field(expr: Expression) -> ScalarField:
    """ScalarField over the expression's variables with analytic partials.
    A mixed second partial whose two orders of differentiation give
    different ASTs is their mean ``0.5 * (a + b)``, one expression for both
    entries: the numeric symmetrization, done symbolically."""
    names = expr.variables
    grads = [expr.derivative(v) for v in names]
    second = [[g.derivative(v) for v in names] for g in grads]
    for i in range(len(names)):
        for j in range(i):
            a, b = second[i][j], second[j][i]
            if repr(a.ast) != repr(b.ast):  # repr tells 0.0 from -0.0
                second[i][j] = second[j][i] = replace(
                    a, text=f"0.5 * (({a.text}) + ({b.text}))",
                    ast=_node("*", _num(0.5), _node("+", a.ast, b.ast)))
    return ScalarField(value=lambda p: eval_ast(expr, p), grad=expression_array(grads),
                       hess=expression_array(second))


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

# the geometry sections each kind reads, (required, optional); it rejects the others
_KIND_SECTIONS = {
    "split": (("phi", "fiber"), ("f_L",)),
    "twisted": (("psi", "fiber"), ("density",)),
    "radial_model": (("density",), ()),
    "general": (("metric", "density"), ()),
}


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
    numbers, expression limits), build its geometry, and evaluate it at the
    grid center.

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
    for sec_name, content in sections.items():
        if sec_name not in _SECTION_KEYS:
            raise ValidationError("unknown section", key=f"[{sec_name}]")
        allowed = _SECTION_KEYS[sec_name]
        if sec_name == "density":
            allowed = {"f"} | {f"X{i + 1}" for i in range(dim)}
        elif sec_name == "metric":
            allowed = {f"g{i + 1}{j + 1}" for i in range(dim) for j in range(dim)}
        for key in content:
            if key not in allowed:
                raise ValidationError("unknown key", key=f"[{sec_name}] {key}")

    required, optional = _KIND_SECTIONS[kind]
    for sec_name in ("phi", "psi", "f_L", "fiber", "metric", "density"):
        if sec_name in required and sec_name not in sections:
            raise ValidationError(f"kind {kind!r} requires section [{sec_name}]",
                                  key=f"[{sec_name}]")
        if sec_name in sections and sec_name not in required + optional:
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

    fd = FDSteps(h1=numeric["fd1"], h2=numeric["fd2"], h3=numeric["fd3"])
    geometry = _build(kind, sections, dim, name, nums["fiber"], fd)

    fiber = _fiber(geometry)
    if fiber is not None and grid["y_min"] is not None:
        box = fiber.safe_box
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
        if sum(v * v for v in velocity) == 0.0:
            raise ValidationError("a zero velocity has no direction to follow",
                                  key="[geodesic] velocity")
        if not in_domain(geometry["spec"], np.array(start)):
            raise ValidationError("lies outside the chart's domain", key="[geodesic] start")
        extras["geodesic"].update(start=np.array(start), velocity=np.array(velocity))

    manifest = ManifoldManifest(name=name, kind=kind, dim=dim, geometry=geometry, grid=grid,
                                numeric=numeric, cd=cd, extras=extras, source_text=text)
    _trial_evaluate(manifest)
    return manifest


# ---------------------------------------------------------------------------
# manifest sections -> geometry objects
# ---------------------------------------------------------------------------

@contextmanager
def _naming(key: str):
    """Re-raise a ValidationError that names no key, or a constructor's
    ValueError, as a ValidationError naming ``key``."""
    try:
        yield
    except ValidationError as exc:
        if exc.key is not None:
            raise
        raise ValidationError(str(exc), key=key) from None
    except ValueError as exc:
        raise ValidationError(str(exc), key=key) from None


def _compiled(sections, section, key, variables, build=lambda e: e):
    """``build`` of the compiled expression ``[section] key``.  An expression
    limit or constant-folding failure, in compiling or in the derivatives
    ``build`` takes, is a ValidationError naming the key."""
    if key not in sections[section]:
        raise ValidationError("missing required key", key=f"[{section}] {key}")
    text, lineno = sections[section][key]
    with _naming(f"[{section}] {key}"):
        return build(compile_expression(text, variables, lineno))


def _with_r_derivatives(e: Expression):
    d = e.derivative("r")
    return e, d, d.derivative("r")


def _build(kind, sections, dim, name, fiber_numbers, fd) -> dict:
    """The toolkit objects of one manifest kind: 'spec' (MetricSpec) and
    'density', plus 'split' (SplitSpaceSpec), 'twisted' (TwistedProductSpec)
    or 'model' (RadialModel).  ``fd`` is threaded into every MetricSpec."""
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
                               f_L=f_L, name=name, fd=fd)
        return {"split": split, "spec": split.metric_spec(), "density": split.density()}
    if kind == "twisted":
        psi = _compiled(sections, "psi", "expr", names, expression_scalar_field)
        twisted = TwistedProductSpec(n=dim, psi=psi,
                                     fiber=_parse_fiber(sections, dim - 1, fiber_numbers),
                                     name=name, fd=fd)
        # the twist potential is the natural density of this chart
        density = _density(sections, names) if "density" in sections else psi
        return {"twisted": twisted, "spec": twisted.metric_spec(), "density": density}
    if kind == "radial_model":
        if "f" not in sections["density"] or len(sections["density"]) > 1:
            raise ValidationError("radial models take a scalar density f alone",
                                  key="[density] f")
        f, df, d2f = _compiled(sections, "density", "f", ("r",), _with_r_derivatives)
        model = RadialModel(n=dim, f=f, df=df, d2f=d2f, name=name)
        return {"model": model, "spec": replace(model.metric_spec(), fd=fd),
                "density": model.density()}
    return {"spec": _general_metric(sections, dim, names, name, fd),
            "density": _density(sections, names)}


def _fiber(geometry: dict):
    """The fiber of a split or twisted geometry, else None."""
    return getattr(geometry.get("split") or geometry.get("twisted"), "fiber", None)


def _parse_fiber(sections, fiber_dim, numbers):
    sec = sections["fiber"]
    if "type" not in sec:
        raise ValidationError("missing required key", key="[fiber] type")
    ftype = sec["type"][0]
    box = {} if numbers["box"] is None else {"box": numbers["box"]}  # else the type's default
    with _naming("[fiber]"):
        if ftype == "euclidean":
            if "einstein_constant" in sec or "periods" in sec:
                raise ValidationError("euclidean fibers take no curvature keys",
                                      key="[fiber] type")
            return FlatFiber(dim=fiber_dim, **box)
        if ftype == "sphere":
            lam = numbers["einstein_constant"]
            if lam is None:
                raise ValidationError("missing required key", key="[fiber] einstein_constant")
            return SphereFiber(dim=fiber_dim, einstein_constant=lam, **box)
        if ftype == "torus":
            periods = _float_list(sections, "fiber", "periods")
            if len(periods) != fiber_dim:
                raise ValidationError(f"need {fiber_dim} periods", key="[fiber] periods")
            return FlatFiber(dim=fiber_dim, periods=periods, **box)
    raise ValidationError(f"unknown fiber type {ftype!r}", key="[fiber] type")


def _density(sections, variables):
    """[density] as a field: f with analytic partials, or the vector X1..Xn."""
    sec = sections["density"]
    if "f" in sec:
        if len(sec) > 1:
            raise ValidationError("give either f or vector components, not both",
                                  key="[density] f")
        return _compiled(sections, "density", "f", variables, expression_scalar_field)
    return VectorField(value=expression_array(
        [_compiled(sections, "density", f"X{i + 1}", variables) for i in range(len(variables))]))


def _general_metric(sections, dim, names, name, fd) -> MetricSpec:
    """[metric] as a MetricSpec whose g and partials evaluate the entries
    g_ij (i <= j; g_ji may stand in for g_ij, but not be given beside it)
    and their derivatives."""
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
            entries[i, j] = _compiled(sections, "metric", key, names,
                                      lambda e: (e, [e.derivative(v) for v in names]))
    upper = [[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    return MetricSpec(
        dim=dim, name=name, coord_names=names, fd=fd,
        g=expression_array([[e for e, _ in row] for row in upper]),
        partials=expression_array([[[partials[k] for _, partials in row] for row in upper]
                                   for k in range(dim)]))


def build_geometry(manifest: ManifoldManifest) -> dict:
    """The toolkit objects ``parse_manifest`` built (see ``_build``); every
    call returns the same objects."""
    return manifest.geometry


def _trial_evaluate(manifest: ManifoldManifest) -> None:
    """Evaluate the built metric and density at the grid center; reject
    non-finite results and structurally bad metrics early."""
    center = grid_center(manifest)
    try:
        if np.linalg.eigvalsh(metric_at(manifest.geometry["spec"], center))[0] <= 0:
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


# ---------------------------------------------------------------------------
# manifest -> grids and sample points
# ---------------------------------------------------------------------------

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
    fiber = _fiber(manifest.geometry)
    if fiber is not None:
        box = inset_box(box, 0.1)
        if r_limit is not None and isinstance(fiber, SphereFiber):
            # stay where the stereographic chart is well conditioned: beyond
            # |y| = R the chart stretch amplifies finite-difference truncation
            R = math.sqrt(fiber.radius_sq)
            box = np.clip(box, -R, R)
    return sample_box(np.vstack([[r_lo, r_hi], box]), count, seed)
