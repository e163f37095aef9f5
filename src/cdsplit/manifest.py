"""Manifest files: a strict line-oriented format describing a manifold,
its density, and the numeric settings the report suites need.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  Scalar expressions use a minimal arithmetic grammar (+ - * / ^,
parentheses, the variables r and y1..y_{n-1}, the functions sin cos exp log
sqrt cosh sinh, numeric literals).  Expressions are differentiated
symbolically, so manifest-built geometries carry analytic partials.

An Expression, and an ``ExpressionArray`` of several (the gradients,
Hessians, vector densities and metrics), is evaluated by Python source
generated from its AST and compiled once, on first use, in two forms.  The
point form evaluates one point through ``eval_ast``, on Python floats,
which raise on a zero divisor where numpy's scalars warn; it computes one
temporary per node, equal subtrees once, in the left-first order of a walk
of each tree, and fills constant entries from a template.  The block form,
``ExpressionArray.rows``, evaluates a (k, n) array of points: ``+ - * /``
and negation are numpy array operations, while every function call and
every ``^`` runs per element through the point form's scalar call, because
numpy's ufuncs round some results differently from ``math`` and ``**``.
It is a ``chart_core.stacked_rows`` pass with the point form as its single
row: a block that raises, with a zero divisor raising too, or that gives a
non-finite value, is evaluated again row by row through the point form, so
each row rounds and fails as it does alone.  The generated source holds only
temporaries, the constants as names, variables read by index and the names
of ``_FUNCTIONS``; no manifest text reaches it.  A value with no real
result at a point (``sqrt(-1)``, ``exp(1000)``, ``(-1)^0.5``) is NonFinite,
naming the expression and the point.
``expression_scalar_field`` is the one way an analytic scalar field is
built, from a manifest or in ``catalog``.  A split space's ``[phi]`` is
compiled over r alone, so a fiber variable in it is a parse error, and
becomes a field on the chart point (r, y) whose partials in y are the
constant 0.  A ``[fiber]`` of type ``euclidean`` or ``torus`` is a
``FlatFiber``, one of type ``sphere`` a ``SphereFiber``.

One table, ``_SECTIONS``, says what a manifest may hold: each section's
keys, with the default and bound of each numeric one, the kinds that
accept the section and the kinds that require it; ``_FIBER_KEYS`` says
which ``[fiber]`` keys each fiber type reads.  ``parse_manifest`` rejects
what they do not allow (a section a kind does not accept, empty or not,
among it, and a ``dim`` above ``MAX_DIM``), a grid, sample set or step
count larger than ``MAX_POINTS``, a metric entry given as both g_ij and
g_ji, and a geodesic start outside the chart's domain, at a radial model's
origin or where the metric is not positive definite, so a run refuses a bad
manifest before it writes a report.  It builds the geometry of the
manifest's kind once (``build_geometry`` returns it), evaluates it at the
grid center, and normalizes the geodesic's velocity.  An expression, and each derivative
taken of it, nests at most ``MAX_DEPTH`` levels; a derivative has at most
``MAX_DERIVATIVE_NODES`` nodes.

The grid section at the end of this module is the one place that builds a
grid (``box_grid``, ``cd_grid``) or draws sample points (``sample_box``,
``sample_points``); every check takes the points it is given.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .chart_core import (
    MetricSpec,
    ScalarField,
    VectorField,
    in_domain,
    metric_at,
    point_jet,
    raising,
    stacked_rows,
)
from .comparison_suite import QUAD_POINTS, RadialModel
from .errors import NonFinite, ParseError, ValidationError
from .geodesic_flow import normalize_velocity
from .warped_products import (
    FlatFiber,
    SphereFiber,
    SplitSpaceSpec,
    TwistedProductSpec,
    product_coords,
)
from .weighted_curvature import GridSpec

# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

#: Deepest nesting allowed in an expression or in any derivative of it.
MAX_DEPTH = 100
#: Most nodes allowed in a symbolic derivative.
MAX_DERIVATIVE_NODES = 10_000
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

# the binary operators of constant folding
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


def eval_ast(expr: "Expression | ExpressionArray", values):
    """Evaluate the point form of an Expression, or of an ExpressionArray, at
    ``values``, one per variable in order.  Every manifest expression
    evaluated at one point goes through this one call.  A value with no
    finite real result (``sqrt`` or ``log`` of a negative number, ``exp``
    beyond the float range, a Python float divided by 0, a negative number
    to a fractional power) is NonFinite, naming the expression (the first
    entry of an array that fails) and the point.  The values are taken as
    Python floats, whose operators raise where numpy's scalars warn."""
    try:
        # a point array, as on the RK4 stage's path, where this costs less
        # than a type test
        values = values.tolist()
    except AttributeError:
        values = [float(v) for v in values]
    try:
        return expr.code(values)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        if isinstance(expr, ExpressionArray):
            expr, exc = expr.failing(values)
        at = ", ".join(f"{v} = {x!r}" for v, x in zip(expr.variables, values))
        raise NonFinite(f"{expr.text} has no finite real value at {at} ({exc})") from None


def _power(a, b):
    """``a ** b`` of two Python floats in the point form.  ``**`` returns a
    complex number for a negative base and a fractional exponent, which has
    no real value."""
    x = a ** b
    if type(x) is complex:
        raise ValueError("a negative number to a fractional power is complex")
    return x


def _per_element(fn):
    """``fn`` on each element of its array operands (a constant operand is
    repeated), one scalar call per element, as a float array.  A complex
    result makes ``np.fromiter`` raise."""

    def each(*args):
        n = next(len(a) for a in args if type(a) is np.ndarray)
        columns = [a.tolist() if type(a) is np.ndarray else repeat(a, n) for a in args]
        return np.fromiter(map(fn, *columns), float, n)

    return each


# The names that generated source calls, one namespace per form.  Every
# generated function runs in it, on line 1, so Python's warning registry
# shows a numpy warning once per text, whichever expression raised it.
_POINT_NAMES = {"__name__": __name__, "array": np.array, "power": _power, **_FUNCTIONS}
_BLOCK_NAMES = {"__name__": __name__, "power": _per_element(operator.pow),
                **{name: _per_element(fn) for name, fn in _FUNCTIONS.items()}}


class _Source:
    """Generated source that computes AST values, one temporary per node, in
    the left-first order in which a walk of each tree evaluates them.

    Equal subtrees (by ``repr``, which tells 0.0 from -0.0) share the
    temporary computed where the walk first meets them.  Only AST nodes
    reach the source: constants are bound as the names ``c<i>``, variables
    are read by index from the argument ``arg``, and calls name
    ``_FUNCTIONS`` entries, or ``power`` for ``^``."""

    def __init__(self, variables, arg: str):
        self.variables = variables
        self.arg = arg
        self.load = "env[{}]" if arg == "env" else "P[:, {}]"
        self.lines: list[str] = []
        self.constants: list[float] = []
        self.names: dict = {}  # node key -> name
        self.seen: dict = {}   # id(node) -> name, for subtrees shared between trees

    def name(self, node) -> str:
        """The name holding the value of ``node``; its statement is emitted,
        after its operands', on first use."""
        done = self.seen.get(id(node))
        if done is not None:
            return done
        op = node[0]
        if op == "num":
            key = (op, repr(node[1]))
        elif op == "var":
            key = node
        elif op == "call":
            key = (op, node[1], self.name(node[2]))
        else:
            key = (op, *(self.name(a) for a in node[1:]))
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = self._emit(node, key)
        self.seen[id(node)] = name
        return name

    def _emit(self, node, key) -> str:
        op = node[0]
        if op == "num":
            self.constants.append(node[1])
            return f"c{len(self.constants) - 1}"
        if op == "var":
            i = self.variables.index(node[1])
            self.lines.append(f"v{i} = {self.load.format(i)}")
            return f"v{i}"
        if op == "neg":
            value = f"-{key[1]}"
        elif op == "call" and key[1] in _FUNCTIONS:
            value = f"{key[1]}({key[2]})"
        elif op == "^":
            value = f"power({key[1]}, {key[2]})"
        elif op in ("+", "-", "*", "/"):
            value = f"{key[1]} {op} {key[2]}"
        else:
            raise AssertionError(f"unhandled node {key[:2]!r}")
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {value}")
        return name

    def function(self, tail: list[str], namespace: dict, bound=()) -> Callable:
        """The function of ``arg`` that runs the statements, then ``tail``,
        compiled once, all on one line.  Constants, and the ``bound``
        (name, value) pairs, are default arguments."""
        values = dict(bound, **{f"c{i}": c for i, c in enumerate(self.constants)})
        params = "".join(f", {name}={name}" for name in values)
        source = f"def f({self.arg}{params}): {'; '.join(self.lines + tail)}\n"
        exec(compile(source, "<manifest expression>", "exec"), namespace, values)
        fn = values["f"]
        fn.source = source
        return fn


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
    """A parsed expression with its variable list; its point form is
    generated on first evaluation."""

    text: str
    ast: tuple
    variables: tuple[str, ...]

    @cached_property
    def array(self) -> "ExpressionArray":
        return ExpressionArray(self)

    @cached_property
    def code(self) -> Callable:
        """The point form, ``values -> value``, generated on first use."""
        return self.array.code

    def __call__(self, *values) -> float:
        return eval_ast(self, values)

    def rows(self, P) -> np.ndarray:
        """``ExpressionArray.rows``; a 1-d P holds one variable's values."""
        return self.array.rows(np.reshape(P, (len(P), -1)))

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


class ExpressionArray:
    """The values of a nested list of Expressions over the same variables,
    in the list's shape: ``p -> array``, or ``p -> value`` for a single
    Expression (shape ()).

    Calling it evaluates the point form through ``eval_ast``; ``rows(P)``
    evaluates a (k, n) array of points at once.  Both forms are generated
    on first use.  Constant entries (number ASTs) are filled in from a
    template, and entries with the same AST (by ``repr``) are evaluated
    once: they have the same value bit for bit."""

    def __init__(self, exprs):
        grid = np.array(exprs, dtype=object)
        self.shape = grid.shape
        self.flat = flat = list(grid.flat)
        self.template = np.zeros(self.shape)
        shared: dict = {}  # repr(ast) -> (expression, flat indices of its entries)
        for k, e in enumerate(flat):
            if e.ast[0] == "num":
                self.template.flat[k] = e.ast[1]
            else:
                # repr tells 0.0 from -0.0, which compare equal in the AST tuples
                shared.setdefault(repr(e.ast), (e, []))[1].append(k)
        self.entries = [e for e, _ in shared.values()]
        self.slots = [where for _, where in shared.values()]
        self.variables = flat[0].variables
        if any(e.variables != self.variables for e in flat):
            raise ValueError("the entries of an expression array need the same variables")

    @cached_property
    def code(self) -> Callable:
        """The point form, ``p -> array`` (``p -> value`` at shape ()).  A
        1-d array is built from its entries, a larger one from a copy of the
        template with the other entries filled in."""
        src = _Source(self.variables, "env")
        if len(self.shape) < 2:
            names = [src.name(e.ast) for e in self.flat]
            result = names[0] if not self.shape else f"array([{', '.join(names)}])"
            return src.function([f"return {result}"], _POINT_NAMES)
        fills = [f"out[{', '.join(map(str, np.unravel_index(k, self.shape)))}] = "
                 f"{src.name(e.ast)}" for e, slots in zip(self.entries, self.slots) for k in slots]
        return src.function(["out = template.copy()", *fills, "return out"], _POINT_NAMES,
                            [("template", self.template)])

    @cached_property
    def block(self) -> Callable:
        """The block form, ``P -> [column of each distinct entry]`` for a
        (B, n) array P."""
        src = _Source(self.variables, "P")
        names = [src.name(e.ast) for e in self.entries]
        return src.function([f"return [{', '.join(names)}]"], _BLOCK_NAMES)

    def __call__(self, p):
        return eval_ast(self, p)

    def failing(self, values):
        """The first distinct entry whose point form raises at ``values``
        (Python floats, as ``eval_ast`` passes them), with its exception."""
        for e in self.entries:
            try:
                e.code(values)
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                return e, exc
        raise AssertionError("no entry fails on its own")

    def rows(self, P) -> np.ndarray:
        """The values at each row of the (k, n) array P, shape (k, *shape),
        bit for bit the point form's row by row: the block form's
        ``stacked_rows``, with the point form as its single row.

        A point form's Python floats raise on every zero divisor, which
        numpy flags as a division by zero (x / 0) or an invalid value
        (0 / 0), so the block form raises these two whatever numpy is set to
        report; a failing block is evaluated again row by row, and the first
        failing row raises as it does alone."""
        with np.errstate(divide="raise", invalid="raise"):
            return stacked_rows(self._block_rows, np.asarray(P, dtype=float), self)

    def _block_rows(self, P: np.ndarray) -> np.ndarray:
        """The block form's columns, and the template's constants, as the
        (k, *shape) values at the rows of P."""
        k = len(P)
        out = np.empty((k, self.template.size))
        out[:] = self.template.ravel()
        for column, slots in zip(self.block(P), self.slots):
            out[:, slots] = column[:, None]
        return out.reshape((k, *self.shape))


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
    return ScalarField(value=ExpressionArray(expr), grad=ExpressionArray(grads),
                       hess=ExpressionArray(second))


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
    evaluation's NonFinite as a ValidationError naming ``key``."""
    try:
        yield
    except ValidationError as exc:
        if exc.key is not None:
            raise
        raise ValidationError(str(exc), key=key) from None
    except (ValueError, NonFinite) as exc:
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
        f, df, d2f = _compiled(sections, "density", "f", ("r",), _with_r_derivatives)
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
            return SphereFiber(dim=fiber_dim, einstein_constant=lam, **box)
        periods = _float_list(sections, "fiber", "periods")
        if len(periods) != fiber_dim:
            raise ValidationError(f"need {fiber_dim} periods", key="[fiber] periods")
        return FlatFiber(dim=fiber_dim, periods=periods, **box)


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
            entries[i, j] = _compiled(sections, "metric", key, names,
                                      lambda e: (e, [e.derivative(v) for v in names]))
    upper = [[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    g = ExpressionArray([[e for e, _ in row] for row in upper])
    partials = ExpressionArray([[[dg[k] for _, dg in row] for row in upper]
                                for k in range(dim)])
    return MetricSpec(dim=dim, name=name, coord_names=names, jet=point_jet(g, partials))


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
