"""The expression language of manifests: scalar expressions, their
symbolic partials, and the generated source that evaluates them.

Grammar: ``+ - * / ^``, parentheses, the variables given at compile time
(r and y1..y_{n-1} in a manifest), the functions sin cos exp log sqrt cosh
sinh, and numeric literals.  ``compile_expression`` parses a text into a
simplified AST, with constants folded; a constant part with no finite real
value (``1/0``, ``exp(1000)``, ``1e308 * 10``) and a literal beyond the
float range are ValidationErrors.  A parse error carries the line and
column of its token in the manifest text; a text with no manifest line
counts its columns from 1.  An expression, and each derivative taken of it,
nests at most ``MAX_DEPTH`` levels; a derivative has at most
``MAX_DERIVATIVE_NODES`` nodes.

``partials(e, order)`` is the one way a symbolic derivative is taken: the
expression with its first, or its first and second, partials, a mixed
second partial whose two orders of differentiation differ being their mean.
``expression_scalar_field`` is the one way an analytic scalar field is
built from an expression.

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
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, repeat
from typing import Callable

import numpy as np

from .chart_core import ScalarField, stacked_rows
from .errors import NonFinite, ParseError, ValidationError

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


def _tokenize(text: str, line: int, column: int):
    """The (kind, value, column) tokens of ``text``, whose first character
    sits at ``column`` of its line.  A literal beyond the float range, such
    as 1e400, is a ValidationError."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in expression",
                             line=line, column=column + len(text) - len(rest))
        # the one group that matched is the token, which starts after \s*
        kind, value = ("num", "ident", "op")[m.lastindex - 1], m.group(m.lastindex)
        if kind == "num":
            value = float(value)
            if not math.isfinite(value):
                raise ValidationError(f"the number {m.group(1)} is beyond the float range")
        out.append((kind, value, column + m.start(m.lastindex)))
        pos = m.end()
    out.append(("end", "", column + len(text)))
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
        elif kind == "end":
            self.fail("unexpected end of expression", col)
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
    with no real value (1/0, log(0), (0-1)^0.5) or with no finite one
    (1e308 * 10) is a ValidationError."""
    try:
        node = _num(fn(*args))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise ValidationError(f"a constant part has no real value ({exc})") from None
    if not math.isfinite(node[1]):
        raise ValidationError(f"a constant part has no finite value ({node[1]!r})")
    return node


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


def compile_expression(text: str, variables, line: int = 1, column: int = 1) -> Expression:
    """The Expression of ``text`` over ``variables``.  ``line`` and
    ``column`` place the text's first character in its manifest, for the
    position a ParseError gives."""
    ast = _Parser(_tokenize(text, line, column), frozenset(variables), line).parse()
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


def partials(e: Expression, order: int) -> tuple:
    """``(e,)``, ``(e, [d_v e])`` or ``(e, [d_v e], [[d_w d_v e]])`` at
    ``order`` 0, 1 or 2, over the expression's variables in order, the
    derivative index first.  A mixed second partial whose two orders of
    differentiation give different ASTs is their mean ``0.5 * ((a) + (b))``,
    one expression for both entries: the numeric symmetrization, done
    symbolically.  Every order is built here, so a derivative over a limit
    (``Expression.derivative``) is refused when the partials are asked for."""
    if order == 0:
        return (e,)
    grads = [e.derivative(v) for v in e.variables]
    if order == 1:
        return e, grads
    second = [[g.derivative(v) for v in e.variables] for g in grads]
    for j, i in combinations(range(len(grads)), 2):
        a, b = second[i][j], second[j][i]
        if repr(a.ast) != repr(b.ast):  # repr tells 0.0 from -0.0
            second[i][j] = second[j][i] = replace(
                a, text=f"0.5 * (({a.text}) + ({b.text}))",
                ast=_node("*", _num(0.5), _node("+", a.ast, b.ast)))
    return e, grads, second


def expression_scalar_field(expr: Expression) -> ScalarField:
    """ScalarField over the expression's variables with the analytic
    partials of ``partials(expr, 2)``."""
    return ScalarField(*map(ExpressionArray, partials(expr, 2)))

