"""The generated point and block forms of manifest expressions, against a
tree of closures kept here as the oracle; and what manifest text may reach
the generated source."""

import io
import itertools
import operator
import re
import tokenize
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cdsplit.errors import NonFinite, ParseError, ValidationError
from cdsplit.expr import _FUNCTIONS, compile_expression, ExpressionArray

NAMES = ("r", "y1", "y2")
BLOCK_SIZES = (1, 2, 255, 256, 257)


def _real(x) -> float:
    """x as a Python float, raising TypeError on any complex x as ``float``
    does on a Python complex: on a numpy complex (the sum of a numpy float
    and a complex is one) ``float`` and ``math`` would drop the imaginary
    part with only a warning."""
    if isinstance(x, complex):
        raise TypeError(f"{x!r} is complex")
    return float(x)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": lambda a, b: _real(a) / _real(b), "^": lambda a, b: _real(a) ** _real(b)}


def closures(ast, variables):
    """The AST as nested closures over ``math``, evaluated left operand
    first, keeping the values' own types, except that a quotient, a power
    and a function's argument are taken on Python floats, which raise on a
    zero divisor and on a complex value: a tree walk of the expression."""
    op = ast[0]
    if op == "num":
        v = ast[1]
        return lambda env: v
    if op == "var":
        i = variables.index(ast[1])
        return lambda env: env[i]
    if op == "neg":
        a = closures(ast[1], variables)
        return lambda env: -a(env)
    if op == "call":
        fn, a = _FUNCTIONS[ast[1]], closures(ast[2], variables)
        return lambda env: fn(_real(a(env)))
    fn = _BINARY[op]
    a, b = closures(ast[1], variables), closures(ast[2], variables)
    return lambda env: fn(a(env), b(env))


def oracle(fns, env):
    """The closures' values at env, or None where one raises or is complex
    (a Python or a numpy complex): there the expression has no real value."""
    try:
        values = [fn(env) for fn in fns]
    except (ArithmeticError, ValueError, TypeError):
        return None
    return None if any(isinstance(v, complex) for v in values) else values


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


LEAVES = st.one_of(st.sampled_from(NAMES),
                   st.sampled_from(["0", "(-0)", "0.5", "2", "3", "0.3", "1e300"]))
EXPRESSIONS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(sorted(_FUNCTIONS)), inner),
        st.builds("(-{})".format, inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("({} ^ {})".format, inner, st.sampled_from(["2", "0.5", "-1", "(-0)", "r"])),
    ),
    max_leaves=10,
)
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 710.0, 1e300, -1e-310]),
                   st.floats(-4.0, 4.0))
ROWS = st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=5)


def _compiled(texts):
    try:
        exprs = [compile_expression(t, NAMES) for t in texts]
        return exprs + [exprs[0].derivative("r")]
    except ValidationError:
        assume(False)  # a constant part with no real value, or too deep


def _check_rows(arr, fns, P):
    """The point form and ``rows`` bit for bit against the oracle at every
    row of P, or the first failing row's NonFinite from ``rows``."""
    first_error = None
    expected = []
    for p in P:
        values = oracle(fns, p)
        try:
            got = arr(p)
        except NonFinite as exc:
            assert values is None
            first_error = first_error or str(exc)
            continue
        assert values is not None
        assert bits(got) == bits(np.reshape(values, arr.shape))
        expected.append(got)
    if first_error is None:
        assert bits(arr.rows(P)) == bits(expected)
        assert arr.rows(P).shape == (len(P), *arr.shape)
    else:
        with pytest.raises(NonFinite) as exc:
            arr.rows(P)
        assert str(exc.value) == first_error


@settings(max_examples=150, deadline=None)
@given(st.lists(EXPRESSIONS, min_size=1, max_size=3), ROWS, st.sampled_from(BLOCK_SIZES),
       st.integers(0, 2**32 - 1))
@example(["sqrt(r)", "log(y1)"], [(1.0, 2.0, 0.0), (-1.0, 0.5, 0.0)], 257, 0)
@example(["exp(r) * y1"], [(1.0, 2.0, 0.0), (710.0, 0.5, 0.0)], 256, 0)
@example(["sin(r) ^ 0.5 + y2"], [(1.0, 2.0, 0.0), (-1.0, 0.5, 0.0)], 255, 0)
@example(["1 / (r / (-0))", "y1 ^ r"], [(1.0, -0.0, 0.0), (0.0, -2.0, 0.5)], 2, 0)
@example(["(r + (cos(r) ^ 0.5))"], [(0.0, 0.0, 0.0)], 2, 0)
@example(["cos((r + (r ^ r)))"], [(0.0, 0.0, 0.0)], 2, 0)
def test_both_forms_match_the_closure_oracle(texts, rows, size, seed):
    exprs = _compiled(texts)
    # seeded points, with the drawn rows (special values) spread among them
    P = np.random.default_rng(seed).uniform(-3.0, 3.0, (size, 3))
    P[np.arange(len(rows)) * 101 % size] = rows
    fns = [closures(e.ast, NAMES) for e in exprs]
    constant = compile_expression("-0", NAMES)
    grid = [[exprs[0], exprs[-1]], [constant, exprs[0]]]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        _check_rows(ExpressionArray(exprs), fns, P)
        _check_rows(ExpressionArray(exprs[0]), fns[:1], P)
        _check_rows(ExpressionArray(grid), [fns[0], fns[-1], closures(constant.ast, NAMES),
                                             fns[0]], P)
        # Python floats, where ^ of a negative base returns a complex number
        for p in rows:
            values = oracle(fns[:1], p)
            if values is None:
                with pytest.raises(NonFinite):
                    exprs[0](*p)
            else:
                assert bits(exprs[0](*p)) == bits(values[0])


def test_complex_power_is_non_finite_in_both_forms():
    e = compile_expression("(r - 5)^0.5", ("r",))
    message = ("(r - 5)^0.5 has no finite real value at r = 4.0 "
               "(a negative number to a fractional power is complex)")
    with pytest.raises(NonFinite, match="^" + re.escape(message) + "$"):
        e(4.0)
    assert e(6.0) == 1.0
    # a numpy row's power is taken on Python floats too, so it raises the
    # same error, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^" + re.escape(message) + "$"):
            ExpressionArray(e)(np.array([4.0]))
    grid = ExpressionArray([compile_expression("sin(r)^0.5", ("r",))])
    with pytest.raises(NonFinite, match=re.escape("sin(r)^0.5 has no finite real value at "
                                                  "r = -1.0 (a negative number")):
        grid.rows(np.array([[1.0], [-1.0], [2.0]]))


def _outcome(fn):
    """fn()'s value, or its NonFinite message, with the numpy warnings it
    emitted."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            value = bits(fn())
        except NonFinite as exc:
            value = str(exc)
    return value, [str(w.message) for w in seen]


def _rows_alone(arr, P):
    """The outcome of each row of P evaluated alone, in order: their values,
    or the first failing row's error, with the warnings emitted until then."""
    values, emitted = [], []
    for p in P:
        value, seen = _outcome(lambda: arr(p))
        emitted += seen
        if type(value) is str:
            return value, emitted
        values.append(np.frombuffer(value).reshape(arr.shape))
    return bits(values), emitted


@pytest.mark.parametrize("ignore", [False, True], ids=["default", "all ignored"])
def test_block_raises_as_its_rows_alone(ignore):
    # one rule decides which conditions a block raises (chart_core.raising),
    # and a point form's Python floats raise on any zero divisor, which numpy
    # flags as divide (x / 0) or invalid (0 / 0) whatever it is set to
    # report: rows that divide by zero (where exp(-inf) would hide numpy's
    # -inf as 0.0) and a row that overflows to inf give, in any block, what
    # the rows give alone
    arr = ExpressionArray([compile_expression(t, NAMES)
                           for t in ("exp(-1 / r^2)", "y1 * 1e308", "(r - 2) / (y2 - 3)")])
    divides, zero_by_zero, overflows = (0.0, 1.0, 1.0), (2.0, 1.0, 3.0), (1.0, 10.0, 2.0)
    fine = [(1.5, 1.0, 1.0), (-1.5, 2.0, -1.0)]
    with np.errstate(all="ignore") if ignore else np.errstate():
        for k in (2, 3):
            for rows in itertools.permutations([divides, zero_by_zero, overflows, *fine], k):
                P = np.array(rows)
                assert _outcome(lambda: arr.rows(P)) == _rows_alone(arr, P)


@pytest.mark.parametrize("text", [
    "__import__('os')", "r.__class__", "lambda: r", "'r'", '"r"', "r; r", "r # comment",
    "exec(r)", "r[0]", "r, r", "r == r", "r @ r", "{r}", "__builtins__",
])
def test_manifest_text_is_parsed_or_refused(text):
    with pytest.raises(ParseError):
        compile_expression(text, NAMES)


ALL_FUNCTIONS = ("0.2*sinh(r/4)*cos(y1) + 0.1*sqrt(2 + y2^2) + 0.05*log(1 + r^2)*exp(-y1^2)"
                 " + 0.1*(1 + y2^2)^0.3 + 0.05*cosh(y1/3)*(2 + sin(r))^(0.1*y2)")
KEYWORDS = {"def", "f", "return", "out", "template", "copy", "array", "power"}


def test_generated_source_holds_only_ast_names():
    psi = compile_expression(ALL_FUNCTIONS, NAMES)
    hess = ExpressionArray([[psi.derivative(a).derivative(b) for b in NAMES] for a in NAMES])
    for fn, arg in ((hess.code, "env"), (hess.block, "P"), (psi.code, "env")):
        tokens = list(tokenize.generate_tokens(io.StringIO(fn.source).readline))
        names = {t.string for t in tokens if t.type == tokenize.NAME}
        assert names - KEYWORDS - set(_FUNCTIONS) - {arg} == {
            n for n in names if re.fullmatch(r"[tvc]\d+", n)}
        assert all(re.fullmatch(r"\d+", t.string) for t in tokens if t.type == tokenize.NUMBER)
        assert not [t for t in tokens if t.type == tokenize.STRING]
        ops = {t.string for t in tokens if t.type == tokenize.OP}
        assert ops <= set("()[],:=+-*/;.")
    assert len(hess.code.source) > 2000
