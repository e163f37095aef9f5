"""Expression grammar and strict manifest parsing."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsplit import expr
from cdsplit import manifest as manifest_module
from cdsplit.errors import NonFinite, ParseError, ValidationError
from cdsplit.expr import (
    MAX_DEPTH,
    MAX_DERIVATIVE_NODES,
    compile_expression,
    ExpressionArray,
    expression_scalar_field,
    partials,
    simplify,
)
from cdsplit.manifest import MAX_POINTS, build_geometry, cd_grid, grid_center, parse_manifest

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def write_manifest(tmp_path, text):
    path = tmp_path / "m.cdm"
    path.write_text(text)
    return path


MINIMAL_SPLIT = """
[manifold]
name = minimal
kind = split
dim = 3

[phi]
expr = sin(r)

[fiber]
type = sphere
einstein_constant = 0.2

[f_L]
expr = 0
"""


class TestExpressions:
    def test_arithmetic(self):
        e = compile_expression("2 + 3*4 - 6/3", ())
        assert e() == pytest.approx(12.0)

    def test_power_right_associative(self):
        e = compile_expression("2^3^2", ())
        assert e() == pytest.approx(512.0)

    def test_unary_minus_and_functions(self):
        e = compile_expression("-sin(r)^2 - cos(r)^2", ("r",))
        assert e(0.73) == pytest.approx(-1.0)

    def test_all_functions(self):
        e = compile_expression("sqrt(exp(log(cosh(r) + sinh(r))))", ("r",))
        assert e(0.4) == pytest.approx(math.exp(0.2))

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            compile_expression("tan(r)", ("r",))
        with pytest.raises(ParseError):
            compile_expression("r + z", ("r",))

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            compile_expression("(r + 1", ("r",))

    def test_bad_character_has_position(self):
        with pytest.raises(ParseError) as exc:
            compile_expression("r @ 2", ("r",), line=7)
        assert exc.value.line == 7
        assert exc.value.column is not None

    @pytest.mark.parametrize(("text", "column"), [
        ("sin(r) +   foo", 12), ("sin(r) + $", 10), ("  sin(r) + $", 12), ("(r", 3)])
    def test_parse_error_column_is_the_token_start(self, text, column):
        # counted from the token itself, not from the whitespace before it
        with pytest.raises(ParseError) as exc:
            compile_expression(text, ("r",), 10)
        assert (exc.value.line, exc.value.column) == (10, column)
        assert str(exc.value).endswith(f"(line 10, column {column})")

    @pytest.mark.parametrize(("line", "column"), [
        ("expr = sin(r) + $", 17), ("expr =   sin(r) +   foo", 21),
        ("   expr=sin(r) + $", 18), ("\texpr = sin(r) + foo  # a comment", 18)])
    def test_parse_error_column_is_in_the_manifest_line(self, tmp_path, line, column):
        # the column of the manifest text: the value's offset in its line,
        # leading spaces included, plus the token's in the value
        text = MINIMAL_SPLIT.replace("expr = sin(r)", line)
        with pytest.raises(ParseError) as exc:
            parse_manifest(write_manifest(tmp_path, text))
        assert (exc.value.line, exc.value.column) == (8, column)
        assert text.splitlines()[7][column - 1] in "$f"

    @pytest.mark.parametrize(("text", "column"), [
        ("sin(r) +", 9), ("sin(r) +   ", 12), ("-", 2), ("", 1), ("r * (", 6)])
    def test_trailing_operator_is_an_unexpected_end(self, text, column):
        # the end token is no token: the message names the end of the text,
        # at the column after its last character
        with pytest.raises(ParseError) as exc:
            compile_expression(text, ("r",), 10)
        assert exc.value.message == "unexpected end of expression"
        assert (exc.value.line, exc.value.column) == (10, column)

    def test_derivatives(self):
        e = compile_expression("sin(r) * exp(2*r)", ("r",))
        d = e.derivative("r")
        for r in (0.0, 0.5, -1.2):
            want = math.cos(r) * math.exp(2 * r) + 2 * math.sin(r) * math.exp(2 * r)
            assert d(r) == pytest.approx(want, rel=1e-12)

    def test_power_derivative_general(self):
        e = compile_expression("(1 + r^2)^(r)", ("r",))
        d = e.derivative("r")
        h = 1e-6
        for r in (0.3, 1.1):
            fd = (e(r + h) - e(r - h)) / (2 * h)
            assert d(r) == pytest.approx(fd, rel=1e-6)

    def test_scalar_field_partials(self, tmp_path, monkeypatch):
        e = compile_expression("sin(r) * cos(y1) + y1^3", ("r", "y1"))
        field = expression_scalar_field(e)
        p = np.array([0.4, -0.7])
        g = field.grad(p)
        assert g[0] == pytest.approx(math.cos(0.4) * math.cos(-0.7), rel=1e-12)
        assert g[1] == pytest.approx(-math.sin(0.4) * math.sin(-0.7) + 3 * 0.49, rel=1e-12)
        H = field.hess(p)
        assert H[0, 1] == pytest.approx(-math.cos(0.4) * math.sin(-0.7), rel=1e-12)
        # the two orders of differentiation of sin(r * y1) give different
        # ASTs, so both off-diagonal entries are one expression, their mean
        e = compile_expression("sin(r * y1)", ("r", "y1"))
        grads = [e.derivative(v) for v in e.variables]
        a, b = grads[1].derivative("r"), grads[0].derivative("y1")
        assert repr(a.ast) != repr(b.ast)
        value, grad, hess = partials(e, 2)
        assert value is e and [d.ast for d in grad] == [d.ast for d in grads]
        assert hess[0][1] is hess[1][0]
        assert hess[0][1].text == f"0.5 * (({a.text}) + ({b.text}))"
        assert [hess[0][0].ast, hess[1][1].ast] == [grads[0].derivative("r").ast,
                                                    grads[1].derivative("y1").ast]
        field = expression_scalar_field(e)
        P = np.array([[0.4, -0.7], [1.3, 2.1], [-0.2, 0.9]])
        at_points = np.stack([field.hess(p) for p in P])
        assert field.hess.rows(P).tobytes() == at_points.tobytes()
        for H in at_points:
            assert H[0, 1].tobytes() == H[1, 0].tobytes()
        r, y = P[0]
        assert field.hess(P[0])[0, 1] == pytest.approx(math.cos(r * y) - r * y * math.sin(r * y),
                                                       rel=1e-12)
        # a general metric entry's partials are the derivative in each
        # variable, by AST
        text = (MANIFESTS / "polar_general.cdm").read_text().replace(
            "g12 = 0", "g21 = 0.1 * sin(r * y1) + y1^2 / (1 + r^2)")
        geo = build_geometry(parse_manifest(write_manifest(tmp_path, text)))
        arrays = []
        original = expr.eval_ast
        monkeypatch.setattr(expr, "eval_ast", lambda e, q: arrays.append(e) or original(e, q))
        geo["spec"].jet(np.array([[2.0, 0.5]]), 1)
        D = arrays[-1]
        names = ("r", "y1")
        for i, j, entry in [(0, 0, "1"), (0, 1, "0.1 * sin(r * y1) + y1^2 / (1 + r^2)"),
                            (1, 1, "r^2")]:
            e = compile_expression(entry, names)
            (_, grad), by_hand = partials(e, 1), [e.derivative(v) for v in names]
            assert [repr(d.ast) for d in grad] == [repr(d.ast) for d in by_hand]
            for k, d in enumerate(by_hand):
                assert repr(D.flat[(k * 2 + i) * 2 + j].ast) == repr(d.ast)
                assert repr(D.flat[(k * 2 + j) * 2 + i].ast) == repr(d.ast)


class TestManifestParsing:
    def test_minimal_split_valid(self, tmp_path):
        man = parse_manifest(write_manifest(tmp_path, MINIMAL_SPLIT))
        assert man.kind == "split"
        assert man.dim == 3
        geo = build_geometry(man)
        assert geo["split"].phi.value(np.array([math.pi / 2, 0.0, 0.0])) == pytest.approx(1.0)
        assert geo["split"].fiber.einstein_constant == 0.2

    def test_N_equal_dimension_rejected(self, tmp_path):
        text = MINIMAL_SPLIT + "\n[cd]\nlambda = 0\nN = 3\n"
        with pytest.raises(ValidationError) as exc:
            parse_manifest(write_manifest(tmp_path, text))
        assert "denominator" in str(exc.value)

    def test_N_infinity_token(self, tmp_path):
        text = MINIMAL_SPLIT + "\n[cd]\nlambda = 0\nN = inf\n"
        man = parse_manifest(write_manifest(tmp_path, text))
        assert math.isinf(man.cd["N"])

    def test_missing_fiber_rejected(self, tmp_path):
        text = """
[manifold]
kind = split
dim = 3

[phi]
expr = sin(r)
"""
        with pytest.raises(ValidationError) as exc:
            parse_manifest(write_manifest(tmp_path, text))
        assert "fiber" in str(exc.value)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_manifest(write_manifest(tmp_path, MINIMAL_SPLIT + "\n[mystery]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_manifest(write_manifest(tmp_path,
                                          MINIMAL_SPLIT + "\n[grid]\nr_zoom = 3\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        text = MINIMAL_SPLIT.replace("expr = sin(r)", "expr = sin(r)\nexpr = cos(r)")
        with pytest.raises(ParseError) as exc:
            parse_manifest(write_manifest(tmp_path, text))
        assert exc.value.line is not None

    def test_dimension_floor(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_manifest(write_manifest(tmp_path, MINIMAL_SPLIT.replace("dim = 3",
                                                                          "dim = 1")))

    def test_dimension_ceiling(self, tmp_path):
        at_most = MINIMAL_SPLIT.replace("dim = 3", f"dim = {manifest_module.MAX_DIM}")
        assert parse_manifest(write_manifest(tmp_path, at_most)).dim == manifest_module.MAX_DIM
        above = MINIMAL_SPLIT.replace("dim = 3", f"dim = {manifest_module.MAX_DIM + 1}")
        with pytest.raises(ValidationError, match=r"^\[manifold\] dim: must be <= "):
            parse_manifest(write_manifest(tmp_path, above))

    def test_parse_error_carries_line(self, tmp_path):
        text = "[manifold]\nkind split\n"
        with pytest.raises(ParseError) as exc:
            parse_manifest(write_manifest(tmp_path, text))
        assert exc.value.line == 2

    def test_trial_evaluation_catches_bad_expression(self, tmp_path):
        # log of a negative number at the grid center
        text = MINIMAL_SPLIT.replace("expr = sin(r)", "expr = log(0 - 1 - r^2)")
        with pytest.raises(ValidationError):
            parse_manifest(write_manifest(tmp_path, text))

    def test_indefinite_general_metric_rejected(self, tmp_path):
        text = """
[manifold]
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = 0 - 1

[density]
f = 0
"""
        with pytest.raises(ValidationError):
            parse_manifest(write_manifest(tmp_path, text))

    def test_vector_density_general(self, tmp_path):
        text = """
[manifold]
kind = general
dim = 2

[metric]
g11 = 1
g12 = 0
g22 = 1

[density]
X1 = 0 - y1
X2 = r
"""
        man = parse_manifest(write_manifest(tmp_path, text))
        geo = build_geometry(man)
        from cdsplit.chart_core import VectorField

        assert isinstance(geo["density"], VectorField)
        v = geo["density"].value(np.array([1.0, 2.0]))
        assert np.allclose(v, [-2.0, 1.0])

    def test_grid_center_inside_domain(self, tmp_path):
        man = parse_manifest(write_manifest(tmp_path, MINIMAL_SPLIT))
        c = grid_center(man)
        assert c.shape == (3,)
        assert abs(c[0]) < 1e-12


def _expression_text(depth):
    """Random expression text over r and y1, at most ``depth`` levels deep."""
    leaf = st.sampled_from(["r", "y1", "0", "1", "2", "0.5", "3.25"])
    if depth == 0:
        return leaf
    inner = _expression_text(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(sorted(expr._FUNCTIONS)), inner)
        .map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda a: f"-({a})"),
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    )


@settings(max_examples=300, deadline=None)
@given(_expression_text(5))
def test_derivatives_come_out_simplified(text):
    # diff builds every node simplified at its top over simplified operands,
    # so a full simplify pass, which the derivative no longer takes, would
    # leave its result unchanged
    try:
        e = compile_expression(text, ("r", "y1"))
        for v in ("r", "y1"):
            d = e.derivative(v)
            assert simplify(d.ast) == d.ast
            for w in ("r", "y1"):
                dd = d.derivative(w)
                assert simplify(dd.ast) == dd.ast
    except ValidationError:
        pass  # a constant part with no real value, such as 1/0


class TestLimits:
    def test_depth_limit_is_exact(self):
        compile_expression("sin(" * (MAX_DEPTH - 1) + "r" + ")" * (MAX_DEPTH - 1), ("r",))
        with pytest.raises(ValidationError, match="nests deeper"):
            compile_expression("sin(" * MAX_DEPTH + "r" + ")" * MAX_DEPTH, ("r",))
        with pytest.raises(ValidationError, match="nests deeper"):
            compile_expression("+".join(["r"] * (MAX_DEPTH + 1)), ("r",))

    def test_large_derivative_rejected(self):
        e = compile_expression("*".join(["cos(r)"] * 40), ("r",))
        d = e.derivative("r")
        with pytest.raises(ValidationError, match=f"more than {MAX_DERIVATIVE_NODES} nodes"):
            d.derivative("r")

    def test_rejection_names_the_key(self, tmp_path):
        text = MINIMAL_SPLIT.replace("[f_L]\nexpr = 0", "[f_L]\nexpr = " + "*".join(["cos(y1)"] * 40))
        with pytest.raises(ValidationError) as exc:
            parse_manifest(write_manifest(tmp_path, text))
        assert exc.value.key == "[f_L] expr"


class TestBuiltGeometry:
    def test_built_once(self, tmp_path):
        man = parse_manifest(write_manifest(tmp_path, MINIMAL_SPLIT))
        assert "blocks" not in {f.name for f in dataclasses.fields(man)}
        assert build_geometry(man)["spec"] is build_geometry(man)["spec"]
        assert build_geometry(man) is build_geometry(man)

    def test_equal_entries_evaluated_once(self, monkeypatch):
        geo = build_geometry(parse_manifest(MANIFESTS / "polar_general.cdm"))
        p = np.array([2.0, 0.5])
        calls = []
        original = expr.eval_ast
        # one point-form call per array, which evaluates its distinct entries
        monkeypatch.setattr(expr, "eval_ast",
                            lambda e, q: calls.append(e) or original(e, q))
        (g,), = geo["spec"].jet(p[None], 0)
        assert g.tolist() == [[1.0, 0.0], [0.0, 4.0]]
        # g22 alone: g11 and g12 (for g21 too) are constants, filled once
        r_squared = ("^", ("var", "r"), ("num", 2.0))
        assert [[x.ast for x in e.entries] for e in calls] == [[r_squared]]
        assert calls[0].code.source.count("power(") == 1
        calls.clear()
        (D,) = geo["spec"].jet(p[None], 1)[1]
        assert D[0].tolist() == [[0.0, 0.0], [0.0, 4.0]] and not D[1].any()
        # the metric again, then its partials: the zero partials are constants
        assert [[x.ast for x in e.entries] for e in calls] == [
            [r_squared], [("*", ("num", 2.0), ("var", "r"))]]
        # equal entries share one statement in both forms
        e = compile_expression("sin(r) * y1", ("r", "y1"))
        both = ExpressionArray([[e, e], [e, e.derivative("r")]])
        for source in (both.code.source, both.block.source):
            assert source.count("sin(") == 1 and source.count("cos(") == 1

    def test_signed_zeros_are_not_shared(self):
        # 0.0 == -0.0, so equal AST tuples do not mean equal values: a zero
        # to an odd power keeps its sign
        e1 = compile_expression("0^r", ("r",))
        e2 = compile_expression("(-0)^r", ("r",))
        assert e1.ast == e2.ast
        p = np.array([3.0])
        alone = ExpressionArray([e2])(p)
        both = ExpressionArray([e1, e2])(p)
        assert repr(alone.tolist()) == "[-0.0]"
        assert repr(both.tolist()) == "[0.0, -0.0]"

    @pytest.mark.parametrize(("text", "values", "message"), [
        ("sqrt(r)", (-1.0, 0.5), "sqrt(r) has no finite real value at r = -1.0, y1 = 0.5 "
                                 "(math domain error)"),
        ("log(r * y1)", (2.0, 0.0), "log(r * y1) has no finite real value at r = 2.0, "
                                    "y1 = 0.0 (math domain error)"),
        ("exp(exp(r))", (7.0, 0.0), "exp(exp(r)) has no finite real value at r = 7.0, "
                                    "y1 = 0.0 (math range error)"),
        ("1 / r", (0.0, 0.0), "1 / r has no finite real value at r = 0.0, y1 = 0.0 "
                              "(float division by zero)"),
    ], ids=["sqrt", "log", "exp", "division"])
    def test_no_real_value_is_non_finite(self, text, values, message):
        e = compile_expression(text, ("r", "y1"))
        with pytest.raises(NonFinite) as exc:
            e(*values)
        assert str(exc.value) == message

    def test_no_real_value_in_an_array_is_non_finite(self):
        names = ("r", "y1")
        e = compile_expression("sqrt(r)", names)
        fill = ExpressionArray([[e, compile_expression("r", names)], [e.derivative("r"), e]])
        message = "sqrt(r) has no finite real value at r = -0.25, y1 = 1.0 (math domain error)"
        with pytest.raises(NonFinite, match="^" + re.escape(message) + "$"):
            fill(np.array([-0.25, 1.0]))

    def test_f_L_only_on_split_spaces(self, tmp_path):
        text = (MANIFESTS / "twisted_flat.cdm").read_text() + "\n[f_L]\nexpr = y1\n"
        with pytest.raises(ValidationError, match="does not accept"):
            parse_manifest(write_manifest(tmp_path, text))


def _split_over(fiber_lines):
    return MINIMAL_SPLIT.replace("type = sphere\neinstein_constant = 0.2", fiber_lines)


@pytest.mark.parametrize(("fiber_lines", "diagonal", "box"), [
    ("type = euclidean", [1.0, 1.0], 10.0),
    ("type = euclidean\nbox = 2", [1.0, 1.0], 2.0),
    ("type = torus\nperiods = 6.283185307179586, 12.566370614359172", [1.0, 4.0], 10.0),
])
def test_flat_fiber_types(tmp_path, fiber_lines, diagonal, box):
    man = parse_manifest(write_manifest(tmp_path, _split_over(fiber_lines)))
    fiber = build_geometry(man)["split"].fiber
    assert fiber.metric(np.zeros(2)).tolist() == np.diag(diagonal).tolist()
    assert fiber.safe_box.tolist() == [[-box, box]] * 2


@pytest.mark.parametrize(("fiber_lines", "message"), [
    ("type = euclidean\neinstein_constant = 1",
     "[fiber] einstein_constant: euclidean fibers take no einstein_constant"),
    ("type = euclidean\nperiods = 1, 1", "[fiber] periods: euclidean fibers take no periods"),
    ("type = torus", "[fiber] periods: missing required key"),
    ("type = torus\nperiods = 1", "[fiber] periods: need 2 periods"),
    ("type = torus\nperiods = 1, inf", "[fiber] periods: expected a finite number, got 'inf'"),
    ("type = torus\nperiods = 1, 1\nbox = 0", "[fiber] box: must be > 0, got '0'"),
    ("type = torus\nperiods = 1, 1\neinstein_constant = 5",
     "[fiber] einstein_constant: torus fibers take no einstein_constant"),
    ("type = sphere\neinstein_constant = 0.2\nperiods = 1, 2",
     "[fiber] periods: sphere fibers take no periods"),
    ("type = flat", "[fiber] type: unknown fiber type 'flat'"),
])
def test_flat_fiber_errors(tmp_path, fiber_lines, message):
    with pytest.raises(ValidationError) as exc:
        parse_manifest(write_manifest(tmp_path, _split_over(fiber_lines)))
    assert str(exc.value) == message


class TestShippedManifests:
    @pytest.mark.parametrize("name", ["sphere_example.cdm", "radial_log.cdm",
                                      "twisted_flat.cdm", "polar_general.cdm"])
    def test_parse_and_build(self, name):
        man = parse_manifest(MANIFESTS / name)
        geo = build_geometry(man)
        assert "spec" in geo and "density" in geo

    def test_polar_general_matches_builtin(self):
        man = parse_manifest(MANIFESTS / "polar_general.cdm")
        geo = build_geometry(man)
        import catalog
        from cdsplit.chart_core import BlockGeometry

        p = np.array([2.0, 0.5])
        a = BlockGeometry.at(geo["spec"], p).christoffel[0]
        b = BlockGeometry.at(catalog.polar_plane(), p).christoffel[0]
        assert np.max(np.abs(a - b)) < 1e-12


OVERRIDE_KEYS = ("r_min", "r_max", "r_count", "fiber_count", "y_min", "y_max",
                 "dt")


@pytest.fixture(scope="module")
def minimal_split_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("overrides") / "m.cdm"
    path.write_text(MINIMAL_SPLIT)
    return path


# floats() also draws nan, +-inf, negatives and non-integers, but rarely
# enough that the special values are drawn explicitly too; the small
# integers make valid counts likely
NUMBER_TEXT = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.integers(-2, 300)).map(str)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(OVERRIDE_KEYS), NUMBER_TEXT), max_size=6))
def test_overrides_meet_bounds_or_raise(minimal_split_path, overrides):
    try:
        man = parse_manifest(minimal_split_path, [f"{k}={v}" for k, v in overrides])
    except ValidationError:
        return
    g, num = man.grid, man.numeric
    for key, text in dict(overrides).items():
        assert (g if key in g else num)[key] == float(text)
    assert all(v is None or math.isfinite(v) for v in [*g.values(), *num.values()])
    assert isinstance(g["r_count"], int) and g["r_count"] >= 2
    assert isinstance(g["fiber_count"], int) and g["fiber_count"] >= 1
    assert g["r_min"] < g["r_max"]
    if g["y_min"] is not None and g["y_max"] is not None:
        assert -3.0 <= g["y_min"] < g["y_max"] <= 3.0  # inside the sphere fiber's box
    assert num["dt"] > 0


def _shipped(name, old="", new=""):
    return (MANIFESTS / f"{name}.cdm").read_text().replace(old, new)


SPLIT5 = ("[manifold]\nkind = split\ndim = 5\n[phi]\nexpr = sin(r)\n"
          "[fiber]\ntype = sphere\neinstein_constant = 0.3\n")


@pytest.mark.parametrize("text, overrides, key", [
    # 12,345 x 9^2 = 999,945 grid points; one radius more is 1,000,026
    (_shipped("sphere_example"), ["r_count=12345"], None),
    (_shipped("sphere_example"), ["r_count=12346"], "[grid] r_count"),
    (_shipped("twisted_flat"), ["fiber_count=200", "r_count=25"], None),
    (_shipped("twisted_flat"), ["fiber_count=200", "r_count=26"], "[grid] r_count"),
    # without [cd] no verify-cd grid is built: 201 x 9^4 points are not
    # refused, but the threshold scan's r_count radii are
    (SPLIT5, [], None),
    (SPLIT5, ["r_count=1000001"], "[grid] r_count"),
    # T / dt = 10 / 1e-5 is exactly MAX_POINTS steps
    (_shipped("sphere_example"), ["dt=1e-5"], None),
    (_shipped("sphere_example"), ["dt=9e-6"], "[numeric] dt"),
    (_shipped("sphere_example"), ["dt=5e-324"], "[numeric] dt"),  # T / dt overflows to inf
    # 2,493 x 401 = 999,693 quadrature samples; one radius more is 1,000,094
    (_shipped("radial_log", "count = 100", "count = 2493"), [], None),
    (_shipped("radial_log", "count = 100", "count = 2494"), [], "[compare] count"),
    (_shipped("radial_log", "points = 10", "points = 1000001"), [], "[bochner] points"),
])
def test_sizes_above_max_points_are_refused(tmp_path, text, overrides, key):
    path = write_manifest(tmp_path, text)
    if key is None:
        parse_manifest(path, overrides)
        return
    with pytest.raises(ValidationError, match=f"MAX_POINTS = {MAX_POINTS}") as exc:
        parse_manifest(path, overrides)
    assert exc.value.key == key


def test_one_point_per_fiber_axis_is_the_box_centre():
    # fiber_count = 1 samples the middle of each fiber axis, not its low edge;
    # the r axis still spans its range
    points = cd_grid(parse_manifest(MANIFESTS / "twisted_flat.cdm", ["fiber_count=1"])).points
    assert points.shape == (51, 3)
    assert points[:, 1:].tolist() == [[0.0, 0.0]] * 51
    assert points[[0, -1], 0].tolist() == [-5.0, 5.0]
