"""Expression kernel: parsing, printing, differentiation, evaluation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curvkit.exprcore as ec
from oracles import sympy_of

SYMS = {"x", "y", "z", "M", "r", "theta"}


def p(text):
    return ec.parse_expr(text, SYMS)


def precise(e, values):
    """e at 30 significant digits, by sympy from its printed text; the
    float values are taken exactly."""
    return sympy_of(ec.to_string(e)).evalf(30, subs={
        sp.Symbol(k): sp.Float(v, 30) for k, v in values.items()})


# ---------------------------------------------------------------------------
# parsing and printing

def test_round_trip_reparse_is_identical():
    cases = [
        "x + y*z", "-(x - y)^2", "1/2*x^(3/2)", "sin(x)*cos(y) - tan(z)",
        "2*M*r^2/(x^2+r^2)^(3/2)", "exp(x) + log(y) - cot(theta)",
        "x^(-2) + sqrt(y)", "(x+y)*(x-y)",
    ]
    for text in cases:
        e = p(text)
        again = ec.parse_expr(ec.to_string(e), SYMS)
        assert e is again, text


def test_negated_product_of_sums_round_trips():
    # prints as -(2 + x)*(x + y); the leading minus negates the product
    e = p("0 - (x+y)*(x+2)")
    assert ec.to_string(e) == "-(2 + x)*(x + y)"
    assert p(ec.to_string(e)) is e
    assert p("-(2 + x)*(x + y)") is ec.neg(p("(2 + x)*(x + y)"))


def test_parse_error_reports_location():
    with pytest.raises(ec.ParseError) as exc:
        p("x + * y")
    assert "column" in str(exc.value) or "line" in str(exc.value)


def test_unknown_symbol_rejected_with_location():
    with pytest.raises(ec.UnknownSymbolError) as exc:
        p("x + bogus")
    assert "bogus" in str(exc.value)


def test_decimal_literals_rejected():
    with pytest.raises(ec.ParseError):
        p("0.5*x")


@pytest.mark.parametrize("text, col", [("x^²", 3), ("2²", 2),
                                       ("x + ٣", 5)])
def test_non_ascii_digits_are_parse_errors(text, col):
    # str.isdigit takes these, int() does not: a digit is ASCII 0-9 only
    with pytest.raises(ec.ParseError) as exc:
        p(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert "unexpected character" in str(exc.value)


def test_root_of_a_constant_beyond_float64_folds():
    assert p("(10^400)^(1/2)") is ec.const(10 ** 200)
    assert p("(8*10^600)^(1/3)") is ec.const(2 * 10 ** 200)
    assert p("(10^400 + 1)^(1/2)").kind == "pow"
    for n in (2, 3, 5):
        for k in range(200):
            root = round(k ** (1 / n))
            want = root if root ** n == k else None
            assert ec._nth_root_exact(k, n) == want, (k, n)


def test_constant_beyond_float64_evaluates_to_inf():
    # like any overflow, and the load probe rejects it as not finite
    assert ec.eval_float(p("-(10^400)"), {}, {}) == -math.inf
    assert ec.eval_float(p("10^400"), {}, {}) == math.inf
    assert ec.eval_float(p("1/10^400"), {}, {}) == 0.0
    got = ec.eval_float(p("x - 10^400"), {"x": np.array([1.0, 2.0])}, {})
    assert got.tolist() == [-math.inf, -math.inf]


@pytest.mark.parametrize("text, folded", [
    ("sin(0)", "0"), ("cos(0)", "1"), ("tan(0)", "0"), ("exp(0)", "1"),
    ("log(1)", "0"), ("abs(-3/2)", "3/2"), ("sqrt(9/4)", "3/2"),
    ("cot(0)", None), ("sin(1)", None), ("log(2)", None)])
def test_calls_fold_at_exact_values_only(text, folded):
    e = p(text)
    if folded is None:
        assert e.kind == "call"
    else:
        assert e is p(folded)


def test_every_function_parses_evaluates_and_differentiates():
    for name in ec.FUNCTIONS:
        e = p(f"{name}(x^2 + 1)")
        assert math.isfinite(ec.eval_float(e, {"x": 0.5}, {}))
        assert ec.differentiate(e, "x") is not ec.ZERO


def test_rational_exponents_allowed_others_rejected():
    assert p("x^(3/2)") is not None
    assert p("x^2") is not None
    with pytest.raises(ec.ParseError):
        p("x^y")


# ---------------------------------------------------------------------------
# canonicalization

def test_like_term_collection():
    assert p("x + x") is p("2*x")
    assert p("1 - 2*(1-x) + (1-x)") is p("x")
    assert p("x*x") is p("x^2")
    assert p("x/x") is p("1")
    assert p("x - x") is ec.ZERO


def test_power_of_power_collapses():
    assert p("(x^2)^(3/2)") is p("abs(x)^3")
    assert p("sqrt(x)^2") is p("x")
    assert p("(x^2)^3") is p("x^6")


@pytest.mark.parametrize("text, value, slope", [
    ("(x^2)^(1/2)", 2.0, -1.0),
    ("sqrt(x^2)", 2.0, -1.0),
    ("(x^2)^(3/2)", 8.0, -12.0),
    ("(x^(-2))^(1/2)", 0.5, 0.25),
])
def test_power_of_even_power_sound_for_negative_base(text, value, slope):
    # (x^a)^b folds to |x|^(ab) for even a and fractional b, not to x^(ab)
    e = p(text)
    at = {"x": -2.0}
    assert float(precise(e, at)) == pytest.approx(value, rel=1e-15)
    assert ec.eval_float(e, at, {}) == pytest.approx(value, rel=1e-15)
    d = ec.differentiate(e, "x")
    assert float(precise(d, at)) == pytest.approx(slope, rel=1e-15)
    assert ec.parse_expr(ec.to_string(e), SYMS) is e


@pytest.mark.parametrize("text", [
    "(abs(x)^2)^(1/2)", "sqrt(abs(x)^2)", "abs(abs(x))",
])
def test_abs_of_abs_is_abs(text):
    e = p(text)
    assert e is p("abs(x)")
    at = {"x": -2.0}
    assert float(precise(e, at)) == 2.0
    assert float(precise(ec.differentiate(e, "x"), at)) == -1.0


def test_neg_distributes_over_sum():
    assert ec.neg(p("x - y")) is p("y - x")


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_matches_math():
    e = p("sin(x)^2 + cos(x)^2")
    v = precise(e, {"x": 0.7})
    assert abs(v - 1) < sp.Float("1e-25")


def test_eval_float_matches_sympy():
    rng = random.Random(3)
    exprs = ["2*M*r^2/(x^2+r^2)^(3/2)", "log(x) + exp(-y)",
             "sin(theta)*sqrt(x)", "x^(-5/2)*y"]
    for text in exprs:
        e = p(text)
        for _ in range(5):
            values = {s: rng.uniform(0.5, 2.5) for s in SYMS}
            a = ec.eval_float(e, values, {})
            b = float(precise(e, values))
            assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_domain_errors():
    # an entry outside the domain is NaN, not an exception
    assert math.isnan(ec.eval_float(p("log(x)"), {"x": -1.0}, {}))
    assert math.isnan(ec.eval_float(p("sqrt(x)"), {"x": -4.0}, {}))
    assert math.isnan(ec.eval_float(p("1/x"), {"x": 0.0}, {}))


def test_unbound_symbol_error():
    with pytest.raises(ec.UnboundSymbolError):
        ec.eval_float(p("x + y"), {"x": 1.0}, {})


# ---------------------------------------------------------------------------
# differentiation

def _fd(e, name, values, h=1e-6):
    up = dict(values)
    dn = dict(values)
    up[name] += h
    dn[name] -= h
    return (ec.eval_float(e, up, {}) - ec.eval_float(e, dn, {})) / (2 * h)


def test_derivative_matches_finite_differences():
    rng = random.Random(11)
    exprs = ["2*M*r^2/(x^2+r^2)^(3/2)", "sin(x)*cos(x)", "x^(5/2)",
             "log(x)*exp(y)", "cot(theta)", "tan(x)", "abs(x)*y",
             "sqrt(x^2 + y^2)"]
    for text in exprs:
        e = p(text)
        for name in sorted(e.free_symbols()):
            d = ec.differentiate(e, name)
            for _ in range(4):
                values = {s: rng.uniform(0.6, 2.0) for s in SYMS}
                got = ec.eval_float(d, values, {})
                want = _fd(e, name, values)
                assert abs(got - want) <= 1e-5 * (1 + abs(want)), (text, name)


def test_derivative_matches_sympy():
    rng = random.Random(5)
    exprs = ["2*M*r^2/(x^2+r^2)^(3/2)", "sin(theta)^2*r^2",
             "1/(1 - 2*M/r)", "exp(x)*log(y)"]
    for text in exprs:
        e = p(text)
        se = sp.sympify(text.replace("^", "**"))
        for name in sorted(e.free_symbols()):
            d = ec.differentiate(e, name)
            sd = sp.diff(se, sp.Symbol(name))
            for _ in range(4):
                values = {s: rng.uniform(0.7, 2.2) for s in SYMS}
                got = float(precise(d, values))
                want = float(sd.subs({sp.Symbol(k): v
                                      for k, v in values.items()}))
                assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_derivative_of_constant_and_unrelated_symbol():
    assert ec.differentiate(p("y"), "x") is ec.ZERO
    assert ec.differentiate(p("3/4"), "x") is ec.ZERO


# ---------------------------------------------------------------------------
# property-based checks

_leaf = st.sampled_from(["x", "y", "2", "3", "1/2"])
_ops = st.sampled_from(["+", "*", "-"])


@st.composite
def expr_text(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return draw(_leaf)
    a = draw(expr_text(depth=depth + 1))
    b = draw(expr_text(depth=depth + 1))
    op = draw(_ops)
    return f"({a} {op} {b})"


@settings(max_examples=60, deadline=None)
@given(expr_text())
@example("((((x + x) * (x - x)) - ((x + y) * (x + 2)))"
         " + (x * ((x + x) * (x - x))))")
def test_property_roundtrip_and_eval(text):
    e = ec.parse_expr(text, {"x", "y"})
    again = ec.parse_expr(ec.to_string(e), {"x", "y"})
    assert e is again
    values = {"x": 1.375, "y": 0.625}
    a = ec.eval_float(e, values, {})
    b = float(precise(e, values))
    assert abs(a - b) <= 1e-10 * (1 + abs(b))


@settings(max_examples=40, deadline=None)
@given(st.lists(expr_text(), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_property_shared_printer_memo(texts, rnd):
    # one memo shared over many prints gives each expression's own text,
    # whatever was printed before it
    exprs = [ec.parse_expr(t, {"x", "y"}) for t in texts]
    exprs += [ec.neg(e) for e in exprs] + [ec.add(*exprs), ec.mul(*exprs)]
    fresh = {e: ec.to_string(e) for e in exprs}
    rnd.shuffle(exprs)
    memo = {}
    for e in exprs:
        assert ec.to_string(e, memo) == fresh[e]


# functions and powers that leave their domain or overflow on part of the
# points below: zero, negative and huge arguments
_wrap = st.sampled_from(["log({})", "({})^(1/2)", "({})^(-1)", "cot({})",
                         "tan({})", "exp({})", "({})^3", "abs({})"])
XS = np.array([1.375, -0.5, 0.0, 2.0, 700.0, -1e155, 3.0, 1e-200])
YS = np.array([0.625, 2.0, -1.0, 0.0, 1e155, 0.5, -3.0, 0.5])


@settings(max_examples=80, deadline=None)
@given(expr_text(), _wrap, _wrap, _ops, expr_text())
def test_property_array_evaluation_is_pointwise(ta, inner, outer, op, tb):
    try:
        e = ec.parse_expr(f"{outer.format(inner.format(ta))} {op} {tb}",
                          {"x", "y"})
    except ec.ParseError:
        assume(False)   # a constant zero to a negative power
    scalars = [ec.eval_float(e, {"x": x, "y": y}, {})
               for x, y in zip(XS.tolist(), YS.tolist())]
    assert all(type(v) is float for v in scalars)
    want = np.array(scalars)
    got = np.broadcast_to(ec.eval_float(e, {"x": XS, "y": YS}, {}), XS.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@settings(max_examples=40, deadline=None)
@given(expr_text(), expr_text())
def test_property_derivative_linearity(ta, tb):
    a = ec.parse_expr(ta, {"x", "y"})
    b = ec.parse_expr(tb, {"x", "y"})
    left = ec.differentiate(a + b, "x")
    right = ec.differentiate(a, "x") + ec.differentiate(b, "x")
    assert sp.simplify(sympy_of(ec.to_string(left))
                       - sympy_of(ec.to_string(right))) == 0


def _grouped(terms, rnd):
    """Sum of terms as a random binary tree of two-term additions."""
    if len(terms) == 1:
        return terms[0]
    cut = rnd.randint(1, len(terms) - 1)
    return _grouped(terms[:cut], rnd) + _grouped(terms[cut:], rnd)


@settings(max_examples=60, deadline=None)
@given(st.lists(expr_text(), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_property_add_ignores_order_and_grouping(texts, rnd):
    # the array formulas of the curvature layers sum in numpy's order,
    # not the index loops' order; both must give the same node
    terms = [ec.parse_expr(t, {"x", "y"}) for t in texts]
    want = ec.add(*terms)
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    acc = ec.ZERO
    for t in shuffled:
        acc = acc + t
    assert acc is want
    rnd.shuffle(shuffled)
    assert _grouped(shuffled, rnd) is want


@settings(max_examples=60, deadline=None)
@given(expr_text())
def test_property_zero_and_one_are_identities(text):
    # canonical nodes are fixed points of add and mul, which lets both
    # return a lone operand unchanged
    e = ec.parse_expr(text, {"x", "y"})
    assert ec.add(e) is e
    assert ec.add(e, ec.ZERO) is e
    assert ec.add(ec.ZERO, e, ec.ZERO) is e
    assert ec.mul(e) is e
    assert ec.mul(e, ec.ONE) is e
    assert ec.mul(ec.ONE, e, ec.ONE) is e
    assert ec.mul(e, ec.ZERO) is ec.ZERO
    assert ec.mul(ec.ZERO, e) is ec.ZERO


def test_const_is_keyed_by_value():
    assert ec.const(2) is ec.const(Fraction(4, 2))
    assert ec.const(Fraction(1, 2)) is ec.const(0.5)
    assert ec.const(0) is ec.ZERO
    assert ec.const(Fraction(3, 3)) is ec.ONE


def _post_order(e, seen=None):
    seen = set() if seen is None else seen
    for c in e.children:
        if c not in seen:
            yield from _post_order(c, seen)
    if e not in seen:
        seen.add(e)
        yield e


@settings(max_examples=60, deadline=None)
@given(expr_text(), st.sampled_from(["x", "y"]))
def test_property_shared_derivative_memo(text, name):
    # the derivative memo outlives each call; what it holds must not
    # change the node that differentiate returns
    e = ec.parse_expr(text, {"x", "y"})
    ec._DIFF_MEMO.clear()
    fresh = ec.differentiate(e, name)
    ec._DIFF_MEMO.clear()
    for sub in _post_order(e):
        if sub is not e:
            ec.differentiate(sub, name)
    assert ec.differentiate(e, name) is fresh
    assert ec.differentiate(e, name) is fresh


@settings(max_examples=60, deadline=None)
@given(expr_text())
def test_property_zero_operand_short_cuts(text):
    # the operators return at once on a zero operand (ZERO, or the int 0
    # an object einsum starts from); each must be the node that add, mul
    # and div build for the same operands
    x = ec.parse_expr(text, {"x", "y"})
    assert x + ec.ZERO is ec.add(x, ec.ZERO)
    assert 0 + x is ec.add(ec.ZERO, x)
    assert ec.ZERO + x is ec.add(ec.ZERO, x)
    assert x - ec.ZERO is ec.add(x, ec.neg(ec.ZERO))
    assert ec.ZERO - x is ec.add(ec.ZERO, ec.neg(x))
    assert ec.ZERO * x is ec.mul(ec.ZERO, x)
    assert x * 0 is ec.mul(x, ec.ZERO)
    assert 0 * x is ec.mul(ec.ZERO, x)
    if x is not ec.ZERO:
        assert ec.ZERO / x is ec.div(ec.ZERO, x)
    for zero in (ec.ZERO, 0):
        with pytest.raises(ec.ExprError, match="division by zero"):
            x / zero


def test_zero_over_zero_raises():
    with pytest.raises(ec.ExprError, match="division by zero"):
        ec.ZERO / ec.ZERO
    with pytest.raises(ec.ExprError, match="division by zero"):
        ec.ZERO / 0
    # a zero operand does not let a float into an expression
    with pytest.raises(TypeError):
        ec.ZERO * 0.5
    with pytest.raises(TypeError):
        ec.ZERO + 0.0


# ---------------------------------------------------------------------------
# the sum and product memos
#
# add and mul are each a lookup in front of a canonicalization (_add, _mul)
# that runs on a miss; each check below runs once per constructor

def _memo_holds_the_canonical_nodes(memo, canonical_name):
    # after the builtins' and Kerr's bundles, every node the memo keeps is
    # the node the canonicalization builds anew
    from curvkit.catalog import BUILTIN_IDS, builtin, parse_metric_source
    from curvkit.curvature import build_bundle
    from curvkit.tensor import invert_metric
    from test_exact_solutions import KERR
    specs = [builtin(i) for i in BUILTIN_IDS]
    assert len(specs) == 4
    for spec in specs + [parse_metric_source(KERR, "kerr")]:
        build_bundle(invert_metric(spec.g()), spec.coords)
    entries = list(memo.items())
    assert len(entries) > 1000
    canonical = getattr(ec, canonical_name)
    moved = [key for key, node in entries if canonical(key) is not node]
    assert moved == []


def test_product_memo_holds_the_canonical_products():
    _memo_holds_the_canonical_nodes(ec._MUL_MEMO, "_mul")


def test_sum_memo_holds_the_canonical_sums():
    _memo_holds_the_canonical_nodes(ec._ADD_MEMO, "_add")


def _second_bundle_builds_nothing(build, canonical_name, monkeypatch):
    from curvkit.catalog import builtin
    from curvkit.curvature import build_bundle
    from curvkit.tensor import invert_metric
    spec = builtin("bardeen")
    first = build_bundle(invert_metric(spec.g()), spec.coords)
    built = []
    canonical = getattr(ec, canonical_name)
    monkeypatch.setattr(ec, canonical_name, lambda key: built.append(key)
                        or canonical(key))
    second = build_bundle(invert_metric(spec.g()), spec.coords)
    assert built == []
    for name in ("R", "C", "nabla_R", "nabla_C", "nabla_S"):
        pairs = zip(first.tensor(name).data.flat,
                    second.tensor(name).data.flat)
        assert all(a is b for a, b in pairs), name
    # the wrapper is the one the constructor calls on a miss
    build(ec.sym(f"memo_probe{canonical_name}"), ec.sym("x"))
    assert len(built) == 1


def test_second_bundle_builds_no_product(monkeypatch):
    _second_bundle_builds_nothing(ec.mul, "_mul", monkeypatch)


def test_second_bundle_builds_no_sum(monkeypatch):
    _second_bundle_builds_nothing(ec.add, "_add", monkeypatch)


def _memo_keeps_floats_out(build, unit):
    # 1.0 == 1 and 0.0 == 0 with the same hash: a key of raw operands
    # would let a float reach the memo entry of the int
    x = ec.sym("x")
    assert build(unit, x) is x
    with pytest.raises(TypeError, match="cannot use float"):
        build(float(unit), x)
    with pytest.raises(TypeError, match="cannot use float"):
        build(x, float(unit))


def test_product_memo_keeps_floats_out():
    _memo_keeps_floats_out(ec.mul, 1)


def test_sum_memo_keeps_floats_out():
    _memo_keeps_floats_out(ec.add, 0)


OTHER_OPERANDS = [0.5, "2", None, [1], np.float64(2.0), np.int64(2)]


def _rejects_other_operands(build, operand):
    x = ec.sym("x")
    with pytest.raises(TypeError, match="in a symbolic expression"):
        build(x, operand)
    with pytest.raises(TypeError, match="in a symbolic expression"):
        build(operand)


@pytest.mark.parametrize("factor", OTHER_OPERANDS)
def test_product_rejects_other_factors(factor):
    _rejects_other_operands(ec.mul, factor)


@pytest.mark.parametrize("term", OTHER_OPERANDS)
def test_sum_rejects_other_terms(term):
    _rejects_other_operands(ec.add, term)
