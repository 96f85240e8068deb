"""Expression kernel: parsing, printing, differentiation, evaluation."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curvkit.exprcore as ec

SYMS = {"x", "y", "z", "M", "r", "theta"}


def p(text):
    return ec.parse_expr(text, SYMS)


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
    assert float(ec.evaluate(e, at)) == pytest.approx(value, rel=1e-15)
    assert ec.eval_float(e, at, {}) == pytest.approx(value, rel=1e-15)
    d = ec.differentiate(e, "x")
    assert float(ec.evaluate(d, at)) == pytest.approx(slope, rel=1e-15)
    assert ec.parse_expr(ec.to_string(e), SYMS) is e


@pytest.mark.parametrize("text", [
    "(abs(x)^2)^(1/2)", "sqrt(abs(x)^2)", "abs(abs(x))",
])
def test_abs_of_abs_is_abs(text):
    e = p(text)
    assert e is p("abs(x)")
    at = {"x": -2.0}
    assert float(ec.evaluate(e, at)) == 2.0
    assert float(ec.evaluate(ec.differentiate(e, "x"), at)) == -1.0


def test_neg_distributes_over_sum():
    assert ec.neg(p("x - y")) is p("y - x")


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_matches_math():
    e = p("sin(x)^2 + cos(x)^2")
    v = ec.evaluate(e, {"x": 0.7})
    assert abs(float(v) - 1.0) < 1e-25


def test_eval_float_matches_mpmath_evaluate():
    rng = random.Random(3)
    exprs = ["2*M*r^2/(x^2+r^2)^(3/2)", "log(x) + exp(-y)",
             "sin(theta)*sqrt(x)", "x^(-5/2)*y"]
    for text in exprs:
        e = p(text)
        for _ in range(5):
            values = {s: rng.uniform(0.5, 2.5) for s in SYMS}
            a = ec.eval_float(e, values, {})
            b = float(ec.evaluate(e, values))
            assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_domain_errors():
    with pytest.raises(ec.DomainError):
        ec.evaluate(p("log(x)"), {"x": -1.0})
    with pytest.raises(ec.DomainError):
        ec.evaluate(p("sqrt(x)"), {"x": -4.0})
    with pytest.raises(ec.DomainError):
        ec.evaluate(p("1/x"), {"x": 0.0})


def test_unbound_symbol_error():
    with pytest.raises(ec.UnboundSymbolError):
        ec.evaluate(p("x + y"), {"x": 1.0})


# ---------------------------------------------------------------------------
# differentiation

def _fd(e, name, values, h=1e-6):
    up = dict(values)
    dn = dict(values)
    up[name] += h
    dn[name] -= h
    return (float(ec.evaluate(e, up)) - float(ec.evaluate(e, dn))) / (2 * h)


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
                got = float(ec.evaluate(d, values))
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
                got = float(ec.evaluate(d, values))
                want = float(sd.subs({sp.Symbol(k): v
                                      for k, v in values.items()}))
                assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_derivative_of_constant_and_unrelated_symbol():
    assert ec.differentiate(p("y"), "x") is ec.ZERO
    assert ec.differentiate(p("3/4"), "x") is ec.ZERO


# ---------------------------------------------------------------------------
# probabilistic equality

def test_equal_probabilistic_accepts_identities():
    assert ec.equal_probabilistic(p("sin(x)^2 + cos(x)^2"), p("1"))
    assert ec.equal_probabilistic(p("(x+y)^2"), p("x^2 + 2*x*y + y^2"))
    assert ec.equal_probabilistic(p("x^2/x"), p("x"))


def test_equal_probabilistic_rejects_inequalities():
    assert not ec.equal_probabilistic(p("x + y"), p("x - y"))
    assert not ec.equal_probabilistic(p("x^2"), p("x^2 + 1/100000"))


def test_equal_probabilistic_deterministic():
    a, b = p("log(x*y)"), p("log(x) + log(y)")
    assert ec.equal_probabilistic(a, b, seed=9) \
        == ec.equal_probabilistic(a, b, seed=9)


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
    b = float(ec.evaluate(e, values))
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
    assert ec.equal_probabilistic(left, right)


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
