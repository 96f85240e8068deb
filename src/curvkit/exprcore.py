"""Symbolic expression kernel: AST, parser, differentiation, evaluation.

Expressions are immutable, hash-consed trees over named symbols with exact
rational constants and rational exponents.  Construction always canonicalizes
(sums and products flattened and sorted, like terms collected, trivial powers
removed), so structural identity doubles as canonical-form equality.
Canonicalizing is a pure function of interned inputs, so `add` and `mul`
build each sum and product once per tuple of operands and keep it in a
memo that, like the intern table, lives as long as the process.

`eval_float` evaluates an expression in float64 by one walk over the DAG,
where a symbol may be bound to an array over points.  It computes each
node once for all points with the bits of Python's scalar operations: sums
from 0.0, products from 1.0, powers and functions entry by entry through
`**` and `math` (numpy's differ in the last bit).  An entry outside the
domain is NaN, an overflow inf.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

# the elementary functions, each named once: its float64 function, its
# derivative in terms of the argument u, and the exact value at which
# `call` folds a rational argument (None where it does not).  sqrt is not
# a function node but the power 1/2
_FUNCTIONS = {
    "sin": (math.sin, lambda u: call("cos", u), {0: 0}.get),
    "cos": (math.cos, lambda u: neg(call("sin", u)), {0: 1}.get),
    "tan": (math.tan, lambda u: add(ONE, powr(call("tan", u), 2)),
            {0: 0}.get),
    "cot": (lambda u: math.cos(u) / math.sin(u),
            lambda u: neg(add(ONE, powr(call("cot", u), 2))), {}.get),
    "exp": (math.exp, lambda u: call("exp", u), {0: 1}.get),
    "log": (math.log, lambda u: powr(u, -1), {1: 0}.get),
    "abs": (abs, lambda u: mul(call("abs", u), powr(u, -1)), abs),
}
FUNCTIONS = tuple(_FUNCTIONS) + ("sqrt",)

_KIND_RANK = {"const": 0, "sym": 1, "call": 2, "pow": 3, "mul": 4, "add": 5}


class ExprError(Exception):
    """Base class for expression construction errors."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownSymbolError(ParseError):
    pass


class EvalError(ExprError):
    """Base class for evaluation failures."""


class UnboundSymbolError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"symbol '{name}' is not bound")
        self.name = name


class Expr:
    """A node of the expression tree.  Never construct directly; use the
    factory functions (const, sym, add, mul, powr, call, div)."""

    __slots__ = ("kind", "value", "name", "fname", "exponent", "children",
                 "_key", "_free")

    def __init__(self, kind, value=None, name=None, fname=None,
                 exponent=None, children=()):
        self.kind = kind
        self.value = value          # Fraction, for const nodes
        self.name = name            # str, for sym nodes
        self.fname = fname          # str, for call nodes
        self.exponent = exponent    # Fraction, for pow nodes
        self.children = children    # tuple of Expr
        self._key = None
        self._free = None

    # nodes are interned, so structural equality is identity: Expr keeps
    # object's own __eq__ and __hash__

    def sort_key(self):
        """Total order of canonical sums and products (the whole subtree,
        cached per node); interning does not use it."""
        if self._key is None:
            k = self.kind
            if k == "const":
                self._key = (0, self.value.numerator, self.value.denominator)
            elif k == "sym":
                self._key = (1, self.name)
            elif k == "call":
                self._key = (2, self.fname, self.children[0].sort_key())
            elif k == "pow":
                self._key = (3, self.children[0].sort_key(),
                             self.exponent.numerator, self.exponent.denominator)
            else:
                rank = _KIND_RANK[k]
                self._key = (rank, len(self.children)) + tuple(
                    c.sort_key() for c in self.children)
        return self._key

    def free_symbols(self) -> frozenset:
        if self._free is None:
            if self.kind == "sym":
                self._free = frozenset((self.name,))
            elif self.kind == "const":
                self._free = frozenset()
            else:
                acc = frozenset()
                for c in self.children:
                    acc = acc | c.free_symbols()
                self._free = acc
        return self._free

    def is_zero(self) -> bool:
        return self.kind == "const" and self.value == 0

    # arithmetic sugar so tensor code reads naturally.  Object-array
    # einsums and broadcasts run mostly on structural zeros (and on the int
    # 0 an object einsum starts from), so a zero operand returns at once
    # the node that add, mul or div would build
    def __add__(self, other):
        other = _coerce(other)
        if other is ZERO:
            return self
        if self is ZERO:
            return other
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return self if other is ZERO else self + neg(other)

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        other = _coerce(other)
        if self is ZERO or other is ZERO:
            return ZERO
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if self is ZERO and other is not ZERO:
            return ZERO
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, p):
        return powr(self, p)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Expr({to_string(self)})"


_INTERN: Dict[tuple, Expr] = {}
# the same interned nodes, reached without rebuilding: constants by value,
# and derivatives per variable name (the derivative of an interned node is
# a fixed interned node, so every differentiate call shares one memo)
_CONSTS: Dict[object, Expr] = {}
_DIFF_MEMO: Dict[str, Dict[Expr, Expr]] = {}
# sums and products by their coerced terms and factors (see add and mul)
_ADD_MEMO: Dict[Tuple[Expr, ...], Expr] = {}
_MUL_MEMO: Dict[Tuple[Expr, ...], Expr] = {}


def _intern(kind, value=None, name=None, fname=None, exponent=None,
            children=()) -> Expr:
    """The one node with these fields.  Children are interned, so the key
    holds them by identity: keying and hashing cost one step per child,
    not a walk over the subtree."""
    key = (kind, value, name, fname, exponent, children)
    got = _INTERN.get(key)
    if got is None:
        got = _INTERN[key] = Expr(kind, value, name, fname, exponent,
                                  children)
    return got


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    raise TypeError(f"cannot use {type(v).__name__} in a symbolic expression")


ZERO: "Expr"
ONE: "Expr"
_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)


def const(v) -> Expr:
    """Exact rational constant."""
    got = _CONSTS.get(v)
    if got is None:
        got = _CONSTS[v] = _intern("const", value=Fraction(v))
    return got


def sym(name: str) -> Expr:
    return _intern("sym", name=name)


def _nth_root_exact(k: int, n: int) -> Optional[int]:
    """The integer r with r**n == k, or None: Newton's method in integers,
    from above, stops at floor(k**(1/n)) for k of any size."""
    if k < 0:
        return None
    r = 1 << -(-k.bit_length() // n)
    while r ** n > k:
        r = ((n - 1) * r + k // r ** (n - 1)) // n
    return r if r ** n == k else None


def _const_pow(base: Fraction, exp: Fraction) -> Optional[Fraction]:
    """Exact rational value of base**exp, or None if not rational."""
    if exp.denominator == 1:
        p = exp.numerator
        if base == 0 and p <= 0:
            return None
        return base ** p
    if base < 0:
        return None
    num = _nth_root_exact(base.numerator, exp.denominator)
    den = _nth_root_exact(base.denominator, exp.denominator)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return root ** exp.numerator


def powr(base: Expr, exp) -> Expr:
    """Power with an exact rational exponent."""
    base = _coerce(base)
    if not isinstance(exp, Fraction):
        exp = Fraction(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if base.kind == "const":
        if base.value == 0:
            if exp < 0:
                raise ExprError("zero raised to a negative power")
            return ZERO
        folded = _const_pow(base.value, exp)
        if folded is not None:
            return const(folded)
    if base.kind == "pow":
        inner, a = base.children[0], base.exponent
        if a.denominator == 1 and a.numerator % 2 == 0 \
                and exp.denominator != 1:
            # x^a >= 0 for even a, so (x^a)^b = |x|^(ab) on every range
            return powr(call("abs", inner), a * exp)
        return powr(inner, a * exp)
    if base.kind == "mul" and exp.denominator == 1:
        return mul(*[powr(c, exp) for c in base.children])
    return _intern("pow", exponent=exp, children=(base,))


def call(fname: str, arg) -> Expr:
    arg = _coerce(arg)
    if fname == "sqrt":
        return powr(arg, Fraction(1, 2))
    if fname not in _FUNCTIONS:
        raise ExprError(f"unknown function '{fname}'")
    if arg.kind == "const":
        folded = _FUNCTIONS[fname][2](arg.value)
        if folded is not None:
            return const(folded)
    if fname == "abs" and arg.kind == "call" and arg.fname == "abs":
        return arg
    return _intern("call", fname=fname, children=(arg,))


def _split_coeff(term: Expr) -> Tuple[Fraction, Optional[Expr]]:
    """term -> (rational coefficient, monomial or None for pure constants)."""
    if term.kind == "const":
        return term.value, None
    if term.kind == "mul" and term.children[0].kind == "const":
        coeff = term.children[0].value
        rest = term.children[1:]
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, _intern("mul", children=rest)
    return _FRAC_ONE, term


def add(*terms) -> Expr:
    """The canonical sum, built once per tuple of terms: memoized like
    mul, on the coerced terms."""
    key = tuple(map(_coerce, terms))
    got = _ADD_MEMO.get(key)
    if got is None:
        got = _ADD_MEMO[key] = _add(key)
    return got


def _add(terms: Tuple[Expr, ...]) -> Expr:
    # zero terms change nothing, and a canonical node is its own sum, so a
    # lone nonzero term is returned as it is instead of being rebuilt
    terms = [t for t in terms if t is not ZERO]
    if len(terms) <= 1:
        return terms[0] if terms else ZERO
    flat = []
    for t in terms:
        if t.kind == "add":
            flat.extend(t.children)
        else:
            flat.append(t)
    const_acc = _FRAC_ZERO
    monoms: Dict[Expr, Fraction] = {}
    order: list = []
    for t in flat:
        coeff, monom = _split_coeff(t)
        if monom is None:
            const_acc += coeff
        elif monom in monoms:
            monoms[monom] += coeff
        else:
            monoms[monom] = coeff
            order.append(monom)
    out = []
    for monom in order:
        coeff = monoms[monom]
        if coeff == 0:
            continue
        if coeff == 1:
            out.append(monom)
        else:
            out.append(mul(const(coeff), monom))
    if const_acc != 0:
        out.append(const(const_acc))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=Expr.sort_key)
    return _intern("add", children=tuple(out))


def mul(*factors) -> Expr:
    """The canonical product, built once per tuple of factors: the memo
    keys it on the coerced factors, which are interned and so hash by
    identity, and lives as long as _INTERN."""
    key = tuple(map(_coerce, factors))
    got = _MUL_MEMO.get(key)
    if got is None:
        got = _MUL_MEMO[key] = _mul(key)
    return got


def _mul(factors: Tuple[Expr, ...]) -> Expr:
    # a zero factor zeroes the product and factors of one change nothing;
    # a canonical node is its own product, so a lone factor is returned
    factors = [f for f in factors if f is not ONE]
    if ZERO in factors:
        return ZERO
    if len(factors) <= 1:
        return factors[0] if factors else ONE
    flat = []
    for f in factors:
        if f.kind == "mul":
            flat.extend(f.children)
        else:
            flat.append(f)
    coeff = _FRAC_ONE
    exps: Dict[Expr, Fraction] = {}
    order: list = []
    for f in flat:
        if f.kind == "const":
            coeff *= f.value
            continue
        if f.kind == "pow":
            base, e = f.children[0], f.exponent
        else:
            base, e = f, _FRAC_ONE
        if base in exps:
            exps[base] += e
        else:
            exps[base] = e
            order.append(base)
    out = []
    for base in order:
        e = exps[base]
        if e == 0:
            continue
        if base.kind == "const":
            folded = _const_pow(base.value, e)
            if folded is not None:
                coeff *= folded
                continue
        out.append(powr(base, e))
    out.sort(key=Expr.sort_key)
    if not out:
        return const(coeff)
    if len(out) == 1 and out[0].kind == "add" and coeff != 1:
        # distribute a rational coefficient over a lone sum so that like
        # terms collect across nested negations; term count is unchanged
        c = const(coeff)
        return add(*[mul(c, t) for t in out[0].children])
    if coeff != 1:
        out.insert(0, const(coeff))
    if len(out) == 1:
        return out[0]
    return _intern("mul", children=tuple(out))


def neg(f) -> Expr:
    return mul(const(-1), _coerce(f))


def div(a, b) -> Expr:
    b = _coerce(b)
    if b.is_zero():
        raise ExprError("division by zero")
    return mul(_coerce(a), powr(b, -1))


ZERO = const(0)
ONE = const(1)


# ---------------------------------------------------------------------------
# differentiation

def differentiate(f: Expr, var) -> Expr:
    """Exact partial derivative with respect to a symbol."""
    name = var.name if isinstance(var, Expr) else var
    memo = _DIFF_MEMO.get(name)
    if memo is None:
        memo = _DIFF_MEMO[name] = {}
    return _diff(f, name, memo)


def _diff(f: Expr, name: str, memo: Dict[Expr, Expr]) -> Expr:
    if name not in f.free_symbols():
        return ZERO
    got = memo.get(f)
    if got is not None:
        return got
    k = f.kind
    if k == "sym":
        out = ONE if f.name == name else ZERO
    elif k == "add":
        out = add(*[_diff(c, name, memo) for c in f.children])
    elif k == "mul":
        terms = []
        kids = f.children
        for i, c in enumerate(kids):
            dc = _diff(c, name, memo)
            if dc.is_zero():
                continue
            terms.append(mul(dc, *[kids[j] for j in range(len(kids)) if j != i]))
        out = add(*terms)
    elif k == "pow":
        base, p = f.children[0], f.exponent
        out = mul(const(p), powr(base, p - 1), _diff(base, name, memo))
    else:  # call
        u = f.children[0]
        out = mul(_FUNCTIONS[f.fname][1](u), _diff(u, name, memo))
    memo[f] = out
    return out


# ---------------------------------------------------------------------------
# evaluation: one float64 walk over the DAG

def eval_float(f: Expr, values: Mapping[str, object], memo: dict):
    """Float64 value of f, each symbol bound to a float or to an array over
    points (see the module docstring); the memo is shared by calls under
    one binding."""
    got = memo.get(f)
    if got is None:
        with np.errstate(all="ignore"):
            got = _walk(f, values, memo)
    return got


def _walk(f: Expr, values, memo: dict):
    got = memo.get(f)
    if got is not None:
        return got
    k = f.kind
    if k == "const":
        try:
            out = f.value.numerator / f.value.denominator
        except OverflowError:       # beyond float64, like any overflow
            out = math.inf if f.value > 0 else -math.inf
    elif k == "sym":
        try:
            out = values[f.name]
        except KeyError:
            raise UnboundSymbolError(f.name) from None
    elif k == "add":
        out = 0.0
        for c in f.children:
            out += _walk(c, values, memo)
    elif k == "mul":
        out = 1.0
        for c in f.children:
            out *= _walk(c, values, memo)
    elif k == "pow":
        p = f.exponent
        out = _each(_pow, _walk(f.children[0], values, memo),
                    p.numerator / p.denominator)
    else:
        out = _each(_call, _walk(f.children[0], values, memo),
                    _FUNCTIONS[f.fname][0])
    memo[f] = out
    return out


def _each(fn, u, arg):
    """fn(x, arg) for u = x, or entry by entry over an array u."""
    if isinstance(u, np.ndarray):
        return np.array([fn(x, arg) for x in u.ravel().tolist()],
                        dtype=float).reshape(u.shape)
    return fn(float(u), arg)


def _pow(b: float, e: float) -> float:
    if b < 0 and not e.is_integer():
        return math.nan             # Python would give a complex number
    try:
        return b ** e
    except ZeroDivisionError:
        return math.nan
    except OverflowError:
        return -math.inf if b < 0 and e % 2 else math.inf


def _call(u: float, fn) -> float:
    try:
        return fn(u)
    except (ValueError, ZeroDivisionError):
        return math.nan
    except OverflowError:
        return math.inf             # only exp overflows


# ---------------------------------------------------------------------------
# printing (round-trips through parse_expr for canonical expressions)

def _frac_str(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _exp_str(p: Fraction) -> str:
    if p.denominator == 1 and p >= 0:
        return str(p.numerator)
    return f"({p.numerator}/{p.denominator})" if p.denominator != 1 \
        else f"({p.numerator})"


def _pow_base_str(b: Expr, memo: dict) -> str:
    if b.kind in ("sym", "call") or (b.kind == "const" and b.value >= 0
                                     and b.value.denominator == 1):
        return to_string(b, memo)
    return f"({to_string(b, memo)})"


def _factor_str(f: Expr, memo: dict) -> str:
    if f.kind == "add":
        return f"({to_string(f, memo)})"
    if f.kind == "const" and f.value < 0:
        return f"({to_string(f, memo)})"
    return to_string(f, memo)


def _negative(t: Expr) -> bool:
    """Whether a term of a sum has a negative rational coefficient."""
    c = t.children[0] if t.kind == "mul" else t
    return c.kind == "const" and c.value < 0


def to_string(e: Expr, memo: Optional[dict] = None) -> str:
    """Infix text of e.  The memo maps nodes to their text; a caller that
    prints many expressions can share one, so that a shared subtree is
    printed once.  It lives as long as the caller keeps it."""
    if memo is None:
        memo = {}
    got = memo.get(e)
    if got is not None:
        return got
    k = e.kind
    if k == "const":
        v = e.value
        out = _frac_str(v) if v >= 0 else f"-{_frac_str(-v)}"
    elif k == "sym":
        out = e.name
    elif k == "call":
        out = f"{e.fname}({to_string(e.children[0], memo)})"
    elif k == "pow":
        out = f"{_pow_base_str(e.children[0], memo)}^{_exp_str(e.exponent)}"
    elif k == "mul":
        kids = list(e.children)
        prefix = ""
        if kids[0].kind == "const" and kids[0].value < 0:
            if kids[0].value == -1 and len(kids) > 1:
                kids = kids[1:]
            else:
                kids[0] = const(-kids[0].value)
            prefix = "-"
        out = prefix + "*".join(_factor_str(c, memo) for c in kids)
    else:
        # a term with a negative coefficient prints as "-" and the text of
        # its negation (see the mul case), which follows " - " in a sum
        parts = []
        for i, t in enumerate(e.children):
            text = to_string(t, memo)
            if i == 0:
                parts.append(text)
            elif _negative(t):
                parts.append(" - " + text[1:])
            else:
                parts.append(" + " + text)
        out = "".join(parts)
    memo[e] = out
    return out


# ---------------------------------------------------------------------------
# parser

class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == ".":
            raise ParseError("decimal literals are not supported; "
                             "use exact rationals like 3/2", line, col)
        if "0" <= ch <= "9":        # not isdigit: int() rejects "²"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not supported; "
                                 "use exact rationals like 3/2", line, col)
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, allowed):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}",
                             t.line, t.col)
        return t

    def parse_expr(self):
        e = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term()
            e = add(e, rhs) if op == "+" else add(e, neg(rhs))
        return e

    def parse_term(self):
        # collect the whole factor chain before canonicalizing so the
        # result does not depend on association order of '*'; a leading
        # minus negates the whole product, as to_string prints -1*a*b
        t0 = self.peek()
        negate = t0.kind == "-"
        if negate:
            self.next()
        factors = [self.parse_unary()]
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.parse_unary()
            if op == "*":
                factors.append(rhs)
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", t0.line, t0.col)
                try:
                    factors.append(powr(rhs, -1))
                except ExprError as exc:
                    raise ParseError(str(exc), t0.line, t0.col) from None
        term = factors[0] if len(factors) == 1 else mul(*factors)
        return neg(term) if negate else term

    def parse_unary(self):
        if self.peek().kind == "-":
            self.next()
            return neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.next()
            p = self.parse_exponent(caret)
            try:
                return powr(base, p)
            except ExprError as exc:
                raise ParseError(str(exc), caret.line, caret.col) from None
        return base

    def parse_exponent(self, caret) -> Fraction:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Fraction(int(t.text))
        if t.kind == "-":
            self.next()
            return -self.parse_exponent(caret)
        if t.kind == "(":
            self.next()
            p = self.parse_exponent(caret)
            if self.peek().kind == "/":
                self.next()
                q = self.expect("num")
                p = p / int(q.text)
            self.expect(")")
            return p
        raise ParseError("exponent must be an integer or a rational like "
                         "(3/2)", t.line, t.col)

    def parse_atom(self):
        t = self.next()
        if t.kind == "num":
            return const(int(t.text))
        if t.kind == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "name":
            if self.peek().kind == "(":
                if t.text not in FUNCTIONS:
                    raise UnknownSymbolError(
                        f"unknown function '{t.text}'", t.line, t.col)
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return call(t.text, arg)
            if self.allowed is not None and t.text not in self.allowed:
                raise UnknownSymbolError(
                    f"unknown symbol '{t.text}'", t.line, t.col)
            return sym(t.text)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)


def parse_expr(text: str, allowed_symbols: Optional[Iterable[str]] = None) -> Expr:
    """Parse an infix expression into canonical form.

    allowed_symbols restricts which names may appear as free symbols;
    None allows any name.
    """
    allowed = None if allowed_symbols is None else set(allowed_symbols)
    parser = _Parser(_tokenize(text), allowed)
    e = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}",
                         tail.line, tail.col)
    return e
