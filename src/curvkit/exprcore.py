"""Symbolic expression kernel: AST, parser, differentiation, evaluation.

Expressions are immutable, hash-consed trees over named symbols with exact
rational constants and rational exponents.  Construction always canonicalizes
(sums and products flattened and sorted, like terms collected, trivial powers
removed), so structural identity doubles as canonical-form equality.

One walk over the DAG evaluates an expression, in two arithmetics:
`evaluate` at 100 bits (mpmath; DomainError outside the domain) and
`eval_float` in float64, where a symbol may be bound to an array over
points.  It computes each node once for all points with the bits of
Python's scalar operations: sums from 0.0, products from 1.0, powers and
functions entry by entry through `**` and `math` (numpy's differ in the
last bit).  An entry outside the domain is NaN, an overflow inf.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace
from typing import Dict, Iterable, Mapping, Optional, Tuple

import mpmath
import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "cot", "sqrt", "exp", "log", "abs")

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


class DomainError(EvalError):
    """Raised when a sub-expression is evaluated outside its domain."""

    def __init__(self, message: str, subexpr: "Expr", value):
        super().__init__(f"{message} in {to_string(subexpr)} (argument {value})")
        self.subexpr = subexpr
        self.value = value


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

    # arithmetic sugar so tensor code reads naturally
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

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
    if k < 0:
        return None
    r = round(k ** (1.0 / n))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** n == k:
            return cand
    return None


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
    if fname not in FUNCTIONS:
        raise ExprError(f"unknown function '{fname}'")
    if fname == "sqrt":
        return powr(arg, Fraction(1, 2))
    if arg.kind == "const":
        v = arg.value
        if fname == "abs":
            return const(abs(v))
        if fname == "exp" and v == 0:
            return ONE
        if fname == "log" and v == 1:
            return ZERO
        if fname in ("sin", "tan") and v == 0:
            return ZERO
        if fname == "cos" and v == 0:
            return ONE
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
    # zero terms change nothing, and a canonical node is its own sum, so a
    # lone nonzero term is returned as it is instead of being rebuilt
    terms = [t for t in map(_coerce, terms) if t is not ZERO]
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
    # a zero factor zeroes the product and factors of one change nothing;
    # a canonical node is its own product, so a lone factor is returned
    factors = [f for f in map(_coerce, factors) if f is not ONE]
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


_DIFF_TABLE = {
    "sin": lambda u: call("cos", u),
    "cos": lambda u: neg(call("sin", u)),
    "tan": lambda u: add(ONE, powr(call("tan", u), 2)),
    "cot": lambda u: neg(add(ONE, powr(call("cot", u), 2))),
    "exp": lambda u: call("exp", u),
    "log": lambda u: powr(u, -1),
    "abs": lambda u: mul(call("abs", u), powr(u, -1)),
}


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
        out = mul(_DIFF_TABLE[f.fname](u), _diff(u, name, memo))
    memo[f] = out
    return out


# ---------------------------------------------------------------------------
# evaluation: one walk over the DAG, in float64 or in 100-bit arithmetic

EVAL_PRECISION_BITS = 100  # well above the 80-bit contract


def evaluate(f: Expr, binding) -> mpmath.mpf:
    """High-precision numeric value of f under a binding of all free
    symbols; raises DomainError outside f's domain."""
    with mpmath.workprec(EVAL_PRECISION_BITS):
        values = {k: mpmath.mpf(v) for k, v in dict(binding).items()}
        return _walk(f, values, {}, _MP)


def eval_float(f: Expr, values: Mapping[str, object], memo: dict):
    """Float64 value of f, each symbol bound to a float or to an array over
    points (see the module docstring); the memo is shared by calls under
    one binding."""
    got = memo.get(f)
    if got is None:
        with np.errstate(all="ignore"):
            got = _walk(f, values, memo, _FLOAT)
    return got


def _walk(f: Expr, values, memo: dict, arith):
    got = memo.get(f)
    if got is not None:
        return got
    k = f.kind
    if k == "const":
        out = arith.const(f.value)
    elif k == "sym":
        try:
            out = values[f.name]
        except KeyError:
            raise UnboundSymbolError(f.name) from None
    elif k == "add":
        out = arith.sum([_walk(c, values, memo, arith) for c in f.children])
    elif k == "mul":
        out = arith.one
        for c in f.children:
            out *= _walk(c, values, memo, arith)
    elif k == "pow":
        out = arith.pow(f, _walk(f.children[0], values, memo, arith))
    else:
        out = arith.call(f, _walk(f.children[0], values, memo, arith))
    memo[f] = out
    return out


def _mp_pow(f: Expr, b):
    p = f.exponent
    if b == 0 and p < 0:
        raise DomainError("division by zero", f, b)
    if b < 0 and p.denominator != 1:
        raise DomainError("fractional power of a negative value", f, b)
    if p.denominator == 1:
        return b ** p.numerator
    return mpmath.power(b, mpmath.mpf(p.numerator) / p.denominator)


def _mp_call(f: Expr, u):
    if f.fname == "log" and u <= 0:
        raise DomainError("log of a non-positive value", f, u)
    try:
        return _MP_FUNCTIONS[f.fname](u)
    except ZeroDivisionError:
        raise DomainError(f"{f.fname} at a pole", f, u) from None


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


_MP_FUNCTIONS = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
                 "tan": lambda u: mpmath.sin(u) / mpmath.cos(u),
                 "cot": lambda u: mpmath.cos(u) / mpmath.sin(u),
                 "log": mpmath.log, "abs": abs}
_FLOAT_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
                    "tan": math.tan,
                    "cot": lambda u: math.cos(u) / math.sin(u),
                    "log": math.log, "abs": abs}
# evaluate's arithmetic raises DomainError at the node; eval_float's gives
# NaN at the entry
_MP = SimpleNamespace(
    one=mpmath.mpf(1), sum=mpmath.fsum, pow=_mp_pow, call=_mp_call,
    const=lambda v: mpmath.mpf(v.numerator) / v.denominator)
_FLOAT = SimpleNamespace(
    one=1.0, sum=lambda terms: reduce(operator.iadd, terms, 0.0),
    const=lambda v: v.numerator / v.denominator,
    pow=lambda f, b: _each(_pow, b, f.exponent.numerator
                           / f.exponent.denominator),
    call=lambda f, u: _each(_call, u, _FLOAT_FUNCTIONS[f.fname]))


# ---------------------------------------------------------------------------
# probabilistic equality

def default_range(name: str) -> Tuple[float, float]:
    """Sampling window for a symbol; angle-like names stay inside (0, pi)."""
    if name.startswith("theta"):
        return (0.3, math.pi - 0.3)
    return (1.0, 3.0)


def sample_binding(names: Iterable[str], rng: random.Random,
                   ranges: Optional[Mapping[str, Tuple[float, float]]] = None):
    values = {}
    for name in sorted(names):
        lo, hi = (ranges or {}).get(name, default_range(name))
        values[name] = rng.uniform(lo, hi)
    return values


def equal_probabilistic(f: Expr, g: Expr, trials: int = 8, seed: int = 0,
                        ranges: Optional[Mapping[str, Tuple[float, float]]] = None,
                        tol: float = 1e-10, retry_cap: int = 64) -> bool:
    """Numeric equality at deterministic random bindings.

    True iff |f-g| <= tol*(1+|f|+|g|) at every sampled binding; bindings that
    hit a domain error are resampled up to retry_cap times.
    """
    if trials < 8:
        raise ValueError("trials must be at least 8")
    names = f.free_symbols() | g.free_symbols()
    rng = random.Random(seed)
    done = 0
    failures = 0
    while done < trials:
        b = sample_binding(names, rng, ranges)
        try:
            fv = evaluate(f, b)
            gv = evaluate(g, b)
        except DomainError:
            failures += 1
            if failures > retry_cap:
                raise
            continue
        if abs(fv - gv) > tol * (1 + abs(fv) + abs(gv)):
            return False
        done += 1
    return True


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
