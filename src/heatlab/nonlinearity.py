"""Scalar nonlinearities f(s): parsing, evaluation, leading terms, audits
and ratio envelopes.

The expression grammar (EBNF, also documented in the README):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?            # right-associative
    atom   := NUMBER | "s" | "e" | FUNC "(" expr ("," expr)* ")" | "(" expr ")"
    FUNC   := "log" | "exp" | "max"

`log` is the natural logarithm and `e` is Euler's constant. An expression
nested deeper than MAX_DEPTH levels, or whose tree is deeper, is refused.

A parsed expression is a tree of tuples `(op, *children)`: the leaves are
`("num", value)` and `("s",)`, and each subtree without s folds to one leaf
when the tree is built. One walk evaluates it with either of two op tables:
numpy's ufuncs on arrays (eval_raw, for the solver's fields and the ratio
envelope) or math-based functions on Python floats (eval_floats, for every
read at points and for the folded constants), which follow numpy's
conventions. + - * / round alike in both; libm's pow, exp and log may differ
from numpy's in the last bit.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Optional

from . import _lazy

np = _lazy("numpy")


class ExpressionError(ValueError):
    """Base class for expression problems."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(ExpressionError):
    """Evaluation left the domain [0, inf) -> [0, inf)."""

    def __init__(self, message: str, s: float):
        super().__init__(f"{message} (at s = {s!r})")


class AuditError(ExpressionError):
    """f is negative, decreasing or undefined where it is sampled.

    .violation is the pair (s_lo, s_hi) with f(s_lo) > f(s_hi), or None."""

    def __init__(self, message: str, violation: Optional[tuple] = None):
        super().__init__(f"audit failed: {message}")
        self.violation = violation


# --- expression tree ---------------------------------------------------------

_FUNCS = ("log", "exp", "max")

# Deepest nesting (parentheses, unary minus, exponents) and deepest tree the
# parser accepts: the parser spends up to five frames per nesting level and
# _fold or _eval one per tree level, well inside the default recursion limit.
MAX_DEPTH = 100


def _eval(node, s, ops):
    """Values of the tree at the points s, node by node over all points: a
    1-D float array with _ufuncs() (the caller sets errstate), or a list of
    floats with _FLOAT_OPS. "max" folds its arguments left to right."""
    op = node[0]
    if op == "s":
        return s
    if op == "num":
        return ops["num"](node[1], s)
    fn = ops[op]
    out = _eval(node[1], s, ops)
    if len(node) == 2:
        return fn(out)
    for child in node[2:]:
        out = fn(out, _eval(child, s, ops))
    return out


@functools.cache
def _ufuncs() -> dict:
    """The array table, built on the first array evaluation."""
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
            "^": np.power, "neg": np.negative, "log": np.log, "exp": np.exp,
            "max": np.maximum,
            "num": lambda v, s: np.full(s.shape, v, dtype=float)}


# The float table: numpy's conventions on Python floats, and nothing raises.
# NaN marks a domain failure, +/-inf overflow, x/0 and 0^-p.

def _fdiv(x: float, y: float) -> float:
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0 or x != x:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _fpow(x: float, p: float) -> float:
    try:
        return math.pow(x, p)
    except (OverflowError, ValueError):
        if x < 0 and not p.is_integer():
            return math.nan
        # an overflow, or 0^-p: negative only for a negative base (or -0)
        # and an odd integer p
        return math.copysign(math.inf, x) if p % 2.0 == 1.0 else math.inf


def _flog(x: float) -> float:
    if x > 0:
        return math.log(x)
    return -math.inf if x == 0 else math.nan


def _fexp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _fmax(x: float, y: float) -> float:
    return x if x > y or x != x else y  # NaN propagates; as numpy on +/-0


# each op maps its function over columns of floats
_FLOAT_OPS = {
    op: lambda *columns, fn=fn: list(map(fn, *columns))
    for op, fn in {"+": operator.add, "-": operator.sub, "*": operator.mul,
                   "/": _fdiv, "^": _fpow, "neg": operator.neg,
                   "log": _flog, "exp": _fexp, "max": _fmax}.items()}
_FLOAT_OPS["num"] = lambda v, s: [v] * len(s)


def _fold(node):
    """The tree with each subtree whose children are all literals replaced,
    bottom up, by one ("num", value), the value taken on the float table."""
    if node[0] in ("s", "num"):
        return node
    node = (node[0], *map(_fold, node[1:]))
    if all(child[0] == "num" for child in node[1:]):
        return ("num", _eval(node, [0.0], _FLOAT_OPS)[0])
    return node


def _tree_depth(node) -> int:
    """Depth of the tree, walked level by level without recursion."""
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [c for n in level for c in n[1:] if isinstance(c, tuple)]
    return depth


# --- leading terms -----------------------------------------------------------
#
# A term (C, a, b, c) is C t^a (log t)^b (log log t)^c as t -> inf, where t
# is s at infinity and 1/s at 0+. Every f of the grammar is an exp-log
# function, so it has one (Hardy, Orders of Infinity, 1910), and the rules
# below read it off the tree. a = +inf (-inf) is beyond (below) every power,
# with C the sign. Two flags stand in for a term: ZERO, f identically zero,
# and UNKNOWN, where the rules cannot tell (an exact cancellation, a log of a
# term tending to 1, an exp of a term of order log t).

ZERO, UNKNOWN = "zero", "unknown"
_ONE, _MINUS_ONE = (1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)


def _term(C, a, b, c):
    """The term, normalised: beyond every power keeps the sign of C alone;
    C = 0 (a cancellation or an underflow) or a NaN is UNKNOWN."""
    if C == 0 or any(map(math.isnan, (C, a, b, c))):
        return UNKNOWN
    if math.isinf(a):
        return (math.copysign(1.0, C), a, 0.0, 0.0)
    return (C, a, b, c)


def _order(x):
    """Sort key of eventual size: negative terms, then ZERO, then positive
    terms, each side by magnitude."""
    if x == ZERO:
        return (0,)
    sign = 1 if x[0] > 0 else -1
    return (sign, *(sign * v for v in (*x[1:], abs(x[0]))))


def _add(x, y):
    if ZERO in (x, y):
        return y if x == ZERO else x
    if UNKNOWN in (x, y):
        return UNKNOWN
    if x[1:] != y[1:]:
        return max(x, y, key=lambda v: v[1:])
    return _term(x[0] + y[0], *x[1:])


def _mul(x, y):
    if ZERO in (x, y):
        return ZERO
    if UNKNOWN in (x, y):
        return UNKNOWN
    return _term(x[0] * y[0], *(u + v for u, v in zip(x[1:], y[1:])))


def _power(x, p):
    """x^p for a constant p, as the evaluator: x^0 = 1, and a negative base
    with a non-integer p is NaN."""
    if p == 0:
        return _ONE
    if x == ZERO:
        return ZERO if p > 0 else UNKNOWN
    if x == UNKNOWN or not math.isfinite(p) or (x[0] < 0
                                                and not p.is_integer()):
        return UNKNOWN
    return _term(_fpow(x[0], p), p * x[1], p * x[2], p * x[3])


def _log(x):
    if x in (ZERO, UNKNOWN) or x[0] < 0 or math.isinf(x[1]):
        return UNKNOWN
    C, a, b, c = x
    if a != 0:
        return _term(a, 0.0, 1.0, 0.0)
    if b != 0:
        return _term(b, 0.0, 0.0, 1.0)
    if c != 0 or C == 1:
        return UNKNOWN
    return _term(_flog(C), 0.0, 0.0, 0.0)


def _exp(x):
    if x == ZERO:
        return _ONE
    if x == UNKNOWN:
        return UNKNOWN
    C, a, b, c = x
    if (a, b, c) < (0, 0, 0):
        return _ONE
    if (a, b, c) == (0, 0, 0):
        return _term(_fexp(C), 0.0, 0.0, 0.0)
    if a > 0 or (a == 0 and b > 1):
        return _term(1.0, math.copysign(math.inf, C), 0.0, 0.0)
    return UNKNOWN


_RULES = {"+": _add, "-": lambda x, y: _add(x, _mul(_MINUS_ONE, y)),
          "*": _mul, "/": lambda x, y: _mul(x, _power(y, -1.0)),
          "^": lambda x, y: _exp(_mul(y, _log(x))),  # exp(y log x)
          "neg": lambda x: _mul(_MINUS_ONE, x), "log": _log, "exp": _exp,
          "max": lambda *xs: UNKNOWN if UNKNOWN in xs else max(xs, key=_order)}


def _leading(node, x):
    """The leading term of the folded tree, where s has the term x."""
    if node[0] == "s":
        return x
    if node[0] == "num":
        return ZERO if node[1] == 0 else _term(node[1], 0.0, 0.0, 0.0)
    if node[0] == "^" and node[2][0] == "num":
        return _power(_leading(node[1], x), node[2][1])
    return _RULES[node[0]](*(_leading(child, x) for child in node[1:]))


# --- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = float(m.group(0)) if kind == "num" else m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def accept(self, ops: str):
        """Consume the next token and return it if it is one of ops."""
        kind, val, _ = self.tokens[self.i]
        if kind == "op" and val in ops:
            self.i += 1
            return val
        return None

    def expect_op(self, op: str):
        if not self.accept(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def parse(self) -> tuple:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        if _tree_depth(node) > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels",
                             0)
        return node

    def expr(self) -> tuple:
        node = self.term()
        while op := self.accept("+-"):
            node = (op, node, self.term())
        return node

    def term(self) -> tuple:
        node = self.unary()
        while op := self.accept("*/"):
            node = (op, node, self.unary())
        return node

    def unary(self) -> tuple:
        # every recursion of the parser passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} "
                             "levels", self.peek()[2])
        node = ("neg", self.unary()) if self.accept("-") else self.power()
        self.depth -= 1
        return node

    def power(self) -> tuple:
        base = self.atom()
        if self.accept("^"):
            return ("^", base, self.unary())
        return base

    def atom(self) -> tuple:
        kind, val, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val == "s":
                return ("s",)
            if val == "e":
                return ("num", math.e)
            if val in _FUNCS:
                self.expect_op("(")
                args = [self.expr()]
                while self.accept(","):
                    args.append(self.expr())
                self.expect_op(")")
                if val != "max" and len(args) != 1:
                    raise ParseError(f"{val} takes one argument", pos)
                if val == "max" and len(args) < 2:
                    raise ParseError("max takes at least two arguments", pos)
                return (val, *args)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


# --- public types ----------------------------------------------------------

class NonlinearityExpr:
    """A parsed nonlinearity f: [0, inf) -> [0, inf), its tree folded."""

    def __init__(self, root: tuple, source_text: str):
        self.root = _fold(root)
        self.source_text = source_text

    def eval_raw(self, s):
        """Evaluate without domain checks, in the shape of s (0-d for a
        scalar).

        The array evaluator of the tree (eval_floats is the other, on
        Python floats): s is flattened to a 1-D float array, so a point
        gives the same double alone as inside a grid. NaN marks a domain
        failure (log of a non-positive argument, fractional power of a
        negative number); +/-inf marks overflow.
        """
        s = np.asarray(s, dtype=float)
        with np.errstate(all="ignore"):
            return _eval(self.root, s.reshape(-1), _ufuncs()).reshape(s.shape)

    def eval_floats(self, points) -> list:
        """f at each of points, as a list of Python floats: the same walk
        on the float table, with eval_raw's NaN and +/-inf and nothing
        raised. Every read of f at points goes through it."""
        return _eval(self.root, list(map(float, points)), _FLOAT_OPS)


class RatioEnvelope:
    """An upper step function of the paper's F(s) = sup over 1 <= t <= s of
    f(t)/t: values[i] bounds F on the cell [grid[i], grid[i + 1]] of a
    geometric grid of [1, ENVELOPE_S_MAX]."""

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        self.grid = grid
        self.values = values


AUDIT_TOL = 1e-10
AUDIT_SAMPLES = 560   # s = 0 and ~25 points a decade of [1e-8, 2^48]
ENVELOPE_GRID_RATIO = 1.01
ENVELOPE_S_MAX = float(2 ** 48)
ZERO_ORIGIN_EPS = 1e-8


def parse_nonlinearity(text: str) -> NonlinearityExpr:
    """Parse an arithmetic expression in the variable s into an AST."""
    return NonlinearityExpr(root=_Parser(text).parse(), source_text=text)


def leading_term(expr: NonlinearityExpr, at: float):
    """The leading term (C, a, b, c) of f, C t^a (log t)^b (log log t)^c,
    as s -> inf (at = inf, t = s) or as s -> 0+ (at = 0, t = 1/s); or the
    flag ZERO or UNKNOWN. a = +/-inf is beyond or below every power. The
    constants are eval_floats's doubles, overflow is inf, and nothing
    raises."""
    s = {math.inf: (1.0, 1.0, 0.0, 0.0), 0.0: (1.0, -1.0, 0.0, 0.0)}[at]
    return _leading(expr.root, s)


def eval_f(expr: NonlinearityExpr, s: float) -> float:
    """Evaluate f(s) for scalar s >= 0, raising on domain failures."""
    if s < 0:
        raise DomainError("s must be non-negative", s)
    v = expr.eval_floats([s])[0]
    if math.isnan(v):
        raise DomainError("evaluation is undefined", s)
    if v < 0:
        raise DomainError(f"f(s) = {v} is negative", s)
    return v


def _undefined(expr: NonlinearityExpr, s: float) -> AuditError:
    return AuditError(f"f = {expr.source_text!r} is undefined (at s = {s!r})")


def _geomspace(lo: float, hi: float, n: int) -> list:
    """np.geomspace(lo, hi, n) for 0 < lo < hi and n >= 2, in Python
    floats: 10 to the n evenly spaced powers from log10 lo to log10 hi, with
    both ends exact."""
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)
    return [lo, *(10.0 ** (k * step + a) for k in range(1, n - 1)), hi]


def _linspace(lo: float, hi: float, n: int) -> list:
    """np.linspace(lo, hi, n) for n >= 2, in Python floats."""
    step = (hi - lo) / (n - 1)
    return [k * step + lo for k in range(n - 1)] + [hi]


def _defined_values(expr: NonlinearityExpr, grid) -> list:
    """f on grid; AuditError at the first s where f is undefined (NaN)."""
    vals = expr.eval_floats(grid)
    if any(map(math.isnan, vals)):
        raise _undefined(expr, grid[list(map(math.isnan, vals)).index(True)])
    return vals


def _first_decrease(grid, vals: list) -> Optional[tuple]:
    """The first neighbours (s_lo, s_hi) of grid where the values drop by
    more than AUDIT_TOL (relative), or None; +/-inf counts as very large."""
    finite = [v if math.isfinite(v) else math.inf for v in vals]
    for s_lo, s_hi, a, b in zip(grid, grid[1:], finite, finite[1:]):
        if a > b + AUDIT_TOL * max(1.0, abs(a)):
            return s_lo, s_hi
    return None


@functools.cache
def _audit_grid(eps: float, s_max: float, n: int) -> tuple:
    """s = 0 and n - 1 geometric points of [eps, s_max]."""
    return (0.0, *_geomspace(eps, s_max, n - 1))


def monotonicity_audit(expr: NonlinearityExpr):
    """f's leading term at infinity (leading_term(f, inf)), or AuditError
    unless f is non-negative and non-decreasing on s = 0 and a geometric
    grid of [ZERO_ORIGIN_EPS, ENVELOPE_S_MAX] (AUDIT_SAMPLES points in all):
    the standing hypotheses, on the widest range that any classifier or the
    existence horizon reads. Beyond the grid, the leading term at infinity
    must not be negative, tend to 0, or be ZERO while f(ENVELOPE_S_MAX) > 0:
    a non-decreasing f >= 0 does none of these.

    A decrease is refined by 33 samples between the offending grid
    neighbours, so that the reported pair is as tight as that grid allows.
    f is read on Python floats.
    """
    grid = _audit_grid(ZERO_ORIGIN_EPS, ENVELOPE_S_MAX, AUDIT_SAMPLES)
    vals = _defined_values(expr, grid)
    nonneg = all(v >= -AUDIT_TOL for v in vals)
    violation = _first_decrease(grid, vals)
    if violation:
        lo, hi = violation
        sub = _linspace(lo, hi, 33) if lo <= 0 else _geomspace(lo, hi, 33)
        # the refinement may smooth the dip away; then keep the coarse pair
        violation = (_first_decrease(sub, _defined_values(expr, sub))
                     or violation)
    if violation or not nonneg:
        raise AuditError(f"f = {expr.source_text!r} failed the audit "
                         f"(nonneg={nonneg}, violation={violation})",
                         violation)
    term = leading_term(expr, math.inf)
    if term == ZERO and vals[-1] > 0 or term not in (ZERO, UNKNOWN) and (
            term[0] < 0 or term[1:] < (0, 0, 0)):
        raise AuditError(f"f = {expr.source_text!r} failed the audit: it "
                         f"decreases beyond s = {ENVELOPE_S_MAX:g}, where its "
                         f"leading term is {term}")
    return term


def sup_ratio_envelope(expr: NonlinearityExpr) -> RatioEnvelope:
    """An upper bound of F(s) = sup over 1 <= t <= s of f(t)/t on each cell
    of a geometric grid of ratio ENVELOPE_GRID_RATIO up to ENVELOPE_S_MAX.

    f is non-decreasing, so f(t)/t <= f(g[i+1])/g[i] on the cell [g[i],
    g[i+1]], and the running maximum of these bounds F there with no search.
    A negative f (down to -AUDIT_TOL) counts as 0. Rounding in f itself is
    left to outward-rounded enclosures of f.
    """
    n = int(math.ceil(math.log(ENVELOPE_S_MAX) / math.log(ENVELOPE_GRID_RATIO)))
    grid = np.geomspace(1.0, ENVELOPE_S_MAX, n + 1)
    fvals = expr.eval_raw(grid)
    if np.isnan(fvals).any():
        bad = np.flatnonzero(np.isnan(fvals))[0]
        raise _undefined(expr, float(grid[bad]))
    ratios = np.maximum(fvals[1:], 0.0) / grid[:-1]
    return RatioEnvelope(grid=grid, values=np.maximum.accumulate(ratios))


# --- built-in families -----------------------------------------------------

def builtin_family(name: str, params: dict) -> NonlinearityExpr:
    """Construct a named nonlinearity family member.

    power:           params {p};          f(s) = s^p
    log_family:      params {d, beta};    f(s) = s^(1+2/d)/log(e+s)^beta
    piecewise_power: params {p_low, p_high}; f(s) = max(s^p_low, s^p_high)
    """
    if name == "power":
        p = float(params["p"])
        return parse_nonlinearity(f"s^{p!r}")
    if name == "log_family":
        d = params["d"]
        beta = float(params["beta"])
        if d < 1:
            raise ValueError("dimension d must be at least 1")
        if beta < 0:
            raise ValueError("beta must be non-negative")
        p = 1.0 + 2.0 / d
        return parse_nonlinearity(f"s^{p!r} / log(e + s)^{beta!r}")
    if name == "piecewise_power":
        p_low = float(params["p_low"])
        p_high = float(params["p_high"])
        return parse_nonlinearity(f"max(s^{p_low!r}, s^{p_high!r})")
    raise ValueError(f"unknown family {name!r}")
