"""Scalar nonlinearities f(s): parsing, evaluation, audits, and ratio envelopes.

The expression grammar (EBNF, also documented in the README):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?            # right-associative
    atom   := NUMBER | "s" | "e" | FUNC "(" expr ("," expr)* ")" | "(" expr ")"
    FUNC   := "log" | "exp" | "max"

`log` is the natural logarithm and `e` is Euler's constant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ExpressionError(Exception):
    """Base class for expression problems."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(ExpressionError):
    """Evaluation left the domain [0, inf) -> [0, inf)."""

    def __init__(self, message: str, s: float):
        super().__init__(f"{message} (at s = {s!r})")
        self.s = s


# --- AST -------------------------------------------------------------------

class Node:
    def eval_raw(self, s):
        """Values at s, a 1-D float array (NonlinearityExpr.eval_raw)."""
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def eval_raw(self, s):
        return np.full(np.shape(s), self.value, dtype=float)

    def to_text(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    def eval_raw(self, s):
        return s

    def to_text(self) -> str:
        return "s"


@dataclass(frozen=True)
class Euler(Node):
    def eval_raw(self, s):
        return np.full(np.shape(s), math.e, dtype=float)

    def to_text(self) -> str:
        return "e"


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def eval_raw(self, s):
        a = self.left.eval_raw(s)
        b = self.right.eval_raw(s)
        with np.errstate(all="ignore"):
            if self.op == "+":
                return a + b
            if self.op == "-":
                return a - b
            if self.op == "*":
                return a * b
            if self.op == "/":
                return np.divide(a, b)
            if self.op == "^":
                return np.power(a, b)
        raise ExpressionError(f"unknown operator {self.op!r}")

    def to_text(self) -> str:
        return f"({self.left.to_text()} {self.op} {self.right.to_text()})"


@dataclass(frozen=True)
class Neg(Node):
    child: Node

    def eval_raw(self, s):
        return -self.child.eval_raw(s)

    def to_text(self) -> str:
        return f"(-{self.child.to_text()})"


@dataclass(frozen=True)
class Call(Node):
    name: str
    args: tuple

    def eval_raw(self, s):
        vals = [a.eval_raw(s) for a in self.args]
        with np.errstate(all="ignore"):
            if self.name == "log":
                return np.log(vals[0])
            if self.name == "exp":
                return np.exp(vals[0])
            if self.name == "max":
                out = vals[0]
                for v in vals[1:]:
                    out = np.maximum(out, v)
                return out
        raise ExpressionError(f"unknown function {self.name!r}")

    def to_text(self) -> str:
        inner = ", ".join(a.to_text() for a in self.args)
        return f"{self.name}({inner})"


# --- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCS = ("log", "exp", "max")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is None and m.group().strip() == "":
            pos = m.end()
            continue
        kind = m.lastgroup
        start = m.start(kind) if kind else m.start()
        if kind == "num":
            tokens.append(("num", float(m.group(0)), start))
        elif kind == "name":
            tokens.append(("name", m.group("name"), start))
        else:
            tokens.append(("op", m.group("op"), start))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "name":
            if val == "s":
                return Var()
            if val == "e":
                return Euler()
            if val in _FUNCS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if val != "max" and len(args) != 1:
                    raise ParseError(f"{val} takes one argument", pos)
                if val == "max" and len(args) < 2:
                    raise ParseError("max takes at least two arguments", pos)
                return Call(val, tuple(args))
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


# --- public types ----------------------------------------------------------

@dataclass(frozen=True)
class NonlinearityExpr:
    """A parsed nonlinearity f: [0, inf) -> [0, inf)."""

    root: Node
    source_text: str

    def to_text(self) -> str:
        return self.root.to_text()

    def eval_raw(self, s):
        """Evaluate without domain checks, in the shape of s (0-d for a
        scalar).

        The one evaluator of the tree: s is flattened to a 1-D float array,
        so a point gives the same double alone as inside a grid. NaN marks
        a domain failure (log of a non-positive argument, fractional power
        of a negative number); +/-inf marks overflow.
        """
        s = np.asarray(s, dtype=float)
        return self.root.eval_raw(s.reshape(-1)).reshape(s.shape)

    def __call__(self, s):
        return eval_f(self, s)


@dataclass(frozen=True)
class MonotonicityAudit:
    is_nondecreasing: bool
    nonneg: bool
    first_violation: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.is_nondecreasing and self.nonneg


@dataclass(frozen=True)
class RatioEnvelope:
    """Running supremum F(s) of f(t)/t from the origin up to s."""

    grid: np.ndarray
    values: np.ndarray
    origin: str  # "1" or "0+"
    limit_at_zero: float
    expr: NonlinearityExpr = field(repr=False)

    def at(self, s: float) -> float:
        """F(s): the stored running max up to the nearest grid point below s,
        folded with the exact ratio f(s)/s."""
        idx = int(np.searchsorted(self.grid, s, side="right")) - 1
        idx = max(idx, 0)
        val = float(self.values[idx])
        if s > 0:
            fs = float(self.expr.eval_raw(s))
            if math.isfinite(fs):
                val = max(val, fs / s)
        return val


AUDIT_TOL = 1e-10
AUDIT_SAMPLES = 400
ENVELOPE_GRID_RATIO = 1.05
ZERO_ORIGIN_EPS = 1e-8


def parse_nonlinearity(text: str) -> NonlinearityExpr:
    """Parse an arithmetic expression in the variable s into an AST."""
    return NonlinearityExpr(root=_Parser(text).parse(), source_text=text)


def eval_f(expr: NonlinearityExpr, s: float) -> float:
    """Evaluate f(s) for scalar s >= 0, raising on domain failures."""
    if s < 0:
        raise DomainError("s must be non-negative", s)
    v = float(expr.eval_raw(s))
    if math.isnan(v):
        raise DomainError("evaluation is undefined", s)
    if v < 0:
        raise DomainError(f"f(s) = {v} is negative", s)
    return v


def _raw_samples(expr: NonlinearityExpr, grid: np.ndarray) -> np.ndarray:
    vals = expr.eval_raw(grid)
    if np.isnan(vals).any():
        bad = float(grid[np.flatnonzero(np.isnan(vals))[0]])
        raise DomainError("evaluation is undefined", bad)
    return vals


def monotonicity_audit(expr: NonlinearityExpr,
                       s_max: float = 1e8) -> MonotonicityAudit:
    """Sample f at 0 and on a geometric grid up to s_max (AUDIT_SAMPLES
    points in all) and check the standing hypotheses: non-negative and
    non-decreasing.

    A reported violation pair is refined by extra sampling between the
    offending grid neighbours so that the pair is as tight as the refinement
    grid allows.
    """
    if s_max <= 0:
        raise ValueError("s_max must be positive")
    grid = np.concatenate(
        [[0.0], np.geomspace(min(ZERO_ORIGIN_EPS, s_max / 10), s_max,
                             AUDIT_SAMPLES - 1)])
    vals = _raw_samples(expr, grid)

    nonneg = bool(np.all(vals >= -AUDIT_TOL))

    violation = None
    finite = np.where(np.isfinite(vals), vals, np.inf)  # overflow = very large
    tol = AUDIT_TOL * np.maximum(1.0, np.abs(finite[:-1]))
    with np.errstate(invalid="ignore"):
        bad = np.flatnonzero(finite[:-1] > finite[1:] + tol)
    if bad.size:
        i = int(bad[0])
        violation = _refine_violation(expr, grid[i], grid[i + 1])

    return MonotonicityAudit(is_nondecreasing=violation is None,
                             nonneg=nonneg,
                             first_violation=violation)


def _refine_violation(expr: NonlinearityExpr, s_lo: float, s_hi: float):
    if s_lo <= 0:
        sub = np.linspace(s_lo, s_hi, 33)
    else:
        sub = np.geomspace(s_lo, s_hi, 33)
    vals = _raw_samples(expr, sub)
    tol = AUDIT_TOL * np.maximum(1.0, np.abs(vals[:-1]))
    bad = np.flatnonzero(vals[:-1] > vals[1:] + tol)
    if bad.size:
        i = int(bad[0])
        return (float(sub[i]), float(sub[i + 1]))
    # refinement smoothed the dip away; keep the coarse pair
    return (float(s_lo), float(s_hi))


def _golden_max(fun, a: float, b: float, iters: int = 60) -> float:
    """Abscissa of the maximum of fun on [a, b] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def sup_ratio_envelope(expr: NonlinearityExpr, s_max: float,
                       origin: str = "1") -> RatioEnvelope:
    """Running supremum F(s) of f(t)/t on a geometric grid up to s_max.

    origin "1" starts the supremum at t = 1; origin "0+" starts it at an
    epsilon above zero and folds in a limit estimate of f(t)/t as t -> 0
    extrapolated from the three smallest samples.
    """
    if origin not in ("1", "0+"):
        raise ValueError("origin must be '1' or '0+'")
    if s_max <= 1:
        raise ValueError("s_max must exceed 1")
    start = 1.0 if origin == "1" else ZERO_ORIGIN_EPS
    n = int(math.ceil(math.log(s_max / start) / math.log(ENVELOPE_GRID_RATIO)))
    grid = np.geomspace(start, s_max, n + 1)
    fvals = _raw_samples(expr, grid)
    with np.errstate(all="ignore"):
        ratios = fvals / grid

    def ratio_at(t):
        try:
            return eval_f(expr, t) / t
        except DomainError:
            return -math.inf

    # refine around interior local maxima of f(t)/t
    extra_t, extra_r = [], []
    finite = np.where(np.isfinite(ratios), ratios, np.inf)
    for i in range(1, len(grid) - 1):
        if finite[i] > finite[i - 1] and finite[i] > finite[i + 1] \
                and np.isfinite(ratios[i]):
            t_star = _golden_max(ratio_at, float(grid[i - 1]),
                                 float(grid[i + 1]))
            extra_t.append(t_star)
            extra_r.append(ratio_at(t_star))

    if extra_t:
        grid = np.concatenate([grid, extra_t])
        ratios = np.concatenate([ratios, extra_r])
        order = np.argsort(grid)
        grid, ratios = grid[order], ratios[order]

    limit0 = math.nan
    values = ratios.copy()
    if origin == "0+":
        limit0 = _zero_limit_estimate(grid, ratios)
        values[0] = max(values[0], limit0)
    values = np.maximum.accumulate(values)

    return RatioEnvelope(grid=grid, values=values, origin=origin,
                         limit_at_zero=limit0, expr=expr)


def _zero_limit_estimate(grid: np.ndarray, ratios: np.ndarray) -> float:
    """Estimate lim_{t->0} f(t)/t from the three smallest samples."""
    r = ratios[:3]
    t = grid[:3]
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        return float(np.max(np.where(np.isfinite(r), r, np.inf)))
    slope = np.polyfit(np.log(t), np.log(r), 1)[0]
    if slope < -1e-3:
        return math.inf  # ratio diverges as t -> 0
    return float(r[0])


# --- built-in families -----------------------------------------------------

def log_family_lambda() -> float:
    """Largest positive root of exp(x) = e^2 * x (monotonicity threshold).

    Newton's iteration from x = 4: above the root the function is convex and
    increasing, so the iterates decrease onto it; the loop stops when
    rounding stops them decreasing.
    """
    e2 = math.e ** 2
    x, prev = 4.0, math.inf
    while x < prev:
        prev, x = x, x - (math.exp(x) - e2 * x) / (math.exp(x) - e2)
    return prev


def log_family_beta_max(d: int) -> float:
    """Largest beta keeping s^(1+2/d)/log(e+s)^beta non-decreasing."""
    return log_family_lambda() * (1.0 + 2.0 / d)


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
