"""Parser, audit and envelope tests for the nonlinearity module."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab.nonlinearity import (
    _FLOAT_OPS,
    _RULES,
    ENVELOPE_GRID_RATIO,
    MAX_DEPTH,
    ZERO,
    AuditError,
    DomainError,
    NonlinearityExpr,
    ParseError,
    builtin_family,
    eval_f,
    leading_term,
    monotonicity_audit,
    parse_nonlinearity,
    sup_ratio_envelope,
    _eval,
    _power,
    _term,
)


# --- parsing / evaluation ----------------------------------------------------

def test_power_eval():
    f = parse_nonlinearity("s^3")
    assert eval_f(f, 2.0) == pytest.approx(8.0, rel=1e-15)


def test_log_quotient_against_mpmath():
    # f(s) = s^2 / log(e + s)^0.5 at s = e^2 - e, cross-checked at 50 digits
    f = parse_nonlinearity("s^2/log(e+s)^0.5")
    s = math.e ** 2 - math.e
    mpmath.mp.dps = 50
    ms = mpmath.e ** 2 - mpmath.e
    expected = float(ms ** 2 / mpmath.log(mpmath.e + ms) ** mpmath.mpf("0.5"))
    assert eval_f(f, s) == pytest.approx(expected, rel=1e-14)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_nonlinearity("s^^2")
    assert exc.value.position == 2


@pytest.mark.parametrize("bad", ["", "s +", "log()", "2 ** s", "(s", "s)2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_nonlinearity(bad)


def test_negative_argument_rejected():
    f = parse_nonlinearity("s^2")
    with pytest.raises(DomainError):
        eval_f(f, -1.0)


def test_negative_value_rejected():
    f = parse_nonlinearity("1 - s")
    with pytest.raises(DomainError):
        eval_f(f, 2.0)


def test_precedence_and_associativity():
    # power binds tighter than unary minus in the exponent; right-assoc
    f = parse_nonlinearity("2^3^2 - 500")  # 2^(3^2) = 512
    assert eval_f(f, 0.0) == pytest.approx(12.0)
    g = parse_nonlinearity("2*s + s^2*3")
    assert eval_f(g, 2.0) == pytest.approx(4.0 + 12.0)


# every production of the grammar: numbers, s, e (parsed to its double),
# the binary operators, unary minus, log, exp and max of 2-3 arguments
_TREES = st.recursive(
    st.one_of(st.floats(min_value=0.0, max_value=1e300).map(
        lambda v: ("num", v)), st.just(("s",)), st.just(("num", math.e))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.sampled_from(("neg", "log", "exp")), sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: ("max", *a))),
    max_leaves=12)


def _text(node) -> str:
    """The tree printed in the grammar, fully parenthesised."""
    op = node[0]
    if op == "s":
        return "s"
    if op == "num":
        return repr(node[1])
    args = [_text(child) for child in node[1:]]
    if op == "neg":
        return f"(-{args[0]})"
    if op in ("log", "exp", "max"):
        return f"{op}({', '.join(args)})"
    return f"({args[0]} {op} {args[1]})"


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_roundtrip_through_text(tree):
    # the parsed text folds to the drawn tree, folded (repr tells NaN and
    # the zeros apart)
    f = NonlinearityExpr(root=tree, source_text="drawn")
    g = parse_nonlinearity(_text(tree))
    assert repr(g.root) == repr(f.root)
    grid = np.array([0.0, 1e-300, 0.5, 1.0, math.e, 7.0, 1e8, 1e300])
    assert np.array_equal(g.eval_raw(grid), f.eval_raw(grid), equal_nan=True)


def _constant(node) -> bool:
    return node[0] == "num" or (node[0] != "s"
                                and all(map(_constant, node[1:])))


def _value(node) -> float:
    """A constant subtree's double on the float table, walked unfolded."""
    return _eval(node, [0.0], _FLOAT_OPS)[0]


def _unfolded_leading(node, x):
    """leading_term's rules on the unfolded tree: each constant subtree, and
    each constant exponent, evaluated where the walk meets it."""
    if node[0] == "s":
        return x
    if _constant(node):
        v = _value(node)
        return ZERO if v == 0 else _term(v, 0.0, 0.0, 0.0)
    if node[0] == "^" and _constant(node[2]):
        return _power(_unfolded_leading(node[1], x), _value(node[2]))
    return _RULES[node[0]](*(_unfolded_leading(c, x) for c in node[1:]))


def _assert_folded(drawn, folded):
    """Each constant subtree of drawn is one literal of folded, its value
    the subtree's double; every other node keeps its op."""
    if _constant(drawn):
        assert folded[0] == "num"
        assert _same_doubles([folded[1]], [_value(drawn)])
        return
    assert folded[0] == drawn[0] and len(folded) == len(drawn)
    for a, b in zip(drawn[1:], folded[1:]):
        _assert_folded(a, b)


# constant subtrees: literals and e under every op of the grammar
_CONSTANT_TREES = st.recursive(
    st.one_of(st.floats(min_value=0.0, max_value=1e300).map(
        lambda v: ("num", v)), st.sampled_from(
        [("num", math.e), ("num", 0.0), ("num", 0.5), ("num", 2.0)])),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.sampled_from(("neg", "log", "exp")), sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: ("max", *a))),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    st.one_of(_CONSTANT_TREES, st.just(("s",))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.sampled_from(("neg", "log", "exp")), sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: ("max", *a))),
    max_leaves=8))
def test_constants_fold_when_the_tree_is_built(tree):
    f = NonlinearityExpr(root=tree, source_text="drawn")
    _assert_folded(tree, f.root)
    for at, x in ((math.inf, (1.0, 1.0, 0.0, 0.0)),
                  (0.0, (1.0, -1.0, 0.0, 0.0))):
        assert leading_term(f, at) == _unfolded_leading(tree, x)


def test_depth_limit():
    # at the limit an expression parses and evaluates; one level deeper, in
    # parentheses, in a left-associative chain or in unary minus, is refused
    # before the parser or the evaluator can exhaust the stack
    def nested(k):
        return ("(" * k + "s" + ")" * k, "s" + "+0" * k, "-" * k + "s")

    grid = np.array([0.0, 1.5, 1e300])
    for text in nested(MAX_DEPTH - 1):
        vals = parse_nonlinearity(text).eval_raw(grid)
        assert np.array_equal(np.abs(vals), grid), text
    for text in nested(MAX_DEPTH):
        with pytest.raises(ParseError):
            parse_nonlinearity(text)


def test_vector_eval_matches_scalar():
    # each op table gives a point the same double alone as among others:
    # numpy's (eval_raw) in a 0-d array and in a grid of any shape, and the
    # float table (eval_floats) through eval_f and in a list
    grid = np.geomspace(1e-6, 1e9, 5001)
    for f in (builtin_family("log_family", {"d": 2, "beta": 6.0}),
              parse_nonlinearity("s^1.5/log(e+s)"),
              parse_nonlinearity("s^2.7+s^1.3"),
              parse_nonlinearity("max(s^0.97, s^2.41)*exp(s/(1+s))")):
        vec = f.eval_raw(grid)
        assert [float(f.eval_raw(s)) for s in grid] == vec.tolist(), \
            f.source_text
        assert np.array_equal(f.eval_raw(grid[:5000].reshape(50, 100)),
                              vec[:5000].reshape(50, 100))
        assert [eval_f(f, float(s)) for s in grid] == \
            f.eval_floats(grid.tolist()), f.source_text


def _same_doubles(a, b) -> bool:
    """Equal values, NaN at the same places and zeros of the same sign."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a) | np.isnan(a),
                                   np.signbit(b) | np.isnan(b)))


_SPECIAL = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 2.5,
            710.0, -745.5, 1e-320, 1e-308, 1e300, -1e300, 1e308, -1e308,
            math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "^", "max", "neg",
                                "log", "exp"])
def test_float_table_follows_numpy_conventions(op):
    # on every special value, or pair of them (the second a constant leaf),
    # the float table raises nothing and agrees with numpy's ufunc: + - * /
    # max and neg bit for bit; pow, exp and log are libm's, so those agree
    # on every NaN, inf and zero and within one ulp elsewhere
    unary = op in ("neg", "log", "exp")
    ours, want = [], []
    for x in _SPECIAL:
        for y in [None] if unary else _SPECIAL:
            node = (op, ("s",)) if unary else (op, ("s",), ("num", y))
            f = NonlinearityExpr(root=node, source_text=op)
            ours += f.eval_floats([x])
            want += f.eval_raw(np.array([x])).tolist()
    if op in ("^", "log", "exp"):
        ours, want = np.array(ours), np.array(want)
        special = ~np.isfinite(want) | (want == 0)
        assert _same_doubles(ours[special], want[special])
        assert np.allclose(ours[~special], want[~special], rtol=2.3e-16,
                           atol=0.0)
    else:
        assert _same_doubles(ours, want)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    st.one_of(st.floats(min_value=0.0, max_value=1e300).map(
        lambda v: ("num", v)), st.just(("s",))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: ("max", *a))),
    max_leaves=12))
def test_arithmetic_rounds_alike_in_both_tables(tree):
    # + - * /, neg and max: the float table gives numpy's doubles exactly
    f = NonlinearityExpr(root=tree, source_text="drawn")
    grid = [0.0, 1e-300, 0.5, 1.0, math.e, 7.0, 1e8, 1e300]
    assert _same_doubles(f.eval_floats(grid), f.eval_raw(np.array(grid)))


# --- monotonicity audit ------------------------------------------------------

def test_audit_accepts_monotone_family():
    # exp(s/100) overflows to +inf, which the audit reads as very large; an
    # f that passes gives back its leading term at infinity, the one the
    # classifiers decide from
    for text in ["s^2", "s*log(e+s)", "exp(s/100)-1"]:
        f = parse_nonlinearity(text)
        assert monotonicity_audit(f) == leading_term(f, math.inf), text


def test_audit_rejects_decreasing():
    f = parse_nonlinearity("1/(1+s)")
    with pytest.raises(AuditError, match="failed the audit") as exc:
        monotonicity_audit(f)
    s_lo, s_hi = exc.value.violation
    assert eval_f(f, s_lo) > eval_f(f, s_hi) and s_lo < s_hi


def test_audit_rejects_sign_change():
    with pytest.raises(AuditError, match="nonneg=False") as exc:
        monotonicity_audit(parse_nonlinearity("1 - s"))
    assert exc.value.violation is not None
    # negative but non-decreasing: no pair to report
    with pytest.raises(AuditError, match="nonneg=False") as exc:
        monotonicity_audit(parse_nonlinearity("s - 2"))
    assert exc.value.violation is None


@pytest.mark.parametrize("text", [
    "(s - 1)^0.5", "s^2 + (exp(s/1e7) - exp(s/1e7))"])
def test_audit_refuses_an_undefined_value(text):
    # NaN below 1 and from s = 7.1e9 on, both inside the audit's [0, 2^48]
    with pytest.raises(AuditError, match="is undefined") as exc:
        monotonicity_audit(parse_nonlinearity(text))
    assert exc.value.violation is None


def _log_family_lambda() -> float:
    """Largest positive root of exp(x) = e^2 x, the log family's monotonicity
    threshold, by Newton's iteration from x = 4: above the root the function
    is convex and increasing, so the iterates decrease onto it; the loop
    stops when rounding stops them decreasing."""
    e2 = math.e ** 2
    x, prev = 4.0, math.inf
    while x < prev:
        prev, x = x, x - (math.exp(x) - e2 * x) / (math.exp(x) - e2)
    return prev


def test_log_family_audit_threshold():
    # the family s^(1+2/d)/log(e+s)^beta stays monotone iff beta <= beta_max
    # = lambda (1 + 2/d)
    d = 2
    beta_max = _log_family_lambda() * (1.0 + 2.0 / d)
    ok = builtin_family("log_family", {"d": d, "beta": beta_max - 0.05})
    bad = builtin_family("log_family", {"d": d, "beta": 10.0})
    monotonicity_audit(ok)
    with pytest.raises(AuditError) as exc:
        monotonicity_audit(bad)
    s_lo, s_hi = exc.value.violation
    assert eval_f(bad, s_lo) > eval_f(bad, s_hi)


def test_log_family_lambda_root():
    lam = _log_family_lambda()
    assert math.exp(lam) == pytest.approx(math.e ** 2 * lam, rel=1e-12)
    assert lam > 1.0  # the larger of the two roots
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda x: mpmath.exp(x) - mpmath.e ** 2 * x,
                               3.1)
    assert lam == float(root)  # 3.14619322062058258...


# --- leading terms -----------------------------------------------------------

INF = math.inf


@pytest.mark.parametrize("text, at, term", [
    ("s", INF, (1.0, 1.0, 0.0, 0.0)),
    ("s", 0.0, (1.0, -1.0, 0.0, 0.0)),          # t = 1/s at 0+
    ("0*s", INF, "zero"),
    ("3*s^2/log(e+s)", INF, (3.0, 2.0, -1.0, 0.0)),
    ("s^2 + 5*s^2", INF, (6.0, 2.0, 0.0, 0.0)),  # equal exponents add
    ("(s^3+s)-s^3", INF, "unknown"),            # an exact cancellation
    ("(s^3+s)-s^3", 0.0, (1.0, -1.0, 0.0, 0.0)),
    ("max(s, 2*s, s^0.5)", INF, (2.0, 1.0, 0.0, 0.0)),
    ("max(s, 2*s, s^0.5)", 0.0, (1.0, -0.5, 0.0, 0.0)),
    ("max(0 - s, 0)", INF, "zero"),
    ("(0-s)^3", INF, (-1.0, 3.0, 0.0, 0.0)),
    ("(0-s)^0.5", INF, "unknown"),              # NaN in numpy
    ("log(log(e+s))", INF, (1.0, 0.0, 0.0, 1.0)),
    ("log(2+1/s)", INF, (math.log(2.0), 0.0, 0.0, 0.0)),
    ("log(1+1/s)", INF, "unknown"),             # log of a term tending to 1
    ("exp(s)", INF, (1.0, INF, 0.0, 0.0)),      # beyond every power
    ("exp(-s)*s^9", INF, (1.0, -INF, 0.0, 0.0)),
    ("exp(log(1+s)^2)", INF, (1.0, INF, 0.0, 0.0)),
    ("exp(log(s))", INF, "unknown"),            # exp of order log s
    ("exp(2+1/s)", INF, (math.exp(2.0), 0.0, 0.0, 0.0)),
    ("s^s", INF, (1.0, INF, 0.0, 0.0)),         # exp(s log s)
    ("1e300*s*1e300", INF, (INF, 1.0, 0.0, 0.0)),
    ("exp(1e3)*s", INF, (INF, 1.0, 0.0, 0.0)),  # overflow is inf
    ("s/(0*s)", INF, "unknown"),
])
def test_leading_term_rules(text, at, term):
    # no OverflowError and no numpy warning (RuntimeWarnings raise here)
    assert leading_term(parse_nonlinearity(text), at) == term


# --- sup-ratio envelope ------------------------------------------------------

def test_envelope_monotone_ratio_is_identity():
    # for f = s^2 the ratio f(t)/t = t is increasing, so F(s) = s, and the
    # bound on each cell is the identity at its right end times the ratio
    f = parse_nonlinearity("s^2")
    env = sup_ratio_envelope(f)
    g = env.grid
    assert len(env.values) == len(g) - 1
    assert np.array_equal(env.values, f.eval_raw(g[1:]) / g[:-1])
    ratio = g[1] / g[0]
    assert ratio <= ENVELOPE_GRID_RATIO
    assert np.allclose(env.values / g[1:], ratio, rtol=1e-12)


def dense_cell_max(f, grid, n=33):
    """max of f(t)/t on each cell [grid[i], grid[i+1]] over n geometric
    points that include both ends."""
    t = grid[:-1, None] * (grid[1:] / grid[:-1])[:, None] ** np.linspace(
        0.0, 1.0, n)
    return np.max(f.eval_raw(t) / t, axis=1)


def assert_bounds_F(f, s_max):
    """values[i] bounds f(t)/t on its cell and on every cell before it, and
    exceeds the dense F at the cell's right end by at most the ratio."""
    env = sup_ratio_envelope(f)
    cells = int(np.searchsorted(env.grid, s_max))
    dense = dense_cell_max(f, env.grid[:cells + 1])
    running = np.maximum.accumulate(dense)
    values = env.values[:cells]
    assert np.all(values >= running)
    assert np.all(values <= running * ENVELOPE_GRID_RATIO * (1 + 1e-12))


def test_envelope_matches_dense_bruteforce():
    assert_bounds_F(parse_nonlinearity("s^2/log(e+s)"), 1e6)


def test_envelope_bounds_interior_hump():
    # f(t)/t for the heavily damped family has a local maximum well inside
    # the grid: the bound holds across it with no search
    assert_bounds_F(builtin_family("log_family", {"d": 2, "beta": 8.0}), 1e8)


def test_envelope_nondecreasing_and_dominates():
    f = parse_nonlinearity("s^1.2/log(e+s)^3")
    env = sup_ratio_envelope(f)
    assert np.all(np.diff(env.values) >= 0.0)
    g = env.grid
    assert np.all(env.values >= f.eval_raw(g[1:]) / g[1:])
    assert np.all(env.values >= f.eval_raw(g[:-1]) / g[:-1])


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.3, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_envelope_property_dominates_samples(a, b):
    assert_bounds_F(parse_nonlinearity(f"s^{a} * log(e+s)^{b}"), 1e6)


# --- builtin families --------------------------------------------------------

def test_piecewise_power_family():
    f = builtin_family("piecewise_power", {"p_low": 1.2, "p_high": 3.0})
    assert eval_f(f, 0.5) == pytest.approx(0.5 ** 1.2)
    assert eval_f(f, 10.0) == pytest.approx(10.0 ** 3.0)
    monotonicity_audit(f)


def test_builtin_family_unknown_name():
    with pytest.raises((KeyError, ValueError)):
        builtin_family("mystery", {})
