"""Existence / non-existence classifiers for u_t - Lap(u) = f(u).

The bounded-domain and whole-space verdicts read the leading terms of f at
infinity and at 0+ (nonlinearity.leading_term) and decide by the paper's
conditions, written as lexicographic comparisons of the powers (a, b, c) of
C s^a (log s)^b (log log s)^c. An UNKNOWN term is Inconclusive, a
first-class outcome, never an error. At q = 1 the integral and the series
over the geometric witness points converge together (Cauchy condensation),
so both verdicts apply the one L^1 predicate, _l1_verdict, to the same
leading term and agree by construction; equivalence_check sets them side by
side. duhamel_lower_bound certifies the lower bound on every local solution
that the non-existence side rests on. All of it runs on Python floats, so
none of it loads numpy.

The one scope guard is check_scope (1 <= q < inf, d a positive integer,
1 < 1 + 2q/d < inf) plus monotonicity_audit, whose leading term the routes
decide from. The classifiers, series_search, critical_exponent_report, the
Duhamel lower bound and solver's horizon each run it on their own input.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Optional

from .heatkernel import BallIndicator, kernel_constants
from .nonlinearity import (
    UNKNOWN,
    ZERO,
    AuditError,
    DomainError,
    NonlinearityExpr,
    _linspace,
    eval_f,
    leading_term,
    monotonicity_audit,
)

EXISTS = "Exists"
NO_LOCAL_EXISTENCE = "NoLocalExistence"
INCONCLUSIVE = "Inconclusive"

WITNESS_RATIO = 2.0     # theta: consecutive witness candidates theta^j
WITNESS_TERMS = 64      # K: windows searched for the series witness


class Verdict:
    def __init__(self, outcome: str, criterion: str, evidence: dict):
        self.outcome = outcome
        # LqLimsup | L1Integral | L1Series | WholeSpaceZero
        self.criterion = criterion
        self.evidence = evidence

    @property
    def decided(self) -> bool:
        return self.outcome != INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "criterion": self.criterion,
            "evidence": jsonable(self.evidence),
        }


def jsonable(obj):
    """obj as plain JSON data: tuples as lists, inf/nan spelled out (JSON
    has neither)."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


class SeriesWitness:
    def __init__(self, theta: float, p: float, sequence: tuple, terms: tuple,
                 partial_sums: tuple, overflow: bool, leading_term):
        self.theta = theta
        self.p = p
        self.sequence = sequence
        self.terms = terms
        self.partial_sums = partial_sums
        self.overflow = overflow
        self.leading_term = leading_term  # of f at infinity


class CriticalExponentReport:
    def __init__(self, gamma_star: float, q_star: float, bracket: tuple,
                 d: int):
        self.gamma_star = gamma_star
        self.q_star = q_star
        self.bracket = bracket
        self.d = d


class EquivalenceReport:
    def __init__(self, agree: Optional[bool], series_verdict: Verdict,
                 integral_verdict: Verdict):
        self.agree = agree  # None when either side is Inconclusive
        self.series_verdict = series_verdict
        self.integral_verdict = integral_verdict


def check_scope(d, q: float = 1.0) -> None:
    """ValueError unless 1 <= q < inf and d is a positive integer, with a
    critical power 1 < 1 + 2q/d < inf: the paper's setting, outside which no
    route gives a verdict. From d ~ 2^54 on, 1 + 2/d rounds to 1, and the
    L^1 rules would read the power 1; an integer d or q beyond the double
    range is refused too."""
    try:
        ok = (1 <= q < math.inf and isinstance(d, numbers.Integral)
              and d >= 1 and 1.0 < 1.0 + 2.0 * q / d < math.inf)
    except OverflowError:   # int too large to convert to float
        ok = False
    if not ok:
        raise ValueError(f"out of scope: q = {q!r} must be a finite exponent "
                         f">= 1 and d = {d!r} a positive dimension (an "
                         "integer), with 1 < 1 + 2q/d < inf")


# --- exact routes ------------------------------------------------------------

def _term_evidence(term):
    """A leading term as report data: its coefficient and three powers, or
    its flag."""
    if isinstance(term, str):
        return term
    return dict(zip(("coefficient", "power", "log_power", "loglog_power"),
                    term))


def _verdict(term, gamma: float, criterion: str, exists) -> Verdict:
    """Exists where f is ZERO or exists(a, b, c) holds for its leading term
    at infinity; Inconclusive where that term is UNKNOWN."""
    if term == UNKNOWN:
        outcome = INCONCLUSIVE
    elif term == ZERO or exists(term[1:]):
        outcome = EXISTS
    else:
        outcome = NO_LOCAL_EXISTENCE
    return Verdict(outcome=outcome, criterion=criterion,
                   evidence={"gamma": gamma,
                             "leading_term": _term_evidence(term)})


def _lq_verdict(term, gamma: float) -> Verdict:
    return _verdict(term, gamma, "LqLimsup",
                    lambda abc: abc <= (gamma, 0.0, 0.0))


def _l1_verdict(term, p: float) -> Verdict:
    # F(s) = sup f(t)/t is bounded where f(s)/s is, and is eventually f(s)/s
    # where that ratio grows; int^inf s^-p f(s)/s ds, p = 1 + 2/d > 1 by
    # check_scope, then converges iff (a, b, c) < (p, -1, -1), which every
    # (a, b, c) <= (1, 0, 0) satisfies
    return _verdict(term, p, "L1Integral", lambda abc: abc < (p, -1.0, -1.0))


def classify_lq(f: NonlinearityExpr, q: float, d: int) -> Verdict:
    """Local existence in L^q(Omega), q > 1: limsup s^-gamma f(s) < inf with
    gamma = 1 + 2q/d, that is (a, b, c) <= (gamma, 0, 0)."""
    if q <= 1:
        raise ValueError("classify_lq requires q > 1; use classify_l1 for q = 1")
    check_scope(d, q)
    return _lq_verdict(monotonicity_audit(f), 1.0 + 2.0 * q / d)


def classify_l1(f: NonlinearityExpr, d: int) -> Verdict:
    """Local existence in L^1: convergence of int_1^inf s^-(1+2/d) F(s) ds,
    F(s) = sup over 1 <= t <= s of f(t)/t."""
    check_scope(d)
    return _l1_verdict(monotonicity_audit(f), 1.0 + 2.0 / d)


# --- series (q = 1) route ----------------------------------------------------

def series_search(f: NonlinearityExpr, d: int) -> SeriesWitness:
    """Greedy witness sequence for the divergent-series criterion, on
    Python floats.

    Candidates live on the grid theta^j, theta = WITNESS_RATIO; window k
    (k < WITNESS_TERMS) covers exponents {2k, 2k+1} and we keep the
    candidate maximising s^-p f(s). Any two choices from consecutive
    windows are a factor of at least theta apart. The witness carries f's
    leading term at infinity, which decides it (series_verdict).
    """
    check_scope(d)
    term = monotonicity_audit(f)
    theta = WITNESS_RATIO
    p = 1.0 + 2.0 / d
    cands = [theta ** j for j in range(2 * WITNESS_TERMS)]
    vals = f.eval_floats(cands)
    # log f - p log s, with log 0 = -inf and f clamped to 1e-300 from below
    log_t = [(math.log(max(v, 1e-300)) if v > 0 else -math.inf)
             - p * math.log(s) for s, v in zip(cands, vals)]
    sequence, terms = [], []
    # the witness ends at the first window holding NaN or +inf: a NaN there
    # is an AuditError, +inf alone is overflow; later windows are ignored
    for k in range(WITNESS_TERMS):
        window = vals[2 * k:2 * k + 2]
        if any(map(math.isnan, window)):
            raise AuditError(f"f undefined on the sampling grid: "
                             f"{f.source_text!r}")
        if math.inf in window:
            break
        best = 2 * k + (log_t[2 * k] < log_t[2 * k + 1])  # first of equals
        sequence.append(cands[best])
        try:
            terms.append(math.exp(log_t[best]))
        except OverflowError:
            terms.append(math.inf)
    return SeriesWitness(theta=theta, p=p, sequence=tuple(sequence),
                         terms=tuple(terms),
                         partial_sums=tuple(itertools.accumulate(terms)),
                         overflow=len(terms) < WITNESS_TERMS,
                         leading_term=term)


def series_verdict(witness: SeriesWitness) -> Verdict:
    """Convergence of the witness series sum s_k^-p f(s_k), read from the
    leading term C s^a (log s)^b (log log s)^c of f at infinity.

    The terms carry that term with its power shifted by -p, and the s_k
    grow geometrically, so by Cauchy condensation the series converges iff
    the integral of classify_l1 does: its rule, _l1_verdict, decides. The
    sampled terms are evidence only."""
    outcome = _l1_verdict(witness.leading_term, witness.p).outcome
    evidence = {
        "theta": witness.theta,
        "p": witness.p,
        "leading_term": _term_evidence(witness.leading_term),
        "overflow": witness.overflow,
        "partial_sum": witness.partial_sums[-1] if witness.terms else 0.0,
        "grid": witness.sequence,
        "grid_values": witness.terms,
    }
    return Verdict(outcome=outcome, criterion="L1Series", evidence=evidence)


def equivalence_check(f: NonlinearityExpr, d: int) -> EquivalenceReport:
    """The series and integral criteria side by side, on one audit and one
    leading term of f; they are provably equivalent for non-decreasing f."""
    witness = series_search(f, d)  # checks scope, audits f
    sv = series_verdict(witness)
    iv = _l1_verdict(witness.leading_term, witness.p)  # classify_l1 on f
    agree = sv.outcome == iv.outcome if sv.decided and iv.decided else None
    return EquivalenceReport(agree=agree, series_verdict=sv,
                             integral_verdict=iv)


# --- critical exponent -------------------------------------------------------

def critical_exponent_report(f: NonlinearityExpr,
                             d: int) -> CriticalExponentReport:
    """gamma* = sup{gamma : limsup s^-gamma f(s) = infinity}, the power a of
    the leading term at infinity, and q* = d(gamma* - 1)/2; the bracket
    (gamma*, gamma*) is exact. f = 0 has gamma* = 0; an UNKNOWN term gives
    gamma* = NaN and the bracket [0, inf]."""
    check_scope(d)
    term = monotonicity_audit(f)
    if term == UNKNOWN:
        return CriticalExponentReport(gamma_star=math.nan, q_star=math.nan,
                                      bracket=(0.0, math.inf), d=d)
    a = 0.0 if term == ZERO else term[1]
    return CriticalExponentReport(gamma_star=a, q_star=d * (a - 1.0) / 2.0,
                                  bracket=(a, a), d=d)


# --- whole space -------------------------------------------------------------

def near_zero_ratio_check(f: NonlinearityExpr) -> dict:
    """Whether limsup_{s->0} f(s)/s is finite: not where f(0) > 0, and else
    iff the leading term of f at 0+ (in t = 1/s) has (a, b, c) <= (-1, 0, 0).

    Returns {"bounded": True/False/None (an UNKNOWN term), ...evidence}.
    """
    try:
        f0 = eval_f(f, 0.0)
    except DomainError:
        f0 = math.nan
    term = leading_term(f, 0.0)
    if f0 > 0:
        bounded = False
    elif term == UNKNOWN:
        bounded = None
    else:
        bounded = term == ZERO or term[1:] <= (-1.0, 0.0, 0.0)
    return {"bounded": bounded, "f_at_zero": f0,
            "leading_term": _term_evidence(term)}


def classify_whole_space(f: NonlinearityExpr, q: float, d: int) -> Verdict:
    """Existence on the whole space: the near-zero ratio condition combined
    with the bounded-domain verdict (q > 1 limsup; q = 1 the integral of the
    same F as classify_l1), on one audit of f."""
    check_scope(d, q)
    term = monotonicity_audit(f)
    zero = near_zero_ratio_check(f)
    if zero["bounded"] is False:
        return Verdict(outcome=NO_LOCAL_EXISTENCE, criterion="WholeSpaceZero",
                       evidence={"f_at_zero": zero["f_at_zero"],
                                 "leading_term": zero["leading_term"]})
    # the power 1 + 2q/d is at q = 1 the same double as 1 + 2/d
    inner = (_lq_verdict if q > 1 else _l1_verdict)(term, 1.0 + 2.0 * q / d)
    if zero["bounded"] is None and inner.outcome == EXISTS:
        outcome = INCONCLUSIVE  # zero end undecided, cannot certify existence
    else:
        outcome = inner.outcome
    evidence = {**inner.evidence,
                "near_zero": {"bounded": zero["bounded"],
                              "leading_term": zero["leading_term"]}}
    return Verdict(outcome=outcome, criterion=inner.criterion,
                   evidence=evidence)


# --- certified Duhamel lower bound -------------------------------------------

class LowerBoundResult:
    def __init__(self, radius: float, value: float, lq: float):
        self.radius = radius
        self.value = value
        self.lq = lq


def _lowered(x, n: int):
    """x, the result of n roundings, times 1 - gamma_(n+3) <= its exact
    value: gamma_n = n u / (1 - n u), u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 3.1); the 3 are its own."""
    u = (n + 3) * 2.0 ** -53
    return x * (1.0 - u / (1.0 - u))


def duhamel_lower_bound(chi: BallIndicator, f: NonlinearityExpr, t: float,
                        d: int, q: float) -> LowerBoundResult:
    """Certified lower bound V on any local integral solution with u0 >= a
    chi_r, on the ball |x| <= r + sqrt t, and V's L^q norm on that ball.

    The chain u(t) >= S(t)u0 + int_0^t S(t-s) f(S(s)u0) ds and the lemma
    S(s)chi_r >= c_d (r/(r+sqrt s))^d chi_(r+sqrt s), inside f and outside,
    reach only balls that hold this one (sqrt s + sqrt(t-s) >= sqrt t), so
    V = a c_d (r/(r+sqrt t))^d + the lower Riemann sum on 512 cells of F G:
    the non-increasing F(s) = f(a c_d (r/rho)^d), rho = r + sqrt s, at each
    cell's right end and the non-decreasing G(s) = c_d (rho/(rho +
    sqrt(t-s)))^d at its left.

    F's argument, V and the norm are lowered by gamma_n of their n roundings
    (a power: 2, a d-th power: d times its base's, the rounded 1/q: |ln x| <
    745); rounding in f itself is left to outward-rounded enclosures of f.
    (d, q) outside check_scope's is a ValueError, an f that fails the audit
    an AuditError.
    """
    if not 0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    check_scope(d, q)
    monotonicity_audit(f)
    consts = kernel_constants(d)
    r, amp, c = chi.radius, chi.amplitude, consts.c_d
    s = _linspace(0.0, t, 513)
    rho = [r + math.sqrt(x) for x in s]  # 2 roundings
    f_inner = f.eval_floats([_lowered(amp * c * (r / x) ** d, 3 * d + 4)
                             for x in rho])
    if not all(map(math.isfinite, f_inner)):
        raise OverflowError(
            "nonlinearity overflow in the lower-bound integrand")
    outer = [c * (x / (x + math.sqrt(t - y))) ** d for x, y in zip(rho, s)]
    reach = r + math.sqrt(t)
    # a cell width times f and outer (6d + 3): 6d + 6; fsum and the add round
    # once each, so the 6d + 518 of a recursive sum on 512 cells covers them
    value = _lowered(amp * c * (r / reach) ** d + math.fsum(
        (b - a) * v * g for a, b, v, g in zip(s, s[1:], f_inner[1:], outer)),
        6 * d + 518)
    try:
        volume = consts.omega_d * reach ** d  # 4d + 3, omega_d taking 2d
    except OverflowError:
        raise OverflowError(f"(r + sqrt t)^d overflows in d = {d}") from None
    lq = _lowered(value * volume ** (1.0 / q), 4 * d + 751)  # 4d + 6 + 745
    return LowerBoundResult(radius=reach, value=value, lq=lq)
