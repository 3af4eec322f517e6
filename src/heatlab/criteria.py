"""Existence / non-existence classifiers for u_t - Lap(u) = f(u).

The bounded-domain and whole-space verdicts read the leading terms of f at
infinity and at 0+ (nonlinearity.leading_term) and decide by the paper's
conditions, written as lexicographic comparisons of the powers (a, b, c) of
C s^a (log s)^b (log log s)^c. An UNKNOWN term is Inconclusive, a
first-class outcome, never an error. The witness series of the q = 1 series
criterion is sampled and decided by its fitted tail law inside explicit dead
bands; equivalence_check holds it against the exact integral route. All of
it runs on Python floats, so no verdict loads numpy.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

from .nonlinearity import (
    UNKNOWN,
    ZERO,
    AuditError,
    DomainError,
    NonlinearityExpr,
    eval_f,
    leading_term,
    monotonicity_audit,
)

EXISTS = "Exists"
NO_LOCAL_EXISTENCE = "NoLocalExistence"
INCONCLUSIVE = "Inconclusive"

WITNESS_RATIO = 2.0     # theta: consecutive witness candidates theta^j
WITNESS_TERMS = 64      # K: windows searched for the series witness


@dataclass(frozen=True)
class Verdict:
    outcome: str
    criterion: str  # LqLimsup | L1Integral | L1Series | WholeSpaceZero
    evidence: dict

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
    """obj as plain JSON data: numpy scalars and arrays unwrapped through
    their tolist(), inf/nan spelled out (JSON has neither)."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "tolist"):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


@dataclass(frozen=True)
class SeriesWitness:
    theta: float
    p: float
    sequence: tuple
    terms: tuple
    partial_sums: tuple
    overflow: bool


@dataclass(frozen=True)
class CriticalExponentReport:
    gamma_star: float
    q_star: float
    bracket: tuple
    d: int


@dataclass(frozen=True)
class EquivalenceReport:
    agree: Optional[bool]  # None when either side is Inconclusive
    series_verdict: Verdict
    integral_verdict: Verdict


def check_scope(d, q: float = 1.0) -> None:
    """ValueError unless 1 <= q < inf and d is a positive integer, with a
    finite critical power 1 + 2q/d: the paper's setting, outside which no
    route gives a verdict."""
    if not (1 <= q < math.inf and isinstance(d, numbers.Integral)
            and d >= 1 and math.isfinite(1.0 + 2.0 * q / d)):
        raise ValueError(f"out of scope: q = {q!r} must be a finite exponent "
                         f">= 1 and d = {d!r} a positive dimension (an "
                         "integer), with 1 + 2q/d finite")


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


def _lq_verdict(term, q: float, d: int) -> Verdict:
    gamma = 1.0 + 2.0 * q / d
    return _verdict(term, gamma, "LqLimsup",
                    lambda abc: abc <= (gamma, 0.0, 0.0))


def _l1_verdict(term, d: int) -> Verdict:
    # F(s) = sup f(t)/t is bounded where f(s)/s is, and is eventually f(s)/s
    # where that ratio grows; int^inf s^-gamma f(s)/s ds then converges iff
    # (a, b, c) < (gamma, -1, -1)
    gamma = 1.0 + 2.0 / d
    return _verdict(term, gamma, "L1Integral",
                    lambda abc: abc <= (1.0, 0.0, 0.0)
                    or abc < (gamma, -1.0, -1.0))


def classify_lq(f: NonlinearityExpr, q: float, d: int) -> Verdict:
    """Local existence in L^q(Omega), q > 1: limsup s^-gamma f(s) < inf with
    gamma = 1 + 2q/d, that is (a, b, c) <= (gamma, 0, 0)."""
    if q <= 1:
        raise ValueError("classify_lq requires q > 1; use classify_l1 for q = 1")
    check_scope(d, q)
    monotonicity_audit(f)
    return _lq_verdict(leading_term(f, math.inf), q, d)


def classify_l1(f: NonlinearityExpr, d: int) -> Verdict:
    """Local existence in L^1: convergence of int_1^inf s^-(1+2/d) F(s) ds,
    F(s) = sup over 1 <= t <= s of f(t)/t."""
    check_scope(d)
    monotonicity_audit(f)
    return _l1_verdict(leading_term(f, math.inf), d)


# --- series (q = 1) route ----------------------------------------------------

SIGMA_DEAD_BAND = 0.04  # per-block geometric rate, in log2
TAU_DEAD_BAND = 0.15    # polynomial-in-index exponent around the -1 boundary


def block_trend_fit(blocks) -> tuple:
    """Fit log2 b_j = c + sigma*j + tau*log2(j) over the tail of the terms.

    The witness terms behave like C * 2^(sigma*j) * j^tau up to lower-order
    corrections (power nonlinearities give pure geometric terms,
    log-corrected critical ones give sigma = 0 and tau < 0), so the
    two-parameter fit separates the geometric rate from the polynomial
    correction even when the terms are not yet monotone.

    Least squares in Python floats: centring the columns and y removes c,
    and modified Gram-Schmidt on the two centred columns, carried through
    y, gives sigma and tau.
    """
    lo = max(10, len(blocks) // 4)  # skip the small-s windows
    rows = [(float(j), math.log2(j), math.log2(b))
            for j, b in enumerate(blocks, start=1)
            if j >= lo and math.isfinite(b) and b > 0]
    if len(rows) < 8:
        return math.nan, math.nan

    def centred(col):
        mean = math.fsum(col) / len(col)
        return [x - mean for x in col]

    def dot(a, b):
        return math.fsum(x * z for x, z in zip(a, b))

    u, v, y = map(centred, zip(*rows))
    r11 = math.sqrt(dot(u, u))
    q1 = [x / r11 for x in u]
    r12, z1 = dot(q1, v), dot(q1, y)
    w = [x - r12 * e for x, e in zip(v, q1)]
    y = [x - z1 * e for x, e in zip(y, q1)]
    tau = dot(w, y) / dot(w, w)
    return (z1 - r12 * tau) / r11, tau


def decide_blocks(sigma: float, tau: float, overflow: bool = False) -> str:
    """Convergence decision for a positive series from its fitted tail law
    b_j ~ 2^(sigma*j) * j^tau.

    A geometric rate outside the sigma dead-band decides outright. Inside it
    the series is critical and sum j^tau converges iff tau < -1; divergence
    is declared down to tau = -1 - tau_db and convergence from
    tau = -1 - 2*tau_db, leaving an honest gap of width tau_db
    (sigma_db = SIGMA_DEAD_BAND, tau_db = TAU_DEAD_BAND).
    """
    if overflow:
        return NO_LOCAL_EXISTENCE
    if math.isnan(sigma) or math.isnan(tau):
        return INCONCLUSIVE
    if sigma >= SIGMA_DEAD_BAND:
        return NO_LOCAL_EXISTENCE
    if sigma <= -SIGMA_DEAD_BAND:
        return EXISTS
    if tau >= -1.0 - TAU_DEAD_BAND:
        return NO_LOCAL_EXISTENCE
    if tau <= -1.0 - 2.0 * TAU_DEAD_BAND:
        return EXISTS
    return INCONCLUSIVE


def series_search(f: NonlinearityExpr, d: int) -> SeriesWitness:
    """Greedy witness sequence for the divergent-series criterion, on
    Python floats.

    Candidates live on the grid theta^j, theta = WITNESS_RATIO; window k
    (k < WITNESS_TERMS) covers exponents {2k, 2k+1} and we keep the
    candidate maximising s^-p f(s). Any two choices from consecutive
    windows are a factor of at least theta apart.
    """
    check_scope(d)
    monotonicity_audit(f)
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
                         overflow=len(terms) < WITNESS_TERMS)


def series_verdict(witness: SeriesWitness) -> Verdict:
    """Divergence decision for the witness series by dyadic condensation of
    its terms."""
    sigma, tau = block_trend_fit(witness.terms)
    outcome = decide_blocks(sigma, tau, witness.overflow)
    evidence = {
        "theta": witness.theta,
        "p": witness.p,
        "sigma": sigma,
        "tau": tau,
        "overflow": witness.overflow,
        "partial_sum": float(witness.partial_sums[-1]) if len(witness.terms)
        else 0.0,
        "grid": witness.sequence,
        "grid_values": witness.terms,
    }
    return Verdict(outcome=outcome, criterion="L1Series", evidence=evidence)


def equivalence_check(f: NonlinearityExpr, d: int) -> EquivalenceReport:
    """Cross-check the series and integral blow-up criteria against each
    other; they are provably equivalent for non-decreasing f."""
    sv = series_verdict(series_search(f, d))  # checks scope, audits f
    iv = _l1_verdict(leading_term(f, math.inf), d)  # classify_l1 on f
    if not (sv.decided and iv.decided):
        return EquivalenceReport(agree=None, series_verdict=sv,
                                 integral_verdict=iv)
    return EquivalenceReport(agree=sv.outcome == iv.outcome,
                             series_verdict=sv, integral_verdict=iv)


# --- critical exponent -------------------------------------------------------

def critical_exponent_report(f: NonlinearityExpr,
                             d: int) -> CriticalExponentReport:
    """gamma* = sup{gamma : limsup s^-gamma f(s) = infinity}, the power a of
    the leading term at infinity, and q* = d(gamma* - 1)/2; the bracket
    (gamma*, gamma*) is exact. f = 0 has gamma* = 0; an UNKNOWN term gives
    gamma* = NaN and the bracket [0, inf]."""
    check_scope(d)
    monotonicity_audit(f)
    term = leading_term(f, math.inf)
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
    monotonicity_audit(f)
    zero = near_zero_ratio_check(f)
    if zero["bounded"] is False:
        return Verdict(outcome=NO_LOCAL_EXISTENCE, criterion="WholeSpaceZero",
                       evidence={"f_at_zero": zero["f_at_zero"],
                                 "leading_term": zero["leading_term"]})
    term = leading_term(f, math.inf)
    inner = _lq_verdict(term, q, d) if q > 1 else _l1_verdict(term, d)
    if zero["bounded"] is None and inner.outcome == EXISTS:
        outcome = INCONCLUSIVE  # zero end undecided, cannot certify existence
    else:
        outcome = inner.outcome
    evidence = {**inner.evidence,
                "near_zero": {"bounded": zero["bounded"],
                              "leading_term": zero["leading_term"]}}
    return Verdict(outcome=outcome, criterion=inner.criterion,
                   evidence=evidence)
