"""Existence / non-existence classifiers for u_t - Lap(u) = f(u).

The bounded-domain and whole-space verdicts read the leading terms of f at
infinity and at 0+ (nonlinearity.leading_term) and decide by the paper's
conditions, written as lexicographic comparisons of the powers (a, b, c) of
C s^a (log s)^b (log log s)^c. An UNKNOWN term is Inconclusive, a
first-class outcome, never an error. The witness series of the q = 1 series
criterion is sampled and decided by its fitted tail law inside explicit dead
bands; equivalence_check holds it against the exact integral route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    """obj as plain JSON data: numpy scalars and arrays unwrapped, inf/nan
    spelled out (JSON has neither)."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


@dataclass(frozen=True)
class SeriesWitness:
    theta: float
    p: float
    sequence: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
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


def _log_values(f: NonlinearityExpr, vals: np.ndarray) -> np.ndarray:
    """log f from the samples vals of f; log 0 = -inf, NaN is an AuditError."""
    if np.isnan(vals).any():
        raise AuditError(f"f undefined on the sampling grid: {f.source_text!r}")
    with np.errstate(divide="ignore"):
        return np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -np.inf)


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
    if d < 1:
        raise ValueError("d must be a positive dimension")
    monotonicity_audit(f)
    return _lq_verdict(leading_term(f, math.inf), q, d)


def classify_l1(f: NonlinearityExpr, d: int) -> Verdict:
    """Local existence in L^1: convergence of int_1^inf s^-(1+2/d) F(s) ds,
    F(s) = sup over 1 <= t <= s of f(t)/t."""
    monotonicity_audit(f)
    return _l1_verdict(leading_term(f, math.inf), d)


# --- series (q = 1) route ----------------------------------------------------

SIGMA_DEAD_BAND = 0.04  # per-block geometric rate, in log2
TAU_DEAD_BAND = 0.15    # polynomial-in-index exponent around the -1 boundary


def block_trend_fit(blocks: np.ndarray) -> tuple:
    """Fit log2 b_j = c + sigma*j + tau*log2(j) over the tail of the terms.

    The witness terms behave like C * 2^(sigma*j) * j^tau up to lower-order
    corrections (power nonlinearities give pure geometric terms,
    log-corrected critical ones give sigma = 0 and tau < 0), so the
    two-parameter fit separates the geometric rate from the polynomial
    correction even when the terms are not yet monotone.
    """
    n = len(blocks)
    j = np.arange(1, n + 1, dtype=float)
    lo = max(10, n // 4)  # skip the small-s windows
    sel = (j >= lo) & np.isfinite(blocks) & (blocks > 0)
    if sel.sum() < 8:
        return math.nan, math.nan
    y = np.log2(blocks[sel])
    A = np.column_stack([np.ones(sel.sum()), j[sel], np.log2(j[sel])])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1]), float(coef[2])


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
    """Greedy witness sequence for the divergent-series criterion.

    Candidates live on the grid theta^j, theta = WITNESS_RATIO; window k
    (k < WITNESS_TERMS) covers exponents {2k, 2k+1} and we keep the
    candidate maximising s^-p f(s). Any two choices from consecutive
    windows are a factor of at least theta apart.
    """
    monotonicity_audit(f)
    theta = WITNESS_RATIO
    p = 1.0 + 2.0 / d
    cands = np.array([theta ** j for j in range(2 * WITNESS_TERMS)]).reshape(
        WITNESS_TERMS, 2)
    vals = f.eval_raw(cands)
    # the witness ends at the first window holding NaN or +inf: a NaN there
    # is an AuditError, +inf alone is overflow; later windows are ignored
    stop = (np.isnan(vals) | np.isposinf(vals)).any(axis=1)
    n = int(np.argmax(stop)) if stop.any() else WITNESS_TERMS
    log_f = _log_values(f, vals[:n + 1])[:n]
    log_t = log_f - p * np.log(cands[:n])
    rows, best = np.arange(n), np.argmax(log_t, axis=1)
    with np.errstate(over="ignore"):
        terms = np.exp(log_t[rows, best])
    return SeriesWitness(theta=theta, p=p, sequence=cands[rows, best],
                         terms=terms, partial_sums=np.cumsum(terms),
                         overflow=n < WITNESS_TERMS)


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
    sv = series_verdict(series_search(f, d))
    iv = classify_l1(f, d)
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
    if q < 1:
        raise ValueError("q must be at least 1")
    if d < 1:
        raise ValueError("d must be a positive dimension")
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
