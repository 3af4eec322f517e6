"""Existence / non-existence classifiers for u_t - Lap(u) = f(u).

Every numeric decision about an asymptotic dichotomy (a limsup being finite,
an improper integral converging) is trend-based with an explicit dead-band:
Inconclusive is a first-class outcome, never an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .nonlinearity import (
    ENVELOPE_S_MAX,
    TAIL_S_MAX,
    ZERO_ORIGIN_EPS,
    AuditError,
    DomainError,
    NonlinearityExpr,
    RatioEnvelope,
    eval_f,
    monotonicity_audit,
    sup_ratio_envelope,
)

EXISTS = "Exists"
NO_LOCAL_EXISTENCE = "NoLocalExistence"
INCONCLUSIVE = "Inconclusive"

SLOPE_DEAD_BAND = 0.05
WITNESS_RATIO = 2.0     # theta: consecutive witness candidates theta^j
WITNESS_TERMS = 64      # K: windows searched for the series witness
GAMMA_HI = 12.0         # upper end of the critical-exponent bisections


@dataclass(frozen=True)
class Verdict:
    outcome: str
    criterion: str  # LqLimsup | L1Integral | L1Series | WholeSpaceZero
    dead_band: float | dict  # slope band, or the sigma and tau bands (L1)
    evidence: dict = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.outcome != INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "criterion": self.criterion,
            "dead_band": self.dead_band,
            "evidence": jsonable(self.evidence),
        }

    def evidence_rows(self):
        """(s, statistic) rows of the evidence grid, for CSV export."""
        grid = self.evidence.get("grid", [])
        vals = self.evidence.get("grid_values", [])
        return list(zip(grid, vals))


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


def _tail_sample(f: NonlinearityExpr) -> tuple:
    """(grid, log f) on 320 geometric points (40 a decade) of [1, TAIL_S_MAX],
    the one tail sample of the q > 1 route and the critical exponent."""
    grid = np.geomspace(1.0, TAIL_S_MAX, 320)
    return grid, _log_values(f, f.eval_raw(grid))


def _log_values(f: NonlinearityExpr, vals: np.ndarray) -> np.ndarray:
    """log f from the samples vals of f; log 0 = -inf, NaN is an AuditError."""
    if np.isnan(vals).any():
        raise AuditError(f"f undefined on the sampling grid: {f.source_text!r}")
    with np.errstate(divide="ignore"):
        return np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -np.inf)


def _tail_statistics(grid, log_g):
    """(log-log slope over the last two decades, per-decade max growth).

    log g = -inf is g = 0: where the last sample is -inf, g vanishes at the
    end of the tail, which is bounded evidence (-inf), not overflow (inf)."""
    vanishes = bool(np.isneginf(log_g[-1]))
    tail = (grid >= TAIL_S_MAX / 100.0) & np.isfinite(log_g)
    if tail.sum() < 4:
        return (-math.inf, -math.inf) if vanishes else (math.inf, math.inf)
    slope = float(np.polyfit(np.log10(grid[tail]),
                             log_g[tail] / math.log(10), 1)[0])
    last = (grid >= TAIL_S_MAX / 10.0) & np.isfinite(log_g)
    prev = ((grid >= TAIL_S_MAX / 100.0) & (grid < TAIL_S_MAX / 10.0)
            & np.isfinite(log_g))
    if not last.any() or not prev.any():
        return slope, -math.inf if vanishes else math.inf
    growth = float((np.max(log_g[last]) - np.max(log_g[prev])) / math.log(10))
    return slope, growth


def decide_tail(slope: float, growth: float, overflow: bool = False) -> str:
    """Decide the boundedness of a sampled tail statistic.

    The Exists and NoLocalExistence regions are separated by at least one
    dead-band SLOPE_DEAD_BAND in each statistic, so perturbations smaller
    than the dead-band can only move a decision into Inconclusive, never
    flip it.
    """
    if overflow:
        return NO_LOCAL_EXISTENCE
    if slope >= SLOPE_DEAD_BAND and growth >= SLOPE_DEAD_BAND:
        return NO_LOCAL_EXISTENCE
    if slope <= -SLOPE_DEAD_BAND:
        return EXISTS
    if growth <= 1e-12:
        return EXISTS  # tail running max is non-increasing
    return INCONCLUSIVE


def classify_lq(f: NonlinearityExpr, q: float, d: int) -> Verdict:
    """Local existence in L^q(Omega), q > 1: the limsup criterion with
    exponent 1 + 2q/d, from the trend of g(s) = s^-gamma f(s) over the last
    two decades of the tail sample; overflow of f is divergence evidence."""
    if q <= 1:
        raise ValueError("classify_lq requires q > 1; use classify_l1 for q = 1")
    if d < 1:
        raise ValueError("d must be a positive dimension")
    monotonicity_audit(f)
    gamma = 1.0 + 2.0 * q / d
    grid, log_f = _tail_sample(f)
    # a huge gamma makes gamma log s overflow: log g = -inf, g below every
    # double (and inf - inf = nan where f overflows too, which `overflow`
    # decides)
    with np.errstate(over="ignore", invalid="ignore"):
        log_g = log_f - gamma * np.log(grid)
    overflow = bool(np.isposinf(log_f).any())
    slope, growth = _tail_statistics(grid, log_g)
    step = len(grid) // 64
    evidence = {
        "gamma": gamma,
        "slope": slope,
        "tail_growth": growth,
        "overflow": overflow,
        "s_max": TAIL_S_MAX,
        "grid": grid[::step],
        "grid_values": log_g[::step],
    }
    return Verdict(outcome=decide_tail(slope, growth, overflow),
                   criterion="LqLimsup", dead_band=SLOPE_DEAD_BAND,
                   evidence=evidence)


# --- integral (q = 1) route --------------------------------------------------

def dyadic_block_integrals(envelope: RatioEnvelope, d: int) -> np.ndarray:
    """I_j = integral over [2^j, 2^(j+1)] of s^-(1+2/d) F(s) ds for every
    block up to ENVELOPE_S_MAX, trapezoid on the envelope grid."""
    p = 1.0 + 2.0 / d
    return np.array([envelope.weighted_integral(p, 2.0 ** j, 2.0 ** (j + 1))
                     for j in range(int(math.log2(ENVELOPE_S_MAX)))])


SIGMA_DEAD_BAND = 0.04  # per-block geometric rate, in log2
TAU_DEAD_BAND = 0.15    # polynomial-in-index exponent around the -1 boundary
# the dead bands decide_blocks decides with, as L1 verdicts report them
BLOCK_DEAD_BANDS = {"sigma": SIGMA_DEAD_BAND, "tau": TAU_DEAD_BAND}


def block_trend_fit(blocks: np.ndarray) -> tuple:
    """Fit log2 b_j = c + sigma*j + tau*log2(j) over the block tail.

    Every block sequence produced here behaves like C * 2^(sigma*j) * j^tau
    up to lower-order corrections (power nonlinearities give pure geometric
    blocks, log-corrected critical ones give sigma = 0 and tau < 0), so the
    two-parameter fit separates the geometric rate from the polynomial
    correction even when the blocks are not yet monotone.
    """
    n = len(blocks)
    j = np.arange(1, n + 1, dtype=float)
    lo = max(10, n // 4)  # skip envelope flat stretches and small-s effects
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


def classify_l1(f: NonlinearityExpr, d: int) -> Verdict:
    """Local existence in L^1: convergence of int_1^inf s^-(1+2/d) F(s) ds,
    F(s) = sup over 1 <= t <= s of f(t)/t, from its dyadic blocks up to
    ENVELOPE_S_MAX."""
    monotonicity_audit(f)
    blocks = dyadic_block_integrals(sup_ratio_envelope(f), d)
    overflow = bool(np.isinf(blocks).any())
    sigma, tau = block_trend_fit(blocks)
    outcome = decide_blocks(sigma, tau, overflow)
    evidence = {
        "sigma": sigma,
        "tau": tau,
        "overflow": overflow,
        "exponent": 1.0 + 2.0 / d,
        "grid": 2.0 ** np.arange(len(blocks)),
        "grid_values": blocks,
    }
    return Verdict(outcome=outcome, criterion="L1Integral",
                   dead_band=dict(BLOCK_DEAD_BANDS), evidence=evidence)


# --- series (q = 1) route ----------------------------------------------------

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
    return Verdict(outcome=outcome, criterion="L1Series",
                   dead_band=dict(BLOCK_DEAD_BANDS), evidence=evidence)


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
    """Estimate gamma* = sup{gamma : limsup s^-gamma f(s) = infinity}.

    gamma* itself comes from extrapolating the tail slope of log f over two
    decade windows (the fitted slope converges to gamma* like 1/log s for the
    built-in families). The bracket endpoints are found by bisecting the
    classifier's own decided regions (on [0, GAMMA_HI]), so the classifier
    is NoLocalExistence below the bracket and Exists above it on the same
    samples. Where f vanishes somewhere in the windows, gamma* is the
    midpoint of the two bisection endpoints.
    """
    monotonicity_audit(f)
    grid, log_f = _tail_sample(f)
    overflow = bool(np.isposinf(log_f).any())
    if overflow:
        return CriticalExponentReport(gamma_star=math.inf, q_star=math.inf,
                                      bracket=(GAMMA_HI, math.inf), d=d)
    if np.isneginf(log_f).all():
        # f = 0 on the sample: gamma* sits at its clamp 0, q* = d(0 - 1)/2
        return CriticalExponentReport(gamma_star=0.0, q_star=-d / 2.0,
                                      bracket=(0.0, 0.0), d=d)

    def stats(gamma):
        return _tail_statistics(grid, log_f - gamma * np.log(grid))

    def is_nle(gamma):
        slope, growth = stats(gamma)
        return decide_tail(slope, growth) == NO_LOCAL_EXISTENCE

    def is_exists(gamma):
        slope, growth = stats(gamma)
        return decide_tail(slope, growth) == EXISTS

    lo_end = _bisect_boundary(is_nle, 0.0, GAMMA_HI, want_low=True)
    hi_end = _bisect_boundary(is_exists, 0.0, GAMMA_HI, want_low=False)
    if np.isneginf(log_f[grid >= TAIL_S_MAX / 1e4]).any():
        # f vanishes somewhere in the two fit windows, where a slope of
        # log f is undefined: gamma* is the middle of the decided bracket
        gamma_star = 0.5 * (lo_end + hi_end)
    else:
        # Richardson extrapolation in 1/log s over the two windows
        log10s = np.log10(grid)
        log10f = log_f / math.log(10)

        def window_slope(hi):
            sel = (grid >= hi / 100.0) & (grid <= hi)
            return float(np.polyfit(log10s[sel], log10f[sel], 1)[0])

        s1 = window_slope(TAIL_S_MAX)
        s0 = window_slope(TAIL_S_MAX / 100.0)
        m1 = np.log(math.sqrt(TAIL_S_MAX / 10.0))
        m0 = np.log(math.sqrt(TAIL_S_MAX / 1000.0))
        b = (s1 - s0) / (1.0 / m0 - 1.0 / m1)
        gamma_star = max(s1 + b / m1, 0.0)
    bracket = (min(lo_end, gamma_star - SLOPE_DEAD_BAND),
               max(hi_end, gamma_star + SLOPE_DEAD_BAND))
    q_star = d * (gamma_star - 1.0) / 2.0
    return CriticalExponentReport(gamma_star=float(gamma_star),
                                  q_star=float(q_star),
                                  bracket=bracket, d=d)


def _bisect_boundary(pred, lo, hi, want_low, tol=0.005):
    """Boundary of a monotone predicate region on [lo, hi].

    want_low: pred holds for small gamma (NoLocalExistence region); returns
    the largest gamma where it holds. Otherwise pred holds for large gamma
    and the smallest such gamma is returned.
    """
    def inside(gamma):  # on the low side of the boundary
        return pred(gamma) == want_low

    if not inside(lo):
        return lo
    if inside(hi):
        return hi
    a, b = lo, hi  # inside(a), not inside(b)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if inside(mid):
            a = mid
        else:
            b = mid
    return a if want_low else b


# --- whole space -------------------------------------------------------------

def near_zero_ratio_check(f: NonlinearityExpr) -> dict:
    """Sample f(s)/s on [ZERO_ORIGIN_EPS, 1e-2] and classify
    limsup_{s->0} f(s)/s.

    Returns {"bounded": True/False/None, ...diagnostics}.
    """
    try:
        f0 = eval_f(f, 0.0)
    except DomainError:
        f0 = math.nan
    grid = np.geomspace(ZERO_ORIGIN_EPS, 1e-2, 60)
    log_r = _log_values(f, f.eval_raw(grid)) - np.log(grid)
    finite = np.isfinite(log_r)
    if finite.sum() < 4:
        slope = 0.0 if not np.isposinf(log_r).any() else -math.inf
    else:
        slope = float(np.polyfit(np.log(grid[finite]), log_r[finite], 1)[0])
    if not math.isnan(f0) and f0 > 0:
        bounded = False
    elif np.isposinf(log_r).any() or slope <= -SLOPE_DEAD_BAND:
        bounded = False
    elif np.isneginf(log_r[-1]):
        bounded = True  # f = 0 at 1e-2, so on the whole sample (f monotone)
    elif slope >= SLOPE_DEAD_BAND or np.all(np.diff(log_r[finite]) >= -1e-12):
        bounded = True
    else:
        bounded = None
    return {"bounded": bounded, "slope_at_zero": slope, "f_at_zero": f0,
            "grid": grid, "ratios": np.exp(np.clip(log_r, -700, 700))}


def classify_whole_space(f: NonlinearityExpr, q: float, d: int) -> Verdict:
    """Existence on the whole space: the near-zero ratio condition combined
    with the bounded-domain verdict (q > 1 limsup; q = 1 the integral of the
    same F as classify_l1)."""
    if q < 1:
        raise ValueError("q must be at least 1")
    monotonicity_audit(f)
    zero = near_zero_ratio_check(f)
    if zero["bounded"] is False:
        return Verdict(outcome=NO_LOCAL_EXISTENCE, criterion="WholeSpaceZero",
                       dead_band=SLOPE_DEAD_BAND,
                       evidence={"slope_at_zero": zero["slope_at_zero"],
                                 "f_at_zero": zero["f_at_zero"],
                                 "grid": zero["grid"],
                                 "grid_values": zero["ratios"]})
    if q > 1:
        inner = classify_lq(f, q, d)
    else:
        inner = classify_l1(f, d)
    if zero["bounded"] is None and inner.outcome == EXISTS:
        outcome = INCONCLUSIVE  # zero end undecided, cannot certify existence
    else:
        outcome = inner.outcome
    evidence = dict(inner.evidence)
    evidence["near_zero"] = {"bounded": zero["bounded"],
                             "slope_at_zero": zero["slope_at_zero"]}
    return Verdict(outcome=outcome, criterion=inner.criterion,
                   dead_band=inner.dead_band, evidence=evidence)
