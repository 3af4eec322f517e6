"""Tests for the existence classifiers.

Oracles: closed-form convergence of int s^-(1+2/d) F(s) ds for power and
log-damped families, a brute partial-sum check for the witness series, and
internal consistency (monotonicity in q, scale invariance, dead-band honesty).
"""

import json
import math
import warnings

import numpy as np
import pytest

from heatlab.criteria import (
    EXISTS,
    INCONCLUSIVE,
    NO_LOCAL_EXISTENCE,
    classify_l1,
    classify_lq,
    classify_whole_space,
    critical_exponent_report,
    decide_blocks,
    decide_tail,
    equivalence_check,
    jsonable,
    near_zero_ratio_check,
    series_search,
    series_verdict,
)
from heatlab.nonlinearity import (AuditError, builtin_family,
                                  monotonicity_audit, parse_nonlinearity,
                                  sup_ratio_envelope)


def power(p):
    return builtin_family("power", {"p": p})


# --- limsup / q > 1 ----------------------------------------------------------

def test_limsup_slope_matches_exponent_gap():
    # g(s) = s^(p - gamma): the fitted log-log tail slope is exact
    # (q = 1.5, d = 2: gamma = 1 + 2q/d = 2.5)
    slope = classify_lq(power(3.0), 1.5, 2).evidence["slope"]
    assert slope == pytest.approx(0.5, abs=1e-9)
    slope = classify_lq(power(2.0), 1.5, 2).evidence["slope"]
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_classify_lq_power_table():
    for d in (1, 2, 3):
        for q in (1.5, 2.0, 3.0):
            p_star = 1.0 + 2.0 * q / d
            assert classify_lq(power(p_star - 0.5), q, d).outcome == EXISTS
            assert classify_lq(power(p_star), q, d).outcome == EXISTS
            assert classify_lq(power(p_star + 0.5), q, d).outcome == \
                NO_LOCAL_EXISTENCE


def test_classify_lq_critical_with_log_damping():
    # at p = p*, a log factor decides the limsup
    d, q = 2, 2.0
    p_star = 1.0 + 2.0 * q / d
    grow = parse_nonlinearity(f"s^{p_star} * log(e+s)")
    damp = parse_nonlinearity(f"s^{p_star} / log(e+s)")
    assert classify_lq(grow, q, d).outcome == NO_LOCAL_EXISTENCE
    assert classify_lq(damp, q, d).outcome == EXISTS


def test_classify_lq_overflow_means_divergence():
    v = classify_lq(parse_nonlinearity("exp(s)"), 2.0, 2)
    assert v.outcome == NO_LOCAL_EXISTENCE
    assert v.evidence["overflow"]


@pytest.mark.parametrize("f, q, d", [
    ("0*s", 2.0, 1),       # f = 0: log g = -inf on the whole tail
    ("s^2", 1e307, 1),     # s^-gamma underflows: gamma log s overflows
])
def test_classify_lq_vanishing_tail_means_existence(f, q, d):
    # log g = -inf is g = 0 (or g below every double): bounded, so Exists,
    # where the tail was once read as all overflow
    v = classify_lq(parse_nonlinearity(f), q, d)
    assert v.outcome == EXISTS
    assert not v.evidence["overflow"]
    assert v.evidence["slope"] == v.evidence["tail_growth"] == -math.inf


def test_classify_lq_scale_invariance():
    # multiplying f by a constant cannot change the verdict
    for c in (0.1, 10.0):
        for p, expect in ((2.0, EXISTS), (4.0, NO_LOCAL_EXISTENCE)):
            f = parse_nonlinearity(f"{c} * s^{p}")
            assert classify_lq(f, 2.0, 2).outcome == expect


def test_classify_lq_monotone_in_q():
    # existence for some q implies existence for all larger q (richer data
    # class shrinks); the classifier must respect this on decided cases
    f = parse_nonlinearity("s^3")
    order = {NO_LOCAL_EXISTENCE: 0, INCONCLUSIVE: 1, EXISTS: 2}
    ranks = [order[classify_lq(f, q, 2).outcome] for q in (1.5, 2.0, 2.5, 3.0)]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("text", [
    "max(0, 2e9 - s)*s^2", "s^2*exp(-s/1e9)", "s^26 + s^25 - s^25"])
@pytest.mark.parametrize("route", ["lq", "whole_space", "series"])
def test_every_route_audits_up_to_2_48(text, route):
    # each f is non-decreasing up to 1e8 and leaves the theorem's scope
    # below 2^48: it decreases from s = 1.3e9 or 2e9, or is inf - inf = NaN
    # from 2.3e12; every route refuses it, as classify at q = 1 does
    f = parse_nonlinearity(text)
    run = {"lq": lambda: classify_lq(f, 2.0, 1),
           "whole_space": lambda: classify_whole_space(f, 2.0, 1),
           "series": lambda: series_search(f, 1)}[route]
    with pytest.raises(AuditError):
        run()


def test_classify_lq_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_lq(power(2.0), q=1.0, d=2)
    for d in (0, -2):  # outside the theorem: no verdict
        with pytest.raises(ValueError, match="positive dimension"):
            classify_lq(power(2.0), q=2.0, d=d)
    with pytest.raises(AuditError):
        classify_lq(parse_nonlinearity("1/(1+s)"), 2.0, 2)


def test_dead_band_honesty_tail():
    # between the Exists and NoLocalExistence slope regions lies a gap of at
    # least one dead-band where the decision is Inconclusive
    db = 0.05
    growths = np.linspace(0.001, 0.3, 25)
    for slope in np.linspace(-0.3, 0.3, 61):
        for growth in growths:
            out = decide_tail(float(slope), float(growth))
            if out == EXISTS:
                assert slope <= -db
            elif out == NO_LOCAL_EXISTENCE:
                assert slope >= db and growth >= db
    # perturbing a statistic by less than db never flips Exists <-> NLE
    assert decide_tail(-db - 1e-9, 0.2) == EXISTS
    assert decide_tail(-db + 0.04, 0.2) == INCONCLUSIVE
    assert decide_tail(db - 0.04, 0.2) == INCONCLUSIVE
    assert decide_tail(db + 1e-9, 0.2) == NO_LOCAL_EXISTENCE


def test_dead_band_honesty_blocks():
    from heatlab.criteria import SIGMA_DEAD_BAND as sdb
    from heatlab.criteria import TAU_DEAD_BAND as tdb
    # geometric rate decides outside its dead-band
    assert decide_blocks(sdb + 1e-9, 0.0) == NO_LOCAL_EXISTENCE
    assert decide_blocks(-sdb - 1e-9, 0.0) == EXISTS
    # inside it, tau decides with a gap of width tdb around the boundary
    assert decide_blocks(0.0, -1.0) == NO_LOCAL_EXISTENCE
    assert decide_blocks(0.0, -1.0 - tdb + 1e-9) == NO_LOCAL_EXISTENCE
    assert decide_blocks(0.0, -1.0 - 1.5 * tdb) == INCONCLUSIVE
    assert decide_blocks(0.0, -1.0 - 2 * tdb - 1e-9) == EXISTS
    # overflow always diverges
    assert decide_blocks(-1.0, -9.0, overflow=True) == NO_LOCAL_EXISTENCE


def test_l1_verdicts_report_the_bands_that_decide():
    # decide_blocks decides every L1 verdict, so they carry its sigma and
    # tau bands, not the tail-slope band of the q > 1 verdicts
    import heatlab.criteria as criteria
    bands = {"sigma": criteria.SIGMA_DEAD_BAND, "tau": criteria.TAU_DEAD_BAND}
    f = power(3.0)
    for v in (classify_l1(f, 1), series_verdict(series_search(f, 1)),
              classify_whole_space(f, 1.0, 1)):
        assert v.criterion in ("L1Integral", "L1Series")
        assert v.dead_band == bands
        data = json.loads(json.dumps(jsonable(v.to_dict())))
        assert data["dead_band"] == bands
    assert classify_lq(f, 2.0, 1).dead_band == criteria.SLOPE_DEAD_BAND
    assert not hasattr(criteria, "BLOCK_RATIO_DEAD_BAND")


# --- integral / q = 1 --------------------------------------------------------

def test_classify_l1_log_family_boundary():
    # F(s) ~ s^(2/d)/log(s)^beta; the integral converges iff beta > 1
    d = 2
    for beta in (0.0, 0.5, 1.0):
        f = builtin_family("log_family", {"d": d, "beta": beta})
        assert classify_l1(f, d).outcome == NO_LOCAL_EXISTENCE, beta
    for beta in (1.5, 2.0, 4.0):
        f = builtin_family("log_family", {"d": d, "beta": beta})
        assert classify_l1(f, d).outcome == EXISTS, beta


def test_classify_l1_powers():
    d = 3
    p = 1.0 + 2.0 / d
    assert classify_l1(power(p - 0.3), d).outcome == EXISTS
    assert classify_l1(power(p + 0.3), d).outcome == NO_LOCAL_EXISTENCE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the block rate "
                   "sigma = -2/d of f = s falls inside the sigma dead band "
                   "from d = 51 on, and tau = 0 then reads as divergence")
@pytest.mark.parametrize("d", [51, 200])
def test_classify_l1_linear_f_exists_in_high_dimension(d):
    # F = 1, so int_1^inf s^-(1+2/d) F(s) ds = d/2 converges in every d
    assert classify_l1(parse_nonlinearity("s"), d).outcome == EXISTS


def test_integral_blocks_against_quadrature():
    # dyadic block integrals agree with adaptive quadrature of s^-(1+2/d) f(s)/s
    from scipy.integrate import quad
    d = 2
    f = builtin_family("log_family", {"d": d, "beta": 2.0})
    env = sup_ratio_envelope(f)
    from heatlab.criteria import dyadic_block_integrals
    blocks = dyadic_block_integrals(env, d)
    p = 1.0 + 2.0 / d
    for j in (0, 5, 12, 20):
        a, b = 2.0 ** j, 2.0 ** (j + 1)
        # the envelope equals f(s)/s here (monotone ratio family)
        ref, _ = quad(lambda s: s ** (-p) * f.eval_raw(np.array([s]))[0] / s,
                      a, b, limit=200)
        # trapezoid on the ratio-1.05 envelope grid is second order accurate
        assert blocks[j] == pytest.approx(ref, rel=1e-3)


@pytest.mark.parametrize("text", ["s^2", "s^2/log(e+s)^8",
                                  "max(s^1.2, s^3)"])
def test_dyadic_blocks_are_the_per_block_trapezoid(text):
    # each block is the trapezoid on [a] + grid inside + [b] with F(a) and
    # F(b) from the envelope's own at()
    from heatlab.criteria import dyadic_block_integrals
    d, p = 2, 2.0
    env = sup_ratio_envelope(parse_nonlinearity(text))
    grid, vals = env.grid, env.values
    ref = []
    for j in range(48):
        a, b = 2.0 ** j, 2.0 ** (j + 1)
        inside = (grid > a) & (grid < b)
        xs = np.concatenate([[a], grid[inside], [b]])
        fs = np.concatenate([[env.at(a)], vals[inside], [env.at(b)]])
        ref.append(np.trapezoid(xs ** (-p) * fs, xs))
    assert dyadic_block_integrals(env, d).tolist() == ref


# --- series / q = 1 ----------------------------------------------------------

def test_series_witness_spacing_and_terms():
    f = builtin_family("log_family", {"d": 2, "beta": 1.0})
    w = series_search(f, d=2)
    assert np.all(w.sequence[1:] / w.sequence[:-1] >= w.theta - 1e-12)
    expected = f.eval_raw(w.sequence) * w.sequence ** (-w.p)
    assert np.allclose(w.terms, expected, rtol=1e-12)


def _series_search_loop(f, d):
    """Reference: the witness search window by window, each window's
    candidates evaluated on their own."""
    theta, p = 2.0, 1.0 + 2.0 / d
    seq, terms, overflow = [], [], False
    for k in range(64):
        cands = np.array([theta ** (2 * k), theta ** (2 * k + 1)])
        vals = f.eval_raw(cands)
        if np.isnan(vals).any():
            raise AuditError("f undefined on the sampling grid")
        if np.isposinf(vals).any():
            overflow = True
            break
        with np.errstate(divide="ignore"):
            log_f = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)),
                             -np.inf)
        log_t = log_f - p * np.log(cands)
        i = int(np.argmax(log_t))
        seq.append(float(cands[i]))
        with np.errstate(over="ignore"):
            terms.append(float(np.exp(log_t[i])))
    return np.array(seq), np.array(terms), overflow


@pytest.mark.parametrize("text", [
    "s^2", "s^1.5/log(e+s)^2", "s + s^3.5", "0*s", "max(s-1,0)^2",
    "exp(s)", "s^200", "exp(s/100) + (exp(s/1e7) - exp(s/1e7))",
    "s^2 + (exp(s/1e7) - exp(s/1e7))",
    "exp(s/5e6) + (exp(s/1e7) - exp(s/1e7))",
    "exp(s/100) + (exp(s/1e13) - exp(s/1e13))",
    "s^2 + (exp(s/1e13) - exp(s/1e13))"])
@pytest.mark.parametrize("d", [1, 3])
def test_series_search_matches_the_window_loop(text, d):
    # series_search audits f first (a NaN below 2^48 is an AuditError), then
    # one evaluation on all 128 candidates gives the loop's witness: the
    # first window holding NaN (alone or beside +inf) is an AuditError, +inf
    # alone ends the witness as overflow, and later windows are never read
    f = parse_nonlinearity(text)
    try:
        monotonicity_audit(f)
        seq, terms, overflow = _series_search_loop(f, d)
    except AuditError:
        with pytest.raises(AuditError):
            series_search(f, d)
        return
    w = series_search(f, d)
    assert w.sequence.tobytes() == seq.tobytes()
    assert w.terms.tobytes() == terms.tobytes()
    assert w.partial_sums.tobytes() == np.cumsum(terms).tobytes()
    assert w.overflow == overflow


def test_series_critical_power_partial_sums():
    # f = s^p at p = 1 + 2/d: every term equals 1, partial sums grow linearly
    d = 2
    w = series_search(power(1.0 + 2.0 / d), d=d)
    assert np.allclose(w.terms, 1.0, rtol=1e-12)
    assert w.partial_sums[-1] == pytest.approx(len(w.terms))
    assert series_verdict(w).outcome == NO_LOCAL_EXISTENCE


def test_series_log_damped_oracle():
    # for f = s^p / log(e+s), terms are 1/log(e+s_k) with s_k = 2^(2k or 2k+1):
    # sum ~ sum 1/(2k log 2) diverges. Frozen brute-force partial sum oracle.
    d = 2
    f = builtin_family("log_family", {"d": d, "beta": 1.0})
    w = series_search(f, d=d)
    brute = sum(1.0 / math.log(math.e + s) for s in w.sequence)
    assert w.partial_sums[-1] == pytest.approx(brute, rel=1e-12)
    assert series_verdict(w).outcome == NO_LOCAL_EXISTENCE


def test_series_convergent_case():
    d = 2
    f = builtin_family("log_family", {"d": d, "beta": 3.0})
    assert series_verdict(series_search(f, d=d)).outcome == EXISTS


def test_equivalence_on_random_monotone_suite():
    rng = np.random.default_rng(7)
    decided = 0
    for _ in range(20):
        a = rng.uniform(1.3, 2.7)
        while 1.95 < a < 2.05:
            a = rng.uniform(1.3, 2.7)
        b = rng.uniform(0.0, 1.5)
        f = parse_nonlinearity(f"s^{a:.6f} * log(e+s)^{b:.6f}")
        rep = equivalence_check(f, d=2)
        if rep.agree is not None:
            decided += 1
            assert rep.agree, f.source_text
    assert decided >= 16


# --- critical exponent -------------------------------------------------------

def test_critical_exponent_pure_power():
    rep = critical_exponent_report(power(2.0), d=2)
    assert rep.gamma_star == pytest.approx(2.0, abs=5e-3)
    assert rep.q_star == pytest.approx(1.0, abs=5e-3)
    lo, hi = rep.bracket
    assert lo <= 2.0 <= hi


def test_critical_exponent_log_corrected():
    rep = critical_exponent_report(parse_nonlinearity("s^3*log(e+s)"), d=1)
    assert rep.gamma_star == pytest.approx(3.0, abs=0.05)
    assert rep.q_star == pytest.approx(1.0, abs=0.05)


def test_critical_exponent_bracket_consistent_with_classifier():
    rep = critical_exponent_report(power(3.0), d=2)
    lo, hi = rep.bracket
    # q values mapping strictly outside the gamma bracket must be decided
    # accordingly by the classifier (gamma = 1 + 2q/d)
    q_low = 2.0 * (lo - 0.2 - 1.0) / 2.0 * 1.0  # gamma = lo - 0.2, d = 2
    q_hi = 2.0 * (hi + 0.2 - 1.0) / 2.0
    if q_low > 1.0:
        assert classify_lq(power(3.0), q_low, 2).outcome == NO_LOCAL_EXISTENCE
    assert classify_lq(power(3.0), q_hi, 2).outcome == EXISTS


def test_critical_exponent_of_zero_nonlinearity():
    # f = 0 has no growth to measure: gamma* is its clamp 0, not NaN
    rep = critical_exponent_report(parse_nonlinearity("0*s"), d=2)
    assert rep.gamma_star == 0.0 and rep.q_star == -1.0  # d(0 - 1)/2
    assert rep.bracket == (0.0, 0.0)


@pytest.mark.parametrize("text", ["max(s-1e5,0)", "max(s-1e7,0)"])
def test_critical_exponent_where_f_vanishes_in_the_fit_windows(text):
    # f = 0 on part of the decade windows leaves their slope fits undefined:
    # gamma* is the middle of the bisection bracket, not NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = critical_exponent_report(parse_nonlinearity(text), d=2)
    assert math.isfinite(rep.gamma_star) and math.isfinite(rep.q_star)
    lo, hi = rep.bracket
    assert lo < rep.gamma_star < hi
    assert rep.q_star == 2 * (rep.gamma_star - 1.0) / 2


# --- whole space -------------------------------------------------------------

def test_whole_space_positive_at_zero():
    v = classify_whole_space(parse_nonlinearity("1 + s^2"), 2.0, 2)
    assert v.outcome == NO_LOCAL_EXISTENCE
    assert v.criterion == "WholeSpaceZero"


def test_whole_space_sublinear_at_zero():
    v = classify_whole_space(parse_nonlinearity("s^0.5"), 2.0, 2)
    assert v.outcome == NO_LOCAL_EXISTENCE
    assert v.criterion == "WholeSpaceZero"


def test_whole_space_defers_to_infinity_behaviour():
    assert classify_whole_space(parse_nonlinearity("s^1.5"), 2.0, 2).outcome \
        == EXISTS
    assert classify_whole_space(parse_nonlinearity("s^4"), 2.0, 2).outcome \
        == NO_LOCAL_EXISTENCE
    # the q = 1 route integrates the same F as classify_l1
    assert classify_whole_space(parse_nonlinearity("s^1.5"), 1.0, 2).outcome \
        == EXISTS


def test_whole_space_zero_nonlinearity():
    f = parse_nonlinearity("0*s")
    v = classify_whole_space(f, 2.0, 2)
    assert v.outcome == EXISTS
    assert v.evidence["near_zero"]["bounded"] is True
    # the L^1 block fit has no positive block to fit: undecided, never
    # NoLocalExistence
    assert classify_whole_space(f, 1.0, 2).outcome == INCONCLUSIVE
    assert classify_l1(f, 1).outcome == INCONCLUSIVE
    # f = 0 up to s = 1 has f(s)/s = 0 near 0 as well
    v = classify_whole_space(parse_nonlinearity("max(s-1,0)^2"), 2.0, 2)
    assert v.outcome == EXISTS


@pytest.mark.parametrize("text", ["s", "2*s", "s+s^2", "s^1.02"])
def test_near_zero_ratio_that_does_not_grow_is_bounded(text):
    assert near_zero_ratio_check(parse_nonlinearity(text))["bounded"] is True


@pytest.mark.parametrize("text", ["s^0.99", "s^0.97+s^2", "s*(2+s)/(1+s)"])
def test_near_zero_ratio_growing_toward_zero_is_undecided(text):
    # f(s)/s grows as s -> 0, more slowly than the slope dead band sees; the
    # first two grow without bound, so Exists would be wrong
    f = parse_nonlinearity(text)
    assert near_zero_ratio_check(f)["bounded"] is None
    assert classify_whole_space(f, 2.0, 2).outcome == INCONCLUSIVE


def test_whole_space_l1_ratio_bounded_at_zero_is_not_nonexistence():
    # f(s)/s -> 2 as s -> 0+ and the bounded-domain verdict is Exists, so
    # the truth is Exists; a ratio falling slowly in s must not read as a
    # divergence at the origin
    f = parse_nonlinearity("s + s/(1+s^0.01)")
    assert classify_l1(f, 2).outcome == EXISTS
    assert classify_whole_space(f, 1.0, 2).outcome != NO_LOCAL_EXISTENCE


@pytest.mark.parametrize("f", [
    parse_nonlinearity("s"), parse_nonlinearity("2*s"),
    parse_nonlinearity("s^1.5"), parse_nonlinearity("s^2"),
    parse_nonlinearity("s+s^2"),
    builtin_family("log_family", {"d": 2, "beta": 2.0})],
    ids=["s", "2s", "s^1.5", "s^2", "s+s^2", "log_family-2"])
def test_whole_space_l1_is_the_bounded_domain_characterisation(f):
    # with f(s)/s bounded near 0, the whole-space q = 1 verdict is the
    # bounded-domain L^1 verdict on the same F(s) = sup_{1<=t<=s} f(t)/t
    whole, bounded = classify_whole_space(f, 1.0, 2), classify_l1(f, 2)
    assert whole.evidence["near_zero"]["bounded"] is True
    assert (whole.outcome, whole.criterion, whole.dead_band) == \
        (bounded.outcome, bounded.criterion, bounded.dead_band)
    evidence = {k: v for k, v in whole.evidence.items() if k != "near_zero"}
    assert evidence.keys() == bounded.evidence.keys()
    for key, value in evidence.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, bounded.evidence[key]), key
        else:
            assert value == bounded.evidence[key], key


# --- serialization -----------------------------------------------------------

def test_verdict_json_roundtrip():
    v = classify_lq(power(4.0), 2.0, 2)
    data = json.loads(json.dumps(jsonable(v.to_dict()), allow_nan=False))
    assert data["outcome"] == NO_LOCAL_EXISTENCE
    assert data["criterion"] == "LqLimsup"
    assert data["dead_band"] == pytest.approx(0.05)
    assert len(data["evidence"]["grid"]) == len(data["evidence"]["grid_values"])


def test_verdict_evidence_rows():
    v = classify_l1(builtin_family("log_family", {"d": 2, "beta": 2.0}), 2)
    rows = v.evidence_rows()
    assert len(rows) >= 8
    assert all(len(r) == 2 for r in rows)
