"""Tests for the existence classifiers.

Oracles: closed-form convergence of int s^-(1+2/d) F(s) ds for power and
log-damped families, a brute partial-sum check for the witness series, and
internal consistency (monotonicity in q, scale invariance, dead-band honesty).
"""

import json
import math

import numpy as np
import pytest

from heatlab import builtin_family, parse_nonlinearity, sup_ratio_envelope
from heatlab.criteria import (
    EXISTS,
    INCONCLUSIVE,
    NO_LOCAL_EXISTENCE,
    AuditError,
    classify_l1,
    classify_lq,
    classify_whole_space,
    critical_exponent_report,
    decide_blocks,
    decide_tail,
    equivalence_check,
    integral_tail_test,
    jsonable,
    limsup_estimate,
    series_search,
    series_verdict,
)


def power(p):
    return builtin_family("power", {"p": p})


# --- limsup / q > 1 ----------------------------------------------------------

def test_limsup_slope_matches_exponent_gap():
    # g(s) = s^(p - gamma): the fitted log-log tail slope is exact
    est = limsup_estimate(power(3.0), gamma=2.5)
    assert est.trend == pytest.approx(0.5, abs=1e-9)
    est = limsup_estimate(power(2.0), gamma=2.5)
    assert est.trend == pytest.approx(-0.5, abs=1e-9)


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


def test_classify_lq_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_lq(power(2.0), q=1.0, d=2)
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
    from heatlab import criteria
    bands = {"sigma": criteria.SIGMA_DEAD_BAND, "tau": criteria.TAU_DEAD_BAND}
    f = power(3.0)
    for v in (classify_l1(f, 1), series_verdict(series_search(f, 1)),
              classify_whole_space(f, 1.0, 1)):
        assert v.criterion in ("L1Integral", "L1Series")
        assert v.dead_band == bands
        assert json.loads(json.dumps(jsonable(v)))["dead_band"] == bands
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


def test_integral_blocks_against_quadrature():
    # dyadic block integrals agree with adaptive quadrature of s^-(1+2/d) f(s)/s
    from scipy.integrate import quad
    d = 2
    f = builtin_family("log_family", {"d": d, "beta": 2.0})
    env = sup_ratio_envelope(f, float(2 ** 34))
    from heatlab.criteria import dyadic_block_integrals
    blocks = dyadic_block_integrals(env, d, float(2 ** 32))
    p = 1.0 + 2.0 / d
    for j in (0, 5, 12, 20):
        a, b = 2.0 ** j, 2.0 ** (j + 1)
        # the envelope equals f(s)/s here (monotone ratio family)
        ref, _ = quad(lambda s: s ** (-p) * f.eval_raw(np.array([s]))[0] / s,
                      a, b, limit=200)
        # trapezoid on the ratio-1.05 envelope grid is second order accurate
        assert blocks[j] == pytest.approx(ref, rel=1e-3)


def test_integral_requires_long_envelope():
    env = sup_ratio_envelope(power(2.0), 1e4)
    with pytest.raises(ValueError):
        integral_tail_test(env, 2)


# --- series / q = 1 ----------------------------------------------------------

def test_series_witness_spacing_and_terms():
    f = builtin_family("log_family", {"d": 2, "beta": 1.0})
    w = series_search(f, d=2)
    assert np.all(w.sequence[1:] / w.sequence[:-1] >= w.theta - 1e-12)
    expected = f.eval_raw(w.sequence) * w.sequence ** (-w.p)
    assert np.allclose(w.terms, expected, rtol=1e-12)


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
    # q = 1 route uses the 0+ envelope
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


# --- serialization -----------------------------------------------------------

def test_verdict_json_roundtrip():
    v = classify_lq(power(4.0), 2.0, 2)
    data = json.loads(json.dumps(jsonable(v), allow_nan=False))
    assert data["outcome"] == NO_LOCAL_EXISTENCE
    assert data["criterion"] == "LqLimsup"
    assert data["dead_band"] == pytest.approx(0.05)
    assert len(data["evidence"]["grid"]) == len(data["evidence"]["grid_values"])


def test_verdict_evidence_rows():
    v = classify_l1(builtin_family("log_family", {"d": 2, "beta": 2.0}), 2)
    rows = v.evidence_rows()
    assert len(rows) >= 8
    assert all(len(r) == 2 for r in rows)
