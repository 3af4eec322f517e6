"""Tests for the existence classifiers.

Oracles: closed-form convergence of int s^-(1+2/d) F(s) ds for power and
log-damped families, a brute partial-sum check for the witness series, the
bound of the witness partial sum by the upper step function of F (a
theorem, so the sampled numbers check the series verdict's premises),
sympy's Gruntz limits for the leading terms (when sympy is installed), and
internal consistency (monotonicity in q, scale invariance).
"""

import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab.criteria import (
    EXISTS,
    INCONCLUSIVE,
    NO_LOCAL_EXISTENCE,
    classify_l1,
    classify_lq,
    classify_whole_space,
    critical_exponent_report,
    duhamel_lower_bound,
    equivalence_check,
    jsonable,
    near_zero_ratio_check,
    series_search,
    series_verdict,
)
import heatlab.criteria as criteria
import heatlab.nonlinearity as nonlinearity
from heatlab.nonlinearity import (ENVELOPE_S_MAX, UNKNOWN, ZERO, AuditError,
                                  NonlinearityExpr, builtin_family,
                                  leading_term, monotonicity_audit,
                                  parse_nonlinearity, sup_ratio_envelope)
from heatlab.heatkernel import BallIndicator
from heatlab.solver import find_existence_horizon

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" /
    "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def power(p):
    return builtin_family("power", {"p": p})


# --- limsup / q > 1 ----------------------------------------------------------

def test_limsup_slope_matches_exponent_gap():
    # the evidence is the leading term of f and the power gamma = 1 + 2q/d
    # it is compared with (q = 1.5, d = 2: gamma = 2.5)
    for p in (3.0, 2.0):
        evidence = classify_lq(power(p), 1.5, 2).evidence
        assert evidence == {"gamma": 2.5, "leading_term": {
            "coefficient": 1.0, "power": p, "log_power": 0.0,
            "loglog_power": 0.0}}


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
    assert v.evidence["leading_term"]["power"] == math.inf


@pytest.mark.parametrize("f, q, d", [
    ("0*s", 2.0, 1),       # f = 0: log g = -inf on the whole tail
    ("s^2", 1e307, 1),     # s^-gamma underflows: gamma log s overflows
])
def test_classify_lq_vanishing_tail_means_existence(f, q, d):
    # f = 0, or a gamma = 1 + 2q/d far above the power of f: Exists
    v = classify_lq(parse_nonlinearity(f), q, d)
    assert v.outcome == EXISTS
    assert v.evidence["gamma"] > 1e300 or v.evidence["leading_term"] == "zero"


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
    "max(0, 2e9 - s)*s^2", "s^2*exp(-s/1e9)", "s^26 + s^25 - s^25", "2 - s"])
@pytest.mark.parametrize("route", ["lq", "whole_space", "series", "horizon",
                                   "lower_bound"])
def test_every_route_audits_up_to_2_48(text, route):
    # the first three f are non-decreasing up to 1e8 and leave the theorem's
    # scope below 2^48: they decrease from s = 1.3e9 or 2e9, or are inf - inf
    # = NaN from 2.3e12; 2 - s decreases from 0 and is negative from 2.
    # Every route refuses them, as classify at q = 1 does: the horizon for
    # zero data too (it granted T = 1 for 2 - s), and the lower bound (it
    # certified a value for 2 - s)
    f = parse_nonlinearity(text)
    run = {"lq": lambda: classify_lq(f, 2.0, 1),
           "whole_space": lambda: classify_whole_space(f, 2.0, 1),
           "series": lambda: series_search(f, 1),
           "horizon": lambda: find_existence_horizon(0.0, f, 2, A=2.0),
           "lower_bound": lambda: duhamel_lower_bound(
               BallIndicator(0.5), f, 0.01, 1, q=1.0)}[route]
    with pytest.raises(AuditError):
        run()


@pytest.mark.parametrize("route", ["l1", "lq", "whole_space", "equivalence",
                                   "lower_bound", "t1_predictions"])
def test_points_are_read_on_floats(monkeypatch, route):
    # eval_floats reads f at points and eval_raw at arrays: the verdicts, the
    # Duhamel lower bound and the T1 schedule with its predictions read f on
    # Python floats; only the solver's fields and the ratio envelope take
    # arrays
    from heatlab.databuilder import build_t1_data, predicted_bounds

    def eval_raw(self, s):
        raise AssertionError("eval_raw was called")
    monkeypatch.setattr(NonlinearityExpr, "eval_raw", eval_raw)
    f = parse_nonlinearity("s^4")
    run = {"l1": lambda: classify_l1(f, 1),
           "lq": lambda: classify_lq(f, 2.0, 1),
           "whole_space": lambda: classify_whole_space(f, 1.0, 1),
           "equivalence": lambda: equivalence_check(f, 1),
           "lower_bound": lambda: duhamel_lower_bound(
               BallIndicator(0.5), f, 0.01, 1, q=1.0),
           "t1_predictions": lambda: predicted_bounds(build_t1_data(
               f, d=1, q=1.0, N=4, epsilon=0.5, R=1.0)[0])}[route]
    assert run() is not None


@pytest.mark.parametrize("route, q, d", [
    ("lq", math.nan, 2), ("whole_space", math.nan, 2),
    ("lq", math.inf, 2), ("whole_space", math.inf, 2),
    ("lq", 1e308, 1), ("whole_space", 1e308, 1),
    ("whole_space", 0.5, 2), ("l1", 1.0, -1), ("l1", 1.0, 0),
    ("l1", 1.0, 2.5), ("lq", 2.0, 1.0), ("critical", 1.0, 0),
    ("series", 1.0, 0), ("equivalence", 1.0, -3), ("horizon", 1.0, 0),
    ("l1", 1.0, 2**54), ("l1", 1.0, 10**17), ("equivalence", 1.0, 10**17),
    pytest.param("l1", 1.0, 10**400, id="l1-1.0-10^400"),
    ("lower_bound", 0.0, 1), ("lower_bound", 0.5, 1),
    ("lower_bound", math.nan, 1)])
def test_out_of_scope_q_and_d_are_refused(route, q, d):
    # every route decides or certifies only for 1 <= q < inf and d a
    # positive integer, with 1 < 1 + 2q/d < inf (at q = 1e308, d = 1 it
    # overflows, and exp(s) read Exists; from d = 2^54 on it rounds to 1, and
    # s log(e+s) read NoLocalExistence at q = 1; d = 10^400 does not convert
    # to a double, and was an OverflowError); elsewhere it is a one-line
    # ValueError, never a verdict or a number (the lower bound gave one at
    # q = 0.5, and divided by zero at q = 0)
    f = power(2.0)
    run = {"lq": lambda: classify_lq(f, q, d),
           "whole_space": lambda: classify_whole_space(f, q, d),
           "l1": lambda: classify_l1(f, d),
           "critical": lambda: critical_exponent_report(f, d),
           "series": lambda: series_search(f, d),
           "equivalence": lambda: equivalence_check(f, d),
           "horizon": lambda: find_existence_horizon(0.0, f, d, A=2.0),
           "lower_bound": lambda: duhamel_lower_bound(
               BallIndicator(0.5), f, 0.01, d, q=q)}[route]
    with pytest.raises(ValueError, match="out of scope") as exc:
        run()
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("text, d, r, amplitude, message", [
    ("exp(s)", 1, 0.5, 1e5,
     "nonlinearity overflow in the lower-bound integrand"),
    ("s^2", 40, 1e8, 1.0, "(r + sqrt t)^d overflows in d = 40")])
def test_lower_bound_refuses_overflow(text, d, r, amplitude, message):
    # f overflowing in the integrand and a ball volume beyond the double
    # range are OverflowErrors, which the CLI prints as one line with exit 1
    with pytest.raises(OverflowError) as exc:
        duhamel_lower_bound(BallIndicator(r, amplitude),
                            parse_nonlinearity(text), 0.01, d, q=1.0)
    assert str(exc.value) == message


def test_classify_lq_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_lq(power(2.0), q=1.0, d=2)
    for d in (0, -2):  # outside the theorem: no verdict
        with pytest.raises(ValueError, match="positive dimension"):
            classify_lq(power(2.0), q=2.0, d=d)
    with pytest.raises(AuditError):
        classify_lq(parse_nonlinearity("1/(1+s)"), 2.0, 2)


def test_l1_verdicts_report_the_bands_that_decide():
    # every route, the series one included, decides from the leading term:
    # the constants block of every report holds the kernel's numbers alone,
    # and no verdict carries a dead band
    import heatlab.criteria as criteria
    from heatlab.cli import constants_block
    assert set(constants_block(1)) == {"kernel", "kernel_rel_tol"}
    f = power(3.0)
    for v in (classify_l1(f, 1), series_verdict(series_search(f, 1)),
              classify_whole_space(f, 1.0, 1), classify_lq(f, 2.0, 1)):
        assert "dead_band" not in v.to_dict()
    for name in ("SLOPE_DEAD_BAND", "BLOCK_RATIO_DEAD_BAND", "decide_tail",
                 "SIGMA_DEAD_BAND", "TAU_DEAD_BAND", "block_trend_fit",
                 "decide_blocks"):
        assert not hasattr(criteria, name)


# --- integral / q = 1 --------------------------------------------------------

def test_classify_l1_log_family_boundary():
    # F(s) ~ s^(2/d)/log(s)^beta; the integral converges iff beta > 1
    d = 2
    for beta in (0.0, 0.5, 1.0):
        f = builtin_family("log_family", {"d": d, "beta": beta})
        assert classify_l1(f, d).outcome == NO_LOCAL_EXISTENCE, beta
    # beta = 1.1 converges, however slowly: its dyadic blocks fall like
    # k^-1.1
    for beta in (1.1, 1.5, 2.0, 4.0, 5.0, 6.0):
        f = builtin_family("log_family", {"d": d, "beta": beta})
        assert classify_l1(f, d).outcome == EXISTS, beta


def test_classify_l1_powers():
    d = 3
    p = 1.0 + 2.0 / d
    assert classify_l1(power(p - 0.3), d).outcome == EXISTS
    assert classify_l1(power(p + 0.3), d).outcome == NO_LOCAL_EXISTENCE


@pytest.mark.parametrize("d", [51, 200])
def test_classify_l1_linear_f_exists_in_high_dimension(d):
    # F = 1, so int_1^inf s^-(1+2/d) F(s) ds = d/2 converges in every d
    assert classify_l1(parse_nonlinearity("s"), d).outcome == EXISTS


# (family, params, d, q) of the benchmark's decide inputs at seed 101 that a
# sampled block fit read as NoLocalExistence; each is L^1-subcritical
DECIDE_SEED_101 = [
    ("log_family", {"beta": 4.982571004839671}, 2, 2.972927013840491),
    ("log_family", {"beta": 3.9813914495023637}, 3, 1.80645000181767),
    ("log_family", {"beta": 3.631004326159343}, 3, 3.1081343197813522),
    ("log_family", {"beta": 4.309119909983674}, 3, 2.43145000181767),
    ("log_family", {"beta": 3.3032758656780326}, 3, 2.4831343197813522),
    ("log_family", {"beta": 6.16239346257239}, 2, 2.347927013840491),
    ("log_family", {"beta": 4.964576830946295}, 3, 3.05645000181767),
    ("s_plus_power", {"p": 2.9768408242019317}, 1, 1.6039566215986931),
    ("log_family", {"beta": 5.375845157417244}, 2, 3.597927013840491),
    ("log_family", {"beta": 9.25987614522601}, 1, 1.9098617963417786),
    ("log_family", {"beta": 5.769119309994817}, 2, 1.7229270138404909),
    ("log_family", {"beta": 4.6368483704649845}, 3, 3.68145000181767),
]


@pytest.mark.parametrize("family, params, d, q", DECIDE_SEED_101,
                         ids=[f"{fam}-{d}-{list(p.values())[0]:.4f}"
                              for fam, p, d, _ in DECIDE_SEED_101])
def test_decide_inputs_read_exactly(family, params, d, q):
    if family == "log_family":
        f = builtin_family(family, {"d": d, **params})
    else:
        f = parse_nonlinearity(f"s + s^{params['p']!r}")
    for v in (classify_l1(f, d), classify_lq(f, q, d),
              classify_whole_space(f, q, d)):
        assert v.outcome == EXISTS, v.criterion
    rep = equivalence_check(f, d)
    assert rep.agree is True and rep.integral_verdict.outcome == EXISTS


# --- series / q = 1 ----------------------------------------------------------

def test_series_witness_spacing_and_terms():
    f = builtin_family("log_family", {"d": 2, "beta": 1.0})
    w = series_search(f, d=2)
    seq = np.asarray(w.sequence)
    assert np.all(seq[1:] / seq[:-1] >= w.theta - 1e-12)
    expected = f.eval_raw(seq) * seq ** (-w.p)
    assert np.allclose(w.terms, expected, rtol=1e-12)


def _series_search_loop(f, d):
    """Reference: the witness search window by window, each window's
    candidates evaluated on their own by the float evaluator that
    series_search reads (eval_floats), with math's log and exp."""
    theta, p = 2.0, 1.0 + 2.0 / d
    seq, terms, overflow = [], [], False
    for k in range(64):
        cands = [theta ** (2 * k), theta ** (2 * k + 1)]
        vals = f.eval_floats(cands)
        if any(math.isnan(v) for v in vals):
            raise AuditError("f undefined on the sampling grid")
        if math.inf in vals:
            overflow = True
            break
        log_t = [(math.log(max(v, 1e-300)) if v > 0 else -math.inf)
                 - p * math.log(c) for v, c in zip(vals, cands)]
        i = int(np.argmax(log_t))
        seq.append(cands[i])
        try:
            terms.append(math.exp(log_t[i]))
        except OverflowError:
            terms.append(math.inf)
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
    assert np.array(w.sequence).tobytes() == seq.tobytes()
    assert np.array(w.terms).tobytes() == terms.tobytes()
    assert np.array(w.partial_sums).tobytes() == np.cumsum(terms).tobytes()
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


# (f, d, the closed-form L^1 verdict) just either side of the threshold:
# with p* = 1 + 2/d, the integral converges iff the leading term
# s^a (log s)^b (log log s)^c of f has (a, b, c) < (p*, -1, -1). The last
# witness overflows a double in its tenth window, and still converges.
NEAR_THRESHOLD = [
    ("s^2.98", 1, EXISTS),                                # a < 3
    ("s + s^2.99", 1, EXISTS),                            # a < 3
    ("s^3/log(e+s)^1.01", 1, EXISTS),                     # b < -1
    ("s^3.01/log(e+s)^2", 1, NO_LOCAL_EXISTENCE),         # a > 3
    ("s^3/(log(e+s)*log(e+log(e+s)))", 1, NO_LOCAL_EXISTENCE),  # c = -1
    ("s^2/log(e+s)^1.2", 2, EXISTS),                      # b < -1
    ("1e300*s^1.5", 2, EXISTS),                           # a < 2
]


@pytest.mark.parametrize("text, d, truth", NEAR_THRESHOLD,
                         ids=[f"{t}-{d}" for t, d, _ in NEAR_THRESHOLD])
def test_series_verdict_is_the_closed_form_answer(text, d, truth):
    rep = equivalence_check(parse_nonlinearity(text), d)
    assert rep.series_verdict.outcome == rep.integral_verdict.outcome == truth
    assert rep.agree is True
    # both routes read one leading term of f
    assert rep.series_verdict.evidence["leading_term"] == \
        rep.integral_verdict.evidence["leading_term"]
    assert rep.series_verdict.evidence["overflow"] == (text == "1e300*s^1.5")


def _near_threshold_sweep():
    """208 (f, d, closed-form verdict) near p* = 1 + 2/d, d = 1, 2, 3, 5:
    s^p, s + s^p and s^p log(e+s)^(+-2) with p within 0.1 of p* (Exists iff
    p < p*), s^p* / log(e+s)^beta (Exists iff beta > 1) and s^p* /
    (log(e+s) log(e+log(e+s))^beta) (Exists iff beta > 1), beta in [0.5, 3].
    """
    cases = []
    for d in (1, 2, 3, 5):
        ps = 1.0 + 2.0 / d
        for dp in (-0.1, -0.03, -0.01, -0.001, 0.001, 0.01, 0.03, 0.1):
            p, truth = ps + dp, EXISTS if dp < 0 else NO_LOCAL_EXISTENCE
            cases += [(text, d, truth) for text in (
                f"s^{p!r}", f"s + s^{p!r}", f"s^{p!r}*log(e+s)^2",
                f"s^{p!r}/log(e+s)^2")]
        for beta in (0.5, 0.75, 0.9, 1.0, 1.01, 1.1, 1.25, 1.5, 2.0, 3.0):
            truth = EXISTS if beta > 1 else NO_LOCAL_EXISTENCE
            cases += [(f"s^{ps!r}/log(e+s)^{beta!r}", d, truth),
                      (f"s^{ps!r}/(log(e+s)*log(e+log(e+s))^{beta!r})", d,
                       truth)]
    return cases


def test_series_and_integral_agree_near_the_l1_threshold():
    cases = _near_threshold_sweep()
    assert len(cases) == 208
    wrong = []
    for text, d, truth in cases:
        rep = equivalence_check(parse_nonlinearity(text), d)
        if not (rep.series_verdict.outcome == rep.integral_verdict.outcome
                == truth):
            wrong.append((text, d, rep.series_verdict.outcome,
                          rep.integral_verdict.outcome, truth))
    assert wrong == []


def _witness_sum_and_bound(f, d):
    """The partial sum of the witness terms t_k = s_k^-p f(s_k) with
    theta s_k <= ENVELOPE_S_MAX, and its bound C_theta sum_i values[i] int
    over [g_i, g_(i+1)] of s^-p ds, C_theta = (p - 1)/(1 - theta^(1 - p)),
    by the upper step function of F from sup_ratio_envelope.

    f(s_k)/s_k <= F(s_k) and F is non-decreasing, so t_k <= C_theta int
    over [s_k, theta s_k] of s^-p F(s) ds; consecutive picks lie at least
    theta apart, so these cells are disjoint, and F <= values[i] on cell i.
    """
    w, env = series_search(f, d), sup_ratio_envelope(f)
    theta, p, g = w.theta, w.p, env.grid
    total = math.fsum(t for s, t in zip(w.sequence, w.terms)
                      if theta * s <= ENVELOPE_S_MAX)
    cells = g[:-1] ** (1.0 - p) - g[1:] ** (1.0 - p)
    return total, math.fsum((env.values * cells).tolist()) / \
        (1.0 - theta ** (1.0 - p))


@pytest.mark.parametrize("text", [
    "s^2", "s^2.9", "s^3/log(e+s)^1.5", "s + s^1.5", "max(s, s^1.9)",
    "s^1.6/log(e+s)^0.5", "s^1.2", "s*log(e+s)^3", "s^0.5", "10*s"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_witness_partial_sum_is_bounded_by_the_envelope(text, d):
    # a theorem on the sampled numbers: a failure is a bug in the witness,
    # the envelope or the evaluation of f
    total, bound = _witness_sum_and_bound(parse_nonlinearity(text), d)
    assert 0.0 < total <= bound


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.5, 3.5), b=st.floats(-1.0, 3.0),
       d=st.sampled_from([1, 2, 3]))
def test_witness_partial_sum_bound_on_drawn_log_powers(a, b, d):
    f = parse_nonlinearity(f"s^{a!r}*log(e+s)^{b!r}")
    total, bound = _witness_sum_and_bound(f, d)
    assert 0.0 < total <= bound


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_every_command_audits_f_once(monkeypatch, tmp_path, name):
    # each README command audits its f once, and equivalence_suite once per
    # case: the routes that decide or certify audit f themselves, and the
    # CLI audits only for simulate and blowup_trend, whose routes do not.
    # Each audit walks f's tree at infinity once, and the classifiers
    # decide from the term it returns
    grids, walks = [], []
    real_eval, real_term = NonlinearityExpr.eval_floats, leading_term

    def counting_eval(self, points):
        points = list(points)
        grids.append(len(points))
        return real_eval(self, points)

    def counting_term(expr, at):
        walks.append(at)
        return real_term(expr, at)

    monkeypatch.setattr(NonlinearityExpr, "eval_floats", counting_eval)
    for module in (nonlinearity, criteria):
        monkeypatch.setattr(module, "leading_term", counting_term)
    argv = golden.COMMANDS[name]
    golden.run(argv, tmp_path)
    audits = (0 if name == "verify_kernel" else
              int(argv[argv.index("--count") + 1])
              if name == "equivalence_suite" else 1)
    assert grids.count(nonlinearity.AUDIT_SAMPLES) == audits
    assert walks.count(math.inf) == audits


# --- critical exponent -------------------------------------------------------

def test_critical_exponent_pure_power():
    rep = critical_exponent_report(power(2.0), d=2)
    assert (rep.gamma_star, rep.q_star, rep.bracket) == (2.0, 1.0, (2.0, 2.0))


def test_critical_exponent_log_corrected():
    rep = critical_exponent_report(parse_nonlinearity("s^3*log(e+s)"), d=1)
    assert (rep.gamma_star, rep.q_star, rep.bracket) == (3.0, 1.0, (3.0, 3.0))


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
    # f = 0 up to 1e5 or 1e7 does not hide its growth: gamma* = 1, exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = critical_exponent_report(parse_nonlinearity(text), d=2)
    assert (rep.gamma_star, rep.q_star, rep.bracket) == (1.0, 0.0, (1.0, 1.0))


@pytest.mark.parametrize("text, gamma_star", [
    ("exp(s)", math.inf), ("exp(log(1+s)^2)", math.inf),
    ("exp(log(s))", math.nan)])
def test_critical_exponent_beyond_every_power_or_unknown(text, gamma_star):
    # beyond every power gamma* = q* = inf; an unknown term leaves gamma*
    # undetermined in [0, inf]
    rep = critical_exponent_report(parse_nonlinearity(text), d=2)
    assert rep.gamma_star == gamma_star or math.isnan(gamma_star) and \
        math.isnan(rep.gamma_star)
    assert rep.bracket == ((math.inf, math.inf) if gamma_star == math.inf
                           else (0.0, math.inf))


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
    # f = 0 has F = 0: the L^1 integral converges
    assert classify_whole_space(f, 1.0, 2).outcome == EXISTS
    assert classify_l1(f, 1).outcome == EXISTS
    # f = 0 up to s = 1 has f(s)/s = 0 near 0 as well
    v = classify_whole_space(parse_nonlinearity("max(s-1,0)^2"), 2.0, 2)
    assert v.outcome == EXISTS


@pytest.mark.parametrize("text", ["s", "2*s", "s+s^2", "s^1.02"])
def test_near_zero_ratio_that_does_not_grow_is_bounded(text):
    assert near_zero_ratio_check(parse_nonlinearity(text))["bounded"] is True


@pytest.mark.parametrize("text, q, outcome", [
    ("s^0.99", 1.0, NO_LOCAL_EXISTENCE),
    ("s^0.99", 2.0, NO_LOCAL_EXISTENCE),
    ("s^0.97+s^2", 2.0, NO_LOCAL_EXISTENCE),
    ("s*(2+s)/(1+s)", 2.0, EXISTS),
    ("s + s/(1+s^0.01)", 1.0, EXISTS)])
def test_whole_space_reads_the_leading_term_at_zero(text, q, outcome):
    # f(s)/s grows without bound as s -> 0 for the first three (like s^-0.01
    # or s^-0.03), and tends to 2 for the last two
    f = parse_nonlinearity(text)
    assert near_zero_ratio_check(f)["bounded"] is (outcome == EXISTS)
    assert classify_whole_space(f, q, 2).outcome == outcome


def test_whole_space_l1_ratio_bounded_at_zero_is_not_nonexistence():
    # f(s)/s -> 2 as s -> 0+ and the bounded-domain verdict is Exists, so
    # the truth is Exists; a ratio falling slowly in s must not read as a
    # divergence at the origin
    f = parse_nonlinearity("s + s/(1+s^0.01)")
    assert classify_l1(f, 2).outcome == EXISTS
    assert classify_whole_space(f, 1.0, 2).outcome == EXISTS


def test_whole_space_unknown_term_at_zero_is_inconclusive():
    # log(1 + s) ~ s at 0+, but the walk reads log of a term tending to 1 as
    # unknown: an Exists at infinity cannot be certified
    f = parse_nonlinearity("log(1+s)")
    assert near_zero_ratio_check(f)["bounded"] is None
    assert classify_whole_space(f, 2.0, 2).outcome == INCONCLUSIVE


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
    assert (whole.outcome, whole.criterion) == \
        (bounded.outcome, bounded.criterion)
    evidence = {k: v for k, v in whole.evidence.items() if k != "near_zero"}
    assert evidence == bounded.evidence


# --- serialization -----------------------------------------------------------

def test_verdict_json_roundtrip():
    v = classify_lq(power(4.0), 2.0, 2)
    data = json.loads(json.dumps(jsonable(v.to_dict()), allow_nan=False))
    assert data == {"outcome": NO_LOCAL_EXISTENCE, "criterion": "LqLimsup",
                    "evidence": {"gamma": 3.0, "leading_term": {
                        "coefficient": 1.0, "power": 4.0, "log_power": 0.0,
                        "loglog_power": 0.0}}}
    # beyond every power: the infinite power is spelled out
    v = classify_lq(parse_nonlinearity("exp(s)"), 2.0, 2)
    data = json.loads(json.dumps(jsonable(v.to_dict()), allow_nan=False))
    assert data["evidence"]["leading_term"]["power"] == "inf"


# --- leading terms against sympy's Gruntz limits ------------------------------

def _sympy_exponents(node, at):
    """(lim log f / log s, and where that limit a is finite, lim (log f -
    a log s) / log log(1/s or s)) of the tree by sympy; max picks the
    argument that sympy finds larger."""
    sp = pytest.importorskip("sympy")
    s = sp.Symbol("s", positive=True)
    point = sp.oo if at == math.inf else 0

    def limit(expr):
        return sp.limit(expr, s, point, "+" if point == 0 else "-")

    def build(n):
        op = n[0]
        if op == "s":
            return s
        if op == "num":
            return sp.Rational(n[1])
        args = [build(c) for c in n[1:]]
        if op == "max":
            x, y = args
            return x if limit(x / y) >= 1 else y
        return {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
                "*": lambda x, y: x * y, "/": lambda x, y: x / y,
                "^": lambda x, y: x ** y, "neg": lambda x: -x,
                "log": sp.log, "exp": sp.exp}[op](*args)

    f = build(node)
    log_t = sp.log(s) if at == math.inf else -sp.log(s)
    a = limit(sp.log(f) / log_t)
    b = limit((sp.log(f) - a * log_t) / sp.log(log_t)) if a.is_finite \
        else None
    return a, b


def _assert_matches_sympy(f):
    for at in (math.inf, 0.0):
        term = leading_term(f, at)
        if term in (UNKNOWN, ZERO):  # an unknown term is allowed
            continue
        try:
            a, b = _sympy_exponents(f.root, at)
        except NotImplementedError:  # beyond sympy's Gruntz: no oracle here
            continue
        assert float(a) == pytest.approx(term[1], rel=1e-12, abs=1e-12), \
            (f.source_text, at, term, a)
        if b is not None:
            assert float(b) == pytest.approx(term[2], rel=1e-12,
                                             abs=1e-12), \
                (f.source_text, at, term, b)


FAMILY_GRID = [
    *(builtin_family("power", {"p": p}) for p in (0.5, 1.0, 2.5)),
    *(builtin_family("log_family", {"d": d, "beta": beta})
      for d in (1, 3) for beta in (0.0, 1.0, 2.5)),
    *(builtin_family("piecewise_power", {"p_low": lo, "p_high": hi})
      for lo, hi in ((0.5, 2.0), (3.0, 1.5))),
    *(parse_nonlinearity(f"s + s^{p!r}") for p in (0.7, 2.977)),
    *(parse_nonlinearity(f"s^{a!r} * log(e + s)^{b!r}")
      for a, b in ((1.5, 0.5), (1.64295, 1.236362), (2.0, -1.5))),
]


@pytest.mark.parametrize("f", FAMILY_GRID, ids=lambda f: f.source_text)
def test_leading_term_of_the_families_matches_sympy(f):
    _assert_matches_sympy(f)


def _trees():
    """Small positive trees of the grammar: s and positive constants,
    joined by +, *, /, max, constant powers, log(e + .) and exp(-1/.)."""
    leaves = st.one_of(st.just(("s",)), st.sampled_from(
        [("num", 0.5), ("num", 2.0), ("num", 3.0)]))

    def grow(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda p: ("+", *p)), pair.map(lambda p: ("*", *p)),
            pair.map(lambda p: ("/", *p)), pair.map(lambda p: ("max", *p)),
            st.tuples(children, st.sampled_from([0.5, 1.5, 2.0, -1.0])).map(
                lambda p: ("^", p[0], ("num", p[1]))),
            children.map(lambda c: ("log", ("+", ("num", math.e), c))),
            children.map(lambda c: ("exp", ("neg", ("/", ("num", 1.0), c)))))
    return st.recursive(leaves, grow, max_leaves=4)


@settings(max_examples=25, deadline=None)
@given(_trees())
def test_leading_term_of_grammar_trees_matches_sympy(root):
    from heatlab.nonlinearity import NonlinearityExpr
    _assert_matches_sympy(NonlinearityExpr(root=root, source_text=repr(root)))
