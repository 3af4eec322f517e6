"""Top-level acceptance suite.

Each test covers one headline property of the package and prints a single
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them
live). The eight checks together exercise the classifier tables, the kernel
certification, the monotone iteration scheme, the lower-bound chain for the
concentrating data families, and the forward-simulation invariants.
"""

import functools
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from heatlab.cli import main as cli_main
from heatlab.criteria import (
    EXISTS,
    INCONCLUSIVE,
    NO_LOCAL_EXISTENCE,
    classify_l1,
    classify_lq,
    duhamel_lower_bound,
    equivalence_check,
)
from heatlab.databuilder import build_t1_data, predicted_bounds
from heatlab.heatkernel import (
    BallIndicator,
    heat_on_ball,
    verify_lower_bounds,
)
from heatlab.nonlinearity import (AuditError, builtin_family,
                                  parse_nonlinearity)
from heatlab.solver import (
    RadialGrid,
    SimulationControls,
    build_propagator,
    duhamel_iterate,
    find_existence_horizon,
    heat_series,
    indicator,
    lq_norm,
    semigroup_apply,
    simulate_forward,
    supersolution_check,
)


def acceptance(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] acceptance {num}: {label}", flush=True)
                raise
            print(f"\n[PASS] acceptance {num}: {label}", flush=True)
        return wrapper
    return deco


@acceptance(1, "characterisation table for q > 1 power nonlinearities")
def test_characterisation_table_q_gt_1():
    for d in (1, 2, 3):
        for q in (1.5, 2.0, 3.0):
            p_star = 1.0 + 2.0 * q / d
            for p, expected in ((p_star - 0.5, EXISTS), (p_star, EXISTS),
                                (p_star + 0.5, NO_LOCAL_EXISTENCE)):
                f = parse_nonlinearity(f"s^{p:.6f}")
                verdict = classify_lq(f, q, d)
                assert verdict.outcome == expected, \
                    f"d={d} q={q} p={p}: {verdict.outcome}"


@acceptance(2, "integrable-data boundary family with logarithmic damping")
def test_l1_log_family_boundary():
    for beta, expected in ((0.0, NO_LOCAL_EXISTENCE),
                           (0.5, NO_LOCAL_EXISTENCE),
                           (1.0, NO_LOCAL_EXISTENCE),
                           (1.5, EXISTS), (2.0, EXISTS), (4.0, EXISTS)):
        f = builtin_family("log_family", {"d": 2, "beta": beta})
        verdict = classify_l1(f, 2)
        assert verdict.outcome == expected, f"beta={beta}: {verdict.outcome}"
    # far beyond the admissible damping range the growth audit must refuse
    with pytest.raises(AuditError):
        f_bad = builtin_family("log_family", {"d": 2, "beta": 10.0})
        classify_l1(f_bad, 2)


@acceptance(3, "series and integral criteria agree on a randomized suite")
def test_equivalence_suite_seed_7():
    rng = np.random.default_rng(7)
    cases = []
    while len(cases) < 20:
        a = rng.uniform(1.3, 2.7)
        if 1.95 < a < 2.05:  # keep clear of the critical power for d = 2
            continue
        cases.append((a, rng.uniform(0.0, 1.5)))
    decided = 0
    for a, b in cases:
        f = parse_nonlinearity(f"s^{a:.6f} * log(e+s)^{b:.6f}")
        rep = equivalence_check(f, d=2)
        if rep.agree is not None:
            decided += 1
            assert rep.agree, (a, b, rep.series_verdict.outcome,
                               rep.integral_verdict.outcome)
    assert decided == 20, f"only {decided}/20 decided"


@acceptance(4, "kernel lower-bound certification across dimensions")
def test_kernel_certification_sweep():
    r_grid = [0.25, 1.0, 4.0]
    for d in (1, 2, 3):
        t_grid = sorted({0.01, 1.0, 4.0} | {r * r for r in r_grid})
        rep = verify_lower_bounds(d, r_grid, t_grid)
        assert rep.min_margin >= -1e-6, (d, rep.min_margin)
        # one edge value per (r, t) cell; beta where t <= r^2
        assert {c.bound: c.n_checked for c in rep.checks} == {
            "lemma": 15, "mass": 15, "beta": 10}
    # d = 1 values cross-checked against direct Gaussian quadrature
    for r, t, rho in ((0.25, 0.0625, 0.2), (1.0, 1.0, 1.5), (4.0, 4.0, 0.0)):
        chi = BallIndicator(r)
        val = heat_on_ball(chi, (rho,), t, 1)
        ref, _ = quad(lambda y: math.exp(-(rho - y) ** 2 / (4 * t))
                      / math.sqrt(4 * math.pi * t), -r, r,
                      epsabs=1e-13, epsrel=1e-13)
        assert val == pytest.approx(ref, abs=1e-10)


@acceptance(5, "supersolution check and monotone iteration converge")
def test_monotone_iteration():
    grid = RadialGrid.uniform(1, 1.0, 257)
    P = build_propagator(grid)
    f = parse_nonlinearity("s^2")
    u0 = indicator(grid, BallIndicator(0.5, amplitude=0.1))
    hor = find_existence_horizon(lq_norm(u0, 1.0), f, 1, A=2.0)
    assert hor.T > 0.0
    n_time = 64
    times = np.linspace(0.0, hor.T, n_time)
    base = heat_series(P, u0, times)
    chi = indicator(grid, BallIndicator(grid.R * (1 - 1e-12)))
    v_init = 2.0 * base + chi.values[None, :grid.n_interior]
    margin = supersolution_check(P, u0, f, v_init, hor.T, n_time=n_time)
    assert margin.margin >= 0.0
    trace = duhamel_iterate(P, u0, f, v_init, hor.T, n_time=n_time,
                            n_iter=50)
    assert trace.converged and trace.n_iter <= 50
    assert trace.max_increase <= 1e-10          # monotone decreasing
    assert trace.residual < 1e-6                # fixed-point defect
    assert np.all(trace.v <= v_init + 1e-10)    # limit below the barrier


@acceptance(6, "concentrating-ball lower bounds dominate their predictions")
def test_t1_lower_bound_chain():
    f = parse_nonlinearity("s^4")
    spec, _ = build_t1_data(f, d=1, q=1.0, N=5, epsilon=0.5, R=1.0)
    preds = predicted_bounds(spec)
    for pred, r, amp in zip(preds, spec.radii, spec.amplitudes):
        chi = BallIndicator(radius=float(r), amplitude=float(amp))
        lb = duhamel_lower_bound(chi, f, pred.t, 1, q=1.0)
        measured = lb.value
        assert measured >= pred.pointwise * (1.0 - 1e-8), \
            (pred.k, measured, pred.pointwise)
    # exponential dominance across the five terms
    norm = [p.normalized for p in preds]
    ratios = np.array(norm[1:]) / np.array(norm[:-1])
    assert np.all(ratios > 0.9 * math.e)


@acceptance(7, "solver invariants: semigroup, positivity, refinement, "
               "comparison")
def test_solver_invariants():
    grid = RadialGrid.uniform(1, 1.0, 257)
    P = build_propagator(grid)
    u0 = indicator(grid, BallIndicator(0.5, amplitude=1.0))
    # semigroup property S(a)S(b) = S(a+b)
    two_step = semigroup_apply(P, 0.05, semigroup_apply(P, 0.15, u0))
    one_step = semigroup_apply(P, 0.2, u0)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-10
    # discrete maximum principle: no negative values to clamp
    out = semigroup_apply(P, 0.01, u0)
    assert out.clamp_count == 0
    assert np.all(out.values >= 0.0)
    assert lq_norm(out, math.inf) <= 1.0 + 1e-12
    # grid refinement changes norms by < 1% on a smooth evolution
    for q in (1.0, 2.0):
        norms = []
        for n in (257, 513):
            g = RadialGrid.uniform(1, 1.0, n)
            p = build_propagator(g)
            u = semigroup_apply(p, 0.05,
                                indicator(g, BallIndicator(0.5)))
            norms.append(lq_norm(u, q))
        assert abs(norms[1] - norms[0]) / norms[0] < 0.01
    # comparison property on five ordered nonlinearity pairs
    pairs = [("0", "s"), ("s", "2*s"), ("s^2", "s^2 + s^3"),
             ("s^2", "2*s^2"), ("s + s^2", "2*s + s^2")]
    controls = SimulationControls(dt_init=1e-3, adaptive=False, q=2.0)
    small = indicator(grid, BallIndicator(0.5, amplitude=0.2))
    for lo, hi in pairs:
        f_lo, f_hi = parse_nonlinearity(lo), parse_nonlinearity(hi)
        t_lo = simulate_forward(P, small, f_lo, 0.05, controls)
        t_hi = simulate_forward(P, small, f_hi, 0.05, controls)
        assert np.all(t_lo.final.values <= t_hi.final.values + 1e-12), \
            (lo, hi)


@acceptance(8, "numeric blow-up trend grows with the data truncation depth")
def test_blowup_trend_monotone(tmp_path):
    out = tmp_path / "trend.json"
    code = cli_main(["experiment", "blowup_trend", "--f", "s^4", "--d", "1",
                     "--q", "1", "--N-range", "3..8", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    peaks = [row["peak_l1"] for row in rep["rows"]]
    assert len(peaks) == 6
    assert all(a < b for a, b in zip(peaks, peaks[1:])), peaks
    assert rep["peak_l1_strictly_increasing"]
