"""Blow-up data builder tests: schedules, sampled norms, predictions."""

import math

import numpy as np
import pytest

from heatlab.databuilder import (
    ScheduleError,
    build_t1_data,
    build_todd_data,
    predicted_bounds,
)
from heatlab.heatkernel import unit_ball_volume
from heatlab.nonlinearity import parse_nonlinearity
from heatlab.solver import RadialGrid, lq_norm


F4 = parse_nonlinearity("s^4")


def test_t1_single_term_exact_norm():
    spec, u0 = build_t1_data(F4, d=1, q=1.0, N=1, epsilon=0.5, R=1.0)
    exact = spec.constants.beta_d ** -1 * unit_ball_volume(1) * 0.5
    assert spec.sampled_norm == pytest.approx(exact, rel=1e-12)
    assert spec.norm_bound == pytest.approx(exact, rel=1e-12)


def test_t1_schedule_inequalities():
    spec, _ = build_t1_data(F4, d=1, q=1.0, N=6, epsilon=0.5, R=1.0)
    p = 3.0  # 1 + 2q/d
    for k, phi in enumerate(spec.phi, start=1):
        assert phi ** 4 >= phi ** p * math.exp(k) * (1 - 1e-12)
        # minimality up to one grid step of the ratio-1.1 search
        assert (phi / 1.1) ** 4 < (phi / 1.1) ** p * math.exp(k) or \
            phi <= max(k, spec.phi[k - 2] + 1.0) * (1 + 1e-12) if k > 1 \
            else True
    ks = np.arange(1, 7, dtype=float)
    assert np.allclose(spec.radii, 0.5 * spec.phi ** -1.0 * ks ** -2.0,
                       rtol=1e-14)
    assert np.all(np.diff(spec.phi) > 0)


def test_t1_norm_grows_with_n_but_bounded():
    norms = []
    cap = None
    for N in (1, 2, 3, 4, 5):
        spec, u0 = build_t1_data(F4, d=1, q=1.0, N=N, epsilon=0.5, R=1.0)
        norms.append(lq_norm(u0, 1.0))
        cap = spec.constants.beta_d ** -1 * unit_ball_volume(1) * 0.5 \
            * math.pi ** 2 / 6.0
        # sampled L1 matches the analytic sum exactly (cell-average sampling)
        assert spec.sampled_norm == pytest.approx(spec.norm_bound, rel=1e-10)
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= cap


def test_t1_nesting_monotone():
    _, u0 = build_t1_data(F4, d=1, q=1.0, N=5, epsilon=0.5, R=1.0)
    assert np.all(np.diff(u0.values) <= 1e-12)


def test_t1_balls_must_fit():
    with pytest.raises(ScheduleError):
        build_t1_data(F4, d=1, q=1.0, N=3, epsilon=5.0, R=1.0)


def test_t1_refuses_unresolvable_grid():
    coarse = RadialGrid.uniform(1, 1.0, 65)
    with pytest.raises(ScheduleError):
        build_t1_data(F4, d=1, q=1.0, N=5, epsilon=0.5, R=1.0, grid=coarse)


def test_t1_schedule_search_fails_for_subcritical():
    # f = s^2 with p = 3: s^-3 f(s) -> 0, the phi search must hit the cap
    with pytest.raises(ScheduleError):
        build_t1_data(parse_nonlinearity("s^2"), d=1, q=1.0, N=3,
                      epsilon=0.5, R=1.0)


def test_t1_predictions_exponential_growth():
    spec, _ = build_t1_data(F4, d=1, q=1.0, N=5, epsilon=0.5, R=1.0)
    preds = predicted_bounds(spec)
    assert [p.k for p in preds] == [1, 2, 3, 4, 5]
    # pointwise value at t_k
    for p, phi, r in zip(preds, spec.phi, spec.radii):
        assert p.t == pytest.approx(r ** 2, rel=1e-14)
        assert p.pointwise == pytest.approx(
            spec.constants.beta_d * r ** 2 * phi ** 4, rel=1e-12)
    # normalized sequence (polynomial factor removed) grows like e^k
    norm = [p.normalized for p in preds]
    ratios = np.array(norm[1:]) / np.array(norm[:-1])
    assert np.all(ratios > math.e * 0.9)
    # pointwise predictions grow from k = 2 on (the k^-4 prefactor only wins
    # over e^2k at the very first step)
    pws = [p.pointwise for p in preds]
    assert all(a < b for a, b in zip(pws[1:], pws[2:]))
    assert pws[-1] > pws[0]


def test_todd_build_and_norm_bound():
    f = parse_nonlinearity("s^3")  # critical for d = 1
    spec, u0 = build_todd_data(f, d=1, N=6, R=1.0)
    assert spec.kind == "Todd"
    # L1 norm: omega_d * sum n^-2 over the retained terms, sampled exactly
    ns = np.arange(spec.n0, 7, dtype=float)
    expect = unit_ball_volume(1) * float(np.sum(ns ** -2.0))
    assert spec.sampled_norm == pytest.approx(expect, rel=1e-10)
    assert spec.norm_bound == pytest.approx(expect, rel=1e-12)
    assert spec.norm_bound < unit_ball_volume(1) * math.pi ** 2 / 6.0


def test_todd_schedule_constraints():
    f = parse_nonlinearity("s^3")
    spec, _ = build_todd_data(f, d=1, N=5, R=1.0)
    phi_all = np.asarray(spec.witness.sequence) / spec.constants.c_d
    for i, n in enumerate(range(spec.n0, 6)):
        z = int(spec.zeta[i])  # the window k_n = n
        assert phi_all[n + 1] <= 0.5 * phi_all[z] * (1 + 1e-12)
        alpha = (n * n * phi_all[z]) ** 1.0
        assert spec.radii[i] == pytest.approx(1.0 / alpha, rel=1e-12)
        assert spec.amplitudes[i] == pytest.approx(alpha / n ** 2, rel=1e-12)
    # underlying witness spacing
    seq = np.asarray(spec.witness.sequence)
    assert np.all(seq[1:] / seq[:-1] >= spec.witness.theta - 1e-12)


def test_todd_requires_divergent_witness():
    # each f is L^1-subcritical for d = 1, so its witness series converges
    for text in ("s^1.5", "s^2.98", "s^3/log(e+s)^1.01"):
        with pytest.raises(ScheduleError, match="witness series converges"):
            build_todd_data(parse_nonlinearity(text), d=1, N=5, R=1.0)


def test_todd_builds_for_a_supercritical_log_damped_f():
    # s^3.01 / log(e+s)^2 outgrows s^3 in d = 1: its witness series diverges
    spec, u0 = build_todd_data(parse_nonlinearity("s^3.01/log(e+s)^2"),
                               d=1, N=6, R=1.0)
    assert spec.kind == "Todd" and spec.n0 <= 6
    assert spec.sampled_norm == pytest.approx(spec.norm_bound, rel=1e-10)


def test_todd_witness_too_short():
    f = parse_nonlinearity("s^3")
    with pytest.raises(ScheduleError):
        build_todd_data(f, d=1, N=70, R=1.0)


def test_todd_predictions_use_window_schedule():
    f = parse_nonlinearity("s^3")
    spec, _ = build_todd_data(f, d=1, N=6, R=1.0)
    preds = predicted_bounds(spec)
    p = 3.0
    sigma = (2.0 / 3.0) * (1.0 - 2.0 ** -p) * (1.0 - 0.25) ** 1.5
    c3 = spec.constants.alpha_d * sigma * spec.constants.c_d ** p
    for pred, n in zip(preds, range(spec.n0, 7)):
        expect = c3 * n ** (-2 * p) * spec.witness.partial_sums[n]  # k_n = n
        assert pred.lq_q == pytest.approx(expect, rel=1e-12)
    # for the critical power the partial sums grow linearly in k_n, so the
    # normalized values n^(2p) * pred grow with n
    norm = [p.normalized for p in preds]
    assert all(a < b for a, b in zip(norm, norm[1:]))
