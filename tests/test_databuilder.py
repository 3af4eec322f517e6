"""Blow-up data builder tests: schedules and sampled norms."""

import math

import numpy as np
import pytest

from heatlab.databuilder import ScheduleError, build_t1_data
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
