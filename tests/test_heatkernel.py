"""Heat kernel, ball-indicator semigroup and constant certification tests.

Oracles: erf closed forms (d=1), seeded Monte-Carlo integration (d=2),
an mpmath evaluation of the Brownian hitting probability (d=1..5), scipy's
chndtr (d=1..10), mpmath's Poisson weights for the stepped recurrence,
radial quadrature of the mass, direct Gaussian convolution quadrature for
the semigroup property.
"""

import json
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import chndtr, erf

from heatlab.criteria import jsonable
from heatlab.heatkernel import (
    KERNEL_REL_TOL,
    BallIndicator,
    QuadratureError,
    _ball_profile,
    _dpois,
    _ncx2_cdf,
    _weights,
    heat_on_ball,
    kernel_constants,
    unit_ball_volume,
    verify_lower_bounds,
)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)
    assert unit_ball_volume(5) == pytest.approx(8.0 * math.pi ** 2 / 15.0,
                                                rel=1e-14)


def test_unit_ball_volume_stops_once_it_underflows():
    # omega_452 is the last non-zero double; a d of 31 digits returns at once
    # instead of running the recurrence for 5e29 steps
    assert unit_ball_volume(452) > 0.0
    assert unit_ball_volume(453) == unit_ball_volume(10 ** 30) == 0.0
    assert unit_ball_volume(301) == pytest.approx(
        math.exp(150.5 * math.log(math.pi) - math.lgamma(151.5)), rel=1e-12)


# --- the Gaussian kernel oracle ----------------------------------------------

def gaussian_kernel(x, y, t: float, d: int) -> float:
    """Whole-space heat kernel (4 pi t)^(-d/2) exp(-|x-y|^2 / 4t): the
    oracle of the semigroup test, checked by the tests below."""
    if t <= 0:
        raise ValueError("t must be positive")
    dx = np.atleast_1d(np.asarray(x, dtype=float) -
                       np.asarray(y, dtype=float))
    return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-dx @ dx / (4.0 * t))


def test_kernel_normalization_point():
    assert gaussian_kernel([0.0], [0.0], 1.0 / (4.0 * math.pi), 1) \
        == pytest.approx(1.0, rel=1e-15)


def test_kernel_closed_form():
    val = gaussian_kernel([2.0], [0.0], 1.0, 1)
    assert val == pytest.approx((4.0 * math.pi) ** -0.5 * math.exp(-1.0),
                                rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_kernel_mass_conservation(d, t):
    # integrate the radial profile over R^d
    sigma = d * unit_ball_volume(d)
    total, err = quad(
        lambda rho: sigma * rho ** (d - 1) *
        gaussian_kernel([rho] + [0.0] * (d - 1), [0.0] * d, t, d),
        0.0, 12.0 * math.sqrt(t) + 1.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_kernel_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        gaussian_kernel([0.0], [0.0], 0.0, 1)
    with pytest.raises(ValueError):
        gaussian_kernel([0.0], [0.0], -1.0, 2)


# --- heat_on_ball ------------------------------------------------------------

def test_heat_on_ball_identity_limit():
    # t = 1e-10 puts r^2/2t = 5e9 just inside the evaluated range
    chi = BallIndicator(radius=1.0)
    assert heat_on_ball(chi, [0.5], 1e-10, 1) == pytest.approx(1.0, abs=1e-10)


def test_heat_on_ball_erf_oracle():
    chi = BallIndicator(radius=1.0)
    val = heat_on_ball(chi, [2.0], 1.0, 1)
    assert val == pytest.approx(0.5 * (erf(1.5) - erf(0.5)), rel=1e-12)


def test_heat_on_ball_amplitude_and_center():
    chi = BallIndicator(radius=1.0, amplitude=2.5)
    ref = BallIndicator(radius=1.0)
    assert heat_on_ball(chi, [2.0], 1.0, 1) == pytest.approx(
        2.5 * heat_on_ball(ref, [2.0], 1.0, 1), rel=1e-14)
    # the ball is centred at the origin: the profile depends on |x| alone
    assert heat_on_ball(ref, [3.0, 4.0], 1.0, 2) == \
        heat_on_ball(ref, [0.0, 5.0], 1.0, 2)


def test_heat_on_ball_d2_monte_carlo():
    # seeded Monte-Carlo oracle: K(x, y; t) integrated over y in B_1, x = 0
    rng = np.random.default_rng(42)
    n = 10 ** 6
    t = 0.25
    pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    inside = (pts ** 2).sum(axis=1) <= 1.0
    vals = np.where(
        inside,
        (4 * math.pi * t) ** -1.0 * np.exp(-(pts ** 2).sum(axis=1) / (4 * t)),
        0.0) * 4.0  # sampling box area
    mc, sd = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
    val = heat_on_ball(BallIndicator(radius=1.0), [0.0, 0.0], t, 2)
    assert abs(val - mc) <= 3.0 * sd


def test_heat_on_ball_d3_origin_matches_radial_quadrature():
    t, r = 0.3, 1.2
    val = heat_on_ball(BallIndicator(radius=r), [0.0, 0.0, 0.0], t, 3)
    ref, _ = quad(lambda R: (4 * math.pi * t) ** -1.5 * 4 * math.pi * R ** 2 *
                  math.exp(-R * R / (4 * t)), 0.0, r)
    assert val == pytest.approx(ref, rel=1e-10)


def test_heat_on_ball_d3_small_offset_continuity():
    # the profile is continuous at the centre: tiny offsets change nothing
    chi = BallIndicator(radius=1.0)
    v0 = heat_on_ball(chi, [0.0, 0.0, 0.0], 0.5, 3)
    v1 = heat_on_ball(chi, [1e-9, 0.0, 0.0], 0.5, 3)
    assert v1 == pytest.approx(v0, rel=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_heat_on_ball_radially_nonincreasing(d):
    chi = BallIndicator(radius=1.0)
    rhos = np.linspace(0.0, 4.0, 25)
    vals = [heat_on_ball(chi, [float(rho)] + [0.0] * (d - 1), 0.7, d)
            for rho in rhos]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_heat_on_ball_mass(d):
    # whole space conserves mass: the radial integral of S(t)chi_r equals
    # omega_d r^d, the exact mass the certifier uses
    r, t = 1.3, 0.7
    chi = BallIndicator(radius=r)
    sigma = d * unit_ball_volume(d)
    mass, _ = quad(lambda rho: sigma * rho ** (d - 1) *
                   heat_on_ball(chi, [rho] + [0.0] * (d - 1), t, d),
                   0.0, r + 12.0 * math.sqrt(t), epsabs=1e-10, epsrel=1e-12,
                   limit=200)
    assert mass == pytest.approx(unit_ball_volume(d) * r ** d, rel=1e-8)


def test_semigroup_property_d1():
    # S(t1 + t2) chi = Gaussian_t2 * (S(t1) chi), checked by quadrature
    chi = BallIndicator(radius=1.0)
    t1, t2 = 0.3, 0.5
    for x in (0.0, 0.8, 2.0):
        direct = heat_on_ball(chi, [x], t1 + t2, 1)
        conv, _ = quad(
            lambda y: gaussian_kernel([x], [y], t2, 1) *
            heat_on_ball(chi, [y], t1, 1),
            -12.0, 12.0, limit=300)
        assert direct == pytest.approx(conv, abs=1e-6)


def _hitting_probability(r, t, rho, d):
    """mpmath oracle for P(|rho e_1 + sqrt(2t) Z| <= r), Z standard normal
    in R^d. Conditioning on y = a + Z_1 (a = rho/s, b = r/s, s = sqrt(2t))
    leaves the chi-square(d - 1) event |Z'|^2 <= b^2 - y^2; the Gaussian
    factor is cut at 12 standard deviations, and the integrand's fast drop
    within about 1/b of y = +-b gets breakpoints of its own. 30 digits keep
    the relative error far below the budget also on values near 1e-25."""
    with mp.workdps(30):
        s = mp.sqrt(2 * mp.mpf(t))
        a, b = mp.mpf(rho) / s, mp.mpf(r) / s
        if d == 1:
            return mp.ncdf(b - a) - mp.ncdf(-b - a)
        lo, hi = max(-b, a - 12), min(b, a + 12)
        if lo >= hi:
            return mp.mpf(0)
        cuts = {lo, hi, a} | {e * (b - k / b) for e in (1, -1)
                              for k in (1, 30)}
        return mp.quad(lambda y: mp.npdf(y - a) * mp.gammainc(
            mp.mpf(d - 1) / 2, 0, (b * b - y * y) / 2, regularized=True),
            sorted(p for p in cuts if lo <= p <= hi))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_ball_profile_mpmath_oracle(d):
    points = [
        (1.0, 1.0, 0.5),                # kernel wider than the ball
        (1.0, 0.05, 1.1),               # just outside the edge
        (26.892, 1.59e-4, 19.631),      # peak narrow against the ball
        (1.0, 5e-10, 1.0 - 3e-5),       # r^2/2t = 1e9, near the edge
        (1e-2, 10.0, 3.17),             # ball far narrower than the kernel
        (0.1, 100.0, 10.1),             # the same at the sweep's edge
        (1e-3, 1e3, 31.6),              # values from 2e-8 (d=1) to 2e-25
    ]
    for r, t, rho in points:
        val = float(_ball_profile(r, t, rho, d))
        ref = float(_hitting_probability(r, t, rho, d))
        assert abs(val - ref) <= ref * KERNEL_REL_TOL / 1000, (r, t, rho)


@pytest.mark.parametrize("d", range(1, 11))
def test_ball_profile_matches_scipy_chndtr(d):
    # scipy's chndtr on a log grid of r x t, 17 radii out to the edge each.
    # Where the two differ by more than 1e-11, the mpmath oracle decides; at
    # scipy 1.17 no point of this grid does (the largest difference is
    # 2.4e-13, at r^2/2t = 5e7 on the edge, where scipy is the one off)
    for r in np.geomspace(1e-2, 1e2, 9):
        for t in np.geomspace(1e-4, 1e2, 13):
            rhos = np.linspace(0.0, r + math.sqrt(t), 17)
            val = np.array([_ball_profile(r, t, rho, d) for rho in rhos])
            ref = chndtr(r * r / (2 * t), d, rhos * rhos / (2 * t))
            apart = np.abs(val - ref) > 1e-11 * ref
            for rho, v in zip(rhos[apart], val[apart]):
                oracle = float(_hitting_probability(r, t, rho, d))
                assert abs(v - oracle) <= 1e-11 * oracle, (r, t, rho)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 10), x=st.floats(0.0, 1e7), dx=st.floats(0.0, 1e3),
       lam=st.floats(0.0, 1e7), dlam=st.floats(0.0, 1e3))
@example(d=2, x=0.0, dx=5e-324, lam=0.0, dlam=1.0)  # x/2 rounds to 0
def test_ball_profile_series_is_a_monotone_probability(d, x, dx, lam, dlam):
    # F(x; d, lam) lies in [0, 1], does not decrease in x and does not
    # increase in lam, up to a rounding of 1e-12 relative
    val, val_lam = _ncx2_cdf(x, d, lam), _ncx2_cdf(x, d, lam + dlam)
    val_x = _ncx2_cdf(x + dx, d, lam)
    assert all(0.0 <= v <= 1.0 for v in (val, val_lam, val_x))
    assert val_x >= val * (1 - 1e-12) and val_lam <= val * (1 + 1e-12)


@pytest.mark.parametrize("a0, n, lam", [
    (0.0, 200, 0.0), (0.5, 200, 0.0),               # y = 0
    (0.0, 200, 0.5), (0.5, 200, 0.5),
    (0.0, 700, 400.0), (0.5, 700, 400.0),
    (2.5e5 - 1500.5, 3000, 2.5e5),                  # the peak, +-3 sd
    (2.5e7 - 99.5, 320, 2.5e7), (2.5e7 - 2e4, 320, 2.5e7),
    (0.0, 192, 800.0), (0.5, 192, 800.0),           # first anchor underflows
])
def test_stepped_weights_match_mpmath(a0, n, lam):
    # _weights steps each block of 64 from one anchor; the windows from
    # a = 0 or 1/2 cross a = 15, where the anchors change form. Loader's
    # anchors far in the tail err up to about 1e-13 (exp(L) alone errs
    # |L|/2 ulp, |L| <= 745), and 63 steps add at most 126 roundings: each
    # term is checked to 2e-13 of itself, or of the smallest normal double
    # where it lies below that
    tiny = sys.float_info.min
    w = _weights(a0, n, lam)
    assert len(w) == n
    if lam == 800.0:    # anchored term by term, not zeroed
        assert _dpois(a0, lam) < tiny <= w[63]
    with mp.workdps(30):
        for i, v in enumerate(w):
            a = mp.mpf(a0) + i
            ref = mp.exp(-mp.mpf(lam)) * mp.power(lam, a) / mp.gamma(a + 1)
            assert abs(v - ref) <= 2e-13 * max(ref, tiny), (i, v, ref)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_series_at_zero_arguments_and_numpy_scalars(d):
    # x = 0, lam = 0 and numpy scalars are plain inputs, not edge cases that
    # raise or warn: F(0; d, lam) = 0, F(x; d, 0) is the chi-square CDF
    # P(d/2, x/2), and _ball_profile reads numpy scalars as floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _ncx2_cdf(0.0, d, 0.0) == _ncx2_cdf(0.0, d, 3.0) == 0.0
        for x in (1e-300, 0.3, 40.0, 2e3):
            want = float(mp.gammainc(d / 2, 0, x / 2, regularized=True))
            assert _ncx2_cdf(x, d, 0.0) == pytest.approx(want, rel=1e-13)
        f64 = np.float64
        for rho in np.linspace(0.0, 2.0, 5):
            assert _ball_profile(f64(1.0), f64(0.3), rho, d) == \
                _ball_profile(1.0, 0.3, float(rho), d)
        assert _ball_profile(f64(1e-200), f64(1.0), f64(0.0), d) == 0.0


def test_ball_profile_vectorised():
    for rho in np.linspace(0.0, 2.0, 7):
        assert _ball_profile(1.0, 0.3, rho, 3) == heat_on_ball(
            BallIndicator(radius=1.0), [float(rho), 0.0, 0.0], 0.3, 3)


def test_profile_refused_beyond_scaled_radius():
    # r^2/2t above 1e10 is refused rather than evaluated, in every dimension
    assert heat_on_ball(BallIndicator(radius=1.0), [0.5], 5e-11, 1) == 1.0
    for d in (1, 2, 3):
        with pytest.raises(QuadratureError):
            heat_on_ball(BallIndicator(radius=1.0), [0.5] + [0.0] * (d - 1),
                         1e-12, d)
    with pytest.raises(QuadratureError):
        verify_lower_bounds(2, [1e3], [1e-9])


# --- constants ---------------------------------------------------------------

def test_ball_profile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _ball_profile(1.0, 0.0, 0.5, 2)
    with pytest.raises(ValueError):
        _ball_profile(1.0, 1.0, 0.5, 0)


def test_c_prime_d1_closed_form():
    kc = kernel_constants(1)
    assert kc.c_prime == pytest.approx(0.5 * (erf(1.5) - erf(0.5)), rel=1e-10)


def test_c_doubleprime_formula():
    for d in (1, 2, 3):
        kc = kernel_constants(d)
        assert kc.c_doubleprime == pytest.approx(
            math.pi ** (-d / 2) * 2.0 ** (-d) * math.exp(-2.25), rel=1e-14)


def _c_prime_mpmath(d):
    """c'_d = chndtr(1/2, d, 2) as the Poisson(1) mixture
    sum_j e^-1/j! P(d/2 + j, 1/4) at 50 digits, rounded once to a double
    (through a decimal string, which rounds subnormals correctly too)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        val = mp.fsum(mp.exp(-1) / mp.factorial(j) * mp.gammainc(
            mp.mpf(d) / 2 + j, 0, mp.mpf(1) / 4, regularized=True)
            for j in range(60))
        return float(mp.nstr(val, 45))


# d = 270 and 278 are subnormal; from d = 279 on c'_d underflows to 0,
# and there its bound, not its series, says so
@pytest.mark.parametrize("d", list(range(1, 21)) + [30, 50, 100, 200, 260,
                                                    270, 278, 279, 280])
def test_c_prime_correctly_rounded(d):
    assert kernel_constants(d).c_prime == _c_prime_mpmath(d)


@pytest.mark.parametrize("d", range(1, 21))
def test_c_prime_matches_chndtr(d):
    # the stdlib series and the evaluator of the ball profile agree; the name
    # is historical (the profile was scipy's chndtr, which
    # test_ball_profile_matches_scipy_chndtr still checks)
    c_prime = kernel_constants(d).c_prime
    value = _ncx2_cdf(0.5, d, 2.0)
    assert abs(c_prime - value) <= 16 * math.ulp(c_prime)


def test_c_d_switches_from_c_doubleprime_to_c_prime_at_16():
    for d in range(1, 16):
        kc = kernel_constants(d)
        assert kc.c_d == kc.c_doubleprime < kc.c_prime, d
    for d in range(16, 271):
        kc = kernel_constants(d)
        assert kc.c_d == kc.c_prime < kc.c_doubleprime, d


def test_kernel_constants_refuses_nonpositive_dimension():
    with pytest.raises(ValueError):
        kernel_constants(0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constants_invariants(d):
    kc = kernel_constants(d)
    assert 0.0 < kc.c_d < 1.0
    assert kc.c_d == min(kc.c_prime, kc.c_doubleprime)
    assert kc.alpha_d == pytest.approx(kc.c_d * kc.omega_d, rel=1e-15)
    assert kc.beta_d == pytest.approx(kc.c_d * 2.0 ** (-d), rel=1e-15)
    assert kc.to_dict()["variant"] == "whole_space"


def test_c_prime_against_gauss_ball_quadrature():
    # pi^(-d/2) * integral of exp(-|w|^2) over B_1/2 around a unit vector,
    # evaluated directly in d = 2 polar coordinates
    from scipy.special import i0

    def integrand(s):  # s = |w - u| radial coordinate around the center
        return 2 * s * math.exp(-(1 + s * s)) * i0(2 * s)

    ref, _ = quad(integrand, 0.0, 0.5, epsabs=1e-12)
    kc = kernel_constants(2)
    assert kc.c_prime == pytest.approx(ref, rel=1e-8)


# --- certification -----------------------------------------------------------

def test_verify_lower_bounds_d1_point_example():
    rep = verify_lower_bounds(1, [1.0], [1.0])
    kc = rep.constants
    val = heat_on_ball(BallIndicator(radius=1.0), [2.0], 1.0, 1)
    assert val - kc.c_d * 0.5 >= 0.0
    assert rep.passed


def test_verify_lower_bounds_d2_sweep():
    r_grid = [0.25, 1.0, 4.0]
    t_grid = [0.01, 1.0, 4.0]
    rep = verify_lower_bounds(2, r_grid, t_grid)
    assert rep.passed
    assert rep.min_margin >= 0.0
    # n_checked counts (r, t) cells; beta only those with t <= r^2
    counts = {c.bound: c.n_checked for c in rep.checks}
    assert counts == {"lemma": 3 * 3, "mass": 3 * 3, "beta": 1 + 2 + 3}


def test_verify_lower_bounds_exact_mass_margin():
    # the mass is omega_d r^d exactly, so its margin is (omega_d - alpha_d)
    # r^d at the smallest radius, independent of t
    rep = verify_lower_bounds(3, [0.5, 2.0], [0.01, 1.0])
    kc = rep.constants
    mass = {c.bound: c for c in rep.checks}["mass"]
    assert mass.min_margin == pytest.approx(
        (kc.omega_d - kc.alpha_d) * 0.5 ** 3, rel=1e-14)
    assert mass.witness[:2] == (0.5, 0.01)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), log_r=st.floats(-2.0, 2.0),
       log_t=st.floats(-4.0, 2.0))
def test_verify_lower_bounds_witnesses_sit_at_the_edge(d, log_r, log_t):
    # S(t)chi_r is radially non-increasing, so the edge rho = r + sqrt(t)
    # holds the smallest value on the ball; the lemma and beta witnesses sit
    # there and min_margin is that one value's margin, bit for bit
    r, t = 10.0 ** log_r, 10.0 ** log_t
    rep = verify_lower_bounds(d, [r], [t])
    kc, edge = rep.constants, r + math.sqrt(t)
    vals = np.array([_ball_profile(r, t, rho, d)
                     for rho in np.linspace(0.0, edge, 9)])
    assert np.all(vals >= vals[-1] * (1.0 - 2.0 * KERNEL_REL_TOL))
    low = vals[-1] * (1.0 - KERNEL_REL_TOL)
    bounds = {c.bound: c for c in rep.checks}
    want = {"lemma": low - kc.c_d * (r / edge) ** d, "mass": (
        kc.omega_d * r ** d - kc.alpha_d * r ** d)}
    if t <= r * r:
        want["beta"] = low - kc.beta_d
    assert {k: c.min_margin for k, c in bounds.items()} == want
    assert rep.min_margin == min(want.values())
    for name in set(want) - {"mass"}:
        assert bounds[name].witness == (r, t, edge)
        assert bounds[name].n_checked == 1


def test_verify_lower_bounds_certifies_tiny_values():
    # S(t)chi_r is about 2.3e-9 at the edge rho = r + sqrt(t) and the lemma
    # level is 7.4e-11; an absolute budget of 1e-8 would fail this point
    r, t = 1e-2, 10.0
    rep = verify_lower_bounds(3, [r], [t])
    assert rep.passed
    lemma = {c.bound: c for c in rep.checks}["lemma"]
    rho = lemma.witness[2]
    exact = float(_hitting_probability(r, t, rho, 3)) \
        - rep.constants.c_d * (r / (r + math.sqrt(t))) ** 3
    assert 0.0 < lemma.min_margin <= exact
    assert exact - lemma.min_margin <= 2 * KERNEL_REL_TOL * (
        exact + rep.constants.c_d)


@pytest.mark.parametrize("r_grid,t_grid", [([], [1.0]), ([1.0], []),
                                            ([], [])])
def test_verify_lower_bounds_rejects_empty_grid(r_grid, t_grid):
    # an empty grid checks no bound, so it must not report a pass
    with pytest.raises(ValueError, match="non-empty"):
        verify_lower_bounds(2, r_grid, t_grid)


def test_verify_lower_bounds_fails_with_inflated_constant(monkeypatch):
    # verify_lower_bounds takes its constants from kernel_constants alone
    import heatlab.heatkernel as heatkernel_mod
    kc = kernel_constants(1)
    bad = heatkernel_mod.KernelConstants(
        d=1, c_prime=kc.c_prime, c_doubleprime=kc.c_doubleprime, c_d=1.0,
        alpha_d=1.0 * kc.omega_d, beta_d=0.5, omega_d=kc.omega_d)
    monkeypatch.setattr(heatkernel_mod, "kernel_constants", lambda d: bad)
    rep = verify_lower_bounds(1, [1.0], [1.0])
    assert not rep.passed
    worst = {c.bound: c for c in rep.checks}
    assert worst["lemma"].min_margin < 0.0
    r, t, rho = worst["lemma"].witness
    assert (r, t, rho) == (1.0, 1.0, 2.0)


def test_certification_report_json():
    # the mass witness rho is NaN, which JSON cannot hold as a number
    rep = verify_lower_bounds(1, [0.5, 1.0], [0.25])
    data = json.loads(json.dumps(jsonable(rep.to_dict()), allow_nan=False))
    assert data["d"] == 1 and data["variant"] == "whole_space"
    assert data["passed"] is True
    assert {b["bound"] for b in data["bounds"]} == {"lemma", "mass", "beta"}
    assert data["kernel_rel_tol"] == KERNEL_REL_TOL
    assert data["constants"]["c_d"] == pytest.approx(rep.constants.c_d)
