"""Gaussian heat kernel, the semigroup acting on ball indicators, and the
certified lower-bound constants c_d, alpha_d, beta_d.

Heat started from a ball has one closed form in every dimension: by the
Brownian-motion representation, [S(t) chi_r](x) = P(|x + sqrt(2t) Z| <= r)
for a standard normal Z in R^d, the non-central chi-square CDF
chndtr(r^2/2t, d, |x|^2/2t). Certification margins take off a relative
error budget that this evaluator is checked to meet.

scipy is imported where the profile is evaluated, not at module level: the
constants c_d, alpha_d, beta_d come from a stdlib series, so commands that
only need them run on numpy and the stdlib alone.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field

import numpy as np

# relative error budget of the ball profile. Against an mpmath oracle the
# profile is within 1e-15 relative down to values of 1e-25; near the edge of
# a narrow peak the rounding of r^2/2t and rho^2/2t costs up to about 1e-11
# (at r^2/2t = 1e9 to 1e10). The profile is at most 1, so the budget is at
# most 1e-8 in absolute terms.
KERNEL_REL_TOL = 1e-8
# sqrt(pi) = Gamma(1/2) to 70 digits, for c'_d in odd dimensions
_SQRT_PI = ("1.772453850905516027298167483341145182797549456122387128213807"
            "789852911")
# largest r^2/2t accepted: beyond it chndtr slows down sharply near the
# ball's edge and past about 1e11 returns NaN there
MAX_SCALED_RADIUS = 1e10


class QuadratureError(Exception):
    """The kernel evaluator cannot meet the certification error budget."""


@dataclass(frozen=True)
class BallIndicator:
    """amplitude * (characteristic function of the ball B_radius(0))."""

    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be finite and positive")
        if not 0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be finite and non-negative")


@dataclass(frozen=True)
class KernelConstants:
    d: int
    c_prime: float
    c_doubleprime: float
    c_d: float
    alpha_d: float
    beta_d: float
    omega_d: float

    def to_dict(self) -> dict:
        return {
            "d": self.d, "variant": "whole_space",
            "c_prime": self.c_prime, "c_doubleprime": self.c_doubleprime,
            "c_d": self.c_d, "alpha_d": self.alpha_d,
            "beta_d": self.beta_d, "omega_d": self.omega_d,
        }


def unit_ball_volume(d: int) -> float:
    """omega_d = pi^(d/2) / Gamma(d/2 + 1), by the recurrence
    omega_d = (2 pi / d) omega_(d-2) from omega_0 = 1, omega_1 = 2. Once
    omega underflows to 0 it stays 0, so the recurrence stops there (from
    d = 453 on) and a huge d costs no more than that."""
    omega = 2.0 if d % 2 else 1.0
    for k in range(2 + d % 2, d + 1, 2):
        omega *= 2.0 * math.pi / k
        if omega == 0.0:
            break
    return omega


def gaussian_kernel(x, y, t: float, d: int) -> float:
    """Whole-space heat kernel (4 pi t)^(-d/2) exp(-|x-y|^2 / 4t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    dx = np.atleast_1d(np.asarray(x, dtype=float) -
                       np.asarray(y, dtype=float))
    r2 = float(np.dot(dx, dx))
    return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-r2 / (4.0 * t))


def _ball_profile(r: float, t: float, rho, d: int):
    """[S(t) chi_r] at distance rho from the centre, for an array of rho:
    P(|rho e_1 + sqrt(2t) Z| <= r) = chndtr(r^2/2t, d, rho^2/2t).

    Raises QuadratureError when r^2/2t exceeds MAX_SCALED_RADIUS or a value
    comes out non-finite.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if d < 1:
        raise ValueError("d must be a positive dimension")
    x = r * r / (2.0 * t)
    if x > MAX_SCALED_RADIUS:
        raise QuadratureError(
            f"r^2/2t = {x:.3g} exceeds {MAX_SCALED_RADIUS:.0e}, beyond which "
            f"the ball profile is not evaluated (d={d}, r={r}, t={t})")
    # imported here, not at module level: loading scipy.special costs more
    # than a whole cold classify, which needs no ball profile
    from scipy.special import chndtr
    rho = np.asarray(rho, dtype=float)
    val = chndtr(x, d, rho * rho / (2.0 * t))
    if not np.all(np.isfinite(val)):
        raise QuadratureError(
            f"non-finite ball profile (d={d}, r={r}, t={t})")
    return val


def heat_on_ball(chi: BallIndicator, x, t: float, d: int) -> float:
    """[S(t) chi](x) on R^d: the amplitude times the ball profile at
    rho = |x|."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    rho = float(np.sqrt(np.dot(xv, xv)))
    return chi.amplitude * float(_ball_profile(chi.radius, t, rho, d))


def _c_prime(d: int) -> float:
    """c'_d = chndtr(1/2, d, 2), correctly rounded.

    The non-central chi-square CDF is the Poisson(1) mixture
    sum_j e^-1/j! P(d/2 + j, 1/4) of regularised incomplete gammas, and
    P(a, z) = e^-z sum_n z^(a+n) / Gamma(a+n+1). Collecting m = j + n, with
    z^(d/2) = 2^-d exactly,

        c'_d = e^(-5/4) 2^-d sum_m 4^-m (sum_(j<=m) 1/j!) / Gamma(d/2+m+1).

    Every term is positive and the terms fall faster than 4^-m, so the sum
    is taken at 40 digits until it stops changing and rounded once.
    """
    if d < 1:
        raise ValueError("d must be a positive dimension")
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        gamma = D(_SQRT_PI) if d % 2 else D(1)  # Gamma(1/2) or Gamma(1)
        try:
            for k in range(2 - d % 2, d + 1, 2):    # up to Gamma(d/2 + 1)
                gamma *= D(k) / 2
        except decimal.Overflow:
            raise ValueError(f"d = {d} is too large: Gamma(d/2 + 1) "
                             "overflows the decimal range") from None
        half_d = D(d) / 2
        weight = 1 / gamma          # 4^-m / Gamma(d/2 + m + 1)
        inv_fact, e_partial, total, m = D(1), D(0), D(0), 0
        while True:
            e_partial += inv_fact   # sum_(j<=m) 1/j!
            new_total = total + weight * e_partial
            if new_total == total:
                break
            total, m = new_total, m + 1
            inv_fact /= m
            weight /= 4 * (half_d + m)
        return float(total * (D(-5) / 4).exp() / D(2) ** d)


def kernel_constants(d: int) -> KernelConstants:
    """Constants of the whole-space ball lower bound
    S(t)chi_r >= c_d (r/(r+sqrt t))^d.

    c'_d = pi^(-d/2) * integral of exp(-|w|^2) over the ball of radius 1/2
    centred at a unit vector, which equals [S(1/4) chi_(1/2)] evaluated at
    distance 1 (see _c_prime); c''_d = pi^(-d/2) 2^(-d) e^(-9/4).
    """
    c_prime = _c_prime(d)
    c_dp = math.pi ** (-d / 2.0) * 2.0 ** (-d) * math.exp(-9.0 / 4.0)
    c_d = min(c_prime, c_dp)
    omega = unit_ball_volume(d)
    return KernelConstants(d=d, c_prime=c_prime,
                           c_doubleprime=c_dp, c_d=c_d,
                           alpha_d=c_d * omega, beta_d=c_d * 2.0 ** (-d),
                           omega_d=omega)


# --- certification -----------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    bound: str  # "lemma" | "mass" | "beta"
    min_margin: float
    witness: tuple  # (r, t, rho) achieving the min margin
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.min_margin >= 0.0


@dataclass(frozen=True)
class CertificationReport:
    d: int
    r_grid: tuple
    t_grid: tuple
    kernel_rel_tol: float
    checks: tuple = field(default_factory=tuple)
    constants: KernelConstants = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def min_margin(self) -> float:
        return min(c.min_margin for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "variant": "whole_space",  # the kernel that was evaluated
            "grid": {"r": list(self.r_grid), "t": list(self.t_grid)},
            "kernel_rel_tol": self.kernel_rel_tol,
            "constants": self.constants.to_dict(),
            "passed": self.passed,
            "bounds": [
                {"bound": c.bound, "min_margin": c.min_margin,
                 "witnesses": [list(c.witness)], "n_checked": c.n_checked}
                for c in self.checks
            ],
        }


def verify_lower_bounds(d: int, r_grid, t_grid, n_points: int = 17,
                        constants: KernelConstants = None) -> CertificationReport:
    """Numerically certify the three whole-space ball lower bounds on a
    non-empty grid.

    lemma: [S(t)chi_r](x) >= c_d (r/(r+sqrt t))^d for |x| <= r + sqrt t
    mass:  integral of S(t)chi_r              >= alpha_d r^d
    beta:  [S(t)chi_r](x) >= beta_d for |x| <= r + sqrt t, when t <= r^2

    Pointwise margins compare the bound with the profile lowered by the
    evaluator's relative budget, value * (1 - KERNEL_REL_TOL), so a
    non-negative min_margin certifies the inequality up to floating-point
    rounding, however small the value. The mass is the exact whole-space value
    omega_d r^d (mass conservation).
    """
    consts = constants if constants is not None else kernel_constants(d)
    r_grid = tuple(float(r) for r in r_grid)
    t_grid = tuple(float(t) for t in t_grid)
    if not (r_grid and t_grid):
        raise ValueError("grids must be non-empty")
    if not all(0 < v < math.inf for v in r_grid + t_grid):
        raise ValueError("grids must be finite and positive")
    if n_points < 2:
        raise ValueError("n-points must be at least 2, so that the samples "
                         "reach the edge rho = r + sqrt(t)")

    worst = {"lemma": (math.inf, None, 0), "mass": (math.inf, None, 0),
             "beta": (math.inf, None, 0)}

    def record(name, margins, r, t, rhos):
        m, w, n = worst[name]
        i = int(np.argmin(margins))
        if margins[i] < m:
            m, w = float(margins[i]), (r, t, float(rhos[i]))
        worst[name] = (m, w, n + len(margins))

    omega = unit_ball_volume(d)
    for r in r_grid:
        for t in t_grid:
            reach = r + math.sqrt(t)
            lemma_level = consts.c_d * (r / reach) ** d
            rhos = np.linspace(0.0, reach, n_points)
            low = _ball_profile(r, t, rhos, d) * (1.0 - KERNEL_REL_TOL)
            record("lemma", low - lemma_level, r, t, rhos)
            if t <= r ** 2:
                record("beta", low - consts.beta_d, r, t, rhos)
            record("mass", [omega * r ** d - consts.alpha_d * r ** d], r, t,
                   [math.nan])

    checks = tuple(BoundCheck(bound=k, min_margin=m, witness=w, n_checked=n)
                   for k, (m, w, n) in worst.items() if n > 0)
    return CertificationReport(d=d, r_grid=r_grid, t_grid=t_grid,
                               kernel_rel_tol=KERNEL_REL_TOL, checks=checks,
                               constants=consts)
