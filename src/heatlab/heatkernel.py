"""The heat semigroup acting on ball indicators, and the certified
lower-bound constants c_d, alpha_d, beta_d.

Heat started from a ball has one closed form in every dimension: by the
Brownian-motion representation, [S(t) chi_r](x) = P(|x + sqrt(2t) Z| <= r)
for a standard normal Z in R^d, the non-central chi-square CDF
F(r^2/2t; d, |x|^2/2t). With y = x/2, mu = lam/2 and h = d/2, F(x; d, lam)
is the Poisson mixture sum_m g_m C_m, g_m = e^-y y^(h+m) / Gamma(h+m+1),
C_m = P(Pois(mu) <= m), whose terms are all positive. It is summed over a
window around its largest term (Benton and Krishnamoorthy, 2003), with
Poisson weights in Loader's saddle-point form (Loader, 2000), and the
window grows until the bounds on what it leaves out fall below 1e-17 of
the sum: above it the geometric tail of g_m (C_m <= 1), below it C_lo
times that of g_m. Certification margins take off a relative error budget
that this evaluator is checked to meet. The module needs no scipy.
"""

from __future__ import annotations

import decimal
import math

from . import _lazy

np = _lazy("numpy")

# relative error budget of the ball profile. Against an mpmath oracle the
# profile is within 1e-15 relative down to values of 1e-25; near the edge of
# a narrow peak the rounding of r^2/2t and rho^2/2t costs up to about 1e-11
# (at r^2/2t = 1e9 to 1e10). The profile is at most 1, so the budget is at
# most 1e-8 in absolute terms.
KERNEL_REL_TOL = 1e-8
# sqrt(pi) = Gamma(1/2) to 70 digits, for c'_d in odd dimensions
_SQRT_PI = ("1.772453850905516027298167483341145182797549456122387128213807"
            "789852911")
# largest r^2/2t accepted: the series' window grows like its square root (a
# million terms at 5e9), and there the rounding of r^2/2t already costs 1e-11
MAX_SCALED_RADIUS = 1e10
_TAIL = 1e-17                   # relative size of the series' dropped tails
# stirlerr(a) ~ 1/12a - 1/360a^3 + 1/1260a^5 - 1/1680a^7 + 1/1188a^9
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


class QuadratureError(Exception):
    """The kernel evaluator cannot meet the certification error budget."""


class BallIndicator:
    """amplitude * (characteristic function of the ball B_radius(0))."""

    def __init__(self, radius: float, amplitude: float = 1.0):
        if not 0 < radius < math.inf:
            raise ValueError("radius must be finite and positive")
        if not 0 <= amplitude < math.inf:
            raise ValueError("amplitude must be finite and non-negative")
        self.radius = radius
        self.amplitude = amplitude


class KernelConstants:
    def __init__(self, d: int, c_prime: float, c_doubleprime: float,
                 c_d: float, alpha_d: float, beta_d: float, omega_d: float):
        self.d = d
        self.c_prime = c_prime
        self.c_doubleprime = c_doubleprime
        self.c_d = c_d
        self.alpha_d = alpha_d
        self.beta_d = beta_d
        self.omega_d = omega_d

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


def _bd0(a, lam):
    """a log(a/lam) + lam - a, broadcast. Where v = (a - lam)/(a + lam) is
    below 0.1 its terms cancel, so there it is the series (a - lam) v +
    2a (v^3/3 + ... + v^19/19), whose next term is below 1e-19 of the sum."""
    v = (a - lam) / (a + lam)
    v2, near, s = v * v, np.abs(v) < 0.1, 0.0
    for k in range(19, 2, -2):
        s += 1.0 / k
        s *= v2
    s = (a - lam) * v + 2.0 * a * v * s
    if near.all():
        return s
    return np.where(near, s, a * np.log(a / lam) + lam - a)


def _dpois(a, lam: float):
    """e^-lam lam^a / Gamma(a+1) for increasing multiples a of 1/2 and a
    scalar lam: above a = 15 Loader's saddle-point form
    exp(-stirlerr(a) - bd0(a, lam)) / sqrt(2 pi a), stirlerr(a) = log
    Gamma(a+1) - (a+1/2) log a + a - log(2 pi)/2 from Stirling's series; up
    to 15 the product itself while e^-lam is normal (exp(L) errs |L|/2 ulp)."""
    k = int(np.searchsorted(a, 15.0, side="right"))
    small, big = a[:k], a[k:]
    b2, s = 1.0 / (big * big), _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        s = c - b2 * s
    gamma = np.array([math.gamma(v + 1) for v in small.tolist()])
    return np.concatenate([
        np.exp(-lam) * lam ** small / gamma if lam < 708.0
        else np.exp(small * np.log(lam) - lam - np.log(gamma)),
        np.exp(-s / big - 0.5 * np.log(2 * math.pi * big) - _bd0(big, lam))])


def _ncx2_cdf(x: float, d: int, lam: float) -> float:
    """F(x; d, lam) for lam >= 0, by the series of the module docstring."""
    y, h, mu = x / 2.0, d / 2.0, lam / 2.0
    if not math.sqrt(mu) - math.sqrt(y) < 27.3:     # else F < e^-745
        return math.nan if math.isnan(lam) else 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        peak = max(y, math.sqrt(y * mu))    # about h + m at the largest term
        half = 10.0 * math.sqrt(peak + 1.0) + 10.0
        lo = max(0, math.floor(peak - h - half))
        hi = max(lo, math.ceil(peak - h + half))
        while True:
            g = _dpois(h + np.arange(lo, hi + 1.0), y)
            # C_m = 1 to within _TAIL on the window where Chernoff's bound
            # e^-k^2/2(lo+1) on P(Pois(mu) > lo), k = lo + 1 - mu > 0, is
            # below it
            k = lo + 1 - mu
            if k > 0 and k * k > -2.0 * (lo + 1) * math.log(_TAIL):
                c_lo, total = 1.0, g.sum()
            else:
                # pmfs from 10 sd below min(lo, mu): the rest is < 2e-18 C_lo
                jlo = max(0, math.floor(min(lo, mu) - 10.0 * math.sqrt(mu)
                                        - 10.0))
                c = np.cumsum(_dpois(np.arange(jlo, hi + 1.0), mu))
                c_lo, total = c[lo - jlo], (g * c[lo - jlo:]).sum()
            # g_m falls at least geometrically past the ends: ratio r up, s
            # down (nothing lies below lo = 0, where y may be 0)
            r, s = y / (h + hi + 1), ((h + lo) / y if lo else math.inf)
            upper = g[-1] * r / (1 - r) if r < 1 else math.inf
            below = g[0] * s / (1 - s) if s < 1 else float(lo > 0)
            cut = _TAIL * total + np.finfo(float).tiny
            up, down = upper > cut, c_lo * below > cut
            if not (up or down):
                return min(total, 1.0)
            width = hi - lo + 1
            hi, lo = hi + up * width, max(0, lo - down * width)


def _ball_profile(r: float, t: float, rho, d: int):
    """[S(t) chi_r] at distance rho from the centre, for an array of rho
    taken one value at a time: P(|rho e_1 + sqrt(2t) Z| <= r) =
    F(r^2/2t; d, rho^2/2t).

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
    rho = np.asarray(rho, dtype=float)
    lam = np.ravel(rho * rho / (2.0 * t)).tolist()
    val = np.array([_ncx2_cdf(x, d, v) for v in lam]).reshape(rho.shape)
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
    """c'_d = F(1/2; d, 2), correctly rounded.

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

class BoundCheck:
    def __init__(self, bound: str, min_margin: float, witness: tuple,
                 n_checked: int):
        self.bound = bound  # "lemma" | "mass" | "beta"
        self.min_margin = min_margin
        self.witness = witness  # (r, t, rho) achieving the min margin
        self.n_checked = n_checked

    @property
    def passed(self) -> bool:
        return self.min_margin >= 0.0


class CertificationReport:
    def __init__(self, d: int, r_grid: tuple, t_grid: tuple,
                 kernel_rel_tol: float, checks: tuple = (),
                 constants: KernelConstants = None):
        self.d = d
        self.r_grid = r_grid
        self.t_grid = t_grid
        self.kernel_rel_tol = kernel_rel_tol
        self.checks = checks
        self.constants = constants

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


def verify_lower_bounds(d: int, r_grid, t_grid,
                        constants: KernelConstants = None) -> CertificationReport:
    """Numerically certify the three whole-space ball lower bounds on a
    non-empty grid of (r, t) cells.

    lemma: [S(t)chi_r](x) >= c_d (r/(r+sqrt t))^d for |x| <= r + sqrt t
    mass:  integral of S(t)chi_r              >= alpha_d r^d
    beta:  [S(t)chi_r](x) >= beta_d for |x| <= r + sqrt t, when t <= r^2

    S(t)chi_r is radially non-increasing: the heat kernel and chi_r are
    both symmetric decreasing, and so is their convolution (Riesz
    rearrangement; Lieb and Loss, Analysis, 3.4). On the ball
    |x| <= r + sqrt t it is therefore smallest at the edge, and one profile
    value there, lowered by the evaluator's relative budget to
    value * (1 - KERNEL_REL_TOL), bounds it on the whole ball. So a
    non-negative min_margin certifies the lemma and beta inequalities on
    every ball of the grid, up to floating-point rounding, however small the
    value; each is witnessed at (r, t, r + sqrt t) and n_checked counts
    cells. The mass is the exact whole-space value omega_d r^d (mass
    conservation).
    """
    consts = constants if constants is not None else kernel_constants(d)
    r_grid = tuple(float(r) for r in r_grid)
    t_grid = tuple(float(t) for t in t_grid)
    if not (r_grid and t_grid):
        raise ValueError("grids must be non-empty")
    if not all(0 < v < math.inf for v in r_grid + t_grid):
        raise ValueError("grids must be finite and positive")

    # bound -> [(margin, witness)] over the cells where it applies
    found = {"lemma": [], "mass": [], "beta": []}
    omega = unit_ball_volume(d)
    for r in r_grid:
        for t in t_grid:
            edge = r + math.sqrt(t)
            low = float(_ball_profile(r, t, edge, d)) * (1.0 - KERNEL_REL_TOL)
            found["lemma"].append((low - consts.c_d * (r / edge) ** d,
                                   (r, t, edge)))
            if t <= r ** 2:
                found["beta"].append((low - consts.beta_d, (r, t, edge)))
            found["mass"].append((omega * r ** d - consts.alpha_d * r ** d,
                                  (r, t, math.nan)))

    checks = []
    for k, cells in found.items():
        if cells:   # the first cell of smallest margin is the witness
            m, w = min(cells, key=lambda c: c[0])
            checks.append(BoundCheck(bound=k, min_margin=m, witness=w,
                                     n_checked=len(cells)))
    return CertificationReport(d=d, r_grid=r_grid, t_grid=t_grid,
                               kernel_rel_tol=KERNEL_REL_TOL,
                               checks=tuple(checks), constants=consts)
