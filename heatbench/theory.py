"""What the theory says each benchmark input must produce, and the known
seed defects that the benchmark counts as failed operations.

The expectations come from the characterisation the package implements:

- q > 1, bounded domain: local existence for every L^q datum iff
  limsup_{s->inf} s^-(1+2q/d) f(s) < inf;
- q = 1: iff int_1^inf s^-(1+2/d) F(s) ds < inf, F(s) = sup_{1<=t<=s} f(t)/t;
  so s^p needs p < 1 + 2/d and s^(1+2/d)/log(e+s)^beta needs beta > 1;
- whole space: the bounded-domain condition plus limsup_{s->0} f(s)/s < inf;
- the critical exponent gamma* of f is its polynomial growth rate at
  infinity, so gamma* = p for s^p and 1 + 2/d for the log family;
- the Gaussian ball lower bounds that ``verify_lower_bounds`` samples are
  theorems, so every certificate must pass.

A check that fails is matched against ``KNOWN_FAILURES``. A match still
counts as a failed operation; only a failure that matches no entry makes a
run incorrect.
"""

from __future__ import annotations

EXISTS = "Exists"
NLE = "NoLocalExistence"
INCONCLUSIVE = "Inconclusive"


def family_exponents(family: str, params: dict, d: int) -> tuple:
    """(exponent of f near 0, exponent at infinity, log power at infinity)."""
    if family == "power":
        return params["p"], params["p"], 0.0
    if family == "s_plus_power":
        return min(1.0, params["p"]), max(1.0, params["p"]), 0.0
    if family == "piecewise_power":
        lo, hi = sorted((params["p_low"], params["p_high"]))
        return lo, hi, 0.0
    if family == "power_log":
        return params["a"], params["a"], params["b"]
    if family == "log_family":
        return 1.0 + 2.0 / d, 1.0 + 2.0 / d, -params["beta"]
    raise ValueError(f"unknown family {family!r}")


def expected_verdicts(family: str, params: dict, d: int, q: float) -> dict:
    """Theory's answers for one (f, d, q): L^1, L^q, whole space (at q) and
    the critical exponent gamma*."""
    zero_exp, inf_exp, log_pow = family_exponents(family, params, d)
    p1, pq = 1.0 + 2.0 / d, 1.0 + 2.0 * q / d
    if inf_exp != p1:
        l1 = EXISTS if inf_exp < p1 else NLE
    else:  # critical power with a log factor: converges iff log_pow < -1
        l1 = EXISTS if log_pow < -1.0 else NLE
    if inf_exp != pq:
        lq = EXISTS if inf_exp < pq else NLE
    else:
        lq = EXISTS if log_pow <= 0.0 else NLE
    whole = lq if zero_exp >= 1.0 else NLE
    return {"l1": l1, "lq": lq, "whole_space": whole, "gamma_star": inf_exp}


def verdict_ok(outcome: str, expected: str) -> bool:
    """A decided verdict must agree with the theory; Inconclusive is an
    honest answer, not a failure."""
    return outcome in (expected, INCONCLUSIVE)


# Seed defects reproduced by the benchmark inputs. Each entry names the
# inputs that trigger it, what goes wrong and the ROADMAP item that owns it;
# ``classify_failure`` maps a failed check to its entry.
KNOWN_FAILURES = {
    "log-family-large-beta": {
        "input": "decide: log_family with beta above about 3.2 (d = 3), "
                 "4.7 (d = 2) or 9.1 (d = 1), up to beta_max(d)",
        "symptom": "classify_l1 says NoLocalExistence and equivalence_check "
                   "disagrees; theory says Exists since beta > 1",
        "roadmap": "aim 3 (decided verdicts must be true); no open item yet",
    },
    "dead-band-below-threshold": {
        "input": "decide: growth just below a threshold, i.e. log_family "
                 "with 1 < beta < 1.25, or an exponent at infinity within "
                 "0.1 below 1 + 2/d (L^1) or 1 + 2q/d (L^q, with a log "
                 "factor)",
        "symptom": "decide_blocks declares divergence down to tau = -1.15 "
                   "and inside the sigma dead band, and decide_tail reads a "
                   "log factor as a positive slope, so inputs with local "
                   "existence get NoLocalExistence instead of Inconclusive",
        "roadmap": "aim 3 (decided verdicts must be true); item 5 verdict "
                   "margins would expose it",
    },
    "near-zero-ratio-dead-band": {
        "input": "decide: whole space with the exponent of f near 0 just "
                 "below 1 (0.9 < p < 1)",
        "symptom": "near_zero_ratio_check calls a slowly diverging f(s)/s "
                   "bounded, so the whole-space verdict is Exists instead "
                   "of NoLocalExistence",
        "roadmap": "aim 3 (decided verdicts must be true); no open item yet",
    },
    "kernel-quadrature": {
        "input": "decide: verify_lower_bounds for d = 2 or 3 at extreme "
                 "(r, t), e.g. r >= 10 with t <= 1e-2, or r <= 1e-2 with "
                 "t >= 10 (d = 3)",
        "symptom": "QuadratureError from the nested mass quadrature, or a "
                   "lemma margin of about -1e-9",
        "roadmap": "item 2 (closed form for heat on a ball)",
    },
    "horizon-refused-near-critical": {
        "input": "iterate: d = 1 with the exponent of f within 0.2 below 3 "
                 "(s^p, s + s^p) or log_family with beta < 1.6, and "
                 "||u0||_1 near 1 or more",
        "symptom": "find_existence_horizon raises 'integral condition "
                   "unsatisfiable' although the theory grants a horizon to "
                   "every L^1-subcritical f",
        "roadmap": "item 4 (horizon search wrongly reports the integral "
                   "divergent)",
    },
    "horizon-critical": {
        "input": "cli_cold: experiment horizon --f 's + s^2' --d 2 "
                 "--u0-l1 0.5 (the README example)",
        "symptom": "L^1-critical f gets a certified horizon T ~ 4.8e-15 "
                   "instead of a refusal (exit 1)",
        "roadmap": "item 4 (horizon remainder and refusal)",
    },
}


def _near_below(x: float, threshold: float, width: float) -> bool:
    return threshold - width < x < threshold


def classify_failure(workload: str, inp: dict, check: str,
                     detail: str = "") -> str:
    """Name of the known defect that explains a failed check, or ''."""
    if workload == "cli_cold":
        if inp["name"] == "horizon" and check == "exit_code":
            return "horizon-critical"
        return ""
    if workload == "iterate":
        if check == "exception" and inp["d"] == 1 and \
                "integral condition unsatisfiable" in detail:
            params = inp["params"]
            if "beta" in params and params["beta"] < 1.6 or \
                    "p" in params and _near_below(params["p"], 3.0, 0.2):
                return "horizon-refused-near-critical"
        return ""
    if workload != "decide":
        return ""
    d, family, params = inp["d"], inp["family"], inp["params"]
    if check == "kernel":
        return "kernel-quadrature" if d in (2, 3) else ""
    zero_exp, inf_exp, _ = family_exponents(family, params, d)
    if check in ("l1", "equivalence", "series", "integral"):
        if family == "log_family":
            beta = params["beta"]
            if 1.0 < beta < 1.25:
                return "dead-band-below-threshold"
            if beta > {1: 9.0, 2: 4.6, 3: 3.1}[d]:
                return "log-family-large-beta"
            return ""
        if _near_below(inf_exp, 1.0 + 2.0 / d, 0.1):
            return "dead-band-below-threshold"
        return ""
    if check in ("lq", "whole_space") and \
            _near_below(inf_exp, 1.0 + 2.0 * inp["q"] / d, 0.1):
        return "dead-band-below-threshold"
    if check == "whole_space" and _near_below(zero_exp, 1.0, 0.1):
        return "near-zero-ratio-dead-band"
    return ""
