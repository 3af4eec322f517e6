"""The certified numbers and verdicts of the golden reports, re-derived
from their inputs.

Each check reads a golden file, not a live run, so a change that
regenerates the golden outputs must pass it too.
"""

import json
import math
import re
from pathlib import Path

import mpmath
import pytest
from test_heatkernel import _hitting_probability

from heatlab.heatkernel import KERNEL_REL_TOL

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_verify_kernel_margins_match_the_mpmath_profile():
    # on each (r, t) cell the heat profile at the ball's edge r + sqrt t,
    # from the mpmath oracle, must clear the lemma bound c_d (r/edge)^d, and
    # beta_d where t <= r^2; the reported minimum margins are those of the
    # oracle, lowered by at most the relative budget on a profile <= 1
    report = json.loads((GOLDEN / "verify_kernel" / "stdout").read_text())
    rep, consts = report["report"], report["report"]["constants"]
    d = rep["d"]
    assert report["passed"] and rep["passed"] and consts["d"] == d
    assert rep["kernel_rel_tol"] == KERNEL_REL_TOL
    found = {"lemma": [], "beta": [], "mass": []}
    for r in rep["grid"]["r"]:
        for t in rep["grid"]["t"]:
            edge = r + math.sqrt(t)
            value = float(_hitting_probability(r, t, edge, d))
            found["lemma"].append((value - consts["c_d"] * (r / edge) ** d,
                                   [r, t, edge]))
            if t <= r ** 2:
                found["beta"].append((value - consts["beta_d"], [r, t, edge]))
            found["mass"].append(((consts["omega_d"] - consts["alpha_d"])
                                  * r ** d, [r, t, "nan"]))
    assert len(found["lemma"]) == 9
    for bound in rep["bounds"]:
        cells = found[bound["bound"]]
        margin, witness = min(cells, key=lambda c: c[0])
        assert margin >= 0.0 and bound["n_checked"] == len(cells)
        assert bound["min_margin"] == pytest.approx(margin,
                                                    abs=KERNEL_REL_TOL)
        assert bound["witnesses"] == [witness]


def test_iterate_horizon_integral_bounds_the_true_one():
    # f = s^2: F(s) = s, so (2/d) * int over [s0, inf) of s^-(1+2/d) F ds is
    # 2/s0 in d = 1, with s0 = (T / scale)^(-1/2); the report's integral
    # must lie above scale * 2/s0 = 2 sqrt(T scale)
    report = json.loads((GOLDEN / "iterate" / "iterate.json").read_text())
    hor = report["horizon"]
    assert report["f"] == "s^2" and hor["d"] == 1
    scale = (2.0 * hor["A"] * (4.0 * math.pi) ** -0.5 * hor["u0_l1"]) ** 2
    true = 2.0 * math.sqrt(hor["T"] * scale)
    assert true == pytest.approx(0.0127324, rel=1e-5)
    assert true <= hor["integral_value"] <= hor["condition_bound"]


@pytest.mark.parametrize("name, f, d, q, outcome", [
    # L^1 (q = 1): F(s) = s^2 and 1 + 2/d = 3, so int^inf s^-3 F(s) ds =
    # int^inf ds/s diverges; s^3 is the critical power in d = 1
    ("classify_power", "s^3", 1, 1.0, "NoLocalExistence"),
    # q > 1: gamma = 1 + 2q/d = 3, and limsup s^-3 s^2 = 0 is finite
    ("classify_lq", "s^2", 2, 2.0, "Exists"),
    # L^1: F(s) = f(s)/s = s/log(e+s) for large s, and 1 + 2/d = 2, so the
    # integrand is 1/(s log(e+s)), whose integral diverges like log log s
    ("classify_log", "s^2.0 / log(e + s)^1.0", 2, 1.0, "NoLocalExistence"),
    # q > 1: gamma = 1 + 2q/d = 4, and limsup s^-4 s^2 = 0 is finite
    ("classify_config", "s^2", 2, 3.0, "Exists"),
])
def test_classify_verdict_is_the_papers_condition(name, f, d, q, outcome):
    report = json.loads((GOLDEN / name / "stdout").read_text())
    assert (report["f"], report["d"], report["q"]) == (f, d, q)
    assert report["verdict"]["outcome"] == outcome
    assert (GOLDEN / name / "exit_code").read_text() == "0\n"


def test_horizon_refusal_matches_the_divergent_integral():
    # f = s + s^2 in d = 2: F(s) = sup over 1 <= t <= s of (t + t^2)/t =
    # 1 + s, so int_1^X s^-2 F(s) ds = 1 - 1/X + log X grows without bound:
    # L^1 data get no horizon (mpmath checks the closed form)
    for k in (3, 6, 12):
        partial = mpmath.quad(lambda s: s**-2 * (1 + s),
                              [10.0**j for j in range(0, k + 1, 3)])
        assert float(partial) == pytest.approx(1 - 10.0**-k + k * math.log(10),
                                               rel=1e-9)
    err = (GOLDEN / "horizon" / "stderr").read_text()
    verdict = re.fullmatch(r"error: no horizon for L\^1 data: classify_l1 "
                           r"says (\w+) for f = 's\+s\^2' in d = 2\n", err)
    assert verdict and verdict.group(1) == "NoLocalExistence"
    assert (GOLDEN / "horizon" / "exit_code").read_text() == "1\n"
