"""The certified numbers of the golden reports, re-derived from their inputs.

Each check reads a golden file, not a live run, so a change that
regenerates the golden outputs must pass it too.
"""

import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


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
