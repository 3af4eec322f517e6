"""End-to-end CLI tests: exit codes, determinism, config handling, artifacts."""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab
from heatlab.cli import (
    COMMANDS,
    CliError,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXPERIMENTS,
    OPTIONS,
    REQUIRED,
    _PCG64,
    _with_config,
    build_parser,
    constants_block,
    load_config,
    main,
)
from heatlab.databuilder import ScheduleError
from heatlab.heatkernel import QuadratureError
from heatlab.nonlinearity import AuditError
from heatlab.solver import SolverError, _lapacke_dstemr


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- classify -----------------------------------------------------------------


def test_classify_supercritical_l1(capsys):
    code, rep = run_json(capsys, ["classify", "--f", "s^3", "--d", "1",
                                  "--q", "1"])
    assert code == EXIT_OK
    assert rep["verdict"]["outcome"] == "NoLocalExistence"
    assert rep["constants"]["kernel"]["d"] == 1


def test_classify_critical_l2(capsys):
    code, rep = run_json(capsys, ["classify", "--f", "s^2", "--d", "2",
                                  "--q", "2"])
    assert code == EXIT_OK and rep["verdict"]["outcome"] == "Exists"


def test_classify_builtin_log_family(capsys):
    code, rep = run_json(capsys, ["classify", "--builtin", "log_family",
                                  "--d", "2", "--beta", "1", "--q", "1"])
    assert code == EXIT_OK
    assert rep["verdict"]["outcome"] == "NoLocalExistence"


def test_classify_unknown_term_exit_code(capsys):
    # exp(log(s)) = s, but exp of a term of order log s has no leading term
    # the walk can read: Inconclusive, exit 2
    code, rep = run_json(capsys, ["classify", "--f", "exp(log(s))", "--d",
                                  "2", "--q", "2"])
    assert code == EXIT_INCONCLUSIVE
    assert rep["verdict"]["outcome"] == "Inconclusive"
    assert rep["verdict"]["evidence"]["leading_term"] == "unknown"


def test_classify_just_above_the_critical_power(capsys):
    # s^3.02 against gamma = 3: a power 0.02 above the critical one is
    # decided
    code, rep = run_json(capsys, ["classify", "--f", "s^3.02", "--d", "2",
                                  "--q", "2"])
    assert code == EXIT_OK
    assert rep["verdict"]["outcome"] == "NoLocalExistence"


def test_classify_parse_error_exit(capsys):
    assert main(["classify", "--f", "s^(", "--d", "1", "--q", "1"]) \
        == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_classify_missing_param_exit():
    assert main(["classify", "--f", "s^2"]) == EXIT_ERROR


def test_classify_audit_rejection_exit():
    # beta above the admissible monotonicity range
    assert main(["classify", "--builtin", "log_family", "--d", "2",
                 "--beta", "10", "--q", "1"]) == EXIT_ERROR


def test_classify_beyond_three_dimensions(capsys):
    # the ball profile has no dimension limit, so neither has the constants
    # block every report embeds
    code, rep = run_json(capsys, ["classify", "--f", "s^2", "--d", "4",
                                  "--q", "2"])
    assert code == EXIT_OK and rep["verdict"]["outcome"] == "Exists"
    kernel = rep["constants"]["kernel"]
    assert kernel["d"] == 4
    assert 0.0 < kernel["c_d"] < 1.0
    assert kernel["beta_d"] == pytest.approx(kernel["c_d"] / 16, rel=1e-15)


@pytest.mark.parametrize("d", [10 ** 6, 2 ** 53])
def test_classify_in_a_huge_dimension(capsys, d):
    # every d below 2^54 is in scope, and c'_d rounds to 0 from d = 279, so
    # the constants block reads 0 there without summing its series
    code, rep = run_json(capsys, ["classify", "--f", "s", "--d", str(d),
                                  "--q", "1"])
    assert code == EXIT_OK and rep["verdict"]["outcome"] == "Exists"
    assert rep["constants"]["kernel"]["c_prime"] == 0.0


# --- determinism, config, artifacts -------------------------------------------


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["classify", "--f", "s^2", "--d", "1", "--q", "2"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    # volatile details live next to the report, not inside it
    meta = json.loads((tmp_path / "a.json.meta.json").read_text())
    assert "timestamp" in meta
    assert "timestamp" not in a.read_text()


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f = s^3\nd = 1\nq = 1  # trailing comment\n")
    code, rep = run_json(capsys, ["classify", "--config", str(cfg)])
    assert code == EXIT_OK and rep["q"] == 1.0
    code, rep = run_json(capsys, ["classify", "--config", str(cfg),
                                  "--q", "3"])
    assert rep["q"] == 3.0  # flags win over file values


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_option = 1\n")
    assert main(["classify", "--config", str(cfg), "--f", "s^2",
                 "--d", "1", "--q", "1"]) == EXIT_ERROR


def test_config_parser_accepts_dashes(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("r-grid = 0.5,1\n")
    assert load_config(str(cfg)) == {"r_grid": "0.5,1"}


@pytest.mark.parametrize("f, d, q", [
    ("s^2*exp(-s/1e15)", "1", "1"),     # decreases from s = 2e15
    ("max(0, 1e16 - s)*s^2", "2", "2"),  # vanishes from s = 1e16
])
def test_classify_refuses_an_f_that_decreases_beyond_the_grid(capsys, f, d,
                                                               q):
    # non-decreasing on the audit grid up to 2^48, but its leading term at
    # infinity tends to 0 or is zero while f(2^48) > 0
    assert main(["classify", "--f", f, "--d", d, "--q", q]) == EXIT_ERROR
    assert _assert_one_line_error(capsys).startswith("error: audit failed: ")


# --- verify-kernel -------------------------------------------------------------


def test_verify_kernel_passes(capsys):
    code, rep = run_json(capsys, ["verify-kernel", "--d", "1",
                                  "--r-grid", "0.5,1", "--t-grid", "0.25,1"])
    assert code == EXIT_OK and rep["passed"]
    assert rep["report"]["passed"]
    assert rep["report"]["variant"] == "whole_space"
    assert rep["constants"]["kernel"]["variant"] == "whole_space"


def test_verify_kernel_has_no_dirichlet_variant(capsys):
    # only the whole-space kernel is evaluated, so there is nothing to
    # certify for the Dirichlet constants; an unknown flag is a usage error
    assert main(["verify-kernel", "--d", "1", "--variant",
                 "dirichlet"]) == EXIT_ERROR
    assert "--variant" in _assert_one_line_error(capsys)


def test_verify_kernel_inflated_constant_fails(monkeypatch, capsys):
    # the certifier reads kernel_constants; c_d = 1 (0.0297 holds at d = 1)
    # must fail the lemma bound and name the point that fails it
    import heatlab.heatkernel as heatkernel_mod
    real = heatkernel_mod.kernel_constants
    monkeypatch.setattr(
        heatkernel_mod, "kernel_constants",
        lambda d: heatkernel_mod.KernelConstants(**{**vars(real(d)),
                                                    "c_d": 1.0}))
    code, rep = run_json(capsys, ["verify-kernel", "--d", "1",
                                  "--r-grid", "0.5", "--t-grid", "0.25"])
    assert code == EXIT_ERROR and not rep["passed"]
    lemma, = [b for b in rep["report"]["bounds"] if b["bound"] == "lemma"]
    assert lemma["min_margin"] < 0.0
    assert lemma["witnesses"] == [[0.5, 0.25, 1.0]]


def test_verify_kernel_narrow_peak_passes(capsys):
    # a sweep point whose kernel peak is far narrower than the ball
    code, rep = run_json(capsys, ["verify-kernel", "--d", "2",
                                  "--r-grid", "30", "--t-grid", "1e-3"])
    assert code == EXIT_OK and rep["passed"]


def test_verify_kernel_out_of_range_is_an_error(capsys):
    # r^2/2t = 5e14 is beyond the evaluator's range: a one-line error, not a
    # verdict on the theorem
    assert main(["verify-kernel", "--d", "2", "--r-grid", "1e3",
                 "--t-grid", "1e-9"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# --- experiments ---------------------------------------------------------------


def test_experiment_horizon_positive(capsys):
    code, rep = run_json(capsys, ["experiment", "horizon", "--f", "s + s^2",
                                  "--d", "1", "--u0-l1", "0.5"])
    assert code == EXIT_OK
    assert rep["result"]["T"] > 0.0
    assert rep["result"]["integral_value"] <= rep["result"]["condition_bound"]


@pytest.mark.parametrize("f, d", [("s + s^2", "2"), ("s^3", "1"),
                                  ("s^2*log(e+s)", "2")])
def test_experiment_horizon_refused_without_the_l1_condition(capsys, f, d):
    # L^1-critical or supercritical f: classify_l1 says NoLocalExistence, so
    # no horizon is granted to data with ||u0||_1 > 0
    assert main(["experiment", "horizon", "--f", f, "--d", d,
                 "--u0-l1", "0.5"]) == EXIT_ERROR
    assert "classify_l1 says NoLocalExistence" in \
        _assert_one_line_error(capsys)


def test_experiment_iterate_certifies(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    code, rep = run_json(capsys, ["experiment", "iterate", "--f", "s^2",
                                  "--d", "1", "--r", "0.5",
                                  "--amplitude", "0.1", "--nodes", "129",
                                  "--n-time", "32", "--csv", str(csv_path)])
    assert code == EXIT_OK
    assert rep["supersolution_margin"] >= 0.0
    assert rep["converged"] and rep["residual"] < 1e-6
    assert csv_path.read_text().startswith("iteration,sup_delta")


def test_experiment_simulate_trajectory(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code, rep = run_json(capsys, ["experiment", "simulate", "--f", "s^2",
                                  "--d", "1", "--r", "0.5",
                                  "--amplitude", "0.1", "--T", "0.01",
                                  "--nodes", "129", "--csv", str(csv_path)])
    assert code == EXIT_OK and not rep["blowup"]
    assert isinstance(rep["rejected_steps"], int)
    rows = csv_path.read_text().splitlines()
    assert rows[0].split(",") == ["t", "l1", "l2", "linf", "dt", "clamps"]
    # a header, the initial state and one row per accepted step
    assert len(rows) == rep["steps"] + 2


def test_experiment_simulate_step_budget_exit(monkeypatch, capsys):
    import heatlab.solver as solver_mod
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 5)
    code = main(["experiment", "simulate", "--f", "s^2", "--d", "1",
                 "--nodes", "33", "--T", "1", "--dt", "1e-6"])
    err = capsys.readouterr().err.strip()
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and "step budget of 5 steps" in err


def test_experiment_lower_bound(capsys):
    code, rep = run_json(capsys, ["experiment", "lower_bound", "--f", "s^2",
                                  "--d", "1", "--r", "0.5", "--t", "0.01"])
    assert code == EXIT_OK
    assert rep["min_on_ball"] > 0.0 and rep["lq"] > 0.0


def test_experiment_blowup_trend_monotone(capsys):
    code, rep = run_json(capsys, ["experiment", "blowup_trend", "--f", "s^4",
                                  "--d", "1", "--q", "1",
                                  "--N-range", "3..6"])
    assert code == EXIT_OK
    assert rep["peak_l1_strictly_increasing"]
    peaks = [r["peak_l1"] for r in rep["rows"]]
    assert peaks == sorted(peaks)


def test_experiment_equivalence_suite_small(capsys):
    code, rep = run_json(capsys, ["experiment", "equivalence_suite",
                                  "--seed", "7", "--count", "4", "--d", "2"])
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert rep["n_disagreements"] == 0
    assert len(rep["cases"]) == 4


@pytest.mark.parametrize("seed", ["123", "18446744073709551619"])
def test_experiment_equivalence_suite_d3(capsys, seed):
    # cases with a < 1 + 2/3 and a log factor, which the sampled integral
    # route once read as divergent
    code, rep = run_json(capsys, ["experiment", "equivalence_suite",
                                  "--seed", seed, "--count", "20", "--d", "3"])
    assert code == EXIT_OK
    assert (rep["n_decided"], rep["n_disagreements"]) == (20, 0)


def _assert_default_rng_stream(seed, draws):
    # numpy.random is the oracle here alone: the CLI never imports it
    ours, numpys = _PCG64(seed), np.random.default_rng(seed)
    bounds = [(1.3, 2.7), (0.0, 1.5), (-3.0, 1e3)]
    for k in range(draws):
        lo, hi = bounds[k % 3]
        assert ours.uniform(lo, hi) == numpys.uniform(lo, hi), (seed, k)


@pytest.mark.parametrize("seed", [*range(256), 2**32, 2**64 + 3,
                                  2**200 + 12345])  # 7 words, pool holds 4
def test_suite_stream_is_default_rng_bit_for_bit(seed):
    _assert_default_rng_stream(seed, 1000)


@given(st.integers(0, 2**256 - 1))
@settings(max_examples=200, deadline=None)
def test_suite_stream_is_default_rng_on_any_seed(seed):
    _assert_default_rng_stream(seed, 50)


# --- inputs outside the solver's or the theorem's scope -------------------------


def _assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def test_blowup_trend_schedule_error(capsys):
    # f = s^2 has no spike schedule for d = 2, q = 1
    assert main(["experiment", "blowup_trend", "--f", "s^2", "--d", "2",
                 "--q", "1", "--N-range", "3..5"]) == EXIT_ERROR
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["classify", "--f", "s^2", "--d", "0", "--q", "1"],
    ["classify", "--f", "s^2", "--d", "-2", "--q", "2"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "nan"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "inf"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "0.5"],
    ["classify", "--builtin", "log_family", "--d", "0", "--beta", "1",
     "--q", "1"],
    ["verify-kernel", "--d", "0"],
    ["experiment", "horizon", "--f", "s^2", "--d", "0", "--u0-l1", "1"],
    ["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--t", "0.01", "--q", "inf"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "1",
     "--q", "nan"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "-1"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--n-time", "1"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--n-time", "0"],
    ["experiment", "equivalence_suite", "--d", "0", "--count", "2"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "2", "--s-max", "1e400"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "2", "--s-max", "nan"],
    ["classify", "--f", "log(s-1)", "--d", "1", "--q", "2"],
    ["verify-kernel", "--d", "2", "--r-grid", ",", "--t-grid", "1"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "5..3"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3..3"],
    ["experiment", "horizon", "--f", "s^2", "--d", "1", "--u0-l1", "inf"],
    ["verify-kernel", "--d", "2", "--n-points", "5"],
    ["verify-kernel", "--d", "2", "--n-points", "17"],
    ["experiment", "horizon", "--f", "s^2", "--d", "1", "--u0-l1", "1e200"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3.."],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "a..b"],
    ["classify", "--f", "s^3", "--d", "1", "--q", "1", "--s-max", "1e300"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "2", "--domain",
     "whole_space", "--s-max", "1e6"],
    ["experiment", "equivalence_suite", "--count", "0"],
    ["experiment", "equivalence_suite", "--count", "-1"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--n-iter", "0"],
    ["classify", "--f", "s^2", "--d", "1", "--q", "1e308"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1e308",
     "--N-range", "3..5"],
    ["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--t", "0.01", "--q", "1e308"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--dt", "0"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--dt", "-1"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--dt", "nan"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--q", "1e300"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--q", "1e300", "--amplitude", "2"],
    ["classify", "--f=" + "(" * 200 + "s" + ")" * 200, "--d", "1", "--q", "2"],
    ["classify", "--f=s^2" + "+0" * 989, "--d", "1", "--q", "2"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3..8", "--epsilon", "nan"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3..8", "--epsilon", "-1"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3..8", "--R", "nan"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3..8", "--R", "inf"],
    ["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--t", "inf"],
    ["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "nan",
     "--t", "0.01"],
    ["verify-kernel", "--d", "2", "--r-grid", "1", "--t-grid", "inf"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--R", "inf"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--amplitude", "inf"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "2", "--bogus"],
    ["classify", "--builtin", "nope", "--d", "2", "--q", "2"],
    ["classify", "--f", "s^2", "--d", "2", "--q"],
    [],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3..5", "--n-time", "0"],
    ["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
     "--N-range", "3..5", "--n-time", "-2"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--nodes", "0"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--nodes", "0"],
    # from d = 2^54 on 1 + 2/d rounds to 1; below it classify decides in
    # every dimension (test_classify_in_a_huge_dimension)
    ["classify", "--f", "s^2", "--d", str(2 ** 54), "--q", "1"],
    ["verify-kernel", "--d", "1000000"],
    ["classify", "--f", "s^2", "--d", "1" + "0" * 400, "--q", "2"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1" + "0" * 30],
    ["experiment", "simulate", "--f", "s^2", "--T", "0.01", "--d",
     "1" + "0" * 30],
    ["experiment", "simulate", "--f", "s^2", "--T", "0.01", "--d", "150"],
    ["experiment", "simulate", "--f", "s^2", "--T", "0.01", "--d", "20"],
    ["experiment", "horizon", "--f", "s-2", "--d", "2", "--u0-l1", "0"],
    ["experiment", "horizon", "--f", "2-s", "--d", "2", "--u0-l1", "0.5"],
    ["experiment", "lower_bound", "--f", "s-2", "--d", "1", "--r", "0.5",
     "--t", "0.01"],
    ["experiment", "simulate", "--f", "1/(1+s)", "--d", "1", "--T", "0.01"],
    ["experiment", "iterate", "--f", "1/(1+s)", "--d", "1"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--nodes", "10"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--R", "1e-200"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
     "--R", "1e200"],
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--n-time", "1"],
    # classify has no sampled evidence table to write
    ["classify", "--f", "s^2", "--d", "1", "--q", "2", "--csv", "x.csv"],
    # lower_bound reports one value on one ball: no profile to write
    ["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--t", "0.01", "--csv", "x.csv"],
    # the ball's volume omega_d (r + sqrt t)^d overflows a double
    ["experiment", "lower_bound", "--f", "s^2", "--d", "40", "--r", "1e8",
     "--t", "0.01"],
])
def test_out_of_scope_input_is_a_one_line_error(capsys, argv):
    assert main(argv) == EXIT_ERROR
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("argv, names", [
    # iterate runs the horizon before it builds the propagator, and there
    # (2 A c ||u0||_1)^2 underflows first
    (["experiment", "iterate", "--f", "s^2", "--d", "1", "--R", "1e-200"],
     ("||u0||_1 = 1e-200", "A = 2", "d = 1")),
    # the band's diagonal overflows
    (["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
      "--R", "1e200", "--nodes", "65"], ("d = 1", "R = 1e+200", "65 nodes")),
    # blowup_trend takes one step; a trapezoid in time needs two slices
    (["experiment", "iterate", "--f", "s^2", "--d", "1", "--n-time", "1"],
     ("--n-time",)),
    # LAPACK's MRRR fails, here because every call is stubbed to fail
    (["experiment", "simulate", "--f", "s^2", "--d", "2", "--T", "0.01",
      "--R", "1e-100"],
     ("LAPACK dstemr failed (info = 22)", "d = 2", "R = 1e-100",
      "257 nodes")),
    # the band's diagonal underflows to 0 (iterate meets its horizon first)
    (["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
      "--R", "1e-200"], ("d = 1", "R = 1e-200", "257 nodes")),
    # the mass check's r^d overflows at r = 4 of the default grid
    (["verify-kernel", "--d", "512"], ("d = 512", "r = 4")),
    (["verify-kernel", "--d", "1000000"], ("d = 1000000", "r = 4")),
])
def test_refusal_names_its_input(monkeypatch, capsys, argv, names):
    import heatlab.solver as solver_mod
    monkeypatch.setattr(solver_mod, "_lapacke_dstemr",
                        lambda: lambda *args: 22)
    assert main(argv) == EXIT_ERROR
    err = _assert_one_line_error(capsys)
    assert all(name in err for name in names), err


class _Refused(SolverError):
    pass


@pytest.mark.parametrize("cls, known", [
    (SolverError, True), (ScheduleError, True), (_Refused, True),
    (QuadratureError, True), (CliError, True), (AuditError, True),
    (ZeroDivisionError, False), (RuntimeError, False)])
def test_main_catches_its_errors_alone(monkeypatch, capsys, cls, known):
    # main turns heatlab's errors, which are all ValueErrors, their
    # subclasses included, into one line and exit 1; any other exception
    # keeps its traceback
    def refuse(args):
        raise cls("refused")
    monkeypatch.setitem(COMMANDS, "classify",
                        (refuse, *COMMANDS["classify"][1:]))
    argv = ["classify", "--f", "s^2", "--d", "1", "--q", "2"]
    if known:
        assert main(argv) == EXIT_ERROR
        audit = "audit failed: " if cls is AuditError else ""
        assert _assert_one_line_error(capsys) == f"error: {audit}refused\n"
    else:
        with pytest.raises(cls, match="refused"):
            main(argv)


def test_every_heatlab_error_is_a_value_error():
    # the one family main catches; solver's and databuilder's errors are
    # defined in their own modules, and heatkernel hosts only its own
    import importlib
    defined = {}
    for name in ("nonlinearity", "criteria", "heatkernel", "solver",
                 "databuilder", "cli"):
        module = importlib.import_module(f"heatlab.{name}")
        classes = [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__]
        assert all(issubclass(cls, ValueError) for cls in classes), classes
        defined[name] = sorted(cls.__name__ for cls in classes)
    assert defined == {
        "nonlinearity": ["AuditError", "DomainError", "ExpressionError",
                         "ParseError"],
        "criteria": [], "heatkernel": ["QuadratureError"],
        "solver": ["SolverError"], "databuilder": ["ScheduleError"],
        "cli": ["CliError"]}
    assert SolverError.__module__ == "heatlab.solver"
    assert ScheduleError.__module__ == "heatlab.databuilder"


@pytest.mark.parametrize("kind", [["iterate"], ["simulate", "--T", "0.01"]])
def test_f_is_audited_before_the_propagator_is_built(monkeypatch, capsys,
                                                    kind):
    # u0 on its grid is cheap and the grid's eigendecomposition is not, so
    # an f that fails the audit is refused before build_propagator runs
    import heatlab.solver as solver_mod

    def build_propagator(grid):
        raise AssertionError("the propagator was built")
    monkeypatch.setattr(solver_mod, "build_propagator", build_propagator)
    assert main(["experiment", *kind, "--f", "2-s", "--d", "2", "--r", "0.5",
                 "--nodes", "1025"]) == EXIT_ERROR
    assert "audit failed" in _assert_one_line_error(capsys)


def test_small_ball_is_not_refused(capsys):
    # LAPACK's MRRR failed on the unscaled d = 2 band at R = 1e-5 (info 22);
    # the modes decay on a time scale ~ R^2, so the step floor that declares
    # blow-up scales with R^2 below R = 1; the decayed field's sums w |u|^2
    # underflow to 0 and its l^2 norm is taken on u / max|u|
    for d, R in [(1, "1e-5"), (2, "1e-5"), (2, "1e-3")]:
        code, rep = run_json(capsys, ["experiment", "simulate", "--f", "s^2",
                                      "--d", str(d), "--T", "0.01",
                                      "--R", R])
        assert code == EXIT_OK and rep["T"] == 0.01, (d, R)
        assert rep["blowup"] is False and rep["steps"] > 0, (d, R)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 12 and 15: at R = "
                   "1e-100 the adaptive step halves below DT_MIN R^2 at t "
                   "~ 8.8e-199, after about 19 000 steps, while the data "
                   "only decay, and the run reports a blow-up")
def test_tiny_ball_reports_no_blowup(capsys):
    code, rep = run_json(capsys, ["experiment", "simulate", "--f", "s^2",
                                  "--d", "2", "--T", "0.01", "--R", "1e-100",
                                  "--nodes", "33"])
    assert code == EXIT_OK
    assert rep["blowup"] is False


@pytest.mark.parametrize("R", ["1e3", "1e6"])
def test_large_ball_still_halves_steps_into_blowup(capsys, R):
    # above R = 1 the reaction sets the step, so the floor stays DT_MIN
    code, rep = run_json(capsys, ["experiment", "simulate", "--f", "s^2",
                                  "--d", "1", "--T", "0.01", "--R", R,
                                  "--amplitude", "200"])
    assert code == EXIT_OK and rep["blowup"] is True
    assert rep["rejected_steps"] > 0 and 0 < rep["blowup_time"] < 0.01


@pytest.mark.parametrize("message", [
    "Unable to allocate 74.5 GiB for an array with shape (99999, 99999) and "
    "data type float64", ""])
def test_basis_too_big_to_allocate_is_a_one_line_error(monkeypatch, capsys,
                                                       message):
    # what --nodes 100000 raises; the basis is never allocated here
    import heatlab.solver as solver_mod

    def build_propagator(grid):
        raise MemoryError(message)
    monkeypatch.setattr(solver_mod, "build_propagator", build_propagator)
    assert main(["experiment", "simulate", "--f", "s^2", "--d", "1",
                 "--T", "0.01", "--nodes", "100000"]) == EXIT_ERROR
    assert (message or "MemoryError") in _assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["experiment", "horizon", "--f", "2-s", "--d", "2", "--u0-l1", "0.5"],
    ["experiment", "iterate", "--f", "1/(1+s)", "--d", "1"],
    ["experiment", "simulate", "--f", "1/(1+s)", "--d", "1", "--T", "0.01"],
    ["experiment", "lower_bound", "--f", "s-2", "--d", "1", "--r", "0.5",
     "--t", "0.01"],
    ["experiment", "blowup_trend", "--f", "1/(1+s)", "--d", "1", "--q", "1",
     "--N-range", "3..5"],
    ["experiment", "horizon", "--f", "max(0, 2e9 - s)*s^2", "--d", "2",
     "--u0-l1", "0.5"],
])
def test_experiments_refuse_an_f_that_classify_refuses(capsys, argv):
    # classify's one audit, on [0, 2^48], gives the same line
    assert main(argv) == EXIT_ERROR
    err = _assert_one_line_error(capsys)
    assert main(["classify", "--f", argv[3], "--d", "1", "--q", "2"]) \
        == EXIT_ERROR
    assert _assert_one_line_error(capsys) == err
    assert err.startswith("error: audit failed: ")


@pytest.mark.parametrize("argv, codes", [
    (["classify", "--f", "0*s", "--d", "1", "--q", "2"], {EXIT_OK}),
    (["classify", "--f", "0*s", "--d", "2", "--q", "2", "--domain",
      "whole_space"], {EXIT_OK}),
    (["classify", "--f", "s^2", "--d", "1", "--q", "1e307"], {EXIT_OK}),
    (["classify", "--f", "0*s", "--d", "1", "--q", "1"], {EXIT_OK}),
    (["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
      "--q", "1e300"], {EXIT_ERROR}),
    (["experiment", "simulate", "--f", "s^2", "--T", "0.01", "--d", "150"],
     {EXIT_ERROR}),
])
def test_vanishing_or_overflowing_powers_run_clean(tmp_path, argv, codes):
    # in a fresh process, so that numpy's RuntimeWarnings reach stderr
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    out = subprocess.run([sys.executable, "-m", "heatlab.cli", *argv],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode in codes
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr
    if argv[0] == "classify":
        verdict = json.loads(out.stdout)["verdict"]["outcome"]
        assert verdict == ("Exists" if codes == {EXIT_OK} else "Inconclusive")
    else:
        assert out.stderr.startswith("error: ") and \
            out.stderr.count("\n") == 1


@pytest.mark.parametrize("N_range", ["3", "3..", "a..b", "3..4..5"])
def test_blowup_trend_names_the_range_form(capsys, N_range):
    assert main(["experiment", "blowup_trend", "--f", "s^4", "--d", "1",
                 "--q", "1", "--N-range", N_range]) == EXIT_ERROR
    assert "LO..HI" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["1", "2", "60", "80", "99", "400"])
def test_horizon_of_a_constant_ratio_in_any_dimension(capsys, d):
    # F = 1e12, so the exact horizon is (A-1)/A / 1e12 = 5e-13 in every d;
    # the cell bounds of F cost at most the grid ratio, 1.01
    code, rep = run_json(capsys, ["experiment", "horizon", "--f", "1e12*s",
                                  "--d", d, "--u0-l1", "0.5"])
    assert code == EXIT_OK
    assert 0.98 * 5e-13 <= rep["result"]["T"] <= 5e-13
    assert rep["result"]["integral_value"] <= rep["result"]["condition_bound"]


def test_blowup_trend_step_overflow_names_dt(capsys):
    # dt = 1e300 / 20: the candidate u + dt f(u) overflows, which is one line
    # that names dt and no numpy warning (RuntimeWarnings raise here)
    assert main(["experiment", "blowup_trend", "--f", "s^4", "--d", "1",
                 "--q", "1", "--N-range", "1..2", "--T", "1e300"]) == EXIT_ERROR
    assert _assert_one_line_error(capsys) == \
        "error: dt f(u) overflows at dt = 5e+298\n"


def test_blowup_trend_default_T_names_its_derivation(capsys):
    # f(sup u0) = exp(1370.9) overflows, so the default T is 0
    assert main(["experiment", "blowup_trend", "--f", "exp(s)", "--d", "1",
                 "--q", "1", "--N-range", "1..3"]) == EXIT_ERROR
    err = _assert_one_line_error(capsys)
    assert "the default T = 0.1 sup u0 / f(sup u0) is 0" in err, err
    assert err.endswith("; pass --T\n"), err


@pytest.mark.parametrize("n_time", ["0", "-2"])
def test_blowup_trend_names_the_step_count(capsys, n_time):
    assert main(["experiment", "blowup_trend", "--f", "s^4", "--d", "1",
                 "--q", "1", "--N-range", "3..5",
                 "--n-time", n_time]) == EXIT_ERROR
    assert capsys.readouterr().err == ("error: argument --n-time: expected "
                                       f"an integer >= 1, got '{n_time}'\n")


def test_readme_commands_parse(tmp_path, monkeypatch):
    # every `heatlab ...` line of the README's shell blocks, continuation
    # lines joined and comments dropped, is accepted by the parser, with the
    # README's run.cfg spliced in as main does
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("heatlab ")]
    assert len(commands) >= 10
    run_cfg = re.search(r"```\n(# run.cfg\n.*?)```", text, re.S)[1]
    (tmp_path / "run.cfg").write_text(run_cfg)
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(_with_config(argv))


# --- cold start ---------------------------------------------------------------

NEEDS_DSTEMR = pytest.mark.skipif(
    _lapacke_dstemr() is None,
    reason="numpy's BLAS exports no LAPACKE dstemr, so building a propagator "
           "off the uniform 1-D grid falls back to scipy")


@pytest.mark.parametrize("argv", [
    [],  # import heatlab alone
    ["classify", "--f", "s^3", "--d", "1", "--q", "1"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "2"],
    ["classify", "--builtin", "log_family", "--d", "2", "--beta", "1",
     "--q", "1"],
    ["classify", "--config", "run.cfg", "--q", "3"],
    ["experiment", "horizon", "--f", "s + s^2", "--d", "1", "--u0-l1", "0.5"],
    ["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--t", "0.01"],
    # the README equivalence_suite: its seeded stream is a pure-Python PCG64
    ["experiment", "equivalence_suite", "--seed", "7", "--count", "20",
     "--d", "2"],
    # the README iterate and simulate, on the uniform 1-D grid
    ["experiment", "iterate", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--amplitude", "0.1", "--out", "iterate.json", "--csv", "trace.csv"],
    ["experiment", "simulate", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--amplitude", "0.1", "--T", "0.01", "--csv", "trajectory.csv"],
    # the README blowup_trend on its graded grids, and iterate and simulate
    # at d = 2: LAPACK dstemr, called in numpy's own OpenBLAS
    pytest.param(["experiment", "blowup_trend", "--f", "s^4", "--d", "1",
                  "--q", "1", "--N-range", "3..8"], marks=NEEDS_DSTEMR),
    pytest.param(["experiment", "iterate", "--f", "s^1.5", "--d", "2",
                  "--r", "0.5", "--amplitude", "0.1"], marks=NEEDS_DSTEMR),
    pytest.param(["experiment", "simulate", "--f", "s^2", "--d", "2",
                  "--r", "0.5", "--amplitude", "0.1", "--T", "0.01"],
                 marks=NEEDS_DSTEMR),
    # the README verify-kernel: the ball profile is a series on floats
    ["verify-kernel", "--d", "2", "--r-grid", "0.25,1,4", "--t-grid",
     "0.01,1,4"],
])
def test_deciding_commands_leave_scipy_unimported(tmp_path, argv):
    # no command needs scipy: the constants, the classifiers, the horizon,
    # the ball profile and both spectra (the cosine closed form on the
    # uniform 1-D grid, dstemr in numpy's BLAS on every other) run without
    # it; nor numpy.random, counted from the modules present once numpy is
    # imported, so a numpy that loads numpy.random eagerly does not fail
    (tmp_path / "run.cfg").write_text("f = s^2\nd = 2\nq = 2\n")
    script = ("import sys\n"
              "import numpy\n"
              "before = set(sys.modules)\n"
              "import heatlab\n"
              "from heatlab.cli import main\n"
              "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(rc, sorted(m for m in set(sys.modules) - before\n"
              "                 if m.split('.')[0] == 'scipy'\n"
              "                 or m.startswith('numpy.random')))\n")
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    out = subprocess.run([sys.executable, "-c", script, *argv],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.splitlines()[-1] in ("0 []", "2 []")


@pytest.mark.parametrize("argv, code", [
    (["classify", "--f", "s^3", "--d", "1", "--q", "1"], 0),
    (["classify", "--f", "s^2", "--d", "2", "--q", "2"], 0),
    (["classify", "--builtin", "log_family", "--d", "2", "--beta", "1",
      "--q", "1"], 0),
    (["classify", "--config", "run.cfg", "--q", "3"], 0),
    # refused by classify_l1 before any array
    (["experiment", "horizon", "--f", "s + s^2", "--d", "2", "--u0-l1",
      "0.5"], 1),
    (["experiment", "equivalence_suite", "--seed", "7", "--count", "20",
      "--d", "2"], 0),
    # the Duhamel lower bound sums its 512 cells on Python floats
    (["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "0.5",
      "--t", "0.01"], 0),
    # the ball profiles are a series on Python floats
    (["verify-kernel", "--d", "2", "--r-grid", "0.25,1,4", "--t-grid",
      "0.01,1,4"], 0),
    # error exits: a usage error, an audit failure, a scope refusal and the
    # lower bound's audit failure
    (["classify", "--f", "s^3", "--d", "1", "--q", "1", "--bogus"], 1),
    (["classify", "--f", "2-s", "--d", "1", "--q", "1"], 1),
    (["classify", "--f", "s^3", "--d", "100000000000000000", "--q", "1"], 1),
    (["experiment", "lower_bound", "--f", "2-s", "--d", "1", "--r", "0.5",
      "--t", "0.01"], 1),
])
def test_deciding_commands_leave_numpy_unloaded(tmp_path, argv, code):
    # the README's deciding commands, verify-kernel and the lower bound run
    # on Python floats: in a process that has not imported numpy, heatlab
    # registers it to load on first use, and none of them uses it. The CLI
    # registers solver and databuilder the same way, and no record class
    # imports dataclasses. Only the refused horizon executes solver
    # (find_existence_horizon refuses it); every other command executes
    # neither module, on an error exit too, since main catches their errors
    # as ValueErrors without naming them
    (tmp_path / "run.cfg").write_text("f = s^2\nd = 2\nq = 2\n")
    script = ("import sys, types\n"
              "from heatlab.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "ran = [type(sys.modules.get(name)) is types.ModuleType\n"
              "       for name in ('heatlab.solver', 'heatlab.databuilder')]\n"
              "print(rc, 'numpy._core' in sys.modules, *ran,\n"
              "      'dataclasses' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    out = subprocess.run([sys.executable, "-c", script, *argv],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    rc, numpy, solver, databuilder, dataclasses = \
        out.stdout.splitlines()[-1].split()
    assert (rc, numpy, dataclasses) == (str(code), "False", "False")
    if "horizon" not in argv:
        assert (solver, databuilder) == ("False", "False")


def test_traced_functions_stay_reachable_through_their_modules():
    # the benchmark's tracer, right after "import heatlab.cli", looks up
    # every traced function on sys.modules["heatlab.<layer>"] and rebinds
    # it there; the CLI calls solver through that module, so a function
    # rebound on it is the one main calls
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "heatbench")
    script = ("import contextlib, io, sys\n"
              "import heatlab.cli\n"
              f"sys.path.insert(0, {bench!r})\n"
              "from tracer import TRACED\n"
              "print([f'{layer}.{fn}' for layer, fns in TRACED.items()\n"
              "       for fn in fns if not callable(\n"
              "           getattr(sys.modules['heatlab.' + layer], fn))])\n"
              "solver, calls = sys.modules['heatlab.solver'], []\n"
              "real = solver.find_existence_horizon\n"
              "solver.find_existence_horizon = \\\n"
              "    lambda *a, **k: calls.append(a) or real(*a, **k)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    rc = heatlab.cli.main(['experiment', 'horizon', '--f',\n"
              "                           's^2', '--d', '1', '--u0-l1', '0.5'])\n"
              "print(rc, len(calls))\n")
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.splitlines()[-2:] == ["[]", "0 1"]


def test_missing_numpy_is_a_module_not_found_error():
    # where numpy cannot be found, importing heatlab names it, as a plain
    # "import numpy" would (a None entry in sys.modules hides numpy)
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "try:\n"
              "    import heatlab.cli\n"
              "except ModuleNotFoundError as e:\n"
              "    print(e.name, e)\n")
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "numpy No module named 'numpy'"


# --- one option table per command ---------------------------------------------

# the option table of every command line head, and one valid invocation
TABLES = {("classify",): COMMANDS["classify"][2],
          ("verify-kernel",): COMMANDS["verify-kernel"][2],
          **{("experiment", kind): table
             for kind, (_, _, table) in EXPERIMENTS.items()}}
VALID = {
    ("classify",): ["--f", "s^2", "--d", "1", "--q", "2"],
    ("verify-kernel",): ["--d", "1"],
    ("experiment", "horizon"): ["--f", "s^2", "--d", "1", "--u0-l1", "0.5"],
    ("experiment", "iterate"): ["--f", "s^2", "--d", "1"],
    ("experiment", "simulate"): ["--f", "s^2", "--d", "1", "--T", "0.01"],
    ("experiment", "lower_bound"): ["--f", "s^2", "--d", "1", "--r", "0.5",
                                    "--t", "0.01"],
    ("experiment", "blowup_trend"): ["--f", "s^4", "--d", "1", "--q", "1",
                                     "--N-range", "3..5"],
    ("experiment", "equivalence_suite"): [],
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _taken(head):
    return {"config", "out", *TABLES[head]}


@pytest.mark.parametrize("argv, flag", [
    (["classify", "--f", "s^2", "--d", "1.5", "--q", "2"], "--d"),
    (["experiment", "blowup_trend", "--f", "s^4", "--d", "1", "--q", "1",
      "--N-range", "3..5", "--n-time", "1e3"], "--n-time"),
    (["experiment", "equivalence_suite", "--seed", "1e3"], "--seed"),
    # iterate and simulate build a propagator, which needs 32 interior nodes
    (["experiment", "iterate", "--f", "s^2", "--d", "1", "--nodes", "32"],
     "--nodes"),
    (["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
      "--nodes", "10"], "--nodes"),
])
def test_non_integer_value_names_its_option(tmp_path, capsys, argv, flag):
    assert main(argv) == EXIT_ERROR
    assert _assert_one_line_error(capsys).startswith(f"error: argument {flag}:")
    # the same value from a config file is typed and rejected the same way
    i = argv.index(flag)
    (tmp_path / "bad.cfg").write_text(f"{flag[2:]} = {argv[i + 1]}\n")
    assert main(argv[:i] + argv[i + 2:] +
                ["--config", str(tmp_path / "bad.cfg")]) == EXIT_ERROR
    assert _assert_one_line_error(capsys).startswith(f"error: argument {flag}:")


# every command line head writes --out, and --csv where it takes one;
# classify keeps its bare id
@pytest.mark.parametrize("head, option", [
    pytest.param(("classify",), "--out", id="--out"),
    *(pytest.param(head, option, id=f"{head[-1]}{option}")
      for head in TABLES if head != ("classify",)
      for option in ("--csv", "--out") if option[2:] in _taken(head))])
def test_failed_write_leaves_no_report(tmp_path, capsys, head, option):
    path = str(tmp_path / "no-such-dir" / "x")
    assert main([*head, *VALID[head], option, path]) == EXIT_ERROR
    err = _assert_one_line_error(capsys)   # nothing on stdout
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("head", sorted(TABLES), ids="-".join)
def test_every_report_is_framed_the_same_way(capsys, head):
    argv = [*head, *VALID[head]]
    code, rep = run_json(capsys, argv)
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert rep["command"] == head[0]
    assert rep.get("kind") == (head[1] if head[0] == "experiment" else None)
    assert rep["constants"] == constants_block(build_parser().parse_args(
        argv).d)


# options removed from a command, and that command: it refuses them now, as
# does every command that never read them. pytest numbers these cases, so
# each removed option's own command comes last, where it shifts no other
# case's id.
RETIRED = [("inflate_cd", ("verify-kernel",)),
           ("n_points", ("verify-kernel",)),
           ("dt", ("experiment", "blowup_trend")), ("csv", ("classify",)),
           ("csv", ("experiment", "lower_bound"))]


@pytest.mark.parametrize("head, name", [
    *[(head, name) for head in TABLES
      for name in sorted({*OPTIONS, *dict(RETIRED)})
      if name not in _taken(head) and (name, head) not in RETIRED],
    *[(head, name) for name, head in RETIRED]])
def test_an_option_the_command_never_reads_is_an_error(tmp_path, capsys,
                                                       head, name):
    argv = [*head, *VALID[head]]
    assert main(argv + [_flag(name), "1"]) == EXIT_ERROR
    assert _flag(name) in _assert_one_line_error(capsys)
    (tmp_path / "run.cfg").write_text(f"{name} = 1\n")
    assert main(argv + ["--config", str(tmp_path / "run.cfg")]) == EXIT_ERROR
    assert _flag(name) in _assert_one_line_error(capsys)


def test_verify_kernel_no_longer_takes_n_points(tmp_path, capsys):
    # the certificate is one edge value per (r, t) cell, so the sample count
    # is gone: --help omits it, and a config line with a once valid value is
    # a one-line usage error, as the flag is in the out-of-scope list above
    with pytest.raises(SystemExit):
        main(["verify-kernel", "--help"])
    assert "--n-points" not in capsys.readouterr().out
    (tmp_path / "run.cfg").write_text("n-points = 5\n")
    assert main(["verify-kernel", "--config",
                 str(tmp_path / "run.cfg")]) == EXIT_ERROR
    assert "--n-points" in _assert_one_line_error(capsys)


def test_blowup_trend_no_longer_takes_dt(capsys):
    # the step is T / --n-time, so --dt was a second spelling of --n-time:
    # --help omits it (the flag itself is in the retired cases above)
    with pytest.raises(SystemExit):
        main(["experiment", "blowup_trend", "--help"])
    assert "--dt" not in capsys.readouterr().out


def test_unread_options_named_in_the_tables_are_gone():
    assert "q" not in _taken(("experiment", "horizon"))
    assert "q" not in _taken(("experiment", "iterate"))
    assert "q" not in _taken(("experiment", "equivalence_suite"))
    for head in [("verify-kernel",), ("experiment", "horizon"),
                 ("experiment", "lower_bound"),
                 ("experiment", "equivalence_suite")]:
        assert "csv" not in _taken(head)
    assert "f" not in _taken(("experiment", "equivalence_suite"))


@pytest.mark.parametrize("argv, message", [
    (["--f", "s^2", "--builtin", "power", "--p", "2"],
     "provide either --f EXPR or --builtin NAME"),
    (["--f", "s^2", "--p", "2"], "--p is read only by --builtin power"),
    (["--builtin", "power", "--beta", "1", "--p", "2"],
     "--beta is read only by --builtin log_family"),
    (["--builtin", "piecewise_power", "--p-low", "2"],
     "--builtin piecewise_power needs --p-high"),
])
def test_builtin_parameters_match_the_family(capsys, argv, message):
    assert main(["classify", "--d", "1", "--q", "2", *argv]) == EXIT_ERROR
    assert _assert_one_line_error(capsys) == f"error: {message}\n"


def test_config_file_cannot_name_another(tmp_path, capsys):
    (tmp_path / "a.cfg").write_text("config = b.cfg\n")
    assert main(["classify", "--f", "s^2", "--d", "1", "--q", "2",
                 "--config", str(tmp_path / "a.cfg")]) == EXIT_ERROR
    assert "cannot name another" in _assert_one_line_error(capsys)


@pytest.mark.parametrize("head", sorted(TABLES))
def test_help_lists_each_option_and_default(capsys, head):
    with pytest.raises(SystemExit) as exc:
        main([*head, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, default in TABLES[head].items():
        assert _flag(name) in text
        if default is not None and default is not REQUIRED:
            assert f"(default: {default})" in text


# fuzzing: every draw holds one poison, an invalid value or an option of
# another command, so main must stop at parsing with a one-line error
CANDIDATES = ["1", "2", "3", "0", "-1", "0.5", "1.5", "33", "1e3", "nan",
              "inf", "", "abc", "3..5", "5..3", "0.5,1", ",", "s^2", "bounded",
              "power", "no-such-dir/x"]


def _rejects(kind, text):
    if isinstance(kind, list):
        return text not in kind
    try:
        kind(text)
    except argparse.ArgumentTypeError:
        return True
    return False


@st.composite
def _poisoned_argv(draw):
    head = draw(st.sampled_from(sorted(TABLES)))
    names = sorted(_taken(head) - {"config"})
    pairs = []
    for name in draw(st.lists(st.sampled_from(names), unique=True,
                              max_size=6)):
        kind = OPTIONS[name][0]
        pairs.append([_flag(name), draw(st.sampled_from(
            [v for v in CANDIDATES if not _rejects(kind, v)]))])
    poisons = [[_flag(name), v] for name in names for v in CANDIDATES
               if _rejects(OPTIONS[name][0], v)]
    poisons += [[_flag(name), "1"] for name in sorted(OPTIONS)
                if name not in _taken(head)]
    pairs.insert(draw(st.integers(0, len(pairs))),
                 draw(st.sampled_from(poisons)))
    return [*head, *(token for pair in pairs for token in pair)]


def _never_run(args, argv):
    raise AssertionError(f"ran {argv}")


@settings(max_examples=200, deadline=None)
@given(_poisoned_argv())
def test_fuzzed_argv_is_one_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    stub = {k: (_never_run, *v[1:]) for k, v in COMMANDS.items()}
    stub_kinds = {k: (_never_run, *v[1:]) for k, v in EXPERIMENTS.items()}
    with mock.patch.dict(COMMANDS, stub), \
            mock.patch.dict(EXPERIMENTS, stub_kinds), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_ERROR, argv
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and \
        err.getvalue().count("\n") == 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
