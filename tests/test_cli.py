"""End-to-end CLI tests: exit codes, determinism, config handling, artifacts."""

import json
import os
import subprocess
import sys

import pytest

import heatlab
from heatlab.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    load_config,
    main,
)


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


def test_classify_dead_band_exit_code(capsys):
    # exponent inside the slope dead band around the critical power
    code, rep = run_json(capsys, ["classify", "--f", "s^3.02", "--d", "2",
                                  "--q", "2"])
    assert code == EXIT_INCONCLUSIVE
    assert rep["verdict"]["outcome"] == "Inconclusive"


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
    cfg.write_text("s-max = 1e6\n")
    assert load_config(str(cfg)) == {"s_max": "1e6"}


def test_csv_evidence_export(tmp_path):
    csv_path = tmp_path / "ev.csv"
    assert main(["classify", "--f", "s^3", "--d", "1", "--q", "1",
                 "--out", str(tmp_path / "r.json"),
                 "--csv", str(csv_path)]) == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "s,statistic" and len(lines) > 10


# --- verify-kernel -------------------------------------------------------------


def test_verify_kernel_passes(capsys):
    code, rep = run_json(capsys, ["verify-kernel", "--d", "1",
                                  "--r-grid", "0.5,1", "--t-grid", "0.25,1",
                                  "--n-points", "5"])
    assert code == EXIT_OK and rep["passed"]
    assert rep["report"]["passed"]
    assert rep["definition_check"]["min_margin"] == 0.0
    assert rep["report"]["variant"] == "whole_space"
    assert rep["constants"]["kernel"]["variant"] == "whole_space"


def test_verify_kernel_has_no_dirichlet_variant(capsys):
    # only the whole-space kernel is evaluated, so there is nothing to
    # certify for the Dirichlet constants
    with pytest.raises(SystemExit) as exc:
        main(["verify-kernel", "--d", "1", "--variant", "dirichlet"])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err


def test_verify_kernel_inflated_constant_fails(capsys):
    code, rep = run_json(capsys, ["verify-kernel", "--d", "1",
                                  "--r-grid", "0.5", "--t-grid", "0.25",
                                  "--n-points", "5", "--inflate-cd", "3"])
    assert code == EXIT_ERROR and not rep["passed"]
    check = rep["definition_check"]
    assert check["min_margin"] < 0.0
    assert check["witness"]["c_d"] == pytest.approx(
        3.0 * check["witness"]["defining_value"], rel=1e-12)


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
                                  "--d", "2", "--u0-l1", "0.5"])
    assert code == EXIT_OK
    assert rep["result"]["T"] > 0.0
    assert rep["result"]["integral_value"] <= rep["result"]["condition_bound"]


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


# --- inputs outside the solver's or the theorem's scope -------------------------


def _assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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
    ["verify-kernel", "--d", "2", "--n-points", "1"],
    ["verify-kernel", "--d", "2", "--n-points", "0"],
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
     "--q", "1e300", "--amplitude", "0.1"],
])
def test_out_of_scope_input_is_a_one_line_error(capsys, argv):
    assert main(argv) == EXIT_ERROR
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("argv, codes", [
    (["classify", "--f", "0*s", "--d", "1", "--q", "2"], {EXIT_OK}),
    (["classify", "--f", "0*s", "--d", "2", "--q", "2", "--domain",
      "whole_space"], {EXIT_OK}),
    (["classify", "--f", "s^2", "--d", "1", "--q", "1e307"], {EXIT_OK}),
    (["classify", "--f", "0*s", "--d", "1", "--q", "1"],
     {EXIT_OK, EXIT_INCONCLUSIVE}),
    (["experiment", "simulate", "--f", "s^2", "--d", "1", "--T", "0.01",
      "--q", "1e300"], {EXIT_ERROR}),
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


# --- cold start ---------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],  # import heatlab alone
    ["classify", "--f", "s^3", "--d", "1", "--q", "1"],
    ["classify", "--f", "s^2", "--d", "2", "--q", "2"],
    ["classify", "--builtin", "log_family", "--d", "2", "--beta", "1",
     "--q", "1"],
    ["classify", "--config", "run.cfg", "--q", "3"],
    ["experiment", "horizon", "--f", "s + s^2", "--d", "2", "--u0-l1", "0.5"],
    ["experiment", "lower_bound", "--f", "s^2", "--d", "1", "--r", "0.5",
     "--t", "0.01"],
    ["experiment", "equivalence_suite", "--seed", "7", "--count", "3",
     "--d", "2"],
])
def test_deciding_commands_leave_scipy_unimported(tmp_path, argv):
    # only evaluating a ball profile or diagonalising a band needs scipy;
    # the constants, the classifiers and the horizon run without it
    (tmp_path / "run.cfg").write_text("f = s^2\nd = 2\nq = 2\n")
    script = ("import sys\n"
              "import heatlab\n"
              "from heatlab.cli import main\n"
              "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(rc, sorted(m for m in sys.modules\n"
              "                 if m == 'scipy' or m.startswith('scipy.')))\n")
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    out = subprocess.run([sys.executable, "-c", script, *argv],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.splitlines()[-1] in ("0 []", "2 []")
