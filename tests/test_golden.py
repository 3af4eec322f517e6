"""The eleven reference CLI commands against their golden outputs, and every
--help text and a set of usage errors against the parser that builds every
command's options up front.

tests/golden/regenerate.py holds the commands and writes the golden files;
see its docstring for the output pinned although known to be wrong. Keys,
strings, verdicts, booleans, integers, exit codes and stderr must match
exactly; floats within 1e-12 relative, since numpy releases and BLAS builds
may round the last bits differently.
"""

import argparse
import importlib.util
import json
import math
from pathlib import Path

import pytest

from heatlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               GOLDEN / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

REL_TOL = 1e-12


def _cell(text):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _parse(file, text):
    """A JSON file (or non-empty stdout) as data, a CSV as rows of cells,
    anything else (stderr, exit_code) as its text."""
    if file.endswith(".json") or (file == "stdout" and text):
        return json.loads(text)
    if file.endswith(".csv"):
        return [[_cell(c) for c in line.split(",")]
                for line in text.splitlines()]
    return text


def _assert_same(ours, want, where):
    if isinstance(want, float) and isinstance(ours, float):
        assert math.isclose(ours, want, rel_tol=REL_TOL, abs_tol=0.0), \
            f"{where}: {ours!r} != {want!r}"
        return
    assert type(ours) is type(want), f"{where}: {ours!r} != {want!r}"
    if isinstance(want, dict):
        assert list(ours) == list(want), f"{where}: keys differ"
        for key in want:
            _assert_same(ours[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(ours) == len(want), f"{where}: lengths differ"
        for k, (a, b) in enumerate(zip(ours, want)):
            _assert_same(a, b, f"{where}[{k}]")
    else:
        assert ours == want, f"{where}: {ours!r} != {want!r}"


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_cli_output_matches_golden(tmp_path, name):
    ours = golden.run(golden.COMMANDS[name], tmp_path)
    want = {path.name: path.read_text()
            for path in sorted((GOLDEN / name).iterdir())}
    assert sorted(ours) == sorted(want), "the command wrote other files"
    for file, text in want.items():
        _assert_same(_parse(file, ours[file]), _parse(file, text),
                     f"{name}/{file}")


USAGE = [
    "--help", "experiment --help", "classify --help", "verify-kernel --help",
    *(f"experiment {kind} --help" for kind in cli.EXPERIMENTS),
    "", "bogus", "experiment", "experiment bogus", "classify --f",
    "classify --f s^3 --d 1", "classify --f s^3 --d 1 --q 1 --bogus",
    "classify --f s^3 --d 0 --q 1", "classify --f s^3 --d 1 --q 1 --domain x",
    "classify --f s^2 --d 1 --q 2 --csv x.csv", "verify-kernel --f s^2",
    "verify-kernel --r-grid 0,1", "classify --config run.cfg --q 3 --r 1",
    "experiment --f s^2 horizon --d 1 --u0-l1 1",
    "experiment horizon --f s+s^2 --d 2 --u0-l1 0.5 --nodes 9",
    "experiment iterate --f s^2 --d 1 --n-time 1.5",
    "experiment blowup_trend --f s^4 --d 1 --q 1 --N-range 5..3",
    "experiment lower_bound --f s^2 --d 1 --r 0.5 --t 0.01 --csv x.csv",
    "experiment equivalence_suite --seed -1",
]


def _eager(parser):
    """parser with every subparser's options added before it parses."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                if sub.table is not None:
                    cli._add_options(sub, sub.table)
                    sub.table = None
                _eager(sub)
    return parser


@pytest.mark.parametrize("argv", USAGE)
def test_help_and_usage_errors_match_the_eager_parser(monkeypatch, tmp_path,
                                                      argv):
    # a run adds only its own command's options; every --help text and usage
    # error is byte for byte what the parser with all of them prints
    (tmp_path / "lazy").mkdir()
    (tmp_path / "eager").mkdir()
    lazy = golden.run(argv.split(), tmp_path / "lazy")
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: _eager(build()))
    assert golden.run(argv.split(), tmp_path / "eager") == lazy
