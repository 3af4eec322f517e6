"""The eleven reference CLI commands against their golden outputs.

tests/golden/regenerate.py holds the commands and writes the golden files;
see its docstring for the output pinned although known to be wrong. Keys,
strings, verdicts, booleans, integers, exit codes and stderr must match
exactly; floats within 1e-12 relative, since numpy releases and BLAS builds
may round the last bits differently.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

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
