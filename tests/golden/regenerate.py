"""Regenerate the golden outputs of the eleven reference CLI commands.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

COMMANDS holds the README commands, the README config example and one
lower_bound, as the benchmark's cli_cold workload runs them. Each runs
through ``heatlab.cli.main`` in a fresh temporary directory that holds the
README's run.cfg. Its stdout, stderr, exit code and every file it writes
(--out, --csv; not the .meta.json, which holds a timestamp) go to
``tests/golden/<name>/``. ``tests/test_golden.py`` reruns each command the
same way and compares: keys, strings, verdicts, booleans, integers, exit
codes and stderr exactly, floats within 1e-12 relative.

A change that moves report bytes on purpose reruns this script, so the diff
shows the moved values, and lists them in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

from heatlab.cli import main

GOLDEN = Path(__file__).resolve().parent

COMMANDS = {name: argv.split() for name, argv in {
    "classify_power": "classify --f s^3 --d 1 --q 1",
    "classify_lq": "classify --f s^2 --d 2 --q 2",
    "classify_log": "classify --builtin log_family --d 2 --beta 1 --q 1",
    "verify_kernel": "verify-kernel --d 2 --r-grid 0.25,1,4 --t-grid 0.01,1,4",
    "horizon": "experiment horizon --f s+s^2 --d 2 --u0-l1 0.5",
    "iterate": "experiment iterate --f s^2 --d 1 --r 0.5 --amplitude 0.1 "
               "--out iterate.json --csv trace.csv",
    "simulate": "experiment simulate --f s^2 --d 1 --r 0.5 --amplitude 0.1 "
                "--T 0.01 --csv trajectory.csv",
    "blowup_trend": "experiment blowup_trend --f s^4 --d 1 --q 1 "
                    "--N-range 3..8",
    "equivalence_suite": "experiment equivalence_suite --seed 7 --count 20 "
                         "--d 2",
    "classify_config": "classify --config run.cfg --q 3",
    "lower_bound": "experiment lower_bound --f s^2 --d 1 --r 0.5 --t 0.01",
}.items()}

RUN_CFG = "# run.cfg\nf = s^2\nd = 2\nq = 2\n"   # the README's config file


def run(argv: list, workdir: Path) -> dict:
    """main(argv) run in workdir, an empty directory: {file name: text} for
    "stdout", "stderr", "exit_code" and each file the command wrote."""
    (workdir / "run.cfg").write_text(RUN_CFG)
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help exits through argparse
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {"stdout": out.getvalue(), "stderr": err.getvalue(),
             "exit_code": f"{code}\n"}
    for path in sorted(workdir.iterdir()):
        if path.name != "run.cfg" and not path.name.endswith(".meta.json"):
            files[path.name] = path.read_text()
    return files


def regenerate() -> None:
    for name, argv in COMMANDS.items():
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        with tempfile.TemporaryDirectory() as tmp:
            for file, text in run(argv, Path(tmp)).items():
                (target / file).write_text(text)


if __name__ == "__main__":
    regenerate()
