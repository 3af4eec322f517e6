"""Traced stand-in for ``python -m heatlab.cli``.

Usage: python cli_child.py TRACE_JSON ARGS...

Times ``import heatlab.cli``, installs the layer tracer, runs
``heatlab.cli.main(ARGS)`` and writes the span summary to TRACE_JSON. The
exit code is main's, as with the real entry point.
"""

import time

ENTERED = time.time()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import heatlab.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer  # after the timed import: it loads numpy
    tracer = Tracer()
    with tracer.installed(extra=[("heatlab.cli", "main", "cli.main")]):
        rc = heatlab.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(entered=ENTERED, import_s=import_s, rc=rc)
    with open(trace_path, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
