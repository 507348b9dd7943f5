"""Run one ``python -m repro.sweep`` command in process, with layer spans.

Usage::

    python perfbench/tracecmd.py SPANS_FILE RUN_ID -- <sweep arguments>

The command runs exactly as ``python -m repro.sweep <sweep arguments>``
would (``src`` must be on ``PYTHONPATH``), with the wrappers of
:mod:`spans` installed.  The spans are written to ``SPANS_FILE`` as
JSON lines when the command ends, and the exit code is the command's.
"""

from __future__ import annotations

import sys

from spans import Tracer, install


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_file, run_id, sweep_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    from repro.sweep.cli import main as sweep_main

    try:
        return sweep_main(sweep_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
