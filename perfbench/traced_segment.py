"""Run the dynseg command line with every wrapped module function traced.

    python3 perfbench/traced_segment.py TRACE_JSON segment MANIFEST --out DIR [flags]

The arguments after TRACE_JSON go to ``dynseg.cli.main`` unchanged.  The
spans stay in memory until the command returns; they are then written to
TRACE_JSON together with the seconds the tracer spent off the clock, and
the process exits with the command's exit code.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, SRC)
    from dynseg import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"offclock_s": tracer.offclock_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
