"""Run one mcf4d CLI subcommand under the span recorder.

    python3 bench/cli_child.py SPANS.json SUBCOMMAND --config FILE [...]

The traced run of the cli_pipeline workload starts this in place of
``python -m mcf4d.cli``; it writes the subcommand's spans and the derivative
matrix cache misses to SPANS.json and exits with the subcommand's code.
"""

import json
import sys

import tracer
from mcf4d import cli, stencils


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.SpanRecorder()
    code = 1
    try:
        with tracer.instrument(recorder):
            code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump({"spans": recorder.to_records(),
                       "misses": stencils.derivative_matrix.cache_info().misses},
                      fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
