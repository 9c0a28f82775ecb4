"""Run the mixdiv CLI under the span tracer and dump the span totals.

    python3 benchmarks/trace_cli.py DUMP_JSON COMMAND --spec FILE [CLI options]

The traced op of the cli_batch workload: the same subprocess as
`python -m mixdiv.cli`, with tracing.py installed before `main` runs.
"""

import json
import sys
from pathlib import Path

import mixdiv.cli
from tracing import Tracer


def main() -> int:
    dump, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = mixdiv.cli.main(argv)
    finally:
        tracer.uninstall()
    dump.write_text(json.dumps(tracer.aggregate()))
    return code


if __name__ == "__main__":
    sys.exit(main())
