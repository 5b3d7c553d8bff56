"""Traced stand-in for ``python -m ltspread.cli``.

Usage: python perfbench/trace_child.py <lts arguments>

Imports the package inside a ``process.import`` span, installs the layer
wrappers, runs ``ltspread.cli.run`` with the given arguments and writes the
spans as JSON to the file named by PERFBENCH_SPANS.  Stdout and the exit
code are those of ``lts``.  PERFBENCH_ALLOC=1 also records the peak
allocation of each extremal search.
"""

import json
import os
import sys

from spans import Tracer, spans_to_json


def main() -> int:
    tracer = Tracer(measure_alloc=os.environ.get("PERFBENCH_ALLOC") == "1")
    with tracer.span("process.import"):
        import ltspread.cli
    with tracer:
        code = ltspread.cli.run(sys.argv[1:])
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
        json.dump(spans_to_json(tracer.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
