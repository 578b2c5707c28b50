"""Set-up probe: import the jonq CLI and build its parser, as every CLI run
does before any work, then print when that finished and the versions in use.

    python3 perfbench/probe.py

The end of set-up is also marked on stderr, so that `-X importtime` lines
after the mark (the version imports below) can be told apart.
"""

import sys
import time

start = time.perf_counter()
import jonq.cli  # noqa: E402

imported = time.perf_counter()
jonq.cli.build_parser()
done = time.monotonic()
print("set-up done", file=sys.stderr, flush=True)

import json  # noqa: E402

import numpy  # noqa: E402
import sympy  # noqa: E402

print(json.dumps({
    "done": done,
    "import_s": imported - start,
    "backend": jonq.BACKEND,
    "numpy": numpy.__version__,
    "sympy": sympy.__version__,
}))
