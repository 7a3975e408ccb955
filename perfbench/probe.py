"""Set-up probe: one fresh process that imports the CLI and builds the inputs.

Prints the seconds from its first statement to the end of input
generation.  Interpreter start-up is the interpreter's own cost and is
left out.  Usage: ``python3 perfbench/probe.py WORKLOAD SEED CONFIG_DIR``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import wignerlab.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - START))
