"""Set-up probe: start an interpreter, import the CLI, parse one workload's
arguments, and print the CLOCK_MONOTONIC time at which its first run would
start.  run.py subtracts the time at which it spawned this process.

    python3 perfbench/setup_probe.py full-lists
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchlab import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cli.build_parser().parse_args(WORKLOADS[sys.argv[1]].cli_args(0, "unused"))
print(time.monotonic())
