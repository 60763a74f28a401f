"""Set-up probe, run as a fresh process by run.py to time `setup_s`.

Imports smoothop from the checkout's src/, calibrates the default multiplier
and touches the grids of one workload, then exits.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import smoothop  # noqa: E402

import workloads  # noqa: E402

smoothop.default_multiplier()
workloads.touch(workloads.WORKLOADS[sys.argv[1]])
