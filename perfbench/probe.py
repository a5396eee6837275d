"""Set-up probe: start an interpreter, import effico, warm up one workload.

Prints ``ready`` when the workload could run its first op; run.py times
the interval from spawning this script to that line.

    python3 perfbench/probe.py exact-sweep
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports effico from the path above)

workloads.WORKLOADS[sys.argv[1]].warm_up()
print("ready", flush=True)
