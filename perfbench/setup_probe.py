"""Set-up as a user pays it: start an interpreter, import the package and the
CLI, generate one workload's inputs, exit.  ``run.py`` times this script.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  imports cutcomplexes and cutcomplexes.cli

if __name__ == "__main__":
    workloads.prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
