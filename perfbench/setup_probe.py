"""One set-up measured by run.py: import, parse the config, generate u0, say ready.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR
"""

import sys
from pathlib import Path

import run  # imports numpy, scipy and logac, as a user's process does

run.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
