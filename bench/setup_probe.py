"""Set-up as a user pays it: a fresh interpreter imports ctdi and its CLI,
resolves one workload's configuration and builds its models, then exits.

Usage: PYTHONPATH=src python3 bench/setup_probe.py WORKLOAD SEED SIZE
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](size, Path(".bench_out")).build(seed)
