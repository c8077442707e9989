"""One benchmark set-up in a fresh interpreter, timed from outside by run.py.

Set-up is interpreter start, importing the program, and generating and
writing the first round's instance files. Reference answers are not part of
it. With ``--reference`` the probe does the same work without importing the
program: run.py reports set-up time relative to this reference set-up, run
right after it, so that the machine's speed of the moment cancels out.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <directory> [--reference]
"""

import importlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(workload, seed, directory, *flags):
    if "--reference" not in flags:
        importlib.import_module("imtw.cli")  # importing the program is part of set-up
    from workloads import make_round, write_instance

    os.makedirs(directory, exist_ok=True)
    for inst in make_round(workload, int(seed), 0):
        write_instance(inst, directory)


if __name__ == "__main__":
    main(*sys.argv[1:])
